//! User registry and per-user rate limiting (Appx. A).
//!
//! The real system keeps a manually maintained user database with two
//! rate-limit parameters: maximum parallel measurements and maximum
//! measurements per day. Days are *virtual* (the prober's clock).

use parking_lot::Mutex;
use revtr_netsim::Addr;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-user rate limits, as in the paper's user database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateLimits {
    /// Maximum concurrent reverse traceroutes.
    pub max_parallel: u32,
    /// Maximum reverse traceroutes per (virtual) day.
    pub max_per_day: u64,
}

impl Default for RateLimits {
    fn default() -> Self {
        RateLimits {
            max_parallel: 8,
            max_per_day: 100_000,
        }
    }
}

/// An API key issued to a user.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ApiKey(pub u64);

#[derive(Debug)]
struct UserState {
    name: String,
    limits: RateLimits,
    sources: Vec<Addr>,
    in_flight: u32,
    day_index: u64,
    used_today: u64,
}

impl UserState {
    /// Units of today's quota still unspent at `now_hours` (a new virtual
    /// day starts the count afresh).
    fn quota_left(&mut self, now_hours: f64) -> u64 {
        let day = (now_hours / 24.0).floor() as u64;
        if day != self.day_index {
            self.day_index = day;
            self.used_today = 0;
        }
        self.limits.max_per_day.saturating_sub(self.used_today)
    }
}

/// Errors from the user/limits layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UserError {
    /// Unknown API key.
    UnknownUser,
    /// Too many concurrent measurements.
    TooManyParallel,
    /// Daily budget exhausted.
    DailyQuotaExceeded,
    /// The requested source is not registered to this user (or at all).
    UnknownSource,
}

impl std::fmt::Display for UserError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UserError::UnknownUser => write!(f, "unknown API key"),
            UserError::TooManyParallel => write!(f, "parallel measurement limit reached"),
            UserError::DailyQuotaExceeded => write!(f, "daily measurement quota exceeded"),
            UserError::UnknownSource => write!(f, "source not registered"),
        }
    }
}

impl std::error::Error for UserError {}

/// The user database.
#[derive(Debug, Default)]
pub struct UserDb {
    users: Mutex<HashMap<ApiKey, UserState>>,
    next_key: Mutex<u64>,
}

/// RAII permit for one in-flight measurement; releasing it frees the
/// parallel slot.
#[derive(Debug)]
pub struct Permit<'a> {
    db: &'a UserDb,
    key: ApiKey,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if let Some(u) = self.db.users.lock().get_mut(&self.key) {
            u.in_flight = u.in_flight.saturating_sub(1);
        }
    }
}

impl UserDb {
    /// Empty registry.
    pub fn new() -> UserDb {
        UserDb::default()
    }

    /// Register a user; returns their API key.
    pub fn add_user(&self, name: &str, limits: RateLimits) -> ApiKey {
        let mut next = self.next_key.lock();
        *next += 1;
        let key = ApiKey(0xA91_0000 + *next);
        self.users.lock().insert(
            key,
            UserState {
                name: name.to_string(),
                limits,
                sources: Vec::new(),
                in_flight: 0,
                day_index: 0,
                used_today: 0,
            },
        );
        key
    }

    /// The user's display name.
    pub fn user_name(&self, key: ApiKey) -> Option<String> {
        self.users.lock().get(&key).map(|u| u.name.clone())
    }

    /// Attach a source address to a user.
    pub fn add_source(&self, key: ApiKey, src: Addr) -> Result<(), UserError> {
        let mut g = self.users.lock();
        let u = g.get_mut(&key).ok_or(UserError::UnknownUser)?;
        if !u.sources.contains(&src) {
            u.sources.push(src);
        }
        Ok(())
    }

    /// Admission control for one measurement toward `src` at virtual time
    /// `now_hours`. On success, returns a [`Permit`] holding the parallel
    /// slot and charges the daily quota.
    pub fn admit(&self, key: ApiKey, src: Addr, now_hours: f64) -> Result<Permit<'_>, UserError> {
        let mut g = self.users.lock();
        let u = g.get_mut(&key).ok_or(UserError::UnknownUser)?;
        if !u.sources.contains(&src) {
            return Err(UserError::UnknownSource);
        }
        if u.quota_left(now_hours) == 0 {
            return Err(UserError::DailyQuotaExceeded);
        }
        if u.in_flight >= u.limits.max_parallel {
            return Err(UserError::TooManyParallel);
        }
        u.in_flight += 1;
        u.used_today += 1;
        Ok(Permit { db: self, key })
    }

    /// Admission control for a whole batch campaign toward `sources` (one
    /// per pair) at virtual time `now_hours`, all or nothing under one
    /// lock: every source must be the user's and the day's remaining quota
    /// must cover every pair, else nothing is charged. Holds no parallel
    /// slot — the campaign's width takes that limit's place.
    pub fn admit_batch(
        &self,
        key: ApiKey,
        sources: impl IntoIterator<Item = Addr>,
        now_hours: f64,
    ) -> Result<(), UserError> {
        let mut g = self.users.lock();
        let u = g.get_mut(&key).ok_or(UserError::UnknownUser)?;
        let mut n = 0u64;
        for src in sources {
            if !u.sources.contains(&src) {
                return Err(UserError::UnknownSource);
            }
            n += 1;
        }
        if n > u.quota_left(now_hours) {
            return Err(UserError::DailyQuotaExceeded);
        }
        u.used_today += n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_limits() {
        let db = UserDb::new();
        let key = db.add_user(
            "alice",
            RateLimits {
                max_parallel: 2,
                max_per_day: 3,
            },
        );
        assert_eq!(db.user_name(key).as_deref(), Some("alice"));
        let src = Addr::new(11, 0, 128, 4);
        assert_eq!(
            db.admit(key, src, 0.0).unwrap_err(),
            UserError::UnknownSource
        );
        db.add_source(key, src).expect("user exists");

        let p1 = db.admit(key, src, 0.0).expect("first admit");
        let p2 = db.admit(key, src, 0.0).expect("second admit");
        assert_eq!(
            db.admit(key, src, 0.0).unwrap_err(),
            UserError::TooManyParallel
        );
        drop(p1);
        let p3 = db.admit(key, src, 0.0).expect("slot freed");
        // Daily quota: 3 used.
        assert_eq!(
            db.admit(key, src, 0.1).unwrap_err(),
            UserError::DailyQuotaExceeded
        );
        drop(p2);
        drop(p3);
        // Next virtual day resets the quota.
        assert!(db.admit(key, src, 25.0).is_ok());
    }

    #[test]
    fn batch_admission_is_all_or_nothing() {
        let db = UserDb::new();
        let key = db.add_user(
            "bulk",
            RateLimits {
                max_parallel: 1,
                max_per_day: 5,
            },
        );
        let (src, other) = (Addr::new(11, 0, 128, 4), Addr::new(11, 0, 129, 4));
        db.add_source(key, src).expect("user exists");
        // One unknown source, or one unit too many: nothing is charged.
        assert_eq!(
            db.admit_batch(key, [src, other], 0.0),
            Err(UserError::UnknownSource)
        );
        assert_eq!(
            db.admit_batch(key, [src; 6], 0.0),
            Err(UserError::DailyQuotaExceeded)
        );
        assert_eq!(db.admit_batch(key, [src; 5], 0.0), Ok(()));
        assert_eq!(
            db.admit_batch(key, [src], 0.0),
            Err(UserError::DailyQuotaExceeded)
        );
        assert_eq!(
            db.admit_batch(key, [], 0.0),
            Ok(()),
            "an empty batch is free"
        );
        // The next virtual day restores the quota.
        assert_eq!(db.admit_batch(key, [src; 5], 24.0), Ok(()));
    }

    #[test]
    fn unknown_key_rejected() {
        let db = UserDb::new();
        assert_eq!(
            db.admit(ApiKey(42), Addr(1), 0.0).unwrap_err(),
            UserError::UnknownUser
        );
    }
}
