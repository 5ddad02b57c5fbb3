//! Deterministic fault injection: the hostile-Internet layer.
//!
//! The deployed system runs against a network where probes are lost,
//! routers rate-limit ICMP, spoof-capable vantage points flap behind
//! upstream filters, and links disappear into maintenance windows
//! (§5.2.4 reports unanswered spoofed batches as the dominant latency
//! factor). This module injects those failures *deterministically*:
//! every draw is a pure function of `(fault seed, entity, epoch)` in the
//! style of [`crate::behavior`], so a campaign under faults is exactly
//! reproducible from its seed, and with [`FaultConfig::default`] (all
//! rates zero) the simulation is bit-identical to a fault-free one.
//!
//! Four fault classes are modelled:
//!
//! * **Transient per-probe loss** — each probe nonce independently lost
//!   with probability [`FaultConfig::probe_loss`].
//! * **Per-router ICMP rate limiting** — a token bucket per responding
//!   router, refilled in *virtual* time ([`Faults::icmp_allowed`]).
//! * **VP spoof-filter flaps** — a vantage point's spoofed packets are
//!   silently dropped during seeded windows of virtual time.
//! * **Scheduled link maintenance** — links go down during seeded
//!   windows; packets crossing them are dropped mid-walk, which probers
//!   cannot distinguish from an unresponsive destination (by design).

use crate::addr::Addr;
use crate::hash::{chance, mix2, mix3};
use crate::ids::{LinkId, RouterId};
use parking_lot::Mutex;
use revtr_telemetry::WordHasher;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Salts for independent fault draws.
mod salt {
    pub(crate) const PROBE_LOSS: u64 = 0x31;
    pub(crate) const VP_FLAP: u64 = 0x32;
    pub(crate) const LINK_MAINT: u64 = 0x33;
    pub(crate) const SEED: u64 = 0xfa_017;
}

/// Token-bucket burst depth for the ICMP rate limiter (replies that may be
/// generated back-to-back after an idle period).
const ICMP_BURST: f64 = 50.0;

/// Length of one VP flap window in virtual hours.
const VP_FLAP_WINDOW_HOURS: f64 = 1.0;

/// Length of one link maintenance window in virtual hours.
const LINK_MAINTENANCE_WINDOW_HOURS: f64 = 6.0;

/// Fault-injection rates. All rates default to **zero** (faults off), so
/// existing seeds reproduce byte-identically unless a study opts in.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// P(a single probe packet — or its reply — is lost in transit).
    /// Applied per probe attempt, independently, keyed by the probe nonce.
    pub probe_loss: f64,
    /// ICMP generation rate limit per responding router, in replies per
    /// virtual second. `0.0` disables rate limiting entirely.
    pub icmp_rate_limit_pps: f64,
    /// P(a vantage point's spoofed packets are filtered during any given
    /// flap window) — upstream filters flap on and off (§5.2.4).
    pub vp_flap_rate: f64,
    /// P(a link is under maintenance during any given maintenance
    /// window). Packets crossing a down link are silently dropped.
    pub link_maintenance_rate: f64,
}

impl FaultConfig {
    /// A lossy-Internet preset: transient loss only, at rate `p`.
    pub fn lossy(p: f64) -> FaultConfig {
        FaultConfig {
            probe_loss: p,
            ..FaultConfig::default()
        }
    }

    /// True if any fault class is active. When false the oracle is never
    /// consulted on the hot path, guaranteeing fault-free runs spend no
    /// extra entropy and stay bit-identical to pre-fault builds.
    pub fn any_enabled(&self) -> bool {
        self.probe_loss > 0.0
            || self.icmp_rate_limit_pps > 0.0
            || self.vp_flap_rate > 0.0
            || self.link_maintenance_rate > 0.0
    }
}

/// Token-bucket state for one router's ICMP limiter (virtual time).
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    last_ms: f64,
}

/// Fault oracle: derives per-entity fault state deterministically.
///
/// All window-based draws (`vp_spoof_flapped`, `link_down`) are pure
/// functions of `(seed, entity, window index)`. The ICMP token buckets
/// hold mutable state but evolve deterministically in virtual time, so a
/// serial campaign replays identically.
pub struct Faults {
    seed: u64,
    cfg: FaultConfig,
    /// Router id → its bucket, made on the router's first reply. Only
    /// looked up, never iterated: a word hash is enough.
    buckets: Mutex<HashMap<u32, Bucket, BuildHasherDefault<WordHasher>>>,
}

impl Faults {
    /// Create from the sim seed and a fault config.
    pub fn new(seed: u64, cfg: FaultConfig) -> Faults {
        Faults {
            seed: mix2(seed, salt::SEED),
            cfg,
            buckets: Mutex::default(),
        }
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True if any fault class is active (see [`FaultConfig::any_enabled`]).
    pub fn any_enabled(&self) -> bool {
        self.cfg.any_enabled()
    }

    /// True if link maintenance windows are active ([`Sim::walk`]'s gate).
    ///
    /// [`Sim::walk`]: crate::sim::Sim::walk
    pub fn links_enabled(&self) -> bool {
        self.cfg.link_maintenance_rate > 0.0
    }

    /// Is this probe attempt lost in transit? Keyed by the per-attempt
    /// nonce, so a retry (fresh nonce) re-rolls the draw.
    pub fn probe_lost(&self, nonce: u64) -> bool {
        self.cfg.probe_loss > 0.0
            && chance(
                mix3(self.seed, salt::PROBE_LOSS, nonce),
                self.cfg.probe_loss,
            )
    }

    /// Are spoofed packets from this vantage point being filtered at
    /// virtual time `now_hours`? Flap state is constant within one
    /// window and re-drawn per `(vp, window)`.
    pub fn vp_spoof_flapped(&self, vp: Addr, now_hours: f64) -> bool {
        if self.cfg.vp_flap_rate <= 0.0 {
            return false;
        }
        let w = (now_hours / VP_FLAP_WINDOW_HOURS).floor() as u64;
        chance(
            mix3(self.seed ^ salt::VP_FLAP, vp.0 as u64, w),
            self.cfg.vp_flap_rate,
        )
    }

    /// Is this link inside a scheduled maintenance window at virtual time
    /// `now_hours`?
    pub fn link_down(&self, l: LinkId, now_hours: f64) -> bool {
        if self.cfg.link_maintenance_rate <= 0.0 {
            return false;
        }
        let w = (now_hours / LINK_MAINTENANCE_WINDOW_HOURS).floor() as u64;
        chance(
            mix3(self.seed ^ salt::LINK_MAINT, l.0 as u64, w),
            self.cfg.link_maintenance_rate,
        )
    }

    /// May this router generate one more ICMP reply at virtual time
    /// `now_ms`? Consumes a token when allowed. A classic token bucket:
    /// `rate` tokens/second refill, capped at `ICMP_BURST`; a reply needs one
    /// whole token. Deterministic for any serial probe schedule.
    pub fn icmp_allowed(&self, r: RouterId, now_ms: f64) -> bool {
        let rate = self.cfg.icmp_rate_limit_pps;
        if rate <= 0.0 {
            return true;
        }
        let mut buckets = self.buckets.lock();
        let b = buckets.entry(r.0).or_insert(Bucket {
            tokens: ICMP_BURST,
            last_ms: now_ms,
        });
        let dt_s = ((now_ms - b.last_ms) / 1_000.0).max(0.0);
        b.tokens = (b.tokens + dt_s * rate).min(ICMP_BURST);
        b.last_ms = b.last_ms.max(now_ms);
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for Faults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Faults")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let f = Faults::new(7, FaultConfig::default());
        assert!(!f.any_enabled());
        assert!(!f.links_enabled());
        for n in 0..5_000u64 {
            assert!(!f.probe_lost(n));
        }
        assert!(!f.vp_spoof_flapped(Addr::new(10, 0, 0, 1), 3.5));
        assert!(!f.link_down(LinkId(9), 3.5));
        for _ in 0..1_000 {
            assert!(f.icmp_allowed(RouterId(1), 0.0));
        }
    }

    #[test]
    fn probe_loss_rate_approximately_matches() {
        let f = Faults::new(11, FaultConfig::lossy(0.3));
        let n = 50_000u64;
        let lost = (0..n).filter(|&x| f.probe_lost(x)).count();
        let p = lost as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.02, "loss rate {p}");
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = Faults::new(1, FaultConfig::lossy(0.5));
        let b = Faults::new(1, FaultConfig::lossy(0.5));
        let c = Faults::new(2, FaultConfig::lossy(0.5));
        let va: Vec<bool> = (0..2_000).map(|n| a.probe_lost(n)).collect();
        let vb: Vec<bool> = (0..2_000).map(|n| b.probe_lost(n)).collect();
        let vc: Vec<bool> = (0..2_000).map(|n| c.probe_lost(n)).collect();
        assert_eq!(va, vb, "same seed must replay identically");
        assert_ne!(va, vc, "different seeds must differ");
    }

    #[test]
    fn flap_state_constant_within_a_window() {
        let cfg = FaultConfig {
            vp_flap_rate: 0.5,
            ..FaultConfig::default()
        };
        let f = Faults::new(3, cfg);
        let vp = Addr::new(10, 1, 2, 3);
        let in_window = f.vp_spoof_flapped(vp, 5.1);
        assert_eq!(f.vp_spoof_flapped(vp, 5.9), in_window);
        // Over many windows, roughly half are flapped.
        let flapped = (0..1_000)
            .filter(|&w| f.vp_spoof_flapped(vp, w as f64 + 0.5))
            .count();
        assert!((350..=650).contains(&flapped), "flapped {flapped}/1000");
    }

    /// Drain `r`'s full burst at `now_ms`.
    fn drain(f: &Faults, r: RouterId, now_ms: f64) {
        for _ in 0..ICMP_BURST as usize {
            assert!(f.icmp_allowed(r, now_ms), "the burst must pass");
        }
    }

    #[test]
    fn token_bucket_limits_then_refills() {
        let cfg = FaultConfig {
            icmp_rate_limit_pps: 2.0,
            ..FaultConfig::default()
        };
        let f = Faults::new(5, cfg);
        let r = RouterId(42);
        // The burst passes, the next reply is limited.
        drain(&f, r, 0.0);
        assert!(!f.icmp_allowed(r, 0.0));
        // After one virtual second, 2 tokens refilled.
        assert!(f.icmp_allowed(r, 1_000.0));
        assert!(f.icmp_allowed(r, 1_000.0));
        assert!(!f.icmp_allowed(r, 1_000.0));
        // Independent per router.
        assert!(f.icmp_allowed(RouterId(43), 0.0));
    }

    #[test]
    fn token_bucket_refill_exactly_at_virtual_time_boundary() {
        // 2 tokens/s: after draining at t=0 the next whole token exists at
        // exactly t=500 ms. The bucket must deny strictly before the
        // boundary and allow at it — `tokens >= 1.0` with exact float
        // arithmetic (0.5 + 0.5 == 1.0), not an off-by-epsilon either way.
        let cfg = FaultConfig {
            icmp_rate_limit_pps: 2.0,
            ..FaultConfig::default()
        };
        let f = Faults::new(5, cfg);
        let r = RouterId(7);
        drain(&f, r, 0.0);
        assert!(!f.icmp_allowed(r, 0.0), "bucket drained");
        // Halfway: 0.5 tokens — still denied (a reply needs a whole one).
        assert!(!f.icmp_allowed(r, 250.0));
        // Exactly at the refill boundary: 0.5 + 0.25 s · 2/s = 1.0 token.
        assert!(f.icmp_allowed(r, 500.0), "boundary refill must count");
        assert!(!f.icmp_allowed(r, 500.0), "token just spent");
        // Refill is capped at burst: a long idle period earns one burst.
        drain(&f, r, 600_000.0);
        assert!(!f.icmp_allowed(r, 600_000.0));
    }

    #[test]
    fn token_bucket_ignores_time_running_backwards() {
        // Out-of-order observations (parallel workers share one virtual
        // clock) must never refill retroactively or panic: `dt` clamps at
        // zero and `last_ms` is monotone.
        let cfg = FaultConfig {
            icmp_rate_limit_pps: 1.0,
            ..FaultConfig::default()
        };
        let f = Faults::new(8, cfg);
        let r = RouterId(3);
        drain(&f, r, 5_000.0);
        assert!(!f.icmp_allowed(r, 5_000.0));
        // An earlier timestamp earns nothing.
        assert!(!f.icmp_allowed(r, 1_000.0));
        // ...and does not reset the refill origin: at t=6s one token has
        // accrued since t=5s regardless of the stale t=1s observation.
        assert!(f.icmp_allowed(r, 6_000.0));
    }

    #[test]
    fn maintenance_windows_are_scheduled_per_link() {
        let cfg = FaultConfig {
            link_maintenance_rate: 0.25,
            ..FaultConfig::default()
        };
        let f = Faults::new(9, cfg);
        let down = (0..400).filter(|&i| f.link_down(LinkId(i), 3.0)).count();
        assert!((60..=140).contains(&down), "down {down}/400");
        // Same link+window replays identically.
        assert_eq!(f.link_down(LinkId(7), 2.0), f.link_down(LinkId(7), 2.0));
    }
}
