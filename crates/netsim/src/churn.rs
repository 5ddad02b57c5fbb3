//! Route churn: virtual time and the per-prefix routing epochs it re-rolls.
//!
//! Every probe reads this state several times — the clock for cache
//! freshness and link maintenance, an epoch per leg for the BGP tie-break
//! salt — and it changes once per flushed virtual minute. So it is read
//! without a lock: the clock is an `f64` behind its bits, each epoch an
//! atomic of its own, and only [`Churn::advance`] — the one writer —
//! takes a mutex, to serialise flushes against each other. A serial run
//! reads exactly what it read behind a lock; a reader that races a flush
//! sees each value either before or after it, and neither the clock nor
//! any epoch ever steps back.

use crate::hash::mix3;
use crate::ids::PrefixId;
use parking_lot::Mutex;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Mutable routing-epoch state (route churn).
///
/// All loads and stores are `Relaxed`: the clock and an epoch are each a
/// value on their own — an epoch selects a salt, and the tables a salt
/// keys travel through the route cache's own locks — so none of them
/// publishes anything else. Writers are ordered by the `steps` mutex.
#[derive(Debug)]
pub(crate) struct Churn {
    /// Virtual now in hours, as `f64` bits.
    now_hours: AtomicU64,
    /// Per-prefix churn epoch; bumping it re-rolls the BGP tie-break salt.
    epochs: Box<[AtomicU32]>,
    /// Flushes so far (seeds each flush's draws). Taken by writers only.
    steps: Mutex<u64>,
}

impl Churn {
    /// Hour zero, every prefix at epoch zero.
    pub(crate) fn new(n_prefixes: usize) -> Churn {
        Churn {
            now_hours: AtomicU64::new(0f64.to_bits()),
            epochs: (0..n_prefixes).map(|_| AtomicU32::new(0)).collect(),
            steps: Mutex::new(0),
        }
    }

    /// Current virtual time in hours.
    #[inline]
    pub(crate) fn now_hours(&self) -> f64 {
        f64::from_bits(self.now_hours.load(Ordering::Relaxed))
    }

    /// The current churn epoch of a prefix.
    #[inline]
    pub(crate) fn epoch(&self, p: PrefixId) -> u32 {
        self.epochs[p.index()].load(Ordering::Relaxed)
    }

    /// Advance virtual time by `hours`; each prefix re-rolls with
    /// probability `churn_per_hour · hours`, drawn from a generator seeded
    /// by `seed` and the flush's ordinal. `stepped` hears of every prefix
    /// that re-rolled and the epoch it left, once the new one is visible.
    pub(crate) fn advance(
        &self,
        seed: u64,
        churn_per_hour: f64,
        hours: f64,
        mut stepped: impl FnMut(PrefixId, u32),
    ) {
        let mut steps = self.steps.lock();
        self.now_hours
            .store((self.now_hours() + hours).to_bits(), Ordering::Relaxed);
        *steps += 1;
        let p = (churn_per_hour * hours).min(1.0);
        if p <= 0.0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(mix3(seed, 0xc4c4, *steps));
        for (i, e) in self.epochs.iter().enumerate() {
            if rng.gen_bool(p) {
                // The mutex makes this the only writer: a plain add.
                let left = e.load(Ordering::Relaxed);
                e.store(left + 1, Ordering::Relaxed);
                stepped(PrefixId(i as u32), left);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;
    use proptest::prelude::*;

    /// The state as it was kept before: plain fields behind one
    /// reader-writer lock, every read a `read()`.
    struct Locked(RwLock<LockedState>);

    struct LockedState {
        now_hours: f64,
        epochs: Vec<u32>,
        steps: u64,
    }

    impl Locked {
        fn new(n_prefixes: usize) -> Locked {
            Locked(RwLock::new(LockedState {
                now_hours: 0.0,
                epochs: vec![0; n_prefixes],
                steps: 0,
            }))
        }

        fn advance(&self, seed: u64, churn_per_hour: f64, hours: f64) {
            let mut st = self.0.write();
            st.now_hours += hours;
            st.steps += 1;
            let p = (churn_per_hour * hours).min(1.0);
            if p <= 0.0 {
                return;
            }
            let mut rng = StdRng::seed_from_u64(mix3(seed, 0xc4c4, st.steps));
            for e in st.epochs.iter_mut() {
                if rng.gen_bool(p) {
                    *e += 1;
                }
            }
        }
    }

    proptest! {
        /// Lock-free reads ≡ the locked reference after every step of a
        /// random flush sequence, with churn on and off.
        #[test]
        fn lock_free_state_matches_the_locked_reference(
            seed in 0u64..u64::MAX,
            churning in 0u8..2,
            rate in 0.0005f64..2.0,
            steps in proptest::collection::vec(0.0f64..3.0, 1..40),
        ) {
            const PREFIXES: usize = 97;
            let churn_per_hour = if churning == 1 { rate } else { 0.0 };
            let ours = Churn::new(PREFIXES);
            let reference = Locked::new(PREFIXES);
            for hours in steps {
                let before = reference.0.read().epochs.clone();
                let mut stepped = Vec::new();
                ours.advance(seed, churn_per_hour, hours, |p, left| stepped.push((p.index(), left)));
                reference.advance(seed, churn_per_hour, hours);
                let st = reference.0.read();
                prop_assert_eq!(ours.now_hours().to_bits(), st.now_hours.to_bits());
                for (p, &e) in st.epochs.iter().enumerate() {
                    prop_assert_eq!(ours.epoch(PrefixId(p as u32)), e);
                }
                // Reported: exactly the prefixes that stepped, and from where.
                let moved: Vec<(usize, u32)> = (0..PREFIXES)
                    .filter(|&p| st.epochs[p] != before[p])
                    .map(|p| (p, before[p]))
                    .collect();
                prop_assert_eq!(stepped, moved);
            }
        }
    }

    #[test]
    fn readers_racing_a_flusher_never_see_time_or_an_epoch_step_back() {
        const PREFIXES: usize = 64;
        const FLUSHES: usize = 400;
        let churn = Churn::new(PREFIXES);
        // Readers and the flusher start together, and the readers keep
        // reading until the flusher is done: every flush is raced.
        let start = std::sync::Barrier::new(4);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for r in 0..3u32 {
                let (churn, start, done) = (&churn, &start, &done);
                s.spawn(move || {
                    let p = PrefixId(r * 7);
                    let (mut now, mut epoch) = (0.0, 0);
                    start.wait();
                    while !done.load(Ordering::Acquire) {
                        let (n, e) = (churn.now_hours(), churn.epoch(p));
                        assert!(n >= now && e >= epoch, "{n} < {now} or {e} < {epoch}");
                        (now, epoch) = (n, e);
                    }
                });
            }
            start.wait();
            for _ in 0..FLUSHES {
                churn.advance(9, 0.5, 1.0, |_, _| {});
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(churn.now_hours(), FLUSHES as f64);
        assert!((0..PREFIXES).any(|p| churn.epoch(PrefixId(p as u32)) > 0));
    }
}
