//! Concurrency primitives for the hot paths: cache-line padding, a
//! lock-striped map, single-flight computation, and thread-striped
//! counters.
//!
//! Every parallel campaign worker used to funnel through a handful of
//! global locks (`Sim`'s route/border caches, the measurement cache, the
//! virtual clock). This module provides the shared building blocks that
//! de-serialize them:
//!
//! - [`CachePadded`]: pads a value to its own cache line so adjacent hot
//!   atomics don't false-share.
//! - [`StripedMap`]: an N-way lock-striped hash map — keys hash to one of
//!   N shards, each behind its own `parking_lot::RwLock`, so readers and
//!   writers of different shards never contend.
//! - [`StripedMap::get_or_compute`]: single-flight fill — when a key is
//!   missing, exactly one thread runs the compute closure while other
//!   askers of the *same* key block on a condvar (and askers of other
//!   keys proceed untouched), eliminating both duplicated compute and
//!   write-lock convoys.
//! - [`StripedCounters`]: a block of counters per recording thread, summed
//!   on read, so a count never writes a line another worker writes.
//!
//! Shard selection uses `std`'s `DefaultHasher::new()`, whose keys are
//! fixed: the same key maps to the same shard in every process, keeping
//! runs bit-reproducible. Inside a shard the table hashes with the
//! workspace's word hasher: keys are simulated addresses and ids, never
//! outside input, and a second SipHash per lookup was a measurable share
//! of a probe.

use parking_lot::RwLock;
use revtr_telemetry::{thread_stripe, WordHasher};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Pads (and aligns) a value to a 64-byte cache line to prevent false
/// sharing between adjacent hot fields.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Default shard count: enough that a handful of workers rarely collide,
/// small enough to stay cheap to clear/iterate.
pub const DEFAULT_SHARDS: usize = 16;

/// Result slot shared between the computing thread and same-key waiters.
#[derive(Debug)]
enum FlightState<V> {
    /// Computation in progress.
    Waiting,
    /// Computation finished with this value.
    Done(V),
    /// The computing thread panicked; waiters must retry.
    Abandoned,
}

#[derive(Debug)]
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Arc<Flight<V>> {
        Arc::new(Flight {
            state: Mutex::new(FlightState::Waiting),
            cv: Condvar::new(),
        })
    }

    /// Block until the flight lands; `None` means it was abandoned and the
    /// caller should retry from scratch.
    fn wait(&self) -> Option<V> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*st {
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Abandoned => return None,
                FlightState::Waiting => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    fn land(&self, outcome: FlightState<V>) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = outcome;
        self.cv.notify_all();
    }
}

/// A map entry: either a materialized value or an in-progress flight.
#[derive(Debug)]
enum Slot<V> {
    Ready(V),
    Pending(Arc<Flight<V>>),
}

/// One shard's table.
type Table<K, V> = HashMap<K, Slot<V>, BuildHasherDefault<WordHasher>>;

/// One stripe: a padded lock around this shard's portion of the key space.
type Shard<K, V> = CachePadded<RwLock<Table<K, V>>>;

/// An N-way lock-striped hash map with single-flight fills.
///
/// `V` is expected to be cheap to clone (an `Arc`, a small copyable
/// struct); `get` hands out clones so no guard outlives the call.
#[derive(Debug)]
pub struct StripedMap<K, V> {
    shards: Box<[Shard<K, V>]>,
    mask: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> StripedMap<K, V> {
    /// A map with [`DEFAULT_SHARDS`] stripes.
    pub fn new() -> StripedMap<K, V> {
        StripedMap::with_shards(DEFAULT_SHARDS)
    }

    /// A map with `n` stripes, rounded up to a power of two.
    pub fn with_shards(n: usize) -> StripedMap<K, V> {
        let n = n.max(1).next_power_of_two();
        StripedMap {
            shards: (0..n)
                .map(|_| CachePadded::new(RwLock::new(Table::default())))
                .collect(),
            mask: (n - 1) as u64,
        }
    }

    fn shard(&self, key: &K) -> &RwLock<Table<K, V>> {
        // DefaultHasher::new() uses fixed keys: deterministic across runs
        // and processes (unlike RandomState), which keeps shard layout —
        // and therefore lock interleavings in serial runs — reproducible.
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() & self.mask) as usize]
    }

    /// Clone of the value under `key`, if materialized. Pending flights
    /// are invisible to plain `get`.
    pub fn get(&self, key: &K) -> Option<V> {
        match self.shard(key).read().get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Insert (or overwrite) a materialized value.
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).write().insert(key, Slot::Ready(value));
    }

    /// Drop the entry under `key`, materialized or in flight (a flight
    /// still lands for its waiters, and its computer re-inserts the value).
    pub fn remove(&self, key: &K) {
        self.shard(key).write().remove(key);
    }

    /// Number of materialized entries (excludes in-flight fills).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|v| matches!(v, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// True when no materialized entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialized entries per shard, in shard order. The resource
    /// profiler surfaces these as occupancy-skew evidence: `DefaultHasher`
    /// striping should keep `max/mean ≤ 2` at realistic cardinalities, and
    /// a shard running hot means a pathological key distribution.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|v| matches!(v, Slot::Ready(_)))
                    .count()
            })
            .collect()
    }

    /// Approximate logical bytes per shard, in shard order: `per_entry`
    /// summed over materialized entries. The caller supplies the footprint
    /// function because entry size is a property of what the map stores
    /// (fixed-size records vs. route vectors), not of the striping.
    pub fn shard_bytes(&self, per_entry: impl Fn(&K, &V) -> u64) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .iter()
                    .filter_map(|(k, v)| match v {
                        Slot::Ready(v) => Some(per_entry(k, v)),
                        Slot::Pending(_) => None,
                    })
                    .sum()
            })
            .collect()
    }

    /// Worst-case shard skew: `max / mean` occupancy (1.0 when balanced,
    /// 0.0 when empty).
    pub fn shard_skew(&self) -> f64 {
        let occ = self.shard_occupancy();
        let total: usize = occ.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / occ.len() as f64;
        occ.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// Drop all entries.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.write().clear();
        }
    }

    /// The value under `key`, computing it exactly once across threads.
    ///
    /// The first asker of a missing key inserts a *flight* and runs
    /// `compute` without holding the shard lock; concurrent askers of the
    /// same key block until the flight lands (askers of other keys are
    /// unaffected). If `compute` panics, the flight is abandoned, waiters
    /// retry, and one of them becomes the new computer.
    pub fn get_or_compute(&self, key: K, compute: impl Fn() -> V) -> V {
        loop {
            // Fast path: shared lock only.
            let flight = {
                match self.shard(&key).read().get(&key) {
                    Some(Slot::Ready(v)) => return v.clone(),
                    Some(Slot::Pending(f)) => Some(f.clone()),
                    None => None,
                }
            };
            if let Some(f) = flight {
                match f.wait() {
                    Some(v) => return v,
                    None => continue, // abandoned: retry
                }
            }

            // Claim the fill under the write lock (re-check: someone may
            // have claimed or finished it since the read).
            let flight = {
                let mut w = self.shard(&key).write();
                match w.get(&key) {
                    Some(Slot::Ready(v)) => return v.clone(),
                    Some(Slot::Pending(f)) => {
                        let f = f.clone();
                        drop(w);
                        match f.wait() {
                            Some(v) => return v,
                            None => continue,
                        }
                    }
                    None => {
                        let f = Flight::new();
                        w.insert(key.clone(), Slot::Pending(f.clone()));
                        f
                    }
                }
            };

            // Compute outside any lock; abandon the flight on panic so
            // waiters don't hang.
            struct Abort<'a, K: Hash + Eq + Clone, V: Clone> {
                map: &'a StripedMap<K, V>,
                key: &'a K,
                flight: &'a Flight<V>,
                armed: bool,
            }
            impl<K: Hash + Eq + Clone, V: Clone> Drop for Abort<'_, K, V> {
                fn drop(&mut self) {
                    if self.armed {
                        self.map.shard(self.key).write().remove(self.key);
                        self.flight.land(FlightState::Abandoned);
                    }
                }
            }
            let mut guard = Abort {
                map: self,
                key: &key,
                flight: &flight,
                armed: true,
            };
            let value = compute();
            guard.armed = false;
            drop(guard);

            self.shard(&key)
                .write()
                .insert(key.clone(), Slot::Ready(value.clone()));
            flight.land(FlightState::Done(value.clone()));
            return value;
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for StripedMap<K, V> {
    fn default() -> Self {
        StripedMap::new()
    }
}

/// How many recording threads get a block of their own; further threads
/// share (every update is an atomic add, so sharing is safe, just slower).
/// [`thread_stripe`] deals ordinals below this.
const COUNTER_STRIPES: usize = 16;

/// `N` monotonic counters, striped by recording thread: each thread adds
/// into its own cache-line-aligned block, so concurrent workers counting
/// the same thing never write the same line, and a read sums the blocks.
/// Totals are exact at any instant no add is in flight; a serial run keeps
/// every count in one block.
///
/// All `Relaxed`: these are statistics and publish nothing.
#[derive(Debug)]
pub struct StripedCounters<const N: usize> {
    stripes: [CachePadded<[AtomicU64; N]>; COUNTER_STRIPES],
}

impl<const N: usize> StripedCounters<N> {
    /// All zero.
    pub fn new() -> StripedCounters<N> {
        StripedCounters {
            stripes: std::array::from_fn(|_| {
                CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0)))
            }),
        }
    }

    /// Add `n` to counter `i` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        self.stripes[thread_stripe() % COUNTER_STRIPES][i].fetch_add(n, Ordering::Relaxed);
    }

    /// Counter `i`, summed over every thread.
    pub fn get(&self, i: usize) -> u64 {
        self.stripes
            .iter()
            .map(|s| s[i].load(Ordering::Relaxed))
            .sum()
    }
}

impl<const N: usize> Default for StripedCounters<N> {
    fn default() -> Self {
        StripedCounters::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn cache_padding_is_a_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 64);
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 64);
        let p = CachePadded::new(7u64);
        assert_eq!(*p, 7);
        assert_eq!(p.into_inner(), 7);
    }

    #[test]
    fn striped_map_basics() {
        let m: StripedMap<u64, u64> = StripedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.len(), 2);
        m.insert(1, 11);
        assert_eq!(m.get(&1), Some(11));
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn shard_skew_stays_under_two_at_standard_cardinality() {
        // The route cache at standard scale holds one entry per
        // (prefix, campaign-salt) pair — thousands of keys of exactly the
        // shapes the simulator stripes. `DefaultHasher` with fixed keys
        // must spread them so no shard runs hotter than 2x the mean, or
        // every lookup in the hot shard serializes behind one lock.
        let routes: StripedMap<(u32, u64), u64> = StripedMap::new();
        for p in 0..3_000u32 {
            routes.insert((p, 0x5eed), u64::from(p));
        }
        let skew = routes.shard_skew();
        assert!(
            (0.0..=2.0).contains(&skew),
            "route-cache-shaped keys skewed to {skew:.2}"
        );

        // Border-cache-shaped keys: (AS id, prefix) pairs.
        let borders: StripedMap<(u32, u32), u8> = StripedMap::new();
        for a in 0..60u32 {
            for p in 0..60u32 {
                borders.insert((a, p), 0);
            }
        }
        let skew = borders.shard_skew();
        assert!(
            (0.0..=2.0).contains(&skew),
            "border-cache-shaped keys skewed to {skew:.2}"
        );

        // Byte stats agree with occupancy under a fixed entry footprint.
        let occ = routes.shard_occupancy();
        let bytes = routes.shard_bytes(|_, _| 48);
        assert_eq!(occ.len(), bytes.len());
        for (o, b) in occ.iter().zip(&bytes) {
            assert_eq!(*o as u64 * 48, *b, "byte stats drifted from occupancy");
        }
        assert_eq!(bytes.iter().sum::<u64>(), 3_000 * 48);
    }

    #[test]
    fn get_or_compute_fills_once_serially() {
        let m: StripedMap<u32, u32> = StripedMap::new();
        let calls = AtomicUsize::new(0);
        for _ in 0..5 {
            let v = m.get_or_compute(9, || {
                calls.fetch_add(1, Ordering::Relaxed);
                81
            });
            assert_eq!(v, 81);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    // Wall-clock sleep is disallowed workspace-wide (clippy.toml) — this
    // one deliberately widens a data race window in a concurrency test.
    #[allow(clippy::disallowed_methods)]
    fn get_or_compute_single_flight_under_contention() {
        let m: StripedMap<u32, u64> = StripedMap::with_shards(4);
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..16u32 {
                        let v = m.get_or_compute(k, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            (k as u64) * 3
                        });
                        assert_eq!(v, (k as u64) * 3);
                    }
                });
            }
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            16,
            "each key computed exactly once across 8 threads"
        );
    }

    #[test]
    fn panicked_compute_is_abandoned_and_retried() {
        let m: StripedMap<u32, u32> = StripedMap::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.get_or_compute(5, || panic!("boom"));
        }));
        assert!(r.is_err());
        // The flight must not wedge the key: a later caller recomputes.
        assert_eq!(m.get_or_compute(5, || 55), 55);
        assert_eq!(m.get(&5), Some(55));
    }

    #[test]
    fn shard_occupancy_skew_stays_bounded_at_standard_cardinality() {
        // Standard-scale key shapes: ~17k (src, dst) address-pair cache
        // keys and ~2k router-id keys. DefaultHasher striping must keep
        // every shard within 2× of the mean — the bound `revtr-cli
        // profile` reports against.
        let pairs: StripedMap<(u32, u32), u8> = StripedMap::new();
        for i in 0..17_125u32 {
            pairs.insert((0x0b01_8000 + (i % 900) * 64, 0x0b09_8000 + i), 0);
        }
        let occ = pairs.shard_occupancy();
        assert_eq!(occ.len(), DEFAULT_SHARDS);
        assert_eq!(occ.iter().sum::<usize>(), pairs.len());
        let skew = pairs.shard_skew();
        assert!(
            skew <= 2.0,
            "pair-key shard skew {skew:.2} exceeds 2x (occupancy {occ:?})"
        );

        let routers: StripedMap<u64, u8> = StripedMap::new();
        for i in 0..2_000u64 {
            routers.insert(i * 7 + 1, 0);
        }
        let skew = routers.shard_skew();
        assert!(skew <= 2.0, "router-key shard skew {skew:.2} exceeds 2x");

        let empty: StripedMap<u64, u8> = StripedMap::new();
        assert_eq!(empty.shard_skew(), 0.0);
    }

    #[test]
    fn striped_counters_sum_across_threads() {
        let c: StripedCounters<3> = StripedCounters::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(0, 1);
                        c.add(2, 3);
                    }
                });
            }
        });
        c.add(1, 5);
        assert_eq!([c.get(0), c.get(1), c.get(2)], [8000, 5, 24000]);
    }

    #[test]
    fn shard_choice_is_deterministic() {
        let a: StripedMap<u64, u64> = StripedMap::new();
        let b: StripedMap<u64, u64> = StripedMap::new();
        for k in 0..200u64 {
            let sa = (a.shard(&k) as *const _) as usize - (a.shards.as_ptr() as usize);
            let sb = (b.shard(&k) as *const _) as usize - (b.shards.as_ptr() as usize);
            assert_eq!(sa, sb);
        }
    }
}
