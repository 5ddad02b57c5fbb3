//! The recorder-striped metrics registry.
//!
//! Hot paths update counters and histograms from many worker threads at
//! once. A metric is named by a [`MetricKey`] — up to three `&'static
//! str` parts, `Copy`, never rendered while recording — and each
//! recording thread writes to its own mutex-guarded stripe, chosen by a
//! per-thread ordinal rather than by a hash of the name. A warm update is
//! therefore one uncontended lock, one hash of the key's part addresses
//! and one in-place add: no allocation, no string building, no name
//! bytes read. A whole finished request folds in under a single lock
//! acquisition ([`Fold`]).
//!
//! [`MetricsRegistry::snapshot`] renders every key to its dotted name,
//! sorts, and merges entries of equal name across stripes (counters add,
//! histograms [`Histogram::merge`]). Both operations are commutative and
//! associative, so the snapshot — names, values, fingerprint — is a
//! function of the multiset of recorded updates alone: which thread
//! recorded what, and in which order, cannot show.

use crate::histogram::Histogram;
use crate::Fnv;
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};

const N_STRIPES: usize = 16;

/// A metric's name as up to three static parts, joined by `.` when a
/// snapshot renders it: `("stage", "rr_step", "probes")` is
/// `stage.rr_step.probes`. Two keys that render to the same name are the
/// same metric (a snapshot merges them), so a call site may pass a whole
/// dotted literal or its parts, whichever it has.
#[derive(Clone, Copy, Debug)]
pub struct MetricKey {
    parts: [&'static str; 3],
    len: u8,
}

impl MetricKey {
    fn parts(&self) -> &[&'static str] {
        &self.parts[..usize::from(self.len)]
    }

    /// The dotted name.
    pub fn name(&self) -> String {
        self.parts().join(".")
    }
}

impl From<&'static str> for MetricKey {
    fn from(name: &'static str) -> MetricKey {
        MetricKey {
            parts: [name, "", ""],
            len: 1,
        }
    }
}

impl From<(&'static str, &'static str)> for MetricKey {
    fn from((family, leaf): (&'static str, &'static str)) -> MetricKey {
        MetricKey {
            parts: [family, leaf, ""],
            len: 2,
        }
    }
}

impl From<(&'static str, &'static str, &'static str)> for MetricKey {
    fn from((family, stage, leaf): (&'static str, &'static str, &'static str)) -> MetricKey {
        MetricKey {
            parts: [family, stage, leaf],
            len: 3,
        }
    }
}

/// A [`MetricKey`] as a stripe's map key: compared and hashed by the
/// *identity* of its parts — address and length of each `&'static str` —
/// not their bytes. A warm update then costs a few word operations instead
/// of hashing and comparing ~30 bytes of name. Two call sites may spell
/// one name from literals at different addresses; they get two entries,
/// which the snapshot merges by rendered name like any two stripes' —
/// identity only has to be *sufficient* for equality, never necessary.
#[derive(Clone, Copy, Debug)]
struct ById(MetricKey);

impl PartialEq for ById {
    fn eq(&self, other: &ById) -> bool {
        let (a, b) = (self.0.parts(), other.0.parts());
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
    }
}

impl Eq for ById {}

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for part in self.0.parts() {
            state.write_usize(part.as_ptr() as usize);
            state.write_usize(part.len());
        }
    }
}

/// Multiplicative word hasher (the FxHash recipe): one rotate, xor and
/// multiply per word written. The workspace's one hasher for tables keyed
/// by words this program made itself — `ById`'s literal addresses here,
/// simulated addresses and ids in the route cache and the measurement
/// cache's indexes — never by outside input, so the default hasher's
/// collision resistance buys nothing.
#[derive(Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // The product's strong bits are its high ones; the table indexes
        // by the low ones.
        self.0.rotate_left(26)
    }
}

type KeyMap<V> = HashMap<ById, V, BuildHasherDefault<WordHasher>>;

#[derive(Default, Debug)]
struct Stripe {
    counters: KeyMap<u64>,
    histograms: KeyMap<Histogram>,
}

/// Pad each stripe to its own cache line so adjacent mutexes don't false-
/// share (same layout trick as `netsim::concurrent::CachePadded`; the
/// type is re-rolled here to keep this crate a leaf).
#[repr(align(64))]
#[derive(Default, Debug)]
struct Padded(Mutex<Stripe>);

/// This thread's stripe, in `0..16`: threads take ordinals round-robin the
/// first time they ask, so up to `N_STRIPES` concurrent recorders never
/// meet on a lock. Public because it is the workspace's one per-thread
/// ordinal: the prober's clock spreads its accumulation slots by it too.
pub fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        // Relaxed: the ordinal publishes nothing, it only spreads threads.
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % N_STRIPES;
    }
    // A thread being torn down (TLS already gone) falls back to stripe 0.
    STRIPE.try_with(|s| *s).unwrap_or(0)
}

/// A recorder-striped store of monotonic counters and value histograms.
#[derive(Debug)]
pub struct MetricsRegistry {
    stripes: [Padded; N_STRIPES],
    /// Counters whose names only exist at run time (SLO rule names read
    /// from a policy file). A cold path: judging, never recording.
    named: Mutex<BTreeMap<String, u64>>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// The calling thread's stripe, locked: any number of updates under one
/// lock acquisition.
pub(crate) struct Fold<'a>(MutexGuard<'a, Stripe>);

impl Fold<'_> {
    /// Add `n` to counter `key`.
    pub(crate) fn add(&mut self, key: impl Into<MetricKey>, n: u64) {
        *self.0.counters.entry(ById(key.into())).or_insert(0) += n;
    }

    /// Record one observation `v` in histogram `key`.
    pub(crate) fn record(&mut self, key: impl Into<MetricKey>, v: u64) {
        self.0
            .histograms
            .entry(ById(key.into()))
            .or_default()
            .record(v);
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            stripes: Default::default(),
            named: Mutex::default(),
        }
    }

    /// Lock the calling thread's stripe for a batch of updates.
    pub(crate) fn fold(&self) -> Fold<'_> {
        Fold(self.stripes[thread_stripe()].0.lock())
    }

    /// Add `n` to the counter `key` (creating it at zero).
    pub fn add(&self, key: impl Into<MetricKey>, n: u64) {
        self.fold().add(key, n);
    }

    /// Record one observation `v` in the histogram `key`.
    pub fn record(&self, key: impl Into<MetricKey>, v: u64) {
        self.fold().record(key, v);
    }

    /// Add `n` to a counter whose name is built at run time. Takes a
    /// registry-wide lock and compares names: for cold paths only.
    pub fn add_named(&self, name: &str, n: u64) {
        let mut named = self.named.lock();
        match named.get_mut(name) {
            Some(v) => *v += n,
            None => {
                named.insert(name.to_owned(), n);
            }
        }
    }

    /// Merge every stripe into one sorted, order-independent snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .named
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let mut histograms: Vec<(String, Histogram)> = Vec::new();
        for stripe in &self.stripes {
            let s = stripe.0.lock();
            counters.extend(s.counters.iter().map(|(k, v)| (k.0.name(), *v)));
            histograms.extend(s.histograms.iter().map(|(k, v)| (k.0.name(), v.clone())));
        }
        // Stable sort, then fold runs of one name into their first entry.
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        counters.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1.merge(&next.1);
            }
            same
        });
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A point-in-time, name-sorted view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// All histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map(|i| &self.histograms[i].1)
            .ok()
    }

    /// FNV fingerprint of the entire snapshot (names, counter values, and
    /// full histogram bucket contents). Two runs with identical telemetry
    /// behaviour produce identical fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, v) in &self.counters {
            h.write(name.as_bytes());
            h.write_u64(*v);
        }
        for (name, hist) in &self.histograms {
            h.write(name.as_bytes());
            hist.hash_into(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_order_independent() {
        let a = MetricsRegistry::new();
        a.add("x", 1);
        a.add("y", 2);
        a.record("h", 10);
        a.record("h", 20);

        let b = MetricsRegistry::new();
        b.record("h", 20);
        b.add("y", 2);
        b.record("h", 10);
        b.add("x", 1);

        assert_eq!(a.snapshot().fingerprint(), b.snapshot().fingerprint());
        assert_eq!(a.snapshot().counter("x"), 1);
        assert_eq!(a.snapshot().counter("missing"), 0);
        assert_eq!(a.snapshot().histogram("h").map(|h| h.count()), Some(2));
    }

    #[test]
    fn concurrent_adds_all_land() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        reg.add("c", 1);
                        reg.record("h", i % 64);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), 8000);
        assert_eq!(snap.histogram("h").map(|h| h.count()), Some(8000));
    }

    #[test]
    fn keys_of_one_rendered_name_are_one_metric() {
        let reg = MetricsRegistry::new();
        reg.add("stage.rr_step.probes", 1);
        reg.add(("stage.rr_step", "probes"), 2);
        reg.add(("stage", "rr_step", "probes"), 4);
        reg.add_named("stage.rr_step.probes", 8);
        reg.record("stage.rr_step.virtual_us", 10);
        reg.record(("stage", "rr_step", "virtual_us"), 20);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("stage.rr_step.probes".to_string(), 15)]
        );
        assert_eq!(snap.histograms.len(), 1);
        let h = snap.histogram("stage.rr_step.virtual_us").expect("hist");
        assert_eq!((h.count(), h.sum()), (2, 30));
        // An empty trailing part still renders its dot, as `format!` did.
        assert_eq!(
            MetricKey::from(("request.status", "")).name(),
            "request.status."
        );
    }
}
