//! Measurement reuse cache (the "cache" component of Table 4's ablation).
//!
//! revtr 2.0 caches traceroutes and RR measurements for a day and reuses
//! them across reverse traceroutes (Insight 1.4 / Appx. D.2.2). Of a
//! traceroute the engine uses one thing — the last link before the target
//! ([`LastLink`]) — so that is what is kept. Entries are
//! keyed by the full probe identity and expire on *virtual* simulator time,
//! so staleness interacts correctly with route churn.
//!
//! Each kind of entry sits in a lock-striped log (`Log`): per stripe, a
//! slim index from key to position and an append-only [`Column`] of
//! timestamped records. Entries are only added or overwritten whole and
//! never removed — TTL expiry is a check on read — so a log never compacts,
//! and its records hold only what a hit returns: an RR record keeps its
//! churn epochs in four bytes each and the reply inline, 80 B where a whole
//! entry in a hash bucket took 112. The stripes are [`Stripes`], the
//! shard choice and per-shard lock of [`revtr_netsim::StripedMap`]: every
//! cached probe on the hot path looks up here, and one global lock per
//! table turns into a convoy under parallel campaign workers. The
//! hit/miss/insert/expired counters are striped by recording thread for
//! the same reason.

use crate::prober::{LastLink, SentEpoch};
use revtr_netsim::{shard_skew, Addr, Column, RrReply, RrSlots, Sim, StripedCounters, Stripes};
use revtr_telemetry::WordMap;
use std::collections::hash_map;
use std::hash::Hash;

/// Default cache TTL: one day of virtual time (paper Q1/D.2.2).
pub const DEFAULT_TTL_HOURS: f64 = 24.0;

/// A cached value and the virtual time it was measured at.
#[derive(Clone, Copy, Debug)]
struct Entry<T> {
    at_hours: f64,
    value: T,
}

/// Key of an RR measurement: (sender, claimed source, destination).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RrKey {
    /// Emitting vantage point.
    pub sender: Addr,
    /// Claimed (spoofed) source.
    pub claimed: Addr,
    /// Probe target.
    pub dst: Addr,
}

/// A cached RR outcome together with the send-time provenance of the
/// original probe. Cache hits must replay under the *original* nonce and
/// churn epochs — not the hit-time ones — or the audit layer could never
/// re-derive the reply path the stamps actually took.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedRr {
    /// The observed reply (`None` = genuinely unanswered).
    pub reply: Option<RrReply>,
    /// Per-probe nonce the original send routed under.
    pub nonce: u64,
    /// Churn epoch of the destination's prefix at send time (`None` for
    /// infrastructure destinations, which are never churned).
    pub fwd_epoch: Option<u32>,
    /// Churn epoch of the claimed source's prefix at send time.
    pub rep_epoch: Option<u32>,
}

/// Point-in-time cache effectiveness counters.
///
/// `hits + misses` equals total lookups; `expired` counts the subset of
/// misses where an entry existed but had outlived the TTL.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups not answered (absent or expired).
    pub misses: u64,
    /// Entries stored.
    pub inserts: u64,
    /// Misses caused by TTL expiry (entry present but stale).
    pub expired: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Logical footprint of one last-link cache entry, the unit of the
/// `mem.probing.cache.last_link` ledger: the `(source, target)` key and
/// the timestamped measurement.
pub const LAST_LINK_ENTRY_BYTES: u64 = 32;

/// Logical footprint of one RR cache entry, the unit of the
/// `mem.probing.cache.rr` ledger: `RrKey` (3 addrs) + `CachedRr` with a
/// ≤9-slot stamp vector — ~112 B.
pub const RR_ENTRY_BYTES: u64 = 112;

/// A [`CachedRr`] as the RR log keeps it: the churn epochs as
/// [`SentEpoch`]s and the reply's fields inline, "unanswered" a flag.
#[derive(Clone, Copy, Debug)]
struct RrRecord {
    nonce: u64,
    rtt_ms: f64,
    fwd_epoch: SentEpoch,
    rep_epoch: SentEpoch,
    from: Addr,
    slots: RrSlots,
    answered: bool,
}

impl From<CachedRr> for RrRecord {
    fn from(v: CachedRr) -> RrRecord {
        let answered = v.reply.is_some();
        let reply = v.reply.unwrap_or(RrReply {
            from: Addr::default(),
            slots: RrSlots::new(),
            rtt_ms: 0.0,
        });
        RrRecord {
            nonce: v.nonce,
            rtt_ms: reply.rtt_ms,
            fwd_epoch: v.fwd_epoch.into(),
            rep_epoch: v.rep_epoch.into(),
            from: reply.from,
            slots: reply.slots,
            answered,
        }
    }
}

impl From<RrRecord> for CachedRr {
    fn from(r: RrRecord) -> CachedRr {
        CachedRr {
            reply: r.answered.then_some(RrReply {
                from: r.from,
                slots: r.slots,
                rtt_ms: r.rtt_ms,
            }),
            nonce: r.nonce,
            fwd_epoch: r.fwd_epoch.get(),
            rep_epoch: r.rep_epoch.get(),
        }
    }
}

/// Records per log segment: an RR segment is 80 KB, and a stripe of a
/// 60 000-entry RR log fills four. This module's own tests run on short
/// segments, so logs straddle several.
const SEGMENT: usize = if cfg!(test) { 4 } else { 1024 };

/// One stripe of a [`Log`]: where each key's record sits, and the records.
#[derive(Debug)]
struct Stripe<K, V> {
    index: WordMap<K, u32>,
    log: Column<Entry<V>, SEGMENT>,
}

impl<K, V> Default for Stripe<K, V> {
    fn default() -> Self {
        Stripe {
            index: WordMap::default(),
            log: Column::default(),
        }
    }
}

/// Timestamped records under keys, lock-striped. A record is only added
/// or overwritten in place, never removed.
#[derive(Debug)]
struct Log<K, V> {
    stripes: Stripes<Stripe<K, V>>,
}

impl<K: Hash + Eq, V: Copy> Log<K, V> {
    fn new() -> Log<K, V> {
        Log {
            stripes: Stripes::new(),
        }
    }

    fn get(&self, key: &K) -> Option<Entry<V>> {
        let stripe = self.stripes.of(key).read();
        let &at = stripe.index.get(key)?;
        stripe.log.get(at as usize).copied()
    }

    fn put(&self, key: K, entry: Entry<V>) {
        let mut stripe = self.stripes.of(&key).write();
        let Stripe { index, log } = &mut *stripe;
        match index.entry(key) {
            hash_map::Entry::Occupied(at) => {
                *log.get_mut(*at.get() as usize)
                    .expect("an indexed record is in the log") = entry;
            }
            hash_map::Entry::Vacant(at) => {
                at.insert(u32::try_from(log.len()).expect("a stripe holds < 2^32 records"));
                log.push(entry);
            }
        }
    }

    fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().index.len()).sum()
    }

    fn occupancy(&self) -> Vec<usize> {
        self.stripes.iter().map(|s| s.read().index.len()).collect()
    }
}

/// TTL-based cache for last-link measurements and RR replies.
#[derive(Debug)]
pub struct MeasurementCache {
    ttl_hours: f64,
    last_links: Log<(Addr, Addr), Option<LastLink>>,
    rr: Log<RrKey, RrRecord>,
    /// [`CacheStats`]' four counts, by the indices below.
    stats: StripedCounters<4>,
}

const HITS: usize = 0;
const MISSES: usize = 1;
const INSERTS: usize = 2;
const EXPIRED: usize = 3;

impl MeasurementCache {
    /// Cache with the paper's one-day TTL.
    pub fn new() -> MeasurementCache {
        MeasurementCache::with_ttl(DEFAULT_TTL_HOURS)
    }

    /// Cache with a custom TTL (hours of virtual time).
    pub fn with_ttl(ttl_hours: f64) -> MeasurementCache {
        MeasurementCache {
            ttl_hours,
            last_links: Log::new(),
            rr: Log::new(),
            stats: StripedCounters::new(),
        }
    }

    fn fresh(&self, at: f64, now: f64) -> bool {
        // Strictly less: an entry whose age equals the TTL has expired.
        // [`CacheStats::expired`] documents post-TTL lookups as misses, and
        // the boundary lookup is a post-TTL lookup — `<=` silently served
        // one-day-old measurements on the exact-24h boundary.
        now - at < self.ttl_hours
    }

    /// Classify a looked-up entry, bumping the stats counters.
    fn classify<T>(&self, entry: Option<Entry<T>>, now: f64) -> Option<T> {
        match entry {
            Some(e) if self.fresh(e.at_hours, now) => {
                self.stats.add(HITS, 1);
                Some(e.value)
            }
            Some(_) => {
                self.stats.add(EXPIRED, 1);
                self.stats.add(MISSES, 1);
                None
            }
            None => {
                self.stats.add(MISSES, 1);
                None
            }
        }
    }

    /// Cached last link from `src` to `dst`, if fresh (`Some(None)` = known
    /// unroutable).
    pub fn get_last_link(&self, sim: &Sim, src: Addr, dst: Addr) -> Option<Option<LastLink>> {
        let now = sim.now_hours();
        self.classify(self.last_links.get(&(src, dst)), now)
    }

    /// Store a last-link outcome (including "unroutable").
    pub fn put_last_link(&self, sim: &Sim, src: Addr, dst: Addr, v: Option<LastLink>) {
        self.stats.add(INSERTS, 1);
        self.last_links.put(
            (src, dst),
            Entry {
                at_hours: sim.now_hours(),
                value: v,
            },
        );
    }

    /// Cached RR measurement (reply + original send provenance), if fresh.
    pub fn get_rr(&self, sim: &Sim, key: RrKey) -> Option<CachedRr> {
        let now = sim.now_hours();
        self.classify(self.rr.get(&key), now).map(CachedRr::from)
    }

    /// Store an RR outcome (including "no answer") with its provenance.
    pub fn put_rr(&self, sim: &Sim, key: RrKey, v: CachedRr) {
        self.stats.add(INSERTS, 1);
        self.rr.put(
            key,
            Entry {
                at_hours: sim.now_hours(),
                value: v.into(),
            },
        );
    }

    /// Materialized last-link entries.
    pub fn last_link_len(&self) -> usize {
        self.last_links.len()
    }

    /// Materialized RR entries.
    pub fn rr_len(&self) -> usize {
        self.rr.len()
    }

    /// Logical byte footprint: entries × fixed per-entry struct
    /// footprints (key + timestamped value; RR stamps priced at the
    /// simulator's slot bound). Deterministic — derived from entry
    /// *counts*, never from allocator or hit/miss state.
    pub fn approx_bytes(&self) -> u64 {
        self.last_link_len() as u64 * LAST_LINK_ENTRY_BYTES + self.rr_len() as u64 * RR_ENTRY_BYTES
    }

    /// Per-shard occupancy of both logs (last links first), for
    /// shard-skew reporting in `revtr-cli report`.
    pub fn shard_occupancy(&self) -> (Vec<usize>, Vec<usize>) {
        (self.last_links.occupancy(), self.rr.occupancy())
    }

    /// Worst `max/mean` shard skew across both logs.
    pub fn shard_skew(&self) -> f64 {
        shard_skew(&self.last_links.occupancy()).max(shard_skew(&self.rr.occupancy()))
    }

    /// Effectiveness counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.get(HITS),
            misses: self.stats.get(MISSES),
            inserts: self.stats.get(INSERTS),
            expired: self.stats.get(EXPIRED),
        }
    }
}

impl Default for MeasurementCache {
    fn default() -> Self {
        MeasurementCache::new()
    }
}

/// The cache this module had before its entries went into striped logs —
/// two maps of whole timestamped entries, counted in plain fields — kept as
/// the executable specification of the one above.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) struct RefCache {
        ttl_hours: f64,
        last_links: WordMap<(Addr, Addr), Entry<Option<LastLink>>>,
        rr: WordMap<RrKey, Entry<CachedRr>>,
        pub(super) stats: CacheStats,
    }

    impl RefCache {
        pub(super) fn with_ttl(ttl_hours: f64) -> RefCache {
            RefCache {
                ttl_hours,
                last_links: WordMap::default(),
                rr: WordMap::default(),
                stats: CacheStats::default(),
            }
        }

        /// An entry aged the TTL or more is an expired miss.
        fn classify<T>(&mut self, entry: Option<Entry<T>>, now: f64) -> Option<T> {
            match entry {
                Some(e) if now - e.at_hours < self.ttl_hours => {
                    self.stats.hits += 1;
                    Some(e.value)
                }
                Some(_) => {
                    self.stats.expired += 1;
                    self.stats.misses += 1;
                    None
                }
                None => {
                    self.stats.misses += 1;
                    None
                }
            }
        }

        pub(super) fn get_last_link(
            &mut self,
            now: f64,
            src: Addr,
            dst: Addr,
        ) -> Option<Option<LastLink>> {
            let entry = self.last_links.get(&(src, dst)).copied();
            self.classify(entry, now)
        }

        pub(super) fn put_last_link(
            &mut self,
            now: f64,
            src: Addr,
            dst: Addr,
            v: Option<LastLink>,
        ) {
            self.stats.inserts += 1;
            let entry = Entry {
                at_hours: now,
                value: v,
            };
            self.last_links.insert((src, dst), entry);
        }

        pub(super) fn get_rr(&mut self, now: f64, key: RrKey) -> Option<CachedRr> {
            let entry = self.rr.get(&key).cloned();
            self.classify(entry, now)
        }

        pub(super) fn put_rr(&mut self, now: f64, key: RrKey, v: CachedRr) {
            self.stats.inserts += 1;
            let entry = Entry {
                at_hours: now,
                value: v,
            };
            self.rr.insert(key, entry);
        }

        pub(super) fn last_link_len(&self) -> usize {
            self.last_links.len()
        }

        pub(super) fn rr_len(&self) -> usize {
            self.rr.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefCache;
    use super::*;
    use proptest::prelude::*;
    use revtr_netsim::{SimConfig, StripedMap};
    use std::mem::size_of;

    #[test]
    fn ledger_units_are_logical_entry_sizes() {
        // The `mem.probing.cache.*` ledgers, and the report goldens that
        // print them, price an entry at these units whatever the logs
        // store: a record may shrink under its unit without moving a
        // ledger byte.
        assert_eq!(LAST_LINK_ENTRY_BYTES, 32);
        assert_eq!(RR_ENTRY_BYTES, 112);
        assert_eq!(size_of::<Entry<Option<LastLink>>>(), 24);
        assert_eq!(size_of::<Entry<RrRecord>>(), 80, "the slim RR record");
        assert_eq!(size_of::<Entry<CachedRr>>(), 96, "what it replaced");
    }

    /// Decodes a property-test word stream into cache operations (an
    /// exhausted stream reads as zeros, so every stream decodes).
    struct Draw<'a>(std::slice::Iter<'a, u64>);

    impl Draw<'_> {
        fn below(&mut self, n: u64) -> u64 {
            self.0.next().copied().unwrap_or(0) % n
        }

        /// 144 keys: a run overwrites most of them.
        fn rr_key(&mut self) -> RrKey {
            RrKey {
                sender: Addr(self.below(3) as u32),
                claimed: Addr(self.below(3) as u32),
                dst: Addr(self.below(16) as u32),
            }
        }

        /// 64 keys.
        fn link_key(&mut self) -> (Addr, Addr) {
            (Addr(self.below(4) as u32), Addr(self.below(16) as u32))
        }

        fn epoch(&mut self) -> Option<u32> {
            (self.below(2) == 0).then(|| self.below(u64::from(u32::MAX)) as u32)
        }

        /// One in four unanswered; a reply records 0–9 slots.
        fn cached_rr(&mut self) -> CachedRr {
            let reply = (self.below(4) > 0).then(|| RrReply {
                from: Addr(self.below(1 << 32) as u32),
                slots: (0..self.below(10))
                    .map(|_| Addr(self.below(1000) as u32))
                    .collect(),
                rtt_ms: self.below(1_000_000) as f64 / 7.0,
            });
            CachedRr {
                reply,
                nonce: self.below(u64::MAX),
                fwd_epoch: self.epoch(),
                rep_epoch: self.epoch(),
            }
        }

        fn last_link(&mut self) -> Option<LastLink> {
            (self.below(4) > 0).then(|| LastLink {
                penult: (self.below(3) > 0).then(|| Addr(self.below(1000) as u32)),
                dist: 1 + self.below(40) as u8,
                gap: self.below(3) as u8,
                reached: self.below(2) == 0,
            })
        }
    }

    /// Virtual-time steps against a one-hour TTL: four quarters land an
    /// entry exactly on the boundary.
    const STEPS: [f64; 5] = [0.25, 0.5, 1.0, 1.0 / 3.0, 0.0625];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random puts, overwrites and lookups while virtual time crosses
        /// the TTL: the logs answer every lookup as the map of whole
        /// entries did, count the same stats, hold as many entries, and
        /// spread the keys over their stripes exactly as `StripedMap`
        /// does.
        #[test]
        fn the_logs_equal_the_map_of_entries(
            words in proptest::collection::vec(0u64..u64::MAX, 0..6000),
        ) {
            let sim = Sim::build(SimConfig::tiny(), 3);
            let cache = MeasurementCache::with_ttl(1.0);
            let mut reference = RefCache::with_ttl(1.0);
            let link_shards: StripedMap<(Addr, Addr), ()> = StripedMap::new();
            let rr_shards: StripedMap<RrKey, ()> = StripedMap::new();
            let mut draw = Draw(words.iter());
            for _ in 0..words.len() / 8 {
                let now = sim.now_hours();
                match draw.below(10) {
                    0..=2 => {
                        let (key, v) = (draw.rr_key(), draw.cached_rr());
                        cache.put_rr(&sim, key, v.clone());
                        reference.put_rr(now, key, v);
                        rr_shards.get_or_compute(key, || ());
                    }
                    3 => {
                        let ((src, dst), v) = (draw.link_key(), draw.last_link());
                        cache.put_last_link(&sim, src, dst, v);
                        reference.put_last_link(now, src, dst, v);
                        link_shards.get_or_compute((src, dst), || ());
                    }
                    4..=6 => {
                        let key = draw.rr_key();
                        prop_assert_eq!(cache.get_rr(&sim, key), reference.get_rr(now, key));
                    }
                    7 => {
                        let (src, dst) = draw.link_key();
                        prop_assert_eq!(
                            cache.get_last_link(&sim, src, dst),
                            reference.get_last_link(now, src, dst)
                        );
                    }
                    _ => sim.advance_hours(STEPS[draw.below(STEPS.len() as u64) as usize]),
                }
            }
            // Every key once more, fresh or not.
            let now = sim.now_hours();
            for s in 0..3 {
                for c in 0..3 {
                    for d in 0..16 {
                        let key = RrKey { sender: Addr(s), claimed: Addr(c), dst: Addr(d) };
                        prop_assert_eq!(cache.get_rr(&sim, key), reference.get_rr(now, key));
                    }
                }
            }
            for src in 0..4 {
                for dst in 0..16 {
                    prop_assert_eq!(
                        cache.get_last_link(&sim, Addr(src), Addr(dst)),
                        reference.get_last_link(now, Addr(src), Addr(dst))
                    );
                }
            }
            prop_assert_eq!(cache.stats(), reference.stats);
            prop_assert_eq!(cache.rr_len(), reference.rr_len());
            prop_assert_eq!(cache.last_link_len(), reference.last_link_len());
            prop_assert_eq!(
                cache.shard_occupancy(),
                (link_shards.shard_occupancy(), rr_shards.shard_occupancy())
            );
            let skew = link_shards.shard_skew().max(rr_shards.shard_skew());
            prop_assert_eq!(cache.shard_skew(), skew);
        }
    }

    #[test]
    fn cache_roundtrip_and_expiry() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let cache = MeasurementCache::with_ttl(1.0);
        let a = Addr::new(1, 1, 1, 1);
        let b = Addr::new(2, 2, 2, 2);
        let link = Some(LastLink {
            penult: Some(Addr::new(3, 3, 3, 3)),
            dist: 7,
            gap: 1,
            reached: true,
        });
        assert!(cache.get_last_link(&sim, a, b).is_none());
        cache.put_last_link(&sim, a, b, link);
        assert_eq!(cache.get_last_link(&sim, a, b), Some(link));
        // Expire by advancing virtual time beyond the TTL.
        sim.advance_hours(2.0);
        assert!(cache.get_last_link(&sim, a, b).is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.expired, 1, "the post-TTL miss found a stale entry");
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ttl_boundary_entry_is_expired_not_fresh() {
        // Regression pin for the `<=` boundary bug: an entry aged exactly
        // TTL hours must classify as an expired miss, matching the
        // `CacheStats::expired` contract ("post-TTL lookups are misses").
        let sim = Sim::build(SimConfig::tiny(), 3);
        let cache = MeasurementCache::with_ttl(1.0);
        let a = Addr::new(1, 1, 1, 1);
        let b = Addr::new(2, 2, 2, 2);
        cache.put_last_link(&sim, a, b, None);
        sim.advance_hours(1.0);
        assert!(
            cache.get_last_link(&sim, a, b).is_none(),
            "entry exactly at TTL must not be served"
        );
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 1);
        assert_eq!(s.expired, 1, "boundary miss is classified as expired");
        // Just inside the TTL stays fresh.
        let c = Addr::new(3, 3, 3, 3);
        cache.put_last_link(&sim, a, c, None);
        sim.advance_hours(0.5);
        assert_eq!(cache.get_last_link(&sim, a, c), Some(None));
    }

    #[test]
    fn byte_footprint_tracks_entry_counts() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let cache = MeasurementCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        cache.put_last_link(&sim, Addr(1), Addr(2), None);
        cache.put_last_link(&sim, Addr(1), Addr(3), None);
        cache.put_rr(
            &sim,
            RrKey {
                sender: Addr(1),
                claimed: Addr(1),
                dst: Addr(9),
            },
            CachedRr {
                reply: None,
                nonce: 0,
                fwd_epoch: None,
                rep_epoch: None,
            },
        );
        assert_eq!(cache.last_link_len(), 2);
        assert_eq!(cache.rr_len(), 1);
        assert_eq!(
            cache.approx_bytes(),
            2 * LAST_LINK_ENTRY_BYTES + RR_ENTRY_BYTES
        );
        let (ll_occ, rr_occ) = cache.shard_occupancy();
        assert_eq!(ll_occ.iter().sum::<usize>(), 2);
        assert_eq!(rr_occ.iter().sum::<usize>(), 1);
        assert!(cache.shard_skew() > 0.0);
    }

    #[test]
    fn rr_keys_distinguish_spoofing() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let cache = MeasurementCache::new();
        let k1 = RrKey {
            sender: Addr(1),
            claimed: Addr(1),
            dst: Addr(9),
        };
        let k2 = RrKey {
            sender: Addr(1),
            claimed: Addr(2),
            dst: Addr(9),
        };
        let miss = CachedRr {
            reply: None,
            nonce: 0,
            fwd_epoch: None,
            rep_epoch: None,
        };
        cache.put_rr(&sim, k1, miss);
        assert!(cache.get_rr(&sim, k1).is_some());
        assert!(cache.get_rr(&sim, k2).is_none());
    }

    #[test]
    fn concurrent_mixed_load_keeps_counts_consistent() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let cache = MeasurementCache::new();
        std::thread::scope(|s| {
            for t in 0u32..8 {
                let cache = &cache;
                let sim = &sim;
                s.spawn(move || {
                    for i in 0u32..200 {
                        let a = Addr::new(10, (t % 4) as u8, (i % 16) as u8, 1);
                        let b = Addr::new(10, 0, 0, 2);
                        if cache.get_last_link(sim, a, b).is_none() {
                            cache.put_last_link(sim, a, b, None);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 200, "every lookup is classified");
        assert!(s.hits > 0 && s.misses > 0);
        assert_eq!(s.expired, 0);
        assert!(
            s.inserts >= 4 * 16,
            "each distinct key inserted at least once"
        );
    }
}
