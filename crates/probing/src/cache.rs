//! Measurement reuse cache (the "cache" component of Table 4's ablation).
//!
//! revtr 2.0 caches traceroutes and RR measurements for a day and reuses
//! them across reverse traceroutes (Insight 1.4 / Appx. D.2.2). Of a
//! traceroute the engine uses one thing — the last link before the target
//! ([`LastLink`]) — so that is what is kept. Entries are
//! keyed by the full probe identity and expire on *virtual* simulator time,
//! so staleness interacts correctly with route churn.
//!
//! Both maps are lock-striped ([`StripedMap`]): every cached probe on the
//! hot path does a lookup here, and a single global `RwLock` per map turns
//! into a convoy under parallel campaign workers. The hit/miss/insert/
//! expired counters are striped by recording thread for the same reason.

use crate::prober::LastLink;
use revtr_netsim::{Addr, RrReply, Sim, StripedCounters, StripedMap};

/// Default cache TTL: one day of virtual time (paper Q1/D.2.2).
pub const DEFAULT_TTL_HOURS: f64 = 24.0;

#[derive(Clone, Debug)]
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

/// Footprint of one last-link cache entry: the `(source, target)` key and
/// the timestamped measurement, all inline.
pub const LAST_LINK_ENTRY_BYTES: u64 =
    (std::mem::size_of::<(Addr, Addr)>() + std::mem::size_of::<Entry<Option<LastLink>>>()) as u64;

/// Logical footprint of one RR cache entry: `RrKey` (3 addrs) +
/// `CachedRr` with a ≤9-slot stamp vector — ~112 B.
pub const RR_ENTRY_BYTES: u64 = 112;

/// TTL-based cache for last-link measurements and RR replies.
#[derive(Debug)]
pub struct MeasurementCache {
    ttl_hours: f64,
    last_links: StripedMap<(Addr, Addr), Entry<Option<LastLink>>>,
    rr: StripedMap<RrKey, Entry<CachedRr>>,
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
            last_links: StripedMap::new(),
            rr: StripedMap::new(),
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
        self.last_links.insert(
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
        self.classify(self.rr.get(&key), now)
    }

    /// Store an RR outcome (including "no answer") with its provenance.
    pub fn put_rr(&self, sim: &Sim, key: RrKey, v: CachedRr) {
        self.stats.add(INSERTS, 1);
        self.rr.insert(
            key,
            Entry {
                at_hours: sim.now_hours(),
                value: v,
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

    /// Per-shard occupancy of both striped maps (last links first), for
    /// shard-skew reporting in `revtr-cli profile`.
    pub fn shard_occupancy(&self) -> (Vec<usize>, Vec<usize>) {
        (self.last_links.shard_occupancy(), self.rr.shard_occupancy())
    }

    /// Worst `max/mean` shard skew across both striped maps.
    pub fn shard_skew(&self) -> f64 {
        self.last_links.shard_skew().max(self.rr.shard_skew())
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

    /// Drop everything (e.g. when rebuilding an atlas from scratch).
    pub fn clear(&self) {
        self.last_links.clear();
        self.rr.clear();
    }
}

impl Default for MeasurementCache {
    fn default() -> Self {
        MeasurementCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::SimConfig;

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
        cache.clear();
        assert_eq!(cache.approx_bytes(), 0);
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
