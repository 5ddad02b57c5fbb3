//! Probe accounting, in the categories of the paper's Table 4.
//!
//! Counters are atomic so campaigns can run across threads; snapshots and
//! diffs make per-measurement attribution trivial. Each counter sits on
//! its own cache line ([`CachePadded`]): eight adjacent `AtomicU64`s would
//! otherwise false-share, turning independent per-category increments
//! from parallel workers into a single contended line.
//!
//! Besides the global totals, every increment is mirrored into a
//! *per-thread* shadow ([`Counters::thread_snapshot`]). A measurement runs
//! synchronously on one thread, so diffing the thread shadow around it
//! attributes exactly its own probes — diffing the global totals would
//! fold in whatever concurrent workers sent during the same window,
//! making per-request probe counts depend on the worker count.

use revtr_netsim::CachePadded;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The probe categories tracked (Table 4 plus infrastructure kinds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Plain pings (not in Table 4, tracked for completeness).
    Ping,
    /// Non-spoofed RR pings.
    Rr,
    /// Spoofed RR pings.
    SpoofRr,
    /// Non-spoofed TS pings.
    Ts,
    /// Spoofed TS pings.
    SpoofTs,
    /// Traceroute packets (one per TTL probe).
    TraceroutePkts,
    /// Whole traceroutes.
    Traceroutes,
    /// RR pings issued for the background RR-atlas (§4.2), kept separate so
    /// online vs offline overhead can be reported (paper: 1M of 127M).
    AtlasRr,
    /// Retry attempts (meta-counter: the probe itself is also counted in
    /// its own kind; this tracks how many sends were re-sends).
    Retries,
    /// Probes lost to injected faults (meta-counter: transient loss, ICMP
    /// rate limiting, or spoof-filter flaps — not genuine unresponsiveness).
    Lost,
    /// Event-loop steps processed (meta-counter: no packets; bumped by the
    /// engine once per control-block step so span diffs attribute loop
    /// work to stages).
    Events,
    /// Logical bytes admitted into measurement caches (meta-counter: no
    /// packets; bumped at cache put sites so span diffs attribute state
    /// growth to the stage that caused it).
    CacheBytes,
}

const N_KINDS: usize = 12;

impl ProbeKind {
    fn index(self) -> usize {
        match self {
            ProbeKind::Ping => 0,
            ProbeKind::Rr => 1,
            ProbeKind::SpoofRr => 2,
            ProbeKind::Ts => 3,
            ProbeKind::SpoofTs => 4,
            ProbeKind::TraceroutePkts => 5,
            ProbeKind::Traceroutes => 6,
            ProbeKind::AtlasRr => 7,
            ProbeKind::Retries => 8,
            ProbeKind::Lost => 9,
            ProbeKind::Events => 10,
            ProbeKind::CacheBytes => 11,
        }
    }
}

thread_local! {
    /// This thread's contribution per `Counters` instance (keyed by its
    /// unique id).
    static SHADOW: RefCell<HashMap<u64, [u64; N_KINDS]>> = RefCell::new(HashMap::new());
}

/// Unique-id source for `Counters` instances (ids are never reused, so a
/// stale shadow entry can't alias a new instance).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Live atomic probe counters.
#[derive(Debug)]
pub struct Counters {
    id: u64,
    totals: [CachePadded<AtomicU64>; N_KINDS],
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Plain pings.
    pub ping: u64,
    /// Non-spoofed RR pings.
    pub rr: u64,
    /// Spoofed RR pings.
    pub spoof_rr: u64,
    /// Non-spoofed TS pings.
    pub ts: u64,
    /// Spoofed TS pings.
    pub spoof_ts: u64,
    /// Traceroute packets.
    pub traceroute_pkts: u64,
    /// Whole traceroutes.
    pub traceroutes: u64,
    /// Background RR-atlas pings.
    pub atlas_rr: u64,
    /// Retry attempts (meta-counter; each retried send is also counted in
    /// its own kind above).
    pub retries: u64,
    /// Fault-attributed losses (meta-counter; see [`ProbeKind::Lost`]).
    pub lost: u64,
    /// Event-loop steps processed (meta-counter; see [`ProbeKind::Events`]).
    pub events: u64,
    /// Cache bytes admitted (meta-counter; see [`ProbeKind::CacheBytes`]).
    pub cache_bytes: u64,
}

impl Snapshot {
    fn to_array(self) -> [u64; N_KINDS] {
        [
            self.ping,
            self.rr,
            self.spoof_rr,
            self.ts,
            self.spoof_ts,
            self.traceroute_pkts,
            self.traceroutes,
            self.atlas_rr,
            self.retries,
            self.lost,
            self.events,
            self.cache_bytes,
        ]
    }

    fn from_array(v: &[u64; N_KINDS]) -> Snapshot {
        Snapshot {
            ping: v[0],
            rr: v[1],
            spoof_rr: v[2],
            ts: v[3],
            spoof_ts: v[4],
            traceroute_pkts: v[5],
            traceroutes: v[6],
            atlas_rr: v[7],
            retries: v[8],
            lost: v[9],
            events: v[10],
            cache_bytes: v[11],
        }
    }

    /// Table 4's "Total": option-carrying probes (RR + Spoof RR + TS +
    /// Spoof TS), excluding traceroutes and plain pings, as the paper does.
    pub fn option_probes(&self) -> u64 {
        self.rr + self.spoof_rr + self.ts + self.spoof_ts
    }

    /// All packets of any kind. Retries are already folded into their own
    /// kind's count and `lost` marks packets counted elsewhere, so the
    /// meta-counters are deliberately excluded here.
    pub fn all_packets(&self) -> u64 {
        self.option_probes() + self.ping + self.traceroute_pkts + self.atlas_rr
    }

    /// Every measurement *probe* the campaign issued: option-carrying
    /// probes plus atlas RR pings, plain pings, and whole traceroutes
    /// (probe count, not per-TTL packets). This is the numerator of the
    /// probes-per-revtr economy metric — atlas probing is part of a
    /// campaign's probe budget (in the deployed system it dominates it),
    /// so an economy layer that deduplicates atlas refresh must see its
    /// savings counted here.
    pub fn measurement_probes(&self) -> u64 {
        self.option_probes() + self.atlas_rr + self.ping + self.traceroutes
    }

    /// The probe mix as sorted `(kind, count)` pairs — the Table-4 style
    /// breakdown the perf sentinel records in `BENCH_*.json`. Only real
    /// packet kinds appear; the retry/loss meta-counters are reported
    /// separately.
    pub fn by_kind(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("atlas_rr", self.atlas_rr),
            ("ping", self.ping),
            ("rr", self.rr),
            ("spoof_rr", self.spoof_rr),
            ("spoof_ts", self.spoof_ts),
            ("traceroute_pkts", self.traceroute_pkts),
            ("traceroutes", self.traceroutes),
            ("ts", self.ts),
        ]
    }

    /// Component-wise difference (`self` must be the later snapshot).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            ping: self.ping - earlier.ping,
            rr: self.rr - earlier.rr,
            spoof_rr: self.spoof_rr - earlier.spoof_rr,
            ts: self.ts - earlier.ts,
            spoof_ts: self.spoof_ts - earlier.spoof_ts,
            traceroute_pkts: self.traceroute_pkts - earlier.traceroute_pkts,
            traceroutes: self.traceroutes - earlier.traceroutes,
            atlas_rr: self.atlas_rr - earlier.atlas_rr,
            retries: self.retries - earlier.retries,
            lost: self.lost - earlier.lost,
            events: self.events - earlier.events,
            cache_bytes: self.cache_bytes - earlier.cache_bytes,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            ping: self.ping + other.ping,
            rr: self.rr + other.rr,
            spoof_rr: self.spoof_rr + other.spoof_rr,
            ts: self.ts + other.ts,
            spoof_ts: self.spoof_ts + other.spoof_ts,
            traceroute_pkts: self.traceroute_pkts + other.traceroute_pkts,
            traceroutes: self.traceroutes + other.traceroutes,
            atlas_rr: self.atlas_rr + other.atlas_rr,
            retries: self.retries + other.retries,
            lost: self.lost + other.lost,
            events: self.events + other.events,
            cache_bytes: self.cache_bytes + other.cache_bytes,
        }
    }

    /// Approximate bytes put on the (virtual) wire, from fixed per-kind
    /// packet weights: 28 bytes for a plain IPv4+ICMP echo or one
    /// traceroute TTL packet, 68 bytes when a 40-byte RR/TS option rides
    /// along. A logical-cost model (like the byte ledgers: deterministic,
    /// no pcap), good enough to rank stages and catch regressions.
    pub fn probe_bytes(&self) -> u64 {
        const PING: u64 = 28; // 20-byte IPv4 header + 8-byte ICMP echo
        const OPT: u64 = PING + 40; // + maximal IPv4 options area (RR/TS)
        let option_probes = self.rr + self.spoof_rr + self.ts + self.spoof_ts + self.atlas_rr;
        option_probes * OPT + (self.ping + self.traceroute_pkts) * PING
    }
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Counters {
        Counters {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            totals: Default::default(),
        }
    }

    /// Copy current global values (all threads).
    pub fn snapshot(&self) -> Snapshot {
        let mut v = [0u64; N_KINDS];
        for (slot, total) in v.iter_mut().zip(&self.totals) {
            *slot = total.load(Ordering::Relaxed);
        }
        Snapshot::from_array(&v)
    }

    /// Copy the calling thread's contribution only. Diffing this around a
    /// measurement attributes exactly the probes that measurement sent,
    /// regardless of what other workers do concurrently.
    pub fn thread_snapshot(&self) -> Snapshot {
        SHADOW.with(|s| {
            s.borrow()
                .get(&self.id)
                .map(Snapshot::from_array)
                .unwrap_or_default()
        })
    }

    /// Replace the calling thread's shadow with `snap` and return the
    /// previous shadow.
    ///
    /// Counterpart of `Clock::swap_thread_ms` for the event-driven
    /// engine: the loop swaps each control block's private snapshot in
    /// before stepping it and back out after, so [`thread_snapshot`]
    /// diffs inside the measurement attribute exactly that measurement's
    /// probes even though many measurements share one OS thread.
    ///
    /// [`thread_snapshot`]: Counters::thread_snapshot
    pub fn swap_thread_snapshot(&self, snap: Snapshot) -> Snapshot {
        SHADOW.with(|s| {
            Snapshot::from_array(&std::mem::replace(
                s.borrow_mut().entry(self.id).or_default(),
                snap.to_array(),
            ))
        })
    }

    /// Count `n` engine events ([`ProbeKind::Events`]). Public — the
    /// engine lives in the `core` crate — and mirrored into the
    /// per-thread shadow like every probe kind, so span diffs attribute
    /// engine steps to the stage that did them at any worker count.
    pub fn add_events(&self, n: u64) {
        self.add(ProbeKind::Events, n);
    }

    /// Increment a counter by one.
    pub(crate) fn bump(&self, kind: ProbeKind) {
        self.add(kind, 1);
    }

    /// Increment a counter by `n`.
    pub(crate) fn add(&self, kind: ProbeKind, n: u64) {
        let i = kind.index();
        self.totals[i].fetch_add(n, Ordering::Relaxed);
        SHADOW.with(|s| {
            s.borrow_mut().entry(self.id).or_default()[i] += n;
        });
    }
}

impl Default for Counters {
    fn default() -> Counters {
        Counters::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_and_sum() {
        let c = Counters::new();
        c.bump(ProbeKind::Rr);
        c.bump(ProbeKind::Rr);
        c.bump(ProbeKind::SpoofRr);
        let a = c.snapshot();
        c.add(ProbeKind::Ts, 5);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.rr, 0);
        assert_eq!(d.ts, 5);
        assert_eq!(b.option_probes(), 2 + 1 + 5);
        let s = a.plus(&d);
        assert_eq!(s, b);
    }

    #[test]
    fn all_packets_counts_everything() {
        let c = Counters::new();
        c.add(ProbeKind::Ping, 2);
        c.add(ProbeKind::TraceroutePkts, 7);
        c.add(ProbeKind::AtlasRr, 3);
        c.add(ProbeKind::SpoofTs, 1);
        assert_eq!(c.snapshot().all_packets(), 2 + 7 + 3 + 1);
    }

    #[test]
    fn meta_kinds_stay_out_of_packet_accounting() {
        let c = Counters::new();
        c.add(ProbeKind::Rr, 4);
        c.add(ProbeKind::Ping, 2);
        c.add_events(100);
        c.add(ProbeKind::CacheBytes, 4096);
        let s = c.snapshot();
        assert_eq!(s.events, 100);
        assert_eq!(s.cache_bytes, 4096);
        // Events/CacheBytes are not packets: every packet aggregate and
        // the sentinel's by-kind table must ignore them.
        assert_eq!(s.option_probes(), 4);
        assert_eq!(s.all_packets(), 6);
        assert_eq!(s.measurement_probes(), 6);
        assert!(s.by_kind().iter().all(|(k, _)| !k.contains("events")));
        // But diffs and sums carry them for span attribution.
        let d = c.snapshot().since(&Snapshot::default());
        assert_eq!(d.events, 100);
        assert_eq!(d.plus(&d).cache_bytes, 8192);
    }

    #[test]
    fn probe_bytes_weights_options_against_plain_packets() {
        let s = Snapshot {
            rr: 2,
            spoof_rr: 1,
            atlas_rr: 1,
            ping: 3,
            traceroute_pkts: 5,
            events: 999,      // must not count
            cache_bytes: 999, // must not count
            ..Snapshot::default()
        };
        assert_eq!(s.probe_bytes(), 4 * 68 + 8 * 28);
        assert_eq!(Snapshot::default().probe_bytes(), 0);
    }

    #[test]
    fn thread_snapshot_attributes_per_thread() {
        let c = Counters::new();
        c.add(ProbeKind::Rr, 3);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let before = c.thread_snapshot();
                    assert_eq!(before, Snapshot::default(), "fresh thread starts at zero");
                    c.add(ProbeKind::SpoofRr, 2);
                    let mine = c.thread_snapshot().since(&before);
                    assert_eq!(mine.spoof_rr, 2);
                    assert_eq!(mine.rr, 0, "other threads' rr not attributed here");
                });
            }
        });
        // Globals see everything.
        let g = c.snapshot();
        assert_eq!(g.rr, 3);
        assert_eq!(g.spoof_rr, 8);
        // This thread only its own.
        assert_eq!(c.thread_snapshot().rr, 3);
        assert_eq!(c.thread_snapshot().spoof_rr, 0);
    }

    #[test]
    fn swap_thread_snapshot_multiplexes_shadows() {
        let c = Counters::new();
        c.add(ProbeKind::Rr, 2); // task A
        let a = c.swap_thread_snapshot(Snapshot::default()); // to task B
        assert_eq!(a.rr, 2);
        assert_eq!(c.thread_snapshot(), Snapshot::default());
        c.add(ProbeKind::SpoofRr, 5); // task B
        let b = c.swap_thread_snapshot(a); // back to task A
        assert_eq!(b.spoof_rr, 5);
        assert_eq!(b.rr, 0);
        c.bump(ProbeKind::Rr); // task A again
        assert_eq!(c.thread_snapshot().rr, 3);
        assert_eq!(c.thread_snapshot().spoof_rr, 0);
        // Globals unaffected by shadow bookkeeping.
        assert_eq!(c.snapshot().rr, 3);
        assert_eq!(c.snapshot().spoof_rr, 5);
    }

    #[test]
    fn instances_do_not_share_shadows() {
        let a = Counters::new();
        let b = Counters::new();
        a.bump(ProbeKind::Ping);
        assert_eq!(b.thread_snapshot().ping, 0);
        assert_eq!(a.thread_snapshot().ping, 1);
    }
}
