//! Probe accounting, in the categories of the paper's Table 4.
//!
//! Counters are atomic so campaigns can run across threads; snapshots and
//! diffs attribute a stretch of a run. A request counts a couple of
//! hundred things, so the counters are striped by recording thread
//! ([`StripedCounters`]): a worker adds on lines only it writes, and a
//! snapshot sums the stripes.
//!
//! [`Counters`] holds the *shared* totals: diffing them around one
//! measurement would fold in whatever concurrent workers sent during the
//! same window. What one request sent is tallied by its [`crate::Meter`] —
//! a plain [`Snapshot`] the prober bumps alongside these totals.

use revtr_netsim::StripedCounters;

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
    /// Every kind, in declaration order: `ALL[k as usize] == k`.
    const ALL: [ProbeKind; N_KINDS] = [
        ProbeKind::Ping,
        ProbeKind::Rr,
        ProbeKind::SpoofRr,
        ProbeKind::Ts,
        ProbeKind::SpoofTs,
        ProbeKind::TraceroutePkts,
        ProbeKind::Traceroutes,
        ProbeKind::AtlasRr,
        ProbeKind::Retries,
        ProbeKind::Lost,
        ProbeKind::Events,
        ProbeKind::CacheBytes,
    ];
}

/// Live atomic probe counters.
#[derive(Debug, Default)]
pub struct Counters {
    totals: StripedCounters<N_KINDS>,
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
    /// Add `n` to the count of `kind`.
    pub(crate) fn add(&mut self, kind: ProbeKind, n: u64) {
        *match kind {
            ProbeKind::Ping => &mut self.ping,
            ProbeKind::Rr => &mut self.rr,
            ProbeKind::SpoofRr => &mut self.spoof_rr,
            ProbeKind::Ts => &mut self.ts,
            ProbeKind::SpoofTs => &mut self.spoof_ts,
            ProbeKind::TraceroutePkts => &mut self.traceroute_pkts,
            ProbeKind::Traceroutes => &mut self.traceroutes,
            ProbeKind::AtlasRr => &mut self.atlas_rr,
            ProbeKind::Retries => &mut self.retries,
            ProbeKind::Lost => &mut self.lost,
            ProbeKind::Events => &mut self.events,
            ProbeKind::CacheBytes => &mut self.cache_bytes,
        } += n;
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
        Counters::default()
    }

    /// Copy current global values (all threads).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for &kind in &ProbeKind::ALL {
            snap.add(kind, self.totals.get(kind as usize));
        }
        snap
    }

    /// Increment a counter by `n`.
    pub(crate) fn add(&self, kind: ProbeKind, n: u64) {
        self.totals.add(kind as usize, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_lands_in_its_own_field() {
        let c = Counters::new();
        for (i, &kind) in ProbeKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, i);
            c.add(kind, 1 << i);
        }
        let s = c.snapshot();
        let fields = [
            s.ping,
            s.rr,
            s.spoof_rr,
            s.ts,
            s.spoof_ts,
            s.traceroute_pkts,
            s.traceroutes,
            s.atlas_rr,
            s.retries,
            s.lost,
            s.events,
            s.cache_bytes,
        ];
        assert_eq!(fields, std::array::from_fn(|i| 1u64 << i));
    }

    #[test]
    fn snapshot_diff_and_sum() {
        let c = Counters::new();
        c.add(ProbeKind::Rr, 2);
        c.add(ProbeKind::SpoofRr, 1);
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
        c.add(ProbeKind::Events, 100);
        c.add(ProbeKind::CacheBytes, 4096);
        let s = c.snapshot();
        assert_eq!(s.events, 100);
        assert_eq!(s.cache_bytes, 4096);
        // Events/CacheBytes are not packets: every packet aggregate must
        // ignore them.
        assert_eq!(s.option_probes(), 4);
        assert_eq!(s.all_packets(), 6);
        assert_eq!(s.measurement_probes(), 6);
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
}
