//! Probe-economy A/B: the stop-sets-off control against the stop-sets-on
//! arm of the same seeded campaign.
//!
//! This is the evaluation face of the campaign-wide Doubletree stop sets
//! ([`revtr_probing::StopSet`]). `revtr-cli audit` runs the clean campaign
//! twice — identical topology, workload, and seed; only
//! `EngineConfig::use_stop_sets` differs — and reads one [`arm`] off each
//! run beside its audit. The gate: measurement probes per reverse
//! traceroute (option probes plus atlas RR, pings, and traceroutes — see
//! [`Snapshot::measurement_probes`]) must drop by at least [`MIN_CUT`]
//! while coverage and accuracy stay within [`TOL_QUALITY`] of the control.
//! That count takes a traceroute as one probe whatever it sent, so the
//! arms also report packets — [`Snapshot::all_packets`] per revtr, and TTL
//! probes per last-link measurement of the symmetry step — and the on arm,
//! whose start TTLs come from the stop sets' forward distances, is gated
//! at [`MAX_LAST_LINK_PKTS`].
//!
//! [`Snapshot::all_packets`]: revtr_probing::Snapshot::all_packets
//! [`Snapshot::measurement_probes`]: revtr_probing::Snapshot::measurement_probes

use crate::campaign::{CampaignRun, Scale};
use crate::report::OracleScore;
use std::fmt::Write as _;

/// The economy gate: the on-arm must cut measurement probes per revtr by
/// at least this fraction.
pub const MIN_CUT: f64 = 0.25;

/// The quality guard: |coverage delta| and |accuracy delta| between the
/// arms must stay within this absolute bound.
pub const TOL_QUALITY: f64 = 0.02;

/// The last-link gate: TTL probes per uncached last-link measurement on the
/// stop-sets-on arm of the standard campaign. A full forward trace took
/// 11–12; a warm distance hint lands within a TTL or two of the target,
/// about 3.5 packets. The off arm (in-request chain and a constant start
/// only) is reported, not gated — and so is the smoke campaign: its 25
/// requests fit one wave, so no barrier ever publishes a distance, and the
/// tiny topology's five-hop paths sit far below the paper-era cold start.
pub const MAX_LAST_LINK_PKTS: f64 = 6.0;

/// One arm of the A/B (off control or on treatment).
#[derive(Clone, Debug)]
pub struct EconomyArm {
    /// Whether the stop sets were enabled.
    pub stop_sets: bool,
    /// Every measurement probe the campaign issued (option probes +
    /// atlas RR + pings + traceroutes).
    pub probes: u64,
    /// The option-carrying subset (RR + spoofed RR + TS + spoofed TS),
    /// reported alongside so the per-technique economy stays visible.
    pub option_probes: u64,
    /// Every packet the campaign sent (a traceroute counts one per TTL).
    pub packets: u64,
    /// Last links the symmetry step measured (cache misses).
    pub last_links: u64,
    /// TTL probes sent for them.
    pub last_link_pkts: u64,
    /// Requests attempted.
    pub requests: u64,
    /// Campaign coverage.
    pub coverage: f64,
    /// AS-soundness of compared complete paths.
    pub accuracy: f64,
    /// Stop-set hits of any kind (0 for the off control).
    pub stopset_hits: u64,
}

impl EconomyArm {
    /// Measurement probes per attempted request.
    pub fn probes_per_revtr(&self) -> f64 {
        self.probes as f64 / self.requests.max(1) as f64
    }

    /// Packets per attempted request.
    pub fn packets_per_revtr(&self) -> f64 {
        self.packets as f64 / self.requests.max(1) as f64
    }

    /// TTL probes per last-link measurement (0 when none was measured).
    pub fn pkts_per_last_link(&self) -> f64 {
        self.last_link_pkts as f64 / self.last_links.max(1) as f64
    }
}

/// The paired comparison.
#[derive(Clone, Debug)]
pub struct EconomyReport {
    /// Scale both arms ran at.
    pub scale: Scale,
    /// Master seed (both arms).
    pub seed: u64,
    /// The stop-sets-off control.
    pub off: EconomyArm,
    /// The stop-sets-on treatment.
    pub on: EconomyArm,
}

impl EconomyReport {
    /// Fractional probes-per-revtr reduction of the on arm vs the
    /// control (positive = fewer probes).
    pub fn cut(&self) -> f64 {
        let base = self.off.probes_per_revtr();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.on.probes_per_revtr() / base
    }

    /// Whether the economy gate passes: probe cut at least [`MIN_CUT`],
    /// coverage and accuracy within [`TOL_QUALITY`] of the control, and —
    /// at standard scale — the on arm's last-link measurements within
    /// [`MAX_LAST_LINK_PKTS`].
    pub fn pass(&self) -> bool {
        self.cut() >= MIN_CUT
            && (!self.gates_last_link() || self.on.pkts_per_last_link() <= MAX_LAST_LINK_PKTS)
            && (self.on.coverage - self.off.coverage).abs() <= TOL_QUALITY
            && (self.on.accuracy - self.off.accuracy).abs() <= TOL_QUALITY
    }

    fn gates_last_link(&self) -> bool {
        self.scale == Scale::Standard
    }

    /// Render the A/B as text (both arms, deltas, gate verdict).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "probe economy A/B ({} scale, seed {}):",
            self.scale.name(),
            self.seed
        );
        for arm in [&self.off, &self.on] {
            let _ = writeln!(
                s,
                "  stop-sets {:>3}: {:>8} probes ({} option) / {} revtrs = {:.2} probes/revtr, \
                 coverage {:.4}, accuracy {:.4}, stop-set hits {}",
                if arm.stop_sets { "on" } else { "off" },
                arm.probes,
                arm.option_probes,
                arm.requests,
                arm.probes_per_revtr(),
                arm.coverage,
                arm.accuracy,
                arm.stopset_hits
            );
            let _ = writeln!(
                s,
                "                 {:>8} packets = {:.2} packets/revtr, {} last links measured \
                 with {} TTL probes = {:.2} packets/measurement",
                arm.packets,
                arm.packets_per_revtr(),
                arm.last_links,
                arm.last_link_pkts,
                arm.pkts_per_last_link()
            );
        }
        let _ = writeln!(
            s,
            "  probe cut {:.1}% (gate >= {:.0}%), coverage delta {:+.4}, accuracy delta {:+.4} \
             (|delta| <= {:.3}), last link {:.2} packets/measurement with stop sets on ({})",
            self.cut() * 100.0,
            MIN_CUT * 100.0,
            self.on.coverage - self.off.coverage,
            self.on.accuracy - self.off.accuracy,
            TOL_QUALITY,
            self.on.pkts_per_last_link(),
            if self.gates_last_link() {
                format!("gate <= {MAX_LAST_LINK_PKTS:.1}")
            } else {
                "gated at standard scale only".to_string()
            }
        );
        let _ = write!(
            s,
            "economy gate: {}",
            if self.pass() { "PASS" } else { "FAIL" }
        );
        s
    }
}

/// Read one arm of the A/B off its campaign run.
pub fn arm(run: &CampaignRun) -> EconomyArm {
    let score = OracleScore::of(run);
    EconomyArm {
        stop_sets: run.campaign.use_stop_sets,
        probes: run.probes.measurement_probes(),
        option_probes: run.probes.option_probes(),
        packets: run.probes.all_packets(),
        last_links: run.snapshot.counter("probing.last_link.measured"),
        last_link_pkts: run.snapshot.counter("probing.last_link.pkts"),
        requests: run.workload.len() as u64,
        coverage: score.coverage(run.workload.len()),
        accuracy: score.accuracy(),
        stopset_hits: run.stopset.total_hits(),
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::{Campaign, Scale};
    use revtr_probing::StopSetSnapshot;

    #[test]
    fn stop_set_hits_do_not_double_count_cache_hits() {
        // Counter reconciliation: a stop-set hit replaces a whole RR step,
        // so it must NOT also appear as measurement-cache traffic — the
        // two economies are attributed to disjoint counters. The on arm
        // therefore shows (a) stop-set lookups where the off arm has
        // none, and (b) *no more* cache lookups than the off arm (it
        // skips probes, so it can only consult the cache less).
        let off = Campaign::clean(Scale::Smoke, 1).run();
        let on = off.campaign.clone().with_stop_sets(true).run();
        assert_eq!(off.stopset, StopSetSnapshot::default());
        assert!(
            on.stopset.backward_lookups() > 0,
            "on arm never consulted the backward set: {:?}",
            on.stopset
        );
        let off_lookups = off.cache.hits + off.cache.misses;
        let on_lookups = on.cache.hits + on.cache.misses;
        assert!(
            on_lookups <= off_lookups,
            "stop-set consults leaked into cache stats: {on_lookups} > {off_lookups}"
        );
        // And the headline economy: reuse may only cut option probes.
        assert!(
            on.probes.option_probes() <= off.probes.option_probes(),
            "stop sets increased probing: {} > {}",
            on.probes.option_probes(),
            off.probes.option_probes()
        );
    }
}
