//! Probe-economy A/B: the stop-sets-off control against the stop-sets-on
//! arm of the same seeded campaign.
//!
//! This is the evaluation face of the campaign-wide Doubletree stop sets
//! ([`revtr_probing::StopSet`]): it runs the clean campaign twice —
//! identical topology, workload, and seed; only
//! `EngineConfig::use_stop_sets` differs — and gates the economy claim of
//! the PR: measurement probes per reverse traceroute (option probes plus
//! atlas RR, pings, and traceroutes — see
//! [`Snapshot::measurement_probes`]) must drop by at least
//! [`DEFAULT_MIN_CUT`] while coverage and accuracy stay within
//! [`DEFAULT_TOL_QUALITY`] of the control. That count takes a traceroute
//! as one probe whatever it sent, so the same two campaigns also report
//! packets — [`Snapshot::all_packets`] per revtr, and TTL probes per
//! last-link measurement of the symmetry step — and gate the on arm, whose
//! start TTLs come from the stop sets' forward distances, at
//! [`MAX_LAST_LINK_PKTS`]. `revtr-cli economy` exits non-zero when a gate
//! fails, and ci.sh sweeps it over the standard seeds {1, 7, 42}.
//!
//! [`Snapshot::all_packets`]: revtr_probing::Snapshot::all_packets
//! [`Snapshot::measurement_probes`]: revtr_probing::Snapshot::measurement_probes

use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::report::OracleScore;
use std::fmt::Write as _;

/// The economy gate: the on-arm must cut measurement probes per revtr by
/// at least this fraction.
pub const DEFAULT_MIN_CUT: f64 = 0.25;

/// The quality guard: |coverage delta| and |accuracy delta| between the
/// arms must stay within this absolute bound.
pub const DEFAULT_TOL_QUALITY: f64 = 0.02;

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
    /// Campaign journal fingerprint.
    pub journal_fingerprint: u64,
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

/// The paired comparison and its gate parameters.
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
    /// Required fractional probe cut (e.g. 0.25 = 25%).
    pub min_cut: f64,
    /// Allowed absolute coverage/accuracy delta.
    pub tol_quality: f64,
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

    /// Whether the economy gate passes: probe cut at least `min_cut`,
    /// coverage and accuracy within `tol_quality` of the control, and — at
    /// standard scale — the on arm's last-link measurements within
    /// [`MAX_LAST_LINK_PKTS`].
    pub fn pass(&self) -> bool {
        self.cut() >= self.min_cut
            && (!self.gates_last_link() || self.on.pkts_per_last_link() <= MAX_LAST_LINK_PKTS)
            && (self.on.coverage - self.off.coverage).abs() <= self.tol_quality
            && (self.on.accuracy - self.off.accuracy).abs() <= self.tol_quality
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
            self.min_cut * 100.0,
            self.on.coverage - self.off.coverage,
            self.on.accuracy - self.off.accuracy,
            self.tol_quality,
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
        journal_fingerprint: run.journal_fingerprint,
    }
}

/// Run the full A/B at `scale`/`seed` with explicit gate parameters.
pub fn run(scale: Scale, seed: u64, min_cut: f64, tol_quality: f64) -> EconomyReport {
    let off = Campaign::clean(scale, seed);
    let on = off.clone().with_stop_sets(true);
    EconomyReport {
        scale,
        seed,
        off: arm(&off.run()),
        on: arm(&on.run()),
        min_cut,
        tol_quality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_economy_cuts_probes_within_quality_bounds() {
        let r = run(Scale::Smoke, 1, DEFAULT_MIN_CUT, DEFAULT_TOL_QUALITY);
        assert!(r.pass(), "economy gate failed:\n{}", r.render());
        assert!(r.on.stopset_hits > 0, "on arm never hit the stop sets");
        assert_eq!(r.off.stopset_hits, 0, "off control touched the stop sets");
        assert_eq!(r.off.requests, r.on.requests, "workload moved between arms");
        for arm in [&r.off, &r.on] {
            assert!(arm.last_links > 0, "no symmetry step measured a last link");
            assert!(
                arm.last_link_pkts >= 2 * arm.last_links,
                "a last link is two TTLs"
            );
            assert!(arm.packets > arm.probes, "packets count every TTL probe");
        }
    }
}
