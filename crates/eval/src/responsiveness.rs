//! Appx. F / Table 6 / Fig. 11: record-route responsiveness and
//! reachability, 2016-era vs 2020-era Internets.
//!
//! Two topologies are generated — the sparser 2016 Internet with 86 VP
//! sites and the flattened 2020 one with 146 — and one destination per
//! prefix is probed: a plain ping, then RR pings from every VP. The
//! distance to the closest VP is the slot index at which the destination's
//! stamp appears. Each era is a world of its own, with `scale`'s sizes.

use crate::campaign::Scale;
use crate::context::{EvalContext, EvalScale};
use crate::render::{Figure, Table};
use crate::stats::{fraction, Distribution};
use revtr_netsim::{Addr, SimConfig};
use revtr_vpselect::{path_view, Heuristics};

/// Aggregate counts for one era (Table 6's column).
#[derive(Clone, Copy, Debug, Default)]
pub struct EraStats {
    /// Destinations probed (one per prefix).
    pub probed: usize,
    /// Responding to plain ping.
    pub ping_responsive: usize,
    /// Responding to RR-option ping.
    pub rr_responsive: usize,
    /// Reachable within 8 RR slots from at least one VP.
    pub rr_reachable_8: usize,
}

/// Per-era distance samples for Fig. 11.
#[derive(Clone, Debug, Default)]
pub struct EraDistances {
    /// Min RR slot distance to the closest VP, per RR-responsive dest.
    pub min_dist: Vec<f64>,
}

/// The Appx. F report.
#[derive(Clone, Debug)]
pub struct ResponsivenessReport {
    /// ("2016", stats), ("2020", stats).
    pub eras: Vec<(String, EraStats)>,
    /// Fig. 11 lines: (label, distances).
    pub distance_lines: Vec<(String, EraDistances)>,
}

/// Probe one era's destinations from a VP subset; returns (stats,
/// distances).
fn probe_era(ctx: &EvalContext, vps: &[Addr]) -> (EraStats, EraDistances) {
    let prober = ctx.prober();
    let pinger = vps[0];
    let mut stats = EraStats::default();
    let mut dists = EraDistances::default();
    for p in ctx.sampled_prefixes() {
        // One candidate host per prefix — responsive or not ("All probed").
        let dest = ctx.sim.host_addrs(p).next().expect("prefix has host space");
        stats.probed += 1;
        if prober.ping(pinger, dest).is_none() {
            continue;
        }
        stats.ping_responsive += 1;
        let prefix = ctx.sim.topo().prefix(p).prefix;
        let mut best: Option<usize> = None;
        let mut answered = false;
        for &vp in vps {
            let Some(r) = prober.rr_ping(vp, dest) else {
                continue;
            };
            answered = true;
            let view = path_view(&r.slots, prefix, Heuristics::FULL);
            if let Some(d) = view.dest_dist {
                best = Some(best.map_or(d, |b: usize| b.min(d)));
            }
        }
        if answered {
            stats.rr_responsive += 1;
        }
        if let Some(d) = best {
            dists.min_dist.push(d as f64);
            if d <= 8 {
                stats.rr_reachable_8 += 1;
            }
        }
    }
    (stats, dists)
}

/// Run the two-era study under `seed`.
pub fn run(scale: Scale, seed: u64) -> ResponsivenessReport {
    run_eras(scale.eval_scale(seed))
}

fn run_eras(scale: EvalScale) -> ResponsivenessReport {
    let ctx16 = EvalContext::new(SimConfig::era_2016(), scale);
    let ctx20 = EvalContext::new(SimConfig::era_2020(), scale);

    let vps16 = ctx16.vps();
    let vps20 = ctx20.vps();
    // The "2020 with 2016 VPs" line: the legacy subset of 2020 sites.
    let vps20_legacy: Vec<Addr> = ctx20
        .sim
        .topo()
        .vp_sites
        .iter()
        .filter(|v| v.legacy_2016)
        .map(|v| v.host)
        .collect();

    let (s16, d16) = probe_era(&ctx16, &vps16);
    let (s20, d20) = probe_era(&ctx20, &vps20);
    let (_s20l, d20l) = probe_era(&ctx20, &vps20_legacy);

    ResponsivenessReport {
        eras: vec![("2016".into(), s16), ("2020".into(), s20)],
        distance_lines: vec![
            (format!("Nov. 2020, All VPs (n={})", vps20.len()), d20),
            (
                format!("Nov. 2020 with 2016 VPs (n={})", vps20_legacy.len()),
                d20l,
            ),
            (format!("Sept. 2016, All VPs (n={})", vps16.len()), d16),
        ],
    }
}

impl ResponsivenessReport {
    /// Render Table 6.
    pub fn table6(&self) -> Table {
        let mut t = Table::new(
            "Table 6: destination responsiveness and reachability",
            &["Metric", "2016", "2020"],
        );
        let metrics = [
            "All probed",
            "Ping responsive",
            "RR responsive",
            "RR reachable in <=8 hops",
        ];
        for (i, name) in metrics.into_iter().enumerate() {
            let mut row = vec![name.to_string()];
            row.extend(self.eras.iter().map(|(_, s)| {
                let n = [
                    s.probed,
                    s.ping_responsive,
                    s.rr_responsive,
                    s.rr_reachable_8,
                ][i];
                match i {
                    0 => n.to_string(),
                    _ => format!("{n} ({:.0}%)", 100.0 * fraction(n, s.probed)),
                }
            }));
            t.row(&row);
        }
        t
    }

    /// Render Fig. 11.
    pub fn fig11(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 11: RR hops from the closest vantage point",
            "number of RR hops from closest vantage point",
            "CDF of RR responsive destinations",
        );
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        for (label, d) in &self.distance_lines {
            f.series(label, Distribution::new(d.min_dist.clone()).cdf_series(&xs));
        }
        f
    }
}

/// Appx. F / Insight 1.3: the coverage benefit of spoofing.
///
/// For `(source, destination)` pairs, can at least one reverse hop be
/// measured (a) with a plain RR ping from the source itself, versus
/// (b) with spoofed RR pings from whichever VP is closest? The paper
/// measures 32% vs 63% of RR-responsive destinations.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpoofingBenefit {
    /// Pairs with an RR-responsive destination.
    pub pairs: usize,
    /// Pairs where the source's own RR ping revealed a reverse hop.
    pub without_spoofing: usize,
    /// Pairs where some VP's spoofed RR ping revealed a reverse hop.
    pub with_spoofing: usize,
}

impl SpoofingBenefit {
    /// Render the Insight 1.3 summary.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Insight 1.3: reverse-hop measurability with and without spoofing",
            &["Technique", "pairs with >=1 reverse hop", "fraction"],
        );
        t.row(&[
            "source's own RR ping (no spoofing)".to_string(),
            self.without_spoofing.to_string(),
            format!("{:.2}", fraction(self.without_spoofing, self.pairs)),
        ]);
        t.row(&[
            "spoofed RR from closest VP".to_string(),
            self.with_spoofing.to_string(),
            format!("{:.2}", fraction(self.with_spoofing, self.pairs)),
        ]);
        t
    }
}

/// Measure the spoofing benefit over `(src, dst)` pairs in the world of
/// `(scale, seed)`.
pub fn spoofing_benefit(scale: Scale, seed: u64) -> SpoofingBenefit {
    let ctx = EvalContext::of(scale, seed);
    let prober = ctx.prober();
    let vps = ctx.vps();
    let mut out = SpoofingBenefit::default();
    for (i, p) in ctx.sampled_prefixes().into_iter().enumerate() {
        let Some(dst) = ctx.responsive_dest_in(p) else {
            continue;
        };
        let src = ctx.sources()[i % ctx.scale.n_sources.max(1)];
        let reveals = |reply: Option<revtr_netsim::RrReply>| -> bool {
            reply.is_some_and(|r| {
                revtr::extract_reverse_hops(&r.slots, dst).is_some_and(|rev| !rev.is_empty())
            })
        };
        if prober.rr_ping(src, dst).is_none() {
            continue; // not RR responsive: outside the denominator
        }
        out.pairs += 1;
        if reveals(prober.rr_ping(src, dst)) {
            out.without_spoofing += 1;
        }
        // Spoofed: any VP will do; the paper's claim is about the best one.
        let best = vps.iter().take(30).any(|&vp| {
            let replies = prober.spoofed_rr_batch(&[(vp, dst)], src);
            reveals(replies.replies.into_iter().next().flatten().map(|(r, _)| r))
        });
        if best {
            out.with_spoofing += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spoofing_expands_coverage() {
        let b = spoofing_benefit(Scale::Smoke, 1);
        assert!(b.pairs > 0, "no RR-responsive pairs");
        assert!(
            b.with_spoofing >= b.without_spoofing,
            "spoofing can only help: {} vs {}",
            b.with_spoofing,
            b.without_spoofing
        );
        assert!(b.with_spoofing > 0);
        assert_eq!(b.table().len(), 2);
    }

    #[test]
    fn flattening_brings_destinations_closer() {
        let mut scale = Scale::Smoke.eval_scale(1);
        scale.prefix_sample = 150;
        let report = run_eras(scale);
        let s16 = report.eras[0].1;
        let s20 = report.eras[1].1;
        assert!(s16.probed > 0 && s20.probed > 0);
        assert!(s16.ping_responsive > 0);
        // Responsiveness rates are a property of the behaviour model, not
        // the topology; what flattening + more VPs improves is how *close*
        // the nearest VP is. Compare conditionally on RR-responsive
        // destinations (per-address responsiveness draws differ between
        // the two topologies' samples).
        let reach16 = fraction(s16.rr_reachable_8, s16.rr_responsive);
        let reach20 = fraction(s20.rr_reachable_8, s20.rr_responsive);
        assert!(
            reach20 + 0.1 >= reach16,
            "2020 conditional reachability {reach20:.2} well below 2016 {reach16:.2}"
        );
        // Fig. 11: 2020's mean closest-VP distance is no larger than
        // 2016's (the flattening effect).
        let d20 = Distribution::new(report.distance_lines[0].1.min_dist.clone());
        let d16 = Distribution::new(report.distance_lines[2].1.min_dist.clone());
        if !d20.is_empty() && !d16.is_empty() {
            assert!(
                d20.mean() <= d16.mean() + 0.25,
                "2020 mean distance {:.2} vs 2016 {:.2}",
                d20.mean(),
                d16.mean()
            );
        }
        assert_eq!(report.table6().len(), 4);
        assert_eq!(report.fig11().series.len(), 3);
    }
}
