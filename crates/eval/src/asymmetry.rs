//! §6.2 + Appx. G: the path asymmetry study — Figs. 8a/8b, 12, 13, 14 and
//! Table 7.
//!
//! Bidirectional campaign: forward traceroute `src → dst` paired with a
//! revtr 2.0 reverse traceroute `dst → src` — the revtr 2.0 campaign and
//! the forward traceroutes of its ground truth. Path symmetry is quantified
//! as the paper does: the fraction of forward-traceroute hops also on the
//! reverse traceroute, at router and AS granularity.

use crate::accuracy::{ground_truth, PairTruth};
use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::render::{Figure, Table};
use crate::stats::{fraction, Distribution};
use revtr_aliasing::{AliasResolver, Ip2As, RelationshipDb};
use revtr_netsim::{Addr, AsId, AsTier};
use std::collections::BTreeMap;

/// One bidirectional measurement pair.
#[derive(Clone, Debug)]
pub struct PairRecord {
    /// Forward AS-level path (src → dst).
    pub fwd_as: Vec<AsId>,
    /// Reverse AS-level path (dst → src).
    pub rev_as: Vec<AsId>,
    /// Fraction of forward hops also on the reverse path, router level.
    pub frac_router: f64,
    /// Fraction of forward AS hops also on the reverse AS path.
    pub frac_as: f64,
    /// Per-forward-AS-hop: also present on the reverse path? (For Fig. 14.)
    pub fwd_as_on_reverse: Vec<bool>,
    /// The reverse measurement contained a symmetry assumption.
    pub has_assumption: bool,
}

impl PairRecord {
    /// Symmetric at AS granularity (every forward AS on the reverse path)?
    pub fn symmetric_as(&self) -> bool {
        self.frac_as >= 1.0 - 1e-9
    }

    /// Asymmetric under de Vries et al.'s definition: the reversed reverse
    /// AS path differs from the forward one at all (Appx. G.3).
    pub fn edit_asymmetric(&self) -> bool {
        let rev: Vec<AsId> = self.rev_as.iter().rev().copied().collect();
        edit_distance(&self.fwd_as, &rev) > 0
    }
}

/// The asymmetry study report.
#[derive(Clone, Debug)]
pub struct AsymmetryReport {
    /// All measured pairs.
    pub pairs: Vec<PairRecord>,
    /// Per-AS: (times part of an observed asymmetry, customer cone size,
    /// tier).
    pub participation: BTreeMap<AsId, (usize, usize, AsTier)>,
    /// Number of asymmetric pairs (denominator for prevalence).
    pub asymmetric_pairs: usize,
    /// Tier-1 AS ids (for Fig. 13's conditioning).
    pub tier1: Vec<AsId>,
}

/// Run the revtr 2.0 campaign and judge it.
pub fn run(scale: Scale, seed: u64) -> AsymmetryReport {
    let run = Campaign::clean(scale, seed).run();
    judge(&run, &ground_truth(&run))
}

/// Pair every complete reverse path of `run` with its forward traceroute.
pub fn judge(run: &CampaignRun, truth: &[PairTruth]) -> AsymmetryReport {
    let sim = &run.ctx.sim;
    let resolver = AliasResolver::new(sim);
    let ip2as = Ip2As::new(sim);
    let rels = RelationshipDb::new(sim);

    let mut pairs = Vec::new();
    let mut participation: BTreeMap<AsId, (usize, usize, AsTier)> = BTreeMap::new();
    let mut asymmetric_pairs = 0usize;

    for (rev, t) in run.results.iter().zip(truth) {
        let Some(fwd_hops) = &t.forward else {
            continue;
        };
        if !rev.complete() || fwd_hops.is_empty() {
            continue;
        }
        let rev_hops: Vec<Addr> = rev.addrs().collect();
        let matched = fwd_hops
            .iter()
            .filter(|&&h| rev_hops.iter().any(|&r| resolver.hop_match(h, r)))
            .count();
        let fwd_as = ip2as.as_path(fwd_hops.iter().copied());
        let rev_as = ip2as.as_path(rev_hops.iter().copied());
        let fwd_as_on_reverse: Vec<bool> = fwd_as.iter().map(|a| rev_as.contains(a)).collect();
        let as_matched = fwd_as_on_reverse.iter().filter(|b| **b).count();

        let rec = PairRecord {
            frac_router: fraction(matched, fwd_hops.len()),
            frac_as: fraction(as_matched, fwd_as.len()),
            fwd_as_on_reverse,
            fwd_as: fwd_as.clone(),
            rev_as: rev_as.clone(),
            has_assumption: rev.has_assumption(),
        };
        if !rec.symmetric_as() {
            asymmetric_pairs += 1;
            // ASes "part of the observed asymmetry": on one direction's AS
            // path but not the other's.
            let mut involved: Vec<AsId> = Vec::new();
            for a in &fwd_as {
                if !rev_as.contains(a) {
                    involved.push(*a);
                }
            }
            for a in &rev_as {
                if !fwd_as.contains(a) {
                    involved.push(*a);
                }
            }
            involved.sort_unstable();
            involved.dedup();
            for a in involved {
                let e = participation
                    .entry(a)
                    .or_insert_with(|| (0, rels.cone_size(a), sim.topo().asn(a).tier));
                e.0 += 1;
            }
        }
        pairs.push(rec);
    }

    let tier1 = (sim.topo().ases.iter())
        .filter(|a| a.tier == AsTier::Tier1)
        .map(|a| a.id)
        .collect();

    AsymmetryReport {
        pairs,
        participation,
        asymmetric_pairs,
        tier1,
    }
}

impl AsymmetryReport {
    fn symmetry_ccdf(&self, title: &str, pairs: &[&PairRecord]) -> Figure {
        let mut f = Figure::new(
            title,
            "fraction of forward traceroute hops also on reverse traceroute",
            "CCDF of traceroute pairs",
        );
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
        let as_samples: Vec<f64> = pairs.iter().map(|p| p.frac_as).collect();
        let router_samples: Vec<f64> = pairs.iter().map(|p| p.frac_router).collect();
        f.series("AS", Distribution::new(as_samples).ccdf_series(&xs));
        f.series("Router", Distribution::new(router_samples).ccdf_series(&xs));
        f
    }

    /// Fig. 8a: symmetry CCDF over all pairs.
    pub fn fig8a(&self) -> Figure {
        let refs: Vec<&PairRecord> = self.pairs.iter().collect();
        self.symmetry_ccdf(
            "Figure 8a: path symmetry at AS and router granularity",
            &refs,
        )
    }

    /// Fig. 12: symmetry CCDF restricted to assumption-free reverse paths.
    pub fn fig12(&self) -> Figure {
        let refs: Vec<&PairRecord> = self.pairs.iter().filter(|p| !p.has_assumption).collect();
        self.symmetry_ccdf(
            "Figure 12: symmetry, measurements without symmetry assumptions",
            &refs,
        )
    }

    /// Fraction of pairs symmetric at the AS granularity (paper: 53%).
    pub fn as_symmetric_fraction(&self) -> f64 {
        fraction(
            self.pairs.iter().filter(|p| p.symmetric_as()).count(),
            self.pairs.len(),
        )
    }

    /// Fig. 8b: asymmetry prevalence vs customer cone size (scatter, one
    /// series per category).
    pub fn fig8b(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 8b: asymmetry participation vs customer cone size",
            "customer cone size (ASes)",
            "fraction of asymmetric measurements",
        );
        let mut t1 = Vec::new();
        let mut nren = Vec::new();
        let mut other = Vec::new();
        for &(count, cone, tier) in self.participation.values() {
            let prev = fraction(count, self.asymmetric_pairs);
            let pt = (cone as f64, prev);
            match tier {
                AsTier::Tier1 => t1.push(pt),
                AsTier::Nren => nren.push(pt),
                _ => other.push(pt),
            }
        }
        // Each series in (x, y) order, not the map's AS order.
        for v in [&mut t1, &mut nren, &mut other] {
            v.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        }
        f.series("Tier-1s", t1);
        f.series("NRENs", nren);
        f.series("Other ASes", other);
        f
    }

    /// Table 7: top ASes most frequently involved in path asymmetry.
    pub fn table7(&self, top: usize) -> Table {
        let mut rows: Vec<(AsId, usize, usize, AsTier)> = self
            .participation
            .iter()
            .map(|(&a, &(count, cone, tier))| (a, count, cone, tier))
            .collect();
        rows.sort_by_key(|r| (std::cmp::Reverse((r.1, r.2)), r.0));
        let mut t = Table::new(
            "Table 7: ASes most frequently involved in path asymmetry",
            &["Rank", "AS", "Prevalence", "Tier", "Customer cone"],
        );
        for (i, (a, count, cone, tier)) in rows.into_iter().take(top).enumerate() {
            t.row(&[
                (i + 1).to_string(),
                a.to_string(),
                format!("{:.3}", fraction(count, self.asymmetric_pairs)),
                format!("{tier:?}"),
                cone.to_string(),
            ]);
        }
        t
    }

    /// Fig. 13: CDF of AS-path lengths for all pairs and for
    /// symmetric/asymmetric pairs traversing a tier-1.
    pub fn fig13(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 13: AS-path length by symmetry (through tier-1s)",
            "AS-path length",
            "CDF of traceroute pairs",
        );
        let xs: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let through_t1 = |p: &PairRecord| p.fwd_as.iter().any(|a| self.tier1.contains(a));
        let lens = |filt: &dyn Fn(&PairRecord) -> bool| -> Vec<f64> {
            self.pairs
                .iter()
                .filter(|p| filt(p))
                .map(|p| p.fwd_as.len() as f64)
                .collect()
        };
        f.series(
            "Symmetric paths through Tier-1s",
            Distribution::new(lens(&|p| through_t1(p) && p.symmetric_as())).cdf_series(&xs),
        );
        f.series(
            "All paths",
            Distribution::new(lens(&|_| true)).cdf_series(&xs),
        );
        f.series(
            "Asymmetric paths through Tier-1s",
            Distribution::new(lens(&|p| through_t1(p) && !p.symmetric_as())).cdf_series(&xs),
        );
        f
    }

    /// Fig. 14: P(forward AS hop also on reverse) vs relative position, by
    /// AS-path length.
    pub fn fig14(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 14: probability a forward hop is on the reverse path",
            "position in forward AS-level path (0 = source side)",
            "probability of also being on the reverse traceroute",
        );
        for len in [3usize, 4, 5, 6] {
            let group: Vec<&PairRecord> = self
                .pairs
                .iter()
                .filter(|p| p.fwd_as.len() == len)
                .collect();
            if group.is_empty() {
                f.series(&format!("{len} hops (no data)"), Vec::new());
                continue;
            }
            let mut pts = Vec::new();
            for i in 0..len {
                let on = group.iter().filter(|p| p.fwd_as_on_reverse[i]).count();
                let x = if len == 1 {
                    0.0
                } else {
                    i as f64 / (len - 1) as f64
                };
                pts.push((x, fraction(on, group.len())));
            }
            f.series(&format!("{len} hops"), pts);
        }
        f
    }
}

/// Levenshtein edit distance between two AS paths (Appx. G.3's alternative
/// asymmetry definition, after de Vries et al.).
pub fn edit_distance(a: &[AsId], b: &[AsId]) -> usize {
    let (n, m) = (a.len(), b.len());
    let mut prev: Vec<usize> = (0..=m).collect();
    let mut cur = vec![0usize; m + 1];
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

impl AsymmetryReport {
    /// Appx. G.3: how the asymmetry verdict depends on the definition.
    /// de Vries et al. call a pair asymmetric when the edit distance
    /// between the two AS paths is non-zero (they found 87% asymmetric);
    /// the paper's containment definition finds 47%.
    pub fn definition_comparison(&self) -> Table {
        let mut t = Table::new(
            "Appendix G.3: asymmetry under different definitions",
            &["Definition", "asymmetric pairs", "fraction"],
        );
        let total = self.pairs.len();
        let containment = self.pairs.iter().filter(|p| !p.symmetric_as()).count();
        let edit = self.pairs.iter().filter(|p| p.edit_asymmetric()).count();
        t.row(&[
            "containment (this paper): some forward AS missing from reverse".to_string(),
            containment.to_string(),
            format!("{:.2}", fraction(containment, total)),
        ]);
        t.row(&[
            "edit distance (de Vries et al.): reversed paths differ at all".to_string(),
            edit.to_string(),
            format!("{:.2}", fraction(edit, total)),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        let p = |v: &[u32]| v.iter().map(|&x| AsId(x)).collect::<Vec<_>>();
        assert_eq!(edit_distance(&p(&[1, 2, 3]), &p(&[1, 2, 3])), 0);
        assert_eq!(edit_distance(&p(&[1, 2, 3]), &p(&[1, 3])), 1);
        assert_eq!(edit_distance(&p(&[]), &p(&[1, 2])), 2);
        assert_eq!(edit_distance(&p(&[1, 2]), &p(&[2, 1])), 2);
    }

    #[test]
    fn ties_in_fig8b_and_table7_break_on_value_and_as_id() {
        // Twenty ASes with one cone size: Fig. 8b ties on x everywhere, and
        // the first ten also tie on (count, cone) in Table 7.
        let participation: BTreeMap<AsId, (usize, usize, AsTier)> = (0..20u32)
            .map(|i| (AsId(100 - i), ((i as usize % 10).max(5), 7, AsTier::Stub)))
            .collect();
        let report = AsymmetryReport {
            pairs: Vec::new(),
            participation,
            asymmetric_pairs: 40,
            tier1: Vec::new(),
        };
        let other = &report.fig8b().series[2].points;
        assert_eq!(other.len(), 20);
        assert!(other
            .windows(2)
            .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        let ranked: Vec<String> = report
            .table7(20)
            .to_tsv()
            .lines()
            .skip(1)
            .map(|l| l.split('\t').nth(1).expect("AS column").to_string())
            .collect();
        // Two ASes each at counts 9, 8, 7 and 6, then twelve at count 5:
        // within a count, ascending AS id.
        let want: Vec<String> = [
            81u32, 91, 82, 92, 83, 93, 84, 94, 85, 86, 87, 88, 89, 90, 95, 96, 97, 98, 99, 100,
        ]
        .into_iter()
        .map(|a| AsId(a).to_string())
        .collect();
        assert_eq!(ranked, want);
    }

    #[test]
    fn asymmetry_study_on_smoke_scale() {
        let report = run(Scale::Smoke, 1);
        assert!(!report.pairs.is_empty(), "no bidirectional pairs measured");

        // Asymmetry exists: not every pair is AS-symmetric.
        let sym = report.as_symmetric_fraction();
        assert!(sym > 0.0, "no symmetric pair at all is suspicious");
        // Router-level symmetry never exceeds AS-level for a pair, and every
        // containment-asymmetric pair is edit-asymmetric (the G.3
        // explanation for 87% vs 47%).
        for p in &report.pairs {
            assert!(p.frac_router <= p.frac_as + 1e-9);
            assert!(p.symmetric_as() || p.edit_asymmetric());
            assert_eq!(p.fwd_as_on_reverse.len(), p.fwd_as.len());
        }
        // Renders.
        assert_eq!(report.fig8a().series.len(), 2);
        assert_eq!(report.fig8b().series.len(), 3);
        assert!(report.table7(10).len() <= 10);
        assert_eq!(report.fig13().series.len(), 3);
        assert_eq!(report.fig14().series.len(), 4);
        assert_eq!(
            report.fig12().series.len(),
            2,
            "fig12 must carry AS + router series"
        );
        assert_eq!(report.definition_comparison().len(), 2);
    }
}
