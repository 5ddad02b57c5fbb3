//! §5.1 / Table 3: how much of the reverse AS graph each technique
//! uncovers, and how correctly.
//!
//! For each technique we collect, per source, the AS-level links each AS
//! uses to route *toward* that source:
//!
//! * **revtr 2.0** — links along complete reverse traceroutes;
//! * **RIPE Atlas** — links along forward traceroutes from Atlas-like
//!   probes to the source (correct, but only covers probe-hosting ASes);
//! * **forward traceroute + assume symmetry** — links along reversed
//!   forward traceroutes (covers a lot, but wrong wherever routing is
//!   asymmetric).
//!
//! Correctness is scored against the oracle's true reverse paths;
//! completeness is the fraction of all ASes for which a technique infers
//! at least one link toward the source. The experiment runs in a world of
//! its own: one revtr 2.0 campaign over every (sampled destination,
//! source) pair, then the forward and Atlas traceroutes and the oracle's
//! paths, all taken after the campaign.

use crate::campaign::Scale;
use crate::context::EvalContext;
use crate::render::Table;
use crate::stats::fraction;
use revtr::{EngineConfig, LoopConfig};
use revtr_aliasing::Ip2As;
use revtr_netsim::{Addr, AsId};
use revtr_telemetry::WordSet;
use revtr_vpselect::Heuristics;
use std::sync::Arc;

/// Per-technique accumulators.
#[derive(Clone, Debug, Default)]
pub struct TechniqueGraph {
    /// Inferred links checked against the true reverse path.
    pub links_checked: usize,
    /// Of those, correct.
    pub links_correct: usize,
    /// ASes with at least one inferred link, per source (used for the
    /// completeness average).
    pub as_cover_per_source: Vec<usize>,
    /// Distinct ASes seen across all sources.
    pub ases_seen: WordSet<AsId>,
}

impl TechniqueGraph {
    /// Fraction of inferred links that are correct.
    pub fn correctness(&self) -> f64 {
        fraction(self.links_correct, self.links_checked)
    }

    /// Mean per-source completeness over `n_ases`.
    pub fn completeness(&self, n_ases: usize) -> f64 {
        if self.as_cover_per_source.is_empty() {
            return f64::NAN;
        }
        let mean = self.as_cover_per_source.iter().sum::<usize>() as f64
            / self.as_cover_per_source.len() as f64;
        mean / n_ases as f64
    }
}

/// The Table 3 report.
#[derive(Clone, Debug)]
pub struct AsGraphReport {
    /// revtr 2.0.
    pub revtr: TechniqueGraph,
    /// RIPE-Atlas-style forward traceroutes from probes.
    pub atlas: TechniqueGraph,
    /// Forward traceroute + symmetry assumption.
    pub fwd_sym: TechniqueGraph,
    /// Total ASes in the topology.
    pub n_ases: usize,
}

/// Does the true path `truth` contain the directed AS link `a → b`?
fn link_on_path(truth: &[AsId], a: AsId, b: AsId) -> bool {
    truth.windows(2).any(|w| w[0] == a && w[1] == b)
}

/// Accumulate the links of one measured AS path, scoring against truth.
fn record_path(
    g: &mut TechniqueGraph,
    measured: &[AsId],
    truth: &[AsId],
    covered: &mut WordSet<AsId>,
) {
    for w in measured.windows(2) {
        g.links_checked += 1;
        if link_on_path(truth, w[0], w[1]) {
            g.links_correct += 1;
        }
        covered.insert(w[0]);
        g.ases_seen.insert(w[0]);
        g.ases_seen.insert(w[1]);
    }
}

/// Run the Table 3 comparison in the world of `(scale, seed)`.
pub fn run(scale: Scale, seed: u64) -> AsGraphReport {
    run_in(&EvalContext::of(scale, seed))
}

fn run_in(ctx: &EvalContext) -> AsGraphReport {
    let prober = ctx.prober();
    let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
    let sys = ctx.build_system(prober.clone(), EngineConfig::revtr2(), ingress);
    let sources = ctx.sources();
    let dests: Vec<Addr> = (ctx.sampled_prefixes().into_iter())
        .filter_map(|p| ctx.responsive_dest_in(p))
        .collect();
    let pairs: Vec<(Addr, Addr)> = (sources.iter())
        .flat_map(|&src| {
            dests
                .iter()
                .filter(move |&&d| d != src)
                .map(move |&d| (d, src))
        })
        .collect();
    let results = (sys.run_campaign(&pairs, LoopConfig { workers: 1 }))
        .expect("Table 3 campaign panicked")
        .results;
    let ip2as = Ip2As::new(&ctx.sim);
    let oracle = ctx.sim.oracle();
    let atlas_probes = ctx.atlas_pool();

    let mut revtr = TechniqueGraph::default();
    let mut atlas = TechniqueGraph::default();
    let mut fwd_sym = TechniqueGraph::default();

    for &src in &sources {
        let mut cov_r = WordSet::default();
        let mut cov_a = WordSet::default();
        let mut cov_f = WordSet::default();

        for (&(dst, _), r) in pairs.iter().zip(&results).filter(|(p, _)| p.1 == src) {
            let Some(truth) = oracle.true_as_path(dst, src) else {
                continue;
            };

            // revtr 2.0.
            if r.complete() {
                let path = ip2as.as_path(r.addrs());
                record_path(&mut revtr, &path, &truth, &mut cov_r);
            }

            // Forward traceroute + assume symmetry.
            if let Some(t) = prober.traceroute_fresh(src, dst) {
                if t.reached {
                    let mut path = ip2as.as_path(t.responsive_hops());
                    path.reverse();
                    record_path(&mut fwd_sym, &path, &truth, &mut cov_f);
                }
            }
        }

        // RIPE-Atlas-style: forward traceroutes from probes to the source.
        for &probe in atlas_probes.iter().take(ctx.scale.atlas_size) {
            let Some(t) = prober.traceroute_fresh(probe, src) else {
                continue;
            };
            if !t.reached {
                continue;
            }
            let Some(truth) = oracle.true_as_path(probe, src) else {
                continue;
            };
            let path = ip2as.as_path(t.responsive_hops());
            record_path(&mut atlas, &path, &truth, &mut cov_a);
        }

        revtr.as_cover_per_source.push(cov_r.len());
        atlas.as_cover_per_source.push(cov_a.len());
        fwd_sym.as_cover_per_source.push(cov_f.len());
    }

    AsGraphReport {
        revtr,
        atlas,
        fwd_sym,
        n_ases: ctx.sim.topo().ases.len(),
    }
}

impl AsGraphReport {
    /// §5.1's per-source completeness: median and minimum AS coverage of
    /// revtr 2.0 across sources (the paper: median 35.4K ASes, and even the
    /// worst source reached 19K of 72K).
    pub fn per_source_summary(&self) -> Table {
        let mut t = Table::new(
            "Per-source reverse coverage (§5.1)",
            &["Metric", "ASes", "fraction of all ASes"],
        );
        let mut cov = self.revtr.as_cover_per_source.clone();
        cov.sort_unstable();
        let row = |t: &mut Table, name: &str, v: usize, n: usize| {
            t.row(&[
                name.to_string(),
                v.to_string(),
                format!("{:.2}", fraction(v, n)),
            ]);
        };
        if !cov.is_empty() {
            row(&mut t, "median source", cov[cov.len() / 2], self.n_ases);
            row(&mut t, "worst source", cov[0], self.n_ases);
            row(
                &mut t,
                "best source",
                *cov.last().expect("nonempty"),
                self.n_ases,
            );
        }
        t
    }

    /// Render Table 3.
    pub fn table3(&self) -> Table {
        let mut t = Table::new(
            "Table 3: reverse AS graph correctness and completeness",
            &["Technique", "Correctness", "Completeness", "ASes seen"],
        );
        for (name, g) in [
            ("revtr 2.0", &self.revtr),
            ("RIPE Atlas", &self.atlas),
            ("Forward traceroutes + assume symmetry", &self.fwd_sym),
        ] {
            t.row(&[
                name.to_string(),
                format!("{:.2}", g.correctness()),
                format!("{:.2}", g.completeness(self.n_ases)),
                g.ases_seen.len().to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds_on_smoke_scale() {
        // Mirror the paper's scale ratio: destinations in (almost) every
        // routed prefix versus a much smaller Atlas probe population.
        let mut scale = Scale::Smoke.eval_scale(1);
        scale.prefix_sample = 70;
        scale.atlas_size = 12;
        let report = run_in(&EvalContext::new(Scale::Smoke.sim_config(), scale));

        assert!(report.revtr.links_checked > 0, "revtr inferred no links");
        assert!(report.atlas.links_checked > 0, "atlas inferred no links");
        assert!(report.fwd_sym.links_checked > 0);

        // The paper's structure: measurement-based techniques are (nearly)
        // correct; assuming symmetry is substantially worse.
        let c_revtr = report.revtr.correctness();
        let c_fwd = report.fwd_sym.correctness();
        assert!(
            c_revtr > c_fwd,
            "revtr correctness {c_revtr:.2} must beat assume-symmetry {c_fwd:.2}"
        );
        // Atlas probes cover fewer ASes than revtr destinations (per-source
        // completeness), while assume-symmetry covers the most.
        let n = report.n_ases;
        assert!(report.revtr.completeness(n) > report.atlas.completeness(n));
        assert_eq!(report.table3().len(), 3);
    }

    #[test]
    fn link_on_path_directionality() {
        let p = [AsId(1), AsId(2), AsId(3)];
        assert!(link_on_path(&p, AsId(1), AsId(2)));
        assert!(!link_on_path(&p, AsId(2), AsId(1)));
        assert!(!link_on_path(&p, AsId(1), AsId(3)));
    }
}
