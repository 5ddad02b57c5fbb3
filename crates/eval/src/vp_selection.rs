//! §5.3: evaluating record-route vantage point selection — Table 5 and
//! Figs. 6a–c.
//!
//! Per evaluation prefix (one with a *third* responsive destination,
//! unseen by the background ingress measurements), every VP sends one
//! spoofed RR ping to the held-out destination. From those ground
//! measurements we replay what each technique's plan would have done:
//! hops uncovered by the first batch (Figs. 6a/b), spoofers tried until a
//! reverse hop is found (Fig. 6c), and whether each heuristic ladder finds
//! an in-range VP at all (Table 5).

use crate::context::EvalContext;
use crate::render::{Figure, Table};
use crate::stats::{fraction, Distribution};
use revtr::extract_reverse_hops;
use revtr_netsim::{Addr, PrefixId};
use revtr_probing::Prober;
use revtr_vpselect::{third_destination_consistent, Heuristics, IngressDb, IngressQueue, RR_RANGE};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of one VP's spoofed probe toward a prefix's held-out
/// destination.
#[derive(Clone, Copy, Debug, Default)]
pub struct VpOutcome {
    /// Reverse hops revealed (0 when unanswered or out of range).
    pub revealed: usize,
    /// Destination stamp located within [`RR_RANGE`] slots.
    pub in_range: bool,
}

/// Per-prefix evaluation data.
#[derive(Clone, Debug)]
pub struct PrefixEval {
    /// The prefix.
    pub prefix: PrefixId,
    /// Held-out destination.
    pub dest: Addr,
    /// Outcome per VP.
    pub outcomes: HashMap<Addr, VpOutcome>,
}

impl PrefixEval {
    /// Best possible outcome across all VPs (the "Optimal" line).
    pub fn optimal(&self) -> VpOutcome {
        let mut best = VpOutcome::default();
        for o in self.outcomes.values() {
            best.revealed = best.revealed.max(o.revealed);
            best.in_range |= o.in_range;
        }
        best
    }

    /// Hops revealed by a "first batch" consisting of the given VPs.
    pub fn first_batch_revealed(&self, batch: &[Addr]) -> usize {
        batch
            .iter()
            .filter_map(|vp| self.outcomes.get(vp))
            .map(|o| o.revealed)
            .max()
            .unwrap_or(0)
    }

    /// Spoofers tried (batches of `batch_size`) until a reverse hop is
    /// revealed, walking `plan`; returns the number tried (all of them if
    /// none ever succeeds).
    pub fn spoofers_tried(&self, plan: &[Addr], batch_size: usize) -> usize {
        let mut tried = 0;
        for chunk in plan.chunks(batch_size.max(1)) {
            tried += chunk.len();
            if self.first_batch_revealed(chunk) > 0 {
                return tried;
            }
        }
        tried.max(1)
    }
}

/// The §5.3 report.
#[derive(Clone, Debug)]
pub struct VpSelectionReport {
    /// Per-prefix data.
    pub prefixes: Vec<PrefixEval>,
    /// Plans per technique: (label, per-prefix plan of VPs in try order).
    pub plans: Vec<(String, HashMap<PrefixId, Vec<Addr>>)>,
    /// Table 5 rows: (label, fraction of prefixes with an in-range VP
    /// among the technique's planned VPs).
    pub table5_rows: Vec<(String, f64)>,
    /// First-batch composition per technique (first `batch` entries of the
    /// plan; for the ingress technique this is the closest VP of the top
    /// ingresses, as in §4.3).
    pub batch_size: usize,
    /// §4.3 candidate-stability check: (stable prefixes, evaluated
    /// prefixes) — the paper's 87.2% figure.
    pub stability: (usize, usize),
}

fn flatten_queues(queues: &[IngressQueue]) -> Vec<Addr> {
    // Try order: first the closest VP of each ingress (coverage order),
    // then second-closest of each, etc. — matching the batching discipline.
    let mut out = Vec::new();
    let max_len = queues.iter().map(|q| q.vps.len()).max().unwrap_or(0);
    for depth in 0..max_len {
        for q in queues {
            if let Some(&vp) = q.vps.get(depth) {
                if !out.contains(&vp) {
                    out.push(vp);
                }
            }
        }
    }
    out
}

/// Run the VP-selection evaluation.
pub fn run(ctx: &EvalContext) -> VpSelectionReport {
    run_on(ctx, ctx.prober())
}

/// [`run`] on the caller's prober, whose cache all heuristics share.
fn run_on(ctx: &EvalContext, prober: Prober<'_>) -> VpSelectionReport {
    let vps = ctx.vps();
    let claimed = vps[0]; // spoofed source: a registered revtr source

    // Heuristic ladder of Table 5 (all share the prober's cache, so the
    // background probes are only sent once).
    let ladder: Vec<(&str, Heuristics)> = vec![
        ("Ingress", Heuristics::INGRESS_ONLY),
        ("Ingress + double stamp", Heuristics::WITH_DOUBLE),
        (
            "Ingress + double stamp + loop (revtr 2.0)",
            Heuristics::FULL,
        ),
    ];
    let dbs: Vec<(String, Arc<IngressDb>)> = ladder
        .iter()
        .map(|(name, h)| (name.to_string(), Arc::new(ctx.build_ingress(&prober, *h))))
        .collect();
    let full_db = dbs.last().expect("ladder nonempty").1.clone();

    // Evaluation prefixes: ones with a third responsive destination.
    let mut prefixes: Vec<PrefixEval> = Vec::new();
    for p in ctx.sampled_prefixes() {
        let Some(dest) = ctx.responsive_dest_near(p, 2) else {
            continue;
        };
        // Probe from every VP (batched purely for accounting; the cache
        // dedups repeats).
        let mut outcomes = HashMap::new();
        for &vp in &vps {
            let replies = prober.spoofed_rr_batch(&[(vp, dest)], claimed);
            let out = replies.replies[0]
                .as_ref()
                .map(|r| {
                    let pos =
                        r.slots.iter().position(|&s| s == dest).or_else(|| {
                            r.slots.windows(2).position(|w| w[0] == w[1]).map(|i| i + 1)
                        });
                    VpOutcome {
                        revealed: extract_reverse_hops(&r.slots, dest)
                            .map(|v| v.len())
                            .unwrap_or(0),
                        in_range: pos.map(|i| i <= RR_RANGE).unwrap_or(false),
                    }
                })
                .unwrap_or_default();
            outcomes.insert(vp, out);
        }
        prefixes.push(PrefixEval {
            prefix: p,
            dest,
            outcomes,
        });
    }

    // Technique plans over the full-heuristic DB.
    let mut plans: Vec<(String, HashMap<PrefixId, Vec<Addr>>)> = Vec::new();
    let mut ingress_plan = HashMap::new();
    let mut revtr1_plan = HashMap::new();
    let mut global_plan = HashMap::new();
    for pe in &prefixes {
        // The engine falls back to the head of the global order for
        // prefixes without a usable ingress plan (§4.3's 2.3% case);
        // mirror that here.
        let mut plan = flatten_queues(&full_db.ingress_plan(pe.prefix));
        if plan.is_empty() {
            plan = full_db.global_plan().iter().copied().take(9).collect();
        }
        ingress_plan.insert(pe.prefix, plan);
        revtr1_plan.insert(pe.prefix, full_db.revtr1_plan(pe.prefix));
        global_plan.insert(pe.prefix, full_db.global_plan().to_vec());
    }
    plans.push(("Ingress (REVTR 2.0)".into(), ingress_plan));
    plans.push(("REVTR 1.0".into(), revtr1_plan));
    plans.push(("Global".into(), global_plan));

    // Table 5: per heuristic, does the plan contain an in-range VP?
    let mut table5_rows = Vec::new();
    for (name, db) in &dbs {
        let found = prefixes
            .iter()
            .filter(|pe| {
                flatten_queues(&db.ingress_plan(pe.prefix))
                    .iter()
                    .any(|vp| pe.outcomes.get(vp).map(|o| o.in_range).unwrap_or(false))
            })
            .count();
        table5_rows.push((name.clone(), fraction(found, prefixes.len())));
    }
    // revtr 1.0 tries every VP, so it equals Optimal.
    let optimal = prefixes.iter().filter(|pe| pe.optimal().in_range).count();
    table5_rows.push(("revtr 1.0".into(), fraction(optimal, prefixes.len())));
    table5_rows.push(("Optimal".into(), fraction(optimal, prefixes.len())));

    // §4.3's two-destinations-suffice validation on a third destination.
    // These are probes on the shared prober, so the order they go out in
    // is part of the result: ascending prefix id.
    let mut stability = (0usize, 0usize);
    for (p, info) in full_db.prefixes() {
        if let Some(ok) = third_destination_consistent(&prober, &vps, info, p, Heuristics::FULL) {
            stability.1 += 1;
            if ok {
                stability.0 += 1;
            }
        }
    }

    VpSelectionReport {
        prefixes,
        plans,
        table5_rows,
        batch_size: 3,
        stability,
    }
}

impl VpSelectionReport {
    fn ccdf_hops(&self, samples: Vec<f64>) -> Vec<(f64, f64)> {
        let xs: Vec<f64> = (0..=9).map(|i| i as f64).collect();
        Distribution::new(samples).ccdf_series(&xs)
    }

    /// Fig. 6a: hops uncovered by the first batch vs batch size (ingress
    /// technique), plus the optimal line.
    pub fn fig6a(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 6a: reverse hops uncovered by first batch vs batch size",
            "uncovered reverse hops by the first batch",
            "CCDF of BGP prefixes",
        );
        let ingress = &self.plans[0].1;
        f.series(
            "Optimal",
            self.ccdf_hops(
                self.prefixes
                    .iter()
                    .map(|p| p.optimal().revealed as f64)
                    .collect(),
            ),
        );
        for b in [5usize, 3, 1] {
            let samples: Vec<f64> = self
                .prefixes
                .iter()
                .map(|p| {
                    let plan = &ingress[&p.prefix];
                    p.first_batch_revealed(&plan[..plan.len().min(b)]) as f64
                })
                .collect();
            f.series(&format!("Batches of {b}"), self.ccdf_hops(samples));
        }
        f
    }

    /// Fig. 6b: hops uncovered by the first batch (size 3), per technique.
    pub fn fig6b(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 6b: reverse hops uncovered by first batch, per technique",
            "uncovered reverse hops by the first batch",
            "CCDF of BGP prefixes",
        );
        f.series(
            "Optimal",
            self.ccdf_hops(
                self.prefixes
                    .iter()
                    .map(|p| p.optimal().revealed as f64)
                    .collect(),
            ),
        );
        for (label, plan) in &self.plans {
            let samples: Vec<f64> = self
                .prefixes
                .iter()
                .map(|p| {
                    let pl = &plan[&p.prefix];
                    p.first_batch_revealed(&pl[..pl.len().min(self.batch_size)]) as f64
                })
                .collect();
            f.series(label, self.ccdf_hops(samples));
        }
        f
    }

    /// Fig. 6c: number of spoofers tried, per technique.
    pub fn fig6c(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 6c: spoofing vantage points tried per prefix",
            "number of spoofers tried",
            "CCDF of BGP prefixes",
        );
        let xs: Vec<f64> = vec![1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 146.0];
        for (label, plan) in &self.plans {
            let samples: Vec<f64> = self
                .prefixes
                .iter()
                .map(|p| p.spoofers_tried(&plan[&p.prefix], self.batch_size) as f64)
                .collect();
            f.series(label, Distribution::new(samples).ccdf_series(&xs));
        }
        f
    }

    /// §4.3's candidate-stability fraction (paper: 0.872).
    pub fn stability_fraction(&self) -> f64 {
        fraction(self.stability.0, self.stability.1)
    }

    /// Table 5.
    pub fn table5(&self) -> Table {
        let mut t = Table::new(
            "Table 5: fraction of prefixes with a VP within 8 RR hops",
            &["Technique", "Fraction of BGP prefixes"],
        );
        for (name, frac) in &self.table5_rows {
            t.row(&[name.clone(), format!("{frac:.2}")]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vp_selection_shapes_hold_on_smoke_scale() {
        let ctx = EvalContext::smoke();
        let report = run(&ctx);
        assert!(!report.prefixes.is_empty(), "no evaluation prefixes");

        // Table 5 ladder is monotone, and Optimal bounds everything.
        let rows: HashMap<&str, f64> = report
            .table5_rows
            .iter()
            .map(|(n, f)| (n.as_str(), *f))
            .collect();
        let optimal = rows["Optimal"];
        assert!(rows["Ingress"] <= rows["Ingress + double stamp"] + 1e-9);
        assert!(
            rows["Ingress + double stamp"]
                <= rows["Ingress + double stamp + loop (revtr 2.0)"] + 1e-9
        );
        for (_, f) in &report.table5_rows {
            assert!(*f <= optimal + 1e-9);
        }
        assert_eq!(rows["revtr 1.0"], optimal);

        // Ingress first batch should be at least as good as Global's in the
        // mean (the whole point of §4.3).
        let mean_first = |label: &str| {
            let plan = &report
                .plans
                .iter()
                .find(|(l, _)| l == label)
                .expect("plan exists")
                .1;
            let s: usize = report
                .prefixes
                .iter()
                .map(|p| {
                    let pl = &plan[&p.prefix];
                    p.first_batch_revealed(&pl[..pl.len().min(3)])
                })
                .sum();
            s as f64 / report.prefixes.len() as f64
        };
        assert!(
            mean_first("Ingress (REVTR 2.0)") + 1e-9 >= mean_first("Global"),
            "ingress selection worse than global"
        );

        // Figures render with all series.
        assert_eq!(report.fig6a().series.len(), 4);
        assert_eq!(report.fig6b().series.len(), 4);
        assert_eq!(report.fig6c().series.len(), 3);
        assert_eq!(report.table5().len(), 5);
    }

    #[test]
    fn two_runs_on_one_seed_probe_alike() {
        // The stability check probes third destinations prefix by prefix on
        // the shared prober, so nonces and clock — and with them every
        // per-packet-balanced reply — follow the order of the prefixes.
        let run_once = || {
            let ctx = EvalContext::smoke();
            let prober = ctx.prober();
            let report = run_on(&ctx, prober.clone());
            (
                report.stability,
                prober.counters().snapshot(),
                prober.clock().now_ms().to_bits(),
            )
        };
        let first = run_once();
        assert!(first.0 .1 > 0, "no prefix had a third destination");
        for _ in 0..3 {
            assert_eq!(run_once(), first);
        }
    }
}
