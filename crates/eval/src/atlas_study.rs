//! Appx. D.2 / Fig. 9: building and maintaining the traceroute atlas.
//!
//! * Figs. 9a–c replay the paper's split experiment: per source, a set of
//!   traceroutes from Atlas-like probes is divided into atlas candidates
//!   and stand-in reverse traceroutes; atlas *savings* for a reverse
//!   traceroute is the fraction of its hops covered from the earliest
//!   intersected hop onward. Random selection is compared against the
//!   greedy weighted-coverage "Optimal" (weights = per-address suffix
//!   lengths).
//! * Fig. 9d runs revtr 2.0 over a churning day and checks each
//!   intersected atlas trace against a fresh re-measurement, classifying
//!   stale intersections (hop gone, or AS path after the intersection
//!   changed). It is the one experiment that measures request by request:
//!   its method spreads the workload across a virtual day of churn.
//!
//! Each study runs in a world of its own.

use crate::campaign::Scale;
use crate::context::EvalContext;
use crate::render::Figure;
use crate::stats::fraction;
use rand::prelude::*;
use rand::rngs::StdRng;
use revtr::EngineConfig;
use revtr_aliasing::Ip2As;
use revtr_netsim::Addr;
use revtr_telemetry::{WordMap, WordSet};
use revtr_vpselect::Heuristics;
use std::sync::Arc;

/// One collected traceroute (responsive hops only, destination first is
/// the probe side; last hop is the source).
type Trace = Vec<Addr>;

/// Collected split data for Figs. 9a–c.
#[derive(Clone, Debug)]
pub struct SplitData {
    /// Atlas candidate traces.
    pub candidates: Vec<Trace>,
    /// Stand-in reverse traceroutes.
    pub revtrs: Vec<Trace>,
}

/// The savings of one reverse traceroute given an atlas hop set: fraction
/// of hops from the earliest intersected hop to the source.
pub fn saved_fraction(revtr: &Trace, atlas_hops: &WordSet<Addr>) -> f64 {
    if revtr.is_empty() {
        return 0.0;
    }
    match revtr.iter().position(|h| atlas_hops.contains(h)) {
        Some(i) => (revtr.len() - i) as f64 / revtr.len() as f64,
        None => 0.0,
    }
}

fn hopset(traces: &[&Trace]) -> WordSet<Addr> {
    traces.iter().flat_map(|t| t.iter().copied()).collect()
}

/// Mean savings of an atlas (set of candidate indices) over the revtrs.
pub fn mean_savings(data: &SplitData, atlas: &[usize]) -> f64 {
    let traces: Vec<&Trace> = atlas.iter().map(|&i| &data.candidates[i]).collect();
    let hops = hopset(&traces);
    let sum: f64 = data.revtrs.iter().map(|r| saved_fraction(r, &hops)).sum();
    sum / data.revtrs.len().max(1) as f64
}

/// Greedy weighted-maximum-coverage selection of `k` candidate traces.
///
/// The weight of an address is the sum, over the traces in `weight_from`,
/// of its distance to the source (suffix length) — covering an address
/// close to the destination side saves more hops.
pub fn optimal_selection(candidates: &[Trace], weight_from: &[Trace], k: usize) -> Vec<usize> {
    let mut weight: WordMap<Addr, f64> = WordMap::default();
    for t in weight_from {
        let n = t.len();
        for (i, &a) in t.iter().enumerate() {
            *weight.entry(a).or_insert(0.0) += (n - i) as f64;
        }
    }
    let mut covered: WordSet<Addr> = WordSet::default();
    let mut chosen: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    for _ in 0..k.min(candidates.len()) {
        let best = remaining
            .iter()
            .copied()
            .max_by(|&a, &b| {
                let ga: f64 = candidates[a]
                    .iter()
                    .filter(|x| !covered.contains(x))
                    .filter_map(|x| weight.get(x))
                    .sum();
                let gb: f64 = candidates[b]
                    .iter()
                    .filter(|x| !covered.contains(x))
                    .filter_map(|x| weight.get(x))
                    .sum();
                ga.total_cmp(&gb).then(b.cmp(&a))
            })
            .expect("remaining nonempty");
        covered.extend(candidates[best].iter().copied());
        chosen.push(best);
        remaining.retain(|&i| i != best);
    }
    chosen
}

/// Collect the split data: `2 × half` traceroutes from distinct probes
/// toward each of a few sources, pooled.
pub fn collect_split(ctx: &EvalContext, half: usize, n_sources: usize) -> SplitData {
    let prober = ctx.prober();
    let pool = ctx.atlas_pool();
    let mut candidates = Vec::new();
    let mut revtrs = Vec::new();
    for &src in ctx.sources().iter().take(n_sources) {
        let mut traces: Vec<Trace> = Vec::new();
        for &probe in &pool {
            if traces.len() >= 2 * half {
                break;
            }
            let Some(t) = prober.traceroute_fresh(probe, src) else {
                continue;
            };
            if !t.reached {
                continue;
            }
            traces.push(t.responsive_hops().collect());
        }
        let mid = traces.len() / 2;
        let rest = traces.split_off(mid);
        candidates.extend(traces);
        revtrs.extend(rest);
    }
    SplitData { candidates, revtrs }
}

/// Figs. 9a–c report.
#[derive(Clone, Debug)]
pub struct AtlasStudyReport {
    /// Fig. 9a: savings vs atlas size — Random / Optimal / Optimal-revtr.
    pub fig9a: Figure,
    /// Fig. 9b: convergence of random + replacement to optimal.
    pub fig9b: Figure,
    /// Fig. 9c: savings vs number of revtrs for fixed atlas sizes.
    pub fig9c: Figure,
}

/// Run Figs. 9a–c in the world of `(scale, seed)`: split traceroutes
/// toward three sources.
pub fn run_selection(scale: Scale, seed: u64) -> AtlasStudyReport {
    let ctx = EvalContext::of(scale, seed);
    let split = collect_split(&ctx, (ctx.scale.atlas_size * 2).min(600), 3);
    selection_study(&split, seed)
}

/// The Figs. 9a–c study on collected split data.
pub fn selection_study(data: &SplitData, seed: u64) -> AtlasStudyReport {
    let n = data.candidates.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa7a5);
    let mut shuffled: Vec<usize> = (0..n).collect();
    shuffled.shuffle(&mut rng);

    // Fig. 9a.
    let mut fig9a = Figure::new(
        "Figure 9a: savings vs number of traceroutes in the atlas",
        "traceroutes per source in the atlas",
        "mean fraction of hops intersected per revtr",
    );
    let grid: Vec<usize> = (0..=10).map(|i| i * n / 10).collect();
    let opt_atlas = optimal_selection(&data.candidates, &data.candidates, n);
    let opt_revtr = optimal_selection(&data.candidates, &data.revtrs, n);
    let series_for = |order: &[usize]| -> Vec<(f64, f64)> {
        grid.iter()
            .map(|&k| (k as f64, mean_savings(data, &order[..k])))
            .collect()
    };
    fig9a.series("Optimal", series_for(&opt_atlas));
    fig9a.series("Optimal revtr", series_for(&opt_revtr));
    fig9a.series("Random", series_for(&shuffled));

    // Fig. 9b: iterated random + replacement, atlas size = 20% of pool.
    let k = (n / 5).max(1);
    let optimal_value = mean_savings(data, &opt_revtr[..k.min(opt_revtr.len())]);
    let mut fig9b = Figure::new(
        "Figure 9b: convergence of the replacement policy to optimal",
        "iterations",
        "mean fraction of hops intersected per revtr",
    );
    let mut atlas: Vec<usize> = shuffled[..k].to_vec();
    let mut points = Vec::new();
    let iters = 12usize;
    for it in 0..=iters {
        points.push((it as f64, mean_savings(data, &atlas)));
        // One iteration: sample revtrs, keep the atlas traces that provided
        // their best intersections, replace the rest.
        let sample: Vec<&Trace> = data
            .revtrs
            .choose_multiple(&mut rng, (data.revtrs.len() / 2).max(1))
            .collect();
        let mut used: WordSet<usize> = WordSet::default();
        for r in sample {
            // Best = the atlas trace containing the earliest-intersecting
            // hop of this revtr.
            let mut best: Option<(usize, usize)> = None; // (pos in revtr, trace)
            for &ti in &atlas {
                let hops: WordSet<Addr> = data.candidates[ti].iter().copied().collect();
                if let Some(pos) = r.iter().position(|h| hops.contains(h)) {
                    if best.is_none_or(|(bp, _)| pos < bp) {
                        best = Some((pos, ti));
                    }
                }
            }
            if let Some((_, ti)) = best {
                used.insert(ti);
            }
        }
        let mut next: Vec<usize> = used.into_iter().collect();
        next.sort_unstable();
        // Refill with fresh random candidates, weighted toward unseen ones.
        let mut fresh: Vec<usize> = (0..n).filter(|i| !next.contains(i)).collect();
        fresh.shuffle(&mut rng);
        next.extend(fresh.into_iter().take(k.saturating_sub(next.len())));
        atlas = next;
    }
    fig9b.series("Random++", points);
    fig9b.series(
        "Optimal",
        (0..=iters).map(|i| (i as f64, optimal_value)).collect(),
    );

    // Fig. 9c: savings vs number of revtrs, for several atlas sizes.
    let mut fig9c = Figure::new(
        "Figure 9c: savings vs number of reverse traceroutes",
        "number of reverse traceroutes",
        "mean fraction of hops intersected per revtr",
    );
    for frac_k in [2usize, 5, 10] {
        let k = (n * frac_k / 10).max(1);
        let atlas = &shuffled[..k];
        let traces: Vec<&Trace> = atlas.iter().map(|&i| &data.candidates[i]).collect();
        let hops = hopset(&traces);
        let mut pts = Vec::new();
        let steps = [
            data.revtrs.len() / 8,
            data.revtrs.len() / 4,
            data.revtrs.len() / 2,
            data.revtrs.len(),
        ];
        for &m in steps.iter().filter(|&&m| m > 0) {
            let sum: f64 = data.revtrs[..m]
                .iter()
                .map(|r| saved_fraction(r, &hops))
                .sum();
            pts.push((m as f64, sum / m as f64));
        }
        fig9c.series(&format!("{k} traceroutes per source"), pts);
    }

    AtlasStudyReport {
        fig9a,
        fig9b,
        fig9c,
    }
}

/// Fig. 9d report: staleness over a virtual day.
#[derive(Clone, Debug)]
pub struct StalenessReport {
    /// Per-hour buckets: (revtrs run, stale: intersection gone, stale: AS
    /// path after intersection changed).
    pub hourly: Vec<(usize, usize, usize)>,
    /// Total revtrs that intersected the atlas.
    pub intersected: usize,
}

impl StalenessReport {
    /// Cumulative fraction of intersecting revtrs that used a stale trace.
    pub fn cumulative_stale_fraction(&self) -> f64 {
        let gone: usize = self.hourly.iter().map(|h| h.1).sum();
        let changed: usize = self.hourly.iter().map(|h| h.2).sum();
        fraction(gone + changed, self.intersected)
    }

    /// Render the Fig. 9d stacked-cumulative series.
    pub fn fig9d(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 9d: revtrs intersecting a stale traceroute over a day",
            "time (one-hour windows)",
            "cumulative fraction of reverse traceroutes",
        );
        let mut gone = 0usize;
        let mut changed = 0usize;
        let mut p_gone = Vec::new();
        let mut p_changed = Vec::new();
        for (h, &(_, g, c)) in self.hourly.iter().enumerate() {
            gone += g;
            changed += c;
            p_gone.push((h as f64, fraction(gone, self.intersected.max(1))));
            p_changed.push((h as f64, fraction(changed, self.intersected.max(1))));
        }
        f.series("Cum. stale (no intersection)", p_gone);
        f.series("Cum. stale (wrong AS path after intersection)", p_changed);
        f
    }
}

/// Run the Fig. 9d staleness experiment in the world of `(scale, seed)`:
/// revtrs spread over 24 virtual hours of route churn, each intersected
/// trace re-verified immediately.
pub fn run_staleness(scale: Scale, seed: u64) -> StalenessReport {
    let ctx = EvalContext::of(scale, seed);
    let prober = ctx.prober();
    let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
    let sys = ctx.build_system(prober.clone(), EngineConfig::revtr2(), ingress);
    let ip2as = Ip2As::new(&ctx.sim);
    let workload = ctx.workload();
    let n = workload.len().max(1);
    let mut hourly = vec![(0usize, 0usize, 0usize); 24];
    let mut intersected = 0usize;

    for (i, &(dst, src)) in workload.iter().enumerate() {
        // Spread the workload across the day.
        ctx.sim.advance_hours(24.0 / n as f64);
        let hour = ((i * 24) / n).min(23);
        hourly[hour].0 += 1;
        let r = sys.measure(dst, src);
        let (Some(trace_idx), Some(hop_idx)) = (r.stats.intersected_trace, r.stats.intersected_hop)
        else {
            continue;
        };
        intersected += 1;
        let atlas = sys.atlas(src);
        let trace = &atlas.traces[trace_idx];
        let Some(hop_addr) = trace.hops[hop_idx] else {
            continue;
        };
        // Fresh re-measurement of the same traceroute.
        let Some(fresh) = prober.traceroute_fresh(trace.vp, src) else {
            hourly[hour].1 += 1;
            continue;
        };
        let fresh_hops: Vec<Addr> = fresh.responsive_hops().collect();
        match fresh_hops.iter().position(|&h| h == hop_addr) {
            None => hourly[hour].1 += 1, // intersection no longer exists
            Some(pos) => {
                let old_suffix: Vec<Addr> =
                    trace.hops[hop_idx..].iter().filter_map(|h| *h).collect();
                let old_as = ip2as.as_path(old_suffix);
                let new_as = ip2as.as_path(fresh_hops[pos..].iter().copied());
                if old_as != new_as {
                    hourly[hour].2 += 1; // AS path after intersection changed
                }
            }
        }
    }

    StalenessReport {
        hourly,
        intersected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saved_fraction_semantics() {
        let trace: Trace = vec![Addr(1), Addr(2), Addr(3), Addr(4)];
        let mut set = WordSet::default();
        assert_eq!(saved_fraction(&trace, &set), 0.0);
        set.insert(Addr(3));
        assert!((saved_fraction(&trace, &set) - 0.5).abs() < 1e-9);
        set.insert(Addr(1));
        assert!((saved_fraction(&trace, &set) - 1.0).abs() < 1e-9);
        assert_eq!(saved_fraction(&Vec::new(), &set), 0.0);
    }

    #[test]
    fn optimal_beats_or_matches_random() {
        let ctx = EvalContext::of(Scale::Smoke, 1);
        let data = collect_split(&ctx, 25, 2);
        assert!(data.candidates.len() >= 10, "too few candidate traces");
        let report = selection_study(&data, 7);

        // At every atlas size, optimal-revtr ≥ random (same xs by
        // construction).
        let by_label: WordMap<&str, &crate::render::Series> = report
            .fig9a
            .series
            .iter()
            .map(|s| (s.label.as_str(), s))
            .collect();
        let opt = &by_label["Optimal revtr"].points;
        let rand = &by_label["Random"].points;
        for (o, r) in opt.iter().zip(rand) {
            assert!(
                o.1 + 1e-9 >= r.1,
                "optimal {} below random {} at size {}",
                o.1,
                r.1,
                o.0
            );
        }
        // Savings grow with atlas size (weakly) and reach a positive value.
        assert!(rand.last().expect("points").1 > 0.0);
        assert!(rand.first().expect("points").1 <= rand.last().expect("points").1 + 1e-9);
        // Fig. 9b converges: final random++ within reach of optimal.
        let conv = &report.fig9b.series[0].points;
        let optimal_line = report.fig9b.series[1].points[0].1;
        let last = conv.last().expect("iterations").1;
        assert!(
            last + 0.15 >= optimal_line,
            "replacement policy stuck at {last} vs optimal {optimal_line}"
        );
    }

    #[test]
    fn staleness_experiment_runs_and_is_bounded() {
        let report = run_staleness(Scale::Smoke, 1);
        assert!(report.intersected > 0, "nothing intersected the atlas");
        let f = report.cumulative_stale_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert_eq!(report.fig9d().series.len(), 2);
    }
}
