//! §5.2.4 / §3: measurement throughput of the implementation itself.
//!
//! The paper's revtr 2.0 sustains 173 reverse traceroutes per second
//! (~15M/day) across its deployment. Here we measure what *this*
//! implementation sustains on the simulated Internet: one `run_campaign`
//! per width in {1, 2, 4, 8} workers — the scaling curve — plus the probe
//! cost per measurement and the measurement-cache effectiveness. Absolute
//! numbers describe the simulator, not the Internet; the interesting
//! outputs are probes/revtr and how the wall column moves with the width
//! on the recorded host (widths above the core count are clamped).

use crate::context::EvalContext;
use crate::render::Table;
use revtr::{EngineConfig, LoopConfig};
use revtr_netsim::Addr;
use revtr_probing::{CacheStats, StopSetSnapshot};
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;
use std::time::Instant;

/// One throughput run's outcome.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputRun {
    /// Campaign width requested ([`LoopConfig::workers`]).
    pub workers: usize,
    /// Measurements performed.
    pub measured: usize,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Option probes sent (RR + spoofed RR + TS + spoofed TS).
    pub option_probes: u64,
    /// Measurement-cache effectiveness during this run.
    pub cache: CacheStats,
    /// Route computations during this run — one salted-metric Dijkstra
    /// over the transit core each (cache fills in `Sim::routes`; lookups
    /// don't count).
    pub route_computes: u64,
    /// Retry attempts issued (non-zero only with faults injected).
    pub retries: u64,
    /// Probes lost to injected faults.
    pub lost: u64,
    /// Whether the run consulted the campaign stop sets.
    pub stop_sets: bool,
    /// Stop-set effectiveness counters (all-zero with the knob off).
    /// Disjoint from [`ThroughputRun::cache`] by construction: stop-set
    /// consults never touch the measurement cache (the counter-
    /// reconciliation test pins it).
    pub stopset: StopSetSnapshot,
}

impl ThroughputRun {
    /// Measurements per wall-clock second.
    pub fn per_second(&self) -> f64 {
        self.measured as f64 / self.wall_s.max(1e-9)
    }

    /// Extrapolated measurements per day.
    pub fn per_day(&self) -> f64 {
        self.per_second() * 86_400.0
    }

    /// Option probes per measurement.
    pub fn probes_per_revtr(&self) -> f64 {
        self.option_probes as f64 / self.measured.max(1) as f64
    }
}

/// The throughput report: one run per width.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Runs, width ascending.
    pub runs: Vec<ThroughputRun>,
}

/// One campaign at a given width: fresh prober and system, measure the
/// whole workload, diff the counters.
fn run_one(
    ctx: &EvalContext,
    ingress: &Arc<IngressDb>,
    workload: &[(Addr, Addr)],
    workers: usize,
    stop_sets: bool,
) -> ThroughputRun {
    let prober = ctx.prober();
    let mut cfg = EngineConfig::revtr2();
    cfg.use_stop_sets = stop_sets;
    let system = ctx.build_system(prober.clone(), cfg, ingress.clone());
    for &(_, src) in workload {
        system.register_source(src);
    }
    let before = prober.counters().snapshot();
    let cache_before = prober.cache().stats();
    let computes_before = ctx.sim.route_computes();
    let t0 = Instant::now();
    system
        .run_campaign(workload, LoopConfig { workers })
        .expect("throughput measurement panicked");
    let wall_s = t0.elapsed().as_secs_f64();
    let d = prober.counters().snapshot().since(&before);
    let ca = prober.cache().stats();
    let cache = CacheStats {
        hits: ca.hits - cache_before.hits,
        misses: ca.misses - cache_before.misses,
        inserts: ca.inserts - cache_before.inserts,
        expired: ca.expired - cache_before.expired,
    };
    ThroughputRun {
        workers,
        measured: workload.len(),
        wall_s,
        option_probes: d.option_probes(),
        cache,
        route_computes: ctx.sim.route_computes() - computes_before,
        retries: d.retries,
        lost: d.lost,
        stop_sets,
        stopset: system.stopset().stats(),
    }
}

/// Measure engine throughput over `workload` at widths 1, 2, 4, 8.
pub fn run(
    ctx: &EvalContext,
    ingress: &Arc<IngressDb>,
    workload: &[(Addr, Addr)],
) -> ThroughputReport {
    let runs = [1usize, 2, 4, 8]
        .into_iter()
        .map(|workers| run_one(ctx, ingress, workload, workers, false))
        .collect();
    ThroughputReport { runs }
}

/// The stop-sets-off/on probe-economy A/B: each arm gets a *fresh*,
/// identically-seeded context (simulator, ingress DB, workload), so the
/// only difference between the arms is the stop-set knob — shared
/// virtual-time or route-cache state cannot tilt the comparison. The off
/// arm is the control the ci.sh economy gate judges the on arm against.
pub fn economy_pair(
    make_ctx: impl Fn() -> EvalContext,
    workers: usize,
) -> (ThroughputRun, ThroughputRun) {
    let arm = |stop_sets: bool| {
        let ctx = make_ctx();
        let prober = ctx.prober();
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let workload = ctx.workload();
        run_one(&ctx, &ingress, &workload, workers, stop_sets)
    };
    (arm(false), arm(true))
}

impl ThroughputReport {
    /// Render the throughput summary.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Implementation throughput (revtr 2.0, by campaign width)",
            &[
                "workers",
                "revtrs",
                "wall s",
                "revtrs/s",
                "revtrs/day",
                "probes/revtr",
                "stop hits",
                "cache hit%",
                "cache exp",
                "route fills",
                "retries",
                "lost",
            ],
        );
        for r in &self.runs {
            t.row(&[
                r.workers.to_string(),
                r.measured.to_string(),
                format!("{:.2}", r.wall_s),
                format!("{:.0}", r.per_second()),
                format!("{:.2e}", r.per_day()),
                format!("{:.1}", r.probes_per_revtr()),
                r.stopset.total_hits().to_string(),
                format!("{:.1}", r.cache.hit_rate() * 100.0),
                r.cache.expired.to_string(),
                r.route_computes.to_string(),
                r.retries.to_string(),
                r.lost.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_vpselect::Heuristics;

    #[test]
    fn throughput_scales_and_counts() {
        let ctx = EvalContext::smoke();
        let prober = ctx.prober();
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let workload = ctx.workload();
        let report = run(&ctx, &ingress, &workload);
        assert_eq!(report.runs.len(), 4);
        for r in &report.runs {
            assert_eq!(r.measured, workload.len());
            assert!(r.wall_s > 0.0);
            assert!(r.per_second() > 0.0);
            // Every cache lookup is classified as a hit or a miss.
            assert!(r.cache.hits + r.cache.misses > 0);
            // Fault-free context: the retry layer must be invisible.
            assert_eq!(r.retries, 0);
            assert_eq!(r.lost, 0);
            // Stop sets are off in the default report: no consults at all.
            assert!(!r.stop_sets);
            assert_eq!(r.stopset, StopSetSnapshot::default());
        }
        // Each run uses a fresh prober/cache; within a run the workload
        // revisits sources, so the measurement cache must earn hits.
        let last = report.runs.last().unwrap();
        assert!(last.cache.hits > 0, "cache ineffective: {:?}", last.cache);
        assert_eq!(report.table().len(), 4);
    }

    #[test]
    fn stop_set_hits_do_not_double_count_cache_hits() {
        // Counter reconciliation: a stop-set hit replaces a whole RR step,
        // so it must NOT also appear as measurement-cache traffic — the
        // two economies are attributed to disjoint counters. The on arm
        // therefore shows (a) stop-set lookups where the off arm has
        // none, and (b) *no more* cache lookups than the off arm (it
        // skips probes, so it can only consult the cache less).
        let (off, on) = economy_pair(EvalContext::smoke, 1);
        assert!(!off.stop_sets && on.stop_sets);
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
            on.option_probes <= off.option_probes,
            "stop sets increased probing: {} > {}",
            on.option_probes,
            off.option_probes
        );
    }
}
