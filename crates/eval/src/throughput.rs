//! §5.2.4 / §3: what one reverse traceroute costs this implementation.
//!
//! The paper's revtr 2.0 sustains 173 reverse traceroutes per second
//! (~15M/day) across its deployment. Here one serial `run_campaign` over a
//! workload reports the exact costs behind that rate on the simulated
//! Internet: option probes per measurement, the measurement cache's
//! effectiveness, and the route computations the run paid for. Wall time
//! and campaign width are not reported here: a wall clock measures the
//! host, and `benchmark/` (`bench.ops_per_s`, `core.pool_speedup`) owns
//! that question.

use crate::render::Table;
use revtr::{LoopConfig, RevtrSystem};
use revtr_netsim::Addr;
use revtr_probing::CacheStats;

/// One serial campaign's costs.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputReport {
    /// Measurements performed.
    pub measured: usize,
    /// Option probes sent (RR + spoofed RR + TS + spoofed TS).
    pub option_probes: u64,
    /// Measurement-cache effectiveness during the run.
    pub cache: CacheStats,
    /// Route computations during the run — one salted-metric Dijkstra
    /// over the transit core each (cache fills in `Sim::routes`; lookups
    /// don't count).
    pub route_computes: u64,
    /// Retry attempts issued (non-zero only with faults injected).
    pub retries: u64,
    /// Probes lost to injected faults.
    pub lost: u64,
}

impl ThroughputReport {
    /// Option probes per measurement.
    pub fn probes_per_revtr(&self) -> f64 {
        self.option_probes as f64 / self.measured.max(1) as f64
    }

    /// Render the cost row.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Implementation throughput: cost per revtr (revtr 2.0, one worker)",
            &[
                "revtrs",
                "probes/revtr",
                "cache hit%",
                "cache exp",
                "route fills",
                "retries",
                "lost",
            ],
        );
        t.row(&[
            self.measured.to_string(),
            format!("{:.1}", self.probes_per_revtr()),
            format!("{:.1}", self.cache.hit_rate() * 100.0),
            self.cache.expired.to_string(),
            self.route_computes.to_string(),
            self.retries.to_string(),
            self.lost.to_string(),
        ]);
        t
    }
}

/// Register `workload`'s sources on a fresh `system`, then measure the
/// whole workload on one worker and diff the counters.
pub fn run(system: &RevtrSystem<'_>, workload: &[(Addr, Addr)]) -> ThroughputReport {
    for &(_, src) in workload {
        system.register_source(src);
    }
    let prober = system.prober();
    let before = prober.counters().snapshot();
    let cache_before = prober.cache().stats();
    let computes_before = system.sim().route_computes();
    system
        .run_campaign(workload, LoopConfig { workers: 1 })
        .expect("throughput measurement panicked");
    let d = prober.counters().snapshot().since(&before);
    let ca = prober.cache().stats();
    ThroughputReport {
        measured: workload.len(),
        option_probes: d.option_probes(),
        cache: CacheStats {
            hits: ca.hits - cache_before.hits,
            misses: ca.misses - cache_before.misses,
            inserts: ca.inserts - cache_before.inserts,
            expired: ca.expired - cache_before.expired,
        },
        route_computes: system.sim().route_computes() - computes_before,
        retries: d.retries,
        lost: d.lost,
    }
}
