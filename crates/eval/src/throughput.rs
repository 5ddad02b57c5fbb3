//! §5.2.4 / §3: what one reverse traceroute costs this implementation.
//!
//! The paper's revtr 2.0 sustains 173 reverse traceroutes per second
//! (~15M/day) across its deployment. Here the revtr 2.0 campaign (one
//! worker, the whole workload) reports the exact costs behind that rate on
//! the simulated Internet: option probes per measurement, the measurement
//! cache's effectiveness, and the route computations its world paid for,
//! ingress survey included. Wall time
//! and campaign width are not reported here: a wall clock measures the
//! host, and `benchmark/` (`bench.ops_per_s`, `core.pool_speedup`) owns
//! that question.

use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::render::Table;
use revtr_probing::CacheStats;

/// One serial campaign's costs.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputReport {
    /// Measurements performed.
    pub measured: usize,
    /// Of those, complete.
    pub complete: usize,
    /// Option probes sent (RR + spoofed RR + TS + spoofed TS).
    pub option_probes: u64,
    /// Measurement-cache effectiveness during the run.
    pub cache: CacheStats,
    /// Route computations in the run's world — one salted-metric Dijkstra
    /// over the transit core each (cache fills in `Sim::routes`; lookups
    /// don't count).
    pub route_computes: u64,
    /// Retry attempts issued (non-zero only with faults injected).
    pub retries: u64,
    /// Probes lost to injected faults.
    pub lost: u64,
}

impl ThroughputReport {
    /// Read the costs off a campaign run.
    pub fn of(run: &CampaignRun) -> ThroughputReport {
        ThroughputReport {
            measured: run.results.len(),
            complete: run.results.iter().filter(|r| r.complete()).count(),
            option_probes: run.probes.option_probes(),
            cache: run.cache,
            route_computes: run.route_computes,
            retries: run.probes.retries,
            lost: run.probes.lost,
        }
    }

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
                "complete",
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
            self.complete.to_string(),
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

/// Run the revtr 2.0 campaign and read its costs.
pub fn run(scale: Scale, seed: u64) -> ThroughputReport {
    ThroughputReport::of(&Campaign::clean(scale, seed).run())
}
