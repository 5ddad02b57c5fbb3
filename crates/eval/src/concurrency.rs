//! The high-concurrency smoke: prove one campaign admits and completes
//! tens of thousands of reverse traceroutes in bounded memory.
//!
//! An admitted measurement costs one control block, built when a worker
//! claims it — never a parked thread — so the smoke simply tiles the
//! smoke-scale workload up to the target size, admits the whole campaign
//! as one wave, and checks that every request completes with the engine
//! reporting the full campaign admitted at peak. ci.sh runs this as a
//! gate at 50 000.

use crate::context::EvalContext;
use revtr::{task_footprint_bytes, EngineConfig, LoopConfig};
use revtr_netsim::Addr;
use revtr_vpselect::Heuristics;
use std::sync::Arc;
use std::time::Instant;

/// What the concurrency smoke measured.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrencySmoke {
    /// Requests admitted (the tiled campaign size).
    pub requests: usize,
    /// Requests that came back (must equal `requests`).
    pub completed: usize,
    /// Peak admitted measurements the engine reported.
    pub inflight_peak: usize,
    /// Events (stages and spoofed-batch rounds) the campaign cost.
    pub events: u64,
    /// Bytes per control block (compile-time size; excludes per-path heap
    /// state).
    pub task_bytes: usize,
    /// Wall-clock seconds for the campaign.
    pub wall_s: f64,
}

impl ConcurrencySmoke {
    /// Whether the smoke met its target: every admitted request finished
    /// and the campaign admitted `target` measurements in one wave.
    pub fn pass(&self, target: usize) -> bool {
        self.completed == self.requests && self.inflight_peak >= target
    }

    /// One-line summary.
    pub fn render(&self, target: usize) -> String {
        format!(
            "concurrency smoke: {} requests, {} completed, {} in flight at peak \
             (target {}), {} loop events, {} B/control block, {:.2} s wall\n\
             concurrency gate: {}",
            self.requests,
            self.completed,
            self.inflight_peak,
            target,
            self.events,
            self.task_bytes,
            self.wall_s,
            if self.pass(target) { "PASS" } else { "FAIL" }
        )
    }
}

/// Run `target` reverse traceroutes as ONE campaign on the
/// smoke topology (the smoke workload tiled to size; repeats hit the
/// measurement cache, which is exactly what lets a real deployment
/// oversubscribe).
pub fn run(target: usize, seed: u64) -> ConcurrencySmoke {
    let mut scale = crate::context::EvalScale::smoke();
    scale.seed = seed;
    let ctx = EvalContext::new(revtr_netsim::SimConfig::tiny(), scale);
    let prober = ctx.prober();
    let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
    let system = ctx.build_system(prober, EngineConfig::revtr2(), ingress);
    let base = ctx.workload();
    let pairs: Vec<(Addr, Addr)> = base.iter().copied().cycle().take(target).collect();
    for &(_, src) in &base {
        system.register_source(src);
    }
    let t0 = Instant::now();
    let outcome = system
        .run_campaign(&pairs, LoopConfig::parallel())
        .expect("concurrency smoke measurement panicked");
    ConcurrencySmoke {
        requests: pairs.len(),
        completed: outcome.results.len(),
        inflight_peak: outcome.inflight_peak,
        events: outcome.events,
        task_bytes: task_footprint_bytes(),
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiled_campaign_holds_the_target_in_flight() {
        // Small target in the unit test; ci.sh runs the 50k gate.
        let s = run(500, 1);
        assert_eq!(s.requests, 500);
        assert!(s.pass(500), "{}", s.render(500));
        assert!(s.events >= 500, "every request steps at least once");
        // A control block stays small — that is what admission is priced in.
        assert!(
            s.task_bytes < 4096,
            "control block grew suspiciously large: {} B",
            s.task_bytes
        );
    }
}
