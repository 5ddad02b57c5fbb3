//! The operations harness: one seeded campaign, built and run in one
//! place, handed to every judge as one artefact.
//!
//! The paper reads accuracy, coverage and probe cost off the *same* set of
//! reverse traceroutes (§5.2, Table 4, Fig. 5). So does this crate:
//! [`Campaign`] names a run (scale, seed, fault and engine knobs),
//! [`Campaign::run`] is the only function of the operations harness that
//! assembles a context, an ingress database and a system and dispatches
//! the workload, and the [`CampaignRun`] it returns holds everything the
//! judges read — `metrics::judge`, `profile::judge`, `monitor::judge`,
//! `audit::judge`, `economy::arm`, `scenarios::arm` — each a pure function
//! of `&CampaignRun`. Judging a run twice, or by two judges in either
//! order, cannot change what either reports.
//!
//! Telemetry, the stuck-request watchdog and the resource profiler are
//! armed on every run: all three record outside the fingerprinted
//! registry and journal (`tests/metamorphic.rs` pins off ≡ on), so a run
//! made for the auditor is the run the SLO monitor would have judged.

use crate::context::{EvalContext, EvalScale};
use revtr::{EngineConfig, LoopConfig, RevtrResult};
use revtr_netsim::{Addr, ScenarioConfig, SimConfig};
use revtr_probing::{CacheStats, RetryPolicy, Snapshot, StopSetSnapshot};
use revtr_telemetry::{
    MetricsSnapshot, ProfileStack, RequestRecord, ResourceSnapshot, Telemetry, TelemetryConfig,
    WatchdogFlag,
};
use revtr_vpselect::Heuristics;
use std::sync::Arc;

/// The two campaign sizes of the operations harness. `--scale` is parsed
/// into this once ([`Scale::parse`]); everything downstream matches on the
/// enum, so a mis-spelt name is an error and never a silent smoke run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny topology, 25 requests: unit tests and quick looks.
    Smoke,
    /// Paper-era topology, 2 000 requests: every ci.sh gate.
    Standard,
}

/// Clean-campaign measurements (seeds {1, 7, 42}, serial dispatch) the
/// default SLO policy's floors and the watchdog deadlines are derived
/// from. EXPERIMENTS.md § "SLO monitor & perf sentinel" has the readings.
pub struct Baselines {
    /// Clean campaign coverage (complete / attempted), worst seed.
    pub coverage: f64,
    /// Clean AS-soundness of compared complete paths, worst seed.
    pub accuracy: f64,
    /// Option probes per request, clean band.
    pub probes_low: f64,
    /// Upper edge of that band.
    pub probes_high: f64,
    /// The probe floor under cache-warm Zipf traffic (`loadtest`): popular
    /// destinations are legitimately served from the measurement cache and
    /// stop sets (measured ~4.8 probes/revtr at standard, ~0.4 at smoke).
    pub probes_low_warm: f64,
    /// Clean `stage.rr_step.virtual_us` p99 upper bound (µs).
    pub rr_p99_us: u64,
    /// Ceiling on the campaign-wide ledger high-water total (bytes).
    pub mem_total_max: u64,
    /// Capacity the engine's control-block ledger is measured against
    /// (bytes).
    pub control_capacity: u64,
    /// Minimum tolerated control-block headroom against that capacity.
    pub control_headroom: f64,
    /// Watchdog deadline (virtual ms) above the slowest clean request
    /// (standard max 1 265 s, smoke max 243 s), so on a healthy campaign
    /// any flag is a genuine regression.
    pub clean_deadline_ms: f64,
    /// The clean p99 latency envelope (virtual ms) — the deadline a
    /// *faulted* campaign arms. Injected loss with no retry budget makes
    /// surviving requests burn extra 10 s spoofed-batch timeouts, pushing
    /// the p99 band past the clean envelope (standard: 252–268 s clean vs
    /// 285–302 s faulted), so fault-induced stalls overrun it while it
    /// still sits above almost every clean request.
    pub envelope_deadline_ms: f64,
}

impl Scale {
    /// Parse a `--scale` value. Names are exact: `"Standard"` is an error.
    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "smoke" => Ok(Scale::Smoke),
            "standard" => Ok(Scale::Standard),
            other => Err(format!("unknown scale {other:?} (use smoke or standard)")),
        }
    }

    /// The name [`Scale::parse`] accepts for this scale.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Standard => "standard",
        }
    }

    /// The topology the scale's campaigns run on.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Scale::Smoke => SimConfig::tiny(),
            Scale::Standard => SimConfig::era_2020(),
        }
    }

    /// The workload sizes, under an explicit master seed.
    pub fn eval_scale(self, seed: u64) -> EvalScale {
        let sizes = match self {
            Scale::Smoke => EvalScale::smoke(),
            Scale::Standard => EvalScale::standard(),
        };
        EvalScale { seed, ..sizes }
    }

    /// The measured clean baselines for this scale.
    pub fn baselines(self) -> Baselines {
        match self {
            // Measured clean, seeds {1, 7, 42}, serial campaign with
            // survey probes bypassing the measurement cache: coverage
            // 0.7365–0.7705, accuracy 0.9672–1.0, probes/revtr 6.97–7.19,
            // rr_step p99 88 080 ms at every seed.
            Scale::Standard => Baselines {
                coverage: 0.735,
                accuracy: 0.96,
                probes_low: 5.0,
                probes_high: 9.0,
                probes_low_warm: 3.0,
                rr_p99_us: 100_000_000,
                // Clean mem.total.hiwater at seeds {1, 7, 42} reads
                // 10.3–10.5 MB; the ceiling was set at ~1.7x the 38 MB it
                // read before the route plane shrank its cache, and is
                // kept as the budget.
                mem_total_max: 64 << 20,
                // Room for ~83 000 admitted 808-byte control blocks (the
                // standard campaign's 2 000 read 1.6 MB, headroom 0.976).
                control_capacity: 64 << 20,
                control_headroom: 0.9,
                clean_deadline_ms: 1_500_000.0,
                envelope_deadline_ms: 300_000.0,
            },
            // Measured clean, seeds {1, 7, 42}: coverage 0.80–1.0, accuracy
            // 1.0, probes/revtr 1.44–2.88, rr_step p99 48 234–79 692 ms.
            Scale::Smoke => Baselines {
                coverage: 0.80,
                accuracy: 0.95,
                probes_low: 1.0,
                probes_high: 6.0,
                probes_low_warm: 0.2,
                rr_p99_us: 100_000_000,
                // Measured clean smoke mem.total.hiwater at seeds {1, 7, 42}:
                // 188–198 kB; ceiling with generous margin.
                mem_total_max: 16 << 20,
                control_capacity: 64 << 20,
                control_headroom: 0.9,
                clean_deadline_ms: 300_000.0,
                envelope_deadline_ms: 100_000.0,
            },
        }
    }
}

/// One campaign of the operations harness: which world, which workload,
/// and the fault and engine knobs it runs under.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Topology and workload size.
    pub scale: Scale,
    /// Master seed (topology, workload, faults).
    pub seed: u64,
    /// Injected transient probe-loss probability (0.0 = clean).
    pub loss: f64,
    /// Per-kind retry attempt budget (1 = no retries, the clean default).
    pub budget: u32,
    /// Stuck-request watchdog deadline, virtual ms.
    pub watchdog_deadline_ms: f64,
    /// Enable the campaign-wide Doubletree stop sets
    /// (`EngineConfig::use_stop_sets`). Off in the clean baseline; the
    /// economy gate A/Bs this knob.
    pub use_stop_sets: bool,
    /// Hostile-Internet scenario profiles injected into the simulator
    /// (`SimConfig::scenario`). Inert by default — an all-zero config is
    /// byte-identical to no scenario at all.
    pub scenario: ScenarioConfig,
    /// Run the hardened engine (`EngineConfig::harden`): audit-replay
    /// cross-validation, VP quarantine, atlas pre-grading, DBR demotion.
    pub harden: bool,
    /// Run the Appx.-E optional verification mode
    /// (`EngineConfig::verify_dbr`): every RR-revealed chain is re-probed
    /// and mismatches feed `core.verify.dbr_mismatch`. Off in the clean
    /// baseline (zero extra probes).
    pub verify_dbr: bool,
}

impl Campaign {
    /// The clean campaign: no faults, stock engine, watchdog armed above
    /// the measured clean worst case.
    pub fn clean(scale: Scale, seed: u64) -> Campaign {
        Campaign {
            scale,
            seed,
            loss: 0.0,
            budget: 1,
            watchdog_deadline_ms: scale.baselines().clean_deadline_ms,
            use_stop_sets: false,
            scenario: ScenarioConfig::default(),
            harden: false,
            verify_dbr: false,
        }
    }

    /// Fault injection dialled in. With `loss > 0` the watchdog tightens
    /// to the clean p99 *envelope* ([`Baselines::envelope_deadline_ms`]):
    /// the question a faulted run answers is "does the service still meet
    /// its healthy latency envelope under faults?". `faulted(_, _, 0.0, 1)`
    /// equals `clean(_, _)`.
    pub fn faulted(scale: Scale, seed: u64, loss: f64, budget: u32) -> Campaign {
        let mut c = Campaign::clean(scale, seed);
        c.loss = loss;
        c.budget = budget;
        if loss > 0.0 {
            c.watchdog_deadline_ms = scale.baselines().envelope_deadline_ms;
        }
        c
    }

    /// The same campaign with the stop-set knob flipped.
    pub fn with_stop_sets(mut self, on: bool) -> Campaign {
        self.use_stop_sets = on;
        self
    }

    /// The same campaign with the hardened engine toggled.
    pub fn with_harden(mut self, on: bool) -> Campaign {
        self.harden = on;
        self
    }

    /// The same campaign under a hostile-Internet scenario, judged by
    /// `monitor::scenario_policy`. Unlike [`Campaign::faulted`]'s envelope
    /// tightening, scenario runs keep the *clean* watchdog deadline:
    /// adversarial profiles are judged by which SLO rules they trip, and a
    /// watchdog armed below the measured clean worst case would flag every
    /// profile alike — a siren, not a signal. The stock engine never
    /// re-probes on its own, so the Appx.-E verification mode is switched
    /// on to give the policy's `dbr-verify-mismatch` rule a live counter.
    pub fn with_scenario(mut self, scenario: ScenarioConfig) -> Campaign {
        self.watchdog_deadline_ms = self.scale.baselines().clean_deadline_ms;
        self.scenario = scenario;
        self.verify_dbr = true;
        self
    }

    /// The engine configuration the campaign runs (and its auditor must
    /// replay under).
    pub fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::revtr2();
        cfg.use_stop_sets = self.use_stop_sets;
        cfg.harden = self.harden;
        cfg.verify_dbr = self.verify_dbr;
        cfg
    }

    /// Build the world and run the workload: serial dispatch (the default
    /// [`LoopConfig`]: one worker, requests in id order), so every counter
    /// and histogram is a pure function of the campaign's fields.
    pub fn run(&self) -> CampaignRun {
        let mut sim_cfg = self.scale.sim_config();
        sim_cfg.faults.probe_loss = self.loss;
        sim_cfg.scenario = self.scenario.clone();
        let ctx = EvalContext::new(sim_cfg, self.scale.eval_scale(self.seed));
        let telemetry = Telemetry::with_config(TelemetryConfig {
            watchdog_deadline_ms: Some(self.watchdog_deadline_ms),
            profile: true,
            ..TelemetryConfig::default()
        });
        ctx.sim.set_telemetry(telemetry.clone());
        let prober = ctx
            .prober()
            .with_retry_policy(RetryPolicy::uniform(self.budget))
            .with_telemetry(telemetry.clone());
        let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
        let system = ctx.build_system(prober, self.engine_config(), ingress);
        let workload = ctx.workload();

        let probes_before = system.prober().counters().snapshot();
        let virtual_before = system.prober().clock().now_ms();
        let outcome = system
            .run_campaign(&workload, LoopConfig::default())
            .expect("campaign measurement panicked");
        let probes = system.prober().counters().snapshot().since(&probes_before);
        let virtual_ms = system.prober().clock().now_ms() - virtual_before;

        // Identity first: fingerprints, then every other reading, all
        // before a judge gets to look (oracle lookups fill route caches).
        let snapshot = telemetry.metrics();
        let metrics_fingerprint = snapshot.fingerprint();
        let journal_fingerprint = telemetry.journal_fingerprint();
        let cache = system.prober().cache();
        let cache_stats = cache.stats();
        let cache_shards = cache.shard_occupancy();
        let stopset = system.stopset().stats();
        drop(system);
        CampaignRun {
            campaign: self.clone(),
            workload,
            results: outcome.results,
            events: outcome.events,
            metrics_fingerprint,
            journal_fingerprint,
            snapshot,
            journal: telemetry.journal_records(),
            watchdog: telemetry.watchdog_flags(),
            resources: telemetry.resources(),
            stacks: telemetry.profile_stacks(),
            series: telemetry.resource_series(),
            probes,
            virtual_ms,
            cache: cache_stats,
            cache_shards,
            stopset,
            route_computes: ctx.sim.route_computes(),
            sim_cache_skew: ctx.sim.cache_shard_skew(),
            ctx,
        }
    }
}

/// Everything one campaign produced. Judges take it by shared reference.
pub struct CampaignRun {
    /// The campaign that ran.
    pub campaign: Campaign,
    /// The world it ran in (the auditor and the oracle read its simulator).
    pub ctx: EvalContext,
    /// The `(dst, src)` pairs measured, in dispatch order.
    pub workload: Vec<(Addr, Addr)>,
    /// Per-pair results, every hop with its evidence, in workload order.
    pub results: Vec<RevtrResult>,
    /// Engine events the campaign processed.
    pub events: u64,
    /// Metrics fingerprint, captured before anything else was read.
    pub metrics_fingerprint: u64,
    /// Journal fingerprint, captured likewise.
    pub journal_fingerprint: u64,
    /// The metrics registry at end of campaign.
    pub snapshot: MetricsSnapshot,
    /// Sorted, bounded journal records (span trees).
    pub journal: Vec<RequestRecord>,
    /// Stuck-request flags, sorted.
    pub watchdog: Vec<WatchdogFlag>,
    /// Resource-ledger readings (current + high-water), name-sorted.
    pub resources: ResourceSnapshot,
    /// Collapsed cost stacks, path-sorted.
    pub stacks: Vec<ProfileStack>,
    /// Per-ledger `(ord, bytes)` wave-barrier series.
    pub series: Vec<(String, Vec<(u64, u64)>)>,
    /// Campaign-only probe-counter delta (excludes the ingress survey).
    pub probes: Snapshot,
    /// Campaign-only virtual milliseconds.
    pub virtual_ms: f64,
    /// Measurement-cache effectiveness counters at end of campaign.
    pub cache: CacheStats,
    /// Measurement-cache shard occupancy: (last-link map, RR map).
    pub cache_shards: (Vec<usize>, Vec<usize>),
    /// Stop-set effectiveness counters (all-zero with the knob off).
    pub stopset: StopSetSnapshot,
    /// Simulator route computations at end of campaign.
    pub route_computes: u64,
    /// Worst route/border-cache shard skew on the simulator side.
    pub sim_cache_skew: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DEFAULT_SEED;

    #[test]
    fn scale_names_parse_exactly_and_round_trip() {
        for scale in [Scale::Smoke, Scale::Standard] {
            assert_eq!(Scale::parse(scale.name()), Ok(scale));
        }
        // The fallback bug this type replaces: a mis-cased name used to run
        // the smoke campaign and label it standard.
        for bad in ["Standard", "STANDARD", "standard ", "Smoke", "medium", ""] {
            let err = Scale::parse(bad).expect_err(bad);
            assert!(err.contains("unknown scale"), "{bad:?}: {err}");
        }
        assert_eq!(Scale::Smoke.eval_scale(7).seed, 7);
        assert_eq!(
            Scale::Standard.eval_scale(DEFAULT_SEED).n_revtrs,
            EvalScale::standard().n_revtrs
        );
    }

    #[test]
    fn presets_differ_only_where_documented() {
        let clean = Campaign::clean(Scale::Smoke, 3);
        let same = Campaign::faulted(Scale::Smoke, 3, 0.0, 1);
        assert_eq!(format!("{clean:?}"), format!("{same:?}"));
        let faulted = Campaign::faulted(Scale::Smoke, 3, 0.3, 2);
        assert!(faulted.watchdog_deadline_ms < clean.watchdog_deadline_ms);
        let hostile = faulted.with_scenario(ScenarioConfig::default());
        assert_eq!(hostile.watchdog_deadline_ms, clean.watchdog_deadline_ms);
        assert!(hostile.verify_dbr && !clean.verify_dbr);
    }
}
