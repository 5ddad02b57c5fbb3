//! The harness: one seeded campaign, built and run in one place, handed to
//! every judge as one artefact.
//!
//! The paper reads accuracy, coverage and probe cost off the *same* set of
//! reverse traceroutes (§5.2, Table 4, Fig. 5). So does this crate:
//! [`Campaign`] names a run (scale, seed, traffic, faults, scenario and a
//! named engine preset), [`Campaign::run_with`] assembles a world, an
//! ingress database and a system and dispatches the traffic, and the
//! [`CampaignRun`] it returns holds everything the judges read.
//!
//! - The operations judges — `report::Report`, `audit::judge`,
//!   `economy::arm`, `robustness::RobustnessCell::of`, `scenarios::arm`,
//!   the loadtest's arms — are pure functions of `&CampaignRun`: judging a
//!   run twice, or by two judges in either order, cannot change what
//!   either reports.
//! - The paper experiments that measure reverse traceroutes judge one run
//!   per preset. Table 4 and Fig. 5c read each `EngineConfig::table4_ladder`
//!   run; Fig. 5a/5b and §5.2.2 the revtr 1.0, revtr 2.0 and + TS runs;
//!   §6.2, Appx. B.2 and the throughput row the revtr 2.0 run, which is
//!   [`Campaign::clean`]. Their ground truth (`accuracy::ground_truth`) is
//!   probed in the run's own world after the run, once per run.
//!
//! Telemetry, the stuck-request watchdog and the resource profiler are
//! armed on every run: all three record outside the fingerprinted
//! registry and journal (`tests/metamorphic.rs` pins off ≡ on), so a run
//! made for the auditor is the run the SLO policy would have judged.

use crate::context::{EvalContext, EvalScale};
use crate::loadtest::{self, Pattern};
use revtr::{EngineConfig, LoopConfig, RevtrResult};
use revtr_loadgen::Arrival;
use revtr_netsim::{Addr, ScenarioConfig, SimConfig};
use revtr_probing::{CacheStats, RetryPolicy, Snapshot, StopSetSnapshot};
use revtr_service::{ClassReport, LevelTransition, RevtrService, ShedReason};
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
/// from. EXPERIMENTS.md *SLO baselines* has the readings.
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
    /// stop sets (steady pattern, seeds {1, 7, 42}: 2.70–2.95 probes/revtr
    /// at standard, 0.21–0.26 at smoke).
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
    /// (seeds {1, 7, 42}: standard max 192–414 s, smoke max 10–62 s), so
    /// on a healthy campaign any flag is a genuine regression.
    pub clean_deadline_ms: f64,
    /// The clean p99 latency envelope (virtual ms) — the deadline a
    /// *faulted* campaign arms. Injected loss with no retry budget makes
    /// surviving requests burn extra 10 s spoofed-batch timeouts, pushing
    /// the p99 band past the clean envelope (seeds {1, 7, 42}, standard:
    /// 62.9 / 75.5 / 79.7 s clean vs 83.9 / 113.2 / 92.3 s faulted,
    /// faulted max 127.4 / 179.5 / 205.9 s; smoke: 2–10 s clean vs 22–44 s
    /// faulted, faulted max 47–53 s), so fault-induced stalls overrun it
    /// while it still sits above almost every clean request. The standard
    /// envelope, 95 s, sits above every clean p99 and below every seed's
    /// faulted maximum (DESIGN.md §15 *Baseline updates*), so a faulted
    /// standard campaign fires `stuck-requests` (10 / 29 / 20 flags). A
    /// faulted smoke campaign's 25 requests are too few to have such a
    /// tail: none overruns the smoke envelope at seeds 1–12.
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
        match self {
            Scale::Smoke => EvalScale {
                prefix_sample: 30,
                n_revtrs: 25,
                atlas_size: 30,
                atlas_pool: 120,
                n_sources: 3,
                seed,
            },
            Scale::Standard => EvalScale {
                prefix_sample: 900,
                n_revtrs: 2000,
                atlas_size: 250,
                atlas_pool: 1200,
                n_sources: 8,
                seed,
            },
        }
    }

    /// The measured clean baselines for this scale.
    pub fn baselines(self) -> Baselines {
        match self {
            // Measured clean, seeds {1, 7, 42}, serial campaign with
            // survey probes bypassing the measurement cache, router hops
            // judged on their stamps under a lent plan, no spoofed ladder
            // at a hop silent to the source, ingress queues settled by a
            // crossed ingress, every spoofed reply judged on its stamps,
            // and a prefix the survey left without a plan lent an AS
            // sibling's: coverage 0.8565–0.8655, accuracy 0.9931–1.0,
            // probes/revtr 3.76–3.90, rr_step p99 39 846 ms at every seed.
            // `coverage` is the worst seed rounded down; its floor is 0.95×.
            // The two probe floors keep their ratio to the lowest clean
            // reading (5.0 against 6.08, 3.0 against the warm 3.96),
            // applied to the 4.55 and warm 2.94 read before queues
            // settled; the lowest readings are now 3.76 and warm 2.61.
            Scale::Standard => Baselines {
                coverage: 0.855,
                accuracy: 0.96,
                probes_low: 3.7,
                probes_high: 9.0,
                probes_low_warm: 2.2,
                rr_p99_us: 100_000_000,
                // Clean mem.total.hiwater at seeds {1, 7, 42} reads
                // 10.22–10.34 MB; the ceiling was set at ~1.7x the 38 MB
                // it read before the route plane shrank its cache, and is
                // kept as the budget.
                mem_total_max: 64 << 20,
                // Room for ~84 000 admitted 800-byte control blocks (the
                // standard campaign's 2 000 read 1.6 MB, headroom 0.976).
                control_capacity: 64 << 20,
                control_headroom: 0.9,
                clean_deadline_ms: 1_500_000.0,
                envelope_deadline_ms: 95_000.0,
            },
            // Measured clean, seeds {1, 7, 42}: coverage 0.80–1.0, accuracy
            // 1.0, probes/revtr 1.68–2.48, rr_step p99 1 966–29 360 ms.
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

/// How a campaign's requests arrive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// The closed-loop workload ([`EvalContext::workload`]): every pair
    /// dispatched at virtual zero.
    Workload,
    /// An open-loop multi-tenant arrival stream of this shape through the
    /// service's admission layer (`loadtest::tenant_stream`).
    OpenLoop(Pattern),
}

/// One campaign: which world, which traffic, and the faults, scenario and
/// engine it runs under.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Topology and workload size.
    pub scale: Scale,
    /// Master seed (topology, workload, faults).
    pub seed: u64,
    /// The requests and how they arrive.
    pub traffic: Traffic,
    /// Injected transient probe-loss probability (0.0 = clean).
    pub loss: f64,
    /// Per-kind retry attempt budget (1 = no retries, the clean default).
    pub budget: u32,
    /// Stuck-request watchdog deadline, virtual ms.
    pub watchdog_deadline_ms: f64,
    /// Hostile-Internet scenario profiles injected into the simulator
    /// (`SimConfig::scenario`). Inert by default — an all-zero config is
    /// byte-identical to no scenario at all.
    pub scenario: ScenarioConfig,
    /// The engine the campaign runs, and its auditor replays under: a named
    /// `EngineConfig` preset ([`EngineConfig::revtr2`] unless
    /// [`Campaign::with_engine`] names another), which the `with_*`
    /// builders edit.
    pub engine: EngineConfig,
}

impl Campaign {
    /// The clean campaign: no faults, stock engine, watchdog armed above
    /// the measured clean worst case.
    pub fn clean(scale: Scale, seed: u64) -> Campaign {
        Campaign {
            scale,
            seed,
            traffic: Traffic::Workload,
            loss: 0.0,
            budget: 1,
            watchdog_deadline_ms: scale.baselines().clean_deadline_ms,
            scenario: ScenarioConfig::default(),
            engine: EngineConfig::revtr2(),
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

    /// The clean campaign serving an open-loop tenant stream instead of
    /// the closed-loop workload.
    pub fn open_loop(scale: Scale, seed: u64, pattern: Pattern) -> Campaign {
        Campaign {
            traffic: Traffic::OpenLoop(pattern),
            ..Campaign::clean(scale, seed)
        }
    }

    /// The same campaign on another named engine preset (a Table 4 ladder
    /// step, say): the row a paper table labels with the preset's name.
    pub fn with_engine(mut self, engine: EngineConfig) -> Campaign {
        self.engine = engine;
        self
    }

    /// The same campaign with the campaign-wide Doubletree stop sets
    /// (`EngineConfig::use_stop_sets`) switched; `audit::run` A/Bs this.
    pub fn with_stop_sets(mut self, on: bool) -> Campaign {
        self.engine.use_stop_sets = on;
        self
    }

    /// The same campaign under a hostile-Internet scenario, judged by
    /// `report::scenario_policy`. Unlike [`Campaign::faulted`]'s envelope
    /// tightening, scenario runs keep the *clean* watchdog deadline:
    /// adversarial profiles are judged by which SLO rules they trip, and a
    /// watchdog armed below the measured clean worst case would flag every
    /// profile alike — a siren, not a signal. The stock engine never
    /// re-probes on its own, so the Appx.-E verification mode
    /// (`EngineConfig::verify_dbr`: every RR-revealed chain is re-probed) is
    /// switched on to give the policy's `dbr-verify-mismatch` rule a live
    /// counter.
    pub fn with_scenario(mut self, scenario: ScenarioConfig) -> Campaign {
        self.watchdog_deadline_ms = self.scale.baselines().clean_deadline_ms;
        self.scenario = scenario;
        self.engine.verify_dbr = true;
        self
    }

    /// [`Campaign::run_with`] one worker: requests in id order, so every
    /// counter and histogram is a pure function of the campaign's fields.
    pub fn run(&self) -> CampaignRun {
        self.run_with(1)
    }

    /// Build the world and dispatch the traffic on `workers` dispatch
    /// workers ([`LoopConfig::workers`]).
    pub fn run_with(&self, workers: usize) -> CampaignRun {
        let mut sim_cfg = self.scale.sim_config();
        sim_cfg.faults.probe_loss = self.loss;
        sim_cfg.scenario = self.scenario.clone();
        if let Traffic::OpenLoop(_) = self.traffic {
            // Route churn and per-packet load balancing must be off for an
            // open-loop run — the two schedule couplings the engine's
            // worker-invariance contract excludes (and that the metamorphic
            // suite's own determinism arms disable for the same reasons).
            // Churn is cross-request coupling through the globally
            // *flushed* clock, and flush points are a function of the
            // dispatch schedule. Load-balancing routers hash the per-probe
            // nonce, a function of the packet and its send instant, and
            // the run keeps its measurement cache on: a hit replays
            // whichever request measured the key first, so which path a
            // reply took would be up to the OS's schedule. The admission
            // layer is what the loadtest judges; route dynamics have their
            // own studies.
            sim_cfg.behavior.churn_per_hour = 0.0;
            sim_cfg.behavior.router_load_balancer = 0.0;
        }
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
        let service = RevtrService::new(ctx.build_system(prober, self.engine, ingress));
        let system = service.system();
        let lc = LoopConfig { workers };
        // Tenant registration probes (source bootstraps) before the
        // campaign-only deltas start.
        let stream = match self.traffic {
            Traffic::Workload => None,
            Traffic::OpenLoop(pattern) => {
                Some(loadtest::tenant_stream(&ctx, &service, pattern, self.seed))
            }
        };

        let probes_before = system.prober().counters().snapshot();
        let virtual_before = system.prober().clock().now_ms();
        let (workload, results, events, open_loop) = match stream {
            None => {
                let pairs = ctx.workload();
                let outcome = system
                    .run_campaign(&pairs, lc)
                    .expect("campaign measurement panicked");
                (pairs, outcome.results, outcome.events, None)
            }
            Some((keys, arrivals, requests, plan)) => {
                let o = service
                    .run_open_loop(&keys, &requests, &plan, lc)
                    .expect("open-loop run failed");
                let workload = (requests.iter().zip(&o.sheds))
                    .filter(|(_, shed)| shed.is_none())
                    .map(|(r, _)| (r.dst, r.src))
                    .collect();
                let results = o.results.into_iter().flatten().collect();
                let open = OpenLoopRun {
                    arrivals,
                    sheds: o.sheds,
                    classes: o.classes,
                    transitions: o.transitions,
                    waves: o.waves,
                    atlas_refreshes: o.atlas_refreshes,
                    stale_atlas_skips: o.stale_atlas_skips,
                };
                (workload, results, o.events, Some(open))
            }
        };
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
        drop(service);
        CampaignRun {
            campaign: self.clone(),
            workload,
            results,
            events,
            open_loop,
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

/// What the admission layer did with an open-loop campaign's arrivals.
/// The admitted arrivals' results are [`CampaignRun::results`], in
/// stream order: `sheds` says which arrival each one answers.
pub struct OpenLoopRun {
    /// Every arrival offered (after topology mapping), in stream order.
    pub arrivals: Vec<Arrival>,
    /// Per-arrival shed reasons, aligned with `arrivals`; `None` = admitted.
    pub sheds: Vec<Option<ShedReason>>,
    /// Per-class accounting, index = class index.
    pub classes: Vec<ClassReport>,
    /// Every ladder move, in wave order.
    pub transitions: Vec<LevelTransition>,
    /// Admission waves executed.
    pub waves: usize,
    /// SLA-driven atlas refreshes performed at wave barriers.
    pub atlas_refreshes: u64,
    /// SLA-due refreshes suppressed at the stale-atlas level.
    pub stale_atlas_skips: u64,
}

/// Everything one campaign produced. Judges take it by shared reference.
pub struct CampaignRun {
    /// The campaign that ran.
    pub campaign: Campaign,
    /// The world it ran in (the auditor and the oracle read its simulator).
    pub ctx: EvalContext,
    /// The `(dst, src)` pairs measured (an open loop's admitted arrivals),
    /// in dispatch order.
    pub workload: Vec<(Addr, Addr)>,
    /// Per-pair results, every hop with its evidence, in workload order.
    pub results: Vec<RevtrResult>,
    /// Engine events the campaign processed.
    pub events: u64,
    /// The admission accounting of an open-loop campaign.
    pub open_loop: Option<OpenLoopRun>,
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
        assert_eq!(Scale::Standard.eval_scale(DEFAULT_SEED).n_revtrs, 2000);
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
        assert!(hostile.engine.verify_dbr && !clean.engine.verify_dbr);
        assert_eq!(clean.engine, EngineConfig::revtr2());
    }
}
