//! The deterministic SLO monitor: run a campaign with telemetry, judge it
//! against a declarative policy, report the stuck-request watchdog, and
//! export the trace/metrics artifacts.
//!
//! This is the judgment layer on top of `eval::metrics` (which only
//! *profiles*). The monitor runs the same serial campaign with the
//! same telemetry configuration, so on the clean configuration its printed
//! campaign fingerprints are byte-identical to `revtr-cli metrics` at the
//! same seed — judging a run must not change its identity. Concretely:
//!
//! 1. the campaign runs and the metrics/journal fingerprints are captured;
//! 2. derived values (coverage, oracle AS-soundness, probe budget per
//!    request, watchdog flag count) are computed *outside* the registry;
//! 3. the SLO policy is evaluated over the snapshot + sorted journal +
//!    derived table, and only then are the alerts fired into the registry
//!    as `slo.alert.<rule>` counters.
//!
//! Everything the monitor prints is a pure function of sorted inputs, so
//! the alert table and the export bytes are identical across reruns and
//! worker counts.

use crate::context::{EvalContext, EvalScale};
use crate::render::Table;
use revtr::{EngineConfig, LoopConfig};
use revtr_netsim::{ScenarioConfig, SimConfig};
use revtr_probing::{RetryPolicy, Snapshot};
use revtr_telemetry::{
    chrome_trace_json, prometheus_text, MetricsSnapshot, RequestRecord, RuleExpr, Severity,
    SloInput, SloPolicy, SloReport, SloRule, Telemetry, TelemetryConfig, WatchdogFlag,
};
use revtr_vpselect::Heuristics;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Clean-configuration watchdog deadline (virtual ms) per scale: above
/// the slowest clean request measured at seeds {1, 7, 42} (standard max
/// 1 265 s, smoke max 243 s — see the calibration helper below), so on a
/// healthy campaign any flag is a genuine regression.
pub(crate) fn clean_deadline_ms(scale_name: &str) -> f64 {
    match scale_name {
        "standard" => 1_500_000.0,
        _ => 300_000.0,
    }
}

/// The clean p99 latency envelope (virtual ms) per scale — the deadline
/// the *faulted* preset arms. Injected loss with no retry budget makes
/// surviving requests burn extra 10 s spoofed-batch timeouts, pushing the
/// p99 band past the clean envelope (standard: 252–268 s clean vs
/// 285–302 s faulted), so fault-induced stalls overrun it and get
/// flagged while the envelope still sits above almost every clean
/// request.
fn envelope_deadline_ms(scale_name: &str) -> f64 {
    match scale_name {
        "standard" => 300_000.0,
        _ => 100_000.0,
    }
}

/// Empirical clean baselines (seeds {1, 7, 42}, serial campaign) the
/// default policy's floors are derived from. See EXPERIMENTS.md §
/// "Deterministic SLO monitor" for the measured values.
struct Baselines {
    /// Clean campaign coverage (complete / attempted), worst seed.
    coverage: f64,
    /// Clean AS-soundness of compared complete paths, worst seed.
    accuracy: f64,
    /// Option probes per request, clean band.
    probes_low: f64,
    probes_high: f64,
    /// Clean `stage.rr_step.virtual_us` p99 upper bound (µs).
    rr_p99_us: u64,
    /// Ceiling on the campaign-wide ledger high-water total (bytes).
    mem_total_max: u64,
    /// Capacity the engine's control-block ledger is measured against
    /// (bytes): the 50k-in-flight design point of the concurrency smoke.
    control_capacity: u64,
    /// Minimum tolerated control-block headroom against that capacity.
    control_headroom: f64,
}

/// Extra probes-per-revtr headroom granted to scenario monitor runs,
/// which enable the Appx.-E verification mode: the re-probe of each
/// RR-revealed chain costs ~4.4 option probes per request at standard
/// scale (severity-0 scenario runs measure 11.1–11.6 against the clean
/// 6.97–7.19), and the band would otherwise flag the verification
/// traffic itself.
const VERIFY_PROBE_ALLOWANCE: f64 = 4.5;

fn baselines(scale_name: &str) -> Baselines {
    match scale_name {
        // Measured clean, seeds {1, 7, 42}, serial campaign with
        // survey probes bypassing the measurement cache: coverage
        // 0.7365–0.7705, accuracy 0.9672–1.0, probes/revtr 6.97–7.19,
        // rr_step p99 88 080 ms at every seed.
        "standard" => Baselines {
            coverage: 0.735,
            accuracy: 0.96,
            probes_low: 5.0,
            probes_high: 9.0,
            rr_p99_us: 100_000_000,
            // Measured clean mem.total.hiwater at seeds {1, 7, 42}:
            // 37.6–38.2 MB (route cache + journal dominate); ceiling
            // at ~1.7x the worst seed.
            mem_total_max: 64 << 20,
            // The 50k-in-flight concurrency-smoke design point at the
            // measured 1.2 kB control-block footprint (the standard
            // campaign's 2 000 admitted blocks read 2.4 MB, headroom
            // 0.964 against this capacity).
            control_capacity: 64 << 20,
            control_headroom: 0.9,
        },
        // Measured clean, seeds {1, 7, 42}: coverage 0.80–1.0, accuracy
        // 1.0, probes/revtr 1.44–2.88, rr_step p99 48 234–79 692 ms.
        _ => Baselines {
            coverage: 0.80,
            accuracy: 0.95,
            probes_low: 1.0,
            probes_high: 6.0,
            rr_p99_us: 100_000_000,
            // Measured clean smoke mem.total.hiwater at seeds {1, 7, 42}:
            // 188–198 kB; ceiling with generous margin.
            mem_total_max: 16 << 20,
            control_capacity: 64 << 20,
            control_headroom: 0.9,
        },
    }
}

/// The default reproduction policy for a given scale: the paper-shaped
/// guardrails (coverage, soundness, probe budget, latency) phrased as
/// [`SloRule`]s over this repo's measured clean baselines.
pub fn default_policy(scale_name: &str) -> SloPolicy {
    let b = baselines(scale_name);
    let rule = |name: &str, severity: Severity, expr: RuleExpr| SloRule {
        name: name.to_string(),
        severity,
        expr,
    };
    SloPolicy {
        rules: vec![
            // Coverage must stay within 5% of the clean baseline
            // (the ISSUE's `coverage >= 0.95·baseline`).
            rule(
                "coverage-floor",
                Severity::Critical,
                RuleExpr::DerivedMin {
                    key: "coverage".into(),
                    min: b.coverage * 0.95,
                },
            ),
            // Complete paths must stay AS-sound against the oracle.
            rule(
                "accuracy-floor",
                Severity::Critical,
                RuleExpr::DerivedMin {
                    key: "accuracy".into(),
                    min: b.accuracy,
                },
            ),
            // The stuck-request watchdog must stay silent.
            rule(
                "stuck-requests",
                Severity::Critical,
                RuleExpr::DerivedMax {
                    key: "watchdog.flagged".into(),
                    max: 0.0,
                },
            ),
            // Probe budget per request stays in the Table-4-shaped band.
            rule(
                "probe-budget-band",
                Severity::Warning,
                RuleExpr::DerivedMax {
                    key: "probes.per_revtr".into(),
                    max: b.probes_high,
                },
            ),
            rule(
                "probe-budget-floor",
                Severity::Warning,
                RuleExpr::DerivedMin {
                    key: "probes.per_revtr".into(),
                    min: b.probes_low,
                },
            ),
            // Stage latency: the spoofed-batch timeout dominates rr_step;
            // its p99 must not grow past the clean envelope.
            rule(
                "rr-step-p99",
                Severity::Warning,
                RuleExpr::QuantileMax {
                    histogram: "stage.rr_step.virtual_us".into(),
                    q: 0.99,
                    max: b.rr_p99_us,
                },
            ),
            // A retry-less faulted campaign exhausts transient budgets;
            // the clean configuration never does.
            rule(
                "transient-exhaustion",
                Severity::Critical,
                RuleExpr::CounterMax {
                    counter: "probing.transient_exhausted".into(),
                    max: 0,
                },
            ),
            // Batch queueing (recorded by service campaigns; "no data" on
            // the monitor's serial campaign, which never queues).
            rule(
                "queue-depth-max",
                Severity::Warning,
                RuleExpr::QuantileMax {
                    histogram: "service.batch.queue_depth".into(),
                    q: 1.0,
                    max: 64,
                },
            ),
            // Memory ceiling on the campaign-wide ledger high-water total
            // (pure function of the seed; "no data" without profiling).
            rule(
                "mem-ceiling",
                Severity::Warning,
                RuleExpr::MemCeiling {
                    key: "mem.total.hiwater".into(),
                    max_bytes: b.mem_total_max,
                },
            ),
            // Capacity headroom of the engine's control blocks against
            // the 50k-in-flight design capacity.
            rule(
                "capacity-headroom",
                Severity::Warning,
                RuleExpr::CapacityHeadroom {
                    key: "mem.engine.control_blocks.hiwater".into(),
                    ceiling: b.control_capacity,
                    min_headroom: b.control_headroom,
                },
            ),
            // Burn-rate guard on end-to-end latency: over rolling windows
            // of summed virtual time, the fraction of requests slower
            // than the clean watchdog deadline must stay inside a 2%
            // error budget at burn <= 1.
            rule(
                "latency-burn",
                Severity::Warning,
                RuleExpr::BurnRate {
                    window_ms: 3_600_000.0,
                    slow_ms: clean_deadline_ms(scale_name),
                    budget: 0.02,
                    max_burn: 1.0,
                },
            ),
        ],
    }
}

/// Monitor run configuration: fault injection plus judgment knobs.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
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
    /// baseline (zero extra probes); scenario runs switch it on so the
    /// dbr-verify-mismatch rule has a live signal even on the stock
    /// engine.
    pub verify_dbr: bool,
    /// The SLO policy to judge against.
    pub policy: SloPolicy,
}

impl MonitorConfig {
    /// The clean configuration for a scale: no faults, default policy,
    /// watchdog armed above the measured clean worst case.
    pub fn clean(scale_name: &str) -> MonitorConfig {
        MonitorConfig {
            loss: 0.0,
            budget: 1,
            watchdog_deadline_ms: clean_deadline_ms(scale_name),
            use_stop_sets: false,
            scenario: ScenarioConfig::default(),
            harden: false,
            verify_dbr: false,
            policy: default_policy(scale_name),
        }
    }

    /// The same configuration with the stop-set knob flipped.
    pub fn with_stop_sets(mut self, on: bool) -> MonitorConfig {
        self.use_stop_sets = on;
        self
    }

    /// The same configuration with a hostile-Internet scenario injected.
    /// Unlike [`MonitorConfig::faulted`]'s envelope tightening, scenario
    /// runs keep the *clean* watchdog deadline: adversarial profiles are
    /// judged by which SLO rules they trip (accuracy-floor for deception,
    /// transient-exhaustion and the probe band for drops), and a watchdog
    /// armed below the measured clean worst case would flag every profile
    /// alike — a siren, not a signal. An all-zero severity config changes
    /// nothing and still passes the full clean policy.
    pub fn with_scenario(mut self, scale_name: &str, scenario: ScenarioConfig) -> MonitorConfig {
        self.watchdog_deadline_ms = clean_deadline_ms(scale_name);
        self.scenario = scenario;
        // Scenario runs judge one extra signal the clean 9-rule policy
        // does not need: the campaign-wide Appx.-E verify mismatch count.
        // The stock engine never re-probes on its own (`verify_dbr` is
        // off in `revtr2()`), so scenario monitoring switches the
        // optional mode on to make the counter live. Route diversity
        // alone produces a handful of mismatches per clean campaign
        // (1–4 at standard scale); a DBR-violating region drives the
        // count past the allowance.
        self.verify_dbr = true;
        // Recalibrate the probe band for the verification overhead: the
        // Appx.-E re-probe adds ~4.4 probes per request at standard
        // scale (measured severity-0 runs sit at 11.1–11.6 probes per
        // revtr against the clean 6.97–7.19). Without the bump an
        // all-zero scenario would trip the band purely from the extra
        // verification traffic.
        for rule in &mut self.policy.rules {
            if rule.name == "probe-budget-band" {
                if let RuleExpr::DerivedMax { max, .. } = &mut rule.expr {
                    *max += VERIFY_PROBE_ALLOWANCE;
                }
            }
        }
        self.policy.rules.push(SloRule {
            name: "dbr-verify-mismatch".to_string(),
            severity: Severity::Warning,
            expr: RuleExpr::CounterMax {
                counter: "core.verify.dbr_mismatch".into(),
                max: 10,
            },
        });
        self
    }

    /// The same configuration with the hardened engine toggled.
    pub fn with_harden(mut self, on: bool) -> MonitorConfig {
        self.harden = on;
        self
    }

    /// Fault injection dialled in. With `loss > 0` the watchdog tightens
    /// to the clean p99 *envelope* (see [`envelope_deadline_ms`]): the
    /// question a faulted run answers is "does the service still meet its
    /// healthy latency envelope under faults?", and the extra 10 s
    /// spoofed-batch timeouts that injected loss causes are exactly what
    /// the envelope catches. `faulted(_, 0.0, 1)` equals `clean(_)`.
    pub fn faulted(scale_name: &str, loss: f64, budget: u32) -> MonitorConfig {
        MonitorConfig {
            loss,
            budget,
            watchdog_deadline_ms: if loss > 0.0 {
                envelope_deadline_ms(scale_name)
            } else {
                clean_deadline_ms(scale_name)
            },
            use_stop_sets: false,
            scenario: ScenarioConfig::default(),
            harden: false,
            verify_dbr: false,
            policy: default_policy(scale_name),
        }
    }
}

/// Everything one monitored campaign produced.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Requests attempted.
    pub requests: usize,
    /// Injected loss rate.
    pub loss: f64,
    /// Retry budget.
    pub budget: u32,
    /// Campaign metrics fingerprint, captured before alerts fired.
    pub metrics_fingerprint: u64,
    /// Campaign journal fingerprint.
    pub journal_fingerprint: u64,
    /// The pre-alert metrics snapshot (what the exports render).
    pub snapshot: MetricsSnapshot,
    /// Sorted journal records (what the trace export renders).
    pub journal: Vec<RequestRecord>,
    /// Derived `(key, value)` table, sorted by key.
    pub derived: Vec<(String, f64)>,
    /// The policy verdicts.
    pub slo: SloReport,
    /// Stuck-request flags, sorted.
    pub watchdog: Vec<WatchdogFlag>,
    /// The armed watchdog deadline (virtual ms).
    pub watchdog_deadline_ms: f64,
    /// Campaign-only virtual milliseconds (excludes ingress build).
    pub campaign_virtual_ms: f64,
    /// Campaign-only probe-counter delta.
    pub probes: Snapshot,
    /// Peak admitted measurements (the campaign size with stop sets off,
    /// one admission wave with them on).
    pub inflight_peak: usize,
    /// Measurement-cache stats at end of run.
    pub cache: revtr_probing::CacheStats,
    /// Stop-set effectiveness counters (all-zero with the knob off).
    pub stopset: revtr_probing::StopSetSnapshot,
    /// Simulator route computations.
    pub route_computes: u64,
}

/// Run the campaign serially (default
/// [`LoopConfig`] — the same execution `eval::metrics` profiles, which
/// keeps the ci.sh fingerprint-neutrality gate meaningful) under the
/// monitor's telemetry configuration and judge it. The loop schedule is a
/// pure function of the inputs, so every run is deterministic; the
/// underlying telemetry is additionally interleaving-independent (gated
/// by `tests/metamorphic.rs`).
pub fn run(base: SimConfig, scale: EvalScale, cfg: &MonitorConfig) -> MonitorReport {
    let mut sim_cfg = base;
    sim_cfg.faults.probe_loss = cfg.loss;
    sim_cfg.scenario = cfg.scenario.clone();
    let ctx = EvalContext::new(sim_cfg, scale);
    let telemetry = Telemetry::with_config(TelemetryConfig {
        watchdog_deadline_ms: Some(cfg.watchdog_deadline_ms),
        // The profiling arm is always on for monitored campaigns: the
        // memory rules need live `mem.*` readings, and the resource
        // ledgers live outside the fingerprinted registry/journal (the
        // metamorphic suite pins profile-on ≡ profile-off identity).
        profile: true,
        ..TelemetryConfig::default()
    });
    ctx.sim.set_telemetry(telemetry.clone());
    let prober = ctx
        .prober()
        .with_retry_policy(RetryPolicy::uniform(cfg.budget))
        .with_telemetry(telemetry.clone());
    let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
    let mut ecfg = EngineConfig::revtr2();
    ecfg.use_stop_sets = cfg.use_stop_sets;
    ecfg.harden = cfg.harden;
    ecfg.verify_dbr = cfg.verify_dbr;
    let system = ctx.build_system(prober, ecfg, ingress);
    let workload = ctx.workload();
    let oracle = ctx.sim.oracle();

    let probes_before = system.prober().counters().snapshot();
    let virtual_before = system.prober().clock().now_ms();
    let outcome = system
        .run_campaign(&workload, LoopConfig::default())
        .expect("campaign measurement panicked");
    // Oracle bookkeeping after the campaign: results come back in input
    // order, and oracle lookups neither probe nor advance virtual time,
    // so judging after the fact is identity-neutral.
    let (mut complete, mut sound, mut compared) = (0usize, 0usize, 0usize);
    for (&(dst, src), r) in workload.iter().zip(&outcome.results) {
        if !r.complete() {
            continue;
        }
        complete += 1;
        let Some(truth) = oracle.true_as_path(dst, src) else {
            continue;
        };
        compared += 1;
        let mut measured: Vec<_> = r.addrs().filter_map(|a| oracle.true_as_of(a)).collect();
        measured.dedup();
        if measured.iter().all(|a| truth.contains(a)) {
            sound += 1;
        }
    }
    let probes = system.prober().counters().snapshot().since(&probes_before);
    let campaign_virtual_ms = system.prober().clock().now_ms() - virtual_before;

    // Identity first: fingerprints before judgment.
    let snapshot = telemetry.metrics();
    let metrics_fingerprint = snapshot.fingerprint();
    let journal_fingerprint = telemetry.journal_fingerprint();
    let journal = telemetry.journal_records();
    let watchdog = telemetry.watchdog_flags();

    let attempted = workload.len();
    let frac = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let (p99_ms, max_ms) = snapshot
        .histogram("request.virtual_us")
        .map(|h| (h.quantile(0.99) as f64 / 1000.0, h.max() as f64 / 1000.0))
        .unwrap_or((0.0, 0.0));
    let mut derived: Vec<(String, f64)> = vec![
        ("accuracy".into(), frac(sound, compared)),
        ("audit.as_unsound".into(), (compared - sound) as f64),
        ("coverage".into(), frac(complete, attempted)),
        ("latency.p99_ms".into(), p99_ms),
        ("latency.max_ms".into(), max_ms),
        (
            "probes.per_revtr".into(),
            if attempted == 0 {
                0.0
            } else {
                probes.option_probes() as f64 / attempted as f64
            },
        ),
        ("requests".into(), attempted as f64),
        ("watchdog.flagged".into(), watchdog.len() as f64),
    ];
    let ss = system.stopset().stats();
    derived.extend([
        ("stopset.backward_hits".into(), ss.backward_hits as f64),
        ("stopset.backward_misses".into(), ss.backward_misses as f64),
        ("stopset.direct_skips".into(), ss.direct_skips as f64),
        ("stopset.forward_hits".into(), ss.forward_hits as f64),
        ("stopset.spoof_skips".into(), ss.spoof_skips as f64),
        ("stopset.vp_skips".into(), ss.vp_skips as f64),
        ("stopset.winner_hits".into(), ss.winner_hits as f64),
    ]);
    // Resource ledgers from the profiling arm, surfaced as `mem.*`
    // derived keys only after the identity was captured. On a build
    // without profiling these keys are simply absent and the memory
    // rules pass as "no data".
    let resources = telemetry.resources();
    let mut mem_total_hiwater = 0u64;
    for l in &resources.ledgers {
        mem_total_hiwater += l.hiwater;
        derived.push((format!("mem.{}.hiwater", l.name), l.hiwater as f64));
    }
    derived.push(("mem.total.hiwater".into(), mem_total_hiwater as f64));
    derived.push((
        "events_per_revtr".into(),
        frac(outcome.events as usize, attempted),
    ));
    derived.push((
        "bytes_per_revtr".into(),
        frac(probes.probe_bytes() as usize, attempted),
    ));
    derived.sort_by(|a, b| a.0.cmp(&b.0));

    let slo = cfg.policy.evaluate(&SloInput {
        snapshot: &snapshot,
        requests: &journal,
        derived: &derived,
    });
    // Judgment becomes metrics only after the identity was captured.
    slo.fire_into(&telemetry);

    MonitorReport {
        requests: attempted,
        loss: cfg.loss,
        budget: cfg.budget,
        metrics_fingerprint,
        journal_fingerprint,
        snapshot,
        journal,
        derived,
        slo,
        watchdog,
        watchdog_deadline_ms: cfg.watchdog_deadline_ms,
        campaign_virtual_ms,
        probes,
        inflight_peak: outcome.inflight_peak,
        cache: system.prober().cache().stats(),
        stopset: ss,
        route_computes: ctx.sim.route_computes(),
    }
}

/// Monitor the smoke campaign (tiny topology).
pub fn smoke_seeded(seed: u64, cfg: &MonitorConfig) -> MonitorReport {
    let mut scale = EvalScale::smoke();
    scale.seed = seed;
    run(SimConfig::tiny(), scale, cfg)
}

/// Monitor the standard campaign (paper-era topology).
pub fn standard_seeded(seed: u64, cfg: &MonitorConfig) -> MonitorReport {
    let mut scale = EvalScale::standard();
    scale.seed = seed;
    run(SimConfig::era_2020(), scale, cfg)
}

impl MonitorReport {
    /// The derived-values table.
    pub fn derived_table(&self) -> Table {
        let mut t = Table::new("Monitor: derived values", &["key", "value"]);
        for (k, v) in &self.derived {
            t.row(&[k.as_str(), &format!("{v:.4}")]);
        }
        t
    }

    /// The full SLO verdict table (every rule, pass or fail).
    pub fn verdict_table(&self) -> Table {
        let mut t = Table::new(
            "Monitor: SLO verdicts",
            &[
                "rule",
                "severity",
                "verdict",
                "value",
                "threshold",
                "detail",
            ],
        );
        for v in &self.slo.verdicts {
            t.row(&[
                v.rule.as_str(),
                v.severity.label(),
                if v.pass { "pass" } else { "FAIL" },
                &format!("{:.4}", v.value),
                &format!("{:.4}", v.threshold),
                v.detail.as_str(),
            ]);
        }
        t
    }

    /// The alert table (failing rules only).
    pub fn alert_table(&self) -> Table {
        let mut t = Table::new(
            "Monitor: alerts",
            &["rule", "severity", "value", "threshold", "detail"],
        );
        for v in self.slo.alerts() {
            t.row(&[
                v.rule.as_str(),
                v.severity.label(),
                &format!("{:.4}", v.value),
                &format!("{:.4}", v.threshold),
                v.detail.as_str(),
            ]);
        }
        t
    }

    /// The stuck-request watchdog table.
    pub fn watchdog_table(&self) -> Table {
        let mut t = Table::new(
            "Monitor: stuck-request watchdog",
            &[
                "src",
                "dst",
                "status",
                "virtual ms",
                "deadline ms",
                "stuck in",
                "since ms",
            ],
        );
        for f in &self.watchdog {
            t.row(&[
                f.src.to_string(),
                f.dst.to_string(),
                f.status.to_string(),
                format!("{:.1}", f.virtual_us as f64 / 1000.0),
                format!("{:.1}", f.deadline_us as f64 / 1000.0),
                f.stage.to_string(),
                format!("{:.1}", f.stage_t_us as f64 / 1000.0),
            ]);
        }
        t
    }

    /// Whether the run passed every SLO rule.
    pub fn is_clean(&self) -> bool {
        self.slo.is_clean()
    }

    /// Render the full monitor report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "monitor: {} requests (loss {:.2}, retry budget {}), {:.1} virtual s",
            self.requests,
            self.loss,
            self.budget,
            self.campaign_virtual_ms / 1000.0
        );
        // Byte-identical to the `metrics` report's fingerprint line: the
        // ci.sh neutrality gate diffs the two.
        let _ = writeln!(
            s,
            "fingerprints: metrics {:#018x}  journal {:#018x}  ({} journalled)",
            self.metrics_fingerprint,
            self.journal_fingerprint,
            self.journal.len()
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", self.derived_table().render());
        let _ = writeln!(s, "{}", self.verdict_table().render());
        if self.slo.alert_count() > 0 {
            let _ = writeln!(s, "{}", self.alert_table().render());
        }
        let _ = writeln!(
            s,
            "watchdog: {} flagged (deadline {:.0} virtual ms)",
            self.watchdog.len(),
            self.watchdog_deadline_ms
        );
        if !self.watchdog.is_empty() {
            let _ = writeln!(s, "{}", self.watchdog_table().render());
        }
        let _ = write!(
            s,
            "slo gate: {} ({} of {} rules firing)",
            if self.is_clean() { "PASS" } else { "FAIL" },
            self.slo.alert_count(),
            self.slo.verdicts.len()
        );
        s
    }

    /// Write the Chrome trace and Prometheus exposition under `dir`,
    /// returning their paths. Both files are byte-deterministic.
    pub fn save_exports(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let trace = dir.join("trace.json");
        std::fs::write(&trace, chrome_trace_json(&self.journal))?;
        let prom = dir.join("metrics.prom");
        std::fs::write(&prom, prometheus_text(&self.snapshot))?;
        Ok((trace, prom))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_smoke_monitor_is_quiet_and_deterministic() {
        let cfg = MonitorConfig::clean("smoke");
        let a = smoke_seeded(1, &cfg);
        let b = smoke_seeded(1, &cfg);
        assert_eq!(a.metrics_fingerprint, b.metrics_fingerprint);
        assert_eq!(a.journal_fingerprint, b.journal_fingerprint);
        assert_eq!(a.render(), b.render(), "report not byte-deterministic");
        assert_eq!(chrome_trace_json(&a.journal), chrome_trace_json(&b.journal));
        assert_eq!(prometheus_text(&a.snapshot), prometheus_text(&b.snapshot));

        assert!(
            a.is_clean(),
            "clean smoke run fired alerts:\n{}",
            a.render()
        );
        assert!(a.watchdog.is_empty(), "clean run flagged: {:?}", a.watchdog);
        assert!(a.render().contains("slo gate: PASS"));
    }

    #[test]
    fn faulted_smoke_monitor_fires_coverage_and_stuck_alerts() {
        let cfg = MonitorConfig::faulted("smoke", 0.3, 1);
        let r = smoke_seeded(1, &cfg);
        assert!(!r.is_clean(), "faulted run stayed clean:\n{}", r.render());
        let firing: Vec<&str> = r.slo.alerts().map(|v| v.rule.as_str()).collect();
        assert!(
            firing.contains(&"coverage-floor"),
            "coverage alert missing: {firing:?}\n{}",
            r.render()
        );
        assert!(
            firing.contains(&"stuck-requests"),
            "stuck-request alert missing: {firing:?}\n{}",
            r.render()
        );
        assert!(!r.watchdog.is_empty());
        // The alert counters landed in the registry, but only after the
        // fingerprint was taken.
        assert_ne!(r.metrics_fingerprint, 0);
        assert!(r.render().contains("slo gate: FAIL"));
    }

    /// Calibration helper (manual, `--ignored --nocapture`): prints the
    /// measurements the `baselines()` constants and the watchdog deadline
    /// are derived from, clean vs faulted, seeds {1, 7, 42}. Set
    /// `MONITOR_CALIBRATE_STANDARD=1` to measure the standard scale
    /// (release build recommended). This is step 1 of the baseline-update
    /// procedure in DESIGN.md §8.
    #[test]
    #[ignore = "manual calibration helper; see DESIGN.md §8"]
    fn calibrate_policy_baselines() {
        let standard = std::env::var("MONITOR_CALIBRATE_STANDARD").is_ok();
        let scale_name = if standard { "standard" } else { "smoke" };
        for seed in [1u64, 7, 42] {
            for (label, cfg) in [
                ("clean  ", MonitorConfig::clean(scale_name)),
                ("faulted", MonitorConfig::faulted(scale_name, 0.3, 1)),
            ] {
                let r = if standard {
                    standard_seeded(seed, &cfg)
                } else {
                    smoke_seeded(seed, &cfg)
                };
                let d = |key: &str| {
                    r.derived
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| *v)
                        .unwrap_or(0.0)
                };
                let rr_p99 = r
                    .snapshot
                    .histogram("stage.rr_step.virtual_us")
                    .map(|h| h.quantile(0.99))
                    .unwrap_or(0);
                println!(
                    "{scale_name} seed {seed:>2} {label}: coverage {:.4}  accuracy {:.4}  \
                     probes/revtr {:.2}  p99 {:.0} ms  max {:.0} ms  rr_step p99 {} us  flagged {}",
                    d("coverage"),
                    d("accuracy"),
                    d("probes.per_revtr"),
                    d("latency.p99_ms"),
                    d("latency.max_ms"),
                    rr_p99,
                    r.watchdog.len(),
                );
            }
        }
    }

    #[test]
    fn monitor_fingerprints_match_the_metrics_profile() {
        // The neutrality property behind the ci.sh gate: monitoring a
        // clean campaign reports the exact fingerprints `metrics` does.
        let m = smoke_seeded(1, &MonitorConfig::clean("smoke"));
        let p = crate::metrics::smoke_seeded(1);
        assert_eq!(m.metrics_fingerprint, p.metrics_fingerprint);
        assert_eq!(m.journal_fingerprint, p.journal_fingerprint);
        assert_eq!(m.journal.len(), p.journal.len());
    }
}
