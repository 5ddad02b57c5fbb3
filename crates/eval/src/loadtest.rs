//! Production traffic model: open-loop multi-tenant load against the
//! service's admission layer, judged for both protection and identity.
//!
//! `revtr-loadgen` offers a seed-pure arrival stream (steady, diurnal,
//! flash-crowd, or scan-abuse shaped); this module maps it onto the
//! simulated topology, replays it through
//! `RevtrService::run_open_loop` at each dispatch-worker arm {1, 4, 16},
//! and renders per-tenant goodput-vs-offered-load curves plus the
//! shed/degrade accounting. Three judgments compose:
//!
//! * **Determinism** (every pattern): measurement-result fingerprints,
//!   per-class shed/degrade counters, and the ladder-transition log must
//!   be bit-identical across the worker arms. Engine-side probe counts
//!   are deliberately *not* compared — cache-fill races make them
//!   schedule-dependent, which is exactly why the admission controller
//!   never consumes them. Route churn and per-packet load balancing are
//!   quiesced (see `quiesce`): they are the two schedule couplings the
//!   engine's worker-invariance contract excludes.
//! * **Steady-state SLO** (the `steady` pattern): the serial arm must
//!   pass the full [`monitor::default_policy`] — coverage, accuracy,
//!   probe band, latency burn — plus the loadgen extras (zero sheds,
//!   gold goodput, a quiescent ladder). Admission control that degrades
//!   a healthy service is not protection.
//! * **Must-fire** (the `flash-crowd` and `scan` patterns): overload has
//!   to shed — but only from the lowest class, with the top class
//!   holding ≥ 98% goodput, the ladder provably stepping down, serving
//!   degraded, and fully recovering by end of run.
//!
//! `revtr-cli loadtest` drives this and exits non-zero on any failed
//! judgment, so ci.sh uses it directly as the traffic-model gate.

use crate::campaign::Scale;
use crate::context::EvalContext;
use crate::monitor::{self, OracleScore};
use crate::render::Table;
use revtr::{EngineConfig, LoopConfig};
use revtr_loadgen::{
    generate, offered_histogram, Arrival, DestPick, Envelope, PriorityClass, TenantProfile,
    N_CLASSES,
};
use revtr_netsim::{Addr, SimConfig};
use revtr_probing::RetryPolicy;
use revtr_service::{
    AdmissionPlan, ClassPolicy, ClassReport, LadderConfig, LevelTransition, RateLimits,
    RevtrService, TimedRequest,
};
use revtr_telemetry::{
    chrome_trace_json, prometheus_text, MetricsSnapshot, RequestRecord, RuleExpr, Severity,
    SloInput, SloPolicy, SloReport, SloRule, Telemetry, TelemetryConfig,
};
use revtr_vpselect::Heuristics;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The traffic patterns `revtr-cli loadtest --pattern` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Every tenant at its base rate: the clean-service control. Must
    /// pass the full SLO policy with zero sheds and a quiescent ladder.
    Steady,
    /// Day/night sinusoids on the interactive tenants plus periodic scan
    /// bursts — shaped but within capacity (informational).
    Diurnal,
    /// A 10× viral event on the bronze portal mid-run: must shed bronze
    /// only, degrade, serve degraded, and fully recover.
    FlashCrowd,
    /// Scan abuse: the scanner tenant sweeps destinations in 8× square
    /// bursts under a small daily quota — bronze sheds (including quota
    /// sheds), gold/silver never do.
    Scan,
}

impl Pattern {
    /// All patterns, CLI order.
    pub const ALL: [Pattern; 4] = [
        Pattern::Steady,
        Pattern::Diurnal,
        Pattern::FlashCrowd,
        Pattern::Scan,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Steady => "steady",
            Pattern::Diurnal => "diurnal",
            Pattern::FlashCrowd => "flash-crowd",
            Pattern::Scan => "scan",
        }
    }

    /// Parse a CLI name.
    pub fn from_name(s: &str) -> Option<Pattern> {
        Pattern::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// Fraction of the run where the flash crowd switches on / off.
const FLASH_FROM: f64 = 0.3;
const FLASH_UNTIL: f64 = 0.5;

/// The four-tenant production mix for a pattern. Rates are requests per
/// virtual hour and are calibrated against [`plan`]: under `steady`
/// every class sits well inside its token rate (zero sheds, analytically
/// — the worst-case depletion probability across seeds is < 1e-6), while
/// `flash-crowd` pushes the bronze portal to 10× base, past even the
/// fully-boosted bronze rate, so rate sheds are guaranteed regardless of
/// topology or seed.
pub fn tenant_mix(pattern: Pattern, duration_hours: f64) -> Vec<TenantProfile> {
    let portal_envelope = match pattern {
        Pattern::Steady | Pattern::Scan => Envelope::Steady,
        Pattern::Diurnal => Envelope::Diurnal {
            amplitude: 0.6,
            period_hours: 12.0,
            phase_hours: 3.0,
        },
        Pattern::FlashCrowd => Envelope::FlashCrowd {
            from_hours: FLASH_FROM * duration_hours,
            until_hours: FLASH_UNTIL * duration_hours,
            multiplier: 10.0,
        },
    };
    let silver_envelope = match pattern {
        Pattern::Diurnal | Pattern::FlashCrowd => Envelope::Diurnal {
            amplitude: 0.5,
            period_hours: 12.0,
            phase_hours: 0.0,
        },
        _ => Envelope::Steady,
    };
    let (scanner_rate, scanner_envelope, scanner_quota) = match pattern {
        Pattern::Steady => (3.0, Envelope::Steady, None),
        Pattern::Diurnal | Pattern::FlashCrowd => (
            3.0,
            Envelope::ScanBursts {
                period_hours: 6.0,
                duty: 0.25,
                multiplier: 3.0,
            },
            None,
        ),
        Pattern::Scan => (
            8.0,
            Envelope::ScanBursts {
                period_hours: 4.0,
                duty: 0.25,
                multiplier: 8.0,
            },
            Some(60),
        ),
    };
    vec![
        TenantProfile {
            name: "platinum-api".into(),
            class: PriorityClass::Gold,
            offered_per_hour: 10.0,
            envelope: Envelope::Steady,
            dests: DestPick::Zipf { exponent: 0.4 },
            population: 4,
            daily_quota: None,
        },
        TenantProfile {
            name: "atlas-mapper".into(),
            class: PriorityClass::Silver,
            offered_per_hour: 16.0,
            envelope: silver_envelope,
            dests: DestPick::Zipf { exponent: 0.7 },
            population: 6,
            daily_quota: None,
        },
        TenantProfile {
            name: "public-portal".into(),
            class: PriorityClass::Bronze,
            offered_per_hour: 18.0,
            envelope: portal_envelope,
            dests: DestPick::Zipf { exponent: 1.1 },
            population: 24,
            daily_quota: None,
        },
        TenantProfile {
            name: "scanner".into(),
            class: PriorityClass::Bronze,
            offered_per_hour: scanner_rate,
            envelope: scanner_envelope,
            dests: DestPick::Sweep,
            population: 8,
            daily_quota: scanner_quota,
        },
    ]
}

/// The admission plan the loadtest runs: headroom above every steady
/// rate (gold 3.6×, silver 3×, bronze ~2.9× the [`tenant_mix`] base
/// loads) so the clean pattern never sheds, and a bronze per-level boost
/// small enough that a 10× flash crowd out-runs even level 3 — the
/// ladder stays engaged for the whole flash instead of oscillating.
pub fn plan() -> AdmissionPlan {
    AdmissionPlan {
        classes: vec![
            ClassPolicy {
                name: "gold",
                admit_per_hour: 36.0,
                burst: 12.0,
                queue_bound: 24,
                boost_per_level: 1.0,
            },
            ClassPolicy {
                name: "silver",
                admit_per_hour: 48.0,
                burst: 16.0,
                queue_bound: 24,
                boost_per_level: 1.0,
            },
            ClassPolicy {
                name: "bronze",
                admit_per_hour: 60.0,
                burst: 20.0,
                queue_bound: 24,
                boost_per_level: 0.5,
            },
        ],
        ladder: LadderConfig {
            shed_budget: 0.05,
            window_waves: 3,
            recover_waves: 2,
            max_level: 3,
        },
        wave: 32,
        refresh_sla_hours: Some(6.0),
    }
}

/// One loadtest invocation.
#[derive(Clone, Debug)]
pub struct LoadtestConfig {
    /// Traffic shape.
    pub pattern: Pattern,
    /// Stream length in virtual hours.
    pub duration_hours: f64,
    /// Dispatch-worker arms to run and compare.
    pub worker_arms: Vec<usize>,
}

impl LoadtestConfig {
    /// The default judgment shape: 18 virtual hours across worker arms
    /// {1, 4, 16}.
    pub fn new(pattern: Pattern) -> LoadtestConfig {
        LoadtestConfig {
            pattern,
            duration_hours: 18.0,
            worker_arms: vec![1, 4, 16],
        }
    }
}

/// What one worker arm produced — exactly the signals the determinism
/// contract compares.
#[derive(Clone, Debug)]
pub struct ArmSummary {
    /// Dispatch workers requested.
    pub workers: usize,
    /// FNV-1a over every per-arrival outcome: shed reason, or status +
    /// hop addresses + hop methods. Probe counts are excluded on
    /// purpose (schedule-dependent under parallel dispatch).
    pub results_fingerprint: u64,
    /// Per-class accounting.
    pub classes: Vec<ClassReport>,
    /// The ladder-transition log, wave order.
    pub transitions: Vec<LevelTransition>,
    /// Admission waves executed.
    pub waves: usize,
    /// SLA-driven atlas refreshes.
    pub atlas_refreshes: u64,
    /// Refreshes suppressed by the stale-atlas rung.
    pub stale_atlas_skips: u64,
}

/// One bucket of the goodput-vs-offered-load curve (serial arm).
#[derive(Clone, Copy, Debug)]
pub struct CurveRow {
    /// Bucket start, virtual hours.
    pub t_hours: f64,
    /// Arrivals offered per class this bucket.
    pub offered: [u64; N_CLASSES],
    /// Arrivals admitted (measured) per class this bucket.
    pub admitted: [u64; N_CLASSES],
}

/// Everything a loadtest run produced.
#[derive(Clone, Debug)]
pub struct LoadtestReport {
    /// Traffic shape.
    pub pattern: Pattern,
    /// Master seed.
    pub seed: u64,
    /// Scale the stream was mapped onto.
    pub scale: Scale,
    /// Stream length, virtual hours.
    pub duration_hours: f64,
    /// Arrivals offered (after topology mapping).
    pub offered: usize,
    /// One summary per worker arm, in `worker_arms` order.
    pub arms: Vec<ArmSummary>,
    /// Cross-arm determinism violations (empty = contract held).
    pub determinism_failures: Vec<String>,
    /// Pattern-specific must-fire/protection violations.
    pub gate_failures: Vec<String>,
    /// The steady pattern's SLO judgment (serial arm); `None` for the
    /// overload patterns, which are judged by must-fire instead.
    pub slo: Option<SloReport>,
    /// Serial-arm derived values, sorted by key.
    pub derived: Vec<(String, f64)>,
    /// Serial-arm goodput-vs-offered-load curve.
    pub curve: Vec<CurveRow>,
    /// Serial-arm metrics fingerprint (captured before alerts fired).
    pub metrics_fingerprint: u64,
    /// Serial-arm journal fingerprint.
    pub journal_fingerprint: u64,
    /// Serial-arm metrics snapshot (what the exports render).
    pub snapshot: MetricsSnapshot,
    /// Serial-arm journal records.
    pub journal: Vec<RequestRecord>,
    /// Serial-arm campaign virtual milliseconds.
    pub campaign_virtual_ms: f64,
}

/// The steady-state policy: the full default monitor policy plus the
/// loadgen extras — a clean service must shed nothing, hold gold at
/// ≥ 98% goodput, and keep the degradation ladder quiescent.
pub fn steady_policy(scale: Scale) -> SloPolicy {
    let mut policy = monitor::default_policy(scale);
    // Cache-warm recalibration, the same kind of adjustment
    // `monitor::scenario_policy` makes to the probe band: the monitor's
    // probe floor was measured on cache-bypassing survey campaigns, while
    // Zipf-shaped production traffic legitimately serves its
    // popular-destination repeats from the measurement cache and stop
    // sets. The floor still fires on a service that stops probing
    // entirely; it just no longer punishes cache hits.
    for r in &mut policy.rules {
        if r.name == "probe-budget-floor" {
            r.expr = RuleExpr::DerivedMin {
                key: "probes.per_revtr".into(),
                min: scale.baselines().probes_low_warm,
            };
        }
    }
    let rule = |name: &str, severity: Severity, expr: RuleExpr| SloRule {
        name: name.to_string(),
        severity,
        expr,
    };
    policy.rules.push(rule(
        "loadgen-shed-none",
        Severity::Critical,
        RuleExpr::DerivedMax {
            key: "loadgen.shed.total".into(),
            max: 0.0,
        },
    ));
    policy.rules.push(rule(
        "gold-goodput-floor",
        Severity::Critical,
        RuleExpr::DerivedMin {
            key: "loadgen.goodput.gold".into(),
            min: 0.98,
        },
    ));
    policy.rules.push(rule(
        "degrade-quiescent",
        Severity::Critical,
        RuleExpr::DerivedMax {
            key: "degrade.transitions".into(),
            max: 0.0,
        },
    ));
    policy
}

/// FNV-1a 64 step.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct ArmData {
    summary: ArmSummary,
    serial: Option<SerialData>,
}

/// Extras only the serial (workers = 1) arm computes: derived metrics,
/// the SLO judgment, the curve, and the export payloads.
struct SerialData {
    derived: Vec<(String, f64)>,
    slo: Option<SloReport>,
    curve: Vec<CurveRow>,
    metrics_fingerprint: u64,
    journal_fingerprint: u64,
    snapshot: MetricsSnapshot,
    journal: Vec<RequestRecord>,
    campaign_virtual_ms: f64,
}

/// Buckets of the goodput curve.
const CURVE_BUCKETS: usize = 12;

#[allow(clippy::too_many_lines)]
fn run_arm(
    scale: Scale,
    seed: u64,
    cfg: &LoadtestConfig,
    workers: usize,
    judge_slo: bool,
) -> ArmData {
    let ctx = EvalContext::new(quiesce(scale.sim_config()), scale.eval_scale(seed));
    let telemetry = Telemetry::with_config(TelemetryConfig {
        watchdog_deadline_ms: Some(scale.baselines().clean_deadline_ms),
        ..TelemetryConfig::default()
    });
    ctx.sim.set_telemetry(telemetry.clone());
    let prober = ctx
        .prober()
        .with_retry_policy(RetryPolicy::uniform(1))
        .with_telemetry(telemetry.clone());
    let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
    let system = ctx.build_system(prober, EngineConfig::revtr2(), ingress);
    let service = RevtrService::new(system);

    // Tenant registration: every tenant gets every source (its simulated
    // users are spread across them), in profile × source order so the
    // bootstrap probe sequence is identical at every arm.
    let profiles = tenant_mix(cfg.pattern, cfg.duration_hours);
    let sources = ctx.sources();
    let mut keys = Vec::with_capacity(profiles.len());
    for p in &profiles {
        let key = service.add_user(
            &p.name,
            RateLimits {
                max_parallel: 1_000_000,
                max_per_day: p.daily_quota.unwrap_or(RateLimits::default().max_per_day),
            },
        );
        for &s in &sources {
            service
                .add_source(key, s)
                .expect("loadtest source bootstrap failed");
        }
        keys.push(key);
    }

    // Destination rank space: one responsive host per sampled prefix,
    // most-popular-first in prefix order (deterministic per seed).
    let pool: Vec<Addr> = ctx
        .sampled_prefixes()
        .into_iter()
        .filter_map(|p| ctx.responsive_dest_in(p))
        .collect();
    assert!(!pool.is_empty(), "no responsive destinations at this scale");

    // The seed-pure arrival stream, mapped onto the topology. Arrivals
    // whose destination collides with the chosen source are dropped —
    // identically at every arm, since the stream is a pure function of
    // (profiles, pool size, duration, seed).
    let mut kept: Vec<Arrival> = Vec::new();
    let mut requests: Vec<TimedRequest> = Vec::new();
    for a in generate(&profiles, pool.len(), cfg.duration_hours, seed) {
        let dst = pool[a.dst_rank % pool.len()];
        let src = sources[(a.user as usize) % sources.len()];
        if dst == src {
            continue;
        }
        requests.push(TimedRequest {
            vtime_ms: a.vtime_ms,
            tenant: a.tenant,
            class: a.class.index(),
            dst,
            src,
        });
        kept.push(a);
    }

    let lc = LoopConfig { workers };
    let probes_before = service.system().prober().counters().snapshot();
    let virtual_before = service.system().prober().clock().now_ms();
    let outcome = service
        .run_open_loop(&keys, &requests, &plan(), lc)
        .expect("open-loop run failed");
    let probes = service
        .system()
        .prober()
        .counters()
        .snapshot()
        .since(&probes_before);
    let campaign_virtual_ms = service.system().prober().clock().now_ms() - virtual_before;

    // The determinism fingerprint: per-arrival outcome identity only.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, (r, s)) in outcome.results.iter().zip(&outcome.sheds).enumerate() {
        use std::fmt::Write as _;
        let mut line = String::new();
        match (r, s) {
            (Some(r), _) => {
                let _ = write!(line, "{i}|{:?}|", r.status);
                for hop in &r.hops {
                    let _ = write!(line, "{:?}/{:?};", hop.addr, hop.method);
                }
            }
            (None, Some(reason)) => {
                let _ = write!(line, "{i}|shed:{}", reason.label());
            }
            (None, None) => {
                let _ = write!(line, "{i}|none");
            }
        }
        h = fnv(h, line.as_bytes());
    }

    let serial = (workers == 1).then(|| {
        // Oracle bookkeeping, monitor-style: results come back aligned
        // with the stream, oracle lookups are probe-free.
        let score = OracleScore::tally(
            &ctx.sim,
            requests
                .iter()
                .zip(&outcome.results)
                .filter_map(|(req, r)| Some(((req.dst, req.src), r.as_ref()?))),
        );

        // Identity first: fingerprints before judgment.
        let snapshot = telemetry.metrics();
        let metrics_fingerprint = snapshot.fingerprint();
        let journal_fingerprint = telemetry.journal_fingerprint();
        let journal = telemetry.journal_records();
        let watchdog = telemetry.watchdog_flags();

        let admitted: u64 = outcome.classes.iter().map(|c| c.admitted).sum();
        let shed: u64 = outcome.classes.iter().map(|c| c.shed_total()).sum();
        let (p99_ms, max_ms) = snapshot
            .histogram("request.virtual_us")
            .map(|h| (h.quantile(0.99) as f64 / 1000.0, h.max() as f64 / 1000.0))
            .unwrap_or((0.0, 0.0));
        let mut derived: Vec<(String, f64)> = vec![
            ("accuracy".into(), score.accuracy()),
            (
                "audit.as_unsound".into(),
                (score.compared - score.sound) as f64,
            ),
            ("coverage".into(), score.coverage(admitted as usize)),
            ("latency.p99_ms".into(), p99_ms),
            ("latency.max_ms".into(), max_ms),
            (
                "probes.per_revtr".into(),
                if admitted == 0 {
                    0.0
                } else {
                    probes.option_probes() as f64 / admitted as f64
                },
            ),
            ("requests".into(), admitted as f64),
            ("loadgen.offered".into(), requests.len() as f64),
            ("loadgen.shed.total".into(), shed as f64),
            (
                "degrade.transitions".into(),
                outcome.transitions.len() as f64,
            ),
            (
                "degrade.atlas_refreshes".into(),
                outcome.atlas_refreshes as f64,
            ),
            (
                "degrade.stale_atlas_skips".into(),
                outcome.stale_atlas_skips as f64,
            ),
            ("watchdog.flagged".into(), watchdog.len() as f64),
        ];
        for c in &outcome.classes {
            derived.push((format!("loadgen.goodput.{}", c.name), c.goodput_ratio()));
            derived.push((format!("loadgen.shed.{}", c.name), c.shed_total() as f64));
            derived.push((
                format!("degrade.final_level.{}", c.name),
                f64::from(c.final_level),
            ));
        }
        derived.sort_by(|a, b| a.0.cmp(&b.0));

        let slo = judge_slo.then(|| {
            let report = steady_policy(scale).evaluate(&SloInput {
                snapshot: &snapshot,
                requests: &journal,
                derived: &derived,
            });
            // Judgment becomes metrics only after identity was captured.
            report.fire_into(&telemetry);
            report
        });

        // The goodput-vs-offered-load curve over time buckets.
        let offered_rows = offered_histogram(&kept, cfg.duration_hours, CURVE_BUCKETS);
        let mut admitted_rows = vec![[0u64; N_CLASSES]; CURVE_BUCKETS];
        let span_ms = (cfg.duration_hours * 3_600_000.0).max(1e-9);
        for (a, s) in kept.iter().zip(&outcome.sheds) {
            if s.is_none() {
                let b = ((a.vtime_ms / span_ms) * CURVE_BUCKETS as f64) as usize;
                admitted_rows[b.min(CURVE_BUCKETS - 1)][a.class.index()] += 1;
            }
        }
        let curve = offered_rows
            .into_iter()
            .zip(admitted_rows)
            .enumerate()
            .map(|(b, (offered, admitted))| CurveRow {
                t_hours: cfg.duration_hours * b as f64 / CURVE_BUCKETS as f64,
                offered,
                admitted,
            })
            .collect();

        SerialData {
            derived,
            slo,
            curve,
            metrics_fingerprint,
            journal_fingerprint,
            snapshot,
            journal,
            campaign_virtual_ms,
        }
    });

    ArmData {
        summary: ArmSummary {
            workers,
            results_fingerprint: h,
            classes: outcome.classes,
            transitions: outcome.transitions,
            waves: outcome.waves,
            atlas_refreshes: outcome.atlas_refreshes,
            stale_atlas_skips: outcome.stale_atlas_skips,
        },
        serial,
    }
}

/// Run the loadtest: every worker arm, the determinism comparison, and
/// the pattern's judgment.
pub fn run(scale: Scale, seed: u64, cfg: &LoadtestConfig) -> LoadtestReport {
    assert!(
        !cfg.worker_arms.is_empty() && cfg.worker_arms[0] == 1,
        "worker_arms must start with the serial arm"
    );
    let judge_slo = cfg.pattern == Pattern::Steady;
    let mut arms: Vec<ArmSummary> = Vec::new();
    let mut serial: Option<SerialData> = None;
    let mut offered = 0usize;
    for &w in &cfg.worker_arms {
        let data = run_arm(scale, seed, cfg, w, judge_slo);
        if let Some(s) = data.serial {
            offered = data
                .summary
                .classes
                .iter()
                .map(|c| c.offered as usize)
                .sum();
            serial = Some(s);
        }
        arms.push(data.summary);
    }
    let serial = serial.expect("serial arm ran");

    // Determinism contract: arrival-side and result-side identity must
    // be invariant to the worker count.
    let mut determinism_failures = Vec::new();
    let first = &arms[0];
    for a in &arms[1..] {
        if a.results_fingerprint != first.results_fingerprint {
            determinism_failures.push(format!(
                "results fingerprint diverged: w1 {:#018x} vs w{} {:#018x}",
                first.results_fingerprint, a.workers, a.results_fingerprint
            ));
        }
        if a.transitions != first.transitions {
            determinism_failures.push(format!(
                "ladder transitions diverged at w{} ({} vs {} moves)",
                a.workers,
                a.transitions.len(),
                first.transitions.len()
            ));
        }
        if a.classes != first.classes {
            determinism_failures.push(format!(
                "per-class shed/degrade accounting diverged at w{}",
                a.workers
            ));
        }
    }

    // Pattern judgment (on the serial arm's accounting — all arms are
    // identical once the determinism check holds).
    let mut gate_failures = Vec::new();
    let class = |name: &str| {
        first
            .classes
            .iter()
            .find(|c| c.name == name)
            .cloned()
            .unwrap_or_default()
    };
    let gold = class("gold");
    let silver = class("silver");
    let bronze = class("bronze");
    match cfg.pattern {
        Pattern::Steady => {
            if let Some(slo) = &serial.slo {
                for v in slo.alerts() {
                    gate_failures.push(format!(
                        "slo rule {} fired (value {:.4}, threshold {:.4})",
                        v.rule, v.value, v.threshold
                    ));
                }
            }
        }
        Pattern::FlashCrowd | Pattern::Scan => {
            if bronze.shed_total() == 0 {
                gate_failures.push("overload never shed the bronze class".into());
            }
            if gold.shed_total() != 0 {
                gate_failures.push(format!("gold shed {} requests", gold.shed_total()));
            }
            if silver.shed_total() != 0 {
                gate_failures.push(format!("silver shed {} requests", silver.shed_total()));
            }
            if gold.goodput_ratio() < 0.98 {
                gate_failures.push(format!(
                    "gold goodput {:.4} below the 0.98 floor",
                    gold.goodput_ratio()
                ));
            }
            if first.transitions.iter().any(|t| t.class != 2) {
                gate_failures.push("a class other than bronze moved on the ladder".into());
            }
            if cfg.pattern == Pattern::FlashCrowd {
                if bronze.stepdowns == 0 {
                    gate_failures.push("flash crowd never engaged the ladder".into());
                }
                if bronze.max_level < 2 {
                    gate_failures.push("ladder never reached the cache-only rung (level 2)".into());
                }
                if bronze.served_by_level[1..].iter().sum::<u64>() == 0 {
                    gate_failures.push("no request was served degraded".into());
                }
                if bronze.recoveries == 0 {
                    gate_failures.push("ladder never recovered".into());
                }
                if bronze.final_level != 0 {
                    gate_failures.push(format!(
                        "bronze ended at level {} (expected full recovery)",
                        bronze.final_level
                    ));
                }
            }
            if cfg.pattern == Pattern::Scan && bronze.shed_quota == 0 {
                gate_failures.push("scan abuse never tripped the daily quota".into());
            }
        }
        Pattern::Diurnal => {}
    }

    LoadtestReport {
        pattern: cfg.pattern,
        seed,
        scale,
        duration_hours: cfg.duration_hours,
        offered,
        arms,
        determinism_failures,
        gate_failures,
        slo: serial.slo,
        derived: serial.derived,
        curve: serial.curve,
        metrics_fingerprint: serial.metrics_fingerprint,
        journal_fingerprint: serial.journal_fingerprint,
        snapshot: serial.snapshot,
        journal: serial.journal,
        campaign_virtual_ms: serial.campaign_virtual_ms,
    }
}

/// Route churn and per-packet load balancing must be off for the
/// loadtest — the two schedule couplings the engine's worker-invariance
/// contract excludes (and that the metamorphic suite's own determinism
/// arms disable for the same reasons). Churn is cross-request coupling
/// through the globally *flushed* clock, and flush points are a function
/// of the dispatch schedule. Load-balancing routers hash the per-probe
/// nonce, and nonces come from one shared counter, so reply paths would
/// depend on cross-task probe interleaving, which under a pool is up to
/// the OS. The admission layer is what this harness judges; route
/// dynamics have their own studies.
fn quiesce(mut base: SimConfig) -> SimConfig {
    base.behavior.churn_per_hour = 0.0;
    base.behavior.router_load_balancer = 0.0;
    base
}

impl LoadtestReport {
    /// Whether every judgment passed.
    pub fn pass(&self) -> bool {
        self.determinism_failures.is_empty()
            && self.gate_failures.is_empty()
            && self.slo.as_ref().is_none_or(|s| s.is_clean())
    }

    /// Per-class accounting table (serial arm).
    pub fn class_table(&self) -> Table {
        let mut t = Table::new(
            "Loadtest: admission classes",
            &[
                "class",
                "offered",
                "admitted",
                "complete",
                "shed rate",
                "shed queue",
                "shed quota",
                "goodput",
                "stepdowns",
                "recoveries",
                "max lvl",
                "final lvl",
            ],
        );
        for c in &self.arms[0].classes {
            t.row(&[
                c.name.clone(),
                c.offered.to_string(),
                c.admitted.to_string(),
                c.complete.to_string(),
                c.shed_rate.to_string(),
                c.shed_queue.to_string(),
                c.shed_quota.to_string(),
                format!("{:.4}", c.goodput_ratio()),
                c.stepdowns.to_string(),
                c.recoveries.to_string(),
                c.max_level.to_string(),
                c.final_level.to_string(),
            ]);
        }
        t
    }

    /// Worker-arm comparison table.
    pub fn arm_table(&self) -> Table {
        let mut t = Table::new(
            "Loadtest: dispatch-worker arms",
            &[
                "workers",
                "results fingerprint",
                "shed",
                "transitions",
                "waves",
            ],
        );
        for a in &self.arms {
            t.row(&[
                a.workers.to_string(),
                format!("{:#018x}", a.results_fingerprint),
                a.classes
                    .iter()
                    .map(|c| c.shed_total())
                    .sum::<u64>()
                    .to_string(),
                a.transitions.len().to_string(),
                a.waves.to_string(),
            ]);
        }
        t
    }

    /// The goodput-vs-offered-load curve as a table.
    pub fn curve_table(&self) -> Table {
        let mut t = Table::new(
            "Loadtest: goodput vs offered load",
            &[
                "t (h)",
                "gold off",
                "gold adm",
                "silver off",
                "silver adm",
                "bronze off",
                "bronze adm",
            ],
        );
        for r in &self.curve {
            t.row(&[
                format!("{:.1}", r.t_hours),
                r.offered[0].to_string(),
                r.admitted[0].to_string(),
                r.offered[1].to_string(),
                r.admitted[1].to_string(),
                r.offered[2].to_string(),
                r.admitted[2].to_string(),
            ]);
        }
        t
    }

    /// The derived-values table (serial arm).
    pub fn derived_table(&self) -> Table {
        let mut t = Table::new("Loadtest: derived values", &["key", "value"]);
        for (k, v) in &self.derived {
            t.row(&[k.as_str(), &format!("{v:.4}")]);
        }
        t
    }

    /// Render the full report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "loadtest: pattern {} seed {} scale {} ({:.0} virtual h offered, {} arrivals), {:.1} virtual s measured",
            self.pattern.name(),
            self.seed,
            self.scale.name(),
            self.duration_hours,
            self.offered,
            self.campaign_virtual_ms / 1000.0
        );
        let _ = writeln!(
            s,
            "fingerprints: metrics {:#018x}  journal {:#018x}  ({} journalled)",
            self.metrics_fingerprint,
            self.journal_fingerprint,
            self.journal.len()
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", self.class_table().render());
        let _ = writeln!(s, "{}", self.arm_table().render());
        let _ = writeln!(s, "{}", self.curve_table().render());
        let _ = writeln!(s, "{}", self.derived_table().render());
        if let Some(slo) = &self.slo {
            let mut t = Table::new(
                "Loadtest: steady-state SLO verdicts",
                &["rule", "severity", "verdict", "value", "threshold"],
            );
            for v in &slo.verdicts {
                t.row(&[
                    v.rule.as_str(),
                    v.severity.label(),
                    if v.pass { "pass" } else { "FAIL" },
                    &format!("{:.4}", v.value),
                    &format!("{:.4}", v.threshold),
                ]);
            }
            let _ = writeln!(s, "{}", t.render());
        }
        for f in &self.determinism_failures {
            let _ = writeln!(s, "determinism: {f}");
        }
        for f in &self.gate_failures {
            let _ = writeln!(s, "gate: {f}");
        }
        let _ = write!(
            s,
            "loadtest gate: {} ({} determinism, {} judgment failures)",
            if self.pass() { "PASS" } else { "FAIL" },
            self.determinism_failures.len(),
            self.gate_failures.len()
        );
        s
    }

    /// Write the Chrome trace, Prometheus exposition, and curve TSV
    /// under `dir` (byte-deterministic, like the monitor's exports).
    pub fn save_exports(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let trace = dir.join("trace.json");
        std::fs::write(&trace, chrome_trace_json(&self.journal))?;
        let prom = dir.join("metrics.prom");
        std::fs::write(&prom, prometheus_text(&self.snapshot))?;
        self.curve_table().save_tsv(dir, "goodput_curve")?;
        Ok(vec![trace, prom, dir.join("goodput_curve.tsv")])
    }
}
