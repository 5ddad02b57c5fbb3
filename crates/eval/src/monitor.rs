//! The deterministic SLO monitor: judge a campaign against a declarative
//! policy, report the stuck-request watchdog, and export the trace/metrics
//! artifacts.
//!
//! This is the judgment layer over a [`CampaignRun`] (which `eval::metrics`
//! only *profiles*): the run's metrics and journal fingerprints were
//! captured before any judge saw it, so judging cannot change a campaign's
//! identity. Concretely:
//!
//! 1. derived values (coverage, oracle AS-soundness, probe budget per
//!    request, watchdog flag count) are computed *outside* the registry;
//! 2. the SLO policy is evaluated over the snapshot + sorted journal +
//!    derived table.
//!
//! Everything the monitor prints is a pure function of sorted inputs, so
//! the alert table and the export bytes are identical across reruns and
//! worker counts.

use crate::campaign::{CampaignRun, Scale};
use crate::render::Table;
use revtr::RevtrResult;
use revtr_netsim::{Addr, Sim};
use revtr_telemetry::{
    chrome_trace_json, prometheus_text, MetricsSnapshot, RequestRecord, RuleExpr, Severity,
    SloInput, SloPolicy, SloReport, SloRule, WatchdogFlag,
};
use std::path::{Path, PathBuf};

/// Extra probes-per-revtr headroom the scenario policy grants for the
/// Appx.-E verification mode: the re-probe of each RR-revealed chain costs
/// ~4.4 option probes per request at standard scale (severity-0 scenario
/// runs measure 11.1–11.6 against the clean 6.97–7.19), and the band would
/// otherwise flag the verification traffic itself.
const VERIFY_PROBE_ALLOWANCE: f64 = 4.5;

/// The default reproduction policy for a given scale: the paper-shaped
/// guardrails (coverage, soundness, probe budget, latency) phrased as
/// [`SloRule`]s over this repo's measured clean baselines.
pub fn default_policy(scale: Scale) -> SloPolicy {
    let b = scale.baselines();
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
            // the design capacity.
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
                    slow_ms: b.clean_deadline_ms,
                    budget: 0.02,
                    max_burn: 1.0,
                },
            ),
        ],
    }
}

/// The policy scenario campaigns (`Campaign::with_scenario`) are judged
/// by: the default policy recalibrated for the Appx.-E verification
/// overhead — without the bump an all-zero scenario would trip the probe
/// band purely from the extra verification traffic — plus one signal the
/// clean policy does not need, the campaign-wide verify mismatch count.
/// Route diversity alone produces a handful of mismatches per clean
/// campaign (1–4 at standard scale); a DBR-violating region drives the
/// count past the allowance.
pub fn scenario_policy(scale: Scale) -> SloPolicy {
    let mut policy = default_policy(scale);
    for rule in &mut policy.rules {
        if rule.name == "probe-budget-band" {
            if let RuleExpr::DerivedMax { max, .. } = &mut rule.expr {
                *max += VERIFY_PROBE_ALLOWANCE;
            }
        }
    }
    policy.rules.push(SloRule {
        name: "dbr-verify-mismatch".to_string(),
        severity: Severity::Warning,
        expr: RuleExpr::CounterMax {
            counter: "core.verify.dbr_mismatch".into(),
            max: 10,
        },
    });
    policy
}

fn frac(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Oracle AS-soundness of a set of results: the one scoring every judge
/// that quotes coverage or accuracy goes through.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleScore {
    /// Results that reached their source.
    pub complete: usize,
    /// Complete results the oracle has a true AS path for.
    pub compared: usize,
    /// Compared results whose every measured AS lies on the true path.
    pub sound: usize,
}

impl OracleScore {
    /// Score `((dst, src), result)` pairs. Oracle lookups neither probe
    /// nor advance virtual time, so scoring after the fact is
    /// identity-neutral.
    pub fn tally<'r>(
        sim: &Sim,
        measured: impl IntoIterator<Item = ((Addr, Addr), &'r RevtrResult)>,
    ) -> OracleScore {
        let oracle = sim.oracle();
        let mut score = OracleScore::default();
        for ((dst, src), r) in measured {
            if !r.complete() {
                continue;
            }
            score.complete += 1;
            let Some(truth) = oracle.true_as_path(dst, src) else {
                continue;
            };
            score.compared += 1;
            let mut ases: Vec<_> = r.addrs().filter_map(|a| oracle.true_as_of(a)).collect();
            ases.dedup();
            if ases.iter().all(|a| truth.contains(a)) {
                score.sound += 1;
            }
        }
        score
    }

    /// The score of a campaign run.
    pub fn of(run: &CampaignRun) -> OracleScore {
        OracleScore::tally(&run.ctx.sim, run.workload.iter().copied().zip(&run.results))
    }

    /// Complete results over `attempted` requests.
    pub fn coverage(&self, attempted: usize) -> f64 {
        frac(self.complete, attempted)
    }

    /// Sound results over compared ones.
    pub fn accuracy(&self) -> f64 {
        frac(self.sound, self.compared)
    }
}

/// Everything the monitor says about one campaign.
#[derive(Clone, Debug)]
pub struct MonitorReport {
    /// Requests attempted.
    pub requests: usize,
    /// Injected loss rate.
    pub loss: f64,
    /// Retry budget.
    pub budget: u32,
    /// Campaign metrics fingerprint.
    pub metrics_fingerprint: u64,
    /// Campaign journal fingerprint.
    pub journal_fingerprint: u64,
    /// The metrics snapshot (what the exports render).
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
}

/// Judge a campaign run against `policy`.
pub fn judge(run: &CampaignRun, policy: &SloPolicy) -> MonitorReport {
    let score = OracleScore::of(run);
    let attempted = run.workload.len();
    let (p99_ms, max_ms) = run
        .snapshot
        .histogram("request.virtual_us")
        .map(|h| (h.quantile(0.99) as f64 / 1000.0, h.max() as f64 / 1000.0))
        .unwrap_or((0.0, 0.0));
    let mut derived: Vec<(String, f64)> = vec![
        ("accuracy".into(), score.accuracy()),
        (
            "audit.as_unsound".into(),
            (score.compared - score.sound) as f64,
        ),
        ("coverage".into(), score.coverage(attempted)),
        ("latency.p99_ms".into(), p99_ms),
        ("latency.max_ms".into(), max_ms),
        (
            "probes.per_revtr".into(),
            frac(run.probes.option_probes() as usize, attempted),
        ),
        ("requests".into(), attempted as f64),
        ("watchdog.flagged".into(), run.watchdog.len() as f64),
    ];
    let ss = &run.stopset;
    derived.extend([
        ("stopset.backward_hits".into(), ss.backward_hits as f64),
        ("stopset.backward_misses".into(), ss.backward_misses as f64),
        ("stopset.direct_skips".into(), ss.direct_skips as f64),
        ("stopset.forward_hits".into(), ss.forward_hits as f64),
        ("stopset.spoof_skips".into(), ss.spoof_skips as f64),
        ("stopset.vp_skips".into(), ss.vp_skips as f64),
        ("stopset.winner_hits".into(), ss.winner_hits as f64),
    ]);
    // Resource ledgers from the profiling arm, surfaced as `mem.*` keys.
    let mut mem_total_hiwater = 0u64;
    for l in &run.resources.ledgers {
        mem_total_hiwater += l.hiwater;
        derived.push((format!("mem.{}.hiwater", l.name), l.hiwater as f64));
    }
    derived.push(("mem.total.hiwater".into(), mem_total_hiwater as f64));
    derived.push((
        "events_per_revtr".into(),
        frac(run.events as usize, attempted),
    ));
    derived.push((
        "bytes_per_revtr".into(),
        frac(run.probes.probe_bytes() as usize, attempted),
    ));
    derived.sort_by(|a, b| a.0.cmp(&b.0));

    let slo = policy.evaluate(&SloInput {
        snapshot: &run.snapshot,
        requests: &run.journal,
        derived: &derived,
    });

    MonitorReport {
        requests: attempted,
        loss: run.campaign.loss,
        budget: run.campaign.budget,
        metrics_fingerprint: run.metrics_fingerprint,
        journal_fingerprint: run.journal_fingerprint,
        snapshot: run.snapshot.clone(),
        journal: run.journal.clone(),
        derived,
        slo,
        watchdog: run.watchdog.clone(),
        watchdog_deadline_ms: run.campaign.watchdog_deadline_ms,
        campaign_virtual_ms: run.virtual_ms,
    }
}

impl MonitorReport {
    /// One derived value by key (0.0 when absent).
    pub fn value(&self, key: &str) -> f64 {
        self.derived
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

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
        // Byte-identical to the `metrics` report's fingerprint line.
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
    use crate::campaign::Campaign;

    #[test]
    fn clean_smoke_monitor_is_quiet_and_deterministic() {
        let policy = default_policy(Scale::Smoke);
        let a = judge(&Campaign::clean(Scale::Smoke, 1).run(), &policy);
        let b = judge(&Campaign::clean(Scale::Smoke, 1).run(), &policy);
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
        let run = Campaign::faulted(Scale::Smoke, 1, 0.3, 1).run();
        let r = judge(&run, &default_policy(Scale::Smoke));
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
        assert_ne!(r.metrics_fingerprint, 0);
        assert!(r.render().contains("slo gate: FAIL"));
    }

    /// Calibration helper (manual, `--ignored --nocapture`): prints the
    /// measurements the `Scale::baselines` constants and the watchdog
    /// deadlines are derived from, clean vs faulted, seeds {1, 7, 42}. Set
    /// `MONITOR_CALIBRATE_STANDARD=1` to measure the standard scale
    /// (release build recommended). This is step 1 of the baseline-update
    /// procedure in DESIGN.md §8.
    #[test]
    #[ignore = "manual calibration helper; see DESIGN.md §8"]
    fn calibrate_policy_baselines() {
        let scale = if std::env::var("MONITOR_CALIBRATE_STANDARD").is_ok() {
            Scale::Standard
        } else {
            Scale::Smoke
        };
        for seed in [1u64, 7, 42] {
            for (label, campaign) in [
                ("clean  ", Campaign::clean(scale, seed)),
                ("faulted", Campaign::faulted(scale, seed, 0.3, 1)),
            ] {
                let r = judge(&campaign.run(), &default_policy(scale));
                let d = |key: &str| r.value(key);
                let rr_p99 = r
                    .snapshot
                    .histogram("stage.rr_step.virtual_us")
                    .map(|h| h.quantile(0.99))
                    .unwrap_or(0);
                println!(
                    "{} seed {seed:>2} {label}: coverage {:.4}  accuracy {:.4}  \
                     probes/revtr {:.2}  p99 {:.0} ms  max {:.0} ms  rr_step p99 {} us  flagged {}",
                    scale.name(),
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
}
