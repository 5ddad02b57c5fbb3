//! The declarative SLO rule engine.
//!
//! A service-level objective here is a predicate over a campaign's
//! telemetry: the sorted [`MetricsSnapshot`], the sorted journal of
//! [`RequestRecord`]s, and a table of *derived* values the caller computes
//! outside the registry (coverage, oracle accuracy, watchdog flag counts —
//! anything that needs the simulator or the oracle). Rules are evaluated
//! over that immutable input and produce typed [`Verdict`]s; the failing
//! ones are the alerts.
//!
//! Two design rules keep the engine deterministic:
//!
//! 1. **Evaluation is a pure function of sorted inputs.** Every rolling
//!    window is defined over the journal's `(src, dst)`-sorted request
//!    order and each request's own virtual duration — never over arrival
//!    order or the global clock, both of which depend on worker
//!    interleaving. The same campaign yields the same verdicts at any
//!    worker count.
//! 2. **Alerts are fired *after* fingerprinting.** [`SloReport::fire_into`]
//!    writes `slo.alert.<rule>` counters into the registry so alerts are
//!    first-class metrics, but the monitor captures the campaign
//!    fingerprints first — judging a run must not change its identity.
//!
//! Policies can be built in code or parsed from a small TOML subset
//! (`[[rule]]` sections of `key = value` lines) so deployments can ship
//! threshold files without recompiling.

use crate::journal::RequestRecord;
use crate::registry::MetricsSnapshot;
use crate::Telemetry;

/// How bad a firing rule is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look; the campaign is still usable.
    Warning,
    /// The run violates a reproduction guarantee.
    Critical,
}

impl Severity {
    /// Lowercase label used in tables and TOML.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// The predicate of one SLO rule.
#[derive(Clone, Debug, PartialEq)]
pub enum RuleExpr {
    /// Counter `counter` must be `<= max`.
    CounterMax {
        /// Registry counter name.
        counter: String,
        /// Inclusive upper bound.
        max: u64,
    },
    /// Histogram `histogram` quantile `q` must be `<= max` (rule passes
    /// with a "no data" detail when the histogram was never recorded).
    QuantileMax {
        /// Registry histogram name.
        histogram: String,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Inclusive upper bound on the quantile estimate.
        max: u64,
    },
    /// Derived value `key` must be `>= min` (missing key ⇒ pass, "no data").
    DerivedMin {
        /// Key into the caller-supplied derived table.
        key: String,
        /// Inclusive lower bound.
        min: f64,
    },
    /// Derived value `key` must be `<= max` (missing key ⇒ pass, "no data").
    DerivedMax {
        /// Key into the caller-supplied derived table.
        key: String,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Memory-budget SLO: the derived value `key` (a byte reading such
    /// as `mem.probing.cache.hiwater`) must be `<= max_bytes` (missing
    /// key ⇒ pass, "no data" — runs without the profiler armed are not
    /// judged).
    MemCeiling {
        /// Key into the caller-supplied derived table (bytes).
        key: String,
        /// Inclusive byte ceiling.
        max_bytes: u64,
    },
    /// Capacity-headroom SLO: with the derived value `key` measured
    /// against a fixed `ceiling`, the headroom `1 - key/ceiling` must be
    /// `>= min_headroom` (missing key ⇒ pass, "no data").
    CapacityHeadroom {
        /// Key into the caller-supplied derived table.
        key: String,
        /// The capacity the reading is measured against (same unit).
        ceiling: u64,
        /// Minimum tolerated headroom fraction in `[0, 1]`.
        min_headroom: f64,
    },
    /// Burn-rate SLO over rolling virtual-time windows: walk the sorted
    /// request records, cutting a window whenever its summed request
    /// durations reach `window_ms` of virtual time; a request is *bad*
    /// when its end-to-end duration exceeds `slow_ms`. Each window burns
    /// `bad_fraction / budget` of the error budget; the rule fails when
    /// any window's burn rate exceeds `max_burn`.
    BurnRate {
        /// Virtual milliseconds of summed request duration per window.
        window_ms: f64,
        /// A request slower than this (virtual ms) is an error.
        slow_ms: f64,
        /// Tolerated error fraction per window (the SLO's error budget).
        budget: f64,
        /// Maximum tolerated burn rate (`bad_fraction / budget`).
        max_burn: f64,
    },
}

/// One named, severity-tagged SLO rule.
#[derive(Clone, Debug, PartialEq)]
pub struct SloRule {
    /// Rule name (alert counter suffix: `slo.alert.<name>`).
    pub name: String,
    /// Severity when firing.
    pub severity: Severity,
    /// The predicate.
    pub expr: RuleExpr,
}

/// An ordered set of SLO rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloPolicy {
    /// Rules, evaluated in order.
    pub rules: Vec<SloRule>,
}

/// Everything a policy is evaluated against.
#[derive(Clone, Copy, Debug)]
pub struct SloInput<'a> {
    /// The campaign's metrics snapshot (sorted names).
    pub snapshot: &'a MetricsSnapshot,
    /// Journal records sorted by `(src, dst)` — [`Telemetry::journal_records`]
    /// order. Burn-rate windows are cut over this order.
    pub requests: &'a [RequestRecord],
    /// Caller-derived `(key, value)` pairs, sorted by key.
    pub derived: &'a [(String, f64)],
}

impl SloInput<'_> {
    fn derived_value(&self, key: &str) -> Option<f64> {
        self.derived
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.derived[i].1)
    }
}

/// The outcome of evaluating one rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Rule name.
    pub rule: String,
    /// Rule severity.
    pub severity: Severity,
    /// Whether the rule held.
    pub pass: bool,
    /// The observed value the rule judged.
    pub value: f64,
    /// The threshold it was judged against.
    pub threshold: f64,
    /// Human-readable explanation (`"p99 of stage.rr_step.virtual_us"`,
    /// `"no data"`, ...).
    pub detail: String,
}

/// A failing [`Verdict`] — the typed alert a firing rule produces and
/// [`SloReport::fire_into`] records as a `slo.alert.<rule>` counter.
pub type Alert = Verdict;

/// All verdicts of one policy evaluation, in rule order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloReport {
    /// One verdict per rule, in policy order.
    pub verdicts: Vec<Verdict>,
}

impl SloReport {
    /// The failing verdicts (the alerts), in rule order.
    pub fn alerts(&self) -> impl Iterator<Item = &Verdict> {
        self.verdicts.iter().filter(|v| !v.pass)
    }

    /// Number of failing rules.
    pub fn alert_count(&self) -> usize {
        self.alerts().count()
    }

    /// Whether every rule held.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Fire the alerts into a telemetry handle as `slo.alert.<rule>`
    /// counters (plus `slo.rules_evaluated`). Call *after* capturing the
    /// campaign fingerprints: judging a run must not change its identity.
    pub fn fire_into(&self, tele: &Telemetry) {
        tele.counter_add("slo.rules_evaluated", self.verdicts.len() as u64);
        for v in self.alerts() {
            tele.counter_add_named(&format!("slo.alert.{}", v.rule), 1);
        }
    }
}

fn eval_rule(rule: &SloRule, input: &SloInput<'_>) -> Verdict {
    let (pass, value, threshold, detail) = match &rule.expr {
        RuleExpr::CounterMax { counter, max } => {
            let v = input.snapshot.counter(counter);
            (
                v <= *max,
                v as f64,
                *max as f64,
                format!("counter {counter}"),
            )
        }
        RuleExpr::QuantileMax { histogram, q, max } => match input.snapshot.histogram(histogram) {
            Some(h) => {
                let v = h.quantile(*q);
                (
                    v <= *max,
                    v as f64,
                    *max as f64,
                    format!("p{:.0} of {histogram}", q * 100.0),
                )
            }
            None => (true, 0.0, *max as f64, format!("no data ({histogram})")),
        },
        RuleExpr::DerivedMin { key, min } => match input.derived_value(key) {
            Some(v) => (v >= *min, v, *min, format!("derived {key} >= min")),
            None => (true, 0.0, *min, format!("no data ({key})")),
        },
        RuleExpr::DerivedMax { key, max } => match input.derived_value(key) {
            Some(v) => (v <= *max, v, *max, format!("derived {key} <= max")),
            None => (true, 0.0, *max, format!("no data ({key})")),
        },
        RuleExpr::MemCeiling { key, max_bytes } => match input.derived_value(key) {
            Some(v) => (
                v <= *max_bytes as f64,
                v,
                *max_bytes as f64,
                format!("bytes {key} <= ceiling"),
            ),
            None => (true, 0.0, *max_bytes as f64, format!("no data ({key})")),
        },
        RuleExpr::CapacityHeadroom {
            key,
            ceiling,
            min_headroom,
        } => match input.derived_value(key) {
            Some(v) => {
                let headroom = 1.0 - v / (*ceiling).max(1) as f64;
                (
                    headroom >= *min_headroom,
                    headroom,
                    *min_headroom,
                    format!("headroom of {key} against {ceiling}"),
                )
            }
            None => (true, 1.0, *min_headroom, format!("no data ({key})")),
        },
        RuleExpr::BurnRate {
            window_ms,
            slow_ms,
            budget,
            max_burn,
        } => {
            let (burn, windows) = max_window_burn(input.requests, *window_ms, *slow_ms, *budget);
            (
                burn <= *max_burn,
                burn,
                *max_burn,
                format!("max burn over {windows} window(s) of {window_ms} virtual ms"),
            )
        }
    };
    Verdict {
        rule: rule.name.clone(),
        severity: rule.severity,
        pass,
        value,
        threshold,
        detail,
    }
}

/// Worst burn rate over rolling windows of the sorted request sequence,
/// and the number of windows examined. Windows are cut by *summed request
/// duration* in the journal's sorted order, so the result is independent
/// of arrival order and worker count. Returns `(0.0, 0)` with no requests.
fn max_window_burn(
    requests: &[RequestRecord],
    window_ms: f64,
    slow_ms: f64,
    budget: f64,
) -> (f64, u32) {
    if requests.is_empty() || budget <= 0.0 {
        return (0.0, 0);
    }
    let window_us = (window_ms * 1000.0).max(1.0) as u64;
    let slow_us = (slow_ms * 1000.0) as u64;
    let mut worst = 0.0f64;
    let mut windows = 0u32;
    let (mut acc_us, mut n, mut bad) = (0u64, 0u64, 0u64);
    for r in requests {
        acc_us += r.virtual_us;
        n += 1;
        if r.virtual_us > slow_us {
            bad += 1;
        }
        if acc_us >= window_us {
            windows += 1;
            worst = worst.max((bad as f64 / n as f64) / budget);
            acc_us = 0;
            n = 0;
            bad = 0;
        }
    }
    if n > 0 {
        // The trailing partial window still counts: a burst of slow
        // requests at the tail of the sorted order must not hide below
        // the window boundary.
        windows += 1;
        worst = worst.max((bad as f64 / n as f64) / budget);
    }
    (worst, windows)
}

impl SloPolicy {
    /// Evaluate every rule, in order, against `input`.
    pub fn evaluate(&self, input: &SloInput<'_>) -> SloReport {
        SloReport {
            verdicts: self.rules.iter().map(|r| eval_rule(r, input)).collect(),
        }
    }

    /// Parse a policy from the TOML subset:
    ///
    /// ```toml
    /// [[rule]]
    /// name = "coverage-floor"
    /// severity = "critical"      # optional, default critical
    /// kind = "derived_min"       # counter_max | quantile_max |
    ///                            # derived_min | derived_max | burn_rate
    /// key = "coverage"
    /// min = 0.9
    /// ```
    ///
    /// Comments (`#`) and blank lines are ignored; values are bare numbers
    /// or double-quoted strings.
    pub fn parse_toml(text: &str) -> Result<SloPolicy, String> {
        let mut rules = Vec::new();
        let mut current: Option<Vec<(String, String)>> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[rule]]" {
                if let Some(kv) = current.take() {
                    rules.push(build_rule(&kv)?);
                }
                current = Some(Vec::new());
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", lineno + 1));
            };
            let Some(kv) = current.as_mut() else {
                return Err(format!(
                    "line {}: key outside a [[rule]] section",
                    lineno + 1
                ));
            };
            let val = v.trim().trim_matches('"').to_string();
            kv.push((k.trim().to_string(), val));
        }
        if let Some(kv) = current.take() {
            rules.push(build_rule(&kv)?);
        }
        Ok(SloPolicy { rules })
    }
}

fn build_rule(kv: &[(String, String)]) -> Result<SloRule, String> {
    let get = |key: &str| kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    let req = |key: &str| get(key).ok_or_else(|| format!("rule is missing `{key}`"));
    let num = |key: &str| -> Result<f64, String> {
        req(key)?
            .parse::<f64>()
            .map_err(|_| format!("`{key}` must be a number"))
    };
    let int = |key: &str| -> Result<u64, String> {
        req(key)?
            .parse::<u64>()
            .map_err(|_| format!("`{key}` must be an unsigned integer"))
    };
    let name = req("name")?.to_string();
    let severity = match get("severity").unwrap_or("critical") {
        "warning" => Severity::Warning,
        "critical" => Severity::Critical,
        other => return Err(format!("unknown severity {other:?}")),
    };
    let expr = match req("kind")? {
        "counter_max" => RuleExpr::CounterMax {
            counter: req("counter")?.to_string(),
            max: int("max")?,
        },
        "quantile_max" => RuleExpr::QuantileMax {
            histogram: req("histogram")?.to_string(),
            q: num("q")?,
            max: int("max")?,
        },
        "derived_min" => RuleExpr::DerivedMin {
            key: req("key")?.to_string(),
            min: num("min")?,
        },
        "derived_max" => RuleExpr::DerivedMax {
            key: req("key")?.to_string(),
            max: num("max")?,
        },
        "mem_ceiling" => RuleExpr::MemCeiling {
            key: req("key")?.to_string(),
            max_bytes: int("max_bytes")?,
        },
        "capacity_headroom" => RuleExpr::CapacityHeadroom {
            key: req("key")?.to_string(),
            ceiling: int("ceiling")?,
            min_headroom: num("min_headroom")?,
        },
        "burn_rate" => RuleExpr::BurnRate {
            window_ms: num("window_ms")?,
            slow_ms: num("slow_ms")?,
            budget: num("budget")?,
            max_burn: num("max_burn")?,
        },
        other => return Err(format!("unknown rule kind {other:?}")),
    };
    Ok(SloRule {
        name,
        severity,
        expr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn req(src: u32, dst: u32, virtual_us: u64) -> RequestRecord {
        RequestRecord::new(dst, src, "Complete", virtual_us)
    }

    fn derived(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = pairs.iter().map(|(k, x)| (k.to_string(), *x)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    #[test]
    fn counter_quantile_and_derived_rules_judge_correctly() {
        let reg = MetricsRegistry::new();
        reg.add("probing.fault_lost", 3);
        for v in [10u64, 20, 30, 4000] {
            reg.record("stage.rr_step.virtual_us", v);
        }
        let snap = reg.snapshot();
        let derived = derived(&[("coverage", 0.8)]);
        let policy = SloPolicy {
            rules: vec![
                SloRule {
                    name: "no-fault-loss".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::CounterMax {
                        counter: "probing.fault_lost".into(),
                        max: 0,
                    },
                },
                SloRule {
                    name: "rr-p50".into(),
                    severity: Severity::Warning,
                    expr: RuleExpr::QuantileMax {
                        histogram: "stage.rr_step.virtual_us".into(),
                        q: 0.5,
                        max: 100,
                    },
                },
                SloRule {
                    name: "coverage-floor".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::DerivedMin {
                        key: "coverage".into(),
                        min: 0.9,
                    },
                },
                SloRule {
                    name: "missing-data-passes".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::QuantileMax {
                        histogram: "nonexistent".into(),
                        q: 0.99,
                        max: 1,
                    },
                },
            ],
        };
        let report = policy.evaluate(&SloInput {
            snapshot: &snap,
            requests: &[],
            derived: &derived,
        });
        let pass: Vec<bool> = report.verdicts.iter().map(|v| v.pass).collect();
        assert_eq!(pass, vec![false, true, false, true]);
        assert_eq!(report.alert_count(), 2);
        assert!(!report.is_clean());
        assert!(report.verdicts[3].detail.contains("no data"));
    }

    #[test]
    fn burn_rate_windows_are_cut_by_virtual_time() {
        // 10 requests of 1 ms each, the last two slow: with 5 ms windows
        // the second window holds both slow requests (2/5 bad).
        let mut requests: Vec<RequestRecord> = (0..8).map(|i| req(1, i, 1_000)).collect();
        requests.push(req(1, 100, 9_000));
        requests.push(req(1, 101, 9_000));
        let rule = |max_burn: f64| SloRule {
            name: "slow-tail".into(),
            severity: Severity::Critical,
            expr: RuleExpr::BurnRate {
                window_ms: 5.0,
                slow_ms: 5.0,
                budget: 0.1,
                max_burn,
            },
        };
        let snap = MetricsSnapshot::default();
        let eval = |max_burn: f64| {
            SloPolicy {
                rules: vec![rule(max_burn)],
            }
            .evaluate(&SloInput {
                snapshot: &snap,
                requests: &requests,
                derived: &[],
            })
        };
        // Worst window: requests 5..=8 (1+1+1+9 ms ≥ 5 ms window) has 1/4
        // bad → burn 2.5; the tail window {9 ms} is 1/1 bad → burn 10.
        let strict = eval(5.0);
        assert!(!strict.verdicts[0].pass);
        assert!((strict.verdicts[0].value - 10.0).abs() < 1e-9);
        let lax = eval(10.0);
        assert!(lax.verdicts[0].pass);
        // Empty journal: trivially clean.
        let empty = SloPolicy {
            rules: vec![rule(0.0)],
        }
        .evaluate(&SloInput {
            snapshot: &snap,
            requests: &[],
            derived: &[],
        });
        assert!(empty.verdicts[0].pass);
    }

    #[test]
    fn burn_rate_is_request_order_independent_given_sorted_input() {
        // The engine sees the *sorted* journal; two differently-built
        // journals with the same records give identical burn rates.
        let mut a: Vec<RequestRecord> = (0..20).map(|i| req(1, i, (i as u64 + 1) * 500)).collect();
        let b = a.clone();
        a.sort_by_key(|r| (r.src, r.dst));
        let snap = MetricsSnapshot::default();
        let policy = SloPolicy {
            rules: vec![SloRule {
                name: "burn".into(),
                severity: Severity::Warning,
                expr: RuleExpr::BurnRate {
                    window_ms: 3.0,
                    slow_ms: 4.0,
                    budget: 0.2,
                    max_burn: 1.0,
                },
            }],
        };
        let va = policy.evaluate(&SloInput {
            snapshot: &snap,
            requests: &a,
            derived: &[],
        });
        let vb = policy.evaluate(&SloInput {
            snapshot: &snap,
            requests: &b,
            derived: &[],
        });
        assert_eq!(va, vb);
    }

    #[test]
    fn toml_round_trips_every_rule_kind() {
        let text = r#"
            # reproduction guardrails
            [[rule]]
            name = "no-unsound"
            kind = "derived_max"
            key = "audit.unsound"
            max = 0

            [[rule]]
            name = "coverage-floor"
            severity = "critical"
            kind = "derived_min"
            key = "coverage"
            min = 0.92

            [[rule]]
            name = "rr-p99"
            severity = "warning"
            kind = "quantile_max"
            histogram = "stage.rr_step.virtual_us"
            q = 0.99
            max = 12000000

            [[rule]]
            name = "queue-depth"
            kind = "counter_max"
            counter = "service.batch.campaigns"
            max = 10

            [[rule]]
            name = "latency-burn"
            kind = "burn_rate"
            window_ms = 60000
            slow_ms = 30000
            budget = 0.1
            max_burn = 2.0

            [[rule]]
            name = "cache-mem"
            kind = "mem_ceiling"
            key = "mem.probing.cache.hiwater"
            max_bytes = 8000000

            [[rule]]
            name = "queue-headroom"
            severity = "warning"
            kind = "capacity_headroom"
            key = "mem.engine.control_blocks.hiwater"
            ceiling = 1000000
            min_headroom = 0.5
        "#;
        let policy = SloPolicy::parse_toml(text).expect("parse");
        assert_eq!(policy.rules.len(), 7);
        assert_eq!(
            policy.rules[5].expr,
            RuleExpr::MemCeiling {
                key: "mem.probing.cache.hiwater".into(),
                max_bytes: 8_000_000,
            }
        );
        assert_eq!(
            policy.rules[6].expr,
            RuleExpr::CapacityHeadroom {
                key: "mem.engine.control_blocks.hiwater".into(),
                ceiling: 1_000_000,
                min_headroom: 0.5,
            }
        );
        assert_eq!(policy.rules[0].severity, Severity::Critical); // default
        assert_eq!(policy.rules[2].severity, Severity::Warning);
        assert_eq!(
            policy.rules[4].expr,
            RuleExpr::BurnRate {
                window_ms: 60000.0,
                slow_ms: 30000.0,
                budget: 0.1,
                max_burn: 2.0,
            }
        );
        // Errors are diagnosed.
        assert!(SloPolicy::parse_toml("name = \"x\"").is_err()); // outside section
        assert!(SloPolicy::parse_toml("[[rule]]\nname = \"x\"\nkind = \"bogus\"").is_err());
        assert!(SloPolicy::parse_toml("[[rule]]\nkind = \"counter_max\"").is_err());
        // no name
    }

    #[test]
    fn mem_ceiling_and_capacity_headroom_judge_bytes() {
        let snap = MetricsSnapshot::default();
        let derived = derived(&[
            ("mem.probing.cache.hiwater", 6_000_000.0),
            ("mem.engine.control_blocks.hiwater", 900_000.0),
        ]);
        let policy = SloPolicy {
            rules: vec![
                SloRule {
                    name: "cache-under-ceiling".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::MemCeiling {
                        key: "mem.probing.cache.hiwater".into(),
                        max_bytes: 8_000_000,
                    },
                },
                SloRule {
                    name: "cache-over-ceiling".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::MemCeiling {
                        key: "mem.probing.cache.hiwater".into(),
                        max_bytes: 5_000_000,
                    },
                },
                SloRule {
                    name: "queue-no-headroom".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::CapacityHeadroom {
                        key: "mem.engine.control_blocks.hiwater".into(),
                        ceiling: 1_000_000,
                        min_headroom: 0.5,
                    },
                },
                SloRule {
                    name: "queue-enough-headroom".into(),
                    severity: Severity::Warning,
                    expr: RuleExpr::CapacityHeadroom {
                        key: "mem.engine.control_blocks.hiwater".into(),
                        ceiling: 10_000_000,
                        min_headroom: 0.5,
                    },
                },
                // Profiler not armed: the key is absent and both kinds
                // must pass with "no data" rather than fire.
                SloRule {
                    name: "absent-mem".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::MemCeiling {
                        key: "mem.absent".into(),
                        max_bytes: 1,
                    },
                },
                SloRule {
                    name: "absent-headroom".into(),
                    severity: Severity::Critical,
                    expr: RuleExpr::CapacityHeadroom {
                        key: "mem.absent".into(),
                        ceiling: 1,
                        min_headroom: 0.99,
                    },
                },
            ],
        };
        let report = policy.evaluate(&SloInput {
            snapshot: &snap,
            requests: &[],
            derived: &derived,
        });
        let pass: Vec<bool> = report.verdicts.iter().map(|v| v.pass).collect();
        assert_eq!(pass, vec![true, false, false, true, true, true]);
        assert!((report.verdicts[2].value - 0.1).abs() < 1e-9, "headroom");
        assert!(report.verdicts[4].detail.contains("no data"));
        assert!(report.verdicts[5].detail.contains("no data"));
    }

    #[test]
    fn alerts_fire_into_the_registry_as_counters() {
        let tele = Telemetry::enabled();
        let before = tele.metrics_fingerprint();
        let report = SloReport {
            verdicts: vec![
                Verdict {
                    rule: "ok".into(),
                    severity: Severity::Warning,
                    pass: true,
                    value: 0.0,
                    threshold: 1.0,
                    detail: String::new(),
                },
                Verdict {
                    rule: "bad".into(),
                    severity: Severity::Critical,
                    pass: false,
                    value: 2.0,
                    threshold: 1.0,
                    detail: String::new(),
                },
            ],
        };
        report.fire_into(&tele);
        let snap = tele.metrics();
        assert_eq!(snap.counter("slo.rules_evaluated"), 2);
        assert_eq!(snap.counter("slo.alert.bad"), 1);
        assert_eq!(snap.counter("slo.alert.ok"), 0);
        assert_ne!(tele.metrics_fingerprint(), before, "alerts are metrics");
    }
}
