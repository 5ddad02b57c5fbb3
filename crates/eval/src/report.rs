//! `revtr-cli report` — one campaign, every view of it: what its requests
//! did, where the virtual time, bytes and probes went, and whether the run
//! meets its SLO policy.
//!
//! A [`Report`] borrows a [`CampaignRun`] and computes two things of its
//! own: the [`derived`] values (coverage, oracle AS-soundness, probe
//! budget, byte ledgers — everything outside the registry) and the policy
//! verdicts over them. Its sections, in render order:
//!
//! 1. **requests** — outcome tallies and end-to-end virtual latency;
//! 2. **stages** — per stitching stage: span count, virtual p50/p99, probe,
//!    packet, retry and loss deltas, and the stage's own exit fields;
//! 3. **cache** — measurement-cache effectiveness and route memoisation;
//! 4. **counters** — every probing/service/fault counter and histogram;
//! 5. **span tree** of the first journalled request;
//! 6. **bytes** — each subsystem's ledger, current and high-water, with
//!    its share of the campaign-wide total;
//! 7. **cost stacks** — per-(stage, phase) inclusive virtual time,
//!    events, cache bytes and probe bytes, ranked by virtual time;
//! 8. **headroom** against the policy's memory ceilings, and **skew** of
//!    the measurement cache's shard occupancy;
//! 9. **derived values**, **SLO verdicts** (alerts), and the stuck-request
//!    **watchdog**.
//!
//! Every number is a pure function of the campaign's fields: the run's
//! fingerprints were captured before any judge saw it, readings are taken
//! at deterministic wave barriers and read back sorted, so the report and
//! its exports are byte-identical across reruns and worker counts.
//! `revtr-cli report` exits 1 when a rule fires.

use crate::campaign::{CampaignRun, Scale};
use crate::render::Table;
use revtr::RevtrResult;
use revtr_netsim::{shard_skew, Addr, Sim};
use revtr_probing::{LAST_LINK_ENTRY_BYTES, RR_ENTRY_BYTES};
use revtr_telemetry::{
    chrome_trace_json, flamegraph_text, prometheus_text, ProfileMetric, ProfileStack, RuleExpr,
    Severity, SloInput, SloPolicy, SloReport, SloRule,
};
use std::fmt::Write as _;
use std::path::Path;

/// Canonical rendering order for the stitching stages instrumented in
/// `revtr::system` (outer stages first, then the `rr_step` sub-stages).
const STAGES: [&str; 8] = [
    "destination_probe",
    "atlas_intersection",
    "rr_step",
    "rr_direct",
    "rr_spoofed",
    "rr_verify",
    "ts_step",
    "assume_symmetry",
];

/// How many cost stacks the rendered top-k table shows.
const TOP_K_STACKS: usize = 12;

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
            // Coverage must stay within 5% of the clean baseline.
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
            // a closed-loop campaign, which never queues).
            rule(
                "queue-depth-max",
                Severity::Warning,
                RuleExpr::QuantileMax {
                    histogram: "service.batch.queue_depth".into(),
                    q: 1.0,
                    max: 64,
                },
            ),
            // Memory ceiling on the campaign-wide ledger high-water total.
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

fn frac(n: u64, d: usize) -> f64 {
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
        frac(self.complete as u64, attempted)
    }

    /// Sound results over compared ones.
    pub fn accuracy(&self) -> f64 {
        frac(self.sound as u64, self.compared)
    }
}

/// The derived values of a run, sorted by key: what the SLO rules judge
/// that the registry cannot hold (oracle scores, per-request ratios,
/// watchdog flags, ledger high-waters as `mem.<ledger>.hiwater`). A
/// closed-loop campaign adds its stop-set tallies and unit costs, an
/// open-loop one its admission accounting (`loadgen.*`, `degrade.*`).
pub fn derived(run: &CampaignRun) -> Vec<(String, f64)> {
    let score = OracleScore::of(run);
    let attempted = run.workload.len();
    let (p99_ms, max_ms) = run
        .snapshot
        .histogram("request.virtual_us")
        .map(|h| (h.quantile(0.99) as f64 / 1000.0, h.max() as f64 / 1000.0))
        .unwrap_or((0.0, 0.0));
    let mut d: Vec<(String, f64)> = vec![
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
            frac(run.probes.option_probes(), attempted),
        ),
        ("requests".into(), attempted as f64),
        ("watchdog.flagged".into(), run.watchdog.len() as f64),
    ];
    for l in &run.resources.ledgers {
        d.push((format!("mem.{}.hiwater", l.name), l.hiwater as f64));
    }
    d.push(("mem.total.hiwater".into(), total_hiwater(run) as f64));
    match &run.open_loop {
        None => {
            let ss = &run.stopset;
            d.extend([
                ("stopset.backward_hits".into(), ss.backward_hits as f64),
                ("stopset.backward_misses".into(), ss.backward_misses as f64),
                ("stopset.direct_skips".into(), ss.direct_skips as f64),
                ("stopset.forward_hits".into(), ss.forward_hits as f64),
                ("stopset.spoof_skips".into(), ss.spoof_skips as f64),
                ("stopset.winner_hits".into(), ss.winner_hits as f64),
                ("events_per_revtr".into(), frac(run.events, attempted)),
                (
                    "bytes_per_revtr".into(),
                    frac(run.probes.probe_bytes(), attempted),
                ),
            ]);
        }
        Some(o) => {
            let shed: u64 = o.classes.iter().map(|c| c.shed_total()).sum();
            d.extend([
                ("loadgen.offered".into(), o.arrivals.len() as f64),
                ("loadgen.shed.total".into(), shed as f64),
                ("degrade.transitions".into(), o.transitions.len() as f64),
                ("degrade.atlas_refreshes".into(), o.atlas_refreshes as f64),
                (
                    "degrade.stale_atlas_skips".into(),
                    o.stale_atlas_skips as f64,
                ),
            ]);
            for c in &o.classes {
                d.push((format!("loadgen.goodput.{}", c.name), c.goodput_ratio()));
                d.push((format!("loadgen.shed.{}", c.name), c.shed_total() as f64));
                d.push((
                    format!("degrade.final_level.{}", c.name),
                    f64::from(c.final_level),
                ));
            }
        }
    }
    d.sort_by(|a, b| a.0.cmp(&b.0));
    d
}

/// Total high-water bytes across every ledger.
fn total_hiwater(run: &CampaignRun) -> u64 {
    run.resources.ledgers.iter().map(|l| l.hiwater).sum()
}

fn ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1000.0)
}

fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// One campaign run, judged against one policy.
pub struct Report<'r> {
    /// The run reported on.
    pub run: &'r CampaignRun,
    /// [`derived`] values of the run, sorted by key.
    pub derived: Vec<(String, f64)>,
    /// The policy verdicts.
    pub slo: SloReport,
}

impl<'r> Report<'r> {
    /// Derive the run's values and evaluate `policy` over them.
    pub fn new(run: &'r CampaignRun, policy: &SloPolicy) -> Report<'r> {
        let derived = derived(run);
        let slo = policy.evaluate(&SloInput {
            snapshot: &run.snapshot,
            requests: &run.journal,
            derived: &derived,
        });
        Report { run, derived, slo }
    }

    /// One derived value by key. Panics when [`derived`] does not emit
    /// the key: a judge that reads a vanished value must fail, not read 0.
    pub fn value(&self, key: &str) -> f64 {
        self.derived
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("derived value {key:?} missing"))
    }

    /// Whether the run passed every SLO rule.
    pub fn is_clean(&self) -> bool {
        self.slo.is_clean()
    }

    /// Request outcome summary: count, status tallies, end-to-end p50/p99.
    pub fn requests(&self) -> String {
        let (run, mut s) = (self.run, String::new());
        let _ = writeln!(
            s,
            "requests: {} measured, {} traced, {} journalled (loss {:.2}, retry budget {})",
            run.workload.len(),
            run.snapshot.counter("request.count"),
            run.journal.len(),
            run.campaign.loss,
            run.campaign.budget
        );
        for (name, v) in &run.snapshot.counters {
            if let Some(status) = name.strip_prefix("request.status.") {
                let _ = writeln!(s, "  status {status}: {v}");
            }
        }
        if let Some(h) = run.snapshot.histogram("request.virtual_us") {
            let _ = writeln!(
                s,
                "  end-to-end virtual ms: p50 {}  p99 {}  max {}",
                ms(h.quantile(0.5)),
                ms(h.quantile(0.99)),
                ms(h.max()),
            );
        }
        s
    }

    /// The per-stage latency/probe breakdown table. The last column sums
    /// each stage's own exit fields over its spans (`hit`, `batches`, the
    /// symmetry step's `start_err` / `gap` / `unreached`, …).
    pub fn stage_table(&self) -> Table {
        const COMMON: [&str; 5] = ["spans", "probes", "pkts", "retries", "lost"];
        let snap = &self.run.snapshot;
        let mut t = Table::new(
            "Stages: virtual-time latency and probe cost",
            &[
                "stage", "spans", "p50 ms", "p99 ms", "probes", "pkts", "retries", "lost", "fields",
            ],
        );
        for stage in STAGES {
            let prefix = format!("stage.{stage}.");
            let counter = |field: &str| snap.counter(&format!("{prefix}{field}"));
            if counter("spans") == 0 {
                continue;
            }
            let (p50, p99) = snap
                .histogram(&format!("{prefix}virtual_us"))
                .map(|h| (ms(h.quantile(0.5)), ms(h.quantile(0.99))))
                .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
            let own: Vec<String> = snap
                .counters
                .iter()
                .filter_map(|(name, v)| Some((name.strip_prefix(&prefix)?, v)))
                .filter(|(field, _)| !COMMON.contains(field))
                .map(|(field, v)| format!("{field}={v}"))
                .collect();
            let mut row = vec![stage.to_string(), counter("spans").to_string(), p50, p99];
            row.extend(COMMON[1..].iter().map(|f| counter(f).to_string()));
            row.push(own.join(" "));
            t.row(&row);
        }
        t
    }

    /// Measurement-cache effectiveness and route memoisation.
    pub fn cache_table(&self) -> Table {
        let cache = &self.run.cache;
        let mut t = Table::new(
            "Cache: measurement cache and route memoisation",
            &["counter", "value"],
        );
        t.row(&["cache hits", &cache.hits.to_string()])
            .row(&["cache misses", &cache.misses.to_string()])
            .row(&[
                "cache hit rate",
                &format!("{:.1}%", cache.hit_rate() * 100.0),
            ])
            .row(&["cache inserts", &cache.inserts.to_string()])
            .row(&["cache expired", &cache.expired.to_string()])
            .row(&["sim route computes", &self.run.route_computes.to_string()]);
        t
    }

    /// Probing / service / fault counters and histograms (everything
    /// outside the per-stage and per-request families); histograms as
    /// compact n/p50/max summaries.
    pub fn counter_table(&self) -> Table {
        let snap = &self.run.snapshot;
        let own = |name: &str| !(name.starts_with("stage.") || name.starts_with("request."));
        let mut t = Table::new("Counters: auxiliary counters", &["counter", "value"]);
        for (name, v) in snap.counters.iter().filter(|(n, _)| own(n)) {
            t.row(&[name.as_str(), &v.to_string()]);
        }
        for (name, h) in snap.histograms.iter().filter(|(n, _)| own(n)) {
            t.row(&[
                name.as_str(),
                &format!("n={} p50={} max={}", h.count(), h.quantile(0.5), h.max()),
            ]);
        }
        t
    }

    /// The span tree of the first journalled request (requests are sorted
    /// by `(src, dst)`, so "first" is deterministic).
    pub fn span_tree(&self) -> String {
        let Some(rec) = self.run.journal.first() else {
            return "span tree: journal empty\n".to_string();
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "span tree (dst {} -> src {}, status {}, {} virtual ms):",
            rec.dst,
            rec.src,
            rec.status,
            ms(rec.virtual_us)
        );
        for sp in rec.spans() {
            let indent = "  ".repeat(sp.depth as usize + 1);
            let fields: Vec<String> = rec
                .fields(sp)
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(
                s,
                "{indent}{:<20} +{:>9} ms  {:>9} ms  {}",
                sp.stage,
                ms(sp.t_us),
                ms(sp.dur_us),
                fields.join(" ")
            );
        }
        s
    }

    /// The profile lead: identity (including every ledger to the byte),
    /// unit costs, and what the symmetry step's last links cost.
    pub fn profile(&self) -> String {
        let (run, mut s) = (self.run, String::new());
        let requests = run.workload.len();
        let _ = writeln!(
            s,
            "profile: {} requests ({} scale, seed {}), {:.1} virtual s",
            requests,
            run.campaign.scale.name(),
            run.campaign.seed,
            run.virtual_ms / 1000.0
        );
        let _ = writeln!(
            s,
            "fingerprints: metrics {:#018x}  journal {:#018x}  resources {:#018x}",
            run.metrics_fingerprint,
            run.journal_fingerprint,
            run.resources.fingerprint()
        );
        let _ = writeln!(
            s,
            "unit costs: {:.2} events/revtr  {:.1} probe bytes/revtr  \
             {} option probes  {} events",
            frac(run.events, requests),
            frac(run.probes.probe_bytes(), requests),
            run.probes.option_probes(),
            run.events
        );
        let measured = run.snapshot.counter("probing.last_link.measured");
        let per_link = |n: u64| n as f64 / measured.max(1) as f64;
        let _ = writeln!(
            s,
            "last links: {} measured  {:.2} ttl probes each  start ttl off by {:.2}",
            measured,
            per_link(run.snapshot.counter("probing.last_link.pkts")),
            per_link(run.snapshot.counter("stage.assume_symmetry.start_err"))
        );
        s
    }

    /// One row per byte ledger, share of the campaign-wide high-water
    /// total in the last column.
    pub fn byte_table(&self) -> Table {
        let total = total_hiwater(self.run);
        let mut t = Table::new(
            "Bytes: subsystem ledgers",
            &["subsystem", "current KB", "hiwater KB", "share %"],
        );
        for l in &self.run.resources.ledgers {
            t.row(&[
                l.name.as_str(),
                &kb(l.current),
                &kb(l.hiwater),
                &format!("{:.1}", l.hiwater as f64 * 100.0 / total.max(1) as f64),
            ]);
        }
        t.row(&["total", "", &kb(total), "100.0"]);
        t
    }

    /// The top-k cost stacks ranked by inclusive virtual time.
    pub fn stack_table(&self) -> Table {
        let mut ranked: Vec<&ProfileStack> = self.run.stacks.iter().collect();
        ranked.sort_by(|a, b| b.virtual_us.cmp(&a.virtual_us).then(a.path.cmp(&b.path)));
        let mut t = Table::new(
            "Cost stacks: top inclusive",
            &[
                "stack",
                "spans",
                "virtual ms",
                "events",
                "cache KB",
                "probe KB",
            ],
        );
        for s in ranked.into_iter().take(TOP_K_STACKS) {
            t.row(&[
                s.path.as_str(),
                &s.spans.to_string(),
                &format!("{:.1}", s.virtual_us as f64 / 1000.0),
                &s.events.to_string(),
                &kb(s.cache_bytes),
                &kb(s.probe_bytes),
            ]);
        }
        t
    }

    /// Measured high-water totals against the ceilings the default
    /// policy enforces.
    pub fn headroom_table(&self) -> Table {
        let b = self.run.campaign.scale.baselines();
        let control = self
            .run
            .resources
            .ledgers
            .iter()
            .find(|l| l.name == "engine.control_blocks")
            .map_or(0, |l| l.hiwater);
        let mut t = Table::new(
            "Headroom: hiwater against the policy ceilings",
            &["resource", "hiwater KB", "ceiling KB", "headroom %"],
        );
        for (name, used, ceiling) in [
            ("mem.total", total_hiwater(self.run), b.mem_total_max),
            ("engine.control_blocks", control, b.control_capacity),
        ] {
            let headroom = (1.0 - used as f64 / ceiling as f64) * 100.0;
            t.row(&[name, &kb(used), &kb(ceiling), &format!("{headroom:.1}")]);
        }
        t
    }

    /// Measurement-cache shard occupancy: `skew` is `max/mean` per shard
    /// (1.0 = perfectly balanced), evidence the deterministic hashing keeps
    /// the cache's stripes balanced.
    pub fn skew_table(&self) -> Table {
        let (ll, rr) = &self.run.cache_shards;
        let mut t = Table::new(
            "Skew: shard occupancy",
            &["map", "entries", "shards", "max/shard", "bytes KB", "skew"],
        );
        for (name, occ, entry_bytes) in [
            ("probing.cache.last_link", ll, LAST_LINK_ENTRY_BYTES),
            ("probing.cache.rr", rr, RR_ENTRY_BYTES),
        ] {
            let entries: usize = occ.iter().sum();
            let max_shard = occ.iter().copied().max().unwrap_or(0);
            t.row(&[
                name,
                &entries.to_string(),
                &occ.len().to_string(),
                &max_shard.to_string(),
                &kb(entries as u64 * entry_bytes),
                &format!("{:.2}", shard_skew(occ)),
            ]);
        }
        t
    }

    /// The derived-values table.
    pub fn derived_table(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["key", "value"]);
        for (k, v) in &self.derived {
            t.row(&[k.as_str(), &format!("{v:.4}")]);
        }
        t
    }

    /// The SLO verdict table: every rule, or only the firing ones.
    pub fn verdict_table(&self, title: &str, alerts_only: bool) -> Table {
        let mut t = Table::new(
            title,
            &[
                "rule",
                "severity",
                "verdict",
                "value",
                "threshold",
                "detail",
            ],
        );
        for v in self
            .slo
            .verdicts
            .iter()
            .filter(|v| !(alerts_only && v.pass))
        {
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

    /// The stuck-request watchdog table.
    pub fn watchdog_table(&self) -> Table {
        let mut t = Table::new(
            "Watchdog: stuck requests",
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
        for f in &self.run.watchdog {
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

    /// Render every section; the last line is the SLO gate verdict.
    pub fn render(&self) -> String {
        let mut s = self.requests();
        let _ = writeln!(s);
        for t in [self.stage_table(), self.cache_table(), self.counter_table()] {
            let _ = writeln!(s, "{}", t.render());
        }
        let _ = writeln!(s, "{}", self.span_tree());
        let _ = writeln!(s, "{}", self.profile());
        for t in [
            self.byte_table(),
            self.stack_table(),
            self.headroom_table(),
            self.skew_table(),
        ] {
            let _ = writeln!(s, "{}", t.render());
        }
        let _ = writeln!(
            s,
            "sim route/border cache worst shard skew: {:.2}\n",
            self.run.sim_cache_skew
        );
        let _ = writeln!(s, "{}", self.derived_table("Derived values").render());
        let _ = writeln!(s, "{}", self.verdict_table("SLO verdicts", false).render());
        if !self.is_clean() {
            let _ = writeln!(s, "{}", self.verdict_table("Alerts", true).render());
        }
        let watchdog = &self.run.watchdog;
        let _ = writeln!(
            s,
            "watchdog: {} flagged (deadline {:.0} virtual ms)",
            watchdog.len(),
            self.run.campaign.watchdog_deadline_ms
        );
        if !watchdog.is_empty() {
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

    /// Write every export under `dir`, all byte-deterministic: the stage,
    /// cache and counter tables as TSV, the journal as JSONL, the
    /// Prometheus exposition, one Perfetto trace (span lanes plus a
    /// counter track per ledger), and flamegraph-collapsed stacks weighted
    /// by virtual time and by probe bytes.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let run = self.run;
        self.stage_table().save_tsv(dir, "metrics_stages")?;
        self.cache_table().save_tsv(dir, "metrics_cache")?;
        self.counter_table().save_tsv(dir, "metrics_counters")?;
        let jsonl: String = run.journal.iter().map(|r| r.to_json() + "\n").collect();
        std::fs::write(dir.join("metrics_journal.jsonl"), jsonl)?;
        std::fs::write(dir.join("metrics.prom"), prometheus_text(&run.snapshot))?;
        std::fs::write(
            dir.join("trace.json"),
            chrome_trace_json(&run.journal, &run.series),
        )?;
        for (name, metric) in [
            ("profile_virtual_us.folded", ProfileMetric::VirtualUs),
            ("profile_probe_bytes.folded", ProfileMetric::ProbeBytes),
        ] {
            std::fs::write(dir.join(name), flamegraph_text(&run.stacks, metric))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;

    #[test]
    fn clean_smoke_report_covers_every_section_and_passes() {
        let run = Campaign::clean(Scale::Smoke, 1).run();
        let r = Report::new(&run, &default_policy(Scale::Smoke));
        let again = Campaign::clean(Scale::Smoke, 1).run();
        let text = r.render();
        assert_eq!(
            text,
            Report::new(&again, &default_policy(Scale::Smoke)).render(),
            "report not byte-deterministic"
        );
        assert!(r.is_clean(), "clean smoke run fired alerts:\n{text}");
        assert!(text.ends_with("slo gate: PASS (0 of 11 rules firing)"));

        // Every measurement opens one request scope; the core stages fire.
        assert_eq!(r.value("requests"), run.workload.len() as f64);
        assert_eq!(
            run.snapshot.counter("request.count"),
            run.workload.len() as u64
        );
        let stages = r.stage_table().render();
        assert!(stages.contains("destination_probe") && stages.contains("rr_step"));
        assert!(run.cache.hits + run.cache.misses > 0 && run.route_computes > 0);
        assert!(r.span_tree().starts_with("span tree (dst"));

        // At least 8 subsystems ledgered, each a derived `mem.*` key.
        let names: Vec<&str> = run
            .resources
            .ledgers
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert!(names.len() >= 8, "ledgers: {names:?}");
        for expect in [
            "atlas.traces",
            "engine.control_blocks",
            "netsim.fib",
            "netsim.route_cache",
            "probing.cache.rr",
            "probing.stopset.backward",
            "telemetry.journal",
        ] {
            assert!(
                names.contains(&expect),
                "ledger {expect} missing: {names:?}"
            );
        }
        assert!(r.value("mem.netsim.fib.hiwater") > 0.0);
        assert_eq!(r.value("mem.total.hiwater"), total_hiwater(&run) as f64);
        assert!(r.value("events_per_revtr") > 0.0 && r.value("bytes_per_revtr") > 0.0);
        assert!(run.stacks.iter().all(|s| s.path.starts_with("request")));
    }

    /// Loss with no retry budget costs the smoke campaign coverage under
    /// its floor. (Its stall alert is asserted at standard scale, below: a
    /// smoke campaign's 25 requests put its slowest one above the 100 s
    /// envelope at no seed of 1–12.)
    #[test]
    fn faulted_smoke_report_fires_the_coverage_alert() {
        let run = Campaign::faulted(Scale::Smoke, 1, 0.3, 1).run();
        let r = Report::new(&run, &default_policy(Scale::Smoke));
        let text = r.render();
        let firing: Vec<&str> = r.slo.alerts().map(|v| v.rule.as_str()).collect();
        assert!(firing.contains(&"coverage-floor"), "{firing:?}\n{text}");
        assert!(text.contains("== Alerts ==") && text.contains("slo gate: FAIL"));
    }

    /// The standard envelope sits above every clean p99 and below every
    /// pinned seed's faulted maximum: 2 000 requests under loss with no
    /// retry budget put a tail of them past it, so at each of seeds 1, 7
    /// and 42 the watchdog flags some and the stall alert fires.
    /// Standard scale: slow in a debug build, so ci.sh runs it in release.
    #[test]
    #[ignore = "standard scale; ci.sh runs it in release"]
    fn faulted_standard_report_fires_stuck_requests() {
        for seed in [1, 7, 42] {
            let run = Campaign::faulted(Scale::Standard, seed, 0.3, 1).run();
            let r = Report::new(&run, &default_policy(Scale::Standard));
            let firing: Vec<&str> = r.slo.alerts().map(|v| v.rule.as_str()).collect();
            assert!(!run.watchdog.is_empty(), "seed {seed}: no request overran");
            assert!(
                firing.contains(&"stuck-requests"),
                "seed {seed}: {firing:?}\n{}",
                r.render()
            );
            eprintln!("seed {seed}: {} requests flagged", run.watchdog.len());
        }
    }

    #[test]
    fn probe_budget_floor_fires_on_a_campaign_that_probes_under_it() {
        // The floor was set under the clean closed-loop campaign, which
        // clears it. A cache-warm open loop serves its repeats from the
        // measurement cache and reads under it — the reason the loadtest
        // judges that traffic by its own warm floor instead.
        let policy = default_policy(Scale::Smoke);
        let floor = |run: &CampaignRun| {
            let r = Report::new(run, &policy);
            let v = (r.slo.verdicts.iter())
                .find(|v| v.rule == "probe-budget-floor")
                .expect("the default policy has a probe floor");
            (v.pass, v.value, v.threshold)
        };
        let clean = floor(&Campaign::clean(Scale::Smoke, 1).run());
        assert!(clean.0, "the clean campaign fired the floor: {clean:?}");
        let warm = Campaign::open_loop(Scale::Smoke, 1, crate::loadtest::Pattern::Steady);
        let warm = floor(&warm.run());
        assert!(!warm.0 && warm.1 < warm.2, "under the floor: {warm:?}");
    }

    #[test]
    fn exports_are_written_once_and_parse() {
        let run = Campaign::clean(Scale::Smoke, 7).run();
        let dir = std::env::temp_dir().join(format!("revtr_report_export_{}", std::process::id()));
        Report::new(&run, &default_policy(Scale::Smoke))
            .save(&dir)
            .expect("export failed");
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect(name);
        let folded = read("profile_virtual_us.folded");
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (path, v) = line.rsplit_once(' ').expect("folded line shape");
            assert!(path.starts_with("request"));
            v.parse::<u64>().expect("folded weight numeric");
        }
        let trace = read("trace.json");
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""));
        assert!(trace.contains("\"ph\":\"C\""), "counter tracks missing");
        assert!(read("metrics.prom").contains("revtr_request_count"));
        assert_eq!(
            read("metrics_journal.jsonl").lines().count(),
            run.journal.len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Calibration helper (manual, `--ignored --nocapture`): prints the
    /// measurements the `Scale::baselines` constants and the watchdog
    /// deadlines are derived from, clean vs faulted, seeds {1, 7, 42}. Set
    /// `MONITOR_CALIBRATE_STANDARD=1` to measure the standard scale
    /// (release build recommended). This is step 1 of the baseline-update
    /// procedure in DESIGN.md §15 *Baseline updates*.
    #[test]
    #[ignore = "manual calibration helper; see DESIGN.md §15 *Baseline updates*"]
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
                let run = campaign.run();
                let r = Report::new(&run, &default_policy(scale));
                let d = |key: &str| r.value(key);
                let rr_p99 = run
                    .snapshot
                    .histogram("stage.rr_step.virtual_us")
                    .map_or(0, |h| h.quantile(0.99));
                println!(
                    "{} seed {seed:>2} {label}: coverage {:.4}  accuracy {:.4}  \
                     probes/revtr {:.2}  p99 {:.0} ms  max {:.0} ms  rr_step p99 {} us  flagged {}  \
                     mem {:.0} B",
                    scale.name(),
                    d("coverage"),
                    d("accuracy"),
                    d("probes.per_revtr"),
                    d("latency.p99_ms"),
                    d("latency.max_ms"),
                    rr_p99,
                    d("watchdog.flagged"),
                    d("mem.total.hiwater"),
                );
            }
        }
    }
}
