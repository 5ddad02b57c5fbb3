//! The perf-regression sentinel: a machine-readable benchmark report and
//! a tolerance-gated comparator.
//!
//! `revtr-cli bench-report` runs the clean monitored campaign and writes a
//! `BENCH_*.json` with the run's virtual cost, probe mix (Table-4 kinds),
//! coverage/accuracy, cache effectiveness, and campaign fingerprints.
//! `revtr-cli bench-compare old.json new.json` re-reads two such reports
//! and exits non-zero when the new run regresses past tolerance — ci.sh
//! wires it against the committed `BENCH_PR7.json` baseline.
//!
//! Everything gated is **virtual**: probe counts, virtual milliseconds,
//! coverage, accuracy. Wall-clock time is recorded for context but never
//! gated (it varies with the machine); fingerprint changes are surfaced as
//! notes, not failures (any intended behaviour change re-fingerprints —
//! the baseline-update procedure in DESIGN.md §8 covers refreshing them).

use crate::monitor::{self, MonitorConfig};
use serde::Value;
use std::fmt::Write as _;
use std::time::Instant;

/// One benchmark run, as serialised to `BENCH_*.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Scale name ("smoke" / "standard").
    pub scale: String,
    /// Master seed.
    pub seed: u64,
    /// Wall-clock milliseconds for the campaign (informational only).
    pub wall_ms: f64,
    /// Campaign virtual milliseconds (gated).
    pub virtual_ms: f64,
    /// Requests attempted.
    pub requests: u64,
    /// Campaign coverage (complete / attempted).
    pub coverage: f64,
    /// AS-soundness of compared complete paths.
    pub accuracy: f64,
    /// Probe mix: sorted `(kind, count)` pairs (Table-4 categories).
    pub probes_by_kind: Vec<(String, u64)>,
    /// Retry meta-counter.
    pub retries: u64,
    /// Fault-loss meta-counter.
    pub lost: u64,
    /// Measurement-cache hits.
    pub cache_hits: u64,
    /// Measurement-cache misses.
    pub cache_misses: u64,
    /// Measurement-cache inserts.
    pub cache_inserts: u64,
    /// Measurement-cache TTL expiries.
    pub cache_expired: u64,
    /// Simulator route computations.
    pub route_computes: u64,
    /// Peak admitted measurements of the campaign (informational;
    /// absent in pre-PR6 baselines and parsed as 0 there).
    pub inflight_peak: u64,
    /// Whether the campaign ran with the Doubletree stop sets enabled
    /// (absent in pre-PR7 baselines and parsed as false there; reports
    /// with mismatched values refuse to compare).
    pub stop_sets: bool,
    /// Stop-set effectiveness: sorted `(counter, count)` pairs
    /// (informational; absent in pre-PR7 baselines and parsed empty).
    pub stopset_stats: Vec<(String, u64)>,
    /// Free-form informational counters — shed/degrade/queue-depth
    /// accounting from the admission layer. Sorted `(key, count)` pairs;
    /// absent in pre-PR9 baselines (parsed empty), and the comparator
    /// never gates them: keys present in only one report are ignored, so
    /// old baselines keep comparing as the note vocabulary grows.
    pub notes: Vec<(String, u64)>,
    /// Resource-ledger high-water marks from the profiling arm: sorted
    /// `(key, bytes)` pairs under fixed `mem.<ledger>.hiwater` keys plus
    /// `mem.total.hiwater`. Absent in pre-PR10 baselines (parsed empty);
    /// the comparator gates only keys present in BOTH reports.
    pub mem: Vec<(String, u64)>,
    /// Event-loop events per attempted request (0.0 in pre-PR10
    /// baselines, which exempts it from the gate).
    pub events_per_revtr: f64,
    /// Probe bytes on the wire per attempted request (0.0 in pre-PR10
    /// baselines, which exempts it from the gate).
    pub bytes_per_revtr: f64,
    /// Campaign metrics fingerprint (hex, noted on mismatch, never gated).
    pub metrics_fingerprint: String,
    /// Campaign journal fingerprint (hex).
    pub journal_fingerprint: String,
}

/// The outcome of comparing a new report against a baseline.
#[derive(Clone, Debug, Default)]
pub struct BenchComparison {
    /// Tolerance-violating regressions (non-empty fails the gate).
    pub regressions: Vec<String>,
    /// Informational differences (fingerprints, wall clock, improvements).
    pub notes: Vec<String>,
}

impl BenchComparison {
    /// Whether the new run passes the gate.
    pub fn pass(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Render the comparison as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "note: {n}");
        }
        for r in &self.regressions {
            let _ = writeln!(s, "REGRESSION: {r}");
        }
        let _ = write!(
            s,
            "bench gate: {} ({} regressions, {} notes)",
            if self.pass() { "PASS" } else { "FAIL" },
            self.regressions.len(),
            self.notes.len()
        );
        s
    }
}

/// Run the clean monitored campaign at `scale_name`/`seed` and produce a
/// report. Wall-clock time wraps exactly the campaign (not process
/// startup).
pub fn run(scale_name: &str, seed: u64, stop_sets: bool) -> BenchReport {
    let cfg = MonitorConfig::clean(scale_name).with_stop_sets(stop_sets);
    let started = Instant::now();
    let m = match scale_name {
        "standard" => monitor::standard_seeded(seed, &cfg),
        _ => monitor::smoke_seeded(seed, &cfg),
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let derived = |key: &str| {
        m.derived
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    BenchReport {
        scale: scale_name.to_string(),
        seed,
        wall_ms,
        virtual_ms: m.campaign_virtual_ms,
        requests: m.requests as u64,
        coverage: derived("coverage"),
        accuracy: derived("accuracy"),
        probes_by_kind: m
            .probes
            .by_kind()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        retries: m.probes.retries,
        lost: m.probes.lost,
        cache_hits: m.cache.hits,
        cache_misses: m.cache.misses,
        cache_inserts: m.cache.inserts,
        cache_expired: m.cache.expired,
        route_computes: m.route_computes,
        inflight_peak: m.inflight_peak as u64,
        stop_sets,
        stopset_stats: vec![
            ("backward_hits".into(), m.stopset.backward_hits),
            ("backward_misses".into(), m.stopset.backward_misses),
            ("direct_skips".into(), m.stopset.direct_skips),
            ("forward_hits".into(), m.stopset.forward_hits),
            ("forward_misses".into(), m.stopset.forward_misses),
            ("spoof_skips".into(), m.stopset.spoof_skips),
            ("vp_skips".into(), m.stopset.vp_skips),
            ("winner_hits".into(), m.stopset.winner_hits),
        ],
        notes: vec![
            (
                "degrade.transitions".into(),
                m.snapshot.counter("degrade.transitions.total"),
            ),
            (
                "loadgen.shed.total".into(),
                m.snapshot.counter("loadgen.shed.total"),
            ),
            (
                "queue_depth.peak".into(),
                m.snapshot
                    .histogram("service.batch.queue_depth")
                    .map(|h| h.max())
                    .unwrap_or(0),
            ),
        ],
        mem: m
            .derived
            .iter()
            .filter(|(k, _)| k.starts_with("mem."))
            .map(|(k, v)| (k.clone(), *v as u64))
            .collect(),
        events_per_revtr: derived("events_per_revtr"),
        bytes_per_revtr: derived("bytes_per_revtr"),
        metrics_fingerprint: format!("{:#018x}", m.metrics_fingerprint),
        journal_fingerprint: format!("{:#018x}", m.journal_fingerprint),
    }
}

impl BenchReport {
    /// Serialise to JSON (fixed key order, one key per line, so diffs on
    /// the committed baseline stay reviewable).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"wall_ms\": {:?},", self.wall_ms);
        let _ = writeln!(s, "  \"virtual_ms\": {:?},", self.virtual_ms);
        let _ = writeln!(s, "  \"requests\": {},", self.requests);
        let _ = writeln!(s, "  \"coverage\": {:?},", self.coverage);
        let _ = writeln!(s, "  \"accuracy\": {:?},", self.accuracy);
        let _ = writeln!(s, "  \"probes_by_kind\": {{");
        for (i, (k, v)) in self.probes_by_kind.iter().enumerate() {
            let comma = if i + 1 < self.probes_by_kind.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    \"{k}\": {v}{comma}");
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"retries\": {},", self.retries);
        let _ = writeln!(s, "  \"lost\": {},", self.lost);
        let _ = writeln!(s, "  \"cache_stats\": {{");
        let _ = writeln!(s, "    \"expired\": {},", self.cache_expired);
        let _ = writeln!(s, "    \"hits\": {},", self.cache_hits);
        let _ = writeln!(s, "    \"inserts\": {},", self.cache_inserts);
        let _ = writeln!(s, "    \"misses\": {}", self.cache_misses);
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"route_computes\": {},", self.route_computes);
        let _ = writeln!(s, "  \"inflight_peak\": {},", self.inflight_peak);
        let _ = writeln!(s, "  \"stop_sets\": {},", self.stop_sets);
        let _ = writeln!(s, "  \"stopset_stats\": {{");
        for (i, (k, v)) in self.stopset_stats.iter().enumerate() {
            let comma = if i + 1 < self.stopset_stats.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    \"{k}\": {v}{comma}");
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"notes\": {{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let comma = if i + 1 < self.notes.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{k}\": {v}{comma}");
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"mem\": {{");
        for (i, (k, v)) in self.mem.iter().enumerate() {
            let comma = if i + 1 < self.mem.len() { "," } else { "" };
            let _ = writeln!(s, "    \"{k}\": {v}{comma}");
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"events_per_revtr\": {:?},", self.events_per_revtr);
        let _ = writeln!(s, "  \"bytes_per_revtr\": {:?},", self.bytes_per_revtr);
        let _ = writeln!(s, "  \"fingerprints\": {{");
        let _ = writeln!(s, "    \"journal\": \"{}\",", self.journal_fingerprint);
        let _ = writeln!(s, "    \"metrics\": \"{}\"", self.metrics_fingerprint);
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }

    /// Parse a report back from its JSON form.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e:?}"))?;
        let obj = |v: &Value, key: &str| -> Result<Value, String> {
            v.get(key).cloned().ok_or(format!("missing key {key:?}"))
        };
        let num = |v: &Value, key: &str| -> Result<f64, String> {
            match obj(v, key)? {
                Value::F64(x) => Ok(x),
                Value::U64(x) => Ok(x as f64),
                Value::I64(x) => Ok(x as f64),
                other => Err(format!("key {key:?} not numeric: {other:?}")),
            }
        };
        let int = |v: &Value, key: &str| -> Result<u64, String> {
            match obj(v, key)? {
                Value::U64(x) => Ok(x),
                Value::I64(x) if x >= 0 => Ok(x as u64),
                other => Err(format!("key {key:?} not an integer: {other:?}")),
            }
        };
        let string = |v: &Value, key: &str| -> Result<String, String> {
            match obj(v, key)? {
                Value::Str(x) => Ok(x),
                other => Err(format!("key {key:?} not a string: {other:?}")),
            }
        };
        let probes = obj(&v, "probes_by_kind")?;
        let probe_pairs = probes
            .as_object()
            .ok_or("probes_by_kind not an object".to_string())?;
        let mut probes_by_kind = Vec::new();
        for (k, pv) in probe_pairs {
            match pv {
                Value::U64(x) => probes_by_kind.push((k.clone(), *x)),
                Value::I64(x) if *x >= 0 => probes_by_kind.push((k.clone(), *x as u64)),
                other => return Err(format!("probe kind {k:?} not an integer: {other:?}")),
            }
        }
        probes_by_kind.sort();
        let cache = obj(&v, "cache_stats")?;
        let fps = obj(&v, "fingerprints")?;
        Ok(BenchReport {
            scale: string(&v, "scale")?,
            seed: int(&v, "seed")?,
            wall_ms: num(&v, "wall_ms")?,
            virtual_ms: num(&v, "virtual_ms")?,
            requests: int(&v, "requests")?,
            coverage: num(&v, "coverage")?,
            accuracy: num(&v, "accuracy")?,
            probes_by_kind,
            retries: int(&v, "retries")?,
            lost: int(&v, "lost")?,
            cache_hits: int(&cache, "hits")?,
            cache_misses: int(&cache, "misses")?,
            cache_inserts: int(&cache, "inserts")?,
            cache_expired: int(&cache, "expired")?,
            route_computes: int(&v, "route_computes")?,
            // Lenient: pre-PR6 baselines don't carry this key.
            inflight_peak: int(&v, "inflight_peak").unwrap_or(0),
            // Lenient: pre-PR7 baselines don't carry the stop-set keys.
            stop_sets: matches!(v.get("stop_sets"), Some(Value::Bool(true))),
            stopset_stats: {
                let mut pairs = Vec::new();
                if let Some(ss) = v.get("stopset_stats").and_then(|s| s.as_object()) {
                    for (k, sv) in ss {
                        match sv {
                            Value::U64(x) => pairs.push((k.clone(), *x)),
                            Value::I64(x) if *x >= 0 => pairs.push((k.clone(), *x as u64)),
                            other => {
                                return Err(format!(
                                    "stopset counter {k:?} not an integer: {other:?}"
                                ))
                            }
                        }
                    }
                }
                pairs.sort();
                pairs
            },
            // Lenient: pre-PR9 baselines don't carry admission notes.
            notes: {
                let mut pairs = Vec::new();
                if let Some(ns) = v.get("notes").and_then(|s| s.as_object()) {
                    for (k, nv) in ns {
                        match nv {
                            Value::U64(x) => pairs.push((k.clone(), *x)),
                            Value::I64(x) if *x >= 0 => pairs.push((k.clone(), *x as u64)),
                            other => return Err(format!("note {k:?} not an integer: {other:?}")),
                        }
                    }
                }
                pairs.sort();
                pairs
            },
            // Lenient: pre-PR10 baselines don't carry the memory keys.
            mem: {
                let mut pairs = Vec::new();
                if let Some(ms) = v.get("mem").and_then(|s| s.as_object()) {
                    for (k, mv) in ms {
                        match mv {
                            Value::U64(x) => pairs.push((k.clone(), *x)),
                            Value::I64(x) if *x >= 0 => pairs.push((k.clone(), *x as u64)),
                            other => {
                                return Err(format!("mem key {k:?} not an integer: {other:?}"))
                            }
                        }
                    }
                }
                pairs.sort();
                pairs
            },
            events_per_revtr: num(&v, "events_per_revtr").unwrap_or(0.0),
            bytes_per_revtr: num(&v, "bytes_per_revtr").unwrap_or(0.0),
            metrics_fingerprint: string(&fps, "metrics")?,
            journal_fingerprint: string(&fps, "journal")?,
        })
    }

    /// Total stop-set hits of any kind (0 for pre-PR7 reports).
    pub fn stopset_hits(&self) -> u64 {
        self.stopset_stats
            .iter()
            .filter(|(k, _)| k.ends_with("_hits") || k.ends_with("_skips"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Total option-carrying probes (RR + spoofed RR + TS + spoofed TS).
    pub fn option_probes(&self) -> u64 {
        self.probes_by_kind
            .iter()
            .filter(|(k, _)| matches!(k.as_str(), "rr" | "spoof_rr" | "ts" | "spoof_ts"))
            .map(|(_, v)| v)
            .sum()
    }

    /// All packets across kinds.
    pub fn all_packets(&self) -> u64 {
        self.probes_by_kind.iter().map(|(_, v)| v).sum()
    }

    /// Measurement-cache hit rate (hits / lookups; 0 when no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Option probes per attempted request.
    pub fn probes_per_revtr(&self) -> f64 {
        self.option_probes() as f64 / self.requests.max(1) as f64
    }
}

/// Per-kind counts below this are too small for a relative tolerance to
/// be meaningful; they are gated via the aggregate totals instead.
const KIND_FLOOR: u64 = 20;

/// Compare `new` against the `old` baseline. `tol` is the relative
/// tolerance on probe counts and virtual time (e.g. 0.10 = +10% allowed);
/// `tol_quality` is the absolute tolerance on coverage/accuracy drops.
pub fn compare(
    old: &BenchReport,
    new: &BenchReport,
    tol: f64,
    tol_quality: f64,
) -> BenchComparison {
    let mut c = BenchComparison::default();
    if old.scale != new.scale || old.seed != new.seed {
        c.regressions.push(format!(
            "reports not comparable: baseline is {}/seed {}, new is {}/seed {}",
            old.scale, old.seed, new.scale, new.seed
        ));
        return c;
    }
    if old.stop_sets != new.stop_sets {
        c.regressions.push(format!(
            "reports not comparable: baseline ran with stop_sets={}, new with stop_sets={} \
             (probe economy differs by design; regenerate the matching baseline)",
            old.stop_sets, new.stop_sets
        ));
        return c;
    }

    let rel_gate = |c: &mut BenchComparison, what: &str, old_v: f64, new_v: f64| {
        if old_v <= 0.0 {
            // A zero baseline admits no relative tolerance — but the old
            // bare early-return silently exempted such metrics from the
            // gate entirely, so a probe kind the baseline never sent
            // (ts = 0 in every revtr-2.0 baseline) could grow without
            // bound and still "pass". Gate absolute growth from zero
            // against the same small-count floor the per-kind loop uses.
            if new_v > KIND_FLOOR as f64 {
                c.regressions.push(format!(
                    "{what} appeared against a zero baseline (0 -> {new_v:.0}, floor {KIND_FLOOR})"
                ));
            } else if new_v > 0.0 {
                c.notes.push(format!(
                    "{what} appeared against a zero baseline (0 -> {new_v:.0}; below floor \
                     {KIND_FLOOR}, not gated)"
                ));
            }
            return;
        }
        let rel = (new_v - old_v) / old_v;
        if rel > tol {
            c.regressions.push(format!(
                "{what} grew {:+.1}% ({old_v:.0} -> {new_v:.0}, tolerance +{:.0}%)",
                rel * 100.0,
                tol * 100.0
            ));
        } else if rel < -tol {
            c.notes.push(format!(
                "{what} improved {:+.1}% ({old_v:.0} -> {new_v:.0})",
                rel * 100.0
            ));
        }
    };

    rel_gate(&mut c, "virtual_ms", old.virtual_ms, new.virtual_ms);
    rel_gate(
        &mut c,
        "option probes",
        old.option_probes() as f64,
        new.option_probes() as f64,
    );
    rel_gate(
        &mut c,
        "all packets",
        old.all_packets() as f64,
        new.all_packets() as f64,
    );
    for (kind, old_v) in &old.probes_by_kind {
        if *old_v < KIND_FLOOR {
            continue;
        }
        let new_v = new
            .probes_by_kind
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        rel_gate(
            &mut c,
            &format!("probes[{kind}]"),
            *old_v as f64,
            new_v as f64,
        );
    }
    // Kinds the baseline never recorded still go through the
    // zero-baseline branch of the gate; without this a brand-new probe
    // kind would be invisible to the sentinel. (Sub-floor *nonzero*
    // baselines stay per-kind-exempt, same as the loop above — the
    // aggregate totals gate them.)
    for (kind, new_v) in &new.probes_by_kind {
        let old_v = old
            .probes_by_kind
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        if old_v > 0 {
            continue;
        }
        rel_gate(&mut c, &format!("probes[{kind}]"), 0.0, *new_v as f64);
    }

    // Memory ledgers: gated at the same relative tolerance, but only for
    // keys present in BOTH reports (pre-PR10 baselines carry none) and
    // above the small-count floor — a 20%-inflated `mem.*` high-water
    // against a 10%-tolerance baseline must fail the gate.
    for (k, old_v) in &old.mem {
        if *old_v < KIND_FLOOR {
            continue;
        }
        let Some((_, new_v)) = new.mem.iter().find(|(nk, _)| nk == k) else {
            continue;
        };
        rel_gate(&mut c, k, *old_v as f64, *new_v as f64);
    }
    // Per-request cost keys: gated only when the baseline recorded them
    // (0.0 marks a pre-PR10 baseline).
    if old.events_per_revtr > 0.0 {
        rel_gate(
            &mut c,
            "events_per_revtr",
            old.events_per_revtr,
            new.events_per_revtr,
        );
    }
    if old.bytes_per_revtr > 0.0 {
        rel_gate(
            &mut c,
            "bytes_per_revtr",
            old.bytes_per_revtr,
            new.bytes_per_revtr,
        );
    }

    let quality_gate = |c: &mut BenchComparison, what: &str, old_v: f64, new_v: f64| {
        if new_v < old_v - tol_quality {
            c.regressions.push(format!(
                "{what} dropped {:.4} -> {:.4} (tolerance -{:.3})",
                old_v, new_v, tol_quality
            ));
        } else if new_v > old_v + tol_quality {
            c.notes
                .push(format!("{what} improved {:.4} -> {:.4}", old_v, new_v));
        }
    };
    quality_gate(&mut c, "coverage", old.coverage, new.coverage);
    quality_gate(&mut c, "accuracy", old.accuracy, new.accuracy);

    if old.metrics_fingerprint != new.metrics_fingerprint
        || old.journal_fingerprint != new.journal_fingerprint
    {
        c.notes.push(format!(
            "fingerprints changed (metrics {} -> {}, journal {} -> {}): behaviour shifted; \
             refresh the baseline if intended",
            old.metrics_fingerprint,
            new.metrics_fingerprint,
            old.journal_fingerprint,
            new.journal_fingerprint
        ));
    }
    if old.requests != new.requests {
        c.regressions.push(format!(
            "request count changed {} -> {} (the workload itself moved)",
            old.requests, new.requests
        ));
    }
    c.notes.push(format!(
        "wall clock {:.0} ms -> {:.0} ms (informational, never gated)",
        old.wall_ms, new.wall_ms
    ));
    // Cache economy and engine accounting: surfaced, never gated. The
    // hit-rate note is what makes cache-store bloat visible (PR 5's
    // baseline carried 279 624 inserts for 2 144 hits before the survey
    // probes stopped inserting).
    c.notes.push(format!(
        "cache hit rate {:.1}% -> {:.1}% ({} -> {} inserts; informational)",
        old.cache_hit_rate() * 100.0,
        new.cache_hit_rate() * 100.0,
        old.cache_inserts,
        new.cache_inserts
    ));
    c.notes.push(format!(
        "probes/revtr {:.2} -> {:.2} (informational; gated via option probes)",
        old.probes_per_revtr(),
        new.probes_per_revtr()
    ));
    if old.inflight_peak != new.inflight_peak {
        c.notes.push(format!(
            "inflight peak {} -> {} (informational)",
            old.inflight_peak, new.inflight_peak
        ));
    }
    if old.stop_sets {
        c.notes.push(format!(
            "stop-set hits {} -> {} (informational)",
            old.stopset_hits(),
            new.stopset_hits()
        ));
    }
    // Admission notes (shed/degrade/queue-depth): informational, never
    // gated, and compared only for keys present in BOTH reports — a
    // baseline from before a note key existed (or after one is retired)
    // still compares cleanly as the vocabulary grows.
    for (k, old_v) in &old.notes {
        let Some((_, new_v)) = new.notes.iter().find(|(nk, _)| nk == k) else {
            continue;
        };
        if old_v != new_v {
            c.notes.push(format!(
                "note {k} {old_v} -> {new_v} (informational, never gated)"
            ));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            scale: "smoke".into(),
            seed: 1,
            wall_ms: 321.5,
            virtual_ms: 123456.75,
            requests: 25,
            coverage: 0.88,
            accuracy: 0.95,
            probes_by_kind: vec![
                ("atlas_rr".into(), 300),
                ("ping".into(), 40),
                ("rr".into(), 120),
                ("spoof_rr".into(), 260),
                ("spoof_ts".into(), 10),
                ("traceroute_pkts".into(), 90),
                ("traceroutes".into(), 6),
                ("ts".into(), 30),
            ],
            retries: 0,
            lost: 0,
            cache_hits: 50,
            cache_misses: 70,
            cache_inserts: 60,
            cache_expired: 5,
            route_computes: 400,
            inflight_peak: 20,
            stop_sets: false,
            stopset_stats: vec![],
            notes: vec![
                ("degrade.transitions".into(), 0),
                ("loadgen.shed.total".into(), 0),
                ("queue_depth.peak".into(), 12),
            ],
            mem: vec![
                ("mem.engine.control_blocks.hiwater".into(), 24_000),
                ("mem.netsim.fib.hiwater".into(), 220_000),
                ("mem.probing.cache.rr.hiwater".into(), 6_720),
                ("mem.total.hiwater".into(), 250_720),
            ],
            events_per_revtr: 11.4,
            bytes_per_revtr: 480.0,
            metrics_fingerprint: "0x00deadbeef001122".into(),
            journal_fingerprint: "0x0011223344556677".into(),
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
        assert_eq!(r.option_probes(), 120 + 260 + 10 + 30);
    }

    #[test]
    fn identical_reports_pass() {
        let r = sample();
        let c = compare(&r, &r, 0.10, 0.02);
        assert!(c.pass(), "{}", c.render());
    }

    #[test]
    fn probe_inflation_fails_the_gate() {
        let old = sample();
        let mut new = sample();
        // The acceptance scenario: a synthetic 20% probe inflation must
        // fail a 10%-tolerance compare.
        for (_, v) in new.probes_by_kind.iter_mut() {
            *v += *v / 5;
        }
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(!c.pass());
        assert!(
            c.regressions.iter().any(|r| r.contains("option probes")),
            "{}",
            c.render()
        );
        assert!(c.regressions.iter().any(|r| r.contains("probes[spoof_rr]")));
        // Tiny kinds (below the floor) are not individually gated.
        assert!(!c.regressions.iter().any(|r| r.contains("traceroutes]")));
    }

    #[test]
    fn zero_baseline_growth_fails_the_gate() {
        // The bug this guards: the rel gate used to bare-return on a zero
        // baseline, so a kind the baseline never sent could grow without
        // bound and still pass. Growth from zero past the small-count
        // floor must now fail.
        let old = sample();
        let mut new = sample();
        new.probes_by_kind.push(("udp_probe".into(), 500));
        new.probes_by_kind.sort();
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(!c.pass(), "{}", c.render());
        assert!(
            c.regressions
                .iter()
                .any(|r| r.contains("probes[udp_probe]") && r.contains("zero baseline")),
            "{}",
            c.render()
        );
    }

    #[test]
    fn zero_baseline_small_appearance_passes_with_note() {
        // Must-pass companion: a new kind below the floor is surfaced as
        // a note, not a regression.
        let old = sample();
        let mut new = sample();
        new.probes_by_kind.push(("udp_probe".into(), 5));
        new.probes_by_kind.sort();
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(c.pass(), "{}", c.render());
        assert!(
            c.notes
                .iter()
                .any(|n| n.contains("probes[udp_probe]") && n.contains("zero baseline")),
            "{}",
            c.render()
        );
    }

    #[test]
    fn stop_set_mismatch_refuses_to_compare() {
        let old = sample();
        let mut new = sample();
        new.stop_sets = true;
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(!c.pass());
        assert!(c.regressions.iter().any(|r| r.contains("stop_sets")));
    }

    #[test]
    fn stop_set_fields_round_trip_and_sum() {
        let mut r = sample();
        r.stop_sets = true;
        r.stopset_stats = vec![
            ("backward_hits".into(), 40),
            ("backward_misses".into(), 100),
            ("direct_skips".into(), 7),
            ("forward_hits".into(), 12),
            ("forward_misses".into(), 30),
            ("winner_hits".into(), 9),
        ];
        let parsed = BenchReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
        assert_eq!(r.stopset_hits(), 40 + 7 + 12 + 9);
        // Pre-PR7 baselines lack both keys entirely and parse leniently.
        let legacy = sample().to_json().replace(
            "  \"stop_sets\": false,\n  \"stopset_stats\": {\n  },\n",
            "",
        );
        assert!(!legacy.contains("stop_sets"), "strip failed:\n{legacy}");
        let parsed_legacy = BenchReport::from_json(&legacy).expect("legacy parse");
        assert!(!parsed_legacy.stop_sets);
        assert!(parsed_legacy.stopset_stats.is_empty());
        assert_eq!(parsed_legacy.stopset_hits(), 0);
    }

    #[test]
    fn notes_are_informational_and_legacy_baselines_still_compare() {
        // Differing admission notes surface as notes, never regressions.
        let old = sample();
        let mut new = sample();
        new.notes = vec![
            ("degrade.transitions".into(), 6),
            ("loadgen.shed.total".into(), 40),
            ("queue_depth.peak".into(), 12),
        ];
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(c.pass(), "{}", c.render());
        assert!(
            c.notes
                .iter()
                .any(|n| n.contains("loadgen.shed.total") && n.contains("0 -> 40")),
            "{}",
            c.render()
        );

        // A pre-PR9 baseline lacks the notes key entirely: it parses
        // leniently and compares cleanly against a report that carries
        // unknown-to-it note keys (compared only where both sides have
        // the key — here, nowhere).
        let legacy = sample().to_json().replace(
            "  \"notes\": {\n    \"degrade.transitions\": 0,\n    \
             \"loadgen.shed.total\": 0,\n    \"queue_depth.peak\": 12\n  },\n",
            "",
        );
        assert!(!legacy.contains("\"notes\""), "strip failed:\n{legacy}");
        let parsed_legacy = BenchReport::from_json(&legacy).expect("legacy parse");
        assert!(parsed_legacy.notes.is_empty());
        let c = compare(&parsed_legacy, &new, 0.10, 0.02);
        assert!(c.pass(), "{}", c.render());
        assert!(
            !c.notes.iter().any(|n| n.contains("loadgen.shed.total")),
            "{}",
            c.render()
        );
    }

    #[test]
    fn mem_inflation_fails_the_gate() {
        // The acceptance scenario: a 20%-inflated mem.* high-water must
        // fail a 10%-tolerance compare.
        let old = sample();
        let mut new = sample();
        for (_, v) in new.mem.iter_mut() {
            *v += *v / 5;
        }
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(!c.pass(), "{}", c.render());
        assert!(
            c.regressions
                .iter()
                .any(|r| r.contains("mem.netsim.fib.hiwater")),
            "{}",
            c.render()
        );
        assert!(
            c.regressions
                .iter()
                .any(|r| r.contains("mem.total.hiwater")),
            "{}",
            c.render()
        );
    }

    #[test]
    fn per_revtr_cost_inflation_fails_and_legacy_mem_baselines_compare() {
        let old = sample();
        let mut new = sample();
        new.events_per_revtr *= 1.25;
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(!c.pass());
        assert!(
            c.regressions.iter().any(|r| r.contains("events_per_revtr")),
            "{}",
            c.render()
        );

        // A pre-PR10 baseline carries no mem keys and zero per-revtr
        // costs: it parses leniently and never gates the new keys.
        let json = sample().to_json();
        let start = json.find("  \"mem\": {").expect("mem block");
        let end = json.find("  \"fingerprints\": {").expect("fingerprints");
        let legacy = format!("{}{}", &json[..start], &json[end..]);
        assert!(!legacy.contains("\"mem\""), "strip failed:\n{legacy}");
        let parsed_legacy = BenchReport::from_json(&legacy).expect("legacy parse");
        assert!(parsed_legacy.mem.is_empty());
        assert_eq!(parsed_legacy.events_per_revtr, 0.0);
        let c = compare(&parsed_legacy, &new, 0.10, 0.02);
        assert!(c.pass(), "{}", c.render());
    }

    #[test]
    fn latency_and_quality_regressions_fail() {
        let old = sample();
        let mut slow = sample();
        slow.virtual_ms *= 1.25;
        assert!(!compare(&old, &slow, 0.10, 0.02).pass());

        let mut lossy = sample();
        lossy.coverage -= 0.05;
        let c = compare(&old, &lossy, 0.10, 0.02);
        assert!(c.regressions.iter().any(|r| r.contains("coverage")));

        let mut wrong = sample();
        wrong.accuracy = 0.90;
        assert!(!compare(&old, &wrong, 0.10, 0.02).pass());
    }

    #[test]
    fn fingerprint_and_wall_changes_are_notes_not_failures() {
        let old = sample();
        let mut new = sample();
        new.metrics_fingerprint = "0x0000000000000001".into();
        new.wall_ms = 99999.0;
        let c = compare(&old, &new, 0.10, 0.02);
        assert!(c.pass(), "{}", c.render());
        assert!(c.notes.iter().any(|n| n.contains("fingerprints changed")));
    }

    #[test]
    fn mismatched_scales_refuse_to_compare() {
        let old = sample();
        let mut new = sample();
        new.scale = "standard".into();
        assert!(!compare(&old, &new, 0.10, 0.02).pass());
    }
}
