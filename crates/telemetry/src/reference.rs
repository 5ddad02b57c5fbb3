//! The record and read paths this crate had before they were compiled
//! down — string-keyed metrics built with `format!` per update, per-span
//! field vectors, a journal that keeps every record and sorts them all on
//! read — kept as the executable specification of the fast ones, and the
//! differential property test that holds the two equal.

use crate::histogram::Histogram;
use crate::journal::Field;
use crate::registry::MetricsSnapshot;
use crate::span::{ScopeBuffers, Telemetry, TelemetryConfig, WatchdogFlag};
use crate::{Fnv, SpanCost};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Default)]
struct RefRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl RefRegistry {
    fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    fn record(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone().into_iter().collect(),
            histograms: self.histograms.clone().into_iter().collect(),
        }
    }
}

#[derive(Clone)]
struct RefSpan {
    stage: &'static str,
    depth: u32,
    t_us: u64,
    dur_us: u64,
    fields: Vec<Field>,
}

#[derive(Clone)]
struct RefRecord {
    dst: u32,
    src: u32,
    status: &'static str,
    virtual_us: u64,
    spans: Vec<RefSpan>,
}

impl RefRecord {
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"dst\":{},\"src\":{},\"status\":\"{}\",\"virtual_us\":{},\"spans\":[",
            self.dst, self.src, self.status, self.virtual_us
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"stage\":\"{}\",\"depth\":{},\"t_us\":{},\"dur_us\":{}",
                sp.stage, sp.depth, sp.t_us, sp.dur_us
            );
            for (k, v) in &sp.fields {
                let _ = write!(s, ",\"{k}\":{v}");
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// The shared sinks of one reference handle.
#[derive(Default)]
struct RefInner {
    registry: RefRegistry,
    /// Every sampled record, in arrival order.
    journal: Vec<RefRecord>,
    watchdog: Vec<WatchdogFlag>,
}

struct RefTelemetry {
    inner: Mutex<RefInner>,
    journal_cap: usize,
    watchdog_deadline_us: Option<u64>,
}

impl RefTelemetry {
    fn with_config(cfg: &TelemetryConfig) -> RefTelemetry {
        RefTelemetry {
            inner: Mutex::default(),
            journal_cap: cfg.journal_cap,
            watchdog_deadline_us: cfg
                .watchdog_deadline_ms
                .map(|ms| (ms.max(0.0) * 1000.0).round() as u64),
        }
    }

    /// Sort everything by `(src, dst, json)`, then truncate to the cap.
    fn retained(&self) -> Vec<RefRecord> {
        let mut recs = self.inner.lock().journal.clone();
        recs.sort_by_cached_key(|r| (r.src, r.dst, r.to_json()));
        recs.truncate(self.journal_cap);
        recs
    }

    /// The `telemetry.journal.dropped` ledger: once the journal is full,
    /// every offer drops a record — itself or the one it displaces.
    fn journal_dropped(&self) -> u64 {
        let offered = self.inner.lock().journal.len();
        offered.saturating_sub(self.journal_cap) as u64
    }

    fn journal_lines(&self) -> Vec<String> {
        self.retained().iter().map(RefRecord::to_json).collect()
    }

    /// The `telemetry.journal` ledger: fixed units per retained record,
    /// span and field.
    fn journal_bytes(&self) -> u64 {
        self.retained()
            .iter()
            .map(|r| {
                let fields: usize = r.spans.iter().map(|s| s.fields.len()).sum();
                (56 + r.spans.len() * 64 + fields * 24) as u64
            })
            .sum()
    }

    fn request(&self, dst: u32, src: u32, origin_ms: f64) -> RefScope<'_> {
        RefScope {
            tele: self,
            dst,
            src,
            origin_ms,
            spans: Vec::new(),
            stack: Vec::new(),
            finished: false,
        }
    }
}

struct RefScope<'a> {
    tele: &'a RefTelemetry,
    dst: u32,
    src: u32,
    origin_ms: f64,
    spans: Vec<RefSpan>,
    stack: Vec<usize>,
    finished: bool,
}

impl RefScope<'_> {
    fn rel_us(&self, now_ms: f64) -> u64 {
        ((now_ms - self.origin_ms).max(0.0) * 1000.0).round() as u64
    }

    fn enter(&mut self, stage: &'static str, now_ms: f64) -> usize {
        let t_us = self.rel_us(now_ms);
        let idx = self.spans.len();
        self.spans.push(RefSpan {
            stage,
            depth: self.stack.len() as u32,
            t_us,
            dur_us: 0,
            fields: Vec::new(),
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, now_ms: f64, fields: &[Field]) {
        let end = self.rel_us(now_ms);
        if let Some(span) = self.spans.get_mut(idx) {
            span.dur_us = end.saturating_sub(span.t_us);
            span.fields.extend_from_slice(fields);
        }
        while let Some(top) = self.stack.pop() {
            if top == idx {
                break;
            }
        }
    }

    fn finish(&mut self, status: &'static str, now_ms: f64) {
        if self.finished {
            return;
        }
        self.finished = true;
        let total_us = self.rel_us(now_ms);
        while let Some(idx) = self.stack.pop() {
            if let Some(span) = self.spans.get_mut(idx) {
                span.dur_us = total_us.saturating_sub(span.t_us);
            }
        }
        let mut sink = self.tele.inner.lock();
        if let Some(deadline_us) = self.tele.watchdog_deadline_us {
            if total_us > deadline_us {
                let mut stage: &'static str = "request";
                let mut stage_t_us = 0u64;
                let mut best_depth = 0u32;
                for span in &self.spans {
                    let open_at_deadline =
                        span.t_us <= deadline_us && deadline_us < span.t_us + span.dur_us;
                    if open_at_deadline
                        && (span.depth + 1 > best_depth
                            || (span.depth + 1 == best_depth && span.t_us >= stage_t_us))
                    {
                        best_depth = span.depth + 1;
                        stage = span.stage;
                        stage_t_us = span.t_us;
                    }
                }
                sink.watchdog.push(WatchdogFlag {
                    dst: self.dst,
                    src: self.src,
                    status,
                    virtual_us: total_us,
                    deadline_us,
                    stage,
                    stage_t_us,
                });
            }
        }
        let reg = &mut sink.registry;
        reg.add("request.count", 1);
        reg.add(&format!("request.status.{status}"), 1);
        reg.record("request.virtual_us", total_us);
        for span in &self.spans {
            reg.add(&format!("stage.{}.spans", span.stage), 1);
            reg.record(&format!("stage.{}.virtual_us", span.stage), span.dur_us);
            for (k, v) in &span.fields {
                reg.add(&format!("stage.{}.{k}", span.stage), *v);
            }
        }
        sink.journal.push(RefRecord {
            dst: self.dst,
            src: self.src,
            status,
            virtual_us: total_us,
            spans: std::mem::take(&mut self.spans),
        });
    }

    /// What dropping an unfinished scope did.
    fn abandon(&mut self) {
        if !self.finished {
            let last = self
                .spans
                .iter()
                .map(|s| s.t_us + s.dur_us)
                .max()
                .unwrap_or(0);
            self.finish("abandoned", self.origin_ms + last as f64 / 1000.0);
        }
    }
}

const STAGES: [&str; 5] = [
    "rr_step",
    "rr_direct",
    "rr_spoofed",
    "ts_step",
    "atlas_intersection",
];
const FIELDS: [&str; 5] = ["probes", "pkts", "retries", "hit", "spans"];
const STATUSES: [&str; 4] = ["Complete", "Stuck", "Failed", "abandoned"];
/// Literal names recorded beside the scopes; three of them are names the
/// scopes also produce from key parts, so the snapshot must merge them.
const COUNTERS: [&str; 4] = [
    "request.count",
    "stage.rr_step.spans",
    "request.status.Stuck",
    "probing.retries",
];
const HISTOGRAMS: [&str; 2] = ["stage.rr_step.virtual_us", "probing.batch.pairs"];

#[derive(Clone, Debug)]
enum Op {
    Enter {
        stage: usize,
        dt: f64,
    },
    /// Close the `pick`-th outstanding token (any of them, not only the
    /// innermost: mismatched exits are tolerated, identically).
    Exit {
        pick: usize,
        dt: f64,
        fields: Vec<Field>,
        costed: bool,
    },
    Counter {
        name: usize,
        n: u64,
    },
    Histogram {
        name: usize,
        v: u64,
    },
}

#[derive(Clone, Debug)]
struct Request {
    dst: u32,
    src: u32,
    origin_ms: f64,
    ops: Vec<Op>,
    /// `Some((status, dt))` finishes (twice: the second is ignored);
    /// `None` drops the scope unfinished.
    finish: Option<(usize, f64)>,
}

/// Decodes a property-test word stream into requests, cycling through it
/// (an empty stream reads as zeros, so every stream decodes).
struct Draw<'a>(std::iter::Cycle<std::slice::Iter<'a, u64>>);

impl Draw<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next().copied().unwrap_or(0) % n
    }

    fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Mostly forwards in time; one step in five backwards, which clamps.
    fn dt(&mut self) -> f64 {
        let ms = self.below(20_000) as f64 / 1000.0;
        if self.below(5) == 0 {
            -ms / 4.0
        } else {
            ms
        }
    }

    fn op(&mut self) -> Op {
        match self.below(10) {
            0..=3 => Op::Enter {
                stage: self.index(STAGES.len()),
                dt: self.dt(),
            },
            4..=7 => Op::Exit {
                pick: self.index(8),
                dt: self.dt(),
                fields: {
                    // One exit in eight may carry more fields than a
                    // whole served request records.
                    let most = if self.below(8) == 0 { 90 } else { 6 };
                    (0..self.below(most))
                        .map(|_| (FIELDS[self.index(FIELDS.len())], self.below(1000)))
                        .collect()
                },
                costed: self.below(2) == 0,
            },
            8 => Op::Counter {
                name: self.index(COUNTERS.len()),
                n: self.below(50),
            },
            _ => Op::Histogram {
                name: self.index(HISTOGRAMS.len()),
                v: self.below(100_000),
            },
        }
    }

    fn request(&mut self) -> Request {
        Request {
            // Few distinct keys: journal ties on `(src, dst)` are the rule.
            dst: self.below(6) as u32,
            src: self.below(3) as u32,
            origin_ms: self.below(1_000_000) as f64 / 1000.0,
            ops: (0..self.below(24)).map(|_| self.op()).collect(),
            finish: (self.below(5) > 0).then(|| (self.index(STATUSES.len()), self.dt().abs())),
        }
    }
}

/// Drive one request through both implementations — the compiled one on
/// the storage its driver `lent`, or on a scope of its own.
fn replay(req: &Request, new: &Telemetry, old: &RefTelemetry, mut lent: Option<&mut ScopeBuffers>) {
    let mut scope = match lent.as_deref_mut() {
        Some(bufs) => new.request_in(bufs, req.dst, req.src, req.origin_ms),
        None => new.request(req.dst, req.src, req.origin_ms),
    };
    let mut ref_scope = old.request(req.dst, req.src, req.origin_ms);
    let mut tokens = Vec::new();
    let mut now = req.origin_ms;
    for op in &req.ops {
        match op {
            Op::Enter { stage, dt } => {
                now += dt;
                let tok = scope.enter(STAGES[*stage], now);
                tokens.push((tok, ref_scope.enter(STAGES[*stage], now)));
            }
            Op::Exit {
                pick,
                dt,
                fields,
                costed,
            } => {
                if tokens.is_empty() {
                    continue;
                }
                now += dt;
                let (tok, idx) = tokens.remove(pick % tokens.len());
                if *costed {
                    scope.exit_costed(tok, now, fields, SpanCost::ZERO);
                } else {
                    scope.exit(tok, now, fields);
                }
                ref_scope.exit(idx, now, fields);
            }
            Op::Counter { name, n } => {
                new.counter_add(COUNTERS[*name], *n);
                old.inner.lock().registry.add(COUNTERS[*name], *n);
            }
            Op::Histogram { name, v } => {
                new.record(HISTOGRAMS[*name], *v);
                old.inner.lock().registry.record(HISTOGRAMS[*name], *v);
            }
        }
    }
    match req.finish {
        Some((status, dt)) => {
            scope.finish(STATUSES[status], now + dt);
            scope.finish("Complete", now + dt + 1.0);
            ref_scope.finish(STATUSES[status], now + dt);
            ref_scope.finish("Complete", now + dt + 1.0);
        }
        // The compiled scope is abandoned where it ends, below.
        None => ref_scope.abandon(),
    }
    match lent {
        Some(bufs) => scope.release(bufs),
        None => drop(scope),
    }
}

/// A total order on flags (the handle's own sort leaves ties on
/// `(src, dst, stage)` in arrival order, which threads do not share).
fn flag_key(f: &WatchdogFlag) -> (u32, u32, &'static str, u64, u64, &'static str) {
    (f.src, f.dst, f.stage, f.stage_t_us, f.virtual_us, f.status)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Static keys folded per request into recorder stripes, and a
    /// bounded top-k journal of packed records, read back exactly what
    /// string-keyed per-update recording and sort-everything-then-truncate
    /// did: snapshots (names, values, fingerprint), journal lines, records,
    /// fingerprint, byte and drop ledgers, and watchdog flags, for any span
    /// tree, from any number of recording threads — each opening a scope
    /// per request, or recording them all in one set of buffers (whatever
    /// the last request left in them: retained by the journal, rejected,
    /// abandoned, grown). Half the cases flood the journal: every request
    /// sampled, at least eight offers per retained place, over 18 keys.
    #[test]
    fn compiled_paths_equal_the_reference(
        words in proptest::collection::vec(0u64..u64::MAX, 0..3600),
        n_requests in 0usize..40,
        journal_cap in 0usize..=64,
        flood in 0u8..2,
        // Below 10 ms reads as "watchdog off".
        deadline_ms in 0.0f64..50.0,
        profile in 0u8..2,
        threads in 1usize..=8,
        recycle in 0u8..2,
    ) {
        let mut draw = Draw(words.iter().cycle());
        let n_requests = match flood {
            1 => n_requests + 8 * journal_cap,
            _ => n_requests,
        };
        let requests: Vec<Request> = (0..n_requests).map(|_| draw.request()).collect();
        let cfg = TelemetryConfig {
            journal_cap,
            watchdog_deadline_ms: (deadline_ms >= 10.0).then_some(deadline_ms - 10.0),
            profile: profile == 1,
        };
        let new = Telemetry::with_config(cfg.clone());
        let old = RefTelemetry::with_config(&cfg);
        std::thread::scope(|s| {
            for t in 0..threads {
                let (new, old, requests) = (&new, &old, &requests);
                s.spawn(move || {
                    let mut lent = ScopeBuffers::default();
                    for req in requests.iter().skip(t).step_by(threads) {
                        replay(req, new, old, (recycle == 1).then_some(&mut lent));
                    }
                });
            }
        });

        let (got, want) = (new.metrics(), old.inner.lock().registry.snapshot());
        prop_assert_eq!(&got.counters, &want.counters);
        let names = |s: &MetricsSnapshot| -> Vec<String> {
            s.histograms.iter().map(|(k, _)| k.clone()).collect()
        };
        prop_assert_eq!(names(&got), names(&want));
        prop_assert_eq!(got.fingerprint(), want.fingerprint());
        prop_assert_eq!(new.metrics_fingerprint(), want.fingerprint());

        let lines = old.journal_lines();
        prop_assert_eq!(new.journal_lines(), lines.clone());
        let rendered: Vec<String> =
            new.journal_records().iter().map(|r| r.to_json()).collect();
        prop_assert_eq!(&rendered, &lines);
        let mut fp = Fnv::new();
        for line in &lines {
            fp.write(line.as_bytes());
            fp.write(b"\n");
        }
        prop_assert_eq!(new.journal_fingerprint(), fp.finish());
        if profile == 1 {
            let ledgers = new.resources();
            prop_assert_eq!(ledgers.current("telemetry.journal"), old.journal_bytes());
            let dropped = ledgers.current("telemetry.journal.dropped");
            prop_assert_eq!(dropped, old.journal_dropped());
        }

        let mut got = new.watchdog_flags();
        let mut want = old.inner.lock().watchdog.clone();
        got.sort_by_key(flag_key);
        want.sort_by_key(flag_key);
        prop_assert_eq!(got, want);
    }
}

/// One request of `n_spans` sequential spans, `fields_per_span` fields each.
fn flat_request(dst: u32, n_spans: usize, fields_per_span: usize, finish: bool) -> Request {
    let mut ops = Vec::new();
    for i in 0..n_spans {
        ops.push(Op::Enter {
            stage: i % STAGES.len(),
            dt: 1.0,
        });
        ops.push(Op::Exit {
            pick: 0,
            dt: 2.0,
            fields: (0..fields_per_span)
                .map(|k| (FIELDS[k % FIELDS.len()], (i * 100 + k) as u64))
                .collect(),
            costed: true,
        });
    }
    Request {
        dst,
        src: 1,
        origin_ms: 10.0 * f64::from(dst),
        ops,
        finish: finish.then_some((0, 1.0)),
    }
}

/// A recycled scope is a fresh one: the same requests recorded in one set
/// of buffers — through a record the journal keeps, one it rejects, one
/// that displaces the maximum, a scope dropped unfinished and requests
/// that grow the buffers or leave them larger than they need — leave the
/// metrics, the journal and its byte ledger exactly as a scope per request
/// does.
#[test]
fn a_recycled_scope_records_what_a_fresh_one_does() {
    let requests = [
        flat_request(5, 3, 4, true),  // retained: the journal has room
        flat_request(6, 2, 4, true),  // retained: fills the journal (cap 2)
        flat_request(9, 4, 4, true),  // rejected: above the maximum
        flat_request(2, 20, 5, true), // displaces dst 6; grows both buffers
        flat_request(3, 5, 3, false), // abandoned, and displaces dst 5
        flat_request(9, 1, 0, true),  // rejected again, on large buffers
        flat_request(1, 2, 80, true), // one exit of 80 fields
    ];
    let cfg = TelemetryConfig {
        journal_cap: 2,
        profile: true,
        ..TelemetryConfig::default()
    };
    let (fresh, recycled) = (
        Telemetry::with_config(cfg.clone()),
        Telemetry::with_config(cfg.clone()),
    );
    let old = RefTelemetry::with_config(&cfg);
    let mut lent = ScopeBuffers::default();
    for req in &requests {
        replay(req, &fresh, &old, None);
        replay(
            req,
            &recycled,
            &RefTelemetry::with_config(&cfg),
            Some(&mut lent),
        );
    }
    assert_eq!(recycled.metrics_fingerprint(), fresh.metrics_fingerprint());
    assert_eq!(recycled.journal_lines(), fresh.journal_lines());
    assert_eq!(recycled.journal_lines(), old.journal_lines());
    assert_eq!(recycled.journal_fingerprint(), fresh.journal_fingerprint());
    let ledger = |t: &Telemetry| t.resources().current("telemetry.journal");
    assert_eq!(ledger(&recycled), ledger(&fresh));
    assert_eq!(ledger(&recycled), old.journal_bytes());
    assert_eq!(recycled.profile_stacks(), fresh.profile_stacks());
    let kept: Vec<u32> = recycled.journal_records().iter().map(|r| r.dst).collect();
    assert_eq!(kept, vec![1, 2]);
    assert_eq!(recycled.metrics().counter("request.status.abandoned"), 1);
}
