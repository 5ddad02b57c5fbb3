//! The telemetry handle and the per-request span recorder.
//!
//! [`Telemetry`] is the cloneable entry point threaded through probers,
//! systems, and services. Disabled (the default) it is a `None` and every
//! method returns after one branch — instrumented code stays on its seed
//! behaviour because this crate performs no probing, no PRNG draws, and
//! no clock writes of its own. Enabled, it carries a shared
//! [`MetricsRegistry`] and [`Journal`].
//!
//! [`RequestScope`] records one request's span tree. All timestamps are
//! *virtual milliseconds supplied by the caller* (per-thread simulated
//! time, so spans are worker-count-invariant); this module never reads
//! `std::time`.

use crate::journal::{Field, Journal, RequestRecord, SpanRecord, NO_SPAN};
use crate::registry::{MetricKey, MetricsRegistry, MetricsSnapshot};
use crate::resource::{ProfileAgg, ProfileStack, ResourceRegistry, ResourceSnapshot, SpanCost};
use parking_lot::Mutex;
use std::sync::Arc;

/// Tuning knobs for an enabled telemetry handle.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// How many requests the journal retains (the smallest by
    /// `(src, dst, json)`). The default (4096) comfortably covers the
    /// standard campaign scale, so SLO windows and trace exports see
    /// every request. A retained request holds one block of
    /// 24 bytes, 32 per span and 12 per field, plus a 16-byte heap slot:
    /// ≈ 0.9 KB for a served reverse traceroute (8–9 spans, ~48 fields),
    /// ≈ 3.6 MB at the default cap.
    pub journal_cap: usize,
    /// Stuck-request watchdog: a finished request whose end-to-end
    /// virtual duration exceeds this deadline is flagged (never killed)
    /// together with the deepest span still open at the deadline.
    /// `None` (the default) disables the watchdog. Flags land in a
    /// dedicated store, *not* the metrics registry, so arming the
    /// watchdog cannot change a campaign's metrics fingerprint.
    pub watchdog_deadline_ms: Option<f64>,
    /// Arm the resource/cost profiler: byte ledgers accept wave-barrier
    /// samples and finished spans merge their [`SpanCost`]s into the
    /// collapsed-stack profile. Both stores sit *outside* the metrics
    /// registry and journal, so flipping this flag cannot change a
    /// campaign's telemetry fingerprints (the metamorphic suite pins
    /// that). Off by default.
    pub profile: bool,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            journal_cap: 4096,
            watchdog_deadline_ms: None,
            profile: false,
        }
    }
}

/// One stuck-request watchdog flag: a request that overran the virtual
/// deadline, with the deepest span still open when the deadline passed
/// (the stage the request was stuck *in*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchdogFlag {
    /// Destination address of the flagged request.
    pub dst: u32,
    /// Source address of the flagged request.
    pub src: u32,
    /// The request's final status label.
    pub status: &'static str,
    /// End-to-end virtual microseconds the request actually took.
    pub virtual_us: u64,
    /// The deadline it overran, in virtual microseconds.
    pub deadline_us: u64,
    /// Deepest span open at the deadline (`"request"` when the overrun
    /// happened outside any stage span).
    pub stage: &'static str,
    /// Virtual microseconds from request start to that span's entry.
    pub stage_t_us: u64,
}

#[derive(Debug)]
struct Inner {
    registry: MetricsRegistry,
    journal: Journal,
    watchdog_deadline_us: Option<u64>,
    watchdog: Mutex<Vec<WatchdogFlag>>,
    /// Byte ledgers + collapsed-stack cost profile, present only when
    /// [`TelemetryConfig::profile`] is set. Kept apart from `registry`
    /// and `journal` so profiling is fingerprint-neutral.
    profile: Option<ProfileStore>,
}

#[derive(Debug, Default)]
struct ProfileStore {
    resources: ResourceRegistry,
    stacks: ProfileAgg,
}

/// A cloneable, shareable telemetry handle. `Telemetry::disabled()` is
/// the zero-cost default; all clones of one enabled handle feed the same
/// registry and journal.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle (every recording method is a single branch).
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// An enabled handle with default config (journal every request,
    /// 4096-entry rendered cap, watchdog off).
    pub fn enabled() -> Telemetry {
        Telemetry::with_config(TelemetryConfig::default())
    }

    /// An enabled handle with explicit config.
    pub fn with_config(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: MetricsRegistry::new(),
                journal: Journal::new(cfg.journal_cap),
                watchdog_deadline_us: cfg
                    .watchdog_deadline_ms
                    .map(|ms| (ms.max(0.0) * 1000.0).round() as u64),
                watchdog: Mutex::new(Vec::new()),
                profile: cfg.profile.then(ProfileStore::default),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to counter `key` — a `&'static str` name or a tuple of
    /// its dotted parts (no-op when disabled).
    pub fn counter_add(&self, key: impl Into<MetricKey>, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.add(key, n);
        }
    }

    /// Record `v` into histogram `key` (no-op when disabled).
    pub fn record(&self, key: impl Into<MetricKey>, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.record(key, v);
        }
    }

    /// Add `n` to a counter named at run time (no-op when disabled).
    /// One shared lock and a string compare per call: for cold paths such
    /// as firing SLO alerts.
    pub fn counter_add_named(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.add_named(name, n);
        }
    }

    /// Open a request scope for `(dst, src)` with its virtual-time origin
    /// (the caller's per-thread clock reading at request start). Inactive
    /// when disabled.
    pub fn request(&self, dst: u32, src: u32, origin_ms: f64) -> RequestScope {
        self.request_in(&mut ScopeBuffers::default(), dst, src, origin_ms)
    }

    /// [`request`](Telemetry::request) on storage the caller lends: the
    /// scope takes what `lent` holds (allocating only a first request's
    /// recorder) and [`RequestScope::release`] hands it back, so a driver
    /// that serves one request at a time records them all in one set of
    /// buffers, which keep what they grew to. Leaves `lent` alone when
    /// disabled.
    pub fn request_in(
        &self,
        lent: &mut ScopeBuffers,
        dst: u32,
        src: u32,
        origin_ms: f64,
    ) -> RequestScope {
        let Some(inner) = &self.inner else {
            return RequestScope { inner: None };
        };
        let mut a = lent.0.take().unwrap_or_else(|| {
            Box::new(Active {
                tele: Arc::clone(inner),
                origin_ms,
                rec: RequestRecord::new(dst, src, "", 0),
                costs: Vec::new(),
                top: NO_SPAN,
                depth: 0,
                finished: false,
            })
        });
        if !Arc::ptr_eq(&a.tele, inner) {
            a.tele = Arc::clone(inner);
        }
        // Finishing closed every span: `top` and `depth` are at rest.
        debug_assert!(a.top == NO_SPAN && a.depth == 0);
        (a.rec.dst, a.rec.src, a.origin_ms, a.finished) = (dst, src, origin_ms, false);
        a.rec.spans.clear();
        a.rec.fields.clear();
        a.costs.clear();
        RequestScope { inner: Some(a) }
    }

    /// Sorted snapshot of all metrics (empty when disabled).
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// Rendered JSONL journal lines (sorted, bounded; empty when disabled).
    pub fn journal_lines(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner.journal.lines(),
            None => Vec::new(),
        }
    }

    /// Sorted, bounded journal records (empty when disabled).
    pub fn journal_records(&self) -> Vec<RequestRecord> {
        match &self.inner {
            Some(inner) => inner.journal.records_sorted(),
            None => Vec::new(),
        }
    }

    /// Fingerprint of the metrics snapshot (0 when disabled).
    pub fn metrics_fingerprint(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.registry.snapshot().fingerprint(),
            None => 0,
        }
    }

    /// Fingerprint of the rendered journal (0 when disabled).
    pub fn journal_fingerprint(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.journal.fingerprint(),
            None => 0,
        }
    }

    /// The stuck-request watchdog flags, sorted by `(src, dst, stage)` so
    /// the report is insertion-order (and worker-count) independent.
    /// Empty when disabled or when no deadline was configured.
    pub fn watchdog_flags(&self) -> Vec<WatchdogFlag> {
        match &self.inner {
            Some(inner) => {
                let mut flags = inner.watchdog.lock().clone();
                flags.sort_by_key(|f| (f.src, f.dst, f.stage));
                flags
            }
            None => Vec::new(),
        }
    }

    /// The configured watchdog deadline in virtual microseconds, if armed.
    pub fn watchdog_deadline_us(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|i| i.watchdog_deadline_us)
    }

    /// Whether the resource/cost profiler is armed. Callers use this to
    /// skip the cost of *computing* byte footprints when it is not.
    pub fn profiling(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.profile.is_some())
    }

    /// Set ledger `name` and record one `(ord, bytes)` counter-track
    /// sample; `ord` is a caller-supplied monotone ordinate such as the
    /// engine wave number (no-op unless profiling).
    pub fn resource_record(&self, name: &'static str, ord: u64, bytes: u64) {
        if let Some(p) = self.profile_store() {
            p.resources.record(name, ord, bytes);
        }
    }

    /// Name-sorted snapshot of all byte ledgers, with the telemetry
    /// stores' own footprints (`telemetry.*` self-accounting) refreshed
    /// first. Empty when disabled or not profiling.
    pub fn resources(&self) -> ResourceSnapshot {
        match self.profile_store() {
            Some(p) => {
                let inner = match &self.inner {
                    Some(i) => i,
                    None => return ResourceSnapshot::default(),
                };
                p.resources
                    .set("telemetry.journal", inner.journal.approx_bytes());
                p.resources
                    .set("telemetry.journal.dropped", inner.journal.dropped());
                p.resources
                    .set("telemetry.profile", p.stacks.approx_bytes());
                p.resources
                    .set("telemetry.resources", p.resources.approx_bytes());
                p.resources.snapshot()
            }
            None => ResourceSnapshot::default(),
        }
    }

    /// All ledger `(name, (ord, bytes) series)` pairs for counter-track
    /// export (empty when disabled or not profiling).
    pub fn resource_series(&self) -> Vec<(String, Vec<(u64, u64)>)> {
        match self.profile_store() {
            Some(p) => p.resources.series(),
            None => Vec::new(),
        }
    }

    /// Path-sorted collapsed-stack profile rows (empty when disabled or
    /// not profiling).
    pub fn profile_stacks(&self) -> Vec<ProfileStack> {
        match self.profile_store() {
            Some(p) => p.stacks.stacks(),
            None => Vec::new(),
        }
    }

    fn profile_store(&self) -> Option<&ProfileStore> {
        self.inner.as_ref().and_then(|i| i.profile.as_ref())
    }
}

struct Active {
    tele: Arc<Inner>,
    origin_ms: f64,
    /// The request's identity, its spans in entry order and their fields,
    /// one run per span: what a sampled request offers the journal, which
    /// copies it. `status` and `virtual_us` are set by `finish`.
    rec: RequestRecord,
    /// Per-span costs, index-aligned with `rec.spans` (zero for spans closed
    /// through the uncosted `exit` path); empty unless the profiler is
    /// armed.
    costs: Vec<SpanCost>,
    /// Innermost open span ([`NO_SPAN`] when none). The open-span stack
    /// is the chain of `enclosing` links from here; `depth` is its length.
    top: u32,
    depth: u32,
    finished: bool,
}

/// A request scope's storage while no request is using it: the recorder
/// and its span, field and cost buffers, kept by whoever opens scopes one
/// after another ([`Telemetry::request_in`]). Empty by default.
#[derive(Default)]
pub struct ScopeBuffers(Option<Box<Active>>);

impl std::fmt::Debug for ScopeBuffers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopeBuffers")
            .field("held", &self.0.is_some())
            .finish()
    }
}

/// Handle returned by [`RequestScope::enter`]; pass it back to
/// [`RequestScope::exit`] to close the span.
#[derive(Debug)]
pub struct SpanToken(usize);

/// Span recorder for one in-flight request. Create via
/// [`Telemetry::request`]; inert (all methods single-branch no-ops) when
/// the telemetry handle is disabled.
pub struct RequestScope {
    inner: Option<Box<Active>>,
}

impl std::fmt::Debug for RequestScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestScope")
            .field("active", &self.inner.is_some())
            .finish()
    }
}

impl Active {
    /// Virtual microseconds since request origin.
    fn rel_us(&self, now_ms: f64) -> u64 {
        ((now_ms - self.origin_ms).max(0.0) * 1000.0).round() as u64
    }

    /// Pop the innermost open span off the open-span chain.
    fn pop_open(&mut self) -> Option<usize> {
        let idx = self.top as usize;
        let span = self.rec.spans.get(idx)?; // `NO_SPAN` indexes nothing
        self.top = span.enclosing;
        self.depth -= 1;
        Some(idx)
    }
}

impl RequestScope {
    /// Whether spans are being recorded. Callers use this to skip the
    /// cost of *computing* timestamps and probe deltas when disabled.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `stage` at virtual time `now_ms`.
    pub fn enter(&mut self, stage: &'static str, now_ms: f64) -> Option<SpanToken> {
        let a = self.inner.as_mut()?;
        let t_us = a.rel_us(now_ms);
        let idx = a.rec.spans.len();
        a.rec.spans.push(SpanRecord {
            stage,
            depth: a.depth,
            t_us,
            dur_us: 0,
            fields: (0, 0),
            enclosing: a.top,
        });
        if a.tele.profile.is_some() {
            a.costs.push(SpanCost::ZERO);
        }
        a.top = idx as u32;
        a.depth += 1;
        Some(SpanToken(idx))
    }

    /// Close the span `tok` at virtual time `now_ms`, attaching `fields`.
    /// `None` tokens (from a disabled `enter`) are ignored.
    pub fn exit(&mut self, tok: Option<SpanToken>, now_ms: f64, fields: &[Field]) {
        let (Some(a), Some(SpanToken(idx))) = (self.inner.as_mut(), tok) else {
            return;
        };
        let end = a.rel_us(now_ms);
        if let Some(span) = a.rec.spans.get_mut(idx) {
            span.dur_us = end.saturating_sub(span.t_us);
            span.fields = (a.rec.fields.len() as u32, fields.len() as u32);
            a.rec.fields.extend_from_slice(fields);
        }
        // Spans are expected to nest; tolerate mismatched exits by
        // popping through to the token.
        while let Some(top) = a.pop_open() {
            if top == idx {
                break;
            }
        }
    }

    /// [`exit`](RequestScope::exit) plus the span's [`SpanCost`] for the
    /// collapsed-stack profile (kept only while the handle's profiler is
    /// armed).
    pub fn exit_costed(
        &mut self,
        tok: Option<SpanToken>,
        now_ms: f64,
        fields: &[Field],
        cost: SpanCost,
    ) {
        if let (Some(a), Some(SpanToken(idx))) = (self.inner.as_mut(), &tok) {
            if let Some(c) = a.costs.get_mut(*idx) {
                *c = cost;
            }
        }
        self.exit(tok, now_ms, fields);
    }

    /// Finish the request: close dangling spans, aggregate into the
    /// registry, and journal the trace if sampled. Idempotent.
    pub fn finish(&mut self, status: &'static str, now_ms: f64) {
        let Some(a) = self.inner.as_mut() else {
            return;
        };
        if a.finished {
            return;
        }
        a.finished = true;
        let total_us = a.rel_us(now_ms);
        while let Some(idx) = a.pop_open() {
            if let Some(span) = a.rec.spans.get_mut(idx) {
                span.dur_us = total_us.saturating_sub(span.t_us);
            }
        }

        // Watchdog: flag (never kill) a request that overran the virtual
        // deadline, attributing it to the deepest span still open at the
        // deadline instant. Flags go to their own store — arming the
        // watchdog must not perturb the metrics fingerprint.
        if let Some(deadline_us) = a.tele.watchdog_deadline_us {
            if total_us > deadline_us {
                let mut stage: &'static str = "request";
                let mut stage_t_us = 0u64;
                let mut best_depth = 0u32;
                for span in &a.rec.spans {
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
                a.tele.watchdog.lock().push(WatchdogFlag {
                    dst: a.rec.dst,
                    src: a.rec.src,
                    status,
                    virtual_us: total_us,
                    deadline_us,
                    stage,
                    stage_t_us,
                });
            }
        }

        // The whole request folds into this thread's registry stripe
        // under one lock; keys are static parts, rendered only on read.
        {
            let mut reg = a.tele.registry.fold();
            reg.add("request.count", 1);
            reg.add(("request.status", status), 1);
            reg.record("request.virtual_us", total_us);
            for span in &a.rec.spans {
                reg.add(("stage", span.stage, "spans"), 1);
                reg.record(("stage", span.stage, "virtual_us"), span.dur_us);
                for &(k, v) in a.rec.fields(span) {
                    reg.add(("stage", span.stage, k), v);
                }
            }
        }

        // Collapsed-stack cost attribution (profiler armed only). Paths
        // are rebuilt from span depths — the same parentage walk the
        // Chrome-trace export uses — and merged commutatively, so the
        // profile is independent of request completion order.
        if let Some(p) = &a.tele.profile {
            p.stacks.merge("request", total_us, SpanCost::ZERO);
            let mut names: Vec<&'static str> = Vec::new();
            for (span, cost) in a.rec.spans.iter().zip(&a.costs) {
                names.truncate(span.depth as usize);
                names.push(span.stage);
                let mut path = String::from("request");
                for n in &names {
                    path.push(';');
                    path.push_str(n);
                }
                p.stacks.merge(&path, span.dur_us, *cost);
            }
        }

        // The journal copies what it retains into a block of its own: the
        // scope keeps its buffers, whatever the journal decides.
        (a.rec.status, a.rec.virtual_us) = (status, total_us);
        a.tele.journal.push(&a.rec);
    }

    /// A scope that was never finished (early return / panic unwind)
    /// still aggregates, stamped at its latest known virtual time so no
    /// span gets a negative duration.
    fn abandon(&mut self) {
        if let Some(a) = &self.inner {
            if !a.finished {
                let last = a
                    .rec
                    .spans
                    .iter()
                    .map(|s| s.t_us + s.dur_us)
                    .max()
                    .unwrap_or(0);
                let now = a.origin_ms + last as f64 / 1000.0;
                self.finish("abandoned", now);
            }
        }
    }

    /// End the scope — as dropping it does — and hand its storage to
    /// `lent` for the next [`Telemetry::request_in`].
    pub fn release(mut self, lent: &mut ScopeBuffers) {
        self.abandon();
        if let Some(a) = self.inner.take() {
            lent.0 = Some(a);
        }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        self.abandon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_scope_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let mut req = t.request(1, 2, 0.0);
        assert!(!req.active());
        let tok = req.enter("x", 1.0);
        assert!(tok.is_none());
        req.exit(tok, 2.0, &[("f", 1)]);
        req.finish("Complete", 3.0);
        assert_eq!(t.metrics_fingerprint(), 0);
        assert_eq!(t.journal_fingerprint(), 0);
        assert!(t.journal_lines().is_empty());
    }

    #[test]
    fn spans_aggregate_and_journal() {
        let t = Telemetry::enabled();
        let mut req = t.request(10, 20, 100.0);
        let outer = req.enter("rr_step", 100.0);
        let inner = req.enter("rr_direct", 100.5);
        req.exit(inner, 101.5, &[("probes", 2)]);
        req.exit(outer, 103.0, &[("revealed", 1)]);
        req.finish("Complete", 104.0);

        let snap = t.metrics();
        assert_eq!(snap.counter("request.count"), 1);
        assert_eq!(snap.counter("request.status.Complete"), 1);
        assert_eq!(snap.counter("stage.rr_step.spans"), 1);
        assert_eq!(snap.counter("stage.rr_step.revealed"), 1);
        assert_eq!(snap.counter("stage.rr_direct.probes"), 2);
        let h = snap.histogram("stage.rr_direct.virtual_us").expect("hist");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1000); // 1.0 virtual ms

        let lines = t.journal_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"stage\":\"rr_direct\",\"depth\":1"));
        assert!(lines[0].contains("\"virtual_us\":4000"));
    }

    #[test]
    fn finish_is_idempotent_and_drop_closes_dangling() {
        let t = Telemetry::enabled();
        {
            let mut req = t.request(1, 2, 0.0);
            let _open = req.enter("dangling", 5.0);
            req.finish("Stuck", 10.0);
            req.finish("Complete", 99.0); // ignored
        }
        {
            let mut req = t.request(3, 4, 0.0);
            let _open = req.enter("leaked", 1.0);
            // dropped unfinished
            let _ = &mut req;
        }
        let snap = t.metrics();
        assert_eq!(snap.counter("request.count"), 2);
        assert_eq!(snap.counter("request.status.Stuck"), 1);
        assert_eq!(snap.counter("request.status.abandoned"), 1);
        assert_eq!(snap.counter("request.status.Complete"), 0);
        // The dangling span was closed at finish time: 10ms - 5ms.
        let h = snap.histogram("stage.dangling.virtual_us").expect("hist");
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn watchdog_flags_overruns_with_the_deepest_open_span() {
        let cfg = TelemetryConfig {
            watchdog_deadline_ms: Some(10.0),
            ..TelemetryConfig::default()
        };
        let t = Telemetry::with_config(cfg);
        assert_eq!(t.watchdog_deadline_us(), Some(10_000));

        // Fast request: under the deadline, never flagged.
        t.request(1, 2, 0.0).finish("Complete", 5.0);
        assert!(t.watchdog_flags().is_empty());

        // Stuck request: the deadline (10 ms) passes inside rr_spoofed
        // (depth 1, open 4..14 ms) nested in rr_step (0..14 ms).
        let fp_before = t.metrics_fingerprint();
        let mut req = t.request(9, 2, 100.0);
        let outer = req.enter("rr_step", 100.0);
        let inner = req.enter("rr_spoofed", 104.0);
        req.exit(inner, 114.0, &[]);
        req.exit(outer, 114.0, &[]);
        req.finish("Complete", 115.0);

        let flags = t.watchdog_flags();
        assert_eq!(flags.len(), 1);
        let f = &flags[0];
        assert_eq!((f.dst, f.src), (9, 2));
        assert_eq!(f.stage, "rr_spoofed");
        assert_eq!(f.stage_t_us, 4_000);
        assert_eq!(f.virtual_us, 15_000);
        assert_eq!(f.deadline_us, 10_000);

        // Watchdog flags live outside the registry: the second request
        // changed the metrics, but flagging itself added no metric —
        // an identical unarmed handle records the same snapshot.
        let unarmed = Telemetry::enabled();
        unarmed.request(1, 2, 0.0).finish("Complete", 5.0);
        let mut req = unarmed.request(9, 2, 100.0);
        let outer = req.enter("rr_step", 100.0);
        let inner = req.enter("rr_spoofed", 104.0);
        req.exit(inner, 114.0, &[]);
        req.exit(outer, 114.0, &[]);
        req.finish("Complete", 115.0);
        assert!(unarmed.watchdog_flags().is_empty());
        assert_eq!(t.metrics_fingerprint(), unarmed.metrics_fingerprint());
        assert_ne!(t.metrics_fingerprint(), fp_before);
    }

    #[test]
    fn watchdog_overrun_outside_any_stage_blames_the_request() {
        let cfg = TelemetryConfig {
            watchdog_deadline_ms: Some(1.0),
            ..TelemetryConfig::default()
        };
        let t = Telemetry::with_config(cfg);
        let mut req = t.request(5, 6, 0.0);
        let tok = req.enter("destination_probe", 0.0);
        req.exit(tok, 0.5, &[]); // closed before the deadline
        req.finish("Complete", 3.0); // overruns with no span open
        let flags = t.watchdog_flags();
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].stage, "request");
    }

    #[test]
    fn profiler_attributes_costs_without_moving_fingerprints() {
        let run = |profile: bool| {
            let t = Telemetry::with_config(TelemetryConfig {
                profile,
                ..TelemetryConfig::default()
            });
            let mut req = t.request(10, 20, 100.0);
            let outer = req.enter("rr_step", 100.0);
            let inner = req.enter("rr_spoofed", 100.5);
            req.exit_costed(
                inner,
                101.5,
                &[("probes", 2)],
                SpanCost {
                    events: 3,
                    cache_bytes: 64,
                    probe_bytes: 136,
                },
            );
            req.exit_costed(
                outer,
                103.0,
                &[],
                SpanCost {
                    events: 5,
                    cache_bytes: 64,
                    probe_bytes: 164,
                },
            );
            req.finish("Complete", 104.0);
            t
        };

        let on = run(true);
        let off = run(false);
        assert!(on.profiling() && !off.profiling());
        // Profiling is fingerprint-neutral: metrics and journal identical.
        assert_eq!(on.metrics_fingerprint(), off.metrics_fingerprint());
        assert_eq!(on.journal_fingerprint(), off.journal_fingerprint());
        assert!(off.profile_stacks().is_empty());
        assert!(off.resources().ledgers.is_empty());

        let stacks = on.profile_stacks();
        let paths: Vec<&str> = stacks.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["request", "request;rr_step", "request;rr_step;rr_spoofed"]
        );
        let spoofed = &stacks[2];
        assert_eq!(spoofed.events, 3);
        assert_eq!(spoofed.cache_bytes, 64);
        assert_eq!(spoofed.probe_bytes, 136);
        assert_eq!(spoofed.virtual_us, 1000);

        // Ledgers: explicit sets plus telemetry self-accounting.
        on.resource_record("engine.control_blocks", 0, 4096);
        let snap = on.resources();
        assert_eq!(snap.hiwater("engine.control_blocks"), 4096);
        assert!(snap.current("telemetry.journal") > 0);
        assert!(snap.current("telemetry.profile") > 0);
        assert!(snap.current("telemetry.resources") > 0);
        assert_eq!(snap.current("telemetry.journal.dropped"), 0);
        assert_eq!(on.resource_series().len(), 1);

        // Disabled handles stay inert.
        let d = Telemetry::disabled();
        assert!(!d.profiling());
        assert!(d.resources().ledgers.is_empty());
        assert!(d.profile_stacks().is_empty());
        assert!(d.resource_series().is_empty());
    }
}
