//! Allocation gate: steady-state recording does not touch the heap per
//! metric, a request costs its scope and two buffers — nothing on buffers
//! its driver lends, once the journal is full — and reading the journal's
//! fingerprint costs one sorted view however many records were offered.
//!
//! Its own test binary because it installs a counting global allocator.
//! Counts are per thread, so the harness's other threads cannot leak in.

use revtr_telemetry::{Journal, RequestRecord, ScopeBuffers, SpanCost, Telemetry, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and stays valid while the thread is torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// destructor-free thread-local, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations this thread makes while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

static STAGES: [&str; 8] = [
    "destination_probe",
    "atlas_intersection",
    "stopset_backward",
    "rr_step",
    "rr_direct",
    "rr_spoofed",
    "ts_step",
    "assume_symmetry",
];

/// Metric keys are matched by the identity of their static parts, so
/// "warm" means *these* literals have been seen: one instance, shared.
static FIELDS: [(&str, u64); 5] = [
    ("probes", 3),
    ("pkts", 9),
    ("retries", 0),
    ("lost", 0),
    ("hit", 1),
];

/// Record one 8-span, 5-fields-per-span request (two levels of nesting),
/// from opening the scope to dropping it.
fn request(tele: &Telemetry, dst: u32) {
    request_in(tele, &mut ScopeBuffers::default(), dst);
}

/// The same request on the storage a driver lends, handed back at the end.
fn request_in(tele: &Telemetry, lent: &mut ScopeBuffers, dst: u32) {
    let mut req = tele.request_in(lent, dst, 7, 0.0);
    let mut now = 0.0;
    for pair in STAGES.chunks(2) {
        let outer = req.enter(pair[0], now);
        let inner = req.enter(pair[1], now + 0.25);
        for tok in [inner, outer] {
            now += 1.0;
            req.exit_costed(tok, now, &FIELDS, SpanCost::ZERO);
        }
    }
    req.finish("Complete", now + 1.0);
    req.release(lent);
}

#[test]
fn warm_metric_updates_do_not_allocate() {
    let tele = Telemetry::enabled();
    let update = |i: u64| {
        tele.counter_add("probing.retries", 1);
        tele.counter_add(("loadgen.offered", "gold"), 1);
        tele.counter_add(("loadgen.shed", "bronze", "rate"), i);
        tele.record("probing.batch.pairs", i);
        tele.record(("loadgen.queue_depth", "gold"), i * 1000);
    };
    update(0); // creates the five entries
    let n = allocs_in(|| (1..=1000).for_each(update));
    assert_eq!(n, 0, "warm counter_add/record allocated {n} times");
    let snap = tele.metrics();
    assert_eq!(snap.counter("probing.retries"), 1001);
    assert_eq!(snap.counter("loadgen.shed.bronze.rate"), 500_500);
    let depth = snap.histogram("loadgen.queue_depth.gold").expect("hist");
    assert_eq!(depth.count(), 1001);
}

#[test]
fn a_disabled_handle_neither_records_nor_allocates() {
    let tele = Telemetry::disabled();
    let n = allocs_in(|| {
        for i in 0..100 {
            tele.counter_add(("loadgen.offered", "gold"), 1);
            tele.counter_add(("loadgen.shed", "bronze", "queue"), 1);
            tele.record(("loadgen.queue_depth", "gold"), i);
            tele.counter_add_named("slo.alert.x", 1);
            request(&tele, i as u32);
        }
    });
    assert_eq!(n, 0, "disabled handle allocated {n} times");
    assert!(tele.metrics().counters.is_empty());
    assert!(tele.journal_lines().is_empty());
}

#[test]
fn spans_fit_the_reserved_buffers_and_a_request_costs_three_allocations() {
    let tele = Telemetry::with_config(TelemetryConfig {
        journal_cap: 4,
        ..TelemetryConfig::default()
    });
    // Warm: every metric entry exists, the journal is at its cap (so its
    // heap has its final size), this thread has its stripe.
    for dst in 100..110 {
        request(&tele, dst);
    }

    // enter / exit_costed on an open scope: the buffers were reserved.
    let mut req = tele.request(50, 7, 0.0);
    let n = allocs_in(|| {
        for (i, stage) in STAGES.iter().enumerate() {
            let tok = req.enter(stage, i as f64);
            req.exit_costed(tok, i as f64 + 0.5, &FIELDS, SpanCost::ZERO);
        }
    });
    assert_eq!(n, 0, "enter/exit_costed allocated {n} times");
    // finish: one fold into the registry, one hand-off to the journal
    // (this record displaces the journal's maximum: moved, not copied).
    let n = allocs_in(|| req.finish("Complete", 9.0));
    assert_eq!(n, 0, "finish allocated {n} times");
    drop(req);

    // A whole request: the scope and its two buffers, whether the
    // journal keeps the record (dst below the retained ones) ...
    let n = allocs_in(|| request(&tele, 40));
    assert!(n <= 3, "retained request allocated {n} times");
    // ... or drops it.
    let n = allocs_in(|| request(&tele, 1000));
    assert!(n <= 3, "dropped request allocated {n} times");

    let lines = tele.journal_lines();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("\"dst\":40,") && lines[1].contains("\"dst\":50,"));
    assert_eq!(tele.metrics().counter("stage.rr_step.probes"), 3 * 13);
}

#[test]
fn on_lent_buffers_a_request_costs_what_the_journal_keeps() {
    const CAP: usize = 4;
    let tele = Telemetry::with_config(TelemetryConfig {
        journal_cap: CAP,
        ..TelemetryConfig::default()
    });
    request(&tele, 0); // every metric entry exists, this thread has its stripe
    let mut lent = ScopeBuffers::default();
    // While the journal has room it keeps each record's two buffers, and
    // the next request reserves new ones; the recorder itself is made once.
    let filling =
        allocs_in(|| (100..100 + CAP as u32 - 1).for_each(|d| request_in(&tele, &mut lent, d)));
    assert!(
        filling <= 2 * (CAP as u64 - 1) + 2,
        "filling the journal: {filling} allocations"
    );
    // Full: a request gets back the buffers of whichever record lost its
    // place — itself (rejected), the maximum it displaced, or neither
    // being sampled out — and allocates nothing.
    request_in(&tele, &mut lent, 1000);
    let n = allocs_in(|| {
        for dst in (10..60).chain(2000..2050) {
            request_in(&tele, &mut lent, dst);
        }
    });
    assert_eq!(n, 0, "100 requests on lent buffers allocated {n} times");
    // A scope dropped instead of released takes the storage with it: the
    // next request starts over.
    drop(tele.request_in(&mut lent, 3000, 7, 0.0));
    let n = allocs_in(|| request_in(&tele, &mut lent, 3001));
    assert_eq!(n, 3, "after a dropped scope");
    assert_eq!(tele.journal_lines().len(), CAP);
    assert_eq!(tele.metrics().counter("request.count"), 1 + 3 + 1 + 100 + 2);
}

#[test]
fn reading_the_journal_allocates_in_the_cap_not_in_the_records_offered() {
    const CAP: usize = 256;
    let fill = |pushed: u32| {
        let journal = Journal::new(CAP);
        // Descending keys, so the retained set keeps turning over.
        for i in (0..pushed).rev() {
            let mut rec = RequestRecord::new(i % 5000, i / 5000, "Complete", u64::from(i));
            for stage in STAGES {
                rec.push_span(stage, 0, 0, 10, &[("probes", 1), ("pkts", 2)]);
            }
            journal.push(rec);
        }
        assert_eq!(journal.len(), CAP);
        journal
    };
    let journal = fill(30_000);
    let mut fp = 0;
    // A fingerprint read-out builds the sorted view and streams every
    // record into the hash: no line is rendered for it.
    let first = allocs_in(|| fp = black_box(journal.fingerprint()));
    assert!(first <= 1, "first read-out: {first} allocations");
    // Ten times fewer records offered, the same retained set, the same cost.
    let small = fill(3_000);
    let n = allocs_in(|| assert_eq!(small.fingerprint(), fp));
    assert_eq!(n, first);
    // Rendering is what `lines()` pays, once: a line per retained record,
    // cached on it, plus the copy handed out.
    let lines = allocs_in(|| assert_eq!(black_box(journal.lines()).len(), CAP));
    assert!(lines <= 2 * CAP as u64 + 2, "lines(): {lines} allocations");
    let again = allocs_in(|| assert_eq!(journal.fingerprint(), fp));
    assert!(
        again <= 1,
        "read-out over cached lines: {again} allocations"
    );
}
