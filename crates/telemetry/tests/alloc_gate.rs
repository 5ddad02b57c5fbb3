//! Allocation gate: steady-state recording does not touch the heap per
//! metric; the journal pays one allocation for a record it retains (its
//! packed block) and none for one it drops; a scope on buffers its driver
//! lends allocates nothing once they have grown to the request's shape;
//! and reading the journal's fingerprint costs one sorted view however
//! many records were offered.
//!
//! Its own test binary because it installs a counting global allocator.
//! Counts are per thread, so the harness's other threads cannot leak in.

use revtr_alloccount::allocs_in;
use revtr_telemetry::{Journal, RequestRecord, ScopeBuffers, SpanCost, Telemetry, TelemetryConfig};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: revtr_alloccount::Counting = revtr_alloccount::Counting;

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

/// The span fields every request records, as one shared table.
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
    let ((), n) = allocs_in(|| (1..=1000).for_each(update));
    eprintln!("1 000 warm updates: {n} allocations (bound 0)");
    assert_eq!(n, 0, "warm counter_add/record allocated {n} times");
    let snap = tele.metrics();
    assert_eq!(snap.counter("probing.retries"), 1001);
    assert_eq!(snap.counter("loadgen.shed.bronze.rate"), 500_500);
    let depth = snap.histogram("loadgen.queue_depth.gold").expect("hist");
    assert_eq!(depth.count(), 1001);
}

/// A metric is keyed by its name's text, not by where a literal sits: the
/// compiler may hold one literal at several addresses (a copy per codegen
/// unit), and updates through any copy land in the entry the first one
/// warmed — without allocating, and as one snapshot entry.
#[test]
fn a_copy_of_a_warm_name_updates_its_entry_without_allocating() {
    let tele = Telemetry::enabled();
    tele.counter_add("probing.retries", 1);
    tele.record(("loadgen.queue_depth", "gold"), 1);
    let copies: Vec<(&'static str, &'static str)> = (0..64)
        .map(|_| {
            let name: &'static str = Box::leak("probing.retries".into());
            let leaf: &'static str = Box::leak("gold".into());
            (name, leaf)
        })
        .collect();
    let ((), n) = allocs_in(|| {
        for &(name, leaf) in &copies {
            tele.counter_add(name, 1);
            tele.record(("loadgen.queue_depth", leaf), 2);
        }
    });
    assert_eq!(
        n, 0,
        "updates through copies of warm names allocated {n} times"
    );
    let snap = tele.metrics();
    assert_eq!(snap.counters, vec![("probing.retries".to_string(), 65)]);
    assert_eq!(snap.histograms.len(), 1);
    let depth = snap.histogram("loadgen.queue_depth.gold").expect("hist");
    assert_eq!((depth.count(), depth.sum()), (65, 129));
}

#[test]
fn a_disabled_handle_neither_records_nor_allocates() {
    let tele = Telemetry::disabled();
    let ((), n) = allocs_in(|| {
        for i in 0..100 {
            tele.counter_add(("loadgen.offered", "gold"), 1);
            tele.counter_add(("loadgen.shed", "bronze", "queue"), 1);
            tele.record(("loadgen.queue_depth", "gold"), i);
            request(&tele, i as u32);
        }
    });
    assert_eq!(n, 0, "disabled handle allocated {n} times");
    assert!(tele.metrics().counters.is_empty());
    assert!(tele.journal_lines().is_empty());
}

/// A record of `request`'s shape built by hand: eight spans of five fields.
fn record(dst: u32, src: u32) -> RequestRecord {
    let mut rec = RequestRecord::new(dst, src, "Complete", u64::from(dst));
    for (i, stage) in STAGES.iter().enumerate() {
        rec.push_span(stage, (i % 2) as u32, i as u64, 10, &FIELDS);
    }
    rec
}

#[test]
fn a_retained_offer_costs_one_allocation_and_a_rejected_one_none() {
    const CAP: usize = 64;
    let journal = Journal::new(CAP);
    // Full, every name interned, the tie line grown: dst 1000..1064 under
    // src 7, then a record tied with the maximum's key that sorts above it.
    for dst in 1000..1000 + CAP as u32 {
        assert!(journal.push(&record(dst, 7)));
    }
    let mut tie = record(1063, 7);
    tie.virtual_us += 1;
    assert!(!journal.push(&tie));

    let offers: Vec<RequestRecord> = (0..200).map(|i| record(2000 + i, 7)).collect();
    let ((), n) = allocs_in(|| offers.iter().for_each(|r| assert!(!journal.push(r))));
    eprintln!("200 dropped journal offers: {n} allocations (bound 0)");
    assert_eq!(n, 0, "200 rejected offers allocated {n} times");
    let ((), n) = allocs_in(|| assert!(!journal.push(&tie)));
    assert_eq!(n, 0, "a rejected tie allocated {n} times");
    // Descending keys below the retained ones: each displaces the maximum,
    // whose block it frees, for a block of its own.
    let offers: Vec<RequestRecord> = (0..100).rev().map(|dst| record(dst, 7)).collect();
    let ((), n) = allocs_in(|| offers.iter().for_each(|r| assert!(journal.push(r))));
    eprintln!("100 kept journal offers: {n} allocations (bound 100)");
    assert_eq!(n, 100, "100 retained offers");
    // Now dst 0..64 are retained: tie with the maximum, and sort below it.
    let mut tie = record(CAP as u32 - 1, 7);
    tie.virtual_us = 0;
    let ((), n) = allocs_in(|| assert!(journal.push(&tie)));
    assert_eq!(n, 1, "a retained tie");
    assert_eq!(journal.len(), CAP);
    assert_eq!(journal.dropped(), 1 + 200 + 1 + 100 + 1);
}

#[test]
fn a_lent_scope_never_regrows_once_warm() {
    const CAP: usize = 4;
    let tele = Telemetry::with_config(TelemetryConfig {
        journal_cap: CAP,
        ..TelemetryConfig::default()
    });
    let mut lent = ScopeBuffers::default();
    // Warm: every metric entry exists, this thread has its stripe, the
    // recorder and its buffers have grown to this request shape, the
    // journal is full and has interned every name.
    for dst in 100..100 + CAP as u32 {
        request_in(&tele, &mut lent, dst);
    }
    // Full: a request the journal rejects allocates nothing ...
    let ((), n) = allocs_in(|| (2000..2100).for_each(|d| request_in(&tele, &mut lent, d)));
    assert_eq!(
        n, 0,
        "100 rejected requests on lent buffers allocated {n} times"
    );
    // ... and one it retains the block it keeps, nothing for the scope.
    let ((), n) = allocs_in(|| (10..60).rev().for_each(|d| request_in(&tele, &mut lent, d)));
    assert_eq!(n, 50, "50 retained requests on lent buffers");
    // A scope dropped instead of released takes the storage with it: the
    // next request starts over, growing a recorder and buffers again.
    drop(tele.request_in(&mut lent, 3000, 7, 0.0));
    let ((), fresh) = allocs_in(|| request_in(&tele, &mut lent, 3001));
    assert!((3..=10).contains(&fresh), "after a dropped scope: {fresh}");
    let ((), n) = allocs_in(|| request_in(&tele, &mut lent, 3002));
    assert_eq!(n, 0, "the next request on the storage it left");
    // A scope of its own is the same path on empty storage.
    let ((), own) = allocs_in(|| request(&tele, 3003));
    assert_eq!(own, fresh, "a scope of its own");

    let lines = tele.journal_lines();
    assert_eq!(lines.len(), CAP);
    assert!(lines[0].contains("\"dst\":10,") && lines[3].contains("\"dst\":13,"));
    assert_eq!(tele.metrics().counter("request.count"), 4 + 100 + 50 + 4);
    // Every request but the dropped one recorded its `rr_step` span.
    assert_eq!(tele.metrics().counter("stage.rr_step.probes"), 3 * 157);
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
            journal.push(&rec);
        }
        assert_eq!(journal.len(), CAP);
        journal
    };
    let journal = fill(30_000);
    let mut fp = 0;
    // A fingerprint read-out builds the sorted view and streams every
    // record into the hash: no line is rendered for it.
    let ((), first) = allocs_in(|| fp = black_box(journal.fingerprint()));
    assert!(first <= 1, "first read-out: {first} allocations");
    // Ten times fewer records offered, the same retained set, the same cost.
    let small = fill(3_000);
    let ((), n) = allocs_in(|| assert_eq!(small.fingerprint(), fp));
    assert_eq!(n, first);
    // Rendering is what `lines()` pays, each time: a line per retained
    // record, the sorted view and the vector handed out — nothing kept but
    // the scratch line they are rendered in, grown the first time.
    let ((), lines) = allocs_in(|| assert_eq!(black_box(journal.lines()).len(), CAP));
    assert!(lines <= CAP as u64 + 2 + 16, "lines(): {lines} allocations");
    let ((), lines) = allocs_in(|| assert_eq!(black_box(journal.lines()).len(), CAP));
    assert_eq!(lines, CAP as u64 + 2, "lines() again");
    let ((), again) = allocs_in(|| assert_eq!(journal.fingerprint(), fp));
    assert_eq!(again, first, "a read-out after lines()");
}
