//! Regression gate: with telemetry off, the admission pass pays nothing
//! for its metrics — no name is built for an arrival, shed or admitted.
//! (`run_open_loop` used to `format!` the `loadgen.*` counter names before
//! asking the handle whether it records.)
//!
//! Its own test binary because it installs a counting global allocator.
//! Counts are per thread; the serial `LoopConfig` keeps all of
//! `run_open_loop` on the calling one.

use revtr::{EngineConfig, LoopConfig};
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, Sim, SimConfig};
use revtr_probing::{Prober, Telemetry};
use revtr_service::{
    AdmissionPlan, ClassPolicy, LadderConfig, OpenLoopOutcome, RateLimits, RevtrService,
    ShedReason, TimedRequest,
};
use revtr_vpselect::{Heuristics, IngressDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Three classes, one per way to be shed: `open` admits until its
/// tenant's daily quota (4) runs out, `dry` has an empty token bucket,
/// `narrow` a zero-length queue. One wave holds the whole stream.
fn plan() -> AdmissionPlan {
    let class = |name, burst, queue_bound| ClassPolicy {
        name,
        admit_per_hour: 0.0,
        burst,
        queue_bound,
        boost_per_level: 0.0,
    };
    AdmissionPlan {
        classes: vec![
            class("open", 1e9, usize::MAX),
            class("dry", 0.0, usize::MAX),
            class("narrow", 1e9, 0),
        ],
        ladder: LadderConfig {
            shed_budget: 1.0, // never steps down
            window_waves: 1,
            recover_waves: 1,
            max_level: 3,
        },
        wave: usize::MAX,
        refresh_sla_hours: None,
    }
}

/// Run `n_shed` arrivals of every shed flavour behind four admitted ones
/// on a fresh simulated Internet; returns the outcome, the allocations
/// `run_open_loop` made, and the handle.
fn run(telemetry: Telemetry, n_shed: usize) -> (OpenLoopOutcome, u64, Telemetry) {
    let sim = Sim::build(SimConfig::tiny(), 51);
    let prober = Prober::new(&sim).with_telemetry(telemetry.clone());
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 30;
    let pool = select_atlas_probes(&sim, 80, 3);
    let service = RevtrService::new(revtr::RevtrSystem::new(prober, cfg, vps, ingress, pool));
    let key = service.add_user(
        "tenant",
        RateLimits {
            max_parallel: 8,
            max_per_day: 4,
        },
    );
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("VP source bootstraps");
    let dsts: Vec<Addr> = sim
        .topo()
        .prefixes
        .iter()
        .filter_map(|pe| sim.host_addrs(pe.id).next())
        .collect();

    // Four admitted arrivals first, then the shed ones round-robin over
    // the three classes (the `open` ones now exceed the tenant's quota).
    let arrivals: Vec<TimedRequest> = (0..4 + n_shed)
        .map(|i| TimedRequest {
            vtime_ms: i as f64,
            tenant: 0,
            class: if i < 4 { 0 } else { i % 3 },
            dst: dsts[i % dsts.len()],
            src,
        })
        .collect();
    let before = ALLOCS.with(Cell::get);
    let outcome = service
        .run_open_loop(&[key], &arrivals, &plan(), LoopConfig::default())
        .expect("stream runs");
    let allocs = ALLOCS.with(Cell::get) - before;
    (outcome, allocs, telemetry)
}

#[test]
fn with_telemetry_off_arrivals_record_nothing_and_allocate_nothing() {
    let (few, few_allocs, _) = run(Telemetry::disabled(), 30);
    let (many, many_allocs, tele) = run(Telemetry::disabled(), 3000);

    // The streams did what the gate assumes: four admitted and measured,
    // everything else shed, a third each way.
    for (outcome, n_shed) in [(&few, 30), (&many, 3000)] {
        assert_eq!(outcome.results.iter().flatten().count(), 4);
        for reason in [
            ShedReason::QuotaExceeded,
            ShedReason::RateLimited,
            ShedReason::QueueFull,
        ] {
            let n = outcome.sheds.iter().filter(|s| **s == Some(reason)).count();
            assert_eq!(n, n_shed / 3, "{reason:?}");
        }
        assert_eq!(outcome.waves, 1);
    }

    // 2970 more arrivals through the admission pass, the same four
    // measurements: not one allocation more.
    assert_eq!(
        many_allocs, few_allocs,
        "a shed arrival allocates with telemetry off"
    );
    assert!(tele.metrics().counters.is_empty());
    assert!(tele.metrics().histograms.is_empty());
    assert!(tele.journal_lines().is_empty());
}

#[test]
fn with_telemetry_on_the_same_stream_is_counted_under_the_same_names() {
    let (outcome, _, tele) = run(Telemetry::enabled(), 30);
    assert_eq!(outcome.results.iter().flatten().count(), 4);
    let snap = tele.metrics();
    for (name, want) in [
        ("loadgen.offered.open", 14),
        ("loadgen.offered.dry", 10),
        ("loadgen.offered.narrow", 10),
        ("loadgen.admitted.open", 4),
        ("loadgen.shed.open.quota", 10),
        ("loadgen.shed.dry.rate", 10),
        ("loadgen.shed.narrow.queue", 10),
        ("loadgen.shed.total", 30),
    ] {
        assert_eq!(snap.counter(name), want, "{name}");
    }
    let depth = snap.histogram("loadgen.queue_depth.open").expect("hist");
    assert_eq!((depth.count(), depth.max()), (4, 4));
    // The four measurements journalled their span trees.
    assert_eq!(snap.counter("request.count"), 4);
}
