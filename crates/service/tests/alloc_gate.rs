//! Allocation gate for the served-request plane: what the service layers
//! add to a reverse traceroute — admission, the archive, the telemetry
//! scope and journal — allocates nothing per request.
//!
//! * With telemetry off, the admission pass pays nothing for its metrics —
//!   no name is built for an arrival, shed or admitted. (`run_open_loop`
//!   used to `format!` the `loadgen.*` counter names before asking the
//!   handle whether it records.)
//! * On a warm paper-era service a served `request` allocates its result's
//!   one block, telemetry off — and telemetry on, plus the block of its
//!   trace when the journal keeps it: the archive shares the result's
//!   block, the scope records into its driver's buffers. A serial sweep
//!   averages 1.3 allocations a request at most beyond kept traces, an
//!   open-loop stream 1.9 an arrival (that one on a fresh journal, which
//!   keeps a block for each record it retains).
//! * Archiving a result allocates nothing (but a segment per thousand-odd
//!   results).
//!
//! Its own test binary because it installs a counting global allocator.
//! Counts are per thread; the serial `LoopConfig` keeps all of
//! `run_open_loop` on the calling one.

use revtr::{EngineConfig, LoopConfig, RevtrResult, RevtrSystem};
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, Sim, SimConfig};
use revtr_probing::{Prober, Telemetry, TelemetryConfig};
use revtr_service::{
    AdmissionPlan, ApiKey, ClassPolicy, LadderConfig, OpenLoopOutcome, RateLimits, RevtrService,
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

/// Allocations (`alloc` + `realloc` calls) this thread makes in `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

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
    let (outcome, allocs) = allocs_in(|| {
        service
            .run_open_loop(&[key], &arrivals, &plan(), LoopConfig::default())
            .expect("stream runs")
    });
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

const SOURCES: usize = 4;
/// Every `SURVEY_STEP`-th prefix is surveyed and measured toward (the full
/// survey takes a debug build the better part of a minute).
const SURVEY_STEP: usize = 5;
const SWEEP: usize = 2_000;
/// Small enough that the warm-up fills the journal.
const JOURNAL_CAP: usize = 256;

/// The paper-era Internet with part of it surveyed, and requests toward it.
struct Era {
    sim: Sim,
    vps: Vec<Addr>,
    ingress: Arc<IngressDb>,
    warm_up: Vec<(Addr, Addr)>,
    sweep: Vec<(Addr, Addr)>,
}

impl Era {
    fn build() -> Era {
        let sim = Sim::build(SimConfig::era_2020(), 1);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<_> = sim
            .topo()
            .prefixes
            .iter()
            .map(|p| p.id)
            .step_by(SURVEY_STEP)
            .collect();
        let ingress = Arc::new(IngressDb::build(
            &Prober::new(&sim),
            &vps,
            &prefixes,
            Heuristics::FULL,
        ));
        // Per surveyed prefix, its RR-responsive non-VP hosts: the first
        // two go to the warm-up, the rest to the sweep, each toward a
        // rotating source.
        let hosts: Vec<Vec<Addr>> = prefixes
            .iter()
            .map(|&p| {
                sim.host_addrs(p)
                    .filter(|&a| sim.behavior().host_rr_responsive(a) && !sim.is_vp_host(a))
                    .take(8)
                    .collect()
            })
            .collect();
        let requests = |range: std::ops::Range<usize>| -> Vec<(Addr, Addr)> {
            range
                .flat_map(|k| hosts.iter().filter_map(move |row| row.get(k)))
                .enumerate()
                .map(|(i, &dst)| (dst, vps[i % SOURCES]))
                .collect()
        };
        let warm_up = requests(0..2);
        let mut sweep = requests(2..8);
        assert!(sweep.len() >= SWEEP, "only {} sweep requests", sweep.len());
        sweep.truncate(SWEEP);
        assert!(warm_up.len() > 2 * JOURNAL_CAP, "the warm-up is too short");
        Era {
            sim,
            vps,
            ingress,
            warm_up,
            sweep,
        }
    }

    /// A service as every gate runs it — stop sets on, 250-trace atlases —
    /// with one never-limited user on `SOURCES` sources.
    fn service(&self, telemetry: Telemetry) -> (RevtrService<'_>, ApiKey) {
        let mut cfg = EngineConfig::revtr2();
        cfg.use_stop_sets = true;
        cfg.atlas_size = 250;
        let service = RevtrService::new(RevtrSystem::new(
            Prober::new(&self.sim).with_telemetry(telemetry),
            cfg,
            self.vps.clone(),
            Arc::clone(&self.ingress),
            select_atlas_probes(&self.sim, 1200, 0x77),
        ));
        let key = service.add_user(
            "client",
            RateLimits {
                max_parallel: 1_000_000,
                max_per_day: u64::MAX / 2,
            },
        );
        for &src in &self.vps[..SOURCES] {
            service.add_source(key, src).expect("a VP site bootstraps");
        }
        (service, key)
    }
}

/// The blocks `r` owns: none when the destination never answered.
fn result_blocks(r: &RevtrResult) -> u64 {
    u64::from(!r.hops.is_empty())
}

#[test]
fn a_served_request_allocates_the_one_block_it_returns() {
    let era = Era::build();

    // The serial sweep on a warm service, one count per request, with
    // telemetry off and with it on and the journal full. What a request
    // may allocate beyond its result is what the request plane's own gate
    // (crates/core/tests/alloc_gate.rs) already allows a `measure()`: a
    // shared table doubling under a cache insert or a stop-set
    // publication, rare, a few allocations when it happens — and here, one
    // archive segment per thousand results and more.
    let journal_full = Telemetry::with_config(TelemetryConfig {
        journal_cap: JOURNAL_CAP,
        ..TelemetryConfig::default()
    });
    let mut totals = Vec::new();
    let mut kept = 0;
    for (arm, telemetry) in [("off", Telemetry::disabled()), ("on", journal_full.clone())] {
        let (service, key) = era.service(telemetry.clone());
        for &(dst, src) in &era.warm_up {
            service.request(key, dst, src).expect("admitted");
        }
        // A request whose trace the journal keeps changes the retained set,
        // so the journal's fingerprint (0 with telemetry off); the one
        // block that trace costs is the journal's, not counted below.
        let served: Vec<(RevtrResult, u64)> = era
            .sweep
            .iter()
            .map(|&(dst, src)| {
                let before = telemetry.journal_fingerprint();
                let (r, n) = allocs_in(|| service.request(key, dst, src));
                let journalled = telemetry.journal_fingerprint() != before;
                kept += u64::from(journalled);
                (
                    r.expect("admitted"),
                    n.saturating_sub(u64::from(journalled)),
                )
            })
            .collect();
        assert_eq!(service.store().len(), era.warm_up.len() + SWEEP);

        let total: u64 = served.iter().map(|(_, n)| n).sum();
        let mean = total as f64 / SWEEP as f64;
        assert!(
            mean <= 1.3,
            "telemetry {arm}: {mean:.3} allocations/request"
        );
        let over: Vec<u64> = served
            .iter()
            .map(|(r, n)| n.saturating_sub(result_blocks(r)))
            .collect();
        let exceeded = over.iter().filter(|&&o| o > 0).count();
        assert!(
            exceeded as f64 <= 0.08 * SWEEP as f64 && over.iter().all(|&o| o <= 8),
            "telemetry {arm}: {exceeded} of {SWEEP} requests allocated beyond their result, by \
             up to {:?}",
            over.iter().max()
        );
        totals.push(total);

        // Archiving shares the block: a fresh store takes the whole sweep
        // for its two segments and the list that holds them.
        let store = revtr_service::ResultStore::new();
        let ((), archived) = allocs_in(|| served.iter().for_each(|(r, _)| store.push(r)));
        assert_eq!(archived, 3, "telemetry {arm}: archiving the sweep");
        let (dst, src) = era.sweep[0];
        let archived = &store.lookup(dst, src)[0];
        assert_eq!(archived.hops.as_ptr(), served[0].0.hops.as_ptr());
    }
    // The journal was full before the sweep began, saw all of it and kept
    // some of it.
    assert_eq!(journal_full.journal_lines().len(), JOURNAL_CAP);
    let recorded = journal_full.metrics().counter("request.count");
    assert_eq!(recorded, (era.warm_up.len() + SWEEP) as u64);
    assert!(kept > 0, "the journal kept none of the sweep");
    // Beyond the blocks of the traces it kept, recording cost the sweep
    // the metric entries and names it was the first to use, and a scope
    // buffer grown by a request larger than any before it.
    assert!(
        totals[1] <= totals[0] + SWEEP as u64 / 20,
        "telemetry on: {} allocations over the sweep (and {kept} kept traces), off: {}",
        totals[1],
        totals[0]
    );

    // One open-loop stream, everything admitted, on a fresh service and a
    // fresh default journal, which allocates one block for each trace it
    // retains — its first 4 096 and each that displaces one: the sweep six
    // times over, eight a virtual second, in waves of 128. Measured 1.75
    // an arrival; the bound leaves 8 % for a table doubling at another
    // size.
    let stream: Vec<TimedRequest> = (0..6 * SWEEP)
        .map(|i| {
            let (dst, src) = era.sweep[(i * 7) % SWEEP];
            TimedRequest {
                vtime_ms: i as f64 * 125.0,
                tenant: 0,
                class: 0,
                dst,
                src,
            }
        })
        .collect();
    let mut plan = plan();
    plan.wave = 128;
    let (service, key) = era.service(Telemetry::enabled());
    let (outcome, n) = allocs_in(|| {
        service
            .run_open_loop(&[key], &stream, &plan, LoopConfig::default())
            .expect("stream runs")
    });
    assert_eq!(outcome.results.iter().flatten().count(), stream.len());
    let mean = n as f64 / stream.len() as f64;
    assert!(mean <= 1.9, "open loop: {mean:.3} allocations/arrival");
}
