//! Allocation gate for the request plane: a reverse traceroute allocates
//! what it returns, and what it returns is one block. On a warm paper-era
//! system with stop sets on,
//!
//! * a measured result costs exactly one allocation: almost every request
//!   of a serial sweep makes exactly that one, none makes fewer,
//! * a request that completes by atlas intersection on its first stitch
//!   step allocates its result and at most one usage-map growth,
//! * spoofed rounds and symmetry steps are free — a request that ran three
//!   or more batches is held to the bound of one that ran a single batch:
//!   its result,
//! * a serial sweep averages 1.2 allocations per `measure()` at most, and a
//!   two-worker campaign over the same sweep 1.10 (the workers live as long
//!   as the campaign, so a wave brings its barrier's merge and nothing
//!   else — no thread, no handle, no regrown scratch).
//!
//! Its own test binary because it installs a counting global allocator.
//! The count is process-wide (campaign workers are threads of their own),
//! so everything runs inside one `#[test]`.

use revtr::{EngineConfig, HopMethod, LoopConfig, RevtrResult, RevtrSystem, StitchEnd};
use revtr_alloccount::process_allocs_in;
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: revtr_alloccount::Counting = revtr_alloccount::Counting;

const SOURCES: usize = 4;
/// Every `SURVEY_STEP`-th prefix is surveyed and measured toward.
const SURVEY_STEP: usize = 2;
/// RR-responsive hosts taken per surveyed prefix: two warm up, the rest
/// are swept.
const HOSTS: usize = 12;
/// Requests in the sweep: enough that the bucket of requests that ran three
/// batches or more holds the 200 its bound needs. It reads 345 at 10 000
/// over half the prefixes; a fifth of them with eight hosts each gave 103
/// of 2 400 once a reply off its queue's ingress counted, 226 before, and
/// settled ingress queues left 188 of 2 000.
const SWEEP: usize = 10_000;

/// A system as every gate runs it — stop sets on, 250-trace atlases —
/// with its sources registered and `warm_up` already measured, so caches,
/// stop-set tables and the request scratch have reached their working
/// size.
fn warm_system<'s>(
    sim: &'s Sim,
    vps: &[Addr],
    ingress: &Arc<IngressDb>,
    warm_up: &[(Addr, Addr)],
) -> RevtrSystem<'s> {
    let mut cfg = EngineConfig::revtr2();
    cfg.use_stop_sets = true;
    cfg.atlas_size = 250;
    let pool = select_atlas_probes(sim, 1200, 0x77);
    let sys = RevtrSystem::new(
        Prober::new(sim),
        cfg,
        vps.to_vec(),
        Arc::clone(ingress),
        pool,
    );
    for &src in &vps[..SOURCES] {
        sys.register_source(src);
    }
    for &(dst, src) in warm_up {
        sys.measure(dst, src);
    }
    sys
}

/// The blocks `r` owns: none when the destination never answered.
fn result_blocks(r: &RevtrResult) -> u64 {
    u64::from(!r.hops.is_empty())
}

/// Reached the atlas on the first stitch step: the destination, then
/// nothing but the intersected trace's suffix.
fn first_step_intersection(r: &RevtrResult) -> bool {
    r.end == StitchEnd::AtlasSuffix
        && r.hops.len() > 1
        && r.hops[1..]
            .iter()
            .all(|h| h.method == HopMethod::AtlasIntersection)
}

#[test]
fn a_request_allocates_what_it_returns() {
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
    // Per surveyed prefix, its RR-responsive non-VP hosts: the first two go
    // to the warm-up, the rest to the sweep, each toward a rotating source.
    let hosts: Vec<Vec<Addr>> = prefixes
        .iter()
        .map(|&p| {
            sim.host_addrs(p)
                .filter(|&a| sim.behavior().host_rr_responsive(a) && !sim.is_vp_host(a))
                .take(HOSTS)
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
    let mut sweep = requests(2..HOSTS);
    assert!(sweep.len() >= SWEEP, "only {} sweep requests", sweep.len());
    sweep.truncate(SWEEP);

    // (c) The serial sweep, one count per request.
    let sys = warm_system(&sim, &vps, &ingress, &warm_up);
    let served: Vec<(RevtrResult, u64)> = sweep
        .iter()
        .map(|&(dst, src)| process_allocs_in(|| sys.measure(dst, src)))
        .collect();
    let total: u64 = served.iter().map(|(_, n)| n).sum();
    let mean = total as f64 / served.len() as f64;
    eprintln!("serial sweep: {mean:.3} allocations a request (bound 1.2)");
    assert!(mean <= 1.2, "serial sweep: {mean:.3} allocations/request");
    // Exactly one per result: no request allocates less than its block,
    // and nearly all allocate nothing else.
    assert!(served.iter().all(|(r, n)| *n >= result_blocks(r)));
    let exact = served
        .iter()
        .filter(|(r, n)| *n == result_blocks(r))
        .count();
    assert!(
        exact as f64 >= 0.9 * served.len() as f64,
        "only {exact} of {} requests allocated exactly their result",
        served.len()
    );

    // (a) First-step atlas intersections — toward routers the atlas
    // traceroutes crossed, here each trace's first hop, asked twice so the
    // counted request finds the simulator's route to it filled: the
    // result's block, and now and then the usage map growing.
    let atlas = sys.atlas(vps[0]);
    let intersected: Vec<u64> = atlas
        .traces
        .iter()
        .filter_map(|t| t.hops.iter().flatten().next())
        .map(|&router| {
            sys.measure(router, vps[0]);
            process_allocs_in(|| sys.measure(router, vps[0]))
        })
        .filter(|(r, _)| first_step_intersection(r))
        .map(|(_, n)| n)
        .collect();
    assert!(
        intersected.len() >= 100,
        "only {} first-step intersections: the gate is vacuous",
        intersected.len()
    );
    assert!(
        intersected.iter().all(|&n| n <= 2),
        "a first-step atlas intersection allocated more than twice: {intersected:?}"
    );

    // (b) Spoofed rounds are free, and so is the symmetry step (its last
    // link is measured and cached inline): a request is held to what it
    // returns, with no term in its batch count or its symmetry steps. What
    // can still come on top is a shared table doubling under one of the
    // request's cache inserts or stop-set publications: rare, and a few
    // allocations when it happens. Requests that ran three or more batches
    // must meet the bound like those that ran one. (Hop count plays no
    // part: the result is sealed as one block.)
    let over_bound = |n: u64| n.saturating_sub(1);
    for (batches, at_most_over) in [(1..=1, 0.05), (3..=u32::MAX, 0.25)] {
        let over: Vec<u64> = served
            .iter()
            .filter(|(r, _)| batches.contains(&r.stats.batches))
            .map(|(_, n)| over_bound(*n))
            .collect();
        assert!(
            over.len() >= 200,
            "only {} requests ran {batches:?} batches: the gate is vacuous",
            over.len()
        );
        let exceeded = over.iter().filter(|&&o| o > 0).count();
        assert!(
            exceeded as f64 <= at_most_over * over.len() as f64 && over.iter().all(|&o| o <= 8),
            "{batches:?} batches: {exceeded} of {} requests allocated beyond their result, by up \
             to {:?}",
            over.len(),
            over.iter().max()
        );
    }

    // (d) The same sweep as a two-worker campaign on a system warmed the
    // same way: what a request costs serially, and nothing per wave but
    // the barrier's merge.
    let sys = warm_system(&sim, &vps, &ingress, &warm_up);
    let (outcome, campaign) =
        process_allocs_in(|| sys.run_campaign(&sweep, LoopConfig { workers: 2 }));
    let outcome = outcome.expect("no measurement panics");
    assert_eq!(outcome.results.len(), sweep.len());
    let mean = campaign as f64 / sweep.len() as f64;
    eprintln!("campaign: {mean:.3} allocations a request (bound 1.10)");
    assert!(mean <= 1.10, "campaign: {mean:.3} allocations/request");

    // (e) Net of the results' own blocks, and of what the second worker
    // brings once per campaign — its thread, its scratch, its thread's
    // route-fill scratch and route memo: 50 measured — a wave accounts for
    // at most three allocations: tables growing under its merge and its
    // requests' cache inserts, route fills. Never a thread, a handle or a
    // regrown scratch (a thread per wave read 15 here, 19 with libtest
    // capturing each thread's output).
    const HELPER_ONCE: u64 = 64;
    let own: u64 = outcome.results.iter().map(result_blocks).sum();
    let waves = sweep.len().div_ceil(64) as u64;
    let rest = campaign - own;
    assert!(
        rest <= 3 * waves + HELPER_ONCE,
        "{rest} allocations beyond the results' over {waves} waves"
    );
}
