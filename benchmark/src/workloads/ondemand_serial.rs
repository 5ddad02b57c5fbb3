//! `ondemand-serial`: the user-facing path — one client asks a fresh
//! service for one reverse traceroute at a time. Op = one
//! `RevtrService::request`.

use std::time::Instant;

use revtr::RevtrResult;
use revtr_netsim::{Addr, Sim};
use revtr_probing::Prober;
use revtr_service::RevtrService;

use super::{audit_round, report_warm_setup, warm_setup, Checks};
use crate::config::{self, TOPOLOGY_SEED};
use crate::harness::{results_fingerprint, Counts, Harness, Mark};
use crate::metrics::Report;
use crate::spans::ROOT;
use crate::{inputs, probes};

/// Requests replayed for `service.request_overhead_ns`.
const REPLAY_OPS: usize = 4096;

pub fn run(h: &mut Harness, rep: &mut Report, checks: &mut Checks) -> Counts {
    let (sim, fx) = warm_setup(h, config::sim_config());
    let oracle = sim.oracle();
    let ops_per_round = fx.table.len() * config::ONDEMAND_SWEEPS;
    h.reserve(ops_per_round, ops_per_round + fx.sources.len());

    let mut counts = Counts::default();
    let mut first_round: Option<Vec<(Addr, Addr)>> = None;
    for round in 0..h.total_rounds() {
        // A fresh service per round: stop sets never expire, and a
        // long-lived one collapses into replays within a few rounds.
        h.begin_prep(round);
        let reqs = inputs::ondemand_round(&fx.table, &fx.sources, h.seed, round);
        let mut results: Vec<RevtrResult> = Vec::with_capacity(reqs.len());
        let service = RevtrService::new(fx.system(Prober::new(&sim)));
        let key = service.add_user("client", config::unlimited());
        for &src in &fx.sources {
            let span = h.spans.open("service.add_source", ROOT, round as i32);
            service.add_source(key, src).expect("a VP site bootstraps");
            h.spans.close(span);
        }
        let system = service.system();
        let before = Mark::read(&sim, system.prober(), Some(system.stopset()));
        let mut errors = 0u64;

        let w = h.open_round(round);
        for &(dst, src) in &reqs {
            let t0 = Instant::now();
            let r = service.request(key, dst, src);
            let t1 = Instant::now();
            h.op(&w, "service.request", t0, t1);
            match r {
                Ok(r) => results.push(r),
                Err(_) => errors += 1,
            }
        }
        h.close_round(w, reqs.len() as u64);

        if !Harness::is_timed(round) {
            continue;
        }
        let after = Mark::read(&sim, system.prober(), Some(system.stopset()));
        counts.add_window(&before, &after);
        counts.attempted += reqs.len() as u64;
        counts.failed += errors;
        for r in &results {
            counts.add_revtr(&oracle, r);
        }
        counts.read_gauges(&sim, system);
        if first_round.is_none() {
            counts.fingerprint = Some(results_fingerprint(results.iter().map(Some)));
            audit_round(&sim, &results, rep, checks);
            first_round = Some(reqs);
        }
    }

    checks.check(
        "every op accounted (result or typed error)",
        counts.paths + counts.failed == counts.attempted && counts.attempted == h.ops,
    );
    checks.check("no request failed", counts.failed == 0);

    rep.set("core.pool_threads", 1.0);
    if h.trace {
        report_warm_setup(h, &fx, rep);
        rep.set(
            "atlas.register_source_ms",
            h.spans.mean_ms("service.add_source", false),
        );

        // Replay of the head of the first timed round, each request once
        // through the service and once through bare `measure()` on a system
        // of its own. Whichever goes second finds the simulator's routes
        // warm, so the order alternates; the mean difference is what the
        // service layer adds.
        let reqs = first_round.expect("a timed round ran");
        let service = RevtrService::new(fx.system(Prober::new(&sim)));
        let key = service.add_user("client", config::unlimited());
        let system = fx.system(Prober::new(&sim));
        for &src in &fx.sources {
            service.add_source(key, src).expect("a VP site bootstraps");
            system.register_source(src);
        }
        let (mut served_ns, mut bare_ns) = (0u128, 0u128);
        let head = &reqs[..reqs.len().min(REPLAY_OPS)];
        for (i, &(dst, src)) in head.iter().enumerate() {
            let mut serve = || {
                let t0 = Instant::now();
                std::hint::black_box(service.request(key, dst, src).is_ok());
                served_ns += t0.elapsed().as_nanos();
            };
            let mut measure = || {
                let t0 = Instant::now();
                std::hint::black_box(system.measure(dst, src));
                bare_ns += t0.elapsed().as_nanos();
            };
            if i % 2 == 0 {
                serve();
                measure();
            } else {
                measure();
                serve();
            }
        }
        rep.set(
            "service.request_overhead_ns",
            (served_ns as f64 - bare_ns as f64) / head.len() as f64,
        );

        let scratch = Sim::build(config::sim_config(), TOPOLOGY_SEED);
        let pairs = probes::sample_pairs(&fx.table, &fx.sources);
        let base =
            probes::netsim_and_probing(&scratch, &fx.vps, &pairs, &counts.hop_sample, &counts, rep);
        probes::vpselect_plan(&fx.ingress, &fx.table, rep);
        probes::atlas(&system, fx.sources[0], rep);
        probes::report_shares(h, base, 0.0, rep);
    }
    counts
}
