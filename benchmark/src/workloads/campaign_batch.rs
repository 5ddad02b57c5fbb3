//! `campaign-batch`: the topology-mapping use case — one `run_campaign`
//! call per round on the worker pool, the hosts of a prefix adjacent so
//! that stop sets and striped caches are shared and contended. Op = one
//! `(dst, src)` pair of that call.

use std::time::Instant;

use revtr_netsim::Sim;
use revtr_probing::Prober;

use super::{audit_round, report_warm_setup, warm_setup, Checks};
use crate::config::{self, TOPOLOGY_SEED};
use crate::harness::{results_fingerprint, Counts, Harness, Mark};
use crate::metrics::Report;
use crate::spans::ROOT;
use crate::{host, inputs, probes};

pub fn run(h: &mut Harness, rep: &mut Report, checks: &mut Checks) -> Counts {
    let (sim, fx) = warm_setup(h, config::sim_config());
    let oracle = sim.oracle();
    h.reserve(0, config::CAMPAIGN_SOURCES + 1);

    let mut counts = Counts::default();
    let mut first_round = None;
    for round in 0..h.total_rounds() {
        h.begin_prep(round);
        let (srcs, pairs) = inputs::campaign_round(&fx.table, &fx.sources, h.seed, round);
        let system = fx.system(Prober::new(&sim));
        for &src in &srcs {
            let span = h.spans.open("atlas.register_source", ROOT, round as i32);
            system.register_source(src);
            h.spans.close(span);
        }
        let before = Mark::read(&sim, system.prober(), Some(system.stopset()));

        let w = h.open_round(round);
        let span = h.spans.open("core.run_campaign", w.span, w.round);
        let outcome = system.run_campaign(&pairs, config::pool_loop());
        h.spans.close(span);
        h.close_round(w, pairs.len() as u64);

        if !Harness::is_timed(round) {
            continue;
        }
        let after = Mark::read(&sim, system.prober(), Some(system.stopset()));
        counts.add_window(&before, &after);
        counts.attempted += pairs.len() as u64;
        match outcome {
            Ok(outcome) => {
                counts.events += outcome.events;
                for r in &outcome.results {
                    counts.add_revtr(&oracle, r);
                }
                if first_round.is_none() {
                    counts.fingerprint =
                        Some(results_fingerprint(outcome.results.iter().map(Some)));
                    audit_round(&sim, &outcome.results, rep, checks);
                    first_round = Some((srcs, pairs, h.walls[0]));
                }
            }
            // A panicking measurement aborts the whole campaign.
            Err(_) => counts.failed += pairs.len() as u64,
        }
        counts.read_gauges(&sim, &system);
    }

    checks.check(
        "every op accounted (one result per pair)",
        counts.paths + counts.failed == counts.attempted && counts.attempted == h.ops,
    );
    checks.check("no campaign panicked", counts.failed == 0);

    // The pool clamps itself to the host's cores.
    rep.set(
        "core.pool_threads",
        config::pool_loop().workers.min(host::cores()) as f64,
    );
    if h.trace {
        report_warm_setup(h, &fx, rep);
        rep.set(
            "atlas.register_source_ms",
            h.spans.mean_ms("atlas.register_source", false),
        );

        // Replay of the first timed round on the serial loop: what the
        // pool buys (or costs) on this host.
        let (srcs, pairs, pool_wall) = first_round.expect("a timed round ran");
        let system = fx.system(Prober::new(&sim));
        for &src in &srcs {
            system.register_source(src);
        }
        let t0 = Instant::now();
        let serial = system.run_campaign(&pairs, config::serial_loop());
        let serial_wall = t0.elapsed().as_secs_f64();
        checks.check("serial replay of the first timed round ran", serial.is_ok());
        rep.set("core.pool_speedup", serial_wall / pool_wall);

        let scratch = Sim::build(config::sim_config(), TOPOLOGY_SEED);
        let sample = probes::sample_pairs(&fx.table, &fx.sources);
        let base = probes::netsim_and_probing(
            &scratch,
            &fx.vps,
            &sample,
            &counts.hop_sample,
            &counts,
            rep,
        );
        probes::vpselect_plan(&fx.ingress, &fx.table, rep);
        probes::atlas(&system, srcs[0], rep);
        probes::report_shares(h, base, 0.0, rep);
    }
    counts
}
