//! `bootstrap-cold`: the cold background pipeline — build the Internet,
//! survey ingresses, build two source atlases — with no engine, service or
//! telemetry in it. Op = one `probe_prefix` (every VP → one prefix).

use std::sync::Arc;
use std::time::Instant;

use revtr::RevtrSystem;
use revtr_atlas::select_atlas_probes;
use revtr_netsim::Sim;
use revtr_probing::Prober;
use revtr_telemetry::Fnv;
use revtr_vpselect::ingress::probe_prefix;
use revtr_vpselect::{Heuristics, IngressDb};

use super::Checks;
use crate::config::{self, ATLAS_POOL, ATLAS_POOL_SEED, SURVEY_SAMPLE, TOPOLOGY_SEED};
use crate::harness::{Counts, Harness, Mark};
use crate::metrics::Report;
use crate::spans::{ROOT, SETUP_ROUND};
use crate::{fixture, inputs, probes};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

pub fn run(h: &mut Harness, rep: &mut Report, checks: &mut Checks) -> Counts {
    // Set-up is only what the rounds cannot make themselves: the prefix
    // and VP lists of the (fixed-seed) topology, to draw the samples from.
    let mut lists = None;
    for _ in 0..SETUP_REPEATS {
        lists = Some(h.setup(|spans| {
            let span = spans.open("netsim.build", ROOT, SETUP_ROUND);
            let sim = Sim::build(config::sim_config(), TOPOLOGY_SEED);
            spans.close(span);
            (
                fixture::prefixes(&sim),
                fixture::vps(&sim),
                fixture::sources(&sim),
            )
        }));
    }
    let (prefixes, vps, sources) = lists.expect("set-up ran");
    h.reserve(SURVEY_SAMPLE, SURVEY_SAMPLE + 8);

    let mut counts = Counts::default();
    for round in 0..h.total_rounds() {
        h.begin_prep(round);
        let (sample, srcs) = inputs::bootstrap_round(&prefixes, &sources, h.seed, round);
        let mut virtual_s = Vec::with_capacity(sample.len());
        let mut round_found = 0u64;

        let w = h.open_round(round);
        let span = h.spans.open("netsim.build", w.span, w.round);
        let sim = Sim::build(config::sim_config(), TOPOLOGY_SEED);
        h.spans.close(span);
        let prober = Prober::new(&sim);
        // As `IngressDb::build` does: the survey bypasses the cache.
        let survey = prober.with_cache_enabled(false);
        let mut clock_ms = prober.clock().now_ms();
        for &p in &sample {
            let t0 = Instant::now();
            let info = probe_prefix(&survey, &vps, p, Heuristics::FULL);
            let t1 = Instant::now();
            h.op(&w, "vpselect.probe_prefix", t0, t1);
            round_found += u64::from(!info.ingresses.is_empty());
            let now_ms = prober.clock().now_ms();
            virtual_s.push((now_ms - clock_ms) / 1e3);
            clock_ms = now_ms;
        }
        let span = h.spans.open("atlas.select_probes", w.span, w.round);
        let pool = select_atlas_probes(&sim, ATLAS_POOL, ATLAS_POOL_SEED);
        h.spans.close(span);
        let span = h.spans.open("core.system_new", w.span, w.round);
        let system = RevtrSystem::new(
            prober,
            config::engine_config(),
            vps.clone(),
            Arc::new(IngressDb::default()),
            pool,
        );
        h.spans.close(span);
        for &src in &srcs {
            let span = h.spans.open("atlas.register_source", w.span, w.round);
            system.register_source(src);
            h.spans.close(span);
        }
        h.close_round(w, sample.len() as u64);

        if !Harness::is_timed(round) {
            continue;
        }
        // Fresh simulator, fresh prober: every counter started at zero.
        let after = Mark::read(&sim, system.prober(), Some(system.stopset()));
        counts.add_window(&Mark::default(), &after);
        counts.attempted += virtual_s.len() as u64;
        // A surveyed prefix is "complete" when the survey found an ingress.
        counts.paths += virtual_s.len() as u64;
        counts.complete += round_found;
        counts.virtual_s.append(&mut virtual_s);
        // The paths this workload measures are the atlas traceroutes.
        let oracle = sim.oracle();
        let mut fp = Fnv::new();
        for &src in &srcs {
            let atlas = system.atlas(src);
            for trace in &atlas.traces {
                counts.add_path(&oracle, trace.vp, src, trace.hops.iter().flatten().copied());
                for hop in &trace.hops {
                    fp.write_u64(hop.map_or(u64::MAX, |a| u64::from(a.0)));
                }
            }
        }
        counts.fingerprint.get_or_insert(fp.finish());
        counts.read_gauges(&sim, &system);
    }

    checks.check(
        "every op accounted",
        counts.virtual_s.len() as u64 == h.ops && counts.attempted == h.ops,
    );
    checks.check(
        "every round surveyed the full sample",
        h.ops_per_round == SURVEY_SAMPLE as u64,
    );
    checks.check(
        "atlas traceroutes were compared with the oracle",
        counts.compared > 0,
    );

    if h.trace {
        rep.set(
            "vpselect.ingress_found_ratio",
            counts.complete as f64 / counts.attempted as f64,
        );
        rep.set("netsim.build_ms", h.spans.mean_ms("netsim.build", false));
        rep.set(
            "vpselect.probe_prefix_us",
            h.spans.mean_ms("vpselect.probe_prefix", false) * 1e3,
        );
        rep.set(
            "atlas.register_source_ms",
            h.spans.mean_ms("atlas.register_source", false),
        );
        let sim = Sim::build(config::sim_config(), TOPOLOGY_SEED);
        // VP → first host of a stride of prefixes: what the survey pings.
        let pairs: Vec<_> = prefixes
            .iter()
            .step_by((prefixes.len() / probes::SAMPLE).max(1))
            .take(probes::SAMPLE)
            .enumerate()
            .filter_map(|(i, &p)| Some((vps[i % vps.len()], sim.host_addrs(p).next()?)))
            .collect();
        let attributed = probes::netsim_and_probing(&sim, &vps, &pairs, &pairs, &counts, rep);
        probes::report_shares(h, attributed, 0.0, rep);
    }
    counts
}
