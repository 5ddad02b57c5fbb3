//! Standard-scale cross-check of the last-link plane: every decision a
//! campaign's symmetry steps took — hop adopted, interdomain abort, stuck —
//! is the one a full forward traceroute to the same hop gives, at every
//! width, and what the steps send does not depend on the width.
//!
//! Churn and per-packet load balancing are quiesced (the exclusions the
//! width-invariance gates that keep the measurement cache on run under),
//! so a trace taken after the campaign is the trace the step would have
//! taken on the spot. Run by
//! ci.sh in release (`--ignored`): the survey alone takes a debug build
//! minutes.

use revtr::{EngineConfig, Evidence, LoopConfig, RevtrResult, StitchEnd};
use revtr_eval::context::{EvalContext, EvalScale};
use revtr_eval::Scale;
use revtr_netsim::{Addr, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::Heuristics;
use std::sync::Arc;

/// What the full trace from `src` says of the last link before `cur`: the
/// last responsive hop that is not `cur` itself, and whether it is known
/// adjacent (no silent TTL in between, and `cur` answered). `None` when
/// nothing routes to `cur`.
fn full_trace(sim: &Sim, src: Addr, cur: Addr) -> Option<(Option<Addr>, bool)> {
    let trace = sim.traceroute(src, cur, Prober::paris_flow(src, cur))?;
    let at = trace.hops.iter().rposition(|h| h.is_some_and(|a| a != cur));
    let adjacent = trace.reached && at.is_some_and(|i| i + 2 == trace.hops.len());
    Some((at.and_then(|i| trace.hops[i]), adjacent))
}

/// Check every symmetry step `r` records; returns (steps checked, hops
/// starred for a gap or a silent target).
fn cross_check(sim: &Sim, r: &RevtrResult) -> (usize, usize) {
    let (mut steps, mut starred) = (0, 0);
    for hop in &r.hops {
        if let Evidence::AssumedSymmetric { cur, penult, .. } = hop.evidence {
            let (want, adjacent) = full_trace(sim, r.src, cur).expect("a measured hop routes");
            assert_eq!(
                Some(penult),
                want,
                "{} -> {}: adopted off {cur}",
                r.dst,
                r.src
            );
            assert!(
                adjacent || hop.suspicious_gap_before,
                "gap off {cur} unreported"
            );
            steps += 1;
            starred += usize::from(!adjacent);
        }
    }
    // The step that ended the request, if one did: it ran at the last
    // routable hop of the path.
    let cur = r.addrs().filter(|a| !a.is_private()).last();
    match (r.end, cur) {
        (StitchEnd::AbortInterdomain { cur, penult, .. }, _) => {
            let (want, _) = full_trace(sim, r.src, cur).expect("a measured hop routes");
            assert_eq!(
                Some(penult),
                want,
                "{} -> {}: aborted at {cur}",
                r.dst,
                r.src
            );
            steps += 1;
        }
        (StitchEnd::Stuck, Some(cur)) => {
            let nothing_new = full_trace(sim, r.src, cur)
                .and_then(|(want, _)| want)
                .is_none_or(|penult| r.addrs().any(|a| a == penult));
            assert!(
                nothing_new,
                "{} -> {}: stuck at {cur} for no reason",
                r.dst, r.src
            );
            steps += 1;
        }
        _ => {}
    }
    (steps, starred)
}

#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn symmetry_steps_match_the_full_trace_at_every_width() {
    for seed in [1, 7, 42] {
        let mut sim_cfg = SimConfig::era_2020();
        sim_cfg.behavior.churn_per_hour = 0.0;
        sim_cfg.behavior.router_load_balancer = 0.0;
        // 3 000 requests, not the standard 2 000: revtr 2.0 judges a
        // router's spoofed replies on their stamps, so fewer requests fall
        // back to the symmetry step (868–954 checked steps a seed at 2 000),
        // and the floor below wants over 1 000 decisions a seed.
        let scale = EvalScale {
            n_revtrs: 3_000,
            ..Scale::Standard.eval_scale(seed)
        };
        let ctx = EvalContext::new(sim_cfg, scale);
        let ingress = Arc::new(ctx.build_ingress(&ctx.prober(), Heuristics::FULL));
        let workload = ctx.workload();

        // With the measurement cache a pool may measure a link twice that
        // the serial order measures once, so packets are compared with it
        // off: then every step measures, and what it sends is a function
        // of its start TTL alone — the chain, or a distance published at a
        // barrier.
        for use_cache in [true, false] {
            let run = |workers: usize| {
                let mut cfg = EngineConfig::revtr2();
                cfg.use_stop_sets = true;
                cfg.use_cache = use_cache;
                let system = ctx.build_system(ctx.prober(), cfg, Arc::clone(&ingress));
                // Atlases first: what the campaign sends is then its own.
                for src in ctx.sources() {
                    system.register_source(src);
                }
                let before = system.prober().counters().snapshot();
                let outcome = system
                    .run_campaign(&workload, LoopConfig { workers })
                    .expect("no measurement panics");
                let (mut steps, mut starred) = (0, 0);
                for r in &outcome.results {
                    let (s, g) = cross_check(&ctx.sim, r);
                    steps += s;
                    starred += g;
                }
                let sent = system.prober().counters().snapshot().since(&before);
                // Hops less their evidence, which names whether the cache
                // answered and, on a hit, the nonce of whichever request
                // measured the key first: which of two workers pays for a
                // measurement both need is theirs to settle.
                let paths: Vec<_> = (outcome.results.iter())
                    .map(|r| {
                        let hops: Vec<_> = (r.hops.iter())
                            .map(|h| (h.addr, h.method, h.suspicious_gap_before))
                            .collect();
                        (r.status, hops)
                    })
                    .collect();
                (
                    paths,
                    steps,
                    starred,
                    sent.traceroute_pkts,
                    sent.traceroutes,
                )
            };
            let serial = run(1);
            let pooled = run(4);
            assert!(
                serial.1 >= 1_000,
                "seed {seed}: only {} steps checked",
                serial.1
            );
            assert!(
                serial.2 >= 50,
                "seed {seed}: only {} gaps starred",
                serial.2
            );
            assert_eq!(serial.0, pooled.0, "seed {seed}: paths depend on width");
            assert_eq!((serial.1, serial.2), (pooled.1, pooled.2), "seed {seed}");
            if !use_cache {
                assert_eq!(
                    (serial.3, serial.4),
                    (pooled.3, pooled.4),
                    "seed {seed}: traceroute packets depend on width"
                );
            }
        }
    }
}
