//! Differential tests of the last-link plane against the full traceroute
//! it replaced in the symmetry step. [`Sim::traceroute`] stays in
//! production (atlases are built from it), so it is the reference:
//!
//! (a) a TTL view answers every TTL as the trace does,
//! (b) [`Prober::last_link`] finds the hop the symmetry step used to derive
//!     from the whole trace — from any start TTL,
//! (c) it is charged one packet per distinct TTL it read, the contiguous
//!     run between its start and what it found,
//! (d) reading every TTL is charged the trace's round trips to the bit, and
//!     any subset the same per-TTL terms.

use proptest::prelude::*;
use revtr_netsim::{Addr, Sim, SimConfig, TraceResult, TtlAnswer, TtlView};
use revtr_probing::{LastLink, Meter, Prober};
use std::sync::OnceLock;

const SEEDS: [u64; 3] = [1, 7, 42];
const START_TTLS: std::ops::RangeInclusive<u8> = 1..=40;

/// Tiny and paper-era Internets × seeds, each fresh and after two days of
/// route churn. Both configurations carry TTL-silent routers (8 %), MPLS
/// backbones (15 % of transit ASes) and ping-silent hosts (25 %).
fn sims() -> &'static [Sim] {
    static SIMS: OnceLock<Vec<Sim>> = OnceLock::new();
    SIMS.get_or_init(|| {
        let mut out = Vec::new();
        for cfg in [SimConfig::tiny(), SimConfig::era_2020()] {
            for seed in SEEDS {
                for churned in [false, true] {
                    let sim = Sim::build(cfg.clone(), seed);
                    if churned {
                        sim.advance_hours(48.0);
                    }
                    out.push(sim);
                }
            }
        }
        out
    })
}

/// The `pick`-th target of a kind: a host, a router interface, a loopback,
/// or an address nothing routes to.
fn target(sim: &Sim, kind: usize, pick: usize) -> Addr {
    let topo = sim.topo();
    match kind % 4 {
        0 => {
            let pe = &topo.prefixes[pick % topo.prefixes.len()];
            sim.host_addrs(pe.id)
                .nth(pick % 7)
                .expect("prefixes hold hosts")
        }
        1 => {
            let l = &topo.links[pick % topo.links.len()];
            [l.addr_a, l.addr_b][pick % 2]
        }
        2 => topo.routers[pick % topo.routers.len()].loopback,
        _ => [Addr::new(10, 1, 2, 3), Addr::new(200, 0, 0, 1)][pick % 2],
    }
}

/// What the symmetry step read off a full trace: the last responsive hop
/// that is not the target itself — with where it sat.
fn reference(trace: &TraceResult, cur: Addr) -> LastLink {
    let dist = trace.hops.len();
    let penult_ttl = trace
        .hops
        .iter()
        .rposition(|h| h.is_some_and(|a| a != cur))
        .map_or(0, |i| i + 1);
    LastLink {
        penult: penult_ttl.checked_sub(1).and_then(|i| trace.hops[i]),
        dist: dist as u8,
        gap: (dist - penult_ttl - 1) as u8,
        reached: trace.reached,
    }
}

/// A view's answer in the trace's own terms.
fn as_hop(answer: TtlAnswer, cur: Addr) -> Option<Addr> {
    match answer {
        TtlAnswer::Exceeded(a) => Some(a),
        TtlAnswer::Echo => Some(cur),
        TtlAnswer::Silent | TtlAnswer::PastEnd => None,
    }
}

fn view(sim: &Sim, src: Addr, cur: Addr) -> Option<TtlView> {
    sim.ttl_view(src, cur, Prober::paris_flow(src, cur))
}

/// Check one `(source, target)` pair from every start TTL.
fn check_pair(sim: &Sim, src: Addr, cur: Addr, subset: u64) -> Result<(), TestCaseError> {
    let flow = Prober::paris_flow(src, cur);
    let prober = Prober::new(sim).with_cache_enabled(false);
    let Some(trace) = sim.traceroute(src, cur, flow) else {
        prop_assert!(view(sim, src, cur).is_none());
        prop_assert_eq!(prober.last_link(&mut Meter::default(), src, cur, 9), None);
        return Ok(());
    };
    let len = trace.hops.len();
    let fresh = || view(sim, src, cur).expect("the trace routed");

    // (a) TTL by TTL, and past the end what the end answered.
    let mut all = fresh();
    for t in START_TTLS.chain(41..=70) {
        let answer = all.probe(t);
        let expected = *trace
            .hops
            .get(usize::from(t) - 1)
            .unwrap_or(&trace.hops[len - 1]);
        prop_assert!(as_hop(answer, cur) == expected, "ttl {t}: {answer:?}");
        let end = matches!(answer, TtlAnswer::Echo | TtlAnswer::PastEnd);
        prop_assert!(end == (usize::from(t) >= len), "ttl {t}: {answer:?}");
        prop_assert_eq!(answer == TtlAnswer::Echo, end && trace.reached);
    }

    // (d) Every TTL of the path: the trace's bill, to the bit.
    let mut whole = fresh();
    let terms: Vec<f64> = (1..=len as u8)
        .map(|t| {
            whole.probe(t);
            let mut one = fresh();
            one.probe(t);
            prop_assert_eq!(one.packets(), 1);
            Ok(one.rtt_ms())
        })
        .collect::<Result<_, TestCaseError>>()?;
    prop_assert_eq!(whole.packets() as usize, len);
    prop_assert_eq!(whole.rtt_ms().to_bits(), trace.rtt_ms.to_bits());
    // Any subset, read in any order and more than once: the same terms.
    let mut some = fresh();
    let picked: Vec<u8> = (1..=len as u8)
        .filter(|t| subset >> (t % 64) & 1 == 1)
        .collect();
    for &t in picked.iter().rev().chain(&picked) {
        some.probe(t);
    }
    let expected = picked
        .iter()
        .fold(0.0, |sum, &t| sum + terms[usize::from(t) - 1]);
    prop_assert_eq!(some.packets() as usize, picked.len());
    prop_assert_eq!(some.rtt_ms().to_bits(), expected.to_bits());

    // (b) + (c) from every start TTL.
    let want = reference(&trace, cur);
    let lowest = want.penult_dist().max(1);
    for h in START_TTLS {
        let mut m = Meter::default();
        let (link, sent) = prober
            .last_link(&mut m, src, cur, h)
            .expect("the trace routed");
        prop_assert!(link == want, "start ttl {h}: {link:?}, not {want:?}");
        let d = m.tally;
        prop_assert_eq!((d.traceroutes, d.traceroute_pkts), (1, u64::from(sent)));
        // The TTLs read are the run from the lower of (start, adopted hop)
        // to the higher of (start, target).
        let run = h.max(want.dist) - h.min(lowest) + 1;
        prop_assert!(
            sent == run,
            "start ttl {h}: sent {sent}, not {run}, for {want:?}"
        );
        prop_assert!(sent <= h.abs_diff(want.dist) + 2 + want.gap);
        if h >= want.dist && want.penult.is_some() {
            prop_assert_eq!(sent, h - want.dist + 2 + want.gap);
        }
        if usize::from(h) <= len + 1 {
            prop_assert!(usize::from(sent) <= len + 1, "more than the trace and one");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn last_link_is_the_full_traces_last_link(
        world in 0usize..12,
        src_pick in 0usize..200,
        kind in 0usize..8,
        pick in 0usize..100_000,
        subset in 0u64..=u64::MAX,
    ) {
        let sim = &sims()[world];
        let vps = &sim.topo().vp_sites;
        let src = vps[src_pick % vps.len()].host;
        // Hosts twice as often as the rest: they are what campaigns probe.
        let cur = target(sim, if kind >= 4 { 0 } else { kind }, pick);
        if cur != src {
            check_pair(sim, src, cur, subset)?;
        }
    }
}

/// The pairs a fixed sweep of the first tiny and the first paper-era
/// Internet visits, for the coverage and mutation checks below.
fn sweep_pairs() -> impl Iterator<Item = (&'static Sim, Addr, Addr)> {
    [&sims()[0], &sims()[6]].into_iter().flat_map(|sim| {
        let src = sim.topo().vp_sites[1].host;
        (0..4usize)
            .flat_map(move |kind| (0..150usize).map(move |i| target(sim, kind, i * 37 + kind)))
            .filter(move |&cur| cur != src)
            .map(move |cur| (sim, src, cur))
    })
}

#[test]
fn the_sweep_meets_every_case_the_differential_names() {
    // The proptest is vacuous on a case its worlds never produce: count
    // them on a fixed sweep.
    let (mut gaps, mut unreached, mut unroutable, mut hidden) = (0, 0, 0, 0);
    for (sim, src, cur) in sweep_pairs() {
        let Some(trace) = sim.traceroute(src, cur, Prober::paris_flow(src, cur)) else {
            unroutable += 1;
            continue;
        };
        let want = reference(&trace, cur);
        gaps += usize::from(want.reached && want.gap > 0);
        unreached += usize::from(!want.reached);
        let attach = sim.host_attach(src).expect("vp host");
        let meta = revtr_netsim::sim::PktMeta::plain(src, Prober::paris_flow(src, cur));
        let walked = sim.walk(attach, cur, &meta).expect("routed").hops.len();
        hidden += usize::from(walked > trace.hops.len());
    }
    assert!(gaps >= 10, "silent TTLs before an answering target: {gaps}");
    assert!(unreached >= 10, "echo-silent targets: {unreached}");
    assert!(unroutable >= 10, "unroutable targets: {unroutable}");
    assert!(hidden >= 10, "paths with MPLS-hidden hops: {hidden}");
}

/// The mutant the issue names: walk backward from the first probe without
/// first sweeping forward to the target.
fn backward_at_once(view: &mut TtlView, cur: Addr, start: u8) -> Option<Addr> {
    (1..=start)
        .rev()
        .find_map(|t| as_hop(view.probe(t), cur).filter(|&a| a != cur))
}

#[test]
fn starting_backward_before_reaching_the_target_is_caught() {
    let (mut wrong, mut checked) = (0, 0);
    for (sim, src, cur) in sweep_pairs() {
        let Some(trace) = sim.traceroute(src, cur, Prober::paris_flow(src, cur)) else {
            continue;
        };
        let want = reference(&trace, cur);
        for h in START_TTLS {
            let mut v = view(sim, src, cur).expect("the trace routed");
            checked += 1;
            let got = backward_at_once(&mut v, cur, h);
            if h >= want.dist {
                assert_eq!(got, want.penult, "an overshoot may walk straight back");
            } else {
                wrong += usize::from(got != want.penult);
            }
        }
    }
    assert!(
        wrong * 10 >= checked,
        "the reference does not tell the sweep from its mutant: {wrong} of {checked}"
    );
}
