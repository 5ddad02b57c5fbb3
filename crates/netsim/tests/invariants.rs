//! Full-size topology invariants: checks that only make sense on the
//! paper-scale (`era_2020`) Internet, run once per suite.

use revtr_netsim::sim::PktMeta;
use revtr_netsim::{AsTier, Rel, Sim, SimConfig};
use revtr_telemetry::WordSet;

fn sim() -> Sim {
    Sim::build(SimConfig::era_2020(), 1)
}

#[test]
fn full_scale_topology_is_well_formed() {
    let s = sim();
    let topo = s.topo();
    assert_eq!(topo.ases.len(), SimConfig::era_2020().topology.total_ases());
    assert_eq!(topo.vp_sites.len(), 146);

    // Every AS: at least one router, at least one prefix, connected to the
    // hierarchy (non-tier-1s have a provider or peer).
    for a in &topo.ases {
        assert!(!topo.as_routers(a.id).is_empty(), "{} has no routers", a.id);
        assert!(
            !topo.as_prefixes(a.id).is_empty(),
            "{} has no prefixes",
            a.id
        );
        if a.tier != AsTier::Tier1 {
            assert!(
                (topo.neighbors(a.id).iter()).any(|n| matches!(n.rel, Rel::Provider | Rel::Peer)),
                "{} is disconnected from the hierarchy",
                a.id
            );
        }
    }

    // Address uniqueness across every interface, loopback, and prefix base.
    let mut seen = WordSet::default();
    for l in &topo.links {
        assert!(seen.insert(l.addr_a), "duplicate address {}", l.addr_a);
        assert!(seen.insert(l.addr_b), "duplicate address {}", l.addr_b);
    }
    for r in &topo.routers {
        assert!(seen.insert(r.loopback), "duplicate loopback {}", r.loopback);
    }
    for p in &topo.prefixes {
        assert!(
            seen.insert(p.prefix.base),
            "prefix base collides {}",
            p.prefix.base
        );
    }
}

#[test]
fn full_scale_universal_reachability() {
    let s = sim();
    let vp = s.topo().vp_sites[0].host;
    let attach = s.host_attach(vp).expect("vp host");
    let mut unreachable = 0;
    for pe in &s.topo().prefixes {
        let dst = s.host_addrs(pe.id).next().expect("hosts");
        if s.walk(attach, dst, &PktMeta::plain(vp, 0)).is_none() {
            unreachable += 1;
        }
    }
    assert_eq!(unreachable, 0, "{unreachable} prefixes unreachable");
}

#[test]
fn full_scale_paths_have_internet_like_lengths() {
    let s = sim();
    let o = s.oracle();
    let vp = s.topo().vp_sites[0].host;
    let mut as_lens = Vec::new();
    let mut router_lens = Vec::new();
    for pe in s.topo().prefixes.iter().step_by(7) {
        let dst = s.host_addrs(pe.id).next().expect("hosts");
        if let Some(p) = o.true_as_path(vp, dst) {
            as_lens.push(p.len());
        }
        if let Some(p) = o.true_router_path(vp, dst) {
            router_lens.push(p.len());
        }
    }
    as_lens.sort_unstable();
    router_lens.sort_unstable();
    let med_as = as_lens[as_lens.len() / 2];
    let med_r = router_lens[router_lens.len() / 2];
    // AS paths cluster around 3–6 (measured Internet medians ≈ 4), router
    // paths a handful of hops more.
    assert!((3..=6).contains(&med_as), "median AS path {med_as}");
    assert!((4..=14).contains(&med_r), "median router path {med_r}");
    assert!(
        *as_lens.last().expect("nonempty") <= 10,
        "absurdly long AS path"
    );
}

#[test]
fn full_scale_asymmetry_exists_at_as_level() {
    let s = sim();
    let o = s.oracle();
    let vp = s.topo().vp_sites[0].host;
    let (mut sym, mut asym) = (0, 0);
    for pe in s.topo().prefixes.iter().step_by(11) {
        let dst = s.host_addrs(pe.id).next().expect("hosts");
        let (Some(fwd), Some(rev)) = (o.true_as_path(vp, dst), o.true_as_path(dst, vp)) else {
            continue;
        };
        let mut rev_rev = rev.clone();
        rev_rev.reverse();
        if fwd == rev_rev {
            sym += 1;
        } else {
            asym += 1;
        }
    }
    assert!(sym > 0, "no symmetric pair at all");
    assert!(
        asym > 0,
        "no asymmetric pair: the §6.2 study would be vacuous"
    );
    // Roughly half the paths asymmetric (paper: 47%).
    let frac = asym as f64 / (sym + asym) as f64;
    assert!(
        (0.2..=0.8).contains(&frac),
        "AS-level asymmetry fraction {frac:.2} outside the plausible band"
    );
}

#[test]
fn full_scale_destination_based_consistency() {
    // Reverse paths stitched from different intermediate points converge:
    // for a destination D and source S, the reply path from an intermediate
    // router R (revealed on D→S) toward S is a suffix-consistent
    // continuation — the property Insight 1.1 rests on.
    let s = sim();
    let o = s.oracle();
    let src = s.topo().vp_sites[0].host;
    let mut checked = 0;
    for pe in s.topo().prefixes.iter().step_by(29) {
        let dst = s.host_addrs(pe.id).next().expect("hosts");
        let Some(full) = o.true_router_path(dst, src) else {
            continue;
        };
        if full.len() < 4 {
            continue;
        }
        // Walk from the midpoint router toward the source.
        let mid = full[full.len() / 2];
        let Some(tail) = s.walk(mid, src, &PktMeta::plain(src, 0)) else {
            continue;
        };
        let tail_routers: Vec<_> = tail.hops.iter().map(|h| h.router).collect();
        let expected: Vec<_> = full[full.len() / 2..].to_vec();
        assert_eq!(
            tail_routers, expected,
            "destination-based routing violated without injection"
        );
        checked += 1;
    }
    assert!(checked > 10, "too few midpoints checked: {checked}");
}
