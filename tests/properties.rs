//! Property-based tests (proptest) over the simulator's core invariants:
//! whatever the seed and knobs, routing stays valley-free and loop-free,
//! Record Route semantics stay within spec, and measurements stay
//! deterministic and destination-based.

use proptest::prelude::*;
use revtr_suite::netsim::sim::PktMeta;
use revtr_suite::netsim::{
    Addr, AsId, Rel, ScenarioConfig, ScenarioProfile, Scenarios, Sim, SimConfig, RR_SLOTS,
};

fn tiny_sim(seed: u64) -> Sim {
    Sim::build(SimConfig::tiny(), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Valley-free + loop-free BGP for arbitrary seeds and destinations.
    #[test]
    fn bgp_paths_are_valley_free(seed in 0u64..500, dst_idx in 0usize..70, salt in 0u64..1000) {
        let sim = tiny_sim(seed);
        let n = sim.topo().n_ases();
        let dst = AsId((dst_idx % n) as u32);
        // The production plane: core ASes read their cell, leaves resolve
        // on lookup.
        let routes = sim.routes(dst, salt);
        for x in 0..n {
            let mut path = vec![AsId(x as u32)];
            while let Some(hop) = routes.next(path[path.len() - 1]) {
                prop_assert!(path.len() <= n, "next-hop chain loops");
                path.push(sim.topo().asn(path[path.len() - 1]).neighbors[hop].asn);
            }
            prop_assert!(path[path.len() - 1] == dst, "connected topology");
            // Loop-free.
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), path.len());
            // Valley-free.
            let mut descended = false;
            for w in path.windows(2) {
                match sim.topo().asn(w[0]).rel_with(w[1]).expect("adjacent") {
                    Rel::Provider => prop_assert!(!descended),
                    Rel::Peer => {
                        prop_assert!(!descended);
                        descended = true;
                    }
                    Rel::Customer => descended = true,
                }
            }
        }
    }

    /// RR replies never exceed nine slots and never contain the network
    /// address of a /24 — from *any* vantage point, not just site 0 (the
    /// probing VP determines the forward leg, so each VP exercises a
    /// different split of the nine slots).
    #[test]
    fn rr_slots_respect_rfc791(
        seed in 0u64..200,
        vp_pick in 0usize..32,
        dst_pick in 0usize..60,
        nonce in 0u64..50,
    ) {
        let sim = tiny_sim(seed);
        let vps = &sim.topo().vp_sites;
        let src = vps[vp_pick % vps.len()].host;
        let prefixes = &sim.topo().prefixes;
        let pe = &prefixes[dst_pick % prefixes.len()];
        let dst = sim.host_addrs(pe.id).next().expect("hosts");
        if dst == src { return Ok(()); }
        if let Some(r) = sim.rr_ping(src, dst, nonce) {
            prop_assert!(r.slots.len() <= RR_SLOTS);
            for s in &r.slots {
                prop_assert_ne!(*s, Addr::ZERO);
            }
            prop_assert!(r.rtt_ms > 0.0);
        }
    }

    /// Forwarding is destination-based: two walks from the same router to
    /// the same destination with different plain flows traverse identical
    /// routers unless a load balancer intervenes — and with the same meta
    /// they are always identical.
    #[test]
    fn walks_are_deterministic(seed in 0u64..200, a in 0usize..60, b in 0usize..60) {
        let sim = tiny_sim(seed);
        let prefixes = &sim.topo().prefixes;
        let src_pe = &prefixes[a % prefixes.len()];
        let dst_pe = &prefixes[b % prefixes.len()];
        let src = sim.host_addrs(src_pe.id).next().expect("hosts");
        let dst = sim.host_addrs(dst_pe.id).nth(1).expect("hosts");
        if src == dst { return Ok(()); }
        let attach = sim.topo().prefix(src_pe.id).attach;
        let meta = PktMeta::plain(src, 7);
        let w1 = sim.walk(attach, dst, &meta);
        let w2 = sim.walk(attach, dst, &meta);
        match (w1, w2) {
            (Some(x), Some(y)) => {
                let rx: Vec<_> = x.hops.iter().map(|h| h.router).collect();
                let ry: Vec<_> = y.hops.iter().map(|h| h.router).collect();
                prop_assert_eq!(rx, ry);
            }
            (None, None) => {}
            _ => prop_assert!(false, "non-deterministic reachability"),
        }
    }

    /// Paris traceroute invariants: flow-stable, hop count bounded, and
    /// the destination appears only as the final hop.
    #[test]
    fn traceroute_invariants(seed in 0u64..200, pick in 0usize..60) {
        let sim = tiny_sim(seed);
        let src = sim.topo().vp_sites[pick % sim.topo().vp_sites.len()].host;
        let prefixes = &sim.topo().prefixes;
        let pe = &prefixes[(pick * 7) % prefixes.len()];
        let dst = sim.host_addrs(pe.id).nth(3).expect("hosts");
        if dst == src { return Ok(()); }
        if let Some(t) = sim.traceroute(src, dst, 5) {
            prop_assert!(t.hops.len() <= 66);
            if t.reached {
                prop_assert_eq!(t.hops.last().copied().flatten(), Some(dst));
                for h in &t.hops[..t.hops.len() - 1] {
                    prop_assert_ne!(*h, Some(dst));
                }
            }
        }
    }

    /// Spoofed replies land at the claimed source with identical slot
    /// contents regardless of which capable sender emitted them (the
    /// decoupling that Insight 1.3 exploits).
    #[test]
    fn spoofed_reply_content_is_sender_independent(seed in 0u64..100, pick in 0usize..40) {
        let sim = tiny_sim(seed);
        let vps = &sim.topo().vp_sites;
        if vps.len() < 3 { return Ok(()); }
        let claimed = vps[0].host;
        let prefixes = &sim.topo().prefixes;
        let pe = &prefixes[pick % prefixes.len()];
        let dst = sim.host_addrs(pe.id).next().expect("hosts");
        // Two different spoof-capable senders, same nonce: the *reverse*
        // part of the slots (after the destination stamp) must agree,
        // because the reply path only depends on (dst, claimed source).
        let r1 = sim.rr_ping_from(vps[1].host, claimed, dst, 9);
        let r2 = sim.rr_ping_from(vps[2].host, claimed, dst, 9);
        if let (Some(r1), Some(r2)) = (r1, r2) {
            let tail = |r: &revtr_suite::netsim::RrReply| -> Option<Vec<Addr>> {
                let pos = r.slots.iter().position(|&s| s == dst)?;
                Some(r.slots[pos + 1..].to_vec())
            };
            if let (Some(t1), Some(t2)) = (tail(&r1), tail(&r2)) {
                // Truncate to the shorter (forward lengths differ, so one
                // reply may have fewer free slots).
                let n = t1.len().min(t2.len());
                prop_assert_eq!(&t1[..n], &t2[..n]);
            }
        }
    }

    /// Host behaviour flags are consistent: RR-responsive ⊆
    /// ping-responsive, TS-responsive ⊆ ping-responsive.
    #[test]
    fn responsiveness_hierarchy(seed in 0u64..100, raw in 0u32..100_000) {
        let sim = tiny_sim(seed);
        let prefixes = &sim.topo().prefixes;
        let pe = &prefixes[(raw as usize) % prefixes.len()];
        let host = Addr(pe.prefix.base.0 + 10 + raw % 240);
        let b = sim.behavior();
        if b.host_rr_responsive(host) {
            prop_assert!(b.host_ping_responsive(host));
        }
        if b.host_ts_responsive(host) {
            prop_assert!(b.host_ping_responsive(host));
        }
    }
}

/// One representative adversarial draw per profile, over arbitrary entity
/// keys, encoded for equality comparison. Each profile's draws must be a
/// pure function of (seed, own severity, entity keys).
fn profile_draw(s: &Scenarios, p: ScenarioProfile, e1: u64, e2: u64, attempt: u64) -> u64 {
    let addr1 = Addr(0x0b00_0000 | (e1 as u32 & 0x00ff_ffff));
    let addr2 = Addr(0x0b00_0000 | (e2 as u32 & 0x00ff_ffff));
    let asn = AsId((e1 % 64) as u32);
    match p {
        ScenarioProfile::SpoofFilterRollout => u64::from(s.spoof_filtered(asn, addr2)),
        ScenarioProfile::DbrViolationRegion => u64::from(s.dbr_region(asn)),
        ScenarioProfile::LyingRrResponders => {
            // The pick helper is unconditional (callers consult it only
            // after the lie draw fires), so encode it only when it fires.
            if s.lying_responder(addr1) {
                1 << 8 | s.lie_pick(addr1, addr2, 5) as u64
            } else {
                0
            }
        }
        ScenarioProfile::AsymmetricRateLimiters => {
            u64::from(s.rate_limited(addr1, addr2, attempt.is_multiple_of(2), attempt))
        }
        ScenarioProfile::PoisonedAtlas => u64::from(s.poisoned_trace(addr1, addr2)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A severity-0 profile is the clean Internet: whatever the seed, no
    /// draw fires and probe replies are byte-identical to a scenario-free
    /// sim's. (The campaign-level twin of this property is pinned in
    /// `eval::scenarios::tests::severity_zero_profile_is_byte_identical_to_clean`.)
    #[test]
    fn severity_zero_scenarios_never_perturb(
        seed in 0u64..200,
        prof in 0usize..5,
        vp_pick in 0usize..32,
        dst_pick in 0usize..60,
        nonce in 0u64..20,
    ) {
        let profile = ScenarioProfile::ALL[prof];
        let zero = ScenarioConfig::profile_at(profile, 0.0);
        prop_assert!(!zero.any_enabled());
        let s = Scenarios::new(seed, zero.clone());
        prop_assert_eq!(profile_draw(&s, profile, vp_pick as u64, dst_pick as u64, nonce), 0);

        let clean_sim = tiny_sim(seed);
        let mut cfg = SimConfig::tiny();
        cfg.scenario = zero;
        let zero_sim = Sim::build(cfg, seed);
        let vps = &clean_sim.topo().vp_sites;
        let src = vps[vp_pick % vps.len()].host;
        let prefixes = &clean_sim.topo().prefixes;
        let pe = &prefixes[dst_pick % prefixes.len()];
        let dst = clean_sim.host_addrs(pe.id).next().expect("hosts");
        if dst == src { return Ok(()); }
        let a = clean_sim.rr_ping(src, dst, nonce);
        let b = zero_sim.rr_ping(src, dst, nonce);
        prop_assert_eq!(
            a.as_ref().map(|r| (&r.slots, r.rtt_ms)),
            b.as_ref().map(|r| (&r.slots, r.rtt_ms))
        );
    }

    /// Composing two profiles never couples their randomness: profile A's
    /// draws under `A ∘ B` are bit-identical to its draws under A alone,
    /// for every ordered pair, severity mix, and entity key. Each profile
    /// draws from its own salted stream, so dialling one adversary up can
    /// never reshuffle another's behavior.
    #[test]
    fn composed_profiles_draw_independently(
        seed in 0u64..200,
        pa in 0usize..5,
        pb in 0usize..5,
        sev_a in 1u32..=10,
        sev_b in 1u32..=10,
        e1 in 0u64..10_000,
        e2 in 0u64..10_000,
        attempt in 0u64..8,
    ) {
        let (a, b) = (ScenarioProfile::ALL[pa], ScenarioProfile::ALL[pb]);
        if a == b { return Ok(()); }
        let sev_a = f64::from(sev_a) / 10.0;
        let sev_b = f64::from(sev_b) / 10.0;
        let alone = Scenarios::new(seed, ScenarioConfig::profile_at(a, sev_a));
        let composed = Scenarios::new(
            seed,
            ScenarioConfig::profile_at(a, sev_a).with_profile_at(b, sev_b),
        );
        prop_assert_eq!(
            profile_draw(&alone, a, e1, e2, attempt),
            profile_draw(&composed, a, e1, e2, attempt)
        );
    }
}

/// Pinned failing-case replays. The vendored proptest shim has no failure
/// persistence or shrinking, so inputs that ever exposed a bug are pinned
/// here as explicit tests (and recorded in `proptest-regressions/
/// properties.txt`). These run on every `cargo test`, not just when the
/// generator happens to land on them.
mod regressions {
    use revtr_suite::netsim::{Addr, Sim, SimConfig, RR_SLOTS};
    use revtr_suite::revtr::extract_reverse_hops;

    /// Seed 0, src 11.7.128.4 (VP site 0), dst 11.0.16.26 (a router
    /// interface): the forward path traverses the destination router, so
    /// the destination address is stamped at slot 1 (forward leg) *and*
    /// slot 3 (the forward/reply boundary). First-occurrence extraction
    /// used to misread the forward stamps `[10.0.0.3, 11.0.16.26, ...]`
    /// as reverse hops; extraction must cut at the *last* occurrence.
    #[test]
    fn pinned_seed0_dest_traversed_on_forward_leg() {
        let sim = Sim::build(SimConfig::tiny(), 0);
        let src = sim.topo().vp_sites[0].host;
        assert_eq!(src, Addr::new(11, 7, 128, 4), "pinned topology changed");
        let dst = Addr::new(11, 0, 16, 26);
        let r = sim.rr_ping(src, dst, 0).expect("pinned dest answers");
        assert!(
            r.slots.iter().filter(|&&s| s == dst).count() >= 2,
            "pinned case no longer traverses the destination: {:?}",
            r.slots
        );
        let rev = extract_reverse_hops(&r.slots, dst).expect("dest stamped");
        assert!(
            !rev.contains(&dst),
            "reverse hops contain the destination itself: {rev:?}"
        );
        assert_eq!(
            rev,
            vec![Addr::new(11, 3, 16, 21), Addr::new(11, 7, 128, 1)]
        );
    }

    /// Same shape with the duplicate stamps *adjacent* (slots 3 and 4):
    /// the last-occurrence rule and the adjacent-duplicate fallback must
    /// agree on the boundary.
    #[test]
    fn pinned_seed0_dest_stamps_adjacent_pair() {
        let sim = Sim::build(SimConfig::tiny(), 0);
        let src = sim.topo().vp_sites[0].host;
        let dst = Addr::new(11, 0, 16, 5);
        let r = sim.rr_ping(src, dst, 0).expect("pinned dest answers");
        assert_eq!(&r.slots[3..5], &[dst, dst], "pinned slot layout changed");
        let rev = extract_reverse_hops(&r.slots, dst).expect("dest stamped");
        assert_eq!(
            rev,
            vec![
                Addr::new(11, 0, 16, 29),
                Addr::new(11, 3, 16, 17),
                Addr::new(11, 7, 16, 1),
                Addr::new(11, 7, 16, 6),
            ]
        );
    }

    /// Seed 0, prefix 2's first host answers RR in Private mode: the
    /// destination's own address never appears, only a doubled private
    /// stamp (`10.0.0.9, 10.0.0.9`) at the forward/reply boundary. The
    /// adjacent-duplicate fallback must find the boundary and return only
    /// the reply-leg hops.
    #[test]
    fn pinned_seed0_private_dest_doubles_stamp_at_boundary() {
        let sim = Sim::build(SimConfig::tiny(), 0);
        let src = sim.topo().vp_sites[0].host;
        let pe = &sim.topo().prefixes[2];
        let dst = sim.host_addrs(pe.id).next().expect("hosts");
        let r = sim.rr_ping(src, dst, 0).expect("pinned dest answers");
        assert!(!r.slots.contains(&dst), "dest must stamp privately here");
        let dup = Addr::new(10, 0, 0, 9);
        assert_eq!(&r.slots[3..5], &[dup, dup], "pinned slot layout changed");
        let rev = extract_reverse_hops(&r.slots, dst).expect("fallback fires");
        assert_eq!(
            rev,
            vec![
                Addr::new(11, 2, 16, 13),
                Addr::new(11, 3, 16, 21),
                Addr::new(11, 7, 128, 1),
            ]
        );
    }

    /// Seed 0, prefix 3's first host: the reply consumes all nine RR
    /// slots — the RFC 791 cap is reached exactly, never exceeded.
    #[test]
    fn pinned_seed0_reply_fills_all_nine_slots() {
        let sim = Sim::build(SimConfig::tiny(), 0);
        let src = sim.topo().vp_sites[0].host;
        let pe = &sim.topo().prefixes[3];
        let dst = sim.host_addrs(pe.id).next().expect("hosts");
        let r = sim.rr_ping(src, dst, 0).expect("pinned dest answers");
        assert_eq!(r.slots.len(), RR_SLOTS);
    }
}
