//! Pinned hostile-scenario replays and audit-oracle regressions.
//!
//! One minimized, fully concrete replay per adversarial profile (tiny
//! topology, seed 1): the exact entities the profile's salted draws
//! select, and the exact perturbation the sim applies to them. These are
//! the scenario layer's counterpart of the pinned extraction regressions
//! in `properties.rs` — the vendored proptest shim has no shrinking, so
//! cases that matter are pinned as explicit tests. If a pin breaks, the
//! scenario draws are no longer seed-pure (or the tiny topology moved).
//!
//! On top of the replays, the audit-oracle regressions: fabricated RR
//! evidence must never be *silently* accepted — the stock engine may
//! adopt it, but the ground-truth auditor must flag the adoption
//! `Unsound`, and the hardened engine must reject it up front (visible in
//! its filter counters), completing with zero unsound hops.

use revtr_suite::atlas::select_atlas_probes;
use revtr_suite::audit::Auditor;
use revtr_suite::netsim::sim::PktMeta;
use revtr_suite::netsim::{Addr, ScenarioConfig, ScenarioProfile, Sim, SimConfig};
use revtr_suite::probing::{Prober, Telemetry};
use revtr_suite::revtr::{EngineConfig, LoopConfig, RevtrSystem, Status};
use revtr_suite::vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

/// The tiny sim at seed 1 with one profile dialled to its default
/// severity — the fixture every pin below replays against.
fn hostile_sim(profile: ScenarioProfile) -> Sim {
    let mut cfg = SimConfig::tiny();
    cfg.scenario = ScenarioConfig::profile(profile);
    Sim::build(cfg, 1)
}

fn clean_sim() -> Sim {
    Sim::build(SimConfig::tiny(), 1)
}

/// Pinned VP site 0 of the tiny seed-1 topology.
const SRC: Addr = Addr::new(11, 3, 128, 4);

#[test]
fn pinned_lying_responder_rewrites_reply_leg_only() {
    // Seed 1, dst 11.0.128.10 draws as a lying responder: the forward leg
    // and the destination stamp survive verbatim, but every reply-leg
    // stamp is rewritten to a plausible-but-false interface address. The
    // lie is stable (same nonce, same lie) so caches and retries agree.
    let clean = clean_sim();
    let hostile = hostile_sim(ScenarioProfile::LyingRrResponders);
    assert_eq!(clean.topo().vp_sites[0].host, SRC, "pinned topology moved");
    let dst = Addr::new(11, 0, 128, 10);
    let truth = clean.rr_ping(SRC, dst, 0).expect("pinned dest answers");
    let lied = hostile.rr_ping(SRC, dst, 0).expect("pinned dest answers");
    // Forward leg + destination stamp (slots 0..=5) are untouched.
    assert_eq!(&lied.slots[..6], &truth.slots[..6]);
    // The reply leg is fabricated wholesale, with real interfaces from
    // elsewhere in the topology — exactly what a replay oracle can catch
    // and a naive parser cannot.
    assert_eq!(
        &lied.slots[6..],
        &[
            Addr::new(11, 11, 16, 13),
            Addr::new(11, 5, 16, 49),
            Addr::new(11, 5, 16, 9),
        ],
        "pinned lie changed: scenario draws are no longer seed-pure"
    );
    assert_ne!(&lied.slots[6..], &truth.slots[6..]);
    let retry = hostile.rr_ping(SRC, dst, 0).expect("pinned dest answers");
    assert_eq!(retry.slots, lied.slots, "lie not stable across retries");
}

#[test]
fn pinned_poisoned_atlas_corrupts_one_interior_hop() {
    // Seed 1, atlas trace (vp 11.3.128.4 -> source 11.0.128.10) draws as
    // poisoned: exactly one interior hop is replaced with a
    // real-but-wrong interface, manufacturing a false intersection
    // opportunity. Endpoints are never touched.
    let clean = clean_sim();
    let hostile = hostile_sim(ScenarioProfile::PoisonedAtlas);
    let source = Addr::new(11, 0, 128, 10);
    let trace = clean.traceroute(SRC, source, 5).expect("pinned trace runs");
    assert_eq!(trace.hops.len(), 7, "pinned trace length changed");
    let mut poisoned = trace.hops.clone();
    hostile.scenario_poison_trace(SRC, source, &mut poisoned);
    assert_eq!(trace.hops[5], Some(Addr::new(11, 0, 16, 5)));
    assert_eq!(
        poisoned[5],
        Some(Addr::new(11, 4, 16, 53)),
        "pinned poison changed: scenario draws are no longer seed-pure"
    );
    let diffs = poisoned
        .iter()
        .zip(&trace.hops)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(diffs, 1, "poison must corrupt exactly one hop");
    assert_eq!(poisoned.first(), trace.hops.first());
    assert_eq!(poisoned.last(), trace.hops.last());
}

#[test]
fn pinned_spoof_filter_drop_is_persistent() {
    // Seed 1, VP 11.8.128.4's AS is in the rollout cohort and the draw
    // for destination 11.0.128.11 falls inside the rollout frontier: its
    // spoofed probes are eaten, and — keyed purely on (VP AS, dst) with
    // no attempt index — they stay eaten forever. Retries cannot help;
    // only VP quarantine can stop the bleeding.
    let hostile = hostile_sim(ScenarioProfile::SpoofFilterRollout);
    let vp = Addr::new(11, 8, 128, 4);
    let dst = Addr::new(11, 0, 128, 11);
    for _ in 0..3 {
        assert!(
            hostile.scenario_spoof_dropped(vp, dst),
            "pinned rollout drop changed: scenario draws are no longer seed-pure"
        );
    }
    // The clean sim never drops.
    assert!(!clean_sim().scenario_spoof_dropped(vp, dst));
}

#[test]
fn pinned_rate_limiter_rerolls_and_is_asymmetric() {
    // Seed 1, destination 11.0.128.11 draws as a rate limiter. Spoofed
    // probes from VP site 0 are dropped on attempts 0..=9 but land on
    // attempt 10 — every attempt re-rolls, so persistence (a raised stall
    // budget) recovers the pair. Direct probes are policed far more
    // gently: the asymmetry that makes the profile bite spoofed ladders
    // specifically.
    let hostile = hostile_sim(ScenarioProfile::AsymmetricRateLimiters);
    let dst = Addr::new(11, 0, 128, 11);
    let spoof_drops: Vec<u64> = (0..12)
        .filter(|&a| hostile.scenario_rate_limited(dst, SRC, true, a))
        .collect();
    let direct_drops: Vec<u64> = (0..12)
        .filter(|&a| hostile.scenario_rate_limited(dst, SRC, false, a))
        .collect();
    assert_eq!(
        spoof_drops,
        vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11],
        "pinned spoofed-drop schedule changed: draws are no longer seed-pure"
    );
    assert!(
        !hostile.scenario_rate_limited(dst, SRC, true, 10),
        "attempt 10 must land (the re-roll the stall budget exists for)"
    );
    assert_eq!(
        direct_drops,
        vec![2, 8, 11],
        "pinned direct-drop schedule changed"
    );
    assert!(direct_drops.len() < spoof_drops.len(), "asymmetry inverted");
}

#[test]
fn pinned_dbr_region_source_routes_option_packets() {
    // Seed 1, walks from prefix 0's attachment router to 11.4.128.10:
    // with the DBR-violating region active, *option-carrying* packets
    // from different claimed sources take different router paths — the
    // destination-based-routing assumption spoofed RR relies on is broken
    // — while plain packets (the oracle's ground truth) are untouched.
    let hostile = hostile_sim(ScenarioProfile::DbrViolationRegion);
    let dst = Addr::new(11, 4, 128, 10);
    let (s1, s2) = (SRC, Addr::new(11, 8, 128, 4));
    let attach = hostile.topo().prefix(hostile.topo().prefixes[0].id).attach;
    let routers = |sim: &Sim, src: Addr, options: bool| -> Vec<_> {
        let meta = if options {
            PktMeta::options(src, 7)
        } else {
            PktMeta::plain(src, 7)
        };
        sim.walk(attach, dst, &meta)
            .expect("pinned walk reaches")
            .hops
            .iter()
            .map(|h| h.router)
            .collect()
    };
    assert_ne!(
        routers(&hostile, s1, true),
        routers(&hostile, s2, true),
        "pinned DBR divergence vanished: draws are no longer seed-pure"
    );
    // Plain packets still route per destination only.
    assert_eq!(routers(&hostile, s1, false), routers(&hostile, s2, false));
    // And the clean sim routes option packets source-independently too.
    let clean = clean_sim();
    assert_eq!(routers(&clean, s1, true), routers(&clean, s2, true));
}

/// Run the 24-destination campaign over `sim` with the engine stock or
/// hardened, returning results plus the telemetry the engine reported to.
fn run_campaign(sim: &Sim, harden: bool) -> (Vec<revtr_suite::revtr::RevtrResult>, Telemetry) {
    let tele = Telemetry::enabled();
    let prober = Prober::new(sim).with_telemetry(tele.clone());
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 100, 6);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = pool.len();
    cfg.harden = harden;
    let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);
    let src = sim.topo().vp_sites[0].host;
    let dests: Vec<Addr> = sim
        .topo()
        .prefixes
        .iter()
        .filter_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a) && a != src)
        })
        .take(24)
        .collect();
    sys.register_source(src);
    let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
    let results = sys
        .run_campaign(&pairs, LoopConfig::default())
        .expect("no task panicked")
        .results;
    (results, tele)
}

#[test]
fn lying_rr_is_flagged_unsound_never_silently_accepted() {
    // The audit-oracle regression at the heart of the hostile suite: when
    // responders fabricate reply-leg evidence, the *stock* engine adopts
    // it — but the adoption must always be visible to the ground-truth
    // auditor as an Unsound verdict, never silently accepted as a clean
    // path. The *hardened* engine must instead reject the evidence up
    // front (its filter counter fires) and complete with zero unsound
    // hops — coverage sacrificed, soundness kept.
    let sim = hostile_sim(ScenarioProfile::LyingRrResponders);
    let auditor = Auditor::new(&sim, EngineConfig::revtr2().registry_only_ip2as);

    let (stock, _) = run_campaign(&sim, false);
    let flagged = stock
        .iter()
        .filter(|r| r.status == Status::Complete && auditor.audit(r).failures().next().is_some())
        .count();
    assert!(
        flagged > 0,
        "stock engine adopted no lies the auditor could flag — the profile stopped biting"
    );

    let (hardened, tele) = run_campaign(&sim, true);
    for r in &hardened {
        if let Some(f) = auditor.audit(r).failures().next() {
            panic!(
                "hardened engine silently accepted fabricated evidence: {} -> {} hop {} ({}): {:?}",
                r.dst, r.src, f.index, f.kind, f.verdict
            );
        }
    }
    assert!(
        tele.metrics().counter("core.harden.rr_lies_filtered") > 0,
        "hardened engine never exercised its lie filter"
    );
}

#[test]
fn poisoned_atlas_is_rejected_not_stitched() {
    // Same regression for the atlas side: poisoned intersections must
    // never survive into a hardened path that audits unsound — they are
    // demoted to assumed-symmetric instead.
    let sim = hostile_sim(ScenarioProfile::PoisonedAtlas);
    let auditor = Auditor::new(&sim, EngineConfig::revtr2().registry_only_ip2as);
    let (stock, _) = run_campaign(&sim, false);
    let flagged = stock
        .iter()
        .filter(|r| r.status == Status::Complete && auditor.audit(r).failures().next().is_some())
        .count();
    assert!(
        flagged > 0,
        "stock engine stitched no poisoned intersections the auditor could flag"
    );
    let (hardened, _) = run_campaign(&sim, true);
    for r in &hardened {
        if let Some(f) = auditor.audit(r).failures().next() {
            panic!(
                "hardened engine stitched poisoned atlas evidence: {} -> {} hop {} ({}): {:?}",
                r.dst, r.src, f.index, f.kind, f.verdict
            );
        }
    }
}
