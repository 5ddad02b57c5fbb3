//! Engine-level behavioural tests: the Fig. 2 control flow, the trust
//! policy, and the ablation knobs, exercised end-to-end on a small
//! simulated Internet.

use revtr::{
    EngineConfig, HopMethod, LoopConfig, RevtrResult, RevtrSystem, Status, SymmetryPolicy,
};
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, FaultConfig, ScenarioConfig, ScenarioProfile, Sim, SimConfig};
use revtr_probing::{Meter, ProbeLoss, Prober, RetryPolicy, Telemetry};
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

struct Fixture {
    sim: Sim,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        Fixture {
            sim: Sim::build(SimConfig::tiny(), seed),
        }
    }

    fn system(&self, cfg: EngineConfig) -> RevtrSystem<'_> {
        self.system_on(Prober::new(&self.sim), cfg)
    }

    /// [`Fixture::system`], probing through `prober`.
    fn system_on<'a>(&'a self, prober: Prober<'a>, mut cfg: EngineConfig) -> RevtrSystem<'a> {
        cfg.atlas_size = 40;
        let vps: Vec<Addr> = self.sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<_> = self.sim.topo().prefixes.iter().map(|p| p.id).collect();
        let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
        let pool = select_atlas_probes(&self.sim, 120, 9);
        RevtrSystem::new(prober, cfg, vps, ingress, pool)
    }

    /// Some responsive destinations spread across prefixes.
    fn destinations(&self, n: usize) -> Vec<Addr> {
        let mut out = Vec::new();
        for pe in &self.sim.topo().prefixes {
            if let Some(a) = self
                .sim
                .host_addrs(pe.id)
                .find(|&a| self.sim.behavior().host_rr_responsive(a))
            {
                out.push(a);
                if out.len() == n {
                    break;
                }
            }
        }
        out
    }
}

#[test]
fn revtr2_measures_paths_and_paths_lead_to_source() {
    let f = Fixture::new(31);
    let sys = f.system(EngineConfig::revtr2());
    let src = f.sim.topo().vp_sites[0].host;
    let dests = f.destinations(15);
    let mut complete = 0;
    for &d in &dests {
        let r = sys.measure(d, src);
        assert_eq!(r.dst, d);
        assert_eq!(r.src, src);
        if r.complete() {
            complete += 1;
            // First hop is the destination.
            assert_eq!(r.hops[0].addr, Some(d));
            assert_eq!(r.hops[0].method, HopMethod::Destination);
            // Last responsive hop is the source or in its prefix.
            let last = r.addrs().last().expect("complete path has hops");
            let src_prefix = f.sim.host_prefix(src);
            assert!(
                last == src || f.sim.topo().prefix_of(last) == src_prefix,
                "complete path must end at the source: ends at {last}"
            );
        }
    }
    assert!(
        complete * 2 >= dests.len(),
        "revtr 2.0 completed only {complete}/{} paths",
        dests.len()
    );
    // Cache effectiveness (Insight 1.4): re-measuring the same
    // destinations must reuse cached probes, not re-issue them from
    // scratch. The background ingress survey bypasses the measurement
    // cache (its VP→scan-dest pings are never re-issued by the engine),
    // so the reuse pinned here is measurement-to-measurement.
    let before = sys.prober().cache().stats();
    assert!(before.inserts > 0, "nothing was ever cached: {before:?}");
    for &d in &dests {
        let r = sys.measure(d, src);
        assert_eq!(r.dst, d);
    }
    let cs = sys.prober().cache().stats();
    assert!(
        cs.hits > before.hits,
        "re-measuring {} destinations earned no cache hits: {before:?} -> {cs:?}",
        dests.len()
    );
    assert_eq!(cs.expired, 0, "within the horizon, nothing may expire");
}

#[test]
fn revtr2_never_assumes_interdomain_symmetry() {
    let f = Fixture::new(32);
    let sys = f.system(EngineConfig::revtr2());
    let src = f.sim.topo().vp_sites[1].host;
    for &d in &f.destinations(20) {
        let r = sys.measure(d, src);
        assert_eq!(
            r.stats.assumed_interdomain, 0,
            "trust policy violated for {d}"
        );
    }
}

#[test]
fn revtr1_trades_trust_for_coverage() {
    let f = Fixture::new(33);
    let sys1 = f.system(EngineConfig::revtr1());
    let sys2 = f.system(EngineConfig::revtr2());
    let src = f.sim.topo().vp_sites[0].host;
    let dests = f.destinations(20);
    let (mut c1, mut c2, mut aborted2) = (0, 0, 0);
    for &d in &dests {
        if sys1.measure(d, src).complete() {
            c1 += 1;
        }
        let r2 = sys2.measure(d, src);
        if r2.complete() {
            c2 += 1;
        }
        if r2.status == Status::AbortedInterdomain {
            aborted2 += 1;
        }
    }
    assert!(
        c1 >= c2,
        "1.0 (always-assume) must cover at least as much: {c1} vs {c2}"
    );
    // In any realistic topology some 2.0 measurements abort.
    assert!(c1 > 0);
    let _ = aborted2;
}

#[test]
fn timestamp_probes_only_sent_when_enabled() {
    let f = Fixture::new(34);
    let src = f.sim.topo().vp_sites[0].host;
    let dests = f.destinations(10);

    let sys2 = f.system(EngineConfig::revtr2());
    for &d in &dests {
        sys2.measure(d, src);
    }
    let snap2 = sys2.prober().counters().snapshot();
    assert_eq!(snap2.ts, 0, "revtr 2.0 must not send TS probes");
    assert_eq!(snap2.spoof_ts, 0);

    let sys1 = f.system(EngineConfig::revtr1());
    let mut ts_used = 0;
    for &d in &dests {
        let r = sys1.measure(d, src);
        ts_used += r.stats.probes.ts + r.stats.probes.spoof_ts;
        let _ = r;
    }
    // TS probes only fire when RR fails first; across 10 paths on the tiny
    // topology at least some hops should fall through to TS.
    let snap1 = sys1.prober().counters().snapshot();
    assert_eq!(snap1.ts + snap1.spoof_ts, ts_used);
}

#[test]
fn measurements_are_deterministic() {
    let f = Fixture::new(35);
    let src = f.sim.topo().vp_sites[2].host;
    let d = f.destinations(1)[0];
    let sys_a = f.system(EngineConfig::revtr2());
    let sys_b = f.system(EngineConfig::revtr2());
    let ra = sys_a.measure(d, src);
    let rb = sys_b.measure(d, src);
    assert_eq!(ra.status, rb.status);
    assert_eq!(
        ra.addrs().collect::<Vec<_>>(),
        rb.addrs().collect::<Vec<_>>()
    );
}

#[test]
fn unresponsive_destination_reported() {
    let f = Fixture::new(36);
    let sys = f.system(EngineConfig::revtr2());
    let src = f.sim.topo().vp_sites[0].host;
    // A host that does not answer pings.
    let dead = f
        .sim
        .topo()
        .prefixes
        .iter()
        .flat_map(|pe| f.sim.host_addrs(pe.id))
        .find(|&a| !f.sim.behavior().host_ping_responsive(a))
        .expect("some unresponsive host exists");
    let r = sys.measure(dead, src);
    assert_eq!(r.status, Status::Unresponsive);
    assert!(r.hops.is_empty());
}

/// One request from `src` to `dst` on a fresh system over `f`, the
/// measurement cache on or off: its result, its destination check span's
/// (pkts, fallback, answered), and whether an RR step ran its direct probe.
fn destination_check(
    f: &Fixture,
    src: Addr,
    dst: Addr,
    cache: bool,
) -> (RevtrResult, CheckSpan, bool) {
    let tele = Telemetry::enabled();
    let prober = Prober::new(&f.sim).with_telemetry(tele.clone());
    let mut cfg = EngineConfig::revtr2();
    cfg.use_cache = cache;
    let r = f.system_on(prober, cfg).measure(dst, src);
    let journal = tele.journal_records();
    let rec = (journal.iter())
        .find(|rec| rec.dst == dst.0)
        .expect("journaled");
    let span = |stage| rec.spans().iter().find(|s| s.stage == stage);
    let check = span("destination_probe").expect("the check ran");
    let field = |k| rec.fields(check).iter().find(|(n, _)| *n == k).map(|f| f.1);
    let seen = (field("pkts"), field("fallback"), field("answered"));
    (r, seen, span("rr_direct").is_some())
}

/// A destination check span's (pkts, fallback, answered) fields.
type CheckSpan = (Option<u64>, Option<u64>, Option<u64>);

/// Asserts that the request to `dst`, the cache on and off, passes its
/// check (or not: `answered`) on `pkts` packets, `pings` of them plain
/// pings, and sends as many RR packets with the cache off as on a cold
/// cache.
fn assert_check(f: &Fixture, src: Addr, dst: Addr, pkts: u64, pings: u64, answered: bool) {
    let mut rr = Vec::new();
    for cache in [true, false] {
        let (r, seen, _) = destination_check(f, src, dst, cache);
        let want = (Some(pkts), Some(pings), Some(u64::from(answered)));
        assert_eq!(
            seen, want,
            "{dst} cache {cache}: (pkts, fallback, answered)"
        );
        assert_eq!(r.stats.probes.ping, pings, "{dst} cache {cache}: {r}");
        assert_eq!(r.status == Status::Unresponsive, !answered, "{dst}: {r}");
        rr.push(r.stats.probes.rr);
    }
    assert_eq!(rr[0], rr[1], "{dst}: RR packets, cold cache vs cache off");
}

#[test]
fn the_destination_check_is_the_first_rr_ping() {
    // The check's three outcomes, with the measurement cache on and off:
    // an RR-responsive host passes on the one RR packet, with no plain
    // ping; a host that drops RR-option packets costs the RR ping and a
    // plain ping, and its request goes on; a silent host costs both and is
    // unresponsive. The first RR step reads the check's observation instead
    // of sending it again, so a request sends exactly the RR packets with
    // the cache off that it sends on a cold cache.
    let f = Fixture::new(36);
    let b = f.sim.behavior();
    let src = f.sim.topo().vp_sites[0].host;
    let src_prefix = f.sim.host_prefix(src);
    // A host outside the source's prefix; an answering one must reach an
    // RR step at D (no atlas intersection there), which reads the check.
    let host = |want: &dyn Fn(Addr) -> bool| {
        (f.sim.topo().prefixes.iter())
            .filter(|pe| Some(pe.id) != src_prefix)
            .flat_map(|pe| f.sim.host_addrs(pe.id))
            .filter(|&a| want(a))
            .find(|&a| !b.host_ping_responsive(a) || destination_check(&f, src, a, true).2)
            .expect("the fixture holds such a host")
    };
    let rr_host = host(&|a| b.host_rr_responsive(a));
    assert_check(&f, src, rr_host, 1, 0, true);
    let ping_only = host(&|a| b.host_ping_responsive(a) && !b.host_rr_responsive(a));
    assert_check(&f, src, ping_only, 2, 1, true);
    let silent = host(&|a| !b.host_ping_responsive(a));
    assert_check(&f, src, silent, 2, 1, false);
}

#[test]
fn the_destination_check_tells_an_option_filter_from_a_fault() {
    // An RR ping a rate limiter dropped for its option is no proof D is
    // down: the check sends the plain ping the limiter lets through, and
    // the request goes on. One lost to faults past the retry budget is
    // treated as a lost ping was: D is unresponsive, on the one packet.
    let mut cfg = SimConfig::tiny();
    cfg.scenario = ScenarioConfig::profile_at(ScenarioProfile::AsymmetricRateLimiters, 1.0);
    let f = Fixture {
        sim: Sim::build(cfg, 36),
    };
    let src = f.sim.topo().vp_sites[0].host;
    let probe = Prober::new(&f.sim).with_cache_enabled(false);
    let filtered = (f.destinations(usize::MAX).into_iter())
        .find(|&d| {
            probe.rr_ping_observed(&mut Meter::default(), src, d) == Err(ProbeLoss::Filtered)
        })
        .expect("a limiter drops some direct RR ping");
    assert_check(&f, src, filtered, 2, 1, true);

    let mut cfg = SimConfig::tiny();
    cfg.faults.probe_loss = 1.0;
    let f = Fixture {
        sim: Sim::build(cfg, 36),
    };
    let (src, dst) = (f.sim.topo().vp_sites[0].host, f.destinations(1)[0]);
    assert_check(&f, src, dst, 1, 0, false);
}

#[test]
fn atlas_intersections_shorten_measurements() {
    // With a large atlas, most paths should complete via intersection and
    // use few or no spoofed batches.
    let f = Fixture::new(37);
    let sys = f.system(EngineConfig::revtr2());
    let src = f.sim.topo().vp_sites[0].host;
    let mut intersected = 0;
    let mut total = 0;
    for &d in &f.destinations(15) {
        let r = sys.measure(d, src);
        if !r.complete() {
            continue;
        }
        total += 1;
        if r.stats.atlas_hops > 0 {
            intersected += 1;
        }
    }
    assert!(total > 0);
    assert!(
        intersected > 0,
        "no measurement used the atlas across {total} paths"
    );
}

#[test]
fn accuracy_against_ground_truth_as_paths() {
    // Attribute every measured hop to its *true* AS (oracle) and compare
    // with the true AS path from destination to source: revtr 2.0 must not
    // fabricate AS-level detours. (Registry IP2AS border ambiguity is
    // evaluated separately — it is mapping noise, not a path error.)
    let f = Fixture::new(38);
    let sys = f.system(EngineConfig::revtr2());
    let o = f.sim.oracle();
    let src = f.sim.topo().vp_sites[0].host;
    let (mut clean_paths, mut total) = (0, 0);
    for &d in &f.destinations(20) {
        let r = sys.measure(d, src);
        if !r.complete() {
            continue;
        }
        let truth = o.true_as_path(d, src).expect("connected");
        let mut measured: Vec<_> = r.addrs().filter_map(|a| o.true_as_of(a)).collect();
        measured.dedup();
        total += 1;
        // Every truly-traversed AS must be on the true path (no bogus
        // detours); skipped ASes (missing hops) are flagged, not wrong.
        if measured.iter().all(|a| truth.contains(a)) {
            clean_paths += 1;
        }
    }
    assert!(total >= 5, "too few complete paths: {total}");
    assert!(
        clean_paths * 10 >= total * 9,
        "only {clean_paths}/{total} AS paths are consistent with truth"
    );
}

#[test]
fn symmetry_policy_flag_matches_hops() {
    let f = Fixture::new(39);
    let mut cfg = EngineConfig::revtr2();
    cfg.symmetry = SymmetryPolicy::Always;
    let sys = f.system(cfg);
    let src = f.sim.topo().vp_sites[0].host;
    for &d in &f.destinations(10) {
        let r = sys.measure(d, src);
        let assumed_hops = r
            .hops
            .iter()
            .filter(|h| h.method == HopMethod::AssumedSymmetric)
            .count() as u32;
        assert_eq!(r.stats.assumed_symmetric, assumed_hops);
        assert_ne!(
            r.status,
            Status::AbortedInterdomain,
            "Always policy never aborts on interdomain links"
        );
    }
}

#[test]
fn refresh_atlas_keeps_used_traces() {
    let f = Fixture::new(40);
    let sys = f.system(EngineConfig::revtr2());
    let src = f.sim.topo().vp_sites[0].host;
    sys.register_source(src);
    // Run some measurements so some traces get used.
    for &d in &f.destinations(10) {
        sys.measure(d, src);
    }
    let before = sys.atlas(src);
    sys.refresh_atlas(src);
    let after = sys.atlas(src);
    assert!(!after.traces.is_empty());
    // Refresh rebuilt the atlas object.
    assert!(!Arc::ptr_eq(&before, &after));
}

#[test]
fn verify_dbr_mode_flags_violating_paths() {
    // Crank the injected violation rate; the Appx. E verification mode
    // must flag some measurements while the default mode flags none.
    //
    // The topology is denser than `tiny()`: a violating router only
    // produces an observable detour when it has several equal-cost
    // candidates, and tiny's non-load-balancer routers almost never do.
    let mut sim_cfg = revtr_netsim::SimConfig::tiny();
    sim_cfg.topology.n_transit = 30;
    sim_cfg.topology.n_stub = 120;
    sim_cfg.topology.transit_peering_prob = 0.3;
    sim_cfg.topology.max_stub_providers = 3;
    sim_cfg.topology.max_transit_providers = 3;
    sim_cfg.topology.tier1_routers = 6;
    sim_cfg.topology.transit_routers = 5;
    sim_cfg.behavior.dbr_violation = 0.25;
    let sim = revtr_netsim::Sim::build(sim_cfg, 2);
    let prober = revtr_probing::Prober::new(&sim);
    let vps: Vec<revtr_netsim::Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = revtr_atlas::select_atlas_probes(&sim, 80, 9);

    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 10; // small atlas → more RR stitching → more checks
    cfg.verify_dbr = true;
    let sys = RevtrSystem::new(
        prober.clone(),
        cfg,
        vps.clone(),
        ingress.clone(),
        pool.clone(),
    );

    let mut plain_cfg = EngineConfig::revtr2();
    plain_cfg.atlas_size = 10;
    let plain = RevtrSystem::new(prober.clone(), plain_cfg, vps, ingress, pool);

    let mut dests = Vec::new();
    for pe in &sim.topo().prefixes {
        if let Some(a) = sim
            .host_addrs(pe.id)
            .find(|&a| sim.behavior().host_rr_responsive(a))
        {
            dests.push(a);
        }
    }
    // Every VP site as the source, in site order: a detection needs a
    // violating router on a stitched path *and* a re-probe that differs, so
    // a single source flags only a handful of destinations, or none.
    let per_source: Vec<usize> = (sim.topo().vp_sites.iter())
        .map(|site| {
            (dests.iter())
                .filter(|&&d| sys.measure(d, site.host).stats.dbr_violation_detected)
                .count()
        })
        .collect();
    let flagged: usize = per_source.iter().sum();
    assert!(
        flagged > 0,
        "verification mode found no violations at a 25% injection rate \
         (per source {per_source:?})"
    );
    let src = sim.topo().vp_sites[0].host;
    for &d in dests.iter().take(40) {
        let p = plain.measure(d, src);
        assert!(
            !p.stats.dbr_violation_detected,
            "default mode must never flag"
        );
    }
}

#[test]
fn empty_ingress_queues_do_not_panic_rr_step() {
    // Regression: an `IngressDb` with no data for a prefix yields ingress
    // queues with empty VP lists; `rr_step` used to index `vps[0]` on them
    // and panic. The engine must degrade to the other techniques instead.
    let f = Fixture::new(36);
    let prober = Prober::new(&f.sim);
    let vps: Vec<Addr> = f.sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let pool = select_atlas_probes(&f.sim, 120, 9);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 40;
    let sys = RevtrSystem::new(prober, cfg, vps, Arc::new(IngressDb::default()), pool);
    let src = f.sim.topo().vp_sites[0].host;
    for &d in &f.destinations(10) {
        let r = sys.measure(d, src); // panicked before the fix
        assert_eq!(r.dst, d);
    }
}

#[test]
fn cached_measurements_cost_no_batches() {
    // Regression: a spoofed batch answered entirely from the measurement
    // cache still counted (and charged) a 10 s batch timeout, so repeat
    // measurements looked as slow as cold ones.
    let f = Fixture::new(37);
    let sys = f.system(EngineConfig::revtr2());
    let src = f.sim.topo().vp_sites[0].host;
    let d = f.destinations(1)[0];
    let cold = sys.measure(d, src);
    assert!(cold.complete(), "fixture destination must be measurable");
    let warm = sys.measure(d, src);
    assert_eq!(
        warm.stats.batches, 0,
        "fully cached re-measurement still counted spoofed batches"
    );
    // Whatever the cache does not hold may still tick per-probe RTTs, but
    // no 10 s spoofed-batch collection timeout may be charged.
    assert!(
        warm.stats.duration_s < 10.0,
        "fully cached re-measurement still charged a batch timeout: {:.1}s",
        warm.stats.duration_s
    );
    assert_eq!(
        warm.addrs().collect::<Vec<_>>(),
        cold.addrs().collect::<Vec<_>>(),
        "cache changed the measured path"
    );
}

#[test]
fn a_campaigns_meters_add_up_to_the_shared_totals() {
    // Conservation: everything a request charges — every probe, every
    // engine event, every virtual millisecond — goes to the shared totals
    // *and* to its own meter, so over a campaign the per-request readings
    // sum to what the shared counters and clock moved by. (Sources are
    // registered first: an atlas build is background work, charged to the
    // shared totals alone.) A probe site that forgets the meter fails here.
    // Loss with a retry budget exercises the retry charges;
    // timestamps and the Appx. E re-probe put every probe kind in play,
    // and a host that drops RR-option packets the destination check's
    // plain ping.
    let mut sim_cfg = SimConfig::tiny();
    sim_cfg.faults = FaultConfig::lossy(0.15);
    let sim = Sim::build(sim_cfg, 38);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let b = sim.behavior();
    let ping_only = |a: Addr| b.host_ping_responsive(a) && !b.host_rr_responsive(a);
    let dests: Vec<Addr> = (prefixes.iter())
        .filter_map(|&p| sim.host_addrs(p).find(|&a| b.host_rr_responsive(a)))
        .chain(sim.host_addrs(prefixes[0]).find(|&a| ping_only(a)))
        .collect();
    let pairs: Vec<(Addr, Addr)> = dests
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, vps[i % 3]))
        .collect();
    let mut cfg = EngineConfig::revtr2_with_ts();
    cfg.atlas_size = 20;
    cfg.use_stop_sets = true;
    cfg.verify_dbr = true;
    for workers in [1, 4] {
        let prober = Prober::new(&sim).with_retry_policy(RetryPolicy::uniform(3));
        let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
        let pool = select_atlas_probes(&sim, 120, 9);
        let sys = RevtrSystem::new(prober, cfg, vps.clone(), ingress, pool);
        for &src in &vps[..3] {
            sys.register_source(src);
        }
        let (snap0, ms0) = (
            sys.prober().counters().snapshot(),
            sys.prober().clock().now_ms(),
        );
        let outcome = sys
            .run_campaign(&pairs, LoopConfig { workers })
            .expect("no task panicked");
        let d = sys.prober().counters().snapshot().since(&snap0);
        let ms = sys.prober().clock().now_ms() - ms0;

        let sum = |f: fn(&revtr::ProbeDelta) -> u64| -> u64 {
            outcome.results.iter().map(|r| f(&r.stats.probes)).sum()
        };
        let metered = [
            ("ping", sum(|p| p.ping), d.ping),
            ("rr", sum(|p| p.rr), d.rr),
            ("spoof_rr", sum(|p| p.spoof_rr), d.spoof_rr),
            ("ts", sum(|p| p.ts), d.ts),
            ("spoof_ts", sum(|p| p.spoof_ts), d.spoof_ts),
            (
                "traceroute_pkts",
                sum(|p| p.traceroute_pkts),
                d.traceroute_pkts,
            ),
            ("retries", sum(|p| p.retries), d.retries),
            ("lost", sum(|p| p.lost), d.lost),
            ("events", outcome.events, d.events),
        ];
        for (kind, requests, shared) in metered {
            assert_eq!(requests, shared, "w{workers}: {kind} leaked past a meter");
            // (A spoofed TS batch needs a TS reply that stamped one of two
            // prespecified hops: too rare to insist on here.)
            assert!(
                shared > 0 || kind == "spoof_ts",
                "w{workers}: no {kind} charged: the gate is vacuous"
            );
        }
        assert_eq!(d.atlas_rr, 0, "w{workers}: sources were registered first");
        let metered_ms: f64 = outcome
            .results
            .iter()
            .map(|r| r.stats.duration_s * 1000.0)
            .sum();
        assert!(
            (metered_ms - ms).abs() <= 1e-9 * ms,
            "w{workers}: requests metered {metered_ms} ms, the clock moved {ms} ms"
        );
    }
}

/// A quiesced tiny world (no churn, no per-packet load balancing: what one
/// request sees must not depend on when its neighbours ran), a stop-set
/// system over it with three registered sources, and `n` pairs — enough
/// for several [`LoopConfig`]-independent waves of 64.
fn multi_wave_campaign(sim: &Sim, n: usize) -> (RevtrSystem<'_>, Vec<(Addr, Addr)>) {
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let prober = Prober::new(sim);
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 20;
    cfg.use_stop_sets = true;
    let sys = RevtrSystem::new(
        prober,
        cfg,
        vps.clone(),
        ingress,
        select_atlas_probes(sim, 120, 9),
    );
    for &src in &vps[..3] {
        sys.register_source(src);
    }
    let pairs: Vec<(Addr, Addr)> = prefixes
        .iter()
        .flat_map(|&p| sim.host_addrs(p).take(6))
        .filter(|d| !vps[..3].contains(d))
        .enumerate()
        .map(|(i, d)| (d, vps[i % 3]))
        .take(n)
        .collect();
    assert_eq!(pairs.len(), n, "the tiny world has too few hosts");
    (sys, pairs)
}

fn quiet_world(seed: u64) -> Sim {
    let mut cfg = SimConfig::tiny();
    cfg.behavior.churn_per_hour = 0.0;
    cfg.behavior.router_load_balancer = 0.0;
    Sim::build(cfg, seed)
}

#[test]
fn a_campaign_returns_the_same_at_every_pool_width() {
    // Six waves. Whichever worker drives a job, and however the waves'
    // helpers interleave, every request ends the way it does serially —
    // status, and the path hop for hop with each hop's method — after the
    // same number of events. (Which of two workers pays for a measurement
    // both need, and under which nonce, is theirs to settle.)
    let sim = quiet_world(23);
    let run = |workers: usize| {
        let (sys, pairs) = multi_wave_campaign(&sim, 6 * 64);
        let out = sys
            .run_campaign(&pairs, LoopConfig { workers })
            .expect("no task panicked");
        // Hops less their evidence, which names the nonce and whether the
        // cache answered.
        let paths: Vec<_> = (out.results.into_iter())
            .map(|r| {
                let hops: Vec<_> = (r.hops.iter())
                    .map(|h| (h.addr, h.method, h.suspicious_gap_before))
                    .collect();
                (r.dst, r.src, r.status, hops)
            })
            .collect();
        (paths, out.events)
    };
    let serial = run(1);
    assert!(serial.1 > serial.0.len() as u64);
    for workers in [2, 4, 16] {
        let pooled = run(workers);
        assert_eq!(pooled.1, serial.1, "w{workers}: events");
        assert_eq!(pooled.0, serial.0, "w{workers}: results");
    }
}

/// `base` with record route silenced (no router stamps, so every step of a
/// request falls through to the symmetry assumption), MPLS off (every
/// router is one TTL) and every router answering expired probes except
/// `silent`: a world whose forward chains are pinned by hand.
fn symmetry_only_world(base: &Sim, silent: Option<revtr_netsim::RouterId>) -> Sim {
    let mut topo = base.topo().clone();
    for a in &mut topo.ases {
        a.mpls = false;
    }
    for r in &mut topo.routers {
        r.stamp = revtr_netsim::StampMode::NoStamp;
        r.ttl_responsive = Some(r.id) != silent;
    }
    Sim::from_topology(topo, base.config().clone(), base.seed())
}

/// A system that can only assume: no atlas, no ingress data, and the
/// revtr 1.0 trust policy so no assumption aborts.
fn assuming_system(sim: &Sim) -> RevtrSystem<'_> {
    let mut cfg = EngineConfig::revtr2();
    cfg.symmetry = SymmetryPolicy::Always;
    cfg.atlas_size = 0;
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let ingress = Arc::new(IngressDb::default());
    RevtrSystem::new(Prober::new(sim), cfg, vps, ingress, Vec::new())
}

/// The routers a probe from `src` to `dst` crosses, and the full trace.
fn chain(
    sim: &Sim,
    src: Addr,
    dst: Addr,
) -> (Vec<revtr_netsim::RouterId>, revtr_netsim::TraceResult) {
    let flow = Prober::paris_flow(src, dst);
    let attach = sim.host_attach(src).expect("vp host");
    let meta = revtr_netsim::sim::PktMeta::plain(src, flow);
    let walk = sim.walk(attach, dst, &meta).expect("VPs reachable");
    let trace = sim.traceroute(src, dst, flow).expect("VPs reachable");
    (walk.hops.iter().map(|h| h.router).collect(), trace)
}

fn quiet_tiny(seed: u64) -> Sim {
    let mut cfg = SimConfig::tiny();
    cfg.behavior.churn_per_hour = 0.0;
    Sim::build(cfg, seed)
}

#[test]
fn assumed_hop_behind_a_silent_router_is_starred() {
    // Regression: the symmetry step adopted "the last responsive hop" as
    // if it were adjacent to the current one, even across silent TTLs.
    let base = quiet_tiny(41);
    let vps = &base.topo().vp_sites;
    let (src, dst) = (vps[0].host, vps[1].host);
    let (routers, clean) = chain(&symmetry_only_world(&base, None), src, dst);
    let n = clean.hops.len();
    assert!(n >= 4 && clean.hops.iter().all(Option::is_some));

    // Every router answers: the first assumed hop is the one directly
    // before the destination, and nothing is missing.
    let world = symmetry_only_world(&base, None);
    let r = assuming_system(&world).measure(dst, src);
    assert_eq!(r.hops[1].method, HopMethod::AssumedSymmetric);
    assert_eq!(r.hops[1].addr, clean.hops[n - 2]);
    assert!(!r.hops[1].suspicious_gap_before);
    assert!(r.complete(), "the chain leads back to the source: {r}");

    // The router directly before the destination stays silent: the same
    // request adopts the hop before it — and says a hop may be missing.
    let world = symmetry_only_world(&base, Some(routers[n - 2]));
    let (_, trace) = chain(&world, src, dst);
    assert_eq!(trace.hops[n - 2], None, "the pinned router is silent");
    let r = assuming_system(&world).measure(dst, src);
    assert_eq!(r.hops[1].method, HopMethod::AssumedSymmetric);
    assert_eq!(r.hops[1].addr, clean.hops[n - 3]);
    assert!(r.hops[1].suspicious_gap_before, "gap not reported: {r}");
}

#[test]
fn assumed_hop_before_an_echo_silent_target_is_starred() {
    // A chain whose last router ignores pings: the first step adopts its
    // interface (adjacent to the destination, which answered); the second
    // traces toward that interface, gets no echo — the trace merely ends —
    // and must say so on the hop it adopts.
    let found = (41..60).find_map(|seed| {
        let world = symmetry_only_world(&quiet_tiny(seed), None);
        let vps: Vec<Addr> = world.topo().vp_sites.iter().map(|v| v.host).collect();
        let pair = vps.iter().flat_map(|&s| vps.iter().map(move |&d| (s, d)));
        let (src, dst) = pair.filter(|(s, d)| s != d).find(|&(s, d)| {
            let (routers, trace) = chain(&world, s, d);
            let last = *routers.last().expect("nonempty");
            routers.len() >= 3 && trace.reached && !world.behavior().router_ping_responsive(last)
        })?;
        Some((world, src, dst))
    });
    let (world, src, dst) = found.expect("5 % of routers ignore pings");
    let (_, first) = chain(&world, src, dst);
    let cur = first.hops[first.hops.len() - 2].expect("every router answers expired probes");
    let (_, second) = chain(&world, src, cur);
    assert!(!second.reached && second.hops.last() == Some(&None));
    let penult = second.hops.iter().rev().flatten().next().copied();

    let r = assuming_system(&world).measure(dst, src);
    assert_eq!(r.hops[1].addr, Some(cur));
    assert!(
        !r.hops[1].suspicious_gap_before,
        "adjacent and answered: {r}"
    );
    assert_eq!(r.hops[2].method, HopMethod::AssumedSymmetric);
    assert_eq!(r.hops[2].addr, penult);
    assert!(
        r.hops[2].suspicious_gap_before,
        "unreached not reported: {r}"
    );
}

/// FNV-1a-64 over each result's status, hop addresses and evidence kinds.
fn outcome_digest(results: &[revtr::RevtrResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in results {
        eat(r.status.label().as_bytes());
        for hop in r.hops.iter() {
            eat(&hop.addr.map_or(u32::MAX, |a| a.0).to_le_bytes());
            eat(hop.evidence.kind().as_bytes());
        }
        eat(b"|");
    }
    h
}

#[test]
fn every_technique_charges_the_events_probes_and_batches_it_always_did() {
    // One tiny world, the same 60 pairs, four engines: revtr 1.0 (the
    // timestamp step and the set-cover ladder), revtr 2.0 with the Appx. E
    // re-probe (verification rounds), with stop sets (adoptions, solo
    // winners, futility skips) and plain. Each pins the engine events, the
    // option probes and the spoofed batches it charged, and a digest of
    // what it stitched: a change to how a request walks its stages that
    // moves when an event is charged, or which probe goes out, fails here.
    let f = Fixture::new(44);
    let vps: Vec<Addr> = f.sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let pairs: Vec<(Addr, Addr)> = (f.destinations(20).into_iter())
        .flat_map(|d| vps[..3].iter().map(move |&s| (d, s)))
        .filter(|(d, s)| d != s)
        .collect();
    let mut verify = EngineConfig::revtr2();
    verify.verify_dbr = true;
    let mut stop_sets = EngineConfig::revtr2();
    stop_sets.use_stop_sets = true;
    let arms = [
        (
            "revtr1",
            EngineConfig::revtr1(),
            (378, 227, 59, 0xd6d9_bd09_1ac8_435e),
        ),
        ("verify_dbr", verify, (311, 153, 18, 0x553d_3396_9a12_2e32)),
        ("stop_sets", stop_sets, (302, 92, 10, 0x553d_3396_9a12_2e32)),
        (
            "revtr2",
            EngineConfig::revtr2(),
            (308, 101, 15, 0x553d_3396_9a12_2e32),
        ),
    ];
    let (mut events, mut readings, mut expected) = (Vec::new(), Vec::new(), Vec::new());
    for (name, cfg, pinned) in arms {
        let sys = f.system(cfg);
        for &src in &vps[..3] {
            sys.register_source(src);
        }
        let (snap0, ss0) = (sys.prober().counters().snapshot(), sys.stopset().stats());
        let results: Vec<_> = pairs.iter().map(|&(d, s)| sys.measure(d, s)).collect();
        let d = sys.prober().counters().snapshot().since(&snap0);
        let got = (
            d.events,
            results
                .iter()
                .map(|r| r.stats.probes.option_probes())
                .sum::<u64>(),
            results
                .iter()
                .map(|r| u64::from(r.stats.batches))
                .sum::<u64>(),
            outcome_digest(&results),
        );
        match name {
            "revtr1" => assert!(d.ts + d.spoof_ts > 0, "no timestamp step ran"),
            "stop_sets" => {
                let ss = sys.stopset().stats().since(&ss0);
                assert!(results.iter().any(|r| r.stats.stopset_reused_steps > 0));
                assert!(
                    ss.winner_hits > 0 && ss.direct_skips + ss.spoof_skips > 0,
                    "{ss:?}"
                );
            }
            _ => {}
        }
        events.push(d.events);
        readings.push((name, got));
        expected.push((name, pinned));
    }
    assert_eq!(
        readings, expected,
        "(events, option probes, batches, digest)"
    );
    // The re-probe's spoofed rounds are events of their own.
    assert!(
        events[1] > events[3],
        "no verification round ran: {events:?}"
    );
}

/// One RR step as its request's journal shows it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Step {
    /// Packets the step sent.
    pkts: u64,
    /// The span's `silent` field: the ladder was skipped for a router
    /// silent to the source.
    silent: u64,
    /// The direct probe's (packets, fault-lost attempts), when the step
    /// sent or read one.
    direct: Option<(u64, u64)>,
    /// Spoofed rounds, when a ladder formed.
    batches: Option<u64>,
    /// The stage the request went on to.
    next: Option<&'static str>,
}

/// Every journalled request to `dst` from `src` under `tele`, as its RR
/// steps in order.
fn rr_steps(tele: &Telemetry, dst: Addr, src: Addr) -> Vec<Vec<Step>> {
    let records = tele.journal_records();
    let mine = records
        .iter()
        .filter(|rec| (rec.dst, rec.src) == (dst.0, src.0));
    mine.map(|rec| {
        let spans = rec.spans();
        let field = |i: usize, k: &str| {
            (rec.fields(&spans[i]).iter())
                .find(|(n, _)| *n == k)
                .map(|f| f.1)
        };
        let mut steps = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.stage != "rr_step" {
                continue;
            }
            let inner = spans[i + 1..].iter().take_while(|c| c.depth > s.depth);
            let end = i + 1 + inner.count();
            let child = |stage| (i + 1..end).find(|&c| spans[c].stage == stage);
            steps.push(Step {
                pkts: field(i, "pkts").expect("every span counts packets"),
                silent: field(i, "silent").expect("an rr_step says whether it skipped"),
                direct: child("rr_direct").map(|c| {
                    let pkts = field(c, "pkts").expect("counted");
                    (pkts, field(c, "lost").expect("counted"))
                }),
                batches: child("rr_spoofed").map(|c| field(c, "batches").expect("counted")),
                next: (spans[end..].iter())
                    .find(|n| n.depth <= s.depth)
                    .map(|n| n.stage),
            });
        }
        steps
    })
    .collect()
}

/// A system over `f` journalling every request, with its telemetry.
fn journalled(f: &Fixture, cfg: EngineConfig) -> (RevtrSystem<'_>, Telemetry) {
    let tele = Telemetry::enabled();
    let sys = f.system_on(Prober::new(&f.sim).with_telemetry(tele.clone()), cfg);
    (sys, tele)
}

/// `(dst, src)` pairs of the fixture's VPs toward `n` destinations.
fn pairs_of(f: &Fixture, n: usize) -> Vec<(Addr, Addr)> {
    let vps: Vec<Addr> = f.sim.topo().vp_sites.iter().map(|v| v.host).collect();
    (f.destinations(n).into_iter())
        .flat_map(|d| vps[..3].iter().map(move |&s| (d, s)))
        .filter(|(d, s)| d != s)
        .collect()
}

#[test]
fn a_router_silent_to_the_source_gets_no_spoofed_ladder() {
    // A router that drops RR-option pings from the source drops the
    // spoofed ones sent in the source's name too, and their replies would
    // come back to the same source. Under ingress selection its RR step
    // sends the direct probe and no spoofed probe, charges no batch, and
    // falls to the symmetry step; revtr 1.0's set cover still tries every
    // VP; with stop sets on, a second request at the same (source, router)
    // sends neither probe.
    let f = Fixture {
        sim: quiet_world(44),
    };
    let silent_step = Step {
        pkts: 1,
        silent: 1,
        direct: Some((1, 0)),
        batches: None,
        next: Some("assume_symmetry"),
    };
    let (v2, t2) = journalled(&f, EngineConfig::revtr2());
    let (v1, t1) = journalled(&f, EngineConfig::revtr1());
    // A pair whose direct RR ping at D reveals the hops up to a router R
    // silent to the source, so that both engines' second RR step is at R.
    let reached = |r: &RevtrResult| {
        let rr = r.hops[1..]
            .iter()
            .take_while(|h| h.method == HopMethod::RecordRoute)
            .count();
        r.hops[..=rr]
            .iter()
            .map(|h| (h.addr, h.method))
            .collect::<Vec<_>>()
    };
    let found = pairs_of(&f, 20).into_iter().find_map(|(d, s)| {
        let r2 = v2.measure(d, s);
        let steps = rr_steps(&t2, d, s).pop()?;
        (steps.len() >= 2 && steps[1] == silent_step).then_some(())?;
        let r1 = v1.measure(d, s);
        let upto = reached(&r2);
        (upto.len() >= 2 && r1.hops.len() > upto.len() && reached(&r1)[..] == upto[..])
            .then_some((d, s, r1))
    });
    let (dst, src, r1) = found.expect("some hop is silent to its source");
    let steps1 = rr_steps(&t1, dst, src).pop().expect("journalled");
    let at_r = steps1[1];
    assert_eq!(at_r.direct, Some((1, 0)), "revtr 1.0 at R: {steps1:?}");
    assert_eq!(at_r.silent, 0, "revtr 1.0 at R: {steps1:?}");
    assert!(
        at_r.batches.is_some_and(|b| b > 0) && r1.stats.probes.spoof_rr > 0,
        "revtr 1.0 formed no ladder at R: {steps1:?}"
    );

    // Stop sets on: the first request learns R is silent to the source;
    // the second reuses D's hops, then skips both probes at R.
    let mut cfg = EngineConfig::revtr2();
    cfg.use_stop_sets = true;
    let (vs, ts) = journalled(&f, cfg);
    vs.measure(dst, src);
    let skips0 = vs.stopset().stats();
    let again = vs.measure(dst, src);
    let skips = vs.stopset().stats().since(&skips0);
    assert_eq!((skips.direct_skips, skips.spoof_skips), (1, 0), "{skips:?}");
    let records = rr_steps(&ts, dst, src);
    let skipped = Step {
        pkts: 0,
        direct: None,
        ..silent_step
    };
    assert!(
        records.iter().any(|steps| steps.first() == Some(&skipped)),
        "the second request probed at R: {records:?}"
    );
    assert!(records
        .iter()
        .any(|steps| steps.get(1) == Some(&silent_step)));
    assert_eq!(again.stats.batches, 0, "{again}");
}

#[test]
fn a_filtered_or_lost_direct_probe_keeps_the_ladder() {
    // Only a genuine non-answer says the router is silent to the source.
    // A direct RR ping an option rate limiter dropped, or one lost to
    // faults past its retry budget, proves neither: the ladder forms.
    let mut cfg = SimConfig::tiny();
    cfg.scenario = ScenarioConfig::profile_at(ScenarioProfile::AsymmetricRateLimiters, 1.0);
    let f = Fixture {
        sim: Sim::build(cfg, 36),
    };
    let src = f.sim.topo().vp_sites[0].host;
    let probe = Prober::new(&f.sim).with_cache_enabled(false);
    let (sys, tele) = journalled(&f, EngineConfig::revtr2());
    let filtered = (f.destinations(usize::MAX).into_iter())
        .filter(|&d| {
            probe.rr_ping_observed(&mut Meter::default(), src, d) == Err(ProbeLoss::Filtered)
        })
        .find_map(|d| {
            sys.measure(d, src);
            let first = *rr_steps(&tele, d, src).pop()?.first()?;
            Some((d, first))
        });
    // The step reads the destination check's filtered probe.
    let (d, step) = filtered.expect("a limiter drops some direct RR ping before an RR step");
    assert_eq!(
        (step.direct, step.silent),
        (Some((0, 0)), 0),
        "{d}: {step:?}"
    );
    assert!(step.batches.is_some(), "{d}: no ladder formed: {step:?}");

    let mut cfg = SimConfig::tiny();
    cfg.behavior.churn_per_hour = 0.0;
    cfg.faults.probe_loss = 0.4;
    let f = Fixture {
        sim: Sim::build(cfg, 36),
    };
    let (sys, tele) = journalled(&f, EngineConfig::revtr2());
    let lost = pairs_of(&f, 20).into_iter().find_map(|(d, s)| {
        sys.measure(d, s);
        let steps = rr_steps(&tele, d, s).pop()?;
        let lost = |s: &&Step| s.direct.is_some_and(|(p, l)| p > 0 && p == l);
        steps.iter().find(lost).copied()
    });
    let step = lost.expect("faults exhaust some direct probe's retry budget");
    assert_eq!(step.silent, 0, "{step:?}");
    assert!(step.batches.is_some(), "no ladder formed: {step:?}");
}
