//! `IngressDb::build` lends every RR ping of the survey a sink tree per
//! destination and per VP; the standalone `probe_prefix` lends none and
//! derives every hop of every walk. On twin simulators the two must be the
//! same survey: every `PrefixInfo` equal, and the same probes sent at the
//! same virtual instants — counters, clock bits, simulator time bits and
//! route computations — with churn re-rolling salts under the trees while
//! the survey runs.
//!
//! The era-2020 arms are a full-size survey each: `#[ignore]`d, and run in
//! release by `ci.sh`.

use revtr_netsim::{Addr, FaultConfig, PrefixId, ScenarioConfig, ScenarioProfile, Sim, SimConfig};
use revtr_probing::{Prober, RetryPolicy, Snapshot};
use revtr_vpselect::ingress::probe_prefix;
use revtr_vpselect::{Heuristics, IngressDb};

/// Survey every prefix of `cfg`'s topology both ways. Returns how many
/// prefixes churn moved to a new epoch while the survey ran.
fn build_matches_probe_prefix(cfg: SimConfig, seed: u64) -> usize {
    surveys_agree(cfg, seed, RetryPolicy::default())
}

/// [`build_matches_probe_prefix`], each probe with `retry`'s attempt budget.
fn surveys_agree(cfg: SimConfig, seed: u64, retry: RetryPolicy) -> usize {
    let (lent, plain) = (Sim::build(cfg.clone(), seed), Sim::build(cfg, seed));
    let vps: Vec<Addr> = lent.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<PrefixId> = lent.topo().prefixes.iter().map(|p| p.id).collect();
    let with_trees = Prober::new(&lent).with_retry_policy(retry);
    let without = Prober::new(&plain).with_retry_policy(retry);

    let db = IngressDb::build(&with_trees, &vps, &prefixes, Heuristics::FULL);
    let mut with_ingress = 0;
    for &p in &prefixes {
        let want = probe_prefix(&without, &vps, p, Heuristics::FULL);
        with_ingress += usize::from(!want.ingresses.is_empty());
        assert_eq!(db.prefix(p), Some(&want), "seed {seed}, {p}");
    }
    assert!(
        with_ingress * 4 > prefixes.len(),
        "seed {seed}: {with_ingress} prefixes with an ingress — nothing was compared"
    );

    assert_eq!(
        with_trees.counters().snapshot(),
        without.counters().snapshot()
    );
    assert_eq!(
        with_trees.clock().now_ms().to_bits(),
        without.clock().now_ms().to_bits()
    );
    assert_eq!(lent.now_hours().to_bits(), plain.now_hours().to_bits());
    assert!(lent.now_hours() > 0.0, "the survey never flushed its clock");
    assert_eq!(lent.route_computes(), plain.route_computes());
    let moved = |sim: &Sim| {
        let epochs = prefixes.iter().map(|&p| sim.prefix_epoch(p));
        epochs.filter(|&e| e > 0).count()
    };
    assert_eq!(moved(&lent), moved(&plain));
    moved(&lent)
}

fn with_maintenance(mut cfg: SimConfig) -> SimConfig {
    cfg.faults.link_maintenance_rate = 0.05;
    cfg
}

fn with_dbr_regions(mut cfg: SimConfig) -> SimConfig {
    cfg.scenario = ScenarioConfig::profile(ScenarioProfile::DbrViolationRegion);
    cfg
}

#[test]
fn tiny_surveys_agree() {
    for seed in [1, 7, 42] {
        build_matches_probe_prefix(SimConfig::tiny(), seed);
    }
    build_matches_probe_prefix(with_maintenance(SimConfig::tiny()), 7);
    build_matches_probe_prefix(with_dbr_regions(SimConfig::tiny()), 42);
    // A tiny survey is over in three and a half virtual minutes and
    // default churn moves nothing under it: re-roll a prefix in ten per
    // virtual minute, so that forward and reply trees are rebound in
    // mid-survey.
    let mut churning = SimConfig::tiny();
    churning.behavior.churn_per_hour = 6.0;
    assert!(build_matches_probe_prefix(churning, 7) > 10);
    // Loss and an ICMP rate limiter, three attempts a probe: both sides
    // draw the same faults at the same instants, retries included, and
    // repeat bit for bit.
    let mut lossy = SimConfig::tiny();
    lossy.faults = FaultConfig {
        icmp_rate_limit_pps: 100.0,
        ..FaultConfig::lossy(0.3)
    };
    surveys_agree(lossy, 7, RetryPolicy::uniform(3));
}

/// FNV-1a-64 over every surveyed `PrefixInfo` of `db`: destinations,
/// ingresses with their cover and queues, the fallback ranking, the in-range
/// bits of all `n_vps` VPs, the closest VP and the candidate set.
fn survey_digest(db: &IngressDb, n_vps: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let addrs = |eat: &mut dyn FnMut(u64), addrs: &[Addr]| {
        eat(addrs.len() as u64);
        addrs.iter().for_each(|a| eat(u64::from(a.0)));
    };
    for (p, info) in db.prefixes() {
        eat(u64::from(p.0));
        addrs(&mut eat, &info.dests);
        eat(info.ingresses.len() as u64);
        for ingress in &info.ingresses {
            eat(u64::from(ingress.addr.0));
            eat(ingress.cover as u64);
            addrs(&mut eat, &ingress.ranked_vps);
        }
        addrs(&mut eat, &info.fallback);
        (0..n_vps).for_each(|i| eat(u64::from(info.in_range_at(i))));
        eat(info.closest_vp().map_or(u64::MAX, |a| u64::from(a.0)));
        addrs(&mut eat, info.candidates());
    }
    h
}

/// The era-2020 seed-1 survey as `IngressDb::build` runs it, pinned to
/// constants: the survey-tree gate above compares two surveys that share
/// the simulator's Record Route exchange, so a stamping change both sides
/// make alike would pass it — this one would not.
#[test]
#[ignore = "one full-size survey: run in release (ci.sh does)"]
fn era_2020_survey_is_pinned() {
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<PrefixId> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let prober = Prober::new(&sim);
    let db = IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
    let got = (
        survey_digest(&db, vps.len()),
        prober.clock().now_ms().to_bits(),
        sim.now_hours().to_bits(),
        prober.counters().snapshot(),
        sim.route_computes(),
    );
    let want = (
        0xbfb6_5524_21e7_3dda,
        0x414f_b652_9fb2_1aa4,
        0x3ff2_6c93_5e43_b2b2,
        Snapshot {
            ping: 5_371,
            rr: 594_512,
            ..Snapshot::default()
        },
        2_036,
    );
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
#[ignore = "five full-size surveys, twice each: run in release (ci.sh does)"]
fn era_2020_surveys_agree() {
    for seed in [1, 7, 42] {
        // A survey is over in some seventy virtual minutes (a prefix's
        // scan and RR pings are one round), under which default churn
        // moves a handful of prefixes: re-roll one in seven a virtual
        // hour, so that a few hundred — surveyed ones and VPs' own —
        // change salt under the trees.
        let mut churning = SimConfig::era_2020();
        churning.behavior.churn_per_hour = 0.15;
        assert!(build_matches_probe_prefix(churning, seed) > 100);
    }
    build_matches_probe_prefix(with_maintenance(SimConfig::era_2020()), 7);
    build_matches_probe_prefix(with_dbr_regions(SimConfig::era_2020()), 42);
}
