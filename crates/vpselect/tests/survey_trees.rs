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

use revtr_netsim::{Addr, PrefixId, ScenarioConfig, ScenarioProfile, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::ingress::probe_prefix;
use revtr_vpselect::{Heuristics, IngressDb};

/// Survey every prefix of `cfg`'s topology both ways. Returns how many
/// prefixes churn moved to a new epoch while the survey ran.
fn build_matches_probe_prefix(cfg: SimConfig, seed: u64) -> usize {
    let (lent, plain) = (Sim::build(cfg.clone(), seed), Sim::build(cfg, seed));
    let vps: Vec<Addr> = lent.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<PrefixId> = lent.topo().prefixes.iter().map(|p| p.id).collect();
    let (with_trees, without) = (Prober::new(&lent), Prober::new(&plain));

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
    // A tiny survey is over in half a virtual hour and default churn
    // moves nothing under it: re-roll a prefix in ten per virtual minute,
    // so that forward and reply trees are rebound in mid-survey.
    let mut churning = SimConfig::tiny();
    churning.behavior.churn_per_hour = 6.0;
    assert!(build_matches_probe_prefix(churning, 7) > 10);
}

#[test]
#[ignore = "five full-size surveys, twice each: run in release (ci.sh does)"]
fn era_2020_surveys_agree() {
    for seed in [1, 7, 42] {
        // Some ninety virtual hours of default churn: three hundred-odd
        // prefixes — surveyed ones and VPs' own — change salt under the
        // trees.
        assert!(build_matches_probe_prefix(SimConfig::era_2020(), seed) > 100);
    }
    build_matches_probe_prefix(with_maintenance(SimConfig::era_2020()), 7);
    build_matches_probe_prefix(with_dbr_regions(SimConfig::era_2020()), 42);
}
