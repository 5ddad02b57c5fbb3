//! Service-level integration tests: users, sources, rate limits, batch
//! campaigns, and the NDT hook, over a tiny simulated Internet.

use revtr::EngineConfig;
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, ScenarioConfig, ScenarioProfile, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_service::service::{RequestOptions, ServiceError};
use revtr_service::users::UserError;
use revtr_service::{RateLimits, RevtrService};
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

fn build_service(sim: &Sim) -> RevtrService<'_> {
    build_service_with(sim, false)
}

fn build_service_with(sim: &Sim, harden: bool) -> RevtrService<'_> {
    let prober = Prober::new(sim);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 80, 3);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 30;
    cfg.harden = harden;
    let system = revtr::RevtrSystem::new(prober, cfg, vps, ingress, pool);
    RevtrService::new(system)
}

fn responsive_dest(sim: &Sim, skip: usize) -> Addr {
    sim.topo()
        .prefixes
        .iter()
        .skip(skip)
        .find_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a))
        })
        .expect("responsive host exists")
}

#[test]
fn end_to_end_user_flow() {
    let sim = Sim::build(SimConfig::tiny(), 51);
    let service = build_service(&sim);
    let key = service.add_user("operator", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("VP source bootstraps");

    let dst = responsive_dest(&sim, 5);
    let r = service.request(key, dst, src).expect("request served");
    assert_eq!(r.dst, dst);
    assert_eq!(service.store().len(), 1);
    assert_eq!(service.store().lookup(dst, src).len(), 1);
}

#[test]
fn requests_to_unregistered_sources_rejected() {
    let sim = Sim::build(SimConfig::tiny(), 52);
    let service = build_service(&sim);
    let key = service.add_user("stranger", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    let dst = responsive_dest(&sim, 3);
    assert_eq!(
        service.request(key, dst, src).unwrap_err(),
        ServiceError::User(UserError::UnknownSource)
    );
}

#[test]
fn daily_quota_enforced() {
    let sim = Sim::build(SimConfig::tiny(), 53);
    let service = build_service(&sim);
    let key = service.add_user(
        "limited",
        RateLimits {
            max_parallel: 4,
            max_per_day: 2,
        },
    );
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");
    let dst = responsive_dest(&sim, 5);
    service.request(key, dst, src).expect("first");
    service.request(key, dst, src).expect("second");
    assert_eq!(
        service.request(key, dst, src).unwrap_err(),
        ServiceError::User(UserError::DailyQuotaExceeded)
    );
}

#[test]
fn daily_quota_resets_across_unflushed_day_boundary() {
    // Regression: the quota day used to be computed from the simulator's
    // *flushed* clock alone, which lags true virtual time by up to one
    // churn-flush threshold per slot — so a request arriving just after
    // a virtual midnight could still be charged to (and rejected on) the
    // previous day's exhausted quota. The service now keys the day on
    // `now_hours()` = flushed time + the clock's pending (unflushed)
    // milliseconds, so the straddling request below must admit.
    let sim = Sim::build(SimConfig::tiny(), 57);
    let service = build_service(&sim);
    let key = service.add_user(
        "boundary",
        RateLimits {
            max_parallel: 4,
            max_per_day: 1,
        },
    );
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");
    let dst = responsive_dest(&sim, 5);

    // Exhaust day 0.
    service.request(key, dst, src).expect("inside quota");
    assert_eq!(
        service.request(key, dst, src).unwrap_err(),
        ServiceError::User(UserError::DailyQuotaExceeded)
    );

    // Walk the clock to 30 virtual seconds short of midnight with one
    // large (auto-flushing) advance, then cross the boundary with a
    // small advance that stays below the flush threshold: the flushed
    // clock still reads day 0 while the authoritative clock is in day 1.
    let clock = service.system().prober().clock();
    clock.flush(&sim);
    let short_of_midnight = 24.0 - sim.now_hours() - 30_000.0 / 3_600_000.0;
    clock.advance(short_of_midnight * 3_600_000.0, &sim);
    clock.advance(45_000.0, &sim);
    assert!(
        sim.now_hours() < 24.0,
        "flushed clock must still lag in day 0 (got {})",
        sim.now_hours()
    );
    assert!(
        service.now_hours() >= 24.0,
        "authoritative clock must have crossed midnight (got {})",
        service.now_hours()
    );

    // The straddling request is a day-1 request: quota must have reset.
    service
        .request(key, dst, src)
        .expect("day-boundary request admits against the fresh day's quota");
}

#[test]
fn batch_campaign_parallel_matches_serial() {
    let sim = Sim::build(SimConfig::tiny(), 54);
    let service = build_service(&sim);
    let key = service.add_user("mapper", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");

    let pairs: Vec<(Addr, Addr)> = (0..8)
        .map(|i| (responsive_dest(&sim, i * 3), src))
        .collect();
    let out = service.batch(key, &pairs, 4).expect("campaign runs");
    assert_eq!(out.len(), pairs.len());
    for (r, &(d, s)) in out.iter().zip(&pairs) {
        assert_eq!(r.dst, d);
        assert_eq!(r.src, s);
    }
    assert_eq!(service.store().len(), pairs.len());
    let stats = service.store().stats();
    assert!(stats.complete > 0, "campaign completed nothing");
}

#[test]
fn ndt_hook_measures_client_paths() {
    let sim = Sim::build(SimConfig::tiny(), 55);
    let service = build_service(&sim);
    let server = sim.topo().vp_sites[1].host;
    let client = responsive_dest(&sim, 7);
    let r = service.on_ndt_test(client, server).expect("accepted");
    assert_eq!(r.dst, client);
    assert_eq!(r.src, server);
    assert_eq!(service.store().len(), 1);
}

#[test]
fn store_export_roundtrips_through_json() {
    let sim = Sim::build(SimConfig::tiny(), 56);
    let service = build_service(&sim);
    let key = service.add_user("archiver", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");
    service
        .request(key, responsive_dest(&sim, 2), src)
        .expect("request");
    let json = service.store().export_json();
    let back: Vec<revtr::RevtrResult> = serde_json::from_str(&json).expect("valid");
    assert_eq!(back, service.store().lookup(back[0].dst, back[0].src));
}

#[test]
fn request_options_forward_traceroute_and_staleness() {
    let sim = Sim::build(SimConfig::tiny(), 57);
    let service = build_service(&sim);
    let key = service.add_user("tuner", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");
    let dst = responsive_dest(&sim, 4);

    // Forward traceroute requested alongside.
    let served = service
        .request_with(
            key,
            dst,
            src,
            RequestOptions {
                max_atlas_age_hours: None,
                with_forward_traceroute: true,
            },
        )
        .expect("served");
    assert_eq!(served.reverse.dst, dst);
    let fwd = served.forward.expect("forward traceroute attached");
    assert!(fwd.reached);

    // Staleness bound: age the atlas by two virtual days, then require
    // freshness — the served result must not intersect an over-age trace.
    sim.advance_hours(48.0);
    let served = service
        .request_with(
            key,
            dst,
            src,
            RequestOptions {
                max_atlas_age_hours: Some(24.0),
                with_forward_traceroute: false,
            },
        )
        .expect("served");
    if let Some(age) = served.reverse.stats.intersected_trace_age_h {
        assert!(age <= 24.0, "stale trace served: {age}h old");
    }
}

#[test]
fn batch_campaigns_charge_the_daily_quota() {
    let sim = Sim::build(SimConfig::tiny(), 58);
    let service = build_service(&sim);
    let key = service.add_user(
        "bulk",
        RateLimits {
            max_parallel: 8,
            max_per_day: 3,
        },
    );
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");
    let pairs: Vec<(Addr, Addr)> = (0..3)
        .map(|i| (responsive_dest(&sim, i * 2), src))
        .collect();
    service.batch(key, &pairs, 2).expect("within quota");
    // The quota is now exhausted: another single request must be refused.
    let dst = responsive_dest(&sim, 9);
    assert_eq!(
        service.request(key, dst, src).unwrap_err(),
        ServiceError::User(UserError::DailyQuotaExceeded)
    );
}

#[test]
fn over_quota_batch_is_refused_without_burning_quota() {
    // Regression: the quota used to be charged pair by pair before
    // anything was measured, so a batch that ran out at pair k was refused
    // having burnt k - 1 units for nothing.
    let sim = Sim::build(SimConfig::tiny(), 58);
    let service = build_service(&sim);
    let key = service.add_user(
        "bulk",
        RateLimits {
            max_parallel: 8,
            max_per_day: 3,
        },
    );
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");
    let pairs: Vec<(Addr, Addr)> = (0..4)
        .map(|i| (responsive_dest(&sim, i * 2), src))
        .collect();
    assert_eq!(
        service.batch(key, &pairs, 2).unwrap_err(),
        ServiceError::User(UserError::DailyQuotaExceeded)
    );
    assert!(service.store().is_empty(), "a refused batch measured");
    // The whole day's quota is still there for a batch that fits it.
    let served = service.batch(key, &pairs[..3], 2).expect("within quota");
    assert_eq!(served.len(), 3);
    assert_eq!(
        service.batch(key, &pairs[3..], 1).unwrap_err(),
        ServiceError::User(UserError::DailyQuotaExceeded)
    );
}

/// Like [`build_service`] but with a watchdog-armed telemetry handle
/// threaded through the prober.
fn build_watched_service<'s>(
    sim: &'s Sim,
    deadline_ms: f64,
) -> (RevtrService<'s>, revtr_probing::Telemetry) {
    let telemetry = revtr_probing::Telemetry::with_config(revtr_probing::TelemetryConfig {
        watchdog_deadline_ms: Some(deadline_ms),
        ..revtr_probing::TelemetryConfig::default()
    });
    let prober = Prober::new(sim).with_telemetry(telemetry.clone());
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 80, 3);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 30;
    let system = revtr::RevtrSystem::new(prober, cfg, vps, ingress, pool);
    (RevtrService::new(system), telemetry)
}

#[test]
fn stuck_request_watchdog_flags_but_never_kills() {
    let sim = Sim::build(SimConfig::tiny(), 59);

    // A deadline of one virtual millisecond: every served request
    // overruns it, so the watchdog must flag all of them...
    let (watched, _tele) = build_watched_service(&sim, 1.0);
    let key = watched.add_user("operator", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    watched.add_source(key, src).expect("bootstrap");
    let dests: Vec<Addr> = (0..4).map(|i| responsive_dest(&sim, i * 2)).collect();
    let watched_results: Vec<_> = dests
        .iter()
        .map(|&d| watched.request(key, d, src).expect("served"))
        .collect();

    let flags = watched.watchdog_flags();
    assert_eq!(
        flags.len(),
        dests.iter().collect::<std::collections::HashSet<_>>().len(),
        "every distinct request overran a 1 ms deadline"
    );
    // ...with a deterministic sort and a non-empty stage attribution.
    let keys: Vec<(u32, u32)> = flags.iter().map(|f| (f.src, f.dst)).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(keys, sorted, "flags must be (src, dst)-sorted");
    for f in &flags {
        assert!(f.virtual_us > f.deadline_us, "flag without an overrun");
        assert!(!f.stage.is_empty());
    }

    // ...and flagging is observe-only: an unwatched service serves the
    // exact same reverse paths. The service never kills a measurement.
    let plain = build_service(&sim);
    let key2 = plain.add_user("operator", RateLimits::default());
    plain.add_source(key2, src).expect("bootstrap");
    assert!(
        plain.watchdog_flags().is_empty(),
        "unarmed watchdog is empty"
    );
    for (&d, watched_r) in dests.iter().zip(&watched_results) {
        let plain_r = plain.request(key2, d, src).expect("served");
        assert_eq!(plain_r.status, watched_r.status);
        let hops = |r: &revtr::RevtrResult| -> Vec<Option<Addr>> {
            r.hops.iter().map(|h| h.addr).collect()
        };
        assert_eq!(hops(&plain_r), hops(watched_r), "watchdog changed a path");
    }
}

#[test]
fn hardened_service_reports_quarantined_vps_under_spoof_filter_rollout() {
    // A spoof-filter rollout makes some VPs' spoofed probes vanish
    // persistently; the hardened engine benches them and the service
    // surfaces the bench list to operators.
    let mut cfg = SimConfig::tiny();
    cfg.scenario = ScenarioConfig::profile(ScenarioProfile::SpoofFilterRollout);
    let sim = Sim::build(cfg, 1);
    let service = build_service_with(&sim, true);
    let key = service.add_user("operator", RateLimits::default());
    let src = sim.topo().vp_sites[0].host;
    service.add_source(key, src).expect("bootstrap");

    let pairs: Vec<(Addr, Addr)> = (0..48).map(|i| (responsive_dest(&sim, i), src)).collect();
    service.batch(key, &pairs, 4).expect("campaign runs");

    let benched = service.quarantined_vps();
    assert!(
        !benched.is_empty(),
        "rollout campaign must bench at least one VP"
    );
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let mut sorted = benched.clone();
    sorted.sort();
    assert_eq!(benched, sorted, "bench list must be sorted");
    for vp in &benched {
        assert!(vps.contains(vp), "benched {vp:?} is not a VP");
    }

    // A clean Internet benches nobody, hardened or not.
    let clean_sim = Sim::build(SimConfig::tiny(), 1);
    let clean = build_service_with(&clean_sim, true);
    let key2 = clean.add_user("operator", RateLimits::default());
    clean.add_source(key2, src).expect("bootstrap");
    clean.batch(key2, &pairs, 4).expect("campaign runs");
    assert!(clean.quarantined_vps().is_empty(), "clean run benches a VP");
}
