//! Metamorphic tests over whole campaigns (seeds {1, 7, 42}).
//!
//! Semantics-preserving transforms — measurement cache on/off, worker
//! count, VP-site permutation, fault injection with a retry budget
//! generous enough to recover every transient loss — must leave every
//! stitched reverse path bit-identical (status plus per-hop address and
//! method; stats and wall-clock are excluded by construction).
//!
//! Semantics-weakening transforms — shrinking the atlas probe pool to a
//! strict subset — may only reduce coverage (fewer `Complete` paths),
//! never audited accuracy: both arms must still pass the stitch-trace
//! audit with zero unsound verdicts.
//!
//! Churn and per-packet load balancing are disabled in every arm but one.
//! Churn makes probe replies depend on how virtual time is partitioned
//! across workers. Load balancing makes an option-carrying probe's path
//! depend on its nonce, a pure function of the packet (kind, endpoints,
//! attempt, send instant on its sender's clock): the transforms that
//! change what a request sends (cache toggle, retries, VP order) re-roll
//! paths, and with the measurement cache on, a hit replays whichever
//! request measured the key first, so the schedule picks the reply. The
//! properties under test are about the *engine*, not the simulator's
//! stochastic layers. The one load-balanced arm
//! (`load_balanced_requests_are_width_invariant_without_the_cache`) turns
//! the cache off and holds every request of a campaign to the result,
//! probe count and duration a serial `measure()` gives it, at every width.

use revtr_suite::atlas::select_atlas_probes;
use revtr_suite::audit::Auditor;
use revtr_suite::netsim::{Addr, FaultConfig, ScenarioConfig, ScenarioProfile, Sim, SimConfig};
use revtr_suite::probing::{Prober, RetryPolicy, Telemetry};
use revtr_suite::revtr::{EngineConfig, HopMethod, LoopConfig, RevtrSystem, Status};
use revtr_suite::vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

const SEEDS: [u64; 3] = [1, 7, 42];

/// What a transform must preserve: outcome plus the stitched path with
/// per-hop provenance method. Stats (probe counts, durations, batches)
/// are explicitly excluded — they legitimately vary across arms.
type Fingerprint = (Status, Vec<(Option<Addr>, HopMethod)>);

fn fingerprint(r: &revtr_suite::revtr::RevtrResult) -> Fingerprint {
    (
        r.status,
        r.hops.iter().map(|h| (h.addr, h.method)).collect(),
    )
}

/// Deterministic base simulator: no churn (virtual-time partitioning
/// across workers would move epoch flushes) and no per-packet load
/// balancing (a transform that changes what a request sends — the cache
/// toggle, retries, VP order — would re-roll its probes' paths, and a
/// cache hit replays whichever request measured the key first).
fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::tiny();
    cfg.behavior.churn_per_hour = 0.0;
    cfg.behavior.router_load_balancer = 0.0;
    cfg
}

/// Arm parameters for one campaign run.
struct Arm {
    use_cache: bool,
    workers: usize,
    /// Left-rotation applied to the VP list (0 = identity).
    vp_rotation: usize,
    /// Atlas probe pool size (the selection is prefix-stable in `n`).
    atlas_pool: usize,
    /// Retry budget; `None` keeps the prober's default single attempt.
    retries: Option<u32>,
}

impl Arm {
    fn baseline() -> Arm {
        Arm {
            use_cache: true,
            workers: 1,
            vp_rotation: 0,
            atlas_pool: 100,
            retries: None,
        }
    }
}

/// The campaign workload for a sim: one RR-responsive destination per
/// prefix, all measured from a fixed source (`vp_sites[0]`, chosen
/// independently of any VP permutation the arm applies).
fn workload(sim: &Sim, n: usize) -> (Addr, Vec<Addr>) {
    let src = sim.topo().vp_sites[0].host;
    let dests: Vec<Addr> = sim
        .topo()
        .prefixes
        .iter()
        .filter_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a) && a != src)
        })
        .take(n)
        .collect();
    (src, dests)
}

/// Run one campaign arm and return the per-destination fingerprints, in
/// input order regardless of worker interleaving.
fn run_arm(sim: &Sim, arm: &Arm) -> Vec<Fingerprint> {
    let prober = match arm.retries {
        Some(budget) => Prober::new(sim).with_retry_policy(RetryPolicy::uniform(budget)),
        None => Prober::new(sim),
    };
    let mut vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let n_vps = vps.len().max(1);
    vps.rotate_left(arm.vp_rotation % n_vps);
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, arm.atlas_pool, 6);
    let mut cfg = EngineConfig::revtr2();
    // Use the whole pool: the engine otherwise *samples* `atlas_size`
    // probes, and a sample of a larger pool is not a superset of a sample
    // of a smaller one — which the atlas-shrink monotonicity test needs.
    cfg.atlas_size = pool.len();
    cfg.use_cache = arm.use_cache;
    let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);

    let (src, dests) = workload(sim, 24);
    sys.register_source(src);
    assert!(dests.len() >= 8, "workload too small to be meaningful");

    stitch_all(&sys, src, &dests, arm.workers)
}

/// Stitch every destination toward `src`, in input order: one worker is
/// the serial `measure()` driver (so every single-worker baseline below
/// doubles as a measure()-vs-campaign check), more are one campaign that
/// wide.
fn stitch_all(
    sys: &RevtrSystem<'_>,
    src: Addr,
    dests: &[Addr],
    workers: usize,
) -> Vec<Fingerprint> {
    if workers <= 1 {
        return dests
            .iter()
            .map(|&d| fingerprint(&sys.measure(d, src)))
            .collect();
    }
    let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
    let outcome = sys
        .run_campaign(&pairs, LoopConfig { workers })
        .expect("no task panicked");
    outcome.results.iter().map(fingerprint).collect()
}

/// Run the baseline campaign through an explicit prober (which may carry
/// an enabled telemetry handle and shared warm caches), returning the
/// stitched fingerprints in input order.
fn run_with_prober(sim: &Sim, prober: Prober<'_>, workers: usize) -> Vec<Fingerprint> {
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 100, 6);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = pool.len();
    let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);
    let (src, dests) = workload(sim, 24);
    sys.register_source(src);
    stitch_all(&sys, src, &dests, workers)
}

/// Run the baseline workload as one campaign `workers` wide, returning
/// fingerprints in input order plus the outcome's own accounting.
fn run_campaign_arm(sim: &Sim, workers: usize) -> (Vec<Fingerprint>, u64) {
    let (sys, _, src, dests) = stop_set_system(sim, false, true);
    let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
    let outcome = sys
        .run_campaign(&pairs, LoopConfig { workers })
        .expect("no task panicked");
    (
        outcome.results.iter().map(fingerprint).collect(),
        outcome.events,
    )
}

fn assert_arms_identical(name: &str, seed: u64, base: &[Fingerprint], arm: &[Fingerprint]) {
    assert_eq!(
        base.len(),
        arm.len(),
        "{name}: workload size diverged (seed {seed})"
    );
    for (i, (b, a)) in base.iter().zip(arm).enumerate() {
        assert_eq!(
            b, a,
            "{name}: stitched path diverged for request {i} (seed {seed})"
        );
    }
}

#[test]
fn cache_toggle_preserves_stitched_paths() {
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let base = run_arm(&sim, &Arm::baseline());
        let no_cache = run_arm(
            &sim,
            &Arm {
                use_cache: false,
                ..Arm::baseline()
            },
        );
        assert_arms_identical("cache off", seed, &base, &no_cache);
    }
}

#[test]
fn worker_count_preserves_stitched_paths() {
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let base = run_arm(&sim, &Arm::baseline());
        let parallel = run_arm(
            &sim,
            &Arm {
                workers: 8,
                ..Arm::baseline()
            },
        );
        assert_arms_identical("8 workers", seed, &base, &parallel);
    }
}

#[test]
fn dispatch_workers_preserve_stitched_paths() {
    // A campaign must stitch exactly what the serial `measure()` driver
    // stitches, at any width: which worker drives which request changes,
    // each request's own probe sequence does not. The outcome's event
    // count is task-defined — one event per stage or round — so it cannot
    // move either.
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let base = run_arm(&sim, &Arm::baseline());
        let arms = [1usize, 2, 4, 16].map(|w| (w, run_campaign_arm(&sim, w)));
        let (_, (_, events)) = &arms[0];
        assert!(*events >= base.len() as u64, "every request costs an event");
        for (workers, (fps, ev)) in &arms {
            assert_arms_identical(&format!("campaign w{workers}"), seed, &base, fps);
            assert_eq!(
                ev, events,
                "events depend on width (seed {seed}, w{workers})"
            );
        }
    }
}

#[test]
fn measure_is_a_one_pair_campaign() {
    // `measure()` and a one-pair `run_campaign` reach the same driver on
    // the same meter: on twin systems fed the same requests in the same
    // order, every result (full fingerprint, the per-request probe delta
    // and the duration to the bit) and the stop-set state left behind must
    // agree.
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let (serial, _, src, dests) = stop_set_system(&sim, true, true);
        let (campaign, _, _, _) = stop_set_system(&sim, true, true);
        for &d in &dests {
            let m = serial.measure(d, src);
            let mut c = campaign
                .run_campaign(&[(d, src)], LoopConfig::default())
                .expect("no task panicked");
            assert_eq!(c.results.len(), 1);
            let c = c.results.remove(0);
            assert_eq!(fingerprint(&m), fingerprint(&c), "seed {seed}, dst {d}");
            assert_eq!(m.stats.probes, c.stats.probes, "seed {seed}, dst {d}");
            assert_eq!(
                m.stats.duration_s.to_bits(),
                c.stats.duration_s.to_bits(),
                "seed {seed}, dst {d}"
            );
        }
        assert_eq!(
            serial.stopset().stats(),
            campaign.stopset().stats(),
            "stop-set state diverged (seed {seed})"
        );
    }
}

#[test]
fn load_balanced_requests_are_width_invariant_without_the_cache() {
    // Every router balances option-carrying packets on their nonce, and a
    // nonce is a function of the packet and its instant on the request's
    // meter, never of what other requests sent. So with the measurement
    // cache off (a hit would replay whichever request measured the key
    // first) every request of a campaign stitches, costs and lasts exactly
    // what a serial `measure()` gives it, at any width. Widths 4
    // and 16 clamp to the host's cores (two on the reference host), so on
    // a small host they re-run its widest pool. At the tiny world's
    // default share of balancing routers (0.04) the arm is too weak to
    // catch a nonce that depends on other requests' sends, so every router
    // balances here.
    for seed in SEEDS {
        let mut cfg = base_cfg();
        cfg.behavior.router_load_balancer = 1.0;
        let sim = Sim::build(cfg, seed);
        let (serial, _, src, dests) = stop_set_system(&sim, false, false);
        let base: Vec<_> = dests.iter().map(|&d| serial.measure(d, src)).collect();
        let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
        for workers in [1usize, 2, 4, 16] {
            let (sys, _, _, _) = stop_set_system(&sim, false, false);
            let outcome = sys
                .run_campaign(&pairs, LoopConfig { workers })
                .expect("no task panicked");
            assert_eq!(outcome.results.len(), base.len());
            for (i, (m, c)) in base.iter().zip(&outcome.results).enumerate() {
                let at = format!("seed {seed}, w{workers}, request {i}");
                assert_eq!(fingerprint(m), fingerprint(c), "{at}");
                assert_eq!(m.stats.probes, c.stats.probes, "{at}");
                assert_eq!(
                    m.stats.duration_s.to_bits(),
                    c.stats.duration_s.to_bits(),
                    "{at}"
                );
            }
        }
    }
}

#[test]
fn vp_permutation_preserves_stitched_paths() {
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let base = run_arm(&sim, &Arm::baseline());
        for rotation in [1, 5] {
            let rotated = run_arm(
                &sim,
                &Arm {
                    vp_rotation: rotation,
                    ..Arm::baseline()
                },
            );
            assert_arms_identical("VP rotation", seed, &base, &rotated);
        }
    }
}

#[test]
fn recovered_faults_preserve_stitched_paths() {
    // Transient loss with a retry budget generous enough that the chance
    // of exhausting it (0.3^25) is negligible: every lost probe is
    // eventually resent and — with load balancing off — answered
    // identically, so the stitched paths must match the fault-free run.
    for seed in SEEDS {
        let clean_sim = Sim::build(base_cfg(), seed);
        let base = run_arm(&clean_sim, &Arm::baseline());

        let mut faulty = base_cfg();
        faulty.faults = FaultConfig::lossy(0.3);
        let faulty_sim = Sim::build(faulty, seed);
        let recovered = run_arm(
            &faulty_sim,
            &Arm {
                retries: Some(25),
                ..Arm::baseline()
            },
        );
        assert_arms_identical("faults + retries", seed, &base, &recovered);
    }
}

#[test]
fn telemetry_enabled_is_behaviour_neutral() {
    use revtr_suite::telemetry::TelemetryConfig;
    // Tracing is off by default, and turning it on must be invisible to
    // the measurement layer: identical stitched paths, identical probe
    // counters, identical virtual-time consumption.
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);

        let plain = Prober::new(&sim);
        assert!(
            !plain.telemetry().is_enabled(),
            "telemetry must be disabled by default"
        );
        let base = run_with_prober(&sim, plain.clone(), 1);
        let base_probes = plain.counters().snapshot();
        let base_ms = plain.clock().now_ms();

        // Plain tracing, then tracing as the operations harness arms it:
        // resource profiler on and the stuck-request watchdog set low
        // enough to flag. Flags and ledgers live outside the registry and
        // the journal, so the two traced arms share one identity.
        let armed = Telemetry::with_config(TelemetryConfig {
            watchdog_deadline_ms: Some(1.0),
            profile: true,
            ..TelemetryConfig::default()
        });
        let mut identities = Vec::new();
        for tele in [Telemetry::enabled(), armed.clone()] {
            let traced_prober = Prober::new(&sim).with_telemetry(tele.clone());
            let traced = run_with_prober(&sim, traced_prober.clone(), 1);
            let traced_probes = traced_prober.counters().snapshot();
            let traced_ms = traced_prober.clock().now_ms();

            assert_arms_identical("telemetry on", seed, &base, &traced);
            assert_eq!(
                base_probes, traced_probes,
                "telemetry changed probe counts (seed {seed})"
            );
            assert_eq!(
                base_ms, traced_ms,
                "telemetry changed virtual time (seed {seed})"
            );
            // ...while actually recording: the traced arm saw every request.
            assert_eq!(
                tele.metrics().counter("request.count"),
                traced.len() as u64,
                "traced arm missed requests (seed {seed})"
            );
            identities.push((tele.metrics_fingerprint(), tele.journal_fingerprint()));
        }
        assert_eq!(
            identities[0], identities[1],
            "watchdog or profiler changed the campaign identity (seed {seed})"
        );
        assert!(
            !armed.watchdog_flags().is_empty(),
            "1 ms watchdog flagged nothing (seed {seed})"
        );
    }
}

#[test]
fn telemetry_metrics_and_journal_are_deterministic() {
    for seed in SEEDS {
        // (a) Cold, serial: repeated runs on fresh identical sims produce
        // byte-identical metrics snapshots and journals.
        let cold_run = || {
            let sim = Sim::build(base_cfg(), seed);
            let tele = Telemetry::enabled();
            let prober = Prober::new(&sim).with_telemetry(tele.clone());
            let _ = run_with_prober(&sim, prober, 1);
            (tele.metrics_fingerprint(), tele.journal_fingerprint())
        };
        let first = cold_run();
        let second = cold_run();
        assert_eq!(first, second, "cold rerun diverged (seed {seed})");
        assert_ne!(first.0, 0, "metrics fingerprint empty (seed {seed})");
        assert_ne!(first.1, 0, "journal fingerprint empty (seed {seed})");

        // (b) Worker-count invariance: once the measurement cache is warm
        // (clones of one prober share cache, counters, and clock), a
        // serial and an 8-worker campaign record identical telemetry —
        // per-thread virtual time keeps span durations interleaving-free.
        let sim = Sim::build(base_cfg(), seed);
        let shared = Prober::new(&sim);
        let _ = run_with_prober(&sim, shared.clone(), 1); // warm caches, no tracing

        let serial_tele = Telemetry::enabled();
        let _ = run_with_prober(&sim, shared.with_telemetry(serial_tele.clone()), 1);
        let parallel_tele = Telemetry::enabled();
        let _ = run_with_prober(&sim, shared.with_telemetry(parallel_tele.clone()), 8);

        assert_eq!(
            serial_tele.metrics_fingerprint(),
            parallel_tele.metrics_fingerprint(),
            "metrics depend on worker count (seed {seed})"
        );
        assert_eq!(
            serial_tele.journal_fingerprint(),
            parallel_tele.journal_fingerprint(),
            "journal depends on worker count (seed {seed})"
        );
    }
}

#[test]
fn slo_verdicts_and_exports_are_worker_count_invariant() {
    // The PR-5 judgment layer inherits telemetry's interleaving
    // independence: on a warm shared prober, a serial and an 8-worker
    // campaign produce byte-identical Chrome-trace / Prometheus exports
    // and identical SLO verdicts.
    use revtr_suite::telemetry::{
        chrome_trace_json, prometheus_text, RuleExpr, Severity, SloInput, SloPolicy, SloRule,
    };

    let rule = |name: &str, expr: RuleExpr| SloRule {
        name: name.to_string(),
        severity: Severity::Critical,
        expr,
    };
    let policy = SloPolicy {
        rules: vec![
            rule(
                "requests-present",
                RuleExpr::CounterMax {
                    counter: "probing.transient_lost".to_string(),
                    max: 0,
                },
            ),
            rule(
                "request-p99",
                RuleExpr::QuantileMax {
                    histogram: "request.virtual_us".to_string(),
                    q: 0.99,
                    max: 400_000_000,
                },
            ),
            rule(
                "burn",
                RuleExpr::BurnRate {
                    window_ms: 600_000.0,
                    slow_ms: 120_000.0,
                    budget: 0.05,
                    max_burn: 20.0,
                },
            ),
        ],
    };

    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let shared = Prober::new(&sim);
        let _ = run_with_prober(&sim, shared.clone(), 1); // warm caches

        let judge = |workers: usize| {
            let tele = Telemetry::enabled();
            let _ = run_with_prober(&sim, shared.with_telemetry(tele.clone()), workers);
            let snapshot = tele.metrics();
            let journal = tele.journal_records();
            let report = policy.evaluate(&SloInput {
                snapshot: &snapshot,
                requests: &journal,
                derived: &[],
            });
            (
                chrome_trace_json(&journal, &[]),
                prometheus_text(&snapshot),
                format!("{:?}", report.verdicts),
            )
        };
        let serial = judge(1);
        let parallel = judge(8);
        assert_eq!(
            serial.0, parallel.0,
            "chrome trace depends on worker count (seed {seed})"
        );
        assert_eq!(
            serial.1, parallel.1,
            "prometheus exposition depends on worker count (seed {seed})"
        );
        assert_eq!(
            serial.2, parallel.2,
            "SLO verdicts depend on worker count (seed {seed})"
        );
        assert!(
            serial.2.contains("pass: true"),
            "expected at least one passing verdict (seed {seed}): {}",
            serial.2
        );
    }
}

#[test]
fn resource_profiling_is_identity_neutral_and_worker_invariant() {
    // The PR-10 forensics arm: turning the cost-attribution profiler and
    // the byte ledgers on must be invisible to the campaign itself —
    // bit-identical stitched paths, probe counters (including the Events
    // and CacheBytes meta-kinds), and metrics/journal fingerprints — and
    // the profiled readings themselves must be a pure function of the
    // seed on the serial schedule. Across widths the byte ledgers and each
    // stack's `spans` and `events` are still exact; its cache and probe
    // bytes are only bounded below by the serial figure (see the width
    // loop at the bottom).
    use revtr_suite::telemetry::{Telemetry, TelemetryConfig};
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let run = |profile: bool, workers: usize| {
            let tele = Telemetry::with_config(TelemetryConfig {
                profile,
                ..TelemetryConfig::default()
            });
            sim.set_telemetry(tele.clone());
            let prober = Prober::new(&sim).with_telemetry(tele.clone());
            let shared = prober.clone();
            let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
            let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
            let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
            let pool = select_atlas_probes(&sim, 100, 6);
            let mut cfg = EngineConfig::revtr2();
            cfg.atlas_size = pool.len();
            let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);
            let (src, dests) = workload(&sim, 24);
            sys.register_source(src);
            let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
            let outcome = sys
                .run_campaign(&pairs, LoopConfig { workers })
                .expect("no task panicked");
            let fps: Vec<Fingerprint> = outcome.results.iter().map(fingerprint).collect();
            let readings: Vec<(String, u64, u64)> = tele
                .resources()
                .ledgers
                .iter()
                .map(|l| (l.name.clone(), l.current, l.hiwater))
                .collect();
            // Stack costs, minus inclusive virtual time: span durations
            // carry a pre-existing ±1 µs half-microsecond rounding jitter
            // across widths (the journal has the same property), while the
            // PR-10 cost dimensions — events, cache bytes, probe bytes —
            // are attributed addend-for-addend to the task that paid them.
            let stacks: Vec<(String, u64, u64, u64, u64)> = tele
                .profile_stacks()
                .iter()
                .map(|s| {
                    (
                        s.path.clone(),
                        s.spans,
                        s.events,
                        s.cache_bytes,
                        s.probe_bytes,
                    )
                })
                .collect();
            (
                fps,
                shared.counters().snapshot(),
                tele.metrics_fingerprint(),
                tele.journal_fingerprint(),
                readings,
                stacks,
            )
        };

        // Warm the shared simulator's route/border caches once so every
        // compared arm reads the same saturated netsim ledgers.
        let _ = run(false, 1);

        let off = run(false, 1);
        let on = run(true, 1);
        assert_arms_identical("profile on", seed, &off.0, &on.0);
        assert_eq!(
            off.1, on.1,
            "profiling changed the probe counters (seed {seed})"
        );
        assert_eq!(
            off.2, on.2,
            "profiling changed the metrics fingerprint (seed {seed})"
        );
        assert_eq!(
            off.3, on.3,
            "profiling changed the journal fingerprint (seed {seed})"
        );
        assert!(
            off.4.is_empty(),
            "profile-off arm recorded ledgers: {:?}",
            off.4
        );
        assert!(
            on.4.len() >= 8,
            "profile-on ledger set too small (seed {seed}): {:?}",
            on.4
        );
        assert!(
            on.4.iter().any(|(_, _, hi)| *hi > 0),
            "profile-on readings all zero (seed {seed})"
        );

        // The serial schedule is reproducible in every cost dimension.
        let again = run(true, 1);
        assert_eq!(
            on.4, again.4,
            "serial readings not reproducible (seed {seed})"
        );
        assert_eq!(
            on.5, again.5,
            "serial stacks not reproducible (seed {seed})"
        );

        // Under a pool, what a task *does* is still fixed — the same spans,
        // the same events — but what it *pays* is not: two workers can miss
        // the same measurement-cache key between `get` and `put` and both
        // probe, each charged its own fill. A pool can only duplicate a
        // fill the serial order would have shared, never share one it paid
        // for, so serial bytes are a floor (claiming a cache key before
        // probing it would make them exact again).
        for workers in [4usize, 16] {
            let arm = run(true, workers);
            assert_arms_identical(&format!("profile w{workers}"), seed, &on.0, &arm.0);
            assert_eq!(
                on.4, arm.4,
                "resource readings depend on worker count (seed {seed}, w{workers})"
            );
            assert_eq!(on.5.len(), arm.5.len(), "stack set moved (seed {seed})");
            for (serial, pooled) in on.5.iter().zip(&arm.5) {
                assert_eq!(
                    (&serial.0, serial.1, serial.2),
                    (&pooled.0, pooled.1, pooled.2),
                    "stack spans/events depend on worker count (seed {seed}, w{workers})"
                );
                assert!(
                    pooled.3 >= serial.3 && pooled.4 >= serial.4,
                    "pool paid less than serial (seed {seed}, w{workers}): \
                     {pooled:?} vs {serial:?}"
                );
            }
        }
    }
}

/// Build a campaign system with the stop sets and the measurement cache
/// toggled, returning it with a counter-sharing prober clone and the
/// baseline workload.
fn stop_set_system<'s>(
    sim: &'s Sim,
    use_stop_sets: bool,
    use_cache: bool,
) -> (RevtrSystem<'s>, Prober<'s>, Addr, Vec<Addr>) {
    let prober = Prober::new(sim);
    let shared = prober.clone();
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 100, 6);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = pool.len();
    cfg.use_stop_sets = use_stop_sets;
    cfg.use_cache = use_cache;
    let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);
    let (src, dests) = workload(sim, 24);
    sys.register_source(src);
    (sys, shared, src, dests)
}

#[test]
fn stop_set_toggle_preserves_stitched_paths_across_dispatch_workers() {
    // The campaign stop sets must be a pure probe economy: with churn off,
    // replayed forward-set observations are bitwise what a fresh probe
    // would return, so toggling them on — at any dispatch worker count —
    // must leave every stitched path identical to the off control while
    // measurably saving atlas probes. This is the on/off arm of the
    // metamorphic suite the deterministic merge barrier exists for:
    // contributions fold in (vtime, id, seq) order, so OS scheduling
    // across {1, 4, 16} workers cannot leak into the published view.
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let (off_sys, off_probes, src, dests) = stop_set_system(&sim, false, true);
        let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
        let off = off_sys
            .run_campaign(&pairs, LoopConfig::default())
            .expect("no task panicked");
        let off_fp: Vec<Fingerprint> = off.results.iter().map(fingerprint).collect();
        assert_eq!(
            off_sys.stopset().stats().total_hits(),
            0,
            "off control touched the stop sets (seed {seed})"
        );
        let off_atlas_rr = off_probes.counters().snapshot().atlas_rr;

        for workers in [1usize, 4, 16] {
            let (on_sys, on_probes, on_src, on_dests) = stop_set_system(&sim, true, true);
            assert_eq!(
                (on_src, &on_dests),
                (src, &dests),
                "workload moved between arms"
            );
            let on = on_sys
                .run_campaign(&pairs, LoopConfig { workers })
                .expect("no task panicked");
            let on_fp: Vec<Fingerprint> = on.results.iter().map(fingerprint).collect();
            assert_arms_identical(&format!("stop sets on, w{workers}"), seed, &off_fp, &on_fp);
            assert!(
                on_sys.stopset().stats().total_hits() > 0,
                "on arm never hit the stop sets (seed {seed}, w{workers})"
            );
            assert!(
                on_probes.counters().snapshot().atlas_rr < off_atlas_rr,
                "forward set saved no atlas probes (seed {seed}, w{workers})"
            );
        }
    }
}

#[test]
fn stop_set_reuse_is_audit_sound_and_coverage_monotone() {
    // Cross-request evidence reuse: a second campaign over the same pairs
    // consults the backward set the first campaign published at its wave
    // barrier. Every reused observation carries its *send-time*
    // provenance, so the reusing results must replay clean against the
    // ground-truth auditor — zero unsound hops — and reuse may never
    // cost coverage.
    let complete = |fps: &[Fingerprint]| fps.iter().filter(|(s, _)| *s == Status::Complete).count();
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);
        let (sys, _probes, src, dests) = stop_set_system(&sim, true, true);
        let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
        let lc = || LoopConfig { workers: 4 };
        let first = sys.run_campaign(&pairs, lc()).expect("no task panicked");
        let h1 = sys.stopset().stats();
        let second = sys.run_campaign(&pairs, lc()).expect("no task panicked");
        let reuse = sys.stopset().stats().since(&h1);
        assert!(
            reuse.backward_hits > 0,
            "second campaign never reused backward evidence (seed {seed})"
        );

        let auditor = Auditor::new(&sim, EngineConfig::revtr2().registry_only_ip2as);
        for r in &second.results {
            if let Some(f) = auditor.audit(r).failures().next() {
                panic!(
                    "reused evidence audits unsound (seed {seed}): {} -> {} hop {} ({}): {:?}",
                    r.dst, r.src, f.index, f.kind, f.verdict
                );
            }
        }

        let first_fp: Vec<Fingerprint> = first.results.iter().map(fingerprint).collect();
        let second_fp: Vec<Fingerprint> = second.results.iter().map(fingerprint).collect();
        assert!(
            complete(&second_fp) >= complete(&first_fp),
            "evidence reuse reduced coverage (seed {seed}): {} < {}",
            complete(&second_fp),
            complete(&first_fp)
        );
    }
}

/// Run one campaign over a scenario-bearing sim with stop sets off or on,
/// returning the full results in input order.
fn run_scenario_arm(
    sim: &Sim,
    use_stop_sets: bool,
    workers: usize,
) -> Vec<revtr_suite::revtr::RevtrResult> {
    let prober = Prober::new(sim);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 100, 6);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = pool.len();
    cfg.use_stop_sets = use_stop_sets;
    let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);
    let (src, dests) = workload(sim, 24);
    sys.register_source(src);
    let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, src)).collect();
    sys.run_campaign(&pairs, LoopConfig { workers })
        .expect("no task panicked")
        .results
}

#[test]
fn scenario_profiles_are_worker_invariant_and_seed_pure() {
    // Every adversarial profile draws its behavior purely from stable
    // entity keys (AS ids, addresses, attempt indices) under per-profile
    // salts, and the stop sets publish only at deterministic merge
    // barriers — so a hostile campaign, stop sets off or on, must stitch
    // bit-identical paths at any dispatch worker count, and a rerun on a
    // fresh identical sim must reproduce them exactly (seed purity).
    for seed in SEEDS {
        for profile in ScenarioProfile::ALL {
            let mut cfg = base_cfg();
            cfg.scenario = ScenarioConfig::profile_at(profile, profile.default_severity());
            let sim = Sim::build(cfg.clone(), seed);
            for use_stop_sets in [false, true] {
                let base: Vec<Fingerprint> = run_scenario_arm(&sim, use_stop_sets, 1)
                    .iter()
                    .map(fingerprint)
                    .collect();
                for workers in [4usize, 16] {
                    let arm: Vec<Fingerprint> = run_scenario_arm(&sim, use_stop_sets, workers)
                        .iter()
                        .map(fingerprint)
                        .collect();
                    assert_arms_identical(
                        &format!(
                            "{} use_stop_sets={use_stop_sets} w{workers}",
                            profile.name()
                        ),
                        seed,
                        &base,
                        &arm,
                    );
                }
                let fresh_sim = Sim::build(cfg.clone(), seed);
                let rerun: Vec<Fingerprint> = run_scenario_arm(&fresh_sim, use_stop_sets, 1)
                    .iter()
                    .map(fingerprint)
                    .collect();
                assert_arms_identical(
                    &format!("{} use_stop_sets={use_stop_sets} rerun", profile.name()),
                    seed,
                    &base,
                    &rerun,
                );
            }
        }
    }
}

#[test]
fn degraded_open_loop_campaigns_are_dispatch_worker_invariant() {
    // The admission layer's open-loop path (token buckets, bounded
    // queues, the degradation ladder) must inherit the engine's
    // worker-invariance: a flash-crowd campaign that sheds, degrades,
    // and recovers has to produce bit-identical per-arrival outcomes,
    // per-class accounting, and ladder-transition logs across dispatch
    // workers {1, 4, 16} — and the degraded results must still audit
    // clean (zero AS-unsound paths) against the ground-truth oracle.
    use revtr_suite::eval::loadtest::{self, Pattern};
    use revtr_suite::eval::Scale;
    for seed in SEEDS {
        let report = loadtest::run(Scale::Smoke, seed, Pattern::FlashCrowd);
        assert!(
            report.determinism_failures.is_empty(),
            "seed {seed}: {:?}",
            report.determinism_failures
        );
        let bronze = report.arms[0]
            .classes
            .iter()
            .find(|c| c.name == "bronze")
            .expect("bronze class reported");
        assert!(
            bronze.stepdowns > 0 && bronze.served_by_level[1..].iter().sum::<u64>() > 0,
            "seed {seed}: the arm never actually served degraded \
             (stepdowns {}, served {:?})",
            bronze.stepdowns,
            bronze.served_by_level
        );
        let unsound = report
            .derived
            .iter()
            .find(|(k, _)| k == "audit.as_unsound")
            .map(|(_, v)| *v)
            .expect("audit derived present");
        assert_eq!(unsound, 0.0, "seed {seed}: degraded paths audit unsound");
    }
}

#[test]
fn flash_crowd_sheds_only_bronze_while_gold_holds_slo() {
    // The must-fire protection property: a 10× flash crowd on the bronze
    // portal must shed — but only from bronze, with gold and silver
    // untouched, gold goodput at its SLO floor, and the ladder fully
    // recovered by end of run. `report.pass()` folds in the whole
    // judgment; the explicit asserts document what must fire.
    use revtr_suite::eval::loadtest::{self, Pattern};
    use revtr_suite::eval::Scale;
    for seed in SEEDS {
        let report = loadtest::run(Scale::Smoke, seed, Pattern::FlashCrowd);
        assert!(report.pass(), "seed {seed}:\n{}", report.render());
        let class = |name: &str| {
            report.arms[0]
                .classes
                .iter()
                .find(|c| c.name == name)
                .cloned()
                .expect("class reported")
        };
        let (gold, silver, bronze) = (class("gold"), class("silver"), class("bronze"));
        assert!(bronze.shed_total() > 0, "seed {seed}: overload never shed");
        assert_eq!(gold.shed_total(), 0, "seed {seed}: gold shed");
        assert_eq!(silver.shed_total(), 0, "seed {seed}: silver shed");
        assert!(
            gold.goodput_ratio() >= 0.98,
            "seed {seed}: gold goodput {:.4}",
            gold.goodput_ratio()
        );
        assert_eq!(
            bronze.final_level, 0,
            "seed {seed}: ladder never recovered (level {})",
            bronze.final_level
        );
    }
}

#[test]
fn atlas_shrink_is_coverage_monotone_and_accuracy_stable() {
    for seed in SEEDS {
        let sim = Sim::build(base_cfg(), seed);

        // The premise: the smaller pool is a strict subset (prefix) of the
        // larger one, so shrinking only *removes* atlas traces.
        let big_pool = select_atlas_probes(&sim, 100, 6);
        let small_pool = select_atlas_probes(&sim, 30, 6);
        assert!(small_pool.len() < big_pool.len());
        assert_eq!(&big_pool[..small_pool.len()], &small_pool[..]);

        let big = run_arm(&sim, &Arm::baseline());
        let small = run_arm(
            &sim,
            &Arm {
                atlas_pool: 30,
                ..Arm::baseline()
            },
        );

        // Coverage may only drop...
        let complete =
            |fps: &[Fingerprint]| fps.iter().filter(|(s, _)| *s == Status::Complete).count();
        assert!(
            complete(&small) <= complete(&big),
            "shrinking the atlas increased coverage (seed {seed}): {} > {}",
            complete(&small),
            complete(&big)
        );

        // ...and accuracy never does: both arms still audit clean.
        let auditor = Auditor::new(&sim, EngineConfig::revtr2().registry_only_ip2as);
        for pool_n in [100usize, 30] {
            let prober = Prober::new(&sim);
            let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
            let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
            let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
            let pool = select_atlas_probes(&sim, pool_n, 6);
            let mut cfg = EngineConfig::revtr2();
            cfg.atlas_size = pool.len();
            let sys = RevtrSystem::new(prober, cfg, vps, ingress, pool);
            let (src, dests) = workload(&sim, 24);
            sys.register_source(src);
            for &d in &dests {
                let r = sys.measure(d, src);
                let audit = auditor.audit(&r);
                let first_failure = audit.failures().next();
                if let Some(f) = first_failure {
                    panic!(
                        "pool {pool_n}, seed {seed}: {} -> {} hop {} ({}): {:?}",
                        r.dst, r.src, f.index, f.kind, f.verdict
                    );
                }
            }
        }
    }
}
