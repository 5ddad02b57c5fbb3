//! Every setting of the program under test, in one place.
//!
//! The benchmark configures the program only through constructors and
//! public fields — never through struct literals of `EngineConfig` or
//! `LoopConfig` — so that knobs can be deleted from those types without
//! this package noticing.

use revtr::{EngineConfig, LoopConfig};
use revtr_loadgen::{DestPick, Envelope, PriorityClass, TenantProfile};
use revtr_netsim::SimConfig;
use revtr_service::{AdmissionPlan, RateLimits};

/// Seed of the simulated Internet. The topology is part of the fixture —
/// `--seed` draws the *workload* (samples, hosts, sources, arrivals) — so
/// that runs on different seeds measure the same program on the same
/// network and their exact counts stay within a fraction of a percent.
pub const TOPOLOGY_SEED: u64 = 1;

/// Atlas probe population and the seed it is drawn with.
pub const ATLAS_POOL: usize = 1200;
pub const ATLAS_POOL_SEED: u64 = 0x77;

/// Sources (the first VP sites) the warm workloads measure toward.
pub const N_SOURCES: usize = 8;
/// RR-responsive hosts kept per prefix in the destination table.
pub const HOSTS_PER_PREFIX: usize = 8;

/// Untimed rounds before the timed ones.
pub const WARMUP_ROUNDS: usize = 2;

/// `bootstrap-cold`: prefixes surveyed and sources registered per round.
pub const SURVEY_SAMPLE: usize = 400;
pub const BOOTSTRAP_SOURCES: usize = 2;
/// `ondemand-serial`: sweeps over every prefix per round.
pub const ONDEMAND_SWEEPS: usize = 6;
/// `campaign-batch`: sources per round.
pub const CAMPAIGN_SOURCES: usize = 2;

/// `service-openloop`: stream length, and the factor by which the
/// `eval::loadtest` flash-crowd rates (10/16/18/3 per virtual hour) and
/// the admission plan are scaled up. x20 gives ~29 k arrivals and a round
/// of about a second; x40 (2 s rounds, 420 MB) and x100 (> 4 s, 465 MB)
/// did not fit the time all runs together may take. The wave grows with
/// the rate, so one wave spans the same virtual time as at x1.
pub const OPENLOOP_HOURS: f64 = 18.0;
pub const OPENLOOP_SCALE: f64 = 20.0;
pub const OPENLOOP_WAVE: usize = 128;
const FLASH_FROM: f64 = 0.3;
const FLASH_UNTIL: f64 = 0.5;

/// The paper-era Internet every workload runs on.
pub fn sim_config() -> SimConfig {
    SimConfig::era_2020()
}

/// The same Internet with route churn and per-packet load balancing off:
/// the two schedule couplings the open-loop determinism contract excludes.
pub fn quiesced_sim_config() -> SimConfig {
    let mut cfg = SimConfig::era_2020();
    cfg.behavior.churn_per_hour = 0.0;
    cfg.behavior.router_load_balancer = 0.0;
    cfg
}

/// revtr 2.0 as every gate in the repo runs it: stop sets on, 250-trace
/// atlases.
pub fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::revtr2();
    cfg.use_stop_sets = true;
    cfg.atlas_size = 250;
    cfg
}

/// The serial event loop.
pub fn serial_loop() -> LoopConfig {
    LoopConfig::default()
}

/// The production dispatch shape (the pool clamps itself to the host's
/// cores).
pub fn pool_loop() -> LoopConfig {
    LoopConfig::parallel()
}

/// Limits that never bind: the closed-loop client is one caller.
pub fn unlimited() -> RateLimits {
    RateLimits {
        max_parallel: 1_000_000,
        max_per_day: u64::MAX / 2,
    }
}

/// `AdmissionPlan::standard()` scaled with the offered load: rates and
/// bursts by [`OPENLOOP_SCALE`], the per-wave queue bound by the wave
/// ratio, so every class keeps the headroom the standard plan gives it.
pub fn admission_plan() -> AdmissionPlan {
    let mut plan = AdmissionPlan::standard();
    let wave_ratio = OPENLOOP_WAVE / plan.wave;
    for class in &mut plan.classes {
        class.admit_per_hour *= OPENLOOP_SCALE;
        class.burst *= OPENLOOP_SCALE;
        class.queue_bound *= wave_ratio;
    }
    plan.wave = OPENLOOP_WAVE;
    plan
}

/// The four-tenant flash-crowd mix of `eval::loadtest`, restated here so
/// the benchmark does not depend on `revtr-eval`: a steady gold API, a
/// diurnal silver mapper, a bronze portal that goes viral (x10) over
/// [0.3, 0.5) of the run, and a bronze sweep scanner.
pub fn tenant_mix() -> Vec<TenantProfile> {
    let tenant = |name: &str, class, per_hour: f64, envelope, dests, population| TenantProfile {
        name: name.into(),
        class,
        offered_per_hour: per_hour * OPENLOOP_SCALE,
        envelope,
        dests,
        population,
        daily_quota: None,
    };
    vec![
        tenant(
            "platinum-api",
            PriorityClass::Gold,
            10.0,
            Envelope::Steady,
            DestPick::Zipf { exponent: 0.4 },
            4,
        ),
        tenant(
            "atlas-mapper",
            PriorityClass::Silver,
            16.0,
            Envelope::Diurnal {
                amplitude: 0.5,
                period_hours: 12.0,
                phase_hours: 0.0,
            },
            DestPick::Zipf { exponent: 0.7 },
            6,
        ),
        tenant(
            "public-portal",
            PriorityClass::Bronze,
            18.0,
            Envelope::FlashCrowd {
                from_hours: FLASH_FROM * OPENLOOP_HOURS,
                until_hours: FLASH_UNTIL * OPENLOOP_HOURS,
                multiplier: 10.0,
            },
            DestPick::Zipf { exponent: 1.1 },
            24,
        ),
        tenant(
            "scanner",
            PriorityClass::Bronze,
            3.0,
            Envelope::ScanBursts {
                period_hours: 6.0,
                duty: 0.25,
                multiplier: 3.0,
            },
            DestPick::Sweep,
            8,
        ),
    ]
}
