//! Multi-tenant admission control and the SLO-driven degradation ladder.
//!
//! The open-loop traffic model (`revtr-loadgen`) offers load the service
//! did not ask for; this module decides, deterministically, what gets
//! measured and at what fidelity. Three mechanisms compose:
//!
//! * **Per-class token buckets** — each priority class refills admission
//!   tokens in *arrival* virtual time at its configured rate; an arrival
//!   finding no token is shed (`RateLimited`).
//! * **Bounded per-class admission queues** — each admission wave accepts
//!   at most `queue_bound` requests per class; overflow is shed
//!   (`QueueFull`). Together with the bucket this makes every drop
//!   decision a pure function of the arrival stream and the plan — never
//!   of engine timing, worker count, or cache state, which is what keeps
//!   shed counters bit-identical across dispatch workers {1, 4, 16}.
//! * **The degradation ladder** — a per-class burn-rate controller runs
//!   at the wave barrier: when a class's shed fraction over the last
//!   `window_waves` waves burns past `shed_budget`, the class steps down
//!   one level instead of the service exiting 1. Levels trade fidelity
//!   for capacity: L1 caps spoofed batches at one probe, L2 answers from
//!   cache/stop-set/atlas evidence only, L3 additionally tolerates a
//!   stale atlas (the refresh SLA is suppressed). Each level also boosts
//!   the class's token rate — degraded requests are cheaper, so more of
//!   them fit the budget — which is the loop closure: shed burn falls,
//!   and after `recover_waves` consecutive clean waves the class climbs
//!   back up one level (hysteresis, so a flapping crowd cannot make the
//!   ladder oscillate every wave).
//!
//! The controller deliberately keys on *arrival-side* signals only (shed
//! fractions). Engine-side probe counts are schedule-dependent under
//! parallel dispatch (which worker wins a single-flight cache fill), so
//! a controller consuming them would shed differently at different
//! worker counts and break the determinism contract.

use crate::service::{RevtrService, ServiceError};
use crate::users::{ApiKey, UserError};
use revtr::{LoopConfig, RevtrResult, Status, TimedJob, WavePool};
use revtr_netsim::Addr;
use std::collections::BTreeMap;

/// One timed request of the open-loop stream, already mapped onto the
/// topology (the caller resolves loadgen's destination ranks and user
/// ids to concrete addresses).
#[derive(Clone, Copy, Debug)]
pub struct TimedRequest {
    /// Virtual arrival time in milliseconds since stream start.
    pub vtime_ms: f64,
    /// Tenant index (into the caller's API-key table).
    pub tenant: u32,
    /// Priority-class index (0 = top).
    pub class: usize,
    /// Reverse traceroute destination.
    pub dst: Addr,
    /// Registered source.
    pub src: Addr,
}

/// Why an arrival was shed instead of measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The class's token bucket was empty at arrival.
    RateLimited,
    /// The class's bounded admission queue was full this wave.
    QueueFull,
    /// The tenant's own limits rejected it (daily quota or parallel cap).
    QuotaExceeded,
}

impl ShedReason {
    /// Metric-key suffix.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate",
            ShedReason::QueueFull => "queue",
            ShedReason::QuotaExceeded => "quota",
        }
    }
}

/// Admission policy for one priority class.
#[derive(Clone, Copy, Debug)]
pub struct ClassPolicy {
    /// Class name for reports and metric keys ("gold", "silver", …).
    pub name: &'static str,
    /// Token-bucket refill rate at level 0, requests per virtual hour.
    pub admit_per_hour: f64,
    /// Token-bucket capacity (burst tolerance).
    pub burst: f64,
    /// Bounded admission-queue depth per wave.
    pub queue_bound: usize,
    /// Fractional token-rate boost per degradation level: the effective
    /// rate is `admit_per_hour * (1 + boost_per_level * level)` —
    /// degraded requests are cheaper, so the bucket admits more of them.
    pub boost_per_level: f64,
}

/// The burn-rate controller's tuning.
#[derive(Clone, Copy, Debug)]
pub struct LadderConfig {
    /// Tolerated shed fraction of offered load per window before a class
    /// steps down a level.
    pub shed_budget: f64,
    /// Waves per burn window.
    pub window_waves: usize,
    /// Consecutive clean (zero-shed) waves required per recovery step.
    pub recover_waves: usize,
    /// Deepest level (inclusive). Level semantics: 0 full service, 1
    /// capped spoofed batches, 2 cache/stop-set/atlas-only, 3 + stale
    /// atlas tolerated.
    pub max_level: u8,
}

/// A full admission plan: per-class policies (indexed by class), the
/// ladder, the wave width, and the atlas-freshness SLA.
#[derive(Clone, Debug)]
pub struct AdmissionPlan {
    /// Per-class policies, index = priority-class index (0 = top).
    pub classes: Vec<ClassPolicy>,
    /// Degradation-ladder tuning (shared across classes; state is
    /// per-class).
    pub ladder: LadderConfig,
    /// Arrivals per admission wave (the engine-barrier granularity).
    pub wave: usize,
    /// Refresh a source's atlas when older than this (virtual hours, in
    /// arrival time); suppressed for sources whose every user this wave
    /// sits at `max_level` — the "staler atlas" degradation rung.
    /// `None` disables SLA-driven refreshes.
    pub refresh_sla_hours: Option<f64>,
}

impl AdmissionPlan {
    /// The production-shaped default: gold with 2× headroom, silver with
    /// 1.5×, bronze with ~1.3× and a strong per-level boost (the class
    /// the ladder actually manages). Rates are per virtual hour and
    /// deliberately modest — the point of the model is that offered load
    /// can exceed them.
    pub fn standard() -> AdmissionPlan {
        AdmissionPlan {
            classes: vec![
                ClassPolicy {
                    name: "gold",
                    admit_per_hour: 24.0,
                    burst: 6.0,
                    queue_bound: 24,
                    boost_per_level: 1.0,
                },
                ClassPolicy {
                    name: "silver",
                    admit_per_hour: 30.0,
                    burst: 8.0,
                    queue_bound: 24,
                    boost_per_level: 1.0,
                },
                ClassPolicy {
                    name: "bronze",
                    admit_per_hour: 30.0,
                    burst: 10.0,
                    queue_bound: 24,
                    boost_per_level: 1.0,
                },
            ],
            ladder: LadderConfig {
                shed_budget: 0.05,
                window_waves: 3,
                recover_waves: 2,
                max_level: 3,
            },
            wave: 32,
            refresh_sla_hours: Some(24.0),
        }
    }
}

/// One ladder move, recorded at its wave barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelTransition {
    /// Wave index (0-based) whose barrier made the move.
    pub wave: usize,
    /// Class that moved.
    pub class: usize,
    /// Level before.
    pub from: u8,
    /// Level after.
    pub to: u8,
}

/// Per-class accounting of one open-loop run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassReport {
    /// Class name (from the plan).
    pub name: String,
    /// Arrivals offered.
    pub offered: u64,
    /// Arrivals admitted and measured.
    pub admitted: u64,
    /// Admitted measurements that completed (status `Complete`).
    pub complete: u64,
    /// Shed: token bucket empty.
    pub shed_rate: u64,
    /// Shed: admission queue full.
    pub shed_queue: u64,
    /// Shed: tenant quota/parallel limits.
    pub shed_quota: u64,
    /// Ladder step-downs.
    pub stepdowns: u64,
    /// Ladder recoveries.
    pub recoveries: u64,
    /// Deepest level reached.
    pub max_level: u8,
    /// Level at end of run (0 = fully recovered).
    pub final_level: u8,
    /// Admissions served at each level (index = level).
    pub served_by_level: [u64; 4],
    /// Peak admission-queue depth observed.
    pub queue_depth_peak: u64,
}

impl ClassReport {
    /// Total sheds across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate + self.shed_queue + self.shed_quota
    }

    /// Goodput as a fraction of offered load (admitted / offered; 1.0
    /// when nothing was offered).
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.admitted as f64 / self.offered as f64
        }
    }
}

/// What an open-loop run produced.
#[derive(Debug)]
pub struct OpenLoopOutcome {
    /// Per-arrival results, aligned with the input stream; `None` = shed.
    pub results: Vec<Option<RevtrResult>>,
    /// Per-arrival shed reasons, aligned with the input stream.
    pub sheds: Vec<Option<ShedReason>>,
    /// Per-class accounting, index = class index.
    pub classes: Vec<ClassReport>,
    /// Every ladder move, in wave order.
    pub transitions: Vec<LevelTransition>,
    /// Admission waves executed.
    pub waves: usize,
    /// Engine events (stages and spoofed-batch rounds) across all waves.
    pub events: u64,
    /// SLA-driven atlas refreshes performed at wave barriers.
    pub atlas_refreshes: u64,
    /// SLA-due refreshes suppressed because every user of the source
    /// this wave sat at the stale-atlas level.
    pub stale_atlas_skips: u64,
}

/// Mutable per-class controller state.
struct ClassState {
    tokens: f64,
    last_ms: f64,
    level: u8,
    clean_streak: usize,
    /// Ring of the last `window_waves` waves' (offered, shed) counts.
    window: Vec<(u64, u64)>,
    /// This wave's running counts.
    offered_wave: u64,
    shed_wave: u64,
    admitted_wave: usize,
}

impl<'s> RevtrService<'s> {
    /// Run an open-loop arrival stream through admission control and the
    /// engine's timed waves.
    ///
    /// `keys` maps tenant index → API key (tenant quotas ride on
    /// [`crate::users::UserDb`], charged at each arrival's own virtual
    /// time). `arrivals` must be sorted by `(vtime_ms, tenant)` — the
    /// order `revtr_loadgen::generate` emits. Admission, shedding, and
    /// every ladder move are pure functions of the stream and the plan,
    /// so the outcome's shed/degrade counters — and, each request being
    /// metered on its own, its measurement results — are invariant to
    /// `lc.workers`.
    ///
    /// Configuration errors (unknown tenant key, unregistered source)
    /// surface as `Err`; per-arrival resource exhaustion is shed, not an
    /// error.
    pub fn run_open_loop(
        &self,
        keys: &[ApiKey],
        arrivals: &[TimedRequest],
        plan: &AdmissionPlan,
        lc: LoopConfig,
    ) -> Result<OpenLoopOutcome, ServiceError> {
        // One pool for the whole stream: its workers park between waves.
        self.system()
            .with_pool(lc, |pool| self.open_loop_on(pool, keys, arrivals, plan))
    }

    fn open_loop_on(
        &self,
        pool: &mut WavePool<'_, '_, '_, 's>,
        keys: &[ApiKey],
        arrivals: &[TimedRequest],
        plan: &AdmissionPlan,
    ) -> Result<OpenLoopOutcome, ServiceError> {
        let tele = self.system().prober().telemetry();
        let start_hours = self.now_hours();
        let n_classes = plan.classes.len();
        let mut state: Vec<ClassState> = plan
            .classes
            .iter()
            .map(|c| ClassState {
                tokens: c.burst,
                last_ms: 0.0,
                level: 0,
                clean_streak: 0,
                window: Vec::new(),
                offered_wave: 0,
                shed_wave: 0,
                admitted_wave: 0,
            })
            .collect();
        let mut classes: Vec<ClassReport> = plan
            .classes
            .iter()
            .map(|c| ClassReport {
                name: c.name.to_string(),
                ..ClassReport::default()
            })
            .collect();
        let mut results: Vec<Option<RevtrResult>> = arrivals.iter().map(|_| None).collect();
        let mut sheds: Vec<Option<ShedReason>> = arrivals.iter().map(|_| None).collect();
        let mut transitions: Vec<LevelTransition> = Vec::new();
        let mut last_refresh: BTreeMap<Addr, f64> = BTreeMap::new();
        let mut atlas_refreshes = 0u64;
        let mut stale_atlas_skips = 0u64;
        let mut events = 0u64;
        let mut waves = 0usize;

        // Per-wave working sets, cleared — not rebuilt — every wave: the
        // admitted jobs, the arrival each one answers, and the sources
        // they use (ascending) with the minimum degradation level among a
        // source's users, for the refresh SLA.
        let mut jobs: Vec<TimedJob> = Vec::new();
        let mut job_slots: Vec<usize> = Vec::new();
        let mut wave_srcs: Vec<(Addr, u8)> = Vec::new();

        let wave_len = plan.wave.max(1);
        let mut base = 0usize;
        while base < arrivals.len() {
            let end = arrivals.len().min(base + wave_len);
            let chunk = &arrivals[base..end];
            for s in state.iter_mut() {
                s.offered_wave = 0;
                s.shed_wave = 0;
                s.admitted_wave = 0;
            }
            jobs.clear();
            job_slots.clear();
            wave_srcs.clear();
            // Admission pass: token bucket → bounded queue → tenant
            // quota, all in arrival order and arrival time.
            for (off, a) in chunk.iter().enumerate() {
                let i = base + off;
                if a.class >= n_classes {
                    return Err(ServiceError::User(UserError::UnknownUser));
                }
                let cp = &plan.classes[a.class];
                let st = &mut state[a.class];
                let rep = &mut classes[a.class];
                st.offered_wave += 1;
                rep.offered += 1;
                tele.counter_add(("loadgen.offered", cp.name), 1);
                let rate_ms =
                    cp.admit_per_hour * (1.0 + cp.boost_per_level * st.level as f64) / 3_600_000.0;
                st.tokens = (st.tokens + (a.vtime_ms - st.last_ms) * rate_ms).min(cp.burst);
                st.last_ms = a.vtime_ms;
                let shed = if st.tokens < 1.0 {
                    Some(ShedReason::RateLimited)
                } else if st.admitted_wave >= cp.queue_bound {
                    Some(ShedReason::QueueFull)
                } else {
                    let key = *keys
                        .get(a.tenant as usize)
                        .ok_or(ServiceError::User(UserError::UnknownUser))?;
                    let now = start_hours + a.vtime_ms / 3_600_000.0;
                    match self.users().admit(key, a.src, now) {
                        Ok(permit) => {
                            // The open loop holds no parallel slot across
                            // the wave — the wave width bounds real
                            // concurrency — so release it immediately;
                            // the daily-quota charge stays.
                            drop(permit);
                            None
                        }
                        Err(UserError::DailyQuotaExceeded) | Err(UserError::TooManyParallel) => {
                            Some(ShedReason::QuotaExceeded)
                        }
                        Err(e) => return Err(ServiceError::User(e)),
                    }
                };
                match shed {
                    Some(reason) => {
                        st.shed_wave += 1;
                        sheds[i] = Some(reason);
                        match reason {
                            ShedReason::RateLimited => rep.shed_rate += 1,
                            ShedReason::QueueFull => rep.shed_queue += 1,
                            ShedReason::QuotaExceeded => rep.shed_quota += 1,
                        }
                        tele.counter_add(("loadgen.shed", cp.name, reason.label()), 1);
                        tele.counter_add("loadgen.shed.total", 1);
                    }
                    None => {
                        st.tokens -= 1.0;
                        st.admitted_wave += 1;
                        rep.admitted += 1;
                        rep.served_by_level[(st.level as usize).min(3)] += 1;
                        rep.queue_depth_peak = rep.queue_depth_peak.max(st.admitted_wave as u64);
                        tele.counter_add(("loadgen.admitted", cp.name), 1);
                        tele.record(("loadgen.queue_depth", cp.name), st.admitted_wave as u64);
                        jobs.push(TimedJob {
                            dst: a.dst,
                            src: a.src,
                            arrival_ms: a.vtime_ms,
                            id: i,
                            degrade: st.level,
                        });
                        job_slots.push(i);
                        match wave_srcs.binary_search_by_key(&a.src, |&(src, _)| src) {
                            Ok(at) => wave_srcs[at].1 = wave_srcs[at].1.min(st.level),
                            Err(at) => wave_srcs.insert(at, (a.src, st.level)),
                        }
                    }
                }
            }

            // Admission-queue ledger: this wave's admitted jobs × control
            // footprint (no-op unless profiling; wave index as ordinal).
            tele.resource_record(
                "service.admission",
                waves as u64,
                (jobs.len() * std::mem::size_of::<TimedJob>()) as u64,
            );

            // Execute the admitted wave; each result goes straight to the
            // archive and the arrival it answers.
            if !jobs.is_empty() {
                events += pool
                    .run_wave_timed(&jobs, |job, r| {
                        let slot = job_slots[job];
                        let rep = &mut classes[arrivals[slot].class];
                        if r.status == Status::Complete {
                            rep.complete += 1;
                        }
                        self.store().push(&r);
                        results[slot] = Some(r);
                    })
                    .map_err(|_| ServiceError::WorkerPanicked)?;
            }

            // Wave barrier: burn-rate controller and the atlas-refresh
            // SLA, both in arrival time (deterministic by construction).
            for (ci, st) in state.iter_mut().enumerate() {
                let cp = &plan.classes[ci];
                let rep = &mut classes[ci];
                st.window.push((st.offered_wave, st.shed_wave));
                let excess = st.window.len().saturating_sub(plan.ladder.window_waves);
                if excess > 0 {
                    st.window.drain(..excess);
                }
                let (offered, shed) = st
                    .window
                    .iter()
                    .fold((0u64, 0u64), |(o, s), &(wo, ws)| (o + wo, s + ws));
                let burn = if offered == 0 {
                    0.0
                } else {
                    shed as f64 / offered as f64
                };
                if burn > plan.ladder.shed_budget && st.level < plan.ladder.max_level {
                    let from = st.level;
                    st.level += 1;
                    st.clean_streak = 0;
                    rep.stepdowns += 1;
                    rep.max_level = rep.max_level.max(st.level);
                    transitions.push(LevelTransition {
                        wave: waves,
                        class: ci,
                        from,
                        to: st.level,
                    });
                    tele.counter_add(("degrade.stepdown", cp.name), 1);
                    tele.counter_add("degrade.transitions.total", 1);
                } else if st.shed_wave == 0 {
                    st.clean_streak += 1;
                    if st.level > 0 && st.clean_streak >= plan.ladder.recover_waves {
                        let from = st.level;
                        st.level -= 1;
                        st.clean_streak = 0;
                        rep.recoveries += 1;
                        transitions.push(LevelTransition {
                            wave: waves,
                            class: ci,
                            from,
                            to: st.level,
                        });
                        tele.counter_add(("degrade.recover", cp.name), 1);
                        tele.counter_add("degrade.transitions.total", 1);
                    }
                } else {
                    st.clean_streak = 0;
                }
            }
            if let Some(sla) = plan.refresh_sla_hours {
                let wave_end_hours =
                    start_hours + chunk.last().map(|a| a.vtime_ms).unwrap_or(0.0) / 3_600_000.0;
                for &(src, min_level) in &wave_srcs {
                    let due =
                        wave_end_hours - last_refresh.get(&src).copied().unwrap_or(0.0) >= sla;
                    if !due {
                        continue;
                    }
                    if min_level >= plan.ladder.max_level {
                        // Every user of this source sits at the deepest
                        // level: tolerate the stale atlas (the ladder's
                        // last fidelity trade) instead of spending the
                        // refresh probes.
                        stale_atlas_skips += 1;
                        tele.counter_add("degrade.atlas_stale", 1);
                        continue;
                    }
                    self.system().refresh_atlas(src);
                    last_refresh.insert(src, wave_end_hours);
                    atlas_refreshes += 1;
                    tele.counter_add("loadgen.atlas_refresh", 1);
                }
            }
            waves += 1;
            base = end;
        }

        for (ci, st) in state.iter().enumerate() {
            classes[ci].final_level = st.level;
        }
        Ok(OpenLoopOutcome {
            results,
            sheds,
            classes,
            transitions,
            waves,
            events,
            atlas_refreshes,
            stale_atlas_skips,
        })
    }
}
