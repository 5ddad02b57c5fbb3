//! `service-openloop`: an open loop in virtual time — the four-tenant
//! flash-crowd mix arrives on its own schedule at a fresh service with
//! telemetry on, and the admission layer sheds what it must. Op = one
//! arrival, served or shed.

use std::time::Instant;

use revtr_loadgen::generate;
use revtr_netsim::Sim;
use revtr_probing::Prober;
use revtr_service::{ApiKey, OpenLoopOutcome, RevtrService, TimedRequest};
use revtr_telemetry::Telemetry;

use super::{audit_round, report_warm_setup, warm_setup, Checks};
use crate::config::{self, OPENLOOP_HOURS, TOPOLOGY_SEED};
use crate::fixture::Fixture;
use crate::harness::{results_fingerprint, Counts, Harness, Mark};
use crate::metrics::Report;
use crate::spans::{ROOT, SETUP_ROUND};
use crate::{host, inputs, probes};

/// A fresh service for one round: four tenants, each on every source.
fn fresh_service<'s>(
    sim: &'s Sim,
    fx: &Fixture,
    telemetry: Telemetry,
) -> (RevtrService<'s>, Vec<ApiKey>) {
    let prober = Prober::new(sim).with_telemetry(telemetry);
    let service = RevtrService::new(fx.system(prober));
    let keys = config::tenant_mix()
        .iter()
        .map(|tenant| {
            let key = service.add_user(&tenant.name, config::unlimited());
            for &src in &fx.sources {
                service.add_source(key, src).expect("a VP site bootstraps");
            }
            key
        })
        .collect();
    (service, keys)
}

/// Sums over the timed rounds' open-loop outcomes.
#[derive(Default)]
struct Admission {
    offered: [u64; 3],
    admitted: [u64; 3],
    shed: [u64; 3],
    by_level: [u64; 4],
    waves: u64,
    transitions: u64,
    atlas_refreshes: u64,
    stale_atlas_skips: u64,
    /// Must-fire shape, every round: gold and silver shed nothing, bronze
    /// sheds, the ladder reaches at least level 2 and ends at level 0.
    shape_held: bool,
}

impl Admission {
    fn add(&mut self, o: &OpenLoopOutcome) {
        for (i, c) in o.classes.iter().enumerate() {
            self.offered[i] += c.offered;
            self.admitted[i] += c.admitted;
            self.shed[0] += c.shed_rate;
            self.shed[1] += c.shed_queue;
            self.shed[2] += c.shed_quota;
            for (level, n) in c.served_by_level.iter().enumerate() {
                self.by_level[level] += n;
            }
        }
        self.waves += o.waves as u64;
        self.transitions += o.transitions.len() as u64;
        self.atlas_refreshes += o.atlas_refreshes;
        self.stale_atlas_skips += o.stale_atlas_skips;
        let (gold, silver, bronze) = (&o.classes[0], &o.classes[1], &o.classes[2]);
        self.shape_held &= gold.shed_total() == 0
            && silver.shed_total() == 0
            && bronze.shed_total() > 0
            && bronze.max_level >= 2
            && o.classes.iter().all(|c| c.final_level == 0);
    }
}

pub fn run(h: &mut Harness, rep: &mut Report, checks: &mut Checks) -> Counts {
    let (sim, fx) = warm_setup(h, config::quiesced_sim_config());
    // Generating the arrival stream is set-up too; its time is added to the
    // one set-up measured above.
    let t0 = Instant::now();
    h.spans.enabled = h.trace;
    let span = h.spans.open("loadgen.generate", ROOT, SETUP_ROUND);
    let arrivals = generate(
        &config::tenant_mix(),
        fx.table.len(),
        OPENLOOP_HOURS,
        h.seed,
    );
    h.spans.close(span);
    h.spans.enabled = false;
    *h.setup_s.last_mut().expect("set-up ran") += t0.elapsed().as_secs_f64();
    let oracle = sim.oracle();
    h.reserve(0, 2);
    let plan = config::admission_plan();

    let mut counts = Counts::default();
    let mut admission = Admission {
        shape_held: true,
        ..Admission::default()
    };
    let mut journal_records = 0u64;
    let mut first_round: Option<(Vec<TimedRequest>, f64)> = None;
    for round in 0..h.total_rounds() {
        h.begin_prep(round);
        let requests = inputs::openloop_round(&arrivals, &fx.table, &fx.sources, h.seed, round);
        let telemetry = Telemetry::enabled();
        let (service, keys) = fresh_service(&sim, &fx, telemetry.clone());
        let system = service.system();
        let before = Mark::read(&sim, system.prober(), Some(system.stopset()));

        let w = h.open_round(round);
        let span = h.spans.open("service.run_open_loop", w.span, w.round);
        let outcome = service.run_open_loop(&keys, &requests, &plan, config::pool_loop());
        h.spans.close(span);
        let span = h.spans.open("telemetry.readout", w.span, w.round);
        let snapshot = telemetry.metrics();
        let journal_fp = telemetry.journal_fingerprint();
        h.spans.close(span);
        h.close_round(w, requests.len() as u64);
        std::hint::black_box((&snapshot, journal_fp));

        if !Harness::is_timed(round) {
            continue;
        }
        let after = Mark::read(&sim, system.prober(), Some(system.stopset()));
        counts.add_window(&before, &after);
        counts.attempted += requests.len() as u64;
        match outcome {
            Ok(outcome) => {
                counts.events += outcome.events;
                counts.shed += outcome.sheds.iter().flatten().count() as u64;
                for r in outcome.results.iter().flatten() {
                    counts.add_revtr(&oracle, r);
                }
                admission.add(&outcome);
                journal_records += telemetry.journal_records().len() as u64;
                if first_round.is_none() {
                    counts.fingerprint = Some(results_fingerprint(
                        outcome.results.iter().map(Option::as_ref),
                    ));
                    audit_round(&sim, outcome.results.iter().flatten(), rep, checks);
                    first_round = Some((requests, h.walls[0]));
                }
            }
            // A configuration error or a panicking wave fails the stream.
            Err(_) => counts.failed += requests.len() as u64,
        }
        counts.read_gauges(&sim, system);
    }

    checks.check(
        "every op accounted (served or shed)",
        counts.paths + counts.shed + counts.failed == counts.attempted && counts.attempted == h.ops,
    );
    checks.check("no stream failed", counts.failed == 0);
    checks.check(
        "must-fire shape: gold and silver shed 0, bronze sheds, ladder reaches L2 and ends at L0",
        admission.shape_held,
    );

    // The pool clamps itself to the host's cores.
    rep.set(
        "core.pool_threads",
        config::pool_loop().workers.min(host::cores()) as f64,
    );
    if h.trace {
        let ops = h.ops as f64;
        let share = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        rep.set("service.shed_ratio", counts.shed as f64 / ops);
        for (name, n) in [
            ("service.shed_per_kop.rate", admission.shed[0]),
            ("service.shed_per_kop.queue", admission.shed[1]),
            ("service.shed_per_kop.quota", admission.shed[2]),
        ] {
            rep.set(name, n as f64 / (ops / 1e3));
        }
        for (i, name) in [
            "service.goodput.gold",
            "service.goodput.silver",
            "service.goodput.bronze",
        ]
        .into_iter()
        .enumerate()
        {
            rep.set(name, share(admission.admitted[i], admission.offered[i]));
        }
        let served: u64 = admission.by_level.iter().sum();
        for (level, name) in [
            "service.level_share.0",
            "service.level_share.1",
            "service.level_share.2",
            "service.level_share.3",
        ]
        .into_iter()
        .enumerate()
        {
            rep.set(name, share(admission.by_level[level], served));
        }
        let rounds = h.rounds as f64;
        rep.set("service.waves", admission.waves as f64 / rounds);
        rep.set("service.transitions", admission.transitions as f64 / rounds);
        rep.set(
            "service.atlas_refreshes",
            admission.atlas_refreshes as f64 / rounds,
        );
        rep.set(
            "service.stale_atlas_skips",
            admission.stale_atlas_skips as f64 / rounds,
        );
        rep.set("telemetry.journal_records", journal_records as f64 / rounds);
        rep.set(
            "telemetry.readout_ms",
            h.spans.mean_ms("telemetry.readout", false),
        );
        let generate_ms = h.spans.mean_ms("loadgen.generate", true);
        rep.set("loadgen.generate_ms", generate_ms);
        rep.set(
            "loadgen.ns_per_arrival",
            generate_ms * 1e6 / arrivals.len() as f64,
        );
        report_warm_setup(h, &fx, rep);

        // Two replays of the first timed round: on the serial loop (what
        // the pool buys) and with telemetry off (what recording costs).
        let (requests, pool_wall) = first_round.expect("a timed round ran");
        let replay = |telemetry: Telemetry, lc| {
            let (service, keys) = fresh_service(&sim, &fx, telemetry);
            let t0 = Instant::now();
            let ok = service.run_open_loop(&keys, &requests, &plan, lc).is_ok();
            (t0.elapsed().as_secs_f64(), ok)
        };
        let (serial_wall, serial_ok) = replay(Telemetry::enabled(), config::serial_loop());
        let (off_wall, off_ok) = replay(Telemetry::disabled(), config::pool_loop());
        checks.check(
            "both replays of the first timed round ran",
            serial_ok && off_ok,
        );
        rep.set("core.pool_speedup", serial_wall / pool_wall);
        rep.set("telemetry.on_off_ratio", pool_wall / off_wall);

        let scratch = Sim::build(config::quiesced_sim_config(), TOPOLOGY_SEED);
        let sample = probes::sample_pairs(&fx.table, &fx.sources);
        let base = probes::netsim_and_probing(
            &scratch,
            &fx.vps,
            &sample,
            &counts.hop_sample,
            &counts,
            rep,
        );
        probes::vpselect_plan(&fx.ingress, &fx.table, rep);
        let (service, _) = fresh_service(&sim, &fx, Telemetry::disabled());
        let refresh_ns = probes::atlas(service.system(), fx.sources[0], rep);
        let admit_ns = probes::service_admit(fx.sources[0], rep);
        let (counter_ns, _) = probes::telemetry_units(rep);
        // Per arrival the admission layer makes one decision and adds at
        // least two counters (offered, then admitted or shed).
        let extra = refresh_ns * admission.atlas_refreshes as f64
            + admit_ns * (ops - counts.shed as f64)
            + counter_ns * 2.0 * ops;
        probes::report_shares(h, base, extra, rep);
    }
    counts
}
