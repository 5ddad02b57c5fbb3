//! The four workloads. Names are final: `BENCHMARK.json`, the output files
//! and `compare` key on them.

use std::collections::BTreeSet;
use std::time::Instant;

use revtr::RevtrResult;
use revtr_audit::{AuditSummary, Auditor};
use revtr_netsim::{Sim, SimConfig};

use crate::config::{self, TOPOLOGY_SEED};
use crate::fixture::Fixture;
use crate::harness::{Counts, Harness};
use crate::metrics::Report;
use crate::spans::{ROOT, SETUP_ROUND};

pub mod bootstrap_cold;
pub mod campaign_batch;
pub mod ondemand_serial;
pub mod service_openloop;

/// Set up the three warm workloads: build the Internet of `cfg` and the
/// full background state on it. Done once per run — one set-up costs over
/// four seconds, and the time the contract allows all runs together leaves
/// no room for repeating it; `bootstrap-cold`, whose set-up takes
/// milliseconds, repeats its own and reports the median.
pub fn warm_setup(h: &mut Harness, cfg: SimConfig) -> (Sim, Fixture) {
    h.setup(|spans| {
        let span = spans.open("netsim.build", ROOT, SETUP_ROUND);
        let sim = Sim::build(cfg, TOPOLOGY_SEED);
        spans.close(span);
        let fx = Fixture::build(&sim, spans);
        (sim, fx)
    })
}

/// A workload: its name, why it exists, and how long one of its rounds
/// takes at the commit that defined the benchmark on the 2-core reference
/// host — `--seconds` is turned into a *fixed* round count with it, so
/// that op totals and exact counts repeat from run to run.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub nominal_round_s: f64,
    pub run: fn(&mut Harness, &mut Report, &mut Checks) -> Counts,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bootstrap-cold",
        why: "cold background pipeline: sim build, BGP route fills, FIB walks, ingress survey, atlas build; no engine, service or telemetry",
        nominal_round_s: 1.0,
        run: bootstrap_cold::run,
    },
    Workload {
        name: "ondemand-serial",
        why: "closed loop, 1 client, one request at a time: measure() step driver, cold measurement cache, low sharing, users/store; no scheduler",
        nominal_round_s: 1.0,
        run: ondemand_serial::run,
    },
    Workload {
        name: "campaign-batch",
        why: "one run_campaign call per round on the pool: event queue, claim path, wave-barrier stop-set merges, striped caches; high sharing",
        nominal_round_s: 1.0,
        run: campaign_batch::run,
    },
    Workload {
        name: "service-openloop",
        why: "open loop in virtual time, 4-tenant flash crowd, cache-hot Zipf: admission buckets, ladder, timed waves, telemetry on; sheds by design",
        nominal_round_s: 1.8,
        run: service_openloop::run,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Timed rounds for a run of `seconds`: fixed by the arguments, never
    /// by how fast the rounds turn out to be.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_round_s).round() as usize).max(2)
    }
}

/// Named pass/fail checks behind the contract's `correct` flag.
#[derive(Default)]
pub struct Checks(pub Vec<(&'static str, bool)>);

impl Checks {
    pub fn check(&mut self, what: &'static str, ok: bool) {
        self.0.push((what, ok));
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|&(_, ok)| ok)
    }
}

/// The set-up metrics the three warm workloads share (traced run).
pub fn report_warm_setup(h: &Harness, fx: &Fixture, rep: &mut Report) {
    rep.set("netsim.build_ms", h.spans.mean_ms("netsim.build", true));
    rep.set(
        "vpselect.survey_s",
        h.spans.mean_ms("vpselect.survey", true) / 1e3,
    );
    rep.set("vpselect.ingress_found_ratio", fx.ingress_found_ratio);
}

/// Distinct unsound junctions tolerated in one audited round. At the
/// commit that defined the benchmark the auditor flags one or two places in
/// the whole topology — an atlas-suffix hop that follows an RR-revealed
/// private 10/8 alias — on every workload, churn on or off; every reverse
/// traceroute that crosses such a place repeats the same finding, so the
/// check counts places, not hops. A stitching bug shows up all over the
/// map. Policy violations get no tolerance.
const UNSOUND_PLACES_TOLERATED: usize = 8;

/// Audit a round's reverse traceroutes hop by hop against the oracle
/// (untimed). The auditor replays RR evidence under the epochs recorded in
/// it and checks everything else against the static topology, so it can
/// run after the round, whatever churn has done since.
pub fn audit_round<'r>(
    sim: &Sim,
    results: impl IntoIterator<Item = &'r RevtrResult>,
    rep: &mut Report,
    checks: &mut Checks,
) {
    let t0 = Instant::now();
    let auditor = Auditor::new(sim, config::engine_config().registry_only_ip2as);
    let mut summary = AuditSummary::default();
    let mut unsound_places = BTreeSet::new();
    for r in results {
        let audit = auditor.audit(r);
        for f in audit.failures() {
            unsound_places.insert(format!("{:?}", f.verdict));
        }
        summary.add(&audit);
    }
    rep.set("audit.check_ms", t0.elapsed().as_secs_f64() * 1e3);
    let hops: u64 = summary.per_kind.values().map(|k| k.total()).sum();
    rep.set("audit.hops_checked", hops as f64);
    rep.set("audit.unsound", summary.total_unsound() as f64);
    checks.check(
        "audit of the first timed round: 0 policy violations, unsound hops in at most 8 places",
        summary.results > 0
            && summary.total_policy_violations() == 0
            && unsound_places.len() <= UNSOUND_PLACES_TOLERATED,
    );
}
