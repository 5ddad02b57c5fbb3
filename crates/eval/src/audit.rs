//! Differential audit campaign: every stitched hop of a standard campaign
//! replayed against the oracle, reported as a per-evidence-kind soundness
//! table.
//!
//! This is the evaluation-facing face of the `revtr-audit` crate: it
//! audits the evidence every hop of every result of a [`CampaignRun`] carries
//! — the campaign the SLO gates judge — and aggregates the verdicts.
//! [`run`] is `revtr-cli audit`: the clean campaign with stop sets off and
//! then on, each run audited and read for one arm of the probe economy
//! (`economy::arm`) before it is dropped. Its gate — zero `Unsound`, zero
//! `PolicyViolation` on either arm, and the economy gate — is enforced by a
//! nonzero exit status and wired into `ci.sh`.

use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::economy::{self, EconomyReport};
use crate::render::Table;
use revtr_audit::{AuditSummary, Auditor};

/// How many failing findings to carry verbatim in the report (the summary
/// still counts all of them).
const MAX_REPORTED_FAILURES: usize = 20;

/// The audit report: the per-kind verdict table plus a bounded sample of
/// failing findings for diagnosis.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Aggregated verdicts.
    pub summary: AuditSummary,
    /// Up to `MAX_REPORTED_FAILURES` rendered failures.
    pub failures: Vec<String>,
}

impl AuditReport {
    /// The hard gate: zero `Unsound` and zero `PolicyViolation`.
    pub fn is_clean(&self) -> bool {
        self.summary.is_clean()
    }

    /// Render the per-evidence-kind soundness table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Stitch-trace audit: per-evidence-kind verdicts",
            &[
                "evidence kind",
                "sound",
                "assumed",
                "truly intradomain",
                "unsound",
                "policy viol.",
            ],
        );
        for (kind, tally) in &self.summary.per_kind {
            t.row(&[
                kind.clone(),
                tally.sound.to_string(),
                tally.by_assumption.to_string(),
                tally.truly_intradomain.to_string(),
                tally.unsound.to_string(),
                tally.policy_violations.to_string(),
            ]);
        }
        t
    }
}

/// Audit every hop of every result of a campaign run. With stop sets on this is
/// what proves reused backward evidence replays soundly: adopted hops
/// carry the original probe's provenance, so the auditor re-derives every
/// reused step against the oracle exactly like a fresh one.
pub fn judge(run: &CampaignRun) -> AuditReport {
    let auditor = Auditor::new(&run.ctx.sim, run.campaign.engine.registry_only_ip2as);
    let mut summary = AuditSummary::default();
    let mut failures = Vec::new();
    for (&(dst, src), r) in run.workload.iter().zip(&run.results) {
        let audit = auditor.audit(r);
        for f in audit.failures() {
            if failures.len() < MAX_REPORTED_FAILURES {
                failures.push(format!(
                    "{dst} -> {src} hop {} ({}): {:?}",
                    f.index, f.kind, f.verdict
                ));
            }
        }
        summary.add(&audit);
    }
    AuditReport { summary, failures }
}

/// The clean campaign audited with stop sets off and on, and the probe
/// economy of the pair.
#[derive(Clone, Debug)]
pub struct StopSetAudit {
    /// The stop-sets-off control's audit.
    pub off: AuditReport,
    /// The stop-sets-on arm's audit: reused evidence must replay soundly.
    pub on: AuditReport,
    /// The A/B of the same two runs.
    pub economy: EconomyReport,
}

impl StopSetAudit {
    /// Every gate: both audits clean and the economy gate passing.
    pub fn pass(&self) -> bool {
        self.off.is_clean() && self.on.is_clean() && self.economy.pass()
    }
}

/// Run the clean campaign with stop sets off, then on. Each run is judged
/// and dropped before the next is built, so two worlds are never alive at
/// once.
pub fn run(scale: Scale, seed: u64) -> StopSetAudit {
    let arm = |stop_sets: bool| {
        let run = Campaign::clean(scale, seed).with_stop_sets(stop_sets).run();
        (judge(&run), economy::arm(&run))
    };
    let (off, off_arm) = arm(false);
    let (on, on_arm) = arm(true);
    StopSetAudit {
        off,
        on,
        economy: EconomyReport {
            scale,
            seed,
            off: off_arm,
            on: on_arm,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_arms_audit_clean_and_pass_the_economy_gate() {
        let r = run(Scale::Smoke, 1);
        // Reused backward evidence must replay soundly: the adopted hops
        // carry the originating probe's provenance, and the auditor holds
        // them to the same oracle standard as fresh measurements.
        for (arm, report) in [("off", &r.off), ("on", &r.on)] {
            assert!(
                report.is_clean(),
                "stop-sets-{arm} audit gate failed:\n{}",
                report.failures.join("\n")
            );
            assert!(report.summary.results > 10, "campaign too small");
            assert_eq!(report.summary.dirty_results, 0);
            // Every campaign exercises at least the destination evidence
            // and the table renders one row per kind seen.
            assert!(report.summary.per_kind.contains_key("destination"));
            assert_eq!(report.table().len(), report.summary.per_kind.len());
        }
        let e = &r.economy;
        assert!(e.pass(), "economy gate failed:\n{}", e.render());
        assert!(r.pass());
        assert!(e.on.stopset_hits > 0, "on arm never hit the stop sets");
        assert_eq!(e.off.stopset_hits, 0, "off control touched the stop sets");
        assert_eq!(e.off.requests, e.on.requests, "workload moved between arms");
        for arm in [&e.off, &e.on] {
            assert!(arm.last_links > 0, "no symmetry step measured a last link");
            assert!(
                arm.last_link_pkts >= 2 * arm.last_links,
                "a last link is two TTLs"
            );
            assert!(arm.packets > arm.probes, "packets count every TTL probe");
        }
    }

    #[test]
    fn the_verdict_fails_when_an_audit_or_the_economy_gate_fails() {
        let passing = run(Scale::Smoke, 1);
        assert!(passing.pass());
        for stop_sets in [false, true] {
            let mut r = passing.clone();
            let report = if stop_sets { &mut r.on } else { &mut r.off };
            report
                .summary
                .per_kind
                .entry("destination".to_string())
                .or_default()
                .unsound += 1;
            assert!(!r.pass(), "an unsound hop passed (stop sets {stop_sets})");
        }
        // The on arm probing as much as the control cuts nothing.
        let mut r = passing.clone();
        r.economy.on.probes = r.economy.off.probes;
        assert!(r.off.is_clean() && r.on.is_clean() && !r.economy.pass());
        assert!(!r.pass(), "a failed economy gate passed");
    }
}
