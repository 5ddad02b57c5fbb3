//! Differential audit campaign: every stitched hop of a standard campaign
//! replayed against the oracle, reported as a per-evidence-kind soundness
//! table.
//!
//! This is the evaluation-facing face of the `revtr-audit` crate: it
//! audits the evidence every hop of every result of a [`CampaignRun`] carries
//! — the campaign the SLO and economy gates judge — and aggregates the
//! verdicts. The report's gate — zero `Unsound`, zero `PolicyViolation` —
//! is enforced by `revtr-cli audit` (nonzero exit status) and wired into
//! `ci.sh`.

use crate::campaign::CampaignRun;
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
    /// Up to [`MAX_REPORTED_FAILURES`] rendered failures.
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
    let auditor = Auditor::new(
        &run.ctx.sim,
        run.campaign.engine_config().registry_only_ip2as,
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Scale};

    #[test]
    fn smoke_campaign_audits_clean() {
        let report = judge(&Campaign::clean(Scale::Smoke, 1).run());
        assert!(
            report.is_clean(),
            "audit gate failed:\n{}",
            report.failures.join("\n")
        );
        assert!(report.summary.results > 10, "campaign too small");
        assert_eq!(report.summary.dirty_results, 0);
        // Every campaign exercises at least the destination evidence and
        // the table renders one row per kind seen.
        assert!(report.summary.per_kind.contains_key("destination"));
        assert_eq!(report.table().len(), report.summary.per_kind.len());
    }

    #[test]
    fn smoke_campaign_with_stop_sets_audits_clean() {
        // Reused backward evidence must replay soundly: the adopted hops
        // carry the originating probe's provenance, and the auditor holds
        // them to the same oracle standard as fresh measurements.
        let report = judge(&Campaign::clean(Scale::Smoke, 1).with_stop_sets(true).run());
        assert!(
            report.is_clean(),
            "stop-sets-on audit gate failed:\n{}",
            report.failures.join("\n")
        );
        assert!(report.summary.results > 10, "campaign too small");
    }
}
