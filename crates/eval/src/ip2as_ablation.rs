//! Appx. B.2: how much does better border IP-to-AS mapping change the Q5
//! intradomain/interdomain decision?
//!
//! The paper evaluates bdrmapit against its registry-priority mapping and
//! finds the differences marginal (0.07% of symmetry assumptions flip
//! intra→inter, 1.5% inter→intra; ±0.1% of trustworthy paths). We replay
//! the ablation with our two mappings: registry-only origins (naive) vs
//! origins corrected by interconnection data (the Arnold-et-al.-style
//! default). Each mapping is one campaign over the same workload: the
//! revtr 2.0 run and the [`registry_only`] preset's, zipped pair by pair.

use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::render::Table;
use crate::stats::fraction;
use revtr::{EngineConfig, RevtrResult, Status};

/// The Appx. B.2 preset: revtr 2.0 deciding Q5 on registry-only origins.
pub fn registry_only() -> EngineConfig {
    EngineConfig {
        registry_only_ip2as: true,
        ..EngineConfig::revtr2()
    }
}

/// Outcomes of the mapping ablation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ip2AsAblationReport {
    /// Measurements attempted.
    pub attempted: usize,
    /// Complete under the naive (registry-only) mapping.
    pub complete_naive: usize,
    /// Complete under the corrected mapping.
    pub complete_full: usize,
    /// Measurements complete under the corrected mapping but aborted under
    /// the naive one (naive misread an intradomain link as interdomain —
    /// lost coverage).
    pub naive_lost: usize,
    /// Measurements complete under naive but aborted under corrected
    /// (naive misread an interdomain link as intradomain — kept an
    /// untrustworthy path).
    pub naive_kept_suspect: usize,
}

impl Ip2AsAblationReport {
    /// Render the Appx. B.2 comparison.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Appendix B.2: IP-to-AS mapping ablation (registry-only vs corrected)",
            &["Metric", "Count", "Fraction of attempts"],
        );
        let frac = |n: usize| format!("{:.3}", fraction(n, self.attempted));
        t.row(&[
            "attempted".to_string(),
            self.attempted.to_string(),
            "-".into(),
        ]);
        t.row(&[
            "complete (registry-only)".to_string(),
            self.complete_naive.to_string(),
            frac(self.complete_naive),
        ]);
        t.row(&[
            "complete (corrected)".to_string(),
            self.complete_full.to_string(),
            frac(self.complete_full),
        ]);
        t.row(&[
            "coverage lost by naive mapping (intra misread as inter)".to_string(),
            self.naive_lost.to_string(),
            frac(self.naive_lost),
        ]);
        t.row(&[
            "suspect paths kept by naive mapping (inter misread as intra)".to_string(),
            self.naive_kept_suspect.to_string(),
            frac(self.naive_kept_suspect),
        ]);
        t
    }
}

/// Run the revtr 2.0 and registry-only campaigns, one at a time.
pub fn run(scale: Scale, seed: u64) -> Ip2AsAblationReport {
    let full = Campaign::clean(scale, seed).run().results;
    judge(
        &full,
        &Campaign::clean(scale, seed)
            .with_engine(registry_only())
            .run(),
    )
}

/// Zip the corrected mapping's results (the revtr 2.0 run's) with the
/// registry-only run's.
pub fn judge(full: &[RevtrResult], naive: &CampaignRun) -> Ip2AsAblationReport {
    let mut report = Ip2AsAblationReport {
        attempted: naive.workload.len(),
        ..Ip2AsAblationReport::default()
    };
    for (rn, rf) in naive.results.iter().zip(full) {
        report.complete_naive += usize::from(rn.complete());
        report.complete_full += usize::from(rf.complete());
        match (rn.status, rf.status) {
            (Status::AbortedInterdomain, Status::Complete) => report.naive_lost += 1,
            (Status::Complete, Status::AbortedInterdomain) => report.naive_kept_suspect += 1,
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrected_mapping_changes_few_decisions() {
        let report = run(Scale::Smoke, 1);
        assert_eq!(report.attempted, Scale::Smoke.eval_scale(1).n_revtrs);
        assert!(report.complete_full > 0);
        // The paper's conclusion: the mapping upgrade moves a small
        // fraction of decisions, not the bulk of coverage.
        let delta = report.naive_lost + report.naive_kept_suspect;
        assert!(
            delta * 3 <= report.attempted,
            "mapping flips dominate: {delta}/{}",
            report.attempted
        );
        assert_eq!(report.table().len(), 5);
    }
}
