//! Golden-file tests for the operations harness: the committed seed-42
//! reports under `tests/goldens/` pin the stage, cache and counter tables,
//! the ledgers, the campaign fingerprints and the verdicts; the smoke
//! journal pins the JSONL schema. Silent column drift or a renamed
//! counter fails loudly, naming the rows that moved, instead of rotting
//! EXPERIMENTS.md.
//!
//! One [`CampaignRun`] feeds every judge here. That is the neutrality
//! proof: the goldens were written by `revtr-cli report` in its own
//! process, and a run judged by the report and the auditor, in either
//! order, reproduces them byte for byte.
//!
//! Updating a golden is a deliberate act, one command a golden. The
//! report is `revtr-cli report`'s stdout less its first line, which names
//! the master seed the golden does not pin:
//! `revtr-cli report --scale smoke --seed 42 | tail -n +2 > crates/eval/tests/goldens/smoke42/report.txt`
//! (`--scale standard` for `standard42/report.txt`). The smoke journal
//! is the one export pinned as a file:
//! `revtr-cli report --scale smoke --seed 42 --out DIR`, then copy
//! `DIR/metrics_journal.jsonl` to `smoke42/`. Review the drift table the
//! failing test printed; DESIGN.md §15 *Baseline updates* has the procedure.

mod golden;

use revtr_eval::campaign::CampaignRun;
use revtr_eval::report::{default_policy, Report};
use revtr_eval::{audit, Campaign, Scale};

/// The rendered report pins the stage, cache and counter tables, the
/// ledger set, the cost-stack paths, every byte reading, the derived
/// values and the verdicts at once.
fn assert_report_matches(scale: &str, report: &Report) {
    golden::assert_matches(
        &format!("{scale}/report.txt"),
        &format!("{}\n", report.render()),
    );
}

fn smoke42() -> CampaignRun {
    Campaign::clean(Scale::Smoke, 42).run()
}

#[test]
fn one_smoke_seed42_run_reproduces_every_golden() {
    let run = smoke42();
    let audited = audit::judge(&run);
    assert!(audited.is_clean(), "{}", audited.failures.join("\n"));
    assert_eq!(audited.summary.results as usize, run.workload.len());

    // Judged after the audit, whose oracle lookups filled route caches in
    // the run's simulator: the report must not see that.
    let report = Report::new(&run, &default_policy(Scale::Smoke));
    assert!(report.is_clean(), "{}", report.render());
    assert_report_matches("smoke42", &report);
    // The JSONL field set itself, named first: a schema change should say
    // which key went missing, not just that 25 lines differ.
    let first = run.journal.first().expect("journal non-empty").to_json();
    for key in [
        "\"dst\":",
        "\"src\":",
        "\"status\":",
        "\"virtual_us\":",
        "\"spans\":",
    ] {
        assert!(first.contains(key), "journal line lost {key}: {first}");
    }
    let jsonl: String = run.journal.iter().map(|r| r.to_json() + "\n").collect();
    golden::assert_matches("smoke42/metrics_journal.jsonl", &jsonl);
}

#[test]
fn judging_a_run_twice_gives_equal_reports() {
    let run = smoke42();
    let policy = default_policy(Scale::Smoke);
    let judged = || {
        (
            Report::new(&run, &policy).render(),
            audit::judge(&run).table().render(),
        )
    };
    assert_eq!(judged(), judged());
}

/// The standard-scale golden (seed 42): the report is pinned byte for
/// byte, and the journal, whose JSONL no reader needs as a file, by its
/// fingerprint. Run by ci.sh in release mode (`--ignored`): a debug run
/// takes minutes.
#[test]
#[ignore = "standard scale; run in release via ci.sh"]
fn standard_seed42_exports_match_goldens() {
    let run = Campaign::clean(Scale::Standard, 42).run();
    assert_eq!(
        format!(
            "metrics {:#018x} journal {:#018x}",
            run.metrics_fingerprint, run.journal_fingerprint
        ),
        "metrics 0x1e0b1a84e0a65123 journal 0x2830366b87ed2732",
        "standard seed-42 campaign fingerprints drifted"
    );
    let report = Report::new(&run, &default_policy(Scale::Standard));
    assert_report_matches("standard42", &report);
}
