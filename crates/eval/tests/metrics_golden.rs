//! Golden-file tests for the operations harness: the committed seed-42
//! outputs under `tests/goldens/` pin the TSV columns, the JSONL journal
//! schema, the campaign fingerprints and the byte ledgers, so silent column
//! drift or a renamed counter fails loudly instead of rotting
//! EXPERIMENTS.md.
//!
//! One [`CampaignRun`] feeds every judge here. That is the neutrality
//! proof: the goldens were written by `revtr-cli report` in its own
//! process, and a run judged by the report and the auditor, in either
//! order, reproduces them byte for byte.
//!
//! Updating a golden is a deliberate act: regenerate with
//! `revtr-cli report --scale smoke --seed 42 --out crates/eval/tests/goldens/smoke42 | tail -n +2 > crates/eval/tests/goldens/smoke42/report.txt`
//! (the dropped first line names the master seed, which the golden does
//! not pin; `--scale standard` for `standard42/`), delete the exports no
//! golden pins (`metrics.prom`, `trace.json`, the `.folded` files), then
//! review the diff. See DESIGN.md §8 for the baseline-update procedure.

use revtr_eval::campaign::CampaignRun;
use revtr_eval::report::{default_policy, Report};
use revtr_eval::{audit, Campaign, Scale};
use std::path::Path;

fn golden_dir(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn assert_matches_golden(dir: &Path, name: &str, actual: &str) {
    let path = dir.join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{name} drifted from its committed golden ({}); \
         regenerate deliberately if the change is intended",
        path.display()
    );
}

/// The stage, cache and counter TSVs and the rendered report — the
/// latter pins the ledger set, the cost-stack paths, every byte reading,
/// the derived values and the verdicts at once.
fn assert_report_matches(dir: &Path, report: &Report) {
    assert_matches_golden(dir, "metrics_stages.tsv", &report.stage_table().to_tsv());
    assert_matches_golden(dir, "metrics_cache.tsv", &report.cache_table().to_tsv());
    assert_matches_golden(
        dir,
        "metrics_counters.tsv",
        &report.counter_table().to_tsv(),
    );
    assert_matches_golden(dir, "report.txt", &format!("{}\n", report.render()));
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
    let dir = golden_dir("smoke42");
    assert_report_matches(&dir, &report);
    let jsonl: String = run.journal.iter().map(|r| r.to_json() + "\n").collect();
    assert_matches_golden(&dir, "metrics_journal.jsonl", &jsonl);
    // The JSONL field set itself, named: a schema change should say which
    // key went missing, not just that 25 lines differ.
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

/// The standard-scale golden (seed 42). The journal is ~2.7 MB, so the
/// TSVs and the report are pinned byte-for-byte and the journal by
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
        "metrics 0xba204dbd215c5bd3 journal 0x500f11c84349f1c4",
        "standard seed-42 campaign fingerprints drifted"
    );
    let report = Report::new(&run, &default_policy(Scale::Standard));
    assert_report_matches(&golden_dir("standard42"), &report);
}
