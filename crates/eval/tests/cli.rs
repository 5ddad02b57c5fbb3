//! `revtr-cli` flag-handling contract: every subcommand validates its
//! flags against its allow-list and exits 2 on anything unexpected — and
//! the subcommands ci.sh and the docs invoke are the ones that exist.

use std::process::{Command, Stdio};

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_revtr-cli"))
        .args(args)
        .output()
        .expect("spawn revtr-cli")
}

fn exit_code(args: &[&str]) -> i32 {
    run(args).status.code().expect("exit code")
}

const COMMANDS: [&str; 7] = [
    "topology",
    "measure",
    "reproduce",
    "audit",
    "report",
    "scenario",
    "loadtest",
];

#[test]
fn every_subcommand_rejects_unknown_flags() {
    for cmd in COMMANDS {
        let out = run(&[cmd, "--bogus", "1"]);
        assert_eq!(out.status.code(), Some(2), "{cmd} accepted an unknown flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag --bogus"),
            "{cmd} stderr missing diagnostic: {stderr}"
        );
    }
}

#[test]
fn every_subcommand_rejects_a_flag_missing_its_value() {
    for cmd in COMMANDS {
        // The first allowed flag of each command, valueless.
        let flag = match cmd {
            "topology" | "measure" => "--era",
            _ => "--scale",
        };
        assert_eq!(exit_code(&[cmd, flag]), 2, "{cmd} {flag} without value");
    }
}

#[test]
fn bad_flag_values_exit_two() {
    assert_eq!(exit_code(&["topology", "--era", "1999"]), 2);
    assert_eq!(exit_code(&["topology", "--seed", "abc"]), 2);
    assert_eq!(exit_code(&["reproduce", "--scale", "huge"]), 2);
    assert_eq!(exit_code(&["audit", "--seed", "-1"]), 2);
    assert_eq!(exit_code(&["report", "--scale", "huge"]), 2);
    assert_eq!(exit_code(&["measure", "--engine", "3"]), 2);
    // `audit` runs both stop-set arms: there is no arm to pick.
    assert_eq!(exit_code(&["audit", "--stop-sets", "on"]), 2);
    assert_eq!(exit_code(&["loadtest", "--pattern", "tsunami"]), 2);
    // The stream length is a constant: `--duration` is an unknown flag.
    assert_eq!(exit_code(&["loadtest", "--duration", "18"]), 2);
    assert_eq!(exit_code(&["loadtest", "--scale", "huge"]), 2);
    // Scale names are exact everywhere: no silent smoke fallback.
    for cmd in ["report", "audit", "scenario", "loadtest", "reproduce"] {
        assert_eq!(exit_code(&[cmd, "--scale", "Standard"]), 2, "{cmd}");
    }
}

#[test]
fn no_arguments_or_unknown_command_prints_usage() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    assert_eq!(exit_code(&["frobnicate"]), 2);
}

/// The subcommands `usage()` lists, in order.
fn listed_subcommands() -> Vec<String> {
    let out = run(&[]);
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("revtr-cli "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

#[test]
fn usage_lists_exactly_the_subcommands_and_retired_ones_are_unknown() {
    assert_eq!(listed_subcommands(), COMMANDS);
    for retired in [
        "bench-report",
        "bench-compare",
        "concurrency-smoke",
        "metrics",
        "profile",
        "monitor",
        "economy",
        "robustness",
    ] {
        let out = run(&[retired]);
        assert_eq!(out.status.code(), Some(2), "{retired} still runs");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

/// Every word that follows `revtr-cli` in `text` (after an optional `--`
/// and line continuation; `a|b|c` counts as three).
fn named_subcommands(text: &str) -> Vec<String> {
    let mut named = Vec::new();
    for after in text.split("revtr-cli").skip(1) {
        let after = after.strip_prefix(" --").unwrap_or(after);
        let after = after.trim_start_matches([' ', '\\', '\n']);
        let end = after
            .find(|c: char| !(c.is_ascii_lowercase() || c == '-' || c == '|'))
            .unwrap_or(after.len());
        named.extend(
            after[..end]
                .split('|')
                .filter(|w| !w.is_empty())
                .map(str::to_string),
        );
    }
    named
}

#[test]
fn ci_and_docs_name_only_subcommands_that_exist() {
    // In these files the word after `revtr-cli` is always a subcommand
    // (prose says "the subcommand exits nonzero"), so a gate or a recipe
    // cannot outlive the subcommand it calls.
    let listed = listed_subcommands();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for file in [
        "ci.sh",
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("cannot read {file}: {e}"));
        let named = named_subcommands(&text);
        assert!(!named.is_empty(), "{file} names no subcommand");
        for sub in named {
            assert!(
                listed.contains(&sub),
                "{file} names `revtr-cli {sub}`, which usage() does not list"
            );
        }
    }
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    // `revtr-cli report | head -1`: the reader is gone before the report
    // is written. The command must not panic on the broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_revtr-cli"))
        .args(["report", "--scale", "smoke", "--seed", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn revtr-cli");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for revtr-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn report_smoke_sections_exports_and_exit_codes() {
    let dir = std::env::temp_dir().join(format!("revtr-cli-report-{}", std::process::id()));
    let out = run(&[
        "report",
        "--scale",
        "smoke",
        "--seed",
        "42",
        "--out",
        dir.to_str().expect("utf8 temp dir"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "clean report failed: {stdout}");
    for section in [
        "(master seed 42)\nrequests: ",
        "== Stages: ",
        "== Cache: ",
        "== Counters: ",
        "span tree (",
        "profile: ",
        "fingerprints: metrics",
        "== Bytes: ",
        "== Cost stacks: ",
        "== Headroom: ",
        "== Skew: ",
        "== Derived values ==",
        "== SLO verdicts ==",
        "watchdog: 0 flagged",
        "slo gate: PASS (0 of 11 rules firing)",
    ] {
        assert!(stdout.contains(section), "{section:?} missing: {stdout}");
    }
    // One directory, one trace: span lanes plus the ledgers' counter tracks.
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect(name);
    let trace = read("trace.json");
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""));
    assert!(trace.contains("\"ph\":\"C\""), "counter tracks missing");
    assert!(!dir.join("profile_trace.json").exists());
    assert!(read("metrics.prom").contains("revtr_request_count"));
    for folded in ["profile_virtual_us.folded", "profile_probe_bytes.folded"] {
        let folded = read(folded);
        assert!(!folded.is_empty());
        assert!(folded.lines().all(|l| l.starts_with("request")));
    }
    assert_eq!(read("metrics_journal.jsonl").lines().count(), 25);
    for tsv in ["metrics_stages", "metrics_cache", "metrics_counters"] {
        assert!(read(&format!("{tsv}.tsv")).lines().count() > 1, "{tsv}");
    }
    std::fs::remove_dir_all(&dir).ok();

    let out = run(&[
        "report", "--scale", "smoke", "--seed", "1", "--loss", "0.3", "--budget", "1",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "faulted report passed: {stdout}"
    );
    assert!(stdout.contains("slo gate: FAIL"), "stdout: {stdout}");
    assert!(stdout.contains("coverage-floor"), "stdout: {stdout}");
    assert!(stdout.contains("stuck-requests"), "stdout: {stdout}");
}

#[test]
fn report_rejects_bad_and_retired_flags() {
    assert_eq!(exit_code(&["report", "--loss", "1.5"]), 2);
    assert_eq!(exit_code(&["report", "--budget", "0"]), 2);
    assert_eq!(exit_code(&["report", "--severity", "0.5"]), 2);
    assert_eq!(exit_code(&["report", "--scenario", "tsunami"]), 2);
    // The campaign preset picks the deadline.
    assert_eq!(exit_code(&["report", "--deadline-ms", "30"]), 2);
}

#[test]
fn loadtest_smoke_flash_crowd_gates_and_exports() {
    let dir = std::env::temp_dir().join(format!("revtr-cli-loadtest-{}", std::process::id()));
    let out = run(&[
        "loadtest",
        "--scale",
        "smoke",
        "--seed",
        "1",
        "--pattern",
        "flash-crowd",
        "--out",
        dir.to_str().expect("utf8 temp dir"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "loadtest failed: {stdout}");
    assert!(stdout.contains("loadtest gate: PASS"), "stdout: {stdout}");
    let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace export");
    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\""));
    let curve = std::fs::read_to_string(dir.join("goodput_curve.tsv")).expect("curve export");
    assert!(curve.lines().count() > 1, "curve: {curve}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_runs_clean_with_valid_flags() {
    let out = run(&["topology", "--era", "tiny", "--seed", "3"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VP sites"), "stdout: {stdout}");
}
