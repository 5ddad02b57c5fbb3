//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! revtr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! revtr-benchmark compare <DIR_A> <DIR_B>
//! ```

mod alloc;
mod compare;
mod config;
mod fixture;
mod harness;
mod host;
mod inputs;
mod metrics;
mod output;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::Harness;
use host::HostDescriptor;
use metrics::Report;
use output::RunSummary;
use workloads::{Checks, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Where result files and spans go unless `--out` says otherwise: inside
/// the benchmark's own directory, relative to the checkout root the
/// command runs from.
const DEFAULT_OUT: &str = "benchmark/out";

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    /// Tests only: run this many timed rounds. A run with it set reports
    /// nothing — no result file, no contract line.
    rounds: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
        rounds: None,
    };
    let mut out_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::find(value)
                    .ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value}; one of {}", names.join(", "))
                    })?
                    .name;
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => {
                args.out = PathBuf::from(value);
                out_given = true;
            }
            "--rounds" => args.rounds = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.rounds.is_some() && out_given {
        return Err(
            "--rounds is for tests: a run with it is not reported, so it takes no --out".into(),
        );
    }
    Ok(args)
}

fn run(args: &Args) -> std::io::Result<bool> {
    let workload = Workload::find(args.workload).expect("validated by parse_args");
    let host = HostDescriptor::read();
    let rounds = args
        .rounds
        .unwrap_or_else(|| workload.rounds_for(args.seconds));
    let mut h = Harness::new(args.trace, args.seed, rounds);
    let mut rep = Report::default();
    let mut checks = Checks::default();
    let counts = (workload.run)(&mut h, &mut rep, &mut checks);

    h.report_host_time(&mut rep);
    counts.report(&h, &mut rep);
    let loadavg_end = host::loadavg();
    rep.set("host.loadavg_start", host.loadavg_start);
    rep.set("host.loadavg_end", loadavg_end);
    checks.check("no span was dropped", h.spans.dropped == 0);

    let summary = RunSummary {
        workload: workload.name,
        seed: args.seed,
        trace: args.trace,
        rounds,
        ops_per_round: h.ops_per_round,
        host: &host,
        loadavg_end,
        pool_threads: rep.get("core.pool_threads").map_or(1, |t| t as usize),
        why: workload.why,
        metrics: if args.trace {
            rep.per_layer()
        } else {
            rep.end_to_end()
        },
        host_time: rep.host_time(),
        all: rep.all().collect(),
        checks: &checks,
        attempted: counts.attempted,
        failed: counts.failed,
        fingerprint: counts.fingerprint.unwrap_or(0),
        round_walls: &h.walls,
        round_cpu_ns: &h.round_cpu_ns,
    };
    if args.rounds.is_some() {
        println!("--rounds given: a test run, nothing is reported");
        return Ok(checks.all_ok());
    }
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}.seed{}.trace{}",
        workload.name, args.seed, args.trace as u8
    );
    summary.write_file(&args.out.join(format!("{stem}.json")))?;
    if args.trace {
        h.spans
            .write_jsonl(&args.out.join(format!("{}.spans.jsonl", workload.name)))?;
    }
    summary.print();
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("usage: revtr-benchmark compare <DIR_A> <DIR_B>");
            return ExitCode::from(2);
        };
        return match compare::run(Path::new(a), Path::new(b)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("revtr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("revtr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};
    use serde::Value;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&argv(
            "--workload campaign-batch --seed 9 --seconds 20 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            ("campaign-batch", 9, 20, true)
        );
        assert_eq!(args.out, PathBuf::from(DEFAULT_OUT));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(
            parse_args(&argv("--seed 1")).is_err(),
            "workload is required"
        );
        assert!(parse_args(&argv("--workload campaign-batch --trace 2")).is_err());
        assert!(parse_args(&argv("--workload campaign-batch --seconds 0")).is_err());
    }

    #[test]
    fn the_rounds_override_is_refused_in_reported_runs() {
        let test_run = parse_args(&argv("--workload bootstrap-cold --rounds 2")).expect("parses");
        assert_eq!(test_run.rounds, Some(2));
        let reported = parse_args(&argv("--workload bootstrap-cold --rounds 2 --out results"));
        assert!(reported.is_err());
    }

    #[test]
    fn seconds_fix_the_round_count() {
        let w = |name| Workload::find(name).expect("declared");
        assert_eq!(w("ondemand-serial").rounds_for(DEFAULT_SECONDS), 20);
        assert_eq!(w("service-openloop").rounds_for(DEFAULT_SECONDS), 11);
        assert_eq!(w("bootstrap-cold").rounds_for(1), 2, "never fewer than two");
    }

    /// `BENCHMARK.json` at the repo root and the tables in this package
    /// say the same thing, name for name and unit for unit.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<Vec<(String, String)>> {
            let Some(Value::Array(items)) = v.get(key) else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|item| {
                    item.as_object()
                        .expect("an object")
                        .iter()
                        .map(|(k, v)| {
                            let v = match v {
                                Value::Str(s) => s.clone(),
                                Value::F64(x) => format!("{x}"),
                                other => panic!("unexpected value {other:?}"),
                            };
                            (k.clone(), v)
                        })
                        .collect()
                })
                .collect()
        };
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());

        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| vec![pair("name", w.name), pair("why", w.why)])
            .collect();
        assert_eq!(list("workloads"), workloads);
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                vec![
                    pair("name", m.name),
                    pair("unit", m.unit),
                    pair("better", m.better.label()),
                    pair("bound", &format!("{}", m.bound)),
                ]
            })
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                vec![
                    pair("name", m.name),
                    pair("unit", m.unit),
                    pair("better", m.better.label()),
                ]
            })
            .collect();
        assert_eq!(list("per_layer"), layers);
        assert!(matches!(v.get("run_seconds"), Some(Value::U64(s)) if *s == DEFAULT_SECONDS));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    /// What a run prints carries every declared name with its unit.
    #[test]
    fn a_report_names_every_metric_with_its_unit() {
        let mut rep = Report::default();
        for m in END_TO_END {
            rep.set(m.name, 1.5);
        }
        let got: Vec<_> = rep.end_to_end().iter().map(|r| (r.name, r.unit)).collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, want);
        let got: Vec<_> = rep.per_layer().iter().map(|r| (r.name, r.unit)).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(
            got, want,
            "an unmeasured per-layer metric still appears, as 0"
        );
    }
}
