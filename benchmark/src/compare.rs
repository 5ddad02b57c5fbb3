//! `revtr-benchmark compare <DIR_A> <DIR_B>`: judge run set B against run
//! set A with the bounds of `metrics::END_TO_END` and `metrics::HOST_TIME`,
//! per workload and per metric — medians against the bound, "unresolved" where the spread of
//! the sets is wider than the bound, and bit-identity of the exact metrics
//! and fingerprints between runs that share a seed.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::metrics::{Better, EndToEnd, END_TO_END, HOST_TIME};
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;

/// Relative tolerance for exact metrics on the pool workloads, where which
/// worker wins a single-flight cache fill moves counts by a hair (measured:
/// per-op means within 0.1 %), and for the one tail among them, which moves
/// with single results (measured: 1.2 %).
const POOL_EXACT_TOLERANCE: f64 = 0.005;
const POOL_TAIL_TOLERANCE: f64 = 0.02;

/// One untraced run read back from its result file.
#[derive(Clone, Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub fingerprint: String,
    pub metrics: BTreeMap<String, f64>,
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Parse one result file; `None` for traced runs (their metrics are the
/// per-layer ones) and for anything that is not a result file.
pub fn parse_run(json: &str) -> Option<Run> {
    let v: Value = serde_json::from_str(json).ok()?;
    if !matches!(v.get("trace")?, Value::Bool(false)) {
        return None;
    }
    let metrics = v
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), number(m.get("value")?)?)))
        .collect();
    Some(Run {
        workload: text(v.get("workload")?)?.to_string(),
        seed: number(v.get("seed")?)? as u64,
        fingerprint: text(v.get("fingerprint")?)?.to_string(),
        metrics,
    })
}

fn read_dir(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let runs: Vec<Run> = paths
        .iter()
        .filter_map(|p| parse_run(&std::fs::read_to_string(p).ok()?))
        .collect();
    if runs.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(runs)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Every run of B reads better than every run of A.
    Better,
    /// The median worsened by more than the bound.
    Regression,
    /// The sets' own spread exceeds the bound: neither unchanged nor worse.
    Unresolved,
}

/// Judge one metric of one workload: `a` and `b` are the runs' values.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match m.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = |v: &[f64]| {
        if v.len() < 2 {
            return 0.0;
        }
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    let spread = spread(a).max(spread(b));
    let all_better = match m.better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let verdict = if all_better {
        Verdict::Better
    } else if spread > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

/// Exact metrics of runs that share a workload and seed must agree:
/// bit-for-bit, fingerprint included, on the serial workloads; within
/// [`POOL_EXACT_TOLERANCE`] on the pool ones. Returns the disagreements.
pub fn exact_disagreements(runs: &[&Run], pool: bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut by_seed: BTreeMap<u64, Vec<&Run>> = BTreeMap::new();
    for r in runs {
        by_seed.entry(r.seed).or_default().push(r);
    }
    for (seed, group) in by_seed {
        let first = group[0];
        for other in &group[1..] {
            // Under the pool with churn on, which request sees a route first
            // is up to the schedule, so only the serial workloads owe the
            // same outcomes on every run.
            if !pool && other.fingerprint != first.fingerprint {
                out.push(format!(
                    "seed {seed}: fingerprint {} vs {}",
                    first.fingerprint, other.fingerprint
                ));
            }
            for m in END_TO_END.iter().filter(|m| m.exact) {
                let (Some(&x), Some(&y)) = (first.metrics.get(m.name), other.metrics.get(m.name))
                else {
                    continue;
                };
                let same = if pool {
                    let tolerance = if m.name == "virtual_p99_s" {
                        POOL_TAIL_TOLERANCE
                    } else {
                        POOL_EXACT_TOLERANCE
                    };
                    (x - y).abs() <= tolerance * x.abs()
                } else {
                    x.to_bits() == y.to_bits()
                };
                if !same {
                    out.push(format!("seed {seed}: {} {x:?} vs {y:?}", m.name));
                }
            }
        }
    }
    out
}

/// Run the comparison and print the table. `Ok(true)` when nothing
/// regressed and every exact metric agreed.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (read_dir(dir_a)?, read_dir(dir_b)?);
    let mut pass = true;
    for w in WORKLOADS {
        let (wa, wb): (Vec<&Run>, Vec<&Run>) = (
            a.iter().filter(|r| r.workload == w.name).collect(),
            b.iter().filter(|r| r.workload == w.name).collect(),
        );
        if wa.is_empty() || wb.is_empty() {
            println!("{}: missing from one of the sets, skipped", w.name);
            continue;
        }
        println!("{} (A: {} runs, B: {} runs)", w.name, wa.len(), wb.len());
        println!(
            "  {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
            "metric", "median A", "median B", "worse by", "spread", "bound"
        );
        for m in END_TO_END.iter().chain(HOST_TIME) {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&wa), values(&wb));
            if va.is_empty() || vb.is_empty() {
                println!("  {:<20} missing", m.name);
                pass = false;
                continue;
            }
            let (verdict, worse_by, spread) = judge(m, &va, &vb);
            pass &= verdict != Verdict::Regression;
            println!(
                "  {:<20} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
                m.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let pool = matches!(w.name, "campaign-batch" | "service-openloop");
        let both: Vec<&Run> = wa.iter().chain(&wb).copied().collect();
        let diffs = exact_disagreements(&both, pool);
        if diffs.is_empty() {
            println!("  exact metrics and fingerprints agree between runs of one seed");
        }
        for d in &diffs {
            println!("  EXACT MISMATCH {d}");
        }
        pass &= diffs.is_empty();
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .chain(HOST_TIME)
            .find(|m| m.name == name)
            .expect("declared")
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression() {
        let m = metric("probes_per_op"); // lower is better
        let a = [10.0, 10.01, 10.02, 10.0, 10.01];
        let worse: Vec<f64> = a.iter().map(|x| x * (1.0 + 2.0 * m.bound)).collect();
        assert_eq!(judge(m, &a, &worse).0, Verdict::Regression);
        let within: Vec<f64> = a.iter().map(|x| x * (1.0 + 0.5 * m.bound)).collect();
        assert_eq!(judge(m, &a, &within).0, Verdict::Ok);
        let better: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(judge(m, &a, &better).0, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metric("bench.ops_per_s"); // higher is better
        let a = [100.0, 140.0, 70.0, 120.0, 90.0];
        let b = [95.0, 135.0, 75.0, 110.0, 85.0];
        assert_eq!(judge(m, &a, &b).0, Verdict::Unresolved);
    }

    #[test]
    fn direction_follows_the_metric() {
        let m = metric("bench.ops_per_s");
        let a = [100.0, 101.0, 100.5, 100.2, 100.8];
        let slower: Vec<f64> = a.iter().map(|x| x * (1.0 - 1.5 * m.bound)).collect();
        assert_eq!(judge(m, &a, &slower).0, Verdict::Regression);
    }

    #[test]
    fn exact_metrics_must_repeat_bit_for_bit_on_serial_workloads() {
        let run = |seed, probes: f64, fp: &str| Run {
            workload: "ondemand-serial".into(),
            seed,
            fingerprint: fp.into(),
            metrics: BTreeMap::from([("probes_per_op".to_string(), probes)]),
        };
        let (r1, r2, r3) = (run(1, 10.0, "aa"), run(1, 10.0, "aa"), run(2, 11.0, "bb"));
        assert!(exact_disagreements(&[&r1, &r2, &r3], false).is_empty());
        let off = run(1, 10.001, "aa");
        assert_eq!(exact_disagreements(&[&r1, &off], false).len(), 1);
        assert!(
            exact_disagreements(&[&r1, &off], true).is_empty(),
            "0.01 % is inside 0.5 %"
        );
        let other_fp = run(1, 10.0, "ab");
        assert_eq!(exact_disagreements(&[&r1, &other_fp], false).len(), 1);
        assert!(exact_disagreements(&[&r1, &other_fp], true).is_empty());
    }

    #[test]
    fn result_files_round_trip() {
        let json = r#"{"workload":"campaign-batch","seed":7,"trace":false,"fingerprint":"00ff","metrics":{"bench.ops_per_s":{"value":16500.25,"unit":"ops/s"}}}"#;
        let run = parse_run(json).expect("parses");
        assert_eq!((run.workload.as_str(), run.seed), ("campaign-batch", 7));
        assert_eq!(run.metrics["bench.ops_per_s"], 16500.25);
        assert!(
            parse_run(&json.replace("false", "true")).is_none(),
            "traced runs are skipped"
        );
    }
}
