//! What a run prints and writes: every metric by name with its unit, the
//! checks, the result file with the host descriptor, and the contract's
//! one-line JSON summary.

use std::io;
use std::path::Path;

use serde::Value;

use crate::host::HostDescriptor;
use crate::metrics::{unit_of, Row};
use crate::workloads::Checks;

/// Everything one run reports.
pub struct RunSummary<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub rounds: usize,
    pub ops_per_round: u64,
    pub host: &'a HostDescriptor,
    pub loadavg_end: f64,
    pub pool_threads: usize,
    pub why: &'a str,
    /// The end-to-end metrics of an untraced run, the per-layer metrics of
    /// a traced one: what the contract line carries.
    pub metrics: Vec<Row>,
    /// Raw throughput and CPU cost, shown by every run.
    pub host_time: Vec<Row>,
    /// Every value the run measured, for the result file.
    pub all: Vec<(&'static str, f64)>,
    pub checks: &'a Checks,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub round_walls: &'a [f64],
    pub round_cpu_ns: &'a [u64],
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl RunSummary<'_> {
    fn metrics_value(&self) -> Value {
        Value::Object(
            self.metrics
                .iter()
                .map(|row| {
                    let m = obj(vec![
                        ("value", Value::F64(row.value)),
                        ("unit", Value::Str(row.unit.into())),
                    ]);
                    (row.name.to_string(), m)
                })
                .collect(),
        )
    }

    /// The contract's summary: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        let v = obj(vec![
            ("correct", Value::Bool(self.checks.all_ok())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", self.metrics_value()),
        ]);
        serde_json::to_string(&v).expect("metric values are finite")
    }

    /// The result file: every value the run measured plus everything needed
    /// to read it later — host, commit, seed, round walls, fingerprint.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        let host = obj(vec![
            ("cores", Value::U64(self.host.cores as u64)),
            ("pool_threads", Value::U64(self.pool_threads as u64)),
            ("cpu_model", Value::Str(self.host.cpu_model.clone())),
            ("rustc", Value::Str(self.host.rustc.clone())),
            ("commit", Value::Str(self.host.commit.clone())),
            ("loadavg_start", Value::F64(self.host.loadavg_start)),
            ("loadavg_end", Value::F64(self.loadavg_end)),
        ]);
        let v = obj(vec![
            ("workload", Value::Str(self.workload.into())),
            ("seed", Value::U64(self.seed)),
            ("trace", Value::Bool(self.trace)),
            ("rounds", Value::U64(self.rounds as u64)),
            ("ops_per_round", Value::U64(self.ops_per_round)),
            ("host", host),
            ("correct", Value::Bool(self.checks.all_ok())),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "fingerprint",
                Value::Str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "round_walls_s",
                Value::Array(self.round_walls.iter().map(|&w| Value::F64(w)).collect()),
            ),
            (
                "round_cpu_s",
                Value::Array(
                    self.round_cpu_ns
                        .iter()
                        .map(|&ns| Value::F64(ns as f64 / 1e9))
                        .collect(),
                ),
            ),
            (
                "metrics",
                Value::Object(
                    self.all
                        .iter()
                        .map(|&(name, value)| {
                            let unit = unit_of(name).expect("declared metric");
                            let m = obj(vec![
                                ("value", Value::F64(value)),
                                ("unit", Value::Str(unit.into())),
                            ]);
                            (name.to_string(), m)
                        })
                        .collect(),
                ),
            ),
        ]);
        let text = serde_json::to_string(&v).expect("metric values are finite");
        std::fs::write(path, text + "\n")
    }

    /// The human-readable report; the contract line goes last.
    pub fn print(&self) {
        let h = self.host;
        println!(
            "revtr-benchmark workload={} seed={} trace={} rounds={} ops/round={}",
            self.workload, self.seed, self.trace as u8, self.rounds, self.ops_per_round
        );
        println!(
            "host: cores={} pool_threads={} cpu=\"{}\" loadavg={:.2}->{:.2} {} commit={}",
            h.cores,
            self.pool_threads,
            h.cpu_model,
            h.loadavg_start,
            self.loadavg_end,
            h.rustc,
            h.commit
        );
        println!("why: {}", self.why);
        let kind = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("--- {kind} metrics (raw: scaled by their own op count only) ---");
        for row in &self.metrics {
            println!(
                "{:<40} {:>16.6} {:<8} ({} is better)",
                row.name,
                row.value,
                row.unit,
                row.better.label()
            );
        }
        if !self.trace {
            println!("--- host time, fastest round (no bound: see README) ---");
            for row in &self.host_time {
                println!("{:<40} {:>16.6} {}", row.name, row.value, row.unit);
            }
        }
        println!("--- checks ---");
        for &(what, ok) in &self.checks.0 {
            println!("{} {what}", if ok { "ok  " } else { "FAIL" });
        }
        println!(
            "fingerprint of the first timed round: {:016x}",
            self.fingerprint
        );
        println!("{}", self.contract_line());
    }
}
