//! Telemetry overhead: the same warm-cache measurement hot path with the
//! tracing subsystem disabled (the default), enabled with full
//! journalling, and enabled with 1-in-8 journal sampling. The disabled
//! arm is the zero-cost baseline the subsystem promises; the enabled arms
//! price the span bookkeeping, registry updates, and journal writes.
//!
//! The `telemetry_unit` group prices the two unit costs underneath:
//! `finish_8_spans` is one whole request on an enabled handle (scope, 8
//! spans of 5 fields, the fold into the registry, the journal hand-off);
//! `offer_24k_records` pushes 24 576 prepared records (the sampled
//! requests of one `service-openloop` round) into a 4 096-record journal
//! and `readout_24k_records` does the same and then reads it out once
//! (fingerprint + sorted records) — their difference is the read-out.

use criterion::{criterion_group, criterion_main, Criterion};
use revtr::{EngineConfig, RevtrSystem};
use revtr_bench::BenchEnv;
use revtr_probing::{Prober, SpanCost, Telemetry, TelemetryConfig};
use revtr_telemetry::{Journal, RequestRecord};
use std::hint::black_box;

fn bench_telemetry_overhead(c: &mut Criterion) {
    let env = BenchEnv::new();
    let ingress = env.ingress();
    let (dst, src) = env.ctx.workload()[0];
    let arms: [(&str, Telemetry); 3] = [
        ("disabled", Telemetry::disabled()),
        ("enabled_full_journal", Telemetry::enabled()),
        (
            "enabled_sampled_journal",
            Telemetry::with_config(TelemetryConfig {
                journal_sample_every: 8,
                journal_cap: 256,
                ..TelemetryConfig::default()
            }),
        ),
    ];
    let mut g = c.benchmark_group("telemetry_measure");
    for (name, telemetry) in arms {
        let prober = Prober::new(&env.ctx.sim).with_telemetry(telemetry);
        let sys: RevtrSystem<'_> =
            env.ctx
                .build_system(prober, EngineConfig::revtr2(), ingress.clone());
        sys.register_source(src);
        // Warm the measurement cache so every iteration prices the same
        // (cache-served) probe work and the arms differ only in tracing.
        // The journal retains at most its cap, which bounds its memory
        // across Criterion's unbounded iteration count.
        sys.measure(dst, src);
        g.bench_function(name, |b| b.iter(|| black_box(sys.measure(dst, src))));
    }
    g.finish();
}

const STAGES: [&str; 8] = [
    "destination_probe",
    "atlas_intersection",
    "stopset_backward",
    "rr_step",
    "rr_direct",
    "rr_spoofed",
    "ts_step",
    "assume_symmetry",
];
const FIELDS: [(&str, u64); 5] = [
    ("probes", 3),
    ("pkts", 9),
    ("retries", 0),
    ("lost", 0),
    ("hit", 1),
];

fn bench_telemetry_units(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_unit");

    let telemetry = Telemetry::enabled();
    let mut dst = 0u32;
    g.bench_function("finish_8_spans", |b| {
        b.iter(|| {
            dst = (dst + 1) % 30_000;
            let mut req = telemetry.request(dst, 7, 0.0);
            for (i, stage) in STAGES.iter().enumerate() {
                let tok = req.enter(stage, i as f64);
                req.exit_costed(tok, i as f64 + 0.5, &FIELDS, SpanCost::ZERO);
            }
            req.finish("Complete", 9.0);
        })
    });

    // Zipf-like keys: a few hot (dst, src) pairs, so ordering ties (the
    // JSON tie-break) are as common as in the open-loop workload.
    let records: Vec<RequestRecord> = (0..24_576u32)
        .map(|i| {
            let hot = i % 4 != 0;
            let dst = if hot { i % 64 } else { i % 6000 };
            let mut rec = RequestRecord::new(dst, i % 8, "Complete", u64::from(i % 997) * 1000);
            for (j, stage) in STAGES.iter().enumerate() {
                rec.push_span(stage, 0, j as u64 * 100, 50, &FIELDS);
            }
            rec
        })
        .collect();
    let offer = || {
        let journal = Journal::new(4096);
        for rec in &records {
            journal.push(rec.clone());
        }
        journal
    };
    g.bench_function("offer_24k_records", |b| b.iter(|| black_box(offer().len())));
    g.bench_function("readout_24k_records", |b| {
        b.iter(|| {
            let journal = offer();
            black_box((journal.fingerprint(), journal.records_sorted().len()))
        })
    });
    g.finish();
}

criterion_group!(
    name = telemetry;
    config = Criterion::default().sample_size(10);
    targets = bench_telemetry_overhead, bench_telemetry_units,
);
criterion_main!(telemetry);
