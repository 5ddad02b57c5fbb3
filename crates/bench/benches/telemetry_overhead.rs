//! Telemetry overhead: the same warm-cache measurement hot path with the
//! tracing subsystem disabled (the default), enabled with full
//! journalling, and enabled with 1-in-8 journal sampling. The disabled
//! arm is the zero-cost baseline the subsystem promises; the enabled arms
//! price the span bookkeeping, registry updates, and journal writes.

use criterion::{criterion_group, criterion_main, Criterion};
use revtr::{EngineConfig, RevtrSystem};
use revtr_bench::BenchEnv;
use revtr_probing::{Prober, Telemetry, TelemetryConfig};
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
        // The journal's hard insert cap (8x the rendered cap) bounds its
        // memory across Criterion's unbounded iteration count.
        sys.measure(dst, src);
        g.bench_function(name, |b| b.iter(|| black_box(sys.measure(dst, src))));
    }
    g.finish();
}

criterion_group!(
    name = telemetry;
    config = Criterion::default().sample_size(10);
    targets = bench_telemetry_overhead,
);
criterion_main!(telemetry);
