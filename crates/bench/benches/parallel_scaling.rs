//! Parallel scaling of the measurement engine and its concurrency
//! primitives: the campaign loop at 1/2/4/8 workers over one shared
//! system (striped caches, single-flight route fills, per-thread clock),
//! plus micro-benches of the primitives themselves under contention.
//!
//! Wall-clock scaling is hardware-dependent — on a single-core container
//! the worker counts mostly measure the *overhead* of the concurrency
//! layer (lock convoys, duplicated compute), which is exactly what the
//! striping/single-flight work eliminates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revtr::{EngineConfig, LoopConfig};
use revtr_bench::BenchEnv;
use revtr_netsim::{Sim, SimConfig, StripedMap};
use revtr_probing::{Clock, Prober};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One `run_campaign` over the whole workload per iteration, `workers`
/// wide, against one shared system (steady state: caches warm after the
/// first iteration).
fn bench_campaign_workers(c: &mut Criterion) {
    let env = BenchEnv::new();
    let ingress = env.ingress();
    let prober = env.ctx.prober();
    let system = env
        .ctx
        .build_system(prober, EngineConfig::revtr2(), ingress);
    let workload = env.ctx.workload();
    for &(_, src) in &workload {
        system.register_source(src);
    }

    let mut g = c.benchmark_group("campaign_workers");
    g.sample_size(10);
    for workers in WORKER_COUNTS {
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| black_box(system.run_campaign(&workload, LoopConfig { workers })))
            },
        );
    }
    g.finish();
}

/// Single-flight route fills: N threads all ask for the same fresh
/// (dst, salt) — exactly one route computation (a salted-metric Dijkstra
/// over the transit core) runs per iteration, the rest wait on the flight.
fn bench_route_cache_single_flight(c: &mut Criterion) {
    let sim = Sim::build(SimConfig::tiny(), 1);
    let dst = sim.topo().ases[0].id;
    let mut g = c.benchmark_group("route_fill_single_flight");
    for workers in WORKER_COUNTS {
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                let salt = AtomicU64::new(0x1000);
                b.iter(|| {
                    let s = salt.fetch_add(1, Ordering::Relaxed);
                    std::thread::scope(|scope| {
                        for _ in 0..workers {
                            scope.spawn(|| {
                                black_box(sim.routes(dst, s));
                            });
                        }
                    });
                })
            },
        );
    }
    g.finish();
}

/// Warm-cache lookups through the striped map under reader contention.
fn bench_striped_map_reads(c: &mut Criterion) {
    let map: Arc<StripedMap<u64, u64>> = Arc::new(StripedMap::new());
    for k in 0..1024u64 {
        map.insert(k, k * 3);
    }
    let mut g = c.benchmark_group("striped_map_read_1k");
    for workers in WORKER_COUNTS {
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for t in 0..workers {
                            let map = &map;
                            scope.spawn(move || {
                                let mut acc = 0u64;
                                for k in 0..1024u64 {
                                    acc ^= map.get(&(k.wrapping_mul(t as u64 + 1) & 1023)).unwrap();
                                }
                                black_box(acc);
                            });
                        }
                    });
                })
            },
        );
    }
    g.finish();
}

/// The per-probe clock charge under contention: per-thread padded slots
/// mean no shared cache line on this path.
fn bench_clock_advance(c: &mut Criterion) {
    let sim = Sim::build(SimConfig::tiny(), 1);
    let clock = Clock::new();
    let mut g = c.benchmark_group("clock_advance_4k");
    for workers in WORKER_COUNTS {
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                let per_thread = 4096 / workers;
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..workers {
                            scope.spawn(|| {
                                for _ in 0..per_thread {
                                    clock.advance(0.125, &sim);
                                }
                            });
                        }
                    });
                    black_box(clock.now_ms());
                })
            },
        );
    }
    g.finish();
}

/// Counter traffic from many threads: padded per-category lines.
fn bench_counter_bumps(c: &mut Criterion) {
    let sim = Sim::build(SimConfig::tiny(), 1);
    let prober = Prober::new(&sim);
    let vp = sim.topo().vp_sites[0].host;
    let dst = sim.topo().vp_sites[1].host;
    c.bench_function("probe_ping_hot_path", |b| {
        b.iter(|| black_box(prober.ping(vp, dst)))
    });
}

criterion_group!(
    benches,
    bench_campaign_workers,
    bench_route_cache_single_flight,
    bench_striped_map_reads,
    bench_clock_advance,
    bench_counter_bumps
);
criterion_main!(benches);
