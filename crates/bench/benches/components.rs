//! Component micro-benches: the hot paths a revtr deployment pays for —
//! topology build, BGP route computation, forwarding walks, probe
//! primitives, atlas construction/lookup, ingress probing, and full
//! measurements under both engine configurations (the Table 4 ablation at
//! the per-measurement level).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use revtr::{EngineConfig, RevtrSystem};
use revtr_atlas::{select_atlas_probes, SourceAtlas};
use revtr_bench::BenchEnv;
use revtr_netsim::sim::PktMeta;
use revtr_netsim::{AsId, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::{ingress::probe_prefix, Heuristics};
use std::hint::black_box;

fn bench_topology_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_build");
    for (name, cfg) in [
        ("tiny", SimConfig::tiny()),
        ("era_2020", SimConfig::era_2020()),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(Sim::build(cfg.clone(), 1)))
        });
    }
    g.finish();
}

fn bench_bgp_routes(c: &mut Criterion) {
    let sim = Sim::build(SimConfig::era_2020(), 1);
    // A fresh salt every iteration: a cold fill of the core table (the
    // cache keeps them all; at ~1 KB each that is memory, not time).
    c.bench_function("bgp_routes_to_one_dst", |b| {
        let mut salt = 0u64;
        b.iter(|| {
            salt += 1;
            black_box(sim.routes(AsId(7), salt))
        })
    });
    // What a walk starting in a stub pays on top of a warm table: stage 2
    // then stage 3 for that one AS.
    let routes = sim.routes(AsId(7), 0);
    let leaves: Vec<AsId> = (sim.topo().ases.iter())
        .filter(|a| !a.has_customers())
        .map(|a| a.id)
        .collect();
    c.bench_function("route_leaf_resolve", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % leaves.len();
            black_box(routes.next(leaves[i]))
        })
    });
}

fn bench_forwarding_walk(c: &mut Criterion) {
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let vps = &sim.topo().vp_sites;
    let src = vps[0].host;
    let attach = sim.host_attach(src).expect("vp host");
    let dst = sim
        .host_addrs(sim.topo().prefixes[500].id)
        .next()
        .expect("hosts");
    // Warm the route caches, then measure the steady-state walk.
    sim.walk(attach, dst, &PktMeta::plain(src, 0));
    c.bench_function("fib_walk_warm", |b| {
        b.iter(|| black_box(sim.walk(attach, dst, &PktMeta::plain(src, 0))))
    });
}

fn bench_probe_primitives(c: &mut Criterion) {
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let vps = &sim.topo().vp_sites;
    let dst = sim
        .host_addrs(sim.topo().prefixes[321].id)
        .find(|&a| sim.behavior().host_rr_responsive(a))
        .expect("responsive host");
    // Warm caches.
    sim.rr_ping(vps[0].host, dst, 0);
    let mut g = c.benchmark_group("probes");
    g.bench_function("ping", |b| b.iter(|| black_box(sim.ping(vps[0].host, dst))));
    let mut nonce = 0u64;
    g.bench_function("rr_ping", |b| {
        b.iter(|| {
            nonce += 1;
            black_box(sim.rr_ping(vps[0].host, dst, nonce))
        })
    });
    g.bench_function("spoofed_rr_ping", |b| {
        b.iter(|| {
            nonce += 1;
            black_box(sim.rr_ping_from(vps[1].host, vps[0].host, dst, nonce))
        })
    });
    g.bench_function("traceroute", |b| {
        b.iter(|| black_box(sim.traceroute(vps[0].host, dst, 3)))
    });
    g.finish();
}

fn bench_atlas_build_and_lookup(c: &mut Criterion) {
    let env = BenchEnv::new();
    let sim = &env.ctx.sim;
    let prober = Prober::new(sim);
    let source = sim.topo().vp_sites[0].host;
    let probes = select_atlas_probes(sim, 30, 2);
    c.bench_function("atlas_build_30_traces_with_rr_atlas", |b| {
        b.iter(|| black_box(SourceAtlas::build(&prober, source, &probes, true)))
    });
    let atlas = SourceAtlas::build(&prober, source, &probes, true);
    let probe_addr = atlas
        .indexed_addrs()
        .next()
        .map(|(a, _)| a)
        .expect("atlas indexed something");
    c.bench_function("atlas_lookup", |b| {
        b.iter(|| black_box(atlas.lookup(probe_addr)))
    });
}

fn bench_ingress_probe_one_prefix(c: &mut Criterion) {
    let env = BenchEnv::new();
    let prober = Prober::new(&env.ctx.sim);
    let vps = env.ctx.vps();
    let p = env.ctx.sampled_prefixes()[0];
    c.bench_function("ingress_probe_one_prefix", |b| {
        b.iter(|| black_box(probe_prefix(&prober, &vps, p, Heuristics::FULL)))
    });
}

fn bench_measure_ablation(c: &mut Criterion) {
    let env = BenchEnv::new();
    let ingress = env.ingress();
    let (dst, src) = env.ctx.workload()[0];
    let mut g = c.benchmark_group("measure");
    for (name, cfg) in EngineConfig::table4_ladder() {
        let prober = Prober::new(&env.ctx.sim);
        let sys: RevtrSystem<'_> = env.ctx.build_system(prober, cfg, ingress.clone());
        sys.register_source(src);
        g.bench_function(name, |b| b.iter(|| black_box(sys.measure(dst, src))));
    }
    g.finish();
}

criterion_group!(
    name = components;
    config = Criterion::default().sample_size(10);
    targets =
        bench_topology_build,
        bench_bgp_routes,
        bench_forwarding_walk,
        bench_probe_primitives,
        bench_atlas_build_and_lookup,
        bench_ingress_probe_one_prefix,
        bench_measure_ablation,
);
criterion_main!(components);
