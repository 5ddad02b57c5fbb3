//! Layer probes: unit costs from direct timed calls into a layer's public
//! functions, on inputs drawn from the workload. They run only in a traced
//! run, after the timed window, on a scratch simulator of the same seed —
//! so they can neither slow nor warm the rounds they explain.
//!
//! `count × unit cost` summed over the layers is what the benchmark can
//! attribute from outside; the rest of the wall (`core.residual_share`) is
//! what in-program tracing will have to explain.

use std::hint::black_box;
use std::time::Instant;

use revtr::RevtrSystem;
use revtr_netsim::sim::PktMeta;
use revtr_netsim::{Addr, AsId, Sim};
use revtr_probing::{CachedRr, MeasurementCache, Prober, RrKey};
use revtr_service::UserDb;
use revtr_telemetry::Telemetry;
use revtr_vpselect::IngressDb;

use crate::config;
use crate::harness::{Counts, Harness};
use crate::inputs::DestRow;
use crate::metrics::Report;

/// Pairs probed per unit cost: enough for a stable mean, few enough that
/// all probes together stay near a second.
pub const SAMPLE: usize = 256;

/// Mean nanoseconds per call of `f` over `n` calls, after one untimed pass
/// that warms whatever the calls share (route caches, FIBs).
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..n {
        f(i);
    }
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `(source, destination)` pairs for the probes: the workload's sources
/// against a stride through its destination hosts.
pub fn sample_pairs(table: &[DestRow], sources: &[Addr]) -> Vec<(Addr, Addr)> {
    let stride = (table.len() / SAMPLE).max(1);
    table
        .iter()
        .step_by(stride)
        .take(SAMPLE)
        .enumerate()
        .map(|(i, row)| (sources[i % sources.len()], row.hosts[i % row.hosts.len()]))
        .collect()
}

/// Unit costs of `netsim` and `probing`, and the nanoseconds they
/// attribute to the timed rounds given the packet and fill counts.
/// `pairs` are `(source, destination)` as the workload pings and
/// traceroutes them; `rr_pairs` are `(source, target)` as it RR-probes
/// them (for a reverse traceroute the targets are reverse hops, closer
/// than the destination and so cheaper to reach).
pub fn netsim_and_probing(
    sim: &Sim,
    vps: &[Addr],
    pairs: &[(Addr, Addr)],
    rr_pairs: &[(Addr, Addr)],
    counts: &Counts,
    rep: &mut Report,
) -> f64 {
    let n = pairs.len();
    let dst_as: Vec<AsId> = pairs
        .iter()
        .filter_map(|&(_, d)| Some(sim.topo().prefix(sim.host_prefix(d)?).owner))
        .collect();
    // Fresh salts: every call is a cache fill (one valley-free BFS).
    let t0 = Instant::now();
    for (i, &asn) in dst_as.iter().enumerate() {
        black_box(sim.routes(asn, 0xbe7c_0000 + i as u64));
    }
    let route_fill_ns = t0.elapsed().as_nanos() as f64 / dst_as.len().max(1) as f64;
    rep.set("netsim.route_fill_us", route_fill_ns / 1e3);

    let starts: Vec<_> = pairs.iter().map(|&(s, _)| sim.host_attach(s)).collect();
    let walk_ns = ns_per_call(n, |i| {
        if let Some(start) = starts[i] {
            black_box(sim.walk(start, pairs[i].1, &PktMeta::plain(pairs[i].0, 0)));
        }
    });
    rep.set("netsim.walk_ns", walk_ns);

    let prober = Prober::new(sim).with_cache_enabled(false);
    let ping_ns = ns_per_call(n, |i| {
        black_box(prober.ping(pairs[i].0, pairs[i].1));
    });
    let rr_ns = ns_per_call(rr_pairs.len(), |i| {
        black_box(prober.rr_ping(rr_pairs[i].0, rr_pairs[i].1));
    });
    let traceroute_ns = ns_per_call(n, |i| {
        black_box(prober.traceroute_fresh(pairs[i].1, pairs[i].0));
    });
    // One spoofed batch as the engine sends it: three VPs, one destination,
    // all claiming the source.
    let batch_ns = ns_per_call(rr_pairs.len(), |i| {
        let (src, dst) = rr_pairs[i];
        let batch: [(Addr, Addr); 3] = std::array::from_fn(|k| (vps[(i * 3 + k) % vps.len()], dst));
        black_box(prober.spoofed_rr_batch(&batch, src));
    });
    rep.set("probing.ping_ns", ping_ns);
    rep.set("probing.rr_ping_ns", rr_ns);
    rep.set("probing.traceroute_us", traceroute_ns / 1e3);
    rep.set("probing.spoof_batch_us", batch_ns / 1e3);

    let cache = MeasurementCache::new();
    let key = |i: usize| RrKey {
        sender: pairs[i].0,
        claimed: pairs[i].0,
        dst: pairs[i].1,
    };
    for i in 0..n {
        let entry = CachedRr {
            reply: None,
            nonce: i as u64,
            fwd_epoch: None,
            rep_epoch: None,
        };
        cache.put_rr(sim, key(i), entry);
    }
    let get_ns = ns_per_call(n, |i| {
        black_box(cache.get_rr(sim, key(i)));
    });
    rep.set("probing.cache.get_ns", get_ns);

    let p = &counts.pkts;
    route_fill_ns * counts.route_computes as f64
        + ping_ns * p.ping as f64
        + rr_ns * (p.rr + p.atlas_rr) as f64
        + traceroute_ns * p.traceroutes as f64
        + batch_ns / 3.0 * p.spoof_rr as f64
        + get_ns * (counts.cache.hits + counts.cache.misses) as f64
}

/// `vpselect.plan_ns`: one ingress-plan lookup per destination prefix.
pub fn vpselect_plan(ingress: &IngressDb, table: &[DestRow], rep: &mut Report) {
    let rows: Vec<&DestRow> = table.iter().take(SAMPLE).collect();
    let ns = ns_per_call(rows.len(), |i| {
        black_box(ingress.ingress_plan(rows[i].prefix));
    });
    rep.set("vpselect.plan_ns", ns);
}

/// `atlas.lookup_ns` over a registered source's own index, and
/// `atlas.refresh_ms` for that source. Returns the refresh cost in ns.
pub fn atlas(system: &RevtrSystem<'_>, src: Addr, rep: &mut Report) -> f64 {
    let atlas = system.atlas(src);
    let addrs: Vec<Addr> = atlas.indexed_addrs().map(|(a, _)| a).take(4096).collect();
    if !addrs.is_empty() {
        let ns = ns_per_call(addrs.len(), |i| {
            black_box(atlas.lookup(addrs[i]));
        });
        rep.set("atlas.lookup_ns", ns);
    }
    let t0 = Instant::now();
    system.refresh_atlas(src);
    let refresh_ns = t0.elapsed().as_nanos() as f64;
    rep.set("atlas.refresh_ms", refresh_ns / 1e6);
    refresh_ns
}

/// `service.admit_ns`: one admission decision. Returns it.
pub fn service_admit(src: Addr, rep: &mut Report) -> f64 {
    let users = UserDb::new();
    let key = users.add_user("probe", config::unlimited());
    users.add_source(key, src).expect("user exists");
    let ns = ns_per_call(10_000, |_| {
        black_box(users.admit(key, src, 0.0).is_ok());
    });
    rep.set("service.admit_ns", ns);
    ns
}

/// `telemetry.counter_add_ns` and `telemetry.record_ns` on an enabled
/// handle. Returns `(counter_add_ns, record_ns)`.
pub fn telemetry_units(rep: &mut Report) -> (f64, f64) {
    let tele = Telemetry::enabled();
    let add = ns_per_call(50_000, |_| tele.counter_add("bench.probe.counter", 1));
    let record = ns_per_call(50_000, |i| tele.record("bench.probe.histogram", i as u64));
    rep.set("telemetry.counter_add_ns", add);
    rep.set("telemetry.record_ns", record);
    (add, record)
}

/// The two shares: what `netsim` + `probing` unit costs leave unexplained
/// (the engine's own share, an estimate), and what all layer probes together
/// explain (`other_layers_ns` is whatever the workload attributes beyond
/// those two).
pub fn report_shares(h: &Harness, netsim_probing_ns: f64, other_layers_ns: f64, rep: &mut Report) {
    // Against CPU time, not wall: unit costs are single-thread costs, and
    // on the pool workloads two threads spend them at once. On the serial
    // workloads the two are the same to within a percent.
    let cpu_ns = h.cpu_ns as f64;
    rep.set("core.residual_share", 1.0 - netsim_probing_ns / cpu_ns);
    rep.set(
        "bench.attributed_share",
        (netsim_probing_ns + other_layers_ns) / cpu_ns,
    );
}
