//! The revtr 2.0 *service* (Appx. A): users sign up, register their own
//! hosts as sources, and request reverse traceroutes under rate limits;
//! results are archived. Also demonstrates the NDT speed-test hook and a
//! parallel batch campaign.
//!
//! Run with: `cargo run --release --example on_demand_service`

use revtr::EngineConfig;
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Addr, Sim, SimConfig};
use revtr_probing::Prober;
use revtr_service::{RateLimits, RevtrService};
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

fn main() {
    let sim = Sim::build(SimConfig::tiny(), 99);
    let prober = Prober::new(&sim);
    let vps: Vec<_> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(&sim, 120, 5);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 50;
    let system = revtr::RevtrSystem::new(prober, cfg, vps.clone(), ingress, pool);
    let service = RevtrService::new(system);

    // A researcher signs up and registers a source they control. The
    // bootstrap checks the source receives RR packets and builds its
    // traceroute atlas (~15 minutes in the deployment; the simulator does
    // not model RIPE Atlas's scheduling delay, so here it is one
    // collection round of a few virtual seconds).
    let key = service.add_user(
        "researcher",
        RateLimits {
            max_parallel: 8,
            max_per_day: 10_000,
        },
    );
    let source = vps[0];
    service.add_source(key, source).expect("bootstrap succeeds");
    println!("registered source {source} for user 'researcher'");

    // On-demand requests (the REST/gRPC path).
    let dests: Vec<Addr> = sim
        .topo()
        .prefixes
        .iter()
        .filter_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a))
        })
        .take(12)
        .collect();
    let r = service
        .request(key, dests[0], source)
        .expect("request served");
    println!(
        "\non-demand: {} -> {}: {:?}, {} hops",
        r.dst,
        r.src,
        r.status,
        r.hops.len()
    );

    // A parallel batch campaign (topology-mapping use case, §3).
    let pairs: Vec<(Addr, Addr)> = dests.iter().map(|&d| (d, source)).collect();
    let results = service.batch(key, &pairs, 4).expect("campaign runs");
    let complete = results.iter().filter(|r| r.complete()).count();
    println!(
        "batch campaign: {}/{} complete over 4 workers",
        complete,
        results.len()
    );

    // The NDT hook: a speed-test client triggers a complementary reverse
    // traceroute to the serving M-Lab node.
    let ndt = service.on_ndt_test(dests[1], vps[1]).expect("load permits");
    println!(
        "NDT-triggered: client {} -> server {}: {:?}",
        ndt.dst, ndt.src, ndt.status
    );

    // The archive, as it would land in cloud storage.
    let stats = service.store().stats();
    println!(
        "\narchive: {} results ({} complete, {} aborted, {} unresponsive, {} with assumptions)",
        stats.total, stats.complete, stats.aborted, stats.unresponsive, stats.with_assumption
    );
    let json = service.store().export_json();
    println!("JSON export: {} bytes", json.len());
}
