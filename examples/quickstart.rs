//! Quickstart: build a simulated Internet, stand up revtr 2.0, and measure
//! one reverse path — the "measure the path *back* from a host you don't
//! control" pitch of the paper, end to end.
//!
//! Run with: `cargo run --release --example quickstart`

use revtr::{EngineConfig, HopMethod, RevtrSystem};
use revtr_atlas::select_atlas_probes;
use revtr_netsim::{Sim, SimConfig};
use revtr_probing::Prober;
use revtr_vpselect::{Heuristics, IngressDb};
use std::sync::Arc;

fn main() {
    // 1. A small deterministic Internet: ~77 ASes, valley-free BGP,
    //    routers with realistic Record Route stamping quirks.
    let sim = Sim::build(SimConfig::tiny(), 2022);
    println!("simulated Internet: {sim:?}\n");

    // 2. The measurement substrate and the background services: the
    //    ingress database (which vantage point is closest to each prefix's
    //    ingresses, §4.3) and a pool of Atlas-like probes for traceroute
    //    atlases (Q1).
    let prober = Prober::new(&sim);
    let vps: Vec<_> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    println!(
        "ingress survey: {} prefixes from {} vantage points, {} with an ingress, {} B kept\n",
        prefixes.len(),
        vps.len(),
        ingress
            .prefixes()
            .filter(|(_, info)| !info.ingresses.is_empty())
            .count(),
        ingress.approx_bytes(),
    );
    let pool = select_atlas_probes(&sim, 150, 7);

    // 3. revtr 2.0 itself.
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 60;
    let system = RevtrSystem::new(prober.clone(), cfg, vps.clone(), ingress, pool);

    // 4. Pick a source we control (a vantage point site) and an arbitrary
    //    destination we do NOT control, then measure the path FROM the
    //    destination BACK to the source.
    let src = vps[0];
    let dst = sim
        .topo()
        .prefixes
        .iter()
        .find_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a))
        })
        .expect("some responsive destination exists");

    println!("reverse traceroute from {dst} back to {src}:\n");
    let result = system.measure(dst, src);
    for (i, hop) in result.hops.iter().enumerate() {
        let addr = hop
            .addr
            .map(|a| a.to_string())
            .unwrap_or_else(|| "*".to_string());
        let star = if hop.suspicious_gap_before {
            " (* gap)"
        } else {
            ""
        };
        let how = match hop.method {
            HopMethod::Destination => "destination",
            HopMethod::AtlasIntersection => "atlas intersection",
            HopMethod::RecordRoute => "record route",
            HopMethod::SpoofedRecordRoute => "spoofed record route",
            HopMethod::Timestamp => "timestamp",
            HopMethod::AssumedSymmetric => "assumed symmetric (intradomain)",
        };
        println!("  {i:2}  {addr:<16} via {how}{star}");
    }
    println!("\nstatus: {:?}", result.status);
    println!(
        "probes: {} option packets ({} spoofed RR), {} batches, {:.1}s virtual",
        result.stats.probes.option_probes(),
        result.stats.probes.spoof_rr,
        result.stats.batches,
        result.stats.duration_s,
    );
}
