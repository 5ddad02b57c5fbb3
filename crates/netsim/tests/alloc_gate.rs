//! Allocation gate: once routes are cached, a walk and the probe
//! primitives built on it (a TTL view and its probes among them) do not
//! touch the heap — wherever the walk starts: a stub's first hop is
//! resolved on lookup, not stored — and a route fill allocates the table
//! it returns and nothing else.
//!
//! Its own test binary because it installs a counting global allocator.
//! Counts are per thread, so the harness's other threads cannot leak in.

use revtr_alloccount::allocs_in;
use revtr_netsim::sim::PktMeta;
use revtr_netsim::{Addr, Sim, SimConfig};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: revtr_alloccount::Counting = revtr_alloccount::Counting;

#[test]
fn warm_probe_primitives_do_not_allocate() {
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let topo = sim.topo();
    let vps: Vec<Addr> = topo.vp_sites.iter().map(|v| v.host).collect();

    // (VP, spoofed-as VP, destination): hosts that answer RR where the
    // prefix has one, every 16th pair a router interface instead.
    let mut pairs: Vec<(Addr, Addr, Addr)> = Vec::new();
    for (i, pe) in topo.prefixes.iter().enumerate().take(1200) {
        let dst = if i % 16 == 0 {
            topo.links[(i * 37) % topo.links.len()].addr_b
        } else {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a))
                .unwrap_or_else(|| sim.host_addrs(pe.id).next().expect("hosts"))
        };
        pairs.push((vps[i % vps.len()], vps[(i * 7 + 3) % vps.len()], dst));
    }
    assert!(pairs.len() >= 1000);

    // The reply leg of a host destination starts in the host's AS; most
    // are stubs, whose routes no table holds.
    let stub_attach = |dst: Addr| {
        let attach = sim.host_attach(dst)?;
        (!topo.asn(topo.router_as(attach)).has_customers()).then_some(attach)
    };

    let mut answered = [0usize; 7];
    let pass = |answered: &mut [usize; 7]| -> [u64; 7] {
        let mut allocs = [0u64; 7];
        for (i, &(vp, other, dst)) in pairs.iter().enumerate() {
            let attach = sim.host_attach(vp).expect("vp host");
            let nonce = i as u64;
            allocs[0] += allocs_in(|| {
                let w = black_box(sim.walk(attach, dst, &PktMeta::plain(vp, 0)));
                answered[0] += usize::from(w.is_some());
            })
            .1;
            if let Some(start) = stub_attach(dst) {
                allocs[5] += allocs_in(|| {
                    let w = black_box(sim.walk(start, vp, &PktMeta::plain(dst, 0)));
                    answered[5] += usize::from(w.is_some());
                })
                .1;
            }
            allocs[1] += allocs_in(|| {
                let r = black_box(sim.ping_from(vp, vp, dst));
                answered[1] += usize::from(r.is_some());
                black_box(sim.ping_from(vp, other, dst));
            })
            .1;
            allocs[2] += allocs_in(|| {
                let r = black_box(sim.rr_ping_from(vp, vp, dst, nonce));
                answered[2] += usize::from(r.is_some());
                black_box(sim.rr_ping_from(vp, other, dst, nonce));
            })
            .1;
            allocs[3] += allocs_in(|| {
                let r = black_box(sim.ts_ping_from(vp, vp, dst, &[dst, vp], nonce));
                answered[3] += usize::from(r.is_some());
            })
            .1;
            allocs[4] += allocs_in(|| {
                let t = black_box(sim.traceroute(vp, dst, 1));
                answered[4] += usize::from(t.is_some());
            })
            .1;
            allocs[6] += allocs_in(|| {
                if let Some(mut view) = black_box(sim.ttl_view(vp, dst, 1)) {
                    for ttl in 1..=40 {
                        black_box(view.probe(ttl));
                    }
                    black_box((view.packets(), view.rtt_ms()));
                    answered[6] += 1;
                }
            })
            .1;
        }
        allocs
    };

    // Warm-up: fills the route cache for every (destination AS, salt).
    pass(&mut answered);
    let fills = sim.route_computes();
    answered = [0; 7];
    let [walk, ping, rr, ts, traceroute, stub_walk, ttl_view] = pass(&mut answered);
    assert_eq!(sim.route_computes(), fills, "second pass must be warm");

    // The gate is vacuous unless the probes actually ran end to end.
    let probes = [
        "walk",
        "ping",
        "rr_ping",
        "ts_ping",
        "traceroute",
        "walk from a stub",
        "ttl_view",
    ];
    for (what, n) in probes.iter().zip(answered) {
        assert!(
            n > pairs.len() / 4,
            "{what}: only {n} of {} answered",
            pairs.len()
        );
    }
    eprintln!(
        "warm walk {walk}, stub walk {stub_walk}, ping {ping}, RR {rr}, TS {ts}, TTL view \
         {ttl_view} allocations (bound 0 each); traceroute {traceroute} for {} results (bound \
         1 each)",
        answered[4]
    );
    assert_eq!(walk, 0, "walk allocated");
    assert_eq!(stub_walk, 0, "walk from a stub AS allocated");
    assert_eq!(ping, 0, "ping_from allocated");
    assert_eq!(rr, 0, "rr_ping_from allocated");
    assert_eq!(ts, 0, "ts_ping_from allocated");
    assert_eq!(ttl_view, 0, "a TTL view and 40 probes of it allocated");
    assert!(
        traceroute <= answered[4] as u64,
        "traceroute allocated {traceroute} times for {} results",
        answered[4]
    );

    // Cold fills on this (warmed-up) thread: each allocates the table it
    // returns and the cache's flight; a shard of the cache's map doubles
    // now and then, and nothing else ever allocates.
    const FILLS: u64 = 512;
    let dsts = topo.ases.iter().step_by(3).cycle();
    let per_fill: Vec<u64> = (0..FILLS)
        .zip(dsts)
        .map(|(i, a)| {
            allocs_in(|| {
                black_box(sim.routes(a.id, 0xa110_c000 + i));
            })
            .1
        })
        .collect();
    assert_eq!(sim.route_computes(), fills + FILLS, "every salt was fresh");
    let growths = per_fill.iter().filter(|&&n| n == 3).count();
    assert!(
        per_fill.iter().all(|&n| n == 2 || n == 3) && growths <= 32,
        "a fill allocates its table and its flight: {per_fill:?}"
    );
}
