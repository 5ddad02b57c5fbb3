//! Concurrency: one `RevtrSystem` shared across threads must behave like a
//! serial one — same results, consistent counters, no deadlocks.

use revtr_suite::atlas::select_atlas_probes;
use revtr_suite::netsim::{Addr, Sim, SimConfig};
use revtr_suite::probing::Prober;
use revtr_suite::revtr::{EngineConfig, RevtrSystem};
use revtr_suite::vpselect::{Heuristics, IngressDb};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn stack(sim: &Sim) -> RevtrSystem<'_> {
    let prober = Prober::new(sim);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let pool = select_atlas_probes(sim, 100, 6);
    let mut cfg = EngineConfig::revtr2();
    cfg.atlas_size = 40;
    RevtrSystem::new(prober, cfg, vps, ingress, pool)
}

fn dests(sim: &Sim, n: usize) -> Vec<Addr> {
    sim.topo()
        .prefixes
        .iter()
        .filter_map(|pe| {
            sim.host_addrs(pe.id)
                .find(|&a| sim.behavior().host_rr_responsive(a))
        })
        .take(n)
        .collect()
}

#[test]
fn concurrent_measurements_match_serial_with_warm_caches() {
    let sim = Sim::build(SimConfig::tiny(), 91);
    let sys = stack(&sim);
    let src = sim.topo().vp_sites[0].host;
    sys.register_source(src);
    let ds = dests(&sim, 24);

    // Warm run (serial) to populate every cache.
    let serial: Vec<_> = ds.iter().map(|&d| sys.measure(d, src)).collect();

    // Concurrent run over the same pairs.
    let results: Vec<parking_lot_stub::Slot> = (0..ds.len())
        .map(|_| parking_lot_stub::Slot::new())
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ds.len() {
                    break;
                }
                results[i].set(sys.measure(ds[i], src));
            });
        }
    });

    for (i, s) in serial.iter().enumerate() {
        let c = results[i].get();
        assert_eq!(c.status, s.status, "status diverged for {}", ds[i]);
        assert_eq!(
            c.addrs().collect::<Vec<_>>(),
            s.addrs().collect::<Vec<_>>(),
            "path diverged for {}",
            ds[i]
        );
    }
}

#[test]
fn concurrent_source_registration_is_idempotent() {
    let sim = Sim::build(SimConfig::tiny(), 92);
    let sys = stack(&sim);
    let src = sim.topo().vp_sites[1].host;
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| sys.register_source(src));
        }
    });
    assert_eq!(sys.sources(), vec![src]);
    assert!(!sys.atlas(src).traces.is_empty());
}

/// One small campaign on a fresh, identically-seeded stack: a serial warm
/// pass over all pairs, then a measured pass over the same pairs with
/// `workers` threads. Returns the measured pass's per-request
/// (status, path, probe counts, virtual duration bits), in input order.
///
/// The warm pass pins down cache attribution: on a cold cache, requests
/// share cacheable keys (non-spoofed RR probes of common reverse hops),
/// so *which request* pays for a shared probe depends on worker
/// interleaving. With caches warm, every cacheable probe hits and the
/// remaining probes are a pure per-request function of the simulator —
/// the probe-count snapshots must then be identical for any worker
/// count, and so must the durations: each is what the request's own meter
/// read. Churn is disabled because its flush points depend on how
/// virtual time partitions across workers.
fn campaign(
    workers: usize,
    seed: u64,
) -> Vec<(
    revtr_suite::revtr::Status,
    Vec<Addr>,
    revtr_suite::revtr::ProbeDelta,
    u64,
)> {
    let mut cfg = SimConfig::tiny();
    cfg.behavior.churn_per_hour = 0.0;
    let sim = Sim::build(cfg, seed);
    let sys = stack(&sim);
    let srcs: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).take(6).collect();
    for &s in &srcs {
        sys.register_source(s);
    }
    let ds = dests(&sim, srcs.len());
    let pairs: Vec<(Addr, Addr)> = ds.into_iter().zip(srcs).collect();

    for &(d, s) in &pairs {
        let _ = sys.measure(d, s);
    }

    let slots: Vec<parking_lot_stub::Slot> = (0..pairs.len())
        .map(|_| parking_lot_stub::Slot::new())
        .collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= pairs.len() {
                    break;
                }
                let (d, s) = pairs[i];
                slots[i].set(sys.measure(d, s));
            });
        }
    });
    slots
        .iter()
        .map(|slot| {
            let r = slot.get();
            (
                r.status,
                r.addrs().collect(),
                r.stats.probes,
                r.stats.duration_s.to_bits(),
            )
        })
        .collect()
}

#[test]
fn campaign_results_are_worker_count_invariant() {
    // The same campaign serially and with 8 workers: every request must
    // produce the identical status, path, probe-count snapshot and
    // virtual duration, to the bit.
    let serial = campaign(1, 7);
    let parallel = campaign(8, 7);
    assert_eq!(serial.len(), parallel.len());
    assert!(serial.len() >= 4, "campaign too small to be meaningful");
    let mut probes_seen = 0;
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "status diverged for request {i}");
        assert_eq!(s.1, p.1, "path diverged for request {i}");
        assert_eq!(s.2, p.2, "probe counts diverged for request {i}");
        assert_eq!(s.3, p.3, "duration diverged for request {i}");
        probes_seen += s.2.ping + s.2.rr + s.2.spoof_rr + s.2.ts + s.2.spoof_ts;
    }
    assert!(probes_seen > 0, "warm campaign sent no probes at all");
    // And serial runs are bit-reproducible.
    assert_eq!(serial, campaign(1, 7));
}

mod parking_lot_stub {
    use std::sync::Mutex;

    pub struct Slot(Mutex<Option<revtr_suite::revtr::RevtrResult>>);

    impl Slot {
        pub fn new() -> Slot {
            Slot(Mutex::new(None))
        }
        pub fn set(&self, v: revtr_suite::revtr::RevtrResult) {
            *self.0.lock().expect("slot lock") = Some(v);
        }
        pub fn get(&self) -> revtr_suite::revtr::RevtrResult {
            self.0
                .lock()
                .expect("slot lock")
                .clone()
                .expect("slot filled")
        }
    }
}
