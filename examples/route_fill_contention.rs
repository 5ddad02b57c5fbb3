//! Cold route-cache fills under worker contention — the single-flight
//! experiment of PR 1.
//!
//! Every round takes a fresh salt (as a churn epoch does) and has all
//! workers walk the same destination list, so each `(dst, salt)` key is
//! requested by every worker while cold. Without single-flight, racing
//! workers each run the route computation (a salted-metric Dijkstra over
//! the transit core) for the same key and the last insert wins — up to
//! `workers`× duplicated compute, which costs real wall time even on one
//! CPU. With `StripedMap::get_or_compute`, exactly one runs per key and
//! the rest wait on the flight.
//!
//! ```text
//! cargo run --release --example route_fill_contention [workers] [rounds]
//! ```

use revtr_suite::netsim::{Sim, SimConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("workers must be an integer"))
        .unwrap_or(8)
        .max(1);
    let rounds: u64 = std::env::args()
        .nth(2)
        .map(|s| s.parse().expect("rounds must be an integer"))
        .unwrap_or(20)
        .max(1);

    eprintln!("building era_2020 simulator...");
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let dsts: Vec<_> = sim.topo().ases.iter().map(|a| a.id).take(64).collect();

    let salt = AtomicU64::new(0xC0FFEE);
    let t0 = Instant::now();
    for _ in 0..rounds {
        let s = salt.fetch_add(1, Ordering::Relaxed);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    for &d in &dsts {
                        std::hint::black_box(sim.routes(d, s));
                    }
                });
            }
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "workers={workers} rounds={rounds} dsts={} cold_fills={} wall_s={wall:.3} fills/s={:.0}",
        dsts.len(),
        rounds * dsts.len() as u64,
        (rounds * dsts.len() as u64) as f64 / wall,
    );
}
