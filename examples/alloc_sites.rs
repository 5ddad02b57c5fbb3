//! Where heap allocations come from, on the two paths that matter.
//!
//! A counting global allocator that also captures a backtrace for one
//! allocation in every `N`, wrapped around either
//!
//! * (default) a seeded serial sweep of `RevtrService::request` on the
//!   paper-era topology (stop sets on, the configuration every gate runs),
//!   or
//! * (`survey`) one `bootstrap-cold`-shaped round: a fresh `Sim::build`
//!   and a seeded sweep of `ingress::probe_prefix` over its prefixes.
//!
//! Prints the exact allocations and bytes per operation, then the sampled
//! share of each allocating site — the first frame of the backtrace that
//! lies in this repository's crates.
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=1 cargo run --release --example alloc_sites [requests] [seed] [N]
//! CARGO_PROFILE_RELEASE_DEBUG=1 cargo run --release --example alloc_sites survey [prefixes] [seed] [N]
//! ```
//!
//! Defaults: 12 000 requests (400 prefixes), seed 1, `N` = 499 (97 for the
//! survey, whose round is a fiftieth the allocations) — primes, so the
//! sampler does not lock onto a per-operation period. Without
//! `CARGO_PROFILE_RELEASE_DEBUG=1` the backtraces carry no file names and
//! every sample lands in the `(outside the repo's crates)` row.

use revtr_suite::atlas::select_atlas_probes;
use revtr_suite::netsim::hash::mix3;
use revtr_suite::netsim::{Addr, Sim, SimConfig};
use revtr_suite::probing::Prober;
use revtr_suite::revtr::{EngineConfig, RevtrSystem};
use revtr_suite::service::{RateLimits, RevtrService};
use revtr_suite::vpselect::ingress::probe_prefix;
use revtr_suite::vpselect::{Heuristics, IngressDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static ARMED: AtomicBool = AtomicBool::new(false);
static EVERY: AtomicU64 = AtomicU64::new(499);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// `(site, bytes)` of every sampled allocation.
static SAMPLES: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

/// Set while a sample is being taken: capturing and rendering a backtrace
/// allocates, and those allocations must neither be counted nor sampled
/// (the second would recurse). Process-wide: the sweep is serial, so the
/// only allocations it hides are the sampler's own.
static SAMPLING: AtomicBool = AtomicBool::new(false);

struct Sampler;

impl Sampler {
    fn note(size: usize) {
        if !ARMED.load(Ordering::Relaxed) || SAMPLING.load(Ordering::Relaxed) {
            return;
        }
        let n = ALLOCS.fetch_add(1, Ordering::Relaxed) + 1;
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if !n.is_multiple_of(EVERY.load(Ordering::Relaxed)) {
            return;
        }
        SAMPLING.store(true, Ordering::Relaxed);
        let site = first_repo_frame(&Backtrace::force_capture().to_string());
        if let Ok(mut samples) = SAMPLES.lock() {
            samples.push((site, size as u64));
        }
        SAMPLING.store(false, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` runs before the forwarded call
// and never touches the block being allocated or freed.
unsafe impl GlobalAlloc for Sampler {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Sampler::note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Sampler::note(new_size);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Sampler = Sampler;

/// `function (crates/…/file.rs:line)` of the innermost frame whose source
/// lies under this repository's `crates/` (the vendored shims and the
/// standard library do not count). A rendered backtrace alternates
/// `  12: symbol` and `        at path:line:col` lines; the path is
/// relative or absolute depending on where cargo was invoked.
fn first_repo_frame(rendered: &str) -> String {
    let mut symbol = "";
    for line in rendered.lines().map(str::trim) {
        let Some(path) = line.strip_prefix("at ") else {
            symbol = line.split_once(": ").map_or(line, |(_, s)| s);
            continue;
        };
        let in_repo = path
            .strip_prefix("./crates/")
            .or_else(|| path.split_once("/crates/").map(|(_, rest)| rest))
            .filter(|_| !path.starts_with("/rustc/"));
        if let Some(rest) = in_repo {
            let file_line = rest.rsplit_once(':').map_or(rest, |(fl, _col)| fl);
            return format!("{symbol} (crates/{file_line})");
        }
    }
    "(outside the repo's crates)".to_string()
}

fn arg<T: std::str::FromStr>(i: usize, name: &str, default: T) -> T {
    match std::env::args().nth(i) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("{name} must be a positive integer, got {s:?}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let survey = std::env::args().nth(1).as_deref() == Some("survey");
    let at = usize::from(survey);
    let ops: usize = arg(
        at + 1,
        "the operation count",
        if survey { 400 } else { 12_000 },
    );
    let seed: u64 = arg(at + 2, "seed", 1);
    let every: u64 = arg(at + 3, "N", if survey { 97 } else { 499 });
    if ops == 0 || every == 0 {
        eprintln!("the operation count and N must be positive");
        std::process::exit(2);
    }
    EVERY.store(every, Ordering::Relaxed);
    let (unit, units, done) = if survey {
        ("prefix", "prefixes", survey_round(ops, seed))
    } else {
        ("request", "requests", request_sweep(ops, seed))
    };

    let allocs = ALLOCS.load(Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);
    let samples = std::mem::take(&mut *SAMPLES.lock().expect("sampler never panics"));
    let mut by_site: HashMap<&str, (u64, u64)> = HashMap::new();
    for (site, size) in &samples {
        let e = by_site.entry(site).or_default();
        e.0 += 1;
        e.1 += size;
    }
    let mut rows: Vec<(&str, u64, u64)> =
        by_site.into_iter().map(|(s, (n, b))| (s, n, b)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

    let per_op = |x: u64| x as f64 / ops as f64;
    println!("{units} {ops} ({done}), seed {seed}");
    println!(
        "exact: {:.2} allocations/{unit}, {:.0} B/{unit} ({allocs} allocations, {} samples)",
        per_op(allocs),
        per_op(bytes),
        samples.len()
    );
    println!("{:>9} {:>9}  first in-repo frame", "allocs/op", "B/op");
    for (site, n, b) in rows {
        println!(
            "{:>9.2} {:>9.0}  {site}",
            per_op(n * every),
            per_op(b * every)
        );
    }
}

/// One `bootstrap-cold`-shaped round under the sampler: build the paper-era
/// simulator, then survey `n` seed-drawn prefixes from every VP (the survey
/// bypasses the measurement cache by itself). Returns what it found.
fn survey_round(n: usize, seed: u64) -> String {
    // The lists to draw from, read off a simulator of their own.
    let (vps, prefixes) = {
        let sim = Sim::build(SimConfig::era_2020(), 1);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
        (vps, prefixes)
    };
    let sample: Vec<_> = (0..n as u64)
        .map(|i| prefixes[(mix3(seed, i, 4) % prefixes.len() as u64) as usize])
        .collect();

    eprintln!("building the simulator and surveying {n} prefixes (seed {seed})...");
    ARMED.store(true, Ordering::SeqCst);
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let prober = Prober::new(&sim);
    let found = sample
        .iter()
        .filter(|&&p| {
            !probe_prefix(&prober, &vps, p, Heuristics::FULL)
                .ingresses
                .is_empty()
        })
        .count();
    ARMED.store(false, Ordering::SeqCst);
    format!("{found} with an ingress; Sim::build included")
}

/// The serial request sweep under the sampler. Returns how many were served.
fn request_sweep(requests: usize, seed: u64) -> String {
    eprintln!("building simulator, ingress survey and sources...");
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let prober = Prober::new(&sim);
    let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
    let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
    let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
    let mut cfg = EngineConfig::revtr2();
    cfg.use_stop_sets = true;
    cfg.atlas_size = 250;
    let pool = select_atlas_probes(&sim, 1200, 0x77);
    let service = RevtrService::new(RevtrSystem::new(
        Prober::new(&sim),
        cfg,
        vps.clone(),
        ingress,
        pool,
    ));
    let key = service.add_user(
        "client",
        RateLimits {
            max_parallel: 1_000_000,
            max_per_day: u64::MAX / 2,
        },
    );
    let sources = &vps[..8.min(vps.len())];
    for &src in sources {
        service.add_source(key, src).expect("a VP site bootstraps");
    }
    // The sweep: one RR-responsive, non-VP host per request, drawn from a
    // seed-pure walk over the prefixes, toward a seed-pure source.
    let hosts: Vec<Vec<Addr>> = prefixes
        .iter()
        .map(|&p| {
            sim.host_addrs(p)
                .filter(|&a| sim.behavior().host_rr_responsive(a) && !sim.is_vp_host(a))
                .take(8)
                .collect::<Vec<_>>()
        })
        .filter(|h| !h.is_empty())
        .collect();
    let reqs: Vec<(Addr, Addr)> = (0..requests as u64)
        .map(|i| {
            let row = &hosts[(mix3(seed, i, 1) % hosts.len() as u64) as usize];
            (
                row[(mix3(seed, i, 2) % row.len() as u64) as usize],
                sources[(mix3(seed, i, 3) % sources.len() as u64) as usize],
            )
        })
        .collect();

    eprintln!("sweeping {requests} requests (seed {seed})...");
    ARMED.store(true, Ordering::SeqCst);
    let mut served = 0usize;
    for &(dst, src) in &reqs {
        served += usize::from(service.request(key, dst, src).is_ok());
    }
    ARMED.store(false, Ordering::SeqCst);
    format!("served {served}")
}
