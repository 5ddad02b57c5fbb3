//! Where heap allocations come from, on the three paths that matter.
//!
//! A counting global allocator that also captures a backtrace for one
//! allocation in every `N`, wrapped around one of
//!
//! * (default) a seeded serial sweep of `RevtrService::request` on the
//!   paper-era topology (stop sets on, the configuration every gate runs),
//! * (`survey`) one `bootstrap-cold`-shaped round: a fresh `Sim::build`
//!   and a seeded sweep of `ingress::probe_prefix` over its prefixes, or
//! * (`openloop`) `service-openloop`-shaped rounds: telemetry on, a fresh
//!   service per round, one `run_open_loop` over a `loadgen::generate`
//!   flash-crowd stream on the worker pool, then the telemetry read-out.
//!
//! Prints the exact allocations and bytes per operation, then the sampled
//! share of each allocating site — the first frame of the backtrace that
//! lies in this repository's crates.
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=1 cargo run --release --example alloc_sites [requests] [seed] [N]
//! CARGO_PROFILE_RELEASE_DEBUG=1 cargo run --release --example alloc_sites survey [prefixes] [seed] [N]
//! CARGO_PROFILE_RELEASE_DEBUG=1 cargo run --release --example alloc_sites openloop [rounds] [seed] [N]
//! ```
//!
//! Defaults: 12 000 requests (400 prefixes, 3 rounds), seed 1, `N` = 499
//! (97 for the survey, whose round is a fiftieth the allocations, and for
//! the open loop) — primes, so the sampler does not lock onto a
//! per-operation period. Without
//! `CARGO_PROFILE_RELEASE_DEBUG=1` the backtraces carry no file names and
//! every sample lands in the `(outside the repo's crates)` row.

use revtr_suite::atlas::select_atlas_probes;
use revtr_suite::eval::loadtest::{tenant_mix, Pattern};
use revtr_suite::loadgen::generate;
use revtr_suite::netsim::hash::mix3;
use revtr_suite::netsim::{Addr, Sim, SimConfig};
use revtr_suite::probing::{Prober, Telemetry};
use revtr_suite::revtr::{EngineConfig, LoopConfig, RevtrSystem};
use revtr_suite::service::{AdmissionPlan, ApiKey, RateLimits, RevtrService, TimedRequest};
use revtr_suite::vpselect::ingress::probe_prefix;
use revtr_suite::vpselect::{Heuristics, IngressDb};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static ARMED: AtomicBool = AtomicBool::new(false);
static EVERY: AtomicU64 = AtomicU64::new(499);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// `(site, bytes)` of every sampled allocation.
static SAMPLES: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

thread_local! {
    /// Set while this thread is taking a sample: capturing and rendering a
    /// backtrace allocates, and those allocations must neither be counted
    /// nor sampled (the second would recurse). Per thread, so a pool
    /// worker taking a sample hides only the sampler's own allocations,
    /// never another worker's. Const-initialised and without a destructor:
    /// reading it never allocates and stays valid while a thread is torn
    /// down.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
}

struct Sampler;

impl Sampler {
    fn note(size: usize) {
        if !ARMED.load(Ordering::Relaxed) || SAMPLING.try_with(Cell::get).unwrap_or(true) {
            return;
        }
        let n = ALLOCS.fetch_add(1, Ordering::Relaxed) + 1;
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        if !n.is_multiple_of(EVERY.load(Ordering::Relaxed)) {
            return;
        }
        SAMPLING.with(|s| s.set(true));
        let site = first_repo_frame(&Backtrace::force_capture().to_string());
        if let Ok(mut samples) = SAMPLES.lock() {
            samples.push((site, size as u64));
        }
        SAMPLING.with(|s| s.set(false));
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
    let mode = std::env::args()
        .nth(1)
        .filter(|m| m == "survey" || m == "openloop");
    let at = usize::from(mode.is_some());
    let (default_ops, default_every) = match mode.as_deref() {
        Some("survey") => (400, 97),
        Some(_) => (3, 97),
        None => (12_000, 499),
    };
    let ops: usize = arg(at + 1, "the operation count", default_ops);
    let seed: u64 = arg(at + 2, "seed", 1);
    let every: u64 = arg(at + 3, "N", default_every);
    if ops == 0 || every == 0 {
        eprintln!("the operation count and N must be positive");
        std::process::exit(2);
    }
    EVERY.store(every, Ordering::Relaxed);
    // The open loop counts per arrival, not per round.
    let (unit, units, ops, done) = match mode.as_deref() {
        Some("survey") => ("prefix", "prefixes", ops, survey_round(ops, seed)),
        Some(_) => {
            let (arrivals, done) = open_loop_rounds(ops, seed);
            ("arrival", "arrivals", arrivals, done)
        }
        None => ("request", "requests", ops, request_sweep(ops, seed)),
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

/// What the two service modes share: the survey of a simulator, the VPs,
/// and per prefix up to eight RR-responsive, non-VP hosts to measure
/// toward (prefixes without one are left out).
struct Ground {
    vps: Vec<Addr>,
    ingress: Arc<IngressDb>,
    hosts: Vec<Vec<Addr>>,
}

impl Ground {
    fn survey(sim: &Sim) -> Ground {
        eprintln!("surveying ingresses...");
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
        let ingress = Arc::new(IngressDb::build(
            &Prober::new(sim),
            &vps,
            &prefixes,
            Heuristics::FULL,
        ));
        let hosts = prefixes
            .iter()
            .map(|&p| {
                sim.host_addrs(p)
                    .filter(|&a| sim.behavior().host_rr_responsive(a) && !sim.is_vp_host(a))
                    .take(8)
                    .collect::<Vec<_>>()
            })
            .filter(|h| !h.is_empty())
            .collect();
        Ground {
            vps,
            ingress,
            hosts,
        }
    }

    /// The first eight VP sites: the sources every service registers.
    fn sources(&self) -> &[Addr] {
        &self.vps[..8.min(self.vps.len())]
    }

    /// A fresh service as every gate runs it — stop sets on, 250-trace
    /// atlases — with one never-limited user per name, each on every
    /// source.
    fn service<'s>(
        &self,
        sim: &'s Sim,
        telemetry: Telemetry,
        users: &[&str],
    ) -> (RevtrService<'s>, Vec<ApiKey>) {
        let mut cfg = EngineConfig::revtr2();
        cfg.use_stop_sets = true;
        cfg.atlas_size = 250;
        let service = RevtrService::new(RevtrSystem::new(
            Prober::new(sim).with_telemetry(telemetry),
            cfg,
            self.vps.clone(),
            Arc::clone(&self.ingress),
            select_atlas_probes(sim, 1200, 0x77),
        ));
        let keys = users
            .iter()
            .map(|name| {
                let key = service.add_user(
                    name,
                    RateLimits {
                        max_parallel: 1_000_000,
                        max_per_day: u64::MAX / 2,
                    },
                );
                for &src in self.sources() {
                    service.add_source(key, src).expect("a VP site bootstraps");
                }
                key
            })
            .collect();
        (service, keys)
    }
}

/// `service-openloop`-shaped rounds under the sampler: the benchmark's
/// stream (the loadtest's four-tenant flash crowd at 20× the rates, 18
/// virtual hours, `AdmissionPlan::standard()` scaled to match, waves of
/// 128) against a fresh telemetry-on service per round, on the pool, then
/// the read-out. Route churn and per-packet load balancing are off, as the
/// open-loop determinism contract requires. Returns the arrivals run and
/// what became of them.
fn open_loop_rounds(rounds: usize, seed: u64) -> (usize, String) {
    const HOURS: f64 = 18.0;
    const SCALE: f64 = 20.0;
    const WAVE: usize = 128;
    eprintln!("building the simulator...");
    let mut sim_cfg = SimConfig::era_2020();
    sim_cfg.behavior.churn_per_hour = 0.0;
    sim_cfg.behavior.router_load_balancer = 0.0;
    let sim = Sim::build(sim_cfg, 1);
    let ground = Ground::survey(&sim);

    let mut mix = tenant_mix(Pattern::FlashCrowd, HOURS);
    for tenant in &mut mix {
        tenant.offered_per_hour *= SCALE;
    }
    let names: Vec<&str> = mix.iter().map(|t| t.name.as_str()).collect();
    let mut plan = AdmissionPlan::standard();
    let wave_ratio = WAVE / plan.wave;
    for class in &mut plan.classes {
        class.admit_per_hour *= SCALE;
        class.burst *= SCALE;
        class.queue_bound *= wave_ratio;
    }
    plan.wave = WAVE;
    let arrivals = generate(&mix, ground.hosts.len(), HOURS, seed);

    let (mut served, mut shed) = (0usize, 0usize);
    for round in 0..rounds as u64 {
        // A fresh popularity ranking and user → source assignment.
        let rank_shift = mix3(seed, round, 5) as usize;
        let src_shift = mix3(seed, round, 6) as usize;
        let sources = ground.sources();
        let requests: Vec<TimedRequest> = arrivals
            .iter()
            .map(|a| TimedRequest {
                vtime_ms: a.vtime_ms,
                tenant: a.tenant,
                class: a.class.index(),
                dst: ground.hosts[(a.dst_rank + rank_shift) % ground.hosts.len()][0],
                src: sources[(a.user as usize + src_shift) % sources.len()],
            })
            .collect();
        let telemetry = Telemetry::enabled();
        let (service, keys) = ground.service(&sim, telemetry.clone(), &names);
        eprintln!(
            "round {round}: {} arrivals (seed {seed})...",
            requests.len()
        );
        ARMED.store(true, Ordering::SeqCst);
        let outcome = service
            .run_open_loop(&keys, &requests, &plan, LoopConfig::parallel())
            .expect("the stream runs");
        std::hint::black_box((telemetry.metrics(), telemetry.journal_fingerprint()));
        ARMED.store(false, Ordering::SeqCst);
        served += outcome.results.iter().flatten().count();
        shed += outcome.sheds.iter().flatten().count();
    }
    (
        rounds * arrivals.len(),
        format!("{rounds} rounds; served {served}, shed {shed}"),
    )
}

/// The serial request sweep under the sampler. Returns how many were served.
fn request_sweep(requests: usize, seed: u64) -> String {
    eprintln!("building the simulator...");
    let sim = Sim::build(SimConfig::era_2020(), 1);
    let ground = Ground::survey(&sim);
    let (service, keys) = ground.service(&sim, Telemetry::disabled(), &["client"]);
    let (key, sources, hosts) = (keys[0], ground.sources(), &ground.hosts);
    // The sweep: one RR-responsive, non-VP host per request, drawn from a
    // seed-pure walk over the prefixes, toward a seed-pure source.
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
