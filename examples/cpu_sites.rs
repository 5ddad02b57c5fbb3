//! Where CPU time goes, on a host with no `perf` and no PMU.
//!
//! A sampling profiler in one file: `setitimer(ITIMER_PROF)` fires
//! `SIGPROF` every few milliseconds of process CPU time, on whichever
//! thread is burning it; the handler reads the interrupted RIP and RBP out
//! of the signal's `ucontext`, walks the frame-pointer chain and appends
//! the return addresses to a preallocated static buffer — no allocation, no
//! lock, nothing but loads, one atomic add and (to stay off unmapped pages)
//! `mincore`. After the run the addresses are made object-relative with
//! `/proc/self/maps` and symbolised: the executable's by
//! `addr2line -f -C -i` (inlined frames included), shared libraries' by
//! their nearest `nm -D` symbol (with the distance past it: a static
//! function reads as its exported neighbour, far off). Two tables come out
//! — *self* (where each sample was: the innermost function of this
//! repository's crates inlined at the sampled instruction, else the
//! function holding it) and *inclusive* (every function on the stack, once
//! per sample), each listing every function that holds at least 0.5 % of
//! the samples — preceded by each round's wall time and the CPU the rounds
//! burnt.
//!
//! Around one of
//!
//! * `serial` — `ondemand-serial`-shaped: a seeded sweep of
//!   `RevtrService::request`, one at a time;
//! * `campaign [workers]` — `campaign-batch`-shaped rounds: a fresh system
//!   per round, one `run_campaign` over 8 adjacent hosts per prefix toward
//!   two alternating sources, on `workers` workers (default: the pool's
//!   production width; `1` is the serial loop);
//! * `survey` — `bootstrap-cold`-shaped rounds: `Sim::build` and a seeded
//!   sweep of the tree-less `ingress::probe_prefix` over 400 prefixes;
//! * `setup` — what the warm workloads' `setup_s` pays: `Sim::build` and
//!   `IngressDb::build` over every prefix, sink trees lent;
//! * `build` — what `bootstrap-cold`'s `setup_s` pays: 100 era-2020
//!   `Sim::build`s a round, each dropped before the next;
//! * `fill` — the survey's route fills: every prefix's `(owner, salt)`
//!   table, once each, on a fresh era-2020 `Sim` a round (the build is
//!   outside the timed part).
//!
//! ```text
//! RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 \
//!     cargo run --release --example cpu_sites -- campaign 2 [rounds] [seed] [leaf]
//! ```
//!
//! Defaults: 30 rounds (12 000 requests for `serial`, 3 rounds for
//! `survey`, 16 for `setup`, 10 for `build`, 20 for `fill`), seed 1,
//! 250 Hz. A fifth
//! argument `leaf` adds a third table: of the samples whose innermost frame
//! contains that text (`futex`, say), the first frame in this repository's
//! crates — who is calling it. Without frame pointers the walk stops at the
//! first frame (the self table stays right); without debug info `addr2line`
//! names functions but no inlined frames. Linux on x86-64 only.

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("cpu_sites reads x86-64 Linux signal contexts: not supported on this target");
    std::process::exit(2);
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    linux::main()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    use revtr_suite::atlas::select_atlas_probes;
    use revtr_suite::netsim::hash::mix3;
    use revtr_suite::netsim::sim::PktMeta;
    use revtr_suite::netsim::{Addr, Sim, SimConfig};
    use revtr_suite::probing::Prober;
    use revtr_suite::revtr::{EngineConfig, LoopConfig, RevtrSystem};
    use revtr_suite::service::{RateLimits, RevtrService};
    use revtr_suite::telemetry::{WordMap, WordSet};
    use revtr_suite::vpselect::ingress::probe_prefix;
    use revtr_suite::vpselect::{Heuristics, IngressDb};
    use std::collections::BTreeMap;
    use std::ffi::c_void;
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    // ---- the sampler --------------------------------------------------------

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    /// Sampling rate, per second of process CPU time.
    const HZ: i64 = 250;
    /// The least share of the samples a table row holds.
    const MIN_SHARE: f64 = 0.005;
    /// Frames kept per sample, innermost first.
    const MAX_DEPTH: usize = 64;
    /// Words of sample storage: each sample is its depth, then its frames.
    const CAPACITY: usize = 4 << 20;
    const PAGE: usize = 4096;

    /// glibc's `struct sigaction` on x86-64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
        fn clock_gettime(clock: i32, ts: *mut TimeSpec) -> i32;
    }

    static ARMED: AtomicBool = AtomicBool::new(false);
    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    /// Next free word of `SAMPLES` (runs past `CAPACITY` once full).
    static CURSOR: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    /// Wall and CPU nanoseconds spent inside [`timed`] rounds.
    static ROUNDS_NS: [AtomicU64; 2] = [const { AtomicU64::new(0) }; 2];

    /// Whether the 16 bytes at `addr` are mapped, asked of the kernel one
    /// page at a time; `known` remembers the last page that was.
    fn readable(addr: usize, known: &mut usize) -> bool {
        let (first, last) = (addr & !(PAGE - 1), (addr + 15) & !(PAGE - 1));
        for page in [first, last] {
            if page == *known {
                continue;
            }
            let mut resident = 0u8;
            // SAFETY: `mincore` only inspects the address range; it writes
            // one byte per page — one page here — into `resident`.
            if unsafe { mincore(page as *mut c_void, PAGE, &mut resident) } != 0 {
                return false;
            }
            *known = page;
        }
        true
    }

    /// The `SIGPROF` handler. Async-signal-safe: it touches only its own
    /// stack, the static sample buffer through atomics, and `mincore`.
    extern "C" fn on_prof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        if !ARMED.load(Ordering::Relaxed) || ctx.is_null() {
            return;
        }
        // `ucontext_t` on x86-64 Linux: flags, link and the 24-byte
        // `stack_t` come first, then `mcontext_t`'s `gregs` — RBP is
        // register 10, RSP 15, RIP 16.
        let gregs = (ctx as usize + 40) as *const u64;
        // SAFETY: the kernel passed a `ucontext_t` for this handler
        // (`SA_SIGINFO`), which holds at least 23 general registers there.
        let (mut fp, sp, pc) = unsafe {
            (
                *gregs.add(10) as usize,
                *gregs.add(15) as usize,
                *gregs.add(16),
            )
        };
        let mut frames = [0u64; MAX_DEPTH];
        frames[0] = pc;
        let mut depth = 1;
        let mut known = 0;
        // A frame record is the caller's RBP and the return address, and
        // lives above the interrupted stack pointer; each is above the
        // last. Code without frame pointers breaks the chain, not the walk.
        let mut floor = sp;
        while depth < MAX_DEPTH
            && fp >= floor
            && fp % 8 == 0
            && fp - sp < (64 << 20)
            && readable(fp, &mut known)
        {
            // SAFETY: `fp` is aligned and `readable` just found both words
            // mapped; whatever they hold is only compared and stored.
            let (next, ret) = unsafe { (*(fp as *const usize), *((fp + 8) as *const u64)) };
            if ret < 4096 {
                break;
            }
            frames[depth] = ret;
            depth += 1;
            floor = fp + 16;
            fp = next;
        }
        let at = CURSOR.fetch_add(depth + 1, Ordering::Relaxed);
        if at + depth + 1 > CAPACITY {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        SAMPLES[at].store(depth as u64, Ordering::Relaxed);
        for (slot, &frame) in SAMPLES[at + 1..].iter().zip(&frames[..depth]) {
            slot.store(frame, Ordering::Relaxed);
        }
    }

    /// Install the handler and start the profiling timer.
    fn start_sampling() {
        let act = SigAction {
            handler: on_prof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        let tick = || TimeVal {
            sec: 0,
            usec: 1_000_000 / HZ,
        };
        let timer = ITimerVal {
            interval: tick(),
            value: tick(),
        };
        // SAFETY: both structs match glibc's x86-64 layouts and outlive the
        // calls; the handler is async-signal-safe (see `on_prof`).
        let ok = unsafe {
            sigaction(SIGPROF, &act, std::ptr::null_mut()) == 0
                && setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) == 0
        };
        assert!(ok, "could not start the profiling timer");
    }

    /// CPU seconds this process has burnt, all threads.
    fn cpu_seconds() -> f64 {
        let mut ts = TimeSpec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid `timespec` for the call to fill.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "no process CPU clock");
        ts.sec as f64 + ts.nsec as f64 / 1e9
    }

    /// Run `round` under the sampler and report its wall time.
    fn timed(label: &str, round: impl FnOnce()) {
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        ARMED.store(true, Ordering::SeqCst);
        round();
        ARMED.store(false, Ordering::SeqCst);
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
        eprintln!("{label}: {:.1} ms", wall * 1e3);
        ROUNDS_NS[0].fetch_add((wall * 1e9) as u64, Ordering::Relaxed);
        ROUNDS_NS[1].fetch_add((cpu * 1e9) as u64, Ordering::Relaxed);
    }

    // ---- symbolisation ------------------------------------------------------

    /// One executable mapping of `/proc/self/maps`.
    struct Mapping {
        start: u64,
        end: u64,
        /// Where the object's first byte would sit in memory.
        base: u64,
        path: String,
    }

    fn executable_mappings() -> Vec<Mapping> {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        let mut first_start: WordMap<String, u64> = WordMap::default();
        let mut out = Vec::new();
        for line in maps.lines() {
            let mut f = line.split_whitespace();
            let (Some(range), Some(perms), Some(_off), _, _, Some(path)) =
                (f.next(), f.next(), f.next(), f.next(), f.next(), f.next())
            else {
                continue;
            };
            let Some((start, end)) = range.split_once('-') else {
                continue;
            };
            let (Ok(start), Ok(end)) =
                (u64::from_str_radix(start, 16), u64::from_str_radix(end, 16))
            else {
                continue;
            };
            // An object's lowest mapping starts at its file offset 0.
            let base = *first_start.entry(path.to_string()).or_insert(start);
            if perms.contains('x') {
                out.push(Mapping {
                    start,
                    end,
                    base,
                    path: path.to_string(),
                });
            }
        }
        out
    }

    /// A frame's names, innermost inlined function first, each with its
    /// `file:line` (empty outside the executable).
    type Names = Vec<(String, String)>;

    /// `addr2line -a -f -C -i` over the executable's addresses.
    fn symbolise_exe(exe: &str, addrs: &[u64]) -> WordMap<u64, Names> {
        let mut child = Command::new("addr2line")
            .args(["-a", "-f", "-C", "-i", "-e", exe])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("addr2line (binutils) is installed");
        let mut stdin = child.stdin.take().expect("piped");
        let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
        // Fed from a thread of its own: addr2line answers as it reads.
        let output = std::thread::scope(|s| {
            s.spawn(move || stdin.write_all(input.as_bytes()));
            child.wait_with_output()
        });
        let text = String::from_utf8_lossy(&output.expect("addr2line ran").stdout).into_owned();
        let mut out: WordMap<u64, Names> = WordMap::default();
        let mut cur = None;
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if let Some(hex) = line.strip_prefix("0x") {
                cur = u64::from_str_radix(hex, 16).ok();
                continue;
            }
            let (Some(addr), Some(at)) = (cur, lines.next()) else {
                break;
            };
            let at = at.split(" (discriminator").next().unwrap_or(at);
            out.entry(addr)
                .or_default()
                .push((line.to_string(), at.to_string()));
        }
        out
    }

    /// A shared library's dynamic symbols, sorted by address.
    fn library_symbols(path: &str) -> Vec<(u64, String)> {
        let out = Command::new("nm")
            .args(["-D", "-C", "--defined-only", path])
            .output()
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
            .unwrap_or_default();
        let mut syms: Vec<(u64, String)> = out
            .lines()
            .filter_map(|l| {
                let mut f = l.splitn(3, ' ');
                let addr = u64::from_str_radix(f.next()?, 16).ok()?;
                let _kind = f.next()?;
                Some((addr, f.next()?.to_string()))
            })
            .collect();
        syms.sort();
        syms
    }

    /// Every sample as a stack of frames, each frame its `Names`.
    fn symbolised_samples() -> Vec<Vec<Names>> {
        let filled = CURSOR.load(Ordering::SeqCst).min(CAPACITY);
        let word = |i: usize| SAMPLES[i].load(Ordering::Relaxed);
        let mut raw: Vec<Vec<u64>> = Vec::new();
        let mut at = 0;
        while at < filled {
            let depth = word(at) as usize;
            if depth == 0 || at + 1 + depth > filled {
                break;
            }
            // A return address names the instruction after the call: step
            // back into the call itself.
            raw.push(
                (0..depth)
                    .map(|d| word(at + 1 + d) - u64::from(d > 0))
                    .collect(),
            );
            at += 1 + depth;
        }

        let maps = executable_mappings();
        let exe = std::env::current_exe().expect("the running executable");
        let exe = exe.to_string_lossy().into_owned();
        let locate = |pc: u64| maps.iter().find(|m| (m.start..m.end).contains(&pc));
        let mut exe_addrs: Vec<u64> = raw
            .iter()
            .flatten()
            .filter_map(|&pc| locate(pc).filter(|m| m.path == exe).map(|m| pc - m.base))
            .collect();
        exe_addrs.sort_unstable();
        exe_addrs.dedup();
        let exe_names = symbolise_exe(&exe, &exe_addrs);
        let mut libs: WordMap<&str, Vec<(u64, String)>> = WordMap::default();

        let mut name = |pc: u64| -> Names {
            let Some(m) = locate(pc) else {
                return vec![("(unmapped)".to_string(), String::new())];
            };
            let rel = pc - m.base;
            if m.path == exe {
                return exe_names.get(&rel).cloned().unwrap_or_default();
            }
            let file = m.path.rsplit('/').next().unwrap_or(&m.path);
            let syms = libs
                .entry(&m.path)
                .or_insert_with(|| library_symbols(&m.path));
            let at = syms.partition_point(|(a, _)| *a <= rel);
            let named = match at.checked_sub(1).map(|i| &syms[i]) {
                Some((addr, sym)) => format!("{sym}+{:#x} [{file}]", rel - addr),
                None => format!("{rel:#x} [{file}]"),
            };
            vec![(named, String::new())]
        };
        raw.iter()
            .map(|stack| stack.iter().map(|&pc| name(pc)).collect())
            .collect()
    }

    /// Every row holding at least [`MIN_SHARE`] of the `total` samples,
    /// the largest first.
    fn print_table(title: &str, total: usize, counts: BTreeMap<String, usize>) {
        let mut sorted: Vec<(String, usize)> = counts.into_iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        println!("--- {title} ---");
        println!("{:>7} {:>6}  function", "samples", "%");
        let share = |n: usize| n as f64 / total as f64;
        for (name, n) in sorted
            .into_iter()
            .take_while(|&(_, n)| share(n) >= MIN_SHARE)
        {
            println!("{n:>7} {:>6.2}  {name}", 100.0 * share(n));
        }
    }

    fn report(leaf_filter: Option<&str>) {
        let samples = symbolised_samples();
        let total = samples.len();
        println!(
            "{total} samples at {HZ} Hz ({} dropped: buffer full)",
            DROPPED.load(Ordering::Relaxed)
        );
        if total == 0 {
            return;
        }
        let in_repo = |at: &str| at.contains("/crates/") && !at.contains("/rustc/");
        // The sampled instruction's inline chain, innermost first: the
        // first function of ours on it, else the one that holds it all.
        let innermost = |stack: &Vec<Names>| -> String {
            let chain = stack.first().map_or(&[][..], |f| &f[..]);
            (chain.iter().find(|(_, at)| in_repo(at)))
                .or(chain.last())
                .map_or("?".to_string(), |(func, _)| func.clone())
        };
        let mut own: BTreeMap<String, usize> = BTreeMap::new();
        let mut inclusive: BTreeMap<String, usize> = BTreeMap::new();
        let mut callers: BTreeMap<String, usize> = BTreeMap::new();
        let mut matched = 0;
        for stack in &samples {
            let leaf = innermost(stack);
            let seen: WordSet<&str> = stack.iter().flatten().map(|(f, _)| f.as_str()).collect();
            for func in seen {
                *inclusive.entry(func.to_string()).or_default() += 1;
            }
            if leaf_filter.is_some_and(|pat| leaf.contains(pat)) {
                matched += 1;
                let caller = stack.iter().flatten().find(|(_, at)| in_repo(at)).map_or(
                    "(outside the repo's crates)".to_string(),
                    |(func, at)| {
                        let at = at.rsplit_once("/crates/").map_or(at.as_str(), |(_, r)| r);
                        format!("{func} (crates/{at})")
                    },
                );
                *callers.entry(caller).or_default() += 1;
            }
            *own.entry(leaf).or_default() += 1;
        }
        print_table("self", total, own);
        print_table("inclusive", total, inclusive);
        if let Some(pat) = leaf_filter {
            let title = format!("first in-repo frame of the {matched} samples inside `{pat}`");
            print_table(&title, total, callers);
        }
    }

    // ---- the workloads ------------------------------------------------------

    fn arg<T: std::str::FromStr>(i: usize, name: &str, default: T) -> T {
        match std::env::args().nth(i) {
            None => default,
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("{name} must be a positive integer, got {s:?}");
                std::process::exit(2);
            }),
        }
    }

    /// The survey of a simulator, its VPs, and per prefix up to eight
    /// RR-responsive, non-VP hosts (prefixes without one are left out).
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

        /// A fresh system as every gate runs it: stop sets on, 250-trace
        /// atlases.
        fn system<'s>(&self, sim: &'s Sim) -> RevtrSystem<'s> {
            let mut cfg = EngineConfig::revtr2();
            cfg.use_stop_sets = true;
            cfg.atlas_size = 250;
            RevtrSystem::new(
                Prober::new(sim),
                cfg,
                self.vps.clone(),
                Arc::clone(&self.ingress),
                select_atlas_probes(sim, 1200, 0x77),
            )
        }
    }

    fn campaign_rounds(workers: usize, rounds: usize, seed: u64) {
        let sim = Sim::build(SimConfig::era_2020(), 1);
        let ground = Ground::survey(&sim);
        for round in 0..rounds as u64 {
            let sources = [0, 1]
                .map(|k| ground.vps[(mix3(seed, round, k) % ground.vps.len() as u64) as usize]);
            let shift = mix3(seed, round, 2) as usize;
            let pairs: Vec<(Addr, Addr)> = (0..ground.hosts.len())
                .flat_map(|p| &ground.hosts[(p + shift) % ground.hosts.len()])
                .enumerate()
                .map(|(i, &dst)| (dst, sources[i % 2]))
                .collect();
            let system = ground.system(&sim);
            for src in sources {
                system.register_source(src);
            }
            timed(&format!("round {round} ({} pairs)", pairs.len()), || {
                let outcome = system.run_campaign(&pairs, LoopConfig { workers });
                std::hint::black_box(outcome.expect("no measurement panics"));
            });
        }
    }

    fn serial_sweep(requests: usize, seed: u64) {
        let sim = Sim::build(SimConfig::era_2020(), 1);
        let ground = Ground::survey(&sim);
        let service = RevtrService::new(ground.system(&sim));
        let key = service.add_user(
            "client",
            RateLimits {
                max_parallel: 1_000_000,
                max_per_day: u64::MAX / 2,
            },
        );
        let sources = &ground.vps[..8.min(ground.vps.len())];
        for &src in sources {
            service.add_source(key, src).expect("a VP site bootstraps");
        }
        let reqs: Vec<(Addr, Addr)> = (0..requests as u64)
            .map(|i| {
                let row = &ground.hosts[(mix3(seed, i, 1) % ground.hosts.len() as u64) as usize];
                (
                    row[(mix3(seed, i, 2) % row.len() as u64) as usize],
                    sources[(mix3(seed, i, 3) % sources.len() as u64) as usize],
                )
            })
            .collect();
        timed(&format!("{requests} requests"), || {
            for &(dst, src) in &reqs {
                std::hint::black_box(service.request(key, dst, src).is_ok());
            }
        });
    }

    fn survey_rounds(rounds: usize, seed: u64) {
        let (vps, prefixes) = {
            let sim = Sim::build(SimConfig::era_2020(), 1);
            let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
            let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
            (vps, prefixes)
        };
        for round in 0..rounds as u64 {
            let sample: Vec<_> = (0..400u64)
                .map(|i| prefixes[(mix3(seed ^ round, i, 4) % prefixes.len() as u64) as usize])
                .collect();
            timed(&format!("round {round} (400 prefixes)"), || {
                let sim = Sim::build(SimConfig::era_2020(), 1);
                let prober = Prober::new(&sim);
                for &p in &sample {
                    std::hint::black_box(probe_prefix(&prober, &vps, p, Heuristics::FULL));
                }
            });
        }
    }

    fn setup_rounds(rounds: usize, seed: u64) {
        for round in 0..rounds {
            timed(&format!("round {round} (set-up)"), || {
                let sim = Sim::build(SimConfig::era_2020(), seed);
                let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
                let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
                let prober = Prober::new(&sim);
                let db = IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL);
                std::hint::black_box(db);
            });
        }
    }

    fn build_rounds(rounds: usize, seed: u64) {
        for round in 0..rounds {
            timed(&format!("round {round} (100 builds)"), || {
                for _ in 0..100 {
                    drop(std::hint::black_box(Sim::build(
                        SimConfig::era_2020(),
                        seed,
                    )));
                }
            });
        }
    }

    /// A walk from a prefix's attach router to one of its hosts is
    /// delivered where it starts: all it costs is the fill of the table it
    /// routes on, the prefix's `(owner, salt)`.
    fn fill_rounds(rounds: usize, seed: u64) {
        for round in 0..rounds {
            let sim = Sim::build(SimConfig::era_2020(), seed);
            let walks: Vec<_> = (sim.topo().prefixes.iter())
                .map(|pe| (pe.attach, sim.host_addrs(pe.id).next().expect("hosts")))
                .collect();
            timed(&format!("round {round} ({} fills)", walks.len()), || {
                for &(attach, host) in &walks {
                    std::hint::black_box(sim.walk(attach, host, &PktMeta::plain(host, 0)));
                }
            });
            assert_eq!(
                sim.route_computes(),
                walks.len() as u64,
                "one fill a prefix"
            );
        }
    }

    pub fn main() {
        let mode = std::env::args().nth(1).unwrap_or_default();
        let at = if mode == "campaign" { 3 } else { 2 };
        let default_rounds = match mode.as_str() {
            "serial" => 12_000,
            "campaign" => 30,
            "survey" => 3,
            "setup" => 16,
            "build" => 10,
            "fill" => 20,
            _ => {
                eprintln!(
                    "usage: cpu_sites serial [requests] [seed] [leaf]\n       \
                     cpu_sites campaign [workers] [rounds] [seed] [leaf]\n       \
                     cpu_sites survey [rounds] [seed] [leaf]\n       \
                     cpu_sites setup [rounds] [seed] [leaf]\n       \
                     cpu_sites build [rounds] [seed] [leaf]\n       \
                     cpu_sites fill [rounds] [seed] [leaf]"
                );
                std::process::exit(2);
            }
        };
        let rounds: usize = arg(at, "the round count", default_rounds);
        let seed: u64 = arg(at + 1, "seed", 1);
        let leaf = std::env::args().nth(at + 2);
        start_sampling();
        match mode.as_str() {
            "serial" => serial_sweep(rounds, seed),
            "campaign" => {
                let workers = arg(2, "workers", LoopConfig::parallel().workers);
                campaign_rounds(workers, rounds, seed);
            }
            "survey" => survey_rounds(rounds, seed),
            "build" => build_rounds(rounds, seed),
            "fill" => fill_rounds(rounds, seed),
            _ => setup_rounds(rounds, seed),
        }
        let [wall, cpu] = [0, 1].map(|i| ROUNDS_NS[i].load(Ordering::Relaxed) as f64 / 1e9);
        println!("{mode}: {wall:.2} s of wall and {cpu:.2} s of CPU inside the rounds");
        report(leaf.as_deref());
    }
}
