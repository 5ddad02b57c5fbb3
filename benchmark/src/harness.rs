//! The round structure every workload shares: untimed set-up, warm-up
//! rounds, then a fixed number of timed rounds of equal op count; raw wall,
//! CPU and allocation deltas around each timed round; exact counts read
//! from the program's public counters after it.

use std::time::Instant;

use revtr::{RevtrResult, RevtrSystem};
use revtr_netsim::oracle::Oracle;
use revtr_netsim::{Addr, Sim};
use revtr_probing::{CacheStats, Prober, Snapshot, StopSet, StopSetSnapshot};
use revtr_telemetry::Fnv;

use crate::config::WARMUP_ROUNDS;
use crate::metrics::Report;
use crate::spans::{SpanBuf, ROOT};
use crate::{alloc, host, stats};

/// An open timed window: where it started, and the round's own span for
/// the calls made inside it to name as parent.
pub struct Window {
    pub round: i32,
    pub span: u32,
    t0: Instant,
    cpu0: u64,
    allocs0: u64,
    bytes0: u64,
    samples0: usize,
}

/// Raw measurements of one run.
pub struct Harness {
    pub trace: bool,
    pub seed: u64,
    /// Timed rounds.
    pub rounds: usize,
    pub spans: SpanBuf,
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed round, and whether it was traced.
    pub walls: Vec<f64>,
    pub traced: Vec<bool>,
    /// Process CPU nanoseconds of each timed round, and their sum.
    pub round_cpu_ns: Vec<u64>,
    pub cpu_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Ops over all timed rounds.
    pub ops: u64,
    pub ops_per_round: u64,
    /// Untimed per-round preparation, all rounds.
    pub prep_s: f64,
    prep_t0: Option<Instant>,
    /// Per-op wall nanoseconds pooled over the timed rounds (only the
    /// workloads whose op is one call fill it).
    pub op_ns: Vec<u32>,
}

impl Harness {
    pub fn new(trace: bool, seed: u64, rounds: usize) -> Harness {
        Harness {
            trace,
            seed,
            rounds,
            // Room for the set-up spans; `reserve` adds the rounds'.
            spans: SpanBuf::with_capacity(if trace { 64 } else { 0 }),
            setup_s: Vec::new(),
            walls: Vec::with_capacity(rounds),
            traced: Vec::with_capacity(rounds),
            round_cpu_ns: Vec::with_capacity(rounds),
            cpu_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
            ops: 0,
            ops_per_round: 0,
            prep_s: 0.0,
            prep_t0: None,
            op_ns: Vec::new(),
        }
    }

    /// Size the buffers the timed windows write to, once the per-round
    /// counts are known: per-op latency samples (0 for the workloads whose
    /// round is one call) and spans, prep spans included.
    pub fn reserve(&mut self, op_samples_per_round: usize, spans_per_round: usize) {
        self.op_ns.reserve_exact(self.rounds * op_samples_per_round);
        if self.trace {
            let traced_rounds = self.rounds / 2;
            self.spans.reserve(traced_rounds * (spans_per_round + 1));
        }
    }

    /// Rounds to run, warm-up included.
    pub fn total_rounds(&self) -> usize {
        WARMUP_ROUNDS + self.rounds
    }

    pub fn is_timed(round: usize) -> bool {
        round >= WARMUP_ROUNDS
    }

    /// In a traced run every second timed round records spans, so one run
    /// yields both sides of `bench.trace_overhead_ratio` on near-identical
    /// work.
    pub fn is_traced(&self, round: usize) -> bool {
        self.trace && Self::is_timed(round) && (round - WARMUP_ROUNDS) % 2 == 1
    }

    /// Time one full set-up (the caller repeats it and the median is
    /// reported). Spans are recorded in a traced run.
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut SpanBuf) -> R) -> R {
        self.spans.enabled = self.trace;
        let t0 = Instant::now();
        let r = f(&mut self.spans);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.spans.enabled = false;
        r
    }

    /// Start the untimed preparation of `round`; it ends when the round's
    /// timed window opens.
    pub fn begin_prep(&mut self, round: usize) {
        self.spans.enabled = self.is_traced(round);
        self.prep_t0 = Some(Instant::now());
    }

    /// Open the timed window of `round`. Between here and
    /// [`Harness::close_round`] the benchmark allocates nothing of its own:
    /// the span and latency buffers are sized up front.
    pub fn open_round(&mut self, round: usize) -> Window {
        if let Some(t) = self.prep_t0.take() {
            self.prep_s += t.elapsed().as_secs_f64();
        }
        self.spans.enabled = self.is_traced(round);
        let (allocs0, bytes0) = alloc::totals();
        let cpu0 = host::process_cpu_ns();
        let t0 = Instant::now();
        Window {
            round: round as i32,
            span: self.spans.open("bench.round", ROOT, round as i32),
            t0,
            cpu0,
            allocs0,
            bytes0,
            samples0: self.op_ns.len(),
        }
    }

    /// Record one op's wall time (and its span, in a traced round) from
    /// timestamps taken right around the call.
    pub fn op(&mut self, w: &Window, name: &'static str, t0: Instant, t1: Instant) {
        debug_assert!(self.op_ns.len() < self.op_ns.capacity());
        self.op_ns.push((t1 - t0).as_nanos() as u32);
        self.spans.push(name, w.span, w.round, t0, t1);
    }

    /// Close the window after `ops` operations.
    pub fn close_round(&mut self, w: Window, ops: u64) {
        self.spans.close(w.span);
        let wall = w.t0.elapsed().as_secs_f64();
        let cpu1 = host::process_cpu_ns();
        let (allocs1, bytes1) = alloc::totals();
        let traced = self.spans.enabled;
        self.spans.enabled = false;
        if Self::is_timed(w.round as usize) {
            self.walls.push(wall);
            self.traced.push(traced);
            self.round_cpu_ns.push(cpu1 - w.cpu0);
            self.cpu_ns += cpu1 - w.cpu0;
            self.allocs += allocs1 - w.allocs0;
            self.alloc_bytes += bytes1 - w.bytes0;
            self.ops += ops;
            self.ops_per_round = ops;
        } else {
            self.op_ns.truncate(w.samples0);
        }
    }

    /// Wall seconds of all timed rounds.
    pub fn timed_wall_s(&self) -> f64 {
        self.walls.iter().sum()
    }

    fn walls_where(&self, traced: bool) -> Vec<f64> {
        self.walls
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&w, _)| w)
            .collect()
    }

    /// The metrics the harness measures itself: set-up, memory, allocations,
    /// and raw host time. Everything is raw: divided by its own op count,
    /// nothing else.
    ///
    /// Throughput and CPU cost are read off the *fastest* round. Noise on a
    /// shared host is one-sided — a busy neighbour only ever slows a round,
    /// for tens of seconds at a time — so the fast end of the rounds is the
    /// steady end: over ten runs the fastest round spread 8–21 % between
    /// runs, the p10 round 14–22 %, the median and the mean 16–28 %. Even so
    /// that is too wide for a bound: see `metrics::HOST_TIME`.
    pub fn report_host_time(&self, rep: &mut Report) {
        let ops = self.ops as f64;
        let per_round = self.ops_per_round as f64;
        let least_cpu_ns = *self.round_cpu_ns.iter().min().expect("a timed round ran");
        rep.set("setup_s", stats::median(&self.setup_s));
        rep.set(
            "bench.ops_per_s",
            per_round / stats::fastest_round(&self.walls),
        );
        rep.set("bench.cpu_us_per_op", least_cpu_ns as f64 / 1e3 / per_round);
        rep.set("peak_rss_mb", host::peak_rss_mb());
        rep.set("allocs_per_op", self.allocs as f64 / ops);
        rep.set("alloc_kb_per_op", self.alloc_bytes as f64 / 1024.0 / ops);

        rep.set("bench.ops_per_s_mean", ops / self.timed_wall_s());
        rep.set(
            "bench.round_spread",
            stats::median(&self.walls) / stats::fastest_round(&self.walls),
        );
        rep.set(
            "bench.round_prep_s",
            self.prep_s / self.total_rounds() as f64,
        );
        if !self.op_ns.is_empty() {
            let mut ns = self.op_ns.clone();
            ns.sort_unstable();
            rep.set(
                "bench.op_p50_us",
                f64::from(stats::nearest_rank(&ns, 50.0)) / 1e3,
            );
            rep.set(
                "bench.op_p99_us",
                f64::from(stats::nearest_rank(&ns, 99.0)) / 1e3,
            );
        }
        let (on, off) = (self.walls_where(true), self.walls_where(false));
        if !on.is_empty() && !off.is_empty() {
            rep.set(
                "bench.trace_overhead_ratio",
                stats::fastest_round(&on) / stats::fastest_round(&off),
            );
        }
        rep.set(
            "core.pool_cpu_ratio",
            self.cpu_ns as f64 / 1e9 / self.timed_wall_s(),
        );
        rep.set("host.cores", host::cores() as f64);
    }
}

/// Reverse hops kept for the layer probes.
pub const HOP_SAMPLE: usize = 256;

/// A reading of every public counter behind one prober, taken before and
/// after a timed window. The default is what a fresh simulator and a fresh
/// prober read.
#[derive(Clone, Copy, Default)]
pub struct Mark {
    pkts: Snapshot,
    clock_ms: f64,
    cache: CacheStats,
    stop: StopSetSnapshot,
    route_computes: u64,
}

impl Mark {
    pub fn read(sim: &Sim, prober: &Prober<'_>, stopset: Option<&StopSet>) -> Mark {
        Mark {
            pkts: prober.counters().snapshot(),
            clock_ms: prober.clock().now_ms(),
            cache: prober.cache().stats(),
            stop: stopset.map(StopSet::stats).unwrap_or_default(),
            route_computes: sim.route_computes(),
        }
    }
}

/// Exact counts summed over the timed rounds, and gauges of the last one.
#[derive(Default)]
pub struct Counts {
    pub attempted: u64,
    /// Ops that ended in an error or a panic: never expected.
    pub failed: u64,
    /// Ops the admission layer refused by design (open loop only).
    pub shed: u64,
    pub pkts: Snapshot,
    pub virtual_ms: f64,
    pub cache: CacheStats,
    pub stop: StopSetSnapshot,
    pub route_computes: u64,
    /// Engine steps, where the outcome reports them itself.
    pub events: u64,
    /// Paths (revtrs, or atlas traceroutes) judged, complete, compared
    /// against the oracle, and found inside the true AS path.
    pub paths: u64,
    pub complete: u64,
    pub compared: u64,
    pub sound: u64,
    pub intersected: u64,
    pub batches: u64,
    pub reused_steps: u64,
    /// Virtual duration of every op.
    pub virtual_s: Vec<f64>,
    // Gauges, last timed round.
    pub route_cache_bytes: u64,
    pub cache_bytes: u64,
    pub stopset_bytes: u64,
    pub atlas_bytes: u64,
    pub atlas_index_addrs: u64,
    pub sim_hours: f64,
    /// `(source, reverse hop)` pairs out of the results: what the engine's
    /// RR probes were aimed at, for the layer probes to aim at too.
    pub hop_sample: Vec<(Addr, Addr)>,
    /// Fingerprint of the first timed round's outcomes.
    pub fingerprint: Option<u64>,
}

impl Counts {
    /// Add what happened between two marks.
    pub fn add_window(&mut self, before: &Mark, after: &Mark) {
        self.pkts = self.pkts.plus(&after.pkts.since(&before.pkts));
        self.virtual_ms += after.clock_ms - before.clock_ms;
        self.cache.hits += after.cache.hits - before.cache.hits;
        self.cache.misses += after.cache.misses - before.cache.misses;
        self.cache.inserts += after.cache.inserts - before.cache.inserts;
        self.cache.expired += after.cache.expired - before.cache.expired;
        let stop = after.stop.since(&before.stop);
        self.stop.backward_hits += stop.backward_hits;
        self.stop.backward_misses += stop.backward_misses;
        self.stop.forward_hits += stop.forward_hits;
        self.stop.forward_misses += stop.forward_misses;
        self.stop.direct_skips += stop.direct_skips;
        self.stop.spoof_skips += stop.spoof_skips;
        self.stop.vp_skips += stop.vp_skips;
        self.stop.winner_hits += stop.winner_hits;
        self.route_computes += after.route_computes - before.route_computes;
    }

    /// Read the gauges: bytes held by the caches, stop sets and atlases of
    /// `system`, and how far the simulator's clock has run.
    pub fn read_gauges(&mut self, sim: &Sim, system: &RevtrSystem<'_>) {
        self.route_cache_bytes = sim.route_cache_bytes();
        self.cache_bytes = system.prober().cache().approx_bytes();
        self.stopset_bytes = system.stopset().approx_bytes().total();
        self.sim_hours = sim.now_hours();
        (self.atlas_bytes, self.atlas_index_addrs) = (0, 0);
        for src in system.sources() {
            let atlas = system.atlas(src);
            self.atlas_bytes += atlas.traces_bytes() + atlas.index_bytes();
            self.atlas_index_addrs += atlas.index_size() as u64;
        }
    }

    /// Judge one reverse traceroute: complete if it reached the source,
    /// sound if every AS it shows lies on the true AS path.
    pub fn add_revtr(&mut self, oracle: &Oracle<'_>, r: &RevtrResult) {
        self.paths += 1;
        self.batches += u64::from(r.stats.batches);
        self.reused_steps += u64::from(r.stats.stopset_reused_steps);
        self.intersected += u64::from(r.stats.intersected_trace.is_some());
        self.virtual_s.push(r.stats.duration_s);
        if self.hop_sample.len() < HOP_SAMPLE && r.hops.len() > 1 {
            // A hop at a depth that varies from result to result.
            let depth = 1 + self.paths as usize % (r.hops.len() - 1);
            if let Some(hop) = r.hops[depth].addr {
                self.hop_sample.push((r.src, hop));
            }
        }
        if r.complete() {
            self.complete += 1;
            self.add_path(oracle, r.dst, r.src, r.addrs());
        }
    }

    /// Compare a measured address path from `from` toward `to` with the
    /// oracle's true AS path.
    pub fn add_path(
        &mut self,
        oracle: &Oracle<'_>,
        from: Addr,
        to: Addr,
        addrs: impl Iterator<Item = Addr>,
    ) {
        let Some(truth) = oracle.true_as_path(from, to) else {
            return;
        };
        self.compared += 1;
        let mut inside = true;
        for a in addrs {
            if let Some(asn) = oracle.true_as_of(a) {
                inside &= truth.contains(&asn);
            }
        }
        self.sound += u64::from(inside);
    }

    /// The exact end-to-end metrics and the count-derived per-layer ones.
    pub fn report(&self, h: &Harness, rep: &mut Report) {
        let ops = h.ops as f64;
        let kop = ops / 1e3;
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        rep.set("probes_per_op", self.pkts.all_packets() as f64 / ops);
        rep.set("virtual_s_per_op", self.virtual_ms / 1e3 / ops);
        let mut v = self.virtual_s.clone();
        v.sort_by(f64::total_cmp);
        rep.set("virtual_p99_s", stats::nearest_rank(&v, 99.0));
        rep.set("complete_ratio", ratio(self.complete, self.paths));
        rep.set("sound_ratio", ratio(self.sound, self.compared));
        rep.set(
            "ok_ratio",
            ratio(self.attempted - self.failed - self.shed, self.attempted),
        );

        rep.set(
            "netsim.route_computes_per_kop",
            self.route_computes as f64 / kop,
        );
        rep.set("netsim.route_cache_mb", mb(self.route_cache_bytes));
        rep.set("netsim.virtual_hours", self.sim_hours);
        for (name, n) in [
            ("probing.pkts_per_op.ping", self.pkts.ping),
            ("probing.pkts_per_op.rr", self.pkts.rr),
            ("probing.pkts_per_op.spoof_rr", self.pkts.spoof_rr),
            ("probing.pkts_per_op.ts", self.pkts.ts + self.pkts.spoof_ts),
            ("probing.pkts_per_op.traceroute", self.pkts.traceroute_pkts),
            ("probing.pkts_per_op.atlas_rr", self.pkts.atlas_rr),
        ] {
            rep.set(name, n as f64 / ops);
        }
        rep.set("probing.cache.hit_ratio", self.cache.hit_rate());
        rep.set(
            "probing.cache.expired_per_kop",
            self.cache.expired as f64 / kop,
        );
        rep.set(
            "probing.cache.inserts_per_kop",
            self.cache.inserts as f64 / kop,
        );
        rep.set("probing.cache_mb", mb(self.cache_bytes));
        rep.set(
            "probing.stopset.backward_hit_ratio",
            ratio(self.stop.backward_hits, self.stop.backward_lookups()),
        );
        rep.set(
            "probing.stopset.forward_hit_ratio",
            ratio(self.stop.forward_hits, self.stop.forward_lookups()),
        );
        let skips = self.stop.direct_skips + self.stop.spoof_skips + self.stop.vp_skips;
        rep.set("probing.stopset.skips_per_kop", skips as f64 / kop);
        rep.set("probing.stopset_mb", mb(self.stopset_bytes));
        rep.set("probing.retries_per_kop", self.pkts.retries as f64 / kop);
        rep.set("probing.lost_per_kop", self.pkts.lost as f64 / kop);
        rep.set("atlas.mb", mb(self.atlas_bytes));
        rep.set("atlas.index_addrs", self.atlas_index_addrs as f64);
        rep.set("atlas.intersect_ratio", ratio(self.intersected, self.paths));
        let events = self.events.max(self.pkts.events);
        rep.set("core.events_per_op", events as f64 / ops);
        if events > 0 {
            rep.set("core.ns_per_event", h.timed_wall_s() * 1e9 / events as f64);
        }
        rep.set("core.batches_per_op", self.batches as f64 / ops);
        rep.set("core.stopset_reused_per_op", self.reused_steps as f64 / ops);
        rep.set("core.task_bytes", revtr::task_footprint_bytes() as f64);
    }
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// FNV-1a over a round's outcomes — status, hop addresses and methods per
/// result, `shed` for a refused arrival — the identity the determinism
/// contract is stated on (probe counts are deliberately left out).
pub fn results_fingerprint<'r>(outcomes: impl IntoIterator<Item = Option<&'r RevtrResult>>) -> u64 {
    let mut h = Fnv::new();
    for (i, r) in outcomes.into_iter().enumerate() {
        h.write_u64(i as u64);
        match r {
            None => h.write(b"shed"),
            Some(r) => {
                h.write(r.status.label().as_bytes());
                for hop in &r.hops {
                    h.write_u64(hop.addr.map_or(u64::MAX, |a| u64::from(a.0)));
                    h.write(&[hop.method as u8]);
                }
            }
        }
    }
    h.finish()
}
