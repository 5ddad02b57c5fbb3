//! The Reverse Traceroute system: the control flow of Fig. 2.
//!
//! One engine implements both revtr 1.0 and revtr 2.0; [`EngineConfig`]
//! selects the techniques. Per measurement, the loop is:
//!
//! 1. does the current hop intersect the source's traceroute atlas (via
//!    the RR-atlas alias index, §4.2, or external alias data for 1.0)?
//!    → complete with the atlas suffix;
//! 2. can record route reveal the next reverse hop — first a direct RR
//!    ping from the source, then spoofed batches from ingress-selected
//!    vantage points (§4.3)?
//! 3. (revtr 1.0 only) do timestamp adjacency tests confirm a next hop?
//! 4. otherwise measure the last link of the forward path to the current
//!    hop and assume it symmetric — unconditionally for 1.0; only if
//!    intradomain for 2.0, aborting rather than guessing across AS
//!    boundaries (§4.4).

use crate::config::{EngineConfig, VpSelection};
use crate::engine::MeasureTask;
use crate::result::{RevtrHop, RevtrResult, RevtrStats};
use crate::scratch::{novel, on_path, Scratch, DEMOTED};
use parking_lot::{Mutex, RwLock};
use revtr_aliasing::{AliasResolver, Ip2As, RelationshipDb};
use revtr_atlas::{Intersection, SourceAtlas};
use revtr_netsim::hash::mix3;
use revtr_netsim::{Addr, AsId, PrefixId, RrSlots, Sim};
use revtr_probing::{
    LastLink, Meter, ProbeLoss, Prober, RequestScope, RrProvenance, Snapshot, SpanCost, SpanToken,
    StopSet,
};
use revtr_vpselect::{IngressDb, PlanView};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Extract reverse hops from an RR reply to `dst`: the slots after the
/// destination's own stamp (located by exact match, or by the Appx. C
/// double-stamp pattern for loopback/private destinations). `None` when the
/// stamp cannot be located — the reply is unusable.
///
/// The exact match takes the *last* occurrence: the forward path can
/// legitimately traverse the destination router before reaching the probed
/// interface (a customer-side /30 address routed via its provider), which
/// plants `dst` in the forward leg. Whenever `dst` appears at all, the
/// destination also stamps it at the forward/reply boundary, so the last
/// occurrence is never before the boundary — while the first can be, and
/// taking it would misattribute forward stamps to the reverse path.
pub fn extract_reverse_hops(slots: &[Addr], dst: Addr) -> Option<&[Addr]> {
    let pos = slots
        .iter()
        .rposition(|&s| s == dst)
        .or_else(|| slots.windows(2).position(|w| w[0] == w[1]).map(|p| p + 1))?;
    Some(&slots[pos + 1..])
}

/// Ark-style adjacency dataset: address → neighbouring addresses.
type AdjacencyDb = HashMap<Addr, Vec<Addr>>;

/// The symmetry step's decision inputs (recorded as stitch evidence).
pub(crate) struct SymmetryDecision {
    pub(crate) penult: Addr,
    pub(crate) penult_as: Option<AsId>,
    pub(crate) cur_as: Option<AsId>,
    pub(crate) interdomain: bool,
}

/// How many consecutive re-batches a VP queue may hold its position when
/// its probe is lost to a *transient* fault, before the queue advances to
/// the next (less close) VP anyway. Bounded so rr_step always terminates
/// even under total loss.
const TRANSIENT_STALL_BUDGET: u32 = 2;

/// The stall budget under [`EngineConfig::harden`] for VPs not under
/// quarantine: adversarial rate limiters drop most spoofed attempts but
/// re-roll per attempt, so giving a VP more re-batches converts
/// persistent-looking loss back into coverage (the
/// `asymmetric_rate_limiters` countermeasure). The probe bloat this
/// would cause under a persistent spoof filter is contained by the
/// quarantine window, which withdraws the raise from VPs whose pairs
/// have stopped resolving alive.
const HARDENED_STALL_BUDGET: u32 = 6;

/// The stall budget for *quarantined* VPs under [`EngineConfig::harden`]:
/// the campaign already explains their vanishing probes (a spoof filter is
/// swallowing them), so holding a ladder position for more re-batches only
/// spends batches the live VPs behind them need. One re-batch (not zero)
/// keeps a recovering VP able to re-prove itself without re-opening the
/// probe-bloat the raised hardened budget would cause.
const QUARANTINED_STALL_BUDGET: u32 = 1;

/// An open telemetry stage: the span token plus the request meter's tally
/// at entry, so the exit can attach this stage's exact probe delta — the
/// request's own charges, hence worker-count-invariant. Stage spans are
/// held across steps inside a measurement's control block.
pub(crate) struct StageStart {
    tok: Option<SpanToken>,
    snap: Snapshot,
}

impl StageStart {
    /// An inert placeholder (exit on it is a no-op); used when moving a
    /// live span out of a partially-consumed [`RrMachine`].
    pub(crate) fn empty() -> StageStart {
        StageStart {
            tok: None,
            snap: Snapshot::default(),
        }
    }
}

/// What a request keeps account of while it runs, lent by its control
/// block to the stage functions for one step: the result statistics, the
/// telemetry scope, and the meter every probe and every span reads.
pub(crate) struct Books<'t> {
    pub(crate) stats: &'t mut RevtrStats,
    pub(crate) req: &'t mut RequestScope,
    pub(crate) meter: &'t mut Meter,
}

impl Books<'_> {
    /// Open a telemetry stage span (no-op on an inactive scope — the
    /// tally is not even copied then, keeping the disabled path free).
    pub(crate) fn enter(&mut self, stage: &'static str) -> StageStart {
        if !self.req.active() {
            return StageStart::empty();
        }
        StageStart {
            tok: self.req.enter(stage, self.meter.ms),
            snap: self.meter.tally,
        }
    }

    /// Close a telemetry stage span, attaching the request's probe delta
    /// since entry (option probes, packets, retries, fault losses) plus up
    /// to five stage-specific fields.
    pub(crate) fn exit(&mut self, st: StageStart, extra: &[(&'static str, u64)]) {
        if st.tok.is_none() {
            return;
        }
        let d = self.meter.tally.since(&st.snap);
        let mut fields = [("", 0); 9];
        fields[..4].copy_from_slice(&[
            ("probes", d.option_probes()),
            ("pkts", d.all_packets()),
            ("retries", d.retries),
            ("lost", d.lost),
        ]);
        let n = 4 + extra.len();
        fields[4..n].copy_from_slice(extra);
        let cost = SpanCost {
            events: d.events,
            cache_bytes: d.cache_bytes,
            probe_bytes: d.probe_bytes(),
        };
        self.req
            .exit_costed(st.tok, self.meter.ms, &fields[..n], cost);
    }
}

/// A concluded record-route step: the newly discovered reverse hops (held
/// inline — one reply has at most nine slots), the provenance of the
/// revealing probe (all hops of one return come from one reply), and
/// whether that probe was spoofed.
pub(crate) type RrFound = (RrSlots, RrProvenance, bool);

/// Outcome of [`RevtrSystem::rr_begin`]: either the step concluded without
/// needing a spoofed batch, or a machine carrying the spoofed-round state.
// A transient return value, destructured by the caller on the next line —
// never stored — so the Done/Pending size gap costs nothing; boxing the
// machine would add a heap round-trip per RR step instead.
#[allow(clippy::large_enum_variant)]
pub(crate) enum RrProgress<'a> {
    /// The step finished (direct RR hit, or no usable VP queues).
    Done(Option<RrFound>),
    /// Spoofed rounds pending; drive with [`RevtrSystem::rr_round`].
    Pending(RrMachine<'a>),
}

/// Mid-flight state of a record-route step's spoofed-batch rounds: the VP
/// plan it walks — borrowed from the ingress database, never copied —
/// plus the open `rr_step`/`rr_spoofed` telemetry spans. The walk itself
/// (per-queue cursor, stalls and visiting order) and what the rounds
/// learn sit in the driver's [`Scratch`]. One [`RevtrSystem::rr_round`]
/// call issues one batch — one virtual 10 s collection timeout — and is
/// one step (one event) of the control block that parks the machine
/// between rounds.
pub(crate) struct RrMachine<'a> {
    cur: Addr,
    st: StageStart,
    spoof_span: StageStart,
    batches0: u32,
    plan: PlanView<'a>,
    /// Whether any round produced a *usable* reply (ingress check passed
    /// and slots survived past the target), even if it revealed nothing
    /// novel for this request's path. Gates the cross-source
    /// `SpoofFutile` publication: only a ladder with zero usable replies
    /// proves the router unreachable by this plan's VPs.
    pub(crate) usable_seen: bool,
    /// Spoofed-batch width for this ladder: the engine's configured
    /// `batch_size` normally, or a smaller cap when the admission
    /// layer's degradation ladder is shrinking spoofed batches.
    batch_cap: usize,
}

/// Hints a record-route step takes from the campaign stop sets: facts an
/// earlier request already paid probes to learn at the same router. The
/// two set-valued hints — VPs to deprioritize, VPs under quarantine —
/// ride in the driver's [`Scratch`] (`demoted`, `quarantined`), filled by
/// whoever builds these.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RrHints {
    /// Skip the direct (non-spoofed) RR ping — known futile for this
    /// source at this router.
    pub(crate) skip_direct: bool,
    /// Skip the whole spoofed ladder — an earlier request exhausted it at
    /// this router without a single usable reply.
    pub(crate) skip_spoofed: bool,
    /// Open the spoofed ladder with this VP alone (the router's
    /// remembered winner); the full queues stay staged as a fallback.
    pub(crate) winner: Option<Addr>,
    /// Cap on the spoofed-batch width (degradation ladder L1+): `None`
    /// uses the engine's configured `batch_size`.
    pub(crate) batch_cap: Option<usize>,
}

/// The orchestrating system (Appx. A): sources, atlases, vantage points,
/// and the measurement engine. Thread-safe; campaigns call
/// [`RevtrSystem::measure`] concurrently.
pub struct RevtrSystem<'s> {
    sim: &'s Sim,
    cfg: EngineConfig,
    prober: Prober<'s>,
    vps: Vec<Addr>,
    ingress: Arc<IngressDb>,
    ip2as: Ip2As,
    rels: Arc<RelationshipDb>,
    resolver: Arc<AliasResolver<'s>>,
    atlas_pool: Vec<Addr>,
    atlases: RwLock<HashMap<Addr, Arc<SourceAtlas>>>,
    /// Per-source: alias cluster id → intersection (revtr 1.0's Q2).
    alias_index: RwLock<HashMap<Addr, Arc<HashMap<u64, Intersection>>>>,
    adjacency: RwLock<Option<Arc<AdjacencyDb>>>,
    /// Extra adjacencies injected by the caller (the Fig. 5b / Appx. D.1
    /// "ground truth adjacencies" experiment feeds oracle data here).
    extra_adjacency: RwLock<HashMap<Addr, Vec<Addr>>>,
    /// (source, trace) → times intersected, for the refresh policy.
    usage: Mutex<HashMap<(Addr, usize), u64>>,
    /// Per-source refresh generation (selects new random atlas probes).
    generation: Mutex<HashMap<Addr, u64>>,
    /// The campaign-wide probe-economy layer (consulted and fed only when
    /// [`EngineConfig::use_stop_sets`] is set).
    stopset: Arc<StopSet>,
    /// The host's core count — the ceiling on a pool's width — resolved
    /// by the first pool: asking the OS reads cgroup files (15 µs, four
    /// allocations), too dear per campaign of a few requests and wasted
    /// on a system that never runs one.
    cores: OnceLock<usize>,
    /// Idle request scratches. A driver takes one for as long as it
    /// drives and hands it back, so the list never holds more than the
    /// most drivers that ever ran at once; a driver that panics drops
    /// its scratch instead.
    scratches: Mutex<Vec<Scratch>>,
}

impl<'s> RevtrSystem<'s> {
    /// Assemble a system.
    ///
    /// * `prober` supplies counters/clock/cache shared with any background
    ///   measurement already performed (e.g. the `ingress` build);
    /// * `vps` are the M-Lab-like spoof-capable vantage points;
    /// * `atlas_pool` is the population of Atlas-like probe hosts atlases
    ///   draw from.
    pub fn new(
        prober: Prober<'s>,
        cfg: EngineConfig,
        vps: Vec<Addr>,
        ingress: Arc<IngressDb>,
        atlas_pool: Vec<Addr>,
    ) -> RevtrSystem<'s> {
        let sim = prober.sim();
        let prober = prober.with_cache_enabled(cfg.use_cache);
        let ip2as = if cfg.registry_only_ip2as {
            Ip2As::registry_only(sim)
        } else {
            Ip2As::new(sim)
        };
        RevtrSystem {
            sim,
            cfg,
            ip2as,
            rels: Arc::new(RelationshipDb::new(sim)),
            resolver: Arc::new(AliasResolver::new(sim)),
            prober,
            vps,
            ingress,
            atlas_pool,
            atlases: RwLock::new(HashMap::new()),
            alias_index: RwLock::new(HashMap::new()),
            adjacency: RwLock::new(None),
            extra_adjacency: RwLock::new(HashMap::new()),
            usage: Mutex::new(HashMap::new()),
            generation: Mutex::new(HashMap::new()),
            stopset: Arc::new(StopSet::new()),
            cores: OnceLock::new(),
            scratches: Mutex::new(Vec::new()),
        }
    }

    /// The host's core count.
    pub(crate) fn cores(&self) -> usize {
        *self
            .cores
            .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Take an idle scratch (or a fresh one) to drive requests with.
    pub(crate) fn take_scratch(&self) -> Scratch {
        self.scratches.lock().pop().unwrap_or_default()
    }

    /// Hand a scratch back once its driver is done with it.
    pub(crate) fn return_scratch(&self, sx: Scratch) {
        self.scratches.lock().push(sx);
    }

    /// The campaign stop sets (empty and unconsulted unless
    /// [`EngineConfig::use_stop_sets`] is set).
    pub fn stopset(&self) -> &StopSet {
        &self.stopset
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shared prober (counters, clock, cache).
    pub fn prober(&self) -> &Prober<'s> {
        &self.prober
    }

    /// Stuck-request watchdog flags accumulated so far: requests whose
    /// measurement span overran the telemetry handle's virtual deadline
    /// (flagged, never killed), sorted by `(src, dst, stage)`. Empty
    /// unless the prober carries a telemetry handle with an armed
    /// [`revtr_probing::TelemetryConfig::watchdog_deadline_ms`].
    pub fn watchdog_flags(&self) -> Vec<revtr_probing::WatchdogFlag> {
        self.prober.telemetry().watchdog_flags()
    }

    /// The simulator.
    pub fn sim(&self) -> &'s Sim {
        self.sim
    }

    /// The vantage points.
    pub fn vps(&self) -> &[Addr] {
        &self.vps
    }

    /// Record one deterministic resource snapshot across every subsystem
    /// this system owns into the telemetry ledger registry. No-op unless
    /// profiling is enabled. Called by the engine at wave barriers (and by
    /// the admission layer between waves), so `ord` — the barrier ordinal —
    /// and every reading are pure functions of the seed: ledger contents
    /// are worker-invariant (caches fill single-flight, stop sets merge in
    /// stamp order) and the barrier schedule is fixed by the input order.
    pub fn snapshot_resources(&self, ord: u64) {
        let tele = self.prober.telemetry();
        if !tele.profiling() {
            return;
        }
        let sim = self.sim;
        tele.resource_record("netsim.route_cache", ord, sim.route_cache_bytes());
        tele.resource_record("netsim.border_cache", ord, sim.border_cache_bytes());
        tele.resource_record("netsim.fib", ord, sim.fib_bytes());
        let cache = self.prober.cache();
        tele.resource_record(
            "probing.cache.last_link",
            ord,
            cache.last_link_len() as u64 * revtr_probing::LAST_LINK_ENTRY_BYTES,
        );
        tele.resource_record(
            "probing.cache.rr",
            ord,
            cache.rr_len() as u64 * revtr_probing::RR_ENTRY_BYTES,
        );
        let ss = self.stopset.approx_bytes();
        tele.resource_record("probing.stopset.backward", ord, ss.backward);
        tele.resource_record("probing.stopset.forward", ord, ss.forward);
        tele.resource_record("probing.stopset.ladder", ord, ss.ladder);
        tele.resource_record("probing.stopset.futility", ord, ss.futility);
        let (traces, index) = {
            let atlases = self.atlases.read();
            atlases.values().fold((0u64, 0u64), |(t, i), a| {
                (t + a.traces_bytes(), i + a.index_bytes())
            })
        };
        tele.resource_record("atlas.traces", ord, traces);
        tele.resource_record("atlas.index", ord, index);
    }

    // ---- sources & atlases ---------------------------------------------------

    /// Choose this generation's atlas probes for a source.
    fn pick_atlas_probes(&self, src: Addr, keep: &[Addr]) -> Vec<Addr> {
        let generation = *self.generation.lock().entry(src).or_insert(0);
        let mut out: Vec<Addr> = keep.to_vec();
        let want = self.cfg.atlas_size;
        let n = self.atlas_pool.len();
        if n == 0 {
            return out;
        }
        let mut i = 0u64;
        while out.len() < want.min(n) && i < (n as u64) * 4 {
            let idx = (mix3(
                self.sim.seed() ^ 0xa71c,
                src.0 as u64,
                generation ^ (i << 20),
            ) % n as u64) as usize;
            let cand = self.atlas_pool[idx];
            if !out.contains(&cand) && cand != src {
                out.push(cand);
            }
            i += 1;
        }
        out
    }

    /// Register `src` as a reverse traceroute source: build its traceroute
    /// atlas (and RR-atlas, per config). This is the source bootstrap of
    /// Appx. A (~15 virtual minutes of measurement).
    pub fn register_source(&self, src: Addr) {
        if self.atlases.read().contains_key(&src) {
            return;
        }
        let probes = self.pick_atlas_probes(src, &[]);
        let atlas = Arc::new(SourceAtlas::build_with_discovery(
            &self.prober,
            src,
            &probes,
            self.cfg.use_rr_atlas,
            self.cfg.use_stop_sets.then(|| &*self.stopset),
        ));
        self.atlases.write().insert(src, atlas);
        self.alias_index.write().remove(&src);
        self.adjacency.write().take();
    }

    /// Refresh a source's atlas (the daily cycle of Q1): traces that were
    /// intersected since the last refresh keep their probes; the rest are
    /// replaced with freshly drawn ones.
    pub fn refresh_atlas(&self, src: Addr) {
        let Some(old) = self.atlases.read().get(&src).cloned() else {
            self.register_source(src);
            return;
        };
        let used: Vec<Addr> = {
            let usage = self.usage.lock();
            old.traces
                .iter()
                .enumerate()
                .filter(|(i, _)| usage.get(&(src, *i)).copied().unwrap_or(0) > 0)
                .map(|(_, t)| t.vp)
                .collect()
        };
        *self.generation.lock().entry(src).or_insert(0) += 1;
        let probes = self.pick_atlas_probes(src, &used);
        if self.cfg.use_stop_sets {
            // A refresh exists to re-measure staleness; replaying the old
            // discovery observations would defeat it.
            self.stopset.forward_clear_source(src);
        }
        let atlas = Arc::new(SourceAtlas::build_with_discovery(
            &self.prober,
            src,
            &probes,
            self.cfg.use_rr_atlas,
            self.cfg.use_stop_sets.then(|| &*self.stopset),
        ));
        self.atlases.write().insert(src, atlas);
        self.alias_index.write().remove(&src);
        self.adjacency.write().take();
        let mut usage = self.usage.lock();
        usage.retain(|(s, _), _| *s != src);
    }

    /// The current atlas for a source (auto-registers on first use).
    pub fn atlas(&self, src: Addr) -> Arc<SourceAtlas> {
        if let Some(a) = self.atlases.read().get(&src) {
            return a.clone();
        }
        self.register_source(src);
        self.atlases
            .read()
            .get(&src)
            .cloned()
            .expect("register_source populates the atlas")
    }

    /// Registered sources.
    pub fn sources(&self) -> Vec<Addr> {
        self.atlases.read().keys().copied().collect()
    }

    // ---- intersection (Q2) -----------------------------------------------------

    fn alias_index_for(&self, src: Addr, atlas: &SourceAtlas) -> Arc<HashMap<u64, Intersection>> {
        if let Some(m) = self.alias_index.read().get(&src) {
            return m.clone();
        }
        let mut m: HashMap<u64, Intersection> = HashMap::new();
        for (addr, inter) in atlas.indexed_addrs() {
            for id in [self.resolver.snmp_id(addr), self.resolver.midar_id(addr)]
                .into_iter()
                .flatten()
            {
                m.entry(id).or_insert(inter);
            }
        }
        let m = Arc::new(m);
        self.alias_index.write().insert(src, m.clone());
        m
    }

    /// Does `addr` intersect the atlas? With the RR-atlas the index already
    /// holds every RR-visible alias; in revtr 1.0 mode we additionally
    /// consult the external alias datasets (MIDAR-lite / SNMP).
    pub(crate) fn lookup_intersection(
        &self,
        src: Addr,
        atlas: &SourceAtlas,
        addr: Addr,
    ) -> Option<Intersection> {
        if let Some(i) = atlas.lookup(addr) {
            return Some(i);
        }
        if self.cfg.use_alias_datasets {
            let idx = self.alias_index_for(src, atlas);
            for id in [self.resolver.snmp_id(addr), self.resolver.midar_id(addr)]
                .into_iter()
                .flatten()
            {
                if let Some(&i) = idx.get(&id) {
                    return Some(i);
                }
            }
        }
        None
    }

    // ---- adjacency dataset (Q4) ---------------------------------------------------

    fn adjacencies(&self) -> Arc<AdjacencyDb> {
        if let Some(a) = self.adjacency.read().as_ref() {
            return a.clone();
        }
        // Ark-style adjacency extraction: consecutive responsive hops of
        // every atlas traceroute, both directions.
        let mut adj: HashMap<Addr, Vec<Addr>> = HashMap::new();
        for atlas in self.atlases.read().values() {
            for t in &atlas.traces {
                let hops: Vec<Addr> = t.hops.iter().filter_map(|h| *h).collect();
                for w in hops.windows(2) {
                    if w[0] != w[1] {
                        adj.entry(w[0]).or_default().push(w[1]);
                        adj.entry(w[1]).or_default().push(w[0]);
                    }
                }
            }
        }
        for v in adj.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        let adj = Arc::new(adj);
        *self.adjacency.write() = Some(adj.clone());
        adj
    }

    // ---- helpers ------------------------------------------------------------------

    /// True if `addr` means we have arrived at the source.
    pub(crate) fn reached(&self, addr: Addr, src: Addr, src_prefix: Option<PrefixId>) -> bool {
        addr == src
            || (src_prefix.is_some() && self.sim.host_prefix(addr) == src_prefix)
            || (src_prefix.is_some() && self.sim.topo().prefix_of(addr) == src_prefix)
    }

    /// Inject additional adjacency data for the timestamp technique (used
    /// by the Appx. D.1 "perfect adjacencies" experiment).
    pub fn set_extra_adjacencies(&self, map: HashMap<Addr, Vec<Addr>>) {
        *self.extra_adjacency.write() = map;
    }

    /// The ingress-plan key for a probe target: its announced prefix, or
    /// (for infrastructure addresses) the first announced prefix of the
    /// block-owning AS — ingresses are shared across an AS's prefixes.
    fn plan_key(&self, addr: Addr) -> Option<PrefixId> {
        if let Some(p) = self.sim.topo().prefix_of(addr) {
            return Some(p);
        }
        let owner = self.sim.topo().block_owner(addr)?;
        self.sim.topo().asn(owner).prefixes.first().copied()
    }

    /// The ingress-plan key encoded for the stop-set hint maps. Two
    /// routers with equal keys get the very same VP queues from
    /// [`RevtrSystem::vp_plan`], which is what makes plan-keyed ladder
    /// hints (winner VP, per-VP futility) transfer between siblings: the
    /// ladder walks the same VP sequence at both.
    pub(crate) fn stop_plan_key(&self, addr: Addr) -> Option<u64> {
        self.plan_key(addr).map(|p| u64::from(p.0))
    }

    /// The VP plan for probing `cur` under the configured selection
    /// policy, borrowed from the ingress database, plus — for the
    /// set-cover policy — the prefix whose in-range VPs go first.
    fn vp_plan(&self, cur: Addr) -> (PlanView<'_>, Option<PrefixId>) {
        let global = self.ingress.global_plan();
        match self.cfg.vp_selection {
            VpSelection::Ingress => {
                let plan = self
                    .plan_key(cur)
                    .map(|p| self.ingress.plan_view(p))
                    .filter(|plan| !plan.is_empty())
                    // Never-probed prefix: fall back to the global head.
                    .unwrap_or(PlanView::Ranking(&global[..global.len().min(9)]));
                (plan, None)
            }
            // The revtr 1.0 order is the global one with the prefix's
            // in-range VPs moved to the front ([`IngressDb::revtr1_plan`]):
            // the ladder ranks them there instead of copying the plan.
            VpSelection::SetCover => (PlanView::Ranking(global), self.plan_key(cur)),
            VpSelection::Global => (PlanView::Ranking(global), None),
        }
    }

    /// Every VP the spoofed ladder at `cur` could probe from, queue by
    /// queue (a VP covering two ingresses shows up twice).
    pub(crate) fn plan_vps(&self, cur: Addr) -> impl Iterator<Item = Addr> + '_ {
        let (plan, _) = self.vp_plan(cur);
        plan.queues().flat_map(|(_, vps)| vps.iter().copied())
    }

    /// Bump the intersected-trace usage counter feeding the atlas refresh
    /// policy.
    pub(crate) fn note_intersection_usage(&self, src: Addr, trace: usize) {
        *self.usage.lock().entry((src, trace)).or_insert(0) += 1;
    }

    /// Whether two addresses name the same router (or /30 link ends), per
    /// the alias resolver — the DBR-verification comparison.
    pub(crate) fn hop_match(&self, a: Addr, b: Addr) -> bool {
        self.resolver.hop_match(a, b)
    }

    /// Hostile-Internet hardening: cross-validate an RR reply's extracted
    /// reverse hops against the audit oracle's replay of its reply leg
    /// *before* acceptance — the same replay [`revtr_audit`] grades with
    /// after the fact. Stamps the replay cannot reproduce (a lying
    /// responder's fabrications) are dropped, so the step falls through to
    /// the next technique instead of adopting unsound hops. Replays cost
    /// no probes. If the replay itself is unavailable (link-maintenance
    /// faults make walks clock-dependent), the evidence is kept as
    /// measured. On honest replies the extraction is always a subset of
    /// the replay — this filter provably never drops a truthful hop.
    fn harden_rr_filter(&self, rev: &[Addr], prov: &RrProvenance) -> RrSlots {
        let keep_all = || rev.iter().copied().collect();
        if !self.cfg.harden || rev.is_empty() {
            return keep_all();
        }
        let Some(truth) = self.sim.oracle().replay_rr_reply_stamps(
            prov.sender,
            prov.claimed,
            prov.dst,
            prov.nonce,
            prov.fwd_epoch.get(),
            prov.rep_epoch.get(),
        ) else {
            return keep_all();
        };
        let kept: RrSlots = rev.iter().copied().filter(|h| truth.contains(h)).collect();
        if kept.len() < rev.len() {
            self.prober.telemetry().counter_add(
                "core.harden.rr_lies_filtered",
                (rev.len() - kept.len()) as u64,
            );
        }
        kept
    }

    /// Hostile-Internet hardening: pre-grade an atlas intersection's
    /// suffix with the audit oracle's own checks before the engine adopts
    /// it. The join hop must name the frontier router (same router or /30
    /// link peer) and every visible adjacent pair must be plausibly
    /// consecutive on a true path — exactly what [`revtr_audit`] grades
    /// `AtlasIntersection` / `TrToSource` evidence with, so a suffix this
    /// accepts can never audit unsound. A poisoned trace fails one of the
    /// two and is demoted instead of adopted.
    pub(crate) fn atlas_suffix_plausible(&self, cur: Addr, suffix: &[Option<Addr>]) -> bool {
        let oracle = self.sim.oracle();
        let mut prev: Option<Addr> = None;
        for (i, hop) in suffix.iter().enumerate() {
            let Some(addr) = *hop else {
                prev = None;
                continue;
            };
            if i == 0 {
                if addr != cur && !oracle.same_router(cur, addr) && !oracle.link_coupled(cur, addr)
                {
                    return false;
                }
            } else if let Some(p) = prev {
                if !oracle.plausibly_consecutive(p, addr) {
                    return false;
                }
            }
            prev = Some(addr);
        }
        true
    }

    /// Hostile-Internet hardening: can the audit oracle's path graph
    /// explain `hop` as the reverse next hop off `cur`? Used to
    /// corroborate an Appx. E verification mismatch before demoting an
    /// adopted chain: disagreement alone is ambiguous (route diversity,
    /// aliasing), but a junction the oracle cannot explain marks the
    /// chain as fabricated-or-rerouted and worth giving up for the
    /// symmetric assumption. Rejection-only, like every oracle
    /// cross-check (see `revtr_netsim::oracle`).
    pub(crate) fn junction_plausible(&self, cur: Addr, hop: Addr) -> bool {
        let oracle = self.sim.oracle();
        hop == cur
            || oracle.same_router(cur, hop)
            || oracle.link_coupled(cur, hop)
            || oracle.plausibly_consecutive(cur, hop)
    }

    /// The reverse hops an RR reply to `cur` reveals, after the hardened
    /// engine's replay filter; `None` when the destination's stamp cannot
    /// be located (the reply is unusable).
    fn reverse_hops(&self, slots: &[Addr], cur: Addr, prov: &RrProvenance) -> Option<RrSlots> {
        extract_reverse_hops(slots, cur).map(|rev| self.harden_rr_filter(rev, prov))
    }

    /// Begin a record-route step against `cur`: open the `rr_step` span,
    /// try the direct (non-spoofed) RR ping from the source, and — if that
    /// reveals nothing — set up the spoofed-batch machine.
    ///
    /// Returns [`RrProgress::Done`] when the step finished without any
    /// spoofed batch (direct hit, or no usable VP queues);
    /// [`RrProgress::Pending`] hands back an [`RrMachine`] whose rounds
    /// the caller drives via [`RevtrSystem::rr_round`] — each round is one
    /// spoofed batch, i.e. one virtual 10 s collection timeout, which is
    /// exactly one engine event.
    ///
    /// Besides `hints`, the step reads two hints out of `sx`, which the
    /// caller fills (or clears): `demoted`, the VPs its ladder visits
    /// last, and `quarantined`, the VPs it grants a single re-batch.
    pub(crate) fn rr_begin(
        &self,
        cur: Addr,
        src: Addr,
        sx: &mut Scratch,
        t: &mut Books<'_>,
        hints: RrHints,
    ) -> RrProgress<'_> {
        let st = t.enter("rr_step");

        // Direct (non-spoofed) RR ping from the source — skipped when an
        // earlier request proved it futile on this ingress plan.
        if !hints.skip_direct {
            let direct = t.enter("rr_direct");
            if let Ok((reply, prov)) = self.prober.rr_ping_observed(t.meter, src, cur) {
                if let Some(rev) = self.reverse_hops(&reply.slots, cur, &prov) {
                    let new = novel(&sx.hops, &rev);
                    if !new.is_empty() {
                        t.exit(direct, &[("hit", 1)]);
                        return RrProgress::Done(Self::rr_close(t, st, Some((new, prov, false))));
                    }
                }
            }
            t.exit(direct, &[("hit", 0)]);
        }

        // A futility hint ends the step before the ladder even forms: an
        // earlier request exhausted this plan's full ladder without any
        // evidence, so the step falls through to the next technique.
        if hints.skip_spoofed {
            return RrProgress::Done(Self::rr_close(t, st, None));
        }

        // Spoofed batches from the VP plan, walked in place. Deprioritized
        // (never dropped) are the VPs earlier ladders proved futile on
        // this plan; a remembered ladder winner opens the step solo (one
        // probe instead of a whole batch) under its own queue's ingress
        // expectation, so a usable reply passes the same check a full
        // ladder would have applied — see [`crate::scratch::Ladder`].
        let spoof_span = t.enter("rr_spoofed");
        let batches0 = t.stats.batches;
        let (plan, near) = self.vp_plan(cur);
        let demoted = &sx.demoted;
        let moved = sx.ladder.open(
            plan,
            |vp| {
                let far = near.is_some_and(|p| !self.ingress.in_range(p, vp));
                u8::from(far) + if demoted.contains(&vp) { DEMOTED } else { 0 }
            },
            hints.winner,
        );
        self.stopset.note_vp_skips(moved);
        sx.futile_vps.clear();
        sx.spoof_outcomes.clear();
        // Queues can legitimately be empty (an ingress with no in-range
        // VPs); a plan with nothing to try ends the step here.
        if sx.ladder.is_exhausted() {
            t.exit(
                spoof_span,
                &[
                    ("hit", 0),
                    ("batches", u64::from(t.stats.batches - batches0)),
                ],
            );
            return RrProgress::Done(Self::rr_close(t, st, None));
        }
        RrProgress::Pending(RrMachine {
            cur,
            st,
            spoof_span,
            batches0,
            plan,
            usable_seen: false,
            batch_cap: hints.batch_cap.unwrap_or(self.cfg.batch_size).max(1),
        })
    }

    /// Close the `rr_step` span with the step's summary fields and pass
    /// the outcome through.
    fn rr_close(t: &mut Books<'_>, st: StageStart, out: Option<RrFound>) -> Option<RrFound> {
        let (revealed, spoofed) = match &out {
            Some((v, _, sp)) => (v.len() as u64, u64::from(*sp)),
            None => (0, 0),
        };
        t.exit(st, &[("revealed", revealed), ("spoofed", spoofed)]);
        out
    }

    /// One spoofed-batch round of a pending record-route step: compose a
    /// batch from the ladder in `sx`, issue it, and either conclude the
    /// step (`Some(outcome)`) or leave the ladder ready for the next round
    /// (`None`). Allocates nothing: batch, prober reply and verdicts all
    /// overwrite the scratch's buffers.
    pub(crate) fn rr_round(
        &self,
        m: &mut RrMachine<'_>,
        src: Addr,
        sx: &mut Scratch,
        t: &mut Books<'_>,
    ) -> Option<Option<RrFound>> {
        let Scratch {
            hops,
            quarantined,
            ladder,
            batch,
            pairs,
            bases,
            reply,
            usable,
            futile_vps,
            spoof_outcomes,
            ..
        } = sx;
        // The current VP of up to `batch_cap` distinct queues, in order.
        ladder.compose(m.plan, m.batch_cap, batch);
        pairs.clear();
        pairs.extend(batch.iter().map(|slot| (slot.vp, m.cur)));
        // A re-batched pair passes its stall count as the scenario attempt
        // base, so adversarial rate limiters re-roll their per-attempt
        // drop instead of repeating one verdict forever (request-local
        // state: worker-count-invariant).
        bases.clear();
        bases.extend(batch.iter().map(|slot| slot.stalls));
        self.prober
            .spoofed_rr_batch_at(t.meter, pairs, src, bases, reply);
        if self.cfg.harden {
            // One quarantine outcome per *pair*, not per re-batch: a
            // landing resolves the pair as alive the round it happens;
            // a vanish is recorded only when the pair exhausts its stall
            // cycle transient-lost (below). Pair-level resolution is what
            // separates a spoof-filtered VP (the filtered pair never
            // lands, whatever the retries) from a rate-limited one
            // (every pair lands eventually): per-re-batch counting makes
            // the two look alike.
            for (slot, r) in batch.iter().zip(&reply.replies) {
                if r.is_some() {
                    spoof_outcomes.push((slot.vp, true));
                }
            }
        }
        // Count the collection timeouts actually charged: a fully cached
        // batch costs no virtual time and no batch.
        t.stats.batches += reply.timeouts;

        // A reply (it always comes with its provenance) is usable when it
        // traversed the expected ingress and the router's own stamp can be
        // located in it; the usable reply with the most novel hops wins.
        let mut best: Option<(RrSlots, RrProvenance)> = None;
        usable.clear();
        for (slot, (r, prov)) in batch
            .iter()
            .zip(reply.replies.iter().zip(&reply.provenance))
        {
            let rev = r
                .as_ref()
                .zip(prov.as_ref())
                .filter(|(r, _)| slot.expected_ingress.is_none_or(|i| r.slots.contains(&i)))
                .and_then(|(r, prov)| Some((self.reverse_hops(&r.slots, m.cur, prov)?, *prov)));
            usable.push(rev.is_some());
            if let Some((rev, prov)) = rev {
                m.usable_seen = true;
                let new = novel(hops, &rev);
                if new.len() > best.as_ref().map_or(0, |(b, _)| b.len()) {
                    best = Some((new, prov));
                }
            }
        }
        if let Some((new, prov)) = best {
            return Some(Self::rr_conclude(m, t, Some((new, prov, true))));
        }
        // Nothing came back. A queue whose probe was *transiently* lost
        // (fault-attributed, budget exhausted) keeps its current VP for a
        // bounded number of re-batches — a close VP should not be burned
        // because of packet loss. Every other probed queue advances to its
        // next (less close) VP — whether it failed the ingress check, went
        // genuinely unanswered, or answered without revealing new hops.
        let more = ladder.settle(batch, |i, slot| {
            let cap = if !self.cfg.harden {
                TRANSIENT_STALL_BUDGET
            } else if quarantined.contains(&slot.vp) {
                QUARANTINED_STALL_BUDGET
            } else {
                HARDENED_STALL_BUDGET
            };
            let transient = reply.transient[i];
            if transient && slot.stalls < cap {
                return true;
            }
            // A non-transient failure *proves* this VP futile at the
            // router (unanswered, wrong ingress, or slots spent before
            // arrival) — campaign evidence. A usable-but-not-novel
            // reply is request-specific and proves nothing.
            if !transient && !usable[i] {
                futile_vps.push(slot.vp);
            }
            // The pair resolved without a single reply across its
            // whole stall cycle of fault-attributed losses: that is
            // the one observation that incriminates the VP (a
            // genuine non-answer blames the destination instead and
            // records nothing).
            if self.cfg.harden && transient {
                spoof_outcomes.push((slot.vp, false));
            }
            false
        });
        if more {
            return None;
        }
        Some(Self::rr_conclude(m, t, None))
    }

    /// Close a ladder's `rr_spoofed` and `rr_step` spans around `out`.
    fn rr_conclude(
        m: &mut RrMachine<'_>,
        t: &mut Books<'_>,
        out: Option<RrFound>,
    ) -> Option<RrFound> {
        let spoof_span = std::mem::replace(&mut m.spoof_span, StageStart::empty());
        t.exit(
            spoof_span,
            &[
                ("hit", u64::from(out.is_some())),
                ("batches", u64::from(t.stats.batches - m.batches0)),
            ],
        );
        let st = std::mem::replace(&mut m.st, StageStart::empty());
        Self::rr_close(t, st, out)
    }

    /// The timestamp step (revtr 1.0 only): test traceroute-derived
    /// adjacencies of `cur` with TS-prespec probes.
    pub(crate) fn ts_step(
        &self,
        meter: &mut Meter,
        cur: Addr,
        src: Addr,
        path: &[RevtrHop],
    ) -> Option<Addr> {
        let adj_db = self.adjacencies();
        let extra = self.extra_adjacency.read();
        let mut cands: Vec<Addr> = Vec::new();
        for key in [Some(cur), cur.p2p30_peer()].into_iter().flatten() {
            if let Some(v) = extra.get(&key) {
                cands.extend(v.iter().copied());
            }
            if let Some(v) = adj_db.get(&key) {
                cands.extend(v.iter().copied());
            }
        }
        cands.retain(|&a| !on_path(path, a));
        cands.truncate(self.cfg.max_ts_adjacencies);
        for adj in cands {
            match self.prober.ts_ping_outcome(meter, src, cur, &[cur, adj]) {
                // Persistent: the destination ignores TS, stop trying.
                Err(ProbeLoss::Unanswered) => return None,
                // Transient: the probe was lost beyond its retry budget —
                // that says nothing about TS support; try the next
                // adjacency rather than writing the technique off.
                Err(ProbeLoss::Transient) => continue,
                Ok(r) if r.filled >= 2 => return Some(adj),
                Ok(r) if r.filled == 1 => {
                    // The current hop stamped but the adjacency did not;
                    // retry once spoofed from the closest vantage point (the
                    // forward path may have consumed the stamp order).
                    if let Some(vp) = self.closest_vp(cur) {
                        let replies =
                            self.prober
                                .spoofed_ts_batch(meter, &[(vp, cur, vec![cur, adj])], src);
                        if let Some(Some(r2)) = replies.into_iter().next() {
                            if r2.filled >= 2 {
                                return Some(adj);
                            }
                        }
                    }
                }
                Ok(_) => {}
            }
        }
        None
    }

    /// The spoof-capable vantage point closest to `cur`, by the measured
    /// mean RR slot distance the ingress survey recorded (§4.3); prefixes
    /// with no measured distances fall back to the ranked ingress plan,
    /// and unknown prefixes to the first VP.
    fn closest_vp(&self, cur: Addr) -> Option<Addr> {
        if let Some(pid) = self.plan_key(cur) {
            if let Some(vp) = self.ingress.prefix(pid).and_then(|info| info.closest_vp()) {
                return Some(vp);
            }
            if let Some(&vp) = self
                .ingress
                .plan_view(pid)
                .queues()
                .flat_map(|(_, vps)| vps)
                .next()
            {
                return Some(vp);
            }
        }
        self.vps.first().copied()
    }

    /// The symmetry step's decision (Q5) on a measured last link: its
    /// penultimate hop, judged by link locality. `None` without such a
    /// hop. The full decision inputs are returned so they can be recorded
    /// as stitch-trace evidence.
    pub(crate) fn symmetry_decision(&self, cur: Addr, link: LastLink) -> Option<SymmetryDecision> {
        let penult = link.penult?;
        let penult_as = self.ip2as.map(penult);
        let cur_as = self.ip2as.map(cur);
        let interdomain = match (penult_as, cur_as) {
            (Some(x), Some(y)) => x != y,
            _ => true, // unmappable: cannot vouch for locality
        };
        Some(SymmetryDecision {
            penult,
            penult_as,
            cur_as,
            interdomain,
        })
    }

    // ---- the measurement loop ---------------------------------------------------

    /// Measure the reverse path from `dst` back to `src` (Fig. 2).
    ///
    /// One control block ([`MeasureTask`]) driven inline by the same
    /// [`RevtrSystem::drive`] a campaign wave uses: a one-pair campaign —
    /// request id 0, meter at zero — without the wave's result slots. A
    /// panicking measurement unwinds into the caller.
    pub fn measure(&self, dst: Addr, src: Addr) -> RevtrResult {
        let mut sx = self.take_scratch();
        let (r, _events) = self
            .drive(MeasureTask::new(dst, src), &mut sx)
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        self.return_scratch(sx);
        if self.wave_barriers() {
            // A serial request is a wave of one: it merges at completion,
            // so the next request sees everything this one learned.
            self.stopset.merge_pending();
        }
        r
    }

    /// Flag suspicious AS gaps (§5.2.2) on a path before it is sealed: a
    /// small AS apparently adjacent to a provider-of-its-provider with no
    /// known relationship suggests a router that forwards RR packets
    /// without stamping.
    pub(crate) fn flag_suspicious(&self, hops: &mut [RevtrHop]) {
        let mut prev_as: Option<revtr_netsim::AsId> = None;
        for hop in hops {
            let Some(addr) = hop.addr else { continue };
            let Some(a) = self.ip2as.map(addr) else {
                continue;
            };
            if let Some(p) = prev_as {
                if p != a
                    && (self.rels.is_suspicious_link(p, a) || self.rels.is_suspicious_link(a, p))
                {
                    hop.suspicious_gap_before = true;
                }
            }
            prev_as = Some(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Addr {
        Addr(0x0B00_0000 + n)
    }

    #[test]
    fn extract_reverse_locates_exact_stamp() {
        let dst = a(5);
        let slots = [a(1), a(2), dst, a(7), a(8)];
        assert_eq!(extract_reverse_hops(&slots, dst), Some(&[a(7), a(8)][..]));
    }

    #[test]
    fn extract_reverse_uses_double_stamp_fallback() {
        let dst = a(5);
        // Loopback destination: stamps `lo` twice, never `dst` itself.
        let lo = a(99);
        let slots = [a(1), lo, lo, a(7)];
        assert_eq!(extract_reverse_hops(&slots, dst), Some(&[a(7)][..]));
    }

    #[test]
    fn extract_reverse_rejects_unlocatable_stamps() {
        let dst = a(5);
        let slots = [a(1), a(2), a(3)];
        assert_eq!(extract_reverse_hops(&slots, dst), None);
        assert_eq!(extract_reverse_hops(&[], dst), None);
    }

    #[test]
    fn extract_reverse_empty_tail_when_stamp_is_last() {
        let dst = a(5);
        let slots = [a(1), a(2), dst];
        assert_eq!(extract_reverse_hops(&slots, dst), Some(&[][..]));
    }

    #[test]
    fn extract_reverse_prefers_exact_over_double() {
        // Both signals present: the destination's own stamp wins, so the
        // duplicate pair later is treated as reverse hops.
        let dst = a(5);
        let slots = [a(1), dst, a(9), a(9)];
        assert_eq!(extract_reverse_hops(&slots, dst), Some(&[a(9), a(9)][..]));
    }
}
