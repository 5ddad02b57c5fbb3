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

use crate::config::{EngineConfig, VpSelection, BATCH_SIZE, MAX_TS_ADJACENCIES};
use crate::engine::TimedJob;
use crate::result::{RevtrHop, RevtrResult, RevtrStats};
use crate::scratch::{novel, on_path, Fate, Scratch};
use parking_lot::{Mutex, RwLock};
use revtr_aliasing::{AliasResolver, Ip2As, RelationshipDb};
use revtr_atlas::{Intersection, SourceAtlas};
use revtr_netsim::hash::mix3;
use revtr_netsim::{Addr, AsId, PrefixId, RrReply, RrSlots};
use revtr_probing::{
    LastLink, Meter, ProbeLoss, Prober, RequestScope, RrProvenance, Snapshot, SpanCost, SpanToken,
    StopSet, WordMap,
};
use revtr_vpselect::{IngressDb, PlanView};
use std::sync::Arc;

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

/// Ark-style adjacency dataset: address → neighbouring addresses. Looked
/// up only.
type AdjacencyDb = WordMap<Addr, Vec<Addr>>;

/// The symmetry step's decision inputs (recorded as stitch evidence).
pub(crate) struct SymmetryDecision {
    pub(crate) penult: Addr,
    pub(crate) penult_as: Option<AsId>,
    pub(crate) cur_as: Option<AsId>,
    pub(crate) interdomain: bool,
}

/// How many consecutive re-batches the spoofed ladder holds a VP for when
/// its probe is lost to a *transient* fault, before it gives up on that VP
/// anyway. Bounded so rr_step always terminates even under total loss.
pub(crate) const TRANSIENT_STALL_BUDGET: u32 = 2;

/// An open telemetry stage: the span token plus the request meter's tally
/// at entry, so the exit can attach this stage's exact probe delta — the
/// request's own charges, hence worker-count-invariant.
pub(crate) struct StageStart {
    tok: Option<SpanToken>,
    snap: Snapshot,
}

/// What a request keeps account of while it runs, lent to a stage
/// function for the stage: the result statistics, the telemetry scope, and
/// the meter every probe and every span reads.
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
            return StageStart {
                tok: None,
                snap: Snapshot::default(),
            };
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

/// What one direct (non-spoofed) RR ping observed: the reply with its
/// provenance, or why none came.
pub(crate) type RrObserved = Result<(RrReply, RrProvenance), ProbeLoss>;

/// Hints a record-route step opens with: facts an earlier request already
/// paid probes to learn at the same router (the campaign stop sets), the
/// degradation ladder's limits, and the direct probe this request already
/// sent.
#[derive(Clone, Debug, Default)]
pub(crate) struct RrHints {
    /// Skip the direct (non-spoofed) RR ping — known futile for this
    /// source at this router.
    pub(crate) skip_direct: bool,
    /// The direct RR ping's outcome when the request already sent that
    /// very probe (its destination check): the step reads it in place of
    /// sending its own, even when `skip_direct` is set — the skip saves a
    /// send, and this one is already paid for.
    pub(crate) direct: Option<RrObserved>,
    /// Skip the whole spoofed ladder — an earlier request exhausted it at
    /// this router without a single usable reply.
    pub(crate) skip_spoofed: bool,
    /// The router was silent to this source: an earlier request's direct
    /// RR ping here went unanswered. Under ingress selection the step
    /// forms no ladder, as it would on seeing that non-answer itself.
    pub(crate) silent: bool,
    /// Open the spoofed ladder with this VP alone (the router's
    /// remembered winner); the full queues stay staged as a fallback.
    pub(crate) winner: Option<Addr>,
    /// Cap on the spoofed-batch width (degradation ladder L1+): `None`
    /// uses [`BATCH_SIZE`].
    pub(crate) batch_cap: Option<usize>,
}

/// How a record-route step's spoofed ladder went.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ladder {
    /// Never formed: the direct probe revealed the next hop, or a hint
    /// (stop-set futility, the degradation ladder) skipped it.
    Skipped,
    /// Never formed: the router is silent to the source — its direct RR
    /// ping went unanswered, seen now or by an earlier request.
    Silent,
    /// Ran to a hop or to exhaustion; whether any reply was usable.
    Ran {
        /// Some reply's stamp was located.
        usable_seen: bool,
    },
}

/// The orchestrating system (Appx. A): sources, atlases, vantage points,
/// and the measurement engine. Thread-safe; campaigns call
/// [`RevtrSystem::measure`] concurrently.
pub struct RevtrSystem<'s> {
    cfg: EngineConfig,
    prober: Prober<'s>,
    vps: Vec<Addr>,
    ingress: Arc<IngressDb>,
    ip2as: Ip2As,
    rels: Arc<RelationshipDb>,
    resolver: Arc<AliasResolver<'s>>,
    atlas_pool: Vec<Addr>,
    /// Per-source atlas. Its walks sum byte ledgers, union adjacencies
    /// into sorted lists and list sources sorted: no order escapes.
    atlases: RwLock<WordMap<Addr, Arc<SourceAtlas>>>,
    /// Per-source: alias cluster id → intersection (revtr 1.0's Q2).
    /// Looked up only; built keeping the lowest `(trace, hop)` per id.
    alias_index: RwLock<WordMap<Addr, Arc<WordMap<u64, Intersection>>>>,
    adjacency: RwLock<Option<Arc<AdjacencyDb>>>,
    /// Extra adjacencies injected by the caller (the Fig. 5b / Appx. D.1
    /// "ground truth adjacencies" experiment feeds oracle data here).
    extra_adjacency: RwLock<AdjacencyDb>,
    /// (source, trace) → times intersected, for the refresh policy.
    /// Looked up, bumped and pruned by source: never walked in order.
    usage: Mutex<WordMap<(Addr, usize), u64>>,
    /// Per-source refresh generation (selects new random atlas probes).
    /// Looked up only.
    generation: Mutex<WordMap<Addr, u64>>,
    /// The campaign-wide probe-economy layer (consulted and fed only when
    /// [`EngineConfig::use_stop_sets`] is set).
    stopset: Arc<StopSet>,
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
    ///   measurement already performed (e.g. the `ingress` build). Its cache
    ///   switch stands unless `cfg` turns caching off: a prober handed in
    ///   with [`Prober::with_cache_enabled`]`(false)` stays cache-off;
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
        let prober = if cfg.use_cache {
            prober
        } else {
            prober.with_cache_enabled(false)
        };
        RevtrSystem {
            ip2as: Ip2As::for_prober(&prober, cfg.registry_only_ip2as),
            rels: Arc::new(RelationshipDb::for_prober(&prober)),
            resolver: Arc::new(AliasResolver::for_prober(&prober)),
            cfg,
            prober,
            vps,
            ingress,
            atlas_pool,
            atlases: RwLock::default(),
            alias_index: RwLock::default(),
            adjacency: RwLock::new(None),
            extra_adjacency: RwLock::default(),
            usage: Mutex::default(),
            generation: Mutex::default(),
            stopset: Arc::new(StopSet::new()),
            scratches: Mutex::new(Vec::new()),
        }
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
        for (ledger, bytes) in self.prober.sim_ledgers() {
            tele.resource_record(ledger, ord, bytes);
        }
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
                self.prober.seed() ^ 0xa71c,
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
    /// Appx. A, one collection round ([`SourceAtlas::build`]): it charges
    /// the shared clock its slowest traceroute plus that trace's slowest
    /// RR-atlas ping, at most 7 virtual seconds without retries.
    pub fn register_source(&self, src: Addr) {
        if self.atlases.read().contains_key(&src) {
            return;
        }
        self.install_atlas(src, &self.pick_atlas_probes(src, &[]));
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
        self.install_atlas(src, &probes);
        let mut usage = self.usage.lock();
        usage.retain(|(s, _), _| *s != src);
    }

    /// Build `src`'s atlas from `probes` and put it in place of any older
    /// one, dropping what was derived from that: the source's alias index
    /// and the adjacency dataset.
    fn install_atlas(&self, src: Addr, probes: &[Addr]) {
        let atlas = Arc::new(SourceAtlas::build(
            &self.prober,
            &self.resolver,
            src,
            probes,
            self.cfg.use_rr_atlas,
            self.cfg.use_stop_sets.then(|| &*self.stopset),
        ));
        self.atlases.write().insert(src, atlas);
        self.alias_index.write().remove(&src);
        self.adjacency.write().take();
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

    /// Registered sources, ascending (not the atlas map's per-process
    /// order).
    pub fn sources(&self) -> Vec<Addr> {
        let mut sources: Vec<Addr> = self.atlases.read().keys().copied().collect();
        sources.sort_unstable();
        sources
    }

    // ---- intersection (Q2) -----------------------------------------------------

    fn alias_index_for(&self, src: Addr, atlas: &SourceAtlas) -> Arc<WordMap<u64, Intersection>> {
        if let Some(m) = self.alias_index.read().get(&src) {
            return m.clone();
        }
        // An id seen at several atlas positions keeps the lowest
        // `(trace, hop)`: the atlas index is a hash table, so "the first
        // one walked" would follow its layout, not the atlas.
        let mut m: WordMap<u64, Intersection> = WordMap::default();
        for (addr, inter) in atlas.indexed_addrs() {
            for id in [self.resolver.snmp_id(addr), self.resolver.midar_id(addr)]
                .into_iter()
                .flatten()
            {
                m.entry(id)
                    .and_modify(|kept| {
                        if (inter.trace, inter.hop) < (kept.trace, kept.hop) {
                            *kept = inter;
                        }
                    })
                    .or_insert(inter);
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
        if !self.cfg.use_rr_atlas {
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
        let mut adj = AdjacencyDb::default();
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

    /// True if `addr` means we have arrived at the source: it is the
    /// source, or inside the source's announced prefix.
    pub(crate) fn reached(&self, addr: Addr, src: Addr, src_prefix: Option<PrefixId>) -> bool {
        addr == src || (src_prefix.is_some() && self.prober.prefix_of(addr) == src_prefix)
    }

    /// Inject additional adjacency data for the timestamp technique (used
    /// by the Appx. D.1 "perfect adjacencies" experiment).
    pub fn set_extra_adjacencies(&self, map: impl IntoIterator<Item = (Addr, Vec<Addr>)>) {
        *self.extra_adjacency.write() = map.into_iter().collect();
    }

    /// The ingress-plan key for a probe target, and whether it is
    /// borrowed: the target's own announced prefix (`false`), or — for an
    /// address outside every announced prefix, such as a router interface
    /// — the first announced prefix of the block-owning AS (`true`). The
    /// survey measures ingresses per prefix, toward that prefix's hosts
    /// (§4.3), so a borrowed key lends its VP queues but not its
    /// ingresses: a probe to the router need not cross them.
    fn plan_key(&self, addr: Addr) -> Option<(PrefixId, bool)> {
        if let Some(p) = self.prober.prefix_of(addr) {
            return Some((p, false));
        }
        let owner = self.prober.block_owner(addr)?;
        let p = self.prober.as_prefixes(owner).get(0)?;
        Some((p, true))
    }

    /// The ingress-plan key encoded for the stop-set hint maps, shared by
    /// a prefix and the routers that borrow its plan. Two routers with
    /// equal keys get the very same VP queues from
    /// [`RevtrSystem::vp_plan`], which is what makes the plan-keyed winner
    /// hint transfer between siblings: the ladder walks the same VP
    /// sequence at both.
    pub(crate) fn stop_plan_key(&self, addr: Addr) -> Option<u64> {
        self.plan_key(addr).map(|(p, _)| u64::from(p.0))
    }

    /// The VP plan for probing `cur` under the configured selection
    /// policy, borrowed from the ingress database. Under ingress selection
    /// that is [`IngressDb::target_plan`]'s chain: the plan of `cur`'s key
    /// (as [`PlanView::Lent`], without its ingresses, when the key is
    /// borrowed); else, when the survey left that key without a plan, the
    /// first prefix of `cur`'s block owner that has one, lent; else the
    /// head of the global order. Under set cover it is written into
    /// `revtr1_plan` ([`IngressDb::revtr1_plan`]).
    fn vp_plan<'a>(&'a self, cur: Addr, revtr1_plan: &'a mut Vec<Addr>) -> PlanView<'a> {
        match self.cfg.vp_selection {
            VpSelection::Ingress => {
                let siblings = (self.prober.block_owner(cur)).map(|o| self.prober.as_prefixes(o));
                (self.ingress).target_plan(self.plan_key(cur), siblings.into_iter().flatten())
            }
            VpSelection::SetCover => match self.plan_key(cur) {
                Some((p, _)) => {
                    self.ingress.revtr1_plan_into(p, revtr1_plan);
                    PlanView::Ranking(revtr1_plan)
                }
                None => PlanView::Ranking(self.ingress.global_plan()),
            },
        }
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

    /// The reverse hops an RR reply to `cur` reveals; `None` when the
    /// destination's stamp cannot be located (the reply is unusable).
    fn reverse_hops(slots: &[Addr], cur: Addr) -> Option<RrSlots> {
        extract_reverse_hops(slots, cur).map(|rev| rev.iter().copied().collect())
    }

    /// A record-route step against `cur`: the direct (non-spoofed) RR
    /// ping from the source, then — if that reveals nothing — spoofed
    /// batches from the VP plan until one reveals novel hops or the ladder
    /// runs out. Each batch is one round, one virtual 10 s collection
    /// timeout, and one engine event, charged inside the step's spans.
    /// The first round carries the closest VP of each ingress queue (or a
    /// remembered winner alone); every later round fills to the batch cap
    /// with the next VPs in the plan's try order, so a 5-VP queue takes
    /// three rounds, not five. A queue whose VP's reply crossed its
    /// expected ingress and revealed nothing sends none of its later VPs
    /// (the settling rule of [`crate::scratch::Ladder`]).
    ///
    /// Returns what the step found, and whether any round saw a *usable*
    /// reply (the target's stamp located in its slots, whichever ingress
    /// it crossed), even one that revealed nothing novel for this
    /// request's path — only a ladder with none proves the router
    /// unreachable by this plan's VPs.
    pub(crate) fn rr_step(
        &self,
        cur: Addr,
        src: Addr,
        sx: &mut Scratch,
        t: &mut Books<'_>,
        hints: &RrHints,
    ) -> (Option<RrFound>, Ladder) {
        let st = t.enter("rr_step");

        // Direct (non-spoofed) RR ping from the source — read off the hints
        // when the request already sent it, else sent unless an earlier
        // request proved it futile from this source at this router.
        let mut silent = hints.silent;
        if hints.direct.is_some() || !hints.skip_direct {
            let direct = t.enter("rr_direct");
            let live;
            let observed = match &hints.direct {
                Some(observed) => observed,
                None => {
                    live = self.prober.rr_ping_observed(t.meter, src, cur);
                    &live
                }
            };
            if let Ok((reply, prov)) = observed {
                if let Some(rev) = Self::reverse_hops(&reply.slots, cur) {
                    let new = novel(&sx.hops, &rev);
                    if !new.is_empty() {
                        t.exit(direct, &[("hit", 1)]);
                        let found = Some((new, *prov, false));
                        return (Self::rr_close(t, st, found, false), Ladder::Skipped);
                    }
                }
            }
            silent |= matches!(observed, Err(ProbeLoss::Unanswered));
            t.exit(direct, &[("hit", 0)]);
        }

        // A router silent to the source gets no ladder under ingress
        // selection: a spoofed RR ping goes to the same responder, and its
        // reply comes back to the same source. A filtered or fault-lost
        // direct ping proves neither, so it keeps the ladder; revtr 1.0's
        // set-cover rows keep trying every VP (§4.1).
        if silent && self.cfg.vp_selection == VpSelection::Ingress {
            return (Self::rr_close(t, st, None, true), Ladder::Silent);
        }
        // A futility hint ends the step before the ladder even forms: an
        // earlier request exhausted this plan's full ladder without any
        // evidence, so the step falls through to the next technique.
        if hints.skip_spoofed {
            return (Self::rr_close(t, st, None, false), Ladder::Skipped);
        }

        // Spoofed batches from the VP plan, walked in place. A remembered
        // ladder winner opens the step solo (one probe instead of a whole
        // batch) under its own queue's ingress expectation, so its reply
        // settles that queue as a full ladder's would have — see
        // [`crate::scratch::Ladder`]. The set-cover plan is written
        // into the scratch's buffer, lent out while the ladder reads it.
        let spoof_span = t.enter("rr_spoofed");
        let batches0 = t.stats.batches;
        let mut revtr1_plan = std::mem::take(&mut sx.revtr1_plan);
        let plan = self.vp_plan(cur, &mut revtr1_plan);
        sx.ladder.open(plan, hints.winner);
        #[cfg(test)]
        sx.sent.push(Vec::new());
        let cap = hints.batch_cap.unwrap_or(BATCH_SIZE).max(1);
        // Queues can legitimately be empty (an ingress with no in-range
        // VPs); a plan with nothing to try ends the step without a round.
        let (mut found, mut usable_seen) = (None, false);
        while found.is_none() && !sx.ladder.is_exhausted() {
            self.prober.count_events(t.meter, 1);
            let usable;
            (found, usable) = self.rr_round(plan, cur, cap, src, sx, t);
            usable_seen |= usable;
            #[cfg(test)]
            sx.sent.last_mut().expect("opened").extend(&sx.batch);
        }
        let settled = sx.ladder.settled(plan) as u64;
        sx.revtr1_plan = revtr1_plan;
        let batches = u64::from(t.stats.batches - batches0);
        let hit = u64::from(found.is_some());
        let fields = [("hit", hit), ("batches", batches), ("settled", settled)];
        t.exit(spoof_span, &fields);
        let found = found.map(|(new, prov)| (new, prov, true));
        (
            Self::rr_close(t, st, found, false),
            Ladder::Ran { usable_seen },
        )
    }

    /// Close the `rr_step` span with the step's summary fields — `silent`
    /// is 1 when the step skipped its ladder for a router silent to the
    /// source — and pass the outcome through.
    fn rr_close(
        t: &mut Books<'_>,
        st: StageStart,
        out: Option<RrFound>,
        silent: bool,
    ) -> Option<RrFound> {
        let (revealed, spoofed) = match &out {
            Some((v, _, sp)) => (v.len() as u64, u64::from(*sp)),
            None => (0, 0),
        };
        let fields = [
            ("revealed", revealed),
            ("spoofed", spoofed),
            ("silent", u64::from(silent)),
        ];
        t.exit(st, &fields);
        out
    }

    /// One spoofed-batch round of the ladder open in `sx` over `plan`:
    /// compose a batch of at most `cap` new probes (plus the VPs the last
    /// round held), issue it, and return the usable reply (its stamp
    /// located) with the most novel hops — or, when none revealed any,
    /// settle the ladder for the next round and return `None` — with
    /// whether any reply was usable. Allocates nothing: batch and prober
    /// reply overwrite the scratch's buffers.
    fn rr_round(
        &self,
        plan: PlanView<'_>,
        cur: Addr,
        cap: usize,
        src: Addr,
        sx: &mut Scratch,
        t: &mut Books<'_>,
    ) -> (Option<(RrSlots, RrProvenance)>, bool) {
        let Scratch {
            hops,
            ladder,
            batch,
            pairs,
            bases,
            reply,
            ..
        } = sx;
        // The held VPs, then up to `cap` VPs in try order.
        ladder.compose(plan, cap, batch);
        pairs.clear();
        pairs.extend(batch.iter().map(|slot| (slot.vp, cur)));
        // A re-batched pair passes its stall count as the scenario attempt
        // base, so adversarial rate limiters re-roll their per-attempt
        // drop instead of repeating one verdict forever (request-local
        // state: worker-count-invariant).
        bases.clear();
        bases.extend(batch.iter().map(|slot| slot.stalls));
        self.prober
            .spoofed_rr_batch_at(t.meter, pairs, src, bases, reply);
        // Count the collection timeouts actually charged: a fully cached
        // batch costs no virtual time and no batch.
        t.stats.batches += reply.timeouts;

        // A reply (it always comes with its provenance) is usable when the
        // router's own stamp can be located in it, whichever ingress it
        // crossed: the hops after that stamp are written on the reply's
        // way back to the source, which the VP's forward leg never sees.
        // The usable reply with the most novel hops wins.
        let (mut best, mut any_usable): (Option<(RrSlots, RrProvenance)>, _) = (None, false);
        for r in &reply.replies {
            let rev = (r.as_ref())
                .and_then(|(r, prov)| Some((Self::reverse_hops(&r.slots, cur)?, *prov)));
            any_usable |= rev.is_some();
            if let Some((rev, prov)) = rev {
                let new = novel(hops, &rev);
                if new.len() > best.as_ref().map_or(0, |(b, _)| b.len()) {
                    best = Some((new, prov));
                }
            }
        }
        if best.is_some() {
            return (best, any_usable);
        }
        // Nothing came back. A VP whose probe was *transiently* lost
        // (fault-attributed, budget exhausted) goes out again next round,
        // for a bounded number of re-batches — a close VP should not be
        // burned because of packet loss. Every other VP is done — whether
        // it went genuinely unanswered, answered with no locatable stamp,
        // or answered without revealing new hops; one that crossed its
        // queue's ingress settles that queue.
        ladder.settle(batch, |i, slot| {
            if reply.transient[i] && slot.stalls < TRANSIENT_STALL_BUDGET {
                Fate::Held
            } else {
                (reply.replies[i].as_ref()).map_or(Fate::Lost, |(r, _)| Fate::Answered(&r.slots))
            }
        });
        (None, any_usable)
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
        cands.truncate(MAX_TS_ADJACENCIES);
        for adj in cands {
            match self.prober.ts_ping_outcome(meter, src, cur, &[cur, adj]) {
                // Persistent: the destination ignores TS, stop trying.
                Err(ProbeLoss::Unanswered) => return None,
                // Lost beyond its retry budget, to faults or to an option
                // filter — that says nothing about TS support; try the next
                // adjacency rather than writing the technique off.
                Err(ProbeLoss::Transient | ProbeLoss::Filtered) => continue,
                Ok(r) if r.filled >= 2 => return Some(adj),
                Ok(r) if r.filled == 1 => {
                    // The current hop stamped but the adjacency did not;
                    // retry once spoofed from the closest vantage point (the
                    // forward path may have consumed the stamp order).
                    if let Some(vp) = self.closest_vp(cur) {
                        let r2 = self
                            .prober
                            .spoofed_ts_ping(meter, vp, src, cur, &[cur, adj]);
                        if r2.is_some_and(|r2| r2.filled >= 2) {
                            return Some(adj);
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
        if let Some((pid, _)) = self.plan_key(cur) {
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
    /// The one function a campaign wave runs per job,
    /// `RevtrSystem::drive`, called inline on a one-pair campaign's job —
    /// request id 0, meter at zero — without the wave's result slots or its
    /// panic fence: a panicking measurement unwinds into the caller.
    pub fn measure(&self, dst: Addr, src: Addr) -> RevtrResult {
        let mut sx = self.take_scratch();
        let job = TimedJob {
            dst,
            src,
            arrival_ms: 0.0,
            id: 0,
            degrade: 0,
        };
        let (r, _events) = self.drive(&job, &mut sx);
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
    use revtr_netsim::Sim;

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

    #[test]
    fn alias_index_keeps_the_lowest_intersection_per_id() {
        // Two identical worlds in one process, and an alias id seen at
        // several atlas positions: the index must keep the lowest, not
        // whichever one the atlas index walks first.
        use revtr_atlas::select_atlas_probes;
        use revtr_netsim::SimConfig;
        use revtr_vpselect::Heuristics;
        use std::collections::BTreeMap;
        let index = || {
            let sim = Sim::build(SimConfig::tiny(), 5);
            let prober = Prober::new(&sim);
            let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
            let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
            let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
            let mut cfg = EngineConfig::revtr1();
            cfg.atlas_size = 60;
            let pool = select_atlas_probes(&sim, 120, 9);
            let sys = RevtrSystem::new(prober, cfg, vps.clone(), ingress, pool);
            let atlas = sys.atlas(vps[0]);
            let mut seen: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
            for (addr, i) in atlas.indexed_addrs() {
                for id in [sys.resolver.snmp_id(addr), sys.resolver.midar_id(addr)]
                    .into_iter()
                    .flatten()
                {
                    seen.entry(id).or_default().push((i.trace, i.hop));
                }
            }
            assert!(
                seen.values().any(|at| at.iter().min() != at.iter().max()),
                "no alias id has two atlas positions: nothing to choose"
            );
            let kept: BTreeMap<u64, (usize, usize)> = (sys.alias_index_for(vps[0], &atlas).iter())
                .map(|(&id, i)| (id, (i.trace, i.hop)))
                .collect();
            let lowest: BTreeMap<u64, (usize, usize)> = (seen.into_iter())
                .map(|(id, at)| (id, at.into_iter().min().expect("seen at least once")))
                .collect();
            assert_eq!(kept, lowest);
            kept
        };
        assert_eq!(index(), index());
    }

    #[test]
    fn sources_read_back_ascending() {
        use revtr_atlas::select_atlas_probes;
        use revtr_netsim::SimConfig;
        let sim = Sim::build(SimConfig::tiny(), 5);
        let mut vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let mut cfg = EngineConfig::revtr2();
        cfg.atlas_size = 4;
        let pool = select_atlas_probes(&sim, 8, 9);
        let ingress = Arc::new(IngressDb::default());
        let sys = RevtrSystem::new(Prober::new(&sim), cfg, vps.clone(), ingress, pool);
        vps.sort_unstable_by(|a, b| b.cmp(a));
        for &src in &vps {
            sys.register_source(src);
        }
        vps.reverse();
        assert_eq!(sys.sources(), vps);
    }

    /// Every router loopback and link interface address of `topo`.
    fn router_interfaces(
        topo: &revtr_netsim::topology::Topology,
    ) -> impl Iterator<Item = Addr> + '_ {
        (topo.routers.iter().map(|r| r.loopback))
            .chain(topo.links.iter().flat_map(|l| [l.addr_a, l.addr_b]))
    }

    /// A spoofed ladder visits its plan exactly as the survey ranked it,
    /// at every prefix of a tiny world and at every router interface
    /// address: under set cover (revtr 1.0) the prefix's
    /// [`IngressDb::revtr1_plan`], under ingress selection the try order
    /// of the first plan of this chain:
    ///
    /// 1. the target's own key: a host keeps its prefix's queues and their
    ///    ingresses; a router, outside every announced prefix, walks its
    ///    AS's first prefix's queues with no expectation on any slot;
    /// 2. when the survey left that key without a plan, the first prefix
    ///    of the target's AS that has one, with no expectation on any
    ///    slot, host or router;
    /// 3. when no prefix of the AS has a plan, the global head.
    ///
    /// Seed 1 is the first tiny world that reaches every rung, the second
    /// at a host and at a router alike, with a lent plan of more than one
    /// queue: the survey leaves a few prefixes without a plan whose AS
    /// announces others it did plan (7 hosts and 8 routers are lent
    /// ingress queues, 6 of them two or more, and 5 targets get the
    /// global head). Most tiny worlds survey one ingress per prefix, so
    /// seed 5, which the other fixtures use, lends no two-queue plan.
    #[test]
    fn ladders_walk_the_survey_plans_at_every_prefix() {
        use crate::scratch::Ladder;
        use revtr_atlas::select_atlas_probes;
        use revtr_netsim::SimConfig;
        use revtr_vpselect::Heuristics;
        let sim = Sim::build(SimConfig::tiny(), 1);
        let topo = sim.topo();
        let prober = Prober::new(&sim);
        let vps: Vec<Addr> = topo.vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<PrefixId> = topo.prefixes.iter().map(|p| p.id).collect();
        let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
        let pool = select_atlas_probes(&sim, 8, 9);
        // Every target with the plan key it must get: a host of each
        // prefix (its own), then every router interface address (its AS's
        // first prefix, borrowed).
        let mut targets: Vec<(Addr, PrefixId, bool)> = (topo.prefixes.iter())
            .map(|p| (Addr(p.prefix.base.0 + 10), p.id, false))
            .collect();
        for addr in router_interfaces(topo).filter(|&a| topo.prefix_of(a).is_none()) {
            if let Some(p) = topo
                .block_owner(addr)
                .and_then(|o| topo.as_prefixes(o).get(0))
            {
                targets.push((addr, p, true));
            }
        }
        let routers = targets.iter().filter(|t| t.2).count();
        assert!(
            routers > topo.routers.len(),
            "too few router interfaces: {routers}"
        );
        // The global head: a ranking that opens the global order.
        let head = ingress.target_plan(None, []);
        let PlanView::Ranking(head_vps) = head else {
            panic!("the global head is not a ranking: {head:?}");
        };
        assert!(!head_vps.is_empty() && ingress.global_plan().starts_with(head_vps));
        let (mut reordered, mut ragged, mut unchecked, mut checked) = (0, 0, 0, 0);
        let (mut host_lent, mut router_lent, mut headless, mut wide) = (0, 0, 0, 0);
        for cfg in [EngineConfig::revtr1(), EngineConfig::revtr2()] {
            let selection = cfg.vp_selection;
            let sys = RevtrSystem::new(
                Prober::new(&sim),
                cfg,
                vps.clone(),
                Arc::clone(&ingress),
                pool.clone(),
            );
            let (mut buf, mut batch) = (Vec::new(), Vec::new());
            for &(cur, p, borrowed) in &targets {
                assert_eq!(sys.plan_key(cur), Some((p, borrowed)), "{cur}");
                let plan = sys.vp_plan(cur, &mut buf);
                let mut ladder = Ladder::default();
                ladder.open(plan, None);
                let mut walked = Vec::new();
                let mut first_round = None;
                while !ladder.is_exhausted() {
                    ladder.compose(plan, BATCH_SIZE, &mut batch);
                    first_round.get_or_insert(batch.len());
                    walked.extend(batch.iter().map(|s| (s.expected_ingress, s.vp)));
                    ladder.settle(&batch, |_, _| Fate::Lost);
                }
                let want: Vec<(Option<Addr>, Addr)> = match selection {
                    VpSelection::SetCover => {
                        let revtr1 = ingress.revtr1_plan(p);
                        reordered += usize::from(revtr1 != ingress.global_plan());
                        revtr1.into_iter().map(|vp| (None, vp)).collect()
                    }
                    _ => {
                        let siblings = topo.block_owner(cur).map(|o| topo.as_prefixes(o));
                        let sibling = (siblings.into_iter().flatten())
                            .map(|s| ingress.plan_view(s))
                            .find(|view| !view.is_empty());
                        let own = ingress.plan_view(p);
                        let (view, lent) = match sibling {
                            _ if !own.is_empty() => (own, borrowed),
                            Some(view) => {
                                if let PlanView::Ingresses(_) = view {
                                    if borrowed {
                                        router_lent += 1;
                                    } else {
                                        host_lent += 1;
                                    }
                                    if view.len() > 1 {
                                        assert!(
                                            first_round > Some(1),
                                            "{cur}: lent plan's first round {first_round:?}"
                                        );
                                        wide += 1;
                                    }
                                }
                                (view, true)
                            }
                            None => {
                                headless += 1;
                                (head, true)
                            }
                        };
                        let lens: Vec<usize> = view.queues().map(|(_, vps)| vps.len()).collect();
                        ragged += usize::from(lens.iter().min() != lens.iter().max());
                        let expects = view.queues().any(|(ingress, _)| ingress.is_some());
                        if lent {
                            unchecked += usize::from(expects);
                            view.try_order().map(|(_, vp)| (None, vp)).collect()
                        } else {
                            checked += usize::from(expects);
                            view.try_order().collect()
                        }
                    }
                };
                assert_eq!(
                    walked, want,
                    "{selection:?} at {cur} ({p:?}, borrowed {borrowed})"
                );
            }
        }
        assert!(reordered > 0, "no set-cover plan moves an in-range VP up");
        assert!(ragged > 0, "no ingress plan has queues of unequal length");
        assert!(unchecked > 0, "no router borrows a plan that has ingresses");
        assert!(checked > 0, "no host's plan has ingresses");
        assert!(host_lent > 0, "no host is lent a sibling's ingress queues");
        assert!(
            router_lent > 0,
            "no router is lent a sibling's ingress queues"
        );
        assert!(wide > 0, "no lent sibling plan has two queues");
        assert!(headless > 0, "no target's AS is without a plan");
    }

    /// The surveyed ingress never judges a reply: a spoofed reply that
    /// misses its queue's ingress but locates the target's stamp is
    /// adopted at a router (a lent plan, no expectation) and at a host of
    /// the surveyed prefix itself (the queue's ingress expected). Each
    /// fixture is the first such (target, VP) pair of a tiny world; the
    /// ladder opens with that VP as its remembered winner, so the reply
    /// found by the search is the one the step's first round reads back
    /// from the cache.
    #[test]
    fn a_reply_that_misses_the_ingress_is_adopted_at_a_router_and_a_host() {
        use revtr_atlas::select_atlas_probes;
        use revtr_netsim::SimConfig;
        use revtr_probing::Telemetry;
        use revtr_vpselect::Heuristics;
        let sim = Sim::build(SimConfig::tiny(), 5);
        let topo = sim.topo();
        let prober = Prober::new(&sim);
        let vps: Vec<Addr> = topo.vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<PrefixId> = topo.prefixes.iter().map(|p| p.id).collect();
        let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
        let pool = select_atlas_probes(&sim, 8, 9);
        let sys = RevtrSystem::new(prober, EngineConfig::revtr2(), vps.clone(), ingress, pool);
        let src = vps[0];
        // The first (target, VP) of `targets` whose reply locates the
        // target's stamp, reveals hops, and lacks the ingress of the first
        // queue holding the VP — the queue a winner opens under.
        let miss = |targets: Vec<Addr>| {
            targets.into_iter().find_map(|cur| {
                let (p, _) = sys.plan_key(cur)?;
                let plan = sys.ingress.plan_view(p);
                plan.queues().flat_map(|(_, vps)| vps).find_map(|&vp| {
                    let (expected, _) = plan.queues().find(|(_, vps)| vps.contains(&vp))?;
                    let expected = expected?;
                    let batch = sys.prober.spoofed_rr_batch(&[(vp, cur)], src);
                    let (reply, _) = batch.replies[0].as_ref()?;
                    let rev = RevtrSystem::reverse_hops(&reply.slots, cur)?;
                    (vp != src && !rev.is_empty() && !reply.slots.contains(&expected))
                        .then_some((cur, vp, expected))
                })
            })
        };
        let step = |cur: Addr, vp: Addr| {
            let mut sx = Scratch::default();
            let (mut stats, mut meter) = (RevtrStats::default(), Meter::default());
            let mut req = Telemetry::disabled().request(0, 0, 0.0);
            let mut books = Books {
                stats: &mut stats,
                req: &mut req,
                meter: &mut meter,
            };
            let hints = RrHints {
                skip_direct: true,
                winner: Some(vp),
                ..RrHints::default()
            };
            let (found, _) = sys.rr_step(cur, src, &mut sx, &mut books, &hints);
            (found.map(|(_, prov, _)| prov.sender), sx.sent.remove(0))
        };

        let routers = router_interfaces(topo)
            .filter(|&a| sys.plan_key(a).is_some_and(|(_, borrowed)| borrowed));
        let (cur, vp, _) =
            miss(routers.collect()).expect("no router reply misses its lent ingress");
        let (found, sent) = step(cur, vp);
        assert_eq!(sent[0].expected_ingress, None, "{sent:?}");
        assert_eq!(
            found,
            Some(vp),
            "router {cur}: the winner's reply was not adopted"
        );

        // A host whose winner sits in one queue only, so the slot's
        // expectation is that queue's ingress and no other's.
        let hosts = (sys.ingress.prefixes())
            .flat_map(|(p, _)| sys.prober.host_addrs(p).take(16))
            .filter(|&cur| {
                let Some((p, false)) = sys.plan_key(cur) else {
                    return false;
                };
                let plan = sys.ingress.plan_view(p);
                let mut seen = Vec::new();
                plan.queues().all(|(_, vps)| {
                    let fresh = vps.iter().all(|vp| !seen.contains(vp));
                    seen.extend_from_slice(vps);
                    fresh
                })
            });
        let (cur, vp, expected) = miss(hosts.collect()).expect("no host reply misses its ingress");
        let (found, sent) = step(cur, vp);
        assert_eq!(sent[0].expected_ingress, Some(expected), "{sent:?}");
        assert_eq!(
            found,
            Some(vp),
            "host {cur}: the winner's reply off its ingress was not adopted"
        );
    }
}
