//! The simulator facade: routing caches, churn, and path walking.
//!
//! [`Sim`] owns the immutable topology plus the mutable routing epoch
//! state (`churn`, read without a lock). All probe semantics (ICMP echo,
//! Record Route, Timestamp, traceroute) are layered on top of the
//! low-level [`Sim::walk`] primitive in [`crate::engine`].

use crate::addr::Addr;
use crate::behavior::Behavior;
use crate::bgp::{self, RoutePlan, Routes};
use crate::churn::Churn;
use crate::concurrent::StripedMap;
use crate::config::SimConfig;
use crate::engine::LegMemos;
use crate::faults::Faults;
use crate::gen;
use crate::hash::{chance, mix2, mix3};
use crate::ids::{AsId, LinkId, PrefixId, RouterId};
use crate::igp::Igp;
use crate::inline::InlineVec;
use crate::scenario::Scenarios;
use crate::topology::{LinkKind, StampMode, Topology};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// What a walk routes on ([`Sim::routing_ctx`]): the target AS, its BGP
/// tie-break salt, and the destination prefix (`None` for infrastructure).
pub(crate) type RoutingKey = (AsId, u64, Option<PrefixId>);

/// Latency of the virtual host↔attach-router link, per direction (ms).
pub const HOST_LINK_MS: f64 = 1.0;

/// Maximum routers a packet may traverse before being dropped: a walk has
/// at most this many hops, the destination router included.
pub const MAX_HOPS: usize = 64;

/// Where a destination address terminates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// A host inside an announced /24.
    Host {
        /// The prefix the host lives in.
        prefix: PrefixId,
        /// The router hosts of this prefix attach to.
        attach: RouterId,
    },
    /// A router address (interface or loopback). `via` is set when the
    /// address sits on the far (customer) side of an interdomain /30 that is
    /// numbered from the anchor AS's block: the packet is routed to
    /// `anchor` and crosses `via` as its final hop.
    Router {
        /// The router that owns the address.
        router: RouterId,
        /// The AS the address block belongs to (routing target).
        anchor_as: AsId,
        /// The router inside `anchor_as` the packet is routed to.
        anchor: RouterId,
        /// Final interdomain link to cross, when `router` is outside
        /// `anchor_as`.
        via: Option<LinkId>,
    },
}

impl Dest {
    /// How a walk ends: the router it is routed to, the interdomain link to
    /// cross from there (for `via` destinations), and whether a host link
    /// follows.
    pub(crate) fn delivery(&self) -> (RouterId, Option<LinkId>, bool) {
        match *self {
            Dest::Host { attach, .. } => (attach, None, true),
            Dest::Router { anchor, via, .. } if via.is_some() => (anchor, via, false),
            Dest::Router { router, .. } => (router, None, false),
        }
    }
}

/// Per-packet fields that influence forwarding decisions.
#[derive(Clone, Copy, Debug)]
pub struct PktMeta {
    /// The source address carried in the IP header (the *claimed* source for
    /// spoofed probes). Destination-based-routing violators key on this.
    pub routing_src: Addr,
    /// Per-packet entropy: load balancers hash this for option-carrying
    /// packets.
    pub nonce: u64,
    /// Flow identifier: load balancers hash this for ordinary packets
    /// (Paris traceroute keeps it constant).
    pub flow: u16,
    /// True if the packet carries IP options (RR/TS) — such packets are
    /// balanced per-packet rather than per-flow (Appx. E).
    pub has_options: bool,
}

impl PktMeta {
    /// Metadata for a plain (no-option) packet from `src` with flow `flow`.
    pub fn plain(src: Addr, flow: u16) -> PktMeta {
        PktMeta {
            routing_src: src,
            nonce: 0,
            flow,
            has_options: false,
        }
    }

    /// Metadata for an option-carrying packet.
    pub fn options(src: Addr, nonce: u64) -> PktMeta {
        PktMeta {
            routing_src: src,
            nonce,
            flow: 0,
            has_options: true,
        }
    }
}

/// One step of a packet's router-level journey.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Hop {
    /// The router traversed.
    pub router: RouterId,
    /// Link the packet arrived on (`None` at the first hop after a host, or
    /// at a replying router's own position).
    pub in_link: Option<LinkId>,
    /// Link the packet departs on (`None` when delivering locally).
    pub out_link: Option<LinkId>,
}

/// The hops of a walk, held inline (a walk allocates nothing).
pub type Hops = InlineVec<Hop, MAX_HOPS>;

/// What a walk hands each hop to, in walk order, as it goes. A hop arrives
/// whole — both its links known — so a sink tells the first hop of a walk
/// (no in-link) and the last (no out-link) by the hop alone. A walk that
/// drops has handed over a prefix of its hops and returns `None`.
pub(crate) trait HopSink {
    /// Take the next hop.
    fn hop(&mut self, sim: &Sim, hop: Hop);

    /// Hear how the walk chose the link it leaves a router by: among
    /// `several` candidates or one, and whether the choice was `fixed` —
    /// the one every packet routed on the walk's key makes there.
    fn choice(&mut self, several: bool, fixed: bool) {
        let _ = (several, fixed);
    }
}

/// The walk kept whole, for the callers that read it as a value.
impl HopSink for Hops {
    fn hop(&mut self, _: &Sim, hop: Hop) {
        self.push(hop);
    }
}

/// Nobody reads the hops: a plain echo's legs only sum latency.
impl HopSink for () {
    fn hop(&mut self, _: &Sim, _: Hop) {}
}

/// A completed router-level walk.
#[derive(Clone, Debug)]
pub struct Walk {
    /// Routers traversed, in order (includes the destination's attach router
    /// for host destinations and the destination router itself for router
    /// destinations, as the final entry).
    pub hops: Hops,
    /// Sum of one-way link latencies, including virtual host links.
    pub latency_ms: f64,
}

/// A sink tree cell of a router nothing has been learned about yet.
const CELL_UNKNOWN: u32 = u32::MAX;
/// The low bits of a learned cell: the router's first candidate link. The
/// bits above count its candidates.
const LINK_BITS: u32 = 24;

/// The cell of a router whose first candidate link is `first`, of `n`.
fn cell_of((first, n): (LinkId, usize)) -> u32 {
    assert!(
        n < (CELL_UNKNOWN >> LINK_BITS) as usize,
        "{n} candidates overflow a cell"
    );
    (n as u32) << LINK_BITS | first.0
}

/// A learned cell's first candidate link and candidate count.
fn cell_facts(cell: u32) -> (LinkId, usize) {
    (
        LinkId(cell & ((1 << LINK_BITS) - 1)),
        (cell >> LINK_BITS) as usize,
    )
}

/// A route, as a [`SinkTree`] is keyed by it: the target AS, its BGP
/// tie-break salt, and the router walks along it end at. Every host of a
/// prefix is on one route, whoever walks toward it, and so is every VP of
/// a prefix ([`Sim::tree_key`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TreeKey {
    target: AsId,
    salt: u64,
    end: RouterId,
}

/// What walks along one route ([`TreeKey`]) have learned of it: per
/// router, nothing yet, or the route's facts there — the first of the
/// links the router may leave by toward the route's end, and how many
/// there are. A fact holds for every packet toward every address of the
/// route, so a walk lent the tree still makes each choice among several
/// candidates itself (`choose_idx`: by the address and the packet) and
/// derives the candidate list only when the pick is not the first. Owned
/// by a caller who sends many packets along few routes (the §4.3 survey)
/// and lent to each of them: a learned cell is read instead of re-derived
/// from the BGP choice, the border set and the hot-potato scan, and the
/// route's table is held here instead of looked up per walk. A walk along
/// another route — toward another prefix, or the same one after churn
/// re-rolled its salt — clears the tree and rebinds it.
///
/// Lent to the legs back toward one source, or toward the sources of one
/// prefix, a tree also remembers the last two forward and reply legs, for
/// the next exchanges to replay ([`Sim::rr_ping_to`], [`Sim::ping_lent`]).
///
/// A tree serves the [`Sim`] it was made for.
#[derive(Debug)]
pub struct SinkTree {
    /// The route the cells were learned on, and the core's route table
    /// for its target and salt.
    bound: Option<(TreeKey, Arc<[bgp::Cell]>)>,
    /// By router index: [`CELL_UNKNOWN`], or its first candidate link and
    /// candidate count ([`cell_of`]).
    cells: Box<[u32]>,
    /// The last forward and reply legs an exchange may replay.
    pub(crate) legs: [LegMemos; 2],
}

impl SinkTree {
    /// An empty tree over `sim`'s routers (4 B each).
    pub fn new(sim: &Sim) -> SinkTree {
        assert!(
            sim.topo.links.len() < 1 << LINK_BITS,
            "link ids overflow a cell"
        );
        SinkTree {
            bound: None,
            cells: vec![CELL_UNKNOWN; sim.topo.routers.len()].into(),
            legs: [[None; 2]; 2],
        }
    }

    /// Bind to `key`, forgetting every cell if that is a new route, and
    /// hand out the route's table beside the cells. `epoch` is what the
    /// salt stands for ([`Sim::route_table`]).
    fn bind(
        &mut self,
        sim: &Sim,
        key: TreeKey,
        epoch: Option<(PrefixId, u32)>,
    ) -> (&[bgp::Cell], &mut [u32]) {
        if !matches!(self.bound, Some((k, _)) if k == key) {
            assert_eq!(
                self.cells.len(),
                sim.topo.routers.len(),
                "another sim's tree"
            );
            self.cells.fill(CELL_UNKNOWN);
            self.bound = Some((key, sim.route_table(key.target, key.salt, epoch)));
        }
        let (_, core) = self.bound.as_ref().expect("bound above");
        (core, &mut self.cells)
    }
}

/// Where each router leaves its AS toward each neighbour AS, as walks lent
/// a [`SinkTree`] learn it: per (router, neighbour of its AS), nothing yet
/// or the first candidate link and the count ([`cell_of`]). Those
/// candidates are a function of the router and the neighbour alone, so
/// every route through the router toward that neighbour reads one cell: a
/// new tree learns a router's exit once per simulator, not once per route.
/// Made by the first walk lent a tree, and written by whichever walk
/// derives a cell first — every writer writes the same fact.
#[derive(Debug)]
struct Exits {
    /// By router index: its first cell, one per neighbour of its AS.
    first: Box<[u32]>,
    cells: Box<[AtomicU32]>,
}

impl Exits {
    fn new(topo: &Topology) -> Exits {
        let mut cells = 0;
        let first = (topo.routers.iter())
            .map(|r| {
                let at = cells;
                cells += topo.neighbors(r.asn).len() as u32;
                at
            })
            .collect();
        Exits {
            first,
            cells: (0..cells).map(|_| AtomicU32::new(CELL_UNKNOWN)).collect(),
        }
    }

    /// Router `r`'s cell toward its AS's `nbr`-th neighbour.
    fn cell(&self, r: RouterId, nbr: usize) -> &AtomicU32 {
        &self.cells[self.first[r.index()] as usize + nbr]
    }
}

/// Entries of a thread's [`RouteMemo`].
const MEMO_SLOTS: usize = 32;

/// The core route tables this thread walked over last, direct-mapped by
/// routing key. A probe's two walks go toward few keys — the destination's
/// prefix, the source's, a router's AS — and every worker of a campaign
/// walks toward the same sources, so fetching the table from the shared
/// cache per walk had all of them taking one shard's lock and bumping one
/// table's reference count in turn. A walk toward a memoised key touches
/// nothing shared. A key's table never changes, so an entry cannot go
/// stale: when churn retires a key the shared cache drops its table, and
/// an entry here only keeps that table alive until overwritten — which is
/// also how a walk pinned to a retired epoch keeps the table it computed
/// for itself. A simulator's drop releases the dropping thread's entries
/// for it; other threads' go when overwritten.
struct RouteMemo {
    slots: [Option<Memoised>; MEMO_SLOTS],
}

/// One routing key and its table.
struct Memoised {
    /// `(Sim::id, destination AS, salt)`.
    key: (u64, u32, u64),
    core: Arc<[bgp::Cell]>,
}

impl RouteMemo {
    /// The core's table toward `dst` under `salt`, which stands for
    /// `epoch` ([`Sim::route_table`]).
    fn table(
        &mut self,
        sim: &Sim,
        dst: AsId,
        salt: u64,
        epoch: Option<(PrefixId, u32)>,
    ) -> &[bgp::Cell] {
        let slot = &mut self.slots[(mix2(dst.0 as u64, salt) % MEMO_SLOTS as u64) as usize];
        let key = (sim.id, dst.0, salt);
        if !matches!(slot, Some(m) if m.key == key) {
            let core = sim.route_table(dst, salt, epoch);
            *slot = Some(Memoised { key, core });
        }
        &slot.as_ref().expect("filled above").core
    }

    /// Drop every entry of the simulator `sim_id`.
    fn forget(&mut self, sim_id: u64) {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|m| m.key.0 == sim_id) {
                *slot = None;
            }
        }
    }
}

thread_local! {
    static ROUTE_MEMO: std::cell::RefCell<RouteMemo> = const {
        std::cell::RefCell::new(RouteMemo {
            slots: [const { None }; MEMO_SLOTS],
        })
    };
}

/// Border routers per (AS, neighbour AS), compiled once: the routers of the
/// AS with at least one link to the neighbour, sorted. Slots run parallel
/// to [`Topology::all_neighbors`].
#[derive(Debug)]
struct Borders {
    /// Slot → start of its run in `routers` (one trailing entry).
    off: Vec<u32>,
    routers: Vec<RouterId>,
}

impl Borders {
    fn build(topo: &Topology) -> Borders {
        let neighbors = topo.all_neighbors();
        let mut b = Borders {
            off: Vec::with_capacity(neighbors.len() + 1),
            // At most one border per link.
            routers: Vec::with_capacity(neighbors.iter().map(|nb| nb.links.len()).sum()),
        };
        let mut run = Vec::new();
        for a in &topo.ases {
            for nb in topo.neighbors(a.id) {
                b.off.push(b.routers.len() as u32);
                topo.border_routers_of(a.id, nb.links, &mut run);
                b.routers.extend_from_slice(&run);
            }
        }
        b.off.push(b.routers.len() as u32);
        b
    }

    /// Border routers toward the neighbour in [`Topology::neighbor_slot`]
    /// `slot`.
    #[inline]
    fn toward(&self, slot: usize) -> &[RouterId] {
        &self.routers[self.off[slot] as usize..self.off[slot + 1] as usize]
    }

    fn bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.off.len() * size_of::<u32>() + self.routers.len() * size_of::<RouterId>()) as u64
    }
}

/// One bit per dense index.
#[derive(Debug)]
struct Bits(Box<[u64]>);

impl Bits {
    /// Bits `0..n`, all clear.
    fn new(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)].into())
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
}

/// The simulated Internet.
///
/// Cheap to share by reference across threads (`Sim: Sync`): the caches
/// lock internally, and the churn state is read without one.
pub struct Sim {
    topo: Topology,
    igp: Igp,
    behavior: Behavior,
    faults: Faults,
    scenario: Scenarios,
    cfg: SimConfig,
    seed: u64,
    /// Unique in the process: what a thread's [`RouteMemo`] tells two
    /// simulators' tables apart by.
    id: u64,
    churn: Churn,
    /// The salt-independent half of the route plane.
    route_plan: RoutePlan,
    /// (dst AS, salt) → the core's routes, for live keys only: one table
    /// per infrastructure AS and at most one per announced prefix, at its
    /// current churn epoch ([`Sim::route_table`]; a prefix's step drops
    /// the table of the epoch it left). Lock-striped; fills are
    /// single-flight so concurrent workers never duplicate a route
    /// computation.
    route_cache: StripedMap<(u32, u64), Arc<[bgp::Cell]>>,
    /// (AS, neighbour AS) → border routers.
    borders: Borders,
    /// Number of actual route computations (cache fills).
    route_computes: AtomicU64,
    /// Vantage point host addresses (always responsive: our own machines),
    /// sorted.
    vp_hosts: Vec<Addr>,
    /// By prefix index: some VP host lives in the prefix. Every VP host
    /// does live in one, so an address outside these prefixes is no VP
    /// host, and the search of `vp_hosts` is left to the few inside.
    vp_prefixes: Bits,
    /// By router index: how the router stamps Record Route.
    stamp_modes: Box<[StampMode]>,
    /// By link index: an intra link of an MPLS AS. A hop entered and left
    /// on two such links is LSP interior — both links are of the hop
    /// router's own AS, as an intra link joins routers of its AS alone.
    mpls_links: Bits,
    /// Routers' exits toward neighbour ASes, made by the first walk lent a
    /// sink tree: a simulator no survey lends trees on never holds it.
    exits: std::sync::OnceLock<Exits>,
    /// Optional telemetry handle for fault-event counters (disabled-by-
    /// absence; set once via [`Sim::set_telemetry`]).
    telemetry: std::sync::OnceLock<revtr_telemetry::Telemetry>,
}

impl Sim {
    /// Build the simulated Internet from a config and seed.
    pub fn build(cfg: SimConfig, seed: u64) -> Sim {
        let topo = gen::generate(&cfg, seed);
        Self::from_topology(topo, cfg, seed)
    }

    /// Wrap an already-generated topology (used by tests that want to
    /// inspect or tweak the raw topology before simulation).
    pub fn from_topology(topo: Topology, cfg: SimConfig, seed: u64) -> Sim {
        let igp = Igp::build(&topo);
        let borders = Borders::build(&topo);
        let route_plan = RoutePlan::build(&topo);
        let behavior = Behavior::new(seed, cfg.behavior.clone());
        let faults = Faults::new(seed, cfg.faults.clone());
        let scenario = Scenarios::new(seed, cfg.scenario.clone());
        let n_prefixes = topo.prefixes.len();
        assert!(
            topo.prefix_layout_holds(),
            "announced prefixes must sit in their owners' blocks as the generator places them"
        );
        assert!(
            topo.address_plan_holds(),
            "router addresses must sit where the address plan places them"
        );
        let mut vp_hosts: Vec<Addr> = topo.vp_sites.iter().map(|v| v.host).collect();
        vp_hosts.sort_unstable();
        let mut vp_prefixes = Bits::new(n_prefixes);
        for &h in &vp_hosts {
            let p = topo
                .prefix_of(h)
                .expect("VP hosts live in announced prefixes");
            vp_prefixes.set(p.index());
        }
        let stamp_modes = topo.routers.iter().map(|r| r.stamp).collect();
        let mut mpls_links = Bits::new(topo.links.len());
        for l in &topo.links {
            if matches!(l.kind, LinkKind::Intra(a) if topo.asn(a).mpls) {
                mpls_links.set(l.id.index());
            }
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Sim {
            topo,
            igp,
            behavior,
            faults,
            scenario,
            cfg,
            seed,
            // Relaxed: an id publishes nothing, it only has to be unique.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            churn: Churn::new(n_prefixes),
            route_plan,
            route_cache: StripedMap::new(),
            borders,
            route_computes: AtomicU64::new(0),
            vp_hosts,
            vp_prefixes,
            stamp_modes,
            mpls_links,
            exits: std::sync::OnceLock::new(),
            telemetry: std::sync::OnceLock::new(),
        }
    }

    /// Attach a telemetry handle for fault-event counters. First caller
    /// wins; later calls are ignored (the handle is shared campaign-wide,
    /// so there is exactly one per run).
    pub fn set_telemetry(&self, telemetry: revtr_telemetry::Telemetry) {
        let _ = self.telemetry.set(telemetry);
    }

    /// Count one fault event in the attached telemetry, if any.
    fn tele_fault(&self, name: &'static str) {
        if let Some(t) = self.telemetry.get() {
            t.counter_add(name, 1);
        }
    }

    /// True if `addr` is one of the system's vantage point hosts (always
    /// responsive to every probe flavour — they run our own software).
    pub fn is_vp_host(&self, addr: Addr) -> bool {
        self.vp_hosts.binary_search(&addr).is_ok()
    }

    /// [`Sim::is_vp_host`] of a destination already resolved, as the probe
    /// primitives ask it: only a host of a prefix some VP lives in can be
    /// one.
    pub(crate) fn is_vp_dest(&self, dest: &Dest, addr: Addr) -> bool {
        match *dest {
            Dest::Host { prefix, .. } => {
                self.vp_prefixes.get(prefix.index()) && self.is_vp_host(addr)
            }
            Dest::Router { .. } => false,
        }
    }

    /// How router `r` stamps Record Route.
    #[inline]
    pub(crate) fn stamp_mode(&self, r: RouterId) -> StampMode {
        self.stamp_modes[r.index()]
    }

    /// True if this hop is invisible to TTL and IP options: an interior hop
    /// of an MPLS backbone (entered and left on intra links of an AS whose
    /// LSPs do not propagate TTL) — §5.2.2's hidden tunnels.
    #[inline]
    pub(crate) fn mpls_hidden(&self, hop: &Hop) -> bool {
        let interior = |l: Option<LinkId>| l.is_some_and(|l| self.mpls_links.get(l.index()));
        interior(hop.in_link) && interior(hop.out_link)
    }

    /// The immutable topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// IGP tables.
    #[inline]
    pub fn igp(&self) -> &Igp {
        &self.igp
    }

    /// Behaviour oracle (host/router responsiveness).
    #[inline]
    pub fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// Fault oracle (probe loss, rate limiting, flaps, maintenance).
    #[inline]
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Scenario oracle (adversarial profiles; all off by default).
    #[inline]
    pub fn scenario(&self) -> &Scenarios {
        &self.scenario
    }

    /// The configuration this sim was built from.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The build seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    // ---- virtual time & churn ---------------------------------------------

    /// Current virtual time in hours.
    pub fn now_hours(&self) -> f64 {
        self.churn.now_hours()
    }

    /// Advance virtual time, applying route churn: each announced prefix
    /// re-rolls its interdomain tie-breaks with probability
    /// `churn_per_hour · hours`, and the route cache drops the table of the
    /// epoch it left — no live walk routes on that salt again.
    pub fn advance_hours(&self, hours: f64) {
        let rate = self.cfg.behavior.churn_per_hour;
        self.churn.advance(self.seed, rate, hours, |p, left| {
            let owner = self.topo.prefix(p).owner;
            self.route_cache
                .remove(&(owner.0, self.prefix_salt_at(p, left)));
        });
    }

    /// The current churn epoch of a prefix.
    pub fn prefix_epoch(&self, p: PrefixId) -> u32 {
        self.churn.epoch(p)
    }

    /// BGP tie-break salt for routing toward `p` at its current epoch.
    fn prefix_salt(&self, p: PrefixId) -> u64 {
        self.prefix_salt_at(p, self.prefix_epoch(p))
    }

    /// BGP tie-break salt for routing toward `p` at a pinned churn epoch.
    /// This is the replay primitive behind the audit layer: a probe whose
    /// epoch was recorded at measurement time re-walks identically even
    /// after further churn has moved the live epoch on.
    pub(crate) fn prefix_salt_at(&self, p: PrefixId, epoch: u32) -> u64 {
        mix3(self.seed ^ 0x5a17, p.0 as u64, epoch as u64)
    }

    /// Salt for routing toward infrastructure addresses of AS `a`
    /// (not churned: infrastructure routes are stable).
    pub(crate) fn infra_salt(&self, a: AsId) -> u64 {
        mix3(self.seed ^ 0x1f2a, a.0 as u64, 0)
    }

    // ---- routing tables ------------------------------------------------------

    /// Interdomain routes toward `dst` AS under `salt`: the core's table,
    /// cached, through which every AS's route reads ([`Routes::route`]).
    ///
    /// Single-flight: when several workers ask for the same uncached
    /// `(dst, salt)`, exactly one runs the salted-metric Dijkstra over the
    /// core and the rest wait for its result.
    pub fn routes(&self, dst: AsId, salt: u64) -> Routes<'_> {
        let core = self.route_cache.get_or_compute((dst.0, salt), || {
            self.route_computes.fetch_add(1, Ordering::Relaxed);
            self.route_plan.fill(dst, salt)
        });
        Routes {
            plan: &self.route_plan,
            dst,
            salt,
            core,
        }
    }

    /// The core's table toward `dst` under `salt`, for a walk whose salt
    /// stands for epoch `e` of prefix `p` (`epoch = Some((p, e))`; `None`
    /// for infrastructure destinations, which never churn). The shared
    /// cache keeps live keys only: a walk pinned to an epoch its prefix has
    /// left — an audit replay — computes the table
    /// for itself, and a fill a churn step overtook is dropped again.
    fn route_table(
        &self,
        dst: AsId,
        salt: u64,
        epoch: Option<(PrefixId, u32)>,
    ) -> Arc<[bgp::Cell]> {
        let retired = || epoch.is_some_and(|(p, e)| self.prefix_epoch(p) != e);
        if retired() {
            self.route_computes.fetch_add(1, Ordering::Relaxed);
            return self.route_plan.fill(dst, salt);
        }
        let core = self.routes(dst, salt).core;
        if retired() {
            self.route_cache.remove(&(dst.0, salt));
        }
        core
    }

    /// How many times `routes` actually computed a table (i.e. cache
    /// fills, not lookups). Exposed for the single-flight regression test
    /// and for cache-effectiveness reporting in `eval`.
    pub fn route_computes(&self) -> u64 {
        self.route_computes.load(Ordering::Relaxed)
    }

    /// Logical byte footprint of the route plane: entries × (key, pointer
    /// and the table it points to), plus the plan's fixed bytes. Entry *set* is worker-invariant (fills
    /// are single-flight and keyed by routing inputs), so the reading is a
    /// pure function of the seed.
    pub fn route_cache_bytes(&self) -> u64 {
        use std::mem::size_of;
        let slot = (size_of::<(u32, u64)>() + size_of::<Arc<[bgp::Cell]>>()) as u64;
        self.route_cache.len() as u64 * (slot + self.route_plan.table_bytes())
            + self.route_plan.bytes()
    }

    /// Logical byte footprint of the border-router table: every (AS,
    /// neighbour) pair's border list, compiled at build time — a pure
    /// function of the topology.
    pub fn border_cache_bytes(&self) -> u64 {
        self.borders.bytes()
    }

    /// Logical byte footprint of the precomputed per-AS IGP FIBs.
    pub fn fib_bytes(&self) -> u64 {
        self.igp.approx_bytes()
    }

    /// `max/mean` shard skew of the route cache (0.0 while it is empty):
    /// the "sim route/border cache worst shard skew" line under
    /// `revtr-cli report`'s Skew table.
    pub fn cache_shard_skew(&self) -> f64 {
        self.route_cache.shard_skew()
    }

    // ---- destinations -----------------------------------------------------

    /// Resolve what a destination address refers to. Private addresses and
    /// unallocated space return `None` (unroutable).
    pub fn resolve_dest(&self, addr: Addr) -> Option<Dest> {
        if addr.is_private() {
            return None;
        }
        if let Some(pid) = self.topo.prefix_of(addr) {
            let pe = self.topo.prefix(pid);
            // The .0 network address is not a host.
            if addr == pe.prefix.base {
                return None;
            }
            return Some(Dest::Host {
                prefix: pid,
                attach: pe.attach,
            });
        }
        let (router, link) = self.topo.router_and_link_at(addr)?;
        let anchor_as = self.topo.block_owner(addr)?;
        if self.topo.router_as(router) == anchor_as {
            return Some(Dest::Router {
                router,
                anchor_as,
                anchor: router,
                via: None,
            });
        }
        // Customer-side interface of an interdomain /30 numbered from the
        // provider's block: anchor at the provider-side router.
        let lid = link?;
        let l = self.topo.link(lid);
        let far = l.other(router);
        debug_assert_eq!(self.topo.router_as(far), anchor_as);
        Some(Dest::Router {
            router,
            anchor_as,
            anchor: far,
            via: Some(lid),
        })
    }

    /// Routing key for a destination: the announced prefix for host
    /// destinations (churned), or `None` for infrastructure addresses.
    /// `epoch` pins the churn epoch for host destinations (replay);
    /// `None` reads the live epoch.
    fn routing_ctx(&self, dest: &Dest, epoch: Option<u32>) -> RoutingKey {
        match *dest {
            Dest::Host { prefix, .. } => {
                let owner = self.topo.prefix(prefix).owner;
                let salt = match epoch {
                    Some(e) => self.prefix_salt_at(prefix, e),
                    None => self.prefix_salt(prefix),
                };
                (owner, salt, Some(prefix))
            }
            Dest::Router { anchor_as, .. } => (anchor_as, self.infra_salt(anchor_as), None),
        }
    }

    // ---- forwarding ---------------------------------------------------------

    /// Pick among `n` equal candidates per the router's quirks: DBR
    /// violators key on the packet source, load balancers on per-packet
    /// nonce (option packets) or flow (plain packets), everyone else
    /// deterministically on the destination key.
    ///
    /// Beside the index: whether it is *fixed* — the one every packet
    /// routed on this key picks at this router. That is a class of the
    /// router and the key, never of the packet in hand: a `dbr_region`
    /// router source-routes option packets only, yet is not fixed for the
    /// plain packet that happens to reach it first either.
    fn choose_idx(
        &self,
        router: RouterId,
        n: usize,
        dst_key: u64,
        pid: Option<PrefixId>,
        meta: &PktMeta,
    ) -> (usize, bool) {
        if n <= 1 {
            return (0, true);
        }
        let r = self.topo.router(router);
        // Scenario: whole regions whose routers source-route *option*
        // packets, regardless of whether they also load-balance — the
        // "load-balanced DBR-breaking subtrees" adversarial profile. Plain
        // packets (and hence the oracle's true paths) are unaffected, which
        // is exactly what makes unverified RR evidence inaccurate there.
        let region = pid.is_some() && self.scenario.dbr_region(self.topo.router_as(router));
        if region && meta.has_options {
            self.tele_fault("netsim.scenario.dbr_region_hop");
            let alternate = self.scenario.dbr_alternate(meta.routing_src, router, n);
            return (alternate, false);
        }
        if let Some(p) = pid {
            if !r.load_balancer && self.behavior.violates_dbr(router, p) {
                let by_source = mix3(
                    self.seed ^ 0xd8f7,
                    meta.routing_src.0 as u64,
                    router.0 as u64,
                );
                return ((by_source % n as u64) as usize, false);
            }
        }
        if r.load_balancer {
            let key = if meta.has_options {
                meta.nonce
            } else {
                meta.flow as u64
            };
            let balanced = mix3(self.seed ^ 0x1b, key, router.0 as u64);
            return ((balanced % n as u64) as usize, false);
        }
        // Ordinary routers break equal-cost ties deterministically and
        // *direction-symmetrically* (first candidate in sorted order),
        // mirroring real IGPs whose metrics are symmetric — this is what
        // keeps intradomain paths 90% symmetric (§4.4) while interdomain
        // asymmetry still arises from independent per-direction BGP
        // decisions. A small per-destination fraction of choices deviates
        // to a backup candidate (maintenance, local config): since
        // `dst_key` folds in the prefix churn epoch, these deviations are
        // also what makes paths drift over days (Fig. 9d).
        let idx = if chance(mix3(self.seed ^ 0xf11b, dst_key, router.0 as u64), 0.04) {
            (mix3(self.seed ^ 0xf11c, dst_key, router.0 as u64) % n as u64) as usize
        } else {
            0
        };
        (idx, !region)
    }

    /// Walk a packet from `start` (a router; use the attach router of the
    /// sender's prefix for host senders) to destination `dst_addr`.
    ///
    /// Returns `None` if the destination is unroutable or the hop cap is
    /// exceeded (a forwarding loop through a violating router).
    pub fn walk(&self, start: RouterId, dst_addr: Addr, meta: &PktMeta) -> Option<Walk> {
        self.walk_at_epoch(start, dst_addr, meta, None)
    }

    /// Like [`Sim::walk`], but with the destination prefix's churn epoch
    /// pinned to `epoch` (for host destinations; infrastructure routes are
    /// never churned so the pin is a no-op for them). `None` reads the live
    /// epoch, making `walk_at_epoch(s, d, m, None)` byte-identical to
    /// `walk(s, d, m)`. The audit layer uses the pinned form to re-derive
    /// the exact forwarding decisions of a probe recorded earlier in
    /// virtual time.
    pub fn walk_at_epoch(
        &self,
        start: RouterId,
        dst_addr: Addr,
        meta: &PktMeta,
        epoch: Option<u32>,
    ) -> Option<Walk> {
        let dest = self.resolve_dest(dst_addr)?;
        self.walk_hops(start, dst_addr, &dest, meta, epoch, None)
    }

    /// [`Sim::walk_to`] into a [`Walk`]: the hops kept whole, for the
    /// callers that read a path as a value — traceroute, TTL views, the
    /// oracle.
    pub(crate) fn walk_hops(
        &self,
        start: RouterId,
        dst_addr: Addr,
        dest: &Dest,
        meta: &PktMeta,
        epoch: Option<u32>,
        tree: Option<&mut SinkTree>,
    ) -> Option<Walk> {
        let mut hops = Hops::new();
        let latency_ms = self.walk_to(start, dst_addr, dest, meta, epoch, tree, &mut hops)?;
        Some(Walk { hops, latency_ms })
    }

    /// [`Sim::walk_at_epoch`] for a destination the caller has already
    /// resolved (`dest` must be `resolve_dest(dst_addr)`): the probe
    /// primitives resolve each address once per probe, not once per leg.
    /// Each hop goes to `sink` as it is taken, and the walk's latency is
    /// returned — a probe primitive reads what it needs of a hop on the
    /// way instead of holding the walk.
    ///
    /// Steady state allocates nothing: the walk holds no hop, and every
    /// candidate set `choose_idx` picks from is either a slice of a
    /// precompiled table or counted and re-walked in place. The
    /// sets, and their order, are part of the forwarding model — intra leg:
    /// equal-cost next hops by (neighbour, link); direct egress: the
    /// adjacency's links incident on this router, in the adjacency's link
    /// order; hot potato: the union of equal-cost next hops toward the
    /// nearest borders, by (neighbour, link), each once.
    ///
    /// A lent `tree` changes how the next link is found and nothing else.
    /// Where its cell holds the route's facts the candidate count is a
    /// table read, and so is the link whenever `choose_idx` picks the
    /// first candidate; anywhere else the candidates are derived as
    /// without a tree — a router's exit from its AS read from, or learned
    /// into, the simulator's exit table — and the cell learns the facts.
    /// Latency is summed hop by hop in walk order (float addition does not
    /// reassociate, so a stored suffix sum would not be bit-equal), the
    /// maintenance check runs on every link crossed (it reads the clock),
    /// and a router with no route on teaches the cell nothing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn walk_to<S: HopSink>(
        &self,
        start: RouterId,
        dst_addr: Addr,
        dest: &Dest,
        meta: &PktMeta,
        epoch: Option<u32>,
        tree: Option<&mut SinkTree>,
        sink: &mut S,
    ) -> Option<f64> {
        let (epoch, key) = self.route_key(dest, epoch);
        self.walk_keyed(start, dst_addr, dest, meta, epoch, key, tree, sink)
    }

    /// The epoch a walk toward `dest` routes on, read once — pinned, or
    /// live — and its [`Sim::routing_ctx`] key.
    pub(crate) fn route_key(
        &self,
        dest: &Dest,
        epoch: Option<u32>,
    ) -> (Option<(PrefixId, u32)>, RoutingKey) {
        let epoch = match *dest {
            Dest::Host { prefix, .. } => {
                Some((prefix, epoch.unwrap_or_else(|| self.prefix_epoch(prefix))))
            }
            Dest::Router { .. } => None,
        };
        (epoch, self.routing_ctx(dest, epoch.map(|(_, e)| e)))
    }

    /// The route a walk toward `addr` takes at its live epoch — what a
    /// [`SinkTree`] lent to it is keyed by — or `None` if nothing routes
    /// there. Addresses on one route share a tree's cells: the hosts of a
    /// prefix, say, or the VPs of one.
    pub fn tree_key(&self, addr: Addr) -> Option<TreeKey> {
        let dest = self.resolve_dest(addr)?;
        let (_, (target, salt, _)) = self.route_key(&dest, None);
        Some(TreeKey {
            target,
            salt,
            end: dest.delivery().0,
        })
    }

    /// [`Sim::walk_to`] once [`Sim::route_key`] is read.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn walk_keyed<S: HopSink>(
        &self,
        start: RouterId,
        dst_addr: Addr,
        dest: &Dest,
        meta: &PktMeta,
        epoch: Option<(PrefixId, u32)>,
        key: RoutingKey,
        tree: Option<&mut SinkTree>,
        sink: &mut S,
    ) -> Option<f64> {
        let (target_as, salt, _) = key;
        match tree {
            Some(tree) => {
                let route = TreeKey {
                    target: target_as,
                    salt,
                    end: dest.delivery().0,
                };
                let (core, cells) = tree.bind(self, route, epoch);
                self.walk_over(core, Some(cells), start, dst_addr, dest, meta, key, sink)
            }
            None => ROUTE_MEMO.with_borrow_mut(|memo| {
                let core = memo.table(self, target_as, salt, epoch);
                self.walk_over(core, None, start, dst_addr, dest, meta, key, sink)
            }),
        }
    }

    /// [`Sim::walk_to`] once the key's route table is in hand: `core` is
    /// the table of `key` — `routing_ctx`'s `(target AS, salt, prefix)` —
    /// and `cells` the lent tree's, if any.
    #[allow(clippy::too_many_arguments)]
    fn walk_over<S: HopSink>(
        &self,
        core: &[bgp::Cell],
        cells: Option<&mut [u32]>,
        start: RouterId,
        dst_addr: Addr,
        dest: &Dest,
        meta: &PktMeta,
        (target_as, salt, pid): RoutingKey,
        sink: &mut S,
    ) -> Option<f64> {
        let key = (target_as, salt);
        let (final_router, via, deliver_to_host) = dest.delivery();
        let dst_key = mix2(dst_addr.0 as u64, salt);
        // Link-maintenance faults: read virtual time once per walk.
        let maint_now = if self.faults.links_enabled() {
            Some(self.now_hours())
        } else {
            None
        };

        // A lent tree's cells, beside the exit table they learn from.
        let mut lent = cells.map(|c| (c, self.exits.get_or_init(|| Exits::new(&self.topo))));

        let mut latency_ms = 0.0;
        let mut cur = start;
        let mut in_link: Option<LinkId> = None;
        // The AS last asked for its BGP choice, and the answer: hops inside
        // one AS ask again, and a leaf AS re-derives it on every lookup.
        let mut chosen: Option<(AsId, usize)> = None;

        // `taken` hops have gone to the sink: one per pass.
        for taken in 0..MAX_HOPS {
            if cur == final_router {
                // Deliver: to the local host, across `via`, or to self.
                if let Some(v) = via {
                    if taken + 2 > MAX_HOPS {
                        return None; // the far router would be one too many
                    }
                    if let Some(now) = maint_now {
                        if self.faults.link_down(v, now) {
                            self.tele_fault("netsim.fault.link_down_drop");
                            return None; // final link under maintenance
                        }
                    }
                    let l = self.topo.link(v);
                    let hop = Hop {
                        router: cur,
                        in_link,
                        out_link: Some(v),
                    };
                    sink.hop(self, hop);
                    latency_ms += l.latency_ms;
                    let far = Hop {
                        router: l.other(cur),
                        in_link: Some(v),
                        out_link: None,
                    };
                    sink.hop(self, far);
                } else {
                    let hop = Hop {
                        router: cur,
                        in_link,
                        out_link: None,
                    };
                    sink.hop(self, hop);
                    if deliver_to_host {
                        latency_ms += HOST_LINK_MS;
                    }
                }
                return Some(latency_ms);
            }

            // Determine the next link: without a tree, derive the candidates
            // and pick at once; with one, pick among the cell's facts.
            let mut fixed = true;
            let (next_link, n) = match lent.as_mut() {
                Some((cells, exits)) => {
                    let (first, n) = match cells[cur.index()] {
                        CELL_UNKNOWN => {
                            let facts =
                                self.route_facts(core, cur, final_router, key, &mut chosen, exits)?;
                            cells[cur.index()] = cell_of(facts);
                            facts
                        }
                        cell => cell_facts(cell),
                    };
                    let (i, f) = self.choose_idx(cur, n, dst_key, pid, meta);
                    fixed = f;
                    let pick = |_| i;
                    match i {
                        0 => (first, n),
                        _ => self.next_link(core, cur, final_router, key, &mut chosen, pick)?,
                    }
                }
                None => self.next_link(core, cur, final_router, key, &mut chosen, |n| {
                    let (i, f) = self.choose_idx(cur, n, dst_key, pid, meta);
                    fixed = f;
                    i
                })?,
            };
            sink.choice(n > 1, fixed);

            if let Some(now) = maint_now {
                if self.faults.link_down(next_link, now) {
                    self.tele_fault("netsim.fault.link_down_drop");
                    return None; // packet silently dropped on a down link
                }
            }
            let l = self.topo.link(next_link);
            let hop = Hop {
                router: cur,
                in_link,
                out_link: Some(next_link),
            };
            sink.hop(self, hop);
            latency_ms += l.latency_ms;
            cur = l.other(cur);
            in_link = Some(next_link);
        }
        None // hop cap exceeded
    }

    /// The link `cur` leaves by toward `final_router` on the route `core`
    /// holds toward `target_as` under `salt`: candidate `pick(n)` of its
    /// `n`, and `n`. `None` when no route leaves `cur`'s AS or no next hop
    /// leads on. `chosen` carries the BGP choice of the AS asked last from
    /// one call to the next.
    fn next_link(
        &self,
        core: &[bgp::Cell],
        cur: RouterId,
        final_router: RouterId,
        (target_as, salt): (AsId, u64),
        chosen: &mut Option<(AsId, usize)>,
        pick: impl FnOnce(usize) -> usize,
    ) -> Option<(LinkId, usize)> {
        let cur_as = self.topo.router_as(cur);
        if cur_as == target_as {
            // Intradomain leg toward the final router.
            let cands = self.igp.next_hops_toward(&self.topo, cur, final_router);
            if cands.is_empty() {
                return None; // disconnected intra graph (shouldn't happen)
            }
            return Some((cands[pick(cands.len())].0, cands.len()));
        }
        let nbr = self.bgp_choice(core, cur_as, (target_as, salt), chosen)?;
        self.exit_link(cur, cur_as, nbr, pick)
    }

    /// The position of the neighbour `cur_as` routes toward `target_as`
    /// by under `salt` — `chosen`'s if it holds `cur_as`'s, else looked
    /// up in `core` and kept there. `None`: no route.
    fn bgp_choice(
        &self,
        core: &[bgp::Cell],
        cur_as: AsId,
        (target_as, salt): (AsId, u64),
        chosen: &mut Option<(AsId, usize)>,
    ) -> Option<usize> {
        match *chosen {
            Some((asn, nbr)) if asn == cur_as => Some(nbr),
            _ => {
                let nbr = (self.route_plan)
                    .route(core, target_as, salt, cur_as)?
                    .hop?;
                debug_assert!(
                    nbr < self.topo.neighbors(cur_as).len(),
                    "{cur_as} has no neighbour {nbr}"
                );
                *chosen = Some((cur_as, nbr));
                Some(nbr)
            }
        }
    }

    /// The link `cur` leaves its AS `cur_as` by toward the AS's `nbr`-th
    /// neighbour — candidate `pick(n)` of its `n` — and `n`: a direct
    /// link from a border router, else a hot-potato next hop toward the
    /// nearest border. `None`: no border reachable.
    fn exit_link(
        &self,
        cur: RouterId,
        cur_as: AsId,
        nbr: usize,
        pick: impl FnOnce(usize) -> usize,
    ) -> Option<(LinkId, usize)> {
        let borders = self.borders.toward(self.topo.neighbor_slot(cur_as, nbr));
        if borders.contains(&cur) {
            // Direct links from cur to next_as.
            let direct = || {
                (self.topo.neighbors(cur_as)[nbr].links.iter()).filter(|&l| {
                    let link = self.topo.link(l);
                    link.a == cur || link.b == cur
                })
            };
            let n = direct().count();
            Some((direct().nth(pick(n)).expect("index below the count"), n))
        } else {
            // Hot potato: head for the nearest border toward next_as.
            let mut cands = self.igp.next_hops_toward_nearest(cur_as, cur, borders)?;
            let n = cands.clone().count();
            if n == 0 {
                return None;
            }
            Some((cands.nth(pick(n)).expect("index below the count").0, n))
        }
    }

    /// `cur`'s facts on a route (as [`Sim::next_link`] takes it): its first
    /// candidate link and the count. A router outside the target AS reads
    /// them from the exit table, and teaches the table those it derives.
    fn route_facts(
        &self,
        core: &[bgp::Cell],
        cur: RouterId,
        final_router: RouterId,
        key: (AsId, u64),
        chosen: &mut Option<(AsId, usize)>,
        exits: &Exits,
    ) -> Option<(LinkId, usize)> {
        let cur_as = self.topo.router_as(cur);
        if cur_as == key.0 {
            return self.next_link(core, cur, final_router, key, chosen, |_| 0);
        }
        let nbr = self.bgp_choice(core, cur_as, key, chosen)?;
        let cell = exits.cell(cur, nbr);
        // Relaxed: a cell publishes nothing but itself, and every writer
        // writes the same value.
        match cell.load(Ordering::Relaxed) {
            CELL_UNKNOWN => {
                let facts = self.exit_link(cur, cur_as, nbr, |_| 0)?;
                cell.store(cell_of(facts), Ordering::Relaxed);
                Some(facts)
            }
            known => Some(cell_facts(known)),
        }
    }

    /// The walk as it was interpreted hop by hop before the forwarding
    /// plane was compiled — per-call next-hop sets, collected and sorted
    /// candidates, full [`bgp::AsRoutes`] (memoised in `routes`). The
    /// differential tests hold [`Sim::walk_at_epoch`] to it, hop for hop
    /// and bit for bit in latency.
    #[cfg(test)]
    pub(crate) fn walk_reference(
        &self,
        routes: &mut revtr_telemetry::WordMap<(u32, u64), bgp::AsRoutes>,
        start: RouterId,
        dst_addr: Addr,
        meta: &PktMeta,
        epoch: Option<u32>,
    ) -> Option<(Vec<Hop>, f64)> {
        let dest = self.resolve_dest(dst_addr)?;
        let (target_as, salt, pid) = self.routing_ctx(&dest, epoch);
        let (final_router, via, deliver_to_host) = dest.delivery();
        let dst_key = mix2(dst_addr.0 as u64, salt);
        let routes = routes
            .entry((target_as.0, salt))
            .or_insert_with(|| bgp::routes_to(&self.topo, target_as, salt));
        let maint_now = self.faults.links_enabled().then(|| self.now_hours());

        let mut hops: Vec<Hop> = Vec::new();
        let mut latency = 0.0;
        let mut cur = start;
        let mut in_link: Option<LinkId> = None;

        for _ in 0..MAX_HOPS {
            let cur_as = self.topo.router_as(cur);
            if cur == final_router {
                if let Some(v) = via {
                    if hops.len() + 2 > MAX_HOPS {
                        return None;
                    }
                    if maint_now.is_some_and(|now| self.faults.link_down(v, now)) {
                        return None;
                    }
                    let l = self.topo.link(v);
                    hops.push(Hop {
                        router: cur,
                        in_link,
                        out_link: Some(v),
                    });
                    latency += l.latency_ms;
                    hops.push(Hop {
                        router: l.other(cur),
                        in_link: Some(v),
                        out_link: None,
                    });
                } else {
                    hops.push(Hop {
                        router: cur,
                        in_link,
                        out_link: None,
                    });
                    if deliver_to_host {
                        latency += HOST_LINK_MS;
                    }
                }
                return Some((hops, latency));
            }

            let next_link: LinkId = if cur_as == target_as {
                let cands = self.igp.next_hops_reference(&self.topo, cur, final_router);
                if cands.is_empty() {
                    return None;
                }
                let (i, _) = self.choose_idx(cur, cands.len(), dst_key, pid, meta);
                cands[i].0
            } else {
                let next_as = routes.next[cur_as.index()]?;
                let direct: Vec<LinkId> = (self.topo.links_to(cur_as, next_as).iter())
                    .filter(|&l| {
                        let link = self.topo.link(l);
                        link.a == cur || link.b == cur
                    })
                    .collect();
                if !direct.is_empty() {
                    let (i, _) = self.choose_idx(cur, direct.len(), dst_key, pid, meta);
                    direct[i]
                } else {
                    let borders = self.topo.border_routers_toward(cur_as, next_as);
                    let dmin = borders
                        .iter()
                        .map(|&b| self.igp.dist(&self.topo, cur, b))
                        .min()?;
                    if dmin == crate::igp::UNREACHABLE {
                        return None;
                    }
                    let mut cands: Vec<(LinkId, RouterId)> = Vec::new();
                    for &b in borders.iter() {
                        if self.igp.dist(&self.topo, cur, b) == dmin {
                            cands.extend(self.igp.next_hops_reference(&self.topo, cur, b));
                        }
                    }
                    cands.sort_unstable_by_key(|&(l, r)| (r, l));
                    cands.dedup();
                    if cands.is_empty() {
                        return None;
                    }
                    let (i, _) = self.choose_idx(cur, cands.len(), dst_key, pid, meta);
                    cands[i].0
                }
            };

            if maint_now.is_some_and(|now| self.faults.link_down(next_link, now)) {
                return None;
            }
            let l = self.topo.link(next_link);
            hops.push(Hop {
                router: cur,
                in_link,
                out_link: Some(next_link),
            });
            latency += l.latency_ms;
            cur = l.other(cur);
            in_link = Some(next_link);
        }
        None
    }

    /// Prefix and attach router of a host address, if it is a valid host.
    pub(crate) fn resolve_host(&self, host: Addr) -> Option<(PrefixId, RouterId)> {
        match self.resolve_dest(host)? {
            Dest::Host { prefix, attach } => Some((prefix, attach)),
            Dest::Router { .. } => None,
        }
    }

    /// The attach router for a host address, if it is a valid host.
    pub fn host_attach(&self, host: Addr) -> Option<RouterId> {
        self.resolve_host(host).map(|(_, attach)| attach)
    }

    /// The router that generates ICMP replies for probes addressed to
    /// `dst`: the owning router for infrastructure addresses, `None` for
    /// host destinations (end hosts are not ICMP-rate-limited routers).
    pub fn responder_router(&self, dst: Addr) -> Option<RouterId> {
        match self.resolve_dest(dst)? {
            Dest::Router { router, .. } => Some(router),
            Dest::Host { .. } => None,
        }
    }

    /// The prefix a host address belongs to, if any.
    pub fn host_prefix(&self, host: Addr) -> Option<PrefixId> {
        self.resolve_host(host).map(|(prefix, _)| prefix)
    }

    /// The router-side interface address inside a destination prefix (the
    /// `.1` of the /24) — what an `Egress`-stamping last-hop router writes
    /// into RR, and what traceroute's first hop reports for local senders.
    pub fn prefix_gateway(&self, p: PrefixId) -> Addr {
        self.topo.prefix(p).prefix.nth(1)
    }

    /// The off-prefix alias a `HostStamp::AliasDouble` destination stamps:
    /// an address in the owner's block but outside any announced prefix.
    pub fn host_alias(&self, host: Addr) -> Option<Addr> {
        Some(self.alias_in(self.host_prefix(host)?, host))
    }

    /// [`Sim::host_alias`] of a host known to live in prefix `pid`.
    pub(crate) fn alias_in(&self, pid: PrefixId, host: Addr) -> Addr {
        let pe = self.topo.prefix(pid);
        let pos = (self.topo.as_prefixes(pe.owner).iter())
            .position(|p| p == pid)
            .expect("prefix registered with owner") as u32;
        // /24s #1..#15 of the block are reserved for host aliases.
        debug_assert!(pos < 15, "too many prefixes for alias space");
        Addr(self.topo.asn(pe.owner).block.base.0 + 256 * (1 + pos) + (host.0 & 0xFF))
    }

    /// Host addresses usable as probe targets inside a prefix
    /// (`.10 ..= .250`, skipping VP site slots).
    pub fn host_addrs(&self, p: PrefixId) -> impl Iterator<Item = Addr> + '_ {
        let base = self.topo.prefix(p).prefix.base;
        (10u32..=250).map(move |i| Addr(base.0 + i))
    }

    // ---- adversarial scenario hooks ---------------------------------------

    /// Scenario `spoof_filter_rollout`: true when a spoofed probe sent by a
    /// VP at `vp` toward `dst` is silently eaten by a newly deployed
    /// source-address-validation filter in the VP's hosting AS. The draw is
    /// keyed purely on (VP AS, destination), so the drop is persistent:
    /// retries from the same VP toward the same destination never land.
    pub fn scenario_spoof_dropped(&self, vp: Addr, dst: Addr) -> bool {
        if !self.scenario.any_enabled() {
            return false;
        }
        let Some(pid) = self.host_prefix(vp) else {
            return false;
        };
        if self
            .scenario
            .spoof_filtered(self.topo.prefix(pid).owner, dst)
        {
            self.tele_fault("netsim.scenario.spoof_filtered");
            true
        } else {
            false
        }
    }

    /// Scenario `asymmetric_rate_limiters`: true when the destination's
    /// limiter drops this attempt. Spoofed probes are policed far more
    /// aggressively than direct ones, and every attempt re-rolls — retries
    /// (and a raised stall budget) can still get through.
    pub fn scenario_rate_limited(
        &self,
        dst: Addr,
        sender: Addr,
        spoofed: bool,
        attempt: u64,
    ) -> bool {
        if self.scenario.rate_limited(dst, sender, spoofed, attempt) {
            self.tele_fault("netsim.scenario.rate_limited");
            true
        } else {
            false
        }
    }

    /// Scenario `lying_rr_responders`: rewrite the reply-leg RR stamps of a
    /// lying destination into plausible-but-false interface addresses (real
    /// link interfaces elsewhere in the topology). Lies are stable per
    /// (destination, true stamp) so retries and the measurement cache agree;
    /// the audit replay oracle never reproduces them, which is what makes
    /// the adopted evidence `Unsound`.
    pub(crate) fn scenario_lie_slots(&self, dst: Addr, slots: &mut [Addr]) {
        if slots.is_empty() || !self.scenario.lying_responder(dst) {
            return;
        }
        let links = &self.topo.links;
        if links.is_empty() {
            return;
        }
        for s in slots.iter_mut() {
            let truth = *s;
            let l = &links[self.scenario.lie_pick(dst, truth, links.len())];
            let fake = if l.addr_a != truth {
                l.addr_a
            } else {
                l.addr_b
            };
            *s = fake;
            self.tele_fault("netsim.scenario.rr_lie");
        }
    }

    /// Scenario `poisoned_atlas`: corrupt one interior hop of a fresh atlas
    /// traceroute with a real-but-wrong interface address, manufacturing
    /// false intersection opportunities for the stitcher.
    pub fn scenario_poison_trace(&self, vp: Addr, source: Addr, hops: &mut [Option<Addr>]) {
        if hops.len() < 3 || !self.scenario.poisoned_trace(vp, source) {
            return;
        }
        let links = &self.topo.links;
        if links.is_empty() {
            return;
        }
        let (hop, li) = self
            .scenario
            .poison_pick(vp, source, hops.len(), links.len());
        let l = &links[li];
        let fake = if hops[hop] != Some(l.addr_a) {
            l.addr_a
        } else {
            l.addr_b
        };
        hops[hop] = Some(fake);
        self.tele_fault("netsim.scenario.atlas_poisoned");
    }
}

impl Drop for Sim {
    /// Release this thread's memoised tables of the simulator; the route
    /// cache releases the rest. (Other threads' entries go when their next
    /// walks overwrite them; a thread already torn down holds none.)
    fn drop(&mut self) {
        let _ = ROUTE_MEMO.try_with(|memo| memo.borrow_mut().forget(self.id));
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("ases", &self.topo.ases.len())
            .field("routers", &self.topo.routers.len())
            .field("links", &self.topo.links.len())
            .field("prefixes", &self.topo.prefixes.len())
            .field("seed", &self.seed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkKind;

    fn sim() -> Sim {
        Sim::build(SimConfig::tiny(), 3)
    }

    #[test]
    fn resolve_dest_hosts() {
        let s = sim();
        let pe = &s.topo().prefixes[0];
        let host = s.host_addrs(pe.id).next().expect("hosts");
        match s.resolve_dest(host) {
            Some(Dest::Host { prefix, attach }) => {
                assert_eq!(prefix, pe.id);
                assert_eq!(attach, pe.attach);
            }
            other => panic!("host resolved as {other:?}"),
        }
        // The /24 network address is not a host.
        assert_eq!(s.resolve_dest(pe.prefix.base), None);
    }

    #[test]
    fn resolve_dest_router_addresses() {
        let s = sim();
        // Loopback: anchored at the owning router directly.
        let r = &s.topo().routers[0];
        match s.resolve_dest(r.loopback) {
            Some(Dest::Router {
                router,
                anchor,
                via,
                ..
            }) => {
                assert_eq!(router, r.id);
                assert_eq!(anchor, r.id);
                assert_eq!(via, None);
            }
            other => panic!("loopback resolved as {other:?}"),
        }
        // Private alias: unroutable.
        assert_eq!(s.resolve_dest(r.private_alias), None);
    }

    #[test]
    fn resolve_dest_customer_side_border_uses_via() {
        let s = sim();
        let mut found = false;
        for l in &s.topo().links {
            if l.kind != LinkKind::Inter {
                continue;
            }
            for (addr, owner_router, far_router) in [(l.addr_a, l.a, l.b), (l.addr_b, l.b, l.a)] {
                let block_owner = s.topo().block_owner(addr).expect("public");
                if s.topo().router_as(owner_router) != block_owner {
                    // Far-side interface: must anchor at the near router and
                    // cross `via` as the final hop.
                    match s.resolve_dest(addr) {
                        Some(Dest::Router {
                            router,
                            anchor,
                            via,
                            anchor_as,
                        }) => {
                            assert_eq!(router, owner_router);
                            assert_eq!(anchor, far_router);
                            assert_eq!(via, Some(l.id));
                            assert_eq!(anchor_as, block_owner);
                            found = true;
                        }
                        other => panic!("border iface resolved as {other:?}"),
                    }
                }
            }
        }
        assert!(found, "no customer-side border interface tested");
    }

    /// Every router address resolves to its router, and its `via` is the
    /// link a scan of the router's links finds for the address when the
    /// address is numbered from another AS's block, `None` otherwise (and
    /// a private alias resolves to nothing).
    fn resolve_dest_via_matches_the_scan(s: &Sim) {
        let topo = s.topo();
        let mut vias = 0;
        for r in &topo.routers {
            assert_eq!(s.resolve_dest(r.private_alias), None);
            for addr in topo
                .router_addrs(r.id)
                .into_iter()
                .filter(|a| !a.is_private())
            {
                let anchor_as = topo.block_owner(addr).expect("public");
                let scan = (topo.router_as(r.id) != anchor_as).then(|| {
                    (topo.router_links(r.id).iter().copied())
                        .find(|&l| topo.link(l).addr_of(r.id) == addr)
                        .expect("an interface of its router")
                });
                match s.resolve_dest(addr) {
                    Some(Dest::Router { router, via, .. }) => {
                        assert_eq!((router, via), (r.id, scan), "{addr}");
                    }
                    other => panic!("{addr} resolved as {other:?}"),
                }
                vias += usize::from(scan.is_some());
            }
        }
        assert!(vias > 0, "no address numbered from another AS's block");
    }

    #[test]
    fn resolve_dest_via_matches_the_scan_on_tiny() {
        for seed in [1, 7, 42] {
            resolve_dest_via_matches_the_scan(&Sim::build(SimConfig::tiny(), seed));
        }
    }

    /// Every era-2020 router address: run in release (ci.sh does).
    #[test]
    #[ignore]
    fn resolve_dest_via_matches_the_scan_on_era_2020() {
        resolve_dest_via_matches_the_scan(&Sim::build(SimConfig::era_2020(), 1));
    }

    #[test]
    fn walks_always_terminate_within_hop_cap() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        let attach = s.host_attach(src).expect("vp host");
        for pe in s.topo().prefixes.iter().take(60) {
            let dst = s.host_addrs(pe.id).next().expect("hosts");
            if let Some(w) = s.walk(attach, dst, &PktMeta::plain(src, 0)) {
                assert!(w.hops.len() <= MAX_HOPS);
                assert!(w.latency_ms > 0.0);
                // The walk ends at the destination's attach router.
                assert_eq!(
                    w.hops.last().expect("nonempty").router,
                    s.topo().prefix(pe.id).attach
                );
            }
        }
    }

    #[test]
    fn walk_hop_links_are_consistent() {
        let s = sim();
        let src = s.topo().vp_sites[0].host;
        let dst = s.topo().vp_sites[3].host;
        let attach = s.host_attach(src).expect("vp host");
        let w = s.walk(attach, dst, &PktMeta::plain(src, 0)).expect("route");
        for pair in w.hops.windows(2) {
            // The out-link of one hop is the in-link of the next, and the
            // link actually connects the two routers.
            assert_eq!(pair[0].out_link, pair[1].in_link);
            let l = s.topo().link(pair[0].out_link.expect("connected"));
            assert_eq!(l.other(pair[0].router), pair[1].router);
        }
    }

    #[test]
    fn host_alias_is_off_prefix_but_in_block() {
        let s = sim();
        let pe = &s.topo().prefixes[0];
        let host = s.host_addrs(pe.id).next().expect("hosts");
        let alias = s.host_alias(host).expect("alias");
        assert_eq!(s.topo().block_owner(alias), Some(pe.owner));
        assert_eq!(
            s.topo().prefix_of(alias),
            None,
            "alias must sit outside every announced prefix"
        );
    }

    #[test]
    fn gateway_is_inside_the_prefix() {
        let s = sim();
        for pe in s.topo().prefixes.iter().take(20) {
            let gw = s.prefix_gateway(pe.id);
            assert!(pe.prefix.contains(gw));
        }
    }

    #[test]
    fn routes_compute_once_under_contention() {
        // Regression test for the duplicated-compute race: before the
        // single-flight cache, N workers asking for the same uncached
        // (dst, salt) would each run the full route computation and the
        // last write won. Now exactly one runs.
        let s = sim();
        let dst = s.topo().ases[0].id;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let r = s.routes(dst, 42);
                        assert!(r.reachable(dst));
                    }
                });
            }
        });
        assert_eq!(
            s.route_computes(),
            1,
            "8 threads hammering one destination must trigger exactly one fill"
        );
        // And every caller got the same shared table.
        let a = s.routes(dst, 42);
        let b = s.routes(dst, 42);
        assert!(Arc::ptr_eq(&a.core, &b.core));
        // A different salt is a different cache entry.
        let _ = s.routes(dst, 43);
        assert_eq!(s.route_computes(), 2);
    }

    /// `flushes` virtual hours on `cfg`, a rotating window of `window`
    /// prefixes RR-pinged from a VP after each: the route cache keeps live
    /// keys only — at most one table per prefix plus one per
    /// infrastructure AS — where keeping every key ever walked would not.
    fn route_cache_holds_live_keys_only(cfg: SimConfig, flushes: usize, window: usize) {
        let s = Sim::build(cfg, 5);
        let vp = s.topo().vp_sites[0].host;
        let dsts: Vec<(PrefixId, Addr)> = (s.topo().prefixes.iter())
            .filter_map(|pe| Some((pe.id, s.host_addrs(pe.id).next()?)))
            .collect();
        let bound = s.topo().prefixes.len() + s.topo().ases.len();
        let mut walked = revtr_telemetry::WordSet::default();
        for f in 0..flushes {
            s.advance_hours(1.0);
            for k in f * window..(f + 1) * window {
                let (p, dst) = dsts[k % dsts.len()];
                s.rr_ping(vp, dst, k as u64);
                walked.insert((p, s.prefix_epoch(p)));
            }
            let held = s.route_cache.len();
            assert!(held <= bound, "flush {f}: {held} tables, bound {bound}");
        }
        assert!(
            walked.len() > bound,
            "vacuous: the pings walked {} keys, bound {bound}",
            walked.len()
        );
    }

    #[test]
    fn the_route_cache_keeps_only_live_keys() {
        let mut cfg = SimConfig::tiny();
        cfg.behavior.churn_per_hour = 0.3;
        let prefixes = Sim::build(cfg.clone(), 5).topo().prefixes.len();
        route_cache_holds_live_keys_only(cfg, 40, prefixes);
    }

    /// The era-2020 soak: an `ondemand-serial` run's worth of virtual
    /// hours at the default churn rate (release, in ci.sh).
    #[test]
    #[ignore]
    fn the_route_cache_keeps_only_live_keys_era_2020() {
        route_cache_holds_live_keys_only(SimConfig::era_2020(), 2_400, 128);
    }

    #[test]
    fn a_walk_pinned_to_a_retired_epoch_leaves_the_cache_alone() {
        let mut cfg = SimConfig::tiny();
        cfg.behavior.churn_per_hour = 1.0; // every prefix steps every flush
        let s = Sim::build(cfg, 3);
        let pe = &s.topo().prefixes[0];
        let dst = s.host_addrs(pe.id).next().expect("hosts");
        let meta = PktMeta::options(Addr(1), 7);
        let e0 = s.prefix_epoch(pe.id);
        let before = s.walk(RouterId(0), dst, &meta).expect("routes");
        s.advance_hours(1.0);
        assert_ne!(s.prefix_epoch(pe.id), e0);
        let (bytes, computes) = (s.route_cache_bytes(), s.route_computes());
        // On a thread of its own (an empty memo) the replay computes the
        // table for itself; on this one, the memo still holds it.
        let elsewhere = std::thread::scope(|scope| {
            scope
                .spawn(|| s.walk_at_epoch(RouterId(0), dst, &meta, Some(e0)))
                .join()
                .expect("no panic")
        });
        let here = s.walk_at_epoch(RouterId(0), dst, &meta, Some(e0));
        for replay in [elsewhere, here] {
            let replay = replay.expect("routes");
            assert_eq!(replay.hops, before.hops);
            assert_eq!(replay.latency_ms.to_bits(), before.latency_ms.to_bits());
        }
        assert_eq!(s.route_cache_bytes(), bytes);
        assert_eq!(s.route_computes(), computes + 1);
    }

    #[test]
    fn a_dropped_sim_leaves_no_table_in_the_dropping_threads_memo() {
        let s = sim();
        let pe = &s.topo().prefixes[0];
        let dst = s.host_addrs(pe.id).next().expect("hosts");
        s.walk(RouterId(0), dst, &PktMeta::plain(Addr(1), 0))
            .expect("routes");
        let held = s.routes(pe.owner, s.prefix_salt(pe.id)).core;
        // The cache's, the memo's, and this one.
        assert_eq!(Arc::strong_count(&held), 3);
        drop(s);
        assert_eq!(Arc::strong_count(&held), 1);
    }

    #[test]
    fn advance_hours_monotonic_and_epochs_grow() {
        let s = sim();
        assert_eq!(s.now_hours(), 0.0);
        s.advance_hours(1.5);
        s.advance_hours(2.5);
        assert!((s.now_hours() - 4.0).abs() < 1e-9);
        // With certainty-churn every prefix bumps.
        let mut cfg = SimConfig::tiny();
        cfg.behavior.churn_per_hour = 1.0;
        let s2 = Sim::build(cfg, 3);
        s2.advance_hours(1.0);
        for p in &s2.topo().prefixes {
            assert_eq!(s2.prefix_epoch(p.id), 1);
        }
    }

    #[test]
    fn border_table_matches_topology_scan() {
        for s in [sim(), Sim::build(SimConfig::era_2020(), 1)] {
            for a in &s.topo().ases {
                for (nbr, nb) in s.topo().neighbors(a.id).iter().enumerate() {
                    assert_eq!(
                        s.borders.toward(s.topo().neighbor_slot(a.id, nbr)),
                        &s.topo().border_routers_toward(a.id, nb.asn)[..]
                    );
                }
            }
        }
    }

    /// AS0: a chain of `chain` routers; AS1: one customer router hanging
    /// off the chain's far end by a /30 numbered from AS0's block — so the
    /// customer-side interface resolves to a `via` destination anchored at
    /// the chain's last router. Every address is the address plan's.
    /// Returns the topology and that interface.
    fn chain_topology(chain: u32) -> (Topology, Addr) {
        use crate::topology::{plan, AsNode, AsTier, Link};
        let edges: Vec<(u32, u32)> = (1..chain).map(|i| (i - 1, i)).collect();
        let mut topo = crate::igp::tests::single_as(chain, &edges);
        let customer = RouterId(chain);
        let block = crate::addr::Prefix::new(Addr::new(11, 1, 0, 0), 16);
        let mut r = topo.routers[0].clone();
        r.id = customer;
        r.asn = AsId(1);
        r.loopback = plan::loopback(block, 0);
        r.private_alias = plan::private_alias(customer);
        topo.routers.push(r);
        // AS0 numbers every link: this one is its `lid`-th.
        let lid = LinkId(topo.links.len() as u32);
        let (near, far) = plan::link(topo.ases[0].block, lid.0);
        topo.links.push(Link {
            id: lid,
            a: RouterId(chain - 1),
            b: customer,
            addr_a: near,
            addr_b: far,
            latency_ms: 2.0,
            kind: LinkKind::Inter,
        });
        topo.ases.push(AsNode {
            id: AsId(1),
            tier: AsTier::Stub,
            block,
            ..topo.ases[0].clone()
        });
        topo.derive_indexes(CHAIN_ADJACENCY);
        (topo, far)
    }

    const CHAIN_ADJACENCY: &[(AsId, AsId, crate::topology::Rel)] =
        &[(AsId(0), AsId(1), crate::topology::Rel::Customer)];

    /// [`chain_topology`] as a simulator.
    fn chain_with_customer(chain: u32) -> (Sim, Addr) {
        let (topo, far) = chain_topology(chain);
        (Sim::from_topology(topo, SimConfig::tiny(), 5), far)
    }

    /// Each router address has one place in the address plan, so a
    /// topology numbered off it — an address of two routers, a loopback
    /// outside /24 #0, a /30 outside its owner's link space — is refused,
    /// not resolved to one of its routers.
    #[test]
    fn a_topology_off_the_address_plan_is_refused() {
        let (s, _) = chain_with_customer(4);
        crate::topology::tests::router_at_matches_the_reference(s.topo());
        /// Renumber the interdomain link (AS0's) as the /30 at `base` in
        /// AS0's block.
        fn move_slash30(t: &mut Topology, base: u32) {
            let block = t.ases[0].block;
            (t.links[3].addr_a, t.links[3].addr_b) = (block.nth(base + 1), block.nth(base + 2));
        }
        let off_plan: [fn(&mut Topology); 4] = [
            // The customer router takes router 0's private alias.
            |t| t.routers[4].private_alias = t.routers[0].private_alias,
            |t| t.routers[2].loopback = t.ases[0].block.nth(256 + 3),
            // AS0's prefix space, then its /24 #0.
            |t| move_slash30(t, 0x8000),
            |t| move_slash30(t, 8),
        ];
        for (i, mistake) in off_plan.into_iter().enumerate() {
            let (mut topo, _) = chain_topology(4);
            mistake(&mut topo);
            topo.derive_indexes(CHAIN_ADJACENCY);
            assert!(!topo.address_plan_holds(), "mistake {i}");
            let build =
                std::panic::AssertUnwindSafe(|| Sim::from_topology(topo, SimConfig::tiny(), 5));
            assert!(std::panic::catch_unwind(build).is_err(), "mistake {i}");
        }
    }

    #[test]
    fn via_delivery_counts_against_the_hop_cap() {
        // MAX_HOPS - 1 chain routers plus the customer router: exactly at
        // the cap, delivered.
        let (s, far) = chain_with_customer(MAX_HOPS as u32 - 1);
        assert!(matches!(
            s.resolve_dest(far),
            Some(Dest::Router { via: Some(_), .. })
        ));
        let meta = PktMeta::plain(far, 0);
        let w = s.walk(RouterId(0), far, &meta).expect("at the cap");
        assert_eq!(w.hops.len(), MAX_HOPS);
        assert_eq!(w.hops.last().expect("nonempty").router, RouterId(63));
        assert_eq!(w.latency_ms, 62.0 + 2.0);
        let mut memo = revtr_telemetry::WordMap::default();
        let (hops, latency) = s
            .walk_reference(&mut memo, RouterId(0), far, &meta, None)
            .expect("at the cap");
        assert_eq!((&w.hops[..], w.latency_ms), (&hops[..], latency));

        // One router more: the customer router would be hop MAX_HOPS + 1.
        // (The walk used to return it, past the promised bound.)
        let (s, far) = chain_with_customer(MAX_HOPS as u32);
        assert!(s.walk(RouterId(0), far, &meta).is_none());
        assert!(s
            .walk_reference(&mut memo, RouterId(0), far, &meta, None)
            .is_none());
        // Starting one router in is back under the cap.
        let w = s.walk(RouterId(1), far, &meta).expect("at the cap");
        assert_eq!(w.hops.len(), MAX_HOPS);
    }

    #[test]
    fn walks_cross_the_hand_built_leaf_cases_as_the_reference_routes() {
        // One router per AS (router id = AS id), so a walk's routers spell
        // its AS path: the neighbour positions the route plane hands
        // `walk_to` select the links the reference's next-hop ASes name,
        // and "no route" — never "next hop is not a neighbour" — is the
        // only reason a walk is dropped.
        let s = Sim::from_topology(bgp::tests::edge_case_graph(), SimConfig::tiny(), 5);
        let mut dropped = 0;
        for dst in s.topo().ases.iter().map(|a| a.id) {
            let addr = s.topo().routers[dst.index()].loopback;
            let reference = bgp::routes_to(s.topo(), dst, s.infra_salt(dst));
            for src in s.topo().ases.iter().map(|a| a.id) {
                let walked = s
                    .walk(RouterId(src.0), addr, &PktMeta::plain(addr, 0))
                    .map(|w| w.hops.iter().map(|h| AsId(h.router.0)).collect::<Vec<_>>());
                assert_eq!(walked, reference.as_path(src), "{src} -> {dst}");
                dropped += usize::from(walked.is_none());
            }
        }
        // AS9 and AS10 reach each other and nobody else, nor anybody them.
        assert_eq!(dropped, 2 * 2 * (s.topo().n_ases() - 2));
    }

    mod differential {
        use super::*;
        use crate::engine::RrTarget;
        use crate::scenario::{ScenarioConfig, ScenarioProfile};
        use proptest::prelude::*;
        use revtr_telemetry::WordMap;
        use std::sync::{Mutex, OnceLock};

        /// A sim after churn, the reference walk's route memo, and the
        /// destination pool walks are drawn from (bounded, so the memo and
        /// the sim's own route cache stay warm across cases).
        struct Arm {
            sim: Sim,
            routes: Mutex<WordMap<(u32, u64), bgp::AsRoutes>>,
            dests: Vec<Addr>,
        }

        fn arm(cfg: SimConfig, seed: u64) -> Arm {
            let sim = Sim::build(cfg, seed);
            sim.advance_hours(100.0);
            sim.advance_hours(100.0);
            let topo = sim.topo();
            let mut dests = Vec::new();
            // Hosts, loopbacks, both interfaces of interdomain links (the
            // far-side ones are `via` destinations), and unroutable space.
            for i in 0..24 {
                let pe = &topo.prefixes[(i * 89) % topo.prefixes.len()];
                dests.push(sim.host_addrs(pe.id).nth(i).expect("hosts"));
                dests.push(topo.routers[(i * 131) % topo.routers.len()].loopback);
            }
            let inter = topo.links.iter().filter(|l| l.kind == LinkKind::Inter);
            for l in inter.step_by(topo.links.len() / 16 + 1) {
                dests.extend([l.addr_a, l.addr_b]);
            }
            dests.push(topo.routers[0].private_alias);
            dests.push(Addr::new(203, 0, 113, 9));
            assert!(dests
                .iter()
                .any(|&d| matches!(sim.resolve_dest(d), Some(Dest::Router { via: Some(_), .. }))));
            Arm {
                sim,
                routes: Mutex::new(WordMap::default()),
                dests,
            }
        }

        fn build_arms() -> Vec<Arm> {
            let mut arms = Vec::new();
            for seed in [1, 7, 42] {
                arms.push(arm(SimConfig::tiny(), seed));
                arms.push(arm(SimConfig::era_2020(), seed));
            }
            let mut maintenance = SimConfig::tiny();
            maintenance.faults.link_maintenance_rate = 0.05;
            arms.push(arm(maintenance, 7));
            let mut dbr = SimConfig::era_2020();
            dbr.scenario = ScenarioConfig::profile(ScenarioProfile::DbrViolationRegion);
            arms.push(arm(dbr, 42));
            arms
        }

        fn arms() -> &'static [Arm] {
            static ARMS: OnceLock<Vec<Arm>> = OnceLock::new();
            ARMS.get_or_init(build_arms)
        }

        /// The same eight arms over again, for the one test that moves
        /// virtual time between its walks: tests run on parallel threads,
        /// and a clock moved under `compiled_walk_matches_reference`'s feet
        /// would part its two walks' live epochs.
        fn moving_arms() -> &'static [Arm] {
            static ARMS: OnceLock<Vec<Arm>> = OnceLock::new();
            ARMS.get_or_init(build_arms)
        }

        /// And once more for `replayed_legs_match_reference`, the other
        /// test that moves the clock.
        fn replay_arms() -> &'static [Arm] {
            static ARMS: OnceLock<Vec<Arm>> = OnceLock::new();
            ARMS.get_or_init(build_arms)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            /// The compiled walk is the interpreted walk: identical hops,
            /// bit-equal latency, same unroutable verdicts.
            #[test]
            fn compiled_walk_matches_reference(
                arm in 0usize..8,
                start in 0usize..1 << 16,
                dest in 0usize..1 << 16,
                with_options in 0u8..2,
                nonce in 0u64..1 << 40,
                flow in 0u16..u16::MAX,
                src in 0usize..1 << 16,
                pin in 0u32..4,
            ) {
                let arm = &arms()[arm];
                let sim = &arm.sim;
                let topo = sim.topo();
                let start = RouterId((start % topo.routers.len()) as u32);
                let dst = arm.dests[dest % arm.dests.len()];
                let src = topo.vp_sites[src % topo.vp_sites.len()].host;
                let meta = if with_options == 1 {
                    PktMeta::options(src, nonce)
                } else {
                    PktMeta::plain(src, flow)
                };
                // Live epoch, or pinned at, before or after it.
                let epoch = match (pin, sim.host_prefix(dst)) {
                    (0, _) | (_, None) => None,
                    (k, Some(p)) => Some((sim.prefix_epoch(p) + k).saturating_sub(2)),
                };
                let compiled = sim.walk_at_epoch(start, dst, &meta, epoch);
                let reference = sim.walk_reference(
                    &mut arm.routes.lock().expect("no test panicked holding it"),
                    start,
                    dst,
                    &meta,
                    epoch,
                );
                match (compiled, reference) {
                    (None, None) => {}
                    (Some(w), Some((hops, latency))) => {
                        prop_assert_eq!(&w.hops[..], &hops[..]);
                        prop_assert_eq!(w.latency_ms.to_bits(), latency.to_bits());
                    }
                    (c, r) => prop_assert!(
                        false,
                        "{start} -> {dst}: compiled {:?}, reference {:?}",
                        c.map(|w| w.hops.len()),
                        r.map(|(h, _)| h.len())
                    ),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1500))]

            /// A sequence of walks lent one tree is the same sequence
            /// walked without one — hops, latency bits, drops — whatever
            /// the order packets of either kind arrive in, from wherever:
            /// mostly toward three hosts of one prefix, which share the
            /// tree's route, now and then toward a destination elsewhere,
            /// which rebinds it, and in mid-sequence across a churn step
            /// that re-rolls every prefix's salt (and moves the
            /// maintenance clock).
            #[test]
            fn lent_walks_match_unlent(
                arm in 0usize..8,
                prefix in 0usize..1 << 16,
                far in 0usize..1 << 16,
                steps in proptest::collection::vec(0u64..u64::MAX, 1..32),
                bump_at in 0usize..32,
            ) {
                let arm = &moving_arms()[arm];
                let sim = &arm.sim;
                let topo = sim.topo();
                let p = topo.prefixes[prefix % topo.prefixes.len()].id;
                let hosts: Vec<Addr> = sim.host_addrs(p).step_by(61).take(3).collect();
                let far = arm.dests[far % arm.dests.len()];
                let mut tree = SinkTree::new(sim);
                for (at, &bits) in steps.iter().enumerate() {
                    if at == bump_at {
                        let epochs = || {
                            [hosts[0], far].map(|d| sim.host_prefix(d).map(|p| sim.prefix_epoch(p)))
                        };
                        let before = epochs();
                        sim.advance_hours(1.0 / sim.config().behavior.churn_per_hour);
                        let after = epochs();
                        prop_assert!(before.iter().zip(&after).all(|(b, a)| b.is_none() || a > b));
                    }
                    let dst = match bits & 7 {
                        0 => far,
                        k => hosts[k as usize % hosts.len()],
                    };
                    let start = RouterId(((bits >> 3) as usize % topo.routers.len()) as u32);
                    let src = topo.vp_sites[(bits >> 20) as usize % topo.vp_sites.len()].host;
                    let meta = if bits >> 28 & 1 == 1 {
                        PktMeta::options(src, bits >> 29)
                    } else {
                        PktMeta::plain(src, (bits >> 29) as u16)
                    };
                    let Some(dest) = sim.resolve_dest(dst) else {
                        prop_assert!(sim.walk(start, dst, &meta).is_none());
                        continue;
                    };
                    let lent = sim.walk_hops(start, dst, &dest, &meta, None, Some(&mut tree));
                    let unlent = sim.walk_at_epoch(start, dst, &meta, None);
                    match (lent, unlent) {
                        (None, None) => {}
                        (Some(l), Some(u)) => {
                            prop_assert_eq!(&l.hops[..], &u.hops[..]);
                            prop_assert_eq!(l.latency_ms.to_bits(), u.latency_ms.to_bits());
                        }
                        (l, u) => prop_assert!(
                            false,
                            "step {at}, {start} -> {dst}: lent {:?}, unlent {:?}",
                            l.map(|w| w.hops.len()),
                            u.map(|w| w.hops.len())
                        ),
                    }
                }
            }
        }

        /// Cells of `tree` holding a route's facts, and those among them
        /// of a router with several candidates.
        fn learned(tree: &SinkTree) -> (usize, usize) {
            let known = tree.cells.iter().filter(|&&c| c != CELL_UNKNOWN);
            let several = known.clone().filter(|&&c| cell_facts(c).1 > 1).count();
            (known.count(), several)
        }

        /// Walks from every VP toward one host of a prefix learn the
        /// route's cells once; walks toward another host of the prefix —
        /// the same route — read them and learn nothing, however the
        /// choices among several candidates fall for that address; a walk
        /// toward another prefix rebinds the tree and starts over.
        #[test]
        fn a_tree_learns_a_route_once_and_forgets_it_on_a_new_route() {
            let sim = &arms()[1].sim;
            let topo = sim.topo();
            let sweep = |tree: &mut SinkTree, dst: Addr| {
                let dest = sim.resolve_dest(dst).expect("a host");
                for (i, v) in topo.vp_sites.iter().enumerate() {
                    let start = sim.host_attach(v.host).expect("vp host");
                    let meta = match i % 2 {
                        0 => PktMeta::options(v.host, u64::from(v.host.0)),
                        _ => PktMeta::plain(v.host, i as u16),
                    };
                    let lent = sim.walk_hops(start, dst, &dest, &meta, None, Some(&mut *tree));
                    let unlent = sim.walk_at_epoch(start, dst, &meta, None);
                    assert_eq!(lent.map(|w| w.hops), unlent.map(|w| w.hops));
                }
            };
            let mut hosts = sim.host_addrs(topo.prefixes[40].id);
            let (dst, other) = (hosts.next().expect("hosts"), hosts.nth(17).expect("hosts"));
            let mut tree = SinkTree::new(sim);
            sweep(&mut tree, dst);
            let first = learned(&tree);
            // Paths from 146 VPs to one host share their last hops: far
            // fewer cells than hops walked, some with several candidates.
            assert!(first.0 > 20 && first.1 > 0, "{first:?}");
            sweep(&mut tree, dst);
            assert_eq!(learned(&tree), first, "a second pass learned something");
            sweep(&mut tree, other);
            assert_eq!(
                learned(&tree),
                first,
                "another host of the route learned something"
            );
            // Another prefix is another route.
            let far = sim.host_addrs(topo.prefixes[41].id).next().expect("hosts");
            let start = sim.host_attach(topo.vp_sites[0].host).expect("vp host");
            let meta = PktMeta::plain(topo.vp_sites[0].host, 0);
            let dest = sim.resolve_dest(far).expect("a host");
            let w = sim.walk_hops(start, far, &dest, &meta, None, Some(&mut tree));
            assert!(learned(&tree).0 < w.expect("routable").hops.len());
        }

        #[test]
        fn a_region_router_met_by_a_plain_packet_first_keeps_route_facts_only() {
            // Find a `dbr_region` router — neither balancer nor violator,
            // so only the region rule sets it apart — where an option
            // packet leaves by another link than a plain one does.
            let sim = &arms()[7].sim;
            let topo = sim.topo();
            let mut found = 0;
            for pe in topo.prefixes.iter().step_by(37) {
                let dst = sim.host_addrs(pe.id).next().expect("hosts");
                let dest = sim.resolve_dest(dst).expect("a host");
                for v in topo.vp_sites.iter().take(24) {
                    let start = sim.host_attach(v.host).expect("vp host");
                    let plain = PktMeta::plain(v.host, 0);
                    let option = PktMeta::options(v.host, 9);
                    let (Some(p), Some(o)) =
                        (sim.walk(start, dst, &plain), sim.walk(start, dst, &option))
                    else {
                        continue;
                    };
                    let Some((fork, _)) = p
                        .hops
                        .iter()
                        .zip(o.hops.iter())
                        .find(|(a, b)| a.out_link != b.out_link)
                    else {
                        continue;
                    };
                    let router = fork.router;
                    let r = topo.router(router);
                    if r.load_balancer
                        || sim.behavior().violates_dbr(router, pe.id)
                        || !sim.scenario().dbr_region(topo.router_as(router))
                    {
                        continue;
                    }
                    found += 1;
                    // The plain packet goes first and teaches the tree the
                    // router's candidates...
                    let mut tree = SinkTree::new(sim);
                    let lent = sim.walk_hops(start, dst, &dest, &plain, None, Some(&mut tree));
                    assert_eq!(lent.expect("walked above").hops[..], p.hops[..]);
                    let (first, n) = cell_facts(tree.cells[router.index()]);
                    assert!(n > 1, "{router} toward {dst}: {n} candidates");
                    let links = topo.router_links(router);
                    assert!(
                        links.contains(&first)
                            && links.contains(&fork.out_link.expect("forwarded"))
                    );
                    // ...never its pick: the option packet picks its own.
                    let lent = sim.walk_hops(start, dst, &dest, &option, None, Some(&mut tree));
                    assert_eq!(lent.expect("walked above").hops[..], o.hops[..]);
                }
            }
            assert!(
                found >= 3,
                "{found} forks at plain region routers: the test is vacuous"
            );
        }

        #[test]
        fn the_arms_exercise_what_they_claim() {
            let arms = arms();
            // Churn moved some prefix off epoch 0 in every arm.
            for a in arms {
                let topo = a.sim.topo();
                assert!(topo.prefixes.iter().any(|p| a.sim.prefix_epoch(p.id) > 0));
            }
            assert!(arms[6].sim.faults().links_enabled());
            let dbr = &arms[7].sim;
            assert!(dbr
                .topo()
                .ases
                .iter()
                .any(|a| dbr.scenario().dbr_region(a.id)));
        }

        /// Address `i` of the arm's pool: mostly destinations of
        /// `arm.dests` (`vp_first`: mostly VP hosts), else the other kind.
        fn pick(arm: &Arm, i: usize, vp_first: bool) -> Addr {
            let vps = &arm.sim.topo().vp_sites;
            if i.is_multiple_of(4) != vp_first {
                vps[i / 4 % vps.len()].host
            } else {
                arm.dests[i / 4 % arm.dests.len()]
            }
        }

        /// A churn epoch for routing toward `addr`'s prefix: live (`k` = 0,
        /// or no host), else pinned at, before or after the live one.
        fn pin(sim: &Sim, k: u32, addr: Addr) -> Option<u32> {
            match (k, sim.host_prefix(addr)) {
                (0, _) | (_, None) => None,
                (k, Some(p)) => Some((sim.prefix_epoch(p) + k).saturating_sub(2)),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2000))]

            /// The Record Route exchange whose legs stamp as they walk is
            /// the exchange that walks each leg whole and stamps it after
            /// (`rr_exchange_reference`): equal slots, equal reply mark,
            /// round trip to the bit, the same unanswered probes — sent by
            /// VP hosts or by other addresses, claiming their own source or
            /// another, toward hosts, VP hosts, router addresses and `via`
            /// interfaces, with each leg's epoch live or pinned. Both
            /// hosts and the destinations are resolved once
            /// (`Sim::endpoint`, `Sim::rr_target`), as a survey resolves
            /// its VPs and targets: the claimed source, resolved once,
            /// receives the spoofed exchange toward each of two
            /// destinations and sends one of its own toward each.
            #[test]
            fn rr_exchange_matches_reference(
                arm in 0usize..8,
                sender in 0usize..1 << 16,
                claimed in 0usize..1 << 16,
                dest in 0usize..1 << 16,
                dest2 in 0usize..1 << 16,
                nonce in 0u64..1 << 40,
                fwd_pin in 0u32..4,
                rep_pin in 0u32..4,
            ) {
                let arm = &arms()[arm];
                let sim = &arm.sim;
                let sender = pick(arm, sender, true);
                let claimed = if claimed % 3 == 0 { sender } else { pick(arm, claimed, true) };
                let ends = [sim.endpoint(sender), sim.endpoint(claimed)];
                prop_assert_eq!(ends.map(|e| e.addr()), [sender, claimed]);
                for dst in [dest, dest2].map(|d| pick(arm, d, false)) {
                    let vp_dest = sim.resolve_dest(dst).is_some_and(|d| sim.is_vp_dest(&d, dst));
                    prop_assert_eq!(vp_dest, sim.is_vp_host(dst));
                    let epochs = [pin(sim, fwd_pin, dst), pin(sim, rep_pin, claimed)];
                    let target = sim.rr_target(dst);
                    prop_assert_eq!(target.addr(), dst);
                    for [s, c] in [[0, 1], [1, 1]] {
                        let pair = [&ends[s], &ends[c]];
                        let got = sim.rr_exchange(pair, &target, true, nonce, epochs, [None, None]);
                        let (sender, claimed) = (ends[s].addr(), ends[c].addr());
                        let want = sim.rr_exchange_reference(sender, claimed, dst, nonce, epochs);
                        match (got, want) {
                            (None, None) => {}
                            (Some((slots, mark, rtt)), Some((want_slots, want_mark, want_rtt))) => {
                                prop_assert_eq!(&slots[..], &want_slots[..]);
                                prop_assert_eq!(mark, want_mark);
                                prop_assert_eq!(rtt.to_bits(), want_rtt.to_bits());
                            }
                            (got, want) => prop_assert!(
                                false,
                                "{sender} as {claimed} -> {dst}: {got:?}, reference {want:?}"
                            ),
                        }
                    }
                }
            }
        }

        /// Host `i` of prefix `p`, counted among those that answer RR when
        /// the prefix has any.
        fn rr_host(sim: &Sim, p: PrefixId, i: usize) -> Addr {
            let answering = || {
                sim.host_addrs(p)
                    .filter(|&a| sim.behavior().host_rr_responsive(a))
            };
            match answering().count() {
                0 => sim.host_addrs(p).nth(i % 241).expect("241 hosts"),
                n => answering().nth(i % n).expect("index below the count"),
            }
        }

        /// Up to two VPs of the prefix VP `i` of `sim` lives in, `i`'s
        /// first: one route back, one reply tree.
        fn with_sibling(sim: &Sim, i: usize) -> impl Iterator<Item = Addr> + '_ {
            let vps = &sim.topo().vp_sites;
            let vp = vps[i % vps.len()].host;
            let home = sim.host_prefix(vp);
            let sibling = vps
                .iter()
                .map(|v| v.host)
                .find(move |&h| h != vp && sim.host_prefix(h) == home);
            std::iter::once(vp).chain(sibling)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1000))]

            /// A small survey: VPs — each drawn with another VP of its
            /// prefix, where it has one, and resolved once — ping hosts of
            /// one prefix in turn, visited route by route, each exchange a
            /// Record Route or a plain echo as drawn, both through
            /// `Sim::rr_exchange`. Every forward leg is lent the one tree
            /// toward the prefix and every reply leg its VP's route's
            /// tree, which remembers the last legs for later exchanges to
            /// replay. Every exchange is the reference's — slots, reply
            /// mark and rtt bits of `rr_exchange_reference`, rtt bits of
            /// `ping_reference` — whether it replays a leg or must not:
            /// across a churn step between two pings, through
            /// `dbr_region` routers, under link maintenance.
            #[test]
            fn replayed_legs_match_reference(
                arm in 0usize..8,
                prefix in 0usize..1 << 16,
                hosts in proptest::collection::vec(0usize..1 << 16, 1..4),
                vps in proptest::collection::vec(0usize..1 << 16, 1..4),
                kinds in 0u64..u64::MAX,
                nonce in 0u64..1 << 40,
                churn_at in 0usize..16,
            ) {
                let arm = &replay_arms()[arm];
                let sim = &arm.sim;
                let topo = sim.topo();
                let p = topo.prefixes[prefix % topo.prefixes.len()].id;
                let dsts: Vec<Addr> = hosts.iter().map(|&i| rr_host(sim, p, i)).collect();
                // Resolved once, as a survey resolves its destinations.
                let targets: Vec<RrTarget> = dsts.iter().map(|&d| sim.rr_target(d)).collect();
                let mut vps: Vec<Addr> = vps.iter().flat_map(|&i| with_sibling(sim, i)).collect();
                // Route by route; a VP drawn twice pings again.
                vps.sort_by_key(|&vp| sim.tree_key(vp));
                let mut forward = SinkTree::new(sim);
                let mut reply: Vec<(Option<TreeKey>, SinkTree)> = Vec::new();
                let mut sent = 0;
                for &src in &vps {
                    let route = sim.tree_key(src);
                    if reply.last().is_none_or(|(r, _)| *r != route) {
                        reply.push((route, SinkTree::new(sim)));
                    }
                    let tree = &mut reply.last_mut().expect("pushed above").1;
                    let host = sim.endpoint(src);
                    for (&dst, target) in dsts.iter().zip(&targets) {
                        if sent == churn_at {
                            sim.advance_hours(1.0 / sim.config().behavior.churn_per_hour);
                        }
                        let plain = kinds >> (sent % 64) & 1 == 1;
                        sent += 1;
                        let nonce = nonce + sent as u64;
                        if plain {
                            let got = sim.ping_lent(&host, dst, Some(&mut forward), Some(&mut *tree));
                            let want = sim.ping_reference(src, dst);
                            prop_assert_eq!(got.map(|r| r.rtt_ms.to_bits()), want.map(|r| r.rtt_ms.to_bits()));
                            continue;
                        }
                        let trees = [Some(&mut forward), Some(&mut *tree)];
                        let got = sim.rr_exchange([&host; 2], target, true, nonce, [None, None], trees);
                        let want = sim.rr_exchange_reference(src, src, dst, nonce, [None, None]);
                        match (got, want) {
                            (None, None) => {}
                            (Some((slots, mark, rtt)), Some((want_slots, want_mark, want_rtt))) => {
                                prop_assert!(slots == want_slots, "{src} -> {dst}: {slots:?}, reference {want_slots:?}");
                                prop_assert_eq!(mark, want_mark);
                                prop_assert_eq!(rtt.to_bits(), want_rtt.to_bits());
                            }
                            (got, want) => prop_assert!(
                                false,
                                "{src} -> {dst}: {got:?}, reference {want:?}"
                            ),
                        }
                    }
                }
            }
        }

        /// What `replayed_legs_match_reference` claims to cover occurs: a
        /// second forward leg replayed (the fresh tree lent to it left
        /// unbound), reply legs remembered, forward legs remembered for
        /// their address alone after a choice among several candidates,
        /// and nothing remembered under link maintenance.
        #[test]
        fn replayed_legs_hit_and_miss() {
            let mut seen = [0usize; 4];
            for (i, arm) in arms().iter().enumerate() {
                let sim = &arm.sim;
                let topo = sim.topo();
                for pe in topo.prefixes.iter().step_by(topo.prefixes.len() / 12 + 1) {
                    let dsts = [rr_host(sim, pe.id, 0), rr_host(sim, pe.id, 1)];
                    for v in topo.vp_sites.iter().step_by(7).take(6) {
                        let mut forward = [SinkTree::new(sim), SinkTree::new(sim)];
                        let mut reply = SinkTree::new(sim);
                        let ping = |k: usize, forward: &mut SinkTree, reply: &mut SinkTree| {
                            let trees = [Some(forward), Some(reply)];
                            let (host, target) = (sim.endpoint(v.host), sim.rr_target(dsts[k]));
                            sim.rr_exchange(
                                [&host; 2],
                                &target,
                                true,
                                k as u64,
                                [None, None],
                                trees,
                            )
                        };
                        if ping(0, &mut forward[0], &mut reply).is_none() {
                            continue;
                        }
                        let [fwd, rep] = reply.legs.map(|l| l[0]);
                        if i == 6 {
                            seen[3] += usize::from(fwd.is_some() || rep.is_some());
                            continue;
                        }
                        seen[1] += usize::from(fwd.is_some_and(|m| m.replays_only(dsts[0])));
                        seen[2] += usize::from(rep.is_some());
                        if ping(1, &mut forward[1], &mut reply).is_some() {
                            seen[0] += usize::from(forward[1].bound.is_none());
                        }
                    }
                }
            }
            let [hits, several, replies, maintained] = seen;
            assert!(hits > 0 && several > 0 && replies > 0, "{seen:?}");
            assert_eq!(maintained, 0, "a leg remembered under link maintenance");
        }

        /// Route-keyed trees act across addresses: a VP's forward leg to a
        /// prefix's second host replays the leg to its first (the fresh
        /// tree lent to it left unbound); a VP's reply leg replays the one
        /// another VP of its prefix left in their route's tree (a fresh
        /// tree holding those memos left unbound); and a tree learned
        /// toward one host is read, learning nothing, toward another.
        #[test]
        fn route_trees_replay_and_read_across_addresses() {
            let mut seen = [0usize; 3];
            for arm in &arms()[..6] {
                let sim = &arm.sim;
                let topo = sim.topo();
                for pe in topo.prefixes.iter().step_by(topo.prefixes.len() / 12 + 1) {
                    let dsts = [rr_host(sim, pe.id, 0), rr_host(sim, pe.id, 1)];
                    for i in (0..topo.vp_sites.len()).step_by(5).take(8) {
                        let pair: Vec<Addr> = with_sibling(sim, i).collect();
                        let exchange =
                            |vp: Addr, k: usize, forward: &mut SinkTree, reply: &mut SinkTree| {
                                let trees = [Some(forward), Some(reply)];
                                let (host, target) = (sim.endpoint(vp), sim.rr_target(dsts[k]));
                                sim.rr_exchange(
                                    [&host; 2],
                                    &target,
                                    true,
                                    k as u64,
                                    [None, None],
                                    trees,
                                )
                            };
                        let (mut forward, mut reply) = (SinkTree::new(sim), SinkTree::new(sim));
                        if exchange(pair[0], 0, &mut forward, &mut reply).is_none() {
                            continue;
                        }
                        // The second host, through a fresh forward tree.
                        let mut fresh = SinkTree::new(sim);
                        if dsts[1] != dsts[0]
                            && exchange(pair[0], 1, &mut fresh, &mut reply).is_some()
                        {
                            seen[0] += usize::from(fresh.bound.is_none());
                        }
                        // The sibling's reply, through a fresh reply tree
                        // holding the route's memos.
                        if let Some(&sibling) = pair.get(1) {
                            let mut held = SinkTree::new(sim);
                            held.legs = reply.legs;
                            let mut fresh = SinkTree::new(sim);
                            if exchange(sibling, 0, &mut fresh, &mut held).is_some() {
                                seen[1] += usize::from(held.bound.is_none());
                            }
                        }
                        // The tree walked toward host 0 read toward host 1.
                        let before = learned(&forward);
                        let start = sim.host_attach(pair[0]).expect("a VP host");
                        let dest = sim.resolve_dest(dsts[1]).expect("a host");
                        let meta = PktMeta::options(pair[0], 7);
                        let lent =
                            sim.walk_hops(start, dsts[1], &dest, &meta, None, Some(&mut forward));
                        let unlent = sim.walk(start, dsts[1], &meta);
                        assert_eq!(lent.map(|w| w.hops), unlent.map(|w| w.hops));
                        seen[2] += usize::from(dsts[1] != dsts[0] && learned(&forward) == before);
                    }
                }
            }
            assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        }

        /// What `rr_exchange_matches_reference` draws from answers in every
        /// case it claims: host, router, `via` and VP-host destinations,
        /// spoofed sources, a full nine slots, and forward legs crossing
        /// LSP-interior hops.
        #[test]
        fn the_rr_exchange_arms_reach_every_case() {
            let mut seen = [0usize; 7];
            for arm in arms() {
                let sim = &arm.sim;
                let vps = &sim.topo().vp_sites;
                let vp_dsts = vps.iter().take(4).map(|v| v.host);
                for (i, dst) in arm.dests.iter().copied().chain(vp_dsts).enumerate() {
                    let sender = vps[i % vps.len()].host;
                    for claimed in [sender, vps[(i + 1) % vps.len()].host] {
                        let nonce = i as u64;
                        let ends = [&sim.endpoint(sender), &sim.endpoint(claimed)];
                        let target = sim.rr_target(dst);
                        let Some((slots, ..)) =
                            sim.rr_exchange(ends, &target, true, nonce, [None, None], [None, None])
                        else {
                            continue;
                        };
                        let case = match sim.resolve_dest(dst) {
                            Some(Dest::Host { .. }) if sim.is_vp_host(dst) => 3,
                            Some(Dest::Host { .. }) => 0,
                            Some(Dest::Router { via: None, .. }) => 1,
                            _ => 2,
                        };
                        seen[case] += 1;
                        seen[4] += usize::from(claimed != sender);
                        seen[5] += usize::from(slots.is_full());
                        let attach = sim.host_attach(sender).expect("a VP host");
                        let fwd = sim.walk(attach, dst, &PktMeta::options(claimed, nonce));
                        let hidden = fwd.is_some_and(|w| w.hops.iter().any(|h| sim.mpls_hidden(h)));
                        seen[6] += usize::from(hidden);
                    }
                }
            }
            assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        }
    }
}
