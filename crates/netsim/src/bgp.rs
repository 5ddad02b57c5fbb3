//! Interdomain routing: Gao–Rexford valley-free route computation.
//!
//! For a given destination AS we compute, for every other AS, its chosen
//! next-hop AS under the standard policy model:
//!
//! 1. prefer **customer** routes over **peer** routes over **provider**
//!    routes (economics),
//! 2. among routes of the same class, prefer the shortest AS path,
//! 3. break remaining ties with a deterministic per-destination hash
//!    (standing in for IGP/MED/router-id tie-breaking).
//!
//! Because the tie-break is independent per destination, routing in the two
//! directions of a pair is decided independently — which is exactly what
//! produces realistic path asymmetry (paper §6.2).
//!
//! Export rules are honoured by construction: customer routes propagate
//! everywhere, peer/provider routes propagate only to customers.

use crate::hash::{chance, mix2, mix64};
use crate::ids::AsId;
use crate::topology::{Rel, Topology};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Fraction of (AS, destination) decisions that follow the AS's canonical
/// (salt-independent) neighbor preference instead of a per-destination
/// tie-break. Real networks prefer the same neighbors in both directions
/// most of the time (local-pref toward the big/cheap transit), which is why
/// most last links are traversed symmetrically while a substantial minority
/// of paths still diverge per destination (§4.4, §6.2).
pub const CANONICAL_PREF_RATE: f64 = 0.85;

/// Probability, per (AS, neighbor, routing epoch), that the edge carries a
/// transient penalty (maintenance, damping, de-preferencing) making routes
/// through it longer. Because the penalty is keyed by the churn epoch,
/// bumping a prefix's epoch genuinely *changes chosen routes* — the
/// mechanism behind path drift over days (Fig. 9d, Insight 1.4).
pub const EDGE_PENALTY_RATE: f64 = 0.02;

/// Extra metric added by a penalised edge.
const EDGE_PENALTY: u16 = 2;

/// Route class, ordered by preference (lower = preferred).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouteClass {
    /// Learned from a customer (or self).
    Customer = 0,
    /// Learned from a peer.
    Peer = 1,
    /// Learned from a provider.
    Provider = 2,
}

/// Salted hashes of one `(destination, salt)`: the tie-break between equal
/// routes and the transient edge penalties.
#[derive(Clone, Copy)]
struct Salt(u64);

impl Salt {
    /// Preference of `me` for a route via `cand` (lower wins).
    fn tie(self, me: AsId, cand: AsId) -> u64 {
        if chance(mix2(self.0 ^ 0xca70, me.0 as u64), CANONICAL_PREF_RATE) {
            // Canonical preference: a *globally aligned* ordering (lower
            // AS id ≈ the larger, better-connected, cheaper network).
            // Because every AS shares this ordering, the deciders on the
            // two sides of a path usually pick the same corridor — the
            // economics that make most last links symmetric in practice.
            cand.0 as u64
        } else {
            mix64(self.0 ^ ((me.0 as u64) << 32) ^ cand.0 as u64)
        }
    }

    /// Edge weight toward `me` when adopting a route via `via`.
    fn weight(self, me: AsId, via: AsId) -> u16 {
        if chance(
            mix64(self.0 ^ 0xed9e ^ ((me.0 as u64) << 32) ^ via.0 as u64),
            EDGE_PENALTY_RATE,
        ) {
            1 + EDGE_PENALTY
        } else {
            1
        }
    }
}

/// Metric of an AS without a route.
const UNREACHABLE: u16 = u16::MAX;
/// Next-hop position of the destination itself and of ASes without a route.
const NO_HOP: u16 = u16::MAX;
/// Core index of an AS without customers.
const LEAF: u32 = u32::MAX;

/// One neighbour of an AS, as the route stages read it.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// The neighbour.
    asn: AsId,
    /// Its core index, [`LEAF`] if it has no customers.
    core: u32,
    /// Its position in the owning AS's [`AsNode::neighbors`].
    ///
    /// [`AsNode::neighbors`]: crate::topology::AsNode::neighbors
    pos: u16,
    /// The owning AS's position in the neighbour's `neighbors`.
    back: u16,
}

/// The route of one core AS toward one `(destination, salt)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cell {
    dist: u16,
    /// Position of the next-hop AS in this AS's `neighbors`, or [`NO_HOP`].
    hop: u16,
    class: RouteClass,
}

impl Cell {
    const NONE: Cell = Cell {
        dist: UNREACHABLE,
        hop: NO_HOP,
        class: RouteClass::Provider,
    };
}

/// Pending adoption in stages 1 and 3, ordered as the heap settles them:
/// (metric, tie, AS, via AS, position of via in AS's `neighbors`). An
/// (AS, via) pair is pushed at most once per stage, so the last field never
/// decides the order.
type Pending = Reverse<(u16, u64, u32, u32, u16)>;

#[derive(Default)]
struct Scratch {
    heap: BinaryHeap<Pending>,
    cells: Vec<Cell>,
}

thread_local! {
    /// Working memory of [`RoutePlan::fill`], reused by every fill a thread
    /// runs: a fill allocates only the table it returns.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Every AS's neighbours of one relationship: runs of [`Edge`]s back to
/// back, each in `neighbors` order.
#[derive(Debug, Default)]
struct Runs {
    /// AS index → start of its run in `edges` (one trailing entry).
    start: Vec<u32>,
    edges: Vec<Edge>,
}

/// The salt-independent half of the route plane, built once per topology.
///
/// The *core* is every AS with at least one customer. An AS without
/// customers exports its routes to no one (peer and provider routes go to
/// customers only, and it has none; customer routes would go to everyone,
/// but the only one it can hold is the route to itself), so the core's
/// routes toward any destination are closed under the three stages:
/// [`RoutePlan::fill`] computes them without looking at a leaf, and a
/// leaf's own route is a pure function of its peers' and providers'
/// entries, resolved on lookup ([`Routes::route`]).
#[derive(Debug)]
pub struct RoutePlan {
    /// AS index → core index, [`LEAF`] for an AS without customers.
    core_of: Box<[u32]>,
    /// Core index → AS.
    core: Box<[AsId]>,
    /// Providers, peers and *core* customers, indexed by [`RoutePlan::kind`].
    runs: [Runs; 3],
}

impl RoutePlan {
    /// Where a relationship's runs live in `runs`.
    fn kind(rel: Rel) -> usize {
        match rel {
            Rel::Provider => 0,
            Rel::Peer => 1,
            Rel::Customer => 2,
        }
    }

    /// Compile the AS graph of `topo`. Core membership is read off the
    /// edges, never off [`crate::topology::AsTier`].
    pub fn build(topo: &Topology) -> RoutePlan {
        let mut core = Vec::new();
        let core_of: Box<[u32]> = topo
            .ases
            .iter()
            .map(|a| {
                if !a.has_customers() {
                    return LEAF;
                }
                core.push(a.id);
                (core.len() - 1) as u32
            })
            .collect();
        let position = |p: usize| {
            assert!(p < NO_HOP as usize, "too many neighbours for a u16 cell");
            p as u16
        };
        let mut runs: [Runs; 3] = Default::default();
        // ASes and their `neighbors` are both in id order, so the n-th time
        // an AS is met as a neighbour, the AS meeting it sits at position n
        // of its own `neighbors`.
        let mut met = vec![0usize; topo.ases.len()];
        for a in &topo.ases {
            for r in &mut runs {
                r.start.push(r.edges.len() as u32);
            }
            for (pos, nb) in a.neighbors.iter().enumerate() {
                let back = met[nb.asn.index()];
                met[nb.asn.index()] += 1;
                debug_assert!(
                    (topo.asn(nb.asn).neighbors.get(back))
                        .is_some_and(|m| m.asn == a.id && m.rel == nb.rel.flip()),
                    "the {}–{} adjacency is not mirrored, or out of id order",
                    a.id,
                    nb.asn
                );
                let core = core_of[nb.asn.index()];
                if nb.rel == Rel::Customer && core == LEAF {
                    continue; // resolved on lookup, never offered a route
                }
                runs[Self::kind(nb.rel)].edges.push(Edge {
                    asn: nb.asn,
                    core,
                    pos: position(pos),
                    back: position(back),
                });
            }
        }
        for r in &mut runs {
            r.start.push(r.edges.len() as u32);
        }
        RoutePlan {
            core_of,
            core: core.into(),
            runs,
        }
    }

    /// Bytes of the plan itself.
    pub fn bytes(&self) -> u64 {
        use std::mem::size_of_val;
        let runs = self.runs.iter();
        let runs = runs.map(|r| size_of_val(&*r.start) + size_of_val(&*r.edges));
        (size_of_val(&*self.core_of) + size_of_val(&*self.core) + runs.sum::<usize>()) as u64
    }

    /// Bytes of one table [`RoutePlan::fill`] returns: the shared slice's
    /// two reference counts and a cell per core AS.
    pub fn table_bytes(&self) -> u64 {
        use std::mem::size_of;
        (2 * size_of::<usize>() + self.core.len() * size_of::<Cell>()) as u64
    }

    /// `asn`'s neighbours of one relationship (core ones only for
    /// customers).
    fn run(&self, asn: AsId, rel: Rel) -> &[Edge] {
        let r = &self.runs[Self::kind(rel)];
        let i = asn.index();
        &r.edges[r.start[i] as usize..r.start[i + 1] as usize]
    }

    /// The cell of `asn`, if it is core.
    fn cell<'c>(&self, cells: &'c [Cell], asn: AsId) -> Option<&'c Cell> {
        cells.get(self.core_of[asn.index()] as usize)
    }

    /// The route `x` prefers among `candidates` — (metric at the neighbour,
    /// the neighbour) — as (metric, the neighbour's position): the least
    /// (metric, tie, neighbour). Runs are in id order, so among equals the
    /// first wins, which is how a scan with a strict comparison chooses too.
    fn best<'e>(
        salt: Salt,
        x: AsId,
        candidates: impl Iterator<Item = (u16, &'e Edge)>,
    ) -> Option<(u16, u16)> {
        let mut best: Option<(u16, &Edge)> = None;
        for (at, e) in candidates {
            let d = at + salt.weight(x, e.asn);
            let better = best.is_none_or(|(bd, be)| {
                d < bd || (d == bd && (salt.tie(x, e.asn), e.asn) < (salt.tie(x, be.asn), be.asn))
            });
            if better {
                best = Some((d, e));
            }
        }
        best.map(|(d, e)| (d, e.pos))
    }

    /// Stage 2 for one AS: its best route via a peer that is `dst` or
    /// holds a customer route.
    fn via_peer(&self, cells: &[Cell], dst: AsId, salt: Salt, x: AsId) -> Option<(u16, u16)> {
        let peers = self.run(x, Rel::Peer).iter();
        let routed = peers.filter_map(|e| match cells.get(e.core as usize) {
            _ if e.asn == dst => Some((0, e)),
            Some(y) if y.dist != UNREACHABLE && y.class == RouteClass::Customer => {
                Some((y.dist, e))
            }
            _ => None,
        });
        Self::best(salt, x, routed)
    }

    /// Stage 3 for one leaf: the provider route the downhill expansion
    /// would settle it on — the least (metric, tie, provider) over its
    /// routed providers. Edge weights are positive, so every provider that
    /// gets a route at all settles before any offer it makes to `x` could
    /// be popped.
    fn via_provider(&self, cells: &[Cell], salt: Salt, x: AsId) -> Option<(u16, u16)> {
        let providers = self.run(x, Rel::Provider).iter();
        let routed = providers.map(|e| (cells[e.core as usize].dist, e));
        Self::best(salt, x, routed.filter(|&(at, _)| at != UNREACHABLE))
    }

    /// `from`, routed at metric `dist`, offers that route to its unrouted
    /// core neighbours of relationship `to`.
    fn offer(&self, s: &mut Scratch, salt: Salt, from: AsId, dist: u16, to: Rel) {
        for e in self.run(from, to) {
            if s.cells[e.core as usize].dist == UNREACHABLE {
                let d = dist + salt.weight(e.asn, from);
                let tie = salt.tie(e.asn, from);
                s.heap.push(Reverse((d, tie, e.asn.0, from.0, e.back)));
            }
        }
    }

    /// Dijkstra over the pending offers: each AS settles on the least one
    /// made to it, as a route of `class`, and offers it on to its `to`
    /// neighbours.
    fn settle(&self, s: &mut Scratch, salt: Salt, class: RouteClass, to: Rel) {
        while let Some(Reverse((dist, _, x, _, hop))) = s.heap.pop() {
            let c = &mut s.cells[self.core_of[x as usize] as usize];
            if c.dist != UNREACHABLE {
                continue; // already settled (shorter or better-hashed)
            }
            *c = Cell { dist, hop, class };
            self.offer(s, salt, AsId(x), dist, to);
        }
    }

    /// The core's routes toward `dst` under `salt`: the three stages of the
    /// policy model, run over core ∪ {`dst`}.
    ///
    /// `salt` seeds the tie-break and edge-penalty hashes; different salts
    /// model different destinations (prefixes) inside the same AS and
    /// different churn epochs.
    pub(crate) fn fill(&self, dst: AsId, salt: u64) -> Arc<[Cell]> {
        let salt = Salt(salt);
        SCRATCH.with_borrow_mut(|s| {
            s.heap.clear();
            s.cells.clear();
            s.cells.resize(self.core.len(), Cell::NONE);
            if let Some(c) = s.cells.get_mut(self.core_of[dst.index()] as usize) {
                c.dist = 0;
                c.class = RouteClass::Customer;
            }

            // Stage 1: customer routes, Dijkstra "uphill" from dst: an AS x
            // obtains a customer route via neighbor c (x's customer) if c
            // is dst or c has a customer route. The heap settles each AS on
            // its best (metric, tie) candidate; edge penalties make the
            // metric differ from hop count. A provider has a customer, so
            // every AS settled here is core.
            self.offer(s, salt, dst, 0, Rel::Provider);
            self.settle(s, salt, RouteClass::Customer, Rel::Provider);

            // Stage 2: peer routes, for ASes without a customer route. x
            // may use peer y iff y is dst or y holds a customer route — so
            // a peer route adopted here (class `Peer`) is never itself a
            // candidate, and the updates can be applied as they are found.
            for (ci, &x) in self.core.iter().enumerate() {
                if s.cells[ci].dist != UNREACHABLE {
                    continue;
                }
                if let Some((dist, hop)) = self.via_peer(&s.cells, dst, salt, x) {
                    let class = RouteClass::Peer;
                    s.cells[ci] = Cell { dist, hop, class };
                }
            }

            // Stage 3: provider routes, propagated downhill with a
            // Dijkstra-style expansion (initial distances vary). Seed:
            // every AS that already has a route can export it to customers
            // (a leaf `dst` has none). Leaf customers resolve on lookup.
            for (ci, &p) in self.core.iter().enumerate() {
                let dist = s.cells[ci].dist;
                if dist != UNREACHABLE {
                    self.offer(s, salt, p, dist, Rel::Customer);
                }
            }
            self.settle(s, salt, RouteClass::Provider, Rel::Customer);

            Arc::from(&s.cells[..])
        })
    }

    /// The route `asn` chose toward `dst` under `salt`, read through
    /// `core` — the table [`RoutePlan::fill`] made for that pair — `None`
    /// if it has none. A core AS reads its cell; a leaf runs stage 2, then
    /// stage 3, for itself alone.
    pub(crate) fn route(&self, core: &[Cell], dst: AsId, salt: u64, asn: AsId) -> Option<Route> {
        let (dist, hop, class) = if asn == dst {
            (0, NO_HOP, RouteClass::Customer)
        } else if let Some(c) = self.cell(core, asn) {
            (c.dist, c.hop, c.class)
        } else {
            let salt = Salt(salt);
            if let Some((d, hop)) = self.via_peer(core, dst, salt, asn) {
                (d, hop, RouteClass::Peer)
            } else {
                let (d, hop) = self.via_provider(core, salt, asn)?;
                (d, hop, RouteClass::Provider)
            }
        };
        (dist != UNREACHABLE).then_some(Route {
            dist,
            class,
            hop: (hop != NO_HOP).then_some(hop as usize),
        })
    }
}

/// The chosen route of one AS toward a destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// Route metric (AS-level hops plus transient edge penalties); 0 at the
    /// destination.
    pub dist: u16,
    /// How the route was learned.
    pub class: RouteClass,
    /// Position of the next-hop AS in this AS's `neighbors`; `None` at the
    /// destination.
    pub hop: Option<usize>,
}

/// Routes of every AS toward one `(destination AS, salt)`: the
/// destination's core table read through the shared [`RoutePlan`]. This is
/// what [`crate::sim::Sim::routes`] hands out; the table is what it caches.
#[derive(Clone, Debug)]
pub struct Routes<'a> {
    pub(crate) plan: &'a RoutePlan,
    pub(crate) dst: AsId,
    pub(crate) salt: u64,
    pub(crate) core: Arc<[Cell]>,
}

impl Routes<'_> {
    /// The route `asn` chose, `None` if it has none.
    pub fn route(&self, asn: AsId) -> Option<Route> {
        self.plan.route(&self.core, self.dst, self.salt, asn)
    }

    /// Position of `asn`'s chosen next-hop AS in its `neighbors`; `None`
    /// for the destination itself and for ASes with no route.
    #[inline]
    pub fn next(&self, asn: AsId) -> Option<usize> {
        self.route(asn)?.hop
    }

    /// True if `asn` has a route to the destination.
    pub fn reachable(&self, asn: AsId) -> bool {
        self.route(asn).is_some()
    }
}

/// Per-AS routing outcome toward one destination AS, as the whole-graph
/// reference [`routes_to`] computes it.
#[cfg(test)]
#[derive(Clone, Debug)]
pub struct AsRoutes {
    /// The destination AS.
    pub dst: AsId,
    /// Chosen next-hop AS, per AS index; `None` for the destination itself
    /// and for ASes with no route.
    pub next: Vec<Option<AsId>>,
    /// Route metric toward `dst` (AS-level hops plus transient edge
    /// penalties); 0 at `dst`, `u16::MAX` if unreachable. The true AS-path
    /// length is `as_path().len() - 1`.
    pub dist: Vec<u16>,
    /// Route class per AS (meaningless when unreachable).
    pub class: Vec<RouteClass>,
}

#[cfg(test)]
impl AsRoutes {
    /// True if `asn` has a route to the destination.
    pub fn reachable(&self, asn: AsId) -> bool {
        self.dist[asn.index()] != u16::MAX
    }

    /// The full AS path from `from` to the destination (inclusive of both
    /// endpoints), or `None` if unreachable.
    pub fn as_path(&self, from: AsId) -> Option<Vec<AsId>> {
        if !self.reachable(from) {
            return None;
        }
        let mut path = vec![from];
        let mut cur = from;
        while let Some(nh) = self.next[cur.index()] {
            path.push(nh);
            cur = nh;
            if path.len() > self.next.len() {
                unreachable!("BGP next-hop chain loops");
            }
        }
        debug_assert_eq!(cur, self.dst);
        Some(path)
    }
}

/// Compute valley-free routes from every AS toward `dst`, over the whole
/// graph: the route plane before it was split into [`RoutePlan::fill`] and
/// [`Routes::route`]. The differential tests hold the plane to it, next hop
/// for next hop, metric and class included.
#[cfg(test)]
pub fn routes_to(topo: &Topology, dst: AsId, salt: u64) -> AsRoutes {
    let n = topo.n_ases();
    let mut next: Vec<Option<AsId>> = vec![None; n];
    let mut dist: Vec<u16> = vec![u16::MAX; n];
    let mut class: Vec<RouteClass> = vec![RouteClass::Provider; n];

    let tie = |me: AsId, cand: AsId| {
        if chance(mix2(salt ^ 0xca70, me.0 as u64), CANONICAL_PREF_RATE) {
            // Canonical preference: a *globally aligned* ordering (lower
            // AS id ≈ the larger, better-connected, cheaper network).
            // Because every AS shares this ordering, the deciders on the
            // two sides of a path usually pick the same corridor — the
            // economics that make most last links symmetric in practice.
            cand.0 as u64
        } else {
            mix64(salt ^ ((me.0 as u64) << 32) ^ cand.0 as u64)
        }
    };
    // Edge weight toward `me` when adopting a route via `via`.
    let weight = |me: AsId, via: AsId| -> u16 {
        if chance(
            mix64(salt ^ 0xed9e ^ ((me.0 as u64) << 32) ^ via.0 as u64),
            EDGE_PENALTY_RATE,
        ) {
            1 + EDGE_PENALTY
        } else {
            1
        }
    };

    // Stage 1: customer routes, Dijkstra "uphill" from dst: an AS x obtains
    // a customer route via neighbor c (x's customer) if c is dst or c has a
    // customer route. The heap settles each AS on its best (metric, tie)
    // candidate; edge penalties make the metric differ from hop count.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // One heap serves stages 1 and 3 (stage 1 drains it). Each
    // provider–customer edge is pushed at most once per stage; on the
    // generated hierarchies (2.4 such edges per AS) the pending set peaks
    // at 1–2 entries per AS, so this size almost never grows.
    let mut heap: BinaryHeap<Reverse<(u16, u64, u32, u32)>> = BinaryHeap::with_capacity(2 * n);
    heap.push(Reverse((0, 0, dst.0, dst.0)));
    while let Some(Reverse((d, _, x, via))) = heap.pop() {
        let xi = x as usize;
        if dist[xi] != u16::MAX {
            continue;
        }
        dist[xi] = d;
        class[xi] = RouteClass::Customer;
        next[xi] = (via != x).then_some(AsId(via));
        for (p, rel) in topo.as_neighbors(AsId(x)) {
            if rel != Rel::Provider || dist[p.index()] != u16::MAX {
                continue;
            }
            heap.push(Reverse((d + weight(p, AsId(x)), tie(p, AsId(x)), p.0, x)));
        }
    }

    // Stage 2: peer routes, for ASes without a customer route. x may use
    // peer y iff y is dst or y holds a customer route — so a peer route
    // adopted here (class `Peer`) is never itself a candidate, and the
    // updates can be applied as they are found.
    for x in 0..n {
        if dist[x] != u16::MAX {
            continue;
        }
        let xid = AsId(x as u32);
        let mut best: Option<(u16, AsId)> = None;
        for (y, rel) in topo.as_neighbors(xid) {
            if rel != Rel::Peer {
                continue;
            }
            let yi = y.index();
            if dist[yi] == u16::MAX || class[yi] != RouteClass::Customer {
                continue;
            }
            let d = dist[yi] + weight(xid, y);
            best = match best {
                None => Some((d, y)),
                Some((bd, by)) => {
                    if d < bd || (d == bd && tie(xid, y) < tie(xid, by)) {
                        Some((d, y))
                    } else {
                        Some((bd, by))
                    }
                }
            };
        }
        if let Some((d, y)) = best {
            dist[x] = d;
            class[x] = RouteClass::Peer;
            next[x] = Some(y);
        }
    }

    // Stage 3: provider routes, propagated downhill with a Dijkstra-style
    // expansion (initial distances vary).
    // Seed: every AS that already has a route can export it to customers.
    for p in 0..n {
        if dist[p] == u16::MAX {
            continue;
        }
        let pid = AsId(p as u32);
        for (c, rel) in topo.as_neighbors(pid) {
            if rel != Rel::Customer {
                continue;
            }
            let ci = c.index();
            if dist[ci] != u16::MAX {
                continue; // customer already has a (preferred) route
            }
            heap.push(Reverse((dist[p] + weight(c, pid), tie(c, pid), c.0, pid.0)));
        }
    }
    while let Some(Reverse((d, _, x, via))) = heap.pop() {
        let xi = x as usize;
        if dist[xi] != u16::MAX {
            continue; // already settled (shorter or better-hashed)
        }
        dist[xi] = d;
        class[xi] = RouteClass::Provider;
        next[xi] = Some(AsId(via));
        // x can now export this provider route to its own customers.
        for (c, rel) in topo.as_neighbors(AsId(x)) {
            if rel != Rel::Customer {
                continue;
            }
            if dist[c.index()] == u16::MAX {
                heap.push(Reverse((d + weight(c, AsId(x)), tie(c, AsId(x)), c.0, x)));
            }
        }
    }

    AsRoutes {
        dst,
        next,
        dist,
        class,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::gen::generate;
    use crate::topology::AsTier;

    fn topo() -> Topology {
        generate(&SimConfig::tiny(), 5)
    }

    #[test]
    fn everyone_reaches_everyone() {
        let t = topo();
        for dst in 0..t.n_ases() {
            let r = routes_to(&t, AsId(dst as u32), 99);
            for x in 0..t.n_ases() {
                assert!(
                    r.reachable(AsId(x as u32)),
                    "AS{x} cannot reach AS{dst}: hierarchy broken"
                );
            }
        }
    }

    #[test]
    fn paths_terminate_and_match_dist() {
        let t = topo();
        let dst = AsId(0);
        let r = routes_to(&t, dst, 1);
        for x in 0..t.n_ases() {
            let path = r.as_path(AsId(x as u32)).expect("reachable");
            // The metric includes transient edge penalties, so it bounds
            // the hop count from below.
            assert!(path.len() as u16 - 1 <= r.dist[x]);
            assert_eq!(*path.first().expect("nonempty"), AsId(x as u32));
            assert_eq!(*path.last().expect("nonempty"), dst);
            // No repeated ASes.
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), path.len(), "AS path loops");
        }
    }

    #[test]
    fn paths_are_valley_free() {
        let t = topo();
        for dst in [AsId(0), AsId(5), AsId(40)] {
            let r = routes_to(&t, dst, 7);
            for x in 0..t.n_ases() {
                let path = r.as_path(AsId(x as u32)).expect("reachable");
                // Classify each edge walked: from the perspective of the
                // sender of the edge, the neighbor is Provider/Peer/Customer.
                // Valley-free: once we go down (to a customer) or across
                // (peer), we may never go up (to a provider) or across again.
                let mut descended = false;
                for w in path.windows(2) {
                    let rel = t.asn(w[0]).rel_with(w[1]).expect("adjacent");
                    match rel {
                        Rel::Provider => {
                            assert!(!descended, "valley: up after down/across");
                        }
                        Rel::Peer => {
                            assert!(!descended, "valley: across after down/across");
                            descended = true;
                        }
                        Rel::Customer => descended = true,
                    }
                }
            }
        }
    }

    #[test]
    fn customer_routes_preferred() {
        let t = topo();
        // For every AS with a customer route, the route must go through a
        // customer even if a shorter peer/provider path exists.
        let dst = AsId((t.n_ases() - 1) as u32);
        let r = routes_to(&t, dst, 3);
        for x in 0..t.n_ases() {
            let xid = AsId(x as u32);
            if xid == dst || r.class[x] != RouteClass::Customer {
                continue;
            }
            let nh = r.next[x].expect("routed");
            assert_eq!(t.asn(xid).rel_with(nh), Some(Rel::Customer));
        }
    }

    #[test]
    fn salt_changes_tiebreaks_not_reachability() {
        let t = topo();
        let dst = AsId(2);
        let a = routes_to(&t, dst, 1);
        let b = routes_to(&t, dst, 2);
        let mut diffs = 0;
        for x in 0..t.n_ases() {
            // Reachability is salt-independent; metrics and choices yield.
            assert_eq!(
                a.dist[x] == u16::MAX,
                b.dist[x] == u16::MAX,
                "reachability must not depend on the salt"
            );
            if a.next[x] != b.next[x] {
                diffs += 1;
            }
        }
        // Some tie-breaks should differ in a topology with any multihoming.
        assert!(diffs > 0, "salt has no effect; asymmetry model broken");
    }

    #[test]
    fn deterministic_per_salt() {
        let t = topo();
        let a = routes_to(&t, AsId(9), 1234);
        let b = routes_to(&t, AsId(9), 1234);
        assert_eq!(a.next, b.next);
    }
    // ---- the route plane against the whole-graph reference ----------------

    /// What `routes` and `reference` say about every AS of `topo`, as
    /// (metric, class, next-hop AS); the first AS they disagree on, if any.
    fn first_mismatch(
        topo: &Topology,
        routes: &Routes<'_>,
        reference: &AsRoutes,
    ) -> Option<String> {
        topo.ases.iter().find_map(|a| {
            let i = a.id.index();
            let got = routes
                .route(a.id)
                .map(|r| (r.dist, r.class, r.hop.map(|h| a.neighbors[h].asn)));
            let want = reference
                .reachable(a.id)
                .then(|| (reference.dist[i], reference.class[i], reference.next[i]));
            (got != want).then(|| {
                format!(
                    "{} -> {}: plane {got:?}, reference {want:?}",
                    a.id, reference.dst
                )
            })
        })
    }

    /// An AS graph with one router per AS (router id = AS id) and one link
    /// per adjacency, for shapes the generator never emits. `(a, b, rel)`
    /// reads "b is a's `rel`".
    fn as_graph(tiers: &[AsTier], adjacencies: &[(u32, u32, Rel)]) -> Topology {
        use crate::addr::{Addr, Prefix};
        use crate::ids::{LinkId, RouterId};
        use crate::topology::{AsNode, Link, LinkKind, Neighbor, Router, StampMode};
        let block = |i: u32| Prefix::new(Addr::new(11, i as u8, 0, 0), 16);
        let mut topo = Topology {
            block_base: block(0).base.0,
            ..Default::default()
        };
        for (i, &tier) in tiers.iter().enumerate() {
            let i = i as u32;
            topo.ases.push(AsNode {
                id: AsId(i),
                tier,
                neighbors: vec![],
                routers: vec![RouterId(i)],
                prefixes: vec![],
                block: block(i),
                spoof_filter: false,
                colo: false,
                edu: false,
                mpls: false,
            });
            topo.routers.push(Router {
                id: RouterId(i),
                asn: AsId(i),
                loopback: block(i).nth(0x4000),
                private_alias: Addr::new(10, 0, 0, i as u8),
                stamp: StampMode::Egress,
                ttl_responsive: true,
                snmp_responsive: false,
                ts_capable: true,
                load_balancer: false,
                links: vec![],
            });
        }
        for &(a, b, rel) in adjacencies {
            let id = LinkId(topo.links.len() as u32);
            // The provider side numbers the /30 (the lower id for peers).
            let owner = match rel {
                Rel::Provider => b,
                Rel::Customer => a,
                Rel::Peer => a.min(b),
            };
            topo.links.push(Link {
                id,
                a: RouterId(a),
                b: RouterId(b),
                addr_a: block(owner).nth(4 * id.0 + 1),
                addr_b: block(owner).nth(4 * id.0 + 2),
                latency_ms: 1.0,
                kind: LinkKind::Inter,
            });
            for (me, other, rel) in [(a, b, rel), (b, a, rel.flip())] {
                topo.routers[me as usize].links.push(id);
                topo.ases[me as usize].neighbors.push(Neighbor {
                    asn: AsId(other),
                    rel,
                    links: vec![id],
                });
            }
        }
        for a in &mut topo.ases {
            a.neighbors.sort_unstable_by_key(|n| n.asn);
        }
        topo.rebuild_address_index();
        topo
    }

    /// Twelve ASes holding every leaf case the stages distinguish:
    ///
    /// ```text
    ///        0 ===== 1            (tier-1 peers)         10   (isolated
    ///        |       |                                    |    provider)
    ///        2       3            (transits)              9
    ///      / | \\   / | \\
    ///     4  7  \\ /  5  \\      4 === 5 peer; 6 and 11 are
    ///        |   6,11   (6,11)   multihomed to 2 and 3
    ///        8
    /// ```
    ///
    /// AS7 is tiered `Stub` yet has the customer AS8; AS9's only provider,
    /// AS10, has no neighbour but AS9.
    pub(crate) fn edge_case_graph() -> Topology {
        use AsTier::{Stub, Tier1, Transit};
        use Rel::{Peer, Provider};
        as_graph(
            &[
                Tier1, Tier1, Transit, Transit, Stub, Stub, Stub, Stub, Stub, Stub, Transit, Stub,
            ],
            &[
                (0, 1, Peer),
                (2, 0, Provider),
                (3, 1, Provider),
                (4, 2, Provider),
                (5, 3, Provider),
                (4, 5, Peer),
                (6, 2, Provider),
                (6, 3, Provider),
                (7, 2, Provider),
                (8, 7, Provider),
                (9, 10, Provider),
                (11, 2, Provider),
                (11, 3, Provider),
            ],
        )
    }

    #[test]
    fn hand_built_leaf_cases_resolve_as_the_reference_does() {
        let topo = edge_case_graph();
        let plan = RoutePlan::build(&topo);
        // Core membership follows the edges: the `Stub`-tier AS7 has a
        // customer, the `Transit`-tier AS10 has one too, nobody else below
        // the transits does.
        let core: Vec<u32> = plan.core.iter().map(|a| a.0).collect();
        assert_eq!(core, [0, 1, 2, 3, 7, 10]);

        let via = |r: &Routes<'_>, x: u32| {
            let x = AsId(x);
            r.route(x)
                .map(|rt| (rt.class, rt.hop.map(|h| topo.asn(x).neighbors[h].asn.0)))
        };
        let mut tie_winners = std::collections::BTreeSet::new();
        for salt in 0..400 {
            let toward = |dst: u32| Routes {
                plan: &plan,
                dst: AsId(dst),
                salt,
                core: plan.fill(AsId(dst), salt),
            };
            for dst in 0..topo.n_ases() as u32 {
                let reference = routes_to(&topo, AsId(dst), salt);
                let mismatch = first_mismatch(&topo, &toward(dst), &reference);
                assert_eq!(mismatch, None, "salt {salt}");
            }
            // A stub destination with a peer, and a stub source peering
            // directly with it: the peer route beats both providers.
            assert_eq!(via(&toward(4), 5), Some((RouteClass::Peer, Some(4))));
            assert_eq!(via(&toward(5), 4), Some((RouteClass::Peer, Some(5))));
            // ...but a leaf exports it to no one: AS3 climbs to its provider.
            assert_eq!(via(&toward(4), 3), Some((RouteClass::Provider, Some(1))));
            // A multihomed stub whose providers tie on metric (both are one
            // customer hop from AS11 unless an edge is penalised).
            let r = toward(11);
            let (d2, d3) = (
                r.route(AsId(2)).expect("routed").dist,
                r.route(AsId(3)).expect("routed").dist,
            );
            let (class, hop) = via(&r, 6).expect("routed");
            assert_eq!(class, RouteClass::Provider);
            if d2 == d3
                && Salt(salt).weight(AsId(6), AsId(2)) == Salt(salt).weight(AsId(6), AsId(3))
            {
                tie_winners.insert(hop);
            }
            // A stub whose only provider has no route: unreachable, both ways.
            assert_eq!(via(&toward(4), 9), None);
            assert_eq!(via(&toward(4), 10), None);
            assert_eq!(via(&toward(9), 4), None);
            assert_eq!(via(&toward(9), 10), Some((RouteClass::Customer, Some(9))));
            assert_eq!(via(&toward(10), 9), Some((RouteClass::Provider, Some(10))));
            // The `Stub`-tier AS with a customer carries transit for it.
            assert_eq!(via(&toward(8), 2), Some((RouteClass::Customer, Some(7))));
            assert_eq!(via(&toward(8), 7), Some((RouteClass::Customer, Some(8))));
            assert_eq!(via(&toward(4), 8), Some((RouteClass::Provider, Some(7))));
        }
        // The tie went both ways over the salts.
        assert_eq!(tie_winners.len(), 2, "{tie_winners:?}");
    }

    mod differential {
        use super::*;
        use crate::ids::PrefixId;
        use crate::sim::Sim;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// tiny and era_2020 at seeds {1, 7, 42}, after churn.
        fn sims() -> &'static [Sim] {
            static SIMS: OnceLock<Vec<Sim>> = OnceLock::new();
            SIMS.get_or_init(|| {
                let mut sims = Vec::new();
                for seed in [1, 7, 42] {
                    for cfg in [SimConfig::tiny(), SimConfig::era_2020()] {
                        let sim = Sim::build(cfg, seed);
                        sim.advance_hours(100.0);
                        sim.advance_hours(100.0);
                        sims.push(sim);
                    }
                }
                sims
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(600))]

            /// The production plane — core table from the cache, leaves
            /// resolved on lookup — is the whole-graph computation: equal
            /// next hop, metric and class at **every** source AS.
            #[test]
            fn core_plane_matches_reference(
                sim in 0usize..6,
                pick in 0usize..1 << 16,
                kind in 0u8..4,
                raw_salt in 0u64..u64::MAX,
                back in 0u32..3,
            ) {
                let sim = &sims()[sim];
                let topo = sim.topo();
                // A raw salt, or the ones the walk derives: a prefix at its
                // live (churned) or an earlier epoch, or infrastructure.
                let (dst, salt) = match kind {
                    0 => (AsId((pick % topo.n_ases()) as u32), raw_salt),
                    1 => {
                        let dst = AsId((pick % topo.n_ases()) as u32);
                        (dst, sim.infra_salt(dst))
                    }
                    _ => {
                        let p = PrefixId((pick % topo.prefixes.len()) as u32);
                        let epoch = sim.prefix_epoch(p).saturating_sub(back);
                        (topo.prefix(p).owner, sim.prefix_salt_at(p, epoch))
                    }
                };
                let mismatch = first_mismatch(topo, &sim.routes(dst, salt), &routes_to(topo, dst, salt));
                prop_assert!(mismatch.is_none(), "salt {salt:#x}: {}", mismatch.unwrap_or_default());
            }
        }

        #[test]
        fn the_sims_exercise_what_they_claim() {
            for sim in sims() {
                let topo = sim.topo();
                // Churn moved some prefix off epoch 0; leaf destinations,
                // leaf sources with peers and core destinations all occur.
                assert!(topo.prefixes.iter().any(|p| sim.prefix_epoch(p.id) > 0));
                let plan = RoutePlan::build(topo);
                let leaf = |a: AsId| !topo.asn(a).has_customers();
                assert!(plan.core.len() * 4 < topo.n_ases());
                assert!(topo.prefixes.iter().any(|p| leaf(p.owner)));
                assert!(topo.prefixes.iter().any(|p| !leaf(p.owner)));
                assert!(topo
                    .ases
                    .iter()
                    .any(|a| leaf(a.id) && !plan.run(a.id, Rel::Peer).is_empty()));
            }
        }
    }
}
