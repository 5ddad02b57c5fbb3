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

/// Per-AS routing outcome toward one destination AS.
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

/// The forwarding view of an [`AsRoutes`]: only the chosen next-hop AS per
/// AS, four bytes each. This is all a packet walk reads, and what
/// [`crate::sim::Sim`] keeps per `(destination AS, salt)` in its route
/// cache; metric and class stay with [`routes_to`]'s callers.
#[derive(Clone, Debug)]
pub struct NextHopTable {
    dst: AsId,
    /// Next-hop AS id per AS index, [`NextHopTable::NONE`] where
    /// [`AsRoutes::next`] is `None`.
    next: Box<[u32]>,
}

impl NextHopTable {
    const NONE: u32 = u32::MAX;

    /// Chosen next-hop AS of `asn`; `None` for the destination itself and
    /// for ASes with no route.
    #[inline]
    pub fn next(&self, asn: AsId) -> Option<AsId> {
        match self.next[asn.index()] {
            Self::NONE => None,
            a => Some(AsId(a)),
        }
    }

    /// True if `asn` has a route to the destination.
    pub fn reachable(&self, asn: AsId) -> bool {
        asn == self.dst || self.next[asn.index()] != Self::NONE
    }

    /// Heap bytes of a table over `n_ases` ASes.
    pub fn heap_bytes(n_ases: usize) -> usize {
        n_ases * std::mem::size_of::<u32>()
    }
}

impl From<&AsRoutes> for NextHopTable {
    fn from(routes: &AsRoutes) -> NextHopTable {
        NextHopTable {
            dst: routes.dst,
            next: routes
                .next
                .iter()
                .map(|n| n.map_or(Self::NONE, |a| a.0))
                .collect(),
        }
    }
}

/// Compute valley-free routes from every AS toward `dst`.
///
/// `salt` seeds the tie-break hash; different salts model different
/// destinations (prefixes) inside the same AS and different churn epochs.
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
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::gen::generate;

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
}
