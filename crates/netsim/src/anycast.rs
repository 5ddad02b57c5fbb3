//! Anycast announcements and BGP traffic engineering (§6.1 substrate).
//!
//! The paper's TE case study announces one prefix from several PEERING
//! sites and steers routes with AS-path poisoning and no-export
//! communities, using revtr 2.0 to observe the resulting catchments. This
//! module computes valley-free routes for a *multi-origin* announcement
//! with per-AS announcement filtering:
//!
//! * `origins` — the ASes announcing the anycast prefix;
//! * `blocked (x, o)` — AS `x` discards routes whose origin is `o`
//!   (modelling both poisoning `x` on `o`'s announcement and no-export
//!   communities that keep `o`'s announcement away from `x`). A blocked AS
//!   neither uses nor propagates that origin's routes.
//!
//! Each AS settles on a single best route (customer > peer > provider,
//! then shortest, then a salted tie-break) and only propagates that route —
//! so catchments are consistent with real BGP announcement flow.

use crate::hash::mix3;
use crate::ids::AsId;
use crate::topology::{Rel, Topology};
use revtr_telemetry::WordSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Customer-stage heap entry: (class, metric, tie, AS, via, origin).
type CustomerEntry = (u8, u16, u64, u32, u32, u32);
/// Provider-stage heap entry: (metric, tie, AS, via, origin).
type ProviderEntry = (u16, u64, u32, u32, u32);

/// A multi-origin announcement configuration.
#[derive(Clone, Debug, Default)]
pub struct AnycastConfig {
    /// Announcing ASes (the anycast sites).
    pub origins: Vec<AsId>,
    /// `(AS, origin)` pairs: the AS refuses/never sees that origin's
    /// announcement (poisoning / no-export). Only asked `contains`.
    pub blocked: WordSet<(AsId, AsId)>,
}

impl AnycastConfig {
    /// Plain anycast from the given origins.
    pub fn new(origins: Vec<AsId>) -> AnycastConfig {
        AnycastConfig {
            origins,
            blocked: WordSet::default(),
        }
    }

    /// Block `asn` from using routes announced by `origin`.
    pub fn block(mut self, asn: AsId, origin: AsId) -> AnycastConfig {
        self.blocked.insert((asn, origin));
        self
    }
}

/// Per-AS outcome of an anycast announcement.
#[derive(Clone, Debug)]
pub struct AnycastRoutes {
    /// Chosen origin (catchment) per AS; `None` if unreachable.
    pub catchment: Vec<Option<AsId>>,
    /// Next-hop AS per AS (`None` at origins / unreachable).
    pub next: Vec<Option<AsId>>,
    /// AS-path length per AS (`u16::MAX` if unreachable).
    pub dist: Vec<u16>,
}

impl AnycastRoutes {
    /// The AS path from `from` to its catchment site.
    pub fn as_path(&self, from: AsId) -> Option<Vec<AsId>> {
        self.catchment[from.index()]?;
        let mut path = vec![from];
        let mut cur = from;
        while let Some(nh) = self.next[cur.index()] {
            path.push(nh);
            cur = nh;
            if path.len() > self.next.len() {
                unreachable!("anycast next-hop chain loops");
            }
        }
        Some(path)
    }
}

/// Compute valley-free routes toward a multi-origin announcement.
pub fn anycast_routes(topo: &Topology, cfg: &AnycastConfig, salt: u64) -> AnycastRoutes {
    let n = topo.n_ases();
    let mut catchment: Vec<Option<AsId>> = vec![None; n];
    let mut next: Vec<Option<AsId>> = vec![None; n];
    let mut dist: Vec<u16> = vec![u16::MAX; n];
    let mut class: Vec<u8> = vec![u8::MAX; n]; // 0 cust, 1 peer, 2 prov

    let tie = |me: AsId, via: AsId, origin: AsId| {
        mix3(salt ^ ((me.0 as u64) << 32), via.0 as u64, origin.0 as u64)
    };
    let blocked = |x: AsId, o: AsId| cfg.blocked.contains(&(x, o));

    // Heap entries: (class, dist, tie, x, via, origin); `via == x` marks an
    // origin seeding itself.
    let mut heap: BinaryHeap<Reverse<CustomerEntry>> = BinaryHeap::new();

    // Stage 1: customer routes, multi-origin.
    for &o in &cfg.origins {
        if !blocked(o, o) {
            heap.push(Reverse((0, 0, 0, o.0, o.0, o.0)));
        }
    }
    while let Some(Reverse((c, d, _, x, via, o))) = heap.pop() {
        debug_assert_eq!(c, 0);
        let xi = x as usize;
        if class[xi] != u8::MAX {
            continue;
        }
        class[xi] = 0;
        dist[xi] = d;
        catchment[xi] = Some(AsId(o));
        next[xi] = (via != x).then_some(AsId(via));
        // Propagate the settled route to providers.
        for (p, rel) in topo.as_neighbors(AsId(x)) {
            if rel == Rel::Provider && class[p.index()] == u8::MAX && !blocked(p, AsId(o)) {
                heap.push(Reverse((0, d + 1, tie(p, AsId(x), AsId(o)), p.0, x, o)));
            }
        }
    }

    // Stage 2: peer routes — an AS without a customer route may use a
    // peer's customer route.
    let mut peer_updates: Vec<(usize, AsId, u16, AsId)> = Vec::new();
    for x in 0..n {
        if class[x] != u8::MAX {
            continue;
        }
        let xid = AsId(x as u32);
        let mut best: Option<(u16, u64, AsId, AsId)> = None;
        for (y, rel) in topo.as_neighbors(xid) {
            if rel != Rel::Peer || class[y.index()] != 0 {
                continue;
            }
            let o = catchment[y.index()].expect("settled customer route has origin");
            if blocked(xid, o) {
                continue;
            }
            let cand = (dist[y.index()] + 1, tie(xid, y, o), y, o);
            if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                best = Some(cand);
            }
        }
        if let Some((d, _, y, o)) = best {
            peer_updates.push((x, y, d, o));
        }
    }
    for (x, y, d, o) in peer_updates {
        class[x] = 1;
        dist[x] = d;
        next[x] = Some(y);
        catchment[x] = Some(o);
    }

    // Stage 3: provider routes, propagated downhill.
    let mut heap: BinaryHeap<Reverse<ProviderEntry>> = BinaryHeap::new();
    for p in 0..n {
        if class[p] > 1 {
            continue;
        }
        let pid = AsId(p as u32);
        let o = catchment[p].expect("settled route has origin");
        for (c, rel) in topo.as_neighbors(pid) {
            if rel == Rel::Customer && class[c.index()] == u8::MAX && !blocked(c, o) {
                heap.push(Reverse((dist[p] + 1, tie(c, pid, o), c.0, p as u32, o.0)));
            }
        }
    }
    while let Some(Reverse((d, _, x, via, o))) = heap.pop() {
        let xi = x as usize;
        if class[xi] != u8::MAX {
            continue;
        }
        class[xi] = 2;
        dist[xi] = d;
        next[xi] = Some(AsId(via));
        catchment[xi] = Some(AsId(o));
        for (c, rel) in topo.as_neighbors(AsId(x)) {
            if rel == Rel::Customer && class[c.index()] == u8::MAX && !blocked(c, AsId(o)) {
                heap.push(Reverse((d + 1, tie(c, AsId(x), AsId(o)), c.0, x, o)));
            }
        }
    }

    AnycastRoutes {
        catchment,
        next,
        dist,
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
    fn single_origin_matches_unicast_reachability() {
        let t = topo();
        let cfg = AnycastConfig::new(vec![AsId(3)]);
        let r = anycast_routes(&t, &cfg, 1);
        let uni = crate::bgp::routes_to(&t, AsId(3), 1);
        for x in 0..t.n_ases() {
            assert_eq!(r.catchment[x], Some(AsId(3)));
            assert_eq!(
                r.dist[x] != u16::MAX,
                uni.reachable(AsId(x as u32)),
                "reachability mismatch at AS{x}"
            );
        }
    }

    #[test]
    fn multi_origin_splits_catchments() {
        let t = topo();
        let o1 = AsId((t.n_ases() - 1) as u32);
        let o2 = AsId((t.n_ases() - 2) as u32);
        let cfg = AnycastConfig::new(vec![o1, o2]);
        let r = anycast_routes(&t, &cfg, 2);
        let c1 = r.catchment.iter().filter(|c| **c == Some(o1)).count();
        let c2 = r.catchment.iter().filter(|c| **c == Some(o2)).count();
        assert!(c1 > 0 && c2 > 0, "both sites should attract someone");
        assert_eq!(c1 + c2, t.n_ases());
        // Each origin serves itself.
        assert_eq!(r.catchment[o1.index()], Some(o1));
        assert_eq!(r.dist[o1.index()], 0);
    }

    #[test]
    fn paths_terminate_at_catchment_origin() {
        let t = topo();
        let o1 = AsId(10);
        let o2 = AsId(40);
        let cfg = AnycastConfig::new(vec![o1, o2]);
        let r = anycast_routes(&t, &cfg, 3);
        for x in 0..t.n_ases() {
            let path = r.as_path(AsId(x as u32)).expect("reachable");
            assert_eq!(path.last().copied(), r.catchment[x]);
            assert_eq!(path.len() as u16 - 1, r.dist[x]);
        }
    }

    #[test]
    fn blocking_steers_traffic() {
        let t = topo();
        let o1 = AsId((t.n_ases() - 1) as u32);
        let o2 = AsId((t.n_ases() - 2) as u32);
        let base = anycast_routes(&t, &AnycastConfig::new(vec![o1, o2]), 4);
        // Pick an AS served by o1 and poison it on o1's announcement.
        let victim = (0..t.n_ases())
            .find(|&x| base.catchment[x] == Some(o1) && x != o1.index())
            .map(|x| AsId(x as u32))
            .expect("someone routes to o1");
        let cfg = AnycastConfig::new(vec![o1, o2]).block(victim, o1);
        let steered = anycast_routes(&t, &cfg, 4);
        assert_eq!(
            steered.catchment[victim.index()],
            Some(o2),
            "poisoned AS must shift to the other site"
        );
    }

    #[test]
    fn fully_blocked_as_is_unreachable() {
        let t = topo();
        let o = AsId(20);
        // Find a stub and block it on the only origin.
        let stub = t
            .ases
            .iter()
            .find(|a| a.tier == crate::topology::AsTier::Stub && a.id != o)
            .expect("stub exists");
        let cfg = AnycastConfig::new(vec![o]).block(stub.id, o);
        let r = anycast_routes(&t, &cfg, 5);
        assert_eq!(r.catchment[stub.id.index()], None);
    }
}
