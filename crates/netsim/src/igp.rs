//! Intradomain routing: per-AS all-pairs shortest paths over intra links,
//! compiled into the dense tables the walk reads.
//!
//! Every AS runs a hop-count IGP over its internal topology (a small core
//! mesh plus spokes, from the generator). Tables are small (ASes have at
//! most a few dozen routers) and built once at `Sim::build` time; nothing
//! here hashes, locks or allocates after that.
//!
//! Layout: one two-byte [`Cell`] per ordered router pair of an AS holds the
//! hop distance and names the equal-cost next-hop set. A set of one — every
//! set, in generated topologies, whose intra graphs have unique shortest
//! paths — is an entry of the source router's own sorted adjacency run in
//! [`Igp::hops`], so it costs no storage beyond the cell; larger sets are
//! spilled behind the adjacency runs and found by binary search.

use crate::ids::{AsId, LinkId, RouterId};
use crate::topology::{LinkKind, Topology};

/// Sentinel for "unreachable" (never happens in generated topologies, whose
/// intra graphs are connected, but kept for robustness).
pub const UNREACHABLE: u16 = u16::MAX;

/// [`Cell::dist`] of an unreachable pair.
const FAR: u8 = u8::MAX;
/// [`Cell::set`]: no next hop (the router itself, or unreachable).
const NO_HOP: u8 = u8::MAX;
/// [`Cell::set`]: the next-hop set lives in [`Igp::spill`].
const SPILLED: u8 = u8::MAX - 1;

/// Distance and next-hop set from a row router to a column router.
#[derive(Clone, Copy, Debug)]
struct Cell {
    /// Hop count, [`FAR`] if unreachable.
    dist: u8,
    /// Position of the single next hop in the row router's adjacency run,
    /// or [`NO_HOP`] / [`SPILLED`].
    set: u8,
}

/// IGP state for one AS: the flattened `n × n` table, `cells[i*n + j]`,
/// indexed by the routers' positions in [`crate::topology::AsNode::routers`].
#[derive(Clone, Debug)]
pub struct AsIgp {
    n: usize,
    cells: Vec<Cell>,
}

impl AsIgp {
    #[inline]
    fn cell(&self, i: usize, j: usize) -> Cell {
        self.cells[i * self.n + j]
    }
}

/// A next-hop set too large (or too far into a run) for a [`Cell`].
#[derive(Clone, Copy, Debug)]
struct Spill {
    from: RouterId,
    to: RouterId,
    /// The set is `hops[start..start + len]`.
    start: u32,
    len: u32,
}

/// IGP tables for every AS.
#[derive(Clone, Debug)]
pub struct Igp {
    /// Router id → its row/column in its AS's table.
    local: Vec<u16>,
    /// Router id → start of its run in `hops` (one trailing entry).
    adj_off: Vec<u32>,
    /// Per router, in id order: its intra-AS neighbours sorted by
    /// (neighbour, link). Spilled next-hop sets follow the last run.
    hops: Vec<(LinkId, RouterId)>,
    /// Per-AS tables, indexed by [`AsId`].
    tables: Vec<AsIgp>,
    /// Sorted by `(from, to)`.
    spill: Vec<Spill>,
}

impl Igp {
    /// Compute IGP tables for the whole topology.
    ///
    /// # Panics
    /// If an AS is more than 254 intra hops across: distances are stored in
    /// a byte, four times what the walk's hop cap lets a packet cross.
    pub fn build(topo: &Topology) -> Igp {
        let mut local = vec![0u16; topo.routers.len()];
        for a in &topo.ases {
            assert!(
                a.routers.len() <= usize::from(u16::MAX) + 1,
                "{} has more routers than a 16-bit local index holds",
                a.id
            );
            for (i, &r) in a.routers.iter().enumerate() {
                local[r.index()] = i as u16;
            }
        }

        let intra_links = topo
            .links
            .iter()
            .filter(|l| matches!(l.kind, LinkKind::Intra(_)))
            .count();
        let mut hops: Vec<(LinkId, RouterId)> = Vec::with_capacity(2 * intra_links);
        let mut adj_off = Vec::with_capacity(topo.routers.len() + 1);
        for r in &topo.routers {
            adj_off.push(hops.len() as u32);
            let run = hops.len();
            for &lid in &r.links {
                let l = topo.link(lid);
                let n = l.other(r.id);
                if matches!(l.kind, LinkKind::Intra(owner) if owner == r.asn)
                    && topo.router_as(n) == r.asn
                {
                    hops.push((lid, n));
                }
            }
            hops[run..].sort_unstable_by_key(|&(lid, n)| (n, lid));
        }
        adj_off.push(hops.len() as u32);

        let mut igp = Igp {
            local,
            adj_off,
            hops,
            tables: Vec::with_capacity(topo.ases.len()),
            spill: Vec::new(),
        };
        let mut dist: Vec<u16> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for a in &topo.ases {
            let n = a.routers.len();

            // BFS from every router.
            dist.clear();
            dist.resize(n * n, UNREACHABLE);
            for s in 0..n {
                dist[s * n + s] = 0;
                queue.clear();
                queue.push_back(s);
                while let Some(u) = queue.pop_front() {
                    let du = dist[s * n + u];
                    for &(_, v) in igp.adjacency(a.routers[u]) {
                        let v = igp.local[v.index()] as usize;
                        if dist[s * n + v] == UNREACHABLE {
                            dist[s * n + v] = du + 1;
                            queue.push_back(v);
                        }
                    }
                }
            }

            let mut cells = Vec::with_capacity(n * n);
            for (i, &from) in a.routers.iter().enumerate() {
                let run =
                    igp.adj_off[from.index()] as usize..igp.adj_off[from.index() + 1] as usize;
                for (j, &to) in a.routers.iter().enumerate() {
                    let d = dist[i * n + j];
                    if d == UNREACHABLE {
                        cells.push(Cell {
                            dist: FAR,
                            set: NO_HOP,
                        });
                        continue;
                    }
                    assert!(d < u16::from(FAR), "{} is {d} intra hops across", a.id);
                    let closer = |&(_, v): &(LinkId, RouterId)| {
                        dist[igp.local[v.index()] as usize * n + j] + 1 == d
                    };
                    let mut set = igp.hops[run.clone()]
                        .iter()
                        .enumerate()
                        .filter(|(_, h)| closer(h));
                    let set = match (set.next(), set.next()) {
                        (None, _) => NO_HOP,
                        (Some((k, _)), None) if k < usize::from(SPILLED) => k as u8,
                        _ => {
                            let start = igp.hops.len();
                            for k in run.clone() {
                                let h = igp.hops[k];
                                if closer(&h) {
                                    igp.hops.push(h);
                                }
                            }
                            igp.spill.push(Spill {
                                from,
                                to,
                                start: start as u32,
                                len: (igp.hops.len() - start) as u32,
                            });
                            SPILLED
                        }
                    };
                    cells.push(Cell { dist: d as u8, set });
                }
            }
            igp.tables.push(AsIgp { n, cells });
        }
        igp.spill.sort_unstable_by_key(|s| (s.from, s.to));
        igp
    }

    /// The intra-AS neighbours of `r` with the connecting links, sorted by
    /// (neighbour, link).
    #[inline]
    fn adjacency(&self, r: RouterId) -> &[(LinkId, RouterId)] {
        &self.hops[self.adj_off[r.index()] as usize..self.adj_off[r.index() + 1] as usize]
    }

    #[inline]
    fn local(&self, r: RouterId) -> usize {
        self.local[r.index()] as usize
    }

    /// Logical byte footprint of the tables: the router → local index and
    /// router → adjacency-run arrays, the adjacency runs with any spilled
    /// next-hop sets, and the two-byte cells. A pure function of the
    /// topology (tables are precomputed at build time).
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.local.len() * size_of::<u16>()
            + self.adj_off.len() * size_of::<u32>()
            + self.hops.len() * size_of::<(LinkId, RouterId)>()
            + self.tables.iter().map(|t| t.cells.len()).sum::<usize>() * size_of::<Cell>()
            + self.spill.len() * size_of::<Spill>()) as u64
    }

    /// Hop distance between two routers, [`UNREACHABLE`] if they are in
    /// different ASes or disconnected.
    pub fn dist(&self, topo: &Topology, a: RouterId, b: RouterId) -> u16 {
        let asid = topo.router_as(a);
        if topo.router_as(b) != asid {
            return UNREACHABLE;
        }
        match self.tables[asid.index()]
            .cell(self.local(a), self.local(b))
            .dist
        {
            FAR => UNREACHABLE,
            d => u16::from(d),
        }
    }

    /// All intra-AS neighbor routers of `r` (with the connecting link) that
    /// lie one hop closer to `target`, i.e. the equal-cost next-hop set.
    /// Sorted by (neighbour, link). Empty if `r == target` or target
    /// unreachable. Both routers must belong to the same AS.
    #[inline]
    pub fn next_hops_toward(
        &self,
        topo: &Topology,
        r: RouterId,
        target: RouterId,
    ) -> &[(LinkId, RouterId)] {
        let asid = topo.router_as(r);
        debug_assert_eq!(asid, topo.router_as(target));
        match self.tables[asid.index()]
            .cell(self.local(r), self.local(target))
            .set
        {
            NO_HOP => &[],
            SPILLED => {
                let s = self
                    .spill
                    .binary_search_by_key(&(r, target), |s| (s.from, s.to))
                    .expect("a spilled cell has its set");
                let s = self.spill[s];
                &self.hops[s.start as usize..][..s.len as usize]
            }
            k => &self.adjacency(r)[usize::from(k)..][..1],
        }
    }

    /// Hot potato: the equal-cost next hops of `r` toward whichever of
    /// `targets` (routers of `asid`, like `r`) are nearest — the union of
    /// [`Igp::next_hops_toward`] over the nearest targets, sorted by
    /// (neighbour, link), each hop once. `None` if no target is reachable.
    pub(crate) fn next_hops_toward_nearest<'a>(
        &'a self,
        asid: AsId,
        r: RouterId,
        targets: &'a [RouterId],
    ) -> Option<impl Iterator<Item = (LinkId, RouterId)> + Clone + 'a> {
        let t = &self.tables[asid.index()];
        let i = self.local(r);
        let dmin = targets
            .iter()
            .map(|&b| t.cell(i, self.local(b)).dist)
            .min()
            .filter(|&d| d != FAR)?;
        // A neighbour is a next hop iff it is one hop closer to a nearest
        // target; filtering the sorted run yields the union already in
        // order, so nothing is collected, sorted or deduplicated.
        Some(self.adjacency(r).iter().copied().filter(move |&(_, v)| {
            let v = self.local(v);
            targets.iter().any(|&b| {
                let j = self.local(b);
                t.cell(i, j).dist == dmin && u16::from(t.cell(v, j).dist) + 1 == u16::from(dmin)
            })
        }))
    }

    /// [`Igp::next_hops_toward`] as it was computed per call before the
    /// tables existed; the differential tests hold the table to it.
    #[cfg(test)]
    pub(crate) fn next_hops_reference(
        &self,
        topo: &Topology,
        r: RouterId,
        target: RouterId,
    ) -> Vec<(LinkId, RouterId)> {
        let asid = topo.router_as(r);
        let d = self.dist(topo, r, target);
        if d == 0 || d == UNREACHABLE {
            return Vec::new();
        }
        let mut out = Vec::new();
        for &lid in &topo.router(r).links {
            let l = topo.link(lid);
            if !matches!(l.kind, LinkKind::Intra(owner) if owner == asid) {
                continue;
            }
            let n = l.other(r);
            let dn = self.dist(topo, n, target);
            if dn != UNREACHABLE && dn + 1 == d {
                out.push((lid, n));
            }
        }
        out.sort_unstable_by_key(|&(lid, n)| (n, lid));
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::addr::{Addr, Prefix};
    use crate::config::SimConfig;
    use crate::gen::generate;
    use crate::topology::{AsNode, AsTier, Link, Router, StampMode};

    /// One AS whose routers `0..n` are joined by the given intra links —
    /// for shapes the generator never emits (rings, long chains).
    pub(crate) fn single_as(n: u32, edges: &[(u32, u32)]) -> Topology {
        let block = Prefix::new(Addr::new(11, 0, 0, 0), 16);
        let mut topo = Topology {
            ases: vec![AsNode {
                id: AsId(0),
                tier: AsTier::Transit,
                neighbors: vec![],
                routers: (0..n).map(RouterId).collect(),
                prefixes: vec![],
                block,
                spoof_filter: false,
                colo: false,
                edu: false,
                mpls: false,
            }],
            routers: (0..n)
                .map(|i| Router {
                    id: RouterId(i),
                    asn: AsId(0),
                    loopback: block.nth(0x4000 + i),
                    private_alias: Addr::new(10, 0, (i >> 8) as u8, i as u8),
                    stamp: StampMode::Egress,
                    ttl_responsive: true,
                    snmp_responsive: false,
                    ts_capable: true,
                    load_balancer: false,
                    links: vec![],
                })
                .collect(),
            block_base: block.base.0,
            ..Default::default()
        };
        for &(a, b) in edges {
            let id = LinkId(topo.links.len() as u32);
            topo.links.push(Link {
                id,
                a: RouterId(a),
                b: RouterId(b),
                addr_a: block.nth(4 * id.0 + 1),
                addr_b: block.nth(4 * id.0 + 2),
                latency_ms: 1.0,
                kind: LinkKind::Intra(AsId(0)),
            });
            topo.routers[a as usize].links.push(id);
            topo.routers[b as usize].links.push(id);
        }
        topo.rebuild_address_index();
        topo
    }

    #[test]
    fn igp_distances_are_symmetric_and_connected() {
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        for a in &topo.ases {
            for &r1 in &a.routers {
                for &r2 in &a.routers {
                    let d = igp.dist(&topo, r1, r2);
                    assert_ne!(d, UNREACHABLE, "intra graph of {} disconnected", a.id);
                    assert_eq!(d, igp.dist(&topo, r2, r1));
                    if r1 == r2 {
                        assert_eq!(d, 0);
                    } else {
                        assert!(d >= 1);
                    }
                }
            }
        }
        // Routers of different ASes are not IGP-reachable.
        let (a, b) = (topo.ases[0].routers[0], topo.ases[1].routers[0]);
        assert_eq!(igp.dist(&topo, a, b), UNREACHABLE);
    }

    #[test]
    fn next_hops_reduce_distance() {
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        for a in &topo.ases {
            if a.routers.len() < 2 {
                continue;
            }
            let target = a.routers[0];
            for &r in &a.routers[1..] {
                let hops = igp.next_hops_toward(&topo, r, target);
                assert!(!hops.is_empty(), "no next hop from {r} to {target}");
                for &(_, n) in hops {
                    assert_eq!(igp.dist(&topo, n, target) + 1, igp.dist(&topo, r, target));
                }
            }
        }
    }

    #[test]
    fn next_hops_empty_at_target() {
        let topo = generate(&SimConfig::tiny(), 11);
        let igp = Igp::build(&topo);
        let a = &topo.ases[0];
        let r = a.routers[0];
        assert!(igp.next_hops_toward(&topo, r, r).is_empty());
    }

    /// The table answers exactly what the per-call computation it replaced
    /// answered, for every (router, target) pair of every AS.
    fn assert_table_matches_reference(topo: &Topology) {
        let igp = Igp::build(topo);
        for a in &topo.ases {
            for &r in &a.routers {
                for &target in &a.routers {
                    assert_eq!(
                        igp.next_hops_toward(topo, r, target),
                        &igp.next_hops_reference(topo, r, target)[..],
                        "{r} -> {target}"
                    );
                    let nearest: Vec<_> = igp
                        .next_hops_toward_nearest(a.id, r, &[target])
                        .expect("generated intra graphs are connected")
                        .collect();
                    assert_eq!(nearest, igp.next_hops_toward(topo, r, target));
                }
            }
        }
    }

    #[test]
    fn next_hop_table_matches_per_call_reference() {
        for seed in [1, 7, 42] {
            assert_table_matches_reference(&generate(&SimConfig::tiny(), seed));
            assert_table_matches_reference(&generate(&SimConfig::era_2020(), seed));
        }
    }

    #[test]
    fn equal_cost_sets_spill_and_stay_sorted() {
        // A 6-ring with a doubled link 0–1: opposite routers have two
        // equal-cost next hops, and 0 → 1 has two parallel links.
        let ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 0)];
        let topo = single_as(6, &ring);
        assert_table_matches_reference(&topo);
        let igp = Igp::build(&topo);
        assert!(!igp.spill.is_empty());
        let across = igp.next_hops_toward(&topo, RouterId(0), RouterId(3));
        assert_eq!(
            across.iter().map(|h| h.1).collect::<Vec<_>>(),
            [RouterId(1), RouterId(1), RouterId(5)]
        );
        assert!(across[0].0 < across[1].0, "parallel links in link order");
        assert_eq!(
            igp.next_hops_toward(&topo, RouterId(0), RouterId(1)).len(),
            2
        );
        assert_eq!(
            igp.next_hops_toward(&topo, RouterId(2), RouterId(3)).len(),
            1
        );

        // Nearest-of-many: 2 and 4 are both two hops from 0, on opposite
        // sides; the union is every neighbour, each (link, neighbour) once.
        let both: Vec<_> = igp
            .next_hops_toward_nearest(AsId(0), RouterId(0), &[RouterId(2), RouterId(4)])
            .expect("reachable")
            .collect();
        assert_eq!(both, igp.adjacency(RouterId(0)));
        // A nearer target wins outright.
        let near: Vec<_> = igp
            .next_hops_toward_nearest(AsId(0), RouterId(0), &[RouterId(5), RouterId(3)])
            .expect("reachable")
            .collect();
        assert_eq!(near, igp.next_hops_toward(&topo, RouterId(0), RouterId(5)));
        assert!(igp
            .next_hops_toward_nearest(AsId(0), RouterId(0), &[])
            .is_none());
    }

    #[test]
    fn disconnected_routers_are_unreachable() {
        let topo = single_as(3, &[(0, 1)]);
        let igp = Igp::build(&topo);
        assert_eq!(igp.dist(&topo, RouterId(0), RouterId(2)), UNREACHABLE);
        assert!(igp
            .next_hops_toward(&topo, RouterId(0), RouterId(2))
            .is_empty());
        assert!(igp
            .next_hops_toward_nearest(AsId(0), RouterId(0), &[RouterId(2)])
            .is_none());
    }
}
