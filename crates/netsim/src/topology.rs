//! Static topology entities: ASes, routers, links, announced prefixes.
//!
//! The topology is immutable once generated (route *churn* re-rolls BGP
//! tie-breaks but never rewires the graph), so everything here is plain
//! indexed data with O(1)/O(log n) lookup helpers.

use crate::addr::{Addr, Prefix};
use crate::ids::{AsId, IdRange, LinkId, PrefixId, RouterId};
use plan::{LINK_SPACE_OFFSET, PREFIX_SPACE_OFFSET};

/// The address plan: where every router address sits, in generated and
/// hand-built topologies alike, and so where [`Topology::router_at`] finds
/// it. AS `i` owns the `i`-th /16 block from the topology's block base.
/// In it:
///
/// * /24 #0 holds the loopbacks: the AS's `i`-th router (in id order) at
///   `.1 + i`;
/// * link space, from [`LINK_SPACE_OFFSET`] up to the prefixes, holds the
///   /30s the AS numbers: its `k`-th link (in link id order) at
///   `LINK_SPACE_OFFSET + 4k`, `.1` on side `a` and `.2` on side `b`;
/// * prefix space, from [`PREFIX_SPACE_OFFSET`], holds the announced /24s.
///
/// Router `r`'s private alias is `10.0.0.0 + r`.
pub(crate) mod plan {
    use crate::addr::{Addr, Prefix};
    use crate::ids::RouterId;

    /// Offset (within an AS block) of the first /24 used for link /30s.
    pub(crate) const LINK_SPACE_OFFSET: u32 = 16 * 256;
    /// Offset of the first announced host /24: an AS's `j`-th prefix is
    /// the `j`-th /24 from here, which is where
    /// [`super::Topology::prefix_of`] looks.
    pub(crate) const PREFIX_SPACE_OFFSET: u32 = 128 * 256;
    /// Loopbacks /24 #0 holds: `.1` through `.255`.
    pub(crate) const LOOPBACKS: u32 = 255;
    /// /30s link space holds.
    pub(crate) const LINK_SLOTS: u32 = (PREFIX_SPACE_OFFSET - LINK_SPACE_OFFSET) / 4;
    /// Base of the private aliases.
    const PRIVATE_BASE: u32 = 10 << 24;

    /// Loopback of the `nth` router of the AS owning `block`.
    pub(crate) fn loopback(block: Prefix, nth: u32) -> Addr {
        assert!(nth < LOOPBACKS, "{block}: more routers than loopbacks");
        block.nth(1 + nth)
    }

    /// Private alias of router `r`.
    pub(crate) fn private_alias(r: RouterId) -> Addr {
        assert!(r.0 < 1 << 24, "{r}: past the private aliases");
        Addr(PRIVATE_BASE + r.0)
    }

    /// The router private alias `addr` names, if it is one (the router may
    /// not exist).
    pub(crate) fn alias_router(addr: Addr) -> Option<RouterId> {
        addr.is_private().then(|| RouterId(addr.0 - PRIVATE_BASE))
    }

    /// Sides `a` and `b` of the `nth` /30 the AS owning `block` numbers.
    pub(crate) fn link(block: Prefix, nth: u32) -> (Addr, Addr) {
        assert!(nth < LINK_SLOTS, "link address space exhausted in {block}");
        let base = block.nth(LINK_SPACE_OFFSET + 4 * nth);
        (Addr(base.0 + 1), Addr(base.0 + 2))
    }
}

/// Where an AS sits in the Internet hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AsTier {
    /// Settlement-free core; full peering clique among tier-1s.
    Tier1,
    /// Mid-tier transit provider.
    Transit,
    /// Edge/stub network (originates prefixes, provides no transit).
    Stub,
    /// National research & education network: small customer cone but wide
    /// peering; disproportionately present on asymmetric routes (§6.2).
    Nren,
}

/// Business relationship of a neighbor, from the perspective of the AS that
/// stores the entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rel {
    /// The neighbor sells us transit.
    Provider,
    /// The neighbor buys transit from us.
    Customer,
    /// Settlement-free peer.
    Peer,
}

impl Rel {
    /// The same relationship seen from the other side.
    pub fn flip(self) -> Rel {
        match self {
            Rel::Provider => Rel::Customer,
            Rel::Customer => Rel::Provider,
            Rel::Peer => Rel::Peer,
        }
    }
}

/// One AS-level adjacency, possibly realised by several physical links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// The adjacent AS.
    pub asn: AsId,
    /// Relationship of `asn` to the owning AS.
    pub rel: Rel,
    /// Physical inter-domain links realising the adjacency.
    pub links: IdRange<LinkId>,
}

/// An autonomous system. Its neighbours, routers and prefixes are runs of
/// the topology's tables ([`Topology::neighbors`], [`Topology::as_routers`],
/// [`Topology::as_prefixes`]).
#[derive(Clone, Debug)]
pub struct AsNode {
    /// Dense id.
    pub id: AsId,
    /// Hierarchy tier.
    pub tier: AsTier,
    /// The /16 allocation block all of this AS's public addresses come from.
    pub block: Prefix,
    /// True if hosts inside this AS cannot emit spoofed-source packets
    /// (uRPF-style filtering at the edge).
    pub spoof_filter: bool,
    /// True if this AS is a colocation/well-connected network eligible to
    /// host M-Lab-style vantage points.
    pub colo: bool,
    /// True for education stubs homed to an NREN (hosts some M-Lab sites).
    pub edu: bool,
    /// True if the AS backbone runs MPLS LSPs without TTL propagation:
    /// interior (non-border, non-attach) hops are invisible to traceroute
    /// and do not stamp RR options (§5.2.2's hidden tunnels).
    pub mpls: bool,
}

/// How a router stamps Record Route packets it forwards (§4.2, Appx. C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StampMode {
    /// Standard RFC 791 behaviour: stamp the outgoing interface.
    Egress,
    /// Stamp the incoming interface (what traceroute usually reveals).
    Ingress,
    /// Stamp the loopback address.
    Loopback,
    /// Stamp an RFC 1918 private address (unmappable to an AS).
    Private,
    /// Forward without stamping (invisible to RR).
    NoStamp,
}

/// A router. Its incident links are a run of the topology's router-links
/// table ([`Topology::router_links`]).
#[derive(Clone, Debug)]
pub struct Router {
    /// Dense id.
    pub id: RouterId,
    /// Owning AS.
    pub asn: AsId,
    /// Loopback address (from the owning AS's block).
    pub loopback: Addr,
    /// Private alias used when `stamp == StampMode::Private`.
    pub private_alias: Addr,
    /// RR stamping behaviour.
    pub stamp: StampMode,
    /// Responds to TTL-exceeded (visible in traceroute).
    pub ttl_responsive: bool,
    /// Answers unsolicited SNMPv3 with a stable engine id (used as reliable
    /// alias ground truth by the Table 2 methodology).
    pub snmp_responsive: bool,
    /// Processes the IP Timestamp option.
    pub ts_capable: bool,
    /// Balances option-carrying packets per-packet across equal-cost next
    /// hops (Appx. E).
    pub load_balancer: bool,
}

/// Link flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Both endpoints in the same AS.
    Intra(AsId),
    /// Interdomain link; the /30 is numbered from one side's block.
    Inter,
}

/// A point-to-point link between two routers, numbered as a /30.
#[derive(Clone, Debug)]
pub struct Link {
    /// Dense id.
    pub id: LinkId,
    /// First endpoint router.
    pub a: RouterId,
    /// Second endpoint router.
    pub b: RouterId,
    /// Interface address on `a` (in the same /30 as `addr_b`).
    pub addr_a: Addr,
    /// Interface address on `b`.
    pub addr_b: Addr,
    /// One-way propagation latency, in milliseconds.
    pub latency_ms: f64,
    /// Intra- or interdomain.
    pub kind: LinkKind,
}

impl Link {
    /// The router on the other end of the link from `r`.
    pub fn other(&self, r: RouterId) -> RouterId {
        if r == self.a {
            self.b
        } else {
            debug_assert_eq!(r, self.b);
            self.a
        }
    }

    /// Interface address of endpoint `r`.
    pub fn addr_of(&self, r: RouterId) -> Addr {
        if r == self.a {
            self.addr_a
        } else {
            debug_assert_eq!(r, self.b);
            self.addr_b
        }
    }
}

/// A BGP-announced destination prefix (always a /24 in the simulator).
#[derive(Clone, Debug)]
pub struct PrefixEntry {
    /// Dense id.
    pub id: PrefixId,
    /// The announced prefix.
    pub prefix: Prefix,
    /// Originating AS.
    pub owner: AsId,
    /// The router inside `owner` that hosts in this prefix attach to.
    pub attach: RouterId,
}

/// An M-Lab-style vantage point site: a spoof-capable host in a colo AS.
#[derive(Clone, Debug)]
pub struct VpSite {
    /// The site's host address (also a revtr source address).
    pub host: Addr,
    /// Hosting AS.
    pub asn: AsId,
    /// Attachment router.
    pub router: RouterId,
    /// True if the site existed in the "2016" VP set as well (used by the
    /// Fig. 11 longitudinal comparison).
    pub legacy_2016: bool,
}

/// The complete immutable topology.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// All ASes, indexed by [`AsId`].
    pub ases: Vec<AsNode>,
    /// All routers, indexed by [`RouterId`].
    pub routers: Vec<Router>,
    /// All links, indexed by [`LinkId`].
    pub links: Vec<Link>,
    /// All announced prefixes, indexed by [`PrefixId`], sorted by base addr.
    pub prefixes: Vec<PrefixEntry>,
    /// Vantage point sites.
    pub vp_sites: Vec<VpSite>,
    /// First /16 block base (blocks are consecutive per AS id).
    pub block_base: u32,
    /// AS index → start of its run in `owned_links` (one trailing entry,
    /// and one more run for links numbered in no AS's block): the links
    /// whose /30 the AS numbers, in id order, so the `k`-th is its `k`-th
    /// /30 of the address plan. Derived from the links.
    pub(crate) owned_link_off: Vec<u32>,
    pub(crate) owned_links: Vec<LinkId>,
    /// Router index → start of its run in `router_links` (one trailing
    /// entry). Derived from the links.
    pub(crate) router_link_off: Vec<u32>,
    pub(crate) router_links: Vec<LinkId>,
    /// AS index → start of its run in `neighbors` (one trailing entry).
    /// Derived from the adjacency list and the links.
    pub(crate) neighbor_off: Vec<u32>,
    pub(crate) neighbors: Vec<Neighbor>,
    /// AS index → its first router (one trailing entry): routers are
    /// numbered AS by AS. Derived from the routers.
    pub(crate) router_off: Vec<u32>,
    /// AS index → its first prefix (one trailing entry): prefixes are
    /// numbered AS by AS. Derived from the prefixes.
    pub(crate) prefix_off: Vec<u32>,
}

/// Owner index → start of its run (one trailing entry), and the runs back
/// to back, from `items` entries where entry `i` is `item(i)`, an `(owner,
/// value)` pair: one counting pass, then one filling pass, so each run
/// keeps its values in entry order. Two allocations, whatever the number
/// of owners. (Entries by index, not an iterator: a flattened iterator of
/// pairs ran five times slower here.)
pub fn runs<T: Copy>(
    owners: usize,
    items: usize,
    item: impl Fn(usize) -> (usize, T),
    fill: T,
) -> (Vec<u32>, Vec<T>) {
    let mut off = vec![0u32; owners + 1];
    for i in 0..items {
        off[item(i).0 + 1] += 1;
    }
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
    let mut table = vec![fill; items];
    // `off[o]` is `o`'s fill cursor, and ends at the start of `o + 1`.
    for i in 0..items {
        let (o, value) = item(i);
        table[off[o] as usize] = value;
        off[o] += 1;
    }
    off.copy_within(0..owners, 1);
    off[0] = 0;
    (off, table)
}

/// Fill `off` with each AS's first item (one trailing entry), for items
/// numbered AS by AS: `owners` yields each item's AS in id order. `off`
/// keeps its allocation.
fn owner_offsets(
    off: &mut Vec<u32>,
    n_ases: usize,
    owners: impl Iterator<Item = AsId>,
    what: &str,
) {
    off.clear();
    off.resize(n_ases + 1, 0);
    let mut last = 0;
    for (i, o) in owners.enumerate() {
        assert!(
            (last..n_ases).contains(&o.index()),
            "{what} must be numbered AS by AS"
        );
        last = o.index();
        off[last + 1] = i as u32 + 1;
    }
    // An AS with no items starts (and ends) where the one before it ends.
    for i in 1..off.len() {
        off[i] = off[i].max(off[i - 1]);
    }
}

impl Topology {
    /// Derive every index from the tables and `adjacencies` — `(a, b, rel
    /// of b to a)`, each AS pair at most once: each router's links, each
    /// AS's neighbours, routers, prefixes and owned /30s, and each
    /// adjacency's links. Called by the generator and by whoever builds a
    /// topology by hand.
    ///
    /// Routers and prefixes must be numbered AS by AS, and interdomain
    /// links adjacency by adjacency in the list's order, as the generator
    /// numbers them: each of these is then a range of ids, not a list.
    pub fn derive_indexes(&mut self, adjacencies: &[(AsId, AsId, Rel)]) {
        let n_ases = self.ases.len();
        let routers = self.routers.iter().map(|r| r.asn);
        owner_offsets(&mut self.router_off, n_ases, routers, "routers");
        let prefixes = self.prefixes.iter().map(|p| p.owner);
        owner_offsets(&mut self.prefix_off, n_ases, prefixes, "prefixes");
        // Both ends of each link in link id order, so each router's run
        // comes out sorted.
        let links = &self.links;
        let end = |i: usize| {
            let l = &links[i / 2];
            ([l.a, l.b][i % 2].index(), l.id)
        };
        (self.router_link_off, self.router_links) =
            runs(self.routers.len(), 2 * links.len(), end, LinkId(0));
        // Each link under the AS whose block numbers it, in id order; the
        // last run holds the links of no block, for the plan check to find.
        let owned = |i: usize| {
            let owner = self.block_owner(links[i].addr_a);
            (owner.map_or(n_ases, AsId::index), links[i].id)
        };
        (self.owned_link_off, self.owned_links) = runs(n_ases + 1, links.len(), owned, LinkId(0));
        // Each adjacency's links: one walk over the interdomain links beside
        // the adjacency list.
        let mut spans = vec![(0u32, 0u32); adjacencies.len()];
        let mut at = 0;
        for l in self.links.iter().filter(|l| l.kind == LinkKind::Inter) {
            let ends = [self.router_as(l.a), self.router_as(l.b)];
            let adjacent = |&(a, b, _): &(AsId, AsId, Rel)| ends == [a, b] || ends == [b, a];
            while at < adjacencies.len() && !adjacent(&adjacencies[at]) {
                at += 1;
            }
            assert!(
                at < adjacencies.len(),
                "{}: interdomain link of non-adjacent ASes, or out of the adjacency list's order",
                l.id
            );
            let span = &mut spans[at];
            if span.0 == span.1 {
                *span = (l.id.0, l.id.0);
            }
            assert_eq!(
                span.1, l.id.0,
                "{}–{}: an adjacency's links must be numbered consecutively",
                ends[0], ends[1]
            );
            span.1 += 1;
        }
        let entry = |asn, rel, (start, end)| Neighbor {
            asn,
            rel,
            links: IdRange::new(start, end),
        };
        let side = |i: usize| {
            let (a, b, rel) = adjacencies[i / 2];
            let links = spans[i / 2];
            [
                (a.index(), entry(b, rel, links)),
                (b.index(), entry(a, rel.flip(), links)),
            ][i % 2]
        };
        let fill = entry(AsId(0), Rel::Peer, (0, 0));
        (self.neighbor_off, self.neighbors) = runs(n_ases, 2 * adjacencies.len(), side, fill);
        for a in 0..n_ases {
            let run = self.neighbor_range(AsId(a as u32));
            let run = &mut self.neighbors[run];
            run.sort_unstable_by_key(|n| n.asn);
            assert!(
                run.windows(2).all(|w| w[0].asn < w[1].asn),
                "AS{a}: an adjacency listed twice"
            );
        }
    }

    fn neighbor_range(&self, asn: AsId) -> std::ops::Range<usize> {
        self.neighbor_off[asn.index()] as usize..self.neighbor_off[asn.index() + 1] as usize
    }

    /// Incident links of router `r`, sorted.
    #[inline]
    pub fn router_links(&self, r: RouterId) -> &[LinkId] {
        let off = &self.router_link_off[r.index()..r.index() + 2];
        &self.router_links[off[0] as usize..off[1] as usize]
    }

    /// AS-level adjacencies of `asn`, sorted by neighbour id.
    #[inline]
    pub fn neighbors(&self, asn: AsId) -> &[Neighbor] {
        &self.neighbors[self.neighbor_range(asn)]
    }

    /// Every AS's adjacencies back to back, AS by AS, each AS's as
    /// [`Topology::neighbors`] lists them: a table parallel to this one
    /// needs no offsets of its own.
    pub fn all_neighbors(&self) -> &[Neighbor] {
        &self.neighbors
    }

    /// Where `asn`'s `nbr`-th neighbour sits in [`Topology::all_neighbors`].
    #[inline]
    pub(crate) fn neighbor_slot(&self, asn: AsId, nbr: usize) -> usize {
        debug_assert!(nbr < self.neighbors(asn).len());
        self.neighbor_off[asn.index()] as usize + nbr
    }

    /// Routers belonging to `asn`.
    #[inline]
    pub fn as_routers(&self, asn: AsId) -> IdRange<RouterId> {
        IdRange::new(
            self.router_off[asn.index()],
            self.router_off[asn.index() + 1],
        )
    }

    /// Prefixes originated by `asn`.
    #[inline]
    pub fn as_prefixes(&self, asn: AsId) -> IdRange<PrefixId> {
        IdRange::new(
            self.prefix_off[asn.index()],
            self.prefix_off[asn.index() + 1],
        )
    }

    /// True if some neighbour buys transit from `asn`. An AS without
    /// customers passes no route on (see [`crate::bgp::RoutePlan`]).
    pub fn has_customers(&self, asn: AsId) -> bool {
        self.neighbors(asn).iter().any(|n| n.rel == Rel::Customer)
    }

    /// `asn`'s adjacency with `other`, if any.
    fn neighbor(&self, asn: AsId, other: AsId) -> Option<&Neighbor> {
        let run = self.neighbors(asn);
        let i = run.binary_search_by_key(&other, |n| n.asn).ok()?;
        Some(&run[i])
    }

    /// The relationship of `other` to `asn`, if adjacent.
    pub fn rel_with(&self, asn: AsId, other: AsId) -> Option<Rel> {
        self.neighbor(asn, other).map(|n| n.rel)
    }

    /// The physical links between `asn` and `other`, none if not adjacent.
    pub fn links_to(&self, asn: AsId, other: AsId) -> IdRange<LinkId> {
        self.neighbor(asn, other)
            .map_or(IdRange::new(0, 0), |n| n.links)
    }

    /// AS node by id.
    #[inline]
    pub fn asn(&self, id: AsId) -> &AsNode {
        &self.ases[id.index()]
    }

    /// Router by id.
    #[inline]
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// Link by id.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Prefix entry by id.
    #[inline]
    pub fn prefix(&self, id: PrefixId) -> &PrefixEntry {
        &self.prefixes[id.index()]
    }

    /// The router owning `addr` (interface, loopback, or private alias),
    /// if any.
    ///
    /// No search: the address plan (`topology::plan`) says which table a
    /// router address indexes, and `Sim::from_topology` refuses a topology
    /// whose router addresses are off it.
    pub fn router_at(&self, addr: Addr) -> Option<RouterId> {
        self.router_and_link_at(addr).map(|(router, _)| router)
    }

    /// The router owning `addr`, as [`Topology::router_at`] finds it, and
    /// the link whose interface `addr` is (`None` for a loopback or a
    /// private alias). The address plan names both at once.
    pub fn router_and_link_at(&self, addr: Addr) -> Option<(RouterId, Option<LinkId>)> {
        if let Some(r) = plan::alias_router(addr) {
            return (r.index() < self.routers.len()).then_some((r, None));
        }
        let owner = self.block_owner(addr)?;
        let offset = addr.0 & 0xFFFF;
        if offset < 256 {
            let nth = offset.checked_sub(1)?;
            return Some((self.as_routers(owner).get(nth as usize)?, None));
        }
        if offset >= PREFIX_SPACE_OFFSET {
            return None;
        }
        let nth = offset.checked_sub(LINK_SPACE_OFFSET)? / 4;
        let lid = *self.owned_links(owner).get(nth as usize)?;
        let link = self.link(lid);
        match offset % 4 {
            1 => Some((link.a, Some(lid))),
            2 => Some((link.b, Some(lid))),
            _ => None,
        }
    }

    /// True if every router address sits where the address plan
    /// ([`plan`]) puts it, in blocks where [`Topology::prefix_layout_holds`]
    /// puts them: then [`Topology::router_at`] finds each, and no address
    /// names two routers.
    pub(crate) fn address_plan_holds(&self) -> bool {
        let blocks = || {
            (0u32..).zip(&self.ases).all(|(i, a)| {
                a.id == AsId(i) && a.block == Prefix::new(Addr(self.block_base + (i << 16)), 16)
            })
        };
        let routers = || {
            (0u32..).zip(&self.routers).all(|(i, r)| {
                let nth = i - self.router_off[r.asn.index()];
                r.id == RouterId(i)
                    && nth < plan::LOOPBACKS
                    && r.loopback == plan::loopback(self.asn(r.asn).block, nth)
                    && i < 1 << 24
                    && r.private_alias == plan::private_alias(r.id)
            })
        };
        // Each link's /30 is its slot in its owner's link space, where the
        // owner's run lists it.
        let links = || {
            (0u32..).zip(&self.links).all(|(i, l)| {
                let Some(owner) = self.block_owner(l.addr_a) else {
                    return false;
                };
                let nth = (l.addr_a.0 & 0xFFFF).wrapping_sub(LINK_SPACE_OFFSET) / 4;
                l.id == LinkId(i)
                    && nth < plan::LINK_SLOTS
                    && self.owned_links(owner).get(nth as usize) == Some(&l.id)
                    && (l.addr_a, l.addr_b) == plan::link(self.asn(owner).block, nth)
            })
        };
        blocks() && routers() && links()
    }

    /// The links whose /30 `asn`'s block numbers, in id order.
    fn owned_links(&self, asn: AsId) -> &[LinkId] {
        let off = &self.owned_link_off[asn.index()..asn.index() + 2];
        &self.owned_links[off[0] as usize..off[1] as usize]
    }

    /// Every router address in an ordered map, filled routers first, then
    /// links (a repeated address would keep the last): the differential
    /// test holds [`Topology::router_at`] to it.
    #[cfg(test)]
    pub(crate) fn address_index_reference(&self) -> std::collections::BTreeMap<Addr, RouterId> {
        let mut map = std::collections::BTreeMap::new();
        for r in &self.routers {
            map.insert(r.loopback, r.id);
            map.insert(r.private_alias, r.id);
        }
        for l in &self.links {
            map.insert(l.addr_a, l.a);
            map.insert(l.addr_b, l.b);
        }
        map
    }

    /// The announced /24 containing `addr`, if any. Host addresses resolve
    /// here; infrastructure addresses do not.
    ///
    /// Two reads, no search: the /16 block names the AS, and the /24 within
    /// the block indexes that AS's run of prefixes — the layout the
    /// generator allocates and `Topology::prefix_layout_holds` checks.
    pub fn prefix_of(&self, addr: Addr) -> Option<PrefixId> {
        let owner = self.block_owner(addr)?;
        let run = (addr.0 & 0xFFFF).checked_sub(PREFIX_SPACE_OFFSET)? >> 8;
        self.as_prefixes(owner).get(run as usize)
    }

    /// True if every announced prefix sits where [`Topology::prefix_of`]
    /// looks for it: AS `i`'s block is the `i`-th /16 from `block_base`,
    /// and the `j`-th prefix it lists is the `j`-th /24 from
    /// `PREFIX_SPACE_OFFSET` in that block, owned by it.
    pub(crate) fn prefix_layout_holds(&self) -> bool {
        self.block_base & 0xFFFF == 0
            && (0u32..).zip(&self.ases).all(|(i, a)| {
                let block = Prefix::new(Addr(self.block_base + (i << 16)), 16);
                a.id == AsId(i)
                    && a.block == block
                    && (0u32..).zip(self.as_prefixes(a.id)).all(|(j, p)| {
                        let base = Addr(block.base.0 + PREFIX_SPACE_OFFSET + 256 * j);
                        block.contains(base)
                            && self.prefixes.get(p.index()).is_some_and(|pe| {
                                pe.id == p && pe.owner == a.id && pe.prefix == Prefix::new(base, 24)
                            })
                    })
            })
    }

    /// [`Topology::prefix_of`] as a search of the sorted prefix list, which
    /// assumes no layout: the differential test holds the two equal.
    #[cfg(test)]
    pub(crate) fn prefix_of_reference(&self, addr: Addr) -> Option<PrefixId> {
        let i = self.prefixes.partition_point(|p| p.prefix.base.0 <= addr.0);
        if i == 0 {
            return None;
        }
        let cand = &self.prefixes[i - 1];
        cand.prefix.contains(addr).then_some(cand.id)
    }

    /// The AS whose /16 allocation block contains `addr` (the "origin" an
    /// IP-to-AS database would report). Private space maps to `None`.
    pub fn block_owner(&self, addr: Addr) -> Option<AsId> {
        if addr.is_private() {
            return None;
        }
        let idx = (addr.0 >> 16).checked_sub(self.block_base >> 16)?;
        ((idx as usize) < self.ases.len()).then_some(AsId(idx))
    }

    /// The AS a given router truly belongs to.
    pub fn router_as(&self, r: RouterId) -> AsId {
        self.routers[r.index()].asn
    }

    /// Every address a router answers for: all interface addresses, the
    /// loopback, and the private alias. (Ground truth aliasing.)
    pub fn router_addrs(&self, r: RouterId) -> Vec<Addr> {
        let router = self.router(r);
        let mut out = vec![router.loopback, router.private_alias];
        for &l in self.router_links(r) {
            out.push(self.link(l).addr_of(r));
        }
        out
    }

    /// Iterate (neighbor AS, relationship) pairs of `asn`.
    pub fn as_neighbors(&self, asn: AsId) -> impl Iterator<Item = (AsId, Rel)> + '_ {
        self.neighbors(asn).iter().map(|n| (n.asn, n.rel))
    }

    /// Number of ASes.
    pub fn n_ases(&self) -> usize {
        self.ases.len()
    }

    /// Border routers of `asn` that have at least one link to `other`.
    pub fn border_routers_toward(&self, asn: AsId, other: AsId) -> Vec<RouterId> {
        let mut out = Vec::new();
        self.border_routers_of(asn, self.links_to(asn, other), &mut out);
        out
    }

    /// Replace `out` with the `asn`-side routers of `links` (interdomain
    /// links of `asn`), sorted, each once.
    pub(crate) fn border_routers_of(
        &self,
        asn: AsId,
        links: IdRange<LinkId>,
        out: &mut Vec<RouterId>,
    ) {
        out.clear();
        out.extend(links.iter().map(|l| {
            let link = self.link(l);
            if self.router_as(link.a) == asn {
                link.a
            } else {
                link.b
            }
        }));
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn rel_flip_is_involution() {
        for r in [Rel::Provider, Rel::Customer, Rel::Peer] {
            assert_eq!(r.flip().flip(), r);
        }
        assert_eq!(Rel::Provider.flip(), Rel::Customer);
        assert_eq!(Rel::Peer.flip(), Rel::Peer);
    }

    #[test]
    fn link_other_and_addr() {
        let l = Link {
            id: LinkId(0),
            a: RouterId(1),
            b: RouterId(2),
            addr_a: Addr::new(11, 0, 1, 1),
            addr_b: Addr::new(11, 0, 1, 2),
            latency_ms: 1.0,
            kind: LinkKind::Inter,
        };
        assert_eq!(l.other(RouterId(1)), RouterId(2));
        assert_eq!(l.other(RouterId(2)), RouterId(1));
        assert_eq!(l.addr_of(RouterId(1)), Addr::new(11, 0, 1, 1));
        assert_eq!(l.addr_of(RouterId(2)), Addr::new(11, 0, 1, 2));
    }

    /// `n` ASes from 11.0.0.0, AS `i` announcing `runs[i]` prefixes laid
    /// out as the generator lays them out.
    fn blocks(runs: &[u32]) -> Topology {
        let mut topo = Topology {
            block_base: Addr::new(11, 0, 0, 0).0,
            ..Default::default()
        };
        for (i, &run) in (0u32..).zip(runs) {
            let block = Prefix::new(Addr(topo.block_base + (i << 16)), 16);
            for j in 0..run {
                let id = PrefixId(topo.prefixes.len() as u32);
                let base = Addr(block.base.0 + PREFIX_SPACE_OFFSET + 256 * j);
                topo.prefixes.push(PrefixEntry {
                    id,
                    prefix: Prefix::new(base, 24),
                    owner: AsId(i),
                    attach: RouterId(0),
                });
            }
            topo.ases.push(AsNode {
                id: AsId(i),
                tier: AsTier::Stub,
                block,
                spoof_filter: false,
                colo: false,
                edu: false,
                mpls: false,
            });
        }
        topo.derive_indexes(&[]);
        topo
    }

    #[test]
    fn prefix_of_reads_the_block_run() {
        let mut topo = blocks(&[1, 2, 1]);
        assert!(topo.prefix_layout_holds());
        assert_eq!(topo.prefix_of(Addr::new(11, 1, 128, 77)), Some(PrefixId(1)));
        assert_eq!(topo.prefix_of(Addr::new(11, 1, 129, 0)), Some(PrefixId(2)));
        assert_eq!(topo.prefix_of(Addr::new(11, 1, 130, 0)), None);
        assert_eq!(topo.prefix_of(Addr::new(11, 1, 127, 255)), None);
        assert_eq!(topo.prefix_of(Addr::new(10, 0, 0, 1)), None);
        assert_eq!(topo.prefix_of(Addr::new(11, 3, 128, 1)), None);
        assert_eq!(
            topo.prefix_of(Addr::new(11, 2, 128, 255)),
            Some(PrefixId(3))
        );
        // Any prefix moved off its place breaks the layout.
        topo.prefixes[2].prefix = Prefix::new(Addr::new(11, 1, 140, 0), 24);
        assert!(!topo.prefix_layout_holds());
        // So do an AS's prefixes out of their order...
        let mut topo = blocks(&[1, 2, 1]);
        let (p1, p2) = (topo.prefixes[1].prefix, topo.prefixes[2].prefix);
        (topo.prefixes[1].prefix, topo.prefixes[2].prefix) = (p2, p1);
        assert!(!topo.prefix_layout_holds());
        // ...and a prefix owned by an AS whose block does not hold it.
        let mut topo = blocks(&[1, 2, 1]);
        topo.prefixes[3].owner = AsId(1);
        topo.derive_indexes(&[]);
        assert!(!topo.prefix_layout_holds());
    }

    #[test]
    fn block_owner_math() {
        let topo = blocks(&[0, 0]);
        assert_eq!(topo.block_owner(Addr::new(11, 0, 5, 5)), Some(AsId(0)));
        assert_eq!(topo.block_owner(Addr::new(11, 1, 200, 1)), Some(AsId(1)));
        assert_eq!(topo.block_owner(Addr::new(11, 2, 0, 1)), None);
        assert_eq!(topo.block_owner(Addr::new(10, 1, 1, 1)), None);
    }

    /// Every address of every AS block, every router address (private
    /// aliases included) and unallocated space on both sides of the blocks:
    /// the O(1) `prefix_of` answers as the search does.
    fn prefix_of_matches_the_search(cfg: crate::config::SimConfig, seed: u64) {
        let topo = crate::gen::generate(&cfg, seed);
        assert!(topo.prefix_layout_holds());
        let check = |addr: Addr| {
            assert_eq!(
                topo.prefix_of(addr),
                topo.prefix_of_reference(addr),
                "seed {seed}: {addr}"
            );
        };
        let mut hosts = 0;
        for a in &topo.ases {
            for addr in (a.block.base.0..=a.block.last().0).map(Addr) {
                check(addr);
                hosts += usize::from(topo.prefix_of(addr).is_some());
            }
        }
        assert_eq!(hosts, 256 * topo.prefixes.len(), "seed {seed}");
        let routers = topo.routers.iter();
        routers
            .flat_map(|r| topo.router_addrs(r.id))
            .for_each(check);
        let end = topo.block_base + ((topo.ases.len() as u32) << 16);
        let outside = (topo.block_base - 0x1_0000..topo.block_base).chain(end..end + 0x1_0000);
        outside.chain([0, u32::MAX]).map(Addr).for_each(check);
    }

    #[test]
    fn prefix_of_matches_the_search_on_tiny() {
        for seed in [1, 7, 42] {
            prefix_of_matches_the_search(crate::config::SimConfig::tiny(), seed);
        }
    }

    /// 90 million addresses: run in release (ci.sh does).
    #[test]
    #[ignore]
    fn prefix_of_matches_the_search_on_era_2020() {
        prefix_of_matches_the_search(crate::config::SimConfig::era_2020(), 1);
    }

    /// `router_at` answers as the ordered reference does on every router
    /// address (loopback, private alias, both ends of every link), and
    /// `None` on hosts, network addresses, unallocated and non-alias
    /// private space.
    pub(crate) fn router_at_matches_the_reference(topo: &Topology) {
        let reference = topo.address_index_reference();
        for r in &topo.routers {
            for addr in topo.router_addrs(r.id) {
                let want = reference.get(&addr).copied();
                assert!(want.is_some(), "{addr} of {} missing", r.id);
                assert_eq!(topo.router_at(addr), want, "{addr}");
            }
        }
        let end = topo.block_base + ((topo.ases.len() as u32) << 16);
        let hosts = (topo.prefixes.iter()).flat_map(|p| [p.prefix.nth(1), p.prefix.last()]);
        let networks = (topo.prefixes.iter().map(|p| p.prefix.base))
            .chain(topo.ases.iter().map(|a| a.block.base));
        let unallocated = [Addr(end), Addr(end + 0x1_0101), Addr(0), Addr(u32::MAX)];
        let private = [
            Addr((10 << 24) | topo.routers.len() as u32),
            Addr::new(10, 255, 255, 255),
        ];
        for addr in hosts.chain(networks).chain(unallocated).chain(private) {
            assert_eq!(reference.get(&addr), None, "{addr} is a router address");
            assert_eq!(topo.router_at(addr), None, "{addr}");
        }
    }

    #[test]
    fn router_at_matches_the_reference_on_generated() {
        for seed in [1, 7, 42] {
            let topo = crate::gen::generate(&crate::config::SimConfig::tiny(), seed);
            assert!(topo.address_plan_holds(), "seed {seed}");
            router_at_matches_the_reference(&topo);
        }
        let topo = crate::gen::generate(&crate::config::SimConfig::era_2020(), 1);
        assert!(topo.address_plan_holds());
        router_at_matches_the_reference(&topo);
    }

    /// Every derived run against a naive rebuild into ordered maps: each
    /// router's links and each adjacency's links pushed in link id order,
    /// each AS's neighbours keyed by id from `adjacencies`, its routers and
    /// prefixes pushed in id order.
    fn derived_runs_match_the_naive_rebuild(topo: &Topology, adjacencies: &[(AsId, AsId, Rel)]) {
        use std::collections::BTreeMap;
        let mut router_links: BTreeMap<RouterId, Vec<LinkId>> = BTreeMap::new();
        let mut neighbors: BTreeMap<AsId, BTreeMap<AsId, (Rel, Vec<LinkId>)>> = BTreeMap::new();
        let mut routers: BTreeMap<AsId, Vec<RouterId>> = BTreeMap::new();
        let mut prefixes: BTreeMap<AsId, Vec<PrefixId>> = BTreeMap::new();
        for &(a, b, rel) in adjacencies {
            neighbors.entry(a).or_default().insert(b, (rel, vec![]));
            neighbors
                .entry(b)
                .or_default()
                .insert(a, (rel.flip(), vec![]));
        }
        for l in &topo.links {
            router_links.entry(l.a).or_default().push(l.id);
            router_links.entry(l.b).or_default().push(l.id);
            if l.kind == LinkKind::Inter {
                let (x, y) = (topo.router_as(l.a), topo.router_as(l.b));
                for (me, other) in [(x, y), (y, x)] {
                    let nb = neighbors.get_mut(&me).and_then(|run| run.get_mut(&other));
                    nb.expect("adjacent").1.push(l.id);
                }
            }
        }
        for r in &topo.routers {
            routers.entry(r.asn).or_default().push(r.id);
        }
        for p in &topo.prefixes {
            prefixes.entry(p.owner).or_default().push(p.id);
        }
        for r in &topo.routers {
            let want = router_links.get(&r.id).map_or(&[][..], |l| &l[..]);
            assert_eq!(topo.router_links(r.id), want, "{}", r.id);
        }
        for a in &topo.ases {
            let got: Vec<_> = (topo.neighbors(a.id).iter())
                .map(|n| (n.asn, n.rel, n.links.iter().collect::<Vec<_>>()))
                .collect();
            let want: Vec<_> = (neighbors.get(&a.id).into_iter().flatten())
                .map(|(&b, (rel, links))| (b, *rel, links.clone()))
                .collect();
            assert_eq!(got, want, "{}", a.id);
            let got: Vec<_> = topo.as_routers(a.id).iter().collect();
            assert_eq!(&got, routers.get(&a.id).unwrap_or(&vec![]), "{}", a.id);
            let got: Vec<_> = topo.as_prefixes(a.id).iter().collect();
            assert_eq!(&got, prefixes.get(&a.id).unwrap_or(&vec![]), "{}", a.id);
            for (b, (rel, links)) in neighbors.get(&a.id).into_iter().flatten() {
                assert_eq!(topo.rel_with(a.id, *b), Some(*rel));
                assert_eq!(&topo.links_to(a.id, *b).iter().collect::<Vec<_>>(), links);
            }
        }
        let slots =
            (topo.ases.iter()).flat_map(|a| (0..topo.neighbors(a.id).len()).map(|nbr| (a.id, nbr)));
        for (i, (asn, nbr)) in slots.enumerate() {
            assert_eq!(topo.neighbor_slot(asn, nbr), i);
            assert_eq!(topo.all_neighbors()[i], topo.neighbors(asn)[nbr]);
        }
    }

    #[test]
    fn derived_runs_match_the_naive_rebuild_on_generated() {
        let cfgs = [1, 7, 42].map(|seed| (crate::config::SimConfig::tiny(), seed));
        for (cfg, seed) in cfgs
            .into_iter()
            .chain([(crate::config::SimConfig::era_2020(), 1)])
        {
            let (topo, adjacencies) = crate::gen::generate_listing(&cfg, seed);
            derived_runs_match_the_naive_rebuild(&topo, &adjacencies);
        }
    }

    #[test]
    fn derived_runs_match_the_naive_rebuild_on_hand_built() {
        let adjacencies = (crate::bgp::tests::EDGE_CASE_ADJACENCIES.iter())
            .map(|&(a, b, rel)| (AsId(a), AsId(b), rel))
            .collect::<Vec<_>>();
        derived_runs_match_the_naive_rebuild(&crate::bgp::tests::edge_case_graph(), &adjacencies);
        let ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 0)];
        derived_runs_match_the_naive_rebuild(&crate::igp::tests::single_as(6, &ring), &[]);
    }

    /// An adjacency's links are found by walking the interdomain links
    /// beside the adjacency list, so links out of its order are refused.
    #[test]
    #[should_panic(expected = "out of the adjacency list's order")]
    fn interdomain_links_out_of_the_adjacency_lists_order_are_refused() {
        let mut topo = crate::bgp::tests::edge_case_graph();
        let adjacencies = (crate::bgp::tests::EDGE_CASE_ADJACENCIES.iter().rev())
            .map(|&(a, b, rel)| (AsId(a), AsId(b), rel))
            .collect::<Vec<_>>();
        topo.derive_indexes(&adjacencies);
    }

    /// Hand-built topologies take their addresses from the address plan
    /// as the generator does, so `router_at` serves them alike.
    #[test]
    fn router_at_matches_the_reference_on_hand_built() {
        let ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 0)];
        let topos = [
            crate::bgp::tests::edge_case_graph(),
            crate::igp::tests::single_as(6, &ring),
        ];
        for topo in &topos {
            assert!(topo.address_plan_holds());
            router_at_matches_the_reference(topo);
        }
    }

    /// Every address from `10.0.0.0` (the private aliases) through the /16
    /// past the last era-2020 AS block, walked in order beside the
    /// reference's keys: 107 million addresses, run in release (ci.sh
    /// does).
    #[test]
    #[ignore]
    fn router_at_matches_the_reference_on_every_era_2020_address() {
        let topo = crate::gen::generate(&crate::config::SimConfig::era_2020(), 1);
        let reference = topo.address_index_reference();
        let mut keys = reference.iter().peekable();
        let end = topo.block_base + ((topo.ases.len() as u32) << 16);
        for addr in ((10 << 24)..end + 0x1_0000).map(Addr) {
            let want = keys.next_if(|&(&k, _)| k == addr).map(|(_, &r)| r);
            assert_eq!(topo.router_at(addr), want, "{addr}");
        }
        assert!(keys.next().is_none(), "router addresses outside the sweep");
    }
}
