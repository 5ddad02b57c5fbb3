//! Static topology entities: ASes, routers, links, announced prefixes.
//!
//! The topology is immutable once generated (route *churn* re-rolls BGP
//! tie-breaks but never rewires the graph), so everything here is plain
//! indexed data with O(1)/O(log n) lookup helpers.

use crate::addr::{Addr, Prefix};
use crate::gen::PREFIX_SPACE_OFFSET;
use crate::ids::{AsId, LinkId, PrefixId, RouterId};
use revtr_telemetry::WordHasher;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// addr → router. Keyed by addresses the generator (or a test) numbered,
/// never by outside input: a word hash is enough.
type AddrIndex = HashMap<Addr, RouterId, BuildHasherDefault<WordHasher>>;

/// Where an AS sits in the Internet hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Neighbor {
    /// The adjacent AS.
    pub asn: AsId,
    /// Relationship of `asn` to the owning AS.
    pub rel: Rel,
    /// Physical inter-domain links realising the adjacency.
    pub links: Vec<LinkId>,
}

/// An autonomous system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsNode {
    /// Dense id.
    pub id: AsId,
    /// Hierarchy tier.
    pub tier: AsTier,
    /// AS-level adjacencies, sorted by neighbor id.
    pub neighbors: Vec<Neighbor>,
    /// Routers belonging to this AS.
    pub routers: Vec<RouterId>,
    /// Prefixes originated by this AS.
    pub prefixes: Vec<PrefixId>,
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

impl AsNode {
    /// True if some neighbour buys transit from this AS. An AS without
    /// customers passes no route on (see [`crate::bgp::RoutePlan`]).
    pub fn has_customers(&self) -> bool {
        self.neighbors.iter().any(|n| n.rel == Rel::Customer)
    }

    /// Look up the relationship with `other`, if adjacent.
    pub fn rel_with(&self, other: AsId) -> Option<Rel> {
        self.neighbors
            .binary_search_by_key(&other, |n| n.asn)
            .ok()
            .map(|i| self.neighbors[i].rel)
    }

    /// The physical links toward `other`, empty slice if not adjacent.
    pub fn links_to(&self, other: AsId) -> &[LinkId] {
        match self.neighbors.binary_search_by_key(&other, |n| n.asn) {
            Ok(i) => &self.neighbors[i].links,
            Err(_) => &[],
        }
    }
}

/// How a router stamps Record Route packets it forwards (§4.2, Appx. C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// A router.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
    /// Incident links, sorted.
    pub links: Vec<LinkId>,
}

/// Link flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkKind {
    /// Both endpoints in the same AS.
    Intra(AsId),
    /// Interdomain link; the /30 is numbered from one side's block.
    Inter,
}

/// A point-to-point link between two routers, numbered as a /30.
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
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
    /// addr → router, for every interface / loopback / private alias.
    /// Rebuilt on deserialization (JSON maps need string keys).
    #[serde(skip)]
    pub(crate) addr_to_router: AddrIndex,
}

impl Topology {
    /// Rebuild the address index (interfaces, loopbacks, private aliases).
    /// Called by the generator and after deserialization.
    ///
    /// One table, sized once to its entries, for generated, loaded and
    /// hand-built topologies alike (hand-built ones number loopbacks inside
    /// link space, so no block arithmetic stands in for it). Filled routers
    /// first, then links: an address listed twice resolves to the last.
    pub fn rebuild_address_index(&mut self) {
        let entries = 2 * (self.routers.len() + self.links.len());
        let mut map = AddrIndex::with_capacity_and_hasher(entries, Default::default());
        for r in &self.routers {
            map.insert(r.loopback, r.id);
            map.insert(r.private_alias, r.id);
        }
        for l in &self.links {
            map.insert(l.addr_a, l.a);
            map.insert(l.addr_b, l.b);
        }
        self.addr_to_router = map;
    }

    /// Serialize the full topology to JSON (the generator's golden digest).
    #[cfg(test)]
    pub(crate) fn to_json(&self) -> String {
        serde_json::to_string(self).expect("topology serializes")
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
    pub fn router_at(&self, addr: Addr) -> Option<RouterId> {
        self.addr_to_router.get(&addr).copied()
    }

    /// The address index as an ordered map filled in the index's own order
    /// (routers, then links; a repeated address keeps the last): the
    /// differential test holds [`Topology::router_at`] to it.
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
        let owner = self.asn(self.block_owner(addr)?);
        let run = (addr.0 & 0xFFFF).checked_sub(PREFIX_SPACE_OFFSET)? >> 8;
        owner.prefixes.get(run as usize).copied()
    }

    /// True if every announced prefix sits where [`Topology::prefix_of`]
    /// looks for it: AS `i`'s block is the `i`-th /16 from `block_base`,
    /// and the `j`-th prefix it lists is the `j`-th /24 from
    /// `PREFIX_SPACE_OFFSET` in that block, owned by it; and every prefix
    /// is listed by exactly one AS.
    pub(crate) fn prefix_layout_holds(&self) -> bool {
        let listed: usize = self.ases.iter().map(|a| a.prefixes.len()).sum();
        listed == self.prefixes.len()
            && self.block_base & 0xFFFF == 0
            && (0u32..).zip(&self.ases).all(|(i, a)| {
                let block = Prefix::new(Addr(self.block_base + (i << 16)), 16);
                a.id == AsId(i)
                    && a.block == block
                    && (0u32..).zip(&a.prefixes).all(|(j, &p)| {
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
        for &l in &router.links {
            out.push(self.link(l).addr_of(r));
        }
        out
    }

    /// Iterate (neighbor AS, relationship) pairs of `asn`.
    pub fn as_neighbors(&self, asn: AsId) -> impl Iterator<Item = (AsId, Rel)> + '_ {
        self.asn(asn).neighbors.iter().map(|n| (n.asn, n.rel))
    }

    /// Number of ASes.
    pub fn n_ases(&self) -> usize {
        self.ases.len()
    }

    /// Border routers of `asn` that have at least one link to `other`.
    pub fn border_routers_toward(&self, asn: AsId, other: AsId) -> Vec<RouterId> {
        let mut out = Vec::new();
        self.border_routers_of(asn, self.asn(asn).links_to(other), &mut out);
        out
    }

    /// Replace `out` with the `asn`-side routers of `links` (interdomain
    /// links of `asn`), sorted, each once.
    pub(crate) fn border_routers_of(&self, asn: AsId, links: &[LinkId], out: &mut Vec<RouterId>) {
        out.clear();
        out.extend(links.iter().map(|&l| {
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
            let mut prefixes = Vec::new();
            for j in 0..run {
                let id = PrefixId(topo.prefixes.len() as u32);
                let base = Addr(block.base.0 + PREFIX_SPACE_OFFSET + 256 * j);
                topo.prefixes.push(PrefixEntry {
                    id,
                    prefix: Prefix::new(base, 24),
                    owner: AsId(i),
                    attach: RouterId(0),
                });
                prefixes.push(id);
            }
            topo.ases.push(AsNode {
                id: AsId(i),
                tier: AsTier::Stub,
                neighbors: vec![],
                routers: vec![],
                prefixes,
                block,
                spoof_filter: false,
                colo: false,
                edu: false,
                mpls: false,
            });
        }
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
        let mut topo = blocks(&[1, 2, 1]);
        topo.ases[1].prefixes.swap(0, 1);
        assert!(!topo.prefix_layout_holds());
        let mut topo = blocks(&[1, 2, 1]);
        topo.ases[2].prefixes.clear();
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
            router_at_matches_the_reference(&topo);
        }
        let topo = crate::gen::generate(&crate::config::SimConfig::era_2020(), 1);
        router_at_matches_the_reference(&topo);
    }

    /// Hand-built topologies number loopbacks inside the generator's link
    /// space; the one index serves them as it serves generated ones.
    #[test]
    fn router_at_matches_the_reference_on_hand_built() {
        router_at_matches_the_reference(&crate::bgp::tests::edge_case_graph());
        let ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 0)];
        router_at_matches_the_reference(&crate::igp::tests::single_as(6, &ring));
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
