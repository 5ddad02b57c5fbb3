//! Static topology entities: ASes, routers, links, announced prefixes.
//!
//! The topology is immutable once generated (route *churn* re-rolls BGP
//! tie-breaks but never rewires the graph), so everything here is plain
//! indexed data with O(1)/O(log n) lookup helpers.

use crate::addr::{Addr, Prefix};
use crate::ids::{AsId, LinkId, PrefixId, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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
    pub(crate) addr_to_router: HashMap<Addr, RouterId>,
}

impl Topology {
    /// Rebuild the address index (interfaces, loopbacks, private aliases).
    /// Called by the generator and after deserialization.
    pub fn rebuild_address_index(&mut self) {
        let mut map = HashMap::new();
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

    /// Serialize the full topology to JSON (for archival / sharing a
    /// generated Internet between runs).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("topology serializes")
    }

    /// Load a topology from JSON, rebuilding the address index.
    pub fn from_json(json: &str) -> Result<Topology, serde_json::Error> {
        let mut t: Topology = serde_json::from_str(json)?;
        t.rebuild_address_index();
        Ok(t)
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

    /// The announced /24 containing `addr`, if any. Host addresses resolve
    /// here; infrastructure addresses do not.
    pub fn prefix_of(&self, addr: Addr) -> Option<PrefixId> {
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
mod tests {
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

    #[test]
    fn prefix_of_binary_search() {
        let mk = |i: u32, base: Addr| PrefixEntry {
            id: PrefixId(i),
            prefix: Prefix::new(base, 24),
            owner: AsId(0),
            attach: RouterId(0),
        };
        let topo = Topology {
            prefixes: vec![
                mk(0, Addr::new(11, 0, 128, 0)),
                mk(1, Addr::new(11, 1, 128, 0)),
                mk(2, Addr::new(11, 2, 128, 0)),
            ],
            ..Default::default()
        };
        assert_eq!(topo.prefix_of(Addr::new(11, 1, 128, 77)), Some(PrefixId(1)));
        assert_eq!(topo.prefix_of(Addr::new(11, 1, 129, 0)), None);
        assert_eq!(topo.prefix_of(Addr::new(10, 0, 0, 1)), None);
        assert_eq!(
            topo.prefix_of(Addr::new(11, 2, 128, 255)),
            Some(PrefixId(2))
        );
    }

    #[test]
    fn block_owner_math() {
        let topo = Topology {
            ases: vec![
                AsNode {
                    id: AsId(0),
                    tier: AsTier::Stub,
                    neighbors: vec![],
                    routers: vec![],
                    prefixes: vec![],
                    block: Prefix::new(Addr::new(11, 0, 0, 0), 16),
                    spoof_filter: false,
                    colo: false,
                    edu: false,
                    mpls: false,
                },
                AsNode {
                    id: AsId(1),
                    tier: AsTier::Stub,
                    neighbors: vec![],
                    routers: vec![],
                    prefixes: vec![],
                    block: Prefix::new(Addr::new(11, 1, 0, 0), 16),
                    spoof_filter: false,
                    colo: false,
                    edu: false,
                    mpls: false,
                },
            ],
            block_base: Addr::new(11, 0, 0, 0).0,
            ..Default::default()
        };
        assert_eq!(topo.block_owner(Addr::new(11, 0, 5, 5)), Some(AsId(0)));
        assert_eq!(topo.block_owner(Addr::new(11, 1, 200, 1)), Some(AsId(1)));
        assert_eq!(topo.block_owner(Addr::new(11, 2, 0, 1)), None);
        assert_eq!(topo.block_owner(Addr::new(10, 1, 1, 1)), None);
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::gen::generate;

    #[test]
    fn topology_json_roundtrip_preserves_everything() {
        let t = generate(&SimConfig::tiny(), 12);
        let json = t.to_json();
        let t2 = Topology::from_json(&json).expect("valid json");
        assert_eq!(t.ases.len(), t2.ases.len());
        assert_eq!(t.routers.len(), t2.routers.len());
        assert_eq!(t.links.len(), t2.links.len());
        assert_eq!(t.prefixes.len(), t2.prefixes.len());
        assert_eq!(t.vp_sites.len(), t2.vp_sites.len());
        // The rebuilt address index answers identically.
        for l in t.links.iter().take(50) {
            assert_eq!(t2.router_at(l.addr_a), Some(l.a));
            assert_eq!(t2.router_at(l.addr_b), Some(l.b));
        }
        for r in t.routers.iter().take(50) {
            assert_eq!(t2.router_at(r.loopback), Some(r.id));
        }
    }

    #[test]
    fn loaded_topology_drives_a_sim() {
        let cfg = SimConfig::tiny();
        let t = generate(&cfg, 12);
        let json = t.to_json();
        let t2 = Topology::from_json(&json).expect("valid json");
        let sim = crate::sim::Sim::from_topology(t2, cfg, 12);
        let a = sim.topo().vp_sites[0].host;
        let b = sim.topo().vp_sites[1].host;
        assert!(sim.ping(a, b).is_some());
    }
}
