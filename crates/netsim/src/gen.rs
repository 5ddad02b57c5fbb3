//! Deterministic topology generation.
//!
//! The generator builds a hierarchical AS graph (tier-1 clique, transit,
//! NREN, stub), realises each AS-level adjacency with physical router-level
//! links numbered as /30s, allocates the address plan described in
//! [`crate::addr`], and places M-Lab-style vantage point sites.
//!
//! Everything is a pure function of `(SimConfig, seed)`.

use crate::addr::{Addr, Prefix};
use crate::config::SimConfig;
use crate::ids::{AsId, LinkId, PrefixId, RouterId};
use crate::topology::plan::{self, PREFIX_SPACE_OFFSET};
use crate::topology::{
    AsNode, AsTier, Link, LinkKind, PrefixEntry, Rel, Router, StampMode, Topology, VpSite,
};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Base of the public allocation space: AS `i` owns `11.0.0.0 + i·2^16 /16`.
pub const BLOCK_BASE: u32 = 11 << 24;

/// Generate a complete topology from a configuration and seed.
pub fn generate(cfg: &SimConfig, seed: u64) -> Topology {
    Builder::new(cfg, seed).build().0
}

/// [`generate`], and the adjacency list its indexes were derived from.
#[cfg(test)]
pub(crate) fn generate_listing(cfg: &SimConfig, seed: u64) -> (Topology, Vec<(AsId, AsId, Rel)>) {
    Builder::new(cfg, seed).build()
}

/// Turn `(a, b, rel of b to a)` entries into one entry per AS pair, sorted
/// by `(a, b)` with `a < b`: each entry is oriented (flipping `rel`), a
/// stable sort keeps a pair's entries in the order they were added, and the
/// first of them wins.
fn dedup_adjacencies(adjacencies: &mut Vec<(AsId, AsId, Rel)>) {
    for adj in adjacencies.iter_mut() {
        if adj.0 > adj.1 {
            *adj = (adj.1, adj.0, adj.2.flip());
        }
    }
    adjacencies.sort_by_key(|&(a, b, _)| (a, b));
    adjacencies.dedup_by_key(|&mut (a, b, _)| (a, b));
}

/// Core routers of an AS of `n` routers: a full mesh, with every other
/// router hanging off one of them.
fn n_core(n: usize) -> usize {
    match n {
        0..=5 => 1,
        6..=8 => 2,
        _ => 3,
    }
    .min(n)
}

struct Builder<'c> {
    cfg: &'c SimConfig,
    rng: StdRng,
    topo: Topology,
    /// Per-AS count of the link /30s it has numbered.
    link_cursor: Vec<u32>,
    /// AS-level adjacency accumulator: (a, b, rel of b to a).
    adjacencies: Vec<(AsId, AsId, Rel)>,
}

impl<'c> Builder<'c> {
    fn new(cfg: &'c SimConfig, seed: u64) -> Self {
        Builder {
            cfg,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_7090_1091_c0de),
            topo: Topology {
                block_base: BLOCK_BASE,
                ..Default::default()
            },
            link_cursor: Vec::new(),
            adjacencies: Vec::new(),
        }
    }

    /// One-`f64` Bernoulli draw: unlike `gen_bool`, consumes the same
    /// amount of randomness for every probability, so topologies built
    /// with different behaviour *rates* (but the same seed) stay
    /// structurally identical — a property several A/B tests rely on.
    fn draw(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }

    fn build(mut self) -> (Topology, Vec<(AsId, AsId, Rel)>) {
        self.create_ases();
        self.create_relationships();
        self.create_routers();
        self.create_intra_links();
        self.create_inter_links();
        self.create_prefixes();
        self.place_vp_sites();
        self.topo.derive_indexes(&self.adjacencies);
        (self.topo, self.adjacencies)
    }

    // ---- ASes -----------------------------------------------------------

    fn create_ases(&mut self) {
        let t = &self.cfg.topology;
        let total = t.total_ases();
        assert!(total > 0, "empty topology");
        assert!(
            total <= 60_000,
            "too many ASes for the /16-per-AS address plan"
        );
        let mut tiers = Vec::with_capacity(total);
        tiers.extend(std::iter::repeat_n(AsTier::Tier1, t.n_tier1));
        tiers.extend(std::iter::repeat_n(AsTier::Transit, t.n_transit));
        tiers.extend(std::iter::repeat_n(AsTier::Nren, t.n_nren));
        tiers.extend(std::iter::repeat_n(AsTier::Stub, t.n_stub));

        // Colocation ASes: a random subset of transits. Never spoof-filter.
        let transit_range: Vec<usize> = (t.n_tier1..t.n_tier1 + t.n_transit).collect();
        let colo: Vec<usize> = transit_range
            .choose_multiple(&mut self.rng, t.n_colo.min(t.n_transit))
            .copied()
            .collect();
        let mut is_colo = vec![false; total];
        for i in colo {
            is_colo[i] = true;
        }

        // Education stubs: the first slice of stub ids (deterministic), homed
        // to NRENs below. Roughly 6 per NREN, capped to a quarter of stubs.
        let n_edu = (t.n_nren * 6).min(t.n_stub / 4);
        let stub_start = t.n_tier1 + t.n_transit + t.n_nren;

        for (i, &tier) in tiers.iter().enumerate() {
            let colo = is_colo[i];
            let edu = tier == AsTier::Stub && i - stub_start < n_edu;
            // Colo and education networks host measurement platforms and
            // permit spoofing by agreement (M-Lab's hosting requirements).
            let spoof_filter = match tier {
                AsTier::Tier1 => false,
                _ if colo || edu => false,
                _ => self.draw(self.cfg.behavior.as_spoof_filter),
            };
            // MPLS backbones are a transit/tier-1 phenomenon.
            let mpls = matches!(tier, AsTier::Transit | AsTier::Tier1)
                && self.draw(self.cfg.behavior.as_mpls);
            self.topo.ases.push(AsNode {
                id: AsId(i as u32),
                tier,
                block: Prefix::new(Addr(BLOCK_BASE + (i as u32) * 0x1_0000), 16),
                spoof_filter,
                colo,
                edu,
                mpls,
            });
        }
        self.link_cursor = vec![0; total];
    }

    // ---- AS-level relationships -----------------------------------------

    fn add_adj(&mut self, a: AsId, b: AsId, rel_of_b: Rel) {
        debug_assert_ne!(a, b);
        self.adjacencies.push((a, b, rel_of_b));
    }

    fn create_relationships(&mut self) {
        let cfg: &'c SimConfig = self.cfg;
        let t = &cfg.topology;
        let t1: Vec<AsId> = (0..t.n_tier1).map(|i| AsId(i as u32)).collect();
        let transit: Vec<AsId> = (t.n_tier1..t.n_tier1 + t.n_transit)
            .map(|i| AsId(i as u32))
            .collect();
        let nren: Vec<AsId> = (t.n_tier1 + t.n_transit..t.n_tier1 + t.n_transit + t.n_nren)
            .map(|i| AsId(i as u32))
            .collect();
        let stub_start = t.n_tier1 + t.n_transit + t.n_nren;
        let stubs: Vec<AsId> = (stub_start..t.total_ases())
            .map(|i| AsId(i as u32))
            .collect();

        // Tier-1 clique: all peers.
        for i in 0..t1.len() {
            for j in i + 1..t1.len() {
                self.add_adj(t1[i], t1[j], Rel::Peer);
            }
        }

        // Transit providers: tier-1s or earlier transits.
        let mut picked: Vec<AsId> = Vec::new();
        for (k, &asid) in transit.iter().enumerate() {
            let n_prov = self
                .rng
                .gen_range(2.min(t.max_transit_providers)..=t.max_transit_providers.max(2));
            picked.clear();
            for _ in 0..n_prov {
                let upper: AsId = if k == 0 || self.rng.gen_bool(0.5) {
                    *t1.choose(&mut self.rng).expect("tier1 set nonempty")
                } else {
                    transit[self.rng.gen_range(0..k)]
                };
                if upper != asid && !picked.contains(&upper) {
                    picked.push(upper);
                }
            }
            if picked.is_empty() {
                picked.push(*t1.choose(&mut self.rng).expect("tier1 set nonempty"));
            }
            for &p in &picked {
                self.add_adj(asid, p, Rel::Provider);
            }
        }

        // Transit-transit peering (IXP flattening knob).
        for i in 0..transit.len() {
            for j in i + 1..transit.len() {
                if self.rng.gen_bool(t.transit_peering_prob) {
                    self.add_adj(transit[i], transit[j], Rel::Peer);
                }
            }
        }

        // NRENs: one tier-1 provider, wide peering with transits.
        for &n in &nren {
            let p = *t1.choose(&mut self.rng).expect("tier1 set nonempty");
            self.add_adj(n, p, Rel::Provider);
            for &tr in &transit {
                if self.rng.gen_bool(0.25) {
                    self.add_adj(n, tr, Rel::Peer);
                }
            }
        }

        // Stubs. Education stubs: one NREN provider + one commercial transit
        // (this dual-homing is the driver of NREN-heavy asymmetry, §6.2).
        // Ordinary stubs: 1..=max providers among transits.
        for &s in &stubs {
            // Only this iteration pushes entries with `a == s`.
            let own = self.adjacencies.len();
            let edu = self.topo.ases[s.index()].edu;
            if edu && !nren.is_empty() {
                let n = *nren.choose(&mut self.rng).expect("nren set nonempty");
                let c = *transit.choose(&mut self.rng).expect("transit set nonempty");
                self.add_adj(s, n, Rel::Provider);
                self.add_adj(s, c, Rel::Provider);
            } else {
                // Stubs are multihomed (2+ providers): near-universal for
                // networks that matter, and the source of per-direction
                // interdomain route divergence (§4.4's 57%).
                let n_prov = self
                    .rng
                    .gen_range(2.min(t.max_stub_providers)..=t.max_stub_providers.max(2));
                picked.clear();
                for _ in 0..n_prov {
                    let p = *transit.choose(&mut self.rng).expect("transit set nonempty");
                    if !picked.contains(&p) {
                        picked.push(p);
                    }
                }
                for &p in &picked {
                    self.add_adj(s, p, Rel::Provider);
                }
            }
            // Occasional direct peering with a transit (flattening).
            if self.rng.gen_bool(t.stub_peering_prob) {
                let p = *transit.choose(&mut self.rng).expect("transit set nonempty");
                if self.adjacencies[own..].iter().all(|&(_, b, _)| b != p) {
                    self.add_adj(s, p, Rel::Peer);
                }
            }
        }

        // One entry per AS pair; `Topology::derive_indexes` turns them into
        // each AS's neighbours.
        dedup_adjacencies(&mut self.adjacencies);
    }

    // ---- Routers ---------------------------------------------------------

    fn router_count(&self, tier: AsTier) -> usize {
        let t = &self.cfg.topology;
        match tier {
            AsTier::Tier1 => t.tier1_routers,
            AsTier::Transit | AsTier::Nren => t.transit_routers,
            AsTier::Stub => t.stub_routers,
        }
    }

    fn pick_stamp_mode(&mut self, snmp_responsive: bool) -> StampMode {
        // SNMPv3-responsive routers are well-managed mainstream gear that
        // overwhelmingly implements standard (egress) RR stamping — this
        // correlation is what makes SNMP a *reliable* negative signal in
        // the paper's Table 2 methodology (a fingerprintable router absent
        // from the reverse hops really is absent, §4.4).
        let (egress, ingress, loopback, private) = if snmp_responsive {
            (0.85, 0.07, 0.05, 0.02)
        } else {
            let b = &self.cfg.behavior;
            (
                b.router_stamp_egress,
                b.router_stamp_ingress,
                b.router_stamp_loopback,
                b.router_stamp_private,
            )
        };
        let x: f64 = self.rng.gen();
        let mut acc = egress;
        if x < acc {
            return StampMode::Egress;
        }
        acc += ingress;
        if x < acc {
            return StampMode::Ingress;
        }
        acc += loopback;
        if x < acc {
            return StampMode::Loopback;
        }
        acc += private;
        if x < acc {
            return StampMode::Private;
        }
        StampMode::NoStamp
    }

    /// Routers are numbered AS by AS: each AS's are a run of the router
    /// table, its offsets kept from here on.
    fn create_routers(&mut self) {
        let cfg: &'c SimConfig = self.cfg;
        let b = &cfg.behavior;
        let counts = (self.topo.ases.iter()).map(|a| self.router_count(a.tier).max(1));
        self.topo.routers.reserve_exact(counts.sum());
        self.topo.router_off.reserve_exact(self.topo.ases.len() + 1);
        for as_idx in 0..self.topo.ases.len() {
            self.topo.router_off.push(self.topo.routers.len() as u32);
            let tier = self.topo.ases[as_idx].tier;
            let n = self.router_count(tier).max(1);
            for r in 0..n {
                let rid = RouterId(self.topo.routers.len() as u32);
                let block = self.topo.ases[as_idx].block;
                let snmp_responsive = self.draw(b.router_snmp_responsive);
                let stamp = self.pick_stamp_mode(snmp_responsive);
                let router = Router {
                    id: rid,
                    asn: AsId(as_idx as u32),
                    loopback: plan::loopback(block, r as u32),
                    private_alias: plan::private_alias(rid),
                    stamp,
                    ttl_responsive: self.draw(b.router_ttl_responsive),
                    snmp_responsive,
                    ts_capable: self.draw(b.router_ts_responsive),
                    load_balancer: self.draw(b.router_load_balancer),
                };
                self.topo.routers.push(router);
            }
        }
        self.topo.router_off.push(self.topo.routers.len() as u32);
    }

    /// A uniform draw among `asn`'s routers: a slice of the router table.
    fn draw_router(&mut self, asn: AsId) -> RouterId {
        let off = &self.topo.router_off[asn.index()..asn.index() + 2];
        let run = &self.topo.routers[off[0] as usize..off[1] as usize];
        run.choose(&mut self.rng)
            .expect("AS has at least one router")
            .id
    }

    // ---- Links -----------------------------------------------------------

    /// Allocate `owner`'s next /30; returns the two usable addresses.
    fn alloc_slash30(&mut self, owner: AsId) -> (Addr, Addr) {
        let nth = self.link_cursor[owner.index()];
        self.link_cursor[owner.index()] = nth + 1;
        plan::link(self.topo.ases[owner.index()].block, nth)
    }

    fn push_link(&mut self, a: RouterId, b: RouterId, owner: AsId, latency: f64, kind: LinkKind) {
        let (addr_a, addr_b) = self.alloc_slash30(owner);
        let id = LinkId(self.topo.links.len() as u32);
        self.topo.links.push(Link {
            id,
            a,
            b,
            addr_a,
            addr_b,
            latency_ms: latency,
            kind,
        });
    }

    /// An upper bound on the links the build numbers: every intra link, and
    /// two interdomain links for each adjacency of two non-stubs (one for
    /// the rest).
    fn link_bound(&self) -> usize {
        let ases = &self.topo.ases;
        let intra = ases.iter().map(|a| {
            let n = self.topo.as_routers(a.id).len();
            let core = n_core(n);
            core * core.saturating_sub(1) / 2 + (n - core)
        });
        let core = |a: AsId| ases[a.index()].tier != AsTier::Stub;
        let inter = (self.adjacencies.iter()).map(|&(a, b, _)| 1 + usize::from(core(a) && core(b)));
        intra.sum::<usize>() + inter.sum::<usize>()
    }

    fn create_intra_links(&mut self) {
        self.topo.links.reserve_exact(self.link_bound());
        for as_idx in 0..self.topo.ases.len() {
            let asid = AsId(as_idx as u32);
            let run = self.topo.as_routers(asid);
            let (first, n) = (run.get(0).map_or(0, |r| r.0), run.len());
            let router = |i: usize| RouterId(first + i as u32);
            let tier = self.topo.ases[as_idx].tier;
            let lat_range = match tier {
                AsTier::Tier1 => 4.0..18.0, // wide-area backbone
                AsTier::Nren => 3.0..14.0,
                _ => 0.3..4.0,
            };
            // Core/spoke structure: a small full-mesh core with every other
            // router funnelled through exactly one core uplink. This is the
            // aggregation-style topology of real networks, and it is what
            // makes *intradomain* last links overwhelmingly symmetric
            // (§4.4): all paths to or from a spoke router traverse its
            // unique uplink, while interdomain route choice still diverges
            // per direction.
            if n >= 2 {
                let n_core = n_core(n);
                for i in 0..n_core {
                    for j in i + 1..n_core {
                        let lat = self.rng.gen_range(lat_range.clone());
                        self.push_link(router(i), router(j), asid, lat, LinkKind::Intra(asid));
                    }
                }
                for k in n_core..n {
                    let lat = self.rng.gen_range(lat_range.clone());
                    self.push_link(
                        router(k),
                        router(k % n_core),
                        asid,
                        lat,
                        LinkKind::Intra(asid),
                    );
                }
            }
        }
    }

    fn inter_latency(&mut self, a: AsTier, b: AsTier) -> f64 {
        use AsTier::*;
        let range = match (a, b) {
            (Tier1, Tier1) => 8.0..35.0,
            (Tier1, _) | (_, Tier1) => 4.0..22.0,
            (Stub, _) | (_, Stub) => 0.8..8.0,
            _ => 2.0..16.0,
        };
        self.rng.gen_range(range)
    }

    fn create_inter_links(&mut self) {
        // An adjacency's links are pushed back to back: consecutive ids.
        for adj in 0..self.adjacencies.len() {
            let (a, b, rel_of_b) = self.adjacencies[adj];
            // Number of parallel physical links: core adjacencies sometimes
            // get two (multiple interconnection points).
            let both_core = self.topo.ases[a.index()].tier != AsTier::Stub
                && self.topo.ases[b.index()].tier != AsTier::Stub;
            let n_links = if both_core && self.rng.gen_bool(0.3) {
                2
            } else {
                1
            };

            // The /30 owner: the provider side, or the lower id for peers.
            // This is what creates border IP-to-AS ambiguity.
            let owner = match rel_of_b {
                Rel::Provider => b,
                Rel::Customer => a,
                Rel::Peer => {
                    if a.0 < b.0 {
                        a
                    } else {
                        b
                    }
                }
            };

            for _ in 0..n_links {
                let ra = self.draw_router(a);
                let rb = self.draw_router(b);
                let lat = self.inter_latency(
                    self.topo.ases[a.index()].tier,
                    self.topo.ases[b.index()].tier,
                );
                self.push_link(ra, rb, owner, lat, LinkKind::Inter);
            }
        }
    }

    // ---- Prefixes ---------------------------------------------------------

    fn create_prefixes(&mut self) {
        let cfg: &'c SimConfig = self.cfg;
        let t = &cfg.topology;
        let max_prefixes = |tier| {
            match tier {
                AsTier::Stub => t.max_stub_prefixes,
                _ => t.max_core_prefixes,
            }
            .max(1)
        };
        let bound = self.topo.ases.iter().map(|a| max_prefixes(a.tier));
        self.topo.prefixes.reserve_exact(bound.sum());
        for as_idx in 0..self.topo.ases.len() {
            let asid = AsId(as_idx as u32);
            let max = max_prefixes(self.topo.ases[as_idx].tier);
            let count = self.rng.gen_range(1..=max);
            for j in 0..count {
                let pid = PrefixId(self.topo.prefixes.len() as u32);
                let block = self.topo.ases[as_idx].block;
                let base = Addr(block.base.0 + PREFIX_SPACE_OFFSET + (j as u32) * 256);
                let attach = self.draw_router(asid);
                self.topo.prefixes.push(PrefixEntry {
                    id: pid,
                    prefix: Prefix::new(base, 24),
                    owner: asid,
                    attach,
                });
            }
        }
        // prefix list is already sorted by base because AS blocks are
        // consecutive and per-AS prefixes are allocated in order.
        debug_assert!(self
            .topo
            .prefixes
            .windows(2)
            .all(|w| w[0].prefix.base < w[1].prefix.base));
    }

    // ---- Vantage point sites ----------------------------------------------

    fn place_vp_sites(&mut self) {
        let want = self.cfg.topology.n_vp_sites;
        let colo: Vec<AsId> = self
            .topo
            .ases
            .iter()
            .filter(|a| a.colo)
            .map(|a| a.id)
            .collect();
        let edu: Vec<AsId> = self
            .topo
            .ases
            .iter()
            .filter(|a| a.edu)
            .map(|a| a.id)
            .collect();
        assert!(
            !colo.is_empty(),
            "topology must have at least one colo AS for VP sites"
        );
        let mut per_as_count = vec![0u32; self.topo.ases.len()];
        self.topo.vp_sites.reserve_exact(want);
        for i in 0..want {
            // ~85% of sites in colos, the rest at education stubs
            // (universities), which is what creates the paper's NREN effect.
            let asid = if !edu.is_empty() && self.rng.gen_bool(0.15) {
                *edu.choose(&mut self.rng).expect("edu set nonempty")
            } else {
                *colo.choose(&mut self.rng).expect("colo set nonempty")
            };
            // Prefixes are numbered AS by AS: this is the AS's first.
            let first = self.topo.prefixes.partition_point(|p| p.owner < asid);
            let pe = self.topo.prefixes[first].clone();
            let k = &mut per_as_count[asid.index()];
            let host = pe.prefix.nth(4 + *k);
            *k += 1;
            let legacy_2016 = i % 10 < 3; // deterministic ~30% overlap set
            self.topo.vp_sites.push(VpSite {
                host,
                asn: asid,
                router: pe.attach,
                legacy_2016,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Rel;

    fn tiny() -> Topology {
        generate(&SimConfig::tiny(), 42)
    }

    #[test]
    fn deterministic() {
        let a = generate(&SimConfig::tiny(), 7);
        let b = generate(&SimConfig::tiny(), 7);
        assert_eq!(a.routers.len(), b.routers.len());
        assert_eq!(a.links.len(), b.links.len());
        assert_eq!(
            a.links.iter().map(|l| l.addr_a).collect::<Vec<_>>(),
            b.links.iter().map(|l| l.addr_a).collect::<Vec<_>>()
        );
        let c = generate(&SimConfig::tiny(), 8);
        // Different seed should (overwhelmingly) differ somewhere.
        assert!(
            a.links.iter().map(|l| l.latency_ms).collect::<Vec<_>>()
                != c.links.iter().map(|l| l.latency_ms).collect::<Vec<_>>()
        );
    }

    #[test]
    fn adjacency_dedup_keeps_the_first_and_sorts() {
        let [a0, a1, a2, a3] = [0, 1, 2, 3].map(AsId);
        let mut adj = vec![
            (a3, a1, Rel::Provider),
            (a0, a2, Rel::Peer),
            // 1–3 again, the other way round and with another relationship.
            (a1, a3, Rel::Peer),
            (a2, a1, Rel::Customer),
            (a1, a3, Rel::Provider),
            (a0, a2, Rel::Peer),
        ];
        dedup_adjacencies(&mut adj);
        assert_eq!(
            adj,
            [
                (a0, a2, Rel::Peer),
                (a1, a2, Rel::Provider),
                (a1, a3, Rel::Customer),
            ]
        );
    }

    #[test]
    fn counts_match_config() {
        let t = tiny();
        let cfg = SimConfig::tiny();
        assert_eq!(t.ases.len(), cfg.topology.total_ases());
        assert_eq!(t.vp_sites.len(), cfg.topology.n_vp_sites);
        assert!(!t.prefixes.is_empty());
        assert!(t.prefixes.len() >= t.ases.len()); // >=1 per AS
    }

    #[test]
    fn relationships_are_mirrored() {
        let t = tiny();
        for a in &t.ases {
            for n in t.neighbors(a.id) {
                let back = t.rel_with(n.asn, a.id).expect("mirror entry");
                assert_eq!(back, n.rel.flip(), "asymmetric relationship record");
                assert!(!n.links.is_empty(), "adjacency without physical link");
            }
        }
    }

    #[test]
    fn tier1_clique_peers() {
        let t = tiny();
        let t1: Vec<_> = t.ases.iter().filter(|a| a.tier == AsTier::Tier1).collect();
        for a in &t1 {
            for b in &t1 {
                if a.id != b.id {
                    assert_eq!(t.rel_with(a.id, b.id), Some(Rel::Peer));
                }
            }
        }
    }

    #[test]
    fn every_stub_has_a_provider() {
        let t = tiny();
        for a in t.ases.iter().filter(|a| a.tier == AsTier::Stub) {
            assert!(
                t.neighbors(a.id).iter().any(|n| n.rel == Rel::Provider),
                "{} has no provider",
                a.id
            );
        }
    }

    #[test]
    fn link_addresses_share_a_slash30_and_resolve() {
        let t = tiny();
        for l in &t.links {
            assert!(l.addr_a.same_slash30(l.addr_b));
            assert_eq!(l.addr_a.p2p30_peer(), Some(l.addr_b));
            assert_eq!(t.router_at(l.addr_a), Some(l.a));
            assert_eq!(t.router_at(l.addr_b), Some(l.b));
        }
    }

    #[test]
    fn interdomain_slash30_owned_by_provider_side() {
        let t = tiny();
        let mut checked = 0;
        for l in &t.links {
            if l.kind != LinkKind::Inter {
                continue;
            }
            let as_a = t.router_as(l.a);
            let as_b = t.router_as(l.b);
            let owner = t.block_owner(l.addr_a).expect("public link address");
            assert!(owner == as_a || owner == as_b);
            if let Some(rel) = t.rel_with(as_a, as_b) {
                match rel {
                    Rel::Provider => {
                        // b is a's provider: the provider numbers the link.
                        assert_eq!(owner, as_b);
                        checked += 1;
                    }
                    Rel::Customer => {
                        // a is the provider side.
                        assert_eq!(owner, as_a);
                        checked += 1;
                    }
                    Rel::Peer => {}
                }
            }
        }
        assert!(checked > 0, "no provider-owned interdomain links checked");
    }

    #[test]
    fn vp_sites_are_spoof_capable_hosts_in_prefixes() {
        let t = tiny();
        for vp in &t.vp_sites {
            assert!(!t.asn(vp.asn).spoof_filter, "VP in a spoof-filtering AS");
            let pid = t.prefix_of(vp.host).expect("VP host in announced prefix");
            assert_eq!(t.prefix(pid).owner, vp.asn);
            assert_eq!(t.prefix(pid).attach, vp.router);
        }
        // VP host addresses are unique.
        let mut hosts: Vec<_> = t.vp_sites.iter().map(|v| v.host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), t.vp_sites.len());
    }

    #[test]
    fn prefixes_sorted_and_disjoint() {
        let t = tiny();
        for w in t.prefixes.windows(2) {
            assert!(w[0].prefix.last() < w[1].prefix.base);
        }
    }

    #[test]
    fn routers_have_expected_owner_and_loopback() {
        let t = tiny();
        for r in &t.routers {
            assert!(t.as_routers(r.asn).iter().any(|id| id == r.id));
            assert_eq!(t.block_owner(r.loopback), Some(r.asn));
            assert!(r.private_alias.is_private());
            assert_eq!(t.router_at(r.loopback), Some(r.id));
        }
    }

    /// An AS and a router as `Debug` rendered them while each held its own
    /// lists: the pins of `generated_topologies_are_pinned` were taken over
    /// this rendering, so reading the derived runs back into it proves the
    /// generator draws what it drew.
    mod listed {
        use crate::addr::Prefix;
        use crate::ids::{AsId, IdRange, LinkId, PrefixId, RouterId};
        use crate::topology::{AsTier, Neighbor, StampMode, Topology};

        #[derive(Debug)]
        #[allow(dead_code)] // read by `Debug` alone
        pub(super) struct AsNode<'t> {
            id: AsId,
            tier: AsTier,
            neighbors: &'t [Neighbor],
            routers: IdRange<RouterId>,
            prefixes: IdRange<PrefixId>,
            block: Prefix,
            spoof_filter: bool,
            colo: bool,
            edu: bool,
            mpls: bool,
        }

        #[derive(Debug)]
        #[allow(dead_code)] // read by `Debug` alone
        pub(super) struct Router<'t> {
            id: RouterId,
            asn: AsId,
            loopback: crate::addr::Addr,
            private_alias: crate::addr::Addr,
            stamp: StampMode,
            ttl_responsive: bool,
            snmp_responsive: bool,
            ts_capable: bool,
            load_balancer: bool,
            links: &'t [LinkId],
        }

        pub(super) fn ases(t: &Topology) -> Vec<AsNode<'_>> {
            (t.ases.iter())
                .map(|a| AsNode {
                    id: a.id,
                    tier: a.tier,
                    neighbors: t.neighbors(a.id),
                    routers: t.as_routers(a.id),
                    prefixes: t.as_prefixes(a.id),
                    block: a.block,
                    spoof_filter: a.spoof_filter,
                    colo: a.colo,
                    edu: a.edu,
                    mpls: a.mpls,
                })
                .collect()
        }

        pub(super) fn routers(t: &Topology) -> Vec<Router<'_>> {
            (t.routers.iter())
                .map(|r| Router {
                    id: r.id,
                    asn: r.asn,
                    loopback: r.loopback,
                    private_alias: r.private_alias,
                    stamp: r.stamp,
                    ttl_responsive: r.ttl_responsive,
                    snmp_responsive: r.snmp_responsive,
                    ts_capable: r.ts_capable,
                    load_balancer: r.load_balancer,
                    links: t.router_links(r.id),
                })
                .collect()
        }
    }

    /// The generator draws what it drew: FNV-1a-64 over the `Debug`
    /// rendering of four topologies' five tables, each AS and router with
    /// its runs listed as it once held them ([`listed`]), and block base
    /// (the address index is derived from them, so it is left out).
    #[test]
    fn generated_topologies_are_pinned() {
        let fnv = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        for (cfg, seed, want) in [
            (SimConfig::tiny(), 1, 0x2193_c3e3_db50_d357),
            (SimConfig::tiny(), 7, 0x2483_d2f7_de50_37fa),
            (SimConfig::tiny(), 42, 0xcadb_9f27_be21_f380),
            (SimConfig::era_2020(), 1, 0xcd9e_1ad7_7eb0_7efe),
        ] {
            let t = generate(&cfg, seed);
            let tables = format!(
                "{:?}",
                (
                    listed::ases(&t),
                    listed::routers(&t),
                    &t.links,
                    &t.prefixes,
                    &t.vp_sites,
                    t.block_base
                )
            );
            let got = fnv(tables.as_bytes());
            assert_eq!(got, want, "seed {seed}: {got:#018x}");
        }
    }

    #[test]
    fn era_2016_has_fewer_interdomain_links_than_2020() {
        let t16 = generate(&SimConfig::era_2016(), 3);
        let t20 = generate(&SimConfig::era_2020(), 3);
        let inter = |t: &Topology| t.links.iter().filter(|l| l.kind == LinkKind::Inter).count();
        assert!(inter(&t16) < inter(&t20), "2016 should be sparser");
    }
}
