//! Alias resolution (paper Appx. B.1): clustering IP addresses that belong
//! to the same router, using only measurable evidence.
//!
//! Three sources, mirroring the paper's toolbox:
//!
//! * **MIDAR-lite** — MIDAR infers aliases from shared IP-ID counters; it
//!   only works for routers with a shared monotonic counter and responsive
//!   addresses. We model its *output*: for "MIDAR-friendly" routers
//!   (≈55%, matching ITDK's partial coverage) and velocity-probe-responsive
//!   addresses (≈85%), the cluster id is recovered; everything else is
//!   unresolvable. This reproduces the paper's key observation that most
//!   accuracy mismatches stem from *missing* alias data (§5.2.2).
//! * **SNMPv3 fingerprinting** — unsolicited SNMPv3 requests return a
//!   stable engine id for ≈30% of routers (§4.4); this is an actual probe
//!   against the simulator.
//! * **Point-to-point subnetting** — two addresses in one /30 or /31 sit on
//!   opposite ends of a link; since traceroute reveals ingress and RR
//!   reveals egress interfaces, an RR hop followed by a traceroute hop in
//!   the same /30 indicates the same link and is used to align paths.

use parking_lot::RwLock;
use revtr_netsim::hash::{chance, mix3};
use revtr_netsim::{Addr, Sim};
use revtr_probing::{Prober, WordHasher};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Fraction of routers whose IP-ID behaviour lets MIDAR cluster them.
pub const MIDAR_ROUTER_COVERAGE: f64 = 0.55;
/// Fraction of a MIDAR-friendly router's addresses that respond to
/// velocity probing.
pub const MIDAR_ADDR_RESPONSE: f64 = 0.85;

/// Measured alias resolver.
pub struct AliasResolver<'s> {
    sim: &'s Sim,
    /// SNMPv3 answers already probed. Only looked up by address (an
    /// answer is a pure function of it), so its order never escapes.
    snmp_cache: RwLock<HashMap<Addr, Option<u64>, BuildHasherDefault<WordHasher>>>,
}

impl<'s> AliasResolver<'s> {
    /// New resolver over a simulator.
    pub fn new(sim: &'s Sim) -> AliasResolver<'s> {
        AliasResolver {
            sim,
            snmp_cache: RwLock::new(HashMap::default()),
        }
    }

    /// The resolver a deployment runs against the world `prober`
    /// measures: MIDAR-lite data it downloads, SNMPv3 probes it sends.
    pub fn for_prober(prober: &Prober<'s>) -> AliasResolver<'s> {
        AliasResolver::new(prober.sim())
    }

    /// SNMPv3 engine id for an address, if its router answers (probed once,
    /// then cached).
    pub fn snmp_id(&self, a: Addr) -> Option<u64> {
        if let Some(v) = self.snmp_cache.read().get(&a) {
            return *v;
        }
        let v = self.sim.snmp_probe(a);
        self.snmp_cache.write().insert(a, v);
        v
    }

    /// MIDAR-lite cluster id for an address, if recoverable.
    ///
    /// Models the output of a MIDAR run: available only for routers with
    /// monotonic shared IP-ID counters and responsive addresses.
    pub fn midar_id(&self, a: Addr) -> Option<u64> {
        let r = self.sim.topo().router_at(a)?;
        let friendly = chance(
            mix3(self.sim.seed() ^ 0x31da5, r.0 as u64, 0),
            MIDAR_ROUTER_COVERAGE,
        );
        if !friendly {
            return None;
        }
        let addr_ok = chance(
            mix3(self.sim.seed() ^ 0x31da6, a.0 as u64, r.0 as u64),
            MIDAR_ADDR_RESPONSE,
        );
        if !addr_ok {
            return None;
        }
        Some(mix3(self.sim.seed() ^ 0x31da7, r.0 as u64, 1))
    }

    /// True if measured evidence says `a` and `b` are the same router (or
    /// the same address).
    pub fn same_router(&self, a: Addr, b: Addr) -> bool {
        if a == b {
            return true;
        }
        if let (Some(x), Some(y)) = (self.snmp_id(a), self.snmp_id(b)) {
            if x == y {
                return true;
            }
        }
        matches!((self.midar_id(a), self.midar_id(b)), (Some(x), Some(y)) if x == y)
    }

    /// True if any alias evidence exists for this address at all — the
    /// paper's "allows for alias resolution" predicate behind the
    /// router-optimistic accuracy line (Fig. 5a).
    pub fn resolvable(&self, a: Addr) -> bool {
        self.snmp_id(a).is_some() || self.midar_id(a).is_some()
    }

    /// Path-alignment match: same router, or two ends of one point-to-point
    /// /30 or /31 (an RR egress facing a traceroute ingress across one
    /// link).
    pub fn hop_match(&self, a: Addr, b: Addr) -> bool {
        if self.same_router(a, b) {
            return true;
        }
        if a.is_private() || b.is_private() {
            return false;
        }
        a.same_slash30(b) || a.same_slash31(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr_netsim::SimConfig;

    fn sim() -> Sim {
        Sim::build(SimConfig::tiny(), 8)
    }

    #[test]
    fn exact_match_always_resolves() {
        let s = sim();
        let r = AliasResolver::new(&s);
        let a = s.topo().links[0].addr_a;
        assert!(r.same_router(a, a));
        assert!(r.hop_match(a, a));
    }

    #[test]
    fn snmp_clusters_match_ground_truth_when_present() {
        let s = sim();
        let r = AliasResolver::new(&s);
        let o = s.oracle();
        let mut positive = 0;
        for router in s.topo().routers.iter().take(200) {
            let addrs = s.topo().router_addrs(router.id);
            for w in addrs.windows(2) {
                if r.same_router(w[0], w[1]) {
                    assert!(o.same_router(w[0], w[1]), "false positive alias");
                    positive += 1;
                }
            }
        }
        assert!(positive > 0, "no aliases resolved at all");
    }

    #[test]
    fn resolution_is_partial() {
        let s = sim();
        let r = AliasResolver::new(&s);
        let total = s.topo().links.len().min(300);
        let resolvable = s
            .topo()
            .links
            .iter()
            .take(total)
            .filter(|l| r.resolvable(l.addr_a))
            .count();
        assert!(resolvable > 0, "nothing resolvable");
        assert!(
            resolvable < total,
            "everything resolvable — missing-alias error mode not modelled"
        );
    }

    #[test]
    fn no_false_merges_across_routers() {
        let s = sim();
        let r = AliasResolver::new(&s);
        let o = s.oracle();
        // Sample pairs of addresses from different routers.
        let links = &s.topo().links;
        for i in (0..links.len().min(100)).step_by(3) {
            for j in (i + 5..links.len().min(100)).step_by(7) {
                let a = links[i].addr_a;
                let b = links[j].addr_b;
                if !o.same_router(a, b) {
                    assert!(!r.same_router(a, b), "false alias {a} ~ {b}");
                }
            }
        }
    }

    #[test]
    fn p2p_match_links_rr_and_traceroute_views() {
        let s = sim();
        let r = AliasResolver::new(&s);
        let l = &s.topo().links[0];
        assert!(r.hop_match(l.addr_a, l.addr_b), "/30 peers must hop-match");
    }

    #[test]
    fn private_addresses_never_p2p_match() {
        let s = sim();
        let r = AliasResolver::new(&s);
        assert!(!r.hop_match(Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2)));
    }
}
