//! Ground-truth oracle — **for evaluation, audit, and tests**.
//!
//! The measurement stack (probing / atlas / vpselect / revtr) must never
//! consult this module to *discover* paths: it answers questions a real
//! measurement system cannot (true router-level paths, true aliasing,
//! true AS ownership). The `eval` crate uses it to score reverse
//! traceroutes the way the paper scores against direct traceroutes, SNMP
//! aliases, and CAIDA data.
//!
//! One sanctioned exception: the hardened engine (`EngineConfig::harden`)
//! may *cross-validate* already-measured evidence through the audit
//! replay/plausibility entry points ([`Oracle::replay_rr_reply_stamps`],
//! [`Oracle::same_router`], [`Oracle::link_coupled`],
//! [`Oracle::plausibly_consecutive`]) — the in-sim stand-in for the
//! production system's redundant-validation probes (Appx. E). Validation
//! may only *reject* suspicious evidence; it must never feed ground-truth
//! hops into a result.

use crate::addr::Addr;
use crate::ids::{AsId, RouterId};
use crate::sim::{PktMeta, Sim};
use crate::topology::Rel;

/// Ground-truth view over a [`Sim`].
pub struct Oracle<'a> {
    sim: &'a Sim,
}

impl Sim {
    /// Ground truth access (evaluation only).
    pub fn oracle(&self) -> Oracle<'_> {
        Oracle { sim: self }
    }
}

impl<'a> Oracle<'a> {
    /// The true router-level path a plain packet from host `from` to
    /// destination `to` traverses right now (default flow).
    pub fn true_router_path(&self, from: Addr, to: Addr) -> Option<Vec<RouterId>> {
        let attach = self.sim.host_attach(from)?;
        let walk = self.sim.walk(attach, to, &PktMeta::plain(from, 0))?;
        Some(walk.hops.iter().map(|h| h.router).collect())
    }

    /// The true AS-level path (consecutive duplicates collapsed) from host
    /// `from` to `to`.
    pub fn true_as_path(&self, from: Addr, to: Addr) -> Option<Vec<AsId>> {
        let routers = self.true_router_path(from, to)?;
        let mut out: Vec<AsId> = Vec::new();
        for r in routers {
            let a = self.sim.topo().router_as(r);
            if out.last() != Some(&a) {
                out.push(a);
            }
        }
        Some(out)
    }

    /// The router that owns an address (interface, loopback, private alias).
    pub fn router_of(&self, addr: Addr) -> Option<RouterId> {
        self.sim.topo().router_at(addr)
    }

    /// True aliases of an address (all addresses of the owning router), or
    /// just the address itself for hosts.
    pub fn aliases(&self, addr: Addr) -> Vec<Addr> {
        match self.sim.topo().router_at(addr) {
            Some(r) => self.sim.topo().router_addrs(r),
            None => vec![addr],
        }
    }

    /// True: `a` and `b` name the same router (or are the same host addr).
    pub fn same_router(&self, a: Addr, b: Addr) -> bool {
        match (self.router_of(a), self.router_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => a == b,
        }
    }

    /// True AS ownership of an address: the owning router's AS for
    /// infrastructure addresses, the originating AS for host addresses.
    pub fn true_as_of(&self, addr: Addr) -> Option<AsId> {
        if let Some(r) = self.sim.topo().router_at(addr) {
            return Some(self.sim.topo().router_as(r));
        }
        self.sim
            .topo()
            .prefix_of(addr)
            .map(|p| self.sim.topo().prefix(p).owner)
    }

    /// True relationship between two ASes, if adjacent (the perspective is
    /// `a`'s: what `b` is to `a`).
    pub fn relationship(&self, a: AsId, b: AsId) -> Option<Rel> {
        self.sim.topo().asn(a).rel_with(b)
    }

    /// True router-level adjacencies of the router owning `addr`: the set
    /// of neighbouring routers' addresses facing it. This stands in for the
    /// iPlane/Ark adjacency datasets revtr 1.0's timestamp technique
    /// consumed.
    pub fn router_adjacencies(&self, addr: Addr) -> Vec<Addr> {
        let Some(r) = self.sim.topo().router_at(addr) else {
            return Vec::new();
        };
        let topo = self.sim.topo();
        topo.router(r)
            .links
            .iter()
            .map(|&l| {
                let link = topo.link(l);
                link.addr_of(link.other(r))
            })
            .collect()
    }

    /// The router a hop address anchors to on a router-level path: the
    /// owning router for infrastructure addresses, the attach router for
    /// host addresses (incl. prefix gateways), `None` for unroutable space.
    pub fn anchor_router(&self, addr: Addr) -> Option<RouterId> {
        if let Some(r) = self.sim.topo().router_at(addr) {
            return Some(r);
        }
        self.sim.host_attach(addr)
    }

    /// Could `a` and `b` be consecutive **visible** hops of one true
    /// router-level path? True when they anchor to the same router, to
    /// routers sharing a physical link, or to two routers of one MPLS AS
    /// (whose LSP interior hops are invisible to TTL and IP options, so a
    /// measured path legitimately jumps across them). Host addresses anchor
    /// at their attach router. This is the audit layer's per-hop
    /// path-membership primitive.
    pub fn plausibly_consecutive(&self, a: Addr, b: Addr) -> bool {
        let (Some(ra), Some(rb)) = (self.anchor_router(a), self.anchor_router(b)) else {
            return false;
        };
        if ra == rb {
            return true;
        }
        let topo = self.sim.topo();
        if topo
            .router(ra)
            .links
            .iter()
            .any(|&l| topo.link(l).other(ra) == rb)
        {
            return true;
        }
        let (as_a, as_b) = (topo.router_as(ra), topo.router_as(rb));
        as_a == as_b && topo.asn(as_a).mpls
    }

    /// True if `a` and `b` are the two usable addresses of one physical
    /// /30-numbered link — the far-end coupling the RR-atlas join (§4.2)
    /// relies on. Link /30s are allocated 4-aligned with exactly one link
    /// per /30, so a same-/30 pair of router addresses is never a
    /// coincidence.
    pub fn link_coupled(&self, a: Addr, b: Addr) -> bool {
        if !a.same_slash30(b) {
            return false;
        }
        let (Some(ra), Some(rb)) = (self.router_of(a), self.router_of(b)) else {
            return false;
        };
        let topo = self.sim.topo();
        ra != rb
            && topo
                .router(ra)
                .links
                .iter()
                .any(|&l| topo.link(l).other(ra) == rb)
    }

    /// Replay the **reply-leg** Record Route stamps of an earlier
    /// [`Sim::rr_ping_from`] probe, with the churn epochs pinned to the
    /// values recorded at probe time. Returns the addresses stamped after
    /// the destination stamp — the complete set a correct reverse-hop
    /// extraction may have drawn from. `None` mirrors the original probe's
    /// failure modes (spoof-filtered sender, unresponsive destination,
    /// unroutable addresses).
    pub fn replay_rr_reply_stamps(
        &self,
        sender: Addr,
        claimed_src: Addr,
        dst: Addr,
        nonce: u64,
        fwd_epoch: Option<u32>,
        rep_epoch: Option<u32>,
    ) -> Option<Vec<Addr>> {
        self.sim
            .replay_rr_reply_stamps(sender, claimed_src, dst, nonce, fwd_epoch, rep_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn sim() -> Sim {
        Sim::build(SimConfig::tiny(), 9)
    }

    #[test]
    fn true_paths_connect_endpoints() {
        let s = sim();
        let o = s.oracle();
        let a = s.topo().vp_sites[0].host;
        let b = s.topo().vp_sites[1].host;
        let path = o.true_router_path(a, b).expect("connected");
        assert!(!path.is_empty());
        let as_path = o.true_as_path(a, b).expect("connected");
        assert_eq!(
            *as_path.first().expect("nonempty"),
            s.topo().vp_sites[0].asn
        );
        assert_eq!(*as_path.last().expect("nonempty"), s.topo().vp_sites[1].asn);
        // No consecutive duplicates.
        assert!(as_path.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn aliases_cluster_router_addresses() {
        let s = sim();
        let o = s.oracle();
        let r = &s.topo().routers[0];
        let addrs = s.topo().router_addrs(r.id);
        for &x in &addrs {
            for &y in &addrs {
                assert!(o.same_router(x, y));
            }
        }
    }

    #[test]
    fn replay_reproduces_live_reply_stamps() {
        let s = sim();
        let o = s.oracle();
        let src = s.topo().vp_sites[0].host;
        let mut checked = 0;
        for pe in s.topo().prefixes.iter().take(40) {
            let Some(dst) = s
                .host_addrs(pe.id)
                .find(|&a| s.behavior().host_rr_responsive(a))
            else {
                continue;
            };
            let Some(r) = s.rr_ping(src, dst, 77) else {
                continue;
            };
            let replay = o
                .replay_rr_reply_stamps(src, src, dst, 77, Some(0), Some(0))
                .expect("replay of an answered probe must answer");
            assert!(
                r.slots.ends_with(&replay),
                "reply-leg stamps must be the tail of the recorded slots"
            );
            checked += 1;
        }
        assert!(checked > 5, "too few probes replayed");
    }

    #[test]
    fn replay_pins_churn_epochs() {
        let mut cfg = SimConfig::tiny();
        cfg.behavior.churn_per_hour = 1.0; // every prefix re-rolls per hour
        let s = Sim::build(cfg, 9);
        let o = s.oracle();
        let src = s.topo().vp_sites[0].host;
        let dst = s
            .topo()
            .prefixes
            .iter()
            .flat_map(|pe| s.host_addrs(pe.id))
            .find(|&a| s.behavior().host_rr_responsive(a))
            .expect("a responsive host");
        let before = o.replay_rr_reply_stamps(src, src, dst, 5, Some(0), Some(0));
        s.advance_hours(24.0);
        let after = o.replay_rr_reply_stamps(src, src, dst, 5, Some(0), Some(0));
        assert_eq!(before, after, "pinned-epoch replay drifted with churn");
        // And the pinned walk at the live epoch matches a live walk.
        let attach = s.host_attach(src).expect("vp host");
        let meta = PktMeta::plain(src, 0);
        let pid = s.host_prefix(dst).expect("host dst");
        let live = s.walk(attach, dst, &meta).map(|w| w.latency_ms);
        let pinned = s
            .walk_at_epoch(attach, dst, &meta, Some(s.prefix_epoch(pid)))
            .map(|w| w.latency_ms);
        assert_eq!(live, pinned);
    }

    #[test]
    fn link_coupling_and_consecutive_hops() {
        let s = sim();
        let o = s.oracle();
        let l = &s.topo().links[0];
        assert!(o.link_coupled(l.addr_a, l.addr_b));
        assert!(
            !o.link_coupled(l.addr_a, l.addr_a),
            "same addr is not a pair"
        );
        assert!(o.plausibly_consecutive(l.addr_a, l.addr_b));
        // Directly adjacent responsive hops of a true path are plausibly
        // consecutive (pairs straddling a `*` are not checked — an
        // unresponsive router really does sit between them).
        let a = s.topo().vp_sites[0].host;
        let b = s.topo().vp_sites[1].host;
        let tr = s.traceroute(a, b, 1).expect("connected");
        let mut pairs = 0;
        for w in tr.hops.windows(2) {
            if let (Some(x), Some(y)) = (w[0], w[1]) {
                assert!(
                    o.plausibly_consecutive(x, y),
                    "true trace hops {x} -> {y} judged non-consecutive"
                );
                pairs += 1;
            }
        }
        assert!(pairs > 0, "trace had no adjacent responsive pair");
    }

    #[test]
    fn true_as_of_hosts_and_infra() {
        let s = sim();
        let o = s.oracle();
        let pe = &s.topo().prefixes[0];
        let host = s.host_addrs(pe.id).next().expect("host range nonempty");
        assert_eq!(o.true_as_of(host), Some(pe.owner));
        let l = &s.topo().links[0];
        assert_eq!(o.true_as_of(l.addr_a), Some(s.topo().router_as(l.a)));
    }
}
