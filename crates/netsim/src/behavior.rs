//! Hash-derived behaviour of hosts and routers.
//!
//! Hosts are virtual: any address inside an announced /24 is a potential
//! destination whose responsiveness and stamping quirks are a pure function
//! of `(behaviour seed, address)`. Router probe-responsiveness (as a probe
//! *destination*) is likewise derived here; structural router behaviour
//! (stamp mode, TTL responsiveness, …) lives on the [`crate::topology::Router`]
//! record, assigned at generation time.

use crate::addr::Addr;
use crate::config::BehaviorConfig;
use crate::hash::{chance, mix2, mix3};
use crate::ids::{PrefixId, RouterId};

/// Salts for independent behaviour draws.
mod salt {
    pub(crate) const HOST_PING: u64 = 0x01;
    pub(crate) const HOST_RR: u64 = 0x02;
    pub(crate) const HOST_STAMP: u64 = 0x03;
    pub(crate) const HOST_TS: u64 = 0x04;
    pub(crate) const ROUTER_PING: u64 = 0x11;
    pub(crate) const ROUTER_RR: u64 = 0x12;
    pub(crate) const DBR_VIOLATION: u64 = 0x21;
}

/// How a destination host treats the RR option in a probe it answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostStamp {
    /// Stamps its own address once (the common case).
    SelfAddr,
    /// Stamps an off-prefix alias **twice** (adjacent duplicate entries) —
    /// the Appx. C "double stamp" case.
    AliasDouble,
    /// Does not stamp at all — the Appx. C "loop" case when the last hop is
    /// traversed symmetrically.
    None,
}

/// Behaviour oracle: derives per-entity flags deterministically.
#[derive(Clone, Debug)]
pub struct Behavior {
    seed: u64,
    cfg: BehaviorConfig,
}

impl Behavior {
    /// Create from a seed and config.
    pub fn new(seed: u64, cfg: BehaviorConfig) -> Behavior {
        Behavior {
            seed: mix2(seed, 0xbe4a_710e),
            cfg,
        }
    }

    /// Access the underlying rates.
    pub fn config(&self) -> &BehaviorConfig {
        &self.cfg
    }

    // ---- hosts -----------------------------------------------------------

    /// Does this host answer plain pings?
    pub fn host_ping_responsive(&self, a: Addr) -> bool {
        chance(
            mix3(self.seed, salt::HOST_PING, a.0 as u64),
            self.cfg.host_ping_responsive,
        )
    }

    /// Does this host answer RR-option pings? (Conditional on answering
    /// plain pings; an RR-responsive host is always ping-responsive.)
    pub fn host_rr_responsive(&self, a: Addr) -> bool {
        self.host_ping_responsive(a)
            && chance(
                mix3(self.seed, salt::HOST_RR, a.0 as u64),
                self.cfg.host_rr_responsive,
            )
    }

    /// Does this host answer TS-option pings?
    pub fn host_ts_responsive(&self, a: Addr) -> bool {
        self.host_ping_responsive(a)
            && chance(
                mix3(self.seed, salt::HOST_TS, a.0 as u64),
                self.cfg.host_ts_responsive,
            )
    }

    /// RR stamping behaviour of a destination host.
    pub fn host_stamp(&self, a: Addr) -> HostStamp {
        let x = crate::hash::unit(mix3(self.seed, salt::HOST_STAMP, a.0 as u64));
        if x < self.cfg.host_stamps_self {
            HostStamp::SelfAddr
        } else {
            // Split the remainder between no-stamp and alias-double.
            let rem = (x - self.cfg.host_stamps_self) / (1.0 - self.cfg.host_stamps_self);
            if rem < self.cfg.host_no_stamp_share {
                HostStamp::None
            } else {
                HostStamp::AliasDouble
            }
        }
    }

    // ---- routers as probe destinations ------------------------------------

    /// Does this router answer pings addressed to it? (Routers are more
    /// reliably responsive than edge hosts.)
    pub fn router_ping_responsive(&self, r: RouterId) -> bool {
        chance(mix3(self.seed, salt::ROUTER_PING, r.0 as u64), 0.95)
    }

    /// Does this router answer RR-option pings addressed to it?
    pub fn router_rr_responsive(&self, r: RouterId) -> bool {
        self.router_ping_responsive(r) && chance(mix3(self.seed, salt::ROUTER_RR, r.0 as u64), 0.85)
    }

    // ---- forwarding quirks -------------------------------------------------

    /// Does `(router, destination prefix)` violate destination-based routing
    /// (next hop depends on the packet's source)? Disjoint from load
    /// balancing: load-balancer routers never count as violators (Appx. E's
    /// methodology excludes them).
    pub fn violates_dbr(&self, r: RouterId, p: PrefixId) -> bool {
        chance(
            mix3(self.seed ^ salt::DBR_VIOLATION, r.0 as u64, p.0 as u64),
            self.cfg.dbr_violation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BehaviorConfig;

    fn beh() -> Behavior {
        Behavior::new(77, BehaviorConfig::default())
    }

    #[test]
    fn flags_are_stable() {
        let b = beh();
        let a = Addr::new(11, 3, 128, 55);
        assert_eq!(b.host_ping_responsive(a), b.host_ping_responsive(a));
        assert_eq!(b.host_stamp(a), b.host_stamp(a));
    }

    #[test]
    fn rr_implies_ping() {
        let b = beh();
        let mut rr = 0;
        for i in 0..20_000u32 {
            let a = Addr(0x0B00_8000 + i * 7);
            if b.host_rr_responsive(a) {
                rr += 1;
                assert!(b.host_ping_responsive(a));
            }
        }
        assert!(rr > 0);
    }

    #[test]
    fn rates_approximately_match_config() {
        let b = beh();
        let n = 50_000u32;
        let mut ping = 0;
        let mut rr = 0;
        for i in 0..n {
            let a = Addr(0x0B10_0000 + i);
            if b.host_ping_responsive(a) {
                ping += 1;
                if b.host_rr_responsive(a) {
                    rr += 1;
                }
            }
        }
        let p_ping = ping as f64 / n as f64;
        let p_rr = rr as f64 / ping as f64;
        assert!((p_ping - 0.75).abs() < 0.02, "ping rate {p_ping}");
        assert!((p_rr - 0.78).abs() < 0.02, "conditional RR rate {p_rr}");
    }

    #[test]
    fn stamp_modes_partition() {
        let b = beh();
        let (mut s, mut n, mut al) = (0u32, 0u32, 0u32);
        for i in 0..30_000u32 {
            match b.host_stamp(Addr(0x0B20_0000 + i)) {
                HostStamp::SelfAddr => s += 1,
                HostStamp::None => n += 1,
                HostStamp::AliasDouble => al += 1,
            }
        }
        assert!(s > n && n > al, "expected SelfAddr > None > AliasDouble");
        assert!(al > 0, "alias-double case never drawn");
    }

    #[test]
    fn different_seeds_differ() {
        let a = Behavior::new(1, BehaviorConfig::default());
        let b = Behavior::new(2, BehaviorConfig::default());
        let addrs: Vec<Addr> = (0..1000).map(|i| Addr(0x0B30_0000 + i)).collect();
        let va: Vec<bool> = addrs.iter().map(|&x| a.host_ping_responsive(x)).collect();
        let vb: Vec<bool> = addrs.iter().map(|&x| b.host_ping_responsive(x)).collect();
        assert_ne!(va, vb);
    }
}
