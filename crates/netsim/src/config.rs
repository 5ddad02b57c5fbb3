//! Simulation configuration: topology shape and host/router behaviour rates.
//!
//! Two presets matter for the paper's longitudinal comparisons:
//! [`TopologyConfig::era_2016`] (sparser peering, fewer vantage points — the
//! world of the 2016 record-route study) and [`TopologyConfig::era_2020`]
//! (the "flattened" Internet with expanded M-Lab, the paper's deployment
//! environment, and the default).

use crate::faults::FaultConfig;
use crate::scenario::ScenarioConfig;

/// Shape of the generated AS-level topology.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    /// Number of tier-1 ASes (full peering clique).
    pub n_tier1: usize,
    /// Number of mid-tier transit ASes.
    pub n_transit: usize,
    /// Number of stub (edge) ASes.
    pub n_stub: usize,
    /// Number of NREN-like ASes: research networks that peer widely and use
    /// multi-AS cold-potato routing, over-represented in asymmetric routes
    /// (paper §6.2).
    pub n_nren: usize,
    /// Number of colocation-hosted ASes eligible to host M-Lab-style vantage
    /// points (well connected, spoofing permitted).
    pub n_colo: usize,
    /// Number of M-Lab-like vantage point sites to place (paper: 146).
    pub n_vp_sites: usize,
    /// Probability that a pair of transit ASes establishes a settlement-free
    /// peering link (IXP-style). Higher = flatter Internet = shorter paths.
    pub transit_peering_prob: f64,
    /// Probability that a stub AS peers directly with a content-ish transit
    /// AS in addition to its providers (flattening).
    pub stub_peering_prob: f64,
    /// Providers per stub AS (1..=this).
    pub max_stub_providers: usize,
    /// Providers per transit AS (1..=this).
    pub max_transit_providers: usize,
    /// Routers per tier-1 AS.
    pub tier1_routers: usize,
    /// Routers per transit AS.
    pub transit_routers: usize,
    /// Routers per stub AS.
    pub stub_routers: usize,
    /// Announced /24 prefixes per stub AS (1..=this).
    pub max_stub_prefixes: usize,
    /// Announced /24 prefixes per transit/tier-1 AS (1..=this).
    pub max_core_prefixes: usize,
}

impl TopologyConfig {
    /// The paper-era (≈2020/2021) flattened Internet. Default.
    pub fn era_2020() -> TopologyConfig {
        TopologyConfig {
            n_tier1: 8,
            n_transit: 150,
            n_stub: 1200,
            n_nren: 12,
            n_colo: 60,
            n_vp_sites: 146,
            transit_peering_prob: 0.08,
            stub_peering_prob: 0.10,
            max_stub_providers: 3,
            max_transit_providers: 3,
            tier1_routers: 10,
            transit_routers: 8,
            stub_routers: 4,
            max_stub_prefixes: 2,
            max_core_prefixes: 2,
        }
    }

    /// The sparser 2016-era Internet: less peering, fewer vantage point
    /// sites (the paper's 2016 study used 86 M-Lab sites, 44 of which
    /// survived to 2020).
    pub fn era_2016() -> TopologyConfig {
        TopologyConfig {
            n_vp_sites: 86,
            n_colo: 30,
            transit_peering_prob: 0.025,
            stub_peering_prob: 0.02,
            ..TopologyConfig::era_2020()
        }
    }

    /// A small topology for unit tests and quick examples.
    pub fn tiny() -> TopologyConfig {
        TopologyConfig {
            n_tier1: 3,
            n_transit: 12,
            n_stub: 60,
            n_nren: 2,
            n_colo: 8,
            n_vp_sites: 10,
            transit_peering_prob: 0.15,
            stub_peering_prob: 0.1,
            max_stub_providers: 2,
            max_transit_providers: 2,
            tier1_routers: 4,
            transit_routers: 3,
            stub_routers: 2,
            max_stub_prefixes: 2,
            max_core_prefixes: 1,
        }
    }

    /// Total number of ASes the generator will create.
    pub fn total_ases(&self) -> usize {
        self.n_tier1 + self.n_transit + self.n_stub + self.n_nren
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::era_2020()
    }
}

/// Behavioural rates for hosts and routers, calibrated to the paper's
/// measurements (Appx. F, §4.4, §5.2.2, Appx. E).
#[derive(Clone, Debug)]
pub struct BehaviorConfig {
    /// P(host responds to plain ping) — paper Table 6: 73–77%.
    pub host_ping_responsive: f64,
    /// P(host responds to RR-option ping | ping-responsive) — paper: 78%.
    pub host_rr_responsive: f64,
    /// P(host stamps its own address in RR | RR-responsive). The remainder
    /// split between not stamping at all and stamping an off-prefix alias
    /// (Appx. C's double-stamp / loop cases).
    pub host_stamps_self: f64,
    /// P(host does not stamp at all | RR-responsive and not stamping self).
    pub host_no_stamp_share: f64,
    /// P(host responds to TS-option ping | ping-responsive) — TS support is
    /// rarer than RR (Insight 1.9 context).
    pub host_ts_responsive: f64,
    /// P(router responds to TTL-exceeded, i.e. shows up in traceroute).
    pub router_ttl_responsive: f64,
    /// Router RR stamp mode distribution: P(egress) (standard).
    pub router_stamp_egress: f64,
    /// P(ingress stamping).
    pub router_stamp_ingress: f64,
    /// P(loopback stamping).
    pub router_stamp_loopback: f64,
    /// P(private-address stamping).
    pub router_stamp_private: f64,
    // remainder: NoStamp
    /// P(router answers unsolicited SNMPv3 with a stable id) — paper §4.4:
    /// ≈30% of ITDK routers.
    pub router_snmp_responsive: f64,
    /// P(router supports the TS option).
    pub router_ts_responsive: f64,
    /// P(a non-colo AS filters spoofed-source packets from hosts inside it).
    pub as_spoof_filter: f64,
    /// P(a transit AS runs its backbone as MPLS LSPs with no TTL
    /// propagation): interior routers process neither TTL nor IP options,
    /// so both traceroute and RR miss them — the "hidden MPLS tunnel"
    /// incompleteness of §5.2.2.
    pub as_mpls: f64,
    /// P(router is a per-packet load balancer for option-carrying packets)
    /// (Appx. E: option packets are balanced randomly, not per-flow).
    pub router_load_balancer: f64,
    /// P(a (router, prefix) pair violates destination-based routing by
    /// choosing its next hop based on the packet source) — paper Appx. E
    /// measures 6.6% of hops affected; per-router rate is lower.
    pub dbr_violation: f64,
    /// Route churn: expected fraction of prefixes whose inter-domain
    /// tie-breaks re-roll per virtual hour (drives atlas staleness, Fig. 9d).
    pub churn_per_hour: f64,
}

impl Default for BehaviorConfig {
    fn default() -> Self {
        BehaviorConfig {
            host_ping_responsive: 0.75,
            host_rr_responsive: 0.78,
            host_stamps_self: 0.82,
            host_no_stamp_share: 0.6,
            host_ts_responsive: 0.40,
            router_ttl_responsive: 0.92,
            router_stamp_egress: 0.62,
            router_stamp_ingress: 0.12,
            router_stamp_loopback: 0.10,
            router_stamp_private: 0.06,
            router_snmp_responsive: 0.30,
            router_ts_responsive: 0.45,
            as_spoof_filter: 0.35,
            as_mpls: 0.15,
            router_load_balancer: 0.04,
            dbr_violation: 0.02,
            churn_per_hour: 0.002,
        }
    }
}

/// Full simulation configuration.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Topology shape.
    pub topology: TopologyConfig,
    /// Behaviour rates.
    pub behavior: BehaviorConfig,
    /// Fault-injection rates (all off by default — see [`FaultConfig`]).
    pub faults: FaultConfig,
    /// Adversarial scenario severities (all off by default — see
    /// [`ScenarioConfig`]).
    pub scenario: ScenarioConfig,
}

impl SimConfig {
    /// Paper-era defaults.
    pub fn era_2020() -> SimConfig {
        SimConfig {
            topology: TopologyConfig::era_2020(),
            behavior: BehaviorConfig::default(),
            faults: FaultConfig::default(),
            scenario: ScenarioConfig::default(),
        }
    }

    /// 2016-era topology with the same behaviour rates.
    pub fn era_2016() -> SimConfig {
        SimConfig {
            topology: TopologyConfig::era_2016(),
            behavior: BehaviorConfig::default(),
            faults: FaultConfig::default(),
            scenario: ScenarioConfig::default(),
        }
    }

    /// Small config for tests.
    pub fn tiny() -> SimConfig {
        SimConfig {
            topology: TopologyConfig::tiny(),
            behavior: BehaviorConfig::default(),
            faults: FaultConfig::default(),
            scenario: ScenarioConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let c20 = TopologyConfig::era_2020();
        let c16 = TopologyConfig::era_2016();
        assert!(c16.n_vp_sites < c20.n_vp_sites);
        assert!(c16.transit_peering_prob < c20.transit_peering_prob);
        assert_eq!(c20.total_ases(), 8 + 150 + 1200 + 12);
    }

    #[test]
    fn behavior_probs_in_range() {
        let b = BehaviorConfig::default();
        for p in [
            b.host_ping_responsive,
            b.host_rr_responsive,
            b.host_stamps_self,
            b.host_ts_responsive,
            b.router_ttl_responsive,
            b.router_snmp_responsive,
            b.as_spoof_filter,
            b.router_load_balancer,
            b.dbr_violation,
        ] {
            assert!((0.0..=1.0).contains(&p));
        }
        let stamp_sum = b.router_stamp_egress
            + b.router_stamp_ingress
            + b.router_stamp_loopback
            + b.router_stamp_private;
        assert!(stamp_sum < 1.0, "stamp modes must leave room for NoStamp");
    }
}
