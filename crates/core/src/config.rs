//! Engine configuration: the decomposition of Eq. 1 / Table 4.
//!
//! revtr 2.0 = revtr 1.0 + ingress + cache − TS + RR-atlas, plus the
//! trust policy (intradomain-only symmetry). Each knob is independent so
//! every ablation row of Table 4 is runnable.

use serde::{Deserialize, Serialize};

/// Spoofed probes per batch (paper: 3, §5.3).
pub const BATCH_SIZE: usize = 3;

/// Maximum adjacencies tested per hop via timestamp.
pub const MAX_TS_ADJACENCIES: usize = 6;

/// Hard cap on reverse-path length (loop guard).
pub const MAX_PATH_HOPS: usize = 40;

/// How spoofed-RR vantage points are chosen (Q3, §5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum VpSelection {
    /// revtr 2.0: one VP per ingress of the destination prefix, closest
    /// first, batches of three — and none at a hop that left the
    /// source's own direct RR ping unanswered: a spoofed RR ping goes to
    /// the same responder, and its reply comes back to the same source.
    /// The other selections keep trying every VP there.
    Ingress,
    /// revtr 1.0: destination set-cover order, then everything.
    SetCover,
    /// Greedy global order (the "Global" baseline of Fig. 6).
    Global,
}

/// What to do when no technique finds the next reverse hop (Q5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SymmetryPolicy {
    /// revtr 1.0: always assume the last traceroute link is symmetric.
    Always,
    /// revtr 2.0: assume symmetry only across intradomain links; abort on
    /// interdomain links (Insight 1.10).
    IntradomainOnly,
}

/// Full engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// VP selection technique.
    pub vp_selection: VpSelection,
    /// Reuse cached traceroutes / RR measurements (one-day TTL).
    pub use_cache: bool,
    /// Try IP timestamp adjacency testing when RR fails (revtr 1.0 only).
    pub use_timestamp: bool,
    /// Use the RR-atlas intersection index (§4.2). When off, intersections
    /// need an exact address match or the external alias datasets
    /// (MIDAR-lite / SNMP) — revtr 1.0's approach to Q2.
    pub use_rr_atlas: bool,
    /// Use only registry-origin IP-to-AS data for the intradomain/
    /// interdomain decision (Q5), without the PeeringDB/EuroIX border
    /// corrections — the naive baseline of the Appx. B.2 mapping ablation.
    pub registry_only_ip2as: bool,
    /// Verify destination-based routing with redundant probes during the
    /// measurement (Appx. E's optional mode): each RR-revealed hop chain
    /// is re-probed and the result flagged when a violating router is
    /// detected — extra probes for extra confidence.
    pub verify_dbr: bool,
    /// Consult and feed the campaign-wide Doubletree-style stop sets
    /// (`revtr_probing::stopset`): reuse earlier requests' reverse-hop
    /// evidence at shared routers, skip predictably futile direct RR
    /// probes — and, at a router that left the source's direct RR ping
    /// unanswered, the spoofed ladder that [`VpSelection::Ingress`] skips
    /// there too — start spoofed ladders at remembered winner VPs, and
    /// dedup RR-atlas probes per interface. Off by default — `revtr-cli audit`
    /// runs the clean campaign with this knob off and on and gates the
    /// on arm's probe economy against the off control.
    pub use_stop_sets: bool,
    /// Symmetry assumption policy.
    pub symmetry: SymmetryPolicy,
    /// Traceroutes requested per source atlas (paper: 1000).
    pub atlas_size: usize,
}

impl EngineConfig {
    /// The full revtr 2.0 system.
    pub fn revtr2() -> EngineConfig {
        EngineConfig {
            vp_selection: VpSelection::Ingress,
            use_cache: true,
            use_timestamp: false,
            use_rr_atlas: true,
            registry_only_ip2as: false,
            verify_dbr: false,
            use_stop_sets: false,
            symmetry: SymmetryPolicy::IntradomainOnly,
            atlas_size: 1000,
        }
    }

    /// The revtr 1.0 baseline (Table 4 row 1).
    pub fn revtr1() -> EngineConfig {
        EngineConfig {
            vp_selection: VpSelection::SetCover,
            use_cache: false,
            use_timestamp: true,
            use_rr_atlas: false,
            symmetry: SymmetryPolicy::Always,
            ..EngineConfig::revtr2()
        }
    }

    /// Table 4 row 2: revtr 1.0 + ingress-based VP selection.
    pub fn revtr1_ingress() -> EngineConfig {
        EngineConfig {
            vp_selection: VpSelection::Ingress,
            ..EngineConfig::revtr1()
        }
    }

    /// Table 4 row 3: + measurement cache.
    pub fn revtr1_ingress_cache() -> EngineConfig {
        EngineConfig {
            use_cache: true,
            ..EngineConfig::revtr1_ingress()
        }
    }

    /// Table 4 row 4: − timestamp.
    pub fn revtr1_ingress_cache_nots() -> EngineConfig {
        EngineConfig {
            use_timestamp: false,
            ..EngineConfig::revtr1_ingress_cache()
        }
    }

    /// revtr 2.0 with timestamp re-enabled (Fig. 5b's "revtr 2.0 + TS").
    pub fn revtr2_with_ts() -> EngineConfig {
        EngineConfig {
            use_timestamp: true,
            ..EngineConfig::revtr2()
        }
    }

    /// The ablation ladder of Table 4, in paper order, with display names.
    pub fn table4_ladder() -> Vec<(&'static str, EngineConfig)> {
        vec![
            ("revtr 1.0", EngineConfig::revtr1()),
            ("revtr 1.0 + ingress", EngineConfig::revtr1_ingress()),
            (
                "revtr 1.0 + ingress + cache",
                EngineConfig::revtr1_ingress_cache(),
            ),
            (
                "revtr 1.0 + ingress + cache - TS",
                EngineConfig::revtr1_ingress_cache_nots(),
            ),
            ("revtr 2.0", EngineConfig::revtr2()),
        ]
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::revtr2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revtr2_matches_equation_one() {
        // revtr 2.0 = revtr 1.0 + ingress + cache − TS + RR-atlas.
        let v2 = EngineConfig::revtr2();
        assert_eq!(v2.vp_selection, VpSelection::Ingress);
        assert!(v2.use_cache);
        assert!(!v2.use_timestamp);
        assert!(v2.use_rr_atlas);
        assert_eq!(v2.symmetry, SymmetryPolicy::IntradomainOnly);
        let v1 = EngineConfig::revtr1();
        assert_eq!(v1.vp_selection, VpSelection::SetCover);
        assert!(!v1.use_cache);
        assert!(v1.use_timestamp);
        assert!(!v1.use_rr_atlas);
        assert_eq!(v1.symmetry, SymmetryPolicy::Always);
    }

    #[test]
    fn ladder_steps_change_one_knob_at_a_time() {
        let ladder = EngineConfig::table4_ladder();
        assert_eq!(ladder.len(), 5);
        // Step 1→2: only VP selection changes.
        assert_eq!(ladder[1].1.vp_selection, VpSelection::Ingress);
        assert_eq!(ladder[1].1.use_cache, ladder[0].1.use_cache);
        // Step 2→3: only cache.
        assert!(ladder[2].1.use_cache && !ladder[1].1.use_cache);
        // Step 3→4: only TS.
        assert!(!ladder[3].1.use_timestamp && ladder[2].1.use_timestamp);
        // Step 4→5: RR-atlas (plus the trust policy that defines 2.0).
        assert!(ladder[4].1.use_rr_atlas && !ladder[3].1.use_rr_atlas);
    }
}
