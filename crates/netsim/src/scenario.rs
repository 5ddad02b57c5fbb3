//! Named adversarial scenario profiles: the hostile-Internet layer.
//!
//! Where [`crate::faults`] models *benign* failures (loss, rate limits,
//! maintenance), this module models an Internet that actively misbehaves
//! the way the spoofing/deception literature describes:
//! spoof-filter rollouts that silently shrink the usable VP pool, regions
//! with systematic destination-based-routing violations, responders that
//! return plausible-but-false Record Route slots, asymmetric ICMP rate
//! limiters, and fabricated atlas traceroutes.
//!
//! Every draw is a **pure function of stable entity keys** — AS ids,
//! addresses, attempt indices — under a per-profile salt. Nothing here
//! reads virtual time, consumes shared nonces, or keeps mutable state, so
//! (a) a campaign under any profile is exactly reproducible from its
//! seed at any dispatch worker count (the measurement cache can be filled
//! by any task in any order and still record the same values), and (b)
//! composed profiles cannot couple: enabling one profile never changes
//! another profile's draws. With [`ScenarioConfig::default`] (all
//! severities zero) no draw can fire and the simulation is byte-identical
//! to a scenario-free build.

use crate::addr::Addr;
use crate::hash::{chance, mix2, mix3};
use crate::ids::{AsId, RouterId};
use serde::{Deserialize, Serialize};

/// Salts for independent per-profile draws. Each profile owns its own
/// salt(s), so composed profiles draw from disjoint hash streams.
mod salt {
    pub(crate) const ROLLOUT_COHORT: u64 = 0x51;
    pub(crate) const ROLLOUT_FRONTIER: u64 = 0x52;
    pub(crate) const DBR_REGION: u64 = 0x53;
    pub(crate) const DBR_PICK: u64 = 0x54;
    pub(crate) const LIE_DRAW: u64 = 0x55;
    pub(crate) const LIE_FAKE: u64 = 0x56;
    pub(crate) const RATE_COHORT: u64 = 0x57;
    pub(crate) const RATE_DROP: u64 = 0x58;
    pub(crate) const POISON_DRAW: u64 = 0x59;
    pub(crate) const POISON_HOP: u64 = 0x5a;
    pub(crate) const SEED: u64 = 0x5ce_a10;
}

/// The five named adversarial profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioProfile {
    /// A mid-campaign spoof-filter rollout: a cohort of ASes deploys
    /// source-address validation, and spoofed packets from VPs inside
    /// them are dropped toward the rolled-out fraction of destinations.
    SpoofFilterRollout,
    /// A region of ASes whose routers systematically violate
    /// destination-based routing for option-carrying packets.
    DbrViolationRegion,
    /// Destinations whose RR reply legs are rewritten with
    /// plausible-but-false (real, on-topology) interface addresses.
    LyingRrResponders,
    /// Responders that rate-limit asymmetrically: spoofed probes are
    /// dropped far more aggressively than direct ones.
    AsymmetricRateLimiters,
    /// Atlas traceroutes with a fabricated transit hop, creating false
    /// intersections.
    PoisonedAtlas,
}

impl ScenarioProfile {
    /// Every profile, in canonical reporting order.
    pub const ALL: [ScenarioProfile; 5] = [
        ScenarioProfile::SpoofFilterRollout,
        ScenarioProfile::DbrViolationRegion,
        ScenarioProfile::LyingRrResponders,
        ScenarioProfile::AsymmetricRateLimiters,
        ScenarioProfile::PoisonedAtlas,
    ];

    /// Stable kebab-case name (CLI flag values, table rows).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioProfile::SpoofFilterRollout => "spoof-filter-rollout",
            ScenarioProfile::DbrViolationRegion => "dbr-violation-region",
            ScenarioProfile::LyingRrResponders => "lying-rr-responders",
            ScenarioProfile::AsymmetricRateLimiters => "asymmetric-rate-limiters",
            ScenarioProfile::PoisonedAtlas => "poisoned-atlas",
        }
    }

    /// Parse a profile from its kebab-case [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<ScenarioProfile> {
        ScenarioProfile::ALL.into_iter().find(|p| p.name() == s)
    }

    /// The calibrated default severity the conformance harness runs at.
    pub fn default_severity(self) -> f64 {
        match self {
            ScenarioProfile::SpoofFilterRollout => 0.6,
            ScenarioProfile::DbrViolationRegion => 0.5,
            ScenarioProfile::LyingRrResponders => 0.4,
            ScenarioProfile::AsymmetricRateLimiters => 0.6,
            ScenarioProfile::PoisonedAtlas => 0.6,
        }
    }
}

/// Rollout progress: P(a cohort AS has deployed the spoof filter on the
/// path toward any given destination). The "mid-campaign" frontier —
/// keyed per (AS, destination), not per time, so the campaign stays
/// schedule-invariant.
const ROLLOUT_PROGRESS: f64 = 0.7;

/// Per-attempt drop probability for *spoofed* probes at an asymmetric
/// limiter.
const RATE_LIMIT_SPOOF_DROP: f64 = 0.85;

/// Direct probes drop at [`RATE_LIMIT_SPOOF_DROP`] times this factor (the
/// asymmetry).
const RATE_LIMIT_DIRECT_FACTOR: f64 = 0.2;

/// Scenario severities, one per profile. All default to **zero**
/// (scenarios off), so existing seeds reproduce byte-identically unless a
/// study opts in.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// P(an AS joins the spoof-filter rollout cohort).
    #[serde(default)]
    pub spoof_filter_rollout: f64,
    /// P(an AS belongs to the DBR-violating region).
    #[serde(default)]
    pub dbr_violation_region: f64,
    /// P(a destination's RR reply leg is rewritten with false slots).
    #[serde(default)]
    pub lying_rr_responders: f64,
    /// P(a destination sits behind an asymmetric rate limiter).
    #[serde(default)]
    pub asymmetric_rate_limiters: f64,
    /// P(an atlas (vp, source) traceroute carries a fabricated hop).
    #[serde(default)]
    pub poisoned_atlas: f64,
}

impl ScenarioConfig {
    /// One named profile at its calibrated default severity.
    pub fn profile(p: ScenarioProfile) -> ScenarioConfig {
        ScenarioConfig::profile_at(p, p.default_severity())
    }

    /// One named profile at an explicit severity in `[0, 1]`.
    pub fn profile_at(p: ScenarioProfile, severity: f64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::default();
        match p {
            ScenarioProfile::SpoofFilterRollout => cfg.spoof_filter_rollout = severity,
            ScenarioProfile::DbrViolationRegion => cfg.dbr_violation_region = severity,
            ScenarioProfile::LyingRrResponders => cfg.lying_rr_responders = severity,
            ScenarioProfile::AsymmetricRateLimiters => cfg.asymmetric_rate_limiters = severity,
            ScenarioProfile::PoisonedAtlas => cfg.poisoned_atlas = severity,
        }
        cfg
    }

    /// True if any profile is active. When false no scenario draw is ever
    /// evaluated on the hot path, guaranteeing scenario-free runs stay
    /// bit-identical to pre-scenario builds.
    pub fn any_enabled(&self) -> bool {
        self.spoof_filter_rollout > 0.0
            || self.dbr_violation_region > 0.0
            || self.lying_rr_responders > 0.0
            || self.asymmetric_rate_limiters > 0.0
            || self.poisoned_atlas > 0.0
    }
}

/// Scenario oracle: derives per-entity adversarial state deterministically.
///
/// Unlike [`crate::faults::Faults`] this type holds **no mutable state at
/// all**: every method is a pure function of `(seed, entity keys)`, which
/// is what makes scenario campaigns invariant under dispatch-worker
/// reordering (see the module docs).
pub struct Scenarios {
    seed: u64,
    cfg: ScenarioConfig,
}

impl Scenarios {
    /// Create from the sim seed and a scenario config.
    pub fn new(seed: u64, cfg: ScenarioConfig) -> Scenarios {
        Scenarios {
            seed: mix2(seed, salt::SEED),
            cfg,
        }
    }

    /// The configured severities.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// True if any profile is active (see [`ScenarioConfig::any_enabled`]).
    pub fn any_enabled(&self) -> bool {
        self.cfg.any_enabled()
    }

    /// Is this AS in the spoof-filter rollout cohort?
    pub fn rollout_cohort(&self, vp_as: AsId) -> bool {
        self.cfg.spoof_filter_rollout > 0.0
            && chance(
                mix2(self.seed ^ salt::ROLLOUT_COHORT, vp_as.0 as u64),
                self.cfg.spoof_filter_rollout,
            )
    }

    /// Is a spoofed packet from a VP inside `vp_as` dropped toward `dst`?
    /// The per-(AS, destination) frontier draw models rollout progress
    /// without any time dependence: the filtered pair set is fixed for
    /// the campaign, covering `ROLLOUT_PROGRESS` of destinations.
    pub fn spoof_filtered(&self, vp_as: AsId, dst: Addr) -> bool {
        self.rollout_cohort(vp_as)
            && chance(
                mix3(
                    self.seed ^ salt::ROLLOUT_FRONTIER,
                    vp_as.0 as u64,
                    dst.0 as u64,
                ),
                ROLLOUT_PROGRESS,
            )
    }

    /// Is this AS inside the DBR-violating region?
    pub fn dbr_region(&self, asn: AsId) -> bool {
        self.cfg.dbr_violation_region > 0.0
            && chance(
                mix2(self.seed ^ salt::DBR_REGION, asn.0 as u64),
                self.cfg.dbr_violation_region,
            )
    }

    /// Alternate next-hop index a DBR-violating router picks for an
    /// option packet: keyed on the packet's routing source, so replies
    /// toward different claimed sources diverge — exactly the violation
    /// Appx. E measures.
    pub fn dbr_alternate(&self, routing_src: Addr, router: RouterId, n: usize) -> usize {
        debug_assert!(n > 0);
        (mix3(
            self.seed ^ salt::DBR_PICK,
            routing_src.0 as u64,
            router.0 as u64,
        ) % n as u64) as usize
    }

    /// Does this destination lie in its RR reply slots?
    pub fn lying_responder(&self, dst: Addr) -> bool {
        self.cfg.lying_rr_responders > 0.0
            && chance(
                mix2(self.seed ^ salt::LIE_DRAW, dst.0 as u64),
                self.cfg.lying_rr_responders,
            )
    }

    /// Index of the fake interface a lying responder substitutes for the
    /// true stamp `truth` (stable per (dst, truth): repeating the probe
    /// repeats the lie, which is what makes the lie *plausible*).
    pub fn lie_pick(&self, dst: Addr, truth: Addr, n_links: usize) -> usize {
        debug_assert!(n_links > 0);
        (mix3(self.seed ^ salt::LIE_FAKE, dst.0 as u64, truth.0 as u64) % n_links as u64) as usize
    }

    /// Does this destination sit behind an asymmetric rate limiter?
    pub fn rate_limiter(&self, dst: Addr) -> bool {
        self.cfg.asymmetric_rate_limiters > 0.0
            && chance(
                mix2(self.seed ^ salt::RATE_COHORT, dst.0 as u64),
                self.cfg.asymmetric_rate_limiters,
            )
    }

    /// Is this probe attempt dropped by the destination's asymmetric
    /// rate limiter? Keyed per `(dst, sender, attempt)`, so a retry (next
    /// attempt index) re-rolls the draw — the recovery path the raised
    /// hardened stall budget exploits.
    pub fn rate_limited(&self, dst: Addr, sender: Addr, spoofed: bool, attempt: u64) -> bool {
        if !self.rate_limiter(dst) {
            return false;
        }
        let p = if spoofed {
            RATE_LIMIT_SPOOF_DROP
        } else {
            RATE_LIMIT_SPOOF_DROP * RATE_LIMIT_DIRECT_FACTOR
        };
        chance(
            mix3(
                self.seed ^ salt::RATE_DROP,
                mix2(dst.0 as u64, sender.0 as u64),
                attempt,
            ),
            p,
        )
    }

    /// Is this atlas (vp, source) traceroute poisoned?
    pub fn poisoned_trace(&self, vp: Addr, source: Addr) -> bool {
        self.cfg.poisoned_atlas > 0.0
            && chance(
                mix3(self.seed ^ salt::POISON_DRAW, vp.0 as u64, source.0 as u64),
                self.cfg.poisoned_atlas,
            )
    }

    /// Which middle hop of an `n`-hop poisoned trace is replaced, and the
    /// link index whose interface replaces it. Requires `n >= 3` (the
    /// endpoints are never forged — a poisoned trace must still *look*
    /// like a trace to the source).
    pub fn poison_pick(&self, vp: Addr, source: Addr, n: usize, n_links: usize) -> (usize, usize) {
        debug_assert!(n >= 3 && n_links > 0);
        let h = mix3(self.seed ^ salt::POISON_HOP, vp.0 as u64, source.0 as u64);
        let hop = 1 + (h % (n as u64 - 2)) as usize;
        let link = (mix2(h, 1) % n_links as u64) as usize;
        (hop, link)
    }
}

impl std::fmt::Debug for Scenarios {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenarios")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inert() {
        let s = Scenarios::new(7, ScenarioConfig::default());
        assert!(!s.any_enabled());
        for i in 0..2_000u32 {
            assert!(!s.rollout_cohort(AsId(i)));
            assert!(!s.spoof_filtered(AsId(i), Addr(i)));
            assert!(!s.dbr_region(AsId(i)));
            assert!(!s.lying_responder(Addr(i)));
            assert!(!s.rate_limiter(Addr(i)));
            assert!(!s.rate_limited(Addr(i), Addr(1), true, i as u64));
            assert!(!s.poisoned_trace(Addr(i), Addr(1)));
        }
    }

    #[test]
    fn severity_zero_profile_equals_default() {
        for p in ScenarioProfile::ALL {
            assert_eq!(
                ScenarioConfig::profile_at(p, 0.0),
                ScenarioConfig::default(),
                "severity-0 {p:?} must be the inert config"
            );
        }
    }

    #[test]
    fn profile_names_round_trip() {
        for p in ScenarioProfile::ALL {
            assert_eq!(ScenarioProfile::from_name(p.name()), Some(p));
            assert!(ScenarioConfig::profile(p).any_enabled());
        }
        assert_eq!(ScenarioProfile::from_name("bogus"), None);
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let cfg = ScenarioConfig::profile_at(ScenarioProfile::LyingRrResponders, 0.5);
        let a = Scenarios::new(1, cfg.clone());
        let b = Scenarios::new(1, cfg.clone());
        let c = Scenarios::new(2, cfg);
        let da: Vec<bool> = (0..2_000).map(|i| a.lying_responder(Addr(i))).collect();
        let db: Vec<bool> = (0..2_000).map(|i| b.lying_responder(Addr(i))).collect();
        let dc: Vec<bool> = (0..2_000).map(|i| c.lying_responder(Addr(i))).collect();
        assert_eq!(da, db, "same seed must replay identically");
        assert_ne!(da, dc, "different seeds must differ");
    }

    #[test]
    fn profiles_draw_from_independent_streams() {
        // Enabling profile A must not change profile B's draws: each
        // method reads only its own severity and salt.
        let lie_only = Scenarios::new(
            5,
            ScenarioConfig::profile_at(ScenarioProfile::LyingRrResponders, 0.5),
        );
        let composed = Scenarios::new(
            5,
            ScenarioConfig {
                spoof_filter_rollout: 0.7,
                dbr_violation_region: 0.7,
                lying_rr_responders: 0.5,
                asymmetric_rate_limiters: 0.7,
                poisoned_atlas: 0.7,
            },
        );
        for i in 0..2_000u32 {
            assert_eq!(
                lie_only.lying_responder(Addr(i)),
                composed.lying_responder(Addr(i)),
            );
            assert_eq!(
                lie_only.lie_pick(Addr(i), Addr(i ^ 9), 17),
                composed.lie_pick(Addr(i), Addr(i ^ 9), 17),
            );
        }
    }

    #[test]
    fn draw_rates_approximately_match_severity() {
        let s = Scenarios::new(
            11,
            ScenarioConfig::profile_at(ScenarioProfile::DbrViolationRegion, 0.3),
        );
        let n = 20_000u32;
        let hit = (0..n).filter(|&i| s.dbr_region(AsId(i))).count();
        let p = hit as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.02, "region rate {p}");
    }

    #[test]
    fn rate_limiter_is_asymmetric_and_rerolls_per_attempt() {
        let s = Scenarios::new(
            3,
            ScenarioConfig::profile_at(ScenarioProfile::AsymmetricRateLimiters, 1.0),
        );
        let (dst, vp) = (Addr(100), Addr(200));
        assert!(s.rate_limiter(dst));
        let n = 10_000u64;
        let spoofed = (0..n).filter(|&a| s.rate_limited(dst, vp, true, a)).count();
        let direct = (0..n)
            .filter(|&a| s.rate_limited(dst, vp, false, a))
            .count();
        assert!(
            spoofed > direct * 3,
            "spoofed drops {spoofed} must dominate direct drops {direct}"
        );
        // Attempts draw independently: not every attempt is dropped.
        assert!(spoofed < n as usize, "some spoofed attempt must survive");
    }

    #[test]
    fn poison_pick_targets_a_middle_hop() {
        let s = Scenarios::new(
            9,
            ScenarioConfig::profile_at(ScenarioProfile::PoisonedAtlas, 1.0),
        );
        for i in 0..500u32 {
            let (hop, link) = s.poison_pick(Addr(i), Addr(1), 8, 40);
            assert!((1..7).contains(&hop), "hop {hop} must be interior");
            assert!(link < 40);
        }
    }
}
