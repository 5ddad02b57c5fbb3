//! Hostile-Internet scenario conformance harness: every adversarial
//! profile run off/on against the identical seeded campaign.
//!
//! This is the evaluation face of [`revtr_netsim::scenario`]: for each
//! named [`ScenarioProfile`] it runs the same seeded campaign three ways —
//! clean (scenario off), hostile (scenario on, stock engine), and hardened
//! (scenario on, `EngineConfig::harden`) — and grades the hardening claim
//! of the PR per profile:
//!
//! 1. the profile must *bite*: the hostile arm's campaign fingerprint must
//!    differ from the clean arm's (a scenario that changes nothing proves
//!    nothing);
//! 2. every comparison is in **correct coverage** — coverage × oracle
//!    accuracy, the fraction of the workload answered *correctly* — since
//!    an adversary that fabricates evidence inflates the stock engine's
//!    raw coverage with wrong paths;
//! 3. the *fabrication* profiles (lying responders, poisoned atlas — the
//!    stock engine adopts fabricated hops wholesale, collapsing its
//!    accuracy) must show hardening *repairing* correct coverage by at
//!    least [`MIN_REPAIR`] over the stock arm;
//! 4. the *denial* profiles (spoof-filter rollout, asymmetric rate
//!    limiters, DBR-violating regions — adversaries that destroy or
//!    divert probes) deny information no honest engine conjures back;
//!    there, hardening must *hold* correct coverage (within
//!    [`NEGLIGIBLE_LOSS`]) while its probe-economy countermeasures
//!    (quarantine, adaptive stall budgets) do their work;
//! 5. in every profile the hardened arm must keep oracle AS-accuracy at
//!    or above [`DEFAULT_MIN_ACCURACY`] and audit **zero unsound** (and
//!    zero policy-violating) hops — hardening may never buy coverage back
//!    by accepting fabricated evidence.
//!
//! Each arm is one [`CampaignRun`] graded by [`arm`]. `revtr-cli scenario`
//! renders the per-profile table and exits non-zero when any profile fails
//! its gate; ci.sh sweeps the standard scale over seeds {1, 7, 42}.

use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::render::Table;
use crate::{audit, monitor};
use revtr_netsim::{ScenarioConfig, ScenarioProfile};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// Fabrication profiles: hardening must repair at least this much
/// correct coverage (coverage × accuracy) over the stock engine.
pub const MIN_REPAIR: f64 = 0.05;

/// The hardened arm's oracle AS-accuracy floor. Slightly below the clean
/// campaign's typical accuracy: the destinations hardening wins back are
/// the hard ones, answered with marginally riskier evidence.
pub const DEFAULT_MIN_ACCURACY: f64 = 0.96;

/// Correct-coverage swings at or below this are within campaign noise:
/// at the standard scale (2000 requests) one request is 0.0005 of
/// coverage, and anything that reorders the campaign's probe
/// interleaving under route churn — toggling hardening, or just the
/// order requests are dispatched in — flips borderline requests either
/// way between otherwise-equivalent configurations. Calibrated from
/// PR 14's table (EXPERIMENTS.md): moving serial dispatch from
/// interleaved rounds to id order, with nothing else changed, moved this
/// statistic by up to 0.0105 (21 requests) across the 15 (seed, profile)
/// cells, so the hold clause for denial profiles tolerates a drop of 30.
/// Real regressions observed during tuning (an over-eager demotion rule,
/// a mistimed quarantine) cost 0.05–0.2.
pub const NEGLIGIBLE_LOSS: f64 = 0.015;

/// One arm of a profile run (clean baseline, hostile, or hardened).
#[derive(Clone, Debug)]
pub struct ScenarioArm {
    /// Whether the hardened engine ran.
    pub harden: bool,
    /// Requests attempted.
    pub requests: u64,
    /// Campaign coverage (complete / attempted).
    pub coverage: f64,
    /// Oracle AS-soundness of compared complete paths.
    pub accuracy: f64,
    /// Measurement probes per attempted request.
    pub probes_per_revtr: f64,
    /// Stitch-trace audit: unsound + policy-violating hop verdicts.
    pub unsound: u64,
    /// SLO rules firing under the recalibrated scenario policy.
    pub alerts: Vec<String>,
    /// Campaign fingerprint (hash of every serialized result, in input
    /// order) — the seed-purity and worker-invariance identity.
    pub fingerprint: u64,
}

/// One profile's off/on comparison.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// The adversarial profile.
    pub profile: ScenarioProfile,
    /// Severity both arms ran at.
    pub severity: f64,
    /// Scenario on, stock engine.
    pub off: ScenarioArm,
    /// Scenario on, hardened engine.
    pub on: ScenarioArm,
}

impl ProfileReport {
    /// Coverage the profile cost the stock engine vs the clean baseline.
    pub fn loss(&self, clean: &ScenarioArm) -> f64 {
        clean.coverage - self.off.coverage
    }

    /// Coverage hardening recovered over the stock engine.
    pub fn recovered(&self) -> f64 {
        self.on.coverage - self.off.coverage
    }

    /// Correct coverage hardening gained over the stock engine, where
    /// correct coverage is coverage × oracle accuracy — the fraction of
    /// the workload answered *correctly*. Deception profiles inflate the
    /// stock arm's raw coverage with fabricated paths; this discounts it.
    pub fn correct_recovered(&self) -> f64 {
        self.on.coverage * self.on.accuracy - self.off.coverage * self.off.accuracy
    }

    /// Whether this profile's adversary fabricates evidence the stock
    /// engine adopts wholesale (its accuracy collapses, so hardening has
    /// correct coverage to *repair*), as opposed to denying information
    /// outright (nothing to repair — hardening must hold the line).
    pub fn fabrication_based(&self) -> bool {
        matches!(
            self.profile,
            ScenarioProfile::LyingRrResponders | ScenarioProfile::PoisonedAtlas
        )
    }

    /// A nominal gate fraction quantized to this campaign's coverage
    /// step (one request, `1/requests`), rounded down but never below a
    /// single request. At the standard scale (2000 requests) this is the
    /// nominal value; at the smoke scale (25 requests, 0.04 per request)
    /// a nominal 0.05 would otherwise demand *two* repaired requests
    /// where one is every request the adversary cost.
    fn quantized(&self, nominal: f64) -> f64 {
        let n = self.on.requests.max(1) as f64;
        (nominal * n).floor().max(1.0) / n
    }

    /// The fabrication-profile repair floor for this campaign's size.
    pub fn repair_floor(&self) -> f64 {
        self.quantized(MIN_REPAIR)
    }

    /// The denial-profile hold tolerance for this campaign's size.
    pub fn hold_tolerance(&self) -> f64 {
        self.quantized(NEGLIGIBLE_LOSS)
    }

    /// The per-profile conformance gate (see the module doc). Threshold
    /// comparisons carry a 1e-9 slack: the gate fractions and the
    /// measured coverages are both ratios of small integers over
    /// `requests`, equal in exact arithmetic but not bit-identical.
    pub fn pass(&self, clean: &ScenarioArm) -> bool {
        let bites = self.off.fingerprint != clean.fingerprint;
        let coverage_ok = if self.fabrication_based() {
            self.correct_recovered() >= self.repair_floor() - 1e-9
        } else {
            self.correct_recovered() >= -self.hold_tolerance() - 1e-9
        };
        bites && coverage_ok && self.on.accuracy >= DEFAULT_MIN_ACCURACY && self.on.unsound == 0
    }
}

/// The full conformance report: one seeded campaign, every profile.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scale every arm ran at.
    pub scale: Scale,
    /// Master seed (all arms).
    pub seed: u64,
    /// The clean baseline (no scenario, stock engine).
    pub clean: ScenarioArm,
    /// Per-profile off/on comparisons.
    pub profiles: Vec<ProfileReport>,
}

impl ScenarioReport {
    /// Whether every profile passed its gate.
    pub fn pass(&self) -> bool {
        self.profiles.iter().all(|p| p.pass(&self.clean))
    }

    /// The per-profile conformance table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Hostile-Internet scenarios: per-profile conformance",
            &[
                "profile",
                "sev",
                "arm",
                "coverage",
                "accuracy",
                "probes/revtr",
                "unsound",
                "firing rules",
                "gate",
            ],
        );
        let arm_row =
            |t: &mut Table, name: &str, sev: &str, label: &str, a: &ScenarioArm, gate: &str| {
                t.row(&[
                    name.to_string(),
                    sev.to_string(),
                    label.to_string(),
                    format!("{:.4}", a.coverage),
                    format!("{:.4}", a.accuracy),
                    format!("{:.2}", a.probes_per_revtr),
                    a.unsound.to_string(),
                    if a.alerts.is_empty() {
                        "-".to_string()
                    } else {
                        a.alerts.join(",")
                    },
                    gate.to_string(),
                ]);
            };
        arm_row(&mut t, "(clean)", "-", "base", &self.clean, "");
        for p in &self.profiles {
            let sev = format!("{:.2}", p.severity);
            arm_row(&mut t, p.profile.name(), &sev, "off", &p.off, "");
            let verdict = if p.pass(&self.clean) { "PASS" } else { "FAIL" };
            arm_row(&mut t, p.profile.name(), &sev, "on", &p.on, verdict);
        }
        t
    }

    /// Render the table plus the one-line verdict.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scenario conformance ({} scale, seed {}): {} profiles vs clean coverage {:.4} / accuracy {:.4}",
            self.scale.name(),
            self.seed,
            self.profiles.len(),
            self.clean.coverage,
            self.clean.accuracy
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", self.table().render());
        for p in &self.profiles {
            let clause = if p.fabrication_based() {
                format!(
                    "fabrication: repair correct coverage >= {:.4}",
                    p.repair_floor()
                )
            } else {
                format!(
                    "denial: hold correct coverage within {:.4}",
                    p.hold_tolerance()
                )
            };
            let _ = writeln!(
                s,
                "  {:<24} loss {:+.4}  recovered {:+.4}  correct {:+.4}  ({clause}; accuracy >= {:.2}, 0 unsound)",
                p.profile.name(),
                p.loss(&self.clean),
                p.recovered(),
                p.correct_recovered(),
                DEFAULT_MIN_ACCURACY
            );
        }
        let _ = write!(
            s,
            "scenario gate: {}",
            if self.pass() { "PASS" } else { "FAIL" }
        );
        s
    }
}

/// The campaign one arm runs: the seeded campaign under `scenario` with
/// the engine hardened or stock.
pub fn campaign(scale: Scale, seed: u64, scenario: &ScenarioConfig, harden: bool) -> Campaign {
    let mut c = Campaign::clean(scale, seed)
        .with_scenario(scenario.clone())
        .with_harden(harden);
    // Deliberate: the arms are judged by the verify-mode policy but run
    // without the Appx.-E re-probe. Every committed conformance number was
    // measured that way; whether the arms should pay for verification is
    // ROADMAP item 5's to settle, with the oracle leak.
    c.verify_dbr = false;
    c
}

/// Grade one arm: the run judged by the scenario SLO policy and audited
/// hop-by-hop against the oracle.
pub fn arm(run: &CampaignRun) -> ScenarioArm {
    // Identity: the campaign fingerprint is a pure function of the
    // results (status, hops, evidence, stats) — the seed-purity /
    // worker-invariance tests pin it.
    let mut hasher = DefaultHasher::new();
    for r in &run.results {
        serde_json::to_string(r)
            .expect("results serialize")
            .hash(&mut hasher);
    }
    let judged = monitor::judge(run, &monitor::scenario_policy(run.campaign.scale));
    let requests = run.workload.len() as u64;
    ScenarioArm {
        harden: run.campaign.harden,
        requests,
        coverage: judged.value("coverage"),
        accuracy: judged.value("accuracy"),
        probes_per_revtr: run.probes.measurement_probes() as f64 / requests.max(1) as f64,
        // Hop-by-hop stitch-trace audit: the 0-unsound arbiter of the gate.
        unsound: audit::judge(run).summary.total_failures(),
        alerts: judged.slo.alerts().map(|v| v.rule.clone()).collect(),
        fingerprint: hasher.finish(),
    }
}

/// Run the conformance harness for a set of profiles at their default (or
/// an overridden) severity.
pub fn run(
    scale: Scale,
    seed: u64,
    profiles: &[ScenarioProfile],
    severity: Option<f64>,
) -> ScenarioReport {
    let graded =
        |scenario: &ScenarioConfig, harden| arm(&campaign(scale, seed, scenario, harden).run());
    let clean = graded(&ScenarioConfig::default(), false);
    let profiles = profiles
        .iter()
        .map(|&p| {
            let sev = severity.unwrap_or_else(|| p.default_severity());
            let cfg = ScenarioConfig::profile_at(p, sev);
            ProfileReport {
                profile: p,
                severity: sev,
                off: graded(&cfg, false),
                on: graded(&cfg, true),
            }
        })
        .collect();
    ScenarioReport {
        scale,
        seed,
        clean,
        profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_arm(scenario: &ScenarioConfig, harden: bool) -> ScenarioArm {
        arm(&campaign(Scale::Smoke, 1, scenario, harden).run())
    }

    #[test]
    fn severity_zero_profile_is_byte_identical_to_clean() {
        // An all-zero severity config is the clean campaign: same
        // fingerprint, same probes, same audit — the scenario layer must
        // be a seed-pure no-op until dialled up.
        let clean = smoke_arm(&ScenarioConfig::default(), false);
        let zero = smoke_arm(
            &ScenarioConfig::profile_at(ScenarioProfile::LyingRrResponders, 0.0),
            false,
        );
        assert_eq!(clean.fingerprint, zero.fingerprint);
        assert_eq!(clean.coverage, zero.coverage);
        assert_eq!(clean.probes_per_revtr, zero.probes_per_revtr);
    }

    #[test]
    fn hardened_clean_campaign_is_outcome_neutral() {
        // With scenarios off, the hardened engine's evidence validations
        // are all vacuous, but its raised stall budget still re-batches
        // transiently lost spoofed pairs a few more times (it cannot know
        // a loss is transient without retrying), so the probe schedule —
        // and hence the fingerprint — may legitimately differ. What must
        // hold on a clean Internet: no coverage lost, nothing audited
        // unsound, and no runaway probe spend.
        let stock = smoke_arm(&ScenarioConfig::default(), false);
        let hard = smoke_arm(&ScenarioConfig::default(), true);
        assert!(
            hard.coverage >= stock.coverage,
            "hardening lost clean coverage: {} < {}",
            hard.coverage,
            stock.coverage
        );
        assert_eq!(stock.unsound, 0);
        assert_eq!(hard.unsound, 0);
        assert!(
            hard.probes_per_revtr <= stock.probes_per_revtr * 1.5,
            "hardening bloated clean probe spend: {} vs {}",
            hard.probes_per_revtr,
            stock.probes_per_revtr
        );
    }

    #[test]
    fn smoke_conformance_all_profiles() {
        let r = run(Scale::Smoke, 1, &ScenarioProfile::ALL, None);
        assert_eq!(r.clean.unsound, 0, "clean campaign audits unsound");
        assert!(r.pass(), "conformance gate failed:\n{}", r.render());
    }
}
