//! Hostile-Internet scenario harness: every adversarial profile run
//! against the identical seeded campaign, with the stock engine.
//!
//! This is the evaluation face of [`revtr_netsim::scenario`]: for each
//! named [`ScenarioProfile`] it runs the same seeded campaign two ways —
//! clean (scenario off) and hostile (scenario on) — on one campaign
//! definition, the one `revtr-cli report --scenario` runs too. The gate
//! checks one clause per profile: the profile must *bite*, i.e. the
//! hostile arm's campaign fingerprint must differ from the clean arm's (a
//! scenario that changes nothing proves nothing).
//!
//! Everything else is reported, not gated: what the stock engine does
//! under each adversary — coverage, oracle AS-accuracy, **correct
//! coverage** (coverage × accuracy, the fraction of the workload answered
//! *correctly*: fabrication profiles inflate raw coverage with wrong
//! paths), probes per revtr and the audit's unsound hops. The engine sees
//! only what it measures, so fabricated evidence it adopts shows up here
//! as lost accuracy and unsound hops.
//!
//! Each arm is one [`CampaignRun`] graded by [`arm`]. `revtr-cli scenario`
//! renders the per-profile table and exits non-zero when any profile fails
//! to bite; ci.sh sweeps the standard scale over seeds {1, 7, 42}.

use crate::audit;
use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::render::Table;
use crate::report::{scenario_policy, Report};
use revtr_netsim::{ScenarioConfig, ScenarioProfile};
use revtr_telemetry::Fnv;
use std::fmt::Write as _;

/// One arm of a profile run (the clean baseline, or one profile).
#[derive(Clone, Debug)]
pub struct ScenarioArm {
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

impl ScenarioArm {
    /// Coverage × oracle accuracy: the fraction of the workload answered
    /// correctly.
    pub fn correct_coverage(&self) -> f64 {
        self.coverage * self.accuracy
    }
}

/// One profile's run against the clean baseline.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// The adversarial profile.
    pub profile: ScenarioProfile,
    /// Severity the profile ran at.
    pub severity: f64,
    /// Scenario on, stock engine.
    pub arm: ScenarioArm,
}

impl ProfileReport {
    /// The per-profile gate: the profile bites — its campaign departs
    /// from the clean one.
    pub fn pass(&self, clean: &ScenarioArm) -> bool {
        self.arm.fingerprint != clean.fingerprint
    }
}

/// The full scenario report: one seeded campaign, every profile.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scale every arm ran at.
    pub scale: Scale,
    /// Master seed (all arms).
    pub seed: u64,
    /// The clean baseline (no scenario).
    pub clean: ScenarioArm,
    /// Per-profile runs.
    pub profiles: Vec<ProfileReport>,
}

impl ScenarioReport {
    /// Whether every profile bit.
    pub fn pass(&self) -> bool {
        self.profiles.iter().all(|p| p.pass(&self.clean))
    }

    /// The per-profile table: the clean row, then one stock row per
    /// profile.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Hostile-Internet scenarios: the stock engine per profile",
            &[
                "profile",
                "sev",
                "coverage",
                "accuracy",
                "correct",
                "probes/revtr",
                "unsound",
                "firing rules",
                "gate",
            ],
        );
        let arm_row = |t: &mut Table, name: &str, sev: &str, a: &ScenarioArm, gate: &str| {
            t.row(&[
                name.to_string(),
                sev.to_string(),
                format!("{:.4}", a.coverage),
                format!("{:.4}", a.accuracy),
                format!("{:.4}", a.correct_coverage()),
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
        arm_row(&mut t, "(clean)", "-", &self.clean, "");
        for p in &self.profiles {
            let verdict = if p.pass(&self.clean) { "PASS" } else { "FAIL" };
            arm_row(
                &mut t,
                p.profile.name(),
                &format!("{:.2}", p.severity),
                &p.arm,
                verdict,
            );
        }
        t
    }

    /// Render the table plus the one-line verdict.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scenario suite ({} scale, seed {}): {} profiles vs clean coverage {:.4} / accuracy {:.4}",
            self.scale.name(),
            self.seed,
            self.profiles.len(),
            self.clean.coverage,
            self.clean.accuracy
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", self.table().render());
        for p in &self.profiles {
            let _ = writeln!(
                s,
                "  {:<24} coverage {:+.4}  correct coverage {:+.4}  vs clean ({})",
                p.profile.name(),
                p.arm.coverage - self.clean.coverage,
                p.arm.correct_coverage() - self.clean.correct_coverage(),
                if p.pass(&self.clean) {
                    "bites"
                } else {
                    "does not bite"
                }
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

/// Grade one arm: the run judged by the scenario SLO policy and audited
/// hop-by-hop against the oracle.
pub fn arm(run: &CampaignRun) -> ScenarioArm {
    // Identity: the campaign fingerprint is a pure function of the
    // results (status, hops, evidence, stats) — the seed-purity /
    // worker-invariance tests pin it.
    let mut hasher = Fnv::new();
    for r in &run.results {
        let json = serde_json::to_string(r).expect("results serialize");
        hasher.write(json.as_bytes());
    }
    let judged = Report::new(run, &scenario_policy(run.campaign.scale));
    let requests = run.workload.len() as u64;
    ScenarioArm {
        coverage: judged.value("coverage"),
        accuracy: judged.value("accuracy"),
        probes_per_revtr: run.probes.measurement_probes() as f64 / requests.max(1) as f64,
        // Hop-by-hop stitch-trace audit.
        unsound: audit::judge(run).summary.total_failures(),
        alerts: judged.slo.alerts().map(|v| v.rule.clone()).collect(),
        fingerprint: hasher.finish(),
    }
}

/// Run the scenario harness for a set of profiles at their default (or
/// an overridden) severity.
pub fn run(
    scale: Scale,
    seed: u64,
    profiles: &[ScenarioProfile],
    severity: Option<f64>,
) -> ScenarioReport {
    let graded =
        |scenario: ScenarioConfig| arm(&Campaign::clean(scale, seed).with_scenario(scenario).run());
    let clean = graded(ScenarioConfig::default());
    let profiles = profiles
        .iter()
        .map(|&p| {
            let sev = severity.unwrap_or_else(|| p.default_severity());
            ProfileReport {
                profile: p,
                severity: sev,
                arm: graded(ScenarioConfig::profile_at(p, sev)),
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

    fn smoke_arm(scenario: ScenarioConfig) -> ScenarioArm {
        arm(&Campaign::clean(Scale::Smoke, 1)
            .with_scenario(scenario)
            .run())
    }

    #[test]
    fn severity_zero_profile_is_byte_identical_to_clean() {
        // An all-zero severity config is the clean campaign: same
        // fingerprint, same probes, same audit — the scenario layer must
        // be a seed-pure no-op until dialled up.
        let clean = smoke_arm(ScenarioConfig::default());
        let zero = smoke_arm(ScenarioConfig::profile_at(
            ScenarioProfile::LyingRrResponders,
            0.0,
        ));
        assert_eq!(clean.fingerprint, zero.fingerprint);
        assert_eq!(clean.coverage, zero.coverage);
        assert_eq!(clean.probes_per_revtr, zero.probes_per_revtr);
    }

    #[test]
    fn smoke_conformance_all_profiles() {
        let r = run(Scale::Smoke, 1, &ScenarioProfile::ALL, None);
        assert_eq!(r.clean.unsound, 0, "clean campaign audits unsound");
        assert!(r.pass(), "a profile does not bite:\n{}", r.render());
    }
}
