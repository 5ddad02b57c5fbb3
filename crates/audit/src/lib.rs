//! # revtr-audit — oracle-checked soundness of stitched reverse paths
//!
//! The paper's central claim (§4.4, Table 3) is that revtr 2.0 trades
//! coverage for *trustworthy* reverse paths: every stitched hop is backed
//! by a measurement or an intradomain-symmetry assumption, never by
//! interdomain guessing. This crate turns that claim into a per-hop check:
//! it replays the [`revtr::Evidence`] each hop carries against the
//! simulator's ground-truth oracle and grades it with a typed [`Verdict`].
//!
//! The checks are *differential* — they re-derive each hop from the raw
//! provenance the engine recorded (probe nonces and churn epochs, atlas
//! trace snapshots, ip2as decision inputs) without consulting any engine
//! state, so a stitching bug cannot vouch for itself:
//!
//! * RR-revealed hops must appear among the reply-leg stamps obtained by
//!   re-running the recorded probe under its original nonce and epochs
//!   ([`revtr_netsim::oracle::Oracle::replay_rr_reply_stamps`]);
//! * atlas joins must connect true aliases (same router, or the two ends
//!   of one /30 link); atlas suffix hops must be plausibly consecutive on
//!   a true router path;
//! * symmetry assumptions must comply with the recorded policy, their
//!   decision inputs must survive ip2as recomputation, and the oracle
//!   reports whether each assumption was *truly* intradomain;
//! * interdomain aborts must be consistent with their recorded inputs.
//!
//! A [`Verdict::PolicyViolation`] means the engine used (or misrecorded)
//! an interdomain symmetry assumption under the `IntradomainOnly` policy,
//! or labelled a hop with a method its evidence does not imply — which
//! must never occur; `ci.sh` gates on it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

use revtr::{Evidence, RevtrResult, StitchEnd, SymmetryPolicy};
use revtr_aliasing::Ip2As;
use revtr_netsim::oracle::Oracle;
use revtr_netsim::{Addr, AsId, Sim};
use std::collections::BTreeMap;

/// The audit's grade for one hop (or the terminal abort decision).
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The evidence re-derives the hop exactly.
    Sound,
    /// The hop rests on a symmetry assumption the policy permits; the
    /// oracle reports whether the assumed link was truly intradomain.
    SoundByAssumption {
        /// True when both ends of the assumed link belong to one AS in
        /// the simulator's ground truth (ip2as may disagree at borders).
        truly_intradomain: bool,
    },
    /// The evidence does not support the hop.
    Unsound {
        /// What the evidence, replayed, would have justified.
        expected: String,
        /// What the result actually contains.
        got: String,
    },
    /// An interdomain symmetry assumption was used — or its recorded
    /// decision inputs misrepresent what ip2as actually says — under the
    /// `IntradomainOnly` policy; or a hop's method is not the one its
    /// evidence implies. Must never occur.
    PolicyViolation {
        /// Why the policy check fired.
        reason: String,
    },
}

impl Verdict {
    /// True for `Unsound` or `PolicyViolation`.
    pub fn is_failure(&self) -> bool {
        matches!(
            self,
            Verdict::Unsound { .. } | Verdict::PolicyViolation { .. }
        )
    }
}

/// One graded hop.
#[derive(Clone, Debug, PartialEq)]
pub struct HopAudit {
    /// Hop index within the result (the terminal abort check uses the
    /// index one past the last hop).
    pub index: usize,
    /// Evidence kind label (see [`Evidence::kind`]; the terminal abort
    /// check reports as `"abort"`).
    pub kind: String,
    /// The grade.
    pub verdict: Verdict,
}

/// The full audit of one measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceAudit {
    /// Destination of the audited measurement.
    pub dst: Addr,
    /// Source of the audited measurement.
    pub src: Addr,
    /// One grade per hop (plus the terminal abort check).
    pub findings: Vec<HopAudit>,
}

impl TraceAudit {
    /// True when no finding is `Unsound` or `PolicyViolation`.
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| !f.verdict.is_failure())
    }

    /// The failing findings.
    pub fn failures(&self) -> impl Iterator<Item = &HopAudit> {
        self.findings.iter().filter(|f| f.verdict.is_failure())
    }
}

/// Per-evidence-kind verdict tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTally {
    /// `Sound` verdicts.
    pub sound: u64,
    /// `SoundByAssumption` verdicts.
    pub by_assumption: u64,
    /// Of the assumptions, those the oracle found truly intradomain.
    pub truly_intradomain: u64,
    /// `Unsound` verdicts.
    pub unsound: u64,
    /// `PolicyViolation` verdicts.
    pub policy_violations: u64,
}

impl KindTally {
    fn add(&mut self, v: &Verdict) {
        match v {
            Verdict::Sound => self.sound += 1,
            Verdict::SoundByAssumption { truly_intradomain } => {
                self.by_assumption += 1;
                if *truly_intradomain {
                    self.truly_intradomain += 1;
                }
            }
            Verdict::Unsound { .. } => self.unsound += 1,
            Verdict::PolicyViolation { .. } => self.policy_violations += 1,
        }
    }

    /// All verdicts tallied.
    pub fn total(&self) -> u64 {
        self.sound + self.by_assumption + self.unsound + self.policy_violations
    }
}

/// Aggregated audit results over a campaign: a per-evidence-kind
/// soundness table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditSummary {
    /// Verdict tallies keyed by evidence kind.
    pub per_kind: BTreeMap<String, KindTally>,
    /// Measurements audited.
    pub results: u64,
    /// Measurements with at least one failing verdict.
    pub dirty_results: u64,
}

impl AuditSummary {
    /// Fold one trace audit into the summary.
    pub fn add(&mut self, audit: &TraceAudit) {
        self.results += 1;
        if !audit.is_clean() {
            self.dirty_results += 1;
        }
        for f in &audit.findings {
            self.per_kind
                .entry(f.kind.clone())
                .or_default()
                .add(&f.verdict);
        }
    }

    /// Total `Unsound` verdicts across all kinds.
    pub fn total_unsound(&self) -> u64 {
        self.per_kind.values().map(|t| t.unsound).sum()
    }

    /// Total `PolicyViolation` verdicts across all kinds.
    pub fn total_policy_violations(&self) -> u64 {
        self.per_kind.values().map(|t| t.policy_violations).sum()
    }

    /// Every failing verdict — unsound plus policy-violating — across
    /// all kinds. This is the unsound count the hostile-scenario suite
    /// reports per profile: a fabrication profile that smuggles even one
    /// wrong hop into a path shows up here.
    pub fn total_failures(&self) -> u64 {
        self.total_unsound() + self.total_policy_violations()
    }

    /// True when the campaign carries zero failing verdicts — the `ci.sh`
    /// hard gate.
    pub fn is_clean(&self) -> bool {
        self.total_unsound() == 0 && self.total_policy_violations() == 0
    }

    /// Render the per-evidence-kind soundness table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
            "evidence kind", "sound", "assumed", "intradom.", "unsound", "policy"
        ));
        for (kind, t) in &self.per_kind {
            out.push_str(&format!(
                "{:<22} {:>8} {:>8} {:>10} {:>8} {:>8}\n",
                kind, t.sound, t.by_assumption, t.truly_intradomain, t.unsound, t.policy_violations
            ));
        }
        out.push_str(&format!(
            "audited {} measurements, {} with failures\n",
            self.results, self.dirty_results
        ));
        out
    }
}

/// The auditor: ground-truth oracle plus an independently reconstructed
/// ip2as mapping for the differential symmetry checks.
pub struct Auditor<'s> {
    oracle: Oracle<'s>,
    ip2as: Ip2As,
}

impl<'s> Auditor<'s> {
    /// Auditor over `sim`'s ground truth. `registry_only_ip2as` must match
    /// the audited engine's `EngineConfig::registry_only_ip2as` so the
    /// differential recomputation models the same mapping.
    pub fn new(sim: &'s Sim, registry_only_ip2as: bool) -> Auditor<'s> {
        let ip2as = if registry_only_ip2as {
            Ip2As::registry_only(sim)
        } else {
            Ip2As::new(sim)
        };
        Auditor {
            oracle: sim.oracle(),
            ip2as,
        }
    }

    /// The ground-truth oracle in use.
    pub fn oracle(&self) -> &Oracle<'s> {
        &self.oracle
    }

    /// Replay the ip2as interdomain decision from scratch.
    fn recompute_interdomain(&self, cur: Addr, penult: Addr) -> (Option<AsId>, Option<AsId>, bool) {
        let cur_as = self.ip2as.map(cur);
        let penult_as = self.ip2as.map(penult);
        let interdomain = match (penult_as, cur_as) {
            (Some(x), Some(y)) => x != y,
            _ => true,
        };
        (cur_as, penult_as, interdomain)
    }

    /// Does the oracle consider the `cur → penult` link truly
    /// intradomain? (ip2as is deliberately imperfect at AS borders, so
    /// this can disagree with a policy-compliant decision.)
    fn truly_intradomain(&self, cur: Addr, penult: Addr) -> bool {
        match (self.oracle.true_as_of(cur), self.oracle.true_as_of(penult)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    fn addr_str(addr: Option<Addr>) -> String {
        addr.map(|a| a.to_string())
            .unwrap_or_else(|| "*".to_string())
    }

    /// Grade hop `i` of `r` against the evidence it carries.
    fn grade(&self, r: &RevtrResult, i: usize) -> Verdict {
        let hop = &r.hops[i];
        let e = &hop.evidence;
        if hop.method != e.method() {
            return Verdict::PolicyViolation {
                reason: format!(
                    "hop labelled {:?}, but its {} evidence implies {:?}",
                    hop.method,
                    e.kind(),
                    e.method()
                ),
            };
        }
        match e {
            Evidence::Destination => {
                if hop.addr == Some(r.dst) {
                    Verdict::Sound
                } else {
                    Verdict::Unsound {
                        expected: format!("destination {}", r.dst),
                        got: Self::addr_str(hop.addr),
                    }
                }
            }
            Evidence::RecordRoute { prov } | Evidence::SpoofedRecordRoute { prov } => {
                let Some(addr) = hop.addr else {
                    return Verdict::Unsound {
                        expected: "an RR-revealed address".to_string(),
                        got: "*".to_string(),
                    };
                };
                let replay = self.oracle.replay_rr_reply_stamps(
                    prov.sender,
                    prov.claimed,
                    prov.dst,
                    prov.nonce,
                    prov.fwd_epoch.get(),
                    prov.rep_epoch.get(),
                );
                match replay {
                    Some(stamps) if stamps.contains(&addr) => Verdict::Sound,
                    Some(stamps) => Verdict::Unsound {
                        expected: format!(
                            "a member of the replayed reply-leg stamps {stamps:?} \
                             ({} -> {} claiming {})",
                            prov.sender, prov.dst, prov.claimed
                        ),
                        got: addr.to_string(),
                    },
                    None => Verdict::Unsound {
                        expected: format!(
                            "a replayable RR probe {} -> {} claiming {}",
                            prov.sender, prov.dst, prov.claimed
                        ),
                        got: format!("replay produced no reply (hop {addr})"),
                    },
                }
            }
            Evidence::AtlasIntersection { joined, .. } => {
                let Some(addr) = hop.addr else {
                    return Verdict::Unsound {
                        expected: "an alias-join address".to_string(),
                        got: "*".to_string(),
                    };
                };
                if self.oracle.same_router(*joined, addr) || self.oracle.link_coupled(*joined, addr)
                {
                    Verdict::Sound
                } else {
                    Verdict::Unsound {
                        expected: format!("a true alias (or /30 peer) of {joined}"),
                        got: addr.to_string(),
                    }
                }
            }
            Evidence::TrToSource { .. } => {
                // A hop copied from an atlas trace suffix must be
                // plausibly consecutive with the preceding visible hop; a
                // `*` on either side genuinely hides the routers between,
                // so such pairs are vacuously consistent.
                let Some(addr) = hop.addr else {
                    return Verdict::Sound;
                };
                let Some(prev) = i.checked_sub(1).and_then(|p| r.hops.get(p)) else {
                    return Verdict::Unsound {
                        expected: "a preceding hop to continue from".to_string(),
                        got: format!("suffix hop {addr} at path head"),
                    };
                };
                let Some(prev_addr) = prev.addr else {
                    return Verdict::Sound;
                };
                if self.oracle.plausibly_consecutive(prev_addr, addr) {
                    Verdict::Sound
                } else {
                    Verdict::Unsound {
                        expected: format!("a hop consecutive with {prev_addr} on a true path"),
                        got: addr.to_string(),
                    }
                }
            }
            Evidence::Timestamp { tested_from } => {
                let Some(addr) = hop.addr else {
                    return Verdict::Unsound {
                        expected: "a TS-confirmed adjacency".to_string(),
                        got: "*".to_string(),
                    };
                };
                if self.oracle.plausibly_consecutive(*tested_from, addr) {
                    Verdict::Sound
                } else {
                    Verdict::Unsound {
                        expected: format!("a true adjacency of {tested_from}"),
                        got: addr.to_string(),
                    }
                }
            }
            Evidence::AssumedSymmetric {
                cur,
                penult,
                cur_as,
                penult_as,
                interdomain,
                policy,
            } => {
                if hop.addr != Some(*penult) {
                    return Verdict::Unsound {
                        expected: format!("the recorded penultimate hop {penult}"),
                        got: Self::addr_str(hop.addr),
                    };
                }
                if *interdomain && *policy == SymmetryPolicy::IntradomainOnly {
                    return Verdict::PolicyViolation {
                        reason: format!(
                            "interdomain assumption {cur} -> {penult} accepted under \
                             IntradomainOnly"
                        ),
                    };
                }
                let (re_cur, re_penult, re_inter) = self.recompute_interdomain(*cur, *penult);
                if (re_cur, re_penult, re_inter) != (*cur_as, *penult_as, *interdomain) {
                    return Verdict::PolicyViolation {
                        reason: format!(
                            "recorded decision inputs ({cur_as:?}, {penult_as:?}, \
                             interdomain={interdomain}) disagree with ip2as recomputation \
                             ({re_cur:?}, {re_penult:?}, interdomain={re_inter})"
                        ),
                    };
                }
                Verdict::SoundByAssumption {
                    truly_intradomain: self.truly_intradomain(*cur, *penult),
                }
            }
        }
    }

    /// Grade the terminal abort decision (when one was recorded).
    fn grade_abort(
        &self,
        cur: Addr,
        penult: Addr,
        cur_as: Option<AsId>,
        penult_as: Option<AsId>,
    ) -> Verdict {
        let (re_cur, re_penult, re_inter) = self.recompute_interdomain(cur, penult);
        if (re_cur, re_penult) != (cur_as, penult_as) {
            return Verdict::PolicyViolation {
                reason: format!(
                    "abort inputs ({cur_as:?}, {penult_as:?}) disagree with ip2as \
                     recomputation ({re_cur:?}, {re_penult:?})"
                ),
            };
        }
        if !re_inter {
            return Verdict::PolicyViolation {
                reason: format!(
                    "abort recorded for {cur} -> {penult}, but ip2as maps both \
                     to {re_cur:?} (intradomain)"
                ),
            };
        }
        Verdict::Sound
    }

    /// Audit one measurement, hop by hop.
    pub fn audit(&self, r: &RevtrResult) -> TraceAudit {
        let mut findings = Vec::with_capacity(r.hops.len() + 1);
        for (i, hop) in r.hops.iter().enumerate() {
            findings.push(HopAudit {
                index: i,
                kind: hop.evidence.kind().to_string(),
                verdict: self.grade(r, i),
            });
        }
        if let StitchEnd::AbortInterdomain {
            cur,
            penult,
            cur_as,
            penult_as,
        } = r.end
        {
            findings.push(HopAudit {
                index: r.hops.len(),
                kind: "abort".to_string(),
                verdict: self.grade_abort(cur, penult, cur_as, penult_as),
            });
        }
        TraceAudit {
            dst: r.dst,
            src: r.src,
            findings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revtr::{EngineConfig, HopMethod, RevtrHop, RevtrSystem};
    use revtr_atlas::select_atlas_probes;
    use revtr_netsim::SimConfig;
    use revtr_probing::Prober;
    use revtr_vpselect::{Heuristics, IngressDb};
    use std::sync::Arc;

    fn system(sim: &Sim) -> RevtrSystem<'_> {
        let prober = Prober::new(sim);
        let vps: Vec<Addr> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
        let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).collect();
        let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
        let pool = select_atlas_probes(sim, 100, 6);
        let mut cfg = EngineConfig::revtr2();
        cfg.atlas_size = 40;
        RevtrSystem::new(prober, cfg, vps, ingress, pool)
    }

    fn dests(sim: &Sim, n: usize) -> Vec<Addr> {
        sim.topo()
            .prefixes
            .iter()
            .filter_map(|pe| {
                sim.host_addrs(pe.id)
                    .find(|&a| sim.behavior().host_rr_responsive(a))
            })
            .take(n)
            .collect()
    }

    #[test]
    fn small_campaign_audits_clean() {
        let sim = Sim::build(SimConfig::tiny(), 1);
        let system = system(&sim);
        let auditor = Auditor::new(&sim, false);
        let src = sim.topo().vp_sites[0].host;
        system.register_source(src);
        let mut summary = AuditSummary::default();
        let mut audited = 0;
        for dst in dests(&sim, 25) {
            if dst == src {
                continue;
            }
            let r = system.measure(dst, src);
            let audit = auditor.audit(&r);
            if let Some(f) = audit.failures().next() {
                panic!(
                    "{} -> {} hop {} ({}): {:?}",
                    r.dst, r.src, f.index, f.kind, f.verdict
                );
            }
            summary.add(&audit);
            audited += 1;
        }
        assert!(audited > 10, "campaign too small to be meaningful");
        assert!(summary.is_clean());
        assert!(
            summary.per_kind.contains_key("destination"),
            "every responsive measurement contributes a destination entry"
        );
        let table = summary.table();
        assert!(table.contains("evidence kind"));
    }

    #[test]
    fn tampered_hop_is_flagged_unsound() {
        let sim = Sim::build(SimConfig::tiny(), 1);
        let system = system(&sim);
        let auditor = Auditor::new(&sim, false);
        let src = sim.topo().vp_sites[0].host;
        system.register_source(src);
        // Find a result with an RR-revealed hop, then corrupt it.
        let mut tampered = None;
        for dst in dests(&sim, usize::MAX) {
            if dst == src {
                continue;
            }
            let r = system.measure(dst, src);
            let rr = r.hops.iter().position(|h| {
                matches!(
                    h.evidence,
                    Evidence::RecordRoute { .. } | Evidence::SpoofedRecordRoute { .. }
                )
            });
            if let Some(idx) = rr {
                tampered = Some((r, idx));
                break;
            }
        }
        let (mut r, idx) = tampered.expect("some measurement uses record route");
        assert!(auditor.audit(&r).is_clean(), "untampered audit must pass");
        // An address that is no router's interface: the replayed stamps
        // cannot contain it.
        let mut hops = r.hops.to_vec();
        hops[idx].addr = Some(Addr(u32::MAX - 1));
        r.hops = hops.into();
        let audit = auditor.audit(&r);
        assert!(!audit.is_clean());
        assert!(audit
            .failures()
            .any(|f| matches!(f.verdict, Verdict::Unsound { .. })));
    }

    #[test]
    fn forged_interdomain_assumption_is_a_policy_violation() {
        let sim = Sim::build(SimConfig::tiny(), 1);
        let auditor = Auditor::new(&sim, false);
        let vp0 = sim.topo().vp_sites[0].host;
        let vp1 = sim.topo().vp_sites[1].host;
        let r = RevtrResult {
            dst: vp1,
            src: vp0,
            status: revtr::Status::Complete,
            hops: vec![
                RevtrHop::new(Some(vp1), Evidence::Destination),
                RevtrHop::new(
                    Some(vp0),
                    Evidence::AssumedSymmetric {
                        cur: vp1,
                        penult: vp0,
                        cur_as: auditor.ip2as.map(vp1),
                        penult_as: auditor.ip2as.map(vp0),
                        interdomain: true,
                        policy: SymmetryPolicy::IntradomainOnly,
                    },
                ),
            ]
            .into(),
            stats: revtr::RevtrStats::default(),
            end: StitchEnd::ReachedSource,
        };
        let audit = auditor.audit(&r);
        assert!(audit
            .failures()
            .any(|f| matches!(f.verdict, Verdict::PolicyViolation { .. })));
    }

    /// One evidence of each variant, in `variant` order; the match in
    /// `variant` stops compiling when a variant is added.
    fn every_evidence(vp0: Addr, vp1: Addr) -> Vec<Evidence> {
        let prov = revtr_probing::RrProvenance {
            sender: vp0,
            claimed: vp0,
            dst: vp1,
            nonce: 1,
            fwd_epoch: None.into(),
            rep_epoch: None.into(),
            from_cache: false,
        };
        vec![
            Evidence::Destination,
            Evidence::RecordRoute { prov },
            Evidence::SpoofedRecordRoute { prov },
            Evidence::AtlasIntersection {
                source: vp0,
                vp: vp1,
                at_hours: 0.0,
                joined: vp1,
            },
            Evidence::TrToSource {
                source: vp0,
                vp: vp1,
                at_hours: 0.0,
            },
            Evidence::Timestamp { tested_from: vp1 },
            Evidence::AssumedSymmetric {
                cur: vp1,
                penult: vp0,
                cur_as: None,
                penult_as: None,
                interdomain: false,
                policy: SymmetryPolicy::Always,
            },
        ]
    }

    fn variant(e: &Evidence) -> usize {
        match e {
            Evidence::Destination => 0,
            Evidence::RecordRoute { .. } => 1,
            Evidence::SpoofedRecordRoute { .. } => 2,
            Evidence::AtlasIntersection { .. } => 3,
            Evidence::TrToSource { .. } => 4,
            Evidence::Timestamp { .. } => 5,
            Evidence::AssumedSymmetric { .. } => 6,
        }
    }

    const METHODS: [HopMethod; 6] = [
        HopMethod::Destination,
        HopMethod::AtlasIntersection,
        HopMethod::RecordRoute,
        HopMethod::SpoofedRecordRoute,
        HopMethod::Timestamp,
        HopMethod::AssumedSymmetric,
    ];

    /// For every evidence variant, a hop labelled with any method but the
    /// one its evidence implies is a policy violation — whatever the
    /// evidence itself would grade — and the hop `RevtrHop::new` builds is
    /// not.
    #[test]
    fn a_method_its_evidence_does_not_imply_is_a_policy_violation() {
        let sim = Sim::build(SimConfig::tiny(), 3);
        let auditor = Auditor::new(&sim, false);
        let (vp0, vp1) = (sim.topo().vp_sites[0].host, sim.topo().vp_sites[1].host);
        let evidence = every_evidence(vp0, vp1);
        assert_eq!(
            evidence.iter().map(variant).collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );
        let mislabelled = |v: &Verdict| matches!(v, Verdict::PolicyViolation { reason } if reason.contains("evidence implies"));
        for e in evidence {
            for method in METHODS {
                let mut hop = RevtrHop::new(Some(vp0), e);
                let honest = hop.method == method;
                hop.method = method;
                let r = RevtrResult {
                    dst: vp1,
                    src: vp0,
                    status: revtr::Status::Complete,
                    hops: vec![RevtrHop::new(Some(vp1), Evidence::Destination), hop].into(),
                    stats: revtr::RevtrStats::default(),
                    end: StitchEnd::ReachedSource,
                };
                let audit = auditor.audit(&r);
                assert_eq!(audit.findings.len(), 2);
                assert_eq!(audit.findings[1].kind, e.kind());
                assert_eq!(
                    mislabelled(&audit.findings[1].verdict),
                    !honest,
                    "{} evidence labelled {method:?}: {:?}",
                    e.kind(),
                    audit.findings[1].verdict
                );
            }
        }
    }
}
