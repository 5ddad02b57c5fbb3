//! Reverse traceroute results and provenance.

use crate::config::SymmetryPolicy;
use revtr_netsim::{Addr, AsId};
use revtr_probing::{RrProvenance, Snapshot};
use serde::{Deserialize, Serialize};

/// How a reverse hop was discovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopMethod {
    /// The destination itself (the path's first entry).
    Destination,
    /// Copied from an intersected atlas traceroute suffix (Q1/Q2).
    AtlasIntersection,
    /// Revealed by a non-spoofed RR ping from the source.
    RecordRoute,
    /// Revealed by a spoofed RR ping from a vantage point (Q3).
    SpoofedRecordRoute,
    /// Confirmed by an IP timestamp adjacency test (revtr 1.0 only, Q4).
    Timestamp,
    /// Assumed from forward-path symmetry (Q5).
    AssumedSymmetric,
}

/// One hop of a reverse traceroute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RevtrHop {
    /// The hop address; `None` renders as `*` — an unresponsive atlas hop
    /// or a flagged suspicious gap (§5.2.2).
    pub addr: Option<Addr>,
    /// Provenance.
    pub method: HopMethod,
    /// True if the hop sits on an AS link flagged as suspicious by the
    /// missing-hop heuristic (a `*` is rendered before it).
    pub suspicious_gap_before: bool,
}

/// The measurement (or assumption) justifying one accepted reverse hop.
///
/// Each variant carries enough raw provenance for the audit layer
/// (`revtr-audit`) to re-derive the hop against the simulator's oracle
/// without consulting any engine state: probe provenances replay the
/// RR reply leg under the original nonce and churn epochs, atlas
/// snapshots pin the intersected trace, and symmetry evidence records
/// the engine's full decision inputs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Evidence {
    /// The path's first entry: the destination answered a ping.
    Destination,
    /// Revealed by a non-spoofed RR ping from the source.
    RecordRoute {
        /// Send-time provenance of the revealing probe.
        prov: RrProvenance,
    },
    /// Revealed by a spoofed RR ping from a vantage point.
    SpoofedRecordRoute {
        /// Send-time provenance of the revealing probe.
        prov: RrProvenance,
    },
    /// The hop where the path joined an atlas trace via an RR-atlas
    /// alias (§4.2): `joined` (already on the path) and this hop's own
    /// address belong to one router or to the two ends of one /30 link.
    AtlasIntersection {
        /// The revtr source whose atlas was intersected.
        source: Addr,
        /// Atlas probe host that measured the intersected trace.
        vp: Addr,
        /// Virtual measurement time of the trace (hours).
        at_hours: f64,
        /// The on-path address that matched the intersection index.
        joined: Addr,
    },
    /// A hop copied from the intersected atlas trace's suffix toward
    /// the source (traceroute-to-source evidence).
    TrToSource {
        /// The revtr source whose atlas was intersected.
        source: Addr,
        /// Atlas probe host that measured the trace.
        vp: Addr,
        /// Virtual measurement time of the trace (hours).
        at_hours: f64,
    },
    /// Confirmed by a TS-prespec adjacency test (revtr 1.0 only).
    Timestamp {
        /// The on-path hop the adjacency was tested against.
        tested_from: Addr,
    },
    /// Assumed from forward-path symmetry, with the engine's decision
    /// inputs so the audit layer can re-derive the interdomain verdict
    /// and the oracle can grade the assumption itself.
    AssumedSymmetric {
        /// The hop the forward traceroute targeted (the stitch point).
        cur: Addr,
        /// The penultimate forward hop, adopted as the next reverse hop.
        penult: Addr,
        /// ip2as mapping of `cur` at decision time.
        cur_as: Option<AsId>,
        /// ip2as mapping of `penult` at decision time.
        penult_as: Option<AsId>,
        /// The engine's interdomain verdict (unmappable ⇒ interdomain).
        interdomain: bool,
        /// The symmetry policy in force when the hop was accepted.
        policy: SymmetryPolicy,
    },
}

impl Evidence {
    /// Short label for per-evidence-kind reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Evidence::Destination => "destination",
            Evidence::RecordRoute { .. } => "record-route",
            Evidence::SpoofedRecordRoute { .. } => "spoofed-record-route",
            Evidence::AtlasIntersection { .. } => "atlas-intersection",
            Evidence::TrToSource { .. } => "tr-to-source",
            Evidence::Timestamp { .. } => "timestamp",
            Evidence::AssumedSymmetric { .. } => "assumed-symmetric",
        }
    }
}

/// Why the stitching loop ended (the trace-level decision, as opposed to
/// the per-hop evidence).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum StitchEnd {
    /// The current hop reached the source (or an address in its prefix).
    ReachedSource,
    /// Completed by copying an atlas suffix, which ends at the source.
    AtlasSuffix,
    /// Aborted rather than assume symmetry across an interdomain link
    /// (the revtr 2.0 trust policy, §4.4), with the decision inputs.
    AbortInterdomain {
        /// The hop the forward traceroute targeted.
        cur: Addr,
        /// The penultimate forward hop the engine declined to adopt.
        penult: Addr,
        /// ip2as mapping of `cur` at decision time.
        cur_as: Option<AsId>,
        /// ip2as mapping of `penult` at decision time.
        penult_as: Option<AsId>,
    },
    /// The destination never answered any probe.
    Unresponsive,
    /// No technique made progress (unresponsive or looping penultimate
    /// hop, unmappable addresses).
    Stuck,
    /// The hop budget (loop guard) ran out.
    HopBudget,
}

/// Per-measurement audit trail: `entries[i]` is the evidence behind
/// `hops[i]` of the owning [`RevtrResult`], and `end` records why the
/// loop stopped. Empty on results predating trace recording.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StitchTrace {
    /// Per-hop evidence, aligned 1:1 with the result's `hops`.
    pub entries: Vec<Evidence>,
    /// The trace-level terminal decision.
    pub end: Option<StitchEnd>,
}

/// Why a measurement ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// Reached the source: a complete, trustworthy reverse path.
    Complete,
    /// Aborted rather than assume interdomain symmetry (revtr 2.0, Q5).
    AbortedInterdomain,
    /// The destination never answered any probe.
    Unresponsive,
    /// No technique made progress and no symmetry assumption was possible
    /// (unresponsive penultimate hop, unmappable addresses, loop guard).
    Stuck,
}

impl Status {
    /// Stable string label (telemetry counter suffixes, report rows).
    pub fn label(self) -> &'static str {
        match self {
            Status::Complete => "Complete",
            Status::AbortedInterdomain => "AbortedInterdomain",
            Status::Unresponsive => "Unresponsive",
            Status::Stuck => "Stuck",
        }
    }
}

/// Per-measurement statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RevtrStats {
    /// Spoofed batches issued (each costs ~10 s, §5.2.4).
    pub batches: u32,
    /// Probe deltas attributable to this measurement.
    pub probes: ProbeDelta,
    /// Virtual seconds elapsed.
    pub duration_s: f64,
    /// Hops obtained by assuming symmetry.
    pub assumed_symmetric: u32,
    /// Of those, across interdomain links (never non-zero under the
    /// `IntradomainOnly` policy).
    pub assumed_interdomain: u32,
    /// Hops obtained from atlas intersections.
    pub atlas_hops: u32,
    /// Age (virtual hours) of the intersected atlas trace, if any.
    pub intersected_trace_age_h: Option<f64>,
    /// Index of the intersected atlas trace, if any (for refresh policy).
    pub intersected_trace: Option<usize>,
    /// Hop index within the intersected trace (for staleness analysis).
    pub intersected_hop: Option<usize>,
    /// RR steps answered from the campaign backward stop set (reused
    /// evidence; zero probes spent).
    pub stopset_reused_steps: u32,
    /// With [`verify_dbr`](struct@crate::EngineConfig) enabled: a
    /// redundant probe observed a hop violating destination-based routing
    /// — the path should be treated as suspicious (Appx. E).
    pub dbr_violation_detected: bool,
}

/// Probe counts attributable to one measurement (a serializable
/// [`Snapshot`] diff).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeDelta {
    /// Plain pings.
    pub ping: u64,
    /// Non-spoofed RR pings.
    pub rr: u64,
    /// Spoofed RR pings.
    pub spoof_rr: u64,
    /// Non-spoofed TS pings.
    pub ts: u64,
    /// Spoofed TS pings.
    pub spoof_ts: u64,
    /// Traceroute packets.
    pub traceroute_pkts: u64,
    /// Retry attempts (re-sends of fault-lost probes; each re-send is
    /// also counted in its own kind above).
    pub retries: u64,
    /// Probes lost to injected faults (transient loss, ICMP rate limits,
    /// spoof-filter flaps) — as opposed to genuine unresponsiveness.
    pub lost: u64,
}

impl ProbeDelta {
    /// From a counters diff.
    pub fn from_snapshot(s: &Snapshot) -> ProbeDelta {
        ProbeDelta {
            ping: s.ping,
            rr: s.rr,
            spoof_rr: s.spoof_rr,
            ts: s.ts,
            spoof_ts: s.spoof_ts,
            traceroute_pkts: s.traceroute_pkts,
            retries: s.retries,
            lost: s.lost,
        }
    }

    /// Option-carrying probes (Table 4's accounting unit).
    pub fn option_probes(&self) -> u64 {
        self.rr + self.spoof_rr + self.ts + self.spoof_ts
    }
}

/// A reverse traceroute measurement result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RevtrResult {
    /// The uncontrolled destination the path starts from.
    pub dst: Addr,
    /// The controlled source the path leads to.
    pub src: Addr,
    /// Outcome.
    pub status: Status,
    /// The reverse path, destination first. On `Complete`, the last
    /// non-`None` hop is the source (or an address in its prefix).
    pub hops: Vec<RevtrHop>,
    /// Statistics.
    pub stats: RevtrStats,
    /// Stitch-trace audit trail (`trace.entries[i]` justifies `hops[i]`).
    #[serde(default)]
    pub trace: StitchTrace,
}

impl RevtrResult {
    /// True if the path was measured completely (not aborted).
    pub fn complete(&self) -> bool {
        self.status == Status::Complete
    }

    /// The responsive hop addresses, destination first.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.hops.iter().filter_map(|h| h.addr)
    }

    /// True if any hop was assumed symmetric.
    pub fn has_assumption(&self) -> bool {
        self.stats.assumed_symmetric > 0
    }

    /// True if the rendered path contains a `*` (unresponsive hop, private
    /// address gap, or suspicious-link flag).
    pub fn has_star(&self) -> bool {
        self.hops
            .iter()
            .any(|h| h.addr.is_none() || h.suspicious_gap_before)
    }
}

impl std::fmt::Display for RevtrResult {
    /// Render like the revtr.ccs.neu.edu output: one hop per line with its
    /// provenance, then the outcome.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "reverse traceroute from {} back to {}:",
            self.dst, self.src
        )?;
        for (i, hop) in self.hops.iter().enumerate() {
            if hop.suspicious_gap_before {
                writeln!(f, "  {:>2}  *                (suspicious AS gap)", "")?;
            }
            let addr = hop
                .addr
                .map(|a| a.to_string())
                .unwrap_or_else(|| "*".to_string());
            let how = match hop.method {
                HopMethod::Destination => "destination",
                HopMethod::AtlasIntersection => "atlas intersection",
                HopMethod::RecordRoute => "record route",
                HopMethod::SpoofedRecordRoute => "spoofed record route",
                HopMethod::Timestamp => "timestamp",
                HopMethod::AssumedSymmetric => "assumed symmetric (intradomain)",
            };
            writeln!(f, "  {i:>2}  {addr:<16} {how}")?;
        }
        write!(
            f,
            "status: {:?} ({} option probes, {} spoofed batches, {:.1}s)",
            self.status,
            self.stats.probes.option_probes(),
            self.stats.batches,
            self.stats.duration_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_hops_and_outcome() {
        let r = RevtrResult {
            dst: Addr::new(11, 1, 128, 10),
            src: Addr::new(11, 9, 128, 4),
            status: Status::Complete,
            hops: vec![
                RevtrHop {
                    addr: Some(Addr::new(11, 1, 128, 10)),
                    method: HopMethod::Destination,
                    suspicious_gap_before: false,
                },
                RevtrHop {
                    addr: None,
                    method: HopMethod::AtlasIntersection,
                    suspicious_gap_before: true,
                },
            ],
            stats: RevtrStats::default(),
            trace: StitchTrace::default(),
        };
        let text = r.to_string();
        assert!(text.contains("reverse traceroute from 11.1.128.10"));
        assert!(text.contains("destination"));
        assert!(text.contains("suspicious AS gap"));
        assert!(text.contains("status: Complete"));
    }

    #[test]
    fn probe_delta_accounting() {
        let d = ProbeDelta {
            rr: 3,
            spoof_rr: 5,
            ts: 1,
            spoof_ts: 2,
            ping: 9,
            traceroute_pkts: 11,
            ..ProbeDelta::default()
        };
        assert_eq!(d.option_probes(), 11);
    }

    #[test]
    fn stitch_trace_roundtrips_through_serde() {
        use revtr_probing::RrProvenance;
        let trace = StitchTrace {
            entries: vec![
                Evidence::Destination,
                Evidence::SpoofedRecordRoute {
                    prov: RrProvenance {
                        sender: Addr(7),
                        claimed: Addr(8),
                        dst: Addr(9),
                        nonce: 42,
                        fwd_epoch: Some(3),
                        rep_epoch: None,
                        from_cache: true,
                    },
                },
                Evidence::AtlasIntersection {
                    source: Addr(8),
                    vp: Addr(10),
                    at_hours: 1.5,
                    joined: Addr(11),
                },
                Evidence::AssumedSymmetric {
                    cur: Addr(12),
                    penult: Addr(13),
                    cur_as: Some(AsId(4)),
                    penult_as: None,
                    interdomain: false,
                    policy: SymmetryPolicy::IntradomainOnly,
                },
            ],
            end: Some(StitchEnd::AbortInterdomain {
                cur: Addr(1),
                penult: Addr(2),
                cur_as: Some(AsId(1)),
                penult_as: Some(AsId(2)),
            }),
        };
        let json = serde_json::to_string(&trace).expect("serializes");
        let back: StitchTrace = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(trace, back);
    }

    #[test]
    fn evidence_kind_labels_are_distinct() {
        let kinds = [
            Evidence::Destination.kind(),
            Evidence::TrToSource {
                source: Addr(1),
                vp: Addr(2),
                at_hours: 0.0,
            }
            .kind(),
            Evidence::Timestamp {
                tested_from: Addr(1),
            }
            .kind(),
        ];
        assert_eq!(kinds.len(), {
            let mut k = kinds.to_vec();
            k.sort_unstable();
            k.dedup();
            k.len()
        });
    }

    #[test]
    fn result_predicates() {
        let r = RevtrResult {
            dst: Addr(1),
            src: Addr(2),
            status: Status::Complete,
            hops: vec![
                RevtrHop {
                    addr: Some(Addr(1)),
                    method: HopMethod::Destination,
                    suspicious_gap_before: false,
                },
                RevtrHop {
                    addr: None,
                    method: HopMethod::AtlasIntersection,
                    suspicious_gap_before: false,
                },
                RevtrHop {
                    addr: Some(Addr(2)),
                    method: HopMethod::AtlasIntersection,
                    suspicious_gap_before: false,
                },
            ],
            stats: RevtrStats::default(),
            trace: StitchTrace::default(),
        };
        assert!(r.complete());
        assert!(r.has_star());
        assert!(!r.has_assumption());
        assert_eq!(r.addrs().collect::<Vec<_>>(), vec![Addr(1), Addr(2)]);
    }
}
