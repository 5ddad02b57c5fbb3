//! Reverse traceroute results and provenance.
//!
//! A result's path is one block: every [`RevtrHop`] carries the
//! [`Evidence`] that justified it, so there is nothing to keep aligned and
//! nothing to copy twice. The block is sealed once, when the measurement
//! ends, into a [`Path`] — an immutable, reference-counted slice that the
//! archive and every other holder share instead of copying.

use crate::config::SymmetryPolicy;
use revtr_netsim::{Addr, AsId};
use revtr_probing::{RrProvenance, Snapshot};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

/// One hop of a reverse traceroute and the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RevtrHop {
    /// The hop address; `None` renders as `*` — an unresponsive atlas hop
    /// or a flagged suspicious gap (§5.2.2).
    pub addr: Option<Addr>,
    /// Provenance: the method `evidence` implies ([`RevtrHop::new`]); the
    /// audit reports a hop whose two disagree.
    pub method: HopMethod,
    /// True if the hop sits on an AS link flagged as suspicious by the
    /// missing-hop heuristic (a `*` is rendered before it).
    pub suspicious_gap_before: bool,
    /// The measurement (or assumption) that justified the hop.
    pub evidence: Evidence,
}

impl RevtrHop {
    /// A hop at `addr` justified by `evidence`, under the method the
    /// evidence implies, with no suspicious gap before it.
    pub fn new(addr: Option<Addr>, evidence: Evidence) -> RevtrHop {
        RevtrHop {
            addr,
            method: evidence.method(),
            suspicious_gap_before: false,
            evidence,
        }
    }
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

    /// The method a hop justified by this evidence was discovered by.
    /// Both atlas variants are one method: the join and the suffix it
    /// copied.
    pub fn method(&self) -> HopMethod {
        match self {
            Evidence::Destination => HopMethod::Destination,
            Evidence::RecordRoute { .. } => HopMethod::RecordRoute,
            Evidence::SpoofedRecordRoute { .. } => HopMethod::SpoofedRecordRoute,
            Evidence::AtlasIntersection { .. } | Evidence::TrToSource { .. } => {
                HopMethod::AtlasIntersection
            }
            Evidence::Timestamp { .. } => HopMethod::Timestamp,
            Evidence::AssumedSymmetric { .. } => HopMethod::AssumedSymmetric,
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

/// A sealed reverse path, destination first: one immutable block of hops
/// that clones by reference count, so every holder of a result — the
/// caller, the archive — shares it. An empty path holds no block.
///
/// Reads like the slice it derefs to: `len()`, `[i]`, `iter()`, `for hop in
/// &path`; serializes as the sequence of its hops.
#[derive(Clone, Default)]
pub struct Path(Option<Arc<[RevtrHop]>>);

impl Path {
    /// Seal `hops` into a block of their own: one allocation, none for an
    /// empty path.
    pub fn new(hops: &[RevtrHop]) -> Path {
        Path((!hops.is_empty()).then(|| Arc::from(hops)))
    }
}

impl std::ops::Deref for Path {
    type Target = [RevtrHop];

    fn deref(&self) -> &[RevtrHop] {
        self.0.as_deref().unwrap_or_default()
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a RevtrHop;
    type IntoIter = std::slice::Iter<'a, RevtrHop>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<RevtrHop>> for Path {
    fn from(hops: Vec<RevtrHop>) -> Path {
        Path::new(&hops)
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Path) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Path {
    fn to_value(&self) -> serde::Value {
        (**self).to_value()
    }
}

impl Deserialize for Path {
    fn from_value(v: &serde::Value) -> Result<Path, serde::DeError> {
        Vec::<RevtrHop>::from_value(v).map(Path::from)
    }
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
    /// The reverse path, destination first, each hop with its evidence.
    /// On `Complete`, the last non-`None` hop is the source (or an address
    /// in its prefix).
    pub hops: Path,
    /// Statistics.
    pub stats: RevtrStats,
    /// Why the stitching loop ended (the trace-level decision; each hop's
    /// own is its evidence).
    pub end: StitchEnd,
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
    use revtr_probing::SentEpoch;

    fn prov(fwd_epoch: Option<u32>) -> RrProvenance {
        RrProvenance {
            sender: Addr(7),
            claimed: Addr(8),
            dst: Addr(9),
            nonce: 42,
            fwd_epoch: fwd_epoch.into(),
            rep_epoch: SentEpoch::default(),
            from_cache: true,
        }
    }

    /// One of every evidence variant, and the method each implies.
    fn every_evidence() -> [(Evidence, HopMethod); 7] {
        [
            (Evidence::Destination, HopMethod::Destination),
            (
                Evidence::RecordRoute { prov: prov(None) },
                HopMethod::RecordRoute,
            ),
            (
                Evidence::SpoofedRecordRoute {
                    prov: prov(Some(3)),
                },
                HopMethod::SpoofedRecordRoute,
            ),
            (
                Evidence::AtlasIntersection {
                    source: Addr(8),
                    vp: Addr(10),
                    at_hours: 1.5,
                    joined: Addr(11),
                },
                HopMethod::AtlasIntersection,
            ),
            (
                Evidence::TrToSource {
                    source: Addr(8),
                    vp: Addr(10),
                    at_hours: 0.25,
                },
                HopMethod::AtlasIntersection,
            ),
            (
                Evidence::Timestamp {
                    tested_from: Addr(1),
                },
                HopMethod::Timestamp,
            ),
            (
                Evidence::AssumedSymmetric {
                    cur: Addr(12),
                    penult: Addr(13),
                    cur_as: Some(AsId(4)),
                    penult_as: None,
                    interdomain: false,
                    policy: SymmetryPolicy::IntradomainOnly,
                },
                HopMethod::AssumedSymmetric,
            ),
        ]
    }

    fn hop(addr: Option<Addr>, evidence: Evidence) -> RevtrHop {
        RevtrHop::new(addr, evidence)
    }

    const ATLAS: Evidence = Evidence::TrToSource {
        source: Addr(2),
        vp: Addr(3),
        at_hours: 0.0,
    };

    #[test]
    fn display_renders_hops_and_outcome() {
        let r = RevtrResult {
            dst: Addr::new(11, 1, 128, 10),
            src: Addr::new(11, 9, 128, 4),
            status: Status::Complete,
            hops: vec![
                hop(Some(Addr::new(11, 1, 128, 10)), Evidence::Destination),
                RevtrHop {
                    suspicious_gap_before: true,
                    ..hop(None, ATLAS)
                },
            ]
            .into(),
            stats: RevtrStats::default(),
            end: StitchEnd::AtlasSuffix,
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

    /// A hop and its evidence fit where the two index-aligned elements
    /// they replace took 12 + 48 bytes.
    #[test]
    fn a_hop_with_its_evidence_fits_in_56_bytes() {
        assert!(std::mem::size_of::<RevtrHop>() <= 56);
        assert_eq!(std::mem::size_of::<Path>(), 16);
    }

    #[test]
    fn every_hop_is_built_under_the_method_its_evidence_implies() {
        for (evidence, method) in every_evidence() {
            assert_eq!(evidence.method(), method, "{}", evidence.kind());
            let h = hop(Some(Addr(1)), evidence);
            assert_eq!((h.method, h.evidence), (method, evidence));
            assert!(!h.suspicious_gap_before);
        }
    }

    #[test]
    fn a_result_roundtrips_through_serde_with_its_evidence() {
        let r = RevtrResult {
            dst: Addr(1),
            src: Addr(2),
            status: Status::AbortedInterdomain,
            hops: (every_evidence().into_iter().enumerate())
                .map(|(i, (e, _))| hop((i % 3 > 0).then(|| Addr(i as u32)), e))
                .collect::<Vec<_>>()
                .into(),
            stats: RevtrStats::default(),
            end: StitchEnd::AbortInterdomain {
                cur: Addr(1),
                penult: Addr(2),
                cur_as: Some(AsId(1)),
                penult_as: Some(AsId(2)),
            },
        };
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(json.contains(r#""fwd_epoch":3"#) && json.contains(r#""rep_epoch":null"#));
        let back: RevtrResult = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(r, back);
    }

    #[test]
    fn a_path_clones_by_sharing_its_block() {
        let hops = [hop(Some(Addr(1)), Evidence::Destination), hop(None, ATLAS)];
        let path = Path::new(&hops);
        assert_eq!(path.clone().as_ptr(), path.as_ptr());
        assert_ne!(Path::new(&hops).as_ptr(), path.as_ptr());
        assert_eq!(&path[..], &hops[..]);
        assert_eq!((&path).into_iter().count(), 2);
        assert_eq!(Path::default(), Path::new(&[]));
    }

    #[test]
    fn evidence_kind_labels_are_distinct() {
        let mut kinds: Vec<&str> = every_evidence().iter().map(|(e, _)| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), every_evidence().len());
    }

    #[test]
    fn result_predicates() {
        let r = RevtrResult {
            dst: Addr(1),
            src: Addr(2),
            status: Status::Complete,
            hops: vec![
                hop(Some(Addr(1)), Evidence::Destination),
                hop(None, ATLAS),
                hop(Some(Addr(2)), ATLAS),
            ]
            .into(),
            stats: RevtrStats::default(),
            end: StitchEnd::AtlasSuffix,
        };
        assert!(r.complete());
        assert!(r.has_star());
        assert!(!r.has_assumption());
        assert_eq!(r.addrs().collect::<Vec<_>>(), vec![Addr(1), Addr(2)]);
    }
}
