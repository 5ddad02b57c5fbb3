//! Result archival (Appx. A: "our system archives both user-driven and
//! NDT-based reverse traceroutes").
//!
//! The archive is append-only: one entry per result, holding the result's
//! scalars and sharing its sealed path — every hop with its evidence, one
//! immutable block ([`revtr::result::Path`]) — by reference count. Archiving a
//! result therefore copies no hop and allocates nothing: the entries sit in
//! a [`Column`], fixed-capacity segments that are never reallocated, one
//! allocated per thousand-odd results, so the bytes requested stay within
//! one segment of the bytes stored.

use parking_lot::Mutex;
use revtr::{RevtrResult, Status};
use revtr_netsim::{Addr, Column};

/// Results per segment (~200 KB): what a fresh archive wastes at most,
/// once. This module's own tests run on short segments, so archives
/// straddle several.
const SEGMENT: usize = if cfg!(test) { 8 } else { 1024 };

/// In-memory archive of measurement results with JSON export.
#[derive(Debug, Default)]
pub struct ResultStore {
    archive: Mutex<Column<RevtrResult, SEGMENT>>,
}

/// Aggregate statistics over the archive.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Total archived measurements.
    pub total: usize,
    /// Completed paths.
    pub complete: usize,
    /// Aborted to avoid interdomain symmetry assumptions.
    pub aborted: usize,
    /// Unresponsive destinations.
    pub unresponsive: usize,
    /// Completed paths containing a symmetry assumption.
    pub with_assumption: usize,
}

impl ResultStore {
    /// Empty store.
    pub fn new() -> ResultStore {
        ResultStore::default()
    }

    /// Archive one result: its path block is shared, not copied.
    pub fn push(&self, r: &RevtrResult) {
        self.archive.lock().push(r.clone());
    }

    /// Number of archived results.
    pub fn len(&self) -> usize {
        self.archive.lock().len()
    }

    /// True when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All results for a (destination, source) pair.
    pub fn lookup(&self, dst: Addr, src: Addr) -> Vec<RevtrResult> {
        self.archive
            .lock()
            .iter()
            .filter(|r| r.dst == dst && r.src == src)
            .cloned()
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let g = self.archive.lock();
        let mut s = StoreStats {
            total: g.len(),
            ..Default::default()
        };
        for r in g.iter() {
            match r.status {
                Status::Complete => {
                    s.complete += 1;
                    if r.has_assumption() {
                        s.with_assumption += 1;
                    }
                }
                Status::AbortedInterdomain => s.aborted += 1,
                Status::Unresponsive => s.unresponsive += 1,
                Status::Stuck => {}
            }
        }
        s
    }

    /// Export the archive as JSON (the M-Lab cloud-storage stand-in): the
    /// array of results, rendered one result at a time.
    pub fn export_json(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.archive.lock().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&serde_json::to_string(r).expect("results serialize"));
        }
        out.push(']');
        out
    }
}

/// The archive this module had before it went segmented and shared — every
/// result cloned into a `Vec<RevtrResult>` — kept as the executable
/// specification of the one above.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Default)]
    pub(super) struct RefStore {
        pub(super) results: Vec<RevtrResult>,
    }

    impl RefStore {
        pub(super) fn lookup(&self, dst: Addr, src: Addr) -> Vec<RevtrResult> {
            self.results
                .iter()
                .filter(|r| r.dst == dst && r.src == src)
                .cloned()
                .collect()
        }

        pub(super) fn stats(&self) -> StoreStats {
            let mut s = StoreStats {
                total: self.results.len(),
                ..Default::default()
            };
            for r in &self.results {
                match r.status {
                    Status::Complete => {
                        s.complete += 1;
                        if r.has_assumption() {
                            s.with_assumption += 1;
                        }
                    }
                    Status::AbortedInterdomain => s.aborted += 1,
                    Status::Unresponsive => s.unresponsive += 1,
                    Status::Stuck => {}
                }
            }
            s
        }

        pub(super) fn export_json(&self) -> String {
            serde_json::to_string(&self.results).expect("results serialize")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefStore;
    use super::*;
    use proptest::prelude::*;
    use revtr::{Evidence, HopMethod, RevtrHop, RevtrStats, StitchEnd, SymmetryPolicy};
    use revtr_netsim::AsId;
    use revtr_probing::RrProvenance;
    use serde::Serialize;

    fn result(status: Status) -> RevtrResult {
        RevtrResult {
            dst: Addr(1),
            src: Addr(2),
            status,
            hops: vec![RevtrHop::new(Some(Addr(1)), Evidence::Destination)].into(),
            stats: RevtrStats::default(),
            end: StitchEnd::ReachedSource,
        }
    }

    #[test]
    fn stats_and_lookup() {
        let store = ResultStore::new();
        store.push(&result(Status::Complete));
        store.push(&result(Status::AbortedInterdomain));
        store.push(&result(Status::Unresponsive));
        let s = store.stats();
        assert_eq!(s.total, 3);
        assert_eq!(s.complete, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.unresponsive, 1);
        assert_eq!(store.lookup(Addr(1), Addr(2)).len(), 3);
        assert_eq!(store.lookup(Addr(9), Addr(2)).len(), 0);
    }

    #[test]
    fn the_archive_shares_the_block_it_is_handed() {
        let store = ResultStore::new();
        let r = result(Status::Complete);
        store.push(&r);
        let archived = store.lookup(r.dst, r.src);
        assert_eq!(archived[0].hops.as_ptr(), r.hops.as_ptr());
    }

    /// Decodes a property-test word stream into results (an exhausted
    /// stream reads as zeros, so every stream decodes).
    struct Draw<'a>(std::slice::Iter<'a, u64>);

    impl Draw<'_> {
        fn below(&mut self, n: u64) -> u64 {
            self.0.next().copied().unwrap_or(0) % n
        }

        /// Few distinct addresses: `lookup` finds repeats.
        fn addr(&mut self) -> Addr {
            Addr(self.below(5) as u32)
        }

        fn as_id(&mut self) -> Option<AsId> {
            (self.below(3) > 0).then(|| AsId(self.below(100) as u32))
        }

        /// A hop under the method its evidence implies, or — one in eight
        /// — under a random one: the archive keeps what it is handed.
        fn hop(&mut self) -> RevtrHop {
            const METHODS: [HopMethod; 6] = [
                HopMethod::Destination,
                HopMethod::AtlasIntersection,
                HopMethod::RecordRoute,
                HopMethod::SpoofedRecordRoute,
                HopMethod::Timestamp,
                HopMethod::AssumedSymmetric,
            ];
            let addr = (self.below(4) > 0).then(|| self.addr());
            let mut hop = RevtrHop::new(addr, self.evidence());
            hop.suspicious_gap_before = self.below(4) == 0;
            if self.below(8) == 0 {
                hop.method = METHODS[self.below(6) as usize];
            }
            hop
        }

        fn evidence(&mut self) -> Evidence {
            let at_hours = self.below(10_000) as f64 / 7.0;
            match self.below(7) {
                0 => Evidence::Destination,
                k @ (1 | 2) => {
                    let prov = RrProvenance {
                        sender: self.addr(),
                        claimed: self.addr(),
                        dst: self.addr(),
                        nonce: self.below(u64::MAX),
                        fwd_epoch: (self.below(2) == 0).then(|| self.below(9) as u32).into(),
                        rep_epoch: (self.below(2) == 0).then(|| self.below(9) as u32).into(),
                        from_cache: self.below(2) == 0,
                    };
                    if k == 1 {
                        Evidence::RecordRoute { prov }
                    } else {
                        Evidence::SpoofedRecordRoute { prov }
                    }
                }
                3 => Evidence::AtlasIntersection {
                    source: self.addr(),
                    vp: self.addr(),
                    at_hours,
                    joined: self.addr(),
                },
                4 => Evidence::TrToSource {
                    source: self.addr(),
                    vp: self.addr(),
                    at_hours,
                },
                5 => Evidence::Timestamp {
                    tested_from: self.addr(),
                },
                _ => Evidence::AssumedSymmetric {
                    cur: self.addr(),
                    penult: self.addr(),
                    cur_as: self.as_id(),
                    penult_as: self.as_id(),
                    interdomain: self.below(2) == 0,
                    policy: if self.below(2) == 0 {
                        SymmetryPolicy::IntradomainOnly
                    } else {
                        SymmetryPolicy::Always
                    },
                },
            }
        }

        fn end(&mut self) -> StitchEnd {
            match self.below(6) {
                0 => StitchEnd::ReachedSource,
                2 => StitchEnd::AtlasSuffix,
                3 => StitchEnd::AbortInterdomain {
                    cur: self.addr(),
                    penult: self.addr(),
                    cur_as: self.as_id(),
                    penult_as: self.as_id(),
                },
                4 => StitchEnd::Unresponsive,
                5 => StitchEnd::Stuck,
                _ => StitchEnd::HopBudget,
            }
        }

        /// One result in three is `Unresponsive` with no hops at all; the
        /// others' paths run to 40 hops, every hop with its evidence.
        fn result(&mut self) -> RevtrResult {
            const STATUSES: [Status; 3] =
                [Status::Complete, Status::AbortedInterdomain, Status::Stuck];
            let (dst, src) = (self.addr(), self.addr());
            let stats = RevtrStats {
                batches: self.below(5) as u32,
                duration_s: self.below(1_000_000) as f64 / 1000.0,
                assumed_symmetric: self.below(3) as u32,
                atlas_hops: self.below(9) as u32,
                intersected_trace_age_h: (self.below(2) == 0)
                    .then(|| self.below(1000) as f64 / 3.0),
                intersected_trace: (self.below(2) == 0).then(|| self.below(250) as usize),
                dbr_violation_detected: self.below(9) == 0,
                ..RevtrStats::default()
            };
            if self.below(3) == 0 {
                return RevtrResult {
                    dst,
                    src,
                    status: Status::Unresponsive,
                    hops: Default::default(),
                    stats,
                    end: StitchEnd::Unresponsive,
                };
            }
            let n = 1 + self.below(40) as usize;
            RevtrResult {
                dst,
                src,
                status: STATUSES[self.below(3) as usize],
                hops: (0..n).map(|_| self.hop()).collect::<Vec<_>>().into(),
                stats,
                end: self.end(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The segmented archive reads back exactly what a vector of whole
        /// results did: every lookup, the statistics and the export to the
        /// byte — and the export, evidence and all, reads as the archived
        /// results' JSON document.
        #[test]
        fn the_archive_equals_the_vector_of_results(
            words in proptest::collection::vec(0u64..u64::MAX, 0..6000),
            n_results in 0usize..60,
        ) {
            let mut draw = Draw(words.iter());
            let store = ResultStore::new();
            let mut reference = RefStore::default();
            for _ in 0..n_results {
                let r = draw.result();
                store.push(&r);
                reference.results.push(r);
            }
            prop_assert_eq!(store.len(), reference.results.len());
            prop_assert_eq!(store.is_empty(), reference.results.is_empty());
            prop_assert_eq!(store.stats(), reference.stats());
            for dst in 0..5 {
                for src in 0..5 {
                    prop_assert_eq!(
                        store.lookup(Addr(dst), Addr(src)),
                        reference.lookup(Addr(dst), Addr(src))
                    );
                }
            }
            let json = store.export_json();
            prop_assert_eq!(&json, &reference.export_json());

            // The export parses to the document of what was archived:
            // every hop with its evidence and its method.
            let exported = serde_json::from_str(&json).expect("own export");
            prop_assert_eq!(exported, reference.results.to_value());
        }
    }
}
