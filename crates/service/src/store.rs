//! Result archival (Appx. A: "our system archives both user-driven and
//! NDT-based reverse traceroutes").
//!
//! The archive is append-only and columnar: one [`Row`] per result — the
//! scalars a result carries, plus where its path sits — and two path
//! columns, hops and the evidence behind them, every result's run
//! contiguous. Each column grows by fixed-capacity segments that are
//! never reallocated, so archiving a result copies its slices and
//! allocates nothing; a segment is allocated once per few thousand
//! elements and the bytes requested stay within one segment per column of
//! the bytes stored. Results are put back together on the way out
//! (`lookup`, `export_json`), which are the rare operations.

use parking_lot::Mutex;
use revtr::{Evidence, RevtrHop, RevtrResult, RevtrStats, Status, StitchEnd, StitchTrace};
use revtr_netsim::Addr;

/// Rows per index segment (~200 KB) and elements per path segment (48 KB
/// of hops, ~200 KB of evidence): what a fresh archive wastes at most,
/// once, per column. This module's own tests run on segments a single
/// path overflows, so their runs straddle.
const ROW_SEGMENT: usize = if cfg!(test) { 8 } else { 1024 };
const PATH_SEGMENT: usize = if cfg!(test) { 16 } else { 4096 };

/// An append-only vector held in segments of `SEG` elements. A segment is
/// allocated at full capacity and never grows, so appending moves no
/// element that is already stored.
#[derive(Debug)]
struct Column<T, const SEG: usize> {
    segments: Vec<Vec<T>>,
    len: usize,
}

impl<T, const SEG: usize> Default for Column<T, SEG> {
    fn default() -> Self {
        Column {
            segments: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Copy, const SEG: usize> Column<T, SEG> {
    /// Append `items`, filling the open segment before opening another.
    fn extend_from_slice(&mut self, mut items: &[T]) {
        while !items.is_empty() {
            if self.len.is_multiple_of(SEG) {
                self.segments.push(Vec::with_capacity(SEG));
            }
            let open = self.segments.last_mut().expect("a segment is open");
            let (fits, rest) = items.split_at(items.len().min(SEG - open.len()));
            open.extend_from_slice(fits);
            self.len += fits.len();
            items = rest;
        }
    }

    /// Elements `start..start + len`, in order.
    fn run(&self, start: usize, len: usize) -> impl Iterator<Item = T> + '_ {
        (start..start + len).map(|i| self.segments[i / SEG][i % SEG])
    }

    /// Every element, in order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments.iter().flatten()
    }
}

/// One archived result less its path: the index the aggregate queries
/// read without touching a hop.
#[derive(Clone, Copy, Debug)]
struct Row {
    dst: Addr,
    src: Addr,
    status: Status,
    stats: RevtrStats,
    end: Option<StitchEnd>,
    /// Where the result's hops and evidence start in their columns. The
    /// two runs have their own lengths: an imported result predating
    /// trace recording has hops and no evidence.
    hops_at: usize,
    entries_at: usize,
    n_hops: u32,
    n_entries: u32,
}

#[derive(Debug, Default)]
struct Archive {
    rows: Column<Row, ROW_SEGMENT>,
    hops: Column<RevtrHop, PATH_SEGMENT>,
    entries: Column<Evidence, PATH_SEGMENT>,
}

impl Archive {
    fn push(&mut self, r: &RevtrResult) {
        let len = |n: usize| u32::try_from(n).expect("a path is far shorter than 2^32 hops");
        let row = Row {
            dst: r.dst,
            src: r.src,
            status: r.status,
            stats: r.stats,
            end: r.trace.end,
            hops_at: self.hops.len,
            entries_at: self.entries.len,
            n_hops: len(r.hops.len()),
            n_entries: len(r.trace.entries.len()),
        };
        self.hops.extend_from_slice(&r.hops);
        self.entries.extend_from_slice(&r.trace.entries);
        self.rows.extend_from_slice(&[row]);
    }

    /// Put the result `row` indexes back together.
    fn result(&self, row: &Row) -> RevtrResult {
        RevtrResult {
            dst: row.dst,
            src: row.src,
            status: row.status,
            hops: self.hops.run(row.hops_at, row.n_hops as usize).collect(),
            stats: row.stats,
            trace: StitchTrace {
                entries: self
                    .entries
                    .run(row.entries_at, row.n_entries as usize)
                    .collect(),
                end: row.end,
            },
        }
    }
}

/// In-memory archive of measurement results with JSON export.
#[derive(Debug, Default)]
pub struct ResultStore {
    archive: Mutex<Archive>,
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

    /// Archive one result.
    pub fn push(&self, r: &RevtrResult) {
        self.archive.lock().push(r);
    }

    /// Number of archived results.
    pub fn len(&self) -> usize {
        self.archive.lock().rows.len
    }

    /// True when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All results for a (destination, source) pair.
    pub fn lookup(&self, dst: Addr, src: Addr) -> Vec<RevtrResult> {
        let g = self.archive.lock();
        g.rows
            .iter()
            .filter(|row| row.dst == dst && row.src == src)
            .map(|row| g.result(row))
            .collect()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let g = self.archive.lock();
        let mut s = StoreStats {
            total: g.rows.len,
            ..Default::default()
        };
        for row in g.rows.iter() {
            match row.status {
                Status::Complete => {
                    s.complete += 1;
                    if row.stats.assumed_symmetric > 0 {
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
        let g = self.archive.lock();
        let mut out = String::from("[");
        for (i, row) in g.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&serde_json::to_string(&g.result(row)).expect("results serialize"));
        }
        out.push(']');
        out
    }

    /// Import a JSON archive (replaces current contents).
    pub fn import_json(&self, json: &str) -> Result<usize, serde_json::Error> {
        let v: Vec<RevtrResult> = serde_json::from_str(json)?;
        let mut archive = Archive::default();
        for r in &v {
            archive.push(r);
        }
        *self.archive.lock() = archive;
        Ok(v.len())
    }
}

/// The archive this module had before it went columnar — every result
/// cloned into a `Vec<RevtrResult>` — kept as the executable specification
/// of the one above.
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
    use revtr::{HopMethod, SymmetryPolicy};
    use revtr_netsim::AsId;
    use revtr_probing::RrProvenance;

    fn result(status: Status) -> RevtrResult {
        RevtrResult {
            dst: Addr(1),
            src: Addr(2),
            status,
            hops: vec![RevtrHop {
                addr: Some(Addr(1)),
                method: HopMethod::Destination,
                suspicious_gap_before: false,
            }],
            stats: RevtrStats::default(),
            trace: StitchTrace::default(),
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
    fn json_roundtrip() {
        let store = ResultStore::new();
        store.push(&result(Status::Complete));
        let json = store.export_json();
        let store2 = ResultStore::new();
        assert_eq!(store2.import_json(&json).expect("valid json"), 1);
        assert_eq!(store2.stats().complete, 1);
    }

    #[test]
    fn a_run_may_straddle_segments_and_segments_never_regrow() {
        let mut col: Column<u32, 4> = Column::default();
        col.extend_from_slice(&[0, 1, 2]);
        let first = col.segments[0].as_ptr();
        col.extend_from_slice(&[3, 4, 5, 6, 7, 8]);
        col.extend_from_slice(&[]);
        assert_eq!(col.len, 9);
        assert_eq!(col.segments.len(), 3);
        assert!(col.segments.iter().all(|s| s.capacity() == 4));
        assert_eq!(col.segments[0].as_ptr(), first, "a stored element moved");
        assert_eq!(col.run(2, 5).collect::<Vec<_>>(), vec![2, 3, 4, 5, 6]);
        assert_eq!(col.run(9, 0).count(), 0);
        assert_eq!(
            col.iter().copied().collect::<Vec<_>>(),
            (0..9).collect::<Vec<_>>()
        );
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

        fn hop(&mut self) -> RevtrHop {
            const METHODS: [HopMethod; 6] = [
                HopMethod::Destination,
                HopMethod::AtlasIntersection,
                HopMethod::RecordRoute,
                HopMethod::SpoofedRecordRoute,
                HopMethod::Timestamp,
                HopMethod::AssumedSymmetric,
            ];
            RevtrHop {
                addr: (self.below(4) > 0).then(|| self.addr()),
                method: METHODS[self.below(6) as usize],
                suspicious_gap_before: self.below(4) == 0,
            }
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
                        fwd_epoch: (self.below(2) == 0).then(|| self.below(9) as u32),
                        rep_epoch: (self.below(2) == 0).then(|| self.below(9) as u32),
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

        fn end(&mut self) -> Option<StitchEnd> {
            Some(match self.below(7) {
                0 => return None,
                1 => StitchEnd::ReachedSource,
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
            })
        }

        /// One result in three is `Unresponsive` with no hops at all, one
        /// in seven carries hops and no evidence (an old export); paths
        /// run to 40 hops, so runs straddle the test's short segments.
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
                    hops: Vec::new(),
                    stats,
                    trace: StitchTrace {
                        entries: Vec::new(),
                        end: Some(StitchEnd::Unresponsive),
                    },
                };
            }
            let n = 1 + self.below(40) as usize;
            let traced = self.below(7) > 0;
            RevtrResult {
                dst,
                src,
                status: STATUSES[self.below(3) as usize],
                hops: (0..n).map(|_| self.hop()).collect(),
                stats,
                trace: StitchTrace {
                    entries: (0..if traced { n } else { 0 })
                        .map(|_| self.evidence())
                        .collect(),
                    end: self.end(),
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rows and path columns read back exactly what a vector of whole
        /// results did: every lookup, the statistics and the export to the
        /// byte — and an export imports into an equal archive.
        #[test]
        fn the_columnar_archive_equals_the_vector_of_results(
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

            // Over a non-empty archive: the import replaces, not appends.
            let reimported = ResultStore::new();
            reimported.push(&result(Status::Stuck));
            prop_assert_eq!(reimported.import_json(&json).expect("own export"), n_results);
            prop_assert_eq!(reimported.export_json(), json);
            prop_assert_eq!(reimported.stats(), reference.stats());
        }
    }
}
