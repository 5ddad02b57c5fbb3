//! The bounded, order-independent JSONL request journal.
//!
//! Sampled request traces (a span tree with virtual-time offsets and
//! probe deltas) are stored as structured records and rendered as one
//! JSON object per line. Two design rules keep the journal deterministic
//! under parallel campaigns:
//!
//! 1. **Sampling is a pure function of the request key.** A request is
//!    journalled iff `mix(dst, src) % sample_every == 0` — never "first N
//!    seen", which would depend on worker interleaving.
//! 2. **Retention is top-k under a total order.** The journal keeps the
//!    `cap` smallest records by `(src, dst, rendered JSON)` in a bounded
//!    max-heap: a new record either displaces the current maximum or is
//!    dropped. The `cap` smallest elements of a multiset do not depend on
//!    the order its elements arrive in, so the retained set — and every
//!    line and fingerprint rendered from it — is the same for any
//!    insertion order, any worker count and any number of sampled
//!    requests. Memory is `O(cap)`; reading never touches more than
//!    `cap` records.

use crate::Fnv;
use parking_lot::Mutex;
use std::cell::OnceCell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One stage-specific integer field of a span (probe delta, hit flag, ...).
pub type Field = (&'static str, u64);

/// [`SpanRecord::enclosing`] of a top-level span.
pub(crate) const NO_SPAN: u32 = u32::MAX;

/// One completed span inside a request trace. Its fields live in the
/// owning record's arena: read them with [`RequestRecord::fields`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage name (e.g. `rr_step`, `atlas_intersection`).
    pub stage: &'static str,
    /// Nesting depth at entry (0 = top level).
    pub depth: u32,
    /// Virtual microseconds from request start to span entry.
    pub t_us: u64,
    /// Virtual microseconds spent inside the span.
    pub dur_us: u64,
    /// Start and length of this span's run in the record's field arena.
    pub(crate) fields: (u32, u32),
    /// Index of the span that was innermost-open when this one was
    /// entered ([`NO_SPAN`] at top level): the recorder's open-span stack
    /// is threaded through the spans themselves.
    pub(crate) enclosing: u32,
}

/// One journalled request: identity, outcome, and its span tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// Destination address (the target of the reverse traceroute).
    pub dst: u32,
    /// Source address (the revtr vantage point).
    pub src: u32,
    /// Final status label (e.g. `Complete`).
    pub status: &'static str,
    /// Total virtual microseconds from request start to finish.
    pub virtual_us: u64,
    pub(crate) spans: Vec<SpanRecord>,
    /// Every span's fields, each span's run contiguous.
    pub(crate) fields: Vec<Field>,
}

/// Write one request as a JSON object (integers and fixed keys only — no
/// escaping is needed because every string is a static identifier).
fn write_json(out: &mut impl std::fmt::Write, rec: &RequestRecord) -> std::fmt::Result {
    write!(
        out,
        "{{\"dst\":{},\"src\":{},\"status\":\"{}\",\"virtual_us\":{},\"spans\":[",
        rec.dst, rec.src, rec.status, rec.virtual_us
    )?;
    for (i, sp) in rec.spans.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write!(
            out,
            "{{\"stage\":\"{}\",\"depth\":{},\"t_us\":{},\"dur_us\":{}",
            sp.stage, sp.depth, sp.t_us, sp.dur_us
        )?;
        for (k, v) in rec.fields(sp) {
            write!(out, ",\"{k}\":{v}")?;
        }
        out.write_char('}')?;
    }
    out.write_str("]}")
}

/// A sink that folds what is written to it into a fingerprint: the hash
/// of a record's JSON, without building the JSON.
struct HashInto<'a>(&'a mut Fnv);

impl std::fmt::Write for HashInto<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A sink that compares what is written to it with a rendered line, byte
/// for byte, and refuses further writes once the order is decided: the
/// order of a record's JSON against a line, without building the JSON.
struct CompareTo<'a> {
    rest: &'a [u8],
    decided: Option<CmpOrdering>,
}

impl std::fmt::Write for CompareTo<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let n = s.len().min(self.rest.len());
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        self.decided = match s.as_bytes()[..n].cmp(head) {
            CmpOrdering::Equal if s.len() > n => Some(CmpOrdering::Greater), // line ran out
            CmpOrdering::Equal => return Ok(()),
            unequal => Some(unequal),
        };
        Err(std::fmt::Error)
    }
}

/// `span`'s run of `arena` (empty if the span belongs to another record).
pub(crate) fn span_fields<'a>(arena: &'a [Field], span: &SpanRecord) -> &'a [Field] {
    let (start, len) = (span.fields.0 as usize, span.fields.1 as usize);
    arena.get(start..start + len).unwrap_or(&[])
}

impl RequestRecord {
    /// A record with no spans yet.
    pub fn new(dst: u32, src: u32, status: &'static str, virtual_us: u64) -> RequestRecord {
        RequestRecord {
            dst,
            src,
            status,
            virtual_us,
            spans: Vec::new(),
            fields: Vec::new(),
        }
    }

    /// Append a completed span (entry order) with its fields.
    pub fn push_span(
        &mut self,
        stage: &'static str,
        depth: u32,
        t_us: u64,
        dur_us: u64,
        fields: &[Field],
    ) {
        // Entry order plus depth fixes the tree: the enclosing span is
        // the latest shallower one.
        let enclosing = self
            .spans
            .iter()
            .rposition(|s| s.depth < depth)
            .map_or(NO_SPAN, |i| i as u32);
        self.spans.push(SpanRecord {
            stage,
            depth,
            t_us,
            dur_us,
            fields: (self.fields.len() as u32, fields.len() as u32),
            enclosing,
        });
        self.fields.extend_from_slice(fields);
    }

    /// Spans in entry order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The fields attached to `span`, one of [`spans`](Self::spans).
    pub fn fields(&self, span: &SpanRecord) -> &[Field] {
        span_fields(&self.fields, span)
    }

    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.spans.len() * 64 + self.fields.len() * 24);
        let _ = write_json(&mut s, self); // writing to a `String` cannot fail
        s
    }

    /// How [`to_json`](Self::to_json) orders against `line`; stops at the
    /// first byte that differs and builds nothing.
    fn cmp_json(&self, line: &str) -> CmpOrdering {
        let mut sink = CompareTo {
            rest: line.as_bytes(),
            decided: None,
        };
        let _ = write_json(&mut sink, self);
        sink.decided.unwrap_or(if sink.rest.is_empty() {
            CmpOrdering::Equal
        } else {
            CmpOrdering::Less // the record's JSON is a proper prefix of the line
        })
    }
}

/// A retained record with its JSON line, rendered at most once and only
/// when an ordering tie on `(src, dst)` or [`Journal::lines`] asks for it.
#[derive(Debug)]
struct Retained {
    rec: RequestRecord,
    json: OnceCell<String>,
}

impl Retained {
    fn new(rec: RequestRecord) -> Retained {
        Retained {
            rec,
            json: OnceCell::new(),
        }
    }

    fn json(&self) -> &str {
        self.json.get_or_init(|| self.rec.to_json())
    }

    /// How `rec` orders against this record in the journal order,
    /// `(src, dst, json)`. On a `(src, dst)` tie `rec`'s JSON is streamed
    /// against this record's line, not rendered; an exact repeat (a hot
    /// pair served from cache again) is the one case the stream could not
    /// leave early, so it is settled by value, rendering neither.
    fn order_of(&self, rec: &RequestRecord) -> CmpOrdering {
        (rec.src, rec.dst)
            .cmp(&(self.rec.src, self.rec.dst))
            .then_with(|| {
                if *rec == self.rec {
                    CmpOrdering::Equal
                } else {
                    rec.cmp_json(self.json())
                }
            })
    }
}

impl Ord for Retained {
    /// The journal order, rendering at most one side's line — the side
    /// that already has one, if either does.
    fn cmp(&self, other: &Retained) -> CmpOrdering {
        if self.json.get().is_some() && other.json.get().is_none() {
            self.order_of(&other.rec).reverse()
        } else {
            other.order_of(&self.rec)
        }
    }
}

impl PartialOrd for Retained {
    fn partial_cmp(&self, other: &Retained) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Retained {
    fn eq(&self, other: &Retained) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}

impl Eq for Retained {}

/// Thread-safe store of sampled [`RequestRecord`]s with deterministic
/// bounded output.
#[derive(Debug)]
pub struct Journal {
    /// The `cap` smallest records pushed so far, largest on top.
    retained: Mutex<BinaryHeap<Retained>>,
    cap: usize,
    /// Records that lost their place among the `cap` smallest (or never
    /// had one). Surfaces in resource snapshots
    /// (`telemetry.journal.dropped`) so truncation is visible to operators.
    dropped: AtomicU64,
    /// Running logical byte footprint of the retained records.
    bytes: AtomicU64,
}

/// Logical bytes of one record in the `telemetry.journal` ledger: fixed
/// per-record, per-span and per-field units (a ledger unit, not an
/// allocator reading — the committed profile goldens are written in it).
fn record_bytes(rec: &RequestRecord) -> u64 {
    const RECORD: usize = 56;
    const SPAN: usize = 64;
    const FIELD: usize = 24;
    (RECORD + rec.spans.len() * SPAN + rec.fields.len() * FIELD) as u64
}

impl Journal {
    /// A journal that keeps at most `cap` requests.
    pub fn new(cap: usize) -> Journal {
        Journal {
            retained: Mutex::new(BinaryHeap::new()),
            cap,
            dropped: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Offer one request record: kept while it is among the `cap`
    /// smallest seen, otherwise dropped (and counted as dropped). Returns
    /// the record that lost its place — `rec` itself, or the maximum it
    /// displaced — so the caller can reuse its buffers; `None` while the
    /// journal still has room.
    pub fn push(&self, rec: RequestRecord) -> Option<RequestRecord> {
        let mut heap = self.retained.lock();
        if heap.len() < self.cap {
            self.bytes.fetch_add(record_bytes(&rec), Ordering::Relaxed);
            heap.push(Retained::new(rec));
            return None;
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        let Some(mut max) = heap.peek_mut() else {
            return Some(rec); // cap 0: journalling off
        };
        if max.order_of(&rec) != CmpOrdering::Less {
            return Some(rec);
        }
        self.bytes.fetch_add(record_bytes(&rec), Ordering::Relaxed);
        self.bytes
            .fetch_sub(record_bytes(&max.rec), Ordering::Relaxed);
        // Sifts down when `max` goes out of scope.
        Some(std::mem::replace(&mut *max, Retained::new(rec)).rec)
    }

    /// Records dropped from the journal since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Logical byte footprint of the retained records (fixed ledger
    /// units per record, span and field; no allocator introspection).
    pub fn approx_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of retained records (at most the cap).
    pub fn len(&self) -> usize {
        self.retained.lock().len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.retained.lock().is_empty()
    }

    /// Visit the retained records in journal order.
    fn with_sorted<R>(&self, f: impl FnOnce(&[&Retained]) -> R) -> R {
        let heap = self.retained.lock();
        let mut sorted: Vec<&Retained> = heap.iter().collect();
        sorted.sort_unstable();
        f(&sorted)
    }

    /// The retained records sorted by `(src, dst, json)`.
    pub fn records_sorted(&self) -> Vec<RequestRecord> {
        self.with_sorted(|s| s.iter().map(|r| r.rec.clone()).collect())
    }

    /// The rendered JSONL lines (sorted, bounded).
    pub fn lines(&self) -> Vec<String> {
        self.with_sorted(|s| s.iter().map(|r| r.json().to_owned()).collect())
    }

    /// FNV fingerprint over the rendered JSONL lines. A record no tie has
    /// rendered yet is streamed into the hash, not rendered for it.
    pub fn fingerprint(&self) -> u64 {
        self.with_sorted(|s| {
            let mut h = Fnv::new();
            for r in s {
                match r.json.get() {
                    Some(line) => h.write(line.as_bytes()),
                    None => {
                        let _ = write_json(&mut HashInto(&mut h), &r.rec); // the sink cannot fail
                    }
                }
                h.write(b"\n");
            }
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(dst: u32, src: u32) -> RequestRecord {
        let mut r = RequestRecord::new(dst, src, "Complete", 1000 * u64::from(dst));
        r.push_span("rr_step", 0, 0, 500, &[("probes", 3)]);
        r
    }

    #[test]
    fn json_shape_is_stable() {
        let j = rec(7, 3).to_json();
        assert_eq!(
            j,
            "{\"dst\":7,\"src\":3,\"status\":\"Complete\",\"virtual_us\":7000,\
             \"spans\":[{\"stage\":\"rr_step\",\"depth\":0,\"t_us\":0,\"dur_us\":500,\"probes\":3}]}"
        );
    }

    #[test]
    fn streamed_comparison_is_the_order_of_the_rendered_lines() {
        let mut recs = vec![rec(7, 3), rec(70, 3), rec(8, 3), rec(7, 30)];
        let mut longer = rec(7, 3);
        longer.push_span("ts_step", 0, 600, 9, &[]);
        recs.push(longer);
        let mut other_field = rec(7, 3);
        other_field.fields[0] = ("probes", 29);
        recs.push(other_field);
        recs.push(RequestRecord::new(7, 3, "Complete", 7000));
        for a in &recs {
            for b in &recs {
                let line = b.to_json();
                assert_eq!(a.cmp_json(&line), a.to_json().as_str().cmp(&line));
                // Against truncated lines too: prefixes either way round.
                for cut in [0, 1, line.len() / 2, line.len() - 1] {
                    let want = a.to_json().as_str().cmp(&line[..cut]);
                    assert_eq!(a.cmp_json(&line[..cut]), want, "cut {cut}");
                }
            }
        }
    }

    #[test]
    fn output_is_insertion_order_independent_and_bounded() {
        let a = Journal::new(2);
        let b = Journal::new(2);
        for d in [3u32, 1, 2] {
            a.push(rec(d, 9));
        }
        for d in [2u32, 3, 1] {
            b.push(rec(d, 9));
        }
        assert_eq!(a.lines(), b.lines());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.lines().len(), 2);
        // Sorted: dst 1 then 2 survive the cap.
        assert!(a.lines()[0].contains("\"dst\":1"));
        assert!(a.lines()[1].contains("\"dst\":2"));
    }

    #[test]
    fn evictions_are_counted_and_bytes_track_the_retained_set() {
        let j = Journal::new(2);
        assert_eq!(j.approx_bytes(), 0);
        // Descending keys: every push after the second evicts the maximum.
        for d in (0..10u32).rev() {
            j.push(rec(d, 1));
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 8);
        // Ten identical-shape records, two retained: 56 + 64 + 24 each.
        assert_eq!(j.approx_bytes(), 2 * 144);
        assert!(j.lines()[0].contains("\"dst\":0") && j.lines()[1].contains("\"dst\":1"));
        assert_eq!(j.records_sorted()[1], rec(1, 1));
    }

    #[test]
    fn the_streamed_fingerprint_is_the_hash_of_the_rendered_lines() {
        let over_lines = |j: &Journal| {
            let mut h = Fnv::new();
            h.write(j.lines().join("\n").as_bytes());
            if !j.is_empty() {
                h.write(b"\n");
            }
            h.finish()
        };
        // Ties on `(src, dst)` (which render some lines while pushing),
        // evictions, room to spare, and journalling off.
        for cap in [0, 1, 5, 64] {
            let j = Journal::new(cap);
            for i in 0..40u32 {
                let mut r = rec(i % 4, i % 3);
                r.virtual_us = u64::from(i * 7919 % 13);
                j.push(r);
            }
            assert_eq!(j.len(), cap.min(40));
            // Before any read-out has rendered the untied records ...
            let streamed = j.fingerprint();
            assert_eq!(streamed, over_lines(&j), "cap {cap}");
            // ... and after `lines()` rendered them all.
            assert_eq!(j.fingerprint(), streamed, "cap {cap}");
        }
        assert_eq!(Journal::new(0).fingerprint(), Fnv::new().finish());
    }

    #[test]
    fn push_hands_back_the_record_that_lost_its_place() {
        let j = Journal::new(2);
        assert_eq!(j.push(rec(5, 1)), None);
        assert_eq!(j.push(rec(3, 1)), None);
        assert_eq!(j.push(rec(9, 1)), Some(rec(9, 1)), "rejected");
        assert_eq!(j.push(rec(4, 1)), Some(rec(5, 1)), "displaced the maximum");
        assert_eq!(j.push(rec(4, 1)), Some(rec(4, 1)), "an exact repeat of it");
        assert_eq!(Journal::new(0).push(rec(1, 1)), Some(rec(1, 1)));
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.records_sorted(), vec![rec(3, 1), rec(4, 1)]);
    }
}
