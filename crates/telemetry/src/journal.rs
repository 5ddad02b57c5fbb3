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
//!
//! An offered record is copied, never taken: a retained one becomes one
//! exact-size block of integers ([`Block`]), its names interned in a
//! journal-owned table, and is freed when it loses its place. No line is
//! kept — a `(src, dst)` tie renders one side into the journal's one
//! scratch line, and [`Journal::lines`] renders at read-out.

use crate::registry::WordHasher;
use crate::Fnv;
use parking_lot::Mutex;
use std::cmp::Ordering as CmpOrdering;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
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

/// What a journal line is rendered from: an offered [`RequestRecord`] or a
/// retained [`Packed`] one. Spans are read in entry order.
trait Trace {
    /// `(dst, src, status, virtual_us)`.
    fn head(&self) -> (u32, u32, &'static str, u64);
    fn span_count(&self) -> usize;
    /// Span `i`'s `(stage, depth, t_us, dur_us)`.
    fn span(&self, i: usize) -> (&'static str, u32, u64, u64);
    /// Span `i`'s fields.
    fn span_fields(&self, i: usize) -> impl Iterator<Item = Field> + '_;

    /// The journal's sort key before the JSON: `(src, dst)`.
    fn key(&self) -> (u32, u32) {
        let (dst, src, ..) = self.head();
        (src, dst)
    }
}

/// Write one request as a JSON object (integers and fixed keys only — no
/// escaping is needed because every string is a static identifier).
fn write_json(out: &mut impl std::fmt::Write, rec: &impl Trace) -> std::fmt::Result {
    let (dst, src, status, virtual_us) = rec.head();
    write!(
        out,
        "{{\"dst\":{dst},\"src\":{src},\"status\":\"{status}\",\"virtual_us\":{virtual_us},\"spans\":["
    )?;
    for i in 0..rec.span_count() {
        if i > 0 {
            out.write_char(',')?;
        }
        let (stage, depth, t_us, dur_us) = rec.span(i);
        write!(
            out,
            "{{\"stage\":\"{stage}\",\"depth\":{depth},\"t_us\":{t_us},\"dur_us\":{dur_us}"
        )?;
        for (k, v) in rec.span_fields(i) {
            write!(out, ",\"{k}\":{v}")?;
        }
        out.write_char('}')?;
    }
    out.write_str("]}")
}

/// Whether `a` and `b` render the same line, decided on their values.
fn same(a: &impl Trace, b: &impl Trace) -> bool {
    a.head() == b.head()
        && a.span_count() == b.span_count()
        && (0..a.span_count())
            .all(|i| a.span(i) == b.span(i) && a.span_fields(i).eq(b.span_fields(i)))
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

/// How `rec`'s JSON orders against `line`; stops at the first byte that
/// differs and builds nothing.
fn cmp_json(rec: &impl Trace, line: &str) -> CmpOrdering {
    let mut sink = CompareTo {
        rest: line.as_bytes(),
        decided: None,
    };
    let _ = write_json(&mut sink, rec);
    sink.decided.unwrap_or(if sink.rest.is_empty() {
        CmpOrdering::Equal
    } else {
        CmpOrdering::Less // the record's JSON is a proper prefix of the line
    })
}

/// How `a` orders against `b` in the journal order, `(src, dst, json)`.
/// On a `(src, dst)` tie `b` is rendered into `line` and `a` streamed
/// against it; an exact repeat (a hot pair served from cache again) is the
/// one case the stream could not leave early, so it is settled by value,
/// rendering neither.
fn order(a: &impl Trace, b: &impl Trace, line: &mut String) -> CmpOrdering {
    a.key().cmp(&b.key()).then_with(|| {
        if same(a, b) {
            return CmpOrdering::Equal;
        }
        line.clear();
        let _ = write_json(line, b); // writing to a `String` cannot fail
        cmp_json(a, line)
    })
}

/// The enclosing span of one entered at `depth` after `spans`: entry order
/// plus depth fixes the tree, so it is the latest shallower one.
fn enclosing(spans: &[SpanRecord], depth: u32) -> u32 {
    spans
        .iter()
        .rposition(|s| s.depth < depth)
        .map_or(NO_SPAN, |i| i as u32)
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
        self.spans.push(SpanRecord {
            stage,
            depth,
            t_us,
            dur_us,
            fields: (self.fields.len() as u32, fields.len() as u32),
            enclosing: enclosing(&self.spans, depth),
        });
        self.fields.extend_from_slice(fields);
    }

    /// Spans in entry order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The fields attached to `span`, one of [`spans`](Self::spans) (empty
    /// for a span of another record).
    pub fn fields(&self, span: &SpanRecord) -> &[Field] {
        let (start, len) = (span.fields.0 as usize, span.fields.1 as usize);
        self.fields.get(start..start + len).unwrap_or(&[])
    }

    /// Render as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128 + self.spans.len() * 64 + self.fields.len() * 24);
        let _ = write_json(&mut s, self); // writing to a `String` cannot fail
        s
    }
}

impl Trace for RequestRecord {
    fn head(&self) -> (u32, u32, &'static str, u64) {
        (self.dst, self.src, self.status, self.virtual_us)
    }

    fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn span(&self, i: usize) -> (&'static str, u32, u64, u64) {
        let s = &self.spans[i];
        (s.stage, s.depth, s.t_us, s.dur_us)
    }

    fn span_fields(&self, i: usize) -> impl Iterator<Item = Field> + '_ {
        self.fields(&self.spans[i]).iter().copied()
    }
}

/// Ids of the `&'static str` names a journal has packed, keyed — like the
/// metrics registry's keys — by identity (address and length): two
/// literals spelling one name get two ids, which render alike.
#[derive(Debug, Default)]
struct Names {
    ids: HashMap<(usize, usize), u32, BuildHasherDefault<WordHasher>>,
    list: Vec<&'static str>,
}

impl Names {
    fn id(&mut self, name: &'static str) -> u32 {
        let next = self.list.len() as u32;
        let id = *self
            .ids
            .entry((name.as_ptr() as usize, name.len()))
            .or_insert(next);
        if id == next {
            self.list.push(name);
        }
        id
    }
}

/// One retained record in one exact-size allocation of `u32` words, names
/// as [`Names`] ids and each `u64` as two words, low first:
///
/// | words | content |
/// |---|---|
/// | [`HEAD`] | `dst`, `src`, status, `virtual_us`, span count |
/// | [`SPAN`] per span | stage, depth, `t_us`, `dur_us`, field run start and length |
/// | [`FIELD`] per field | key, value — the record's field arena, in its order |
///
/// A field is 12 bytes and a span 32, against 24 and 48 unpacked.
type Block = Box<[u32]>;

const HEAD: usize = 6;
const SPAN: usize = 8;
const FIELD: usize = 3;

fn split(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

/// Copy `rec` into a new block, interning its names.
fn pack(rec: &RequestRecord, names: &mut Names) -> Block {
    let mut w = Vec::with_capacity(HEAD + SPAN * rec.spans.len() + FIELD * rec.fields.len());
    let [us_lo, us_hi] = split(rec.virtual_us);
    let status = names.id(rec.status);
    w.extend([
        rec.dst,
        rec.src,
        status,
        us_lo,
        us_hi,
        rec.spans.len() as u32,
    ]);
    for s in &rec.spans {
        let ([t_lo, t_hi], [d_lo, d_hi]) = (split(s.t_us), split(s.dur_us));
        let stage = names.id(s.stage);
        w.extend([
            stage, s.depth, t_lo, t_hi, d_lo, d_hi, s.fields.0, s.fields.1,
        ]);
    }
    for &(k, v) in &rec.fields {
        let [lo, hi] = split(v);
        w.extend([names.id(k), lo, hi]);
    }
    w.into_boxed_slice() // exactly the capacity reserved: no copy
}

/// A [`Block`] read through the names it was packed with.
#[derive(Clone, Copy)]
struct Packed<'a> {
    words: &'a [u32],
    names: &'a [&'static str],
}

impl<'a> Packed<'a> {
    fn new(block: &'a [u32], names: &'a Names) -> Packed<'a> {
        Packed {
            words: block,
            names: &names.list,
        }
    }

    fn u64_at(&self, i: usize) -> u64 {
        u64::from(self.words[i]) | u64::from(self.words[i + 1]) << 32
    }

    fn name(&self, i: usize) -> &'static str {
        self.names[self.words[i] as usize]
    }

    fn field_count(&self) -> usize {
        (self.words.len() - HEAD - SPAN * self.span_count()) / FIELD
    }

    /// The `telemetry.journal` ledger units of this record.
    fn ledger_bytes(&self) -> u64 {
        record_bytes(self.span_count(), self.field_count())
    }

    /// The record as it was offered.
    fn unpack(&self) -> RequestRecord {
        let (dst, src, status, virtual_us) = self.head();
        let mut rec = RequestRecord::new(dst, src, status, virtual_us);
        rec.spans.reserve_exact(self.span_count());
        for i in 0..self.span_count() {
            let (stage, depth, t_us, dur_us) = self.span(i);
            let at = HEAD + SPAN * i;
            let span = SpanRecord {
                stage,
                depth,
                t_us,
                dur_us,
                fields: (self.words[at + 6], self.words[at + 7]),
                enclosing: enclosing(&rec.spans, depth),
            };
            rec.spans.push(span);
        }
        let arena = HEAD + SPAN * self.span_count();
        rec.fields = (0..self.field_count())
            .map(|f| {
                let at = arena + FIELD * f;
                (self.name(at), self.u64_at(at + 1))
            })
            .collect();
        rec
    }
}

impl Trace for Packed<'_> {
    fn head(&self) -> (u32, u32, &'static str, u64) {
        (self.words[0], self.words[1], self.name(2), self.u64_at(3))
    }

    fn span_count(&self) -> usize {
        self.words[5] as usize
    }

    fn span(&self, i: usize) -> (&'static str, u32, u64, u64) {
        let at = HEAD + SPAN * i;
        (
            self.name(at),
            self.words[at + 1],
            self.u64_at(at + 2),
            self.u64_at(at + 4),
        )
    }

    fn span_fields(&self, i: usize) -> impl Iterator<Item = Field> + '_ {
        let at = HEAD + SPAN * i;
        let (start, len) = (self.words[at + 6] as usize, self.words[at + 7] as usize);
        let arena = HEAD + SPAN * self.span_count() + FIELD * start;
        (arena..arena + FIELD * len)
            .step_by(FIELD)
            .map(|f| (self.name(f), self.u64_at(f + 1)))
    }
}

/// What a journal holds behind its lock.
#[derive(Debug, Default)]
struct Retained {
    /// The `cap` smallest records offered so far, a max-heap in the journal
    /// order.
    heap: Vec<Block>,
    names: Names,
    /// The one line a `(src, dst)` tie renders into.
    line: String,
}

impl Retained {
    /// How `heap[i]` orders against `heap[j]`.
    fn order(&mut self, i: usize, j: usize) -> CmpOrdering {
        let (a, b) = (
            Packed::new(&self.heap[i], &self.names),
            Packed::new(&self.heap[j], &self.names),
        );
        order(&a, &b, &mut self.line)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.order(i, parent) != CmpOrdering::Greater {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut largest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.order(child, largest) == CmpOrdering::Greater {
                    largest = child;
                }
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// Bytes this holds on the heap (blocks, heap slots, name table,
    /// scratch line).
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        use std::mem::size_of;
        let blocks: usize = self.heap.iter().map(|b| b.len() * size_of::<u32>()).sum();
        blocks
            + self.heap.capacity() * size_of::<Block>()
            + self.names.list.capacity() * size_of::<&str>()
            + self.names.ids.capacity() * (size_of::<((usize, usize), u32)>() + 1)
            + self.line.capacity()
    }
}

/// Thread-safe store of sampled [`RequestRecord`]s with deterministic
/// bounded output.
#[derive(Debug)]
pub struct Journal {
    retained: Mutex<Retained>,
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
/// allocator reading — the committed profile goldens are written in it;
/// a packed record holds less than half of it).
fn record_bytes(spans: usize, fields: usize) -> u64 {
    const RECORD: usize = 56;
    const SPAN: usize = 64;
    const FIELD: usize = 24;
    (RECORD + spans * SPAN + fields * FIELD) as u64
}

impl Journal {
    /// A journal that keeps at most `cap` requests.
    pub fn new(cap: usize) -> Journal {
        Journal {
            retained: Mutex::new(Retained::default()),
            cap,
            dropped: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Offer one request record: a copy is kept while it is among the
    /// `cap` smallest seen, otherwise it is dropped (and counted as
    /// dropped). Returns whether it was kept. A kept record costs one
    /// allocation, its block, and frees the block of the maximum it
    /// displaced; a dropped one costs none.
    pub fn push(&self, rec: &RequestRecord) -> bool {
        let mut guard = self.retained.lock();
        let r = &mut *guard;
        let ledger = record_bytes(rec.spans.len(), rec.fields.len());
        if r.heap.len() < self.cap {
            self.bytes.fetch_add(ledger, Ordering::Relaxed);
            let block = pack(rec, &mut r.names);
            r.heap.push(block);
            r.sift_up(r.heap.len() - 1);
            return true;
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        let Some(max) = r.heap.first() else {
            return false; // cap 0: journalling off
        };
        let max = Packed::new(max, &r.names);
        if order(rec, &max, &mut r.line) != CmpOrdering::Less {
            return false;
        }
        self.bytes.fetch_add(ledger, Ordering::Relaxed);
        self.bytes.fetch_sub(max.ledger_bytes(), Ordering::Relaxed);
        r.heap[0] = pack(rec, &mut r.names);
        r.sift_down(0);
        true
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
        self.retained.lock().heap.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.retained.lock().heap.is_empty()
    }

    /// Visit the retained records in journal order, with the scratch line.
    fn with_sorted<R>(&self, f: impl FnOnce(&[Packed<'_>], &mut String) -> R) -> R {
        let mut guard = self.retained.lock();
        let Retained { heap, names, line } = &mut *guard;
        let mut sorted: Vec<Packed<'_>> = heap.iter().map(|b| Packed::new(b, names)).collect();
        sorted.sort_unstable_by(|a, b| order(a, b, line));
        f(&sorted, line)
    }

    /// The retained records sorted by `(src, dst, json)`.
    pub fn records_sorted(&self) -> Vec<RequestRecord> {
        self.with_sorted(|s, _| s.iter().map(Packed::unpack).collect())
    }

    /// The rendered JSONL lines (sorted, bounded), rendered now: each in
    /// the scratch line, then copied out at its exact size.
    pub fn lines(&self) -> Vec<String> {
        self.with_sorted(|s, line| {
            s.iter()
                .map(|r| {
                    line.clear();
                    let _ = write_json(line, r); // writing to a `String` cannot fail
                    line.clone()
                })
                .collect()
        })
    }

    /// FNV fingerprint over the rendered JSONL lines. Each record is
    /// streamed into the hash, not rendered for it.
    pub fn fingerprint(&self) -> u64 {
        self.with_sorted(|s, _| {
            let mut h = Fnv::new();
            for r in s {
                let _ = write_json(&mut HashInto(&mut h), r); // the sink cannot fail
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
                assert_eq!(cmp_json(a, &line), a.to_json().as_str().cmp(&line));
                // Against truncated lines too: prefixes either way round.
                for cut in [0, 1, line.len() / 2, line.len() - 1] {
                    let want = a.to_json().as_str().cmp(&line[..cut]);
                    assert_eq!(cmp_json(a, &line[..cut]), want, "cut {cut}");
                }
            }
        }
    }

    #[test]
    fn a_packed_record_unpacks_and_renders_as_offered() {
        // Nested spans, a span never closed (an empty run at 0), fields in
        // exit order rather than entry order, and values past 32 bits.
        let mut r = RequestRecord::new(9, 4, "Stuck", 1 << 40);
        r.spans = vec![
            SpanRecord {
                stage: "rr_step",
                depth: 0,
                t_us: 0,
                dur_us: u64::MAX,
                fields: (2, 1),
                enclosing: NO_SPAN,
            },
            SpanRecord {
                stage: "rr_spoofed",
                depth: 1,
                t_us: 5,
                dur_us: 7,
                fields: (0, 2),
                enclosing: 0,
            },
            SpanRecord {
                stage: "ts_step",
                depth: 0,
                t_us: 20,
                dur_us: 3,
                fields: (0, 0),
                enclosing: NO_SPAN,
            },
        ];
        r.fields = vec![("probes", 3), ("pkts", 1 << 33), ("revealed", 1)];
        let mut names = Names::default();
        let block = pack(&r, &mut names);
        assert_eq!(block.len(), HEAD + 3 * SPAN + 3 * FIELD);
        let packed = Packed::new(&block, &names);
        assert_eq!(packed.unpack(), r);
        assert!(same(&packed, &r) && same(&r, &packed));
        let mut line = String::new();
        let _ = write_json(&mut line, &packed);
        assert_eq!(line, r.to_json());
        assert_eq!(packed.ledger_bytes(), 56 + 3 * 64 + 3 * 24);
        // Each name interned once, in the order it was first packed.
        let want = [
            "Stuck",
            "rr_step",
            "rr_spoofed",
            "ts_step",
            "probes",
            "pkts",
            "revealed",
        ];
        assert_eq!(names.list, want);
        pack(&r, &mut names);
        assert_eq!(names.list, want);
    }

    #[test]
    fn output_is_insertion_order_independent_and_bounded() {
        let a = Journal::new(2);
        let b = Journal::new(2);
        for d in [3u32, 1, 2] {
            a.push(&rec(d, 9));
        }
        for d in [2u32, 3, 1] {
            b.push(&rec(d, 9));
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
            j.push(&rec(d, 1));
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
        // Ties on `(src, dst)`, evictions, room to spare, and journalling
        // off.
        for cap in [0, 1, 5, 64] {
            let j = Journal::new(cap);
            for i in 0..40u32 {
                let mut r = rec(i % 4, i % 3);
                r.virtual_us = u64::from(i * 7919 % 13);
                j.push(&r);
            }
            assert_eq!(j.len(), cap.min(40));
            assert_eq!(j.fingerprint(), over_lines(&j), "cap {cap}");
        }
        assert_eq!(Journal::new(0).fingerprint(), Fnv::new().finish());
    }

    #[test]
    fn push_keeps_a_copy_of_what_it_retains_and_nothing_of_what_it_drops() {
        let j = Journal::new(2);
        let offered = rec(5, 1);
        assert!(j.push(&offered));
        assert!(j.push(&rec(3, 1)));
        assert!(!j.push(&rec(9, 1)), "rejected");
        assert!(j.push(&rec(4, 1)), "displaced the maximum, dst 5");
        assert!(!j.push(&rec(4, 1)), "an exact repeat of the maximum");
        assert!(!Journal::new(0).push(&rec(1, 1)));
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.records_sorted(), vec![rec(3, 1), rec(4, 1)]);
        assert_eq!(offered, rec(5, 1), "the offer is left as it was");
        // The displaced block went with its ledger units.
        assert_eq!(j.approx_bytes(), 2 * 144);
    }

    #[test]
    fn what_a_full_journal_holds_stays_under_its_ledger() {
        // 30 000 offers over 24 hot `(src, dst)` pairs — ties are the rule,
        // and most offers displace or lose to a tied maximum — in records
        // of 1–12 spans and 0–9 fields a span.
        const CAP: usize = 4_096;
        let j = Journal::new(CAP);
        let mut population = Vec::new();
        for i in 0..30_000u32 {
            let mut r = RequestRecord::new(i % 8, i % 3, "Complete", u64::from(i * 7919 % 5003));
            for s in 0..1 + i % 12 {
                let fields: Vec<Field> = (0..(i + s) % 10)
                    .map(|k| ("probes", u64::from(k * s)))
                    .collect();
                r.push_span("rr_step", s % 3, u64::from(s), u64::from(i % 97), &fields);
            }
            j.push(&r);
            population.push(r);
        }
        assert_eq!(j.len(), CAP);
        assert_eq!(j.dropped(), 30_000 - CAP as u64);
        let held = j.retained.lock().held_bytes() as u64;
        assert!(
            held <= j.approx_bytes(),
            "held {held} B, ledger {} B",
            j.approx_bytes()
        );
        // Retention is what sorting everything and truncating keeps.
        population.sort_by_cached_key(|r| (r.src, r.dst, r.to_json()));
        population.truncate(CAP);
        let lines: Vec<String> = population.iter().map(RequestRecord::to_json).collect();
        assert_eq!(j.lines(), lines);
        let ledger: u64 = population
            .iter()
            .map(|r| record_bytes(r.spans.len(), r.fields.len()))
            .sum();
        assert_eq!(j.approx_bytes(), ledger);
    }
}
