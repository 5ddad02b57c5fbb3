//! Spans taken from outside: one record around every call the benchmark
//! makes into a layer, kept in a preallocated buffer and written out when
//! the run ends. Spans inside the program are a later change.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent id of a span nobody caused.
pub const ROOT: u32 = u32::MAX;
/// Round id of spans recorded during set-up.
pub const SETUP_ROUND: i32 = -1;

/// One call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Round the span belongs to (all spans of one round share it).
    pub round: i32,
}

/// The span buffer. Recording never allocates: the buffer is sized up
/// front and a span that does not fit is counted in `dropped` instead.
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
    /// Recording switch; an untraced round leaves it off.
    pub enabled: bool,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            enabled: false,
            dropped: 0,
        }
    }

    /// Make room for `additional` more spans (outside any timed window).
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve_exact(additional);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; returns its id for [`SpanBuf::close`] and for
    /// children to name as parent. Returns [`ROOT`] when not recording.
    pub fn open(&mut self, name: &'static str, parent: u32, round: i32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span opened by [`SpanBuf::open`].
    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let now = self.ns(Instant::now());
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Record a finished span from timestamps the caller already took (the
    /// per-op loops time every op anyway, traced or not).
    pub fn push(&mut self, name: &'static str, parent: u32, round: i32, t0: Instant, t1: Instant) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            parent,
            round,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean duration in milliseconds of the spans called `name`, among the
    /// set-up spans or among the rounds' (0 when there are none).
    pub fn mean_ms(&self, name: &str, setup: bool) -> f64 {
        let (n, ns) = self
            .spans
            .iter()
            .filter(|s| s.name == name && (s.round == SETUP_ROUND) == setup)
            .fold((0u64, 0u64), |(n, ns), s| {
                (n + 1, ns + (s.end_ns - s.start_ns))
            });
        if n == 0 {
            0.0
        } else {
            ns as f64 / 1e6 / n as f64
        }
    }

    /// Write one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (calls made
/// from several threads) and are clipped to the parent, so covered time is
/// the length of the union, never the sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("round", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0), // overlaps a by 10
            span("c", 70, 80, 0),
            span("inside-a", 15, 25, 1),
            span("spills", 90, 130, 0), // clipped to the parent's end
        ];
        let own = self_times(&spans);
        // Children cover [10,60) ∪ [70,80) ∪ [90,100) = 70 of 100.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 10);
        assert_eq!(own[5], 40);
    }

    #[test]
    fn a_child_nested_in_a_sibling_is_not_counted_twice() {
        let spans = [
            span("p", 0, 50, ROOT),
            span("wide", 5, 45, 0),
            span("narrow", 10, 20, 0),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut buf = SpanBuf::with_capacity(1);
        buf.enabled = true;
        let a = buf.open("a", ROOT, 0);
        buf.close(a);
        assert_eq!(buf.open("b", ROOT, 0), ROOT);
        assert_eq!((buf.spans().len(), buf.dropped), (1, 1));
        buf.enabled = false;
        assert_eq!(buf.open("c", ROOT, 0), ROOT);
        assert_eq!(buf.dropped, 1, "not recording is not dropping");
    }
}
