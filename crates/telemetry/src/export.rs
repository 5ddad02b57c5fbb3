//! Byte-deterministic exports of a campaign's telemetry: a Chrome-trace
//! (Perfetto / `chrome://tracing`) JSON of the journalled span trees, and
//! a Prometheus text exposition of the metrics snapshot.
//!
//! Both renderers consume *sorted* inputs ([`Telemetry::journal_records`]
//! order and the name-sorted [`MetricsSnapshot`]) and emit nothing but
//! their content — no timestamps of the export itself, no host names — so
//! a given seed produces byte-identical files on every rerun and at every
//! worker count.
//!
//! [`Telemetry::journal_records`]: crate::Telemetry::journal_records

use crate::journal::{Field, RequestRecord};
use crate::registry::MetricsSnapshot;
use std::fmt::Write as _;

/// Render journalled request traces in the Chrome trace-event format,
/// with Perfetto **counter tracks** beside them.
///
/// Each request gets its own thread lane (`pid` 1, `tid` = 1 + sorted
/// index) named after the request key, with duration `B`/`E` event pairs
/// reconstructed from the span tree's entry order and depths. All `ts`
/// values are the spans' virtual microseconds relative to request start;
/// ties are broken by bumping one microsecond so every lane's timestamps
/// are strictly monotone (Perfetto's importer requires non-decreasing
/// timestamps and renders strictly-monotone ones unambiguously).
///
/// Each `(name, (ord, value) series)` pair of `counters` — typically a
/// resource ledger's wave-barrier byte samples from
/// [`Telemetry::resource_series`](crate::Telemetry::resource_series) —
/// becomes a `ph:"C"` track under `pid` 2 with `args.bytes` values, so
/// per-subsystem memory renders as a counter plot over virtual time
/// alongside the span lanes. Series are emitted in input (name-sorted)
/// order with non-decreasing `ts` per track, keeping the export
/// byte-deterministic.
pub fn chrome_trace_json(
    records: &[RequestRecord],
    counters: &[(String, Vec<(u64, u64)>)],
) -> String {
    let mut out = String::with_capacity(records.len() * 512 + counters.len() * 128 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, ev: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(ev);
    };
    for (i, rec) in records.iter().enumerate() {
        let tid = i + 1;
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"revtr dst={} src={} {}\"}}}}",
                rec.dst, rec.src, rec.status
            ),
        );
        // The whole request is the root span; stage spans nest inside it
        // by entry order + recorded depth.
        let mut last_ts = 0u64; // next emitted ts must be strictly greater
        let mut ts = |natural: u64| {
            let t = natural.max(last_ts + 1);
            last_ts = t;
            t
        };
        let begin = |name: &str, t: u64| {
            format!("{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{t},\"cat\":\"revtr\",\"name\":\"{name}\"}}")
        };
        let end = |t: u64, fields: &[Field]| {
            let mut e = format!("{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{t}");
            if !fields.is_empty() {
                e.push_str(",\"args\":{");
                for (j, (k, v)) in fields.iter().enumerate() {
                    if j > 0 {
                        e.push(',');
                    }
                    let _ = write!(e, "\"{k}\":{v}");
                }
                e.push('}');
            }
            e.push('}');
            e
        };
        push(&mut out, &begin("request", ts(0)));
        // Stack of spans whose E is pending: (depth, end_us, fields index).
        let mut open: Vec<usize> = Vec::new();
        for (si, sp) in rec.spans().iter().enumerate() {
            while let Some(&top) = open.last() {
                if rec.spans()[top].depth >= sp.depth {
                    let s = &rec.spans()[top];
                    let line = end(ts(s.t_us + s.dur_us), rec.fields(s));
                    push(&mut out, &line);
                    open.pop();
                } else {
                    break;
                }
            }
            push(&mut out, &begin(sp.stage, ts(sp.t_us)));
            open.push(si);
        }
        while let Some(top) = open.pop() {
            let s = &rec.spans()[top];
            let line = end(ts(s.t_us + s.dur_us), rec.fields(s));
            push(&mut out, &line);
        }
        let line = end(ts(rec.virtual_us), &[("virtual_us", rec.virtual_us)]);
        push(&mut out, &line);
    }
    for (name, series) in counters {
        let mut last_ts: Option<u64> = None;
        for &(ord, value) in series {
            // Perfetto requires non-decreasing timestamps per track.
            let t = match last_ts {
                Some(prev) => ord.max(prev),
                None => ord,
            };
            last_ts = Some(t);
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"C\",\"pid\":2,\"tid\":1,\"ts\":{t},\"cat\":\"resource\",\
                     \"name\":\"{name}\",\"args\":{{\"bytes\":{value}}}}}"
                ),
            );
        }
    }
    out.push_str("\n]}");
    out
}

/// Sanitize a registry metric name into a Prometheus metric name:
/// `stage.rr_step.virtual_us` → `revtr_stage_rr_step_virtual_us`.
fn prom_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 6);
    s.push_str("revtr_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            s.push(c);
        } else {
            s.push('_');
        }
    }
    s
}

/// The summary quantiles exposed for every histogram.
const PROM_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Render the metrics snapshot in the Prometheus text exposition format:
/// every counter as a `counter`, every histogram as a `summary` with
/// p50/p90/p99 quantiles plus `_sum` and `_count`. The snapshot is
/// name-sorted, so the exposition is byte-deterministic.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        for q in PROM_QUANTILES {
            let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", h.quantile(q));
        }
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        let _ = writeln!(out, "{n}_count {}", h.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RequestRecord {
        let mut rec = RequestRecord::new(7, 3, "Complete", 5_000);
        rec.push_span("rr_step", 0, 0, 3_000, &[("probes", 4)]);
        rec.push_span("rr_direct", 1, 0, 1_000, &[]);
        rec.push_span("ts_step", 0, 3_000, 2_000, &[]);
        rec
    }

    #[test]
    fn chrome_trace_is_deterministic_and_balanced() {
        let recs = vec![record()];
        let a = chrome_trace_json(&recs, &[]);
        let b = chrome_trace_json(&recs, &[]);
        assert_eq!(a, b);
        assert_eq!(a.matches("\"ph\":\"B\"").count(), 4); // request + 3 spans
        assert_eq!(a.matches("\"ph\":\"E\"").count(), 4);
        assert!(a.contains("\"name\":\"rr_direct\""));
        assert!(a.contains("thread_name"));
    }

    #[test]
    fn chrome_trace_ts_is_strictly_monotone_per_lane() {
        // rr_step and rr_direct both start at t=0: the tie-break must
        // still order request < rr_step < rr_direct strictly.
        let json = chrome_trace_json(&[record()], &[]);
        let mut ts: Vec<u64> = Vec::new();
        for ev in json.split('{').filter(|e| e.contains("\"ts\":")) {
            let t = ev
                .split("\"ts\":")
                .nth(1)
                .and_then(|s| s.split(&[',', '}'][..]).next())
                .and_then(|s| s.parse().ok())
                .expect("ts parses");
            ts.push(t);
        }
        for w in ts.windows(2) {
            assert!(w[0] < w[1], "ts not strictly monotone: {ts:?}");
        }
    }

    #[test]
    fn counter_tracks_render_as_c_phase_events() {
        let tracks = vec![
            (
                "mem.netsim.route_cache".to_string(),
                vec![(0u64, 100u64), (10, 300), (20, 200)],
            ),
            ("mem.probing.cache".to_string(), vec![(0, 50)]),
        ];
        let json = chrome_trace_json(&[record()], &tracks);
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 4);
        assert!(json.contains("\"name\":\"mem.netsim.route_cache\",\"args\":{\"bytes\":300}"));
        assert!(json.contains("\"name\":\"mem.probing.cache\",\"args\":{\"bytes\":50}"));
        assert_eq!(json, chrome_trace_json(&[record()], &tracks));
    }
}
