//! Structural validation of the telemetry exports: the Chrome trace must
//! be well-formed JSON with strictly monotone per-lane timestamps and
//! balanced `B`/`E` pairs, and the Prometheus exposition must load through
//! the tiny parser with every metric family present.

use revtr_telemetry::{
    chrome_trace_json, prometheus_text, MetricsRegistry, Telemetry, TelemetryConfig,
};
use serde::Value;
use std::collections::HashMap;

/// One parsed Prometheus sample line.
#[derive(Clone, Debug, PartialEq)]
struct PromSample {
    /// Metric name.
    name: String,
    /// Label pairs, in exposition order.
    labels: Vec<(String, String)>,
    /// Sample value.
    value: f64,
}

/// A tiny parser for the Prometheus text exposition format (the subset
/// `prometheus_text` emits: `# `-comments, `name value`, and
/// `name{k="v",...} value` lines), to load-check the export.
fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("expected `name value`"))?;
        let value: f64 = value.parse().map_err(|_| err("bad sample value"))?;
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| err("unclosed {"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((k.to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err("bad metric name"));
        }
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

/// Record a small synthetic campaign: a few requests with nested stage
/// spans, one with a zero-duration span and coinciding start times (the
/// tie-break cases), one abandoned mid-flight.
fn synthetic_telemetry() -> Telemetry {
    let t = Telemetry::with_config(TelemetryConfig::default());
    for i in 0..6u32 {
        let mut req = t.request(100 + i, 1 + i % 2, f64::from(i) * 10.0);
        let origin = f64::from(i) * 10.0;
        let outer = req.enter("rr_step", origin);
        let direct = req.enter("rr_direct", origin); // same ts as parent
        req.exit(direct, origin + 0.0, &[("probes", 2)]); // zero duration
        let spoof = req.enter("rr_spoofed", origin + 1.0);
        req.exit(spoof, origin + 4.0, &[("probes", 8), ("lost", 1)]);
        req.exit(outer, origin + 4.5, &[]);
        let ts = req.enter("ts_step", origin + 4.5);
        req.exit(ts, origin + 6.0, &[]);
        req.finish("Complete", origin + 6.5);
    }
    {
        let mut req = t.request(200, 9, 0.0);
        let _open = req.enter("destination_probe", 0.5);
        // dropped unfinished -> "abandoned", dangling span closed
    }
    t
}

fn u64_of(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn str_of(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

#[test]
fn chrome_trace_is_wellformed_monotone_and_balanced() {
    let t = synthetic_telemetry();
    let json = chrome_trace_json(&t.journal_records(), &[]);
    assert_eq!(
        json,
        chrome_trace_json(&t.journal_records(), &[]),
        "export not byte-deterministic"
    );

    // Well-formed: parses through the JSON shim into a value tree.
    let root: Value = serde_json::from_str(&json).expect("chrome trace is valid JSON");
    let events = match root.get("traceEvents") {
        Some(Value::Array(evs)) => evs,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(!events.is_empty());

    // Per-lane: strictly monotone ts over B/E events, every B closed by
    // an E, never more E than B.
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut open: HashMap<u64, i64> = HashMap::new();
    let mut lanes = 0usize;
    for ev in events {
        let ph = str_of(ev.get("ph").expect("ph")).expect("ph is a string");
        let tid = u64_of(ev.get("tid").expect("tid")).expect("tid is an int");
        match ph {
            "M" => {
                lanes += 1;
                assert_eq!(
                    str_of(ev.get("name").expect("name")),
                    Some("thread_name"),
                    "unexpected metadata event"
                );
            }
            "B" | "E" => {
                let ts = u64_of(ev.get("ts").expect("ts")).expect("ts is an int");
                if let Some(&prev) = last_ts.get(&tid) {
                    assert!(prev < ts, "lane {tid}: ts {ts} not after {prev}");
                }
                last_ts.insert(tid, ts);
                let depth = open.entry(tid).or_insert(0);
                if ph == "B" {
                    assert!(str_of(ev.get("name").expect("name")).is_some());
                    *depth += 1;
                } else {
                    *depth -= 1;
                    assert!(*depth >= 0, "lane {tid}: E without matching B");
                }
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(lanes, 7, "one thread_name per journalled request");
    for (tid, depth) in open {
        assert_eq!(depth, 0, "lane {tid}: {depth} unbalanced B event(s)");
    }
}

#[test]
fn counter_tracks_are_wellformed_and_monotone_per_track() {
    // The PR-10 counter tracks: per-ledger wave-barrier byte series join
    // the span lanes as `ph:"C"` events under their own pid. The schema
    // contract: every counter event carries a name, a numeric ts that is
    // non-decreasing within its track, and an `args.bytes` value — and
    // the span lanes are byte-identical to the counter-free export.
    let t = synthetic_telemetry();
    let series = vec![
        (
            "netsim.fib".to_string(),
            vec![(0u64, 1024u64), (1, 1024), (2, 2048)],
        ),
        ("probing.cache.rr".to_string(), vec![(0, 0), (2, 896)]),
    ];
    let json = chrome_trace_json(&t.journal_records(), &series);
    assert_eq!(
        json,
        chrome_trace_json(&t.journal_records(), &series),
        "export not byte-deterministic"
    );

    let root: Value = serde_json::from_str(&json).expect("trace with counters is valid JSON");
    let events = match root.get("traceEvents") {
        Some(Value::Array(evs)) => evs,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    let mut per_track: HashMap<String, Vec<u64>> = HashMap::new();
    let mut span_events = 0usize;
    for ev in events {
        let ph = str_of(ev.get("ph").expect("ph")).expect("ph is a string");
        if ph != "C" {
            span_events += 1;
            continue;
        }
        let name = str_of(ev.get("name").expect("counter name")).expect("name is a string");
        let ts = u64_of(ev.get("ts").expect("ts")).expect("ts is an int");
        let bytes = ev
            .get("args")
            .and_then(|a| a.get("bytes"))
            .and_then(u64_of)
            .expect("counter carries args.bytes");
        assert!(bytes <= 2048, "synthetic series never exceeds 2 KiB");
        per_track.entry(name.to_string()).or_default().push(ts);
    }
    assert_eq!(per_track.len(), 2, "one track per input series");
    for (name, ts) in &per_track {
        assert!(
            ts.windows(2).all(|w| w[0] <= w[1]),
            "track {name}: ts not monotone: {ts:?}"
        );
    }
    assert_eq!(
        per_track.values().map(Vec::len).sum::<usize>(),
        5,
        "every sample surfaces"
    );

    // Counters are additive: the span lanes must be exactly the
    // counter-free export's.
    let plain: Value = serde_json::from_str(&chrome_trace_json(&t.journal_records(), &[]))
        .expect("counter-free trace is valid JSON");
    let plain_events = match plain.get("traceEvents") {
        Some(Value::Array(evs)) => evs.len(),
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert_eq!(span_events, plain_events, "counters perturbed span lanes");
}

#[test]
fn prometheus_exposition_load_checks() {
    let t = synthetic_telemetry();
    let snap = t.metrics();
    let text = prometheus_text(&snap);
    assert_eq!(
        text,
        prometheus_text(&snap),
        "export not byte-deterministic"
    );

    let samples = parse_prometheus(&text).expect("exposition parses");
    // Every counter surfaces once, every histogram as 3 quantiles + sum +
    // count; nothing else.
    assert_eq!(
        samples.len(),
        snap.counters.len() + snap.histograms.len() * 5
    );
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("missing sample {name}"))
    };
    assert_eq!(find("revtr_request_count").value, 7.0);
    assert_eq!(find("revtr_request_status_Complete").value, 6.0);
    assert_eq!(find("revtr_request_status_abandoned").value, 1.0);
    assert_eq!(find("revtr_stage_rr_spoofed_probes").value, 48.0);
    assert_eq!(find("revtr_stage_rr_step_virtual_us_count").value, 6.0);
    // Quantile samples carry the quantile label.
    assert!(samples.iter().any(|s| s.name == "revtr_request_virtual_us"
        && s.labels == vec![("quantile".to_string(), "0.99".to_string())]));
}

#[test]
fn prometheus_round_trips_through_the_parser() {
    let reg = MetricsRegistry::new();
    reg.add("request.count", 12);
    reg.add("probing.batch.pairs", 90);
    for v in [5u64, 10, 20, 500] {
        reg.record("stage.rr_step.virtual_us", v);
    }
    let text = prometheus_text(&reg.snapshot());
    assert_eq!(text, prometheus_text(&reg.snapshot()), "not deterministic");

    let samples = parse_prometheus(&text).expect("parses");
    // 2 counters + (3 quantiles + sum + count) for one histogram.
    assert_eq!(samples.len(), 7);
    let find = |n: &str, l: usize| {
        samples
            .iter()
            .find(|s| s.name == n && s.labels.len() == l)
            .unwrap_or_else(|| panic!("missing {n}"))
    };
    assert_eq!(find("revtr_request_count", 0).value, 12.0);
    assert_eq!(find("revtr_stage_rr_step_virtual_us_count", 0).value, 4.0);
    assert_eq!(find("revtr_stage_rr_step_virtual_us_sum", 0).value, 535.0);
    let p99 = samples
        .iter()
        .find(|s| s.labels == vec![("quantile".to_string(), "0.99".to_string())])
        .expect("p99 sample");
    assert_eq!(p99.name, "revtr_stage_rr_step_virtual_us");
    // rank ⌊0.99·(4-1)⌋ = 2 → the third-smallest sample.
    assert_eq!(p99.value, 20.0);

    // The parser rejects garbage.
    assert!(parse_prometheus("no_value_here").is_err());
    assert!(parse_prometheus("bad-name 1").is_err());
    assert!(parse_prometheus("x{k=unquoted} 1").is_err());
}
