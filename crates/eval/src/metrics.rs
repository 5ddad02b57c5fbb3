//! The telemetry profile report: per-stage virtual-time latency and probe
//! breakdowns for a campaign run with tracing enabled.
//!
//! This is the evaluation-facing surface of the `revtr-telemetry` crate:
//! it reads a [`CampaignRun`] — one worker, requests in id order, so every
//! counter and histogram is exactly reproducible, with telemetry threaded
//! through the prober, the measurement system, and the simulator — and
//! renders:
//!
//! - a **stage table**: span count, virtual-time p50/p99, and probe /
//!   packet / retry / loss deltas per stitching stage;
//! - a **cache table**: the measurement-cache effectiveness counters and
//!   the simulator's route-compute count (the PR-1 memoisation surface);
//! - an **auxiliary counter table**: probing batch shapes, fault losses,
//!   and retry totals;
//! - a **span tree** for one sampled request, showing the nested stage
//!   structure with virtual-time offsets.
//!
//! `revtr-cli metrics` prints the report and exports each table as TSV;
//! ci.sh runs the smoke scale as a gate.

use crate::campaign::CampaignRun;
use crate::render::Table;
use revtr_telemetry::{MetricsSnapshot, RequestRecord};

/// Canonical rendering order for the stitching stages instrumented in
/// `revtr::system` (outer stages first, then the `rr_step` sub-stages).
const STAGES: [&str; 8] = [
    "destination_probe",
    "atlas_intersection",
    "rr_step",
    "rr_direct",
    "rr_spoofed",
    "rr_verify",
    "ts_step",
    "assume_symmetry",
];

/// A campaign's telemetry profile.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// The full metrics snapshot (sorted counters and histograms).
    pub snapshot: MetricsSnapshot,
    /// Sorted, bounded journal records (span trees).
    pub journal: Vec<RequestRecord>,
    /// FNV fingerprint of the metrics snapshot.
    pub metrics_fingerprint: u64,
    /// FNV fingerprint of the rendered journal.
    pub journal_fingerprint: u64,
    /// Measurement-cache effectiveness counters.
    pub cache: revtr_probing::CacheStats,
    /// Simulator route computations (memoised-route cache misses).
    pub route_computes: u64,
    /// Number of reverse traceroutes measured.
    pub requests: usize,
}

fn us_to_ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1000.0)
}

impl MetricsReport {
    /// The per-stage latency/probe breakdown table. The last column sums
    /// each stage's own exit fields over its spans (`hit`, `batches`, the
    /// symmetry step's `start_err` / `gap` / `unreached`, …).
    pub fn stage_table(&self) -> Table {
        const COMMON: [&str; 5] = ["spans", "probes", "pkts", "retries", "lost"];
        let mut t = Table::new(
            "Telemetry: per-stage virtual-time latency and probe cost",
            &[
                "stage", "spans", "p50 ms", "p99 ms", "probes", "pkts", "retries", "lost", "fields",
            ],
        );
        for stage in STAGES {
            let prefix = format!("stage.{stage}.");
            let counter = |field: &str| self.snapshot.counter(&format!("{prefix}{field}"));
            if counter("spans") == 0 {
                continue;
            }
            let (p50, p99) = self
                .snapshot
                .histogram(&format!("{prefix}virtual_us"))
                .map(|h| (us_to_ms(h.quantile(0.5)), us_to_ms(h.quantile(0.99))))
                .unwrap_or_else(|| ("-".to_string(), "-".to_string()));
            let own: Vec<String> = self
                .snapshot
                .counters
                .iter()
                .filter_map(|(name, v)| Some((name.strip_prefix(&prefix)?, v)))
                .filter(|(field, _)| !COMMON.contains(field))
                .map(|(field, v)| format!("{field}={v}"))
                .collect();
            let mut row = vec![stage.to_string(), counter("spans").to_string(), p50, p99];
            row.extend(COMMON[1..].iter().map(|f| counter(f).to_string()));
            row.push(own.join(" "));
            t.row(&row);
        }
        t
    }

    /// Cache effectiveness: the PR-1 memoisation counters surfaced as a
    /// report table.
    pub fn cache_table(&self) -> Table {
        let mut t = Table::new(
            "Telemetry: measurement cache and route memoisation",
            &["counter", "value"],
        );
        t.row(&["cache hits", &self.cache.hits.to_string()])
            .row(&["cache misses", &self.cache.misses.to_string()])
            .row(&[
                "cache hit rate",
                &format!("{:.1}%", self.cache.hit_rate() * 100.0),
            ])
            .row(&["cache inserts", &self.cache.inserts.to_string()])
            .row(&["cache expired", &self.cache.expired.to_string()])
            .row(&["sim route computes", &self.route_computes.to_string()]);
        t
    }

    /// Probing / service / fault counters (everything outside the
    /// per-stage and per-status families).
    pub fn counter_table(&self) -> Table {
        let mut t = Table::new("Telemetry: auxiliary counters", &["counter", "value"]);
        for (name, v) in &self.snapshot.counters {
            if name.starts_with("stage.") || name.starts_with("request.") {
                continue;
            }
            t.row(&[name.as_str(), &v.to_string()]);
        }
        // Auxiliary histograms (batch shapes, queue depths) rendered as
        // compact n/p50/max summaries.
        for (name, h) in &self.snapshot.histograms {
            if name.starts_with("stage.") || name.starts_with("request.") {
                continue;
            }
            t.row(&[
                name.as_str(),
                &format!("n={} p50={} max={}", h.count(), h.quantile(0.5), h.max()),
            ]);
        }
        t
    }

    /// Request outcome summary: count, status tallies, end-to-end p50/p99.
    pub fn request_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "requests: {} measured, {} traced",
            self.requests,
            self.snapshot.counter("request.count")
        );
        for (name, v) in &self.snapshot.counters {
            if let Some(status) = name.strip_prefix("request.status.") {
                let _ = writeln!(s, "  status {status}: {v}");
            }
        }
        if let Some(h) = self.snapshot.histogram("request.virtual_us") {
            let _ = writeln!(
                s,
                "  end-to-end virtual ms: p50 {}  p99 {}  max {}",
                us_to_ms(h.quantile(0.5)),
                us_to_ms(h.quantile(0.99)),
                us_to_ms(h.max()),
            );
        }
        s
    }

    /// Render the span tree of the first journalled request (requests are
    /// sorted by `(src, dst)`, so "first" is deterministic).
    pub fn span_tree(&self) -> String {
        use std::fmt::Write as _;
        let Some(rec) = self.journal.first() else {
            return "span tree: journal empty\n".to_string();
        };
        let mut s = String::new();
        let _ = writeln!(
            s,
            "span tree (dst {} -> src {}, status {}, {} virtual ms):",
            rec.dst,
            rec.src,
            rec.status,
            us_to_ms(rec.virtual_us)
        );
        for sp in rec.spans() {
            let indent = "  ".repeat(sp.depth as usize + 1);
            let fields: Vec<String> = rec
                .fields(sp)
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = writeln!(
                s,
                "{indent}{:<20} +{:>9} ms  {:>9} ms  {}",
                sp.stage,
                us_to_ms(sp.t_us),
                us_to_ms(sp.dur_us),
                fields.join(" ")
            );
        }
        s
    }

    /// Render the full report as text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(s, "{}", self.request_summary());
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", self.stage_table().render());
        let _ = writeln!(s, "{}", self.cache_table().render());
        let _ = writeln!(s, "{}", self.counter_table().render());
        let _ = write!(s, "{}", self.span_tree());
        let _ = writeln!(
            s,
            "\nfingerprints: metrics {:#018x}  journal {:#018x}  ({} journalled)",
            self.metrics_fingerprint,
            self.journal_fingerprint,
            self.journal.len()
        );
        s
    }

    /// Write the tables as TSV and the journal as JSONL under `dir`.
    pub fn save_tsvs(&self, dir: &std::path::Path) -> std::io::Result<()> {
        self.stage_table().save_tsv(dir, "metrics_stages")?;
        self.cache_table().save_tsv(dir, "metrics_cache")?;
        self.counter_table().save_tsv(dir, "metrics_counters")?;
        let jsonl: String = self.journal.iter().map(|r| r.to_json() + "\n").collect();
        std::fs::write(dir.join("metrics_journal.jsonl"), jsonl)
    }
}

/// Profile a campaign run.
pub fn judge(run: &CampaignRun) -> MetricsReport {
    MetricsReport {
        snapshot: run.snapshot.clone(),
        journal: run.journal.clone(),
        metrics_fingerprint: run.metrics_fingerprint,
        journal_fingerprint: run.journal_fingerprint,
        cache: run.cache,
        route_computes: run.route_computes,
        requests: run.workload.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Scale};
    use crate::context::DEFAULT_SEED;

    #[test]
    fn smoke_profile_covers_the_campaign() {
        let report = judge(&Campaign::clean(Scale::Smoke, DEFAULT_SEED).run());
        assert!(report.requests > 10, "campaign too small");
        assert_eq!(
            report.snapshot.counter("request.count"),
            report.requests as u64,
            "every measurement opens exactly one request scope"
        );
        // The core stages always fire; their probe deltas land in the table.
        let stages = report.stage_table();
        assert!(stages.len() >= 3, "expected several instrumented stages");
        let rendered = stages.render();
        assert!(rendered.contains("destination_probe"));
        assert!(rendered.contains("rr_step"));
        // Cache/memoisation counters were active during the run.
        assert!(report.cache.hits + report.cache.misses > 0);
        assert!(report.route_computes > 0);
        // Fingerprints cover real content.
        assert_ne!(report.metrics_fingerprint, 0);
        assert_ne!(report.journal_fingerprint, 0);
        assert!(!report.journal.is_empty());
        assert!(report.span_tree().contains("span tree"));
        assert!(report.render().contains("fingerprints"));
    }
}
