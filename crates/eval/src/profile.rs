//! `revtr-cli profile` — the resource-forensics report: where the bytes,
//! events, and probe traffic of a campaign actually go.
//!
//! Reads the profiling arm of a [`CampaignRun`] and renders three views of
//! the same deterministic run:
//!
//! 1. **Subsystem byte ledgers** — every long-lived structure (netsim
//!    caches and FIBs, measurement cache, stop-set hint tables, atlas
//!    traces, engine control blocks, admission queue, telemetry itself)
//!    self-reports logical bytes at wave barriers; the table shows
//!    current and high-water readings plus each subsystem's share.
//! 2. **Cost-attribution stacks** — per-(stage, phase) inclusive virtual
//!    time, engine events, cache bytes, and probe bytes, collapsed
//!    flamegraph-style and ranked by the chosen metric.
//! 3. **Capacity headroom and shard skew** — the measured high-water
//!    totals against the same ceilings the SLO monitor enforces, plus
//!    striped-map occupancy skew (`max/mean` per shard) as evidence the
//!    deterministic hashing keeps shards balanced.
//!
//! Every number is a pure function of the master seed: readings are
//! snapshotted at deterministic wave barriers, merged commutatively, and
//! read back sorted, so the report is byte-identical across reruns and
//! worker counts (pinned by `tests/metamorphic.rs`).

use crate::campaign::{CampaignRun, Scale};
use crate::render::Table;
use revtr_probing::Snapshot;
use revtr_telemetry::{
    chrome_trace_json_with_counters, flamegraph_text, ProfileMetric, ProfileStack, RequestRecord,
    ResourceSnapshot,
};
use std::path::{Path, PathBuf};

/// How many cost stacks the rendered top-k table shows.
const TOP_K_STACKS: usize = 12;

/// Shard-occupancy statistics for one striped map, rendered in the skew
/// table. `skew` is `max/mean` occupancy (1.0 = perfectly balanced).
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Which map the row describes.
    pub name: &'static str,
    /// Materialized entries across all shards.
    pub entries: usize,
    /// Shard count.
    pub shards: usize,
    /// Entries in the fullest shard.
    pub max_shard: usize,
    /// Approximate logical bytes across the map.
    pub bytes: u64,
    /// `max/mean` occupancy skew (0.0 when empty).
    pub skew: f64,
}

impl ShardStats {
    fn from_occupancy(name: &'static str, occ: &[usize], entry_bytes: u64) -> ShardStats {
        let entries: usize = occ.iter().sum();
        let max_shard = occ.iter().copied().max().unwrap_or(0);
        let skew = if entries == 0 {
            0.0
        } else {
            max_shard as f64 / (entries as f64 / occ.len() as f64)
        };
        ShardStats {
            name,
            entries,
            shards: occ.len(),
            max_shard,
            bytes: entries as u64 * entry_bytes,
            skew,
        }
    }
}

/// What the symmetry step's last-link measurements cost a campaign.
#[derive(Clone, Copy, Debug, Default)]
pub struct LastLinkCost {
    /// Last links measured (cache misses).
    pub measured: u64,
    /// TTL probes those measurements sent.
    pub ttl_probes: u64,
    /// Sum over them of |start TTL − target distance|: estimator error.
    pub start_err: u64,
}

/// Everything one profiled campaign produced.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Scale the campaign ran at.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Requests attempted.
    pub requests: usize,
    /// Campaign metrics fingerprint.
    pub metrics_fingerprint: u64,
    /// Campaign journal fingerprint.
    pub journal_fingerprint: u64,
    /// Resource-ledger readings (current + high-water), name-sorted.
    pub resources: ResourceSnapshot,
    /// Collapsed cost stacks, path-sorted.
    pub stacks: Vec<ProfileStack>,
    /// Per-ledger `(ord, bytes)` wave-barrier series for counter tracks.
    pub series: Vec<(String, Vec<(u64, u64)>)>,
    /// Sorted journal records (what the trace export renders).
    pub journal: Vec<RequestRecord>,
    /// Campaign-only probe-counter delta.
    pub probes: Snapshot,
    /// Event-loop steps the campaign processed.
    pub events: u64,
    /// Campaign-only virtual milliseconds.
    pub campaign_virtual_ms: f64,
    /// What the symmetry step's last-link measurements cost.
    pub last_link: LastLinkCost,
    /// Measurement-cache shard statistics (last-link + RR maps).
    pub shard_stats: Vec<ShardStats>,
    /// Worst route/border-cache shard skew on the simulator side.
    pub sim_cache_skew: f64,
    /// The `mem.total.hiwater` ceiling the monitor policy enforces.
    pub mem_ceiling: u64,
    /// The control-block capacity the headroom rule measures against.
    pub control_capacity: u64,
}

/// Collect every resource view of a campaign run.
pub fn judge(run: &CampaignRun) -> ProfileReport {
    let last_link = LastLinkCost {
        measured: run.snapshot.counter("probing.last_link.measured"),
        ttl_probes: run.snapshot.counter("probing.last_link.pkts"),
        start_err: run.snapshot.counter("stage.assume_symmetry.start_err"),
    };
    let (ll_occ, rr_occ) = &run.cache_shards;
    let shard_stats = vec![
        ShardStats::from_occupancy(
            "probing.cache.last_link",
            ll_occ,
            revtr_probing::LAST_LINK_ENTRY_BYTES,
        ),
        ShardStats::from_occupancy("probing.cache.rr", rr_occ, revtr_probing::RR_ENTRY_BYTES),
    ];
    // The ceilings the headroom section reports against are the ones the
    // monitor's default policy enforces.
    let b = run.campaign.scale.baselines();

    ProfileReport {
        scale: run.campaign.scale,
        seed: run.campaign.seed,
        requests: run.workload.len(),
        metrics_fingerprint: run.metrics_fingerprint,
        journal_fingerprint: run.journal_fingerprint,
        resources: run.resources.clone(),
        stacks: run.stacks.clone(),
        series: run.series.clone(),
        journal: run.journal.clone(),
        probes: run.probes,
        events: run.events,
        campaign_virtual_ms: run.virtual_ms,
        last_link,
        shard_stats,
        sim_cache_skew: run.sim_cache_skew,
        mem_ceiling: b.mem_total_max,
        control_capacity: b.control_capacity,
    }
}

fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

impl ProfileReport {
    /// Total high-water bytes across every ledger.
    pub fn total_hiwater(&self) -> u64 {
        self.resources.ledgers.iter().map(|l| l.hiwater).sum()
    }

    /// The high-water reading of one ledger (0 when absent).
    pub fn hiwater(&self, name: &str) -> u64 {
        self.resources
            .ledgers
            .iter()
            .find(|l| l.name == name)
            .map(|l| l.hiwater)
            .unwrap_or(0)
    }

    /// The subsystem byte table: one row per ledger, share of the
    /// campaign-wide high-water total in the last column.
    pub fn byte_table(&self) -> Table {
        let total = self.total_hiwater().max(1);
        let mut t = Table::new(
            "Profile: subsystem bytes",
            &["subsystem", "current KB", "hiwater KB", "share %"],
        );
        for l in &self.resources.ledgers {
            t.row(&[
                l.name.as_str(),
                &kb(l.current),
                &kb(l.hiwater),
                &format!("{:.1}", l.hiwater as f64 * 100.0 / total as f64),
            ]);
        }
        t.row(&["total", "", &kb(self.total_hiwater()), "100.0"]);
        t
    }

    /// The top-k cost stacks ranked by `metric` (inclusive totals).
    pub fn stack_table(&self, metric: ProfileMetric) -> Table {
        let weight = |s: &ProfileStack| match metric {
            ProfileMetric::VirtualUs => s.virtual_us,
            ProfileMetric::Events => s.events,
            ProfileMetric::CacheBytes => s.cache_bytes,
            ProfileMetric::ProbeBytes => s.probe_bytes,
        };
        let mut ranked: Vec<&ProfileStack> = self.stacks.iter().collect();
        ranked.sort_by(|a, b| weight(b).cmp(&weight(a)).then(a.path.cmp(&b.path)));
        let mut t = Table::new(
            "Profile: top cost stacks (inclusive)",
            &[
                "stack",
                "spans",
                "virtual ms",
                "events",
                "cache KB",
                "probe KB",
            ],
        );
        for s in ranked.into_iter().take(TOP_K_STACKS) {
            t.row(&[
                s.path.as_str(),
                &s.spans.to_string(),
                &format!("{:.1}", s.virtual_us as f64 / 1000.0),
                &s.events.to_string(),
                &kb(s.cache_bytes),
                &kb(s.probe_bytes),
            ]);
        }
        t
    }

    /// The striped-map shard-skew table (measurement cache) plus the
    /// simulator-side worst skew.
    pub fn skew_table(&self) -> Table {
        let mut t = Table::new(
            "Profile: shard occupancy skew",
            &["map", "entries", "shards", "max/shard", "bytes KB", "skew"],
        );
        for s in &self.shard_stats {
            t.row(&[
                s.name,
                &s.entries.to_string(),
                &s.shards.to_string(),
                &s.max_shard.to_string(),
                &kb(s.bytes),
                &format!("{:.2}", s.skew),
            ]);
        }
        t
    }

    /// The capacity-headroom table: measured high-water totals against
    /// the monitor policy's ceilings.
    pub fn headroom_table(&self) -> Table {
        let mut t = Table::new(
            "Profile: capacity headroom",
            &["resource", "hiwater KB", "ceiling KB", "headroom %"],
        );
        let row = |t: &mut Table, name: &str, used: u64, ceiling: u64| {
            let headroom = if ceiling == 0 {
                0.0
            } else {
                (1.0 - used as f64 / ceiling as f64) * 100.0
            };
            t.row(&[name, &kb(used), &kb(ceiling), &format!("{headroom:.1}")]);
        };
        row(&mut t, "mem.total", self.total_hiwater(), self.mem_ceiling);
        row(
            &mut t,
            "engine.control_blocks",
            self.hiwater("engine.control_blocks"),
            self.control_capacity,
        );
        t
    }

    /// Events per request.
    pub fn events_per_revtr(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.events as f64 / self.requests as f64
        }
    }

    /// Probe bytes per request.
    pub fn bytes_per_revtr(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.probes.probe_bytes() as f64 / self.requests as f64
        }
    }

    /// Render the full profile report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "profile: {} requests ({} scale, seed {}), {:.1} virtual s",
            self.requests,
            self.scale.name(),
            self.seed,
            self.campaign_virtual_ms / 1000.0
        );
        let _ = writeln!(
            s,
            "fingerprints: metrics {:#018x}  journal {:#018x}  resources {:#018x}",
            self.metrics_fingerprint,
            self.journal_fingerprint,
            self.resources.fingerprint()
        );
        let _ = writeln!(
            s,
            "unit costs: {:.2} events/revtr  {:.1} probe bytes/revtr  \
             {} option probes  {} events",
            self.events_per_revtr(),
            self.bytes_per_revtr(),
            self.probes.option_probes(),
            self.events
        );
        let per_link = |n: u64| n as f64 / self.last_link.measured.max(1) as f64;
        let _ = writeln!(
            s,
            "last links: {} measured  {:.2} ttl probes each  start ttl off by {:.2}",
            self.last_link.measured,
            per_link(self.last_link.ttl_probes),
            per_link(self.last_link.start_err)
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "{}", self.byte_table().render());
        let _ = writeln!(s, "{}", self.stack_table(ProfileMetric::VirtualUs).render());
        let _ = writeln!(s, "{}", self.headroom_table().render());
        let _ = writeln!(s, "{}", self.skew_table().render());
        let _ = write!(
            s,
            "sim route/border cache worst shard skew: {:.2}",
            self.sim_cache_skew
        );
        s
    }

    /// Write the profile artifacts under `dir`: flamegraph-collapsed
    /// text weighted by virtual time and by probe bytes, plus a Perfetto
    /// trace with per-ledger counter tracks. All byte-deterministic.
    pub fn save_exports(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, metric) in [
            ("profile_virtual_us.folded", ProfileMetric::VirtualUs),
            ("profile_probe_bytes.folded", ProfileMetric::ProbeBytes),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, flamegraph_text(&self.stacks, metric))?;
            written.push(path);
        }
        let trace = dir.join("profile_trace.json");
        std::fs::write(
            &trace,
            chrome_trace_json_with_counters(&self.journal, &self.series),
        )?;
        written.push(trace);
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;

    fn run(seed: u64) -> ProfileReport {
        judge(&Campaign::clean(Scale::Smoke, seed).run())
    }

    #[test]
    fn smoke_profile_reports_every_subsystem_deterministically() {
        let a = run(1);
        let b = run(1);
        assert_eq!(a.render(), b.render(), "report not byte-deterministic");
        assert_eq!(
            a.resources.fingerprint(),
            b.resources.fingerprint(),
            "resource readings not deterministic"
        );

        // The ISSUE's floor: at least 8 distinct subsystems ledgered.
        let names: Vec<&str> = a
            .resources
            .ledgers
            .iter()
            .map(|l| l.name.as_str())
            .collect();
        assert!(
            names.len() >= 8,
            "expected >= 8 subsystem ledgers, got {names:?}"
        );
        for expect in [
            "atlas.traces",
            "engine.control_blocks",
            "netsim.fib",
            "netsim.route_cache",
            "probing.cache.rr",
            "probing.stopset.backward",
            "telemetry.journal",
        ] {
            assert!(
                names.contains(&expect),
                "ledger {expect} missing: {names:?}"
            );
        }
        assert!(a.total_hiwater() > 0);
        assert!(a.hiwater("netsim.fib") > 0, "FIB bytes unreported");

        // Cost stacks exist, are rooted at `request`, and carry events.
        assert!(!a.stacks.is_empty());
        assert!(a.stacks.iter().all(|s| s.path.starts_with("request")));
        assert!(a.events > 0);
        assert!(a.events_per_revtr() > 0.0);
        assert!(a.bytes_per_revtr() > 0.0);

        // The ledger wave-barrier series feed non-empty counter tracks.
        assert!(!a.series.is_empty());
        assert!(a.series.iter().any(|(_, pts)| !pts.is_empty()));
    }

    #[test]
    fn exports_round_trip_and_stay_deterministic() {
        let r = run(7);
        let dir = std::env::temp_dir().join("revtr_profile_export_test");
        let paths = r.save_exports(&dir).expect("export failed");
        assert_eq!(paths.len(), 3);
        let folded = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (path, v) = line.rsplit_once(' ').expect("folded line shape");
            assert!(path.starts_with("request"));
            v.parse::<u64>().expect("folded weight numeric");
        }
        let trace = std::fs::read_to_string(&paths[2]).unwrap();
        assert!(trace.contains("\"ph\":\"C\""), "counter tracks missing");
        std::fs::remove_dir_all(&dir).ok();
    }
}
