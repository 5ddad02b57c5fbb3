//! Deterministic byte ledgers and the cost-attribution profile store.
//!
//! Long-lived structures (simulator caches, measurement cache, stop
//! sets, atlas traces, engine control blocks, admission queues, the
//! telemetry stores themselves) self-report *logical* bytes — entries ×
//! entry footprint, no allocator hooks, no wall clock — into a
//! name-sharded [`ResourceRegistry`]. Ledgers are sampled at engine wave
//! barriers (serial points in virtual time), so every reading is a pure
//! function of the seed and invariant across dispatch worker counts.
//!
//! The same module holds the collapsed-stack profile cells fed by
//! [`SpanCost`]s: per-span loop-events-processed, cache-byte deltas, and
//! probe bytes, merged per stack path ("request;rr_step;rr_spoofed")
//! into [`ProfileStack`] rows. Both stores live *outside* the
//! fingerprinted metrics registry and journal, so turning profiling on
//! or off can never move a campaign's telemetry fingerprints.

use crate::Fnv;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

const N_SHARDS: usize = 8;

/// Per-span cost delta attached at stage exit: what the span *consumed*
/// beyond virtual time. All three are counter diffs computed by the
/// caller (the engine) from its per-thread probe-counter snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCost {
    /// Event-loop steps processed while the span was open.
    pub events: u64,
    /// Bytes admitted into measurement caches while the span was open.
    pub cache_bytes: u64,
    /// Probe bytes put on the (virtual) wire while the span was open.
    pub probe_bytes: u64,
}

impl SpanCost {
    /// The zero cost (spans closed through the uncosted `exit` path).
    pub const ZERO: SpanCost = SpanCost {
        events: 0,
        cache_bytes: 0,
        probe_bytes: 0,
    };
}

/// One collapsed-stack profile row: a full span path with its merged,
/// inclusive totals across every request that passed through it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileStack {
    /// Semicolon-joined span path, rooted at `request`
    /// (e.g. `request;rr_step;rr_spoofed`).
    pub path: String,
    /// Spans merged into this row.
    pub spans: u64,
    /// Inclusive virtual microseconds.
    pub virtual_us: u64,
    /// Inclusive engine events.
    pub events: u64,
    /// Inclusive cache bytes admitted.
    pub cache_bytes: u64,
    /// Inclusive probe bytes sent.
    pub probe_bytes: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    spans: u64,
    virtual_us: u64,
    events: u64,
    cache_bytes: u64,
    probe_bytes: u64,
}

/// The collapsed-stack accumulator behind an enabled, profiling
/// telemetry handle. Order-independent by construction: cells are merged
/// commutatively and read back name-sorted.
#[derive(Debug, Default)]
pub(crate) struct ProfileAgg {
    cells: Mutex<HashMap<String, Cell>>,
}

impl ProfileAgg {
    /// Merge one span's inclusive totals into the cell at `path`.
    pub(crate) fn merge(&self, path: &str, virtual_us: u64, cost: SpanCost) {
        let mut cells = self.cells.lock();
        let cell = cells.entry(path.to_string()).or_default();
        cell.spans += 1;
        cell.virtual_us += virtual_us;
        cell.events += cost.events;
        cell.cache_bytes += cost.cache_bytes;
        cell.probe_bytes += cost.probe_bytes;
    }

    /// All rows, sorted by path.
    pub(crate) fn stacks(&self) -> Vec<ProfileStack> {
        let cells = self.cells.lock();
        let mut rows: Vec<ProfileStack> = cells
            .iter()
            .map(|(path, c)| ProfileStack {
                path: path.clone(),
                spans: c.spans,
                virtual_us: c.virtual_us,
                events: c.events,
                cache_bytes: c.cache_bytes,
                probe_bytes: c.probe_bytes,
            })
            .collect();
        rows.sort_by(|a, b| a.path.cmp(&b.path));
        rows
    }

    /// Logical bytes retained by the accumulator itself (self-accounting).
    pub(crate) fn approx_bytes(&self) -> u64 {
        let cells = self.cells.lock();
        cells
            .keys()
            .map(|path| (path.len() + std::mem::size_of::<Cell>()) as u64)
            .sum()
    }
}

/// Render profile rows as flamegraph-collapsed text, one
/// `path value` line per row. `metric` picks the weight column.
pub fn flamegraph_text(stacks: &[ProfileStack], metric: ProfileMetric) -> String {
    let mut out = String::new();
    for s in stacks {
        let v = match metric {
            ProfileMetric::VirtualUs => s.virtual_us,
            ProfileMetric::Events => s.events,
            ProfileMetric::CacheBytes => s.cache_bytes,
            ProfileMetric::ProbeBytes => s.probe_bytes,
        };
        out.push_str(&s.path);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// Which cost column a flamegraph weights by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfileMetric {
    /// Inclusive virtual microseconds.
    VirtualUs,
    /// Inclusive engine events.
    Events,
    /// Inclusive cache bytes admitted.
    CacheBytes,
    /// Inclusive probe bytes sent.
    ProbeBytes,
}

#[derive(Clone, Debug, Default)]
struct Ledger {
    current: u64,
    hiwater: u64,
    /// `(ord, bytes)` samples taken at wave barriers, for counter tracks.
    series: Vec<(u64, u64)>,
}

#[derive(Debug, Default)]
struct Shard {
    ledgers: HashMap<&'static str, Ledger>,
}

/// Pad each shard to its own cache line (same trick as the metrics
/// registry) so adjacent mutexes don't false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Padded(Mutex<Shard>);

/// A name-sharded store of byte ledgers, one per long-lived subsystem
/// structure. Readings merge into one name-sorted [`ResourceSnapshot`],
/// so the view is independent of which thread (or in what order)
/// reported what.
#[derive(Debug)]
pub(crate) struct ResourceRegistry {
    shards: [Padded; N_SHARDS],
}

impl Default for ResourceRegistry {
    fn default() -> ResourceRegistry {
        ResourceRegistry::new()
    }
}

fn shard_of(name: &str) -> usize {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    (h.finish() as usize) % N_SHARDS
}

impl ResourceRegistry {
    /// An empty registry.
    pub(crate) fn new() -> ResourceRegistry {
        ResourceRegistry {
            shards: Default::default(),
        }
    }

    /// Set the current logical bytes of ledger `name`, raising its
    /// high-water mark if exceeded.
    pub(crate) fn set(&self, name: &'static str, bytes: u64) {
        let mut shard = self.shards[shard_of(name)].0.lock();
        let ledger = shard.ledgers.entry(name).or_default();
        ledger.current = bytes;
        ledger.hiwater = ledger.hiwater.max(bytes);
    }

    /// [`set`](ResourceRegistry::set) plus one `(ord, bytes)` series
    /// sample for counter-track export. `ord` is any caller-supplied
    /// monotone ordinate (wave number, virtual ms) — the registry never
    /// reads a clock of its own.
    pub(crate) fn record(&self, name: &'static str, ord: u64, bytes: u64) {
        let mut shard = self.shards[shard_of(name)].0.lock();
        let ledger = shard.ledgers.entry(name).or_default();
        ledger.current = bytes;
        ledger.hiwater = ledger.hiwater.max(bytes);
        ledger.series.push((ord, bytes));
    }

    /// Merge every shard into one name-sorted snapshot.
    pub(crate) fn snapshot(&self) -> ResourceSnapshot {
        let mut ledgers: Vec<LedgerReading> = Vec::new();
        for shard in &self.shards {
            let s = shard.0.lock();
            ledgers.extend(s.ledgers.iter().map(|(name, l)| LedgerReading {
                name: (*name).to_string(),
                current: l.current,
                hiwater: l.hiwater,
            }));
        }
        ledgers.sort_by(|a, b| a.name.cmp(&b.name));
        ResourceSnapshot { ledgers }
    }

    /// All `(name, series)` pairs with a non-empty sample series, sorted
    /// by name — the input to Perfetto counter-track export.
    pub(crate) fn series(&self) -> Vec<(String, Vec<(u64, u64)>)> {
        let mut out: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
        for shard in &self.shards {
            let s = shard.0.lock();
            out.extend(
                s.ledgers
                    .iter()
                    .filter(|(_, l)| !l.series.is_empty())
                    .map(|(name, l)| ((*name).to_string(), l.series.clone())),
            );
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Logical bytes retained by the registry itself (ledger table plus
    /// series samples) — the `telemetry.resources` self-accounting input.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let mut total = 0u64;
        for shard in &self.shards {
            let s = shard.0.lock();
            for (name, l) in &s.ledgers {
                total += (name.len() + std::mem::size_of::<Ledger>()) as u64;
                total += (l.series.len() * std::mem::size_of::<(u64, u64)>()) as u64;
            }
        }
        total
    }
}

/// One ledger's point-in-time reading.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerReading {
    /// Ledger name (`subsystem.structure`, e.g. `netsim.route_cache`).
    pub name: String,
    /// Current logical bytes.
    pub current: u64,
    /// High-water logical bytes since the registry was created.
    pub hiwater: u64,
}

/// A name-sorted view of a `ResourceRegistry`.
#[derive(Clone, Debug, Default)]
pub struct ResourceSnapshot {
    /// All ledgers, sorted by name.
    pub ledgers: Vec<LedgerReading>,
}

impl ResourceSnapshot {
    /// Reading by name.
    pub fn get(&self, name: &str) -> Option<&LedgerReading> {
        self.ledgers
            .binary_search_by(|l| l.name.as_str().cmp(name))
            .map(|i| &self.ledgers[i])
            .ok()
    }

    /// Current bytes by name (0 when absent).
    pub fn current(&self, name: &str) -> u64 {
        self.get(name).map(|l| l.current).unwrap_or(0)
    }

    /// High-water bytes by name (0 when absent).
    pub fn hiwater(&self, name: &str) -> u64 {
        self.get(name).map(|l| l.hiwater).unwrap_or(0)
    }

    /// FNV fingerprint over names, currents, and high-water marks. Two
    /// runs with identical resource behaviour produce identical
    /// fingerprints regardless of reporting order.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for l in &self.ledgers {
            h.write(l.name.as_bytes());
            h.write_u64(l.current);
            h.write_u64(l.hiwater);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledgers_track_current_and_hiwater() {
        let r = ResourceRegistry::new();
        r.set("a.cache", 100);
        r.set("a.cache", 40);
        r.set("b.queue", 7);
        let snap = r.snapshot();
        assert_eq!(snap.current("a.cache"), 40);
        assert_eq!(snap.hiwater("a.cache"), 100);
        assert_eq!(snap.current("b.queue"), 7);
        assert_eq!(snap.current("missing"), 0);
        assert!(snap.get("missing").is_none());
    }

    #[test]
    fn snapshot_is_order_independent() {
        let a = ResourceRegistry::new();
        a.set("x", 1);
        a.set("y", 2);
        a.set("x", 3);
        let b = ResourceRegistry::new();
        b.set("y", 2);
        b.set("x", 1);
        b.set("x", 3);
        assert_eq!(a.snapshot().fingerprint(), b.snapshot().fingerprint());
        assert_ne!(
            a.snapshot().fingerprint(),
            ResourceRegistry::new().snapshot().fingerprint()
        );
    }

    #[test]
    fn series_samples_are_kept_in_order() {
        let r = ResourceRegistry::new();
        r.record("engine.control_blocks", 0, 10);
        r.record("engine.control_blocks", 1, 30);
        r.record("engine.control_blocks", 2, 20);
        r.set("no.series", 5);
        let series = r.series();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].0, "engine.control_blocks");
        assert_eq!(series[0].1, vec![(0, 10), (1, 30), (2, 20)]);
        assert_eq!(r.snapshot().hiwater("engine.control_blocks"), 30);
        assert!(r.approx_bytes() > 0);
    }

    #[test]
    fn profile_cells_merge_and_render() {
        let agg = ProfileAgg::default();
        agg.merge(
            "request;rr_step",
            100,
            SpanCost {
                events: 2,
                cache_bytes: 64,
                probe_bytes: 28,
            },
        );
        agg.merge(
            "request;rr_step",
            50,
            SpanCost {
                events: 1,
                cache_bytes: 0,
                probe_bytes: 68,
            },
        );
        agg.merge("request", 200, SpanCost::ZERO);
        let stacks = agg.stacks();
        assert_eq!(stacks.len(), 2);
        assert_eq!(stacks[0].path, "request");
        assert_eq!(stacks[1].spans, 2);
        assert_eq!(stacks[1].virtual_us, 150);
        assert_eq!(stacks[1].events, 3);
        assert_eq!(stacks[1].probe_bytes, 96);
        let fg = flamegraph_text(&stacks, ProfileMetric::VirtualUs);
        assert_eq!(fg, "request 200\nrequest;rr_step 150\n");
        let fg = flamegraph_text(&stacks, ProfileMetric::ProbeBytes);
        assert!(fg.contains("request;rr_step 96\n"));
        assert!(agg.approx_bytes() > 0);
    }
}
