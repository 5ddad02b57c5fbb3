//! The benchmark's metric tables: names, units, directions and regression
//! bounds, as `BENCHMARK.json` declares them (a unit test keeps the two
//! equal) and as `compare` applies them.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system would see.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen. The
    /// driver also requires ten runs on ten seeds to spread less than this
    /// (and asks for a third of it), so the bounds are three to four times
    /// the widest seed-to-seed spread seen on any workload; `compare`, which
    /// pairs runs by seed, additionally wants the exact metrics identical.
    pub bound: f64,
    /// Exact metrics are counts made by the program in virtual time: they
    /// repeat bit-for-bit on the serial workloads.
    pub exact: bool,
}

/// A metric of a single layer (layer = crate). No bound.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// The ten end-to-end metrics, reported by every workload. Wall-clock
/// throughput and CPU cost are not among them — see [`HOST_TIME`].
pub const END_TO_END: &[EndToEnd] = &[
    host("setup_s", "s", Lower, 0.25),
    host("peak_rss_mb", "MB", Lower, 0.25),
    exact("allocs_per_op", "count", Lower, 0.1),
    exact("alloc_kb_per_op", "KB", Lower, 0.1),
    exact("probes_per_op", "packets", Lower, 0.06),
    exact("virtual_s_per_op", "s", Lower, 0.1),
    exact("virtual_p99_s", "s", Lower, 0.1),
    exact("complete_ratio", "share", Higher, 0.15),
    exact("sound_ratio", "share", Higher, 0.03),
    exact("ok_ratio", "share", Higher, 0.04),
];

/// Raw wall-clock throughput and CPU cost, read off the fastest round.
///
/// They are what a user feels, and they are printed and written by every
/// run, but `BENCHMARK.json` lists them per-layer, without a bound: on the
/// reference host whole runs are 25–45 % slower for minutes at a time, ten
/// runs of one build spread 8–25 % (interquartile range ÷ median) whatever
/// round statistic is used, and the driver accepts no bound above 0.25 and
/// no spread above the bound. `compare` still judges them, with these
/// bounds, and says "unresolved" where the run sets do not support a verdict.
pub const HOST_TIME: &[EndToEnd] = &[
    host("bench.ops_per_s", "ops/s", Higher, 0.1),
    host("bench.cpu_us_per_op", "us", Lower, 0.1),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, reported by the traced run. A metric that does not
/// apply to a workload (no service on `bootstrap-cold`, …) reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // netsim
    layer("netsim.build_ms", "ms", Lower),
    layer("netsim.route_computes_per_kop", "count", Lower),
    layer("netsim.route_fill_us", "us", Lower),
    layer("netsim.walk_ns", "ns", Lower),
    layer("netsim.route_cache_mb", "MB", Lower),
    layer("netsim.virtual_hours", "h", Lower),
    // probing
    layer("probing.pkts_per_op.ping", "packets", Lower),
    layer("probing.pkts_per_op.rr", "packets", Lower),
    layer("probing.pkts_per_op.spoof_rr", "packets", Lower),
    layer("probing.pkts_per_op.ts", "packets", Lower),
    layer("probing.pkts_per_op.traceroute", "packets", Lower),
    layer("probing.pkts_per_op.atlas_rr", "packets", Lower),
    layer("probing.ping_ns", "ns", Lower),
    layer("probing.rr_ping_ns", "ns", Lower),
    layer("probing.traceroute_us", "us", Lower),
    layer("probing.spoof_batch_us", "us", Lower),
    layer("probing.cache.hit_ratio", "share", Higher),
    layer("probing.cache.expired_per_kop", "count", Lower),
    layer("probing.cache.inserts_per_kop", "count", Lower),
    layer("probing.cache_mb", "MB", Lower),
    layer("probing.cache.get_ns", "ns", Lower),
    layer("probing.stopset.backward_hit_ratio", "share", Higher),
    layer("probing.stopset.forward_hit_ratio", "share", Higher),
    layer("probing.stopset.skips_per_kop", "count", Higher),
    layer("probing.stopset_mb", "MB", Lower),
    layer("probing.retries_per_kop", "count", Lower),
    layer("probing.lost_per_kop", "count", Lower),
    // vpselect
    layer("vpselect.probe_prefix_us", "us", Lower),
    layer("vpselect.ingress_found_ratio", "share", Higher),
    layer("vpselect.survey_s", "s", Lower),
    layer("vpselect.plan_ns", "ns", Lower),
    // atlas
    layer("atlas.register_source_ms", "ms", Lower),
    layer("atlas.refresh_ms", "ms", Lower),
    layer("atlas.lookup_ns", "ns", Lower),
    layer("atlas.mb", "MB", Lower),
    layer("atlas.index_addrs", "count", Higher),
    layer("atlas.intersect_ratio", "share", Higher),
    // core
    layer("core.events_per_op", "count", Lower),
    layer("core.ns_per_event", "ns", Lower),
    layer("core.batches_per_op", "count", Lower),
    layer("core.stopset_reused_per_op", "count", Higher),
    layer("core.pool_threads", "count", Higher),
    layer("core.pool_cpu_ratio", "ratio", Higher),
    layer("core.pool_speedup", "ratio", Higher),
    layer("core.task_bytes", "B", Lower),
    layer("core.residual_share", "share", Lower),
    // service
    layer("service.request_overhead_ns", "ns", Lower),
    layer("service.shed_ratio", "share", Lower),
    layer("service.shed_per_kop.rate", "count", Lower),
    layer("service.shed_per_kop.queue", "count", Lower),
    layer("service.shed_per_kop.quota", "count", Lower),
    layer("service.goodput.gold", "share", Higher),
    layer("service.goodput.silver", "share", Higher),
    layer("service.goodput.bronze", "share", Higher),
    layer("service.level_share.0", "share", Higher),
    layer("service.level_share.1", "share", Lower),
    layer("service.level_share.2", "share", Lower),
    layer("service.level_share.3", "share", Lower),
    layer("service.waves", "count", Lower),
    layer("service.transitions", "count", Lower),
    layer("service.atlas_refreshes", "count", Lower),
    layer("service.stale_atlas_skips", "count", Lower),
    layer("service.admit_ns", "ns", Lower),
    // loadgen
    layer("loadgen.generate_ms", "ms", Lower),
    layer("loadgen.ns_per_arrival", "ns", Lower),
    // telemetry
    layer("telemetry.readout_ms", "ms", Lower),
    layer("telemetry.journal_records", "count", Lower),
    layer("telemetry.counter_add_ns", "ns", Lower),
    layer("telemetry.record_ns", "ns", Lower),
    layer("telemetry.on_off_ratio", "ratio", Lower),
    // audit
    layer("audit.check_ms", "ms", Lower),
    layer("audit.hops_checked", "count", Higher),
    layer("audit.unsound", "count", Lower),
    // the benchmark itself and the host
    layer("bench.op_p50_us", "us", Lower),
    layer("bench.op_p99_us", "us", Lower),
    layer("bench.ops_per_s", "ops/s", Higher),
    layer("bench.cpu_us_per_op", "us", Lower),
    layer("bench.ops_per_s_mean", "ops/s", Higher),
    layer("bench.round_spread", "ratio", Lower),
    layer("bench.round_prep_s", "s", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.attributed_share", "share", Higher),
    layer("host.cores", "count", Higher),
    layer("host.loadavg_start", "load", Lower),
    layer("host.loadavg_end", "load", Lower),
];

/// Values measured by one run, keyed by metric name.
#[derive(Clone, Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record a value. The name must be declared in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in metrics.rs"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every end-to-end metric, in table order. Panics if one was never
    /// set: each applies to every workload.
    pub fn end_to_end(&self) -> Vec<Row> {
        END_TO_END
            .iter()
            .map(|m| Row {
                name: m.name,
                value: self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name)),
                unit: m.unit,
                better: m.better,
            })
            .collect()
    }

    /// Every per-layer metric, in table order; 0 where the metric does not
    /// apply to the workload.
    pub fn per_layer(&self) -> Vec<Row> {
        PER_LAYER
            .iter()
            .map(|m| Row {
                name: m.name,
                value: self.get(m.name).unwrap_or(0.0),
                unit: m.unit,
                better: m.better,
            })
            .collect()
    }
}

impl Report {
    /// The [`HOST_TIME`] metrics, in table order.
    pub fn host_time(&self) -> Vec<Row> {
        HOST_TIME
            .iter()
            .filter_map(|m| {
                Some(Row {
                    name: m.name,
                    value: self.get(m.name)?,
                    unit: m.unit,
                    better: m.better,
                })
            })
            .collect()
    }

    /// Every value that was set, by name.
    pub fn all(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(&name, &value)| (name, value))
    }
}

/// One reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// The declared unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
