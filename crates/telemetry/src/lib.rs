//! Deterministic, virtual-time observability for the revtr reproduction.
//!
//! Every instrumented subsystem in this workspace is driven by simulated
//! time (`revtr_probing::Clock`-style virtual milliseconds) and deterministic
//! PRNG draws, so its telemetry can be deterministic too — the same seed
//! must produce byte-identical metrics, and enabling telemetry must not
//! perturb the system under observation. This crate provides the three
//! primitives that make that possible:
//!
//! - [`Histogram`]: a log-linear value histogram (exact below 32, sixteen
//!   sub-buckets per power of two above) for virtual latencies, batch
//!   sizes, queue depths, and retry counts.
//! - [`MetricsRegistry`]: a recorder-striped [`MetricKey`] →
//!   counter/histogram map (static key parts, no name is built while
//!   recording), merged into one sorted [`MetricsSnapshot`] on read.
//! - [`Telemetry`] / [`RequestScope`]: a cloneable handle plus a
//!   per-request span recorder. Spans are keyed to *virtual* time handed
//!   in by the caller — this crate never reads the wall clock — and
//!   sampled request traces land in a bounded, order-independent JSONL
//!   [`Journal`].
//!
//! On top of the raw telemetry sit the judgment and export layers:
//!
//! - [`slo`]: a declarative SLO rule engine (thresholds, quantile bounds,
//!   virtual-time burn-rate windows) whose failing verdicts are the
//!   alerts; judging a run records nothing into it.
//! - [`chrome_trace_json`] / [`prometheus_text`]: byte-deterministic
//!   Chrome-trace and Prometheus exports of the journal and snapshot.
//! - A stuck-request watchdog ([`TelemetryConfig::watchdog_deadline_ms`]):
//!   requests overrunning a virtual deadline are flagged — never killed —
//!   with the deepest span open at the deadline, in a store separate from
//!   the metrics so arming it cannot change a campaign's fingerprint.
//!
//! The handle is designed to be free when disabled (the default): it is a
//! single `Option<Arc<..>>` and every recording method is a branch on
//! `None`. The workspace's metamorphic suite asserts the stronger
//! property that matters: campaign fingerprints, probe counters, and
//! audit verdicts are byte-identical with telemetry on, off, or absent.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(clippy::unwrap_used)]

mod export;
mod histogram;
mod journal;
#[cfg(test)]
mod reference;
mod registry;
mod resource;
pub mod slo;
mod span;

pub use export::{chrome_trace_json, prometheus_text};
pub use histogram::Histogram;
pub use journal::{Journal, RequestRecord, SpanRecord};
pub use registry::{
    thread_stripe, CachePadded, MetricKey, MetricsRegistry, MetricsSnapshot, WordHasher, WordMap,
    WordSet,
};
pub use resource::{
    flamegraph_text, LedgerReading, ProfileMetric, ProfileStack, ResourceSnapshot, SpanCost,
};
pub use slo::{RuleExpr, Severity, SloInput, SloPolicy, SloReport, SloRule, Verdict};
pub use span::{RequestScope, ScopeBuffers, SpanToken, Telemetry, TelemetryConfig, WatchdogFlag};

/// FNV-1a 64-bit hasher used for metrics/journal fingerprints.
///
/// A fixed, platform-independent hash (unlike `DefaultHasher`, whose
/// algorithm is unspecified) so fingerprints printed by `revtr-cli
/// metrics` are stable across toolchains and can be compared in CI logs.
#[derive(Clone, Debug)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` as little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv::new();
        h.write(b"revtr");
        h.write_u64(42);
        // Golden value: FNV-1a is fully specified, so this must never move.
        let first = h.finish();
        let mut h2 = Fnv::new();
        h2.write(b"revtr");
        h2.write_u64(42);
        assert_eq!(first, h2.finish());
        assert_ne!(first, Fnv::new().finish());
    }
}
