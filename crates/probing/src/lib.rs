//! # revtr-probing — measurement primitives over the simulated Internet
//!
//! This crate is the measurement substrate of the revtr reproduction: it
//! wraps [`revtr_netsim`]'s probe engine with
//!
//! * **accounting** in the paper's Table 4 categories (RR / spoofed RR /
//!   TS / spoofed TS, plus traceroutes and the background RR-atlas budget),
//! * a **virtual clock** charging realistic latency: per-probe RTTs,
//!   per-batch 10-second spoofed-probe collection timeouts (§5.2.4),
//! * a per-request **meter** ([`Meter`]): the same time and probe charges,
//!   tallied for the one measurement that caused them,
//! * a **measurement cache** with a one-day virtual TTL (Insight 1.4),
//!
//! so that the throughput/latency/overhead results (Table 4, Fig. 5c) fall
//! out of counters rather than instrumentation.
//!
//! ```
//! use revtr_netsim::{Sim, SimConfig};
//! use revtr_probing::Prober;
//!
//! let sim = Sim::build(SimConfig::tiny(), 7);
//! let prober = Prober::new(&sim);
//! let vp = sim.topo().vp_sites[0].host;
//! let dst = sim.topo().vp_sites[1].host;
//! prober.rr_ping(vp, dst).expect("VP answers RR");
//! assert_eq!(prober.counters().snapshot().rr, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod cache;
pub mod clock;
pub mod counters;
pub mod meter;
pub mod prober;
pub mod stopset;

pub use cache::{
    CacheStats, CachedRr, MeasurementCache, RrKey, LAST_LINK_ENTRY_BYTES, RR_ENTRY_BYTES,
};
pub use counters::Snapshot;
pub use meter::Meter;
pub use prober::{
    BatchReply, ForwardTree, LastLink, ProbeLoss, Prober, ReplyTree, ReplyTrees, RetryPolicy,
    Round, RrProvenance, SentEpoch,
};
pub use revtr_telemetry::{
    RequestScope, ScopeBuffers, SpanCost, SpanToken, Telemetry, TelemetryConfig, WatchdogFlag,
    WordMap, WordSet,
};
pub use stopset::{Contribution, DirectVerdict, Note, StopSet, StopSetSnapshot, StoredRr};
