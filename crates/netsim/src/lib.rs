//! # revtr-netsim — a deterministic simulated Internet
//!
//! The substrate for the revtr 2.0 reproduction: a seeded generator builds a
//! hierarchical AS graph (tier-1 clique / transit / NREN / stub) with
//! router-level topology, /30-numbered links, and announced /24 prefixes;
//! routing follows Gao–Rexford valley-free policies interdomain and a
//! hop-count IGP with hot-potato egress selection intradomain.
//!
//! On top of per-router destination-based forwarding, the engine implements
//! exactly the probe primitives Reverse Traceroute needs:
//!
//! * ICMP echo (plain ping),
//! * echo with the **Record Route** option (9 slots; per-router stamping
//!   modes: egress / ingress / loopback / private / none),
//! * echo with the **Timestamp prespec** option (4 ordered slots),
//! * (Paris) **traceroute** via TTL-exceeded,
//! * **source spoofing** with per-AS spoof filtering,
//! * SNMPv3 fingerprinting of routers.
//!
//! Controlled impairments — per-packet load balancing of option packets,
//! destination-based-routing violations, route churn — are injected at
//! configurable rates so the paper's accuracy methodology (Appx. E) can be
//! replayed.
//!
//! Ground truth lives behind [`oracle::Oracle`] and is off-limits to the
//! measurement crates.
//!
//! ```
//! use revtr_netsim::{Sim, SimConfig};
//!
//! let sim = Sim::build(SimConfig::tiny(), 42);
//! let src = sim.topo().vp_sites[0].host;
//! let dst = sim.topo().vp_sites[1].host;
//! let reply = sim.ping(src, dst).expect("VP sites answer pings");
//! assert!(reply.rtt_ms > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod addr;
pub mod anycast;
pub mod behavior;
pub mod bgp;
mod churn;
pub mod concurrent;
pub mod config;
pub mod engine;
pub mod faults;
pub mod gen;
pub mod hash;
pub mod ids;
pub mod igp;
pub mod inline;
pub mod oracle;
pub mod pool;
pub mod scenario;
pub mod sim;
pub mod topology;

pub use addr::{Addr, Prefix};
pub use concurrent::{shard_skew, Column, StripedCounters, StripedMap, Stripes};
pub use config::SimConfig;
pub use engine::{
    EchoReply, Endpoint, RrReply, RrSlots, RrTarget, TraceResult, TsReply, TtlAnswer, TtlView,
    RR_SLOTS,
};
pub use faults::FaultConfig;
pub use ids::{AsId, IdRange, PrefixId, RouterId};
pub use scenario::{ScenarioConfig, ScenarioProfile, Scenarios};
pub use sim::{Sim, SinkTree, TreeKey};
pub use topology::{AsTier, Rel, StampMode};
