//! # revtr — Internet-scale Reverse Traceroute (the paper's contribution)
//!
//! This crate implements the Reverse Traceroute technique and both systems
//! compared in the paper:
//!
//! * **revtr 2.0** ([`EngineConfig::revtr2`]): ingress-based spoofed-RR
//!   vantage point selection, measurement caching, the RR-atlas
//!   intersection index, no timestamp probing, and the intradomain-only
//!   symmetry trust policy;
//! * **revtr 1.0** ([`EngineConfig::revtr1`]): destination set-cover VP
//!   ordering, alias-dataset intersections, timestamp adjacency testing,
//!   and unconditional symmetry assumptions.
//!
//! One engine, [`RevtrSystem`], runs both — every knob of Eq. 1
//! (`revtr 2.0 = revtr 1.0 + ingress + cache − TS + RR atlas`) is an
//! independent configuration flag, so the Table 4 ablation ladder is a
//! list of configs ([`EngineConfig::table4_ladder`]).
//!
//! ## Quick start
//!
//! ```
//! use revtr::{EngineConfig, RevtrSystem};
//! use revtr_atlas::select_atlas_probes;
//! use revtr_netsim::{Sim, SimConfig};
//! use revtr_probing::Prober;
//! use revtr_vpselect::{Heuristics, IngressDb};
//! use std::sync::Arc;
//!
//! let sim = Sim::build(SimConfig::tiny(), 7);
//! let prober = Prober::new(&sim);
//! let vps: Vec<_> = sim.topo().vp_sites.iter().map(|v| v.host).collect();
//! let prefixes: Vec<_> = sim.topo().prefixes.iter().map(|p| p.id).take(10).collect();
//! let ingress = Arc::new(IngressDb::build(&prober, &vps, &prefixes, Heuristics::FULL));
//! let pool = select_atlas_probes(&sim, 50, 1);
//!
//! let mut cfg = EngineConfig::revtr2();
//! cfg.atlas_size = 30; // small atlas for the doc test
//! let system = RevtrSystem::new(prober, cfg, vps.clone(), ingress, pool);
//! let result = system.measure(vps[1], vps[0]);
//! assert_eq!(result.dst, vps[1]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod config;
pub mod engine;
pub mod result;
mod scratch;
pub mod system;

pub use config::{EngineConfig, SymmetryPolicy};
pub use engine::{task_footprint_bytes, LoopConfig, TimedJob, WavePool};
pub use result::{
    Evidence, HopMethod, ProbeDelta, RevtrHop, RevtrResult, RevtrStats, Status, StitchEnd,
};
pub use system::{extract_reverse_hops, RevtrSystem};
