//! Umbrella crate re-exporting the full revtr 2.0 reproduction suite.
//!
//! Downstream users normally depend on the individual crates; this package
//! exists to host the workspace-level integration tests (`tests/`) and the
//! runnable examples (`examples/`).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use revtr;
pub use revtr_aliasing as aliasing;
pub use revtr_atlas as atlas;
pub use revtr_audit as audit;
pub use revtr_eval as eval;
pub use revtr_loadgen as loadgen;
pub use revtr_netsim as netsim;
pub use revtr_probing as probing;
pub use revtr_service as service;
pub use revtr_telemetry as telemetry;
pub use revtr_vpselect as vpselect;
