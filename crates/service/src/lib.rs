//! # revtr-service — revtr 2.0 as a service (Appx. A)
//!
//! The paper operates revtr 2.0 as an open service: users register, add
//! their own hosts as sources (a ~15-minute bootstrap builds each source's
//! traceroute atlas), and request measurements through REST/gRPC APIs under
//! per-user rate limits; results are archived. This crate reproduces that
//! orchestration layer over [`revtr::RevtrSystem`]:
//!
//! * [`UserDb`] — users, API keys, parallel + daily rate limits,
//! * [`RevtrService`] — source bootstrap (with the RR-reachability check),
//!   on-demand requests, batch campaigns, and the
//!   NDT-triggered measurement hook,
//! * [`ResultStore`] — the archive (JSON import/export standing in for
//!   M-Lab's cloud storage).

#![warn(missing_docs)]

pub mod admission;
pub mod service;
pub mod store;
pub mod users;

pub use admission::{
    AdmissionPlan, ClassPolicy, ClassReport, LadderConfig, LevelTransition, OpenLoopOutcome,
    ShedReason, TimedRequest,
};
pub use service::{RequestOptions, RevtrService, ServedRequest, ServiceError};
pub use store::{ResultStore, StoreStats};
pub use users::{ApiKey, RateLimits, UserDb, UserError};
