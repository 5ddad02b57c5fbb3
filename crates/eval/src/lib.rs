//! # revtr-eval — the paper's evaluation, regenerated
//!
//! One module per experiment; each produces the same rows/series the paper
//! reports (scaled to the simulated Internet) and renders as text and TSV.
//! See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

#![warn(missing_docs)]

pub mod ablation;
pub mod accuracy;
pub mod as_graph;
pub mod asymmetry;
pub mod atlas_study;
pub mod audit;
pub mod campaign;
pub mod cliargs;
pub mod context;
pub mod dbr_violations;
pub mod economy;
pub mod ip2as_ablation;
pub mod loadtest;
pub mod metrics;
pub mod monitor;
pub mod profile;
pub mod render;
pub mod reproduce;
pub mod responsiveness;
pub mod robustness;
pub mod scenarios;
pub mod stats;
pub mod symmetry_assumption;
pub mod throughput;
pub mod traffic_eng;
pub mod vp_selection;

pub use campaign::{Campaign, CampaignRun, Scale};
pub use context::{EvalContext, EvalScale};
pub use render::{Figure, Series, Table};
pub use stats::{fraction, linspace, Distribution};
