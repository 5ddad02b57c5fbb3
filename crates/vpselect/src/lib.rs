//! # revtr-vpselect — record-route vantage point selection (§4.3)
//!
//! The closer a VP is to a destination, the more reverse hops one spoofed
//! RR probe reveals. revtr 2.0 identifies each destination prefix's
//! *ingresses* from weekly background RR measurements and probes once per
//! ingress, from the closest VP — replacing revtr 1.0's exhaustive
//! set-cover ordering and cutting offline budget from 20% to 3% of probes
//! (Insight 1.8).
//!
//! This crate provides:
//!
//! * RR reply parsing with the Appx. C double-stamp and loop heuristics
//!   ([`parse`]),
//! * the background [`IngressDb`] builder and the three VP orderings
//!   compared in §5.3: ingress (revtr 2.0), revtr 1.0 set-cover, and the
//!   greedy "Global" baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod ingress;
pub mod parse;
#[cfg(test)]
mod reference;

pub use ingress::{IngressDb, IngressInfo, IngressQueue, PlanView, RR_RANGE};
pub use parse::{path_view, Heuristics};
