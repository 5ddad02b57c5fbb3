//! # revtr-atlas — the traceroute atlas and RR-atlas (Q1, Q2, §4.2)
//!
//! Reverse Traceroute completes a measurement the moment the partial
//! reverse path touches a known route to the source. This crate maintains
//! those known routes:
//!
//! * [`SourceAtlas`] — traceroutes from randomly selected Atlas-like
//!   probes toward each source, indexed hop-by-hop,
//! * the **RR-atlas** (§4.2): background RR pings to every traceroute hop
//!   that pre-discover the RR-visible aliases a reverse traceroute will
//!   encounter, moving all intersection work offline,
//! * probe selection ([`probes::select_atlas_probes`]) and staleness
//!   bookkeeping for the refresh policy studies (Appx. D.2).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod atlas;
pub mod probes;

pub use atlas::{Intersection, SourceAtlas};
pub use probes::select_atlas_probes;
