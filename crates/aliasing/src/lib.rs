//! # revtr-aliasing — measured identity: aliases, origins, relationships
//!
//! Reverse Traceroute constantly needs to answer "are these two addresses
//! the same router?", "which AS owns this hop?", and "is this AS link
//! plausible?" — with *measured*, imperfect data, exactly as the paper does
//! (Appx. B, §5.2.2). This crate provides:
//!
//! * [`Ip2As`] — registry-origin IP-to-AS mapping (correct for hosts,
//!   ambiguous at provider-numbered borders),
//! * [`RelationshipDb`] — a CAIDA-style relationship/customer-cone dataset
//!   (correct but incomplete), with the suspicious-link heuristic,
//! * [`AliasResolver`] — SNMPv3 + MIDAR-lite + point-to-point /30 alias
//!   evidence, deliberately partial.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ip2as;
pub mod relationships;
pub mod resolver;

pub use ip2as::Ip2As;
pub use relationships::RelationshipDb;
pub use resolver::AliasResolver;
