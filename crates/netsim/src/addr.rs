//! IPv4 addressing primitives for the simulated Internet.
//!
//! The simulator allocates the synthetic address space deterministically:
//! every AS owns a `/16` block carved from `1.0.0.0` upward, and all
//! interfaces, loopbacks, and destination prefixes are sub-allocated from the
//! owning block (interdomain link `/30`s are numbered from the *provider's*
//! block, which is what makes IP-to-AS mapping ambiguous at borders, exactly
//! as in the real Internet). `10.0.0.0/8` is reserved for routers that stamp
//! Record Route packets with private addresses.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An IPv4 address, stored as a host-order `u32`.
///
/// A thin newtype rather than `std::net::Ipv4Addr` so that arithmetic
/// (prefix masking, /30 neighbours) stays explicit and allocation-friendly.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Addr(pub u32);

impl Addr {
    /// The unspecified address, used as a sentinel in option slots.
    pub const ZERO: Addr = Addr(0);

    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// True if the address lies in `10.0.0.0/8` (RFC 1918 private space as
    /// used by the simulator for private-stamping routers).
    pub const fn is_private(self) -> bool {
        self.0 >> 24 == 10
    }

    /// The two usable addresses of a `/30` are `base+1` and `base+2`; given
    /// one of them, return the other. Returns `None` if the address is a
    /// network or broadcast address of its `/30`.
    pub const fn p2p30_peer(self) -> Option<Addr> {
        match self.0 & 0b11 {
            1 => Some(Addr(self.0 + 1)),
            2 => Some(Addr(self.0 - 1)),
            _ => None,
        }
    }

    /// True if `self` and `other` fall in the same `/30` block.
    pub const fn same_slash30(self, other: Addr) -> bool {
        self.0 & !0b11 == other.0 & !0b11
    }

    /// True if `self` and `other` fall in the same `/31` block.
    pub const fn same_slash31(self, other: Addr) -> bool {
        self.0 & !0b1 == other.0 & !0b1
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Addr {
        Addr(v)
    }
}

/// An IPv4 prefix (`base/len`), with `base` already masked to `len` bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Prefix {
    /// Network base address (low bits zero).
    pub base: Addr,
    /// Prefix length in bits, `0..=32`.
    pub len: u8,
}

impl Prefix {
    /// Create a prefix, masking `base` down to `len` bits.
    pub fn new(base: Addr, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length out of range");
        Prefix {
            base: Addr(base.0 & Self::mask(len)),
            len,
        }
    }

    /// The netmask for a given prefix length.
    pub const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// True if `addr` falls inside this prefix.
    pub const fn contains(&self, addr: Addr) -> bool {
        addr.0 & Self::mask(self.len) == self.base.0
    }

    /// Number of addresses covered.
    pub const fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The `i`-th address in the prefix (panics if out of range).
    pub fn nth(&self, i: u32) -> Addr {
        assert!((i as u64) < self.size(), "host index out of prefix range");
        Addr(self.base.0 + i)
    }

    /// Last address of the prefix (broadcast for /24 and shorter).
    pub const fn last(&self) -> Addr {
        Addr(self.base.0 + (self.size() - 1) as u32)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip() {
        let a = Addr::new(192, 168, 3, 77);
        assert_eq!(a.octets(), [192, 168, 3, 77]);
        assert_eq!(a.to_string(), "192.168.3.77");
    }

    #[test]
    fn private_detection() {
        assert!(Addr::new(10, 0, 0, 1).is_private());
        assert!(Addr::new(10, 255, 1, 2).is_private());
        assert!(!Addr::new(11, 0, 0, 1).is_private());
        assert!(!Addr::new(1, 2, 3, 4).is_private());
    }

    #[test]
    fn slash30_peers() {
        let base = Addr::new(1, 2, 3, 0);
        let a = Addr(base.0 + 1);
        let b = Addr(base.0 + 2);
        assert_eq!(a.p2p30_peer(), Some(b));
        assert_eq!(b.p2p30_peer(), Some(a));
        assert_eq!(base.p2p30_peer(), None);
        assert_eq!(Addr(base.0 + 3).p2p30_peer(), None);
        assert!(a.same_slash30(b));
        assert!(!a.same_slash30(Addr(base.0 + 4)));
    }

    #[test]
    fn slash31_peers() {
        let a = Addr::new(1, 2, 3, 4);
        let b = Addr::new(1, 2, 3, 5);
        assert!(b.same_slash31(a));
        assert!(a.same_slash31(b));
        assert!(!a.same_slash31(Addr::new(1, 2, 3, 6)));
    }

    #[test]
    fn prefix_contains_and_masks() {
        let p = Prefix::new(Addr::new(1, 2, 3, 99), 24);
        assert_eq!(p.base, Addr::new(1, 2, 3, 0));
        assert!(p.contains(Addr::new(1, 2, 3, 0)));
        assert!(p.contains(Addr::new(1, 2, 3, 255)));
        assert!(!p.contains(Addr::new(1, 2, 4, 0)));
        assert_eq!(p.size(), 256);
        assert_eq!(p.nth(7), Addr::new(1, 2, 3, 7));
        assert_eq!(p.last(), Addr::new(1, 2, 3, 255));
    }

    #[test]
    fn mask_edges() {
        assert_eq!(Prefix::mask(0), 0);
        assert_eq!(Prefix::mask(32), u32::MAX);
        assert_eq!(Prefix::mask(16), 0xFFFF_0000);
        let p = Prefix::new(Addr::new(9, 9, 9, 9), 32);
        assert!(p.contains(Addr::new(9, 9, 9, 9)));
        assert_eq!(p.size(), 1);
    }
}
