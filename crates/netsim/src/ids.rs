//! Dense integer identifiers for topology entities.
//!
//! All topology collections are indexed by these newtypes; using `u32`
//! indices (rather than addresses or hash keys) keeps routing-table and
//! FIB computations cache-friendly.

use serde::Serialize;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// An autonomous system, indexed into [`crate::topology::Topology::ases`].
    AsId,
    "AS"
);
id_type!(
    /// A router, indexed into [`crate::topology::Topology::routers`].
    RouterId,
    "R"
);
id_type!(
    /// A link (intra- or inter-domain), indexed into
    /// [`crate::topology::Topology::links`].
    LinkId,
    "L"
);
id_type!(
    /// An announced BGP prefix, indexed into
    /// [`crate::topology::Topology::prefixes`].
    PrefixId,
    "P"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(AsId(3).to_string(), "AS3");
        assert_eq!(RouterId(17).to_string(), "R17");
        assert_eq!(LinkId(0).to_string(), "L0");
        assert_eq!(PrefixId(99).to_string(), "P99");
    }

    #[test]
    fn ordering_and_index() {
        assert!(AsId(1) < AsId(2));
        assert_eq!(RouterId(5).index(), 5usize);
    }
}
