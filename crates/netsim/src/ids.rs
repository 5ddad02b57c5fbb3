//! Dense integer identifiers for topology entities.
//!
//! All topology collections are indexed by these newtypes; using `u32`
//! indices (rather than addresses or hash keys) keeps routing-table and
//! FIB computations cache-friendly.

use serde::Serialize;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

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

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                $name(raw)
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

/// Consecutive ids `start..end`: an AS's routers and prefixes, and the
/// links of one AS adjacency, as the generator numbers them.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct IdRange<T> {
    start: u32,
    end: u32,
    id: PhantomData<T>,
}

impl<T: Copy + From<u32>> IdRange<T> {
    /// The ids `start..end`.
    #[inline]
    pub(crate) fn new(start: u32, end: u32) -> Self {
        debug_assert!(start <= end);
        IdRange {
            start,
            end,
            id: PhantomData,
        }
    }

    /// Number of ids.
    #[inline]
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the range holds no id.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The `i`-th id, if there are that many.
    #[inline]
    pub fn get(self, i: usize) -> Option<T> {
        (i < self.len()).then(|| T::from(self.start + i as u32))
    }

    /// The ids in order.
    #[inline]
    pub fn iter(self) -> std::iter::Map<Range<u32>, fn(u32) -> T> {
        (self.start..self.end).map(T::from)
    }
}

impl<T: Copy + From<u32>> IntoIterator for IdRange<T> {
    type Item = T;
    type IntoIter = std::iter::Map<Range<u32>, fn(u32) -> T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + From<u32> + fmt::Debug> fmt::Debug for IdRange<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

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

    #[test]
    fn id_ranges_list_their_ids() {
        let r = IdRange::<LinkId>::new(3, 6);
        assert_eq!((r.len(), r.is_empty()), (3, false));
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            [LinkId(3), LinkId(4), LinkId(5)]
        );
        assert_eq!((r.get(2), r.get(3)), (Some(LinkId(5)), None));
        assert_eq!(format!("{r:?}"), "[L3, L4, L5]");
        assert!(IdRange::<LinkId>::new(4, 4).is_empty());
    }
}
