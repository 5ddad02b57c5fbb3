//! A fixed-capacity vector stored inline.
//!
//! Record Route slots (≤ 9) and the hops of a walk (≤ [`crate::sim::MAX_HOPS`])
//! have small hard bounds, and one of each is produced per probe. Keeping
//! them in the value itself — no heap, `Copy` — is what lets the probe
//! primitives run without allocating.

use std::fmt;
use std::ops::Deref;

/// Up to `N` values of `T`, held inline; derefs to the filled prefix.
#[derive(Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    len: u32,
    buf: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Append `value`.
    ///
    /// # Panics
    /// If `N` values are already held: callers own the bound (the RFC 791
    /// slot count, the hop cap) and check it before pushing.
    pub fn push(&mut self, value: T) {
        self.buf[self.len as usize] = value;
        self.len += 1;
    }

    /// True once `N` values are held.
    pub fn is_full(&self) -> bool {
        self.len as usize == N
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

/// Collects up to `N` values; panics on one more, like [`InlineVec::push`].
impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for value in iter {
            v.push(value);
        }
        v
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

impl<T, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len as usize]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Equality is over the filled prefix only.
impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_deref_and_equality_ignore_unused_slots() {
        let mut a: InlineVec<u32, 4> = InlineVec::new();
        assert!(a.is_empty());
        a.push(7);
        a.push(9);
        assert_eq!(&a[..], &[7, 9]);
        assert_eq!(a.iter().sum::<u32>(), 16);
        assert_eq!(format!("{a:?}"), "[7, 9]");

        // Same filled prefix, different history in the unused slots.
        let mut b: InlineVec<u32, 4> = InlineVec::new();
        b.push(7);
        b.push(9);
        b.push(1);
        b[2] = 5;
        assert_ne!(a, b);
        let mut c = a;
        c.push(5);
        assert_eq!(b, c);
        assert!(!c.is_full());
        c.push(0);
        assert!(c.is_full());
        assert_eq!((&c).into_iter().count(), 4);
        assert_eq!(c.iter().copied().collect::<InlineVec<u32, 4>>(), c);
    }

    #[test]
    #[should_panic]
    fn push_past_capacity_panics() {
        let mut v: InlineVec<u8, 1> = InlineVec::new();
        v.push(1);
        v.push(2);
    }
}
