//! An inline small-vector for per-access result lists.
//!
//! The engine's per-access outcome (`stems_core::engine::StepOutcome`)
//! lists which blocks the prefetcher fetched during one access. Almost
//! every access fetches zero to a handful of blocks, so a `Vec` there
//! means a heap allocation per access — the dominant allocator traffic
//! of a trace replay. [`SmallVec`] keeps up to `N` elements inline and
//! only spills to the heap on the rare burst larger than `N` (deep
//! reconstructions), making the common path allocation-free.

use crate::BlockAddr;

/// A vector storing up to `N` elements inline, spilling to the heap
/// beyond that.
///
/// # Example
///
/// ```
/// use stems_types::SmallVec;
///
/// let mut v: SmallVec<u64, 4> = SmallVec::new();
/// for i in 0..6 {
///     v.push(i); // first 4 inline, then spills
/// }
/// assert_eq!(v.len(), 6);
/// assert_eq!(&v[..2], &[0, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct SmallVec<T, const N: usize> {
    inline: [T; N],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        SmallVec {
            inline: [T::default(); N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the contents have spilled to the heap.
    pub fn spilled(&self) -> bool {
        self.len > N
    }

    /// Appends an element. The first `N` pushes after a `clear` are
    /// allocation-free; push `N+1` moves the inline prefix to the heap.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = value;
        } else {
            if self.len == N && self.spill.is_empty() {
                self.spill.reserve(2 * N);
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Empties the vector, keeping any spill capacity for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// The elements as a contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T]> for SmallVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        v.extend(iter);
        v
    }
}

/// Blocks fetched off-chip during one simulated access. Sixteen inline
/// slots cover the deepest routine fetch bursts (lookahead 8–12 plus
/// spatial fill); longer reconstruction bursts spill.
pub type FetchList = SmallVec<BlockAddr, 16>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_n() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn spills_preserving_order() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn clear_returns_to_inline_storage() {
        let mut v: SmallVec<u32, 2> = SmallVec::new();
        for i in 0..5 {
            v.push(i);
        }
        v.clear();
        assert!(v.is_empty());
        v.push(9);
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[9]);
    }

    #[test]
    fn deref_and_iteration() {
        let v: SmallVec<u32, 4> = (0..3).collect();
        assert_eq!(v[1], 1);
        assert_eq!(v.iter().sum::<u32>(), 3);
        let doubled: Vec<u32> = (&v).into_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, [0, 2, 4]);
    }

    #[test]
    fn equality_follows_contents() {
        let a: SmallVec<u32, 2> = (0..5).collect();
        let b: SmallVec<u32, 2> = (0..5).collect();
        let c: SmallVec<u32, 2> = (0..4).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
