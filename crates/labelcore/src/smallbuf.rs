//! A dependency-free small-vector: inline storage for short sequences,
//! spilling to a heap `Vec` only past the inline capacity.
//!
//! The ancestry-labelling literature (Fraigniaud & Korman; Dahlgaard,
//! Knudsen & Rotbart — see PAPERS.md) establishes that dynamic-tree
//! labels are Θ(log n) bits, a few dozen bytes in practice, so the code
//! algebras in this crate ([`crate::BitString`], [`crate::QCode`], the
//! QED symbol stream) and DLN's sub-id chains overwhelmingly fit on the
//! stack. Backing them with [`SmallVec`] removes the per-label heap
//! allocation from every bulk-labelling and per-insert hot path while
//! keeping behaviour identical: all comparisons and hashing go through
//! [`SmallVec::as_slice`], so an inline value and a spilled value with
//! the same contents are indistinguishable.
//!
//! The workspace forbids `unsafe` (lint rule R5), so the representation
//! is a safe enum over a fixed array and a `Vec` — `T: Copy + Default`
//! makes the unused tail of the inline array representable without
//! `MaybeUninit`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Inline capacity (in elements) of [`SmallBuf`]: 24 bytes covers every
/// label the P1–P4 workloads produce except adversarial growth tails.
pub const SMALLBUF_INLINE: usize = 24;

/// Byte buffer with 24 inline slots — the storage behind [`crate::BitString`],
/// [`crate::QCode`] and the QED [`crate::qstorage::SymbolStream`].
pub type SmallBuf = SmallVec<u8, SMALLBUF_INLINE>;

#[derive(Clone)]
enum Repr<T: Copy + Default, const N: usize> {
    /// Up to `N` elements stored in place; `buf[len..]` holds defaults.
    Inline { len: u8, buf: [T; N] },
    /// Spilled past the inline capacity.
    Heap(Vec<T>),
}

/// A vector of `T` with `N` elements of inline storage (`N ≤ 255`).
///
/// Equality, ordering and hashing are defined on the element slice, so
/// representation (inline vs spilled) never affects observable
/// behaviour.
#[derive(Clone)]
pub struct SmallVec<T: Copy + Default, const N: usize> {
    repr: Repr<T, N>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// An empty vector (inline).
    pub fn new() -> Self {
        debug_assert!(N <= u8::MAX as usize, "inline capacity must fit u8");
        SmallVec {
            repr: Repr::Inline {
                len: 0,
                buf: [T::default(); N],
            },
        }
    }

    /// A vector holding a copy of `slice`.
    pub fn from_slice(slice: &[T]) -> Self {
        let mut v = SmallVec::new();
        v.extend_from_slice(slice);
        v
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }

    /// Has this vector spilled to the heap?
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// Append one element, spilling to the heap at the `N` boundary.
    pub fn push(&mut self, value: T) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let l = usize::from(*len);
                if l < N {
                    buf[l] = value;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(2 * N);
                    v.extend_from_slice(buf);
                    v.push(value);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(value),
        }
    }

    /// Remove and return the last element. A spilled vector never moves
    /// back inline (stability over micro-optimisation).
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    Some(buf[usize::from(*len)])
                }
            }
            Repr::Heap(v) => v.pop(),
        }
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.as_slice().last()
    }

    /// Mutable access to the last element, if any.
    pub fn last_mut(&mut self) -> Option<&mut T> {
        self.as_mut_slice().last_mut()
    }

    /// Remove all elements. A spilled vector keeps its heap capacity, so
    /// a cleared scratch buffer can be refilled without reallocating.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Shorten to `new_len` elements (no-op when already shorter).
    pub fn truncate(&mut self, new_len: usize) {
        match &mut self.repr {
            Repr::Inline { len, .. } => {
                if usize::from(*len) > new_len {
                    *len = new_len as u8;
                }
            }
            Repr::Heap(v) => v.truncate(new_len),
        }
    }

    /// Append every element of `slice`.
    pub fn extend_from_slice(&mut self, slice: &[T]) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let l = usize::from(*len);
                if l + slice.len() <= N {
                    buf[l..l + slice.len()].copy_from_slice(slice);
                    *len = (l + slice.len()) as u8;
                } else {
                    let mut v = Vec::with_capacity((l + slice.len()).max(2 * N));
                    v.extend_from_slice(&buf[..l]);
                    v.extend_from_slice(slice);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.extend_from_slice(slice),
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        SmallVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default + PartialOrd, const N: usize> PartialOrd for SmallVec<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.as_slice().partial_cmp(other.as_slice())
    }
}

impl<T: Copy + Default + Ord, const N: usize> Ord for SmallVec<T, N> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T: Copy + Default + Hash, const N: usize> Hash for SmallVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_testkit::prop::{ints, vecs, Config};
    use xupd_testkit::{prop_assert_eq, props};

    #[test]
    fn starts_inline_and_spills_past_capacity() {
        let mut v: SmallBuf = SmallBuf::new();
        for i in 0..SMALLBUF_INLINE as u8 {
            v.push(i);
            assert!(!v.spilled(), "len {} fits inline", v.len());
        }
        assert_eq!(v.len(), SMALLBUF_INLINE);
        v.push(99);
        assert!(v.spilled(), "push past N spills");
        assert_eq!(v.len(), SMALLBUF_INLINE + 1);
        assert_eq!(v[SMALLBUF_INLINE], 99);
    }

    #[test]
    fn boundary_lengths_23_24_25_match_vec_model() {
        // The satellite contract: push/extend/clone/Eq/Ord at the
        // inline/spill boundary agree with a plain Vec model.
        for n in [23usize, 24, 25] {
            let model: Vec<u8> = (0..n as u8).collect();
            // built by push
            let mut pushed = SmallBuf::new();
            for &b in &model {
                pushed.push(b);
            }
            assert_eq!(pushed.as_slice(), &model[..], "push n={n}");
            assert_eq!(pushed.spilled(), n > SMALLBUF_INLINE, "n={n}");
            // built by extend
            let mut extended = SmallBuf::new();
            extended.extend_from_slice(&model);
            assert_eq!(extended.as_slice(), &model[..], "extend n={n}");
            // built by from_slice / collect
            let collected: SmallBuf = model.iter().copied().collect();
            assert_eq!(SmallBuf::from_slice(&model), collected);
            // clone preserves contents and equality across representations
            let cloned = pushed.clone();
            assert_eq!(cloned, pushed);
            assert_eq!(cloned, extended);
            // Ord agrees with the slice order a Vec would give
            let mut bigger = pushed.clone();
            bigger.push(0);
            assert!(pushed < bigger, "prefix sorts first at n={n}");
        }
    }

    #[test]
    fn inline_and_spilled_values_compare_equal_by_contents() {
        // Same contents, different representations: a 10-byte value built
        // inline vs one that spilled and was truncated back.
        let inline = SmallBuf::from_slice(&[1, 2, 3]);
        let mut spilled = SmallBuf::from_slice(&[0u8; 30]);
        assert!(spilled.spilled());
        spilled.clear();
        spilled.extend_from_slice(&[1, 2, 3]);
        assert!(spilled.spilled(), "clear keeps the heap");
        assert_eq!(inline, spilled);
        assert_eq!(inline.cmp(&spilled), Ordering::Equal);
        let h = |v: &SmallBuf| {
            use std::hash::DefaultHasher;
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&inline), h(&spilled), "hash is contents-only");
    }

    #[test]
    fn pop_truncate_last_roundtrip() {
        let mut v = SmallBuf::from_slice(&[5, 6, 7]);
        assert_eq!(v.last(), Some(&7));
        *v.last_mut().unwrap() = 9;
        assert_eq!(v.pop(), Some(9));
        assert_eq!(v.pop(), Some(6));
        v.truncate(0);
        assert!(v.is_empty());
        assert_eq!(v.pop(), None);
        // spilled pop/truncate too
        let mut big = SmallBuf::from_slice(&[1u8; 30]);
        assert_eq!(big.pop(), Some(1));
        big.truncate(2);
        assert_eq!(big.as_slice(), &[1, 1]);
    }

    props! {
        config = Config::with_cases(200);

        /// Any operation sequence leaves SmallBuf identical to a Vec.
        fn smallbuf_matches_vec_model(ops in vecs(ints(0u32..600), 0, 64)) {
            let mut small = SmallBuf::new();
            let mut model: Vec<u8> = Vec::new();
            for op in ops {
                match op % 6 {
                    // weighted toward push so the boundary gets crossed
                    0..=2 => {
                        let b = (op % 251) as u8;
                        small.push(b);
                        model.push(b);
                    }
                    3 => {
                        let chunk = [(op % 7) as u8; 5];
                        small.extend_from_slice(&chunk);
                        model.extend_from_slice(&chunk);
                    }
                    4 => prop_assert_eq!(small.pop(), model.pop()),
                    _ => {
                        let keep = (op as usize / 6) % (model.len() + 1);
                        small.truncate(keep);
                        model.truncate(keep);
                    }
                }
                prop_assert_eq!(small.as_slice(), &model[..]);
                prop_assert_eq!(small.len(), model.len());
                prop_assert_eq!(small.last().copied(), model.last().copied());
            }
            let clone = small.clone();
            prop_assert_eq!(clone.as_slice(), &model[..]);
        }
    }
}
