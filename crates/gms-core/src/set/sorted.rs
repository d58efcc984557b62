//! `SortedVecSet`: a set stored as a sorted, deduplicated `Vec<u32>`.
//!
//! This mirrors the paper's `SortedSet` and the CSR convention that a
//! vertex neighborhood is a sorted contiguous integer array. Binary
//! operations use the *merge* scheme when the operands have similar
//! sizes and switch to *galloping* (exponential + binary search) when
//! one side is much smaller — the two intersection algorithms the
//! paper describes in §5.2 and §6.5.

use super::{Set, SetElement};
use serde::{Deserialize, Serialize};

/// Size ratio beyond which intersection switches from merging to
/// galloping. With |A| ≪ |B|, galloping costs O(|A| log |B|) versus
/// O(|A| + |B|) for the merge.
const GALLOP_RATIO: usize = 16;

/// Elements skipped at a time by the block-skipping merge: when the
/// current block of one side ends below the other side's cursor, the
/// whole block is discarded with a single comparison. Disjoint-ish
/// regions of the operands cost |len| / BLOCK comparisons instead of
/// |len|.
const MERGE_BLOCK: usize = 8;

/// `|a ∩ b|` for two strictly increasing slices, without
/// materializing anything: galloping when one side is much smaller
/// (size ratio ≥ `GALLOP_RATIO`), block-skipping merge otherwise.
/// This is
/// the slice-level kernel behind [`SortedVecSet::intersect_count`]
/// and the CSR-neighborhood counting in the k-clique kernels.
pub fn intersect_count_sorted_slices(a: &[SetElement], b: &[SetElement]) -> usize {
    let mut count = 0;
    for_each_common(a, b, |_| count += 1);
    count
}

/// Appends `a ∩ b` to `out` in ascending order: the materializing
/// twin of [`intersect_count_sorted_slices`], under the same
/// galloping / block-skipping merge dispatch. Allocation-free once
/// `out` has the capacity, which is how the subgraph-isomorphism
/// search builds its candidate sets in reused buffers.
pub fn intersect_sorted_slices_into(a: &[SetElement], b: &[SetElement], out: &mut Vec<SetElement>) {
    for_each_common(a, b, |x| out.push(x));
}

/// Appends `a \ b` to `out` in ascending order, under the same
/// dispatch: every element of `a` is galloped through `b` when `b` is
/// at least `GALLOP_RATIO` times larger, and a block-skipping merge
/// walks both otherwise.
pub fn diff_sorted_slices_into(a: &[SetElement], b: &[SetElement], out: &mut Vec<SetElement>) {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let mut j = 0;
    if gallops(a.len(), b.len()) {
        for &x in a {
            j = gallop(b, j, x);
            if j == b.len() || b[j] != x {
                out.push(x);
            }
        }
        return;
    }
    for &x in a {
        while j + MERGE_BLOCK <= b.len() && b[j + MERGE_BLOCK - 1] < x {
            j += MERGE_BLOCK;
        }
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j == b.len() || b[j] != x {
            out.push(x);
        }
    }
}

/// Whether probing every element of a `small`-element side into a
/// `big`-element one by galloping beats merging the two.
#[inline]
fn gallops(small: usize, big: usize) -> bool {
    small > 0 && big / small >= GALLOP_RATIO
}

/// Galloping (exponential + binary) search for `x` in `haystack[lo..]`,
/// returning the insertion point relative to the whole slice.
#[inline]
fn gallop(haystack: &[SetElement], lo: usize, x: SetElement) -> usize {
    let mut step = 1;
    let mut prev = lo;
    let mut hi = lo;
    while hi < haystack.len() && haystack[hi] < x {
        prev = hi + 1;
        hi += step;
        step <<= 1;
    }
    // The insertion point now lies in [prev, min(hi, len)].
    let upper = hi.min(haystack.len());
    prev + haystack[prev..upper].partition_point(|&y| y < x)
}

/// Calls `common` on every element of `a ∩ b`, in ascending order,
/// materializing nothing: the one dispatch behind the count, the
/// materializing twin and any other fold over two neighbourhoods.
#[inline]
pub fn for_each_common(a: &[SetElement], b: &[SetElement], common: impl FnMut(SetElement)) {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]));
    let (small, big) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if gallops(small.len(), big.len()) {
        gallop_common(small, big, common);
    } else {
        merge_common(a, b, common);
    }
}

fn gallop_common(small: &[SetElement], big: &[SetElement], mut common: impl FnMut(SetElement)) {
    let mut from = 0;
    for &x in small {
        let pos = gallop(big, from, x);
        if pos < big.len() && big[pos] == x {
            common(x);
            from = pos + 1;
        } else {
            from = pos;
        }
        if from >= big.len() {
            break;
        }
    }
}

fn merge_common(a: &[SetElement], b: &[SetElement], mut common: impl FnMut(SetElement)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        // Block skip: discard MERGE_BLOCK elements per comparison
        // while one side's whole next block sits below the other's
        // cursor (cheap for locally disjoint regions, free for
        // overlapping ones).
        while i + MERGE_BLOCK <= a.len() && a[i + MERGE_BLOCK - 1] < b[j] {
            i += MERGE_BLOCK;
        }
        if i >= a.len() {
            break;
        }
        while j + MERGE_BLOCK <= b.len() && b[j + MERGE_BLOCK - 1] < a[i] {
            j += MERGE_BLOCK;
        }
        if j >= b.len() {
            break;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// A set of vertex IDs backed by a sorted vector.
#[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortedVecSet {
    elements: Vec<SetElement>,
}

impl Clone for SortedVecSet {
    fn clone(&self) -> Self {
        Self {
            elements: self.elements.clone(),
        }
    }

    /// Overwrites in place, reusing the existing element buffer (see
    /// `DenseBitSet::clone_from`; same scratch-recycling contract).
    fn clone_from(&mut self, source: &Self) {
        self.elements.clone_from(&source.elements);
    }
}

impl SortedVecSet {
    /// Borrows the underlying sorted slice.
    #[inline]
    pub fn as_slice(&self) -> &[SetElement] {
        &self.elements
    }
}

impl Set for SortedVecSet {
    fn empty() -> Self {
        Self {
            elements: Vec::new(),
        }
    }

    fn with_universe(universe_hint: usize) -> Self {
        // Neighborhood-sized sets are usually far smaller than the
        // universe; reserve modestly.
        Self {
            elements: Vec::with_capacity(universe_hint.min(64)),
        }
    }

    fn from_sorted(elements: &[SetElement]) -> Self {
        debug_assert!(elements.windows(2).all(|w| w[0] < w[1]));
        Self {
            elements: elements.to_vec(),
        }
    }

    fn assign_sorted(&mut self, elements: &[SetElement]) {
        debug_assert!(elements.windows(2).all(|w| w[0] < w[1]));
        self.elements.clear();
        self.elements.extend_from_slice(elements);
    }

    #[inline]
    fn cardinality(&self) -> usize {
        self.elements.len()
    }

    #[inline]
    fn contains(&self, element: SetElement) -> bool {
        self.elements.binary_search(&element).is_ok()
    }

    fn add(&mut self, element: SetElement) {
        // Fast path: appending in ascending order is O(1).
        match self.elements.last() {
            Some(&last) if last < element => self.elements.push(element),
            Some(&last) if last == element => {}
            _ => {
                if let Err(pos) = self.elements.binary_search(&element) {
                    self.elements.insert(pos, element);
                }
            }
        }
    }

    fn remove(&mut self, element: SetElement) {
        if let Ok(pos) = self.elements.binary_search(&element) {
            self.elements.remove(pos);
        }
    }

    fn intersect(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.elements.len().min(other.elements.len()));
        intersect_sorted_slices_into(&self.elements, &other.elements, &mut out);
        Self { elements: out }
    }

    fn intersect_count(&self, other: &Self) -> usize {
        intersect_count_sorted_slices(&self.elements, &other.elements)
    }

    fn intersect_count_sorted(&self, sorted: &[SetElement]) -> usize {
        intersect_count_sorted_slices(&self.elements, sorted)
    }

    fn intersect_inplace(&mut self, other: &Self) {
        // Merge in place: compact survivors toward the front.
        let b = &other.elements;
        let mut write = 0;
        let mut j = 0;
        for read in 0..self.elements.len() {
            let x = self.elements[read];
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j < b.len() && b[j] == x {
                self.elements[write] = x;
                write += 1;
            }
        }
        self.elements.truncate(write);
    }

    fn union(&self, other: &Self) -> Self {
        let a = &self.elements;
        let b = &other.elements;
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Self { elements: out }
    }

    fn union_count(&self, other: &Self) -> usize {
        self.elements.len() + other.elements.len() - self.intersect_count(other)
    }

    fn diff(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.elements.len());
        diff_sorted_slices_into(&self.elements, &other.elements, &mut out);
        Self { elements: out }
    }

    fn diff_count(&self, other: &Self) -> usize {
        self.elements.len() - self.intersect_count(other)
    }

    fn diff_inplace(&mut self, other: &Self) {
        let b = &other.elements;
        let mut write = 0;
        let mut j = 0;
        for read in 0..self.elements.len() {
            let x = self.elements[read];
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j >= b.len() || b[j] != x {
                self.elements[write] = x;
                write += 1;
            }
        }
        self.elements.truncate(write);
    }

    fn iter(&self) -> impl Iterator<Item = SetElement> + '_ {
        self.elements.iter().copied()
    }

    fn to_vec(&self) -> Vec<SetElement> {
        self.elements.clone()
    }

    fn heap_bytes(&self) -> usize {
        self.elements.capacity() * std::mem::size_of::<SetElement>()
    }

    fn min(&self) -> Option<SetElement> {
        self.elements.first().copied()
    }
}

impl FromIterator<SetElement> for SortedVecSet {
    fn from_iter<I: IntoIterator<Item = SetElement>>(iter: I) -> Self {
        let mut elements: Vec<SetElement> = iter.into_iter().collect();
        elements.sort_unstable();
        elements.dedup();
        Self { elements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::conformance;

    #[test]
    fn conformance_suite() {
        conformance::run_all::<SortedVecSet>();
    }

    #[test]
    fn galloping_kicks_in_for_skewed_sizes() {
        let small = SortedVecSet::from_sorted(&[5, 500, 50_000]);
        let big: SortedVecSet = (0..100_000).collect();
        assert_eq!(small.intersect(&big).to_vec(), vec![5, 500, 50_000]);
        assert_eq!(small.intersect_count(&big), 3);
        // And symmetric.
        assert_eq!(big.intersect_count(&small), 3);
    }

    #[test]
    fn inplace_diff_compacts() {
        let mut a: SortedVecSet = (0..100).collect();
        let evens: SortedVecSet = (0..100).filter(|x| x % 2 == 0).collect();
        a.diff_inplace(&evens);
        assert_eq!(a.cardinality(), 50);
        assert!(a.iter().all(|x| x % 2 == 1));
    }

    #[test]
    fn add_is_ascending_fast_path_safe() {
        let mut s = SortedVecSet::empty();
        s.add(10);
        s.add(20);
        s.add(20);
        s.add(15);
        s.add(1);
        assert_eq!(s.to_vec(), vec![1, 10, 15, 20]);
    }

    #[test]
    fn union_count_via_inclusion_exclusion() {
        let a = SortedVecSet::from_sorted(&[1, 2, 3]);
        let b = SortedVecSet::from_sorted(&[3, 4]);
        assert_eq!(a.union_count(&b), 4);
    }

    #[test]
    fn slice_count_matches_naive_across_shapes() {
        fn naive(a: &[SetElement], b: &[SetElement]) -> usize {
            a.iter().filter(|x| b.contains(x)).count()
        }
        let shapes: Vec<(Vec<SetElement>, Vec<SetElement>)> = vec![
            (vec![], vec![]),
            (vec![], (0..100).collect()),
            ((0..100).collect(), (100..200).collect()), // disjoint
            // One side exactly MERGE_BLOCK long and entirely below the
            // other: the block skip must not run the cursor past `len`.
            ((0..8).collect(), vec![100]),
            ((0..100).collect(), (0..100).collect()), // identical
            // Interleaved runs longer than MERGE_BLOCK so block
            // skipping actually fires on both sides.
            (
                (0..200).collect(),
                (0..400).filter(|x| x % 97 < 3).collect(),
            ),
            (
                (0..1000).step_by(3).collect(),
                (0..1000).step_by(7).collect(),
            ),
            // Skewed sizes to drive the galloping path.
            (vec![5, 500, 50_000], (0..100_000).collect()),
        ];
        for (a, b) in shapes {
            let expected = naive(&a, &b);
            assert_eq!(intersect_count_sorted_slices(&a, &b), expected);
            assert_eq!(intersect_count_sorted_slices(&b, &a), expected);
            let sa = SortedVecSet::from_sorted(&a);
            assert_eq!(sa.intersect_count_sorted(&b), expected);
            // The materializing twins, both ways round, appending
            // behind what `out` already holds.
            for (x, y) in [(&a, &b), (&b, &a)] {
                let mut out = vec![u32::MAX];
                intersect_sorted_slices_into(x, y, &mut out);
                let common: Vec<_> = x.iter().copied().filter(|e| y.contains(e)).collect();
                assert_eq!(out[1..], common[..]);
                out.truncate(1);
                diff_sorted_slices_into(x, y, &mut out);
                let only: Vec<_> = x.iter().copied().filter(|e| !y.contains(e)).collect();
                assert_eq!(out[1..], only[..]);
            }
        }
    }
}
