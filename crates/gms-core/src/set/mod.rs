//! The set-algebra interface (`Set`) — the paper's key modularity
//! mechanism (Listing 1, §5.1).
//!
//! Graph mining algorithms in GMS are written against this trait and
//! are oblivious to the physical set layout. Swapping a sorted integer
//! array for a roaring bitmap (or a dense bitvector, or a hash set)
//! changes no algorithm code, which is exactly the experimentation the
//! paper's platform enables (modularity level 5+).
//!
//! The method surface mirrors Listing 1 of the paper:
//! `diff` / `intersect` / `union` each in *new-set*, `_count` and
//! `_inplace` variants, single-element `add` / `remove` / `contains`,
//! `cardinality`, iteration, and conversion to an integer array.

mod dense;
mod hashset;
pub mod roaring;
mod sorted;
mod sparse_bits;
pub mod word_ops;

pub use dense::DenseBitSet;
pub use hashset::HashVertexSet;
pub use roaring::RoaringSet;
pub use sorted::{
    diff_sorted_slices_into, for_each_common, intersect_count_sorted_slices,
    intersect_sorted_slices_into, SortedVecSet,
};
pub use sparse_bits::SparseBitSet;

use crate::types::NodeId;

/// An element of a [`Set`]. Vertex IDs by default (the paper notes
/// tuples for edges can also be used; edge sets in GMS-rs are built
/// from `NodeId` pairs packed by the caller).
pub type SetElement = NodeId;

/// The set-algebra interface of GMS (paper Listing 1).
///
/// Implementations must behave like a mathematical set of `u32`
/// elements: no duplicates, order-insensitive equality.
///
/// # Contract
/// * `iter` yields each element exactly once, in **ascending order**
///   (all provided implementations are ordered; algorithms such as the
///   merge intersection rely on this).
/// * `FromIterator`/`from_sorted` build a set from any element source.
/// * Binary operations never require `self` and `other` to share
///   capacity or universe bounds.
/// * The `_count` variants (`intersect_count` / `union_count` /
///   `diff_count`) must not allocate: every provided layout overrides
///   the materializing defaults with count-only paths (pinned by
///   `tests/count_paths_allocation_free.rs`), because the mining
///   kernels' hottest loops — BK pivot selection, triangle counting —
///   are pure counts.
///
/// The `'static` bound lets schedulers stash per-worker scratch sets
/// in type-erased thread-local storage; all set layouts own their
/// storage, so this costs nothing.
pub trait Set: Clone + PartialEq + std::fmt::Debug + Send + Sync + Sized + 'static {
    /// Creates an empty set.
    fn empty() -> Self;

    /// Creates an empty set tuned to hold elements `< universe_hint`.
    /// Implementations may ignore the hint.
    fn with_universe(universe_hint: usize) -> Self {
        let _ = universe_hint;
        Self::empty()
    }

    /// Builds a set from a strictly increasing slice of elements.
    fn from_sorted(elements: &[SetElement]) -> Self;

    /// Overwrites `self` with the given strictly increasing elements.
    /// Semantically `*self = Self::from_sorted(elements)`; layouts
    /// override it to reuse `self`'s internal buffers, which lets the
    /// mining kernels refill a recycled scratch set from a CSR
    /// neighborhood slice without allocating.
    fn assign_sorted(&mut self, elements: &[SetElement]) {
        *self = Self::from_sorted(elements);
    }

    /// Builds a set from arbitrary (unsorted, possibly duplicated) elements.
    fn from_unsorted(elements: &[SetElement]) -> Self {
        let mut sorted = elements.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted(&sorted)
    }

    /// Creates the set `{0, 1, ..., bound - 1}` (paper: `Set::Range`).
    fn range(bound: SetElement) -> Self {
        let elements: Vec<SetElement> = (0..bound).collect();
        Self::from_sorted(&elements)
    }

    /// Creates a single-element set.
    fn singleton(element: SetElement) -> Self {
        Self::from_sorted(&[element])
    }

    /// Number of elements (paper: `cardinality`).
    fn cardinality(&self) -> usize;

    /// `true` iff the set has no elements.
    #[inline]
    fn is_empty(&self) -> bool {
        self.cardinality() == 0
    }

    /// Membership test: `element ∈ self`.
    fn contains(&self, element: SetElement) -> bool;

    /// Inserts one element (`A = A ∪ {b}`).
    fn add(&mut self, element: SetElement);

    /// Removes one element (`A = A \ {b}`); no-op if absent.
    fn remove(&mut self, element: SetElement);

    /// Returns `A ∩ B` as a new set.
    fn intersect(&self, other: &Self) -> Self;

    /// Returns `|A ∩ B|` without materializing the intersection.
    fn intersect_count(&self, other: &Self) -> usize {
        self.intersect(other).cardinality()
    }

    /// Returns `|A ∩ B|` where `B` is a strictly increasing element
    /// slice (e.g. a CSR neighborhood), without materializing or
    /// converting anything. The default probes membership per
    /// element — already allocation-free for every layout; sorted
    /// arrays override it with a slice-to-slice merge.
    fn intersect_count_sorted(&self, sorted: &[SetElement]) -> usize {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        sorted.iter().filter(|&&x| self.contains(x)).count()
    }

    /// Updates `A = A ∩ B`.
    fn intersect_inplace(&mut self, other: &Self) {
        *self = self.intersect(other);
    }

    /// Returns `A ∪ B` as a new set.
    fn union(&self, other: &Self) -> Self;

    /// Returns `|A ∪ B|` without materializing the union.
    fn union_count(&self, other: &Self) -> usize {
        self.union(other).cardinality()
    }

    /// Updates `A = A ∪ B`.
    fn union_inplace(&mut self, other: &Self) {
        *self = self.union(other);
    }

    /// Returns `A \ B` as a new set.
    fn diff(&self, other: &Self) -> Self;

    /// Returns `|A \ B|` without materializing the difference.
    fn diff_count(&self, other: &Self) -> usize {
        self.diff(other).cardinality()
    }

    /// Updates `A = A \ B`.
    fn diff_inplace(&mut self, other: &Self) {
        *self = self.diff(other);
    }

    /// Iterates the elements in ascending order.
    fn iter(&self) -> impl Iterator<Item = SetElement> + '_;

    /// Converts the set to a sorted integer array (paper: `toArray`).
    fn to_vec(&self) -> Vec<SetElement> {
        self.iter().collect()
    }

    /// Heap bytes used by the set representation (for the memory
    /// consumption analyses of §8.9).
    fn heap_bytes(&self) -> usize;

    /// Smallest element, if any.
    fn min(&self) -> Option<SetElement> {
        self.iter().next()
    }

    /// `true` iff `self ⊆ other`.
    fn is_subset_of(&self, other: &Self) -> bool {
        self.intersect_count(other) == self.cardinality()
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! A reusable conformance suite run against every `Set`
    //! implementation; the same operations are mirrored on a
    //! `BTreeSet` model and the results compared.

    use super::*;
    use std::collections::BTreeSet;

    fn model_of<S: Set>(s: &S) -> BTreeSet<SetElement> {
        s.iter().collect()
    }

    pub(crate) fn run_all<S: Set>() {
        empty_and_singleton::<S>();
        add_remove_contains::<S>();
        binary_ops_match_model::<S>();
        count_variants_match::<S>();
        inplace_variants_match::<S>();
        assign_sorted_matches_from_sorted::<S>();
        range_and_iteration_sorted::<S>();
        equality_is_structural::<S>();
    }

    fn empty_and_singleton<S: Set>() {
        let e = S::empty();
        assert_eq!(e.cardinality(), 0);
        assert!(e.is_empty());
        assert!(!e.contains(0));
        let s = S::singleton(42);
        assert_eq!(s.cardinality(), 1);
        assert!(s.contains(42));
        assert!(!s.contains(41));
        assert_eq!(s.to_vec(), vec![42]);
    }

    fn add_remove_contains<S: Set>() {
        let mut s = S::empty();
        for x in [5u32, 1, 9, 5, 70_000, 3] {
            s.add(x);
        }
        assert_eq!(s.to_vec(), vec![1, 3, 5, 9, 70_000]);
        s.remove(5);
        s.remove(100); // absent: no-op
        assert_eq!(s.to_vec(), vec![1, 3, 9, 70_000]);
        assert!(s.contains(70_000));
        assert!(!s.contains(5));
    }

    fn sample_pairs() -> Vec<(Vec<u32>, Vec<u32>)> {
        vec![
            (vec![], vec![]),
            (vec![1, 2, 3], vec![]),
            (vec![], vec![4, 5]),
            (vec![1, 2, 3, 4], vec![3, 4, 5, 6]),
            (vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]),
            (vec![10, 20, 30], vec![10, 20, 30]),
            ((0..200).collect(), (100..300).collect()),
            (vec![1, 65_536, 131_072], vec![65_536, 200_000]),
            (
                (0..5000).map(|x| x * 3).collect(),
                (0..5000).map(|x| x * 2).collect(),
            ),
        ]
    }

    fn binary_ops_match_model<S: Set>() {
        for (a, b) in sample_pairs() {
            let sa = S::from_sorted(&a);
            let sb = S::from_sorted(&b);
            let ma: BTreeSet<u32> = a.iter().copied().collect();
            let mb: BTreeSet<u32> = b.iter().copied().collect();

            assert_eq!(
                model_of(&sa.intersect(&sb)),
                ma.intersection(&mb).copied().collect::<BTreeSet<_>>(),
                "intersect {a:?} {b:?}"
            );
            assert_eq!(
                model_of(&sa.union(&sb)),
                ma.union(&mb).copied().collect::<BTreeSet<_>>(),
                "union {a:?} {b:?}"
            );
            assert_eq!(
                model_of(&sa.diff(&sb)),
                ma.difference(&mb).copied().collect::<BTreeSet<_>>(),
                "diff {a:?} {b:?}"
            );
        }
    }

    fn count_variants_match<S: Set>() {
        for (a, b) in sample_pairs() {
            let sa = S::from_sorted(&a);
            let sb = S::from_sorted(&b);
            assert_eq!(sa.intersect_count(&sb), sa.intersect(&sb).cardinality());
            assert_eq!(sa.union_count(&sb), sa.union(&sb).cardinality());
            assert_eq!(sa.diff_count(&sb), sa.diff(&sb).cardinality());
        }
    }

    fn inplace_variants_match<S: Set>() {
        for (a, b) in sample_pairs() {
            let sa = S::from_sorted(&a);
            let sb = S::from_sorted(&b);

            let mut t = sa.clone();
            t.intersect_inplace(&sb);
            assert_eq!(t, sa.intersect(&sb));

            let mut t = sa.clone();
            t.union_inplace(&sb);
            assert_eq!(t, sa.union(&sb));

            let mut t = sa.clone();
            t.diff_inplace(&sb);
            assert_eq!(t, sa.diff(&sb));
        }
    }

    fn assign_sorted_matches_from_sorted<S: Set>() {
        // Reassigning a dirty set must behave exactly like building a
        // fresh one — including shrinking from larger prior contents.
        let mut recycled = S::from_sorted(&(0..1000).collect::<Vec<_>>());
        for (a, _) in sample_pairs() {
            recycled.assign_sorted(&a);
            assert_eq!(recycled, S::from_sorted(&a), "assign_sorted {a:?}");
            assert_eq!(recycled.cardinality(), a.len());
        }
    }

    fn range_and_iteration_sorted<S: Set>() {
        let r = S::range(100);
        assert_eq!(r.cardinality(), 100);
        let v = r.to_vec();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.min(), Some(0));
        assert_eq!(S::empty().min(), None);
    }

    fn equality_is_structural<S: Set>() {
        let a = S::from_unsorted(&[3, 1, 2, 3, 1]);
        let b = S::from_sorted(&[1, 2, 3]);
        assert_eq!(a, b);
        let c = S::from_sorted(&[1, 2, 4]);
        assert_ne!(a, c);
        assert!(b.is_subset_of(&S::range(10)));
        assert!(!S::range(10).is_subset_of(&b));
    }
}
