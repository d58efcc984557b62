//! Per-worker scratch storage for the parallel mining kernels.
//!
//! Tasks produced by `rayon::join` and `par_iter` — root ranges and
//! subtrees a kernel hands to an idle worker — run to completion on a
//! single worker, so scratch buffers only need to be per-*worker*, not
//! per-*task*. Before this module each task started with empty buffers
//! and re-grew them from scratch, which put an allocation burst on
//! every stolen subtree — measurable as the scheduler-adjacent
//! slowdown at 2–4 threads. Here each OS thread keeps one type-erased
//! pool keyed by `TypeId`; a task borrows the pool for its set type,
//! and whatever buffer capacity the previous task on this worker grew
//! is reused.
//!
//! The pool entry is *taken out* of the thread-local for the duration
//! of the closure (and restored afterwards), so a re-entrant borrow of
//! the same type — e.g. a nested task executed inline while helping a
//! `join` — degrades gracefully to a fresh pool instead of aborting.

use gms_core::Set;
use std::any::{Any, TypeId};
use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Vec<(TypeId, Box<dyn Any>)>> = const { RefCell::new(Vec::new()) };
}

/// Borrows this worker's scratch value of type `T`, creating it on
/// first use. The value persists on the thread across calls, so any
/// capacity it accumulates is reused by later tasks on this worker.
pub fn with_worker_scratch<T: Default + 'static, R>(f: impl FnOnce(&mut T) -> R) -> R {
    let key = TypeId::of::<T>();
    let mut value: Box<T> = POOL
        .with(|pool| {
            let mut pool = pool.borrow_mut();
            pool.iter()
                .position(|(k, _)| *k == key)
                .map(|i| pool.swap_remove(i).1)
        })
        .and_then(|boxed| boxed.downcast().ok())
        .unwrap_or_default();
    let result = f(&mut value);
    POOL.with(|pool| pool.borrow_mut().push((key, value)));
    result
}

/// Checks a `T` out of this worker's free list of `T`s for the duration
/// of `f`. Unlike [`with_worker_scratch`], the worker's slot is not held
/// while `f` runs: a task that `f` waits on in a `join` may run on this
/// worker and check out a `T` of its own, and the free list grows to
/// the deepest such nesting once instead of handing every nested task
/// a fresh value.
pub(crate) fn with_worker_checkout<T: Default + 'static, R>(f: impl FnOnce(&mut T) -> R) -> R {
    let mut value = with_worker_scratch(|free: &mut Vec<T>| free.pop()).unwrap_or_default();
    let result = f(&mut value);
    with_worker_scratch(|free: &mut Vec<T>| free.push(value));
    result
}

/// Free list of `Set` buffers reused across a sequential recursion:
/// child sets are written into recycled buffers via `clone_from` +
/// `*_inplace` instead of freshly allocated per recursive call. Lives
/// in worker-local storage (see [`with_worker_scratch`]) so the
/// capacity survives from one subtree task to the next.
pub struct SetPool<S: Set> {
    free: Vec<S>,
}

impl<S: Set> Default for SetPool<S> {
    fn default() -> Self {
        SetPool { free: Vec::new() }
    }
}

impl<S: Set> SetPool<S> {
    /// Pops a recycled buffer, or creates an empty set.
    pub fn take(&mut self) -> S {
        self.free.pop().unwrap_or_else(S::empty)
    }

    /// Returns a buffer to the free list for reuse.
    pub fn put(&mut self, set: S) {
        self.free.push(set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_core::{DenseBitSet, Set, SortedVecSet};

    #[test]
    fn scratch_persists_across_calls_on_one_thread() {
        with_worker_scratch::<SetPool<SortedVecSet>, _>(|pool| {
            let mut s = pool.take();
            for i in 0..1000 {
                s.add(i);
            }
            pool.put(s);
        });
        with_worker_scratch::<SetPool<SortedVecSet>, _>(|pool| {
            let s = pool.take();
            assert!(
                s.heap_bytes() >= 1000 * std::mem::size_of::<u32>(),
                "recycled buffer kept its capacity"
            );
            pool.put(s);
        });
    }

    #[test]
    fn distinct_types_get_distinct_pools() {
        with_worker_scratch::<SetPool<DenseBitSet>, _>(|pool| {
            let mut s = pool.take();
            s.add(5000);
            pool.put(s);
        });
        // Reentrant borrow of a different type works, and a reentrant
        // borrow of the SAME type degrades to a fresh pool.
        with_worker_scratch::<SetPool<DenseBitSet>, _>(|outer| {
            let outer_set = outer.take();
            with_worker_scratch::<SetPool<SortedVecSet>, _>(|inner| {
                let s = inner.take();
                assert_eq!(s.cardinality(), 0);
                inner.put(s);
            });
            with_worker_scratch::<SetPool<DenseBitSet>, _>(|nested| {
                let s = nested.take();
                assert_eq!(s.cardinality(), 0);
                nested.put(s);
            });
            outer.put(outer_set);
        });
    }
}
