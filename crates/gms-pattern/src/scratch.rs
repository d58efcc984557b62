//! Per-worker set buffers for the parallel mining kernels: a
//! [`SetPool`] lives in [`gms_core::split::with_worker_scratch`]'s
//! worker-local storage, so the capacity one subtree task grew is
//! reused by the next task on the same worker instead of being
//! re-grown from empty (an allocation burst on every stolen subtree,
//! once measurable as a slowdown at 2–4 threads).

use gms_core::Set;

/// Free list of `Set` buffers reused across a sequential recursion:
/// child sets are written into recycled buffers via `clone_from` +
/// `*_inplace` instead of freshly allocated per recursive call. Lives
/// in worker-local storage (see
/// [`with_worker_scratch`](gms_core::split::with_worker_scratch)) so the
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
    use gms_core::split::with_worker_scratch;
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
