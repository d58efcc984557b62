//! Offline stand-in for `rayon`, backed by a real work-stealing
//! scheduler.
//!
//! The build environment cannot reach crates.io, so this workspace
//! vendors a data-parallelism layer with rayon's surface syntax:
//! [`join`], `par_iter` / `into_par_iter` / `par_chunks`, the usual
//! combinators, `ThreadPoolBuilder` + `ThreadPool::install`,
//! `current_num_threads`, and [`current_thread_has_pending_tasks`]
//! (rayon-core's hunger probe: `Some(false)` on a worker whose
//! published jobs have all been taken, which lets a kernel split work
//! only when another worker is idle).
//!
//! Execution works like real rayon, not like the eager fixed-chunk
//! fan-out this shim used before PR 2: there is a persistent pool of
//! workers per width (lazily spawned, reused across calls), each with
//! its own Chase–Lev-style deque (owner LIFO, thieves FIFO; see
//! the `pool` module docs). `join(a, b)` publishes `b` for stealing
//! while `a` runs, and the parallel iterator combinators submit
//! recursively *splittable range tasks* rather than pre-cut chunks,
//! so skewed per-item costs rebalance dynamically — the execution
//! substrate the GMS mining kernels (irregular subtree work) need.
//!
//! # Divergences from real rayon
//!
//! * **Materialized sources.** `into_par_iter()` collects the items
//!   into a vector before fanning out; `filter` / `filter_map` /
//!   `enumerate` and the `par_sort_*` family run sequentially on that
//!   vector. The expensive closures in this workspace always sit in
//!   `map` / `for_each` / `sum` / `reduce` / `flat_map` / `partition`,
//!   which all execute as splittable parallel tasks.
//! * **Fixed-capacity deques.** Worker deques are lock-free
//!   Chase–Lev buffers (owner pushes/pops with plain stores and one
//!   fence, thieves CAS — see the `pool` module docs) with a fixed
//!   capacity; a `join` spine deeper than the capacity degrades to
//!   inline execution instead of growing the buffer.
//! * **Pools share a registry per width.** `ThreadPoolBuilder::build`
//!   returns a view onto a persistent per-width worker set instead of
//!   spawning fresh threads, so scaling sweeps do not accumulate
//!   threads. [`ThreadPool::steal_count`] (and the companion
//!   [`ThreadPool::park_count`] / [`ThreadPool::notify_count`]
//!   scheduler-overhead counters) consequently report cumulative
//!   counters for that width; measure deltas around a workload.
//! * **`install` runs the closure on the calling thread** and only
//!   scopes the width that parallel operations dispatch with (real
//!   rayon migrates the closure onto a worker). `join` called inside
//!   a worker always schedules on that worker's own registry.
//! * **`RAYON_NUM_THREADS`** is honored for the default width, and a
//!   requested width may exceed the hardware width (useful for
//!   exercising work-stealing paths on small CI machines).
//!
//! Replacing this shim with real rayon remains a manifest-only change.

use std::cell::Cell;
use std::fmt;

pub mod iter;
mod pool;

pub use pool::{current_thread_has_pending_tasks, join};

/// The rayon-style prelude: import the traits that put `par_iter`
/// and friends in scope.
pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

thread_local! {
    static POOL_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of threads parallel operations on this thread will use:
/// the installed pool's size, or `RAYON_NUM_THREADS` / hardware
/// parallelism outside a pool.
pub fn current_num_threads() -> usize {
    POOL_WIDTH
        .with(Cell::get)
        .unwrap_or_else(pool::default_width)
}

/// Propagates a pool width into a worker thread (thread-locals are
/// not inherited), so parallel iterators nested inside a worker's
/// closure still respect the pool.
pub(crate) fn set_inherited_width(width: usize) {
    POOL_WIDTH.with(|cell| cell.set(Some(width)));
}

/// Builder for a fixed-width [`ThreadPool`].
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (`RAYON_NUM_THREADS` or
    /// hardware) width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool width. Zero is rejected at `build` time.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Builds the pool (a view onto the persistent worker set for
    /// this width; workers are spawned lazily on first parallel use).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = self.num_threads.unwrap_or_else(pool::default_width);
        if width == 0 {
            return Err(ThreadPoolBuildError("pool width must be at least 1".into()));
        }
        Ok(ThreadPool { width })
    }
}

/// Error building a [`ThreadPool`].
#[derive(Debug)]
pub struct ThreadPoolBuildError(String);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to build thread pool: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A fixed-width scope for parallel operations. `install` bounds the
/// width that parallel iterators and `join` invoked inside it will
/// use.
#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's width governing parallel operations
    /// (and reported by [`current_num_threads`]) on this thread.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_WIDTH.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_WIDTH.with(|c| c.replace(Some(self.width))));
        op()
    }

    /// The pool's width.
    pub fn current_num_threads(&self) -> usize {
        self.width
    }

    /// Cumulative number of cross-worker steals performed by the
    /// persistent worker set backing this pool's width. Registries
    /// are shared per width, so this counts all activity at this
    /// width since process start; measure deltas around a workload.
    pub fn steal_count(&self) -> u64 {
        if self.width <= 1 {
            return 0;
        }
        pool::registry_for(self.width).steal_count()
    }

    /// Cumulative number of condvar parks (timed waits actually
    /// entered) by this width's workers and join waiters. High park
    /// traffic on a busy workload means workers are starving; see
    /// the `pool` module docs for the sleep protocol.
    pub fn park_count(&self) -> u64 {
        if self.width <= 1 {
            return 0;
        }
        pool::registry_for(self.width).park_count()
    }

    /// Cumulative number of condvar notifications issued by
    /// publishers and latch sets at this width. Publishes that found
    /// every worker awake skip the condvar and are not counted, so
    /// this directly measures park/notify churn.
    pub fn notify_count(&self) -> u64 {
        if self.width <= 1 {
            return 0;
        }
        pool::registry_for(self.width).notify_count()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn install_scopes_the_width() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside, "width restored");
    }

    #[test]
    fn zero_width_pool_is_rejected() {
        assert!(ThreadPoolBuilder::new().num_threads(0).build().is_err());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let squares: Vec<u64> = (0..10_000u64).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares.len(), 10_000);
        assert!(squares
            .iter()
            .enumerate()
            .all(|(i, &s)| s == (i as u64) * (i as u64)));
    }

    #[test]
    fn for_each_visits_everything_once() {
        let hits = AtomicUsize::new(0);
        (0..5_000u32).into_par_iter().for_each(|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn workers_inherit_the_installed_width() {
        // Code running inside map workers (including nested parallel
        // iterators) must see the installed pool width, not the
        // default width — the old shim's inheritance semantics.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let widths: Vec<usize> = pool.install(|| {
            (0..2_000u32)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(
            widths.iter().all(|&w| w == 2),
            "installed width not visible in workers"
        );
    }

    #[test]
    fn flat_map_matches_serial_flat_map() {
        let par: Vec<u32> = (0..3_000u32)
            .into_par_iter()
            .flat_map(|x| (0..x % 4).map(move |i| x + i))
            .collect();
        let ser: Vec<u32> = (0..3_000u32)
            .flat_map(|x| (0..x % 4).map(move |i| x + i))
            .collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn slice_combinators_agree_with_serial() {
        let data: Vec<u32> = (0..4_000).collect();
        let par_sum: u32 = data.par_iter().map(|&x| x % 13).sum();
        let ser_sum: u32 = data.iter().map(|&x| x % 13).sum();
        assert_eq!(par_sum, ser_sum);
        let chunk_max: Vec<u32> = data
            .par_chunks(64)
            .map(|c| *c.iter().max().unwrap())
            .collect();
        assert_eq!(chunk_max.len(), data.len().div_ceil(64));
        let (even, odd): (Vec<u32>, Vec<u32>) = data.par_iter().partition(|&&x| x % 2 == 0);
        assert_eq!(even.len() + odd.len(), data.len());
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_recursion_depth_stress() {
        // A full binary join tree 14 levels deep (16384 leaves), run
        // inside a 4-wide pool: exercises deep nesting of published
        // stack jobs, reclaim-vs-steal races and the help-while-
        // waiting loop.
        fn sum_range(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 1 {
                return lo;
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(|| sum_range(lo, mid), || sum_range(mid, hi));
            a + b
        }
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let n = 1u64 << 14;
        let total = pool.install(|| sum_range(0, n));
        assert_eq!(total, n * (n - 1) / 2);
    }

    #[test]
    fn join_steals_with_two_or_more_workers() {
        // An imbalanced join (the left branch sleeps while further
        // work sits published) must show cross-worker steals on a
        // pool with >= 2 workers. Width 3 is reserved for this test
        // so concurrent tests at other widths cannot mask the delta.
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let before = pool.steal_count();
        let mut observed = 0;
        for _ in 0..50 {
            pool.install(|| {
                join(
                    || std::thread::sleep(Duration::from_millis(5)),
                    || std::hint::black_box((0..50_000u64).sum::<u64>()),
                )
            });
            observed = pool.steal_count() - before;
            if observed > 0 {
                break;
            }
        }
        assert!(
            observed > 0,
            "no steals observed across 50 imbalanced joins"
        );
    }

    #[test]
    fn overhead_counters_are_observable_and_monotone() {
        // A width-1 pool never publishes, steals, parks or notifies.
        let solo = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(solo.steal_count(), 0);
        assert_eq!(solo.park_count(), 0);
        assert_eq!(solo.notify_count(), 0);

        // Wider pools expose cumulative (monotone) scheduler-overhead
        // counters; exact values depend on timing, so only
        // monotonicity across a workload is pinned.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let before = (pool.steal_count(), pool.park_count(), pool.notify_count());
        let sum: u64 = pool.install(|| {
            (0..10_000u64)
                .into_par_iter()
                .map(|x| x.wrapping_mul(x) % 1_000)
                .sum()
        });
        assert_eq!(sum, (0..10_000u64).map(|x| x.wrapping_mul(x) % 1_000).sum());
        assert!(pool.steal_count() >= before.0);
        assert!(pool.park_count() >= before.1);
        assert!(pool.notify_count() >= before.2);
    }

    #[test]
    fn join_propagates_panics() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let result = std::panic::catch_unwind(|| {
            pool.install(|| {
                join(
                    || std::thread::sleep(Duration::from_millis(1)),
                    || panic!("boom from b"),
                )
            })
        });
        assert!(result.is_err(), "panic in stolen-side closure must surface");
    }

    #[test]
    fn single_thread_pool_is_deterministic() {
        // With width 1 nothing is published for stealing: join runs
        // (a, then b) inline and for_each visits items in order.
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let log = Mutex::new(Vec::new());
        pool.install(|| {
            join(
                || log.lock().unwrap().push("a"),
                || log.lock().unwrap().push("b"),
            );
            (0..100u32).into_par_iter().for_each(|i| {
                log.lock()
                    .unwrap()
                    .push(if i % 2 == 0 { "even" } else { "odd" })
            });
        });
        let log = log.into_inner().unwrap();
        assert_eq!(&log[..2], &["a", "b"]);
        assert_eq!(log.len(), 102);
        assert!(log[2..].chunks(2).all(|w| w == ["even", "odd"]));
    }

    #[test]
    fn pending_tasks_probe_is_none_off_pool_and_false_on_an_idle_worker() {
        assert_eq!(current_thread_has_pending_tasks(), None);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        // `install` runs the closure on the caller, still off-pool.
        assert_eq!(pool.install(current_thread_has_pending_tasks), None);
        // A join's second arm runs either on its publisher, after
        // taking itself back, or on a thief, which steals only with
        // its own deque empty: either way nothing is pending.
        let (_, inside) = pool.install(|| join(|| (), current_thread_has_pending_tasks));
        assert_eq!(inside, Some(false));
    }

    #[test]
    fn reduce_matches_sequential_fold() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let par: u64 = pool.install(|| {
            (0..20_000u64)
                .into_par_iter()
                .map(|x| x % 97)
                .reduce(|| 0, |a, b| a + b)
        });
        let seq: u64 = (0..20_000u64).map(|x| x % 97).sum();
        assert_eq!(par, seq);
    }
}
