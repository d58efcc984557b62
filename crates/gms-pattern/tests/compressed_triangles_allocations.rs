//! Pins the allocation profile of the triangle kernel on both
//! representations, and of the k-clique kernel on both drivers.
//!
//! `triangle_count_compressed` decodes the graph once into a transient
//! forward DAG, `triangle_count_rank_merge` filters the raw arrays into
//! one: a fixed handful of whole-graph arrays (degrees, targets,
//! forward counts) and one task list per parallel dispatch, sized by
//! the pool width. The count then marks forward neighborhoods in a
//! per-worker bitmap that outlives the call. Nothing is allocated per
//! vertex, per neighborhood or per arc — so the *number* of
//! allocations must be the same on a 2 k-vertex and a 20 k-vertex
//! graph at a fixed pool width. A regression that materializes a `Vec`
//! per neighborhood (or per index block, or per counting chunk) would
//! still count correctly; only an allocation counter can catch it.
//!
//! Everything runs in a single `#[test]` because the allocator is
//! process-global: concurrent tests would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gms_graph::CompressedCsr;
use gms_order::OrderingKind;
use gms_pattern::{
    k_clique_count, triangle_count_compressed, triangle_count_rank_merge, KcConfig, KcParallel,
};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result and how many allocations it made.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn allocation_count_does_not_grow_with_the_graph() {
    // 2 k vertices (one skewed, one uniform) against 20 k; built and
    // compressed BEFORE measurement.
    let graphs: Vec<_> = [
        gms_gen::kronecker_default(11, 8, 7),
        gms_gen::gnp(2_000, 0.008, 7),
        gms_gen::gnp(20_000, 0.0008, 7),
    ]
    .into_iter()
    .map(|raw| {
        let compressed = CompressedCsr::from_csr(&raw);
        (raw, compressed)
    })
    .collect();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();

    // Warm-up: worker threads, their stacks and scratch exist, and the
    // workers' bitmaps have grown to the largest graph.
    for (raw, compressed) in &graphs {
        let expected = pool.install(|| triangle_count_rank_merge(raw));
        assert_eq!(
            pool.install(|| triangle_count_compressed(compressed)),
            expected
        );
    }

    for resident in ["raw", "gap"] {
        let counts: Vec<usize> = graphs
            .iter()
            .map(|(raw, compressed)| {
                let count = || match resident {
                    "raw" => triangle_count_rank_merge(raw),
                    _ => triangle_count_compressed(compressed),
                };
                allocations_during(|| pool.install(count)).1
            })
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{resident}: allocation count depends on the graph: {counts:?} — the \
             kernel must allocate whole-graph arrays and per-dispatch task lists only"
        );
        assert!(
            counts[0] < 32,
            "{resident}: {} allocations for one triangle count",
            counts[0]
        );
    }

    // k-cliques: the orientation's whole-graph arrays, one run list,
    // and per-worker universes (an `n`-entry marker array and rows)
    // that outlive the call. Nothing per root — a per-root row table
    // would scale with the graph. The degree order is the one whose
    // own preprocessing allocates a fixed number of times; the
    // degeneracy orders allocate per peeling round, which is theirs,
    // not the kernel's.
    for parallel in [KcParallel::Node, KcParallel::Edge] {
        let config = KcConfig {
            ordering: OrderingKind::Degree,
            parallel,
        };
        for (raw, _) in &graphs {
            pool.install(|| k_clique_count(raw, 4, &config));
        }
        // The fewest of three runs: a worker that happens to run its
        // first root of a graph here grows its universe once.
        let counts: Vec<usize> = graphs
            .iter()
            .map(|(raw, _)| {
                (0..3)
                    .map(|_| {
                        allocations_during(|| pool.install(|| k_clique_count(raw, 4, &config))).1
                    })
                    .min()
                    .unwrap()
            })
            .collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "k-clique {parallel:?}: allocation count depends on the graph: {counts:?}"
        );
        assert!(
            counts[0] < 32,
            "k-clique {parallel:?}: {} allocations for one 4-clique count",
            counts[0]
        );
    }
}
