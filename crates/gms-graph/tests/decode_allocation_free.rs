//! Pins the no-allocation contract of the compressed decode hot path.
//!
//! A kernel loop over a [`CompressedCsr`] calls `decode_into` with a
//! reused scratch buffer; after one warmup pass that has grown the
//! buffer to the maximum degree, subsequent decodes — and the
//! early-exit `has_edge` probes — must not touch the allocator at
//! all. A regression that quietly materializes a fresh `Vec` per
//! neighborhood would still be *correct*, so only an allocation
//! counter can catch it. This test swaps in a counting global
//! allocator and asserts zero allocations across a full
//! every-vertex decode sweep and an `has_edge` probe matrix — and
//! across the same sweeps driven straight off the block cursor
//! (`degree`, streamed `neighbors`).
//!
//! Everything runs in a single `#[test]` because the allocator is
//! process-global: concurrent tests would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use gms_core::{Graph, NodeId};
use gms_graph::CompressedCsr;

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

/// Runs `f` and returns how many allocations it performed.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_decode_and_has_edge_never_allocate() {
    // A skewed graph (hubs + fringe) so buffer reuse is exercised
    // across wildly different degrees; built BEFORE measurement.
    let graph = gms_gen::kronecker_default(10, 12, 7);
    let compressed = CompressedCsr::from_csr(&graph);
    let n = compressed.num_vertices() as NodeId;

    // Warmup: one decode of the highest-degree vertex grows the
    // scratch buffer to its high-water mark.
    let hub = (0..n).max_by_key(|&v| compressed.degree(v)).unwrap();
    let mut scratch: Vec<NodeId> = Vec::new();
    compressed.decode_into(hub, &mut scratch);

    // A full decode sweep into the warmed buffer: zero allocations,
    // and every neighborhood matches the raw CSR.
    let mut total_decoded = 0usize;
    let allocs = allocations_during(|| {
        for v in 0..n {
            compressed.decode_into(v, &mut scratch);
            total_decoded += scratch.len();
        }
    });
    assert_eq!(total_decoded, graph.num_arcs(), "decode sweep lost arcs");
    assert_eq!(
        allocs, 0,
        "decode_into allocated during the warmed sweep — the hot path \
         must reuse the caller's buffer, never materialize its own"
    );

    // Correctness of the sweep it just measured (re-decoded outside
    // the counter window; comparisons may allocate freely here).
    for v in (0..n).step_by(37) {
        compressed.decode_into(v, &mut scratch);
        let expected: Vec<NodeId> = graph.neighbors(v).collect();
        assert_eq!(scratch, expected, "vertex {v} decoded wrong");
    }

    // has_edge scans the streamed neighbors: no scratch at all, so it
    // must be allocation-free from the first call.
    let probes: Vec<(NodeId, NodeId)> = (0..n)
        .step_by(13)
        .flat_map(|u| [(u, (u * 7 + 1) % n), (u, hub), (hub, u)])
        .collect();
    let expected: Vec<bool> = probes.iter().map(|&(u, v)| graph.has_edge(u, v)).collect();
    let mut got = vec![false; probes.len()];
    let allocs = allocations_during(|| {
        for (slot, &(u, v)) in got.iter_mut().zip(&probes) {
            *slot = compressed.has_edge(u, v);
        }
    });
    assert_eq!(got, expected, "has_edge disagrees with the raw CSR");
    assert_eq!(allocs, 0, "has_edge allocated during probes");

    // The block cursor on its own: `degree` walks it, `neighbors`
    // walks it and streams the gaps — neither needs a buffer, so a
    // sweep over every vertex allocates nothing.
    let (mut degree_sum, mut streamed) = (0usize, 0usize);
    let allocs = allocations_during(|| {
        for v in 0..n {
            degree_sum += compressed.degree(v);
            streamed += compressed.neighbors(v).count();
        }
    });
    assert_eq!((degree_sum, streamed), (graph.num_arcs(), graph.num_arcs()));
    assert_eq!(allocs, 0, "the block-cursor sweep allocated");
}
