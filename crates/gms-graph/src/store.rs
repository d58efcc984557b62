//! The resident representations of a graph — the one owned enum
//! ([`GraphStore`]) every loader produces and every holder keeps, its
//! borrowed twin ([`GraphView`]) kernels run on, and the content
//! fingerprint that is identical across them.
//!
//! A further representation is one more arm here and in
//! [`io::load_graph`](crate::io::load_graph); nothing above this
//! module matches on how a graph is held except to run on it.

use crate::CompressedCsr;
use gms_core::hash::FxHasher;
use gms_core::{CsrGraph, Graph, NodeId};
use std::hash::Hasher;

/// Content fingerprint of a CSR graph: a fast hash over the offset
/// and target arrays. Two graphs with identical adjacency structure
/// fingerprint identically however they were loaded, so cached
/// results survive reloading the same dataset.
pub fn fingerprint(graph: &CsrGraph) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(graph.offsets().len());
    for &offset in graph.offsets() {
        h.write_usize(offset);
    }
    for &target in graph.adjacency() {
        h.write_u32(target);
    }
    h.finish()
}

/// [`fingerprint`] generalized to any [`Graph`] implementation. Feeds
/// the hasher the exact byte sequence [`fingerprint`] derives from
/// the CSR arrays — the virtual offsets are the running degree prefix
/// sums — so a [`CompressedCsr`] fingerprints identically to the raw
/// CSR it encodes, and a kernel outcome computed on either backend is
/// served from the cache to both.
pub fn fingerprint_graph<G: Graph>(graph: &G) -> u64 {
    let n = graph.num_vertices();
    let mut h = FxHasher::default();
    h.write_usize(n + 1);
    let mut offset = 0usize;
    h.write_usize(offset);
    for v in 0..n as NodeId {
        offset += graph.degree(v);
        h.write_usize(offset);
    }
    for v in 0..n as NodeId {
        for target in graph.neighbors(v) {
            h.write_u32(target);
        }
    }
    h.finish()
}

/// A borrowed view of a resident graph in whichever representation
/// it is held ([`GraphStore::view`]).
#[derive(Clone, Copy)]
pub enum GraphView<'a> {
    /// Raw CSR arrays.
    Raw(&'a CsrGraph),
    /// Gap+varint compressed adjacency.
    Compressed(&'a CompressedCsr),
}

/// One graph as it is held in memory: either a materialized CSR or a
/// gap-compressed CSR serving kernels directly through its decode hot
/// path. Loaders keep the representation the source stored — text
/// formats and v1 snapshots materialize, a v2 snapshot stays
/// compressed — and the serving code decides whether to convert.
#[derive(Debug)]
pub enum GraphStore {
    /// Raw CSR arrays.
    Csr(CsrGraph),
    /// Gap+varint compressed adjacency ([`CompressedCsr`]).
    Compressed(CompressedCsr),
}

impl GraphStore {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        match self {
            GraphStore::Csr(g) => g.num_vertices(),
            GraphStore::Compressed(c) => c.num_vertices(),
        }
    }

    /// Number of stored directed arcs.
    pub fn num_arcs(&self) -> usize {
        match self {
            GraphStore::Csr(g) => g.num_arcs(),
            GraphStore::Compressed(c) => c.num_arcs(),
        }
    }

    /// Heap bytes resident for the adjacency structure.
    pub fn resident_bytes(&self) -> usize {
        match self {
            GraphStore::Csr(g) => {
                std::mem::size_of_val(g.offsets()) + std::mem::size_of_val(g.adjacency())
            }
            GraphStore::Compressed(c) => c.heap_bytes(),
        }
    }

    /// Label of the resident representation: `"raw"`, `"gap"`, or
    /// `"gap+reorder"`.
    pub fn compression(&self) -> &'static str {
        match self {
            GraphStore::Csr(_) => "raw",
            GraphStore::Compressed(c) if c.is_reordered() => "gap+reorder",
            GraphStore::Compressed(_) => "gap",
        }
    }

    /// The borrowed view kernels run on.
    pub fn view(&self) -> GraphView<'_> {
        match self {
            GraphStore::Csr(g) => GraphView::Raw(g),
            GraphStore::Compressed(c) => GraphView::Compressed(c),
        }
    }

    /// Content fingerprint — identical across the two backends for
    /// the same adjacency structure.
    pub fn fingerprint(&self) -> u64 {
        match self {
            GraphStore::Csr(g) => fingerprint(g),
            GraphStore::Compressed(c) => fingerprint_graph(c),
        }
    }

    /// Decodes (or clones) into an owned CSR.
    pub fn to_csr(&self) -> CsrGraph {
        match self {
            GraphStore::Csr(g) => g.clone(),
            GraphStore::Compressed(c) => c.to_csr(),
        }
    }

    /// Materializes a plain CSR whichever variant this is, without
    /// copying one that already is.
    pub fn into_csr(self) -> CsrGraph {
        match self {
            GraphStore::Csr(g) => g,
            GraphStore::Compressed(c) => c.to_csr(),
        }
    }
}
