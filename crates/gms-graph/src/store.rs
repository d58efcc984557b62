//! The resident representations of a graph — the one owned enum
//! ([`GraphStore`]) every loader produces and every holder keeps, its
//! borrowed twin ([`GraphView`]) kernels run on, the in-order
//! [`Sweep`] both representations serve, and the content fingerprint
//! that is identical across them.
//!
//! A further representation is one more arm here and in
//! [`io::load_graph`](crate::io::load_graph); nothing above this
//! module matches on how a graph is held except to run on it.

use crate::compress::gap;
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

/// [`fingerprint`] on either representation ([`Sweep`]). Feeds the
/// hasher the exact byte sequence [`fingerprint`] derives from the CSR
/// arrays — the virtual offsets are the running degree prefix sums,
/// then the neighborhoods in ID order — so a [`CompressedCsr`]
/// fingerprints identically to the raw CSR it encodes, and a kernel
/// outcome computed on either backend is served from the cache to
/// both. A compressed graph is read in two sequential walks of its
/// block cursor, the degrees and then every neighborhood decoded in
/// place, with no per-vertex index lookup.
pub fn fingerprint_graph<G: Sweep>(graph: &G) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(graph.num_vertices() + 1);
    let mut offset = 0usize;
    h.write_usize(offset);
    for vertex in graph.sweep() {
        offset += vertex.degree;
        h.write_usize(offset);
    }
    let mut buf = Vec::new();
    for vertex in graph.sweep() {
        for &target in vertex.neighbors_in(&mut buf) {
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

impl<'a> From<&'a CsrGraph> for GraphView<'a> {
    fn from(graph: &'a CsrGraph) -> Self {
        GraphView::Raw(graph)
    }
}

impl<'a> From<&'a CompressedCsr> for GraphView<'a> {
    fn from(graph: &'a CompressedCsr) -> Self {
        GraphView::Compressed(graph)
    }
}

/// How a kernel that visits vertices in ID order reads a resident —
/// both representations implement it, so such a kernel is one generic
/// routine that a match on [`GraphView`] enters once, monomorphized
/// per representation.
pub trait Sweep: Graph {
    /// Every vertex in ID order with its degree, in one sequential
    /// pass: over the raw offsets, or — on a compressed graph — one
    /// walk of the block cursor, which reads the index pairs and
    /// touches no payload byte unless [`SweptVertex::neighbors_in`]
    /// asks for a neighborhood.
    fn sweep(&self) -> impl Iterator<Item = SweptVertex<'_>>;

    /// The neighborhood of `v` by random access: the raw slice
    /// itself, or decoded into `buf` (one index lookup).
    fn neighbors_in<'b>(&'b self, v: NodeId, buf: &'b mut Vec<NodeId>) -> &'b [NodeId];
}

impl Sweep for CsrGraph {
    #[inline]
    fn sweep(&self) -> impl Iterator<Item = SweptVertex<'_>> {
        self.vertices().map(|vertex| SweptVertex {
            vertex,
            degree: self.degree(vertex),
            nbrs: Nbrs::Raw(self),
        })
    }

    #[inline]
    fn neighbors_in<'b>(&'b self, v: NodeId, _: &'b mut Vec<NodeId>) -> &'b [NodeId] {
        self.neighbors_slice(v)
    }
}

impl Sweep for CompressedCsr {
    #[inline]
    fn sweep(&self) -> impl Iterator<Item = SweptVertex<'_>> {
        let (index, payload) = (self.index(), self.payload());
        (0..)
            .zip(index.walk(0..index.blocks()))
            .map(|(vertex, entry)| SweptVertex {
                vertex,
                degree: entry.degree,
                nbrs: Nbrs::Encoded(&payload[entry.start..entry.end]),
            })
    }

    #[inline]
    fn neighbors_in<'b>(&'b self, v: NodeId, buf: &'b mut Vec<NodeId>) -> &'b [NodeId] {
        self.decode_into(v, buf);
        buf
    }
}

/// One vertex as a [`Sweep`] meets it.
pub struct SweptVertex<'a> {
    /// The vertex.
    pub vertex: NodeId,
    /// Its degree.
    pub degree: usize,
    nbrs: Nbrs<'a>,
}

/// Where a swept vertex's neighborhood is read from.
enum Nbrs<'a> {
    Raw(&'a CsrGraph),
    /// The gap payload at the cursor's byte offset.
    Encoded(&'a [u8]),
}

impl SweptVertex<'_> {
    /// The neighborhood: the raw slice itself, or decoded into `buf`
    /// from where the cursor stands — no index lookup.
    // Always inlined, so the match folds away in a caller monomorphized
    // for one representation: called out of line, it made the raw
    // k-core peel ~15 % slower than the loop over CSR slices.
    #[inline(always)]
    pub fn neighbors_in<'b>(&self, buf: &'b mut Vec<NodeId>) -> &'b [NodeId]
    where
        Self: 'b,
    {
        match self.nbrs {
            Nbrs::Raw(graph) => graph.neighbors_slice(self.vertex),
            Nbrs::Encoded(bytes) => {
                let consumed =
                    gap::decode_into(bytes, self.degree, buf).expect("validated payload");
                debug_assert_eq!(consumed, bytes.len());
                buf
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn meets_every_vertex(graph: &impl Sweep, want: &CsrGraph) {
        let (mut swept, mut random) = (Vec::new(), Vec::new());
        let mut seen = 0;
        for vertex in graph.sweep() {
            let nbrs = want.neighbors_slice(vertex.vertex);
            assert_eq!(vertex.vertex, seen);
            assert_eq!(vertex.degree, nbrs.len());
            assert_eq!(vertex.neighbors_in(&mut swept), nbrs);
            assert_eq!(graph.neighbors_in(vertex.vertex, &mut random), nbrs);
            seen += 1;
        }
        assert_eq!(seen as usize, want.num_vertices());
    }

    #[test]
    fn a_sweep_meets_every_vertex_as_the_csr_holds_it() {
        for g in [
            gms_gen::kronecker_default(9, 8, 3),
            gms_gen::grid(7, 9),
            CsrGraph::from_undirected_edges(5, &[(1, 3)]),
            CsrGraph::from_undirected_edges(0, &[]),
        ] {
            meets_every_vertex(&g, &g);
            meets_every_vertex(&CompressedCsr::from_csr(&g), &g);
        }
    }
}
