//! `CompressedCsr`: a Log(Graph)-style compressed graph representation
//! (§5, §B.1.3) combining gap+varint adjacency encoding with a compact
//! block index. It implements the same [`Graph`] access interface as
//! plain CSR, so every GMS algorithm runs on it unchanged — the
//! paper's representation modularity (①–②) in action — and it is the
//! in-memory form of the `.gcsr` v2 snapshot payload
//! (see [`crate::io::snapshot`]).
//!
//! This is a *serving* structure, not just a storage study, so the
//! access paths are built for the kernel hot loop. Everything that
//! reads neighborhoods goes through two primitives:
//!
//! * the **block cursor** (`NbrIndex::walk`): a sequential walk over
//!   the index pair stream of a run of blocks that carries the payload
//!   offset forward, so each vertex's byte range and degree cost O(1)
//!   — a random access ([`CompressedCsr::decode_into`],
//!   [`Graph::degree`], [`Graph::has_edge`]) is the same cursor
//!   advanced at most [`INDEX_BLOCK`]` - 1` steps inside one block;
//! * the **bulk gap decoder** ([`gap::decode_run`]): four gaps per
//!   8-byte load for 1- and 2-byte codes, written straight into a
//!   caller-owned slice.
//!
//! On top of them sit the *decode-once* whole-graph paths. Both read
//! every degree in one cursor pass over the pair stream, cut the index
//! blocks into arc-balanced tasks, and sweep the tasks in parallel:
//! each starts at its first block's payload anchor, decodes one
//! neighborhood after another — exactly once each, the byte offset
//! carried forward by the decoder, no per-vertex index walk — into
//! its own disjoint range of one preallocated array:
//!
//! * [`CompressedCsr::to_csr`] — the plain CSR;
//! * [`CompressedCsr::orient_by_degree`] — the forward DAG under the
//!   `(degree, id)` order, filtered while decoding, which is what
//!   lets set-intersection kernels (triangle counting) run at CSR
//!   speed. Its transient cost is one `u32` slot per arc while the
//!   sweep runs, trimmed to one per *edge* (half the raw adjacency)
//!   plus `n + 1` offsets for the DAG it returns.
//!
//! Around them, [`CompressedCsr::from_csr_ordered`] relabels the graph
//! by a locality ordering (e.g. [BFS](https://en.wikipedia.org/wiki/Breadth-first_search)
//! order from `gms-order`) before gap-encoding — neighbors get nearby
//! IDs, gaps shrink, varints shorten — and
//! [`CompressedCsr::bytes_per_arc`] reports the achieved size.

use crate::compress::{gap, varint};
use crate::transform::{relabel, Rank};
use gms_core::{CsrGraph, Graph, NodeId};
use rayon::prelude::*;
use std::ops::Range;

/// Vertices per index block: one absolute payload anchor every
/// `INDEX_BLOCK` vertices, varint `(byte_len, degree)` pairs in
/// between. Part of the `.gcsr` v2 on-disk contract.
pub const INDEX_BLOCK: usize = 64;

/// The per-vertex index of a compressed adjacency payload: absolute
/// 64-bit payload anchors every [`INDEX_BLOCK`] vertices plus a varint
/// stream of `(byte_len, degree)` pairs, one pair per vertex. Both the
/// byte range *and* the degree of a vertex come out of one
/// [`BlockCursor`] step.
#[derive(Clone, Debug, Default)]
pub(crate) struct NbrIndex {
    n: usize,
    /// Absolute payload byte offset of each block's first vertex.
    pub(crate) anchors: Vec<u64>,
    /// Byte position in `pairs` where each block's pair run starts.
    pub(crate) block_starts: Vec<u32>,
    /// Varint `(byte_len, degree)` pairs, concatenated per vertex.
    pub(crate) pairs: Vec<u8>,
}

impl NbrIndex {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            n: 0,
            anchors: Vec::with_capacity(n.div_ceil(INDEX_BLOCK)),
            block_starts: Vec::with_capacity(n.div_ceil(INDEX_BLOCK)),
            pairs: Vec::new(),
        }
    }

    /// Reassembles an index from its decoded sections (the `.gcsr` v2
    /// read path). The caller has validated consistency already.
    pub(crate) fn from_parts(
        n: usize,
        anchors: Vec<u64>,
        block_starts: Vec<u32>,
        pairs: Vec<u8>,
    ) -> Self {
        Self {
            n,
            anchors,
            block_starts,
            pairs,
        }
    }

    /// Appends the next vertex's `(byte_len, degree)` entry. Vertices
    /// must be pushed in ID order; `payload_offset` is the absolute
    /// byte offset where this vertex's payload starts.
    pub(crate) fn push(&mut self, payload_offset: u64, byte_len: usize, degree: usize) {
        assert!(byte_len <= u32::MAX as usize && degree <= u32::MAX as usize);
        if self.n.is_multiple_of(INDEX_BLOCK) {
            self.anchors.push(payload_offset);
            self.block_starts.push(self.pairs.len() as u32);
        }
        varint::encode_u32(byte_len as u32, &mut self.pairs);
        varint::encode_u32(degree as u32, &mut self.pairs);
        self.n += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Number of index blocks.
    pub(crate) fn blocks(&self) -> usize {
        self.anchors.len()
    }

    /// The vertices of a run of index blocks.
    pub(crate) fn block_vertices(&self, blocks: &Range<usize>) -> Range<usize> {
        (blocks.start * INDEX_BLOCK).min(self.n)..(blocks.end * INDEX_BLOCK).min(self.n)
    }

    /// The block cursor: walks the vertices of index blocks `blocks`
    /// in ID order, one `(byte_len, degree)` pair per step with the
    /// payload offset carried forward from the first block's anchor —
    /// O(1) per vertex, no per-vertex block walk.
    pub(crate) fn walk(&self, blocks: Range<usize>) -> BlockCursor<'_> {
        let vertices = self.block_vertices(&blocks);
        let (pairs, offset) = if vertices.is_empty() {
            (&[][..], 0)
        } else {
            (
                &self.pairs[self.block_starts[blocks.start] as usize..],
                self.anchors[blocks.start] as usize,
            )
        };
        BlockCursor {
            pairs,
            vertices,
            offset,
        }
    }

    /// The entry of vertex `v`: the cursor of its block advanced at
    /// most `INDEX_BLOCK - 1` steps.
    #[inline]
    pub(crate) fn locate(&self, v: usize) -> NbrEntry {
        assert!(v < self.n, "vertex {v} out of range ({n})", n = self.n);
        let block = v / INDEX_BLOCK;
        self.walk(block..block + 1)
            .nth(v % INDEX_BLOCK)
            .expect("vertex inside its block")
    }

    /// The raw CSR offset array (`n + 1` entries): one pass over the
    /// pair stream, summing degrees.
    fn csr_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut total = 0usize;
        offsets.push(total);
        for entry in self.walk(0..self.blocks()) {
            total += entry.degree;
            offsets.push(total);
        }
        offsets
    }

    /// Heap bytes actually used (lengths, not capacities).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.anchors.len() * 8 + self.block_starts.len() * 4 + self.pairs.len()
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.anchors.shrink_to_fit();
        self.block_starts.shrink_to_fit();
        self.pairs.shrink_to_fit();
    }
}

/// One vertex as the index describes it: where its gap payload lives
/// and how many neighbors it encodes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NbrEntry {
    /// Payload byte range of the neighborhood.
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) degree: usize,
}

/// Sequential cursor over the index entries of a run of blocks (see
/// [`NbrIndex::walk`]).
pub(crate) struct BlockCursor<'a> {
    pairs: &'a [u8],
    vertices: Range<usize>,
    offset: usize,
}

impl Iterator for BlockCursor<'_> {
    type Item = NbrEntry;

    #[inline]
    fn next(&mut self) -> Option<NbrEntry> {
        self.vertices.next()?;
        let (len, degree) = match *self.pairs {
            // Two single-byte varints: every vertex with fewer than
            // 128 neighbors in fewer than 128 payload bytes.
            [len, degree, ref rest @ ..] if (len | degree) < 0x80 => {
                self.pairs = rest;
                (usize::from(len), usize::from(degree))
            }
            _ => (
                varint::decode_u32(&mut self.pairs).expect("pair stream") as usize,
                varint::decode_u32(&mut self.pairs).expect("pair stream") as usize,
            ),
        };
        let start = self.offset;
        self.offset += len;
        Some(NbrEntry {
            start,
            end: self.offset,
            degree,
        })
    }
}

/// A compressed CSR with varint-gap adjacency and a block-sampled
/// `(byte_len, degree)` index.
#[derive(Clone, Debug)]
pub struct CompressedCsr {
    /// Gap-encoded adjacency payload, concatenated per vertex.
    payload: Vec<u8>,
    /// Byte range + degree of each vertex's payload.
    index: NbrIndex,
    arcs: usize,
    /// Whether a locality reordering was applied before encoding.
    reordered: bool,
}

impl CompressedCsr {
    /// Compresses a CSR graph, preserving vertex IDs (the compressed
    /// graph is byte-for-byte the same adjacency structure, so content
    /// fingerprints — and cached kernel outcomes — carry over).
    pub fn from_csr(csr: &CsrGraph) -> Self {
        Self::build(csr, false)
    }

    /// Compresses a CSR graph after relabeling it by `rank` — the
    /// §B.2 recompression pipeline: a locality ordering (BFS order
    /// from `gms-order` is the prescribed choice) gives neighbors
    /// nearby IDs, shrinking the stored gaps and therefore the
    /// varints. The result is the *relabeled isomorph*: counts and
    /// structure match, vertex IDs are permuted (and the content
    /// fingerprint differs — callers that need ID stability use
    /// [`CompressedCsr::from_csr`]).
    pub fn from_csr_ordered(csr: &CsrGraph, rank: &Rank) -> Self {
        Self::build(&relabel(csr, rank), true)
    }

    fn build(csr: &CsrGraph, reordered: bool) -> Self {
        let n = csr.num_vertices();
        let mut payload = Vec::new();
        let mut index = NbrIndex::with_capacity(n);
        for v in 0..n as NodeId {
            let neigh = csr.neighbors_slice(v);
            let before = payload.len();
            encode_neighborhood(neigh, &mut payload);
            index.push(before as u64, payload.len() - before, neigh.len());
        }
        payload.shrink_to_fit();
        index.shrink_to_fit();
        Self {
            payload,
            index,
            arcs: csr.num_arcs(),
            reordered,
        }
    }

    /// Reassembles a compressed graph from validated `.gcsr` v2
    /// sections.
    pub(crate) fn from_validated_parts(
        index: NbrIndex,
        payload: Vec<u8>,
        arcs: usize,
        reordered: bool,
    ) -> Self {
        Self {
            payload,
            index,
            arcs,
            reordered,
        }
    }

    /// The gap-encoded payload bytes (the `.gcsr` v2 payload section).
    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The per-vertex index (the `.gcsr` v2 index section).
    pub(crate) fn index(&self) -> &NbrIndex {
        &self.index
    }

    /// Whether this graph was relabeled by a locality ordering before
    /// encoding (recorded in the `.gcsr` v2 header flags).
    pub fn is_reordered(&self) -> bool {
        self.reordered
    }

    /// Decompresses back to plain CSR, decoding every neighborhood
    /// exactly once. The offsets are the degree prefix sums of one pass
    /// over the index pair stream; the adjacency array is allocated
    /// once at its final size and cut at block boundaries into disjoint
    /// ranges that decode tasks fill in parallel (see the module
    /// docs).
    pub fn to_csr(&self) -> CsrGraph {
        let (index, payload) = (&self.index, &self.payload[..]);
        let offsets = index.csr_offsets();
        let mut targets: Vec<NodeId> = vec![0; offsets[index.len()]];
        task_regions(index, &offsets, &mut targets)
            .into_par_iter()
            .for_each(|(blocks, region)| {
                let filled = sweep_blocks(index, payload, &offsets, blocks, region, |_, nbrs| {
                    nbrs.len()
                });
                debug_assert_eq!(filled, region.len());
            });
        CsrGraph::from_parts(offsets, targets)
    }

    /// The forward DAG under the `(degree, id)` order: the arc
    /// `u -> v` is kept iff `(deg u, u) < (deg v, v)`. Vertex IDs are
    /// unchanged (no relabel), forward lists stay sorted by ID, and
    /// out-degrees are at most `√(2m)` — the bound on the
    /// `|N⁺(u) ∩ N⁺(v)|` work of triangle and clique counting. Every
    /// neighborhood is decoded exactly once, in parallel; the full raw
    /// adjacency is never held (see the module docs for the transient
    /// cost).
    ///
    /// Degrees come from one pass over the index pair stream. The
    /// blocks are then swept in parallel: each task decodes its
    /// neighborhoods once, straight into its own range of one buffer,
    /// and keeps only the forward neighbors, packed at the front of
    /// the range. A last sequential pass closes the gaps between
    /// ranges. The buffer has one slot per arc because a task's
    /// forward count is unknown until it has decoded, and is trimmed
    /// to the forward half as soon as the sweep is over.
    pub fn orient_by_degree(&self) -> CsrGraph {
        let (index, payload) = (&self.index, &self.payload[..]);
        let n = index.len();
        let raw = index.csr_offsets();
        let mut targets: Vec<NodeId> = vec![0; raw[n]];
        let rank = |v: usize| (raw[v + 1] - raw[v], v);

        // `kept[v + 1]` receives the forward degree of `v`; the counts are
        // cut at the same block boundaries as the target ranges.
        let mut kept = vec![0usize; n + 1];
        let mut counts = &mut kept[1..];
        let tasks: Vec<_> = task_regions(index, &raw, &mut targets)
            .into_iter()
            .map(|(blocks, region)| {
                let vertices = index.block_vertices(&blocks);
                let (mine, rest) = std::mem::take(&mut counts).split_at_mut(vertices.len());
                counts = rest;
                (blocks, region, mine)
            })
            .collect();
        // Each task reports where its range starts and how long its
        // packed front is.
        let fronts: Vec<(usize, usize)> = tasks
            .into_par_iter()
            .map(|(blocks, region, counts)| {
                let first = blocks.start * INDEX_BLOCK;
                let packed = sweep_blocks(index, payload, &raw, blocks, region, |u, nbrs| {
                    let key = rank(u);
                    let mut forward = 0usize;
                    for i in 0..nbrs.len() {
                        let v = nbrs[i];
                        nbrs[forward] = v;
                        forward += usize::from(rank(v as usize) > key);
                    }
                    counts[u - first] = forward;
                    forward
                });
                (raw[first], packed)
            })
            .collect();

        // Close the gaps: slide every task's packed front down behind its
        // predecessor's, then turn the forward degrees into offsets.
        let mut total = 0usize;
        for (from, packed) in fronts {
            targets.copy_within(from..from + packed, total);
            total += packed;
        }
        targets.truncate(total);
        targets.shrink_to_fit();
        for v in 0..n {
            kept[v + 1] += kept[v];
        }
        CsrGraph::from_parts(kept, targets)
    }

    /// Decodes the neighborhood of `v` into `out`, clearing it first.
    /// Allocation-free once `out`'s capacity has reached the maximum
    /// degree — the kernel-loop decode path (pair it with a per-worker
    /// scratch buffer, e.g. `gms_core::split::with_worker_scratch`).
    #[inline]
    pub fn decode_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        let entry = self.index.locate(v as usize);
        let consumed = gap::decode_into(&self.payload[entry.start..], entry.degree, out)
            .expect("validated payload");
        debug_assert_eq!(consumed, entry.end - entry.start);
    }

    /// Decodes the neighborhood of `v` into a fresh vector.
    pub fn neighborhood_vec(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.decode_into(v, &mut out);
        out
    }

    /// Compressed heap bytes actually used (payload + index; lengths,
    /// not capacities — the honest bytes-per-edge numerator).
    pub fn heap_bytes(&self) -> usize {
        self.payload.len() + self.index.heap_bytes()
    }

    /// Achieved compression: heap bytes per stored arc (for an
    /// undirected graph stored symmetrically, per half-edge). Raw CSR
    /// costs `4 + 8(n+1)/a` bytes per arc for comparison.
    pub fn bytes_per_arc(&self) -> f64 {
        self.heap_bytes() as f64 / self.arcs.max(1) as f64
    }
}

/// Gap+varint-encodes one sorted neighborhood, appending to `payload`.
fn encode_neighborhood(sorted: &[NodeId], payload: &mut Vec<u8>) {
    debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    let mut prev = 0u32;
    for (i, &v) in sorted.iter().enumerate() {
        let gapv = if i == 0 { v } else { v - prev };
        varint::encode_u32(gapv, payload);
        prev = v;
    }
}

impl Graph for CompressedCsr {
    fn num_vertices(&self) -> usize {
        self.index.len()
    }

    fn num_arcs(&self) -> usize {
        self.arcs
    }

    fn degree(&self, v: NodeId) -> usize {
        self.index.locate(v as usize).degree
    }

    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let entry = self.index.locate(v as usize);
        gap::GapDecoder::new(&self.payload[entry.start..entry.end], entry.degree)
    }

    /// An early-exit scan: neighborhoods are sorted, so the decode
    /// stops at the first neighbor `>= v`.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).find(|&w| w >= v) == Some(v)
    }
}

/// Decode tasks per worker: enough slack for stealing to even out
/// what the arc-balanced cut leaves (a task is whole blocks, and one
/// hub block can outweigh its share).
const TASKS_PER_WORKER: usize = 8;

/// Cuts the index blocks into runs of roughly equal *arc* count —
/// skewed graphs pack their hubs into a few blocks, so equal block
/// counts would hand one task half the work — and `targets`, laid out
/// by the raw CSR `offsets`, into the matching disjoint slices, so the
/// decode tasks can fill their ranges in parallel.
fn task_regions<'a>(
    index: &NbrIndex,
    offsets: &[usize],
    mut targets: &'a mut [NodeId],
) -> Vec<(Range<usize>, &'a mut [NodeId])> {
    let blocks = index.blocks();
    let tasks = TASKS_PER_WORKER * rayon::current_num_threads();
    let arcs = offsets[index.len()];
    let mut regions = Vec::with_capacity(tasks);
    let (mut first, mut cut) = (0usize, 0usize);
    for next in 1..=blocks {
        let upto = offsets[(next * INDEX_BLOCK).min(index.len())];
        // Close the task once it has reached its share of the arcs.
        if next == blocks || upto * tasks >= arcs * (regions.len() + 1) {
            let (region, rest) = std::mem::take(&mut targets).split_at_mut(upto - cut);
            targets = rest;
            regions.push((first..next, region));
            (first, cut) = (next, upto);
        }
    }
    regions
}

/// One decode task — the sequential heart of every whole-graph path:
/// decodes the neighborhoods of index blocks `blocks` one after
/// another, each exactly once, into `region`. The walk starts at the
/// first block's payload anchor and carries the byte offset forward by
/// what each decode consumed; degrees come from the raw CSR `offsets`
/// — no per-vertex [`NbrIndex::locate`]. Every decoded neighborhood is
/// handed to `keep(v, nbrs)`, which may pack the entries it wants at
/// the front of `nbrs` and returns how many it kept; the next
/// neighborhood is decoded right behind them. Returns the total kept,
/// i.e. the length of the packed front of `region`.
fn sweep_blocks(
    index: &NbrIndex,
    payload: &[u8],
    offsets: &[usize],
    blocks: Range<usize>,
    region: &mut [NodeId],
    mut keep: impl FnMut(usize, &mut [NodeId]) -> usize,
) -> usize {
    let mut at = index.anchors[blocks.start] as usize;
    let mut front = 0usize;
    for v in index.block_vertices(&blocks) {
        let nbrs = &mut region[front..front + (offsets[v + 1] - offsets[v])];
        at += gap::decode_run(&payload[at..], 0, nbrs).expect("validated payload");
        front += keep(v, nbrs);
    }
    debug_assert_eq!(
        at as u64,
        index
            .anchors
            .get(blocks.end)
            .copied()
            .unwrap_or(payload.len() as u64),
        "decoded bytes must end on the next block anchor"
    );
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        let mut edges = Vec::new();
        // A ring with chords: locality-friendly for gap encoding.
        for v in 0..200u32 {
            edges.push((v, (v + 1) % 200));
            edges.push((v, (v + 7) % 200));
        }
        CsrGraph::from_undirected_edges(200, &edges)
    }

    /// A graph with hub vertices (vertex 0 connects to everyone, and a
    /// planted-ish block keeps mid-degree vertices interesting).
    fn hubby() -> CsrGraph {
        let n = 400u32;
        let mut edges = Vec::new();
        for v in 1..n {
            edges.push((0, v));
            if v % 3 == 0 {
                edges.push((1, v));
            }
            edges.push((v, (v + 13) % n));
        }
        CsrGraph::from_undirected_edges(n as usize, &edges)
    }

    #[test]
    fn roundtrip_preserves_graph() {
        for csr in [sample(), hubby()] {
            let compressed = CompressedCsr::from_csr(&csr);
            assert_eq!(compressed.to_csr(), csr);
            assert_eq!(compressed.num_vertices(), csr.num_vertices());
            assert_eq!(compressed.num_arcs(), csr.num_arcs());
            assert!(!compressed.is_reordered());
        }
    }

    #[test]
    fn access_interface_matches_csr() {
        for csr in [sample(), hubby()] {
            let compressed = CompressedCsr::from_csr(&csr);
            let mut scratch = Vec::new();
            for v in csr.vertices() {
                assert_eq!(compressed.degree(v), csr.degree(v));
                assert_eq!(
                    compressed.neighborhood_vec(v),
                    csr.neighbors_slice(v).to_vec()
                );
                compressed.decode_into(v, &mut scratch);
                assert_eq!(scratch.as_slice(), csr.neighbors_slice(v));
                let streamed: Vec<NodeId> = compressed.neighbors(v).collect();
                assert_eq!(streamed.as_slice(), csr.neighbors_slice(v));
            }
        }
    }

    #[test]
    fn has_edge_agrees_with_csr_including_hubs() {
        let csr = hubby();
        let compressed = CompressedCsr::from_csr(&csr);
        // Exhaustive over a vertex sample, covering hub vertex 0
        // (degree ~400), the mid hub 1, and ordinary vertices.
        for u in [0u32, 1, 2, 57, 200, 399] {
            for v in 0..csr.num_vertices() as NodeId {
                assert_eq!(
                    compressed.has_edge(u, v),
                    csr.has_edge(u, v),
                    "has_edge({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn decode_into_is_allocation_free_after_warmup() {
        let csr = hubby();
        let compressed = CompressedCsr::from_csr(&csr);
        let mut scratch = Vec::with_capacity(csr.max_degree());
        let ptr = scratch.as_ptr();
        for v in csr.vertices() {
            compressed.decode_into(v, &mut scratch);
        }
        assert_eq!(scratch.as_ptr(), ptr, "scratch buffer must be reused");
    }

    #[test]
    fn ordered_compression_shrinks_scrambled_graphs() {
        // A grid whose IDs were scrambled: terrible gaps raw, tiny
        // gaps after a BFS-style relabel. Use the inverse of the
        // scramble as the locality rank (a perfect order here).
        let grid = gms_gen::grid(30, 30);
        let scramble = crate::transform::Rank::from_order(
            &(0..900u32).map(|v| (v * 541) % 900).collect::<Vec<_>>(),
        );
        let scrambled = relabel(&grid, &scramble);
        let plain = CompressedCsr::from_csr(&scrambled);
        // Invert: rank_of(v) in `scramble` maps new → old position.
        let unscramble = crate::transform::Rank::from_ranks(
            (0..900u32).map(|v| (v * 541) % 900).collect::<Vec<_>>(),
        );
        let ordered = CompressedCsr::from_csr_ordered(&scrambled, &unscramble);
        assert!(ordered.is_reordered());
        assert_eq!(ordered.num_arcs(), plain.num_arcs());
        assert!(
            ordered.heap_bytes() < plain.heap_bytes(),
            "ordered {} vs plain {}",
            ordered.heap_bytes(),
            plain.heap_bytes()
        );
        // The relabeled isomorph still decodes to a valid CSR with
        // the same arc count.
        assert_eq!(ordered.to_csr().num_arcs(), scrambled.num_arcs());
    }

    #[test]
    fn compression_saves_space_on_local_graphs() {
        let csr = sample();
        let compressed = CompressedCsr::from_csr(&csr);
        assert!(
            compressed.heap_bytes() < csr.heap_bytes() / 2,
            "compressed {} vs raw {}",
            compressed.heap_bytes(),
            csr.heap_bytes()
        );
        let per_arc = compressed.bytes_per_arc();
        assert!(per_arc > 0.0 && per_arc < 4.0, "bytes/arc {per_arc}");
    }

    #[test]
    fn heap_bytes_counts_lengths_not_capacities() {
        let csr = sample();
        let compressed = CompressedCsr::from_csr(&csr);
        let expected = compressed.payload.len() + compressed.index.heap_bytes();
        assert_eq!(compressed.heap_bytes(), expected);
        // The build shrinks the payload, so len == capacity.
        assert_eq!(compressed.payload.len(), compressed.payload.capacity());
    }

    #[test]
    fn empty_graph() {
        let csr = CsrGraph::from_undirected_edges(5, &[]);
        let compressed = CompressedCsr::from_csr(&csr);
        assert_eq!(compressed.to_csr(), csr);
        assert_eq!(compressed.degree(3), 0);
        assert!(!compressed.has_edge(0, 1));
        let zero = CsrGraph::from_undirected_edges(0, &[]);
        let compressed = CompressedCsr::from_csr(&zero);
        assert_eq!(compressed.num_vertices(), 0);
        assert_eq!(compressed.to_csr(), zero);
    }
}
