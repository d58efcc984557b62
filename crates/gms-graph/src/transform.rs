//! Graph transformations: relabeling (vertex permutations), rank and
//! degree orientation (`dir(G)`, §6.3), and induced subgraphs.
//!
//! Reorderings in GMS are *preprocessing* routines (modularity ③):
//! a [`Rank`] assigns each vertex a position; relabeling rewrites the
//! graph so vertex `v` becomes `rank[v]`, and orientation keeps only
//! arcs from lower to higher rank, turning the graph into a DAG whose
//! out-degrees are bounded by the ordering quality (e.g. degeneracy).

use gms_core::{CsrBuilder, CsrGraph, Graph, NodeId};
use rayon::prelude::*;
use std::ops::Range;

/// A vertex ordering: `rank[v]` is the position of `v` (0 = first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rank {
    rank: Vec<u32>,
}

impl Rank {
    /// Wraps a rank array.
    ///
    /// # Panics
    /// Panics if `rank` is not a permutation of `0..n`.
    pub fn from_ranks(rank: Vec<u32>) -> Self {
        let n = rank.len();
        let mut seen = vec![false; n];
        for &r in &rank {
            assert!((r as usize) < n && !seen[r as usize], "not a permutation");
            seen[r as usize] = true;
        }
        Self { rank }
    }

    /// Builds from an order array (`order[i]` = i-th vertex).
    pub fn from_order(order: &[NodeId]) -> Self {
        let mut rank = vec![0u32; order.len()];
        let mut seen = vec![false; order.len()];
        for (pos, &v) in order.iter().enumerate() {
            assert!(!seen[v as usize], "not a permutation");
            seen[v as usize] = true;
            rank[v as usize] = pos as u32;
        }
        Self { rank }
    }

    /// The identity ordering on `n` vertices.
    pub fn identity(n: usize) -> Self {
        Self {
            rank: (0..n as u32).collect(),
        }
    }

    /// Position of vertex `v`.
    #[inline]
    pub fn rank_of(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// `true` iff `u` precedes `v`.
    #[inline]
    pub fn precedes(&self, u: NodeId, v: NodeId) -> bool {
        self.rank[u as usize] < self.rank[v as usize]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// `true` if the ordering is empty.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// The raw rank array.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The order array (inverse permutation): `order()[i]` is the
    /// vertex at position `i`.
    pub fn order(&self) -> Vec<NodeId> {
        let mut order = vec![0 as NodeId; self.rank.len()];
        for (v, &r) in self.rank.iter().enumerate() {
            order[r as usize] = v as NodeId;
        }
        order
    }
}

/// Rewrites the graph so that vertex `v` is renamed `rank[v]`
/// (the paper's vertex relabeling, §5/§B.2). Neighborhood contents
/// are remapped and re-sorted; degrees are preserved up to renaming.
pub fn relabel(graph: &CsrGraph, rank: &Rank) -> CsrGraph {
    let n = graph.num_vertices();
    assert_eq!(n, rank.len());
    let order = rank.order();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for new_id in 0..n {
        let old = order[new_id];
        offsets.push(offsets[new_id] + graph.degree(old));
    }
    // Fill each new neighborhood in parallel: remap IDs, then sort.
    let per_vertex: Vec<Vec<NodeId>> = (0..n)
        .into_par_iter()
        .map(|new_id| {
            let old = order[new_id];
            let mut neigh: Vec<NodeId> = graph
                .neighbors_slice(old)
                .iter()
                .map(|&w| rank.rank_of(w))
                .collect();
            neigh.sort_unstable();
            neigh
        })
        .collect();
    let neighbors: Vec<NodeId> = per_vertex.into_iter().flatten().collect();
    CsrGraph::from_parts(offsets, neighbors)
}

/// Orients an undirected graph by rank: keeps the arc `u -> v` iff
/// `rank(u) < rank(v)` (the paper's `dir(G)`, Algorithm 7 line 9).
/// The result is a DAG; under a degeneracy order, out-degrees are at
/// most the degeneracy `d`.
pub fn orient_by_rank(graph: &CsrGraph, rank: &Rank) -> CsrGraph {
    assert_eq!(graph.num_vertices(), rank.len());
    orient(graph, |u, v| rank.precedes(u, v))
}

/// The forward DAG under the `(degree, id)` order: the arc `u -> v`
/// is kept iff `(deg u, u) < (deg v, v)` — the raw twin of
/// [`CompressedCsr::orient_by_degree`](crate::CompressedCsr::orient_by_degree),
/// arc for arc. Vertex IDs are unchanged (no relabel), forward lists
/// stay sorted by ID, and out-degrees are at most `√(2m)`, the bound
/// on the `|N⁺(u) ∩ N⁺(v)|` work of triangle counting. No order is
/// sorted and no rank array is built: the order is read off the
/// offsets.
pub fn orient_by_degree(graph: &CsrGraph) -> CsrGraph {
    let key = |v: NodeId| (graph.degree(v), v);
    orient(graph, |u, v| key(u) < key(v))
}

/// Orientation tasks per worker: slack for stealing to even out what
/// the arc-balanced cut leaves.
const ORIENT_TASKS_PER_WORKER: usize = 8;

/// Keeps the arcs `u -> v` with `forward(u, v)`, in two parallel passes
/// over the same arc-balanced vertex runs: the first counts each
/// vertex's kept arcs into the offsets, a prefix sum places them, and
/// the second copies the kept arcs into place. The kept part of a
/// sorted, duplicate-free neighborhood is itself sorted and
/// duplicate-free, so nothing is sorted or deduplicated.
fn orient(graph: &CsrGraph, forward: impl Fn(NodeId, NodeId) -> bool + Sync) -> CsrGraph {
    let n = graph.num_vertices();
    let runs = arc_balanced_runs(graph);
    let forward = &forward;
    let kept = |u: usize| {
        let u = u as NodeId;
        graph
            .neighbors_slice(u)
            .iter()
            .copied()
            .filter(move |&v| forward(u, v))
    };

    // `offsets[u + 1]` receives the forward degree of `u`.
    let mut offsets = vec![0usize; n + 1];
    cut(&mut offsets[1..], runs.iter().map(|run| run.end))
        .into_iter()
        .zip(runs.iter().cloned())
        .into_par_iter()
        .for_each(|(counts, run)| {
            for (count, u) in counts.iter_mut().zip(run) {
                *count = kept(u).count();
            }
        });
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }

    let mut targets: Vec<NodeId> = vec![0; offsets[n]];
    cut(&mut targets, runs.iter().map(|run| offsets[run.end]))
        .into_iter()
        .zip(runs)
        .into_par_iter()
        .for_each(|(region, run)| {
            for (slot, v) in region.iter_mut().zip(run.flat_map(kept)) {
                *slot = v;
            }
        });
    CsrGraph::from_parts(offsets, targets)
}

/// Cuts `0..n` into consecutive vertex runs of about equal arc count,
/// [`ORIENT_TASKS_PER_WORKER`] per pool worker: skewed graphs pack
/// their hubs into a few IDs, so equal vertex counts would hand one
/// task most of the arcs.
fn arc_balanced_runs(graph: &CsrGraph) -> Vec<Range<usize>> {
    let n = graph.num_vertices();
    let offsets = &graph.offsets()[..n];
    let arcs = graph.num_arcs();
    let tasks = ORIENT_TASKS_PER_WORKER * rayon::current_num_threads();
    let mut start = 0;
    (1..=tasks)
        .map(|t| {
            let end = if t == tasks {
                n
            } else {
                offsets.partition_point(|&o| o * tasks < arcs * t)
            };
            let run = start..end;
            start = end;
            run
        })
        .collect()
}

/// Splits `slice` into consecutive pieces, the `i`-th ending at
/// `ends[i]`; the last end must be `slice.len()`.
fn cut<T>(mut slice: &mut [T], ends: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    let mut at = 0;
    ends.map(|end| {
        let (piece, rest) = std::mem::take(&mut slice).split_at_mut(end - at);
        slice = rest;
        at = end;
        piece
    })
    .collect()
}

/// Extracts the subgraph induced by `vertices`, relabeling them
/// `0..k` in the given order. Returns the subgraph and the mapping
/// back to original IDs.
pub fn induced_subgraph(graph: &CsrGraph, vertices: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
    let mut local = vec![u32::MAX; graph.num_vertices()];
    for (i, &v) in vertices.iter().enumerate() {
        assert!(
            local[v as usize] == u32::MAX,
            "duplicate vertex in selection"
        );
        local[v as usize] = i as u32;
    }
    let mut builder = CsrBuilder::new(vertices.len());
    for (i, &v) in vertices.iter().enumerate() {
        for w in graph.neighbors(v) {
            let lw = local[w as usize];
            if lw != u32::MAX {
                builder.push_arc(i as NodeId, lw);
            }
        }
    }
    (builder.finish_dedup(), vertices.to_vec())
}

/// Degree of every vertex, computed in parallel.
pub fn degrees(graph: &CsrGraph) -> Vec<u32> {
    (0..graph.num_vertices() as NodeId)
        .into_par_iter()
        .map(|v| graph.degree(v) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn rank_roundtrip() {
        let rank = Rank::from_order(&[2, 0, 3, 1]);
        assert_eq!(rank.rank_of(2), 0);
        assert_eq!(rank.rank_of(1), 3);
        assert_eq!(rank.order(), vec![2, 0, 3, 1]);
        assert!(rank.precedes(2, 1));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rank_rejects_duplicates() {
        Rank::from_ranks(vec![0, 0, 1]);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = path4();
        // Reverse the vertex order.
        let rank = Rank::from_ranks(vec![3, 2, 1, 0]);
        let h = relabel(&g, &rank);
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_arcs(), g.num_arcs());
        // Old edge (0,1) becomes (3,2), etc.
        assert!(h.has_edge(3, 2));
        assert!(h.has_edge(2, 1));
        assert!(h.has_edge(1, 0));
        assert!(!h.has_edge(3, 0));
    }

    #[test]
    fn orientation_gives_dag_with_half_arcs() {
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let rank = Rank::identity(4);
        let d = orient_by_rank(&g, &rank);
        assert_eq!(d.num_arcs(), 4);
        for (u, v) in d.arcs() {
            assert!(u < v);
        }
    }

    #[test]
    fn orientation_respects_custom_rank() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        let rank = Rank::from_ranks(vec![2, 1, 0]); // 2 first, 0 last
        let d = orient_by_rank(&g, &rank);
        assert!(d.has_edge(1, 0));
        assert!(d.has_edge(2, 1));
        assert!(!d.has_edge(0, 1));
    }

    #[test]
    fn induced_subgraph_extracts_triangle() {
        let g = CsrGraph::from_undirected_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges_undirected(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        let (sub2, _) = induced_subgraph(&g, &[2, 3, 4]);
        assert_eq!(sub2.num_edges_undirected(), 2);
    }

    #[test]
    fn degrees_match_graph() {
        let g = path4();
        assert_eq!(degrees(&g), vec![1, 2, 2, 1]);
    }
}
