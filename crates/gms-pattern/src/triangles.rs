//! Triangle counting (Table 4: "different variants of Triangle
//! Counting"): the *node-iterator* and *rank-merge* schemes the
//! paper's representation analysis (Table 8) contrasts. Both are
//! expressed with set intersections (⑤⁺) — the `tc += |N(v) ∩ N(w)|`
//! snippet of Figure 2 verbatim.

use gms_core::set::intersect_count_sorted_slices;
use gms_core::{CsrGraph, Graph, NodeId, Set, SetGraph, SetNeighborhoods};
use gms_graph::{orient_by_rank, relabel, CompressedCsr, Rank};
use gms_order::degree_order;
use rayon::prelude::*;

/// Node-iterator triangle counting: for every vertex `v` and neighbor
/// `w`, accumulate `|N(v) ∩ N(w)|`; every triangle is counted six
/// times (twice per corner). Generic over the set layout.
pub fn triangle_count_node_iterator<S: Set>(graph: &SetGraph<S>) -> u64 {
    let total: u64 = (0..graph.num_vertices() as NodeId)
        .into_par_iter()
        .map(|v| {
            let nv = graph.neighborhood(v);
            nv.iter()
                .map(|w| nv.intersect_count(graph.neighborhood(w)) as u64)
                .sum::<u64>()
        })
        .sum();
    total / 6
}

/// Rank-merge triangle counting: orient by degree order, then count
/// `|N⁺(u) ∩ N⁺(v)|` over the DAG arcs — each triangle exactly once.
/// The degree order bounds forward degrees, the optimization §4.1.3
/// attributes to vertex reordering. Each arc is one allocation-free
/// count directly over the two CSR neighbor slices (galloping or
/// block-skipping merge, chosen by size skew).
pub fn triangle_count_rank_merge(graph: &CsrGraph) -> u64 {
    let rank = degree_order(graph);
    let relabeled = relabel(graph, &rank);
    let dag = orient_by_rank(&relabeled, &Rank::identity(relabeled.num_vertices()));
    count_forward_wedges(&dag)
}

/// `Σ |N⁺(u) ∩ N⁺(v)|` over the arcs `u -> v` of an oriented graph:
/// every triangle is closed exactly once, at its lowest-ranked corner.
fn count_forward_wedges(dag: &CsrGraph) -> u64 {
    (0..dag.num_vertices() as NodeId)
        .into_par_iter()
        .map(|u| {
            let nu = dag.neighbors_slice(u);
            nu.iter()
                .map(|&v| intersect_count_sorted_slices(nu, dag.neighbors_slice(v)) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Triangle counting over a gap-compressed CSR: decode once, orient,
/// count. [`CompressedCsr::orient_by_degree`] sweeps the index blocks
/// in parallel, decodes every neighborhood exactly once and keeps only
/// the forward neighbors under the `(degree, id)` order; the count is
/// then the same `|N⁺(u) ∩ N⁺(v)|` slice merge as
/// [`triangle_count_rank_merge`], so each triangle is seen once and
/// hubs — whose forward lists are short — cost what they cost on a raw
/// CSR. The compressed graph stays the only resident copy. The
/// transient cost, freed on return, is the sweep's buffer — one `u32`
/// slot per arc, of which only the packed forward half is kept — and
/// then the forward DAG it is trimmed to: one `u32` per *edge* (half
/// the raw adjacency) plus `n + 1` offsets. The number of allocations
/// is fixed by the pool width, not by the graph.
pub fn triangle_count_compressed(graph: &CompressedCsr) -> u64 {
    count_forward_wedges(&graph.orient_by_degree())
}

/// Touched-wedge triangle recount: the number of triangles containing
/// at least one vertex of `touched` (sorted, deduplicated). This is
/// the incremental-maintenance primitive for dynamic graphs — a
/// batched edge mutation can only create or destroy triangles whose
/// corners include a touched endpoint, so
/// `new = old - touched_count(old_graph) + touched_count(new_graph)`
/// with both recounts local to the mutation, not the whole graph.
///
/// Each qualifying triangle is counted exactly once, at its
/// minimum-id *touched* corner: for every touched `s`, every wedge
/// `u < v` in `N(s)` closed by an edge `(u, v)` contributes iff no
/// touched corner smaller than `s` exists. Cost is
/// `O(Σ_{s∈touched} deg(s)² · log deg)` — proportional to the touched
/// neighborhoods, independent of graph size.
pub fn triangle_count_touched(graph: &CsrGraph, touched: &[NodeId]) -> u64 {
    debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
    let is_touched = |v: NodeId| touched.binary_search(&v).is_ok();
    touched
        .par_iter()
        .map(|&s| {
            let ns = graph.neighbors_slice(s);
            let mut local = 0u64;
            for (i, &u) in ns.iter().enumerate() {
                if u < s && is_touched(u) {
                    continue; // counted at u
                }
                for &v in &ns[i + 1..] {
                    if v < s && is_touched(v) {
                        continue;
                    }
                    if graph.has_edge(u, v) {
                        local += 1;
                    }
                }
            }
            local
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_core::{DenseBitSet, RoaringSet, SortedVecSet};

    fn node_iter_count(graph: &CsrGraph) -> u64 {
        let sg: SetGraph<SortedVecSet> = SetGraph::from_csr(graph);
        triangle_count_node_iterator(&sg)
    }

    #[test]
    fn known_counts() {
        let paw = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(node_iter_count(&paw), 1);
        assert_eq!(triangle_count_rank_merge(&paw), 1);
        let k6 = gms_gen::complete(6);
        assert_eq!(node_iter_count(&k6), 20);
        assert_eq!(triangle_count_rank_merge(&k6), 20);
    }

    #[test]
    fn schemes_agree_across_set_layouts() {
        let g = gms_gen::gnp(120, 0.08, 4);
        let expected = triangle_count_rank_merge(&g);
        let sorted: SetGraph<SortedVecSet> = SetGraph::from_csr(&g);
        let roaring: SetGraph<RoaringSet> = SetGraph::from_csr(&g);
        let dense: SetGraph<DenseBitSet> = SetGraph::from_csr(&g);
        assert_eq!(triangle_count_node_iterator(&sorted), expected);
        assert_eq!(triangle_count_node_iterator(&roaring), expected);
        assert_eq!(triangle_count_node_iterator(&dense), expected);
    }

    /// The generator gallery plus the shapes that stress the decode
    /// sweep: hubs, paths, nothing at all, vertex counts on both sides
    /// of an index-block boundary, and an isolated tail.
    fn compressed_gallery() -> Vec<(&'static str, CsrGraph)> {
        let star = |n: u32| {
            let spokes: Vec<_> = (1..n).map(|v| (0, v)).collect();
            CsrGraph::from_undirected_edges(n as usize, &spokes)
        };
        // A hub over a ring: every ring edge closes a triangle with it.
        let wheel = |n: u32| {
            let mut edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
            edges.extend((1..n).map(|v| (v, if v + 1 < n { v + 1 } else { 1 })));
            CsrGraph::from_undirected_edges(n as usize, &edges)
        };
        let path = |n: u32| {
            let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
            CsrGraph::from_undirected_edges(n as usize, &edges)
        };
        // K5 on the first vertices, the rest of `n` isolated.
        let isolated_tail = |n: usize| {
            let edges: Vec<_> = (0..5u32)
                .flat_map(|u| (u + 1..5).map(move |v| (u, v)))
                .collect();
            CsrGraph::from_undirected_edges(n, &edges)
        };
        vec![
            ("gnp", gms_gen::gnp(120, 0.08, 4)),
            ("kron", gms_gen::kronecker_default(8, 6, 7)),
            ("kron-skewed", gms_gen::kronecker_default(10, 12, 7)),
            ("planted", gms_gen::planted_cliques(300, 0.02, 6, 7, 5).0),
            ("complete", gms_gen::complete(9)),
            ("grid", gms_gen::grid(8, 8)),
            ("star", star(200)),
            ("wheel-64", wheel(64)),
            ("wheel-65", wheel(65)),
            ("wheel-127", wheel(127)),
            ("path", path(130)),
            ("zero", CsrGraph::from_undirected_edges(0, &[])),
            ("edgeless", CsrGraph::from_undirected_edges(5, &[])),
            ("tail-128", isolated_tail(128)),
            ("tail-129", isolated_tail(129)),
            ("tail-191", isolated_tail(191)),
        ]
    }

    /// A `.gcsr` v2 file written and loaded back through the mmap path.
    fn through_mmap(compressed: &CompressedCsr, name: &str) -> CompressedCsr {
        use gms_graph::io::{load_snapshot_auto, save_snapshot_compressed};
        use gms_graph::GraphStore;
        let path = std::env::temp_dir().join(format!("gms_tri_{}_{name}.gcsr", std::process::id()));
        save_snapshot_compressed(compressed, &path).unwrap();
        let loaded = load_snapshot_auto(&path).unwrap();
        std::fs::remove_file(&path).ok();
        match loaded {
            GraphStore::Compressed(c) => c,
            GraphStore::Csr(_) => panic!("v2 must stay compressed"),
        }
    }

    #[test]
    fn compressed_counter_agrees_with_rank_merge_on_every_resident() {
        for (name, g) in &compressed_gallery() {
            let expected = triangle_count_rank_merge(g);
            let gap = CompressedCsr::from_csr(g);
            // Locality reordering relabels vertices; the triangle count
            // is an isomorphism invariant and must not change.
            let reordered = CompressedCsr::from_csr_ordered(g, &gms_order::bfs_order(g, 0));
            let mapped = through_mmap(&gap, name);
            for (resident, compressed) in [
                ("gap", &gap),
                ("gap+reorder", &reordered),
                ("mmap", &mapped),
            ] {
                assert_eq!(
                    triangle_count_compressed(compressed),
                    expected,
                    "{name} / {resident}"
                );
            }
        }
    }

    #[test]
    fn degree_orientation_keeps_each_edge_once() {
        for (name, g) in &compressed_gallery() {
            let dag = CompressedCsr::from_csr(g).orient_by_degree();
            assert_eq!(dag.num_vertices(), g.num_vertices(), "{name}");
            assert_eq!(2 * dag.num_arcs(), g.num_arcs(), "{name}");
            for u in dag.vertices() {
                let forward = dag.neighbors_slice(u);
                assert!(forward.windows(2).all(|w| w[0] < w[1]), "{name}: sorted");
                for &v in forward {
                    assert!(g.has_edge(u, v), "{name}: {u} -> {v} is an edge");
                    assert!((g.degree(u), u) < (g.degree(v), v), "{name}: {u} -> {v}");
                }
            }
        }
    }

    #[test]
    fn agrees_with_ordering_crate() {
        let g = gms_gen::kronecker_default(8, 6, 7);
        assert_eq!(triangle_count_rank_merge(&g), gms_order::triangle_count(&g));
    }

    #[test]
    fn touched_recount_matches_filtered_enumeration() {
        let g = gms_gen::gnp(80, 0.1, 9);
        // Reference: enumerate all triangles, keep those touching S.
        let all_with = |s: &[NodeId]| -> u64 {
            let mut count = 0u64;
            for u in 0..g.num_vertices() as NodeId {
                for &v in g.neighbors_slice(u).iter().filter(|&&v| v > u) {
                    for &w in g.neighbors_slice(v).iter().filter(|&&w| w > v) {
                        if g.has_edge(u, w)
                            && (s.binary_search(&u).is_ok()
                                || s.binary_search(&v).is_ok()
                                || s.binary_search(&w).is_ok())
                        {
                            count += 1;
                        }
                    }
                }
            }
            count
        };
        for touched in [
            vec![],
            vec![0],
            vec![3, 17, 42],
            (0..80).collect::<Vec<NodeId>>(),
        ] {
            assert_eq!(triangle_count_touched(&g, &touched), all_with(&touched));
        }
        // Touching everything is the full count.
        let everyone: Vec<NodeId> = (0..80).collect();
        assert_eq!(
            triangle_count_touched(&g, &everyone),
            triangle_count_rank_merge(&g)
        );
    }

    #[test]
    fn triangle_free_graphs() {
        assert_eq!(triangle_count_rank_merge(&gms_gen::grid(8, 8)), 0);
        let bipartite =
            CsrGraph::from_undirected_edges(6, &[(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5)]);
        assert_eq!(node_iter_count(&bipartite), 0);
    }
}
