//! Triangle counting (Table 4: "different variants of Triangle
//! Counting"): the *node-iterator* and *rank-merge* schemes the
//! paper's representation analysis (Table 8) contrasts. Both are
//! expressed with set intersections (⑤⁺) — the `tc += |N(v) ∩ N(w)|`
//! snippet of Figure 2 verbatim.
//!
//! The rank-merge scheme is one count over one DAG for every
//! resident. The graph is oriented under the `(degree, id)` order —
//! [`gms_graph::orient_by_degree`] on raw arrays,
//! [`CompressedCsr::orient_by_degree`] decoding every neighborhood once
//! on a gap-compressed one — with vertex IDs unchanged, so no relabeled
//! copy is made. The count then uses the paper's dense-bitset
//! intersection: a worker marks `N⁺(u)` once in an `n`-bit bitmap,
//! adds the marked bits of `N⁺(v)` for every `v ∈ N⁺(u)`, and clears
//! its marks — `|N⁺(u) ∩ N⁺(v)|` at one bit probe per element of
//! `N⁺(v)`, with no branchy merge.

use gms_core::split::with_worker_scratch;
use gms_core::{CancelToken, CsrGraph, Graph, NodeId, Set, SetGraph};
use gms_graph::{orient_by_degree, CompressedCsr, GraphView};
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

/// Rank-merge triangle counting on raw CSR arrays: orient by the
/// `(degree, id)` order, then count `|N⁺(u) ∩ N⁺(v)|` over the DAG
/// arcs — each triangle exactly once. The degree order bounds forward
/// degrees, the optimization §4.1.3 attributes to vertex reordering.
pub fn triangle_count_rank_merge(graph: &CsrGraph) -> u64 {
    triangle_count_cancellable(GraphView::Raw(graph), &CancelToken::none())
}

/// Triangle counting over a gap-compressed CSR: decode once, orient,
/// count. [`CompressedCsr::orient_by_degree`] sweeps the index blocks
/// in parallel, decodes every neighborhood exactly once and keeps only
/// the forward neighbors; the count is then the one
/// [`triangle_count_rank_merge`] runs, so hubs — whose forward lists
/// are short — cost what they cost on a raw CSR. The compressed graph
/// stays the only resident copy. The transient cost, freed on return,
/// is the sweep's buffer — one `u32` slot per arc, of which only the
/// packed forward half is kept — and then the forward DAG it is
/// trimmed to: one `u32` per *edge* (half the raw adjacency) plus
/// `n + 1` offsets. The number of allocations is fixed by the pool
/// width, not by the graph.
pub fn triangle_count_compressed(graph: &CompressedCsr) -> u64 {
    triangle_count_cancellable(GraphView::Compressed(graph), &CancelToken::none())
}

/// Rank-merge triangle counting on any resident under a cooperative
/// [`CancelToken`], probed once per chunk of vertices. A fired token
/// yields a partial count the caller must discard.
pub fn triangle_count_cancellable(graph: GraphView<'_>, cancel: &CancelToken) -> u64 {
    let dag = match graph {
        GraphView::Raw(graph) => orient_by_degree(graph),
        GraphView::Compressed(graph) => graph.orient_by_degree(),
    };
    count_forward_wedges(&dag, cancel)
}

/// Vertices per counting task: each pays one cancellation probe and
/// one scratch checkout.
const COUNT_CHUNK: usize = 256;

/// A worker's `n`-bit marks of `N⁺(u)`, all clear between uses.
#[derive(Default)]
struct Marks(Vec<u64>);

/// `Σ |N⁺(u) ∩ N⁺(v)|` over the arcs `u -> v` of an oriented graph:
/// every triangle is closed exactly once, at its lowest-ranked corner.
/// A re-entrant scratch borrow hands out a fresh, empty bitmap, so the
/// bitmap is sized here, not assumed.
fn count_forward_wedges(dag: &CsrGraph, cancel: &CancelToken) -> u64 {
    let n = dag.num_vertices();
    let words = n.div_ceil(64);
    (0..n.div_ceil(COUNT_CHUNK))
        .into_par_iter()
        .map(|chunk| {
            if cancel.is_cancelled() {
                return 0;
            }
            with_worker_scratch(|Marks(marks)| {
                if marks.len() < words {
                    marks.resize(words, 0);
                }
                let mut count = 0u64;
                for u in chunk * COUNT_CHUNK..n.min((chunk + 1) * COUNT_CHUNK) {
                    let nu = dag.neighbors_slice(u as NodeId);
                    if nu.len() < 2 {
                        continue;
                    }
                    for &v in nu {
                        marks[v as usize / 64] |= 1 << (v % 64);
                    }
                    for &v in nu {
                        for &w in dag.neighbors_slice(v) {
                            count += (marks[w as usize / 64] >> (w % 64)) & 1;
                        }
                    }
                    for &v in nu {
                        marks[v as usize / 64] = 0;
                    }
                }
                count
            })
        })
        .sum()
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

    /// A `.gcsr` v2 file written and loaded back.
    fn through_gcsr(compressed: &CompressedCsr, name: &str) -> CompressedCsr {
        use gms_graph::io::{load_snapshot, save_snapshot_compressed};
        use gms_graph::GraphStore;
        let path = std::env::temp_dir().join(format!("gms_tri_{}_{name}.gcsr", std::process::id()));
        save_snapshot_compressed(compressed, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        match loaded {
            GraphStore::Compressed(c) => c,
            GraphStore::Csr(_) => panic!("v2 must stay compressed"),
        }
    }

    #[test]
    fn one_count_agrees_with_the_node_iterator_on_every_resident() {
        for (name, g) in &compressed_gallery() {
            let expected = node_iter_count(g);
            let gap = CompressedCsr::from_csr(g);
            // Locality reordering relabels vertices; the triangle count
            // is an isomorphism invariant and must not change.
            let reordered = CompressedCsr::from_csr_ordered(g, &gms_order::bfs_order(g, 0));
            let from_file = through_gcsr(&gap, name);
            assert_eq!(triangle_count_rank_merge(g), expected, "{name} / raw");
            for (resident, compressed) in [
                ("gap", &gap),
                ("gap+reorder", &reordered),
                ("gcsr v2", &from_file),
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
    fn degree_orientation_is_one_dag_on_both_representations() {
        for (name, g) in &compressed_gallery() {
            let dag = orient_by_degree(g);
            assert_eq!(
                dag,
                CompressedCsr::from_csr(g).orient_by_degree(),
                "{name}: raw and compressed orientations differ"
            );
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
    fn rank_orientation_matches_the_builder_definition() {
        use gms_core::CsrBuilder;
        use gms_graph::{orient_by_rank, Rank};
        // The definition before the two-pass filter: every kept arc
        // through a builder that sorts and deduplicates.
        let reference = |g: &CsrGraph, rank: &Rank| {
            let mut builder = CsrBuilder::new(g.num_vertices());
            for (u, v) in g.arcs().filter(|&(u, v)| rank.precedes(u, v)) {
                builder.push_arc(u, v);
            }
            builder.finish_dedup()
        };
        for (name, g) in &compressed_gallery() {
            let n = g.num_vertices();
            let reversed: Vec<u32> = (0..n as u32).rev().collect();
            for (order, rank) in [
                ("identity", Rank::identity(n)),
                ("reversed", Rank::from_ranks(reversed)),
                ("degree", gms_order::degree_order(g)),
                ("bfs", gms_order::bfs_order(g, 0)),
            ] {
                assert_eq!(
                    orient_by_rank(g, &rank),
                    reference(g, &rank),
                    "{name} under the {order} order"
                );
            }
        }
    }

    #[test]
    fn a_reentrant_count_sizes_its_own_bitmap() {
        // On a one-thread pool the count runs on the thread that holds
        // the outer borrow — which took the worker's sized bitmap — so
        // it is handed a fresh, empty one.
        let g = gms_gen::kronecker_default(8, 6, 7);
        let expected = node_iter_count(&g);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        assert_eq!(pool.install(|| triangle_count_rank_merge(&g)), expected);
        let inner = pool.install(|| {
            with_worker_scratch(|outer: &mut Marks| {
                assert!(!outer.0.is_empty(), "the worker's bitmap was sized");
                triangle_count_rank_merge(&g)
            })
        });
        assert_eq!(inner, expected);
    }

    #[test]
    fn a_fired_token_stops_the_count() {
        let g = gms_gen::kronecker_default(10, 12, 7);
        let gap = CompressedCsr::from_csr(&g);
        let fired = CancelToken::manual();
        fired.cancel();
        for view in [GraphView::Raw(&g), GraphView::Compressed(&gap)] {
            assert!(triangle_count_cancellable(view, &CancelToken::none()) > 0);
            assert_eq!(triangle_count_cancellable(view, &fired), 0);
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
