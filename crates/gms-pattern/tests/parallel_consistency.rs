//! Scheduler-facing determinism suite: the work-stealing execution of
//! the mining kernels must be *semantically invisible*. Parallel runs
//! (multi-worker pool, work split on demand through `gms_core::split`:
//! Bron–Kerbosch's root ranges and subtrees, k-clique's root ranges and
//! the edge driver's branch walks in a segment's last root) must produce exactly
//! the results of the sequential kernels on the same inputs, for any
//! interleaving the scheduler happens to pick — which is exercised
//! here on 20 seeded graphs per kernel, and on one graph heavy enough
//! that BK's splits wait out their real heartbeat.
//!
//! The clique miners solve each root in a universe of its own
//! neighborhood's local ids, so the same suite pins them to the
//! brute-force oracles for every set layout, pool width and split depth,
//! on shapes whose local sets cross 64-bit word boundaries.

use gms_core::{
    CancelToken, CsrGraph, DenseBitSet, HashVertexSet, NodeId, RoaringSet, Set, SortedVecSet,
    SparseBitSet,
};
use gms_order::OrderingKind;
use gms_pattern::bk::SubgraphMode;
use gms_pattern::brute::{count_k_cliques_brute, maximal_cliques_brute};
use gms_pattern::{
    bron_kerbosch, k_clique_count, k_clique_count_cancellable_with, k_clique_count_with, BkConfig,
    KcConfig, KcParallel,
};

/// 20 deterministic graphs of varying size/density (seeded ER).
fn seeded_graphs() -> Vec<gms_core::CsrGraph> {
    (0..20u64)
        .map(|seed| {
            let n = 30 + (seed as usize % 5) * 10;
            let p = 0.15 + (seed % 3) as f64 * 0.08;
            gms_gen::gnp(n, p, seed)
        })
        .collect()
}

fn sequential_bk(graph: &gms_core::CsrGraph) -> (u64, Option<Vec<Vec<u32>>>) {
    // par_depth 0 + width-1 pool: the byte-identical sequential path.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let config = BkConfig {
        ordering: OrderingKind::Degeneracy,
        subgraph: SubgraphMode::None,
        collect: true,
        par_depth: 0,
    };
    let outcome = pool.install(|| bron_kerbosch::<DenseBitSet>(graph, &config));
    (outcome.clique_count, outcome.cliques)
}

#[test]
fn parallel_bk_matches_sequential_on_20_seeded_graphs() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    for (i, graph) in seeded_graphs().iter().enumerate() {
        let (seq_count, seq_cliques) = sequential_bk(graph);
        let config = BkConfig {
            ordering: OrderingKind::Degeneracy,
            subgraph: SubgraphMode::None,
            collect: true,
            par_depth: 3,
        };
        let outcome = pool.install(|| bron_kerbosch::<DenseBitSet>(graph, &config));
        assert_eq!(outcome.clique_count, seq_count, "graph {i}: clique count");
        assert_eq!(outcome.cliques, seq_cliques, "graph {i}: clique lists");
    }
}

#[test]
fn parallel_bk_subtree_depths_all_agree() {
    // How deep branches may be handed off must not matter.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let graph = gms_gen::gnp(60, 0.25, 42);
    let (seq_count, _) = sequential_bk(&graph);
    for par_depth in [1, 2, 5, 16] {
        let config = BkConfig {
            ordering: OrderingKind::Degeneracy,
            subgraph: SubgraphMode::None,
            collect: false,
            par_depth,
        };
        let outcome = pool.install(|| bron_kerbosch::<DenseBitSet>(&graph, &config));
        assert_eq!(outcome.clique_count, seq_count, "par_depth {par_depth}");
    }
}

#[test]
fn parallel_bk_consistent_across_subgraph_modes() {
    // The induced-subgraph variants route through the same splitter
    // (including the per-level rebuild in handed-off branches).
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    for seed in [3u64, 11, 27] {
        let graph = gms_gen::gnp(50, 0.2, seed);
        let (seq_count, _) = sequential_bk(&graph);
        for subgraph in [
            SubgraphMode::None,
            SubgraphMode::Outermost,
            SubgraphMode::PerLevel,
        ] {
            let config = BkConfig {
                ordering: OrderingKind::Degeneracy,
                subgraph,
                collect: false,
                par_depth: 3,
            };
            let outcome = pool.install(|| bron_kerbosch::<DenseBitSet>(&graph, &config));
            assert_eq!(outcome.clique_count, seq_count, "seed {seed} {subgraph:?}");
        }
    }
}

#[test]
fn parallel_bk_past_the_heartbeat_lists_the_width_1_cliques() {
    // Tens of milliseconds of search per run: workers hand off roots
    // and subtrees many heartbeats apart, in every mode and depth.
    let graph = gms_gen::gnp(300, 0.3, 9);
    for subgraph in [
        SubgraphMode::None,
        SubgraphMode::Outermost,
        SubgraphMode::PerLevel,
    ] {
        for par_depth in [0, 4] {
            let config = BkConfig {
                ordering: OrderingKind::Degeneracy,
                subgraph,
                collect: true,
                par_depth,
            };
            let sequential = pool(1).install(|| bron_kerbosch::<DenseBitSet>(&graph, &config));
            for threads in [2, 4] {
                let outcome =
                    pool(threads).install(|| bron_kerbosch::<DenseBitSet>(&graph, &config));
                let at = format!("{subgraph:?} depth {par_depth} {threads}T");
                assert_eq!(outcome.clique_count, sequential.clique_count, "{at}");
                assert_eq!(outcome.cliques, sequential.cliques, "{at}");
            }
        }
    }
}

#[test]
fn parallel_kclique_matches_sequential_on_20_seeded_graphs() {
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let pool4 = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    for (i, graph) in seeded_graphs().iter().enumerate() {
        for k in [3usize, 4] {
            for parallel in [KcParallel::Node, KcParallel::Edge] {
                let config = KcConfig {
                    ordering: OrderingKind::Degeneracy,
                    parallel,
                };
                let seq = pool1.install(|| k_clique_count(graph, k, &config)).count;
                let par = pool4.install(|| k_clique_count(graph, k, &config)).count;
                assert_eq!(par, seq, "graph {i} k {k} {parallel:?}");
            }
        }
    }
}

#[test]
fn compressed_triangle_count_is_pool_width_invariant() {
    // The decode sweep cuts its tasks by pool width and the counting
    // phase splits by it; neither may show in the answer. Skewed and
    // block-straddling graphs, gap and gap+reorder residents.
    let graphs = [
        gms_gen::kronecker_default(10, 12, 7),
        gms_gen::planted_cliques(517, 0.02, 8, 6, 3).0,
        gms_gen::gnp(191, 0.1, 5),
    ];
    for (i, graph) in graphs.iter().enumerate() {
        let expected = gms_pattern::triangle_count_rank_merge(graph);
        let gap = gms_graph::CompressedCsr::from_csr(graph);
        let rank = gms_order::bfs_order(graph, 0);
        let reordered = gms_graph::CompressedCsr::from_csr_ordered(graph, &rank);
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for (resident, compressed) in [("gap", &gap), ("gap+reorder", &reordered)] {
                let count = pool.install(|| gms_pattern::triangle_count_compressed(compressed));
                assert_eq!(count, expected, "graph {i} {resident} threads {threads}");
                let csr = pool.install(|| compressed.to_csr());
                assert_eq!(
                    gms_pattern::triangle_count_rank_merge(&csr),
                    expected,
                    "graph {i} {resident} threads {threads}: to_csr"
                );
            }
        }
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// A hub over `d` leaves that form a ring with the chords `i — i+2`,
/// so the hub's universe has exactly `d` members, its maximal cliques
/// are 4-cliques, and its 5-cliques are none.
fn hub(d: u32) -> CsrGraph {
    let mut edges: Vec<(NodeId, NodeId)> = (1..=d).map(|v| (0, v)).collect();
    for i in 0..d {
        edges.push((1 + i, 1 + (i + 1) % d));
        edges.push((1 + i, 1 + (i + 2) % d));
    }
    CsrGraph::from_undirected_edges(d as usize + 1, &edges)
}

/// The shapes the local universes must survive: random, planted,
/// complete, nothing at all, isolated vertices, a star (under a
/// degeneracy order the center is last, so its `P` is empty and its
/// `X` is every leaf), and roots whose neighborhoods straddle one and
/// two 64-bit words.
fn universe_gallery() -> Vec<(String, CsrGraph)> {
    let star: Vec<(NodeId, NodeId)> = (1..40).map(|v| (0, v)).collect();
    let mut gallery = vec![
        ("gnp".to_string(), gms_gen::gnp(40, 0.3, 1)),
        (
            "planted".to_string(),
            gms_gen::planted_cliques(120, 0.03, 3, 7, 5).0,
        ),
        ("complete".to_string(), gms_gen::complete(9)),
        ("empty".to_string(), CsrGraph::from_undirected_edges(0, &[])),
        (
            "isolated".to_string(),
            CsrGraph::from_undirected_edges(7, &[(1, 2), (2, 3), (1, 3)]),
        ),
        (
            "star".to_string(),
            CsrGraph::from_undirected_edges(40, &star),
        ),
    ];
    for d in [63, 64, 65, 128, 129] {
        gallery.push((format!("hub-{d}"), hub(d)));
    }
    gallery
}

/// Every pool under two orders: the degeneracy order puts each hub and
/// the star's center last, so their neighbors are all `X` (and their
/// forward neighborhoods empty); the natural order puts them first, so
/// their neighborhoods are all `P` (and all forward) and their local
/// rows cross the word boundaries.
fn orders_and_pools(
    pools: &[(usize, rayon::ThreadPool)],
) -> impl Iterator<Item = (OrderingKind, &(usize, rayon::ThreadPool))> {
    [OrderingKind::Degeneracy, OrderingKind::Natural]
        .into_iter()
        .flat_map(move |ordering| pools.iter().map(move |pool| (ordering, pool)))
}

/// Maximal cliques by brute force. The oracle reports the empty clique
/// of a vertex-free graph; the kernel reports none.
fn brute_cliques(graph: &CsrGraph) -> Vec<Vec<NodeId>> {
    let mut cliques = maximal_cliques_brute(graph);
    cliques.retain(|c| !c.is_empty());
    cliques
}

fn check_bk_layout<S: Set>(layout: &str, pools: &[(usize, rayon::ThreadPool)]) {
    for (name, graph) in universe_gallery() {
        let expected = brute_cliques(&graph);
        let largest = expected.iter().map(Vec::len).max().unwrap_or(0);
        for subgraph in [
            SubgraphMode::None,
            SubgraphMode::Outermost,
            SubgraphMode::PerLevel,
        ] {
            for (ordering, (threads, pool)) in orders_and_pools(pools) {
                for par_depth in [0, 1, 4] {
                    let config = BkConfig {
                        ordering,
                        subgraph,
                        collect: true,
                        par_depth,
                    };
                    let out = pool.install(|| bron_kerbosch::<S>(&graph, &config));
                    let at = format!(
                        "{name} {layout} {subgraph:?} {} {threads}T depth {par_depth}",
                        ordering.label()
                    );
                    assert_eq!(out.clique_count as usize, expected.len(), "{at}: count");
                    assert_eq!(out.cliques.as_ref(), Some(&expected), "{at}: cliques");
                    assert_eq!(out.largest, largest, "{at}: largest");
                }
            }
        }
    }
}

#[test]
fn local_universe_bk_matches_brute_force_for_every_layout_width_and_depth() {
    let pools: Vec<_> = [1, 2, 4].map(|t| (t, pool(t))).into();
    check_bk_layout::<DenseBitSet>("dense", &pools);
    check_bk_layout::<SortedVecSet>("sorted", &pools);
    check_bk_layout::<RoaringSet>("roaring", &pools);
    check_bk_layout::<HashVertexSet>("hash", &pools);
    check_bk_layout::<SparseBitSet>("sparse-bits", &pools);
}

fn check_kclique_layout<S: Set>(layout: &str, pools: &[(usize, rayon::ThreadPool)]) {
    for (name, graph) in universe_gallery() {
        for k in 3..=7 {
            let expected = count_k_cliques_brute(&graph, k);
            for parallel in [KcParallel::Node, KcParallel::Edge] {
                for (ordering, (threads, pool)) in orders_and_pools(pools) {
                    let config = KcConfig { ordering, parallel };
                    let count = pool
                        .install(|| k_clique_count_with::<S>(&graph, k, &config))
                        .count;
                    assert_eq!(
                        count,
                        expected,
                        "{name} {layout} k {k} {parallel:?} {} {threads}T",
                        ordering.label()
                    );
                }
            }
        }
    }
}

#[test]
fn local_universe_kclique_matches_brute_force_for_every_layout_driver_and_width() {
    let pools: Vec<_> = [1, 2, 4].map(|t| (t, pool(t))).into();
    check_kclique_layout::<DenseBitSet>("dense", &pools);
    check_kclique_layout::<SortedVecSet>("sorted", &pools);
    check_kclique_layout::<RoaringSet>("roaring", &pools);
}

#[test]
fn a_fired_token_zeroes_both_kclique_drivers() {
    let graph = gms_gen::planted_cliques(120, 0.03, 3, 7, 5).0;
    let fired = CancelToken::manual();
    fired.cancel();
    for parallel in [KcParallel::Node, KcParallel::Edge] {
        let config = KcConfig {
            ordering: OrderingKind::Degeneracy,
            parallel,
        };
        for threads in [1, 2, 4] {
            let pool = pool(threads);
            for k in [3, 4, 5] {
                let live = pool.install(|| k_clique_count(&graph, k, &config)).count;
                assert!(live > 0, "{parallel:?} k {k}");
                let out = pool.install(|| {
                    k_clique_count_cancellable_with::<DenseBitSet>(&graph, k, &config, &fired)
                });
                assert_eq!(out.count, 0, "{parallel:?} {threads}T k {k}");
            }
        }
    }
}
