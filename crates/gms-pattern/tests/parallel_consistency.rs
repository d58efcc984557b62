//! Scheduler-facing determinism suite: the work-stealing execution of
//! the mining kernels must be *semantically invisible*. Parallel runs
//! (multi-worker pool, join-split subtrees, edge-parallel recursive
//! split) must produce exactly the results of the sequential kernels
//! on the same inputs, for any interleaving the scheduler happens to
//! pick — which is exercised here on 20 seeded graphs per kernel.

use gms_core::DenseBitSet;
use gms_order::OrderingKind;
use gms_pattern::bk::SubgraphMode;
use gms_pattern::{bron_kerbosch, k_clique_count, BkConfig, KcConfig, KcParallel};

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
    // The split point between join-task levels and the sequential
    // scratch-reusing kernel must not matter.
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
    // The induced-subgraph variants route through the same join-split
    // machinery (including the per-level rebuild in branch leaves).
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
