//! Cross-crate consistency: independent implementations in different
//! crates must agree on overlapping quantities (triangles three ways,
//! cliques vs isomorphism counts, cores vs cliques, ...).

use gms::matching::{count_embeddings, IsoOptions, LabeledGraph};
use gms::order::{degeneracy_order, triangle_count};
use gms::pattern::{triangle_count_node_iterator, triangle_count_rank_merge};
use gms::prelude::*;

fn factorial(k: u64) -> u64 {
    (1..=k).product()
}

#[test]
fn triangles_three_ways() {
    for seed in 0..3 {
        let graph = gms::gen::gnp(150, 0.07, seed);
        let a = triangle_count(&graph); // gms-order
        let b = triangle_count_rank_merge(&graph); // gms-pattern
        let sg: SetGraph<RoaringSet> = SetGraph::from_csr(&graph);
        let c = triangle_count_node_iterator(&sg); // gms-pattern, set-centric
        let d = k_clique_count(&graph, 3, &KcConfig::default()).count; // Algorithm 7
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(a, c, "seed {seed}");
        assert_eq!(a, d, "seed {seed}");
    }
}

#[test]
fn kclique_count_equals_unlabeled_isomorphism_over_automorphisms() {
    // #embeddings of K_k = (#k-cliques) × k!, since every ordering of a
    // clique is a distinct mapping.
    let graph = gms::gen::gnp(40, 0.3, 4);
    let target = LabeledGraph::unlabeled(graph.clone());
    for k in 3..=4u64 {
        let cliques = k_clique_count(&graph, k as usize, &KcConfig::default()).count;
        let query = LabeledGraph::unlabeled(gms::gen::complete(k as usize));
        let embeddings = count_embeddings(&query, &target, &IsoOptions::default());
        assert_eq!(embeddings, cliques * factorial(k), "k = {k}");
    }
}

#[test]
fn largest_maximal_clique_bounded_by_degeneracy() {
    for seed in 0..3 {
        let graph = gms::gen::kronecker_default(9, 7, seed);
        let bk = BkVariant::GmsAdg.run(&graph);
        let d = degeneracy_order(&graph).degeneracy;
        assert!(
            bk.largest <= d + 1,
            "clique size {} exceeds d+1 = {}",
            bk.largest,
            d + 1
        );
        // And the max-clique size equals the largest k with a nonzero
        // k-clique count.
        if bk.largest >= 2 {
            assert!(k_clique_count(&graph, bk.largest, &KcConfig::default()).count > 0);
            assert_eq!(
                k_clique_count(&graph, bk.largest + 1, &KcConfig::default()).count,
                0
            );
        }
    }
}

#[test]
fn kcore_contains_all_large_cliques() {
    let (graph, _) = gms::gen::planted_cliques(300, 0.01, 3, 7, 9);
    // Every 7-clique lives inside the 6-core.
    let core: std::collections::HashSet<NodeId> = gms::order::k_core_by_peeling(&graph, 6)
        .into_iter()
        .collect();
    let outcome = BkVariant::GmsDgr.run_with(&graph, true);
    for clique in outcome.cliques.unwrap() {
        if clique.len() >= 7 {
            for v in clique {
                assert!(core.contains(&v), "clique vertex {v} outside 6-core");
            }
        }
    }
}

#[test]
fn coloring_bounded_by_clique_and_degeneracy() {
    let graph = gms::gen::gnp(150, 0.08, 6);
    let dgr = degeneracy_order(&graph);
    let mut reversed = dgr.rank.order();
    reversed.reverse();
    let colors = gms::opt::greedy_coloring(&graph, &Rank::from_order(&reversed));
    let used = gms::opt::verify_coloring(&graph, &colors).expect("proper");
    // χ ≥ ω (clique number) and smallest-last greedy ≤ d + 1.
    let omega = BkVariant::GmsAdg.run(&graph).largest;
    assert!(used >= omega, "colors {used} < clique number {omega}");
    assert!(used <= dgr.degeneracy + 1);
}

#[test]
fn similarity_common_neighbors_equals_triangles_on_edges() {
    // Σ_{(u,v) ∈ E} |N(u) ∩ N(v)| counts each triangle 3 times.
    let graph = gms::gen::gnp(100, 0.1, 8);
    let sg: SetGraph<SortedVecSet> = SetGraph::from_csr(&graph);
    let total: f64 = graph
        .edges_undirected()
        .map(|(u, v)| gms::learn::similarity(&sg, SimilarityMeasure::CommonNeighbors, u, v))
        .sum();
    assert_eq!(total as u64, 3 * triangle_count(&graph));
}

#[test]
fn clique_star_satellites_match_isomorphism_counts_on_k5() {
    // Sanity chain across three crates on K5: C(5,3)=10 triangles,
    // each with 2 satellites.
    let g = gms::gen::complete(5);
    let adg = OrderingKind::ApproxDegeneracy(0.25);
    let stars =
        gms::pattern::k_clique_stars(&g, 3, 1, adg, true, &gms::core::CancelToken::none()).stars;
    assert_eq!(stars.len(), 10);
    assert!(stars.iter().all(|s| s.satellites.len() == 2));
}

#[test]
fn mincut_of_planted_partition_respects_structure() {
    // Two dense blocks with few cross edges: the min cut is at most
    // the cross-edge count (and nonzero when connected).
    let (graph, truth) = gms::gen::planted_partition(60, 2, 0.5, 0.02, 12);
    let cross = graph
        .edges_undirected()
        .filter(|&(u, v)| truth[u as usize] != truth[v as usize])
        .count();
    if cross > 0 {
        let cut = gms::opt::min_cut(&graph, 40, 9);
        assert!(cut <= cross, "cut {cut} > cross edges {cross}");
    }
}
