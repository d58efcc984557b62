//! Integration tests spanning crates: the full GMS pipeline
//! (generate → characterize → reorder → mine → verify) with every
//! stage from a different crate, and the same pipeline run by kernel
//! name through a `Session`, whose `Outcome` times the preprocessing
//! and kernel stages separately.

use gms::order::{approx_degeneracy_order, degeneracy_order, later_neighbor_bound};
use gms::pattern::brute::{is_maximal_clique, maximal_cliques_brute};
use gms::prelude::*;

#[test]
fn generate_reorder_mine_verify() {
    let (graph, planted) = gms::gen::planted_cliques(400, 0.01, 4, 8, 17);

    // Preprocess: ADG order; check its (2+ε)d invariant against the
    // exact degeneracy.
    let exact = degeneracy_order(&graph);
    let adg = approx_degeneracy_order(&graph, 0.25);
    assert!(
        adg.out_degree_bound as f64 <= (2.0 + 0.25) * exact.degeneracy as f64 + 1.0,
        "ADG bound {} vs (2+ε)d = {}",
        adg.out_degree_bound,
        (2.0 + 0.25) * exact.degeneracy as f64
    );

    // Mine: all BK variants agree and recover the planted cliques.
    let reference = BkVariant::Das.run_with(&graph, true);
    for variant in [
        BkVariant::GmsDeg,
        BkVariant::GmsDgr,
        BkVariant::GmsAdg,
        BkVariant::GmsAdgS,
    ] {
        let outcome = variant.run_with(&graph, true);
        assert_eq!(outcome.cliques, reference.cliques, "{}", variant.label());
    }
    let cliques = reference.cliques.unwrap();
    for group in &planted {
        let mut sorted = group.clone();
        sorted.sort_unstable();
        assert!(
            cliques.iter().any(|c| sorted.iter().all(|v| c.contains(v))),
            "planted clique missing"
        );
    }
    // Verify: every clique is maximal (cross-checked by the oracle
    // predicate from a third crate).
    for clique in cliques.iter().take(50) {
        assert!(is_maximal_clique(&graph, clique));
    }
}

/// The pipeline's stages (§5.4) are timed separately on the
/// `Outcome` every caller reads: BK with the ADG preprocessing stage,
/// requested by name through a `Session`.
#[test]
fn bk_through_the_pipeline_interface() {
    let graph = gms::gen::gnp(120, 0.08, 5);
    let expected = maximal_cliques_brute(&graph).len() as u64;
    let mut session = Session::new();
    let g = session.add_graph(graph);
    let outcome = session
        .run("bk", g, &Params::new().with("ordering", "adg"))
        .unwrap();
    assert_eq!(outcome.patterns, expected, "registry-run BK equals oracle");
    assert!(outcome.timings.preprocess > std::time::Duration::ZERO);
    assert!(outcome.timings.kernel > std::time::Duration::ZERO);
}

#[test]
fn ordering_quality_ladder() {
    // On a skewed graph: degeneracy-based orders bound later-neighbors
    // by d and (2+ε)d; degree order gives no such guarantee but is
    // still a valid permutation. (The Fig. 6 relationships.)
    let graph = gms::gen::kronecker_default(10, 8, 13);
    let exact = degeneracy_order(&graph);
    let dgr_bound = later_neighbor_bound(&graph, &exact.rank);
    assert_eq!(dgr_bound, exact.degeneracy);
    for eps in [0.01, 0.1, 0.5] {
        let adg = approx_degeneracy_order(&graph, eps);
        assert!(
            adg.out_degree_bound >= dgr_bound,
            "approximation cannot beat exact"
        );
        assert!(
            adg.out_degree_bound as f64 <= (2.0 + eps) * exact.degeneracy as f64 + 1.0,
            "ε = {eps}"
        );
        // O(log n) rounds — generous constant.
        assert!(adg.rounds <= 48, "rounds {} for ε {eps}", adg.rounds);
    }
}

#[test]
fn compressed_representations_mine_identically() {
    use gms::graph::CompressedCsr;
    let graph = gms::gen::gnp(150, 0.06, 23);
    let compressed = CompressedCsr::from_csr(&graph);
    let roundtrip = compressed.to_csr();
    assert_eq!(roundtrip, graph);
    // Mine on the decompressed graph; counts must match the original.
    let a = BkVariant::GmsAdg.run(&graph).clique_count;
    let b = BkVariant::GmsAdg.run(&roundtrip).clique_count;
    assert_eq!(a, b);
}

#[test]
fn edge_list_io_roundtrip_preserves_mining_results() {
    let graph = gms::gen::gnp(100, 0.1, 31);
    let mut buffer = Vec::new();
    gms::graph::io::write_edge_list(&graph, &mut buffer).unwrap();
    let edges = gms::graph::io::read_edge_list(buffer.as_slice()).unwrap();
    let reloaded = CsrGraph::from_undirected_edges(graph.num_vertices(), &edges);
    assert_eq!(reloaded, graph);
    assert_eq!(
        k_clique_count(&graph, 4, &KcConfig::default()).count,
        k_clique_count(&reloaded, 4, &KcConfig::default()).count
    );
}
