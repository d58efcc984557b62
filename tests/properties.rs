//! Workspace-level property-based tests (proptest): invariants that
//! must hold for arbitrary generated graphs and arbitrary operation
//! sequences, spanning multiple crates.

use gms::graph::compress::{gap, varint};
use gms::graph::CompressedCsr;
use gms::order::{approx_degeneracy_order, degeneracy_order, later_neighbor_bound};
use gms::prelude::*;
use proptest::prelude::*;

/// Strategy: a small undirected graph as (n, edge list).
fn small_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (3usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..60);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bk_count_is_invariant_under_any_ordering((n, edges) in small_graph()) {
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        let orderings = [
            OrderingKind::Natural,
            OrderingKind::Degree,
            OrderingKind::Degeneracy,
            OrderingKind::ApproxDegeneracy(0.3),
            OrderingKind::TriangleCount,
        ];
        let counts: Vec<u64> = orderings
            .iter()
            .map(|&ordering| {
                bron_kerbosch::<SortedVecSet>(
                    &graph,
                    &BkConfig {
                        ordering,
                        subgraph: SubgraphMode::None,
                        collect: false,
                        ..BkConfig::default()
                    },
                )
                .clique_count
            })
            .collect();
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn bk_set_layouts_agree((n, edges) in small_graph()) {
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        let config = BkConfig {
            ordering: OrderingKind::Degeneracy,
            subgraph: SubgraphMode::None,
            collect: true,
            ..BkConfig::default()
        };
        let sorted = bron_kerbosch::<SortedVecSet>(&graph, &config);
        let roaring = bron_kerbosch::<RoaringSet>(&graph, &config);
        let dense = bron_kerbosch::<DenseBitSet>(&graph, &config);
        prop_assert_eq!(&sorted.cliques, &roaring.cliques);
        prop_assert_eq!(&sorted.cliques, &dense.cliques);
    }

    #[test]
    fn kclique_drivers_and_orders_agree((n, edges) in small_graph(), k in 3usize..6) {
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        let reference = k_clique_count(
            &graph,
            k,
            &KcConfig { ordering: OrderingKind::Natural, parallel: KcParallel::Node },
        ).count;
        for parallel in [KcParallel::Node, KcParallel::Edge] {
            for ordering in [OrderingKind::Degree, OrderingKind::ApproxDegeneracy(0.5)] {
                let got = k_clique_count(&graph, k, &KcConfig { ordering, parallel }).count;
                prop_assert_eq!(got, reference);
            }
        }
    }

    #[test]
    fn degeneracy_invariants((n, edges) in small_graph()) {
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        let exact = degeneracy_order(&graph);
        // The peeling order achieves its bound.
        prop_assert_eq!(later_neighbor_bound(&graph, &exact.rank), exact.degeneracy);
        // Core numbers peak at the degeneracy.
        let max_core = exact.core_numbers.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(max_core as usize, exact.degeneracy);
        // ADG respects (2+ε)d for several ε.
        for eps in [0.1, 0.5] {
            let adg = approx_degeneracy_order(&graph, eps);
            let bound = ((2.0 + eps) * exact.degeneracy as f64).ceil() as usize;
            prop_assert!(adg.out_degree_bound <= bound.max(1));
        }
    }

    #[test]
    fn relabel_preserves_structure((n, edges) in small_graph(), seed in 0u64..1000) {
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        // Pseudo-random permutation from the seed.
        let mut order: Vec<NodeId> = (0..n as u32).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let rank = Rank::from_order(&order);
        let relabeled = relabel(&graph, &rank);
        prop_assert_eq!(relabeled.num_arcs(), graph.num_arcs());
        // Edge (u,v) exists iff (rank(u), rank(v)) exists.
        for (u, v) in graph.edges_undirected() {
            prop_assert!(relabeled.has_edge(rank.rank_of(u), rank.rank_of(v)));
        }
        // Mining results are permutation-invariant.
        prop_assert_eq!(
            BkVariant::GmsDgr.run(&graph).clique_count,
            BkVariant::GmsDgr.run(&relabeled).clique_count
        );
    }

    #[test]
    fn compression_roundtrips((n, edges) in small_graph()) {
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        let compressed = CompressedCsr::from_csr(&graph);
        prop_assert_eq!(compressed.to_csr(), graph);
    }

    #[test]
    fn varint_gap_roundtrip(values in proptest::collection::btree_set(0u32..1_000_000, 0..200)) {
        let sorted: Vec<u32> = values.into_iter().collect();
        // Varint.
        let encoded = varint::encode_slice(&sorted);
        prop_assert_eq!(varint::decode_slice(&encoded, sorted.len()), Some(sorted.clone()));
        // Gap.
        let encoded = gap::encode(&sorted);
        prop_assert_eq!(gap::decode(&encoded, sorted.len()), Some(sorted));
    }

    #[test]
    fn set_ops_respect_algebra_laws(
        a in proptest::collection::btree_set(0u32..500, 0..80),
        b in proptest::collection::btree_set(0u32..500, 0..80),
    ) {
        let av: Vec<u32> = a.iter().copied().collect();
        let bv: Vec<u32> = b.iter().copied().collect();
        fn laws<S: Set>(av: &[u32], bv: &[u32]) {
            let sa = S::from_sorted(av);
            let sb = S::from_sorted(bv);
            // Commutativity.
            assert_eq!(sa.intersect(&sb), sb.intersect(&sa));
            assert_eq!(sa.union(&sb), sb.union(&sa));
            // De Morgan-ish: |A| = |A ∩ B| + |A \ B|.
            assert_eq!(
                sa.cardinality(),
                sa.intersect_count(&sb) + sa.diff_count(&sb)
            );
            // Absorption: A ∪ (A ∩ B) = A.
            assert_eq!(sa.union(&sa.intersect(&sb)), sa);
            // Distribution over the empty set.
            assert_eq!(sa.intersect(&S::empty()), S::empty());
            assert_eq!(sa.union(&S::empty()), sa);
        }
        laws::<SortedVecSet>(&av, &bv);
        laws::<RoaringSet>(&av, &bv);
        laws::<DenseBitSet>(&av, &bv);
        laws::<HashVertexSet>(&av, &bv);
    }

    #[test]
    fn triangle_counters_agree((n, edges) in small_graph()) {
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        let a = gms::order::triangle_count(&graph);
        let b = gms::pattern::triangle_count_rank_merge(&graph);
        let sg: SetGraph<SortedVecSet> = SetGraph::from_csr(&graph);
        let c = gms::pattern::triangle_count_node_iterator(&sg);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, c);
    }
}
