//! (2+ε)-approximate degeneracy ordering (ADG, §6.1, Algorithm 5).
//!
//! The exact peeling removes one vertex per step (O(n) parallel
//! iterations); ADG instead removes a *batch* per round: all vertices
//! whose degree in the surviving subgraph `U` is at most `(1+ε)·δ̂_U`,
//! where `δ̂_U` is the average degree of `U`. At least an ε/(2+2ε)
//! fraction of `U` leaves every round, so there are O(log n) rounds
//! for any ε > 0 (Lemma 7.1: O(m) work, O(log² n) depth), and every
//! vertex has at most `(2+ε)·d` neighbors ranked later.
//!
//! One sequential peel does the O(n + m) work and emits the order
//! sorted by (round, id) itself; the crate docs give its cost model,
//! why it is not parallel, and which entry point kernels use.

use crate::degeneracy::later_neighbor_bound;
use gms_core::{CsrGraph, Graph, NodeId};
use gms_graph::Rank;

/// Result of the approximate degeneracy computation.
#[derive(Clone, Debug)]
pub struct ApproxDegeneracy {
    /// The ADG ordering: vertices sorted by (round, vertex ID).
    pub rank: Rank,
    /// Round in which each vertex was removed (the `η` priorities of
    /// Algorithm 5).
    pub round_of: Vec<u32>,
    /// Number of rounds — O(log n) for any fixed ε (checked in the
    /// Table 5 experiments).
    pub rounds: usize,
    /// The resulting later-neighbor bound, `max_v |{w ∈ N(v) :
    /// rank(w) > rank(v)}|`; at most `(2+ε)·d` by construction.
    pub out_degree_bound: usize,
}

/// Computes the (2+ε)-approximate degeneracy order (Algorithm 5) with
/// its Table 5 diagnostics.
///
/// # Panics
/// Panics unless `epsilon` is finite and non-negative: ε < 0 no longer
/// guarantees progress, and ε = ∞ makes the threshold ∞·0 = NaN once
/// the survivors' average degree is 0, so nothing would ever leave.
pub fn approx_degeneracy_order(graph: &CsrGraph, epsilon: f64) -> ApproxDegeneracy {
    let (order, round_of, rounds) = peel(graph, epsilon);
    let rank = Rank::from_order(&order);
    let out_degree_bound = later_neighbor_bound(graph, &rank);
    ApproxDegeneracy {
        rank,
        round_of,
        rounds,
        out_degree_bound,
    }
}

/// The ADG rounds: order sorted by (round, id), each vertex's round,
/// the round count. Panics as [`approx_degeneracy_order`] does.
pub(crate) fn peel(graph: &CsrGraph, epsilon: f64) -> (Vec<NodeId>, Vec<u32>, usize) {
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "epsilon must be finite and non-negative"
    );
    let n = graph.num_vertices();
    let mut degree: Vec<u32> = (0..n).map(|v| graph.degree(v as NodeId) as u32).collect();
    let mut alive: Vec<NodeId> = (0..n as NodeId).collect();
    let mut order = Vec::with_capacity(n);
    let mut round_of = vec![0u32; n];
    let mut round = 0u32;
    while !alive.is_empty() {
        // δ̂_U (the paper divides both sides by two; the factor cancels).
        let degree_sum: u64 = alive.iter().map(|&v| u64::from(degree[v as usize])).sum();
        let threshold = (1.0 + epsilon) * (degree_sum as f64 / alive.len() as f64);
        // R (Line 7), judged on the degrees at the start of the round.
        let start = order.len();
        alive.retain(|&v| {
            let leaves = f64::from(degree[v as usize]) <= threshold;
            if leaves {
                order.push(v);
                round_of[v as usize] = round;
            }
            !leaves
        });
        debug_assert!(order.len() > start, "ADG failed to make progress");
        // Leavers' own counters drop too (each ends at 0, never read).
        for &v in &order[start..] {
            for w in graph.neighbors(v) {
                degree[w as usize] -= 1;
            }
        }
        round += 1;
    }
    (order, round_of, round as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degeneracy::degeneracy_order;
    use crate::OrderingKind;
    use rayon::prelude::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The parallel implementation the peel replaced, kept as the
    /// oracle: atomic decrements, a parallel partition and a final
    /// sort by (round, id).
    fn reference(graph: &CsrGraph, epsilon: f64) -> ApproxDegeneracy {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        let n = graph.num_vertices();
        let degrees: Vec<AtomicU32> = (0..n)
            .map(|v| AtomicU32::new(graph.degree(v as NodeId) as u32))
            .collect();
        let mut alive: Vec<NodeId> = (0..n as NodeId).collect();
        let mut round_of = vec![0u32; n];
        let mut round = 0u32;
        while !alive.is_empty() {
            let degree_sum: u64 = alive
                .par_iter()
                .map(|&v| u64::from(degrees[v as usize].load(Ordering::Relaxed)))
                .sum();
            let threshold = (1.0 + epsilon) * (degree_sum as f64 / alive.len() as f64);
            let (removed, survivors): (Vec<NodeId>, Vec<NodeId>) =
                alive.par_iter().partition(|&&v| {
                    f64::from(degrees[v as usize].load(Ordering::Relaxed)) <= threshold
                });
            removed.par_iter().for_each(|&v| {
                for w in graph.neighbors(v) {
                    degrees[w as usize].fetch_sub(1, Ordering::Relaxed);
                }
            });
            for &v in &removed {
                round_of[v as usize] = round;
            }
            alive = survivors;
            round += 1;
        }
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.par_sort_unstable_by_key(|&v| (round_of[v as usize], v));
        let rank = Rank::from_order(&order);
        let out_degree_bound = later_neighbor_bound(graph, &rank);
        ApproxDegeneracy {
            rank,
            round_of,
            rounds: round as usize,
            out_degree_bound,
        }
    }

    #[test]
    fn peel_matches_the_reference_and_compute_matches_the_peel() {
        let graphs = [
            ("empty", CsrGraph::from_undirected_edges(0, &[])),
            ("edgeless", CsrGraph::from_undirected_edges(7, &[])),
            ("complete", gms_gen::complete(12)),
            ("grid", gms_gen::grid(20, 30)),
            ("gnp", gms_gen::gnp(400, 0.03, 5)),
            ("kron", gms_gen::kronecker_default(10, 8, 3)),
            ("ba", gms_gen::barabasi_albert(600, 4, 9)),
            ("ws", gms_gen::watts_strogatz(500, 6, 0.1, 2)),
            ("bipartite", gms_gen::bipartite(150, 250, 0.05, 4)),
            ("cliques", gms_gen::planted_cliques(300, 0.02, 4, 9, 6).0),
        ];
        for (name, g) in &graphs {
            for eps in [0.0, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0, f64::MAX] {
                let expect = reference(g, eps);
                let got = approx_degeneracy_order(g, eps);
                assert_eq!(got.rank, expect.rank, "{name} ε={eps}: rank");
                assert_eq!(got.round_of, expect.round_of, "{name} ε={eps}: round_of");
                assert_eq!(got.rounds, expect.rounds, "{name} ε={eps}: rounds");
                assert_eq!(
                    got.out_degree_bound, expect.out_degree_bound,
                    "{name} ε={eps}: out_degree_bound"
                );
                assert_eq!(
                    OrderingKind::ApproxDegeneracy(eps).compute(g),
                    got.rank,
                    "{name} ε={eps}: compute"
                );
            }
        }
    }

    #[test]
    fn approximation_bound_holds() {
        for seed in 0..3 {
            let g = gms_gen::gnp(400, 0.03, seed);
            let exact = degeneracy_order(&g);
            for eps in [0.01, 0.1, 0.5, 1.0] {
                let approx = approx_degeneracy_order(&g, eps);
                let bound = ((2.0 + eps) * exact.degeneracy as f64).ceil() as usize;
                assert!(
                    approx.out_degree_bound <= bound.max(1),
                    "seed {seed} eps {eps}: {} > (2+ε)d = {bound}",
                    approx.out_degree_bound
                );
            }
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        // Rounds should grow like log n, not n.
        let small = gms_gen::gnp(250, 0.04, 1);
        let large = gms_gen::gnp(2000, 0.005, 1);
        let r_small = approx_degeneracy_order(&small, 0.1).rounds;
        let r_large = approx_degeneracy_order(&large, 0.1).rounds;
        assert!(r_small <= 40, "rounds {r_small}");
        assert!(r_large <= 60, "rounds {r_large}");
        // And far below n.
        assert!(r_large < large.num_vertices() / 10);
    }

    #[test]
    fn pendant_path_peels_before_clique() {
        // K5 + path: the path has low degree and must be ranked before
        // most of the clique interior.
        let mut edges = vec![(4u32, 5u32), (5, 6), (6, 7)];
        for i in 0..5u32 {
            for j in i + 1..5 {
                edges.push((i, j));
            }
        }
        let g = CsrGraph::from_undirected_edges(8, &edges);
        let adg = approx_degeneracy_order(&g, 0.1);
        // Path tail (7, degree 1) leaves in the first round.
        assert_eq!(adg.round_of[7], 0);
        assert!(adg.out_degree_bound <= ((2.0 + 0.1) * 4.0) as usize);
    }

    #[test]
    fn deterministic() {
        let g = gms_gen::kronecker_default(9, 8, 2);
        let a = approx_degeneracy_order(&g, 0.25);
        let b = approx_degeneracy_order(&g, 0.25);
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn empty_and_trivial_graphs() {
        let empty = CsrGraph::from_undirected_edges(0, &[]);
        assert_eq!(approx_degeneracy_order(&empty, 0.1).rounds, 0);
        let isolated = CsrGraph::from_undirected_edges(5, &[]);
        for eps in [0.1, f64::MAX] {
            let adg = approx_degeneracy_order(&isolated, eps);
            assert_eq!(
                adg.rounds, 1,
                "ε={eps}: all isolated vertices leave in round 0"
            );
            assert_eq!(adg.out_degree_bound, 0);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn infinite_epsilon_is_refused() {
        approx_degeneracy_order(&CsrGraph::from_undirected_edges(5, &[]), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn nan_epsilon_is_refused() {
        approx_degeneracy_order(&CsrGraph::from_undirected_edges(5, &[]), f64::NAN);
    }

    #[test]
    fn smaller_epsilon_tightens_the_bound() {
        let g = gms_gen::kronecker_default(10, 12, 4);
        let tight = approx_degeneracy_order(&g, 0.01).out_degree_bound;
        let loose = approx_degeneracy_order(&g, 2.0).out_degree_bound;
        assert!(tight <= loose, "tight {tight} loose {loose}");
    }
}
