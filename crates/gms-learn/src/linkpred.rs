//! Link prediction and its accuracy protocol (§6.7).
//!
//! The paper's evaluation scheme: remove a random subset `E_rndm` of
//! edges from `E` (leaving `E_sparse`), score non-edges of the sparse
//! graph with a similarity measure, and report the effectiveness
//! `eff = |E_predict ∩ E_rndm|` where `E_predict` holds the
//! `|E_rndm|` highest-scored candidate pairs.
//!
//! The candidates are the 2-hop pairs for every measure: non-adjacent
//! pairs with at least one common neighbour. A pair without one scores
//! zero under the five intersection-based measures, so for them this
//! is exact; preferential attachment and total neighbours also score
//! such pairs, so for those two it restricts §6.7's "all non-edges".
//! No candidate list is built: each `u` counts its wedges into a dense
//! per-worker counter and offers what it scored to a bounded top-k.

use crate::similarity::{score, SimilarityMeasure};
use crate::SPLIT_AFTER;
use gms_core::split::{walk, with_worker_checkout, with_worker_scratch};
use gms_core::{CancelToken, CsrGraph, Edge, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Mutex;

/// The sparse graph plus the held-out edges to predict.
#[derive(Clone, Debug)]
pub struct LinkPredictionSplit {
    /// `E_sparse = E \ E_rndm`.
    pub sparse: CsrGraph,
    /// The removed edges `E_rndm` (normalized `u < v`).
    pub held_out: Vec<Edge>,
}

/// Removes `fraction` of the edges uniformly at random (§6.7 setup).
pub fn split_edges(graph: &CsrGraph, fraction: f64, seed: u64) -> LinkPredictionSplit {
    assert!((0.0..1.0).contains(&fraction));
    let mut edges: Vec<Edge> = graph.edges_undirected().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    edges.shuffle(&mut rng);
    let k = (edges.len() as f64 * fraction).round() as usize;
    let held_out: Vec<Edge> = edges[..k].to_vec();
    let remaining = &edges[k..];
    LinkPredictionSplit {
        sparse: CsrGraph::from_undirected_edges(graph.num_vertices(), remaining),
        held_out,
    }
}

/// A scored candidate link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredPair {
    /// The candidate pair (`u < v`).
    pub pair: Edge,
    /// Similarity score under the chosen measure.
    pub score: f64,
}

/// A candidate as a bounded top-k holds it: `(score bits reversed,
/// pair)`, so the order is §6.7's ranking — score descending, then
/// pair ascending — and a heap's greatest is its worst. Every 2-hop
/// pair scores above zero, where an `f64`'s bits order as its values.
type Ranked = (Reverse<u64>, Edge);

/// Keeps `candidate` in `top` if it is among the best `k` offered.
fn offer(top: &mut BinaryHeap<Ranked>, k: usize, candidate: Ranked) {
    if top.len() < k {
        top.push(candidate);
    } else if let Some(mut worst) = top.peek_mut() {
        if candidate < *worst {
            *worst = candidate;
        }
    }
}

/// A 2-hop pair's common neighbours so far and the sum of their
/// weights, kept from `-0.0` as the per-pair fold keeps it.
const CLEAR: (u32, f64) = (0, -0.0);

/// The count of a neighbour of the walking vertex: not a candidate.
const MASKED: u32 = u32::MAX;

/// One worker's wedge tallies and the vertices they reached.
#[derive(Default)]
struct Wedges {
    tally: Vec<(u32, f64)>,
    reached: Vec<NodeId>,
}

/// The `k` best candidate links of `graph` under `measure`, score
/// descending, then pair ascending; the candidates are the 2-hop pairs
/// (see the [module docs](self)).
///
/// Each `u` walks its wedges `u – w – v`, `v > u`, over `w ∈ N(u)` in
/// ascending order into its worker's tallies with `N(u)` masked out,
/// scores every `v` it reached with [`score`], and offers the pair to
/// its segment's bounded top-k. The vertices are walked with
/// [`walk`], and `cancel` is probed once per `u`: a fired token yields
/// a partial result the caller must discard.
pub fn top_candidates(
    graph: &CsrGraph,
    measure: SimilarityMeasure,
    k: usize,
    cancel: &CancelToken,
) -> Vec<ScoredPair> {
    let (n, weight) = (graph.num_vertices(), measure.weight());
    let best = Mutex::new(BinaryHeap::new());
    let scoped = |segment: &mut dyn FnMut(&mut BinaryHeap<Ranked>)| {
        with_worker_checkout(|top: &mut BinaryHeap<Ranked>| {
            segment(top);
            let mut best = best.lock().expect("no walker panicked");
            top.drain()
                .for_each(|candidate| offer(&mut best, k, candidate));
        })
    };
    let step = |top: &mut BinaryHeap<Ranked>, u: usize, _| {
        if cancel.is_cancelled() {
            return 0;
        }
        let (u, nu) = (u as NodeId, graph.neighbors_slice(u as NodeId));
        with_worker_scratch(|w: &mut Wedges| {
            if w.tally.len() < n {
                w.tally.resize(n, CLEAR);
            }
            nu.iter().for_each(|&x| w.tally[x as usize].0 = MASKED);
            for &x in nu {
                let nx = graph.neighbors_slice(x);
                let fx = weight.map(|f| f(nx.len()));
                for &v in &nx[nx.partition_point(|&v| v <= u)..] {
                    let (common, weighted) = &mut w.tally[v as usize];
                    if *common == MASKED {
                        continue;
                    }
                    if *common == 0 {
                        w.reached.push(v);
                    }
                    *common += 1;
                    if let Some(fx) = fx {
                        *weighted += fx;
                    }
                }
            }
            let du = nu.len();
            for &v in &w.reached {
                let (common, weighted) = std::mem::replace(&mut w.tally[v as usize], CLEAR);
                let score = score(measure, du, graph.degree(v), common as usize, weighted);
                offer(top, k, (Reverse(score.to_bits()), (u, v)));
            }
            nu.iter().for_each(|&x| w.tally[x as usize] = CLEAR);
            let reached = w.reached.len() as u64;
            w.reached.clear();
            reached
        })
    };
    let candidates = walk(0..n, SPLIT_AFTER, &scoped, &step);
    let best = best
        .into_inner()
        .expect("no walker panicked")
        .into_sorted_vec();
    debug_assert!(best.len() as u64 == candidates.min(k as u64) || cancel.is_cancelled());
    best.into_iter()
        .map(|(Reverse(bits), pair)| ScoredPair {
            pair,
            score: f64::from_bits(bits),
        })
        .collect()
}

/// Runs the full §6.7 protocol and returns `(eff, |E_rndm|)`: how many
/// held-out edges appear among the top-`|E_rndm|` candidates of
/// [`top_candidates`]. A fired `cancel` yields a partial result the
/// caller must discard.
pub fn evaluate_accuracy(
    graph: &CsrGraph,
    measure: SimilarityMeasure,
    fraction: f64,
    seed: u64,
    cancel: &CancelToken,
) -> (usize, usize) {
    let LinkPredictionSplit { sparse, held_out } = split_edges(graph, fraction, seed);
    let predicted: HashSet<Edge> = top_candidates(&sparse, measure, held_out.len(), cancel)
        .into_iter()
        .map(|c| c.pair)
        .collect();
    let hits = held_out.iter().filter(|e| predicted.contains(e)).count();
    (hits, held_out.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_edge_partition() {
        let g = gms_gen::gnp(100, 0.08, 3);
        let m = g.num_edges_undirected();
        let split = split_edges(&g, 0.2, 7);
        assert_eq!(
            split.sparse.num_edges_undirected() + split.held_out.len(),
            m
        );
        // E_sparse ∩ E_rndm = ∅.
        for &(u, v) in &split.held_out {
            assert!(!split.sparse.has_edge(u, v));
            assert!(g.has_edge(u, v));
        }
    }

    use crate::similarity::similarity;
    use gms_core::set::intersect_count_sorted_slices;

    fn everything(g: &CsrGraph, measure: SimilarityMeasure) -> Vec<ScoredPair> {
        top_candidates(g, measure, usize::MAX, &CancelToken::none())
    }

    #[test]
    fn candidates_come_out_strictly_ascending() {
        // Large enough that the walk splits the vertex range; in rank
        // order, which is strict because no pair repeats.
        let g = gms_gen::gnp(400, 0.03, 5);
        let scored = everything(&g, SimilarityMeasure::Jaccard);
        assert!(scored.len() > 1000);
        assert!(scored.windows(2).all(|w| {
            let (a, b) = (w[0], w[1]);
            a.score > b.score || (a.score == b.score && a.pair < b.pair)
        }));
    }

    #[test]
    fn candidates_exclude_existing_edges() {
        let g = gms_gen::gnp(60, 0.1, 1);
        let scored = everything(&g, SimilarityMeasure::CommonNeighbors);
        for s in &scored {
            let (u, v) = s.pair;
            assert!(u < v);
            assert!(!g.has_edge(u, v));
            assert!(s.score >= 1.0, "2-hop candidates share a neighbor");
        }
    }

    #[test]
    fn top_k_is_the_head_of_a_full_sort_at_widths_1_2_4() {
        // Kronecker leaves tie: under Jaccard every pair of leaves of
        // one hub scores 1.0, so the pair order decides the top-k.
        let g = gms_gen::kronecker_default(9, 8, 101);
        let n = g.num_vertices() as NodeId;
        let pairs: Vec<Edge> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .filter(|&(u, v)| {
                let common =
                    intersect_count_sorted_slices(g.neighbors_slice(u), g.neighbors_slice(v));
                !g.has_edge(u, v) && common > 0
            })
            .collect();
        let bits = |scored: &[ScoredPair]| -> Vec<(Edge, u64)> {
            scored.iter().map(|s| (s.pair, s.score.to_bits())).collect()
        };
        for measure in SimilarityMeasure::ALL {
            let mut brute: Vec<ScoredPair> = pairs
                .iter()
                .map(|&(u, v)| ScoredPair {
                    pair: (u, v),
                    score: similarity(&g, measure, u, v),
                })
                .collect();
            brute.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.pair.cmp(&b.pair)));
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for k in [0, 1, 10, brute.len()] {
                    let top = pool.install(|| top_candidates(&g, measure, k, &CancelToken::none()));
                    assert_eq!(
                        bits(&top),
                        bits(&brute[..k]),
                        "{} k={k} at {threads} threads",
                        measure.label()
                    );
                }
            }
        }
    }

    #[test]
    fn a_fired_token_stops_the_walk() {
        let g = gms_gen::gnp(200, 0.1, 3);
        let fired = CancelToken::manual();
        fired.cancel();
        assert!(top_candidates(&g, SimilarityMeasure::Jaccard, 10, &fired).is_empty());
    }

    #[test]
    fn prediction_beats_random_on_clustered_graph() {
        // Near-complete planted blocks: after removing 10% of the
        // edges, held-out pairs are a large share of the high-scoring
        // intra-community non-edges, so common-neighbor prediction
        // recovers far more of them than the cross-community chance
        // level (~1% of candidates).
        let (g, _) = gms_gen::planted_partition(120, 4, 0.9, 0.005, 5);
        let none = CancelToken::none();
        let (hits, k) = evaluate_accuracy(&g, SimilarityMeasure::CommonNeighbors, 0.1, 2, &none);
        assert!(k > 0);
        let rate = hits as f64 / k as f64;
        assert!(rate > 0.25, "hit rate {rate} too close to chance");
    }

    #[test]
    fn deterministic_split() {
        let g = gms_gen::gnp(50, 0.1, 9);
        let a = split_edges(&g, 0.25, 11);
        let b = split_edges(&g, 0.25, 11);
        assert_eq!(a.held_out, b.held_out);
    }

    #[test]
    fn every_measure_recovers_its_pinned_hits() {
        // `(hits, held out)` per measure in `SimilarityMeasure::ALL`
        // order, on the gallery's `econ-dense` and `sparse-kron`.
        let cases = [
            (
                gms_gen::gnp(400, 0.12, 107),
                [18, 20, 16, 16, 16, 18, 13].map(|hits| (hits, 961)),
            ),
            (
                gms_gen::kronecker_default(11, 3, 102),
                [0, 3, 59, 52, 59, 27, 61].map(|hits| (hits, 534)),
            ),
        ];
        for (graph, pinned) in &cases {
            let got = SimilarityMeasure::ALL
                .map(|m| evaluate_accuracy(graph, m, 0.1, 3, &CancelToken::none()));
            assert_eq!(&got, pinned);
        }
    }

    #[test]
    fn measures_rank_differently_but_all_run() {
        let g = gms_gen::gnp(40, 0.15, 4);
        for measure in SimilarityMeasure::ALL {
            let (hits, k) = evaluate_accuracy(&g, measure, 0.2, 3, &CancelToken::none());
            assert!(hits <= k, "{}", measure.label());
        }
    }
}
