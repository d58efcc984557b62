//! Parallel `k`-clique counting (§6.3, Algorithm 7) after
//! Danisch et al., reformulated over set algebra.
//!
//! Preprocessing (③) orients the graph by a chosen order (`dir(G)`: an
//! arc `u → v` iff `η(u) < η(v)`), so every clique is discovered
//! exactly once, at its first vertex in the order. No relabeled copy
//! is made: the DAG keeps the original ids.
//!
//! Each root `u` is then solved in its own universe (the crate's
//! `local` module): `N⁺(u)` is numbered `0..d⁺(u)`, row `i` is
//! `N⁺(wᵢ) ∩ N⁺(u)` over those local ids, and one recursion intersects
//! candidate sets with rows (⑤⁺):
//!
//! ```text
//! count(i, C):  |C| + i < k  → 0
//!               i + 2 == k   → Σ_{v ∈ C} |C ∩ row(v)|
//!               else         → Σ_{v ∈ C} count(i+1, C ∩ row(v))
//! ```
//!
//! with `count(2, row(i))` for every top-level branch `i` of the root.
//! A candidate set is a set over `d⁺(u)` elements — one word for a
//! bitset on every root whose forward degree is at most 64 — so the
//! default layout is [`DenseBitSet`]; a sorted array gains nothing in
//! a universe this small. `k = 3` counts the rows' arcs without
//! building a set, and a root with `d⁺(u) + 1 < k` is skipped
//! unbuilt, so a `k` above every forward degree answers 0 at once.
//!
//! The two drivers of the paper's concurrency analysis (§7.2) share
//! that recursion and walk the roots in order with
//! [`gms_core::split::walk`], which hands the back half of a worker's
//! remaining roots to an idle worker. They differ in what else may
//! move. The *node-parallel* driver never splits a root: each one is
//! solved whole by the worker that walks it. The *edge-parallel*
//! driver also walks the top-level branches of the last root of a
//! walked segment — `u`'s oriented edges, over its local graph built
//! once — so that once a worker's roots are down to one, an idle
//! worker takes branches of that root. Splitting stays outermost-first:
//! a root's branches move only when no root is left to give.

use crate::local::Universe;
use crate::scratch::{with_worker_checkout, SetPool};
use crate::SPLIT_AFTER;
use gms_core::split::walk;
use gms_core::{CancelToken, CsrGraph, DenseBitSet, Graph, NodeId, Set};
use gms_graph::orient_by_rank;
use gms_order::OrderingKind;
use std::time::{Duration, Instant};

/// Parallelization driver (§7.2 trade-off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KcParallel {
    /// Each root solved whole by one worker (lower space, higher
    /// depth).
    Node,
    /// A root's oriented edges — its top-level branches — may also go
    /// to idle workers, once the root is the last of a walked segment
    /// (higher space, lower depth; the practical winner in the paper).
    Edge,
}

/// Configuration of a k-clique run.
#[derive(Clone, Debug)]
pub struct KcConfig {
    /// Preprocessing order (DEG / DGR / ADG / ...).
    pub ordering: OrderingKind,
    /// Node- or edge-parallel driver.
    pub parallel: KcParallel,
}

impl Default for KcConfig {
    fn default() -> Self {
        Self {
            ordering: OrderingKind::ApproxDegeneracy(0.25),
            parallel: KcParallel::Edge,
        }
    }
}

/// Result of a k-clique counting run.
#[derive(Clone, Debug)]
pub struct KcOutcome {
    /// Number of `k`-cliques.
    pub count: u64,
    /// Time for ordering + orientation.
    pub preprocess: Duration,
    /// Time for the counting kernel.
    pub mine: Duration,
}

impl KcOutcome {
    /// Algorithmic throughput (§4.3): k-cliques per second of mining.
    pub fn throughput(&self) -> f64 {
        self.count as f64 / self.mine.as_secs_f64().max(1e-12)
    }
}

/// `k`-cliques of the oriented graph, `k ≥ 3`.
fn count_oriented<S: Set>(
    dag: &CsrGraph,
    k: usize,
    parallel: KcParallel,
    cancel: &CancelToken,
) -> u64 {
    walk(
        0..dag.num_vertices(),
        SPLIT_AFTER,
        &|segment| with_worker_checkout(segment),
        &|pool, u, last| {
            let split = last && parallel == KcParallel::Edge;
            count_root::<S>(dag, u as NodeId, k, split, pool, cancel)
        },
    )
}

/// The `k`-cliques whose first vertex in the order is `u`; with `split`
/// the root's top-level branches are walked so that idle workers can
/// take them.
fn count_root<S: Set>(
    dag: &CsrGraph,
    u: NodeId,
    k: usize,
    split: bool,
    pool: &mut SetPool<S>,
    cancel: &CancelToken,
) -> u64 {
    let members = dag.neighbors_slice(u);
    if cancel.is_cancelled() || members.len() + 1 < k {
        return 0;
    }
    with_worker_checkout(|universe: &mut Universe<S>| {
        if k == 3 {
            return universe.count_arcs(dag, members) as u64;
        }
        universe.induce(dag, members, |_| true);
        let rows = universe.rows();
        let branch =
            |pool: &mut SetPool<S>, i: usize, _| count_from(rows, 2, k, &rows[i], pool, cancel);
        if split {
            walk(
                0..rows.len(),
                SPLIT_AFTER,
                &|segment| with_worker_checkout(segment),
                &branch,
            )
        } else {
            (0..rows.len()).map(|i| branch(pool, i, false)).sum()
        }
    })
}

/// The `k`-cliques that extend a clique of `level` vertices, `2 ≤ level
/// ≤ k − 2`, whose common forward neighbors are `candidates` (local
/// ids).
fn count_from<S: Set>(
    rows: &[S],
    level: usize,
    k: usize,
    candidates: &S,
    pool: &mut SetPool<S>,
    cancel: &CancelToken,
) -> u64 {
    if cancel.is_cancelled() || candidates.cardinality() + level < k {
        return 0;
    }
    if level + 2 == k {
        // Level k−1 — the bulk of the recursion's volume — is counted,
        // not materialized.
        return candidates
            .iter()
            .map(|v| candidates.intersect_count(&rows[v as usize]) as u64)
            .sum();
    }
    let mut total = 0u64;
    let mut next = pool.take();
    for v in candidates.iter() {
        next.clone_from(candidates);
        next.intersect_inplace(&rows[v as usize]);
        total += count_from(rows, level + 1, k, &next, pool, cancel);
    }
    pool.put(next);
    total
}

/// Counts `k`-cliques with representation `S` for the candidate sets.
pub fn k_clique_count_with<S: Set>(graph: &CsrGraph, k: usize, config: &KcConfig) -> KcOutcome {
    k_clique_count_cancellable_with::<S>(graph, k, config, &CancelToken::none())
}

/// [`k_clique_count_with`] under a cooperative [`CancelToken`]
/// probed at every recursion entry and task root. A fired token
/// yields a partial count the caller must discard.
pub fn k_clique_count_cancellable_with<S: Set>(
    graph: &CsrGraph,
    k: usize,
    config: &KcConfig,
    cancel: &CancelToken,
) -> KcOutcome {
    assert!(k >= 1, "k must be positive");
    let t0 = Instant::now();
    let dag = orient_by_rank(graph, &config.ordering.compute(graph));
    let preprocess = t0.elapsed();

    let t1 = Instant::now();
    let count = match k {
        1 => graph.num_vertices() as u64,
        2 => graph.num_edges_undirected() as u64,
        _ => count_oriented::<S>(&dag, k, config.parallel, cancel),
    };
    let mine = t1.elapsed();
    KcOutcome {
        count,
        preprocess,
        mine,
    }
}

/// Counts `k`-cliques with bitset candidate sets over each root's
/// local ids.
pub fn k_clique_count(graph: &CsrGraph, k: usize, config: &KcConfig) -> KcOutcome {
    k_clique_count_with::<DenseBitSet>(graph, k, config)
}

/// [`k_clique_count`] under a cooperative [`CancelToken`].
pub fn k_clique_count_cancellable(
    graph: &CsrGraph,
    k: usize,
    config: &KcConfig,
    cancel: &CancelToken,
) -> KcOutcome {
    k_clique_count_cancellable_with::<DenseBitSet>(graph, k, config, cancel)
}

/// Named k-clique baselines compared in Fig. 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KcVariant {
    /// GMS: edge-parallel + ADG (this paper).
    Gms,
    /// GBBS-style: node-parallel + exact degeneracy order.
    GbbsStyle,
    /// Danisch et al.-style: edge-parallel + exact degeneracy order.
    DanischStyle,
}

impl KcVariant {
    /// All variants in presentation order.
    pub const ALL: [KcVariant; 3] = [
        KcVariant::DanischStyle,
        KcVariant::GbbsStyle,
        KcVariant::Gms,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            KcVariant::Gms => "GMS",
            KcVariant::GbbsStyle => "GBBS",
            KcVariant::DanischStyle => "Danisch",
        }
    }

    /// Runs the variant.
    pub fn run(&self, graph: &CsrGraph, k: usize) -> KcOutcome {
        let (ordering, parallel) = match self {
            KcVariant::Gms => (OrderingKind::ApproxDegeneracy(0.25), KcParallel::Edge),
            KcVariant::GbbsStyle => (OrderingKind::Degeneracy, KcParallel::Node),
            KcVariant::DanischStyle => (OrderingKind::Degeneracy, KcParallel::Edge),
        };
        k_clique_count(graph, k, &KcConfig { ordering, parallel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{count_k_cliques_brute, k_cliques_brute};
    use gms_core::{RoaringSet, SortedVecSet};

    fn binomial(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let mut result = 1u64;
        for i in 0..k {
            result = result * (n - i) / (i + 1);
        }
        result
    }

    #[test]
    fn complete_graph_counts_are_binomials() {
        let g = gms_gen::complete(10);
        for k in 1..=10 {
            let outcome = k_clique_count(&g, k, &KcConfig::default());
            assert_eq!(outcome.count, binomial(10, k as u64), "k = {k}");
        }
    }

    #[test]
    fn node_and_edge_drivers_agree() {
        let g = gms_gen::gnp(60, 0.25, 5);
        for k in 3..=5 {
            let node = k_clique_count(
                &g,
                k,
                &KcConfig {
                    ordering: OrderingKind::Degeneracy,
                    parallel: KcParallel::Node,
                },
            );
            let edge = k_clique_count(
                &g,
                k,
                &KcConfig {
                    ordering: OrderingKind::Degeneracy,
                    parallel: KcParallel::Edge,
                },
            );
            assert_eq!(node.count, edge.count, "k = {k}");
        }
    }

    #[test]
    fn orderings_do_not_change_counts() {
        let g = gms_gen::gnp(50, 0.3, 9);
        let orderings = [
            OrderingKind::Natural,
            OrderingKind::Degree,
            OrderingKind::Degeneracy,
            OrderingKind::ApproxDegeneracy(0.5),
            OrderingKind::TriangleCount,
        ];
        let expected = count_k_cliques_brute(&g, 4);
        for ordering in orderings {
            for parallel in [KcParallel::Node, KcParallel::Edge] {
                let outcome = k_clique_count(&g, 4, &KcConfig { ordering, parallel });
                assert_eq!(outcome.count, expected, "{} {parallel:?}", ordering.label());
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..4 {
            let g = gms_gen::gnp(30, 0.35, seed);
            for k in 3..=6 {
                let fast = k_clique_count(&g, k, &KcConfig::default()).count;
                assert_eq!(fast, count_k_cliques_brute(&g, k), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn every_layout_counts_the_same() {
        let g = gms_gen::gnp(50, 0.3, 2);
        for k in 3..=5 {
            let dense = k_clique_count(&g, k, &KcConfig::default()).count;
            let sorted = k_clique_count_with::<SortedVecSet>(&g, k, &KcConfig::default()).count;
            let roaring = k_clique_count_with::<RoaringSet>(&g, k, &KcConfig::default()).count;
            assert_eq!(dense, sorted, "k = {k}");
            assert_eq!(dense, roaring, "k = {k}");
        }
    }

    #[test]
    fn a_k_above_every_forward_degree_answers_zero() {
        // Every vertex of K40 has at most 39 forward neighbors under
        // any order, so k = 41 skips every root unbuilt.
        let g = gms_gen::complete(40);
        for parallel in [KcParallel::Node, KcParallel::Edge] {
            let config = KcConfig {
                ordering: OrderingKind::Degeneracy,
                parallel,
            };
            assert_eq!(k_clique_count(&g, 40, &config).count, 1, "{parallel:?}");
            assert_eq!(k_clique_count(&g, 41, &config).count, 0, "{parallel:?}");
            assert_eq!(k_clique_count(&g, usize::MAX, &config).count, 0);
        }
    }

    #[test]
    fn listing_matches_counting() {
        let g = gms_gen::gnp(25, 0.4, 8);
        for k in 3..=4 {
            let cliques = k_cliques_brute(&g, k);
            let count = k_clique_count(&g, k, &KcConfig::default()).count;
            assert_eq!(cliques.len() as u64, count);
            // Every listed clique is distinct and complete.
            let unique: std::collections::HashSet<&Vec<NodeId>> = cliques.iter().collect();
            assert_eq!(unique.len(), cliques.len());
            for clique in &cliques {
                assert!(crate::brute::is_clique(&g, clique));
                assert_eq!(clique.len(), k);
            }
        }
    }

    #[test]
    fn variants_agree() {
        let (g, _) = gms_gen::planted_cliques(100, 0.05, 2, 7, 6);
        let counts: Vec<u64> = KcVariant::ALL.iter().map(|v| v.run(&g, 5).count).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(
            counts[0] >= 2 * binomial(7, 5),
            "planted cliques contribute"
        );
    }

    #[test]
    fn fired_token_yields_a_discardable_partial_count() {
        let g = gms_gen::complete(10);
        let token = CancelToken::manual();
        token.cancel();
        let out = k_clique_count_cancellable(&g, 4, &KcConfig::default(), &token);
        assert_eq!(out.count, 0, "every task root sees the fired token");
        let live = k_clique_count_cancellable(&g, 4, &KcConfig::default(), &CancelToken::manual());
        assert_eq!(
            live.count,
            k_clique_count(&g, 4, &KcConfig::default()).count
        );
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    // The heartbeat is zero under `cfg(test)`: a worker of a 2- or
    // 4-wide pool splits at every check that finds its deque empty,
    // and the first check of a walk always does.
    #[test]
    fn a_hub_root_walked_branch_by_branch_gives_the_width_1_count() {
        // Hub 0 over a ring of 40 leaves, each leaf adjacent to the
        // next four. In natural order the hub's 40 leaves are all
        // forward, so its local graph is the whole ring; the ring's
        // k-cliques are k-subsets of 5 consecutive leaves.
        let mut edges: Vec<(NodeId, NodeId)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend((0..40).flat_map(|i| (1..=4).map(move |d| (1 + i, 1 + (i + d) % 40))));
        let g = CsrGraph::from_undirected_edges(41, &edges);
        let dag = orient_by_rank(&g, &OrderingKind::Natural.compute(&g));
        let ring = |j: u64| if j == 1 { 40 } else { 40 * binomial(4, j - 1) };
        let cancel = CancelToken::none();
        let pools = [1, 2, 4].map(pool);
        for k in 3..=6 {
            let expected = ring(k as u64) + ring(k as u64 - 1);
            // The hub alone with its branches walked: on a 2- or 4-wide
            // pool the walk's first check hands the back half off.
            let hub = pools.each_ref().map(|pool| {
                pool.install(|| {
                    with_worker_checkout(|scratch: &mut SetPool<DenseBitSet>| {
                        count_root(&dag, 0, k, true, scratch, &cancel) + ring(k as u64)
                    })
                })
            });
            assert_eq!(hub, [expected; 3], "k = {k}, hub alone at widths 1/2/4");
            for parallel in [KcParallel::Node, KcParallel::Edge] {
                let config = KcConfig {
                    ordering: OrderingKind::Natural,
                    parallel,
                };
                let runs = pools
                    .each_ref()
                    .map(|pool| pool.install(|| k_clique_count(&g, k, &config).count));
                assert_eq!(runs, [expected; 3], "k = {k} {parallel:?} at widths 1/2/4");
            }
        }
    }

    #[test]
    fn small_k_shortcuts() {
        let g = gms_gen::gnp(40, 0.2, 3);
        assert_eq!(k_clique_count(&g, 1, &KcConfig::default()).count, 40);
        assert_eq!(
            k_clique_count(&g, 2, &KcConfig::default()).count,
            g.num_edges_undirected() as u64
        );
    }
}
