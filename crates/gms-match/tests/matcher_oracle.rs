//! The matcher against a brute-force oracle.
//!
//! The oracle counts injective, label-preserving maps from the query's
//! vertices to the target's that send every query edge to a target
//! edge (and, induced, every query non-edge to a target non-edge) by
//! trying all of them, so it shares nothing with the set-algebra
//! search: no plan, no candidate sets, no last-depth count. Targets
//! stay at n ≤ 10 to keep it exhaustive.

use gms_core::{CsrGraph, Graph, NodeId};
use gms_match::{
    count_embeddings, count_embeddings_parallel, enumerate_embeddings, IsoMode, IsoOptions,
    LabeledGraph, ParallelIsoConfig,
};
use std::collections::BTreeSet;

/// Every injective label-preserving map that is an embedding under
/// `mode`, as query-indexed target vectors.
fn oracle(query: &LabeledGraph, target: &LabeledGraph, mode: IsoMode) -> Vec<Vec<NodeId>> {
    fn extend(
        query: &LabeledGraph,
        target: &LabeledGraph,
        mode: IsoMode,
        map: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let q = map.len();
        if q == query.num_vertices() {
            out.push(map.clone());
            return;
        }
        for t in 0..target.num_vertices() as NodeId {
            let fits = !map.contains(&t)
                && query.label(q as NodeId) == target.label(t)
                && (0..q).all(|p| {
                    let query_edge = query.graph.has_edge(p as NodeId, q as NodeId);
                    let target_edge = target.graph.has_edge(map[p], t);
                    match mode {
                        IsoMode::NonInduced => !query_edge || target_edge,
                        IsoMode::Induced => query_edge == target_edge,
                    }
                });
            if fits {
                map.push(t);
                extend(query, target, mode, map, out);
                map.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(query, target, mode, &mut Vec::new(), &mut out);
    out
}

fn graph(n: usize, edges: &[(NodeId, NodeId)]) -> CsrGraph {
    CsrGraph::from_undirected_edges(n, edges)
}

/// The six named queries of the `subgraph-iso` kernels plus a
/// disconnected one (an edge and a vertex apart), each unlabeled and
/// with labels.
fn queries() -> Vec<(String, LabeledGraph<'static>)> {
    let shapes = [
        ("triangle", gms_gen::complete(3)),
        ("clique4", gms_gen::complete(4)),
        ("clique5", gms_gen::complete(5)),
        ("path3", graph(3, &[(0, 1), (1, 2)])),
        ("path4", graph(4, &[(0, 1), (1, 2), (2, 3)])),
        ("star4", graph(4, &[(0, 1), (0, 2), (0, 3)])),
        ("edge+vertex", graph(3, &[(0, 1)])),
    ];
    shapes
        .into_iter()
        .flat_map(|(name, shape)| {
            let labeled = LabeledGraph::random_labels(shape.clone(), 2, 3);
            [
                (name.to_string(), LabeledGraph::unlabeled(shape)),
                (format!("{name}/labeled"), labeled),
            ]
        })
        .collect()
}

/// Small targets: random labels over a random graph, a complete graph,
/// a grid and a star, plus the unlabeled complete graph.
fn targets() -> Vec<(&'static str, LabeledGraph<'static>)> {
    let star = graph(9, &(1..9).map(|v| (0, v)).collect::<Vec<_>>());
    vec![
        (
            "gnp",
            LabeledGraph::random_labels(gms_gen::gnp(10, 0.5, 7), 2, 1),
        ),
        (
            "complete",
            LabeledGraph::random_labels(gms_gen::complete(7), 2, 2),
        ),
        (
            "complete/unlabeled",
            LabeledGraph::unlabeled(gms_gen::complete(7)),
        ),
        (
            "grid",
            LabeledGraph::random_labels(gms_gen::grid(3, 3), 2, 4),
        ),
        ("star", LabeledGraph::random_labels(star, 2, 5)),
    ]
}

#[test]
fn every_driver_and_switch_counts_what_the_oracle_counts() {
    let pools: Vec<_> = [1, 2, 4]
        .map(|threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            (threads, pool)
        })
        .into_iter()
        .collect();
    let mut nonzero = 0;
    for (target_name, target) in &targets() {
        for (query_name, query) in &queries() {
            for mode in [IsoMode::NonInduced, IsoMode::Induced] {
                let expected = oracle(query, target, mode).len() as u64;
                nonzero += usize::from(expected > 0);
                for galloping in [false, true] {
                    for precompute in [false, true] {
                        let options = IsoOptions {
                            mode,
                            precompute,
                            galloping,
                            limit: u64::MAX,
                        };
                        let cell = format!(
                            "{query_name} in {target_name}, {mode:?}, galloping {galloping}, \
                             precompute {precompute}"
                        );
                        assert_eq!(
                            count_embeddings(query, target, &options),
                            expected,
                            "{cell}: sequential"
                        );
                        for (threads, pool) in &pools {
                            for work_stealing in [false, true] {
                                let config = ParallelIsoConfig {
                                    work_stealing,
                                    options,
                                };
                                assert_eq!(
                                    pool.install(|| count_embeddings_parallel(
                                        query, target, &config
                                    )),
                                    expected,
                                    "{cell}: {threads} threads, stealing {work_stealing}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(nonzero > 40, "the sweep must not be mostly empty cells");
}

#[test]
fn limits_cap_the_count_exactly() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .unwrap();
    let target = LabeledGraph::unlabeled(gms_gen::complete(7));
    for (query_name, query) in &queries() {
        let total = oracle(query, &target, IsoMode::NonInduced).len() as u64;
        for limit in [1, 7, total.saturating_sub(1).max(1), total, total + 5] {
            let options = IsoOptions {
                limit,
                ..IsoOptions::default()
            };
            let expected = limit.min(total);
            assert_eq!(
                count_embeddings(query, &target, &options),
                expected,
                "{query_name}: sequential, limit {limit}"
            );
            // Soft in the work it does — roots in flight finish — but
            // the result is capped, and no root stops short of it.
            let config = ParallelIsoConfig {
                work_stealing: true,
                options,
            };
            assert_eq!(
                pool.install(|| count_embeddings_parallel(query, &target, &config)),
                expected,
                "{query_name}: parallel, limit {limit}"
            );
        }
    }
}

#[test]
fn enumeration_visits_each_embedding_once() {
    for (target_name, target) in &targets() {
        for (query_name, query) in &queries() {
            for mode in [IsoMode::NonInduced, IsoMode::Induced] {
                let expected: BTreeSet<Vec<NodeId>> =
                    oracle(query, target, mode).into_iter().collect();
                let options = IsoOptions {
                    mode,
                    ..IsoOptions::default()
                };
                let mut seen = BTreeSet::new();
                let mut visits = 0u64;
                let reported = enumerate_embeddings(query, target, &options, |mapping| {
                    visits += 1;
                    seen.insert(mapping.to_vec());
                    true
                });
                let cell = format!("{query_name} in {target_name}, {mode:?}");
                assert_eq!(visits, expected.len() as u64, "{cell}: one visit each");
                assert_eq!(reported, visits, "{cell}: reported count");
                assert_eq!(seen, expected, "{cell}: the oracle's mappings");

                // A limit stops the visits exactly there.
                if expected.len() > 2 {
                    let limited = IsoOptions {
                        limit: 2,
                        ..options
                    };
                    let mut visits = 0;
                    enumerate_embeddings(query, target, &limited, |_| {
                        visits += 1;
                        true
                    });
                    assert_eq!(visits, 2, "{cell}: limit 2");
                }
            }
        }
    }
}
