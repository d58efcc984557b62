//! Parallel subgraph isomorphism (§6.4): the VF3-Light-style driver
//! with the paper's two load-balancing features, over the matcher of
//! [`crate::vf2`] (set-algebra candidates, last depth counted).
//!
//! * **Work splitting** — the root-candidate list (target vertices
//!   from which backtracking starts) is split across threads.
//! * **Work stealing** — idle workers take further roots from busy
//!   ones instead of being stuck with a static chunk; the paper
//!   implements this with a CAS-retrieved queue of vertex IDs. Here a
//!   worker walks its roots in order with [`gms_core::split::walk`] and
//!   hands the back half of what remains to an idle worker, with one
//!   `MatchState` per walked segment. Without stealing, the roots are
//!   cut into one static chunk per thread.
//!
//! Both run on the ambient pool — the caller's, as every other kernel
//! does (a benchmark's `pool().install`, a server's worker pool); the
//! thread sweeps of Fig. 7 install a pool of each width around the
//! call.
//!
//! Diverse backtracking depths per root vertex make some threads
//! finish early; stealing flattens that imbalance (the effect Fig. 7
//! measures thread-by-thread).

use crate::labeled::LabeledGraph;
use crate::vf2::{build_plan, IsoOptions, MatchPlan, MatchState};
use gms_core::split::{walk, HEARTBEAT};
use gms_core::CancelToken;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The driver's [`gms_core::split`] heartbeat; zero in unit tests, so
/// they split at every chance.
const SPLIT_AFTER: Duration = if cfg!(test) {
    Duration::ZERO
} else {
    HEARTBEAT
};

/// Parallel driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct ParallelIsoConfig {
    /// Dynamic work stealing (vs. static per-thread chunks).
    pub work_stealing: bool,
    /// Matching options (semantics + §6.4 optimizations). The `limit`
    /// field is treated as a soft limit in parallel runs: no new root
    /// starts once the embeddings found reach it, but roots already in
    /// flight complete; the result is capped at `limit`.
    pub options: IsoOptions,
}

impl Default for ParallelIsoConfig {
    fn default() -> Self {
        Self {
            work_stealing: true,
            options: IsoOptions::default(),
        }
    }
}

/// Counts embeddings of `query` in `target` with the parallel driver.
pub fn count_embeddings_parallel(
    query: &LabeledGraph,
    target: &LabeledGraph,
    config: &ParallelIsoConfig,
) -> u64 {
    count_embeddings_parallel_cancellable(query, target, config, &CancelToken::none())
}

/// [`count_embeddings_parallel`] under a cooperative [`CancelToken`]
/// probed at every root and extension step. A fired token
/// yields a partial count the caller must discard.
pub fn count_embeddings_parallel_cancellable(
    query: &LabeledGraph,
    target: &LabeledGraph,
    config: &ParallelIsoConfig,
    cancel: &CancelToken,
) -> u64 {
    if query.num_vertices() == 0 {
        return 1;
    }
    if query.num_vertices() > target.num_vertices() {
        return 0;
    }
    let plan = build_plan(query, target, &config.options);
    count_roots(target, &plan, config, cancel).min(config.options.limit)
}

/// The embeddings found from `plan`'s roots before the result is capped
/// at the limit: no root starts once the total reaches it, but roots in
/// flight then complete.
fn count_roots(
    target: &LabeledGraph,
    plan: &MatchPlan,
    config: &ParallelIsoConfig,
    cancel: &CancelToken,
) -> u64 {
    let (roots, limit) = (plan.roots(), config.options.limit);
    let total = AtomicU64::new(0);
    // The embeddings `state` finds from `roots`: none once the total
    // has reached the limit or the token has fired.
    let count = |state: &mut MatchState, roots: &[_]| {
        if total.load(Ordering::Relaxed) >= limit || cancel.is_cancelled() {
            return 0;
        }
        let before = state.found;
        state.count_from(roots);
        let found = state.found - before;
        total.fetch_add(found, Ordering::Relaxed);
        found
    };
    let state = || MatchState::new(target, plan, &config.options, cancel);
    if config.work_stealing {
        walk(
            0..roots.len(),
            SPLIT_AFTER,
            &|segment| segment(&mut state()),
            &|state, i, _| count(state, &roots[i..=i]),
        )
    } else {
        // One contiguous chunk per thread: static work splitting.
        let chunk = roots.len().div_ceil(rayon::current_num_threads()).max(1);
        roots
            .par_chunks(chunk)
            .map(|chunk| count(&mut state(), chunk))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::count_embeddings;
    use gms_core::{CsrGraph, NodeId};

    fn triangle() -> LabeledGraph<'static> {
        LabeledGraph::unlabeled(CsrGraph::from_undirected_edges(
            3,
            &[(0, 1), (1, 2), (0, 2)],
        ))
    }

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    // Under `cfg(test)` a worker of a 2- or 4-wide pool hands roots off
    // at every check that finds its deque empty; the first check always
    // does.
    #[test]
    fn parallel_matches_sequential() {
        let target = LabeledGraph::random_labels(gms_gen::gnp(80, 0.15, 2), 2, 4);
        let query = target.induced(&[0, 5, 11, 17]);
        let sequential = count_embeddings(&query, &target, &IsoOptions::default());
        for threads in [1, 2, 4, 8] {
            for stealing in [false, true] {
                let config = ParallelIsoConfig {
                    work_stealing: stealing,
                    options: IsoOptions::default(),
                };
                assert_eq!(
                    pool(threads).install(|| count_embeddings_parallel(&query, &target, &config)),
                    sequential,
                    "threads {threads} stealing {stealing}"
                );
            }
        }
    }

    #[test]
    fn triangle_in_k5() {
        let target = LabeledGraph::unlabeled(gms_gen::complete(5));
        let config = ParallelIsoConfig::default();
        // C(5,3) × 3! = 60.
        let found = pool(3).install(|| count_embeddings_parallel(&triangle(), &target, &config));
        assert_eq!(found, 60);
    }

    #[test]
    fn soft_limit_caps_result() {
        let target = LabeledGraph::unlabeled(gms_gen::complete(9));
        let config = ParallelIsoConfig {
            work_stealing: true,
            options: IsoOptions {
                limit: 10,
                ..IsoOptions::default()
            },
        };
        let found = pool(4).install(|| count_embeddings_parallel(&triangle(), &target, &config));
        assert_eq!(found, 10);
    }

    #[test]
    fn the_limit_holds_across_walker_splits() {
        // 300 disjoint triangles: each of the 900 roots starts 2
        // triangle embeddings. Every walk splits its roots at its
        // first check, so without a limit shared across segments each
        // segment would run on to the limit by itself.
        let edges: Vec<(NodeId, NodeId)> = (0..300)
            .flat_map(|t| {
                [
                    (3 * t, 3 * t + 1),
                    (3 * t + 1, 3 * t + 2),
                    (3 * t, 3 * t + 2),
                ]
            })
            .collect();
        let target = LabeledGraph::unlabeled(CsrGraph::from_undirected_edges(900, &edges));
        let query = triangle();
        for limit in [1, 12, 101] {
            let options = IsoOptions {
                limit,
                ..IsoOptions::default()
            };
            let plan = build_plan(&query, &target, &options);
            let config = ParallelIsoConfig {
                work_stealing: true,
                options,
            };
            for threads in [1, 2, 4] {
                let pool = pool(threads);
                let at = format!("limit {limit} threads {threads}");
                let found = pool.install(|| count_embeddings_parallel(&query, &target, &config));
                assert_eq!(found, limit, "{at}");
                // Once the total reaches the limit no root starts; at
                // most one root per worker is still in flight.
                let uncapped =
                    pool.install(|| count_roots(&target, &plan, &config, &CancelToken::none()));
                assert!(uncapped >= limit, "{at}: {uncapped}");
                assert!(uncapped < limit + 2 * threads as u64, "{at}: {uncapped}");
            }
        }
    }

    #[test]
    fn degenerate_queries() {
        let target = triangle();
        let empty = LabeledGraph::unlabeled(CsrGraph::from_undirected_edges(0, &[]));
        let config = ParallelIsoConfig::default();
        assert_eq!(count_embeddings_parallel(&empty, &target, &config), 1);
        let big = LabeledGraph::unlabeled(gms_gen::complete(10));
        assert_eq!(count_embeddings_parallel(&big, &target, &config), 0);
    }
}
