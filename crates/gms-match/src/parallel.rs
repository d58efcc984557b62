//! Parallel subgraph isomorphism (§6.4): the VF3-Light-style driver
//! with the paper's two load-balancing features, over the matcher of
//! [`crate::vf2`] (set-algebra candidates, last depth counted).
//!
//! * **Work splitting** — the root-candidate list (target vertices
//!   from which backtracking starts) is split across threads.
//! * **Work stealing** — idle workers steal further root chunks from
//!   busy ones instead of being stuck with a static chunk; the paper
//!   implements this with a CAS-retrieved queue of vertex IDs, which
//!   maps directly onto the `rayon` scheduler's stealable range
//!   tasks, so this driver is a parallel iterator over root chunks.
//!
//! The chunks run on the ambient pool — the caller's, as every other
//! kernel does (a benchmark's `pool().install`, a server's worker
//! pool) — unless [`ParallelIsoConfig::threads`] asks for a width, in
//! which case a pool of that width is built for the call: the thread
//! sweeps of Fig. 7 need it.
//!
//! Diverse backtracking depths per root vertex make some threads
//! finish early; stealing flattens that imbalance (the effect Fig. 7
//! measures thread-by-thread).

use crate::labeled::LabeledGraph;
use crate::vf2::{build_plan, IsoOptions, MatchState};
use gms_core::CancelToken;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Parallel driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct ParallelIsoConfig {
    /// Worker thread count; `0` (the default) runs on the ambient
    /// pool, any other value on a pool of that width built per call.
    pub threads: usize,
    /// Dynamic work stealing (vs. static per-thread chunks).
    pub work_stealing: bool,
    /// Matching options (semantics + §6.4 optimizations). The `limit`
    /// field is treated as a soft limit in parallel runs: the driver
    /// stops starting new root chunks once reached, but chunks already
    /// in flight complete; the result is capped at `limit`.
    pub options: IsoOptions,
}

impl Default for ParallelIsoConfig {
    fn default() -> Self {
        Self {
            threads: 0,
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
/// probed at every chunk boundary and extension step. A fired token
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
    let limit = config.options.limit;
    let total = AtomicU64::new(0);
    let search = || {
        let roots = plan.roots();
        let threads = rayon::current_num_threads();
        // Chunk granularity is the splitting/stealing knob: with
        // stealing on, roots fan out as many small stealable tasks
        // (each chunk amortizes one `MatchState`); with stealing off,
        // one contiguous chunk per thread reproduces static work
        // splitting.
        let chunk = if config.work_stealing {
            roots.len().div_ceil(threads * 8).max(1)
        } else {
            roots.len().div_ceil(threads).max(1)
        };
        roots.par_chunks(chunk).for_each(|chunk_roots| {
            if total.load(Ordering::Relaxed) >= limit || cancel.is_cancelled() {
                return;
            }
            let mut state = MatchState::new(target, &plan, &config.options, cancel);
            state.count_from(chunk_roots);
            total.fetch_add(state.found, Ordering::Relaxed);
        });
    };
    match config.threads {
        0 => search(),
        threads => rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("a pool of the requested width")
            .install(search),
    }
    total.load(Ordering::Relaxed).min(limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vf2::count_embeddings;
    use gms_core::CsrGraph;

    fn triangle() -> LabeledGraph<'static> {
        LabeledGraph::unlabeled(CsrGraph::from_undirected_edges(
            3,
            &[(0, 1), (1, 2), (0, 2)],
        ))
    }

    #[test]
    fn parallel_matches_sequential() {
        let target = LabeledGraph::random_labels(gms_gen::gnp(80, 0.15, 2), 2, 4);
        let query = target.induced(&[0, 5, 11, 17]);
        let sequential = count_embeddings(&query, &target, &IsoOptions::default());
        for threads in [1, 2, 4, 8] {
            for stealing in [false, true] {
                let config = ParallelIsoConfig {
                    threads,
                    work_stealing: stealing,
                    options: IsoOptions::default(),
                };
                assert_eq!(
                    count_embeddings_parallel(&query, &target, &config),
                    sequential,
                    "threads {threads} stealing {stealing}"
                );
            }
        }
    }

    #[test]
    fn triangle_in_k5() {
        let target = LabeledGraph::unlabeled(gms_gen::complete(5));
        let config = ParallelIsoConfig {
            threads: 3,
            ..ParallelIsoConfig::default()
        };
        // C(5,3) × 3! = 60.
        assert_eq!(count_embeddings_parallel(&triangle(), &target, &config), 60);
    }

    #[test]
    fn soft_limit_caps_result() {
        let target = LabeledGraph::unlabeled(gms_gen::complete(9));
        let config = ParallelIsoConfig {
            threads: 4,
            work_stealing: true,
            options: IsoOptions {
                limit: 10,
                ..IsoOptions::default()
            },
        };
        assert_eq!(count_embeddings_parallel(&triangle(), &target, &config), 10);
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
