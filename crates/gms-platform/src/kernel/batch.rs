//! Batched kernel execution through the work-stealing pool: the
//! throughput shape of the north-star service layer. A batch is
//! validated request by request, deduplicated against both the
//! session cache and itself, and the remaining unique jobs fan out
//! as stealable tasks on a sized rayon pool.

use super::resident::KeyedRun;
use super::session::{GraphHandle, Session};
use super::{CancelToken, KernelError, Outcome, Params, StageTimings};
use rayon::prelude::*;

/// One kernel request inside a batch.
#[derive(Clone, Debug)]
pub struct BatchRequest {
    /// Registered kernel name.
    pub kernel: String,
    /// Graph to mine (a handle issued by the serving session).
    pub graph: GraphHandle,
    /// Parameter overrides.
    pub params: Params,
}

impl BatchRequest {
    /// Convenience constructor.
    pub fn new(kernel: &str, graph: GraphHandle, params: Params) -> Self {
        Self {
            kernel: kernel.to_string(),
            graph,
            params,
        }
    }
}

/// Executes slices of [`BatchRequest`]s against a [`Session`],
/// running cache-missing kernels concurrently on a work-stealing
/// pool of the configured width.
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner over `threads` workers (0 = the pool's default
    /// width, which honors `RAYON_NUM_THREADS`).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// Runs every request, returning outcomes aligned with the input
    /// slice.
    ///
    /// Requests whose `(fingerprint, kernel, params)` key was served
    /// before come back from the session cache; duplicates *within*
    /// the batch run once, with the copies marked `cached`. Fresh
    /// results are inserted into the session cache, so a subsequent
    /// batch (or [`Session::run`]) reuses them.
    pub fn run(
        &self,
        session: &mut Session,
        requests: &[BatchRequest],
    ) -> Vec<Result<Outcome, KernelError>> {
        self.run_cancellable(session, requests, &CancelToken::none())
    }

    /// [`BatchRunner::run`] under a cooperative [`CancelToken`]
    /// shared by every request in the batch — the shape a propagated
    /// request deadline takes once it reaches batched execution.
    ///
    /// Cache hits are still served after the token fires (they cost
    /// nothing), but jobs that would need kernel time fail fast with
    /// [`KernelError::DeadlineExceeded`], and jobs already running
    /// stop at the kernel's next cancellation point. Failed jobs are
    /// never cached.
    pub fn run_cancellable(
        &self,
        session: &mut Session,
        requests: &[BatchRequest],
        cancel: &CancelToken,
    ) -> Vec<Result<Outcome, KernelError>> {
        // Phase 1 (sequential): validate, consult the cache, and
        // collect the unique keys that actually need kernel time.
        // `slots` remembers how to assemble each request's response:
        // an immediate result, or an index into the unique job list.
        enum Slot {
            Ready(Result<Outcome, KernelError>),
            Job { index: usize, duplicate: bool },
        }
        let Session {
            engine,
            graphs,
            stats,
            owner,
        } = session;
        let mut jobs: Vec<KeyedRun<'_>> = Vec::new();
        let mut slots: Vec<Slot> = Vec::with_capacity(requests.len());
        for request in requests {
            let keyed = graphs
                .get(request.graph.0)
                .ok_or(KernelError::InvalidHandle)
                .and_then(|resident| engine.key(resident, &request.kernel, &request.params));
            match keyed {
                Err(e) => slots.push(Slot::Ready(Err(e))),
                Ok(keyed) => {
                    if let Some(hit) = engine.cache.get(&keyed.key, *owner) {
                        stats.note(true);
                        slots.push(Slot::Ready(Ok(hit)));
                    } else if let Some(index) = jobs.iter().position(|j| j.key == keyed.key) {
                        slots.push(Slot::Job {
                            index,
                            duplicate: true,
                        });
                    } else {
                        jobs.push(keyed);
                        slots.push(Slot::Job {
                            index: jobs.len() - 1,
                            duplicate: false,
                        });
                    }
                }
            }
        }

        // Phase 2 (parallel): the unique misses fan out on the pool,
        // each through the same `Engine::run` a single request takes:
        // the shared cache's single-flight entry point inserts fresh
        // outcomes itself and coalesces with any identical request
        // another session has in flight.
        let mut builder = rayon::ThreadPoolBuilder::new();
        if self.threads > 0 {
            builder = builder.num_threads(self.threads);
        }
        let pool = builder.build().expect("batch pool");
        let computed: Vec<Result<Outcome, KernelError>> = pool.install(|| {
            jobs.par_iter()
                .map(|job| engine.run(job, cancel, *owner))
                .collect()
        });

        // Phase 3 (sequential): fold the unique jobs into this
        // session's stats and assemble responses in request order.
        for outcome in computed.iter().flatten() {
            stats.note(outcome.cached);
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(result) => result,
                Slot::Job { index, duplicate } => {
                    let mut result = computed[index].clone();
                    if duplicate {
                        if let Ok(outcome) = &mut result {
                            // The duplicate did not run a kernel of
                            // its own: mark it like a cache hit.
                            outcome.cached = true;
                            outcome.timings = StageTimings::default();
                        }
                    }
                    result
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_batch_dedups_and_fills_the_cache() {
        let mut session = Session::new();
        let g = session.add_graph(gms_gen::planted_cliques(100, 0.03, 2, 5, 3).0);
        let requests = vec![
            BatchRequest::new("triangle-count", g, Params::new()),
            BatchRequest::new("k-clique", g, Params::new().with("k", 3)),
            // Duplicate of the first request: must not run twice.
            BatchRequest::new("triangle-count", g, Params::new()),
            BatchRequest::new("no-such-kernel", g, Params::new()),
        ];
        let results = BatchRunner::new(2).run(&mut session, &requests);
        assert_eq!(results.len(), 4);
        let first = results[0].as_ref().unwrap();
        let dup = results[2].as_ref().unwrap();
        assert!(!first.cached);
        assert!(dup.cached, "in-batch duplicate is served, not re-run");
        assert!(dup.same_result(first));
        assert!(matches!(results[3], Err(KernelError::UnknownKernel(_))));
        // The batch populated the session cache.
        let hit = session
            .run("k-clique", g, &Params::new().with("k", 3))
            .unwrap();
        assert!(hit.cached);
    }

    #[test]
    fn batch_and_single_requests_build_bit_identical_cache_keys() {
        // Both go through `Engine::key`; pin it so the two cannot
        // drift apart again: defaults omitted vs spelled out, raw vs
        // compressed residents, one request per path.
        let graph = gms_gen::planted_cliques(100, 0.03, 2, 5, 3).0;
        let requests = |raw, gap| {
            vec![
                BatchRequest::new("triangle-count", raw, Params::new()),
                BatchRequest::new("k-clique", gap, Params::new().with("k", 4)),
                BatchRequest::new("k-clique", raw, Params::new().with("k", 3)),
                BatchRequest::new("bk", gap, Params::new().with("ordering", "adg")),
            ]
        };
        let mut batched = Session::new();
        let raw = batched.add_graph(graph.clone());
        let gap = batched.add_compressed(gms_graph::CompressedCsr::from_csr(&graph));
        for result in BatchRunner::new(2).run(&mut batched, &requests(raw, gap)) {
            result.unwrap();
        }

        let mut single = Session::new();
        let raw = single.add_graph(graph.clone());
        let gap = single.add_compressed(gms_graph::CompressedCsr::from_csr(&graph));
        for request in requests(raw, gap) {
            single
                .run(&request.kernel, request.graph, &request.params)
                .unwrap();
        }
        let keys = batched.engine.cache.keys();
        assert_eq!(keys.len(), 4);
        assert_eq!(keys, single.engine.cache.keys());
    }

    #[test]
    fn fired_token_fails_misses_but_serves_hits() {
        let mut session = Session::new();
        let g = session.add_graph(gms_gen::gnp(80, 0.1, 4));
        let warm = vec![BatchRequest::new("triangle-count", g, Params::new())];
        assert!(BatchRunner::new(2).run(&mut session, &warm)[0].is_ok());

        let fired = CancelToken::manual();
        fired.cancel();
        let requests = vec![
            BatchRequest::new("triangle-count", g, Params::new()), // cached
            BatchRequest::new("k-clique", g, Params::new().with("k", 3)), // miss
        ];
        let results = BatchRunner::new(2).run_cancellable(&mut session, &requests, &fired);
        assert!(results[0].as_ref().unwrap().cached, "hits still served");
        assert!(matches!(results[1], Err(KernelError::DeadlineExceeded)));
        // The failure was not cached: a live retry computes it.
        let retry = session
            .run("k-clique", g, &Params::new().with("k", 3))
            .unwrap();
        assert!(!retry.cached);
    }

    #[test]
    fn second_batch_is_all_cache_hits() {
        let mut session = Session::new();
        let g = session.add_graph(gms_gen::gnp(80, 0.1, 4));
        let requests: Vec<BatchRequest> = ["triangle-count", "bk-gms-adg", "order-degree"]
            .iter()
            .map(|k| BatchRequest::new(k, g, Params::new()))
            .collect();
        let first = BatchRunner::new(2).run(&mut session, &requests);
        let second = BatchRunner::new(2).run(&mut session, &requests);
        for (a, b) in first.iter().zip(&second) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert!(!a.cached);
            assert!(b.cached);
            assert!(b.same_result(a));
        }
    }
}
