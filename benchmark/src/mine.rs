//! `mine_raw` and `mine_gap`: kernels run in-process through
//! `Session::run`, result cache off.
//!
//! Both repeat a fixed round of jobs, so the work per round never
//! changes and `ops_per_s` is jobs per round over the median round
//! time. Kernels, set algebra, orderings and the scheduler do all the
//! work here; the platform cache, the server and the router do none.
//! `mine_gap` runs the same kernel layer through varint decode instead
//! of slices.

use std::collections::BTreeMap;
use std::time::Instant;

use gms_graph::CompressedCsr;
use gms_platform::kernel::{GraphHandle, Params, Session};

use crate::graphs::{check_invariants, generate, params_of, Expected};
use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::wire::{key, KernelKey};
use crate::workload::{pool, Check, Section, Workload};

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Repr {
    Raw,
    /// `CompressedCsr::from_csr`.
    Gap,
    /// `from_csr_ordered` under `bfs_order(csr, 0)`, the rank
    /// `SnapshotCompression::GapReorder` uses: a relabelled isomorph.
    GapReorder,
}

pub struct Job {
    pub graph: &'static str,
    pub repr: Repr,
    pub key: KernelKey,
    /// Runs per round. Frozen constants, sized at the commit that
    /// added the benchmark so each line costs ~0.2 s of a round.
    pub reps: usize,
}

const fn job(graph: &'static str, repr: Repr, key: KernelKey, reps: usize) -> Job {
    Job {
        graph,
        repr,
        key,
        reps,
    }
}

/// The paper's four use cases plus triangles: maximal cliques, k-cliques,
/// subgraph isomorphism and orderings. ~2.2 s per round at baseline.
pub static MINE_RAW: [Job; 10] = [
    job("kron-4k", Repr::Raw, key("bk", "{}"), 1),
    job("kron-4k", Repr::Raw, key("bk-gms-adg", "{}"), 1),
    job("kron-4k", Repr::Raw, key("k-clique", "{\"k\":4}"), 7),
    job("kron-4k", Repr::Raw, key("k-clique", "{\"k\":5}"), 2),
    job("kron-4k", Repr::Raw, key("subgraph-iso-par", "{}"), 1),
    job("clique-6k", Repr::Raw, key("bk", "{}"), 10),
    job("er-6k", Repr::Raw, key("bk", "{}"), 8),
    job("big-kron", Repr::Raw, key("triangle-count", "{}"), 1),
    job("big-kron", Repr::Raw, key("order-degeneracy", "{}"), 7),
    job("big-kron", Repr::Raw, key("order-adg", "{}"), 7),
];

/// Weighted toward kernels where decode dominates: `triangle-count`
/// decodes neighbourhoods natively, `k-core` spends ~90 % of its time
/// decoding once. ~2.2 s per round at baseline.
pub static MINE_GAP: [Job; 8] = [
    job("mid-kron", Repr::Gap, key("triangle-count", "{}"), 1),
    job("mid-kron", Repr::GapReorder, key("triangle-count", "{}"), 1),
    job("big-kron", Repr::Gap, key("k-core", "{}"), 10),
    job("big-kron", Repr::GapReorder, key("k-core", "{}"), 15),
    job("big-kron", Repr::Gap, key("order-degeneracy", "{}"), 6),
    job("big-kron", Repr::Gap, key("coloring", "{}"), 4),
    job("kron-4k", Repr::Gap, key("triangle-count", "{}"), 7),
    job("kron-4k", Repr::Gap, key("k-clique", "{\"k\":4}"), 7),
];

struct Prepared {
    kernel: &'static str,
    handle: GraphHandle,
    params: Params,
    expected: u64,
}

pub struct Mine {
    session: Session,
    jobs: Vec<Prepared>,
    /// One entry per job repetition: an index into `jobs`.
    round: Vec<usize>,
    rng: Rng,
    check: Check,
}

impl Mine {
    pub fn setup(table: &'static [Job], seed: u64) -> Self {
        let expected = Expected::load();
        let mut session = Session::new();
        session.set_cache_capacity(0);

        let mut handles: BTreeMap<(&str, Repr), GraphHandle> = BTreeMap::new();
        for job in table {
            if handles.contains_key(&(job.graph, job.repr)) {
                continue;
            }
            let csr = generate(job.graph);
            let handle = match job.repr {
                Repr::Raw => session.add_graph(csr),
                Repr::Gap => session.add_compressed(CompressedCsr::from_csr(&csr)),
                Repr::GapReorder => {
                    let rank = gms_order::bfs_order(&csr, 0);
                    session.add_compressed(CompressedCsr::from_csr_ordered(&csr, &rank))
                }
            };
            handles.insert((job.graph, job.repr), handle);
        }

        let jobs: Vec<Prepared> = table
            .iter()
            .map(|job| Prepared {
                kernel: job.key.kernel,
                handle: handles[&(job.graph, job.repr)],
                params: params_of(job.key),
                expected: expected.get(job.graph, job.key),
            })
            .collect();
        let round = table
            .iter()
            .enumerate()
            .flat_map(|(i, job)| std::iter::repeat_n(i, job.reps))
            .collect();

        let mut mine = Self {
            session,
            jobs,
            round,
            rng: Rng(seed),
            check: Check::default(),
        };
        mine.warm_up(table);
        mine
    }

    /// The discarded pass: every job once. Its counts feed the
    /// relations that must hold between kernels on any graph.
    fn warm_up(&mut self, table: &[Job]) {
        let mut observed = BTreeMap::new();
        for (i, job) in table.iter().enumerate() {
            let (patterns, _, _) = self.run_job(i);
            let expected = self.jobs[i].expected;
            self.check.expect(patterns == Some(expected), || {
                format!(
                    "{} on {}: {patterns:?}, expected {expected}",
                    job.key.kernel, job.graph
                )
            });
            if let Some(patterns) = patterns {
                observed.insert((job.graph.to_string(), job.key), patterns);
            }
        }
        self.check.merge(check_invariants(&observed));
    }

    /// One kernel run inside the pool: the pattern count (`None` on an
    /// error), the stage timings the outcome carries, and the wall time.
    fn run_job(&mut self, index: usize) -> (Option<u64>, [u64; 3], (Instant, Instant)) {
        let job = &self.jobs[index];
        let session = &mut self.session;
        let start = Instant::now();
        let outcome = pool().install(|| session.run(job.kernel, job.handle, &job.params));
        let end = Instant::now();
        match outcome {
            Ok(o) => {
                let t = o.timings;
                let stages = [t.convert, t.preprocess, t.kernel].map(|d| d.as_nanos() as u64);
                (Some(o.patterns), stages, (start, end))
            }
            Err(_) => (None, [0; 3], (start, end)),
        }
    }
}

impl Workload for Mine {
    fn run(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Section {
        let mut section = Section::default();
        let mut rounds = Vec::new();
        let counters = || {
            [
                pool().steal_count(),
                pool().park_count(),
                pool().notify_count(),
            ]
        };
        let before = counters();
        let start = Instant::now();
        while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let mut order = self.round.clone();
            self.rng.shuffle(&mut order);
            let round_start = Instant::now();
            for index in order {
                let (patterns, stages, (t0, t1)) = self.run_job(index);
                let kernel = self.jobs[index].kernel;
                section.attempted += 1;
                if patterns != Some(self.jobs[index].expected) {
                    section.failed += 1;
                }
                section.read_ms.push((t1 - t0).as_secs_f64() * 1e3);
                section.add(kernel, patterns.unwrap_or(0) as f64);
                if let Some(tracer) = tracer.as_deref_mut() {
                    let op = section.attempted;
                    let (t0, t1) = (tracer.ns(t0), tracer.ns(t1));
                    let parent = tracer.record("job", kernel, t0, t1, None, op);
                    // The stages ran back to back inside the call; lay
                    // them out from its start.
                    let mut at = t0;
                    for (name, ns) in ["convert", "preprocess", "kernel"].into_iter().zip(stages) {
                        if ns > 0 {
                            tracer.record(name, kernel, at, at + ns, parent, op);
                            at += ns;
                        }
                    }
                }
            }
            rounds.push(round_start.elapsed().as_secs_f64());
        }
        let after = counters();
        for (name, (a, b)) in ["steals", "parks", "notifies"]
            .into_iter()
            .zip(before.into_iter().zip(after))
        {
            section.add(name, (b - a) as f64);
        }
        section.ops_per_s = self.round.len() as f64 / median(&mut rounds);
        section.summarise();
        section
    }

    fn finish(self: Box<Self>) -> Check {
        self.check
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_has_an_expected_count() {
        let expected = Expected::load();
        for job in MINE_RAW.iter().chain(&MINE_GAP) {
            expected.get(job.graph, job.key);
        }
    }
}
