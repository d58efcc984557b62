//! What every workload has in common: set up, run a timed section,
//! finish with a final answer check.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{mine, serve};

/// The five workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 5] = [
    "mine_raw",
    "mine_gap",
    "serve_hot",
    "route_hot",
    "serve_churn",
];

/// Rayon width and `ServeConfig.workers`: the machine's cores, at most four.
pub fn width() -> usize {
    nproc().min(4)
}

/// The one rayon pool of width [`width`] that in-process kernel runs
/// are installed in.
pub fn pool() -> &'static rayon::ThreadPool {
    static POOL: OnceLock<rayon::ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(width())
            .build()
            .expect("rayon pool")
    })
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What one timed section measured.
#[derive(Default)]
pub struct Section {
    /// Operations offered: kernel runs or requests.
    pub attempted: u64,
    /// Operations refused, errored, or answered wrongly.
    pub failed: u64,
    /// Correct operations per second of the section.
    pub ops_per_s: f64,
    /// Latency of a kernel run or `run` request: how many samples, and
    /// their median, 99th and 99.9th percentile in ms.
    pub samples: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// Each of those latencies, in ms, where the run keeps them all
    /// (`serve_hot` and `route_hot` keep them per window only).
    pub read_ms: Vec<f64>,
    /// Latency of each mutation request, in ms (`serve_churn` only).
    pub write_ms: Vec<f64>,
    /// Counts and sums gathered at the benchmark's call sites, for the
    /// per-layer metrics of a traced run.
    pub counts: BTreeMap<&'static str, f64>,
    /// First request and reply lines, the corpus of the JSON probes.
    pub corpus: Vec<String>,
}

impl Section {
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Summarises all of `read_ms`.
    pub fn summarise(&mut self) {
        let mut sorted = self.read_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if !sorted.is_empty() {
            self.samples = sorted.len() as u64;
            [self.p50_ms, self.p99_ms, self.p999_ms] =
                [0.50, 0.99, 0.999].map(|p| percentile(&sorted, p));
        }
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }
}

/// The result of a workload's final answer check.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Check {
    pub fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failures.push(what());
        }
    }

    pub fn merge(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

pub trait Workload {
    /// Runs the timed section for about `seconds`; spans go to `tracer`.
    fn run(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Section;

    /// Stops what set-up started and reports every answer check made
    /// outside timed sections (warm-up, cross-kernel relations, the
    /// mutate-vs-rebuild comparison).
    fn finish(self: Box<Self>) -> Check;
}

/// Everything before the timed section: graph generation and
/// compression, server and router start, loads over the wire, and one
/// discarded warm-up pass.
pub fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "mine_raw" => Box::new(mine::Mine::setup(&mine::MINE_RAW, seed)),
        "mine_gap" => Box::new(mine::Mine::setup(&mine::MINE_GAP, seed)),
        "serve_hot" => Box::new(serve::Hot::setup(seed, false)),
        "route_hot" => Box::new(serve::Hot::setup(seed, true)),
        "serve_churn" => Box::new(serve::Churn::setup(seed)),
        other => panic!("no workload named {other}"),
    }
}
