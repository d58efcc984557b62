//! The uniform result of any kernel run: pattern count, per-stage
//! timings ([`StageTimings`]), and a kernel-specific payload.

use gms_core::NodeId;
use std::time::Duration;

/// Per-stage timings of one kernel run — the separately timed stages
/// of the GMS pipeline (§5.4, Listing 3): representation conversion
/// (steps ①–②), preprocessing such as reordering (③), and the
/// kernel itself (④–⑤).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Representation conversion time.
    pub convert: Duration,
    /// Preprocessing (reordering, ...) time.
    pub preprocess: Duration,
    /// Kernel time.
    pub kernel: Duration,
}

impl StageTimings {
    /// End-to-end time.
    pub fn total(&self) -> Duration {
        self.convert + self.preprocess + self.kernel
    }
}

/// Kernel-specific result data beyond the pattern count.
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Nothing beyond the count.
    None,
    /// Materialized vertex groups (maximal cliques, k-cliques, ...),
    /// each sorted ascending.
    VertexGroups(Vec<Vec<NodeId>>),
    /// A per-vertex assignment (colors, communities, clusters).
    Assignment(Vec<u32>),
    /// A vertex ranking (reordering kernels): `rank[v]` is the
    /// position of `v` in the computed order.
    Rank(Vec<u32>),
    /// A single quality number (modularity, forest weight, accuracy).
    Scalar(f64),
}

impl Payload {
    /// Whether the payload carries data.
    pub fn is_some(&self) -> bool {
        !matches!(self, Payload::None)
    }
}

/// The uniform outcome of one kernel request: what every kernel
/// returns through the [`Kernel`](super::Kernel) entry point,
/// whatever its legacy signature looked like.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Name of the kernel that produced this outcome.
    pub kernel: &'static str,
    /// Number of mined patterns — the §4.3 algorithmic-throughput
    /// numerator (maximal cliques, k-cliques, embeddings, colors,
    /// communities, ... as appropriate for the kernel).
    pub patterns: u64,
    /// Per-stage timings of the work done *for this request*: a
    /// cache hit reports zeros, because no kernel ran.
    pub timings: StageTimings,
    /// Kernel-specific extra data.
    pub payload: Payload,
    /// Whether this outcome was served from the session cache
    /// (including a wait on an identical request already in flight)
    /// instead of running the kernel.
    pub cached: bool,
}

impl Outcome {
    /// A fresh (non-cached) outcome with the given pattern count and
    /// zero timings; chain [`Outcome::with_timings`] /
    /// [`Outcome::with_payload`] to fill it in.
    pub fn new(kernel: &'static str, patterns: u64) -> Self {
        Self {
            kernel,
            patterns,
            timings: StageTimings::default(),
            payload: Payload::None,
            cached: false,
        }
    }

    /// Sets the per-stage timings.
    pub fn with_timings(mut self, timings: StageTimings) -> Self {
        self.timings = timings;
        self
    }

    /// Sets the payload.
    pub fn with_payload(mut self, payload: Payload) -> Self {
        self.payload = payload;
        self
    }

    /// Algorithmic throughput (§4.3): patterns per second of kernel
    /// time. Returns 0 for cache hits (no kernel time was spent).
    pub fn throughput(&self) -> f64 {
        let secs = self.timings.kernel.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.patterns as f64 / secs
        }
    }

    /// Same mined result, ignoring provenance (timings and cache
    /// flag) — what "a cache hit returns the same outcome" means.
    pub fn same_result(&self, other: &Outcome) -> bool {
        self.kernel == other.kernel
            && self.patterns == other.patterns
            && self.payload == other.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_kernel_time_only() {
        let o = Outcome::new("t", 100).with_timings(StageTimings {
            convert: Duration::from_secs(1),
            preprocess: Duration::from_secs(1),
            kernel: Duration::from_millis(500),
        });
        assert!((o.throughput() - 200.0).abs() < 1e-9);
        assert_eq!(o.timings.total(), Duration::from_millis(2500));
        assert_eq!(Outcome::new("t", 100).throughput(), 0.0);
    }

    #[test]
    fn same_result_ignores_provenance() {
        let a = Outcome::new("t", 3).with_payload(Payload::Scalar(0.5));
        let mut b = a.clone().with_timings(StageTimings {
            kernel: Duration::from_secs(9),
            ..StageTimings::default()
        });
        b.cached = true;
        assert!(a.same_result(&b));
        assert!(!a.same_result(&Outcome::new("t", 4)));
    }
}
