//! The unified kernel API — one typed entry point for every mining
//! kernel in the suite.
//!
//! GMS pitches graph mining as *one* programmable pipeline (load →
//! represent → preprocess → kernel), yet the crates below expose a
//! zoo of ad-hoc signatures (`BkVariant::run`, `k_clique_count`,
//! bespoke VF2/learn/opt functions). This module is the uniform
//! surface a service layer can sit on:
//!
//! * [`Kernel`] — the trait every mining entry point adapts to:
//!   `name()`, a typed parameter schema ([`ParamSpec`]), and
//!   `run(&CsrGraph, &Params) -> Outcome`;
//! * [`Registry`] — enumerates all kernels by name and [`Category`]
//!   (pattern / matching / learn / opt / order); the benchmark
//!   binaries iterate it, so registering a kernel automatically adds
//!   it to the benchmarks;
//! * [`Session`] — owns loaded graphs behind [`GraphHandle`]s,
//!   fingerprints their CSR arrays, and memoizes
//!   `(fingerprint, kernel, params)` → [`Outcome`] in an LRU cache;
//! * [`ResultCache`] — that cache as a thread-safe, `Arc`-shareable
//!   object in its own right: hit/miss/eviction/coalescing counters,
//!   single-flight deduplication of identical in-flight requests,
//!   and fingerprint invalidation for replaced graphs — the piece N
//!   concurrent serving sessions share;
//! * [`BatchRunner`] — pushes a slice of [`BatchRequest`]s through
//!   the work-stealing pool, deduplicating identical requests.
//!
//! ```
//! use gms_platform::kernel::{Params, Session};
//!
//! let mut session = Session::new();
//! let g = session.add_graph(gms_gen::planted_cliques(200, 0.02, 2, 6, 7).0);
//! let out = session.run("k-clique", g, &Params::new().with("k", 3)).unwrap();
//! assert!(out.patterns > 0 && !out.cached);
//! let hit = session.run("k-clique", g, &Params::new().with("k", 3)).unwrap();
//! assert!(hit.cached && hit.same_result(&out));
//! ```

mod batch;
mod builtin;
mod cache;
mod delta;
mod outcome;
mod params;
mod registry;
mod session;

pub use batch::{BatchRequest, BatchRunner};
pub use cache::{next_owner, CacheKey, CacheStats, MigrationDecision, MigrationStats, ResultCache};
pub use delta::{migrate_for_delta, DeltaSensitivity, GraphLineage, MutationOutcome};
pub use outcome::{Outcome, Payload};
pub use params::{ParamSpec, Params, Value, ValueKind};
pub use registry::Registry;
pub use session::{
    fingerprint, fingerprint_graph, GraphHandle, GraphStore, Session, SessionStats,
    SnapshotCompression,
};

use gms_core::CsrGraph;
use gms_graph::{CompressedCsr, EdgeDelta};

pub use gms_core::CancelToken;

/// The kernel families of the GMS specification (§4.1), plus the
/// reorderings of the preprocessing stage (③) exposed as runnable
/// kernels in their own right.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Pattern mining: cliques, triangles, clique-stars (§4.1.1).
    Pattern,
    /// Subgraph matching / isomorphism (§4.1.3).
    Matching,
    /// Graph learning: similarity, link prediction, clustering,
    /// communities (§4.1.2).
    Learn,
    /// Optimization: coloring, MST, min cut (§4.1.4).
    Opt,
    /// Vertex reorderings as preprocessing stages (③).
    Order,
}

impl Category {
    /// All categories, in presentation order.
    pub const ALL: [Category; 5] = [
        Category::Pattern,
        Category::Matching,
        Category::Learn,
        Category::Opt,
        Category::Order,
    ];

    /// Lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Pattern => "pattern",
            Category::Matching => "matching",
            Category::Learn => "learn",
            Category::Opt => "opt",
            Category::Order => "order",
        }
    }
}

/// A uniformly-invocable mining kernel: the adapter trait every
/// public entry point of gms-pattern / gms-match / gms-learn /
/// gms-opt / gms-order is wrapped in.
pub trait Kernel: Send + Sync {
    /// Stable kebab-case name the kernel is requested by.
    fn name(&self) -> &'static str;

    /// Which family the kernel belongs to.
    fn category(&self) -> Category;

    /// One-line description for listings.
    fn about(&self) -> &'static str;

    /// The parameter schema: every accepted parameter with its type
    /// and default. Requests are validated against this before the
    /// kernel runs, and the schema's defaults complete the cache key.
    fn params(&self) -> Vec<ParamSpec>;

    /// Runs the kernel on `graph` with validated parameters.
    ///
    /// Implementations may assume `params` passed
    /// [`Params::validate`] against [`Kernel::params`]; they read
    /// values through the typed accessors with the same defaults the
    /// schema declares.
    fn run(&self, graph: &CsrGraph, params: &Params) -> Result<Outcome, KernelError>;

    /// Runs the kernel on a gap-compressed graph.
    ///
    /// The default decodes the whole graph once and delegates to
    /// [`Kernel::run`], charging the decode to the `convert` stage of
    /// the outcome's timings — always correct, never resident-memory
    /// free. Kernels that need less than the full CSR (triangle
    /// counting builds only the degree-oriented forward half)
    /// override this to decode straight into what they use.
    fn run_compressed(
        &self,
        graph: &CompressedCsr,
        params: &Params,
    ) -> Result<Outcome, KernelError> {
        let start = std::time::Instant::now();
        let csr = graph.to_csr();
        let decode = start.elapsed();
        let mut outcome = self.run(&csr, params)?;
        outcome.timings.convert += decode;
        Ok(outcome)
    }

    /// Runs the kernel under a cooperative [`CancelToken`] — the
    /// entry point request deadlines travel through.
    ///
    /// The default runs [`Kernel::run`] to completion and fails with
    /// [`KernelError::DeadlineExceeded`] afterwards if the token has
    /// fired — always correct, never early. Kernels with cancellable
    /// hot loops (Bron–Kerbosch, k-clique, subgraph isomorphism)
    /// override this to probe the token mid-search, so an expired
    /// request stops burning CPU instead of finishing an answer
    /// nobody is waiting for. A fired token must surface as
    /// [`KernelError::DeadlineExceeded`], never as a partial
    /// [`Outcome`] — the result cache would memoize the truncation.
    fn run_with_cancel(
        &self,
        graph: &CsrGraph,
        params: &Params,
        cancel: &CancelToken,
    ) -> Result<Outcome, KernelError> {
        if cancel.expired() {
            return Err(KernelError::DeadlineExceeded);
        }
        let outcome = self.run(graph, params)?;
        if cancel.expired() {
            return Err(KernelError::DeadlineExceeded);
        }
        Ok(outcome)
    }

    /// [`Kernel::run_compressed`] under a cooperative [`CancelToken`].
    ///
    /// The default delegates to [`Kernel::run_compressed`] (so
    /// decode-native overrides keep their hot path) and applies the
    /// same fired-token-becomes-error contract as
    /// [`Kernel::run_with_cancel`].
    fn run_compressed_with_cancel(
        &self,
        graph: &CompressedCsr,
        params: &Params,
        cancel: &CancelToken,
    ) -> Result<Outcome, KernelError> {
        if cancel.expired() {
            return Err(KernelError::DeadlineExceeded);
        }
        let outcome = self.run_compressed(graph, params)?;
        if cancel.expired() {
            return Err(KernelError::DeadlineExceeded);
        }
        Ok(outcome)
    }

    /// How this kernel's result depends on structural deltas — the
    /// declaration delta-aware cache invalidation acts on. The
    /// default is the always-safe [`DeltaSensitivity::Global`] (any
    /// mutation invalidates); kernels whose result is provably local
    /// opt in to keep their cache entries alive across mutations.
    fn delta_sensitivity(&self) -> DeltaSensitivity {
        DeltaSensitivity::Global
    }

    /// Incrementally maintains a previously computed outcome across a
    /// batched edge mutation: `old` is the pre-mutation CSR,
    /// `new` the post-mutation CSR, `delta` what changed, and
    /// `previous` the cached outcome for `old` under the same
    /// parameters. Returns the outcome for `new`, or `None` when this
    /// kernel (or this particular delta shape) has no incremental
    /// path — the caller then invalidates and the next request
    /// recomputes from scratch, so declining is always safe.
    ///
    /// Only consulted for kernels declaring a non-[`Global`]
    /// ([`DeltaSensitivity::Global`]), non-[`VertexCount`]
    /// ([`DeltaSensitivity::VertexCount`]) sensitivity.
    ///
    /// [`Global`]: DeltaSensitivity::Global
    /// [`VertexCount`]: DeltaSensitivity::VertexCount
    fn run_delta(
        &self,
        old: &CsrGraph,
        new: &CsrGraph,
        delta: &EdgeDelta,
        previous: &Outcome,
        params: &Params,
    ) -> Option<Outcome> {
        let _ = (old, new, delta, previous, params);
        None
    }
}

/// Everything that can go wrong between a request and an [`Outcome`].
#[derive(Clone, Debug, PartialEq)]
pub enum KernelError {
    /// No kernel registered under the requested name.
    UnknownKernel(String),
    /// A parameter name the kernel's schema does not declare.
    UnknownParam {
        /// The kernel the request addressed.
        kernel: String,
        /// The undeclared parameter name.
        param: String,
    },
    /// A parameter with the wrong type or an inadmissible value.
    BadParam {
        /// The kernel the request addressed.
        kernel: String,
        /// The offending parameter name.
        param: String,
        /// What was wrong.
        message: String,
    },
    /// A [`GraphHandle`] that does not belong to the session.
    InvalidHandle,
    /// A raw-CSR view was requested from a handle whose graph is
    /// resident only in compressed form.
    NotMaterialized,
    /// A batched edge mutation was rejected (endpoint out of range).
    /// Edge mutations cannot create vertices.
    BadMutation {
        /// What was wrong with the batch.
        message: String,
    },
    /// The request's deadline passed before the kernel completed;
    /// the (partial) work was discarded. Deadline-exceeded results
    /// are never cached, so a later request recomputes from scratch.
    DeadlineExceeded,
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnknownKernel(name) => write!(f, "unknown kernel {name:?}"),
            KernelError::UnknownParam { kernel, param } => {
                write!(f, "kernel {kernel:?} has no parameter {param:?}")
            }
            KernelError::BadParam {
                kernel,
                param,
                message,
            } => write!(
                f,
                "bad parameter {param:?} for kernel {kernel:?}: {message}"
            ),
            KernelError::InvalidHandle => write!(f, "graph handle not owned by this session"),
            KernelError::NotMaterialized => {
                write!(f, "graph is stored compressed; no raw CSR view exists")
            }
            KernelError::BadMutation { message } => {
                write!(f, "bad edge mutation: {message}")
            }
            KernelError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the kernel completed")
            }
        }
    }
}

impl std::error::Error for KernelError {}
