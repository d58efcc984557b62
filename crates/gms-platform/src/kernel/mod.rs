//! The unified kernel API — one typed entry point for every mining
//! kernel in the suite, and one way to run it.
//!
//! GMS pitches graph mining as *one* programmable pipeline (load →
//! represent → preprocess → kernel) in which the graph representation
//! is a swappable element. The crates below expose each algorithm
//! through its own signature (`BkVariant::run`, `k_clique_count`,
//! bespoke VF2/learn/opt functions); this module is the uniform
//! surface a service layer sits on:
//!
//! * [`Kernel`] — the trait every mining entry point adapts to:
//!   `name()`, a typed parameter schema ([`ParamSpec`]), and a single
//!   `run(&RunCx) -> Outcome`;
//! * [`RunCx`] — what a run is given: the graph as it is resident
//!   (raw CSR or gap-compressed, decoded at most once per run), the
//!   validated [`Params`], and the request's [`CancelToken`];
//! * [`execute`] — the only caller of [`Kernel::run`]: it enforces
//!   the fired-token-is-an-error contract and books the decode time,
//!   for sessions, batches, benchmarks and the network front end
//!   alike;
//! * [`Registry`] — enumerates all kernels by name and [`Category`]
//!   (pattern / matching / learn / opt / order); the benchmark
//!   binaries iterate it, so registering a kernel automatically adds
//!   it to the benchmarks;
//! * [`Resident`] and [`Engine`] — the one way to *hold* a graph: a
//!   loaded [`GraphStore`] with its content fingerprint and versioned
//!   [`GraphLineage`], and the three operations every holder calls on
//!   the registry + cache pair — **admit** (register, idempotent by
//!   content), **run** (key → single-flight → [`execute`]) and
//!   **mutate** (patch → delta-aware cache migration → next version);
//! * [`Session`] — a table of residents behind [`GraphHandle`]s that
//!   memoizes `(fingerprint, kernel, params)` → [`Outcome`] in an LRU
//!   cache (`gms-serve` keeps the same residents by name);
//! * [`ResultCache`] — that cache as a thread-safe, `Arc`-shareable
//!   object in its own right: hit/miss/eviction/coalescing counters,
//!   single-flight deduplication of identical in-flight requests,
//!   and fingerprint invalidation for replaced graphs — the piece N
//!   concurrent serving sessions share;
//! * [`BatchRunner`] — pushes a slice of [`BatchRequest`]s through
//!   the work-stealing pool, deduplicating identical requests.
//!
//! One path from a file to an answer, whoever holds the graph:
//!
//! ```text
//!  gms_graph::io::load_graph(format, path | text) ─► GraphStore (raw | compressed)
//!        │
//!        ▼  Resident::new ── fingerprint, lineage at version 0 (outside any lock)
//!        ▼  Engine::admit ── same fingerprint as the resident it replaces: keep that
//!    Resident                one's lineage + cache lines, swap the store only if the
//!        │                   representation differs; new content: invalidate the old
//!        │                   unless still referenced
//!        ▼
//!    table { Session: by GraphHandle | gms-serve: by name, under its RwLock }
//!        │
//!        ├─► Engine::key ─► Engine::run ── registry → CacheKey → RunCx → single-flight
//!        │                                 → execute(kernel)      (BatchRunner: key,
//!        │                                                         dedupe, then run)
//!        └─► Engine::mutate ── patch_csr → fingerprint → migrate cache → next Resident
//! ```
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
mod resident;
mod run;
mod session;

pub use batch::{BatchRequest, BatchRunner};
pub use cache::{next_owner, CacheKey, CacheStats, MigrationDecision, MigrationStats, ResultCache};
pub use delta::{DeltaSensitivity, GraphLineage, MutationOutcome};
pub use outcome::{Outcome, Payload, StageTimings};
pub use params::{Bounds, ParamSpec, Params, Value, ValueKind};
pub use registry::Registry;
pub use resident::{Engine, KeyedRun, Resident};
pub use run::{execute, RunCx};
pub use session::{GraphHandle, Session, SessionStats, SnapshotCompression};

pub use gms_graph::{fingerprint, fingerprint_graph, GraphStore, GraphView};

use gms_core::CsrGraph;
use gms_graph::EdgeDelta;

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
/// gms-opt / gms-order is wrapped in. One method runs it —
/// [`Kernel::run`], called only by [`execute`]; representation,
/// cancellation and whatever cross-cutting concern comes next travel
/// in the [`RunCx`], not in further methods.
pub trait Kernel: Send + Sync {
    /// Stable kebab-case name the kernel is requested by.
    fn name(&self) -> &'static str;

    /// Which family the kernel belongs to.
    fn category(&self) -> Category;

    /// One-line description for listings.
    fn about(&self) -> &'static str;

    /// The parameter schema: every accepted parameter with its type,
    /// default, choices and bounds — the only place they are written.
    /// Requests are validated against it before the kernel runs
    /// ([`Params::validate`]), and its defaults complete both the
    /// cache key and the values [`RunCx`]'s accessors return.
    fn params(&self) -> &'static [ParamSpec];

    /// Runs the kernel on the graph, parameters and cancellation
    /// token `cx` carries. Callers go through [`execute`].
    ///
    /// The parameters passed [`Params::validate`] against
    /// [`Kernel::params`], which enforced every kind, choice and
    /// bound: read them through [`RunCx::int`] and its siblings and
    /// use them as they are. Only what the graph alone decides (a BFS
    /// root beyond the vertex count) is the kernel's to map onto the
    /// graph; nothing else is checked or repaired here.
    ///
    /// [`RunCx::csr`] always reaches the graph; a kernel that needs
    /// less than the full CSR of a compressed resident takes
    /// [`RunCx::view`] instead.
    /// Kernels with long hot loops (Bron–Kerbosch, k-clique, subgraph
    /// isomorphism, triangle counting) probe [`RunCx::cancel`] mid-search and return
    /// early with whatever they have, which [`execute`] discards; the
    /// rest run to completion and are discarded afterwards.
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError>;

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
