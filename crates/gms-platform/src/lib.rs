//! # gms-platform
//!
//! The benchmarking platform of GraphMineSuite-rs (§5): the pipeline
//! API with separately-timed stages, the §8.1 measurement methodology
//! (warmup discard, mean + 95% non-parametric CI), the §4.3
//! algorithmic-throughput metric, software performance counters as
//! the PAPI substitute (§5.5 — see DESIGN.md for the substitution
//! rationale), a thread-scaling harness, and Table 7-style dataset
//! statistics — plus the [`kernel`] subsystem: the unified typed
//! entry point ([`kernel::Kernel`]), the name/category
//! [`kernel::Registry`] over every mining kernel in the suite, the
//! one owner of a loaded graph ([`kernel::Resident`]: `load_graph` →
//! admit → run / mutate, the [`kernel::Engine`] operations shared by
//! every holder — diagram in [`kernel`]), the [`kernel::Session`]
//! that keeps residents by handle over a fingerprint-keyed result
//! cache, and the pool-driven [`kernel::BatchRunner`].

#![warn(missing_docs)]

pub mod counters;
pub mod kernel;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod scaling;
pub mod stats;

pub use counters::{CounterRegion, CounterSnapshot, CountingSet};
pub use kernel::{
    BatchRequest, BatchRunner, CacheKey, CacheStats, Category, GraphHandle, Kernel, KernelError,
    Outcome, ParamSpec, Params, Payload, Registry, ResultCache, RunCx, Session, SessionStats,
    Value, ValueKind,
};
pub use metrics::{Measurement, Throughput};
pub use pipeline::{run_pipeline, Pipeline, StageTimings};
pub use report::ResultTable;
pub use scaling::{
    efficiencies, run_scaling, series_json_rows, series_json_rows_with, ScalingPoint,
};
pub use stats::GraphStats;
