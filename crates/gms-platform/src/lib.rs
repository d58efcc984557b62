//! # gms-platform
//!
//! The benchmarking platform of GraphMineSuite-rs (§5): software
//! performance counters as the PAPI substitute (§5.5 — the
//! [`counters`] module docs give the substitution rationale), a
//! thread-scaling harness, and Table 7-style dataset statistics —
//! plus the [`kernel`] subsystem: the unified typed entry point
//! ([`kernel::Kernel`]), whose [`Outcome`] carries the §4.3
//! algorithmic-throughput numerator and the separately timed §5.4
//! pipeline stages ([`StageTimings`]: convert, preprocess, kernel),
//! the name/category [`kernel::Registry`] over every mining kernel in
//! the suite, the one owner of a loaded graph ([`kernel::Resident`]:
//! `load_graph` → admit → run / mutate, the [`kernel::Engine`]
//! operations shared by every holder — diagram in [`kernel`]), the
//! [`kernel::Session`] that keeps residents by handle over a
//! fingerprint-keyed result cache.

#![warn(missing_docs)]

pub mod counters;
pub mod kernel;
pub mod scaling;
pub mod stats;

pub use counters::{CounterRegion, CounterSnapshot, CountingSet};
pub use kernel::{
    CacheKey, CacheStats, Category, GraphHandle, Kernel, KernelError, Outcome, ParamSpec, Params,
    Payload, Registry, ResultCache, RunCx, Session, SessionStats, StageTimings, Value, ValueKind,
};
pub use scaling::{efficiencies, run_scaling, series_json_rows_with, ScalingPoint};
pub use stats::GraphStats;
