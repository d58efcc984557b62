//! # gms-bench
//!
//! Benchmark harness for GraphMineSuite-rs. One binary per paper
//! figure/table (the `[[bin]]` list in this crate's `Cargo.toml` is
//! the experiment index; each binary's header names its figure and
//! the paper shape it checks):
//!
//! ```sh
//! cargo run --release -p gms-bench --bin fig01_bk_throughput
//! cargo run --release -p gms-bench --bin tab07_datasets
//! # ...
//! ```
//!
//! plus criterion microbenches (`cargo bench`). The [`mod@gallery`] module
//! holds the synthetic stand-ins for the Table 7 dataset archetypes.

#![warn(missing_docs)]

pub mod gallery;

pub use gallery::{gallery, print_csv, Dataset, FIG1_GRAPHS};

/// Scale factor for the figure binaries, read from `GMS_SCALE`
/// (default 1). Raise it on beefier machines to stress the kernels.
/// Garbage values — unparsable *or* zero — fall back to 1, so every
/// bin (including those taking `ilog2` of the scale) stays total.
pub fn scale_from_env() -> usize {
    std::env::var("GMS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}
