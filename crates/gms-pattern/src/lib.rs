//! # gms-pattern
//!
//! Graph pattern matching kernels — the heart of the GMS use cases:
//!
//! * [`bk`] — parallel Bron–Kerbosch maximal clique listing with
//!   pivoting (Algorithm 6) in five named variants, including the
//!   paper's new BK-ADG and BK-ADG-S;
//! * [`kclique`] — k-clique counting (Algorithm 7) with node- and
//!   edge-parallel drivers and swappable orderings;
//! * [`triangles`] — node-iterator and rank-merge triangle counting;
//! * [`clique_star`] — k-clique-star listing (§6.6): each k-clique core
//!   with its satellites `∩_{v∈C} N(v) \ C`, streamed over one walked
//!   recursion;
//! * [`brute`] — exponential oracles every kernel is tested against.
//!
//! All kernels are generic over the [`gms_core::Set`] layout (⑤⁺) and
//! take an [`gms_order::OrderingKind`] preprocessing order (③).

#![warn(missing_docs)]

pub mod bk;
pub mod brute;
pub mod clique_star;
pub mod kclique;
mod local;
pub mod scratch;
pub mod triangles;

/// The kernels' [`gms_core::split`] heartbeat; zero in unit tests, so
/// they split at every chance.
const SPLIT_AFTER: std::time::Duration = if cfg!(test) {
    std::time::Duration::ZERO
} else {
    gms_core::split::HEARTBEAT
};

pub use bk::{
    bron_kerbosch, bron_kerbosch_cancellable, BkConfig, BkOutcome, BkVariant, SubgraphMode,
};
pub use clique_star::{k_clique_stars, CliqueStar, StarOutcome};
pub use kclique::{
    k_clique_count, k_clique_count_cancellable, k_clique_count_cancellable_with,
    k_clique_count_with, KcConfig, KcOutcome, KcParallel, KcVariant,
};
pub use triangles::{
    triangle_count_cancellable, triangle_count_compressed, triangle_count_node_iterator,
    triangle_count_rank_merge, triangle_count_touched,
};
