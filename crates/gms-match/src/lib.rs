//! # gms-match
//!
//! Subgraph isomorphism for GraphMineSuite-rs (§6.4): a VF2-style
//! backtracking matcher over vertex-labeled graphs, in induced and
//! non-induced variants, plus the parallel VF3-Light-style driver with
//! the paper's work-splitting / work-stealing / galloping /
//! candidate-precompute optimizations. Candidates are computed with set
//! algebra — the intersection of the mapped neighbors' neighborhoods,
//! minus the mapped non-neighbors' in the induced variant — and a
//! target can be borrowed ([`LabeledGraph::view`]) rather than copied.
//! The parallel driver runs on the caller's pool unless asked for a
//! width.

#![warn(missing_docs)]

pub mod labeled;
pub mod parallel;
pub mod vf2;

pub use labeled::LabeledGraph;
pub use parallel::{
    count_embeddings_parallel, count_embeddings_parallel_cancellable, ParallelIsoConfig,
};
pub use vf2::{
    count_embeddings, count_embeddings_cancellable, enumerate_embeddings, IsoMode, IsoOptions,
};
