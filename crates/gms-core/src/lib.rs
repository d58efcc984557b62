//! # gms-core
//!
//! The set-algebra kernel of GraphMineSuite-rs (a Rust reproduction of
//! Besta et al., *GraphMineSuite*, VLDB 2021).
//!
//! This crate provides the two foundations everything else builds on:
//!
//! * the [`Set`] trait (paper Listing 1) with four
//!   interchangeable implementations — [`SortedVecSet`],
//!   [`RoaringSet`] (a from-scratch roaring bitmap),
//!   [`DenseBitSet`] and
//!   [`HashVertexSet`];
//! * graph representations — [`CsrGraph`] (the default
//!   CSR/adjacency-array layout) and the set-centric
//!   [`SetGraph`] (paper Listing 2), tied together by
//!   the [`Graph`] access interface.
//!
//! Graph mining algorithms written against these traits can swap set
//! layouts and graph representations freely — the paper's key
//! "modularity through set algebra" idea.

#![warn(missing_docs)]

pub mod cancel;
pub mod graph;
pub mod hash;
pub mod set;
pub mod split;
pub mod types;

pub use cancel::CancelToken;
pub use graph::{CsrBuilder, CsrGraph, Graph, SetGraph, SetNeighborhoods};
pub use set::{
    DenseBitSet, HashVertexSet, RoaringSet, Set, SetElement, SortedVecSet, SparseBitSet,
};
pub use types::{normalize_edge, Edge, EdgeId, NodeId};
