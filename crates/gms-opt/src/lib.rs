//! # gms-opt
//!
//! Optimization problems of the GMS specification (§4.1.4):
//!
//! * [`coloring`] — greedy, Jones–Plassmann (vertex prioritization,
//!   covering the Hasenplaugh et al. ordering heuristics) and
//!   Johansson-style random-palette coloring, with a verifier;
//! * [`mst`] — Borůvka's minimum spanning forest (parallel lightest-
//!   edge selection) with a Kruskal oracle;
//! * [`mincut`] — Karger–Stein randomized minimum cut with an
//!   exhaustive oracle.

#![warn(missing_docs)]

pub mod coloring;
pub mod coloring_orders;
pub mod mincut;
pub mod mst;

pub use coloring::{greedy_coloring, johansson, jones_plassmann, verify_coloring};
pub use coloring_orders::ColoringOrder;
pub use mincut::{min_cut, min_cut_brute, min_cut_cancellable};
pub use mst::{boruvka, forest_weight, kruskal, WeightedEdge};
