//! Graph representations and the access interface between a
//! representation and the rest of GMS (§5, modularity levels ①–②).
//!
//! The paper prescribes a concise interface: check the degree `Δ(v)`,
//! load the neighbors `N(v)`, iterate over vertices/edges, and verify
//! whether an edge `(u, v)` exists. Any structure providing these can
//! back any GMS algorithm.

mod csr;
mod setgraph;

pub use csr::{CsrBuilder, CsrGraph};
pub use setgraph::SetGraph;

use crate::types::NodeId;

/// The graph-access interface of the GMS platform.
pub trait Graph: Send + Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of directed arcs stored. For an undirected graph stored
    /// symmetrically this is `2m`; for an oriented graph it is `m`.
    fn num_arcs(&self) -> usize;

    /// Degree `Δ(v)` (out-degree for oriented graphs).
    fn degree(&self, v: NodeId) -> usize;

    /// Iterates over `N(v)` in ascending order.
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_;

    /// Verifies whether the arc `(u, v)` exists.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Iterates over all vertex IDs.
    fn vertices(&self) -> std::ops::Range<NodeId> {
        0..self.num_vertices() as NodeId
    }

    /// Number of undirected edges `m`, assuming symmetric storage.
    fn num_edges_undirected(&self) -> usize {
        self.num_arcs() / 2
    }

    /// Maximum degree `Δ`.
    fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }
}
