//! # gms-graph
//!
//! Graph storage utilities for GraphMineSuite-rs: transformations
//! (relabeling, rank orientation, induced subgraphs), multi-format
//! dataset I/O ([`io`]: SNAP edge lists, METIS files, and versioned
//! `.gcsr` binary CSR snapshots), the resident representations a loaded graph is held in
//! ([`GraphStore`]: raw CSR or gap-compressed, one fingerprint), and
//! the encodings behind the gap-compressed form: varint and gap
//! coding ([`compress`]) and a compressed CSR that serves the standard
//! [`Graph`](gms_core::Graph) interface.

#![warn(missing_docs)]

pub mod compress;
pub mod compressed_csr;
pub mod io;
pub mod patch;
pub mod store;
pub mod transform;
pub mod traverse;

pub use compressed_csr::CompressedCsr;
pub use patch::{patch_csr, EdgeDelta, PatchError};
pub use store::{fingerprint, fingerprint_graph, GraphStore, GraphView, Sweep, SweptVertex};
pub use transform::{degrees, induced_subgraph, orient_by_degree, orient_by_rank, relabel, Rank};
pub use traverse::{bfs_distances, connected_components, largest_component_size, pseudo_diameter};
