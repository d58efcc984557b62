//! # gms-order
//!
//! Vertex reorderings — the preprocessing stage (③) of the GMS
//! pipeline. Reorderings reduce the work of the downstream mining
//! kernel: the degeneracy order bounds Bron–Kerbosch candidate sets,
//! degree ordering avoids redundant triangle counting, and so on.
//!
//! * [`degree::degree_order`] — simple parallel degree sort (DEG);
//! * [`degeneracy::degeneracy_order`] — exact smallest-last peeling
//!   (DGR) with core numbers, O(n + m);
//! * [`adg::approx_degeneracy_order`] — the paper's
//!   (2+ε)-approximate degeneracy order (ADG, Algorithm 5) in
//!   O(log n) rounds — the key enabler of the BK-ADG and KC-ADG
//!   algorithms;
//! * [`kcore`] — exact and approximate k-core decomposition;
//! * [`triangle_rank`] — triangle counts and triangle-count ordering.
//!
//! Kernels reach every ordering through [`OrderingKind::compute`],
//! which returns the rank alone. For ADG that is one sequential peel:
//! O(n + m) work over O(log n) rounds, with each round's leavers
//! appended in id order (so no sort) and the survivors' degrees updated
//! by a plain decrement over the leavers' neighbourhoods.
//! [`approx_degeneracy_order`] runs the same peel and adds the Table 5
//! diagnostics, including an O(m) later-neighbor bound pass that the
//! kernel path skips. The update is sequential, one path for every
//! graph size, as measured at pool width 2 on a 2-vCPU box: on a
//! 131k-vertex, 1.9M-arc Kronecker graph, an atomic parallel peel with
//! a final sort took 32–33 ms against 9–11 ms for this peel (both with
//! the bound pass; 6 ms rank-only). A parallel recount of `|N(w) ∩ U|`
//! per survivor took 3.4 ms there, but was up to 2.8× slower on three
//! of four 4–6k-vertex graphs and does O(m · rounds) work, not O(m).

#![warn(missing_docs)]

pub mod adg;
pub mod degeneracy;
pub mod degree;
pub mod kcore;
pub mod locality;
pub mod triangle_rank;

pub use adg::{approx_degeneracy_order, ApproxDegeneracy};
pub use degeneracy::{degeneracy_order, later_neighbor_bound, Degeneracy};
pub use degree::{degree_order, degree_order_desc};
pub use kcore::{approx_core_numbers, k_core_by_peeling, k_core_vertices};
pub use locality::{bfs_order, encoded_gap_bytes, random_order};
pub use triangle_rank::{triangle_count, triangle_count_order, triangles_per_vertex};

use gms_core::CsrGraph;
use gms_graph::Rank;

/// The orderings available as preprocessing routines, as selectable
/// configuration (pipeline stage ③ takes one of these).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OrderingKind {
    /// Natural vertex-ID order (no preprocessing).
    Natural,
    /// Ascending degree (DEG).
    Degree,
    /// Exact degeneracy / smallest-last (DGR).
    Degeneracy,
    /// (2+ε)-approximate degeneracy (ADG) with the given ε.
    ApproxDegeneracy(f64),
    /// Ascending triangle count.
    TriangleCount,
}

impl OrderingKind {
    /// Computes the ordering on `graph` — the "single function call"
    /// preprocessing entry point the paper describes.
    pub fn compute(&self, graph: &CsrGraph) -> Rank {
        match *self {
            OrderingKind::Natural => Rank::identity(graph_len(graph)),
            OrderingKind::Degree => degree_order(graph),
            OrderingKind::Degeneracy => degeneracy_order(graph).rank,
            OrderingKind::ApproxDegeneracy(eps) => Rank::from_order(&adg::peel(graph, eps).0),
            OrderingKind::TriangleCount => triangle_count_order(graph),
        }
    }

    /// Short label for reports and benchmark tables.
    pub fn label(&self) -> String {
        match self {
            OrderingKind::Natural => "NAT".to_string(),
            OrderingKind::Degree => "DEG".to_string(),
            OrderingKind::Degeneracy => "DGR".to_string(),
            OrderingKind::ApproxDegeneracy(eps) => format!("ADG(ε={eps})"),
            OrderingKind::TriangleCount => "TRI".to_string(),
        }
    }
}

fn graph_len(graph: &CsrGraph) -> usize {
    use gms_core::Graph as _;
    graph.num_vertices()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_compute_valid_permutations() {
        let g = gms_gen::gnp(120, 0.05, 2);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Degree,
            OrderingKind::Degeneracy,
            OrderingKind::ApproxDegeneracy(0.1),
            OrderingKind::TriangleCount,
        ] {
            let rank = kind.compute(&g);
            assert_eq!(rank.len(), 120, "{}", kind.label());
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            OrderingKind::Natural,
            OrderingKind::Degree,
            OrderingKind::Degeneracy,
            OrderingKind::ApproxDegeneracy(0.1),
            OrderingKind::TriangleCount,
        ]
        .iter()
        .map(|k| k.label())
        .collect();
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
