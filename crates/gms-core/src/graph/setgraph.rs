//! `SetGraph<S>`: the set-centric graph representation (§5.3,
//! Listing 2). One [`Set`] implements one neighborhood; the set type
//! is a generic parameter, so swapping `SortedVecSet` for `RoaringSet`
//! swaps the layout of every neighborhood without touching algorithms.

use super::{CsrGraph, Graph};
use crate::set::Set;
use crate::types::NodeId;
use rayon::prelude::*;

/// A graph whose neighborhoods are stored as sets of type `S`.
#[derive(Clone, Debug)]
pub struct SetGraph<S: Set> {
    neighborhoods: Vec<S>,
    arcs: usize,
}

impl<S: Set> SetGraph<S> {
    /// Converts a CSR graph, building every neighborhood set in
    /// parallel.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        let neighborhoods: Vec<S> = (0..csr.num_vertices() as NodeId)
            .into_par_iter()
            .map(|v| S::from_sorted(csr.neighbors_slice(v)))
            .collect();
        Self {
            neighborhoods,
            arcs: csr.num_arcs(),
        }
    }

    /// Total heap bytes across all neighborhood sets (§8.9).
    pub fn heap_bytes(&self) -> usize {
        self.neighborhoods.iter().map(S::heap_bytes).sum()
    }

    /// Borrows `N(v)` as a set.
    #[inline]
    pub fn neighborhood(&self, v: NodeId) -> &S {
        &self.neighborhoods[v as usize]
    }

    /// Immutable view of all neighborhoods.
    pub fn neighborhoods(&self) -> &[S] {
        &self.neighborhoods
    }
}

impl<S: Set> Graph for SetGraph<S> {
    fn num_vertices(&self) -> usize {
        self.neighborhoods.len()
    }

    fn num_arcs(&self) -> usize {
        self.arcs
    }

    fn degree(&self, v: NodeId) -> usize {
        self.neighborhoods[v as usize].cardinality()
    }

    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighborhoods[v as usize].iter()
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighborhoods[u as usize].contains(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{DenseBitSet, HashVertexSet, RoaringSet, SortedVecSet};

    fn csr() -> CsrGraph {
        CsrGraph::from_undirected_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    }

    fn check<S: Set>() {
        let csr = csr();
        let g: SetGraph<S> = SetGraph::from_csr(&csr);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_arcs(), csr.num_arcs());
        for v in g.vertices() {
            assert_eq!(g.degree(v), csr.degree(v));
            assert_eq!(
                g.neighbors(v).collect::<Vec<_>>(),
                csr.neighbors_slice(v).to_vec()
            );
        }
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 4));
        // Set algebra on neighborhoods: common neighbors of 0 and 1.
        let common = g.neighborhood(0).intersect(g.neighborhood(1));
        assert_eq!(common.to_vec(), vec![2]);
    }

    #[test]
    fn all_set_backends_agree() {
        check::<SortedVecSet>();
        check::<RoaringSet>();
        check::<DenseBitSet>();
        check::<HashVertexSet>();
    }
}
