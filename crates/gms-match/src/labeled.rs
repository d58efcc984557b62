//! Vertex-labeled graphs for subgraph isomorphism (§6.4, §8.5 — the
//! paper evaluates on labeled Erdős–Rényi targets).

use gms_core::{CsrGraph, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// A graph whose vertices carry integer labels. The topology is owned,
/// or borrowed ([`LabeledGraph::view`]) so that matching against a
/// graph held elsewhere — a resident graph in a serving session —
/// copies nothing.
#[derive(Clone, Debug)]
pub struct LabeledGraph<'g> {
    /// Topology.
    pub graph: Cow<'g, CsrGraph>,
    /// Label of every vertex; empty for an unlabeled graph, whose
    /// vertices all carry label `0`.
    pub labels: Vec<u32>,
}

impl LabeledGraph<'static> {
    /// Pairs a graph with labels.
    ///
    /// # Panics
    /// Panics if the label array length differs from the vertex count.
    pub fn new(graph: CsrGraph, labels: Vec<u32>) -> Self {
        assert_eq!(graph.num_vertices(), labels.len());
        Self {
            graph: Cow::Owned(graph),
            labels,
        }
    }

    /// Labels every vertex `0` (unlabeled matching).
    pub fn unlabeled(graph: CsrGraph) -> Self {
        Self {
            graph: Cow::Owned(graph),
            labels: Vec::new(),
        }
    }

    /// Assigns uniform random labels from `0..alphabet`.
    pub fn random_labels(graph: CsrGraph, alphabet: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let labels = (0..graph.num_vertices())
            .map(|_| rng.gen_range(0..alphabet))
            .collect();
        Self::new(graph, labels)
    }
}

impl<'g> LabeledGraph<'g> {
    /// Borrows `graph` as an unlabeled graph: no copy of the topology
    /// and no label array.
    pub fn view(graph: &'g CsrGraph) -> Self {
        Self {
            graph: Cow::Borrowed(graph),
            labels: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Label of `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> u32 {
        if self.labels.is_empty() {
            0
        } else {
            self.labels[v as usize]
        }
    }

    /// Extracts the subgraph induced by `vertices` (with its labels),
    /// relabeling vertices to `0..k` in the given order. Useful for
    /// sampling guaranteed-present query graphs in tests/benchmarks.
    pub fn induced(&self, vertices: &[NodeId]) -> LabeledGraph<'static> {
        let (sub, _) = gms_graph::induced_subgraph(&self.graph, vertices);
        let labels = vertices.iter().map(|&v| self.label(v)).collect();
        LabeledGraph::new(sub, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]);
        let lg = LabeledGraph::new(g.clone(), vec![5, 6, 7]);
        assert_eq!(lg.label(1), 6);
        let un = LabeledGraph::unlabeled(g.clone());
        assert!((0..3).all(|v| un.label(v) == 0));
        let view = LabeledGraph::view(&g);
        assert!(std::ptr::eq(&*view.graph, &g), "a view copies nothing");
        assert!(view.labels.is_empty() && view.label(2) == 0);
    }

    #[test]
    fn random_labels_deterministic() {
        let g = gms_gen::gnp(50, 0.1, 1);
        let a = LabeledGraph::random_labels(g.clone(), 4, 9);
        let b = LabeledGraph::random_labels(g, 4, 9);
        assert_eq!(a.labels, b.labels);
        assert!(a.labels.iter().all(|&l| l < 4));
    }

    #[test]
    fn induced_subgraph_keeps_labels() {
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let lg = LabeledGraph::new(g, vec![10, 20, 30, 40]);
        let sub = lg.induced(&[1, 3]);
        assert_eq!(sub.labels, vec![20, 40]);
        assert_eq!(sub.num_vertices(), 2);
        // An unlabeled graph's induced subgraph carries its zeros.
        let view = LabeledGraph::view(&lg.graph);
        assert_eq!(view.induced(&[1, 3]).labels, vec![0, 0]);
    }
}
