//! Brute-force oracles for clique problems. Exponential-time reference
//! implementations used to validate the optimized kernels on small
//! graphs — every fast algorithm in this crate is tested against
//! these.

use crate::clique_star::CliqueStar;
use gms_core::{CsrGraph, Graph, NodeId};

/// `true` iff `vertices` induce a complete subgraph.
pub fn is_clique(graph: &CsrGraph, vertices: &[NodeId]) -> bool {
    vertices
        .iter()
        .enumerate()
        .all(|(i, &u)| vertices[i + 1..].iter().all(|&v| graph.has_edge(u, v)))
}

/// `true` iff `vertices` form a clique no vertex can extend.
pub fn is_maximal_clique(graph: &CsrGraph, vertices: &[NodeId]) -> bool {
    if !is_clique(graph, vertices) {
        return false;
    }
    graph
        .vertices()
        .all(|w| vertices.contains(&w) || !vertices.iter().all(|&v| graph.has_edge(v, w)))
}

/// Enumerates all maximal cliques by subset expansion — O(3^(n/3))
/// worst case; keep `n` small. Cliques and their vertices are sorted
/// for canonical comparison.
pub fn maximal_cliques_brute(graph: &CsrGraph) -> Vec<Vec<NodeId>> {
    let n = graph.num_vertices();
    let mut result = Vec::new();
    // Simple recursive expansion without pivoting.
    fn expand(
        graph: &CsrGraph,
        clique: &mut Vec<NodeId>,
        candidates: &[NodeId],
        excluded: &[NodeId],
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if candidates.is_empty() && excluded.is_empty() {
            out.push(clique.clone());
            return;
        }
        let mut cands = candidates.to_vec();
        let mut excl = excluded.to_vec();
        while let Some(v) = cands.first().copied() {
            let next_c: Vec<NodeId> = cands
                .iter()
                .copied()
                .filter(|&w| graph.has_edge(v, w))
                .collect();
            let next_x: Vec<NodeId> = excl
                .iter()
                .copied()
                .filter(|&w| graph.has_edge(v, w))
                .collect();
            clique.push(v);
            expand(graph, clique, &next_c, &next_x, out);
            clique.pop();
            cands.remove(0);
            excl.push(v);
        }
    }
    let all: Vec<NodeId> = (0..n as NodeId).collect();
    expand(graph, &mut Vec::new(), &all, &[], &mut result);
    for clique in &mut result {
        clique.sort_unstable();
    }
    result.sort();
    result
}

/// Lists every `k`-clique, each sorted, in lexicographic order by
/// enumerating `k`-subsets — O(n^k); keep inputs tiny.
pub fn k_cliques_brute(graph: &CsrGraph, k: usize) -> Vec<Vec<NodeId>> {
    fn extend(
        graph: &CsrGraph,
        chosen: &mut Vec<NodeId>,
        start: NodeId,
        k: usize,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if chosen.len() == k {
            out.push(chosen.clone());
            return;
        }
        for v in start..graph.num_vertices() as NodeId {
            if chosen.iter().all(|&u| graph.has_edge(u, v)) {
                chosen.push(v);
                extend(graph, chosen, v + 1, k, out);
                chosen.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(graph, &mut Vec::new(), 0, k, &mut out);
    out
}

/// Counts `k`-cliques by brute force (0 for `k = 0`).
pub fn count_k_cliques_brute(graph: &CsrGraph, k: usize) -> u64 {
    if k == 0 {
        return 0;
    }
    k_cliques_brute(graph, k).len() as u64
}

/// Every `k`-clique with the vertices adjacent to all of it, kept when
/// it has at least `max(min_satellites, 1)` of them; sorted by core.
pub fn clique_stars_brute(graph: &CsrGraph, k: usize, min_satellites: usize) -> Vec<CliqueStar> {
    k_cliques_brute(graph, k)
        .into_iter()
        .map(|core| {
            let satellites = graph
                .vertices()
                .filter(|&w| core.iter().all(|&c| graph.has_edge(c, w)))
                .collect();
            CliqueStar { core, satellites }
        })
        .filter(|star| star.satellites.len() >= min_satellites.max(1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_predicates() {
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(is_clique(&g, &[0, 1, 2]));
        assert!(!is_clique(&g, &[0, 1, 3]));
        assert!(is_maximal_clique(&g, &[0, 1, 2]));
        assert!(is_maximal_clique(&g, &[2, 3]));
        assert!(!is_maximal_clique(&g, &[0, 1])); // extendable by 2
    }

    #[test]
    fn brute_enumeration_on_paw_graph() {
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(maximal_cliques_brute(&g), vec![vec![0, 1, 2], vec![2, 3]]);
    }

    #[test]
    fn brute_kclique_on_k5() {
        let g = gms_gen::complete(5);
        // C(5, k)
        assert_eq!(count_k_cliques_brute(&g, 2), 10);
        assert_eq!(count_k_cliques_brute(&g, 3), 10);
        assert_eq!(count_k_cliques_brute(&g, 4), 5);
        assert_eq!(count_k_cliques_brute(&g, 5), 1);
        assert_eq!(count_k_cliques_brute(&g, 6), 0);
    }

    #[test]
    fn empty_graph_has_one_empty_maximal_clique_set() {
        let g = CsrGraph::from_undirected_edges(3, &[]);
        // Three isolated vertices: each is a maximal 1-clique.
        assert_eq!(maximal_cliques_brute(&g), vec![vec![0], vec![1], vec![2]]);
    }
}
