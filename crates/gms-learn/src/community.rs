//! Community detection (§4.1.2, Table 4): Label Propagation
//! (convergence-based) and the Louvain method (modularity-based) —
//! the paper's two examples of non-overlapping community schemes.

use gms_core::hash::FxHashMap;
use gms_core::{CancelToken, CsrGraph, Graph, NodeId};

/// Label Propagation (Raghavan et al.): every vertex repeatedly adopts
/// the most frequent label among its neighbors (ties to the smallest
/// label for determinism), asynchronously in vertex order, until a
/// fixed point or `max_iters`. Returns canonical community IDs.
pub fn label_propagation(graph: &CsrGraph, max_iters: usize) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut histogram: FxHashMap<u32, usize> = FxHashMap::default();
    for _ in 0..max_iters {
        let mut changed = false;
        for v in 0..n as NodeId {
            histogram.clear();
            for w in graph.neighbors(v) {
                *histogram.entry(labels[w as usize]).or_insert(0) += 1;
            }
            if histogram.is_empty() {
                continue;
            }
            let best = histogram
                .iter()
                .map(|(&label, &count)| (count, std::cmp::Reverse(label)))
                .max()
                .map(|(_, std::cmp::Reverse(label))| label)
                .expect("non-empty histogram");
            if best != labels[v as usize] {
                labels[v as usize] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    canonicalize(&labels)
}

/// Modularity of a community assignment (resolution 1):
/// `Q = Σ_c (e_c / m - (deg_c / 2m)²)` with `e_c` intra-community
/// edges and `deg_c` the community degree sum.
pub fn modularity(graph: &CsrGraph, communities: &[u32]) -> f64 {
    let m = graph.num_edges_undirected() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let mut intra: FxHashMap<u32, f64> = FxHashMap::default();
    let mut degree: FxHashMap<u32, f64> = FxHashMap::default();
    for v in graph.vertices() {
        *degree.entry(communities[v as usize]).or_insert(0.0) += graph.degree(v) as f64;
    }
    for (u, v) in graph.edges_undirected() {
        if communities[u as usize] == communities[v as usize] {
            *intra.entry(communities[u as usize]).or_insert(0.0) += 1.0;
        }
    }
    degree
        .iter()
        .map(|(c, &deg_c)| {
            let e_c = intra.get(c).copied().unwrap_or(0.0);
            e_c / m - (deg_c / (2.0 * m)).powi(2)
        })
        .sum()
}

/// The Louvain method (Blondel et al.): greedy local moving to the
/// neighboring community with maximal modularity gain, followed by
/// graph aggregation, repeated until modularity stops improving.
pub fn louvain(graph: &CsrGraph) -> Vec<u32> {
    louvain_cancellable(graph, &CancelToken::none())
}

/// [`louvain`] under a cooperative [`CancelToken`] probed at every
/// level and, strided, at every vertex of the local-moving passes. A
/// fired token yields a partial assignment the caller must discard.
pub fn louvain_cancellable(graph: &CsrGraph, cancel: &CancelToken) -> Vec<u32> {
    let n = graph.num_vertices();
    // `membership[v]` tracks v's community in the ORIGINAL graph.
    let mut membership: Vec<u32> = (0..n as u32).collect();
    let mut level_graph = graph.clone();
    // Edge weights of the (aggregated) level graph; parallel edges
    // collapse into weights, self-loops hold intra-community mass.
    let mut weights: FxHashMap<(NodeId, NodeId), f64> =
        level_graph.arcs().map(|(u, v)| ((u, v), 1.0)).collect();
    let mut self_loops: FxHashMap<NodeId, f64> = FxHashMap::default();

    'levels: while !cancel.expired() {
        let ln = level_graph.num_vertices();
        let two_m: f64 = weights.values().sum::<f64>() + 2.0 * self_loops.values().sum::<f64>();
        if two_m == 0.0 {
            break;
        }
        // Local moving phase on the level graph.
        let mut community: Vec<u32> = (0..ln as u32).collect();
        let mut community_degree: Vec<f64> = (0..ln as NodeId)
            .map(|v| {
                level_graph
                    .neighbors(v)
                    .map(|w| weights[&(v, w)])
                    .sum::<f64>()
                    + 2.0 * self_loops.get(&v).copied().unwrap_or(0.0)
            })
            .collect();
        let vertex_degree = community_degree.clone();

        let mut improved_any = false;
        loop {
            let mut moved = false;
            for v in 0..ln as NodeId {
                if cancel.is_cancelled() {
                    break 'levels;
                }
                let current = community[v as usize];
                // Weight from v to each neighboring community.
                let mut to_community: FxHashMap<u32, f64> = FxHashMap::default();
                for w in level_graph.neighbors(v) {
                    let c = community[w as usize];
                    *to_community.entry(c).or_insert(0.0) += weights[&(v, w)];
                }
                // Detach v.
                community_degree[current as usize] -= vertex_degree[v as usize];
                let k_v = vertex_degree[v as usize];
                let base = to_community.get(&current).copied().unwrap_or(0.0);
                let mut best = (current, 0.0f64);
                let mut candidates: Vec<(u32, f64)> = to_community.into_iter().collect();
                candidates.sort_unstable_by_key(|&(c, _)| c);
                for (c, w_vc) in candidates {
                    let gain = (w_vc - base)
                        - k_v * (community_degree[c as usize] - community_degree[current as usize])
                            / two_m;
                    if gain > best.1 + 1e-12 {
                        best = (c, gain);
                    }
                }
                community_degree[best.0 as usize] += k_v;
                if best.0 != current {
                    community[v as usize] = best.0;
                    moved = true;
                    improved_any = true;
                }
            }
            if !moved {
                break;
            }
        }
        if !improved_any {
            break;
        }

        // Propagate to original-vertex membership.
        for entry in membership.iter_mut() {
            *entry = community[*entry as usize];
        }
        // Aggregate: one vertex per community.
        let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
        for &c in community.iter() {
            let next = remap.len() as u32;
            remap.entry(c).or_insert(next);
        }
        for entry in membership.iter_mut() {
            *entry = remap[entry];
        }
        let new_n = remap.len();
        if new_n == ln {
            break; // no compression: converged
        }
        let mut new_weights: FxHashMap<(NodeId, NodeId), f64> = FxHashMap::default();
        let mut new_self: FxHashMap<NodeId, f64> = FxHashMap::default();
        for ((u, v), w) in &weights {
            let cu = remap[&community[*u as usize]];
            let cv = remap[&community[*v as usize]];
            if cu == cv {
                // Each undirected intra-edge appears as two arcs.
                *new_self.entry(cu).or_insert(0.0) += w / 2.0;
            } else {
                *new_weights.entry((cu, cv)).or_insert(0.0) += w;
            }
        }
        for (v, w) in &self_loops {
            let c = remap[&community[*v as usize]];
            *new_self.entry(c).or_insert(0.0) += w;
        }
        let mut arcs: Vec<(NodeId, NodeId)> = new_weights.keys().copied().collect();
        arcs.sort_unstable();
        level_graph = CsrGraph::from_arcs(new_n, &arcs);
        weights = new_weights;
        self_loops = new_self;
    }
    canonicalize(&membership)
}

/// Renumbers labels to a dense `0..c` range (stable in first-seen
/// order).
fn canonicalize(labels: &[u32]) -> Vec<u32> {
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    labels
        .iter()
        .map(|&l| {
            let next = remap.len() as u32;
            *remap.entry(l).or_insert(next)
        })
        .collect()
}

/// Agreement between a detected assignment and ground truth as the
/// fraction of vertex pairs classified consistently (pair-counting
/// Rand index).
pub fn rand_index(a: &[u32], b: &[u32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in i + 1..n {
            total += 1;
            let same_a = a[i] == a[j];
            let same_b = b[i] == b[j];
            agree += usize::from(same_a == same_b);
        }
    }
    agree as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques_bridge() -> CsrGraph {
        let mut edges = Vec::new();
        for base in [0u32, 6] {
            for i in 0..6 {
                for j in i + 1..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((5, 6));
        CsrGraph::from_undirected_edges(12, &edges)
    }

    #[test]
    fn label_propagation_splits_cliques() {
        let g = two_cliques_bridge();
        let labels = label_propagation(&g, 50);
        // Each clique is uniform.
        assert!((0..6).all(|v| labels[v] == labels[0]));
        assert!((6..12).all(|v| labels[v] == labels[6]));
    }

    #[test]
    fn louvain_splits_cliques_and_improves_modularity() {
        let g = two_cliques_bridge();
        let communities = louvain(&g);
        assert!((0..6).all(|v| communities[v] == communities[0]));
        assert!((6..12).all(|v| communities[v] == communities[6]));
        assert_ne!(communities[0], communities[6]);
        let trivial: Vec<u32> = vec![0; 12];
        assert!(modularity(&g, &communities) > modularity(&g, &trivial));
    }

    #[test]
    fn modularity_of_known_partition() {
        // Two disjoint edges, each its own community:
        // Q = Σ (1/2 - (2/4)²) = 2 * (0.5 - 0.25) = 0.5.
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (2, 3)]);
        let q = modularity(&g, &[0, 0, 1, 1]);
        assert!((q - 0.5).abs() < 1e-12);
        // Everything in one community: Q = 1 - 1 = 0.
        assert!(modularity(&g, &[0, 0, 0, 0]).abs() < 1e-12);
    }

    #[test]
    fn louvain_recovers_planted_partition() {
        let (g, truth) = gms_gen::planted_partition(100, 4, 0.5, 0.01, 8);
        let detected = louvain(&g);
        assert!(
            rand_index(&detected, &truth) > 0.9,
            "rand index {}",
            rand_index(&detected, &truth)
        );
    }

    #[test]
    fn label_propagation_recovers_planted_partition() {
        let (g, truth) = gms_gen::planted_partition(90, 3, 0.6, 0.005, 2);
        let detected = label_propagation(&g, 100);
        assert!(
            rand_index(&detected, &truth) > 0.85,
            "rand index {}",
            rand_index(&detected, &truth)
        );
    }

    #[test]
    fn rand_index_extremes() {
        assert_eq!(rand_index(&[0, 0, 1, 1], &[5, 5, 9, 9]), 1.0);
        assert!(rand_index(&[0, 1, 0, 1], &[0, 0, 1, 1]) < 0.5);
        assert_eq!(rand_index(&[0], &[3]), 1.0);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = CsrGraph::from_undirected_edges(3, &[]);
        assert_eq!(label_propagation(&g, 10), vec![0, 1, 2]);
        assert_eq!(modularity(&g, &[0, 1, 2]), 0.0);
        let communities = louvain(&g);
        assert_eq!(communities.len(), 3);
    }
}
