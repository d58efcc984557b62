//! Jarvis–Patrick clustering (§4.1.2, Table 4): the paper's example of
//! overlapping, single-level clustering built directly on vertex
//! similarity. Two adjacent vertices land in the same cluster when
//! each lists the other among its `k` most similar neighbors and the
//! two shared-neighbor lists overlap enough — all of it set algebra.

use crate::similarity::{similarity, SimilarityMeasure, PROBE_STRIDE};
use gms_core::{CancelToken, CsrGraph, Graph, NodeId, Set, SortedVecSet};
use rayon::prelude::*;

/// Jarvis–Patrick parameters.
#[derive(Clone, Copy, Debug)]
pub struct JarvisPatrickConfig {
    /// Size of each vertex's nearest-neighbor list.
    pub k: usize,
    /// Minimum shared near-neighbors for two vertices to merge.
    pub min_shared: usize,
    /// Similarity measure ranking the neighbor lists.
    pub measure: SimilarityMeasure,
}

impl Default for JarvisPatrickConfig {
    fn default() -> Self {
        Self {
            k: 6,
            min_shared: 2,
            measure: SimilarityMeasure::Jaccard,
        }
    }
}

/// Clusters the graph; returns a cluster ID per vertex (clusters are
/// the connected components of the JP merge graph). A fired `cancel`
/// yields a partial result the caller must discard.
pub fn jarvis_patrick(
    graph: &CsrGraph,
    config: &JarvisPatrickConfig,
    cancel: &CancelToken,
) -> Vec<u32> {
    let n = graph.num_vertices();

    // k-nearest-neighbor lists by similarity (ties by vertex ID for
    // determinism), stored as sorted sets for O(log)-membership and
    // fast intersection. The token is probed once per stride of a
    // vertex's scored neighbours, so a hub cannot hold it up.
    let knn: Vec<SortedVecSet> = (0..n as NodeId)
        .into_par_iter()
        .map(|u| {
            let mut scored: Vec<(f64, NodeId)> = graph
                .neighbors_slice(u)
                .chunks(PROBE_STRIDE)
                .take_while(|_| !cancel.is_cancelled())
                .flatten()
                .map(|&v| (similarity(graph, config.measure, u, v), v))
                .collect();
            scored.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
            scored.truncate(config.k);
            scored.into_iter().map(|(_, v)| v).collect()
        })
        .collect();
    if cancel.is_cancelled() {
        return Vec::new();
    }

    // Union-find over merge edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], v: u32) -> u32 {
        let mut root = v;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = v;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    for (u, v) in graph.edges_undirected() {
        let mutual = knn[u as usize].contains(v) && knn[v as usize].contains(u);
        if !mutual {
            continue;
        }
        let shared = knn[u as usize].intersect_count(&knn[v as usize]);
        if shared >= config.min_shared {
            let ru = find(&mut parent, u);
            let rv = find(&mut parent, v);
            if ru != rv {
                parent[ru.max(rv) as usize] = ru.min(rv);
            }
        }
    }

    // Canonicalize cluster IDs to 0..c.
    let mut id_of_root = std::collections::HashMap::new();
    let mut assignment = vec![0u32; n];
    for v in 0..n as u32 {
        let root = find(&mut parent, v);
        let next_id = id_of_root.len() as u32;
        let id = *id_of_root.entry(root).or_insert(next_id);
        assignment[v as usize] = id;
    }
    assignment
}

/// Number of distinct clusters in an assignment.
pub fn num_clusters(assignment: &[u32]) -> usize {
    let unique: std::collections::HashSet<u32> = assignment.iter().copied().collect();
    unique.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cliques_make_two_clusters() {
        // Two K5s joined by a single bridge edge.
        let mut edges = Vec::new();
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((4, 5)); // bridge
        let g = CsrGraph::from_undirected_edges(10, &edges);
        let clusters = jarvis_patrick(
            &g,
            &JarvisPatrickConfig {
                k: 4,
                min_shared: 2,
                measure: SimilarityMeasure::Jaccard,
            },
            &CancelToken::none(),
        );
        // Both cliques are internally merged...
        for group in [0..5u32, 5..10u32] {
            let ids: std::collections::HashSet<u32> = group.map(|v| clusters[v as usize]).collect();
            assert_eq!(ids.len(), 1, "clique not merged: {clusters:?}");
        }
        // ...and the bridge does not join them (no shared neighbors).
        assert_ne!(clusters[0], clusters[9]);
    }

    #[test]
    fn partition_graph_recovers_blocks() {
        let (g, truth) = gms_gen::planted_partition(80, 4, 0.8, 0.01, 6);
        // Communities of 20 with p_in = 0.8 give ~15 intra-neighbors;
        // the k-NN list must be wide enough to keep them mutual.
        let clusters = jarvis_patrick(
            &g,
            &JarvisPatrickConfig {
                k: 12,
                min_shared: 2,
                measure: SimilarityMeasure::Jaccard,
            },
            &CancelToken::none(),
        );
        // Most same-community pairs must share a cluster; most
        // cross-community pairs must not.
        let mut same_ok = 0usize;
        let mut same_total = 0usize;
        let mut cross_ok = 0usize;
        let mut cross_total = 0usize;
        for u in 0..80usize {
            for v in u + 1..80 {
                if truth[u] == truth[v] {
                    same_total += 1;
                    same_ok += usize::from(clusters[u] == clusters[v]);
                } else {
                    cross_total += 1;
                    cross_ok += usize::from(clusters[u] != clusters[v]);
                }
            }
        }
        assert!(
            same_ok as f64 / same_total as f64 > 0.7,
            "intra {same_ok}/{same_total}"
        );
        assert!(
            cross_ok as f64 / cross_total as f64 > 0.9,
            "inter {cross_ok}/{cross_total}"
        );
    }

    #[test]
    fn deterministic() {
        let g = gms_gen::gnp(60, 0.1, 8);
        let a = jarvis_patrick(&g, &JarvisPatrickConfig::default(), &CancelToken::none());
        let b = jarvis_patrick(&g, &JarvisPatrickConfig::default(), &CancelToken::none());
        assert_eq!(a, b);
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1)]);
        let clusters = jarvis_patrick(&g, &JarvisPatrickConfig::default(), &CancelToken::none());
        // 0-1 are mutual nearest neighbors but share no third vertex,
        // so nothing merges: four singleton clusters.
        assert_eq!(num_clusters(&clusters), 4);
        assert_ne!(clusters[2], clusters[3]);
    }
}
