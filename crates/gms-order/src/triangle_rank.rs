//! Triangle-count ranking (§4.1.3): orders vertices by the number of
//! triangles they participate in (their local clustering mass). The
//! paper lists it as a preprocessing-capable ordering; it also
//! provides the per-vertex triangle counts and `T`-skew statistics
//! used to characterize datasets (Table 7).

use gms_core::{CsrGraph, Graph, NodeId};
use gms_graph::{orient_by_degree, Rank};
use rayon::prelude::*;

/// Per-vertex triangle participation counts, computed with the
/// rank-merge scheme on a degree-oriented DAG: every triangle is found
/// exactly once and credited to all three corners.
pub fn triangles_per_vertex(graph: &CsrGraph) -> Vec<u64> {
    let dag = orient_by_degree(graph);
    let n = graph.num_vertices();
    let counts: Vec<std::sync::atomic::AtomicU64> = (0..n)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    (0..n as NodeId).into_par_iter().for_each(|u| {
        let nu = dag.neighbors_slice(u);
        for &v in nu {
            let nv = dag.neighbors_slice(v);
            // Merge-intersect N+(u) with N+(v): any common w closes the
            // triangle u→v, u→w, v→w exactly once (ranks force the
            // orientation u < v < w).
            let (mut a, mut b) = (0usize, 0usize);
            while a < nu.len() && b < nv.len() {
                match nu[a].cmp(&nv[b]) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        let w = nu[a];
                        for x in [u, v, w] {
                            counts[x as usize].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
    });
    counts.into_iter().map(|c| c.into_inner()).collect()
}

/// Total triangle count `T`.
pub fn triangle_count(graph: &CsrGraph) -> u64 {
    triangles_per_vertex(graph).iter().sum::<u64>() / 3
}

/// Orders vertices by ascending triangle count (ties by ID) — the
/// clustering-coefficient-style ranking of Table 4.
pub fn triangle_count_order(graph: &CsrGraph) -> Rank {
    let triangles = triangles_per_vertex(graph);
    let mut vertices: Vec<NodeId> = graph.vertices().collect();
    vertices.par_sort_unstable_by_key(|&v| (triangles[v as usize], v));
    Rank::from_order(&vertices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_in_known_graph() {
        // One triangle (0,1,2) + tail.
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(triangles_per_vertex(&g), vec![1, 1, 1, 0]);
        assert_eq!(triangle_count(&g), 1);
    }

    #[test]
    fn complete_graph_counts() {
        // K6: C(6,3) = 20 triangles; each vertex is in C(5,2) = 10.
        let g = gms_gen::complete(6);
        assert_eq!(triangle_count(&g), 20);
        assert!(triangles_per_vertex(&g).iter().all(|&t| t == 10));
    }

    #[test]
    fn grid_has_no_triangles() {
        let g = gms_gen::grid(10, 10);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn ordering_puts_triangle_rich_vertices_last() {
        // K4 on {0..3} plus a triangle-free star at 4.
        let mut edges = vec![(4u32, 5u32), (4, 6), (4, 7)];
        for i in 0..4u32 {
            for j in i + 1..4 {
                edges.push((i, j));
            }
        }
        let g = CsrGraph::from_undirected_edges(8, &edges);
        let rank = triangle_count_order(&g);
        for star in 4..8u32 {
            for clique in 0..4u32 {
                assert!(rank.precedes(star, clique), "{star} before {clique}");
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_graph() {
        let g = gms_gen::gnp(60, 0.2, 17);
        let mut brute = 0u64;
        for u in 0..60u32 {
            for v in u + 1..60 {
                for w in v + 1..60 {
                    if g.has_edge(u, v) && g.has_edge(v, w) && g.has_edge(u, w) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(triangle_count(&g), brute);
    }
}
