//! Borůvka's minimum spanning tree / forest (Table 4: the paper's
//! representative low-complexity optimization problem). Each round,
//! every component selects its lightest incident edge in parallel;
//! components merge along the selected edges, halving the component
//! count, so there are O(log n) rounds.

use gms_core::{CancelToken, NodeId};
use rayon::prelude::*;

/// A weighted undirected edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedEdge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Edge weight.
    pub weight: f64,
}

/// Union-find with path compression (sequential merge step).
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra.max(rb) as usize] = ra.min(rb);
        true
    }
}

/// Computes a minimum spanning forest with Borůvka's algorithm.
/// Returns the indices (into `edges`) of the forest edges. Ties are
/// broken by `(weight, index)`, making the result deterministic even
/// with equal weights.
pub fn boruvka(n: usize, edges: &[WeightedEdge]) -> Vec<usize> {
    boruvka_cancellable(n, edges, &CancelToken::none())
}

/// [`boruvka`] under a cooperative [`CancelToken`] probed before every
/// round and every 4096-edge chunk of the lightest-edge selection. A
/// fired token yields a partial forest the caller must discard.
pub fn boruvka_cancellable(n: usize, edges: &[WeightedEdge], cancel: &CancelToken) -> Vec<usize> {
    let mut uf = UnionFind::new(n);
    let mut forest: Vec<usize> = Vec::with_capacity(n.saturating_sub(1));
    let mut components = n;
    while !cancel.expired() {
        // Per-component lightest incident edge (parallel reduction by
        // chunk, then a sequential fold over candidates).
        let roots: Vec<u32> = {
            let mut uf_snapshot = UnionFind {
                parent: uf.parent.clone(),
            };
            (0..n as u32).map(|v| uf_snapshot.find(v)).collect()
        };
        let best_per_chunk: Vec<Vec<Option<usize>>> = edges
            .par_chunks(4096)
            .enumerate()
            .map(|(chunk_idx, chunk)| {
                if cancel.expired() {
                    return Vec::new();
                }
                let mut best: Vec<Option<usize>> = vec![None; n];
                for (off, e) in chunk.iter().enumerate() {
                    let idx = chunk_idx * 4096 + off;
                    let (ru, rv) = (roots[e.u as usize], roots[e.v as usize]);
                    if ru == rv {
                        continue;
                    }
                    for r in [ru, rv] {
                        match best[r as usize] {
                            Some(prev) if (edges[prev].weight, prev) <= (e.weight, idx) => {}
                            _ => best[r as usize] = Some(idx),
                        }
                    }
                }
                best
            })
            .collect();
        let mut best: Vec<Option<usize>> = vec![None; n];
        for chunk_best in best_per_chunk {
            for (r, candidate) in chunk_best.into_iter().enumerate() {
                if let Some(idx) = candidate {
                    match best[r] {
                        Some(prev) if (edges[prev].weight, prev) <= (edges[idx].weight, idx) => {}
                        _ => best[r] = Some(idx),
                    }
                }
            }
        }

        let mut merged_any = false;
        for idx in best.into_iter().flatten() {
            let e = &edges[idx];
            if uf.union(e.u, e.v) {
                forest.push(idx);
                components -= 1;
                merged_any = true;
            }
        }
        if !merged_any || components == 1 {
            break;
        }
    }
    forest.sort_unstable();
    forest
}

/// Total weight of a set of edge indices.
pub fn forest_weight(edges: &[WeightedEdge], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| edges[i].weight).sum()
}

/// Kruskal's algorithm — the sequential oracle for tests.
pub fn kruskal(n: usize, edges: &[WeightedEdge]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by(|&a, &b| {
        edges[a]
            .weight
            .partial_cmp(&edges[b].weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut uf = UnionFind::new(n);
    let mut forest = Vec::new();
    for idx in order {
        if uf.union(edges[idx].u, edges[idx].v) {
            forest.push(idx);
        }
    }
    forest.sort_unstable();
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_weighted(n: usize, p: f64, seed: u64) -> Vec<WeightedEdge> {
        let g = gms_gen::gnp(n, p, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        g.edges_undirected()
            .map(|(u, v)| WeightedEdge {
                u,
                v,
                weight: rng.gen_range(0.0..100.0),
            })
            .collect()
    }

    #[test]
    fn matches_kruskal_weight_on_random_graphs() {
        for seed in 0..5 {
            let edges = random_weighted(100, 0.08, seed);
            let b = boruvka(100, &edges);
            let k = kruskal(100, &edges);
            assert_eq!(b.len(), k.len(), "forest sizes, seed {seed}");
            let wb = forest_weight(&edges, &b);
            let wk = forest_weight(&edges, &k);
            assert!((wb - wk).abs() < 1e-9, "weights {wb} vs {wk}, seed {seed}");
        }
    }

    #[test]
    fn known_tiny_mst() {
        // Square with diagonal: MST = three cheapest non-cyclic edges.
        let edges = vec![
            WeightedEdge {
                u: 0,
                v: 1,
                weight: 1.0,
            },
            WeightedEdge {
                u: 1,
                v: 2,
                weight: 2.0,
            },
            WeightedEdge {
                u: 2,
                v: 3,
                weight: 3.0,
            },
            WeightedEdge {
                u: 3,
                v: 0,
                weight: 4.0,
            },
            WeightedEdge {
                u: 0,
                v: 2,
                weight: 2.5,
            },
        ];
        let mst = boruvka(4, &edges);
        assert_eq!(mst, vec![0, 1, 2]);
        assert_eq!(forest_weight(&edges, &mst), 6.0);
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let edges = vec![
            WeightedEdge {
                u: 0,
                v: 1,
                weight: 1.0,
            },
            WeightedEdge {
                u: 2,
                v: 3,
                weight: 1.0,
            },
        ];
        let forest = boruvka(5, &edges);
        assert_eq!(forest.len(), 2, "two trees, vertex 4 isolated");
    }

    #[test]
    fn spanning_tree_spans() {
        let edges = random_weighted(60, 0.2, 7);
        let mst = boruvka(60, &edges);
        let mut uf = UnionFind::new(60);
        for &i in &mst {
            uf.union(edges[i].u, edges[i].v);
        }
        let root = uf.find(0);
        assert!((0..60u32).all(|v| uf.find(v) == root), "tree must span");
        assert_eq!(mst.len(), 59);
    }

    #[test]
    fn empty_inputs() {
        assert!(boruvka(0, &[]).is_empty());
        assert!(boruvka(5, &[]).is_empty());
    }
}
