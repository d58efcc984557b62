//! Minimum graph coloring heuristics (§4.1.4, Table 4): vertex
//! prioritization (Jones–Plassmann with configurable priorities,
//! covering the Hasenplaugh et al. ordering heuristics) and random
//! palettes (Johansson-style) — the two algorithm families the paper
//! includes.

use gms_core::{CsrGraph, Graph, NodeId};
use gms_graph::Rank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Sequential greedy coloring in a given vertex order: each vertex
/// takes the smallest color unused by already-colored neighbors.
/// With a degeneracy order this uses at most `d + 1` colors.
///
/// Linear time: the `i`-th vertex colored stamps its neighbors' colors
/// with `i` in one array indexed by color, then takes the first color
/// not stamped `i`. A vertex of degree `d` takes a color `<= d`, so only
/// colors up to `d` are stamped and the array never outgrows `Δ + 1`.
pub fn greedy_coloring(graph: &CsrGraph, order: &Rank) -> Vec<u32> {
    let n = graph.num_vertices();
    let mut colors = vec![u32::MAX; n];
    let mut stamp = vec![0usize; graph.max_degree() + 1];
    for (step, v) in order.order().into_iter().enumerate() {
        let (step, nbrs) = (step + 1, graph.neighbors_slice(v));
        for &w in nbrs {
            if let Some(seen) = stamp.get_mut(colors[w as usize] as usize) {
                *seen = step;
            }
        }
        let free = stamp[..=nbrs.len()].iter().position(|&s| s != step);
        colors[v as usize] = free.expect("a color <= degree is free") as u32;
    }
    colors
}

/// Jones–Plassmann parallel coloring: vertices carry priorities;
/// in each round, every uncolored vertex whose uncolored neighbors all
/// have lower priority picks its smallest feasible color. Priorities
/// come from a [`Rank`], so the Hasenplaugh et al. ordering heuristics
/// (largest-degree-first, smallest-degree-last, ...) plug in directly.
/// Returns `(colors, rounds)`.
pub fn jones_plassmann(graph: &CsrGraph, priority: &Rank) -> (Vec<u32>, usize) {
    let n = graph.num_vertices();
    let mut colors = vec![u32::MAX; n];
    let mut active: Vec<NodeId> = graph.vertices().collect();
    let mut rounds = 0usize;
    while !active.is_empty() {
        rounds += 1;
        // A vertex is a local maximum if every *uncolored* neighbor
        // has lower priority. Local maxima form an independent set in
        // the uncolored subgraph, so they can color simultaneously.
        let snapshot = colors.clone();
        let (ready, waiting): (Vec<NodeId>, Vec<NodeId>) = active.par_iter().partition(|&&v| {
            graph
                .neighbors(v)
                .all(|w| snapshot[w as usize] != u32::MAX || priority.precedes(w, v))
        });
        assert!(!ready.is_empty(), "priorities must be a total order");
        let assigned: Vec<(NodeId, u32)> = ready
            .par_iter()
            .map(|&v| {
                let mut forbidden: Vec<u32> = graph
                    .neighbors(v)
                    .map(|w| snapshot[w as usize])
                    .filter(|&c| c != u32::MAX)
                    .collect();
                forbidden.sort_unstable();
                forbidden.dedup();
                let mut color = 0u32;
                for &f in &forbidden {
                    if f == color {
                        color += 1;
                    } else if f > color {
                        break;
                    }
                }
                (v, color)
            })
            .collect();
        for (v, c) in assigned {
            colors[v as usize] = c;
        }
        active = waiting;
    }
    (colors, rounds)
}

/// Johansson-style random-palette coloring: every round, each
/// uncolored vertex tentatively draws from a palette of size
/// `palette_factor · (Δ + 1)`; the draw sticks unless a neighbor
/// (colored, or tentatively drawing this round with higher ID) holds
/// the same color. Returns `(colors, rounds)`.
pub fn johansson(graph: &CsrGraph, palette_factor: f64, seed: u64) -> (Vec<u32>, usize) {
    assert!(palette_factor >= 1.0);
    let n = graph.num_vertices();
    let palette = ((graph.max_degree() as f64 + 1.0) * palette_factor).ceil() as u32;
    let mut colors = vec![u32::MAX; n];
    let mut active: Vec<NodeId> = graph.vertices().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rounds = 0usize;
    while !active.is_empty() {
        rounds += 1;
        let tentative: Vec<(NodeId, u32)> = active
            .iter()
            .map(|&v| (v, rng.gen_range(0..palette)))
            .collect();
        let draw: std::collections::HashMap<NodeId, u32> = tentative.iter().copied().collect();
        let mut next_active = Vec::new();
        for &(v, c) in &tentative {
            let conflict = graph
                .neighbors(v)
                .any(|w| colors[w as usize] == c || (w > v && draw.get(&w) == Some(&c)));
            if conflict {
                next_active.push(v);
            } else {
                colors[v as usize] = c;
            }
        }
        active = next_active;
    }
    (colors, rounds)
}

/// Validates a proper coloring and returns the number of colors used.
pub fn verify_coloring(graph: &CsrGraph, colors: &[u32]) -> Result<usize, (NodeId, NodeId)> {
    for (u, v) in graph.edges_undirected() {
        if colors[u as usize] == colors[v as usize] {
            return Err((u, v));
        }
    }
    Ok(count_distinct(colors))
}

/// The number of distinct values in `colors`: one bit per color in a
/// bitmap up to the largest color, or a sorted copy when the colors are
/// too sparse for that (more bitmap words than entries).
fn count_distinct(colors: &[u32]) -> usize {
    let Some(&max) = colors.iter().max() else {
        return 0;
    };
    let words = max as usize / 64 + 1;
    if words > colors.len() {
        let mut sorted = colors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        return sorted.len();
    }
    let mut seen = vec![0u64; words];
    for &c in colors {
        seen[c as usize / 64] |= 1 << (c % 64);
    }
    seen.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_order::{degeneracy_order, degree_order_desc};

    #[test]
    fn greedy_on_degeneracy_order_uses_d_plus_one_colors() {
        let g = gms_gen::gnp(200, 0.05, 3);
        let dgr = degeneracy_order(&g);
        // Smallest-last coloring: color in REVERSE peeling order, so
        // every vertex sees at most d already-colored neighbors.
        let mut reversed = dgr.rank.order();
        reversed.reverse();
        let rank = gms_graph::Rank::from_order(&reversed);
        let colors = greedy_coloring(&g, &rank);
        let used = verify_coloring(&g, &colors).expect("proper coloring");
        assert!(
            used <= dgr.degeneracy + 1,
            "{used} > d+1 = {}",
            dgr.degeneracy + 1
        );
    }

    #[test]
    fn jones_plassmann_proper_and_bounded() {
        let g = gms_gen::kronecker_default(9, 6, 4);
        let priority = degree_order_desc(&g);
        let (colors, rounds) = jones_plassmann(&g, &priority);
        let used = verify_coloring(&g, &colors).expect("proper coloring");
        assert!(used <= g.max_degree() + 1);
        assert!(rounds >= 1);
    }

    #[test]
    fn jones_plassmann_matches_greedy_color_count_on_bipartite() {
        let g = gms_gen::grid(6, 6); // bipartite: 2 colors suffice
        let (colors, _) = jones_plassmann(&g, &degree_order_desc(&g));
        let used = verify_coloring(&g, &colors).unwrap();
        assert!(used <= 4, "grids color with few colors, got {used}");
    }

    #[test]
    fn johansson_is_proper() {
        let g = gms_gen::gnp(150, 0.07, 6);
        let (colors, rounds) = johansson(&g, 2.0, 9);
        verify_coloring(&g, &colors).expect("proper coloring");
        assert!(rounds < 100, "randomized palette converges fast");
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = gms_gen::complete(7);
        let (colors, _) = jones_plassmann(&g, &degree_order_desc(&g));
        assert_eq!(verify_coloring(&g, &colors).unwrap(), 7);
        let greedy = greedy_coloring(&g, &degeneracy_order(&g).rank);
        assert_eq!(verify_coloring(&g, &greedy).unwrap(), 7);
    }

    #[test]
    fn verify_detects_conflicts() {
        let g = gms_gen::complete(3);
        assert!(verify_coloring(&g, &[0, 0, 1]).is_err());
        assert_eq!(verify_coloring(&g, &[0, 1, 2]), Ok(3));
    }

    #[test]
    fn verify_counts_dense_and_sparse_palettes() {
        let edgeless = CsrGraph::from_undirected_edges(6, &[]);
        assert_eq!(verify_coloring(&edgeless, &[0, 63, 64, 64, 0, 127]), Ok(4));
        assert_eq!(
            verify_coloring(&edgeless, &[0, u32::MAX, 5, 5, u32::MAX, 1 << 20]),
            Ok(4)
        );
        let empty = CsrGraph::from_undirected_edges(0, &[]);
        assert_eq!(verify_coloring(&empty, &[]), Ok(0));
    }
}
