//! k-core extraction (§6.1): a k-core is a maximal subgraph in which
//! every vertex has degree at least `k`. The paper derives k-cores
//! directly from a degeneracy ordering: orient the graph by the order
//! and iteratively remove vertices of insufficient degree.
//!
//! [`k_core_by_peeling`] is that removal on its own, without core
//! numbers, and the one peel the `k-core` kernel runs on every
//! resident: raw CSR arrays or a gap-compressed graph, through one
//! sequential [`Sweep`] that reads only the neighborhoods of the
//! vertices it removes — on a compressed graph, the only ones it
//! decodes. [`k_core_vertices`] and [`approx_core_numbers`] read CSR
//! arrays.

use crate::degeneracy::degeneracy_order;
use gms_core::{CsrGraph, Graph, NodeId};
use gms_graph::{GraphView, Sweep};

/// Vertices of the `k`-core, computed exactly from core numbers.
pub fn k_core_vertices(graph: &CsrGraph, k: u32) -> Vec<NodeId> {
    let result = degeneracy_order(graph);
    graph
        .vertices()
        .filter(|&v| result.core_numbers[v as usize] >= k)
        .collect()
}

/// Iterative peeling restricted to a target `k` (the paper's recipe:
/// repeatedly delete vertices with fewer than `k` surviving
/// neighbors), on any resident. Equivalent to [`k_core_vertices`] but
/// does not need core numbers; the *approximate* core below applies
/// the same peel incrementally across geometric thresholds. Returns
/// the core in ascending ID order.
///
/// The k-core is unique whatever the peel order (Batagelj–Zaversnik),
/// so the peel follows one sequential [`Sweep::sweep`] — on a
/// compressed resident, one walk of the block cursor. Each vertex's
/// residual degree is settled when the sweep reaches it: its degree
/// less the neighbors already peeled. A vertex below `k` there is
/// peeled, its neighborhood read where the sweep stands. A neighbor
/// that drops below `k` *behind* the sweep is peeled at once through a
/// stack (random access); one *ahead* of it only has the loss counted,
/// and is settled when the sweep reaches it. Only the peeled vertices'
/// neighborhoods are read — on a compressed resident only they are
/// decoded, and no CSR is materialized.
pub fn k_core_by_peeling<'a>(graph: impl Into<GraphView<'a>>, k: u32) -> Vec<NodeId> {
    match graph.into() {
        GraphView::Raw(graph) => peel(graph, k),
        GraphView::Compressed(graph) => peel(graph, k),
    }
}

/// The sweep-ordered peel behind [`k_core_by_peeling`].
fn peel(graph: &impl Sweep, k: u32) -> Vec<NodeId> {
    /// The state of a peeled vertex.
    const PEELED: u32 = u32::MAX;
    // Ahead of the sweep: how many neighbors were peeled. At or
    // behind it: the residual degree, or `PEELED`.
    let mut state = vec![0u32; graph.num_vertices()];
    let (mut stack, mut buf) = (Vec::new(), Vec::new());
    for swept in graph.sweep() {
        let at = swept.vertex as usize;
        let residual = swept.degree as u32 - state[at];
        if residual >= k {
            state[at] = residual;
            continue;
        }
        state[at] = PEELED;
        let mut nbrs = swept.neighbors_in(&mut buf);
        loop {
            for &w in nbrs {
                let w = w as usize;
                if state[w] == PEELED {
                    continue;
                }
                if w > at {
                    state[w] += 1;
                    continue;
                }
                state[w] -= 1;
                if state[w] < k {
                    state[w] = PEELED;
                    stack.push(w as NodeId);
                }
            }
            let Some(v) = stack.pop() else { break };
            nbrs = graph.neighbors_in(v, &mut buf);
        }
    }
    (0..state.len() as NodeId)
        .filter(|&v| state[v as usize] != PEELED)
        .collect()
}

/// Approximate core decomposition by geometric thresholding (the
/// paper's approximate `k`-core recipe): peel to the `⌈k⌉`-core for
/// `k = 1, (1+ε), (1+ε)², ...` — O(log_{1+ε} Δ) peels instead of one
/// per distinct core value — and assign each vertex the largest
/// threshold it survives. The estimate never exceeds the true core
/// number and is within a `1+ε` factor below it (so trivially within
/// the `2+ε` factor the ADG theory promises). `ε = 0` degenerates to
/// testing every integer threshold, i.e. the exact core numbers.
///
/// Cores are nested, so each peel continues from the previous one's
/// survivors and residual degrees instead of rescanning the whole
/// graph: every vertex is peeled exactly once across all thresholds,
/// for O(n log_{1+ε} Δ + m) total work.
pub fn approx_core_numbers(graph: &CsrGraph, epsilon: f64) -> Vec<f64> {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    let n = graph.num_vertices();
    let mut core = vec![0f64; n];
    let max_degree = graph.vertices().map(|v| graph.degree(v)).max().unwrap_or(0) as u32;
    let mut degree: Vec<u32> = (0..n).map(|v| graph.degree(v as NodeId) as u32).collect();
    let mut removed = vec![false; n];
    let mut survivors: Vec<NodeId> = graph.vertices().collect();
    let mut threshold = 1f64;
    let mut k = 1u32;
    while k <= max_degree {
        // Peel the previous core's survivors down to the k-core.
        let mut stack: Vec<NodeId> = survivors
            .iter()
            .copied()
            .filter(|&v| degree[v as usize] < k)
            .collect();
        for &v in &stack {
            removed[v as usize] = true;
        }
        while let Some(v) = stack.pop() {
            for w in graph.neighbors(v) {
                if removed[w as usize] {
                    continue;
                }
                degree[w as usize] -= 1;
                if degree[w as usize] < k {
                    removed[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        survivors.retain(|&v| !removed[v as usize]);
        if survivors.is_empty() {
            break;
        }
        for &v in &survivors {
            core[v as usize] = f64::from(k);
        }
        // Next distinct integer threshold: the geometric step, but at
        // least k + 1 so tiny ε (or ε = 0) still makes progress and
        // the loop is bounded by the number of distinct cores tested.
        threshold *= 1.0 + epsilon;
        k = (threshold.ceil() as u32).max(k + 1);
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_with_tail() -> CsrGraph {
        // K4 on {0..3}, path 3-4-5.
        let mut edges = vec![(3u32, 4u32), (4, 5)];
        for i in 0..4u32 {
            for j in i + 1..4 {
                edges.push((i, j));
            }
        }
        CsrGraph::from_undirected_edges(6, &edges)
    }

    #[test]
    fn three_core_is_the_clique() {
        let g = clique_with_tail();
        assert_eq!(k_core_vertices(&g, 3), vec![0, 1, 2, 3]);
        assert_eq!(k_core_by_peeling(&g, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn one_core_is_everything_connected() {
        let g = clique_with_tail();
        assert_eq!(k_core_vertices(&g, 1).len(), 6);
        assert_eq!(k_core_by_peeling(&g, 1).len(), 6);
    }

    #[test]
    fn too_large_k_is_empty() {
        let g = clique_with_tail();
        assert!(k_core_vertices(&g, 4).is_empty());
        assert!(k_core_by_peeling(&g, 4).is_empty());
    }

    #[test]
    fn peeling_matches_core_numbers_on_random_graphs() {
        for seed in 0..4 {
            let g = gms_gen::gnp(150, 0.06, seed);
            let gap = gms_graph::CompressedCsr::from_csr(&g);
            for k in 0..7 {
                let want = k_core_vertices(&g, k);
                assert_eq!(k_core_by_peeling(&g, k), want, "raw seed {seed} k {k}");
                assert_eq!(k_core_by_peeling(&gap, k), want, "gap seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn approx_core_within_factor() {
        let eps = 0.5;
        let g = gms_gen::gnp(200, 0.08, 5);
        let exact = degeneracy_order(&g);
        let approx = approx_core_numbers(&g, eps);
        for v in g.vertices() {
            let truth = f64::from(exact.core_numbers[v as usize]);
            let est = approx[v as usize];
            // The construction's two-sided contract: never above the
            // true core number, never more than a (1+ε) factor below
            // it (and so trivially within the ADG (2+ε) bound).
            assert!(est <= truth, "v {v}: est {est} exceeds core {truth}");
            assert!(
                est >= truth / (1.0 + eps) - 1e-9,
                "v {v}: est {est} more than (1+ε) below core {truth}"
            );
        }
    }

    #[test]
    fn epsilon_zero_gives_exact_cores() {
        let g = gms_gen::gnp(120, 0.07, 9);
        let exact = degeneracy_order(&g);
        let approx = approx_core_numbers(&g, 0.0);
        for v in g.vertices() {
            assert_eq!(
                approx[v as usize] as u32, exact.core_numbers[v as usize],
                "v {v}"
            );
        }
    }

    #[test]
    fn approx_core_matches_full_repeeling() {
        // The incremental survivors-only peel must agree with peeling
        // the whole graph at every tested threshold.
        for (seed, eps) in [(1u64, 0.5f64), (2, 0.25), (3, 1.0)] {
            let g = gms_gen::gnp(150, 0.06, seed);
            let approx = approx_core_numbers(&g, eps);
            for v in g.vertices() {
                let est = approx[v as usize] as u32;
                if est > 0 {
                    assert!(
                        k_core_by_peeling(&g, est).contains(&v),
                        "seed {seed} ε {eps}: v {v} assigned {est} but not in that core"
                    );
                }
            }
        }
    }
}
