//! Minimum cut via randomized contraction (Karger–Stein, Table 4:
//! the paper's representative "superlinear P problem"). The
//! Karger–Stein refinement contracts down to `n/√2 + 1` vertices,
//! then recurses twice and keeps the better cut, amplifying the
//! success probability to Ω(1/log n) per trial.

use gms_core::{CancelToken, CsrGraph, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A multigraph under contraction: surviving edges with multiplicity 1
/// each (parallel edges listed repeatedly).
#[derive(Clone)]
struct ContractState {
    /// Remaining (endpoint-resolved) edges.
    edges: Vec<(u32, u32)>,
    /// Union-find parents.
    parent: Vec<u32>,
    /// Remaining super-vertex count.
    vertices: usize,
}

impl ContractState {
    fn new(n: usize, edges: Vec<(u32, u32)>) -> Self {
        Self {
            edges,
            parent: (0..n as u32).collect(),
            vertices: n,
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

    /// Contracts random edges until `target` super-vertices remain, or
    /// until `cancel` fires: every contraction compacts the whole edge
    /// list, so an exact probe per contraction costs nothing beside it.
    fn contract_to(&mut self, target: usize, rng: &mut StdRng, cancel: &CancelToken) {
        while self.vertices > target && !self.edges.is_empty() && !cancel.expired() {
            let pick = rng.gen_range(0..self.edges.len());
            let (u, v) = self.edges[pick];
            let (ru, rv) = (self.find(u), self.find(v));
            if ru == rv {
                self.edges.swap_remove(pick);
                continue;
            }
            self.parent[rv as usize] = ru;
            self.vertices -= 1;
            // Drop self-loops lazily: compact the edge list in place.
            let mut write = 0;
            for read in 0..self.edges.len() {
                let (a, b) = self.edges[read];
                if self.find(a) != self.find(b) {
                    self.edges[write] = (a, b);
                    write += 1;
                }
            }
            self.edges.truncate(write);
        }
    }

    /// Cut value when exactly two super-vertices remain.
    fn cut_value(&self) -> usize {
        self.edges.len()
    }
}

/// One Karger–Stein recursion node; a fired `cancel` cuts the whole
/// subtree short with `usize::MAX`, which no real cut beats. (A
/// cancelled contraction no longer shrinks the graph, so without this
/// probe the recursion would never reach its base case.)
fn karger_stein_rec(state: &mut ContractState, rng: &mut StdRng, cancel: &CancelToken) -> usize {
    if cancel.expired() {
        return usize::MAX;
    }
    let n = state.vertices;
    if state.edges.is_empty() {
        // The surviving super-vertices are mutually disconnected
        // components: the empty cut separates them. Without this base
        // case a graph with more than 6 components recurses forever,
        // since contraction can never reduce `vertices` further.
        return 0;
    }
    if n <= 6 {
        state.contract_to(2, rng, cancel);
        return state.cut_value();
    }
    let target = (n as f64 / std::f64::consts::SQRT_2).ceil() as usize + 1;
    let mut first = state.clone();
    first.contract_to(target, rng, cancel);
    let cut_a = karger_stein_rec(&mut first, rng, cancel);
    state.contract_to(target, rng, cancel);
    let cut_b = karger_stein_rec(state, rng, cancel);
    cut_a.min(cut_b)
}

/// Runs `trials` independent Karger–Stein trials and returns the best
/// (smallest) cut found. With O(log² n) trials the result is the true
/// minimum cut with high probability; tests use known-cut graphs.
pub fn min_cut(graph: &CsrGraph, trials: usize, seed: u64) -> usize {
    min_cut_cancellable(graph, trials, seed, &CancelToken::none())
}

/// [`min_cut`] under a cooperative [`CancelToken`] probed before every
/// trial, at every recursion node and at every contraction. A fired
/// token yields a partial answer the caller must discard.
pub fn min_cut_cancellable(
    graph: &CsrGraph,
    trials: usize,
    seed: u64,
    cancel: &CancelToken,
) -> usize {
    let n = graph.num_vertices();
    if n < 2 {
        return 0;
    }
    let edges: Vec<(u32, u32)> = graph.edges_undirected().collect();
    if edges.is_empty() {
        return 0; // disconnected: the empty cut separates components
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = usize::MAX;
    for _ in 0..trials.max(1) {
        if cancel.expired() {
            break;
        }
        let mut state = ContractState::new(n, edges.clone());
        best = best.min(karger_stein_rec(&mut state, &mut rng, cancel));
    }
    best
}

/// Exhaustive minimum cut for tiny graphs (≤ ~20 vertices): tries
/// every bipartition — the oracle used in tests.
pub fn min_cut_brute(graph: &CsrGraph) -> usize {
    let n = graph.num_vertices();
    assert!((2..=24).contains(&n), "brute force only for tiny graphs");
    let edges: Vec<(NodeId, NodeId)> = graph.edges_undirected().collect();
    let mut best = usize::MAX;
    // Fix vertex 0 on side A; every non-zero mask over vertices 1..n
    // describes a non-trivial bipartition.
    for mask in 1..(1u32 << (n - 1)) {
        let side_b = |v: NodeId| -> bool { v != 0 && (mask >> (v - 1)) & 1 == 1 };
        let cut = edges
            .iter()
            .filter(|&&(u, v)| side_b(u) != side_b(v))
            .count();
        best = best.min(cut);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques(bridges: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for base in [0u32, 6] {
            for i in 0..6 {
                for j in i + 1..6 {
                    edges.push((base + i, base + j));
                }
            }
        }
        for b in 0..bridges as u32 {
            edges.push((b, 6 + b));
        }
        CsrGraph::from_undirected_edges(12, &edges)
    }

    #[test]
    fn many_components_terminate_with_empty_cut() {
        // Regression: >6 mutually disconnected components used to
        // recurse forever (contraction runs out of edges before the
        // n <= 6 base case can be reached).
        let edges: Vec<(u32, u32)> = (0..8u32).map(|t| (3 * t, 3 * t + 1)).collect();
        let g = CsrGraph::from_undirected_edges(24, &edges);
        assert_eq!(min_cut(&g, 8, 1), 0);
    }

    #[test]
    fn bridge_counts_are_found() {
        for bridges in 1..=3 {
            let g = two_cliques(bridges);
            assert_eq!(min_cut(&g, 30, 42), bridges, "bridges {bridges}");
        }
    }

    #[test]
    fn cycle_has_cut_two() {
        let mut edges: Vec<(u32, u32)> = (0..10u32).map(|v| (v, (v + 1) % 10)).collect();
        edges.dedup();
        let g = CsrGraph::from_undirected_edges(10, &edges);
        assert_eq!(min_cut(&g, 30, 7), 2);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..4 {
            let g = gms_gen::gnp(12, 0.45, seed);
            use gms_core::Graph as _;
            if g.num_edges_undirected() == 0 {
                continue;
            }
            let brute = min_cut_brute(&g);
            let ks = min_cut(&g, 40, seed);
            assert_eq!(ks, brute, "seed {seed}");
        }
    }

    #[test]
    fn star_cut_is_one() {
        let edges: Vec<(u32, u32)> = (1..8u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_undirected_edges(8, &edges);
        assert_eq!(min_cut(&g, 20, 3), 1);
    }

    #[test]
    fn degenerate_graphs() {
        let empty = CsrGraph::from_undirected_edges(1, &[]);
        assert_eq!(min_cut(&empty, 5, 1), 0);
        let disconnected = CsrGraph::from_undirected_edges(4, &[(0, 1)]);
        assert_eq!(min_cut(&disconnected, 5, 1), 0);
    }
}
