//! Frequent Subgraph Mining (FSM, §4.1.1, §A): find all connected
//! labeled patterns occurring in a target graph with support above a
//! threshold. Per the paper, an FSM algorithm is (1) an exploration
//! strategy over the tree of candidate patterns — BFS (level-wise) or
//! DFS (recursive extension) — and (2) a subgraph-isomorphism kernel
//! deciding occurrences; both are provided here, sharing the VF2
//! matcher of this crate.
//!
//! Support is **minimum-image (MNI) support** — the standard
//! anti-monotone measure: the support of a pattern is the smallest,
//! over pattern vertices, number of distinct target vertices that
//! vertex maps to across all embeddings. Anti-monotonicity is what
//! makes level-wise pruning sound.

use crate::labeled::LabeledGraph;
use crate::vf2::{enumerate_embeddings, IsoMode, IsoOptions};
use gms_core::hash::{FxHashMap, FxHashSet};
use gms_core::{CsrBuilder, NodeId};

/// Exploration strategy for the candidate-pattern tree (§A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExplorationStrategy {
    /// Level-wise: all patterns with `e` edges before any with `e+1`.
    Bfs,
    /// Depth-first recursive extension.
    Dfs,
}

/// FSM configuration.
#[derive(Clone, Debug)]
pub struct FsmConfig {
    /// Minimum MNI support for a pattern to be reported.
    pub min_support: u64,
    /// Maximum pattern size (vertices); keeps the search bounded.
    pub max_vertices: usize,
    /// BFS or DFS exploration.
    pub strategy: ExplorationStrategy,
}

impl Default for FsmConfig {
    fn default() -> Self {
        Self {
            min_support: 2,
            max_vertices: 4,
            strategy: ExplorationStrategy::Bfs,
        }
    }
}

/// A frequent pattern with its support.
#[derive(Clone, Debug)]
pub struct FrequentPattern {
    /// The pattern graph (canonical vertex order).
    pub pattern: LabeledGraph<'static>,
    /// Its MNI support in the target.
    pub support: u64,
}

/// A pattern under construction: labels + undirected edges.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Pattern {
    labels: Vec<u32>,
    edges: Vec<(u8, u8)>, // small patterns: u8 endpoints
}

impl Pattern {
    fn to_graph(&self) -> LabeledGraph<'static> {
        let mut builder = CsrBuilder::new(self.labels.len());
        for &(a, b) in &self.edges {
            builder.push_arc(a as NodeId, b as NodeId);
            builder.push_arc(b as NodeId, a as NodeId);
        }
        LabeledGraph::new(builder.finish_dedup(), self.labels.clone())
    }

    /// Canonical code: the lexicographically smallest encoding over
    /// all vertex permutations (exact; patterns are tiny).
    fn canonical_code(&self) -> Vec<u32> {
        let k = self.labels.len();
        let mut order: Vec<u8> = (0..k as u8).collect();
        let mut best: Option<Vec<u32>> = None;
        permute(&mut order, 0, &mut |perm| {
            // position[p] = new index of original vertex p
            let mut position = vec![0u8; k];
            for (new_idx, &orig) in perm.iter().enumerate() {
                position[orig as usize] = new_idx as u8;
            }
            let mut code: Vec<u32> = perm.iter().map(|&v| self.labels[v as usize]).collect();
            let mut edges: Vec<(u8, u8)> = self
                .edges
                .iter()
                .map(|&(a, b)| {
                    let (x, y) = (position[a as usize], position[b as usize]);
                    (x.min(y), x.max(y))
                })
                .collect();
            edges.sort_unstable();
            for (a, b) in edges {
                code.push(u32::from(a) << 8 | u32::from(b));
            }
            match &best {
                Some(b) if *b <= code => {}
                _ => best = Some(code),
            }
        });
        best.expect("at least one permutation")
    }

    fn is_connected(&self) -> bool {
        let k = self.labels.len();
        if k == 0 {
            return false;
        }
        let mut adj = vec![Vec::new(); k];
        for &(a, b) in &self.edges {
            adj[a as usize].push(b as usize);
            adj[b as usize].push(a as usize);
        }
        let mut seen = vec![false; k];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == k
    }
}

fn permute(values: &mut Vec<u8>, at: usize, visit: &mut impl FnMut(&[u8])) {
    if at == values.len() {
        visit(values);
        return;
    }
    for i in at..values.len() {
        values.swap(at, i);
        permute(values, at + 1, visit);
        values.swap(at, i);
    }
}

/// MNI support of `pattern` in `target` (non-induced embeddings, per
/// FSM convention), with an embedding-enumeration cap for safety.
pub fn mni_support(pattern: &LabeledGraph, target: &LabeledGraph) -> u64 {
    let k = pattern.num_vertices();
    if k == 0 {
        return 0;
    }
    let mut images: Vec<FxHashSet<NodeId>> = vec![FxHashSet::default(); k];
    let options = IsoOptions {
        mode: IsoMode::NonInduced,
        precompute: true,
        galloping: true,
        limit: u64::MAX,
    };
    enumerate_embeddings(pattern, target, &options, |mapping| {
        for (q, &t) in mapping.iter().enumerate() {
            images[q].insert(t);
        }
        true
    });
    images.iter().map(|s| s.len() as u64).min().unwrap_or(0)
}

/// Mines all frequent connected patterns up to `config.max_vertices`.
/// Both strategies return identical pattern sets (tested); they differ
/// in traversal order and memory profile.
pub fn frequent_subgraphs(target: &LabeledGraph, config: &FsmConfig) -> Vec<FrequentPattern> {
    assert!(
        config.max_vertices >= 1 && config.max_vertices <= 6,
        "patterns must stay tiny"
    );
    // Seeds: single-vertex patterns for every frequent label.
    let mut label_count: FxHashMap<u32, u64> = FxHashMap::default();
    for v in 0..target.num_vertices() as NodeId {
        *label_count.entry(target.label(v)).or_insert(0) += 1;
    }
    let mut frequent_labels: Vec<u32> = label_count
        .iter()
        .filter(|(_, &c)| c >= config.min_support)
        .map(|(&l, _)| l)
        .collect();
    frequent_labels.sort_unstable();

    let mut results: Vec<FrequentPattern> = Vec::new();
    let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut frontier: Vec<Pattern> = Vec::new();

    for &label in &frequent_labels {
        let pattern = Pattern {
            labels: vec![label],
            edges: Vec::new(),
        };
        seen.insert(pattern.canonical_code());
        results.push(FrequentPattern {
            pattern: pattern.to_graph(),
            support: label_count[&label],
        });
        frontier.push(pattern);
    }

    match config.strategy {
        ExplorationStrategy::Bfs => {
            // Level-wise: extend the whole frontier, keep frequent
            // extensions, repeat.
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for pattern in &frontier {
                    for ext in extensions(pattern, &frequent_labels, config.max_vertices) {
                        let code = ext.canonical_code();
                        if !seen.insert(code) {
                            continue;
                        }
                        let graph = ext.to_graph();
                        let support = mni_support(&graph, target);
                        if support >= config.min_support {
                            results.push(FrequentPattern {
                                pattern: graph,
                                support,
                            });
                            next.push(ext);
                        }
                    }
                }
                frontier = next;
            }
        }
        ExplorationStrategy::Dfs => {
            let mut stack = frontier;
            while let Some(pattern) = stack.pop() {
                for ext in extensions(&pattern, &frequent_labels, config.max_vertices) {
                    let code = ext.canonical_code();
                    if !seen.insert(code) {
                        continue;
                    }
                    let graph = ext.to_graph();
                    let support = mni_support(&graph, target);
                    if support >= config.min_support {
                        results.push(FrequentPattern {
                            pattern: graph,
                            support,
                        });
                        stack.push(ext);
                    }
                }
            }
        }
    }
    // Canonical result order: by (vertices, edges, code).
    results.sort_by_key(|fp| {
        let p = Pattern {
            labels: fp.pattern.labels.clone(),
            edges: fp
                .pattern
                .graph
                .edges_undirected()
                .map(|(a, b)| (a as u8, b as u8))
                .collect(),
        };
        (fp.pattern.num_vertices(), p.edges.len(), p.canonical_code())
    });
    results
}

/// One-edge extensions: close a cycle between existing vertices, or
/// attach a new vertex with a frequent label.
fn extensions(pattern: &Pattern, labels: &[u32], max_vertices: usize) -> Vec<Pattern> {
    let k = pattern.labels.len();
    let mut out = Vec::new();
    let has_edge = |a: u8, b: u8| {
        pattern
            .edges
            .iter()
            .any(|&(x, y)| (x, y) == (a.min(b), a.max(b)))
    };
    // Cycle-closing edges.
    for a in 0..k as u8 {
        for b in a + 1..k as u8 {
            if !has_edge(a, b) {
                let mut ext = pattern.clone();
                ext.edges.push((a, b));
                ext.edges.sort_unstable();
                if ext.is_connected() {
                    out.push(ext);
                }
            }
        }
    }
    // New-vertex extensions.
    if k < max_vertices {
        for a in 0..k as u8 {
            for &label in labels {
                let mut ext = pattern.clone();
                ext.labels.push(label);
                ext.edges.push((a, k as u8));
                ext.edges.sort_unstable();
                out.push(ext);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_core::{CsrGraph, Graph as _};

    fn labeled(n: usize, edges: &[(u32, u32)], labels: Vec<u32>) -> LabeledGraph<'static> {
        LabeledGraph::new(CsrGraph::from_undirected_edges(n, edges), labels)
    }

    #[test]
    fn mni_support_on_star() {
        // Star: center label 0, three leaves label 1.
        let target = labeled(4, &[(0, 1), (0, 2), (0, 3)], vec![0, 1, 1, 1]);
        let edge_pattern = labeled(2, &[(0, 1)], vec![0, 1]);
        // Center image = {0} (size 1), leaf image = {1,2,3} (size 3):
        // MNI = 1.
        assert_eq!(mni_support(&edge_pattern, &target), 1);
        let leaf_pair = labeled(2, &[(0, 1)], vec![1, 1]);
        assert_eq!(
            mni_support(&leaf_pair, &target),
            0,
            "leaves are not adjacent"
        );
    }

    #[test]
    fn frequent_edges_in_path() {
        // Path A-B-A-B: pattern A-B occurs with both A's and both B's.
        let target = labeled(4, &[(0, 1), (1, 2), (2, 3)], vec![0, 1, 0, 1]);
        let config = FsmConfig {
            min_support: 2,
            max_vertices: 2,
            ..Default::default()
        };
        let frequent = frequent_subgraphs(&target, &config);
        // Singles: A (2), B (2). Edges: A-B (support 2). Not A-A or B-B.
        assert_eq!(frequent.len(), 3, "{frequent:?}");
        let edge = frequent
            .iter()
            .find(|f| f.pattern.num_vertices() == 2)
            .expect("edge pattern");
        assert_eq!(edge.support, 2);
        let mut labels = edge.pattern.labels.clone();
        labels.sort_unstable();
        assert_eq!(labels, vec![0, 1]);
    }

    #[test]
    fn bfs_and_dfs_find_identical_patterns() {
        let target = LabeledGraph::random_labels(gms_gen::gnp(40, 0.12, 4), 2, 7);
        let bfs = frequent_subgraphs(
            &target,
            &FsmConfig {
                min_support: 5,
                max_vertices: 3,
                strategy: ExplorationStrategy::Bfs,
            },
        );
        let dfs = frequent_subgraphs(
            &target,
            &FsmConfig {
                min_support: 5,
                max_vertices: 3,
                strategy: ExplorationStrategy::Dfs,
            },
        );
        assert_eq!(bfs.len(), dfs.len());
        for (a, b) in bfs.iter().zip(&dfs) {
            assert_eq!(a.support, b.support);
            assert_eq!(a.pattern.labels.len(), b.pattern.labels.len());
        }
    }

    #[test]
    fn support_is_antimonotone_along_results() {
        // Every reported k-vertex pattern contains a reported
        // (k-1)-vertex sub-pattern with >= support (spot-check: the
        // maximum support per level is non-increasing).
        let target = LabeledGraph::unlabeled(gms_gen::gnp(30, 0.2, 2));
        let frequent = frequent_subgraphs(
            &target,
            &FsmConfig {
                min_support: 3,
                max_vertices: 4,
                ..Default::default()
            },
        );
        let mut max_per_level: FxHashMap<usize, u64> = FxHashMap::default();
        for f in &frequent {
            let level = f.pattern.num_vertices();
            let entry = max_per_level.entry(level).or_insert(0);
            *entry = (*entry).max(f.support);
        }
        let mut levels: Vec<usize> = max_per_level.keys().copied().collect();
        levels.sort_unstable();
        for w in levels.windows(2) {
            assert!(
                max_per_level[&w[0]] >= max_per_level[&w[1]],
                "support must not grow with pattern size"
            );
        }
    }

    #[test]
    fn triangle_is_found_when_frequent() {
        // Two disjoint unlabeled triangles: the triangle pattern has
        // MNI support 6 (every corner maps to all six vertices).
        let target = labeled(
            6,
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
            vec![0; 6],
        );
        let frequent = frequent_subgraphs(
            &target,
            &FsmConfig {
                min_support: 2,
                max_vertices: 3,
                ..Default::default()
            },
        );
        let triangle = frequent
            .iter()
            .find(|f| f.pattern.num_vertices() == 3 && f.pattern.graph.num_arcs() == 6)
            .expect("triangle pattern found");
        assert_eq!(triangle.support, 6);
    }

    #[test]
    fn canonical_code_deduplicates_isomorphic_patterns() {
        // The same path pattern built with two different vertex orders.
        let a = Pattern {
            labels: vec![0, 1, 0],
            edges: vec![(0, 1), (1, 2)],
        };
        let b = Pattern {
            labels: vec![1, 0, 0],
            edges: vec![(0, 1), (0, 2)],
        };
        assert_eq!(a.canonical_code(), b.canonical_code());
        // Different labels → different codes.
        let c = Pattern {
            labels: vec![1, 1, 0],
            edges: vec![(0, 1), (0, 2)],
        };
        assert_ne!(a.canonical_code(), c.canonical_code());
    }
}
