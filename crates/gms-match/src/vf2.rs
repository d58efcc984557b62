//! VF2-style backtracking subgraph isomorphism (§4.1.1, §A). Finds
//! embeddings of a query graph `H` in a target `G`, in both the
//! *non-induced* variant (extra target edges among mapped vertices are
//! allowed) and the *induced* variant (they are not) — the distinction
//! the paper's appendix spells out.
//!
//! The search maps query vertices in a static connectivity-aware order
//! (highest degree first among vertices adjacent to the mapped
//! prefix). The candidates for the next query vertex come from set
//! algebra (⑤⁺) over the target, not from probing: they are the
//! intersection `∩ N(t)` of the target neighborhoods of its mapped
//! query neighbors, smallest first, and in the induced variant the
//! neighborhoods of its mapped query *non*-neighbors are subtracted
//! (`\`). What remains is filtered by the used targets, the label and
//! the degree. Each depth writes its candidates into one buffer reused
//! for the whole search, and at the last depth the counting drivers
//! add the number of candidates instead of recursing into each.
//!
//! Two optimizations from §6.4 are modeled as switches:
//!
//! * **precompute** — label/degree-filtered candidate tables for the
//!   root (and for the first vertex of every further component of a
//!   disconnected query), built before the search starts; without it
//!   those vertices try every target vertex;
//! * **galloping** ("GMS SIMD") — the `∩` and `\` run as the adaptive
//!   galloping / block-skipping merge of
//!   [`gms_core::set::intersect_sorted_slices_into`] instead of a plain
//!   element-by-element merge.

use crate::labeled::LabeledGraph;
use gms_core::set::{
    diff_sorted_slices_into, intersect_count_sorted_slices, intersect_sorted_slices_into,
};
use gms_core::{CancelToken, CsrGraph, Graph, NodeId};

/// Matching semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsoMode {
    /// Mapped query non-edges may be target edges.
    NonInduced,
    /// Mapped query non-edges must be target non-edges.
    Induced,
}

/// Tuning knobs modeling the §6.4 optimizations.
#[derive(Clone, Copy, Debug)]
pub struct IsoOptions {
    /// Matching semantics.
    pub mode: IsoMode,
    /// Build label/degree candidate tables before searching.
    pub precompute: bool,
    /// Intersect and subtract neighborhoods with the adaptive
    /// galloping / block-skipping merge instead of a plain merge.
    pub galloping: bool,
    /// Stop after this many embeddings (`u64::MAX` = enumerate all).
    pub limit: u64,
}

impl Default for IsoOptions {
    fn default() -> Self {
        Self {
            mode: IsoMode::NonInduced,
            precompute: true,
            galloping: true,
            limit: u64::MAX,
        }
    }
}

/// Plan shared by the sequential and parallel drivers: the static
/// query order and, per depth, which mapped vertices constrain it.
pub(crate) struct MatchPlan {
    /// Query vertices in matching order; `order[0]` is the root.
    order: Vec<NodeId>,
    /// Per depth `d`: the earlier depths whose query vertices are
    /// adjacent to `order[d]`; the candidates lie in the intersection
    /// of their images' neighborhoods.
    joined: Vec<Vec<usize>>,
    /// Per depth `d`: the earlier depths whose query vertices are not
    /// adjacent to `order[d]`; in the induced variant their images'
    /// neighborhoods are subtracted from the candidates.
    apart: Vec<Vec<usize>>,
    /// Per depth with no earlier neighbor (the root, and the first
    /// vertex of each further component of a disconnected query): its
    /// candidates, label- and degree-filtered under `precompute`.
    seeds: Vec<Vec<NodeId>>,
    /// Per depth: the label of `order[d]`.
    label: Vec<u32>,
    /// Per depth: the degree a candidate must reach, or 0 where
    /// adjacency to the earlier neighbors already guarantees it.
    min_degree: Vec<usize>,
    /// Whether labels can differ at all (either side is labeled).
    labeled: bool,
}

impl MatchPlan {
    /// The root candidates, which the parallel driver splits.
    pub(crate) fn roots(&self) -> &[NodeId] {
        &self.seeds[0]
    }
}

pub(crate) fn build_plan(
    query: &LabeledGraph,
    target: &LabeledGraph,
    options: &IsoOptions,
) -> MatchPlan {
    let q = query.num_vertices();
    let qgraph: &CsrGraph = &query.graph;
    // Root: maximum degree (most constrained first).
    let root = (0..q as NodeId)
        .max_by_key(|&v| qgraph.degree(v))
        .unwrap_or(0);
    let mut order = vec![root];
    let mut placed = vec![false; q];
    placed[root as usize] = true;
    while order.len() < q {
        // Next: an unplaced vertex adjacent to the prefix, of maximum
        // degree; fall back to any unplaced vertex (disconnected query).
        let next = (0..q as NodeId)
            .filter(|&v| !placed[v as usize])
            .max_by_key(|&v| {
                let adjacent = qgraph.neighbors(v).filter(|&w| placed[w as usize]).count();
                (adjacent.min(1), qgraph.degree(v))
            })
            .expect("unplaced vertex exists");
        order.push(next);
        placed[next as usize] = true;
    }

    let (mut joined, mut apart) = (Vec::with_capacity(q), Vec::with_capacity(q));
    for (d, &qv) in order.iter().enumerate() {
        let (adjacent, other): (Vec<usize>, Vec<usize>) =
            (0..d).partition(|&i| qgraph.has_edge(qv, order[i]));
        joined.push(adjacent);
        apart.push(other);
    }
    let label: Vec<u32> = order.iter().map(|&qv| query.label(qv)).collect();
    let degree = |d: usize| qgraph.degree(order[d]);
    let seeds = (0..q)
        .map(|d| {
            if !joined[d].is_empty() {
                Vec::new()
            } else if options.precompute {
                (0..target.num_vertices() as NodeId)
                    .filter(|&t| target.label(t) == label[d] && target.graph.degree(t) >= degree(d))
                    .collect()
            } else {
                (0..target.num_vertices() as NodeId).collect()
            }
        })
        .collect();
    let min_degree = (0..q)
        .map(|d| {
            if degree(d) > joined[d].len() {
                degree(d)
            } else {
                0
            }
        })
        .collect();
    MatchPlan {
        order,
        joined,
        apart,
        seeds,
        label,
        min_degree,
        labeled: !query.labels.is_empty() || !target.labels.is_empty(),
    }
}

/// What the search does with a complete mapping.
enum Leaf<'v> {
    /// Count it; at the last depth the candidates are counted in one
    /// step, capped at the limit.
    Count,
    /// Hand the query-indexed mapping to the visitor; `false` stops.
    Visit(&'v mut dyn FnMut(&[NodeId]) -> bool),
}

/// One backtracking search over part of the root candidates.
pub(crate) struct MatchState<'s> {
    plan: &'s MatchPlan,
    target: &'s LabeledGraph<'s>,
    graph: &'s CsrGraph,
    options: &'s IsoOptions,
    cancel: &'s CancelToken,
    /// `mapping[q]` = target vertex of query vertex `q`, or `UNMAPPED`.
    mapping: Vec<NodeId>,
    /// `image[d]` = target vertex of `plan.order[d]`, for `d` below the
    /// current depth.
    image: Vec<NodeId>,
    /// Per-depth candidate buffers, reused for the whole search.
    candidates: Vec<Vec<NodeId>>,
    /// Swap partner of a candidate buffer while it is intersected or
    /// subtracted in place.
    spare: Vec<NodeId>,
    /// The neighborhoods being intersected at one step, smallest first.
    lists: Vec<&'s [NodeId]>,
    /// Embeddings found so far, never above `options.limit`.
    pub found: u64,
}

const UNMAPPED: NodeId = u32::MAX;

impl<'s> MatchState<'s> {
    pub fn new(
        target: &'s LabeledGraph<'s>,
        plan: &'s MatchPlan,
        options: &'s IsoOptions,
        cancel: &'s CancelToken,
    ) -> Self {
        let q = plan.order.len();
        Self {
            plan,
            target,
            graph: &target.graph,
            options,
            cancel,
            mapping: vec![UNMAPPED; q],
            image: vec![UNMAPPED; q],
            candidates: vec![Vec::new(); q],
            spare: Vec::new(),
            lists: Vec::new(),
            found: 0,
        }
    }

    /// Whether the search should go on: under the limit, not cancelled.
    #[inline]
    fn running(&self) -> bool {
        self.found < self.options.limit && !self.cancel.is_cancelled()
    }

    /// Whether target `tv` may take depth `d`: unused, same label,
    /// enough degree. Adjacency was settled by the set algebra.
    #[inline]
    fn admissible(&self, d: usize, tv: NodeId) -> bool {
        let plan = self.plan;
        let min_degree = plan.min_degree[d];
        !self.image[..d].contains(&tv)
            && (!plan.labeled || self.target.label(tv) == plan.label[d])
            && (min_degree == 0 || self.graph.degree(tv) >= min_degree)
    }

    /// Appends `a ∩ b` (`common`) or `a \ b` to `out`; `galloping`
    /// selects the adaptive merge over the plain one.
    fn merge(&self, a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>, common: bool) {
        match (self.options.galloping, common) {
            (true, true) => intersect_sorted_slices_into(a, b, out),
            (true, false) => diff_sorted_slices_into(a, b, out),
            (false, _) => plain_merge_into(a, b, out, common),
        }
    }

    /// `out ← out ∩ b` (`common`) or `out ← out \ b`.
    fn narrow(&mut self, out: &mut Vec<NodeId>, b: &[NodeId], common: bool) {
        let mut spare = std::mem::take(&mut self.spare);
        spare.clear();
        self.merge(out, b, &mut spare, common);
        std::mem::swap(out, &mut spare);
        self.spare = spare;
    }

    /// The neighborhoods of the images of the query neighbors mapped
    /// before depth `d`, smallest first, in the reused `lists` buffer
    /// (the caller puts it back).
    fn neighborhoods(&mut self, d: usize) -> Vec<&'s [NodeId]> {
        let graph = self.graph;
        let mut lists = std::mem::take(&mut self.lists);
        lists.clear();
        lists.extend(
            self.plan.joined[d]
                .iter()
                .map(|&i| graph.neighbors_slice(self.image[i])),
        );
        lists.sort_unstable_by_key(|list| list.len());
        lists
    }

    /// `out ← ∩ lists`, for at least one list.
    fn intersect_all(&mut self, lists: &[&[NodeId]], out: &mut Vec<NodeId>) {
        match lists {
            [only] => out.extend_from_slice(only),
            [first, second, rest @ ..] => {
                self.merge(first, second, out, true);
                for list in rest {
                    self.narrow(out, list, true);
                }
            }
            [] => unreachable!("no neighborhoods to intersect"),
        }
    }

    /// The admissible candidates for depth `d`, into `out`.
    fn fill(&mut self, d: usize, out: &mut Vec<NodeId>) {
        let (plan, graph) = (self.plan, self.graph);
        out.clear();
        let lists = self.neighborhoods(d);
        if lists.is_empty() {
            out.extend_from_slice(&plan.seeds[d]);
        } else {
            self.intersect_all(&lists, out);
        }
        self.lists = lists;
        if self.options.mode == IsoMode::Induced {
            for &i in &plan.apart[d] {
                self.narrow(out, graph.neighbors_slice(self.image[i]), false);
            }
        }
        out.retain(|&tv| self.admissible(d, tv));
    }

    /// The number of admissible candidates at the last depth `d`. When
    /// the used-target test is the only filter that can reject one —
    /// unlabeled, adjacency implying the degree, nothing subtracted —
    /// the last intersection is counted without being materialized,
    /// and the mapped targets lying in it are taken off.
    fn count_last(&mut self, d: usize) -> u64 {
        let plan = self.plan;
        let mut candidates = std::mem::take(&mut self.candidates[d]);
        candidates.clear();
        let count = if !plan.labeled
            && plan.min_degree[d] == 0
            && !plan.joined[d].is_empty()
            && (self.options.mode == IsoMode::NonInduced || plan.apart[d].is_empty())
        {
            let lists = self.neighborhoods(d);
            let (last, rest) = lists.split_last().expect("a mapped neighbor");
            let common = match rest {
                [] => last.len(),
                [only] => self.count_common(only, last),
                _ => {
                    self.intersect_all(rest, &mut candidates);
                    self.count_common(&candidates, last)
                }
            };
            let used = self.image[..d]
                .iter()
                .filter(|t| lists.iter().all(|list| list.binary_search(t).is_ok()))
                .count();
            self.lists = lists;
            common - used
        } else {
            self.fill(d, &mut candidates);
            candidates.len()
        };
        self.candidates[d] = candidates;
        count as u64
    }

    /// `|a ∩ b|`; `galloping` selects the adaptive merge.
    fn count_common(&mut self, a: &[NodeId], b: &[NodeId]) -> usize {
        if self.options.galloping {
            return intersect_count_sorted_slices(a, b);
        }
        let mut spare = std::mem::take(&mut self.spare);
        spare.clear();
        plain_merge_into(a, b, &mut spare, true);
        let count = spare.len();
        self.spare = spare;
        count
    }

    /// Searches every extension of the mapping of depths `0..d`.
    /// Returns whether to go on.
    fn extend(&mut self, d: usize, leaf: &mut Leaf<'_>) -> bool {
        if !self.running() {
            return false;
        }
        if matches!(leaf, Leaf::Count) && d + 1 == self.plan.order.len() {
            let total = self.found.saturating_add(self.count_last(d));
            self.found = total.min(self.options.limit);
            return true;
        }
        let mut candidates = std::mem::take(&mut self.candidates[d]);
        self.fill(d, &mut candidates);
        let go_on = candidates.iter().all(|&tv| self.place(d, tv, leaf));
        self.candidates[d] = candidates;
        go_on
    }

    /// Maps `plan.order[d]` to `tv` and searches on. Returns whether to
    /// go on.
    fn place(&mut self, d: usize, tv: NodeId, leaf: &mut Leaf<'_>) -> bool {
        let qv = self.plan.order[d] as usize;
        self.mapping[qv] = tv;
        self.image[d] = tv;
        let go_on = if d + 1 < self.plan.order.len() {
            self.extend(d + 1, leaf)
        } else {
            self.found += 1;
            let visited = match leaf {
                Leaf::Count => true,
                Leaf::Visit(visit) => visit(&self.mapping),
            };
            visited && self.found < self.options.limit
        };
        self.mapping[qv] = UNMAPPED;
        go_on
    }

    /// Searches the embeddings rooted at each of `roots`, in order.
    fn search(&mut self, roots: &[NodeId], leaf: &mut Leaf<'_>) {
        for &root in roots {
            if !self.running() {
                return;
            }
            if self.admissible(0, root) && !self.place(0, root, leaf) {
                return;
            }
        }
    }

    /// Counts the embeddings rooted at each of `roots` into `found`.
    pub fn count_from(&mut self, roots: &[NodeId]) {
        self.search(roots, &mut Leaf::Count);
    }
}

/// The plain element-by-element merge that `galloping` is measured
/// against: appends `a ∩ b` (`common`) or `a \ b` to `out`.
fn plain_merge_into(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>, common: bool) {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if (j < b.len() && b[j] == x) == common {
            out.push(x);
        }
    }
}

/// Enumerates every embedding of `query` in `target`, invoking `visit`
/// with the query-indexed mapping; `visit` returning `false` stops the
/// search. Returns the number of embeddings visited — each mapping
/// exactly once, at most `options.limit` of them.
pub fn enumerate_embeddings(
    query: &LabeledGraph,
    target: &LabeledGraph,
    options: &IsoOptions,
    mut visit: impl FnMut(&[NodeId]) -> bool,
) -> u64 {
    if query.num_vertices() == 0 || query.num_vertices() > target.num_vertices() {
        return 0;
    }
    let plan = build_plan(query, target, options);
    let cancel = CancelToken::none();
    let mut state = MatchState::new(target, &plan, options, &cancel);
    state.search(plan.roots(), &mut Leaf::Visit(&mut visit));
    state.found
}

/// Counts embeddings of `query` in `target` (sequential VF2).
pub fn count_embeddings(query: &LabeledGraph, target: &LabeledGraph, options: &IsoOptions) -> u64 {
    count_embeddings_cancellable(query, target, options, &CancelToken::none())
}

/// [`count_embeddings`] under a cooperative [`CancelToken`] probed
/// at every extension step. A fired token yields a partial count the
/// caller must discard. The result is exactly `min(limit, total)`.
pub fn count_embeddings_cancellable(
    query: &LabeledGraph,
    target: &LabeledGraph,
    options: &IsoOptions,
    cancel: &CancelToken,
) -> u64 {
    if query.num_vertices() == 0 || query.num_vertices() > target.num_vertices() {
        return if query.num_vertices() == 0 { 1 } else { 0 };
    }
    let plan = build_plan(query, target, options);
    let mut state = MatchState::new(target, &plan, options, cancel);
    state.count_from(plan.roots());
    state.found
}

#[cfg(test)]
mod tests {
    use super::*;
    use gms_core::CsrGraph;

    fn unlabeled(n: usize, edges: &[(u32, u32)]) -> LabeledGraph<'static> {
        LabeledGraph::unlabeled(CsrGraph::from_undirected_edges(n, edges))
    }

    fn triangle() -> LabeledGraph<'static> {
        unlabeled(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn triangle_in_k4_has_24_embeddings() {
        // 4 vertex subsets × 3! orderings.
        let target = LabeledGraph::unlabeled(gms_gen::complete(4));
        assert_eq!(
            count_embeddings(&triangle(), &target, &IsoOptions::default()),
            24
        );
    }

    #[test]
    fn induced_vs_non_induced() {
        // Query: path on 3 vertices. Target: triangle.
        let path = unlabeled(3, &[(0, 1), (1, 2)]);
        let non_induced = IsoOptions::default();
        assert_eq!(count_embeddings(&path, &triangle(), &non_induced), 6);
        let induced = IsoOptions {
            mode: IsoMode::Induced,
            ..IsoOptions::default()
        };
        // A triangle has no induced P3.
        assert_eq!(count_embeddings(&path, &triangle(), &induced), 0);
    }

    #[test]
    fn labels_constrain_matching() {
        let target = LabeledGraph::new(
            CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2), (0, 2)]),
            vec![0, 0, 1],
        );
        let query = LabeledGraph::new(CsrGraph::from_undirected_edges(2, &[(0, 1)]), vec![0, 1]);
        // Ordered pairs with labels (0, 1): (0→2 edge? yes) and (1, 2).
        assert_eq!(count_embeddings(&query, &target, &IsoOptions::default()), 2);
    }

    #[test]
    fn sampled_subgraph_always_matches() {
        let target = LabeledGraph::random_labels(gms_gen::gnp(60, 0.2, 3), 3, 1);
        let query = target.induced(&[3, 7, 10, 21]);
        let first = IsoOptions {
            limit: 1,
            ..IsoOptions::default()
        };
        assert_eq!(count_embeddings(&query, &target, &first), 1);
    }

    #[test]
    fn limit_short_circuits() {
        let target = LabeledGraph::unlabeled(gms_gen::complete(8));
        let options = IsoOptions {
            limit: 5,
            ..IsoOptions::default()
        };
        assert_eq!(count_embeddings(&triangle(), &target, &options), 5);
    }

    #[test]
    fn optimizations_do_not_change_counts() {
        let target = LabeledGraph::random_labels(gms_gen::gnp(40, 0.25, 5), 2, 2);
        let query = target.induced(&[1, 4, 9]);
        let base = IsoOptions {
            precompute: false,
            galloping: false,
            ..IsoOptions::default()
        };
        let opt = IsoOptions::default();
        assert_eq!(
            count_embeddings(&query, &target, &base),
            count_embeddings(&query, &target, &opt)
        );
    }

    #[test]
    fn oversized_query_matches_nothing() {
        let query = unlabeled(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let target = triangle();
        assert_eq!(count_embeddings(&query, &target, &IsoOptions::default()), 0);
    }

    #[test]
    fn empty_query_matches_once() {
        let query = unlabeled(0, &[]);
        assert_eq!(
            count_embeddings(&query, &triangle(), &IsoOptions::default()),
            1
        );
    }
}
