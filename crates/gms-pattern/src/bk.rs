//! Parallel Bron–Kerbosch maximal clique listing (§6.2, Algorithm 6).
//!
//! The GMS formulation is generic over the [`Set`] implementation used
//! for the candidate set `P`, the excluded set `X` and the vertex
//! neighborhoods — the paper's set-algebra modularity (⑤⁺). The outer
//! loop processes vertices in a configurable preprocessing order (③):
//!
//! * **BK-DAS** — the Das et al. (ParMCE) baseline shape: degeneracy
//!   order, hash-set adjacency, and Eppstein-style per-recursion-level
//!   induced-subgraph rebuilding — the design §6.2 improves on;
//! * **BK-GMS-DEG / DGR / ADG** — GMS variants over bitvector sets
//!   with degree / exact degeneracy / approximate degeneracy orders.
//!   The paper uses roaring bitmaps on million-vertex graphs; below
//!   65536 vertices a roaring bitmap is structurally a u16 array (its
//!   bitmap containers never engage), so the bitvector family's
//!   laptop-scale member — the dense bitvector (`DenseBitSet`) — backs
//!   the named variants here. `bron_kerbosch::<RoaringSet>` remains one
//!   line away (see the `ablation_set_layouts` binary);
//! * **BK-GMS-ADG-S** — additionally builds the induced subgraph `H`
//!   on `P ∪ X` once per outermost vertex and runs every pivot
//!   selection and intersection against the smaller `N_H` sets (the
//!   §6.2 subgraph optimization, after Eppstein–Löffler–Strash).
//!
//! `H` lives in a root-local universe (the crate's `local` module):
//! the root's neighborhood `N(v) = P ∪ X` is numbered `0..|N(v)|`, and
//! `P`, `X` and every row of `H` are sets over those local ids. A
//! bitset in this search therefore has `|P ∪ X|` bits, not `n` — one
//! word on most roots of a sparse graph, where the whole-graph id space
//! costs `n / 64` words per operation whatever the size of `P`. A `P`
//! row is `N(p) ∩ (P ∪ X)`, from one scan of `N(p)`; an `X` row holds
//! only its `P` bits, which is all the pivot rule reads of it, and
//! those come out of the same scans. Cliques map back to original ids
//! at the leaf. The per-level mode (BK-DAS) starts from the same `H`
//! and rebuilds it at every level. The `None` mode is the paper's
//! no-`H` variant: it runs over whole-graph neighborhood sets in
//! original ids, and it is the only mode that builds a [`SetGraph`].
//!
//! No mode relabels the graph: the order only decides which neighbors
//! of the root are `P` (later) and which are `X` (earlier).
//!
//! Pivoting follows Tomita et al.: choose `u ∈ P ∪ X` maximizing
//! `|P ∩ N(u)|`, then only `P \ N(u)` spawns recursive calls.

use crate::local::Universe;
use crate::scratch::{with_worker_checkout, with_worker_scratch, SetPool};
use gms_core::hash::FxHashMap;
use gms_core::{CancelToken, CsrGraph, DenseBitSet, Graph, HashVertexSet, NodeId, Set, SetGraph};
use gms_order::OrderingKind;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// How the induced subgraph `H` on `P ∪ X` is (re)built (§6.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubgraphMode {
    /// No `H`: all set operations run against whole-graph
    /// neighborhoods in original ids.
    None,
    /// Build `H` once per outermost vertex, over the root's local ids,
    /// and reuse it down the whole search tree — the GMS improvement
    /// (BK-ADG-S).
    Outermost,
    /// Rebuild `H` at every recursion level, as originally advocated
    /// by Eppstein et al. \[92\]; the paper observes the rebuild
    /// overheads often outweigh the gains — this is the baseline
    /// behavior BK-GMS improves on.
    PerLevel,
}

/// Configuration of a Bron–Kerbosch run.
#[derive(Clone, Debug)]
pub struct BkConfig {
    /// Preprocessing vertex order for the outer loop.
    pub ordering: OrderingKind,
    /// Induced-subgraph caching policy (§6.2).
    pub subgraph: SubgraphMode,
    /// Materialize the cliques (otherwise only count them).
    pub collect: bool,
    /// Pivot-branch depth down to which subtrees are spawned as
    /// `rayon::join` tasks (stealable by idle workers). Depth is
    /// counted from each root vertex; below it the subtree runs
    /// sequentially on whichever worker owns it, reusing scratch
    /// sets. `0` disables subtree parallelism entirely — with a
    /// 1-thread pool the traversal is then byte-identical to the
    /// purely sequential kernel.
    pub par_depth: usize,
}

impl Default for BkConfig {
    fn default() -> Self {
        Self {
            ordering: OrderingKind::ApproxDegeneracy(0.25),
            subgraph: SubgraphMode::None,
            collect: false,
            par_depth: 4,
        }
    }
}

/// Result of a Bron–Kerbosch run.
#[derive(Clone, Debug)]
pub struct BkOutcome {
    /// Number of maximal cliques.
    pub clique_count: u64,
    /// Size of the largest clique found (0 on the empty graph).
    pub largest: usize,
    /// The cliques in original vertex IDs (if `collect` was set),
    /// each sorted ascending.
    pub cliques: Option<Vec<Vec<NodeId>>>,
    /// Time spent computing the vertex ordering.
    pub preprocess: Duration,
    /// Time spent building the sets (whole-graph or root-local) and
    /// mining.
    pub mine: Duration,
}

impl BkOutcome {
    /// Algorithmic throughput (§4.3): maximal cliques found per second
    /// of mining time.
    pub fn throughput(&self) -> f64 {
        self.clique_count as f64 / self.mine.as_secs_f64().max(1e-12)
    }
}

/// Where the search reads the neighborhoods of the vertices `P ∪ X`
/// can hold.
#[derive(Clone, Copy)]
enum Neighborhoods<'a, S: Set> {
    /// Indexed by vertex: the whole graph's sets under `None`, the
    /// root's `H` over local ids otherwise.
    Rows(&'a [S]),
    /// `H` rebuilt for one level of the per-level mode, keyed by local
    /// id.
    Level(&'a FxHashMap<NodeId, S>),
}

struct SearchCtx<'a, S: Set> {
    neighborhoods: Neighborhoods<'a, S>,
    /// Original id of every local id; empty when the search runs in
    /// original ids.
    ids: &'a [NodeId],
    /// Rebuild `H` before every recursive call (Eppstein-style).
    per_level: bool,
    collect: bool,
    /// Cooperative cancellation, probed at every recursion entry.
    /// When it fires the search unwinds with a partial count the
    /// caller must discard.
    cancel: &'a CancelToken,
}

impl<S: Set> SearchCtx<'_, S> {
    #[inline]
    fn neigh(&self, v: NodeId) -> &S {
        match self.neighborhoods {
            Neighborhoods::Rows(rows) => &rows[v as usize],
            Neighborhoods::Level(h) => h.get(&v).expect("H covers P ∪ X"),
        }
    }

    /// The same search over a rebuilt `H`.
    fn over<'b>(&'b self, h: &'b FxHashMap<NodeId, S>) -> SearchCtx<'b, S> {
        SearchCtx {
            neighborhoods: Neighborhoods::Level(h),
            ids: self.ids,
            per_level: self.per_level,
            collect: self.collect,
            cancel: self.cancel,
        }
    }

    /// The clique `r` in original ids.
    fn original(&self, r: &[NodeId]) -> Vec<NodeId> {
        if self.ids.is_empty() {
            r.to_vec()
        } else {
            r.iter().map(|&v| self.ids[v as usize]).collect()
        }
    }
}

struct LocalOut {
    count: u64,
    largest: usize,
    cliques: Vec<Vec<NodeId>>,
}

impl LocalOut {
    fn empty() -> Self {
        LocalOut {
            count: 0,
            largest: 0,
            cliques: Vec::new(),
        }
    }

    fn absorb(&mut self, mut other: LocalOut) {
        self.count += other.count;
        self.largest = self.largest.max(other.largest);
        self.cliques.append(&mut other.cliques);
    }
}

/// Tomita-style pivot (line 20): `u ∈ P ∪ X` maximizing `|P ∩ N(u)|`.
fn select_pivot<S: Set>(ctx: &SearchCtx<'_, S>, p: &S, x: &S) -> NodeId {
    let mut pivot = None;
    let mut best = usize::MAX; // tracks |P \ N(u)| = |P| - |P ∩ N(u)|
    let p_size = p.cardinality();
    for u in p.iter().chain(x.iter()) {
        let covered = p.intersect_count(ctx.neigh(u));
        let residue = p_size - covered;
        if residue < best {
            best = residue;
            pivot = Some(u);
            if residue == 0 {
                break;
            }
        }
    }
    pivot.expect("P non-empty implies a pivot exists")
}

/// Eppstein-style per-level rebuild of `H` on the child's `P ∪ X`
/// (the rebuild cost §6.2 argues against; kept as the baseline).
fn per_level_subgraph<S: Set>(
    ctx: &SearchCtx<'_, S>,
    p_new: &S,
    x_new: &S,
) -> FxHashMap<NodeId, S> {
    let px = p_new.union(x_new);
    let mut h: FxHashMap<NodeId, S> = FxHashMap::default();
    for w in px.iter() {
        h.insert(w, ctx.neigh(w).intersect(&px));
    }
    h
}

fn bk_pivot<S: Set>(
    ctx: &SearchCtx<'_, S>,
    p: &mut S,
    r: &mut Vec<NodeId>,
    x: &mut S,
    scratch: &mut SetPool<S>,
    out: &mut LocalOut,
) {
    if ctx.cancel.is_cancelled() {
        return;
    }
    if p.is_empty() {
        // Line 19: R is maximal iff X is also empty.
        if x.is_empty() {
            out.count += 1;
            out.largest = out.largest.max(r.len());
            if ctx.collect {
                out.cliques.push(ctx.original(r));
            }
        }
        return;
    }
    let u = select_pivot(ctx, p, x);
    // Lines 21-28: only P \ N(u) extends the clique. Child sets are
    // built in recycled scratch buffers (`clone_from` + `_inplace`),
    // not fresh allocations — the set layouts reuse buffer capacity.
    let mut candidates = scratch.take();
    candidates.clone_from(p);
    candidates.diff_inplace(ctx.neigh(u));
    for v in candidates.iter() {
        let nv = ctx.neigh(v);
        let mut p_new = scratch.take();
        p_new.clone_from(p);
        p_new.intersect_inplace(nv);
        let mut x_new = scratch.take();
        x_new.clone_from(x);
        x_new.intersect_inplace(nv);
        r.push(v);
        if ctx.per_level {
            let h = per_level_subgraph(ctx, &p_new, &x_new);
            bk_pivot(&ctx.over(&h), &mut p_new, r, &mut x_new, scratch, out);
        } else {
            bk_pivot(ctx, &mut p_new, r, &mut x_new, scratch, out);
        }
        r.pop();
        p.remove(v);
        x.add(v);
        scratch.put(p_new);
        scratch.put(x_new);
    }
    scratch.put(candidates);
}

/// Parallel subtree expansion: above the remaining `depth_left`
/// budget, pivot branches are spawned as `join` tasks so idle workers
/// steal skewed subtrees; at the budget's edge (or on a 1-wide pool)
/// each branch falls into the sequential scratch-reusing kernel.
fn bk_pivot_par<S: Set>(
    ctx: &SearchCtx<'_, S>,
    p: &S,
    r: &[NodeId],
    x: &S,
    depth_left: usize,
) -> LocalOut {
    if ctx.cancel.is_cancelled() {
        return LocalOut::empty();
    }
    if depth_left == 0 || rayon::current_num_threads() <= 1 {
        // Sequential subtree: borrow the calling worker's scratch
        // pool instead of growing a fresh one per task — stolen
        // subtrees land on a worker whose previous tasks already grew
        // the buffers, so the leaf runs allocation-free.
        let mut p = p.clone();
        let mut x = x.clone();
        let mut r = r.to_vec();
        let mut out = LocalOut::empty();
        with_worker_scratch::<SetPool<S>, _>(|scratch| {
            bk_pivot(ctx, &mut p, &mut r, &mut x, scratch, &mut out);
        });
        return out;
    }
    if p.is_empty() {
        let mut out = LocalOut::empty();
        if x.is_empty() {
            out.count = 1;
            out.largest = r.len();
            if ctx.collect {
                out.cliques.push(ctx.original(r));
            }
        }
        return out;
    }
    let u = select_pivot(ctx, p, x);
    let candidates: Vec<NodeId> = p.diff(ctx.neigh(u)).to_vec();
    let range = 0..candidates.len();
    bk_split_branches(ctx, p, x, r, &candidates, range, depth_left)
}

/// Processes the pivot branches `candidates[range]`, where `p`/`x`
/// are already adjusted for `range.start` (earlier candidates moved
/// from P to X). Ranges split via `join` — the right half (with its
/// adjusted P/X) is published for stealing while the left half runs
/// on the calling worker — down to single branches, which descend
/// with one less level of parallel budget.
fn bk_split_branches<S: Set>(
    ctx: &SearchCtx<'_, S>,
    p: &S,
    x: &S,
    r: &[NodeId],
    candidates: &[NodeId],
    range: std::ops::Range<usize>,
    depth_left: usize,
) -> LocalOut {
    match range.len() {
        0 => LocalOut::empty(),
        1 => {
            let v = candidates[range.start];
            let nv = ctx.neigh(v);
            let p_new = p.intersect(nv);
            let x_new = x.intersect(nv);
            let mut r_new = r.to_vec();
            r_new.push(v);
            if ctx.per_level {
                let h = per_level_subgraph(ctx, &p_new, &x_new);
                bk_pivot_par(&ctx.over(&h), &p_new, &r_new, &x_new, depth_left - 1)
            } else {
                bk_pivot_par(ctx, &p_new, &r_new, &x_new, depth_left - 1)
            }
        }
        len => {
            let mid = range.start + len / 2;
            // The right half sees the left half's candidates moved
            // P → X (the sequential loop's post-iteration updates,
            // applied in bulk).
            let mut p_right = p.clone();
            let mut x_right = x.clone();
            for &w in &candidates[range.start..mid] {
                p_right.remove(w);
                x_right.add(w);
            }
            let (left_start, left_end) = (range.start, mid);
            let (mut left, right) = rayon::join(
                || bk_split_branches(ctx, p, x, r, candidates, left_start..left_end, depth_left),
                || {
                    bk_split_branches(
                        ctx,
                        &p_right,
                        &x_right,
                        r,
                        candidates,
                        mid..range.end,
                        depth_left,
                    )
                },
            );
            left.absorb(right);
            left
        }
    }
}

/// Line 13: the root's neighbors, each flagged "later in the order",
/// split into `P` (later) and `X` (earlier). Neighbors arrive in
/// ascending id order.
fn split<S: Set>(neighbors: impl Iterator<Item = (NodeId, bool)>, p: &mut S, x: &mut S) {
    p.assign_sorted(&[]);
    x.assign_sorted(&[]);
    for (w, later) in neighbors {
        if later {
            p.add(w);
        } else {
            x.add(w);
        }
    }
}

/// Searches from `R = {root}` with `P` and `X` filled by `fill`.
fn search<S: Set>(
    ctx: &SearchCtx<'_, S>,
    root: NodeId,
    par_depth: usize,
    fill: impl FnOnce(&mut S, &mut S),
) -> LocalOut {
    if par_depth > 0 && rayon::current_num_threads() > 1 {
        // Subtree tasks below the root: skewed branches are published
        // for stealing down to `par_depth` levels.
        let (mut p, mut x) = (S::empty(), S::empty());
        fill(&mut p, &mut x);
        return bk_pivot_par(ctx, &p, &[root], &x, par_depth);
    }
    with_worker_scratch::<SetPool<S>, _>(|scratch| {
        let (mut p, mut x) = (scratch.take(), scratch.take());
        fill(&mut p, &mut x);
        let mut out = LocalOut::empty();
        bk_pivot(ctx, &mut p, &mut vec![root], &mut x, scratch, &mut out);
        scratch.put(p);
        scratch.put(x);
        out
    })
}

/// Runs Bron–Kerbosch with pivoting over set representation `S`.
pub fn bron_kerbosch<S: Set>(graph: &CsrGraph, config: &BkConfig) -> BkOutcome {
    bron_kerbosch_cancellable::<S>(graph, config, &CancelToken::none())
}

/// [`bron_kerbosch`] with a cooperative [`CancelToken`] probed at
/// every recursion entry. When the token fires mid-search the walk
/// unwinds early and the returned counts are partial — callers must
/// check the token and discard the outcome.
pub fn bron_kerbosch_cancellable<S: Set>(
    graph: &CsrGraph,
    config: &BkConfig,
    cancel: &CancelToken,
) -> BkOutcome {
    let t0 = Instant::now();
    let rank = config.ordering.compute(graph);
    let preprocess = t0.elapsed();

    let t1 = Instant::now();
    let roots = (0..graph.num_vertices() as NodeId).into_par_iter();
    let later = |v: NodeId, w: NodeId| rank.precedes(v, w);
    let merged = if config.subgraph == SubgraphMode::None {
        let set_graph: SetGraph<S> = SetGraph::from_csr(graph);
        let ctx = SearchCtx {
            neighborhoods: Neighborhoods::Rows(set_graph.neighborhoods()),
            ids: &[],
            per_level: false,
            collect: config.collect,
            cancel,
        };
        roots.map(|v| {
            if cancel.is_cancelled() {
                return LocalOut::empty();
            }
            let members = graph.neighbors_slice(v);
            search(&ctx, v, config.par_depth, |p, x| {
                split(members.iter().map(|&w| (w, later(v, w))), p, x)
            })
        })
    } else {
        roots.map(|v| {
            if cancel.is_cancelled() {
                return LocalOut::empty();
            }
            // §6.2: H is the subgraph induced by P ∪ X = N(v), over
            // local ids; under `Outermost` it serves the whole tree.
            with_worker_checkout(|universe: &mut Universe<S>| {
                let members = graph.neighbors_slice(v);
                let in_p = |i: usize| later(v, members[i]);
                universe.induce(graph, members, in_p);
                let root = universe.push_id(v);
                let ctx = SearchCtx {
                    neighborhoods: Neighborhoods::Rows(universe.rows()),
                    ids: universe.ids(),
                    per_level: config.subgraph == SubgraphMode::PerLevel,
                    collect: config.collect,
                    cancel,
                };
                search(&ctx, root, config.par_depth, |p, x| {
                    split((0..members.len()).map(|i| (i as NodeId, in_p(i))), p, x)
                })
            })
        })
    }
    .reduce(LocalOut::empty, |mut a, b| {
        a.absorb(b);
        a
    });
    let mine = t1.elapsed();

    let cliques = config.collect.then(|| {
        let mut cliques = merged.cliques;
        for clique in &mut cliques {
            clique.sort_unstable();
        }
        cliques.sort();
        cliques
    });

    BkOutcome {
        clique_count: merged.count,
        largest: merged.largest,
        cliques,
        preprocess,
        mine,
    }
}

/// Named Bron–Kerbosch variants from the paper's evaluation (Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BkVariant {
    /// Das et al. (ParMCE) baseline shape: degeneracy order, hash-set
    /// adjacency, and per-top-level-vertex induced-subgraph
    /// materialization — the data-structure design of the original
    /// ParMCE code that the GMS variants' set-layout choices improve
    /// on.
    Das,
    /// GMS + simple degree ordering, dense bitset sets.
    GmsDeg,
    /// GMS + exact degeneracy order (Eppstein-style), dense bitset
    /// sets.
    GmsDgr,
    /// GMS + approximate degeneracy order (this paper), dense bitset
    /// sets.
    GmsAdg,
    /// GMS-ADG plus the induced-subgraph optimization (this paper),
    /// dense bitset sets.
    GmsAdgS,
}

impl BkVariant {
    /// All variants in presentation order.
    pub const ALL: [BkVariant; 5] = [
        BkVariant::Das,
        BkVariant::GmsDeg,
        BkVariant::GmsDgr,
        BkVariant::GmsAdg,
        BkVariant::GmsAdgS,
    ];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            BkVariant::Das => "BK-DAS",
            BkVariant::GmsDeg => "BK-GMS-DEG",
            BkVariant::GmsDgr => "BK-GMS-DGR",
            BkVariant::GmsAdg => "BK-GMS-ADG",
            BkVariant::GmsAdgS => "BK-GMS-ADG-S",
        }
    }

    /// Runs the variant (counting only).
    pub fn run(&self, graph: &CsrGraph) -> BkOutcome {
        self.run_with(graph, false)
    }

    /// Runs the variant, optionally collecting the cliques.
    pub fn run_with(&self, graph: &CsrGraph, collect: bool) -> BkOutcome {
        self.run_cancellable(graph, collect, &CancelToken::none())
    }

    /// [`BkVariant::run_with`] under a cooperative [`CancelToken`];
    /// a fired token yields a partial outcome the caller discards.
    pub fn run_cancellable(
        &self,
        graph: &CsrGraph,
        collect: bool,
        cancel: &CancelToken,
    ) -> BkOutcome {
        let config = |ordering, subgraph| BkConfig {
            ordering,
            subgraph,
            collect,
            ..BkConfig::default()
        };
        match self {
            BkVariant::Das => bron_kerbosch_cancellable::<HashVertexSet>(
                graph,
                &config(OrderingKind::Degeneracy, SubgraphMode::PerLevel),
                cancel,
            ),
            BkVariant::GmsDeg => bron_kerbosch_cancellable::<DenseBitSet>(
                graph,
                &config(OrderingKind::Degree, SubgraphMode::None),
                cancel,
            ),
            BkVariant::GmsDgr => bron_kerbosch_cancellable::<DenseBitSet>(
                graph,
                &config(OrderingKind::Degeneracy, SubgraphMode::None),
                cancel,
            ),
            BkVariant::GmsAdg => bron_kerbosch_cancellable::<DenseBitSet>(
                graph,
                &config(OrderingKind::ApproxDegeneracy(0.25), SubgraphMode::None),
                cancel,
            ),
            BkVariant::GmsAdgS => bron_kerbosch_cancellable::<DenseBitSet>(
                graph,
                &config(
                    OrderingKind::ApproxDegeneracy(0.25),
                    SubgraphMode::Outermost,
                ),
                cancel,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{is_maximal_clique, maximal_cliques_brute};
    use gms_core::{RoaringSet, SortedVecSet};

    fn check_against_brute(graph: &CsrGraph) {
        let expected = maximal_cliques_brute(graph);
        for variant in BkVariant::ALL {
            let outcome = variant.run_with(graph, true);
            assert_eq!(
                outcome.clique_count as usize,
                expected.len(),
                "{} count",
                variant.label()
            );
            assert_eq!(
                outcome.cliques.as_ref().unwrap(),
                &expected,
                "{} cliques",
                variant.label()
            );
        }
    }

    #[test]
    fn paw_graph() {
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        check_against_brute(&g);
    }

    #[test]
    fn complete_graph_has_one_maximal_clique() {
        let g = gms_gen::complete(7);
        let outcome = BkVariant::GmsAdg.run_with(&g, true);
        assert_eq!(outcome.clique_count, 1);
        assert_eq!(outcome.largest, 7);
        assert_eq!(outcome.cliques.unwrap()[0], (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn random_graphs_match_brute_force() {
        for seed in 0..5 {
            let g = gms_gen::gnp(24, 0.35, seed);
            check_against_brute(&g);
        }
    }

    #[test]
    fn planted_cliques_are_found() {
        let (g, groups) = gms_gen::planted_cliques(120, 0.02, 2, 9, 3);
        let outcome = BkVariant::GmsAdgS.run_with(&g, true);
        let cliques = outcome.cliques.unwrap();
        for group in &groups {
            let mut sorted = group.clone();
            sorted.sort_unstable();
            assert!(
                cliques
                    .iter()
                    .any(|c| { sorted.iter().all(|v| c.contains(v)) }),
                "planted clique {sorted:?} missing"
            );
        }
        assert!(outcome.largest >= 9);
        // Every reported clique really is maximal.
        for clique in &cliques {
            assert!(is_maximal_clique(&g, clique));
        }
    }

    #[test]
    fn all_set_backends_agree() {
        let g = gms_gen::gnp(40, 0.25, 11);
        let config = BkConfig {
            ordering: OrderingKind::Degeneracy,
            subgraph: SubgraphMode::None,
            collect: true,
            ..BkConfig::default()
        };
        let a = bron_kerbosch::<SortedVecSet>(&g, &config);
        let b = bron_kerbosch::<RoaringSet>(&g, &config);
        let c = bron_kerbosch::<DenseBitSet>(&g, &config);
        let d = bron_kerbosch::<HashVertexSet>(&g, &config);
        assert_eq!(a.cliques, b.cliques);
        assert_eq!(a.cliques, c.cliques);
        assert_eq!(a.cliques, d.cliques);
    }

    #[test]
    fn subgraph_optimization_is_transparent() {
        let g = gms_gen::gnp(60, 0.15, 21);
        let base = bron_kerbosch::<RoaringSet>(
            &g,
            &BkConfig {
                ordering: OrderingKind::ApproxDegeneracy(0.1),
                subgraph: SubgraphMode::None,
                collect: true,
                ..BkConfig::default()
            },
        );
        let opt = bron_kerbosch::<RoaringSet>(
            &g,
            &BkConfig {
                ordering: OrderingKind::ApproxDegeneracy(0.1),
                subgraph: SubgraphMode::Outermost,
                collect: true,
                ..BkConfig::default()
            },
        );
        assert_eq!(base.cliques, opt.cliques);
    }

    #[test]
    fn every_ordering_and_mode_finds_the_brute_force_cliques() {
        // The order only splits each root's neighborhood into P and X;
        // no mode relabels, so every order must list the same cliques
        // in original ids, with and without the root-local H.
        let (g, _) = gms_gen::planted_cliques(90, 0.06, 2, 6, 4);
        let expected = maximal_cliques_brute(&g);
        for ordering in [
            OrderingKind::Natural,
            OrderingKind::Degree,
            OrderingKind::Degeneracy,
            OrderingKind::ApproxDegeneracy(0.25),
            OrderingKind::TriangleCount,
        ] {
            for subgraph in [
                SubgraphMode::None,
                SubgraphMode::Outermost,
                SubgraphMode::PerLevel,
            ] {
                let config = BkConfig {
                    ordering,
                    subgraph,
                    collect: true,
                    ..BkConfig::default()
                };
                let outcome = bron_kerbosch::<DenseBitSet>(&g, &config);
                assert_eq!(
                    outcome.cliques.as_ref(),
                    Some(&expected),
                    "{} {subgraph:?}",
                    ordering.label()
                );
            }
        }
    }

    #[test]
    fn throughput_is_positive() {
        let g = gms_gen::gnp(50, 0.2, 1);
        let outcome = BkVariant::GmsAdg.run(&g);
        assert!(outcome.throughput() > 0.0);
        assert!(outcome.cliques.is_none());
    }

    #[test]
    fn fired_token_unwinds_with_a_partial_count() {
        let (g, _) = gms_gen::planted_cliques(200, 0.03, 3, 8, 1);
        assert!(BkVariant::GmsAdg.run(&g).clique_count > 0);
        let token = CancelToken::manual();
        token.cancel();
        // A token fired before the search starts prunes every root.
        let partial = BkVariant::GmsAdg.run_cancellable(&g, false, &token);
        assert_eq!(partial.clique_count, 0);
        // An unfired token changes nothing.
        let live = BkVariant::GmsAdg.run_cancellable(&g, false, &CancelToken::manual());
        assert_eq!(live.clique_count, BkVariant::GmsAdg.run(&g).clique_count);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = CsrGraph::from_undirected_edges(0, &[]);
        assert_eq!(BkVariant::GmsAdg.run(&empty).clique_count, 0);
        let isolated = CsrGraph::from_undirected_edges(4, &[]);
        let outcome = BkVariant::GmsAdg.run_with(&isolated, true);
        // Each isolated vertex is a maximal 1-clique.
        assert_eq!(outcome.clique_count, 4);
        assert_eq!(outcome.largest, 1);
    }
}
