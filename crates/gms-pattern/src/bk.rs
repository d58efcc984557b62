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
//!
//! Work moves between workers only on demand, by the rule of
//! [`gms_core::split`]: a worker walks its roots, and each node's pivot
//! branches down to [`BkConfig::par_depth`], in order, and hands the
//! back half of what remains off only once all it published before has
//! been taken and a heartbeat has passed. A 1-wide run is the
//! sequential kernel.

use crate::local::Universe;
use crate::scratch::SetPool;
use crate::SPLIT_AFTER;
use gms_core::hash::FxHashMap;
use gms_core::split::{hand_off, hungry, walk, with_worker_checkout};
use gms_core::{CancelToken, CsrGraph, DenseBitSet, Graph, HashVertexSet, NodeId, Set, SetGraph};
use gms_order::OrderingKind;
use std::ops::AddAssign;
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
    /// The deepest level of each root's search tree whose remaining
    /// pivot branches may be handed to an idle worker (the root's own
    /// branches are level 1); `0` splits only the range of roots.
    /// Splits happen only when another worker is idle (see the module
    /// docs), so a deep setting costs nothing where no one waits. A
    /// 1-thread pool never splits, whatever the depth.
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

#[derive(Default)]
struct LocalOut {
    count: u64,
    largest: usize,
    cliques: Vec<Vec<NodeId>>,
}

impl AddAssign for LocalOut {
    fn add_assign(&mut self, mut other: LocalOut) {
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

/// The search node `(R, P, X)`, lines 19-28. Down to `depth_left`
/// levels below it, the branches still to run go to
/// [`bk_split_branches`] as soon as this worker is [`hungry`].
fn bk_pivot<S: Set>(
    ctx: &SearchCtx<'_, S>,
    p: &mut S,
    r: &mut Vec<NodeId>,
    x: &mut S,
    scratch: &mut SetPool<S>,
    out: &mut LocalOut,
    depth_left: usize,
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
    let mut rest = Vec::new();
    {
        let mut branches = candidates.iter();
        while let Some(v) = branches.next() {
            if depth_left > 0 && hungry(SPLIT_AFTER) {
                rest.push(v);
                rest.extend(branches);
                break;
            }
            let nv = ctx.neigh(v);
            let mut p_new = scratch.take();
            p_new.clone_from(p);
            p_new.intersect_inplace(nv);
            let mut x_new = scratch.take();
            x_new.clone_from(x);
            x_new.intersect_inplace(nv);
            r.push(v);
            let depth = depth_left.saturating_sub(1);
            if ctx.per_level {
                let h = per_level_subgraph(ctx, &p_new, &x_new);
                let ctx = ctx.over(&h);
                bk_pivot(&ctx, &mut p_new, r, &mut x_new, scratch, out, depth);
            } else {
                bk_pivot(ctx, &mut p_new, r, &mut x_new, scratch, out, depth);
            }
            r.pop();
            p.remove(v);
            x.add(v);
            scratch.put(p_new);
            scratch.put(x_new);
        }
    }
    scratch.put(candidates);
    if !rest.is_empty() {
        *out += bk_split_branches(ctx, p, x, r, &rest, depth_left);
    }
}

/// Runs the pivot branches `candidates`, where `p`/`x` already have
/// every earlier branch moved from P to X. The back half, with its own
/// adjusted P/X, is published via `join` while the front half runs
/// here, down to single branches, which descend one level deeper into
/// the sequential kernel.
fn bk_split_branches<S: Set>(
    ctx: &SearchCtx<'_, S>,
    p: &S,
    x: &S,
    r: &[NodeId],
    candidates: &[NodeId],
    depth_left: usize,
) -> LocalOut {
    let mut out = LocalOut::default();
    match *candidates {
        [] => {}
        [v] => {
            let nv = ctx.neigh(v);
            let (mut p, mut x) = (p.intersect(nv), x.intersect(nv));
            let (mut r, depth) = ([r, &[v]].concat(), depth_left - 1);
            with_worker_checkout(|scratch: &mut SetPool<S>| {
                if ctx.per_level {
                    let h = per_level_subgraph(ctx, &p, &x);
                    let ctx = ctx.over(&h);
                    bk_pivot(&ctx, &mut p, &mut r, &mut x, scratch, &mut out, depth);
                } else {
                    bk_pivot(ctx, &mut p, &mut r, &mut x, scratch, &mut out, depth);
                }
            });
        }
        _ => {
            let (front, back) = candidates.split_at(candidates.len() / 2);
            // The back half sees the front half's candidates moved
            // P → X (the sequential loop's post-iteration updates,
            // applied in bulk).
            let mut p_back = p.clone();
            let mut x_back = x.clone();
            for &w in front {
                p_back.remove(w);
                x_back.add(w);
            }
            let (front, back) = hand_off(
                || bk_split_branches(ctx, p, x, r, front, depth_left),
                || bk_split_branches(ctx, &p_back, &x_back, r, back, depth_left),
            );
            out += front;
            out += back;
        }
    }
    out
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
    scratch: &mut SetPool<S>,
    fill: impl FnOnce(&mut S, &mut S),
) -> LocalOut {
    let (mut p, mut x) = (scratch.take(), scratch.take());
    fill(&mut p, &mut x);
    let (mut r, mut out) = (vec![root], LocalOut::default());
    bk_pivot(ctx, &mut p, &mut r, &mut x, scratch, &mut out, par_depth);
    scratch.put(p);
    scratch.put(x);
    out
}

/// Runs `search` on the roots `0..n` and merges the results, walking
/// them with [`walk`]; a walked segment of roots shares one scratch
/// pool.
fn mine_roots<S: Set>(
    n: NodeId,
    search: &(impl Fn(NodeId, &mut SetPool<S>) -> LocalOut + Sync),
) -> LocalOut {
    walk(
        0..n as usize,
        SPLIT_AFTER,
        &|segment| with_worker_checkout(segment),
        &|scratch, v, _| search(v as NodeId, scratch),
    )
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
    let n = graph.num_vertices() as NodeId;
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
        mine_roots(n, &|v, scratch| {
            if cancel.is_cancelled() {
                return LocalOut::default();
            }
            let members = graph.neighbors_slice(v);
            search(&ctx, v, config.par_depth, scratch, |p, x| {
                split(members.iter().map(|&w| (w, later(v, w))), p, x)
            })
        })
    } else {
        mine_roots(n, &|v, scratch| {
            if cancel.is_cancelled() {
                return LocalOut::default();
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
                search(&ctx, root, config.par_depth, scratch, |p, x| {
                    split((0..members.len()).map(|i| (i as NodeId, in_p(i))), p, x)
                })
            })
        })
    };
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

    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    // The heartbeat is zero under `cfg(test)`: a worker of a 2- or
    // 4-wide pool splits at every check that finds its deque empty.
    // The first root check always does, so every run below splits the
    // root range; deeper checks split subtrees whenever a thief has
    // taken what was published.
    #[test]
    fn every_split_gives_the_width_1_answer() {
        let graphs = [
            gms_gen::gnp(70, 0.3, 5),
            gms_gen::planted_cliques(150, 0.04, 3, 8, 2).0,
        ];
        let pools = [1, 2, 4].map(pool);
        for (i, g) in graphs.iter().enumerate() {
            for subgraph in [
                SubgraphMode::None,
                SubgraphMode::Outermost,
                SubgraphMode::PerLevel,
            ] {
                for par_depth in [0, 1, 4, 16] {
                    let config = BkConfig {
                        ordering: OrderingKind::Degeneracy,
                        subgraph,
                        collect: true,
                        par_depth,
                    };
                    let runs = pools
                        .each_ref()
                        .map(|pool| pool.install(|| bron_kerbosch::<DenseBitSet>(g, &config)));
                    for (run, threads) in runs[1..].iter().zip([2, 4]) {
                        let at = format!("graph {i} {subgraph:?} depth {par_depth} {threads}T");
                        assert_eq!(run.clique_count, runs[0].clique_count, "{at}");
                        assert_eq!(run.cliques, runs[0].cliques, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_subtree_split_inside_one_root_gives_the_sequential_answer() {
        // A hub over a ring of 40 leaves with chords `i — i+2`: with
        // every leaf in `P`, the hub's node has 36 pivot branches. A
        // walk over the hub alone (root `0` of a one-root range) has no
        // root range to split, so on a 2-wide pool the node's first
        // check hands its branches off.
        let mut edges: Vec<(NodeId, NodeId)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend((0..40).flat_map(|i| [(1 + i, 1 + (i + 1) % 40), (1 + i, 1 + (i + 2) % 40)]));
        let g = CsrGraph::from_undirected_edges(41, &edges);
        let sets: SetGraph<DenseBitSet> = SetGraph::from_csr(&g);
        let cancel = CancelToken::none();
        let ctx = SearchCtx {
            neighborhoods: Neighborhoods::Rows(sets.neighborhoods()),
            ids: &[],
            per_level: false,
            collect: true,
            cancel: &cancel,
        };
        let hub = |_: NodeId, scratch: &mut SetPool<DenseBitSet>| {
            let leaves = g.neighbors_slice(0);
            search(&ctx, 0, 1, scratch, |p, x| {
                split(leaves.iter().map(|&w| (w, true)), p, x)
            })
        };
        let run = |threads| {
            let mut out = pool(threads).install(|| mine_roots(1, &hub));
            out.cliques.sort();
            out
        };
        let (sequential, split) = (run(1), run(2));
        assert_eq!(sequential.count, 40, "one 4-clique per ring position");
        assert_eq!(split.count, sequential.count);
        assert_eq!(split.cliques, sequential.cliques);
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
