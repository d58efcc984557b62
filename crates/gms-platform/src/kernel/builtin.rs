//! The built-in suite as one table: every public mining entry point
//! of the suite (`BkVariant::run_cancellable`,
//! `k_clique_count_cancellable`, the VF2/learn/opt functions) is one
//! [`Builtin`] row — a name, a category, a constant parameter schema
//! and the function that runs it. The schema is the only place a
//! default or a bound is written: requests are checked against it by
//! [`Params::validate`](super::Params::validate), and the functions
//! read resolved values through [`RunCx`]'s accessors. The entry
//! points stay public in their crates; these rows are how the
//! registry, the session cache and the benchmark harness reach
//! them.

use super::{
    Category, DeltaSensitivity, Kernel, KernelError, Outcome, ParamSpec, Params, Payload, RunCx,
    StageTimings,
};
use crate::counters::CountingSet;
use gms_core::hash::FxHasher;
use gms_core::{
    CsrGraph, DenseBitSet, Graph, HashVertexSet, NodeId, RoaringSet, SetGraph, SortedVecSet,
};
use gms_graph::{EdgeDelta, GraphView, Rank};
use gms_learn::{
    evaluate_accuracy, jarvis_patrick, label_propagation, louvain_cancellable, num_clusters,
    similarity_batch, JarvisPatrickConfig, SimilarityMeasure,
};
use gms_match::{
    count_embeddings_cancellable, count_embeddings_parallel_cancellable, IsoMode, IsoOptions,
    LabeledGraph, ParallelIsoConfig,
};
use gms_opt::{
    boruvka_cancellable, forest_weight, greedy_coloring, johansson, jones_plassmann,
    min_cut_cancellable, verify_coloring, WeightedEdge,
};
use gms_order::{bfs_order, k_core_by_peeling, random_order, OrderingKind};
use gms_pattern::{
    bron_kerbosch_cancellable, k_clique_count_cancellable, k_clique_stars,
    triangle_count_cancellable, triangle_count_node_iterator, triangle_count_touched, BkConfig,
    BkOutcome, BkVariant, KcConfig, KcParallel, SubgraphMode,
};
use std::hash::Hasher;
use std::time::{Duration, Instant};
use Category::{Learn, Matching, Opt, Order, Pattern};

/// What a row's run function mined: the pattern count, the per-stage
/// timings and the payload.
type Mined = (u64, StageTimings, Payload);

/// An incremental refresh: the context over the post-mutation graph,
/// the pre-mutation graph, the delta and the cached outcome in; the
/// pattern count and payload out, or `None` to decline.
type RunDelta = fn(&RunCx<'_>, &CsrGraph, &EdgeDelta, &Outcome) -> Option<(u64, Payload)>;

/// One kernel of the built-in suite: its schema and its functions.
#[derive(Clone, Copy)]
struct Builtin {
    name: &'static str,
    category: Category,
    about: &'static str,
    params: &'static [ParamSpec],
    run: fn(&RunCx<'_>) -> Mined,
    delta: DeltaSensitivity,
    run_delta: Option<RunDelta>,
}

/// A row whose cached results any mutation invalidates.
const fn row(
    name: &'static str,
    category: Category,
    about: &'static str,
    params: &'static [ParamSpec],
    run: fn(&RunCx<'_>) -> Mined,
) -> Builtin {
    Builtin {
        name,
        category,
        about,
        params,
        run,
        delta: DeltaSensitivity::Global,
        run_delta: None,
    }
}

impl Builtin {
    /// Declares how the result depends on edge mutations, and the
    /// incremental refresh when one exists.
    const fn delta(self, delta: DeltaSensitivity, run_delta: Option<RunDelta>) -> Self {
        Self {
            delta,
            run_delta,
            ..self
        }
    }
}

impl Kernel for Builtin {
    fn name(&self) -> &'static str {
        self.name
    }
    fn category(&self) -> Category {
        self.category
    }
    fn about(&self) -> &'static str {
        self.about
    }
    fn params(&self) -> &'static [ParamSpec] {
        self.params
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (patterns, timings, payload) = (self.run)(cx);
        Ok(Outcome::new(self.name, patterns)
            .with_timings(timings)
            .with_payload(payload))
    }
    fn delta_sensitivity(&self) -> DeltaSensitivity {
        self.delta
    }
    fn run_delta(
        &self,
        old: &CsrGraph,
        new: &CsrGraph,
        delta: &EdgeDelta,
        previous: &Outcome,
        params: &Params,
    ) -> Option<Outcome> {
        let (run_delta, cx) = (
            self.run_delta?,
            RunCx::new(GraphView::Raw(new), params, self.params),
        );
        let (refreshed, timings) = timed(|| run_delta(&cx, old, delta, previous));
        let (patterns, payload) = refreshed?;
        Some(
            Outcome::new(self.name, patterns)
                .with_timings(timings)
                .with_payload(payload),
        )
    }
}

/// Registers the whole built-in suite.
pub(super) fn register_all(registry: &mut super::Registry) {
    for builtin in BUILTINS {
        registry.register(Box::new(*builtin));
    }
}

const NAMED_BK: &str = "a named paper variant of Bron-Kerbosch maximal clique listing";
const REORDERING: &str = "a vertex reordering (preprocessing stage ③) run standalone";

/// The suite, in registration order.
const BUILTINS: &[Builtin] = &[
    // Pattern mining (§4.1.1): the fully parameterized BK kernel, the
    // five named paper variants, k-cliques, triangles, clique-stars.
    row(
        "bk",
        Pattern,
        "maximal clique listing (Bron-Kerbosch, Algorithm 6), all design axes parameterized",
        BK,
        bk,
    ),
    row("bk-das", Pattern, NAMED_BK, ONLY_COLLECT, |cx| {
        bk_named(cx, BkVariant::Das)
    }),
    row("bk-gms-deg", Pattern, NAMED_BK, ONLY_COLLECT, |cx| {
        bk_named(cx, BkVariant::GmsDeg)
    }),
    row("bk-gms-dgr", Pattern, NAMED_BK, ONLY_COLLECT, |cx| {
        bk_named(cx, BkVariant::GmsDgr)
    }),
    row("bk-gms-adg", Pattern, NAMED_BK, ONLY_COLLECT, |cx| {
        bk_named(cx, BkVariant::GmsAdg)
    }),
    row("bk-gms-adg-s", Pattern, NAMED_BK, ONLY_COLLECT, |cx| {
        bk_named(cx, BkVariant::GmsAdgS)
    }),
    row(
        "k-clique",
        Pattern,
        "k-clique counting (Algorithm 7) with node- or edge-parallel driver",
        K_CLIQUE,
        k_clique,
    ),
    row(
        "triangle-count",
        Pattern,
        "triangle counting (rank-merge over the oriented CSR, or the node iterator)",
        TRIANGLE,
        triangles,
    )
    .delta(DeltaSensitivity::VertexNeighborhood, Some(triangles_delta)),
    row(
        "clique-star",
        Pattern,
        "k-clique-star listing: each k-clique core with the vertices adjacent to all of it (§6.6)",
        CLIQUE_STAR,
        clique_stars,
    ),
    // Subgraph matching (§4.1.3).
    row(
        "subgraph-iso",
        Matching,
        "VF2-style embedding counting of a named query pattern (§6.4)",
        ISO,
        subgraph_iso,
    ),
    row(
        "subgraph-iso-par",
        Matching,
        "parallel subgraph isomorphism with work splitting/stealing (§6.4)",
        ISO_PAR,
        subgraph_iso_par,
    ),
    // Learning (§4.1.2).
    row(
        "similarity",
        Learn,
        "bulk vertex similarity scored over every edge (§6.5)",
        SIMILARITY,
        similarity,
    ),
    row(
        "link-prediction",
        Learn,
        "similarity-based link prediction, §6.7 protocol (patterns = recovered edges)",
        LINK_PREDICTION,
        link_prediction,
    ),
    row(
        "jarvis-patrick",
        Learn,
        "Jarvis-Patrick clustering on a similarity measure (§4.1.2)",
        JARVIS_PATRICK,
        |cx| {
            let config = JarvisPatrickConfig {
                k: cx.int("k") as usize,
                min_shared: cx.int("min-shared") as usize,
                measure: measure(cx),
            };
            clusters(cx, |graph| jarvis_patrick(graph, &config, cx.cancel()))
        },
    ),
    row(
        "label-propagation",
        Learn,
        "label-propagation community detection (patterns = communities)",
        LABEL_PROPAGATION,
        |cx| {
            clusters(cx, |graph| {
                label_propagation(graph, cx.int("max-iters") as usize)
            })
        },
    ),
    row(
        "louvain",
        Learn,
        "Louvain modularity-maximizing community detection",
        &[],
        |cx| clusters(cx, |graph| louvain_cancellable(graph, cx.cancel())),
    ),
    // Optimization (§4.1.4).
    row(
        "coloring",
        Opt,
        "graph coloring: greedy, Jones-Plassmann, or Johansson (patterns = colors used)",
        COLORING,
        coloring,
    ),
    row(
        "mst-boruvka",
        Opt,
        "Boruvka minimum spanning forest over seeded edge weights (patterns = forest edges)",
        SEED_1,
        mst,
    ),
    row(
        "min-cut",
        Opt,
        "Karger-Stein randomized minimum cut (patterns = cut size)",
        MIN_CUT,
        |cx| {
            let (trials, seed) = (cx.int("trials") as usize, cx.int("seed") as u64);
            let graph = cx.csr();
            let (cut, timings) = timed(|| min_cut_cancellable(graph, trials, seed, cx.cancel()));
            (cut as u64, timings, Payload::None)
        },
    ),
    row(
        "k-core",
        Opt,
        "k-core membership via iterative peeling (patterns = core size)",
        K_CORE,
        k_core,
    )
    .delta(DeltaSensitivity::ComponentLocal, Some(k_core_delta)),
    // Reorderings (③) as runnable preprocessing stages.
    row("order-degree", Order, REORDERING, &[], |cx| {
        order(cx, |graph| OrderingKind::Degree.compute(graph))
    }),
    row("order-degeneracy", Order, REORDERING, &[], |cx| {
        order(cx, |graph| OrderingKind::Degeneracy.compute(graph))
    }),
    row("order-adg", Order, REORDERING, ORDER_ADG, |cx| {
        order(cx, |graph| adg(cx).compute(graph))
    }),
    row("order-triangle", Order, REORDERING, &[], |cx| {
        order(cx, |graph| OrderingKind::TriangleCount.compute(graph))
    }),
    // The root is the one parameter only the graph can bound: it
    // wraps around the vertex count.
    row("order-bfs", Order, REORDERING, ORDER_BFS, |cx| {
        order(cx, |graph| {
            let root = cx.int("root") as u64 % graph.num_vertices().max(1) as u64;
            bfs_order(graph, root as NodeId)
        })
    }),
    // A seeded shuffle of `0..n` is a pure function of the vertex
    // count and seed that edge mutations provably cannot affect.
    row("order-random", Order, REORDERING, SEED_1, |cx| {
        order(cx, |graph| {
            random_order(graph.num_vertices(), cx.int("seed") as u64)
        })
    })
    .delta(DeltaSensitivity::VertexCount, None),
];

// ---------------------------------------------------------------- schemas

/// The upper bound of an integer parameter that has none.
const NO_UPPER: i64 = i64::MAX;

const ORDERING: ParamSpec = ParamSpec::choice(
    "ordering",
    "adg",
    &["adg", "natural", "degree", "degeneracy", "triangle"],
    "preprocessing vertex order (③)",
);
const EPS: ParamSpec = ParamSpec::float_in(
    "eps",
    0.25,
    0.0..=f64::MAX,
    "epsilon of the (2+ε)-approximate degeneracy order",
);
const COLLECT: ParamSpec =
    ParamSpec::bool("collect", false, "materialize the cliques in the payload");
const ONLY_COLLECT: &[ParamSpec] = &[COLLECT];
const BK: &[ParamSpec] = &[
    ParamSpec::choice(
        "layout",
        "dense",
        &["dense", "sorted", "roaring", "hash", "counting"],
        "set layout backing P/X and the neighborhoods (⑤⁺); `counting` \
         instruments sorted sets through the software counters",
    ),
    ORDERING,
    EPS,
    ParamSpec::choice(
        "subgraph",
        "outermost",
        &["none", "outermost", "per-level"],
        "induced-subgraph policy of §6.2: `outermost` builds H on P ∪ X once per \
         root over the root's local ids (BK-GMS-ADG-S), `none` runs on \
         whole-graph sets in original ids (BK-GMS-ADG), `per-level` rebuilds H \
         at every level (Eppstein's original)",
    ),
    ParamSpec::int_in(
        "par-depth",
        4,
        0..=NO_UPPER,
        "deepest search level whose remaining branches may be handed to an idle \
         worker (0 = root ranges only)",
    ),
    COLLECT,
];
const K_CLIQUE: &[ParamSpec] = &[
    ParamSpec::int_in("k", 4, 1..=NO_UPPER, "clique size to count"),
    ORDERING,
    EPS,
    ParamSpec::choice(
        "parallel",
        "edge",
        &["edge", "node"],
        "parallelization driver (§7.2)",
    ),
];
const TRIANGLE: &[ParamSpec] = &[ParamSpec::choice(
    "method",
    "rank-merge",
    &["rank-merge", "node-iterator"],
    "counting strategy",
)];
const CLIQUE_STAR: &[ParamSpec] = &[
    ParamSpec::int_in("k", 3, 2..=NO_UPPER, "size of the clique core"),
    ParamSpec::int_in(
        "min-satellites",
        1,
        0..=NO_UPPER,
        "minimum satellites per reported star",
    ),
    ORDERING,
    EPS,
    ParamSpec::bool(
        "collect",
        false,
        "materialize the star cores in the payload",
    ),
];
const QUERY: ParamSpec = ParamSpec::choice(
    "query",
    "triangle",
    &["triangle", "clique4", "clique5", "path3", "path4", "star4"],
    "query pattern matched against the loaded graph",
);
const MODE: ParamSpec = ParamSpec::choice(
    "mode",
    "non-induced",
    &["non-induced", "induced"],
    "matching semantics",
);
const LIMIT: ParamSpec = ParamSpec::int_in(
    "limit",
    0,
    0..=NO_UPPER,
    "stop after this many embeddings (0 = enumerate all)",
);
const ISO: &[ParamSpec] = &[QUERY, MODE, LIMIT];
/// No parameter picks a pool width: the run splits over the caller's
/// pool, as every kernel does.
const ISO_PAR: &[ParamSpec] = &[
    QUERY,
    MODE,
    LIMIT,
    ParamSpec::bool("stealing", true, "dynamic work stealing vs. static chunks"),
];
const MEASURE: ParamSpec = ParamSpec::choice(
    "measure",
    "jaccard",
    &[
        "jaccard",
        "overlap",
        "adamic-adar",
        "resource-allocation",
        "common-neighbors",
        "total-neighbors",
        "preferential-attachment",
    ],
    "vertex-similarity measure (Table 4)",
);
const SIMILARITY: &[ParamSpec] = &[MEASURE];
const LINK_PREDICTION: &[ParamSpec] = &[
    MEASURE,
    ParamSpec::float_in("fraction", 0.1, 0.0..=0.99, "fraction of edges held out"),
    ParamSpec::int("seed", 7, "hold-out sampling seed"),
];
const JARVIS_PATRICK: &[ParamSpec] = &[
    ParamSpec::int_in("k", 6, 1..=NO_UPPER, "nearest-neighbor list size"),
    ParamSpec::int_in(
        "min-shared",
        2,
        0..=NO_UPPER,
        "shared near-neighbors required to merge",
    ),
    MEASURE,
];
const LABEL_PROPAGATION: &[ParamSpec] = &[ParamSpec::int_in(
    "max-iters",
    50,
    1..=NO_UPPER,
    "propagation round limit",
)];
const COLORING: &[ParamSpec] = &[
    ParamSpec::choice(
        "algo",
        "greedy",
        &["greedy", "jones-plassmann", "johansson"],
        "coloring algorithm",
    ),
    ORDERING,
    EPS,
    ParamSpec::float_in(
        "palette-factor",
        2.0,
        1.0..=f64::MAX,
        "Johansson palette size multiplier",
    ),
    ParamSpec::int("seed", 1, "Johansson randomness seed"),
];
const SEED_1: &[ParamSpec] = &[ParamSpec::int("seed", 1, "randomness seed")];
/// Every trial repeats the whole contraction, so the count is capped.
const MIN_CUT: &[ParamSpec] = &[
    ParamSpec::int_in("trials", 32, 1..=1024, "independent contraction trials"),
    ParamSpec::int("seed", 7, "contraction randomness seed"),
];
/// The peeling compares degrees against a `u32` k.
const K_CORE: &[ParamSpec] = &[ParamSpec::int_in(
    "k",
    2,
    0..=u32::MAX as i64,
    "minimum degree within the core",
)];
const ORDER_ADG: &[ParamSpec] = &[EPS];
const ORDER_BFS: &[ParamSpec] = &[ParamSpec::int_in(
    "root",
    0,
    0..=NO_UPPER,
    "BFS start vertex",
)];

// ---------------------------------------------------------------- shared

/// Runs `mine` and books its wall time as kernel time.
fn timed<T>(mine: impl FnOnce() -> T) -> (T, StageTimings) {
    let t = Instant::now();
    let out = mine();
    (out, stage(Duration::ZERO, t.elapsed()))
}

fn stage(preprocess: Duration, kernel: Duration) -> StageTimings {
    StageTimings {
        convert: Duration::ZERO,
        preprocess,
        kernel,
    }
}

fn adg(cx: &RunCx<'_>) -> OrderingKind {
    OrderingKind::ApproxDegeneracy(cx.float("eps"))
}

fn ordering(cx: &RunCx<'_>) -> OrderingKind {
    match cx.str("ordering") {
        "natural" => OrderingKind::Natural,
        "degree" => OrderingKind::Degree,
        "degeneracy" => OrderingKind::Degeneracy,
        "triangle" => OrderingKind::TriangleCount,
        _ => adg(cx),
    }
}

// ---------------------------------------------------------------- pattern

fn cliques(out: BkOutcome) -> Mined {
    let payload = out.cliques.map_or(Payload::None, Payload::VertexGroups);
    (out.clique_count, stage(out.preprocess, out.mine), payload)
}

/// Bron–Kerbosch with every §6.2 design axis as a typed parameter:
/// set layout, vertex order, H-subgraph policy, task depth. The
/// defaults are BK-GMS-ADG-S: dense bitsets over each root's local ids
/// (`subgraph=outermost`), which is the fastest configuration on every
/// graph of the benchmark; `bk-gms-adg` is the same search without `H`.
fn bk(cx: &RunCx<'_>) -> Mined {
    let (graph, cancel) = (cx.csr(), cx.cancel());
    let config = BkConfig {
        ordering: ordering(cx),
        subgraph: match cx.str("subgraph") {
            "none" => SubgraphMode::None,
            "per-level" => SubgraphMode::PerLevel,
            _ => SubgraphMode::Outermost,
        },
        collect: cx.bool("collect"),
        par_depth: cx.int("par-depth") as usize,
    };
    cliques(match cx.str("layout") {
        "sorted" => bron_kerbosch_cancellable::<SortedVecSet>(graph, &config, cancel),
        "roaring" => bron_kerbosch_cancellable::<RoaringSet>(graph, &config, cancel),
        "hash" => bron_kerbosch_cancellable::<HashVertexSet>(graph, &config, cancel),
        "counting" => {
            bron_kerbosch_cancellable::<CountingSet<SortedVecSet>>(graph, &config, cancel)
        }
        _ => bron_kerbosch_cancellable::<DenseBitSet>(graph, &config, cancel),
    })
}

/// One of the paper's five named BK variants, pinned to its layout and
/// order (Fig. 1 / Fig. 11 presentation names).
fn bk_named(cx: &RunCx<'_>, variant: BkVariant) -> Mined {
    cliques(variant.run_cancellable(cx.csr(), cx.bool("collect"), cx.cancel()))
}

/// k-clique counting (Algorithm 7).
fn k_clique(cx: &RunCx<'_>) -> Mined {
    let config = KcConfig {
        ordering: ordering(cx),
        parallel: match cx.str("parallel") {
            "node" => KcParallel::Node,
            _ => KcParallel::Edge,
        },
    };
    let out = k_clique_count_cancellable(cx.csr(), cx.int("k") as usize, &config, cx.cancel());
    (out.count, stage(out.preprocess, out.mine), Payload::None)
}

/// Triangle counting in both §6.3 shapes, one count over one DAG on
/// every resident: the graph is oriented under the `(degree, id)`
/// order — filtered straight out of raw arrays, or decoded exactly
/// once, in parallel, out of a compressed resident — and the forward
/// wedges are counted against a per-worker bitmap of `N⁺(u)`, with the
/// token probed once per vertex chunk. The transient cost, freed on
/// return, is that DAG (one `u32` per edge, half the raw adjacency,
/// plus `n + 1` offsets; on a compressed resident, first the decode
/// buffer of one slot per arc); nothing is charged to `convert`
/// because no CSR is materialized. Both `method` choices produce the
/// same count, so on a compressed resident the oriented count serves
/// both; the node iterator runs on raw arrays only.
fn triangles(cx: &RunCx<'_>) -> Mined {
    let (count, timings) = match (cx.view(), cx.str("method")) {
        (GraphView::Raw(graph), "node-iterator") => {
            let t = Instant::now();
            let sg: SetGraph<SortedVecSet> = SetGraph::from_csr(graph);
            let convert = t.elapsed();
            let (count, timings) = timed(|| triangle_count_node_iterator(&sg));
            (count, StageTimings { convert, ..timings })
        }
        (view, _) => timed(|| triangle_count_cancellable(view, cx.cancel())),
    };
    (count, timings, Payload::None)
}

/// Every triangle has three corners, so any triangle a mutation
/// creates or destroys has a touched corner: subtract the triangles
/// incident to the touched vertices in the old graph, add those in the
/// new graph — each counted exactly once at its minimum-id touched
/// corner. Work scales with the touched neighborhoods, not the graph.
/// Both `method` choices count the same triangles, so one delta path
/// serves every cached parameterization.
fn triangles_delta(
    cx: &RunCx<'_>,
    old: &CsrGraph,
    delta: &EdgeDelta,
    previous: &Outcome,
) -> Option<(u64, Payload)> {
    let stale = triangle_count_touched(old, &delta.touched);
    let fresh = triangle_count_touched(cx.csr(), &delta.touched);
    Some((
        (previous.patterns + fresh).checked_sub(stale)?,
        Payload::None,
    ))
}

/// k-clique-star listing (§6.6): every k-clique core with the
/// vertices adjacent to all of it, streamed over one walked recursion.
fn clique_stars(cx: &RunCx<'_>) -> Mined {
    let (k, min) = (cx.int("k") as usize, cx.int("min-satellites") as usize);
    let (ordering, collect) = (ordering(cx), cx.bool("collect"));
    let (out, timings) = timed(|| k_clique_stars(cx.csr(), k, min, ordering, collect, cx.cancel()));
    let payload = if collect {
        Payload::VertexGroups(out.stars.into_iter().map(|s| s.core).collect())
    } else {
        Payload::None
    };
    (out.count, timings, payload)
}

// ---------------------------------------------------------------- matching

fn query_graph(name: &str) -> CsrGraph {
    match name {
        "clique4" => gms_gen::complete(4),
        "clique5" => gms_gen::complete(5),
        "path3" => CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]),
        "path4" => CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]),
        "star4" => CsrGraph::from_undirected_edges(4, &[(0, 1), (0, 2), (0, 3)]),
        _ => gms_gen::complete(3),
    }
}

fn iso_options(cx: &RunCx<'_>) -> IsoOptions {
    IsoOptions {
        mode: match cx.str("mode") {
            "induced" => IsoMode::Induced,
            _ => IsoMode::NonInduced,
        },
        limit: match cx.int("limit") {
            0 => u64::MAX,
            limit => limit as u64,
        },
        ..IsoOptions::default()
    }
}

/// Sequential VF2-style subgraph isomorphism counting a named query
/// pattern in the loaded (unlabeled) graph. The matcher borrows the
/// resident CSR as an unlabeled target — no copy, no label array — and
/// takes each query vertex's candidates from the intersection of its
/// mapped neighbors' neighborhoods (minus those of its mapped
/// non-neighbors under `induced`).
fn subgraph_iso(cx: &RunCx<'_>) -> Mined {
    let query = LabeledGraph::unlabeled(query_graph(cx.str("query")));
    let target = LabeledGraph::view(cx.csr());
    let options = iso_options(cx);
    let (count, timings) =
        timed(|| count_embeddings_cancellable(&query, &target, &options, cx.cancel()));
    (count, timings, Payload::None)
}

/// The parallel VF3-Light-style driver over the same named queries and
/// the same borrowed target, on the caller's pool.
fn subgraph_iso_par(cx: &RunCx<'_>) -> Mined {
    let query = LabeledGraph::unlabeled(query_graph(cx.str("query")));
    let target = LabeledGraph::view(cx.csr());
    let config = ParallelIsoConfig {
        work_stealing: cx.bool("stealing"),
        options: iso_options(cx),
    };
    let (count, timings) =
        timed(|| count_embeddings_parallel_cancellable(&query, &target, &config, cx.cancel()));
    (count, timings, Payload::None)
}

// ---------------------------------------------------------------- learn

fn measure(cx: &RunCx<'_>) -> SimilarityMeasure {
    match cx.str("measure") {
        "overlap" => SimilarityMeasure::Overlap,
        "adamic-adar" => SimilarityMeasure::AdamicAdar,
        "resource-allocation" => SimilarityMeasure::ResourceAllocation,
        "common-neighbors" => SimilarityMeasure::CommonNeighbors,
        "total-neighbors" => SimilarityMeasure::TotalNeighbors,
        "preferential-attachment" => SimilarityMeasure::PreferentialAttachment,
        _ => SimilarityMeasure::Jaccard,
    }
}

/// Bulk vertex similarity over every edge of the graph.
fn similarity(cx: &RunCx<'_>) -> Mined {
    let graph = cx.csr();
    let t = Instant::now();
    let pairs: Vec<(NodeId, NodeId)> = graph.edges_undirected().collect();
    let convert = t.elapsed();
    let (scores, timings) = timed(|| similarity_batch(graph, measure(cx), &pairs, cx.cancel()));
    let mean = if scores.is_empty() {
        0.0
    } else {
        scores.iter().sum::<f64>() / scores.len() as f64
    };
    let timings = StageTimings { convert, ..timings };
    (scores.len() as u64, timings, Payload::Scalar(mean))
}

/// The §6.7 link-prediction accuracy protocol.
fn link_prediction(cx: &RunCx<'_>) -> Mined {
    let graph = cx.csr();
    let (fraction, seed) = (cx.float("fraction"), cx.int("seed") as u64);
    let ((hits, held_out), timings) =
        timed(|| evaluate_accuracy(graph, measure(cx), fraction, seed, cx.cancel()));
    let accuracy = if held_out == 0 {
        0.0
    } else {
        hits as f64 / held_out as f64
    };
    (hits as u64, timings, Payload::Scalar(accuracy))
}

/// A clustering or community detection: patterns = clusters.
fn clusters(cx: &RunCx<'_>, detect: impl FnOnce(&CsrGraph) -> Vec<u32>) -> Mined {
    let graph = cx.csr();
    let (assignment, timings) = timed(|| detect(graph));
    let count = num_clusters(&assignment) as u64;
    (count, timings, Payload::Assignment(assignment))
}

// ---------------------------------------------------------------- opt

/// Graph coloring in the three §4.1.4 algorithm shapes.
fn coloring(cx: &RunCx<'_>) -> Mined {
    let graph = cx.csr();
    let t = Instant::now();
    let rank = ordering(cx).compute(graph);
    let preprocess = t.elapsed();
    let (colors, timings) = timed(|| match cx.str("algo") {
        "jones-plassmann" => jones_plassmann(graph, &rank).0,
        "johansson" => johansson(graph, cx.float("palette-factor"), cx.int("seed") as u64).0,
        _ => greedy_coloring(graph, &rank),
    });
    let used = verify_coloring(graph, &colors).expect("builtin coloring must be proper");
    let timings = StageTimings {
        preprocess,
        ..timings
    };
    (used as u64, timings, Payload::Assignment(colors))
}

/// Deterministic pseudo-random edge weight in [0, 1).
fn edge_weight(u: NodeId, v: NodeId, seed: u64) -> f64 {
    let mut h = FxHasher::default();
    h.write_u64(seed);
    h.write_u32(u.min(v));
    h.write_u32(u.max(v));
    (h.finish() >> 11) as f64 / (1u64 << 53) as f64
}

/// Borůvka minimum spanning forest over seeded pseudo-random weights.
fn mst(cx: &RunCx<'_>) -> Mined {
    let (graph, seed) = (cx.csr(), cx.int("seed") as u64);
    let t = Instant::now();
    let edges: Vec<WeightedEdge> = graph
        .edges_undirected()
        .map(|(u, v)| WeightedEdge {
            u,
            v,
            weight: edge_weight(u, v, seed),
        })
        .collect();
    let convert = t.elapsed();
    let (forest, timings) =
        timed(|| boruvka_cancellable(graph.num_vertices(), &edges, cx.cancel()));
    let weight = forest_weight(&edges, &forest);
    let timings = StageTimings { convert, ..timings };
    (forest.len() as u64, timings, Payload::Scalar(weight))
}

/// k-core membership by iterative peeling, decode-native: the peel
/// sweeps the resident as it is held and, on a compressed one, decodes
/// only the neighborhoods of the vertices it removes — nothing is
/// charged to `convert` because no CSR is materialized.
fn k_core(cx: &RunCx<'_>) -> Mined {
    let k = cx.int("k") as u32;
    let (core, timings) = timed(|| k_core_by_peeling(cx.view(), k));
    (
        core.len() as u64,
        timings,
        Payload::VertexGroups(vec![core]),
    )
}

/// Localized re-peel for removal-only deltas. Core membership
/// cascades only through the mutated region: a vertex leaves the core
/// only when its within-core degree drops below k, and under
/// removal-only deltas that starts at a touched vertex. Removing edges
/// can only shrink the core, so the old core is a superset of the new
/// one; peeling the old core seeded from the touched vertices — with
/// within-core degrees computed lazily, only along the eviction
/// cascade — reproduces exactly what a full peel of the new graph
/// would. Additions can grow the core through vertices arbitrarily far
/// from the batch, so they decline to a full recompute.
fn k_core_delta(
    cx: &RunCx<'_>,
    _old: &CsrGraph,
    delta: &EdgeDelta,
    previous: &Outcome,
) -> Option<(u64, Payload)> {
    if !delta.added.is_empty() {
        return None;
    }
    let Payload::VertexGroups(groups) = &previous.payload else {
        return None;
    };
    let prev_core = groups.first()?;
    let (new, k) = (cx.csr(), cx.int("k") as usize);
    let n = new.num_vertices();
    let mut in_core = vec![false; n];
    for &v in prev_core {
        in_core[v as usize] = true;
    }
    // usize::MAX marks a within-core degree not yet computed; it
    // is filled in lazily the first time the cascade reaches the
    // vertex, then kept current by decrements.
    const UNKNOWN: usize = usize::MAX;
    let mut deg = vec![UNKNOWN; n];
    let within_core =
        |v: NodeId, in_core: &[bool]| new.neighbors(v).filter(|&u| in_core[u as usize]).count();
    let mut evict: Vec<NodeId> = Vec::new();
    for &v in &delta.touched {
        if in_core[v as usize] && deg[v as usize] == UNKNOWN {
            let d = within_core(v, &in_core);
            deg[v as usize] = d;
            if d < k {
                evict.push(v);
            }
        }
    }
    while let Some(v) = evict.pop() {
        if !in_core[v as usize] {
            continue;
        }
        in_core[v as usize] = false;
        for u in new.neighbors(v) {
            let ui = u as usize;
            if !in_core[ui] {
                continue;
            }
            if deg[ui] == UNKNOWN {
                // Computed against the post-eviction membership,
                // so v is already excluded.
                deg[ui] = within_core(u, &in_core);
            } else {
                deg[ui] -= 1;
            }
            if deg[ui] < k {
                evict.push(u);
            }
        }
    }
    let core: Vec<NodeId> = prev_core
        .iter()
        .copied()
        .filter(|&v| in_core[v as usize])
        .collect();
    Some((core.len() as u64, Payload::VertexGroups(vec![core])))
}

// ---------------------------------------------------------------- order

/// A vertex reordering exposed as a runnable preprocessing stage: the
/// outcome's payload is the computed [`Payload::Rank`], its time is
/// booked under `timings.preprocess` (it *is* stage ③), and the
/// pattern count is the number of ranked vertices.
fn order(cx: &RunCx<'_>, compute: impl FnOnce(&CsrGraph) -> Rank) -> Mined {
    let graph = cx.csr();
    let t = Instant::now();
    let rank = compute(graph);
    let timings = stage(t.elapsed(), Duration::ZERO);
    let count = graph.num_vertices() as u64;
    (count, timings, Payload::Rank(rank.ranks().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::execute;
    use gms_graph::io::{load_snapshot, save_snapshot_compressed};
    use gms_graph::{CompressedCsr, GraphStore};

    #[test]
    fn every_builtin_is_one_answer_at_every_pool_width() {
        // Planted cliques on a ring: connected, so min-cut and the
        // component kernels see one structure, and with enough roots
        // for the parallel drivers to split work.
        let n = 80;
        let (planted, _) = gms_gen::planted_cliques(n, 0.06, 3, 8, 11);
        let mut edges: Vec<(NodeId, NodeId)> = planted.edges_undirected().collect();
        edges.extend((0..n as NodeId).map(|v| (v, (v + 1) % n as NodeId)));
        let graph = CsrGraph::from_undirected_edges(n, &edges);
        let params = Params::new();
        let answers = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            BUILTINS
                .iter()
                .map(|kernel| {
                    let cx = RunCx::new(GraphView::Raw(&graph), &params, kernel.params);
                    pool.install(|| execute(kernel, &cx))
                        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name))
                })
                .collect::<Vec<_>>()
        };
        let sequential = answers(1);
        for threads in [2, 4] {
            for (want, got) in sequential.iter().zip(answers(threads)) {
                assert!(
                    got.same_result(want),
                    "{} at {threads} threads",
                    want.kernel
                );
            }
        }
    }

    #[test]
    fn triangle_count_is_one_answer_on_every_resident_width_and_method() {
        let graph = gms_gen::kronecker_default(10, 12, 7);
        let expected = gms_order::triangle_count(&graph);
        let gap = CompressedCsr::from_csr(&graph);
        let reordered = CompressedCsr::from_csr_ordered(&graph, &bfs_order(&graph, 0));
        let path =
            std::env::temp_dir().join(format!("gms_builtin_tri_{}.gcsr", std::process::id()));
        save_snapshot_compressed(&gap, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let GraphStore::Compressed(from_file) = loaded else {
            panic!("a v2 snapshot stays compressed");
        };
        let kernel = BUILTINS
            .iter()
            .find(|b| b.name == "triangle-count")
            .unwrap();
        let residents = [
            ("raw", GraphView::Raw(&graph)),
            ("gap", GraphView::Compressed(&gap)),
            ("gap+reorder", GraphView::Compressed(&reordered)),
            ("gcsr v2", GraphView::Compressed(&from_file)),
        ];
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for method in ["rank-merge", "node-iterator"] {
                let params = Params::new().with("method", method);
                for (resident, view) in residents {
                    let outcome = pool
                        .install(|| execute(kernel, &RunCx::new(view, &params, TRIANGLE)))
                        .unwrap();
                    assert_eq!(
                        outcome.patterns, expected,
                        "{resident}, {threads} threads, {method}"
                    );
                }
            }
        }
    }
}
