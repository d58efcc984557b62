//! Adapters wrapping every public mining entry point of the suite
//! (`BkVariant::run_cancellable`, `k_clique_count_cancellable`, the
//! VF2/learn/opt functions) in the [`Kernel`] trait. Those functions
//! stay public in their crates; these adapters are how the registry,
//! the session cache, the batch runner, and the benchmark harness
//! reach them.

use super::{
    Category, DeltaSensitivity, Kernel, KernelError, Outcome, ParamSpec, Params, Payload, RunCx,
    StageTimings,
};
use crate::counters::CountingSet;
use gms_core::hash::FxHasher;
use gms_core::{
    CsrGraph, DenseBitSet, Graph, HashVertexSet, NodeId, RoaringSet, SetGraph, SortedVecSet,
};
use gms_graph::{EdgeDelta, GraphView};
use gms_learn::{
    evaluate_accuracy, jarvis_patrick, label_propagation, louvain, num_clusters,
    similarity_batch_csr, JarvisPatrickConfig, SimilarityMeasure,
};
use gms_match::{
    count_embeddings_cancellable, count_embeddings_parallel_cancellable, IsoMode, IsoOptions,
    LabeledGraph, ParallelIsoConfig,
};
use gms_opt::{
    boruvka, forest_weight, greedy_coloring, johansson, jones_plassmann, min_cut, verify_coloring,
    WeightedEdge,
};
use gms_order::{bfs_order, k_core_by_peeling, random_order, OrderingKind};
use gms_pattern::{
    bron_kerbosch_cancellable, k_clique_count_cancellable, k_clique_stars,
    triangle_count_cancellable, triangle_count_node_iterator, triangle_count_touched, BkConfig,
    BkVariant, KcConfig, KcParallel, SubgraphMode,
};
use std::hash::Hasher;
use std::time::Instant;

/// Registers the whole built-in suite.
pub(super) fn register_all(registry: &mut super::Registry) {
    // Pattern mining (§4.1.1): the fully parameterized BK kernel, the
    // five named paper variants, k-cliques, triangles, clique-stars.
    registry.register(Box::new(BkKernel));
    for variant in BkVariant::ALL {
        registry.register(Box::new(BkVariantKernel(variant)));
    }
    registry.register(Box::new(KCliqueKernel));
    registry.register(Box::new(TriangleKernel));
    registry.register(Box::new(CliqueStarKernel));
    // Subgraph matching (§4.1.3).
    registry.register(Box::new(SubgraphIsoKernel));
    registry.register(Box::new(ParallelIsoKernel));
    // Learning (§4.1.2).
    registry.register(Box::new(SimilarityKernel));
    registry.register(Box::new(LinkPredictionKernel));
    registry.register(Box::new(JarvisPatrickKernel));
    registry.register(Box::new(LabelPropagationKernel));
    registry.register(Box::new(LouvainKernel));
    // Optimization (§4.1.4).
    registry.register(Box::new(ColoringKernel));
    registry.register(Box::new(MstKernel));
    registry.register(Box::new(MinCutKernel));
    registry.register(Box::new(KCoreKernel));
    // Reorderings (③) as runnable preprocessing stages.
    for which in OrderWhich::ALL {
        registry.register(Box::new(OrderKernel(which)));
    }
}

// ---------------------------------------------------------------- shared

const ORDERING_CHOICES: &[&str] = &["adg", "natural", "degree", "degeneracy", "triangle"];

fn ordering_specs() -> [ParamSpec; 2] {
    [
        ParamSpec::choice(
            "ordering",
            "adg",
            ORDERING_CHOICES,
            "preprocessing vertex order (③)",
        ),
        ParamSpec::float(
            "eps",
            0.25,
            "epsilon of the (2+ε)-approximate degeneracy order",
        ),
    ]
}

/// The ADG epsilon, rejected unless finite and non-negative —
/// `approx_degeneracy_order` asserts on anything else, and a request
/// must not be able to panic the thread that serves it.
fn adg_order(kernel: &str, params: &Params) -> Result<OrderingKind, KernelError> {
    let eps = params.get_float("eps", 0.25);
    if !eps.is_finite() || eps < 0.0 {
        return Err(KernelError::BadParam {
            kernel: kernel.to_string(),
            param: "eps".to_string(),
            message: format!("eps must be finite and >= 0, got {eps}"),
        });
    }
    Ok(OrderingKind::ApproxDegeneracy(eps))
}

fn ordering_from(kernel: &str, params: &Params) -> Result<OrderingKind, KernelError> {
    Ok(match params.get_str("ordering", "adg") {
        "natural" => OrderingKind::Natural,
        "degree" => OrderingKind::Degree,
        "degeneracy" => OrderingKind::Degeneracy,
        "triangle" => OrderingKind::TriangleCount,
        _ => adg_order(kernel, params)?,
    })
}

fn stage(preprocess: std::time::Duration, kernel: std::time::Duration) -> StageTimings {
    StageTimings {
        convert: std::time::Duration::ZERO,
        preprocess,
        kernel,
    }
}

// ---------------------------------------------------------------- pattern

/// Bron–Kerbosch with every §6.2 design axis as a typed parameter:
/// set layout, vertex order, H-subgraph policy, task depth. The
/// defaults are BK-GMS-ADG-S: dense bitsets over each root's local ids
/// (`subgraph=outermost`), which is the fastest configuration on every
/// graph of the benchmark; `bk-gms-adg` is the same search without `H`.
struct BkKernel;

impl Kernel for BkKernel {
    fn name(&self) -> &'static str {
        "bk"
    }
    fn category(&self) -> Category {
        Category::Pattern
    }
    fn about(&self) -> &'static str {
        "maximal clique listing (Bron-Kerbosch, Algorithm 6), all design axes parameterized"
    }
    fn params(&self) -> Vec<ParamSpec> {
        let [ordering, eps] = ordering_specs();
        vec![
            ParamSpec::choice(
                "layout",
                "dense",
                &["dense", "sorted", "roaring", "hash", "counting"],
                "set layout backing P/X and the neighborhoods (⑤⁺); `counting` \
                 instruments sorted sets through the software counters",
            ),
            ordering,
            eps,
            ParamSpec::choice(
                "subgraph",
                "outermost",
                &["none", "outermost", "per-level"],
                "induced-subgraph policy of §6.2: `outermost` builds H on P ∪ X once per \
                 root over the root's local ids (BK-GMS-ADG-S), `none` runs on \
                 whole-graph sets in original ids (BK-GMS-ADG), `per-level` rebuilds H \
                 at every level (Eppstein's original)",
            ),
            ParamSpec::int("par-depth", 4, "task-spawn depth of the parallel search"),
            ParamSpec::bool("collect", false, "materialize the cliques in the payload"),
        ]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params, cancel) = (cx.csr(), cx.params(), cx.cancel());
        let config = BkConfig {
            ordering: ordering_from(self.name(), params)?,
            subgraph: match params.get_str("subgraph", "outermost") {
                "none" => SubgraphMode::None,
                "per-level" => SubgraphMode::PerLevel,
                _ => SubgraphMode::Outermost,
            },
            collect: params.get_bool("collect", false),
            par_depth: params.get_int("par-depth", 4).max(0) as usize,
        };
        let out = match params.get_str("layout", "dense") {
            "sorted" => bron_kerbosch_cancellable::<SortedVecSet>(graph, &config, cancel),
            "roaring" => bron_kerbosch_cancellable::<RoaringSet>(graph, &config, cancel),
            "hash" => bron_kerbosch_cancellable::<HashVertexSet>(graph, &config, cancel),
            "counting" => {
                bron_kerbosch_cancellable::<CountingSet<SortedVecSet>>(graph, &config, cancel)
            }
            _ => bron_kerbosch_cancellable::<DenseBitSet>(graph, &config, cancel),
        };
        Ok(Outcome::new(self.name(), out.clique_count)
            .with_timings(stage(out.preprocess, out.mine))
            .with_payload(match out.cliques {
                Some(cliques) => Payload::VertexGroups(cliques),
                None => Payload::None,
            }))
    }
}

/// One of the paper's five named BK variants, pinned to its layout and
/// order (Fig. 1 / Fig. 11 presentation names).
struct BkVariantKernel(BkVariant);

impl Kernel for BkVariantKernel {
    fn name(&self) -> &'static str {
        match self.0 {
            BkVariant::Das => "bk-das",
            BkVariant::GmsDeg => "bk-gms-deg",
            BkVariant::GmsDgr => "bk-gms-dgr",
            BkVariant::GmsAdg => "bk-gms-adg",
            BkVariant::GmsAdgS => "bk-gms-adg-s",
        }
    }
    fn category(&self) -> Category {
        Category::Pattern
    }
    fn about(&self) -> &'static str {
        "a named paper variant of Bron-Kerbosch maximal clique listing"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::bool(
            "collect",
            false,
            "materialize the cliques in the payload",
        )]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params, cancel) = (cx.csr(), cx.params(), cx.cancel());
        let out = self
            .0
            .run_cancellable(graph, params.get_bool("collect", false), cancel);
        Ok(Outcome::new(self.name(), out.clique_count)
            .with_timings(stage(out.preprocess, out.mine))
            .with_payload(match out.cliques {
                Some(cliques) => Payload::VertexGroups(cliques),
                None => Payload::None,
            }))
    }
}

/// k-clique counting (Algorithm 7).
struct KCliqueKernel;

impl Kernel for KCliqueKernel {
    fn name(&self) -> &'static str {
        "k-clique"
    }
    fn category(&self) -> Category {
        Category::Pattern
    }
    fn about(&self) -> &'static str {
        "k-clique counting (Algorithm 7) with node- or edge-parallel driver"
    }
    fn params(&self) -> Vec<ParamSpec> {
        let [ordering, eps] = ordering_specs();
        vec![
            ParamSpec::int("k", 4, "clique size to count"),
            ordering,
            eps,
            ParamSpec::choice(
                "parallel",
                "edge",
                &["edge", "node"],
                "parallelization driver (§7.2)",
            ),
        ]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params, cancel) = (cx.csr(), cx.params(), cx.cancel());
        let k = params.get_int("k", 4);
        if k < 1 {
            return Err(KernelError::BadParam {
                kernel: self.name().to_string(),
                param: "k".to_string(),
                message: format!("k must be >= 1, got {k}"),
            });
        }
        let config = KcConfig {
            ordering: ordering_from(self.name(), params)?,
            parallel: match params.get_str("parallel", "edge") {
                "node" => KcParallel::Node,
                _ => KcParallel::Edge,
            },
        };
        let out = k_clique_count_cancellable(graph, k as usize, &config, cancel);
        Ok(Outcome::new(self.name(), out.count).with_timings(stage(out.preprocess, out.mine)))
    }
}

/// Triangle counting in both §6.3 shapes.
struct TriangleKernel;

impl Kernel for TriangleKernel {
    fn name(&self) -> &'static str {
        "triangle-count"
    }
    fn category(&self) -> Category {
        Category::Pattern
    }
    fn about(&self) -> &'static str {
        "triangle counting (rank-merge over the oriented CSR, or the node iterator)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::choice(
            "method",
            "rank-merge",
            &["rank-merge", "node-iterator"],
            "counting strategy",
        )]
    }
    /// One count over one DAG on every resident: the graph is oriented
    /// under the `(degree, id)` order — filtered straight out of raw
    /// arrays, or decoded exactly once, in parallel, out of a
    /// compressed resident — and the forward wedges are counted
    /// against a per-worker bitmap of `N⁺(u)`, with the token probed
    /// once per vertex chunk. The transient cost, freed on return, is
    /// that DAG (one `u32` per edge, half the raw adjacency, plus
    /// `n + 1` offsets; on a compressed resident, first the decode
    /// buffer of one slot per arc); nothing is charged to `convert`
    /// because no CSR is materialized. Both `method` choices produce
    /// the same count, so on a compressed resident the oriented count
    /// serves both; the node iterator runs on raw arrays only.
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let mut timings = StageTimings::default();
        let count = match (cx.view(), cx.params().get_str("method", "rank-merge")) {
            (GraphView::Raw(graph), "node-iterator") => {
                let t = Instant::now();
                let sg: SetGraph<SortedVecSet> = SetGraph::from_csr(graph);
                timings.convert = t.elapsed();
                let t = Instant::now();
                let count = triangle_count_node_iterator(&sg);
                timings.kernel = t.elapsed();
                count
            }
            (view, _) => {
                let t = Instant::now();
                let count = triangle_count_cancellable(view, cx.cancel());
                timings.kernel = t.elapsed();
                count
            }
        };
        Ok(Outcome::new(self.name(), count).with_timings(timings))
    }

    /// Every triangle has three corners, so any triangle a mutation
    /// creates or destroys has a touched corner.
    fn delta_sensitivity(&self) -> DeltaSensitivity {
        DeltaSensitivity::VertexNeighborhood
    }

    /// Touched-wedge recount: subtract the triangles incident to the
    /// touched vertices in the old graph, add those in the new graph
    /// — each counted exactly once at its minimum-id touched corner.
    /// Work scales with the touched neighborhoods, not the graph.
    /// Both `method` choices count the same triangles, so one delta
    /// path serves every cached parameterization.
    fn run_delta(
        &self,
        old: &CsrGraph,
        new: &CsrGraph,
        delta: &EdgeDelta,
        previous: &Outcome,
        _params: &Params,
    ) -> Option<Outcome> {
        let t = Instant::now();
        let stale = triangle_count_touched(old, &delta.touched);
        let fresh = triangle_count_touched(new, &delta.touched);
        let count = (previous.patterns + fresh).checked_sub(stale)?;
        let timings = StageTimings {
            kernel: t.elapsed(),
            ..StageTimings::default()
        };
        Some(Outcome::new(self.name(), count).with_timings(timings))
    }
}

/// k-clique-star listing via (k+1)-cliques (§6.6).
struct CliqueStarKernel;

impl Kernel for CliqueStarKernel {
    fn name(&self) -> &'static str {
        "clique-star"
    }
    fn category(&self) -> Category {
        Category::Pattern
    }
    fn about(&self) -> &'static str {
        "k-clique-star listing via (k+1)-cliques (§6.6)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        let [ordering, eps] = ordering_specs();
        vec![
            ParamSpec::int("k", 3, "size of the clique core"),
            ParamSpec::int("min-satellites", 1, "minimum satellites per reported star"),
            ordering,
            eps,
            ParamSpec::bool(
                "collect",
                false,
                "materialize the star cores in the payload",
            ),
        ]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let k = params.get_int("k", 3).max(2) as usize;
        let min_satellites = params.get_int("min-satellites", 1).max(0) as usize;
        let config = KcConfig {
            ordering: ordering_from(self.name(), params)?,
            parallel: KcParallel::Edge,
        };
        let t = Instant::now();
        let stars = k_clique_stars(graph, k, min_satellites, &config);
        let kernel = t.elapsed();
        let payload = if params.get_bool("collect", false) {
            Payload::VertexGroups(stars.iter().map(|s| s.core.clone()).collect())
        } else {
            Payload::None
        };
        Ok(Outcome::new(self.name(), stars.len() as u64)
            .with_timings(stage(std::time::Duration::ZERO, kernel))
            .with_payload(payload))
    }
}

// ---------------------------------------------------------------- matching

const QUERY_CHOICES: &[&str] = &["triangle", "clique4", "clique5", "path3", "path4", "star4"];

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

fn iso_options(params: &Params) -> IsoOptions {
    let limit = params.get_int("limit", 0);
    IsoOptions {
        mode: match params.get_str("mode", "non-induced") {
            "induced" => IsoMode::Induced,
            _ => IsoMode::NonInduced,
        },
        limit: if limit <= 0 { u64::MAX } else { limit as u64 },
        ..IsoOptions::default()
    }
}

fn iso_specs() -> Vec<ParamSpec> {
    vec![
        ParamSpec::choice(
            "query",
            "triangle",
            QUERY_CHOICES,
            "query pattern matched against the loaded graph",
        ),
        ParamSpec::choice(
            "mode",
            "non-induced",
            &["non-induced", "induced"],
            "matching semantics",
        ),
        ParamSpec::int(
            "limit",
            0,
            "stop after this many embeddings (0 = enumerate all)",
        ),
    ]
}

/// Sequential VF2-style subgraph isomorphism counting a named query
/// pattern in the loaded (unlabeled) graph. The matcher borrows the
/// resident CSR as an unlabeled target — no copy, no label array — and
/// takes each query vertex's candidates from the intersection of its
/// mapped neighbors' neighborhoods (minus those of its mapped
/// non-neighbors under `induced`).
struct SubgraphIsoKernel;

impl Kernel for SubgraphIsoKernel {
    fn name(&self) -> &'static str {
        "subgraph-iso"
    }
    fn category(&self) -> Category {
        Category::Matching
    }
    fn about(&self) -> &'static str {
        "VF2-style embedding counting of a named query pattern (§6.4)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        iso_specs()
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let params = cx.params();
        let query = LabeledGraph::unlabeled(query_graph(params.get_str("query", "triangle")));
        let target = LabeledGraph::view(cx.csr());
        let t = Instant::now();
        let count =
            count_embeddings_cancellable(&query, &target, &iso_options(params), cx.cancel());
        Ok(Outcome::new(self.name(), count)
            .with_timings(stage(std::time::Duration::ZERO, t.elapsed())))
    }
}

/// The parallel VF3-Light-style driver over the same named queries and
/// the same borrowed target. Root chunks run on the caller's pool
/// unless `threads` asks for a pool of its own.
struct ParallelIsoKernel;

impl Kernel for ParallelIsoKernel {
    fn name(&self) -> &'static str {
        "subgraph-iso-par"
    }
    fn category(&self) -> Category {
        Category::Matching
    }
    fn about(&self) -> &'static str {
        "parallel subgraph isomorphism with work splitting/stealing (§6.4)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        let mut specs = iso_specs();
        specs.push(ParamSpec::int(
            "threads",
            0,
            "worker threads (0 = the caller's pool)",
        ));
        specs.push(ParamSpec::bool(
            "stealing",
            true,
            "dynamic work stealing vs. static chunks",
        ));
        specs
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let params = cx.params();
        let query = LabeledGraph::unlabeled(query_graph(params.get_str("query", "triangle")));
        let target = LabeledGraph::view(cx.csr());
        let config = ParallelIsoConfig {
            threads: params.get_int("threads", 0).max(0) as usize,
            work_stealing: params.get_bool("stealing", true),
            options: iso_options(params),
        };
        let t = Instant::now();
        let count = count_embeddings_parallel_cancellable(&query, &target, &config, cx.cancel());
        Ok(Outcome::new(self.name(), count)
            .with_timings(stage(std::time::Duration::ZERO, t.elapsed())))
    }
}

// ---------------------------------------------------------------- learn

const MEASURE_CHOICES: &[&str] = &[
    "jaccard",
    "overlap",
    "adamic-adar",
    "resource-allocation",
    "common-neighbors",
    "total-neighbors",
    "preferential-attachment",
];

fn measure_spec() -> ParamSpec {
    ParamSpec::choice(
        "measure",
        "jaccard",
        MEASURE_CHOICES,
        "vertex-similarity measure (Table 4)",
    )
}

fn measure_from(params: &Params) -> SimilarityMeasure {
    match params.get_str("measure", "jaccard") {
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
struct SimilarityKernel;

impl Kernel for SimilarityKernel {
    fn name(&self) -> &'static str {
        "similarity"
    }
    fn category(&self) -> Category {
        Category::Learn
    }
    fn about(&self) -> &'static str {
        "bulk vertex similarity scored over every edge (§6.5)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![measure_spec()]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let t = Instant::now();
        let pairs: Vec<(NodeId, NodeId)> = graph.edges_undirected().collect();
        let convert = t.elapsed();
        let t = Instant::now();
        let scores = similarity_batch_csr(graph, measure_from(params), &pairs);
        let kernel = t.elapsed();
        let mean = if scores.is_empty() {
            0.0
        } else {
            scores.iter().sum::<f64>() / scores.len() as f64
        };
        Ok(Outcome::new(self.name(), scores.len() as u64)
            .with_timings(StageTimings {
                convert,
                preprocess: std::time::Duration::ZERO,
                kernel,
            })
            .with_payload(Payload::Scalar(mean)))
    }
}

/// The §6.7 link-prediction accuracy protocol.
struct LinkPredictionKernel;

impl Kernel for LinkPredictionKernel {
    fn name(&self) -> &'static str {
        "link-prediction"
    }
    fn category(&self) -> Category {
        Category::Learn
    }
    fn about(&self) -> &'static str {
        "similarity-based link prediction, §6.7 protocol (patterns = recovered edges)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![
            measure_spec(),
            ParamSpec::float("fraction", 0.1, "fraction of edges held out"),
            ParamSpec::int("seed", 7, "hold-out sampling seed"),
        ]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let t = Instant::now();
        let (hits, held_out) = evaluate_accuracy(
            graph,
            measure_from(params),
            params.get_float("fraction", 0.1).clamp(0.0, 0.99),
            params.get_int("seed", 7) as u64,
        );
        let kernel = t.elapsed();
        let accuracy = if held_out == 0 {
            0.0
        } else {
            hits as f64 / held_out as f64
        };
        Ok(Outcome::new(self.name(), hits as u64)
            .with_timings(stage(std::time::Duration::ZERO, kernel))
            .with_payload(Payload::Scalar(accuracy)))
    }
}

/// Jarvis–Patrick overlapping clustering.
struct JarvisPatrickKernel;

impl Kernel for JarvisPatrickKernel {
    fn name(&self) -> &'static str {
        "jarvis-patrick"
    }
    fn category(&self) -> Category {
        Category::Learn
    }
    fn about(&self) -> &'static str {
        "Jarvis-Patrick clustering on a similarity measure (§4.1.2)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("k", 6, "nearest-neighbor list size"),
            ParamSpec::int("min-shared", 2, "shared near-neighbors required to merge"),
            measure_spec(),
        ]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let config = JarvisPatrickConfig {
            k: params.get_int("k", 6).max(1) as usize,
            min_shared: params.get_int("min-shared", 2).max(0) as usize,
            measure: measure_from(params),
        };
        let t = Instant::now();
        let assignment = jarvis_patrick(graph, &config);
        let kernel = t.elapsed();
        Ok(Outcome::new(self.name(), num_clusters(&assignment) as u64)
            .with_timings(stage(std::time::Duration::ZERO, kernel))
            .with_payload(Payload::Assignment(assignment)))
    }
}

/// Label-propagation community detection.
struct LabelPropagationKernel;

impl Kernel for LabelPropagationKernel {
    fn name(&self) -> &'static str {
        "label-propagation"
    }
    fn category(&self) -> Category {
        Category::Learn
    }
    fn about(&self) -> &'static str {
        "label-propagation community detection (patterns = communities)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::int("max-iters", 50, "propagation round limit")]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let t = Instant::now();
        let assignment = label_propagation(graph, params.get_int("max-iters", 50).max(1) as usize);
        let kernel = t.elapsed();
        Ok(Outcome::new(self.name(), num_clusters(&assignment) as u64)
            .with_timings(stage(std::time::Duration::ZERO, kernel))
            .with_payload(Payload::Assignment(assignment)))
    }
}

/// Louvain community detection.
struct LouvainKernel;

impl Kernel for LouvainKernel {
    fn name(&self) -> &'static str {
        "louvain"
    }
    fn category(&self) -> Category {
        Category::Learn
    }
    fn about(&self) -> &'static str {
        "Louvain modularity-maximizing community detection"
    }
    fn params(&self) -> Vec<ParamSpec> {
        Vec::new()
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let graph = cx.csr();
        let t = Instant::now();
        let assignment = louvain(graph);
        let kernel = t.elapsed();
        Ok(Outcome::new(self.name(), num_clusters(&assignment) as u64)
            .with_timings(stage(std::time::Duration::ZERO, kernel))
            .with_payload(Payload::Assignment(assignment)))
    }
}

// ---------------------------------------------------------------- opt

/// Graph coloring in the three §4.1.4 algorithm shapes.
struct ColoringKernel;

impl Kernel for ColoringKernel {
    fn name(&self) -> &'static str {
        "coloring"
    }
    fn category(&self) -> Category {
        Category::Opt
    }
    fn about(&self) -> &'static str {
        "graph coloring: greedy, Jones-Plassmann, or Johansson (patterns = colors used)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        let [ordering, eps] = ordering_specs();
        vec![
            ParamSpec::choice(
                "algo",
                "greedy",
                &["greedy", "jones-plassmann", "johansson"],
                "coloring algorithm",
            ),
            ordering,
            eps,
            ParamSpec::float("palette-factor", 2.0, "Johansson palette size multiplier"),
            ParamSpec::int("seed", 1, "Johansson randomness seed"),
        ]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let t0 = Instant::now();
        let rank = ordering_from(self.name(), params)?.compute(graph);
        let preprocess = t0.elapsed();
        let t = Instant::now();
        let colors = match params.get_str("algo", "greedy") {
            "jones-plassmann" => jones_plassmann(graph, &rank).0,
            "johansson" => {
                johansson(
                    graph,
                    params.get_float("palette-factor", 2.0).max(1.0),
                    params.get_int("seed", 1) as u64,
                )
                .0
            }
            _ => greedy_coloring(graph, &rank),
        };
        let kernel = t.elapsed();
        let used = verify_coloring(graph, &colors).expect("builtin coloring must be proper");
        Ok(Outcome::new(self.name(), used as u64)
            .with_timings(stage(preprocess, kernel))
            .with_payload(Payload::Assignment(colors)))
    }
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
struct MstKernel;

impl Kernel for MstKernel {
    fn name(&self) -> &'static str {
        "mst-boruvka"
    }
    fn category(&self) -> Category {
        Category::Opt
    }
    fn about(&self) -> &'static str {
        "Boruvka minimum spanning forest over seeded edge weights (patterns = forest edges)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::int("seed", 1, "edge-weight seed")]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let seed = params.get_int("seed", 1) as u64;
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
        let t = Instant::now();
        let forest = boruvka(graph.num_vertices(), &edges);
        let kernel = t.elapsed();
        let weight = forest_weight(&edges, &forest);
        Ok(Outcome::new(self.name(), forest.len() as u64)
            .with_timings(StageTimings {
                convert,
                preprocess: std::time::Duration::ZERO,
                kernel,
            })
            .with_payload(Payload::Scalar(weight)))
    }
}

/// Karger–Stein randomized minimum cut.
struct MinCutKernel;

impl Kernel for MinCutKernel {
    fn name(&self) -> &'static str {
        "min-cut"
    }
    fn category(&self) -> Category {
        Category::Opt
    }
    fn about(&self) -> &'static str {
        "Karger-Stein randomized minimum cut (patterns = cut size)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::int("trials", 32, "independent contraction trials"),
            ParamSpec::int("seed", 7, "contraction randomness seed"),
        ]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let t = Instant::now();
        let cut = min_cut(
            graph,
            params.get_int("trials", 32).max(1) as usize,
            params.get_int("seed", 7) as u64,
        );
        let kernel = t.elapsed();
        Ok(Outcome::new(self.name(), cut as u64)
            .with_timings(stage(std::time::Duration::ZERO, kernel)))
    }
}

/// k-core membership by iterative peeling, with a localized re-peel
/// maintaining cached cores across removal-only mutations.
struct KCoreKernel;

impl Kernel for KCoreKernel {
    fn name(&self) -> &'static str {
        "k-core"
    }
    fn category(&self) -> Category {
        Category::Opt
    }
    fn about(&self) -> &'static str {
        "k-core membership via iterative peeling (patterns = core size)"
    }
    fn params(&self) -> Vec<ParamSpec> {
        vec![ParamSpec::int("k", 2, "minimum degree within the core")]
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let k = params.get_int("k", 2).max(0) as u32;
        let t = Instant::now();
        let mut core = k_core_by_peeling(graph, k);
        core.sort_unstable();
        let kernel = t.elapsed();
        Ok(Outcome::new(self.name(), core.len() as u64)
            .with_timings(stage(std::time::Duration::ZERO, kernel))
            .with_payload(Payload::VertexGroups(vec![core])))
    }

    /// Core membership cascades only through the mutated region: a
    /// vertex leaves the core only when its within-core degree drops
    /// below k, and under removal-only deltas that starts at a
    /// touched vertex.
    fn delta_sensitivity(&self) -> DeltaSensitivity {
        DeltaSensitivity::ComponentLocal
    }

    /// Localized re-peel for removal-only deltas. Removing edges can
    /// only shrink the core, so the old core is a superset of the new
    /// one; peeling the old core seeded from the touched vertices —
    /// with within-core degrees computed lazily, only along the
    /// eviction cascade — reproduces exactly what a full peel of the
    /// new graph would. Additions can grow the core through vertices
    /// arbitrarily far from the batch, so they decline to a full
    /// recompute.
    fn run_delta(
        &self,
        _old: &CsrGraph,
        new: &CsrGraph,
        delta: &EdgeDelta,
        previous: &Outcome,
        params: &Params,
    ) -> Option<Outcome> {
        if !delta.added.is_empty() {
            return None;
        }
        let Payload::VertexGroups(groups) = &previous.payload else {
            return None;
        };
        let prev_core = groups.first()?;
        let k = params.get_int("k", 2).max(0) as usize;
        let t = Instant::now();
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
        let kernel = t.elapsed();
        Some(
            Outcome::new(self.name(), core.len() as u64)
                .with_timings(stage(std::time::Duration::ZERO, kernel))
                .with_payload(Payload::VertexGroups(vec![core])),
        )
    }
}

// ---------------------------------------------------------------- order

/// Which reordering an [`OrderKernel`] computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OrderWhich {
    Degree,
    Degeneracy,
    Adg,
    TriangleCount,
    Bfs,
    Random,
}

impl OrderWhich {
    const ALL: [OrderWhich; 6] = [
        OrderWhich::Degree,
        OrderWhich::Degeneracy,
        OrderWhich::Adg,
        OrderWhich::TriangleCount,
        OrderWhich::Bfs,
        OrderWhich::Random,
    ];
}

/// A vertex reordering exposed as a runnable preprocessing stage: the
/// outcome's payload is the computed [`Payload::Rank`], its time is
/// booked under `timings.preprocess` (it *is* stage ③), and the
/// pattern count is the number of ranked vertices.
struct OrderKernel(OrderWhich);

impl Kernel for OrderKernel {
    fn name(&self) -> &'static str {
        match self.0 {
            OrderWhich::Degree => "order-degree",
            OrderWhich::Degeneracy => "order-degeneracy",
            OrderWhich::Adg => "order-adg",
            OrderWhich::TriangleCount => "order-triangle",
            OrderWhich::Bfs => "order-bfs",
            OrderWhich::Random => "order-random",
        }
    }
    fn category(&self) -> Category {
        Category::Order
    }
    fn about(&self) -> &'static str {
        "a vertex reordering (preprocessing stage ③) run standalone"
    }
    fn params(&self) -> Vec<ParamSpec> {
        match self.0 {
            OrderWhich::Adg => vec![ParamSpec::float("eps", 0.25, "approximation epsilon")],
            OrderWhich::Bfs => vec![ParamSpec::int("root", 0, "BFS start vertex")],
            OrderWhich::Random => vec![ParamSpec::int("seed", 1, "shuffle seed")],
            _ => Vec::new(),
        }
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (graph, params) = (cx.csr(), cx.params());
        let n = graph.num_vertices();
        let t = Instant::now();
        let rank = match self.0 {
            OrderWhich::Degree => OrderingKind::Degree.compute(graph),
            OrderWhich::Degeneracy => OrderingKind::Degeneracy.compute(graph),
            OrderWhich::Adg => adg_order(self.name(), params)?.compute(graph),
            OrderWhich::TriangleCount => OrderingKind::TriangleCount.compute(graph),
            OrderWhich::Bfs => {
                let root = params.get_int("root", 0).max(0) as usize % n.max(1);
                bfs_order(graph, root as NodeId)
            }
            OrderWhich::Random => random_order(n, params.get_int("seed", 1) as u64),
        };
        let preprocess = t.elapsed();
        Ok(Outcome::new(self.name(), n as u64)
            .with_timings(stage(preprocess, std::time::Duration::ZERO))
            .with_payload(Payload::Rank(rank.ranks().to_vec())))
    }

    /// `order-random` is a seeded shuffle of `0..n` — a pure function
    /// of the vertex count and seed that edge mutations provably
    /// cannot affect. Every other ordering reads degrees or
    /// adjacency, so any edge change may move it.
    fn delta_sensitivity(&self) -> DeltaSensitivity {
        match self.0 {
            OrderWhich::Random => DeltaSensitivity::VertexCount,
            _ => DeltaSensitivity::Global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::execute;
    use gms_graph::io::{load_snapshot_auto, save_snapshot_compressed};
    use gms_graph::{CompressedCsr, GraphStore};

    #[test]
    fn triangle_count_is_one_answer_on_every_resident_width_and_method() {
        let graph = gms_gen::kronecker_default(10, 12, 7);
        let expected = gms_order::triangle_count(&graph);
        let gap = CompressedCsr::from_csr(&graph);
        let reordered = CompressedCsr::from_csr_ordered(&graph, &bfs_order(&graph, 0));
        let path =
            std::env::temp_dir().join(format!("gms_builtin_tri_{}.gcsr", std::process::id()));
        save_snapshot_compressed(&gap, &path).unwrap();
        let loaded = load_snapshot_auto(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let GraphStore::Compressed(mapped) = loaded else {
            panic!("a v2 snapshot stays compressed");
        };
        let residents = [
            ("raw", GraphView::Raw(&graph)),
            ("gap", GraphView::Compressed(&gap)),
            ("gap+reorder", GraphView::Compressed(&reordered)),
            ("mmap v2", GraphView::Compressed(&mapped)),
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
                        .install(|| execute(&TriangleKernel, &RunCx::new(view, &params)))
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
