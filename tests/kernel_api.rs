//! Integration suite for the unified kernel API (tier 1).
//!
//! The contract under test: **every** public mining kernel is
//! runnable by string name through the [`Registry`] with typed
//! [`Params`], produces a non-trivial [`Outcome`] on a seeded
//! planted-clique graph at default parameters, and a second
//! identical request is a cache hit — same result, no kernel time.
//! Because the suite *enumerates* the registry, a newly registered
//! kernel is covered automatically (and fails fast if it returns
//! trivial outcomes).

use gms::platform::kernel::{execute, next_owner, CancelToken, Engine, GraphView, Resident};
use gms::prelude::*;
use std::sync::Arc;

/// A seeded planted-clique graph with a Hamiltonian ring stitched
/// through it, so it is connected (min-cut must find a real cut and
/// every component-based kernel sees one structure).
fn planted_connected() -> CsrGraph {
    let n = 160usize;
    let (g, _) = gms::gen::planted_cliques(n, 0.02, 3, 8, 11);
    let mut edges: Vec<(NodeId, NodeId)> = g.edges_undirected().collect();
    for v in 0..n as NodeId {
        edges.push((v, (v + 1) % n as NodeId));
    }
    CsrGraph::from_undirected_edges(n, &edges)
}

#[test]
fn every_registered_kernel_runs_and_caches() {
    let mut session = Session::new();
    let g = session.add_graph(planted_connected());
    let names: Vec<&'static str> = session.registry().names();
    assert!(names.len() >= 20, "expected the full built-in suite");

    for name in names {
        let first = session
            .run(name, g, &Params::new())
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(!first.cached, "{name}: first request must not be cached");
        assert!(
            first.patterns > 0,
            "{name}: trivial outcome (0 patterns) on the planted graph"
        );

        // The identical request again: a hit with the same mined
        // result and ~zero kernel time (nothing ran).
        let second = session.run(name, g, &Params::new()).unwrap();
        assert!(second.cached, "{name}: second request must hit the cache");
        assert!(
            second.same_result(&first),
            "{name}: cache returned a different result"
        );
        assert_eq!(
            second.timings.total(),
            std::time::Duration::ZERO,
            "{name}: cache hit reported kernel time"
        );
    }

    let stats = session.stats();
    assert_eq!(stats.hits, stats.misses, "one hit per miss");
}

#[test]
fn registry_results_match_legacy_entry_points() {
    let graph = planted_connected();
    let registry = Registry::with_builtins();

    // Maximal cliques: named variant vs. the legacy BkVariant call.
    let via_registry = registry.run("bk-gms-adg", &graph, &Params::new()).unwrap();
    let legacy = BkVariant::GmsAdg.run(&graph);
    assert_eq!(via_registry.patterns, legacy.clique_count);

    // k-cliques: typed params vs. the legacy config struct.
    let via_registry = registry
        .run("k-clique", &graph, &Params::new().with("k", 5))
        .unwrap();
    let legacy = k_clique_count(&graph, 5, &KcConfig::default());
    assert_eq!(via_registry.patterns, legacy.count);

    // Triangles: the registry's default method vs. the direct call.
    let via_registry = registry
        .run("triangle-count", &graph, &Params::new())
        .unwrap();
    let legacy = gms::pattern::triangle_count_rank_merge(&graph);
    assert_eq!(via_registry.patterns, legacy);
}

#[test]
fn categories_partition_the_suite() {
    let registry = Registry::with_builtins();
    let mut total = 0;
    for category in Category::ALL {
        let kernels = registry.by_category(category);
        assert!(!kernels.is_empty(), "{category:?} has no kernels");
        total += kernels.len();
    }
    assert_eq!(total, registry.len(), "every kernel has one category");
}

#[test]
fn bad_requests_fail_with_typed_errors() {
    let mut session = Session::new();
    let g = session.add_graph(planted_connected());
    assert!(matches!(
        session.run("bron-kerbosch-typo", g, &Params::new()),
        Err(KernelError::UnknownKernel(_))
    ));
    assert!(matches!(
        session.run("bk", g, &Params::new().with("layoutt", "dense")),
        Err(KernelError::UnknownParam { .. })
    ));
    assert!(matches!(
        session.run("bk", g, &Params::new().with("layout", "cuckoo")),
        Err(KernelError::BadParam { .. })
    ));

    // Regression: a negative (or non-finite) ADG epsilon used to
    // reach `approx_degeneracy_order`'s assert and panic the calling
    // thread — a serve worker, for a request off the wire. Every
    // kernel that reads `eps` must answer with a typed error.
    let registry = Registry::with_builtins();
    let graph = planted_connected();
    for kernel in ["bk", "k-clique", "clique-star", "coloring", "order-adg"] {
        for eps in [-1.0, f64::NAN, f64::INFINITY] {
            let result = registry.run(kernel, &graph, &Params::new().with("eps", eps));
            assert!(
                matches!(&result, Err(KernelError::BadParam { param, .. }) if param == "eps"),
                "{kernel} with eps={eps}: {result:?}"
            );
        }
    }
    // The bound lives in the schema and `Params::validate` enforces
    // it, so it holds whichever order is asked for.
    let unread = Params::new().with("ordering", "degree").with("eps", -1.0);
    let result = registry.run("k-clique", &graph, &unread);
    assert!(
        matches!(&result, Err(KernelError::BadParam { param, .. }) if param == "eps"),
        "{result:?}"
    );
}

#[test]
fn reloading_the_same_dataset_reuses_cached_results() {
    // Serialize a graph as a SNAP-style edge list, load it twice
    // through the streaming loader: the CSR fingerprint makes the
    // second handle hit the first handle's cached outcomes.
    let graph = planted_connected();
    let mut text = Vec::new();
    gms::graph::io::write_edge_list(&graph, &mut text).unwrap();
    let text = GraphSource::Text(std::str::from_utf8(&text).unwrap());

    let mut session = Session::new();
    let a = session.load(GraphFormat::EdgeList, text).unwrap();
    let b = session.load(GraphFormat::EdgeList, text).unwrap();
    assert_ne!(a, b, "distinct handles");

    let miss = session.run("triangle-count", a, &Params::new()).unwrap();
    let hit = session.run("triangle-count", b, &Params::new()).unwrap();
    assert!(!miss.cached);
    assert!(hit.cached, "same content must share cache lines");
    assert!(hit.same_result(&miss));
}

#[test]
fn kernel_results_are_format_independent() {
    // The same graph written as a SNAP edge list, a METIS file, and a
    // .gcsr binary snapshot, then loaded back through each format's
    // Session entry point: every registry kernel must produce an
    // identical Outcome, and — because all three loads fingerprint
    // identically — only the first format actually runs a kernel; the
    // others are cache hits.
    let graph = planted_connected();
    let dir = std::env::temp_dir().join(format!("gms_kernel_api_io_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut session = Session::new();
    let seed = session.add_graph(graph.clone());
    session.save_snapshot(seed, dir.join("g.gcsr")).unwrap();
    let mut edge_list = Vec::new();
    gms::graph::io::write_edge_list(&graph, &mut edge_list).unwrap();
    std::fs::write(dir.join("g.el"), &edge_list).unwrap();
    let mut metis = Vec::new();
    gms::graph::io::write_metis(&graph, &mut metis).unwrap();
    std::fs::write(dir.join("g.metis"), &metis).unwrap();

    let mut load = |format, file: &str| {
        session
            .load(format, GraphSource::Path(&dir.join(file)))
            .unwrap()
    };
    let from_text = load(GraphFormat::EdgeList, "g.el");
    let from_metis = load(GraphFormat::Metis, "g.metis");
    let from_snapshot = load(GraphFormat::Gcsr, "g.gcsr");

    let fp = session.graph_fingerprint(seed).unwrap();
    for (name, handle) in [
        ("edge list", from_text),
        ("METIS", from_metis),
        ("snapshot", from_snapshot),
    ] {
        assert_eq!(
            session.graph_fingerprint(handle).unwrap(),
            fp,
            "{name}: loaded CSR fingerprint differs"
        );
    }

    for kernel in ["triangle-count", "k-clique", "bk-gms-adg"] {
        let baseline = session.run(kernel, from_text, &Params::new()).unwrap();
        assert!(!baseline.cached, "{kernel}: fresh session state expected");
        for (name, handle) in [("METIS", from_metis), ("snapshot", from_snapshot)] {
            let other = session.run(kernel, handle, &Params::new()).unwrap();
            assert!(
                other.cached,
                "{kernel} via {name}: same content must be a cache hit"
            );
            assert!(
                other.same_result(&baseline),
                "{kernel} via {name}: outcome differs across formats"
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn compressed_backend_shares_cache_lines_with_the_raw_csr() {
    // The same content resident two ways — raw CSR arrays and the
    // gap+varint compressed backend loaded from a v2 .gcsr snapshot —
    // must fingerprint identically, so a kernel computed on one
    // representation is a cache hit on the other. This is the
    // cross-format guarantee of `kernel_results_are_format_independent`
    // extended across *representations*, not just file formats.
    let graph = planted_connected();
    let dir = std::env::temp_dir().join(format!("gms_kernel_api_gcsr2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut session = Session::new();
    let raw = session.add_graph(graph.clone());
    session
        .save_snapshot_with(raw, dir.join("g2.gcsr"), SnapshotCompression::Gap)
        .unwrap();
    let compressed = session
        .load(GraphFormat::Gcsr, GraphSource::Path(&dir.join("g2.gcsr")))
        .unwrap();

    // The v2 snapshot stays compressed in the session...
    let store = session.store(compressed).unwrap();
    assert!(
        matches!(store, GraphStore::Compressed(_)),
        "v2 snapshot should load into the compressed backend"
    );
    assert!(store.resident_bytes() > 0);
    // ...and gap encoding (no reordering) preserves the fingerprint.
    assert_eq!(
        session.graph_fingerprint(compressed).unwrap(),
        session.graph_fingerprint(raw).unwrap(),
        "compression must not change the content fingerprint"
    );

    for kernel in ["triangle-count", "k-clique", "bk-gms-adg"] {
        let miss = session.run(kernel, raw, &Params::new()).unwrap();
        assert!(!miss.cached, "{kernel}: fresh session state expected");
        let hit = session.run(kernel, compressed, &Params::new()).unwrap();
        assert!(
            hit.cached,
            "{kernel}: compressed backend must reuse the raw run's cache line"
        );
        assert!(hit.same_result(&miss));
    }

    // And the other direction: a kernel computed *on* the compressed
    // backend serves a later raw-handle request.
    let params = Params::new().with("k", 3);
    let miss = session.run("k-clique", compressed, &params).unwrap();
    assert!(!miss.cached);
    let hit = session.run("k-clique", raw, &params).unwrap();
    assert!(hit.cached, "raw handle must hit the compressed run's line");
    assert!(hit.same_result(&miss));

    std::fs::remove_dir_all(dir).ok();
}

/// Calls [`RunCx::csr`] twice and reports whether both calls handed
/// out the same arrays — on a compressed resident, the one decode the
/// run shares. With `fire` it also trips the request's token before
/// returning, the way a cancellable hot loop bails out mid-search.
struct ProbeKernel;

impl Kernel for ProbeKernel {
    fn name(&self) -> &'static str {
        "probe"
    }
    fn category(&self) -> Category {
        Category::Pattern
    }
    fn about(&self) -> &'static str {
        "RunCx contract probe"
    }
    fn params(&self) -> &'static [ParamSpec] {
        const FIRE: &[ParamSpec] = &[ParamSpec::bool("fire", false, "cancel the token mid-run")];
        FIRE
    }
    fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        let (first, second) = (cx.csr(), cx.csr());
        if cx.params().get_bool("fire", false) {
            cx.cancel().cancel();
        }
        Ok(Outcome::new("probe", std::ptr::eq(first, second) as u64))
    }
}

/// The graph resident three ways: raw, gap, and gap after a BFS
/// relabeling (an isomorph under different vertex ids).
fn three_residents() -> (CsrGraph, CompressedCsr, CompressedCsr) {
    let graph = planted_connected();
    let gap = CompressedCsr::from_csr(&graph);
    let rank = gms::order::bfs_order(&graph, 0);
    let reordered = CompressedCsr::from_csr_ordered(&graph, &rank);
    (graph, gap, reordered)
}

#[test]
fn one_entry_point_gives_one_answer_on_every_representation() {
    let (graph, gap, reordered) = three_residents();
    let relabeled = reordered.to_csr();
    let params = Params::new();
    let registry = Registry::with_builtins();
    for kernel in registry.iter() {
        let name = kernel.name();
        let run = |view| {
            execute(kernel, &RunCx::new(view, &params, kernel.params()))
                .unwrap_or_else(|e| panic!("{name} failed: {e}"))
        };
        let raw = run(GraphView::Raw(&graph));
        let on_gap = run(GraphView::Compressed(&gap));
        assert!(on_gap.same_result(&raw), "{name}: gap != raw");

        // The relabeled resident answers exactly like the raw arrays
        // of the same relabeled graph, and — pattern and embedding
        // counts being isomorphism invariants — counts what the
        // original counts.
        let on_reordered = run(GraphView::Compressed(&reordered));
        assert!(
            on_reordered.same_result(&run(GraphView::Raw(&relabeled))),
            "{name}: gap+reorder != raw arrays of the same relabeled graph"
        );
        if matches!(kernel.category(), Category::Pattern | Category::Matching) {
            assert_eq!(on_reordered.patterns, raw.patterns, "{name}: gap+reorder");
        }

        // Every kernel pays one whole-graph decode on a compressed
        // resident, booked under `convert` — except the decode-native
        // one, which never materializes a CSR.
        for (scheme, outcome) in [("gap", &on_gap), ("gap+reorder", &on_reordered)] {
            let convert = outcome.timings.convert;
            if name == "triangle-count" {
                assert!(convert.is_zero(), "{name} on {scheme}: decode-native");
            } else {
                assert!(!convert.is_zero(), "{name} on {scheme}: decode not booked");
            }
        }
    }
}

#[test]
fn every_triangle_is_six_triangle_embeddings_on_every_representation() {
    // Two kernels that share no code: the matcher's set-algebra search
    // and the oriented triangle count. A triangle has 3! automorphisms.
    let (graph, gap, reordered) = three_residents();
    let params = Params::new();
    let registry = Registry::with_builtins();
    let run = |name: &str, view| {
        let kernel = registry.get(name).expect("built-in kernel");
        execute(kernel, &RunCx::new(view, &params, kernel.params()))
            .unwrap()
            .patterns
    };
    for (resident, view) in [
        ("raw", GraphView::Raw(&graph)),
        ("gap", GraphView::Compressed(&gap)),
        ("gap+reorder", GraphView::Compressed(&reordered)),
    ] {
        let triangles = run("triangle-count", view);
        assert!(triangles > 0, "{resident}: the planted graph has triangles");
        for iso in ["subgraph-iso", "subgraph-iso-par"] {
            assert_eq!(run(iso, view), 6 * triangles, "{iso} on {resident}");
        }
    }
}

#[test]
fn a_compressed_resident_is_decoded_once_per_run() {
    let (graph, gap, _) = three_residents();
    let params = Params::new();
    for view in [GraphView::Raw(&graph), GraphView::Compressed(&gap)] {
        let outcome = execute(
            &ProbeKernel,
            &RunCx::new(view, &params, ProbeKernel.params()),
        )
        .unwrap();
        assert_eq!(outcome.patterns, 1, "two csr() calls, one set of arrays");
        assert_eq!(
            outcome.timings.convert.is_zero(),
            matches!(view, GraphView::Raw(_)),
            "only the compressed view has a decode to book"
        );
    }
}

#[test]
fn a_fired_token_is_an_error_for_every_kernel_and_nothing_is_cached() {
    let (graph, gap, reordered) = three_residents();
    let fired = CancelToken::manual();
    fired.cancel();
    let params = Params::new();

    // Straight through the entry point, on both views.
    let registry = Registry::with_builtins();
    for kernel in registry.iter() {
        for view in [GraphView::Raw(&graph), GraphView::Compressed(&gap)] {
            let cx = RunCx::new(view, &params, kernel.params()).with_cancel(&fired);
            assert_eq!(
                execute(kernel, &cx).unwrap_err(),
                KernelError::DeadlineExceeded,
                "{}",
                kernel.name()
            );
        }
    }

    // Through the cached path — `Engine::key` + `Engine::run`, the
    // serve worker's own — on the session's cache. The raw and the
    // relabeled resident have different fingerprints, so neither run
    // is a duplicate of the other.
    let mut session = Session::new();
    session.registry_mut().register(Box::new(ProbeKernel));
    let mut registry = Registry::with_builtins();
    registry.register(Box::new(ProbeKernel));
    let engine = Engine {
        registry,
        cache: session.shared_cache(),
    };
    let residents = [
        Resident::new(GraphStore::Csr(graph.clone())),
        Resident::new(GraphStore::Compressed(reordered.clone())),
    ];
    for name in engine.registry.names() {
        for resident in &residents {
            let keyed = engine.key(resident, name, &params).unwrap();
            assert_eq!(
                engine.run(&keyed, &fired, next_owner()).unwrap_err(),
                KernelError::DeadlineExceeded,
                "{name}"
            );
        }
    }
    assert_eq!(session.cached_outcomes(), 0, "failures are never cached");
    let handles = [session.add_graph(graph), session.add_compressed(reordered)];

    // A token that fires *during* the run: the kernel returns an
    // outcome, the entry point discards it.
    let live = CancelToken::manual();
    let firing = Params::new().with("fire", true);
    let cx =
        RunCx::new(GraphView::Compressed(&gap), &firing, ProbeKernel.params()).with_cancel(&live);
    assert_eq!(
        execute(&ProbeKernel, &cx).unwrap_err(),
        KernelError::DeadlineExceeded
    );
    // Without `fire` the same kernel is served and cached as usual.
    let served = session.run("probe", handles[1], &Params::new()).unwrap();
    assert_eq!(served.patterns, 1);
    assert_eq!(session.cached_outcomes(), 1);
}

/// Runs `name` on the raw graph through [`Registry::run`] and on its gap
/// resident through the same validate-then-execute path.
fn run_raw_and_gap(
    registry: &Registry,
    name: &str,
    (graph, gap): (&CsrGraph, &CompressedCsr),
    params: &Params,
) -> [Result<Outcome, KernelError>; 2] {
    let kernel = registry.get(name).expect("built-in kernel");
    let on_gap = params.validate(name, kernel.params()).and_then(|()| {
        let cx = RunCx::new(GraphView::Compressed(gap), params, kernel.params());
        execute(kernel, &cx)
    });
    [registry.run(name, graph, params), on_gap]
}

#[test]
fn every_kernel_answers_every_parameter_corner_with_a_value_or_a_typed_error() {
    let registry = Registry::with_builtins();
    let graph = planted_connected();
    let gap = CompressedCsr::from_csr(&graph);
    let residents = (&graph, &gap);
    let choices = |kernel: &str, param: &str| {
        registry
            .get(kernel)
            .expect("built-in kernel")
            .params()
            .iter()
            .find(|spec| spec.name == param)
            .expect("declared parameter")
            .choices
    };
    let answers = |name: &str, params: &Params| {
        run_raw_and_gap(&registry, name, residents, params).map(|result| {
            result
                .unwrap_or_else(|e| panic!("{name} {params:?}: {e}"))
                .patterns
        })
    };

    // `bk`: every layout × subgraph policy × order, at the task depths
    // that disable, barely use and never exhaust subtree parallelism.
    let cliques = BkVariant::GmsAdg.run(&graph).clique_count;
    for &layout in choices("bk", "layout") {
        for &subgraph in choices("bk", "subgraph") {
            for &ordering in choices("bk", "ordering") {
                for depth in [0, 1, i64::MAX] {
                    let params = Params::new()
                        .with("layout", layout)
                        .with("subgraph", subgraph)
                        .with("ordering", ordering)
                        .with("par-depth", depth);
                    assert_eq!(answers("bk", &params), [cliques; 2], "bk {params:?}");
                }
            }
        }
    }
    // A negative task depth is refused, not run as 0.
    for result in run_raw_and_gap(
        &registry,
        "bk",
        residents,
        &Params::new().with("par-depth", -1),
    ) {
        assert!(
            matches!(&result, Err(KernelError::BadParam { param, .. }) if param == "par-depth"),
            "par-depth = -1: {result:?}"
        );
    }
    for variant in [
        "bk-das",
        "bk-gms-deg",
        "bk-gms-dgr",
        "bk-gms-adg",
        "bk-gms-adg-s",
    ] {
        for collect in [false, true] {
            let params = Params::new().with("collect", collect);
            assert_eq!(
                answers(variant, &params),
                [cliques; 2],
                "{variant} {params:?}"
            );
        }
    }

    // `k-clique`: the size corners. A `k` above every forward degree
    // plus one — here the degeneracy plus two under the exact order —
    // answers 0.
    let triangles = gms::pattern::triangle_count_rank_merge(&graph);
    let degeneracy = gms::order::degeneracy_order(&graph).degeneracy as i64;
    for &parallel in choices("k-clique", "parallel") {
        for (k, expected) in [
            (1, graph.num_vertices() as u64),
            (2, graph.num_edges_undirected() as u64),
            (3, triangles),
            (degeneracy + 2, 0),
            (i64::MAX, 0),
        ] {
            let params = Params::new()
                .with("k", k)
                .with("parallel", parallel)
                .with("ordering", "degeneracy");
            assert_eq!(answers("k-clique", &params), [expected; 2], "{params:?}");
        }
        for k in [-1, 0] {
            let params = Params::new().with("k", k).with("parallel", parallel);
            for result in run_raw_and_gap(&registry, "k-clique", residents, &params) {
                assert!(
                    matches!(&result, Err(KernelError::BadParam { param, .. }) if param == "k"),
                    "k = {k}: {result:?}"
                );
            }
        }
    }
    for eps in [f64::NAN, f64::NEG_INFINITY] {
        let params = Params::new().with("eps", eps);
        for result in run_raw_and_gap(&registry, "k-clique", residents, &params) {
            assert!(
                matches!(&result, Err(KernelError::BadParam { param, .. }) if param == "eps"),
                "eps = {eps}: {result:?}"
            );
        }
    }

    // Every parameter of every registered kernel, at every corner a
    // request can spell: the schema's own verdict (`ParamSpec::check`)
    // decides between a `BadParam` naming that parameter and a run,
    // and a run ends as an answer or as `DeadlineExceeded` — never as
    // a panic or a hang. Each case runs in its own thread under a
    // deadline, watched by a far longer timeout.
    let corners = [
        Value::Int(-1),
        Value::Int(0),
        Value::Int(1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(1 << 32),
        Value::Int(1 << 40),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(1e300),
        Value::from(""),
        Value::from("no-such-choice"),
    ];
    let (graph, gap) = (Arc::new(graph.clone()), Arc::new(gap));
    let mut cases = 0;
    for kernel in registry.iter() {
        let name = kernel.name();
        for spec in kernel.params() {
            assert_eq!(spec.check(&spec.default), Ok(()), "{name}: {spec:?}");
            let wrong_kind = match spec.kind {
                ValueKind::Int | ValueKind::Float => Value::from("four"),
                ValueKind::Bool => Value::Int(1),
                ValueKind::Str => Value::Bool(true),
            };
            for value in corners.iter().cloned().chain([wrong_kind]) {
                let refused = spec.check(&value).is_err();
                let params = Params::new().with(spec.name, value);
                for compressed in [false, true] {
                    let result = run_watched(name, &graph, &gap, compressed, &params);
                    let ok = match &result {
                        Err(KernelError::BadParam { param, .. }) => refused && param == spec.name,
                        Ok(_) | Err(KernelError::DeadlineExceeded) => !refused,
                        _ => false,
                    };
                    assert!(ok, "{name} {params:?} (gap: {compressed}): {result:?}");
                    cases += 1;
                }
            }
        }
    }
    assert!(cases > 1000, "{cases} cases");
}

/// Validates and runs `name` on the raw graph or its gap resident in
/// a thread of its own under a one-second deadline, and gives the
/// result — failing the test if the thread panics or is still running
/// after a minute.
fn run_watched(
    name: &'static str,
    graph: &Arc<CsrGraph>,
    gap: &Arc<CompressedCsr>,
    compressed: bool,
    params: &Params,
) -> Result<Outcome, KernelError> {
    let (graph, gap, owned) = (Arc::clone(graph), Arc::clone(gap), params.clone());
    let (done, result) = std::sync::mpsc::channel();
    let case = std::thread::spawn(move || {
        let registry = Registry::with_builtins();
        let kernel = registry.get(name).expect("built-in kernel");
        let view = if compressed {
            GraphView::Compressed(&gap)
        } else {
            GraphView::Raw(&graph)
        };
        let deadline = CancelToken::after(std::time::Duration::from_secs(1));
        let run = owned.validate(name, kernel.params()).and_then(|()| {
            execute(
                kernel,
                &RunCx::new(view, &owned, kernel.params()).with_cancel(&deadline),
            )
        });
        let _ = done.send(run);
    });
    let result = result.recv_timeout(std::time::Duration::from_secs(60));
    let what = format!("{name} {params:?} (gap: {compressed})");
    assert!(
        !matches!(result, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
        "{what}: still running after 60 s"
    );
    case.join()
        .unwrap_or_else(|_| panic!("{what}: the kernel panicked"));
    result.expect("a case that ended sent its result")
}

/// `k-core` read `k` as `u32` in a full run and as `usize` in its
/// incremental refresh, so `k = 2^32` ran as `k = 0` (every vertex in
/// the core) and the two paths could disagree. The schema bounds `k`
/// to `u32`: beyond it is a `BadParam`, and at its edge a run and a
/// mutate-then-refresh both equal a rebuild.
#[test]
fn k_core_refuses_a_k_beyond_u32_and_refreshes_like_a_rebuild_at_its_edge() {
    let graph = gms::gen::gnp(60, 0.15, 3);
    let registry = Registry::with_builtins();
    for k in [1i64 << 32, (1 << 32) + 2] {
        let result = registry.run("k-core", &graph, &Params::new().with("k", k));
        assert!(
            matches!(&result, Err(KernelError::BadParam { param, .. }) if param == "k"),
            "k = {k}: {result:?}"
        );
    }

    let edges: Vec<(NodeId, NodeId)> = graph.edges_undirected().collect();
    let (removed, kept) = edges.split_at(edges.len() / 4);
    let mutated = CsrGraph::from_undirected_edges(graph.num_vertices(), kept);
    for k in [2, i64::from(u32::MAX)] {
        let params = Params::new().with("k", k);
        let mut session = Session::new();
        let g = session.add_graph(graph.clone());
        let run = session.run("k-core", g, &params).unwrap();
        assert!(run.same_result(&registry.run("k-core", &graph, &params).unwrap()));
        let mutation = session.remove_edges(g, removed).unwrap();
        assert_eq!(mutation.cache.refreshed, 1, "k = {k}");
        let refreshed = session.run("k-core", g, &params).unwrap();
        assert!(refreshed.cached, "k = {k}: served from the refreshed entry");
        let rebuilt = registry.run("k-core", &mutated, &params).unwrap();
        assert!(refreshed.same_result(&rebuilt), "k = {k}");
    }
}

/// Kernels that once ran for seconds whatever the deadline, each on a
/// graph that shows it:
/// - `min-cut` had no probe: its default 32 trials on a
///   few-thousand-vertex graph ran for minutes. The probe sits before
///   each trial, at each recursion node and at each contraction.
/// - `clique-star` listed every (k+1)-clique unprobed before
///   regrouping them: 3.6 s on `kron(13)` at the default `k` = 3 in
///   release. Its recursion now probes at every root and node; `k` = 4
///   keeps its full run near a second even in release, well past the
///   deadline.
/// - `similarity`, `jarvis-patrick` and `link-prediction` scored every
///   pair unprobed. In the test profile on 2 vCPUs their full runs
///   took 5.7 s (`similarity`, `kron(16)`), 10.0 s (`jarvis-patrick`,
///   `kron(16)`) and 6.1 s (`link-prediction`, `kron(13)`). They now
///   probe once per stride of scored pairs, a hub's included, and the
///   link-prediction wedge walk once per vertex.
#[test]
fn a_deadline_stops_slow_kernels_within_two_seconds() {
    let kron = |scale| gms::gen::kronecker_default(scale, 8, 101);
    let cases = [
        ("min-cut", gms::gen::gnp(3000, 0.004, 3), Params::new()),
        ("clique-star", kron(13), Params::new().with("k", 4)),
        ("similarity", kron(16), Params::new()),
        ("jarvis-patrick", kron(16), Params::new()),
        ("link-prediction", kron(13), Params::new()),
    ];
    for (name, graph, params) in cases {
        let (done, result) = std::sync::mpsc::channel();
        let case = std::thread::spawn(move || {
            let registry = Registry::with_builtins();
            let kernel = registry.get(name).expect("built-in kernel");
            let deadline = CancelToken::after(std::time::Duration::from_millis(200));
            let cx =
                RunCx::new(GraphView::Raw(&graph), &params, kernel.params()).with_cancel(&deadline);
            let _ = done.send(execute(kernel, &cx));
        });
        let result = result
            .recv_timeout(std::time::Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{name} still running 2 s into a 200 ms deadline"));
        case.join().expect("the kernel thread ended");
        assert_eq!(result.unwrap_err(), KernelError::DeadlineExceeded, "{name}");
    }
}
