//! Dynamic graphs: batched edge mutations held against from-scratch
//! rebuilds. The central device is a **mutate-vs-rebuild oracle**: a
//! deterministic pseudo-random mutation sequence is applied twice —
//! once through [`Session::mutate_edges`] (CSR patching plus
//! delta-aware cache migration), once by mirroring the edge set in a
//! `BTreeSet` and rebuilding a CSR from scratch — and the two must
//! agree on fingerprints and on every kernel answer, across dozens
//! of generated graphs. On top of the oracle: a provable-survival
//! check (a mutation a kernel's declared [`DeltaSensitivity`] cannot
//! affect keeps its cache entry), and the replace-mid-batch stress
//! that pins the epoch guard (a kernel finishing *after* its
//! graph's content was invalidated must not resurrect the entry).
//!
//! [`DeltaSensitivity`]: gms::platform::kernel::DeltaSensitivity

use gms::prelude::*;
use std::collections::BTreeSet;

/// A canonical undirected edge, `u <= v`.
type Edge = (NodeId, NodeId);
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Deterministic pseudo-random stream (splitmix64) — the tests carry
/// their own generator so mutation sequences are reproducible.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Canonical undirected pair.
fn canon(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

/// The mirror the session is checked against: a plain edge set plus
/// a from-scratch CSR rebuild of it.
fn rebuild(n: usize, edges: &BTreeSet<(NodeId, NodeId)>) -> CsrGraph {
    let list: Vec<(NodeId, NodeId)> = edges.iter().copied().collect();
    CsrGraph::from_undirected_edges(n, &list)
}

/// 24 structurally varied graphs: sparse/denser ER, planted cliques,
/// grids (which have cut vertices and no triangles).
fn generated_graphs() -> Vec<CsrGraph> {
    let mut graphs = Vec::new();
    for i in 0..10 {
        graphs.push(gms::gen::gnp(
            60 + 15 * i,
            0.05 + 0.01 * (i % 3) as f64,
            100 + i as u64,
        ));
    }
    for i in 0..10 {
        graphs.push(gms::gen::planted_cliques(70 + 10 * i, 0.04, 2, 5, 200 + i as u64).0);
    }
    for i in 0..4 {
        graphs.push(gms::gen::grid(4 + i, 5 + i));
    }
    graphs
}

/// One pseudo-random batch against the current edge set: up to 5
/// removals sampled from the live edges, up to 5 additions sampled
/// from all pairs (rounds alternate removal-only / add-only / mixed,
/// so both the k-core localized re-peel and its full-recompute
/// fallback are exercised).
fn random_batch(
    n: usize,
    edges: &BTreeSet<(NodeId, NodeId)>,
    round: usize,
    state: &mut u64,
) -> (Vec<Edge>, Vec<Edge>) {
    let mut remove = Vec::new();
    let mut add = Vec::new();
    if round % 3 != 1 && !edges.is_empty() {
        let live: Vec<(NodeId, NodeId)> = edges.iter().copied().collect();
        for _ in 0..5 {
            remove.push(live[(next_u64(state) % live.len() as u64) as usize]);
        }
    }
    if !round.is_multiple_of(3) {
        for _ in 0..5 {
            let u = (next_u64(state) % n as u64) as NodeId;
            let v = (next_u64(state) % n as u64) as NodeId;
            if u != v {
                add.push(canon(u, v));
            }
        }
    }
    (add, remove)
}

/// The k-core payload of an outcome, or a panic with context.
fn core_of(outcome: &Outcome) -> Vec<NodeId> {
    match &outcome.payload {
        Payload::VertexGroups(groups) => groups.first().cloned().unwrap_or_default(),
        other => panic!("k-core payload is vertex groups, got {other:?}"),
    }
}

#[test]
fn mutate_vs_rebuild_oracle_over_generated_graphs() {
    let mut state = 0x5eed_u64;
    let mut refreshed_total = 0usize;
    let mut invalidated_total = 0usize;
    let graphs = generated_graphs();
    assert!(graphs.len() >= 20, "the oracle must cover >= 20 graphs");
    for (index, graph) in graphs.into_iter().enumerate() {
        let n = graph.num_vertices();
        // The independent mirror of what the session should hold.
        let mut edges: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
        for v in 0..n as NodeId {
            for u in graph.neighbors(v) {
                edges.insert(canon(v, u));
            }
        }
        let mut session = Session::new();
        let handle = session.add_graph(graph);
        // Warm the cache so mutations have entries to migrate.
        let params = Params::new();
        session.run("triangle-count", handle, &params).unwrap();
        session.run("k-core", handle, &params).unwrap();
        for round in 0..3 {
            let (add, remove) = random_batch(n, &edges, round, &mut state);
            for pair in &remove {
                edges.remove(pair);
            }
            for pair in &add {
                edges.insert(*pair);
            }
            let rebuilt = rebuild(n, &edges);
            let outcome = session.mutate_edges(handle, &add, &remove).unwrap();
            refreshed_total += outcome.cache.refreshed;
            invalidated_total += outcome.cache.invalidated;
            assert_eq!(
                session.graph_fingerprint(handle).unwrap(),
                gms::platform::kernel::fingerprint(&rebuilt),
                "graph {index} round {round}: patched CSR == from-scratch rebuild"
            );
            // Kernel answers after the mutation — whether served from
            // an incrementally refreshed cache entry or recomputed —
            // must match a from-scratch run on the rebuilt graph.
            let triangles = session.run("triangle-count", handle, &params).unwrap();
            assert_eq!(
                triangles.patterns,
                gms::pattern::triangle_count_rank_merge(&rebuilt),
                "graph {index} round {round}: triangle count"
            );
            let core = session.run("k-core", handle, &params).unwrap();
            let mut expected = gms::order::k_core_by_peeling(&rebuilt, 2);
            expected.sort_unstable();
            assert_eq!(
                core_of(&core),
                expected,
                "graph {index} round {round}: 2-core membership"
            );
            assert_eq!(core.patterns, expected.len() as u64);
        }
        assert_eq!(
            session.graph_lineage(handle).unwrap().version,
            3,
            "graph {index}: every effective batch bumps the version"
        );
    }
    // The oracle must have exercised both incremental maintenance
    // (triangle recounts, removal-only k-core re-peels) and the
    // full-recompute fallback (k-core under additions).
    assert!(
        refreshed_total >= 1,
        "incremental refresh never ran ({refreshed_total})"
    );
    assert!(
        invalidated_total >= 1,
        "the full-recompute fallback never ran ({invalidated_total})"
    );
}

#[test]
fn declared_insensitivity_provably_survives_mutations() {
    let mut session = Session::new();
    let graph = gms::gen::planted_cliques(150, 0.04, 2, 6, 11).0;
    let handle = session.add_graph(graph.clone());
    let params = Params::new();
    // Three cached entries with three sensitivities: order-random is
    // a pure function of the vertex count and seed (VertexCount —
    // edge mutations provably cannot change it), triangle-count
    // refreshes incrementally (VertexNeighborhood), min-cut is
    // Global and must fall back to recompute.
    let order_before = session.run("order-random", handle, &params).unwrap();
    session.run("triangle-count", handle, &params).unwrap();
    session.run("min-cut", handle, &params).unwrap();

    let v = (0..graph.num_vertices() as NodeId)
        .find(|&v| graph.degree(v) >= 1)
        .expect("an edge to remove");
    let u = graph.neighbors(v).next().unwrap();
    let outcome = session.remove_edges(handle, &[(v, u)]).unwrap();
    assert_eq!(outcome.cache.survived, 1, "order-random survived verbatim");
    assert_eq!(outcome.cache.refreshed, 1, "triangle-count refreshed");
    assert_eq!(outcome.cache.invalidated, 1, "min-cut invalidated");

    // The surviving entry is served — same answer, zero kernel time
    // — under the *new* fingerprint.
    let order_after = session.run("order-random", handle, &params).unwrap();
    assert!(order_after.cached, "survivor must be a cache hit");
    assert_eq!(order_after.patterns, order_before.patterns);
    // The refreshed entry is served as a hit, with the patched
    // graph's answer.
    let triangles = session.run("triangle-count", handle, &params).unwrap();
    assert!(triangles.cached, "the refreshed entry must be a cache hit");
    assert_eq!(
        triangles.patterns,
        gms::pattern::triangle_count_rank_merge(session.graph(handle).unwrap())
    );
    let stats = session.cache_stats();
    assert_eq!(stats.migrated, 2, "survived + refreshed were re-keyed");
    assert_eq!(stats.invalidated, 1);
}

/// A kernel whose first execution blocks on two barriers, so the
/// test can interleave an invalidation *between* the kernel starting
/// and its result landing in the cache. Later executions run
/// unimpeded.
struct GatedKernel {
    started: Arc<Barrier>,
    release: Arc<Barrier>,
    gate_armed: AtomicBool,
    executions: Arc<AtomicUsize>,
}

impl Kernel for GatedKernel {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn category(&self) -> Category {
        Category::Pattern
    }
    fn about(&self) -> &'static str {
        "barrier-gated test kernel"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
    fn run(&self, _cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        if self.gate_armed.swap(false, Ordering::SeqCst) {
            self.started.wait();
            self.release.wait();
        }
        Ok(Outcome::new("gated", 7))
    }
}

/// The satellite-1 regression: a graph's content is replaced (and
/// its cached outcomes invalidated) while a `BatchRunner` job for
/// the old content is still executing. The late insert used to land
/// after the invalidation — a stale entry for content nothing serves
/// anymore, served verbatim if the content ever came back. The cache
/// now timestamps invalidations and refuses late inserts.
#[test]
fn replacing_mid_batch_never_resurrects_stale_results() {
    let started = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));
    let executions = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(ResultCache::new(64));
    let content = gms::gen::gnp(100, 0.05, 42);

    let worker = {
        let (started, release) = (Arc::clone(&started), Arc::clone(&release));
        let executions = Arc::clone(&executions);
        let cache = Arc::clone(&cache);
        let content = content.clone();
        std::thread::spawn(move || {
            let mut registry = Registry::empty();
            registry.register(Box::new(GatedKernel {
                started,
                release,
                gate_armed: AtomicBool::new(true),
                executions,
            }));
            let mut session = Session::with_registry_and_cache(registry, cache);
            let handle = session.add_graph(content);
            let results = BatchRunner::new(2).run(
                &mut session,
                &[BatchRequest::new("gated", handle, Params::new())],
            );
            let outcome = results.into_iter().next().unwrap().unwrap();
            (session, handle, outcome)
        })
    };

    // Wait until the batch job is executing, then replace the
    // content out from under it through another session sharing the
    // cache — exactly the serve-layer reload race.
    started.wait();
    let mut replacer = Session::with_registry_and_cache(Registry::empty(), Arc::clone(&cache));
    let handle = replacer.add_graph(content);
    replacer
        .replace_graph(handle, gms::gen::gnp(100, 0.05, 43))
        .unwrap();
    release.wait();

    let (mut session, handle, outcome) = worker.join().unwrap();
    assert_eq!(outcome.patterns, 7, "the in-flight job still answers");
    let stats = cache.stats();
    assert!(
        stats.stale_drops >= 1,
        "the late insert must be dropped, not cached: {stats:?}"
    );
    assert_eq!(
        cache.len(),
        0,
        "no entry survives for content that was invalidated mid-flight"
    );
    // Proof there is no stale window: the next identical request
    // recomputes instead of serving the dropped result.
    let again = session.run("gated", handle, &Params::new()).unwrap();
    assert!(!again.cached);
    assert_eq!(executions.load(Ordering::SeqCst), 2);
}
