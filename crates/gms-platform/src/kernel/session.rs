//! A serving session: loaded graphs behind handles over a
//! fingerprint-keyed result cache — the state a long-running mining
//! service keeps between requests. A session is a table of
//! [`Resident`]s indexed by [`GraphHandle`] plus its own hit/miss
//! counts; registering, running and mutating a graph are the shared
//! [`Engine`] operations the `gms-serve` worker calls too.
//!
//! The cache lives behind an [`Arc`]: a session constructed with
//! [`Session::new`] gets a private one, while
//! [`Session::with_registry_and_cache`] lets any number of concurrent
//! sessions share a single [`ResultCache`], so work one session pays
//! for is served to all of them — with single-flight deduplication
//! for identical requests that are in flight at the same time.

use super::cache::{next_owner, CacheStats, ResultCache};
use super::delta::{GraphLineage, MutationOutcome};
use super::resident::{Engine, Resident};
use super::{CancelToken, KernelError, Outcome, Params, Registry};
use gms_core::{CsrGraph, Edge};
use gms_graph::io::{load_graph, GraphFormat, GraphIoError, GraphSource};
use gms_graph::{CompressedCsr, GraphStore};
use std::path::Path;
use std::sync::Arc;

/// An opaque ticket for a graph loaded into a [`Session`]. Cheap to
/// copy; valid only for the session that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GraphHandle(usize);

/// How [`Session::save_snapshot_with`] encodes the `.gcsr` body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotCompression {
    /// Version 1: the raw CSR arrays.
    Raw,
    /// Version 2: gap+varint compressed neighborhoods in the original
    /// vertex order — same fingerprint as the raw graph.
    Gap,
    /// Version 2 after a BFS locality reordering: smallest on disk,
    /// but a *relabeled isomorph* — the fingerprint changes, so cached
    /// outcomes do not carry over (pattern counts do).
    GapReorder,
}

/// This session's own view of the shared cache: how many of *its*
/// successful requests were answered from cache vs ran a kernel.
/// (The cache-wide counters, including eviction and cross-session
/// numbers, are [`Session::cache_stats`].)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests answered from the cache (including requests coalesced
    /// onto another session's in-flight computation).
    pub hits: u64,
    /// Requests that ran a kernel.
    pub misses: u64,
}

impl SessionStats {
    /// Folds one completed request in.
    fn note(&mut self, cached: bool) {
        if cached {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }
}

/// A long-running mining session: owns loaded graphs, a kernel
/// [`Registry`], and sits on a fingerprint-keyed [`ResultCache`] —
/// private by default, shareable across sessions. This is the typed
/// entry point the facade quick start demonstrates; `gms-serve` keeps
/// the same residents by name behind a network front end.
pub struct Session {
    engine: Engine,
    graphs: Vec<Resident>,
    stats: SessionStats,
    /// This session's owner tag on the shared cache (cross-session
    /// hit attribution).
    owner: u64,
}

impl Session {
    /// A session over the full built-in kernel suite with a private
    /// default-size cache (128 outcomes).
    pub fn new() -> Self {
        Self::with_registry(Registry::with_builtins())
    }

    /// A session over a custom registry and a private cache.
    pub fn with_registry(registry: Registry) -> Self {
        Self::with_registry_and_cache(registry, Arc::new(ResultCache::new(128)))
    }

    /// A session over a custom registry and an existing — possibly
    /// shared — result cache. Sessions built over clones of one
    /// `Arc<ResultCache>` serve each other's cached outcomes and
    /// deduplicate identical in-flight requests across threads.
    pub fn with_registry_and_cache(registry: Registry, cache: Arc<ResultCache>) -> Self {
        Self {
            engine: Engine { registry, cache },
            graphs: Vec::new(),
            stats: SessionStats::default(),
            owner: next_owner(),
        }
    }

    /// The result cache this session runs against; clone the `Arc`
    /// into [`Session::with_registry_and_cache`] to share it.
    pub fn shared_cache(&self) -> Arc<ResultCache> {
        Arc::clone(&self.engine.cache)
    }

    /// Caps the result cache at `capacity` outcomes (0 disables
    /// caching). Existing entries are kept up to the new capacity.
    /// On a shared cache this resizes it for every session.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.engine.cache.set_capacity(capacity);
    }

    /// The kernels this session can run.
    pub fn registry(&self) -> &Registry {
        &self.engine.registry
    }

    /// Registers an additional kernel on this session.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.engine.registry
    }

    /// This session's own hit/miss counts (see [`SessionStats`]).
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Counters of the underlying cache — hit/miss/eviction/
    /// coalescing/cross-session/invalidation totals across *all*
    /// sessions sharing it, plus current size and capacity.
    pub fn cache_stats(&self) -> CacheStats {
        self.engine.cache.stats()
    }

    /// Number of cached outcomes.
    pub fn cached_outcomes(&self) -> usize {
        self.engine.cache.len()
    }

    /// Adopts an in-memory graph; returns its handle.
    pub fn add_graph(&mut self, graph: CsrGraph) -> GraphHandle {
        self.add_store(GraphStore::Csr(graph))
    }

    /// Adopts a gap-compressed graph, served through the decode hot
    /// path without ever materializing the CSR arrays. Fingerprints
    /// — and therefore cached outcomes — match the raw CSR of the
    /// same adjacency structure.
    pub fn add_compressed(&mut self, graph: CompressedCsr) -> GraphHandle {
        self.add_store(GraphStore::Compressed(graph))
    }

    fn add_store(&mut self, store: GraphStore) -> GraphHandle {
        self.graphs.push(Resident::new(store));
        GraphHandle(self.graphs.len() - 1)
    }

    /// Replaces the graph behind an existing handle
    /// ([`Engine::admit`]). Re-registering identical content is
    /// idempotent: lineage, version and cached outcomes are kept.
    /// New content starts a fresh lineage (version 0) and invalidates
    /// the cached outcomes of the old content, unless that is still
    /// reachable through another handle of this session. Returns the
    /// new fingerprint.
    pub fn replace_graph(
        &mut self,
        handle: GraphHandle,
        graph: CsrGraph,
    ) -> Result<u64, KernelError> {
        let old = self.resident(handle)?;
        let fresh = Resident::new(GraphStore::Csr(graph));
        let (resident, _) = self.engine.admit(fresh, Some(old), &self.graphs);
        let fingerprint = resident.fingerprint();
        self.graphs[handle.0] = resident;
        Ok(fingerprint)
    }

    /// Adds a batch of undirected edges to the graph behind `handle`
    /// — see [`Session::mutate_edges`].
    pub fn add_edges(
        &mut self,
        handle: GraphHandle,
        edges: &[Edge],
    ) -> Result<MutationOutcome, KernelError> {
        self.mutate_edges(handle, edges, &[])
    }

    /// Removes a batch of undirected edges from the graph behind
    /// `handle` — see [`Session::mutate_edges`].
    pub fn remove_edges(
        &mut self,
        handle: GraphHandle,
        edges: &[Edge],
    ) -> Result<MutationOutcome, KernelError> {
        self.mutate_edges(handle, &[], edges)
    }

    /// Applies a batched edge mutation to the graph behind `handle`
    /// with set semantics: the new edge set is `(E \ remove) ∪ add`
    /// (an edge in both lists ends up present), self-loops and
    /// duplicates are dropped, and already-satisfied requests are
    /// no-ops — so replaying the same batch is idempotent. Endpoints
    /// must name existing vertices; mutations never change the vertex
    /// count ([`KernelError::BadMutation`] otherwise, with the graph
    /// untouched).
    ///
    /// The handle keeps its identity: the resident representation is
    /// patched in place (a compressed store is transparently
    /// re-encoded; a `gap+reorder` resident re-encodes as plain
    /// `gap`, since the patch is expressed in the original labels),
    /// the content fingerprint advances, and
    /// [`GraphLineage::version`] increments for every effective
    /// batch. Cached outcomes of the old content are migrated to the
    /// new fingerprint per kernel [`DeltaSensitivity`] declarations —
    /// kept, incrementally refreshed, or invalidated (see
    /// [`MutationOutcome::cache`]) — unless the old content is still
    /// reachable through another handle, in which case its entries
    /// stay where they are.
    ///
    /// [`DeltaSensitivity`]: super::DeltaSensitivity
    pub fn mutate_edges(
        &mut self,
        handle: GraphHandle,
        add: &[Edge],
        remove: &[Edge],
    ) -> Result<MutationOutcome, KernelError> {
        let resident = self.resident(handle)?;
        let (next, outcome) = self.engine.mutate(resident, add, remove, &self.graphs)?;
        self.graphs[handle.0] = next;
        Ok(outcome)
    }

    /// Loads a graph from disk or from text already in memory
    /// ([`load_graph`]: edge list, METIS or `.gcsr` snapshot) and
    /// registers it. The text formats and a v1 snapshot materialize
    /// CSR arrays; a v2 snapshot stays compressed and serves kernels
    /// through the decode hot path. The fingerprint — and therefore
    /// every cached outcome — is the same whichever format the graph
    /// arrives in.
    pub fn load(
        &mut self,
        format: GraphFormat,
        source: GraphSource<'_>,
    ) -> Result<GraphHandle, GraphIoError> {
        Ok(self.add_store(load_graph(format, source)?))
    }

    /// Saves a loaded graph as a raw (v1) `.gcsr` binary snapshot,
    /// the fastest format to load it back from. A handle foreign to
    /// this session reports
    /// [`GraphIoCause::Io`](gms_graph::io::GraphIoCause) with
    /// `InvalidInput` (nothing is written).
    pub fn save_snapshot<P: AsRef<Path>>(
        &self,
        handle: GraphHandle,
        path: P,
    ) -> Result<(), GraphIoError> {
        self.save_snapshot_with(handle, path, SnapshotCompression::Raw)
    }

    /// Saves a loaded graph as a `.gcsr` snapshot with an explicit
    /// body encoding (see [`SnapshotCompression`]). `GapReorder`
    /// writes a BFS-relabeled isomorph — smaller gaps, different
    /// fingerprint. A foreign handle reports
    /// [`GraphIoCause::Io`](gms_graph::io::GraphIoCause) with
    /// `InvalidInput` (nothing is written).
    pub fn save_snapshot_with<P: AsRef<Path>>(
        &self,
        handle: GraphHandle,
        path: P,
        compression: SnapshotCompression,
    ) -> Result<(), GraphIoError> {
        let store = self.store(handle).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "graph handle not owned by this session",
            )
        })?;
        match (compression, store) {
            (SnapshotCompression::Raw, GraphStore::Csr(g)) => gms_graph::io::save_snapshot(g, path),
            (SnapshotCompression::Raw, GraphStore::Compressed(c)) => {
                gms_graph::io::save_snapshot(&c.to_csr(), path)
            }
            (SnapshotCompression::Gap, GraphStore::Csr(g)) => {
                gms_graph::io::save_snapshot_compressed(&CompressedCsr::from_csr(g), path)
            }
            (SnapshotCompression::Gap, GraphStore::Compressed(c)) => {
                gms_graph::io::save_snapshot_compressed(c, path)
            }
            (SnapshotCompression::GapReorder, store) => {
                let csr = store.to_csr();
                let rank = gms_order::bfs_order(&csr, 0);
                gms_graph::io::save_snapshot_compressed(
                    &CompressedCsr::from_csr_ordered(&csr, &rank),
                    path,
                )
            }
        }
    }

    fn resident(&self, handle: GraphHandle) -> Result<&Resident, KernelError> {
        self.graphs.get(handle.0).ok_or(KernelError::InvalidHandle)
    }

    /// The raw CSR behind a handle. A handle backed by a compressed
    /// store has no materialized CSR arrays and reports
    /// [`KernelError::NotMaterialized`]; use [`Session::store`] to
    /// reach either backend.
    pub fn graph(&self, handle: GraphHandle) -> Result<&CsrGraph, KernelError> {
        match self.store(handle)? {
            GraphStore::Csr(g) => Ok(g),
            GraphStore::Compressed(_) => Err(KernelError::NotMaterialized),
        }
    }

    /// The resident representation behind a handle — raw or
    /// compressed.
    pub fn store(&self, handle: GraphHandle) -> Result<&GraphStore, KernelError> {
        self.resident(handle).map(Resident::store)
    }

    /// The CSR fingerprint of a loaded graph — the graph half of the
    /// result-cache key.
    pub fn graph_fingerprint(&self, handle: GraphHandle) -> Result<u64, KernelError> {
        self.resident(handle).map(Resident::fingerprint)
    }

    /// The versioned lineage of a loaded graph: the fingerprint it was
    /// registered with and how many mutation batches have been applied
    /// since. [`Session::mutate_edges`] advances it;
    /// [`Session::replace_graph`] resets it only when the content
    /// actually changes.
    pub fn graph_lineage(&self, handle: GraphHandle) -> Result<GraphLineage, KernelError> {
        self.resident(handle).map(Resident::lineage)
    }

    /// Runs a kernel by name on a loaded graph: validates the
    /// parameters against the kernel's schema, serves a memoized
    /// outcome when `(fingerprint, kernel, params)` was already
    /// computed — waiting for an identical in-flight computation
    /// instead of duplicating it — and caches fresh results.
    pub fn run(
        &mut self,
        kernel: &str,
        handle: GraphHandle,
        params: &Params,
    ) -> Result<Outcome, KernelError> {
        let request = self.engine.key(self.resident(handle)?, kernel, params)?;
        let outcome = self
            .engine
            .run(&request, &CancelToken::none(), self.owner)?;
        self.stats.note(outcome.cached);
        Ok(outcome)
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{fingerprint, fingerprint_graph, MigrationStats};
    use super::*;
    use gms_core::{Graph, NodeId};

    fn small() -> CsrGraph {
        gms_gen::planted_cliques(120, 0.03, 2, 6, 9).0
    }

    #[test]
    fn fingerprint_is_content_based() {
        let g1 = small();
        let g2 = small();
        assert_eq!(fingerprint(&g1), fingerprint(&g2));
        let other = gms_gen::gnp(120, 0.03, 10);
        assert_ne!(fingerprint(&g1), fingerprint(&other));
    }

    #[test]
    fn generic_fingerprint_matches_the_csr_fingerprint_byte_for_byte() {
        for g in [
            small(),
            gms_gen::grid(7, 9),
            CsrGraph::from_undirected_edges(5, &[]),
        ] {
            assert_eq!(fingerprint_graph(&g), fingerprint(&g), "CSR backend");
            let compressed = CompressedCsr::from_csr(&g);
            assert_eq!(
                fingerprint_graph(&compressed),
                fingerprint(&g),
                "gap backend"
            );
        }
    }

    #[test]
    fn compressed_store_serves_kernels_and_shares_the_cache_with_raw() {
        let mut session = Session::new();
        let raw = session.add_graph(small());
        let gap = session.add_compressed(CompressedCsr::from_csr(&small()));
        assert_eq!(
            session.graph_fingerprint(raw).unwrap(),
            session.graph_fingerprint(gap).unwrap(),
            "backends of the same content must fingerprint identically"
        );
        assert_eq!(session.store(gap).unwrap().compression(), "gap");
        assert!(session.store(gap).unwrap().resident_bytes() > 0);
        assert!(matches!(
            session.graph(gap),
            Err(KernelError::NotMaterialized)
        ));

        // Decode-native kernel on the compressed store…
        let mined = session.run("triangle-count", gap, &Params::new()).unwrap();
        assert!(!mined.cached);
        // …serves the raw handle from the cache, and vice versa.
        let hit = session.run("triangle-count", raw, &Params::new()).unwrap();
        assert!(hit.cached, "raw handle must hit the compressed result");
        assert!(hit.same_result(&mined));

        // A kernel without a decode-native override still runs via
        // the decode-once default.
        let bk = session.run("bk", gap, &Params::new()).unwrap();
        assert!(bk.patterns > 0);
    }

    #[test]
    fn snapshot_compression_options_roundtrip_through_load() {
        let dir = std::env::temp_dir().join(format!("gms_session_v2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut session = Session::new();
        let raw = session.add_graph(small());
        let fp = session.graph_fingerprint(raw).unwrap();

        // Gap keeps the fingerprint; the reload stays compressed.
        let gap_path = dir.join("gap.gcsr");
        session
            .save_snapshot_with(raw, &gap_path, SnapshotCompression::Gap)
            .unwrap();
        let gap = session
            .load(GraphFormat::Gcsr, GraphSource::Path(&gap_path))
            .unwrap();
        assert_eq!(session.graph_fingerprint(gap).unwrap(), fp);
        assert_eq!(session.store(gap).unwrap().compression(), "gap");

        // GapReorder is a relabeled isomorph: same pattern counts,
        // different fingerprint.
        let reordered_path = dir.join("reordered.gcsr");
        session
            .save_snapshot_with(raw, &reordered_path, SnapshotCompression::GapReorder)
            .unwrap();
        let reordered = session
            .load(GraphFormat::Gcsr, GraphSource::Path(&reordered_path))
            .unwrap();
        assert_eq!(
            session.store(reordered).unwrap().compression(),
            "gap+reorder"
        );
        assert_ne!(session.graph_fingerprint(reordered).unwrap(), fp);
        let a = session.run("triangle-count", raw, &Params::new()).unwrap();
        let b = session
            .run("triangle-count", reordered, &Params::new())
            .unwrap();
        assert_eq!(a.patterns, b.patterns);

        // Raw from a compressed store materializes on the way out.
        let back_path = dir.join("back.gcsr");
        session
            .save_snapshot_with(gap, &back_path, SnapshotCompression::Raw)
            .unwrap();
        let back = session
            .load(GraphFormat::Gcsr, GraphSource::Path(&back_path))
            .unwrap();
        assert_eq!(session.graph_fingerprint(back).unwrap(), fp);
        assert_eq!(session.store(back).unwrap().compression(), "raw");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn identical_requests_hit_the_cache() {
        let mut session = Session::new();
        let g = session.add_graph(small());
        let params = Params::new().with("k", 3);
        let first = session.run("k-clique", g, &params).unwrap();
        assert!(!first.cached);
        let second = session.run("k-clique", g, &params).unwrap();
        assert!(second.cached);
        assert!(second.same_result(&first));
        assert_eq!(second.timings.kernel, std::time::Duration::ZERO);
        assert_eq!(session.stats(), SessionStats { hits: 1, misses: 1 });
        let cache = session.cache_stats();
        assert_eq!((cache.hits, cache.misses, cache.entries), (1, 1, 1));
    }

    #[test]
    fn default_spelling_and_omission_share_a_cache_line() {
        let mut session = Session::new();
        let g = session.add_graph(small());
        session.run("k-clique", g, &Params::new()).unwrap();
        // `k=4` is the declared default: spelling it out is the same
        // request.
        let hit = session
            .run("k-clique", g, &Params::new().with("k", 4))
            .unwrap();
        assert!(hit.cached);
        // A different k is a different request.
        let miss = session
            .run("k-clique", g, &Params::new().with("k", 5))
            .unwrap();
        assert!(!miss.cached);
    }

    #[test]
    fn same_content_different_handle_still_hits() {
        let mut session = Session::new();
        let a = session.add_graph(small());
        let b = session.add_graph(small());
        session.run("triangle-count", a, &Params::new()).unwrap();
        let hit = session.run("triangle-count", b, &Params::new()).unwrap();
        assert!(hit.cached, "cache keys on content, not handle identity");
    }

    #[test]
    fn sessions_sharing_a_cache_serve_each_other() {
        let cache = Arc::new(ResultCache::new(64));
        let mut a = Session::with_registry_and_cache(Registry::with_builtins(), cache.clone());
        let mut b = Session::with_registry_and_cache(Registry::with_builtins(), cache.clone());
        let ga = a.add_graph(small());
        let gb = b.add_graph(small());
        let paid = a.run("triangle-count", ga, &Params::new()).unwrap();
        let served = b.run("triangle-count", gb, &Params::new()).unwrap();
        assert!(!paid.cached);
        assert!(served.cached, "session B reuses session A's work");
        assert!(served.same_result(&paid));
        assert_eq!(cache.stats().cross_hits, 1);
        assert_eq!(a.stats(), SessionStats { hits: 0, misses: 1 });
        assert_eq!(b.stats(), SessionStats { hits: 1, misses: 0 });
    }

    #[test]
    fn replace_graph_invalidates_unless_content_still_referenced() {
        let mut session = Session::new();
        let g = session.add_graph(small());
        session.run("triangle-count", g, &Params::new()).unwrap();
        assert_eq!(session.cached_outcomes(), 1);

        // Same content: nothing to invalidate.
        session.replace_graph(g, small()).unwrap();
        assert_eq!(session.cached_outcomes(), 1);

        // New content: the old outcome is dropped.
        session.replace_graph(g, gms_gen::gnp(90, 0.05, 3)).unwrap();
        assert_eq!(session.cached_outcomes(), 0);
        assert_eq!(session.cache_stats().invalidated, 1);
        let fresh = session.run("triangle-count", g, &Params::new()).unwrap();
        assert!(!fresh.cached);

        // Old content still reachable through another handle: its
        // cache lines survive the replace.
        let mut two = Session::new();
        let h1 = two.add_graph(small());
        let h2 = two.add_graph(small());
        two.run("triangle-count", h1, &Params::new()).unwrap();
        two.replace_graph(h1, gms_gen::gnp(90, 0.05, 3)).unwrap();
        let hit = two.run("triangle-count", h2, &Params::new()).unwrap();
        assert!(hit.cached, "content still referenced by h2");

        assert!(two
            .replace_graph(GraphHandle(99), small())
            .is_err_and(|e| e == KernelError::InvalidHandle));
    }

    #[test]
    fn replacing_with_identical_content_keeps_lineage_and_cache() {
        // Regression: `replace_graph` used to reset lineage to
        // version 0 even when nothing changed, where the server kept
        // it. Registration is idempotent by fingerprint on both now.
        let mut session = Session::new();
        let g = session.add_graph(gms_gen::grid(4, 4));
        let mutated = session.add_edges(g, &[(0, 5)]).unwrap();
        assert_eq!(mutated.version, 1);
        session.run("triangle-count", g, &Params::new()).unwrap();
        let lineage = session.graph_lineage(g).unwrap();

        let same = session.store(g).unwrap().to_csr();
        let fp = session.replace_graph(g, same).unwrap();
        assert_eq!(fp, mutated.fingerprint);
        assert_eq!(
            session.graph_lineage(g).unwrap(),
            lineage,
            "still version 1"
        );
        assert_eq!(session.cache_stats().invalidated, 0);
        let hit = session.run("triangle-count", g, &Params::new()).unwrap();
        assert!(hit.cached, "cache intact");

        // Same content, other representation: the store swaps, the
        // identity does not.
        let gap = session.add_compressed(CompressedCsr::from_csr(&gms_gen::grid(4, 4)));
        session.replace_graph(gap, gms_gen::grid(4, 4)).unwrap();
        assert_eq!(session.store(gap).unwrap().compression(), "raw");
        assert_eq!(session.graph_lineage(gap).unwrap().version, 0);

        // Different content is a fresh lineage.
        session.replace_graph(g, gms_gen::grid(3, 5)).unwrap();
        assert_eq!(session.graph_lineage(g).unwrap().version, 0);
    }

    #[test]
    fn lru_evicts_oldest_and_capacity_zero_disables() {
        let mut session = Session::new();
        session.set_cache_capacity(2);
        let g = session.add_graph(small());
        for k in [3i64, 4, 5] {
            session
                .run("k-clique", g, &Params::new().with("k", k))
                .unwrap();
        }
        assert_eq!(session.cached_outcomes(), 2);
        assert_eq!(session.cache_stats().evictions, 1);
        // k=3 was least recently used; rerunning it must miss.
        let again = session
            .run("k-clique", g, &Params::new().with("k", 3))
            .unwrap();
        assert!(!again.cached);

        session.set_cache_capacity(0);
        assert_eq!(session.cached_outcomes(), 0);
        let uncached = session
            .run("k-clique", g, &Params::new().with("k", 3))
            .unwrap();
        assert!(!uncached.cached);
    }

    #[test]
    fn loads_edge_lists_through_the_streaming_loader() {
        let mut session = Session::new();
        let text = "# toy triangle plus tail\n0\t1\n1\t2\n2 0\n2 3\n";
        let g = session
            .load(GraphFormat::EdgeList, GraphSource::Text(text))
            .unwrap();
        let out = session.run("triangle-count", g, &Params::new()).unwrap();
        assert_eq!(out.patterns, 1);
    }

    #[test]
    fn all_formats_load_the_same_fingerprint_and_share_the_cache() {
        let graph = small();
        let dir = std::env::temp_dir().join(format!("gms_session_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("g.gcsr");

        let mut session = Session::new();
        let a = session.add_graph(graph.clone());
        session.save_snapshot(a, &snapshot).unwrap();

        let mut edge_list = Vec::new();
        gms_graph::io::write_edge_list(&graph, &mut edge_list).unwrap();
        let mut metis = Vec::new();
        gms_graph::io::write_metis(&graph, &mut metis).unwrap();

        let edge_list = String::from_utf8(edge_list).unwrap();
        let metis = String::from_utf8(metis).unwrap();
        let b = session
            .load(GraphFormat::EdgeList, GraphSource::Text(&edge_list))
            .unwrap();
        let c = session
            .load(GraphFormat::Metis, GraphSource::Text(&metis))
            .unwrap();
        let d = session
            .load(GraphFormat::Gcsr, GraphSource::Path(&snapshot))
            .unwrap();
        let fp = session.graph_fingerprint(a).unwrap();
        for handle in [b, c, d] {
            assert_eq!(session.graph_fingerprint(handle).unwrap(), fp);
        }

        // One kernel run serves all four handles from the cache.
        let miss = session.run("triangle-count", a, &Params::new()).unwrap();
        for handle in [b, c, d] {
            let hit = session
                .run("triangle-count", handle, &Params::new())
                .unwrap();
            assert!(hit.cached, "format-specific handle missed the cache");
            assert!(hit.same_result(&miss));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn save_snapshot_rejects_foreign_handles() {
        let mut other = Session::new();
        let foreign = other.add_graph(small());
        let session = Session::new();
        let path =
            std::env::temp_dir().join(format!("gms_session_foreign_{}.gcsr", std::process::id()));
        let err = session.save_snapshot(foreign, &path).unwrap_err();
        assert!(matches!(
            err.cause,
            gms_graph::io::GraphIoCause::Io(ref e)
                if e.kind() == std::io::ErrorKind::InvalidInput
        ));
        assert!(!path.exists(), "nothing must be written for a bad handle");
    }

    #[test]
    fn mutations_bump_version_and_migrate_the_cache_per_sensitivity() {
        let mut session = Session::new();
        let g = session.add_graph(small());
        let base_fp = session.graph_fingerprint(g).unwrap();

        // Populate three cache lines with distinct sensitivities.
        let tri = session.run("triangle-count", g, &Params::new()).unwrap();
        let rand = session.run("order-random", g, &Params::new()).unwrap();
        session.run("order-degree", g, &Params::new()).unwrap();
        assert_eq!(session.cached_outcomes(), 3);

        let csr0 = session.store(g).unwrap().to_csr();
        let v = (0..csr0.num_vertices() as NodeId)
            .find(|&v| csr0.degree(v) >= 2)
            .unwrap();
        let targets: Vec<NodeId> = csr0.neighbors(v).take(2).collect();
        let out = session
            .remove_edges(g, &[(v, targets[0]), (v, targets[1])])
            .unwrap();
        assert_eq!(out.base_fingerprint, base_fp);
        assert_eq!(out.version, 1);
        assert_ne!(out.fingerprint, base_fp);
        assert_eq!(
            session.graph_lineage(g).unwrap(),
            GraphLineage {
                base_fingerprint: base_fp,
                version: 1
            }
        );
        // order-random survived (VertexCount), triangle-count was
        // refreshed incrementally, order-degree (Global) died.
        assert_eq!(out.cache.survived, 1);
        assert_eq!(out.cache.refreshed, 1);
        assert_eq!(out.cache.invalidated, 1);
        assert_eq!(session.cached_outcomes(), 2);

        // The migrated entries serve the mutated graph...
        let rand2 = session.run("order-random", g, &Params::new()).unwrap();
        assert!(rand2.cached);
        assert!(rand2.same_result(&rand));
        let tri2 = session.run("triangle-count", g, &Params::new()).unwrap();
        assert!(tri2.cached, "refreshed outcome must be a cache hit");
        // ...and the refreshed count matches a from-scratch recount.
        let mut fresh = Session::new();
        let csr = session.store(g).unwrap().to_csr();
        let h = fresh.add_graph(csr);
        let oracle = fresh.run("triangle-count", h, &Params::new()).unwrap();
        assert_eq!(tri2.patterns, oracle.patterns);
        assert!(tri.patterns >= tri2.patterns);
    }

    #[test]
    fn redundant_mutations_are_no_ops_and_bad_endpoints_are_rejected() {
        let mut session = Session::new();
        let g = session.add_graph(gms_gen::grid(4, 4));
        let fp = session.graph_fingerprint(g).unwrap();
        // Edge (0,1) already exists; removing a non-edge is equally moot.
        let out = session
            .mutate_edges(g, &[(0, 1)], &[(0, 15), (3, 3)])
            .unwrap();
        assert_eq!(out.version, 0, "no-op batches must not advance lineage");
        assert_eq!(out.fingerprint, fp);
        assert_eq!((out.added, out.removed, out.touched), (0, 0, 0));

        let err = session.add_edges(g, &[(0, 99)]).unwrap_err();
        assert!(matches!(err, KernelError::BadMutation { .. }));
        assert_eq!(
            session.graph_fingerprint(g).unwrap(),
            fp,
            "a rejected batch must leave the graph untouched"
        );
        // Replaying an applied batch is idempotent (set semantics).
        let first = session.add_edges(g, &[(0, 5)]).unwrap();
        assert_eq!(first.version, 1);
        let replay = session.add_edges(g, &[(0, 5)]).unwrap();
        assert_eq!(replay.version, 1);
        assert_eq!(replay.fingerprint, first.fingerprint);
    }

    #[test]
    fn mutating_a_compressed_store_rebuilds_transparently() {
        let plain = small();
        let u = (0..plain.num_vertices() as NodeId)
            .find(|&v| plain.degree(v) >= 1)
            .unwrap();
        let w = plain.neighbors(u).next().unwrap();
        let mut session = Session::new();
        let g = session.add_compressed(CompressedCsr::from_csr(&plain));
        assert_eq!(session.store(g).unwrap().compression(), "gap");
        let out = session.remove_edges(g, &[(u, w)]).unwrap();
        assert_eq!(out.removed, 1);
        assert_eq!(out.version, 1);
        assert_eq!(
            session.store(g).unwrap().compression(),
            "gap",
            "the resident representation survives the mutation"
        );
        // The re-encoded store fingerprints as its content.
        assert_eq!(
            session.store(g).unwrap().fingerprint(),
            session.graph_fingerprint(g).unwrap()
        );
        let tri = session.run("triangle-count", g, &Params::new()).unwrap();
        let mut fresh = Session::new();
        let h = fresh.add_graph(session.store(g).unwrap().to_csr());
        let oracle = fresh.run("triangle-count", h, &Params::new()).unwrap();
        assert_eq!(tri.patterns, oracle.patterns);
    }

    #[test]
    fn mutation_leaves_cache_entries_alone_while_content_is_shared() {
        let mut session = Session::new();
        let plain = small();
        let u = (0..plain.num_vertices() as NodeId)
            .find(|&v| plain.degree(v) >= 1)
            .unwrap();
        let w = plain.neighbors(u).next().unwrap();
        let a = session.add_graph(plain);
        let b = session.add_graph(small());
        session.run("triangle-count", a, &Params::new()).unwrap();
        let out = session.remove_edges(a, &[(u, w)]).unwrap();
        assert_eq!(out.version, 1);
        assert_eq!(
            out.cache,
            MigrationStats::default(),
            "shared content must not be migrated away"
        );
        let hit = session.run("triangle-count", b, &Params::new()).unwrap();
        assert!(hit.cached, "handle b still serves the original content");
    }

    #[test]
    fn invalid_handles_are_rejected() {
        let mut empty = Session::new();
        let mut other = Session::new();
        let foreign = other.add_graph(small());
        assert_eq!(
            empty
                .run("triangle-count", foreign, &Params::new())
                .unwrap_err(),
            KernelError::InvalidHandle
        );
    }
}
