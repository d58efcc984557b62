//! The router: a [`Service`] whose executor is remote. The
//! connection front end — accept loop, bounded NDJSON line reader,
//! envelope parsing, `id` echo — is `gms-serve`'s own
//! ([`gms_serve::service`]); this module is what happens behind
//! [`Service::call`]: own the fleet-wide graph table, place each
//! request on a shard, forward it, and fail over when the shard is
//! gone.
//!
//! ```text
//!                      ┌────────────── gms-router ──────────────┐
//!  clients ── TCP ────►│ graph table   consistent-hash ring     │
//!  (same NDJSON        │ name → shard  fingerprint → shard      │
//!   protocol as        │ spill dir     health probes, failover  │
//!   gms-serve)         └───┬──────────────┬──────────────┬──────┘
//!                    pooled│        pooled│        pooled│
//!                          ▼              ▼              ▼
//!                    gms-serve 0    gms-serve 1    gms-serve 2
//!                    (workers,      (workers,      (workers,
//!                     queue,         queue,         queue,
//!                     cache)         cache)         cache)
//! ```
//!
//! Placement: `load` is materialized once at the router to compute
//! the content fingerprint, then forwarded to the shard the
//! capacity-weighted [`HashRing`] assigns that fingerprint. Inline
//! graphs are spilled to a router-side `.gcsr` snapshot; path-loaded
//! graphs keep their client-supplied path — either way every graph
//! has a reload source, which is what makes failover possible.
//!
//! One path from router to shard:
//!
//! ```text
//! Service::call ─► route_load / route_mutate / route_run / route_batch / proxy_kernels
//!                        │ place: ring owner, table owner, first healthy
//!                        ▼
//!                  Core::exchange ── Dead ──► bury (fail over) ─► place again
//!                        │
//!                        ▼
//!                  Backend::request (pooled; one stale-connection redial)
//! ```
//!
//! `Core::exchange` is the only loop that places a request, sends
//! it, classifies the failure and fails over; each `route_*` only
//! says how to place. `route_batch` sends one sub-batch per owning
//! shard through `exchange`, concurrently; a sub-batch whose shard
//! died re-enters `route_batch`'s placement for its slots. That
//! recursion ends: a re-entry happens only after a shard that was
//! healthy when the slots were placed went down, shards never come
//! back, and with none left every slot answers typed without a send.
//!
//! Failover: when a shard stops answering (a pooled request fails
//! after its one stale-connection redial, a read times out with no
//! tighter caller deadline, or the background health probe misses),
//! the router marks it down, rebuilds the ring without it, and
//! re-places **only that shard's graphs** on the survivors by
//! reloading them from their reload sources. In-flight requests for
//! those graphs retry transparently on the new owner; requests that
//! asked for `"redirect":true` are answered with a typed `moved`
//! error carrying the new shard's address instead. A graph with no
//! reachable shard answers `backend-unavailable` — never a hang.

use crate::backend::{Backend, RequestError};
use crate::ring::{HashRing, RingMember};
use gms_graph::io::{load_graph, GraphIoError, GraphSource};
use gms_graph::GraphStore;
use gms_platform::kernel::GraphLineage;
use gms_serve::protocol::{
    error_json, fingerprint_json, response, shutdown_ack, ApiError, Envelope, ErrorCode,
    GraphFormat, LoadSource, LoadSpec, MutateSpec, Request, RunSpec,
};
use gms_serve::service::{spawn_acceptor, FrontCounters, Reply, Service};
use gms_serve::{Json, LoadCompression, ServeConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Router construction parameters.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend shard addresses. Every backend must answer a `health`
    /// probe at startup — a fleet that cannot form does not start.
    pub backends: Vec<String>,
    /// Dial deadline for backend connections.
    pub connect_timeout: Duration,
    /// Response deadline for backend requests: a dead shard costs at
    /// most this long before failover kicks in, instead of hanging
    /// the routing thread forever.
    pub read_timeout: Duration,
    /// Background liveness-probe period; `Duration::ZERO` disables
    /// the probe thread (deaths are then only detected on request).
    pub probe_interval: Duration,
    /// Deadline for one liveness probe.
    pub probe_timeout: Duration,
    /// Where inline-loaded graphs are spilled as `.gcsr` snapshots
    /// for failover reloads; default is a temp dir of this router
    /// instance's own (named by pid and bound port), removed by
    /// [`RouterHandle::join`].
    pub spill_dir: Option<PathBuf>,
    /// Propagate a router `shutdown` to the backends (the self-managed
    /// `--spawn` mode owns its children and sets this).
    pub shutdown_backends: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            probe_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_secs(1),
            spill_dir: None,
            shutdown_backends: false,
        }
    }
}

/// Where a graph can be reloaded from when its shard dies.
enum ReloadSource {
    /// Router-side `.gcsr` spill (inline-loaded graphs).
    Spill(PathBuf),
    /// The client-supplied path, reloaded in its original format.
    ClientPath { path: String, format: GraphFormat },
}

struct GraphRecord {
    /// Owning backend index; `None` while orphaned (owner died and
    /// re-placement has not succeeded yet).
    owner: Option<usize>,
    /// Current content fingerprint (advances on every mutation).
    fingerprint: u64,
    /// The load-time fingerprint — the placement key: keying the ring
    /// on the base keeps a graph on its shard across mutations
    /// instead of reshuffling the fleet every batch — and the
    /// effective mutation batches applied since.
    lineage: GraphLineage,
    vertices: usize,
    edges: usize,
    reload: ReloadSource,
    /// The resident representation the client asked for, repeated on
    /// reloads.
    compression: LoadCompression,
}

impl GraphRecord {
    /// Where the current content reloads from, and in which format.
    fn reload_from(&self) -> (GraphFormat, &Path) {
        match &self.reload {
            ReloadSource::Spill(path) => (GraphFormat::Gcsr, path),
            ReloadSource::ClientPath { path, format } => (*format, Path::new(path)),
        }
    }

    /// The load request that re-creates this graph, as `name`, on a
    /// shard.
    fn reload_json(&self, name: &str) -> Json {
        let (format, path) = self.reload_from();
        Envelope::new(Request::Load(LoadSpec {
            name: name.to_string(),
            format,
            source: LoadSource::Path(path.display().to_string()),
            compression: self.compression,
        }))
        .to_json()
    }

    /// Materializes the current content of the reload source — the
    /// graph a failover reload would hand a survivor.
    fn materialize(&self) -> Result<gms_core::CsrGraph, GraphIoError> {
        let (format, path) = self.reload_from();
        load_graph(format, GraphSource::Path(path)).map(GraphStore::into_csr)
    }

    fn spill(&self) -> Option<&PathBuf> {
        match &self.reload {
            ReloadSource::Spill(path) => Some(path),
            ReloadSource::ClientPath { .. } => None,
        }
    }
}

#[derive(Default)]
struct Counters {
    front: FrontCounters,
    routed: AtomicU64,
    mutations: AtomicU64,
    failovers: AtomicU64,
    replaced: AtomicU64,
    moved: AtomicU64,
    unavailable: AtomicU64,
    not_found: AtomicU64,
    /// Requests answered `deadline-exceeded` at the router because
    /// the owning shard did not reply within the caller's deadline.
    deadline_exceeded: AtomicU64,
}

struct Core {
    backends: Vec<Backend>,
    ring: RwLock<HashRing>,
    graphs: RwLock<BTreeMap<String, GraphRecord>>,
    /// Serializes failover and re-placement: one thread re-places a
    /// dead shard's graphs while others wait, then see the healed
    /// table instead of racing duplicate reloads.
    placement: Mutex<()>,
    /// Serializes edge mutations: the order shards apply batches in
    /// is the order the router patches its spill snapshots in, so a
    /// failover reload always serves the content the fleet answered
    /// with. Never held while `placement` is held (the mutation path
    /// takes `placement` through `ensure_placed`, not vice versa).
    mutation: Mutex<()>,
    running: AtomicBool,
    counters: Counters,
    addr: SocketAddr,
    spill_dir: PathBuf,
    shutdown_backends: bool,
}

/// One answered exchange with a shard.
struct Routed {
    response: Json,
    owner: usize,
    /// Whether a shard died (and was failed over) before this answer.
    failover: bool,
}

impl Routed {
    fn ok(&self) -> bool {
        self.response.get("ok") == Some(&Json::Bool(true))
    }

    /// The shard's response with the router's members appended: the
    /// shard address, and `failover` when one happened. (The `id`
    /// echo after them is the [`Reply`]'s.)
    fn annotated(self, core: &Core) -> Json {
        let Json::Object(mut fields) = self.response else {
            return self.response;
        };
        let shard = core.backends[self.owner].addr.to_string();
        fields.push(("shard".to_string(), Json::from(shard)));
        if self.failover {
            fields.push(("failover".to_string(), Json::Bool(true)));
        }
        Json::Object(fields)
    }
}

fn error_code_of(response: &Json) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
}

/// The remote executor: control ops are answered from the router's
/// own state (or proxied), data ops are placed on a shard, forwarded
/// and failed over — inline, on the connection thread that read the
/// request.
impl Service for Core {
    fn running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    fn call(&self, envelope: Envelope, reply: Reply) {
        let request = &envelope.request;
        if !self.running() && !matches!(request, Request::Health | Request::Stats) {
            let error = ApiError::new(ErrorCode::ShuttingDown, "router is shutting down");
            return reply.deliver(error_json(&error));
        }
        if !matches!(
            request,
            Request::Health | Request::Stats | Request::Kernels | Request::Shutdown
        ) {
            self.counters.routed.fetch_add(1, Ordering::Relaxed);
        }
        reply.deliver(match request {
            Request::Health => self.health_json(),
            Request::Stats => self.stats_json(),
            Request::Kernels => self.proxy_kernels(),
            Request::Shutdown => {
                self.begin_shutdown();
                shutdown_ack()
            }
            Request::Load(spec) => self.route_load(&envelope, spec),
            Request::Mutate(spec) => self.route_mutate(&envelope, spec),
            Request::Run(spec) => self.route_run(&envelope, spec),
            Request::Batch(specs) => self.route_batch(&envelope, specs),
        })
    }

    fn front(&self) -> &FrontCounters {
        &self.counters.front
    }

    /// Not configurable here: a line a default backend would refuse
    /// is refused at the router.
    fn max_body_bytes(&self) -> usize {
        ServeConfig::default().max_body_bytes
    }

    /// The router speaks NDJSON only.
    fn http(&self) -> Option<Duration> {
        None
    }
}

impl Core {
    /// Rebuilds the ring from the health flags. The flags are read
    /// under the write lock, so of two concurrent failovers the last
    /// writer has seen both deaths — a ring built before the other
    /// death cannot be the one that stays.
    fn rebuild_ring(&self) {
        let mut ring = self.ring.write().unwrap_or_else(|e| e.into_inner());
        let members: Vec<Option<RingMember>> = self
            .backends
            .iter()
            .map(|b| {
                b.healthy().then(|| RingMember {
                    name: b.addr.to_string(),
                    weight: b.weight,
                })
            })
            .collect();
        *ring = HashRing::build(members.iter().map(|m| m.as_ref()));
    }

    fn ring_owner(&self, fingerprint: u64) -> Option<usize> {
        self.ring
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .owner(fingerprint)
    }

    /// Marks a backend dead, rebuilds the ring without it and orphans
    /// its graphs. `true` only for the caller that wins the
    /// down-transition.
    fn fail(&self, index: usize) -> bool {
        if !self.backends[index].mark_down() {
            return false;
        }
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        self.rebuild_ring();
        let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
        for record in graphs.values_mut() {
            if record.owner == Some(index) {
                record.owner = None;
            }
        }
        true
    }

    /// Fails a dead backend and re-places every graph it owned on the
    /// survivors. Only the thread that wins the down-transition does
    /// the re-placement; latecomers return immediately and find the
    /// healed table. Takes the placement lock.
    fn on_backend_death(&self, index: usize) {
        if self.fail(index) {
            self.heal_orphans();
        }
    }

    /// The one place a request meets a shard: ask `place` for the
    /// owner, send `request` there, and when that shard turns out to
    /// be dead let `bury` fail it and ask `place` again — so the loop
    /// ends with an answer from a live shard or with `place`'s own
    /// verdict (its `Err`) that the request has no home. `place` is
    /// told whether a failover already happened. When the shard
    /// denies holding `heal` (`unknown-graph`: it restarted, or
    /// dropped the graph) the graph is reloaded there and the request
    /// retried. A `deadline_ms` tightens the wait; a shard that
    /// overruns it is answered for with `deadline-exceeded`, not
    /// declared dead — it is probably alive, and failover would
    /// re-place every graph it holds.
    fn exchange(
        &self,
        request: &Json,
        deadline_ms: Option<u64>,
        heal: Option<&str>,
        bury: impl Fn(usize),
        mut place: impl FnMut(bool) -> Result<usize, Json>,
    ) -> Result<Routed, Json> {
        let mut failover = false;
        loop {
            let owner = place(failover)?;
            match self.backends[owner].request(request, deadline_ms) {
                Ok(response) => {
                    let denied = error_code_of(&response) == Some("unknown-graph");
                    if denied && heal.is_some_and(|graph| self.heal_missing(graph, owner)) {
                        continue;
                    }
                    return Ok(Routed {
                        response,
                        owner,
                        failover,
                    });
                }
                Err(RequestError::DeadlineLapsed) => return Err(self.lapsed(deadline_ms, owner)),
                Err(RequestError::Dead(_)) => {
                    bury(owner);
                    failover = true;
                }
            }
        }
    }

    /// The record's owner, if that shard is still healthy.
    fn live_owner(&self, record: &GraphRecord) -> Option<usize> {
        record.owner.filter(|&owner| self.backends[owner].healthy())
    }

    /// Ensures `name` is resident on a healthy shard and returns its
    /// owner. Takes the placement lock; cheap when already placed.
    fn ensure_placed(&self, name: &str) -> Option<usize> {
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        if let Some(owner) = self.live_owner(graphs.get(name)?) {
            return Some(owner);
        }
        drop(graphs);
        let _guard = self.placement.lock().unwrap_or_else(|e| e.into_inner());
        self.place_locked(name)
    }

    /// Re-places one graph (placement lock held): reloads it from
    /// its reload source onto the ring owner of its fingerprint,
    /// walking the ring as further shards die. Returns the new owner
    /// or `None` when the fleet has no shard that can take it.
    fn place_locked(&self, name: &str) -> Option<usize> {
        let (fingerprint, reload) = {
            let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
            let record = graphs.get(name)?;
            if let Some(owner) = self.live_owner(record) {
                return Some(owner); // another thread healed it first
            }
            (record.lineage.base_fingerprint, record.reload_json(name))
        };
        // A shard that dies here is failed without re-placing what it
        // owned — that would re-enter the placement lock we hold; the
        // `heal_orphans` pass (or the next `ensure_placed`) picks its
        // graphs up. There is no caller to answer here, so "no shard
        // left" needs no error body.
        let placed = self
            .exchange(
                &reload,
                None,
                None,
                |dead| {
                    self.fail(dead);
                },
                |_| self.ring_owner(fingerprint).ok_or(Json::Null),
            )
            .ok()?;
        if !placed.ok() {
            // The shard is alive but the reload failed (spill
            // deleted, client path gone): the graph stays orphaned.
            return None;
        }
        let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
        if let Some(record) = graphs.get_mut(name) {
            record.owner = Some(placed.owner);
        }
        self.counters.replaced.fetch_add(1, Ordering::Relaxed);
        Some(placed.owner)
    }

    /// Re-places every orphaned graph, looping because
    /// `place_locked` can mark further shards down (and orphan their
    /// graphs) mid-pass. Terminates: each pass either places
    /// something or proves the rest unplaceable right now.
    fn heal_orphans(&self) {
        let _guard = self.placement.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let orphaned: Vec<String> = {
                let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
                graphs
                    .iter()
                    .filter(|(_, r)| r.owner.is_none())
                    .map(|(n, _)| n.clone())
                    .collect()
            };
            if orphaned.is_empty() {
                return;
            }
            let mut progress = false;
            for name in orphaned {
                progress |= self.place_locked(&name).is_some();
            }
            if !progress {
                return;
            }
        }
    }

    /// Reloads a graph the router believes `owner` holds but the
    /// shard denies. Returns `true` when the reload succeeded (retry
    /// the request).
    fn heal_missing(&self, name: &str, owner: usize) -> bool {
        let _guard = self.placement.lock().unwrap_or_else(|e| e.into_inner());
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        let Some(reload) = graphs.get(name).map(|record| record.reload_json(name)) else {
            return false;
        };
        drop(graphs);
        matches!(
            self.backends[owner].request(&reload, None),
            Ok(ref r) if r.get("ok") == Some(&Json::Bool(true))
        )
    }

    fn begin_shutdown(&self) {
        if !self.running.swap(false, Ordering::SeqCst) {
            return;
        }
        if self.shutdown_backends {
            let shutdown = Envelope::new(Request::Shutdown).to_json();
            for backend in self.backends.iter().filter(|b| b.healthy()) {
                let _ = backend.request(&shutdown, None);
            }
        }
        // Unblock the acceptor.
        let _ = TcpStream::connect(self.addr);
    }

    fn knows(&self, graph: &str) -> bool {
        self.graphs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(graph)
    }

    /// `graph-not-found`: the fleet-wide table has no such graph.
    fn not_found(&self, graph: &str) -> Json {
        self.counters.not_found.fetch_add(1, Ordering::Relaxed);
        error_json(&ApiError::new(
            ErrorCode::GraphNotFound,
            format!("graph {graph:?} is not loaded anywhere in the fleet"),
        ))
    }

    /// `backend-unavailable`: `graph` is known but no live shard
    /// holds it or can take it.
    fn no_home(&self, graph: &str) -> Json {
        self.unavailable(format!("no healthy backend holds graph {graph:?}"))
    }

    /// `io-error`: the router could not read or write a graph file.
    fn io_error(message: String) -> Json {
        error_json(&ApiError::new(ErrorCode::Io, message))
    }

    fn unavailable(&self, message: String) -> Json {
        self.counters.unavailable.fetch_add(1, Ordering::Relaxed);
        error_json(&ApiError::new(ErrorCode::BackendUnavailable, message))
    }

    /// `deadline-exceeded` on behalf of a shard that overran the
    /// caller's deadline.
    fn lapsed(&self, deadline_ms: Option<u64>, owner: usize) -> Json {
        self.counters
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        error_json(&ApiError::new(
            ErrorCode::DeadlineExceeded,
            format!(
                "deadline of {}ms lapsed waiting on shard {}",
                deadline_ms.unwrap_or(0),
                self.backends[owner].addr
            ),
        ))
    }

    /// Writes `graph` into the spill directory as the reload source
    /// of content `fingerprint` (the file name), unless an earlier
    /// load of the same content already did.
    fn spill(&self, fingerprint: u64, graph: &gms_core::CsrGraph) -> Result<PathBuf, Json> {
        let path = self.spill_dir.join(format!("{fingerprint:016x}.gcsr"));
        if !path.exists() {
            gms_graph::io::save_snapshot(graph, &path)
                .map_err(|e| Self::io_error(format!("spill failed: {e}")))?;
        }
        Ok(path)
    }

    /// Materializes the graph once at the router (for the placement
    /// fingerprint and the failover spill), then forwards the load to
    /// the owning shard.
    fn route_load(&self, envelope: &Envelope, spec: &LoadSpec) -> Json {
        let store = match load_graph(spec.format, spec.source.as_graph_source()) {
            Ok(store) => store,
            Err(e) => return Self::io_error(e.to_string()),
        };
        let fingerprint = store.fingerprint();
        let (vertices, edges) = (store.num_vertices(), store.num_arcs() / 2);
        // Re-loading the content a name already holds keeps its
        // lineage, as the shard's `Engine::admit` does — and so its
        // placement key: the load lands on the shard that holds it.
        let lineage = self
            .graphs
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&spec.name)
            .filter(|record| record.fingerprint == fingerprint)
            .map_or(GraphLineage::new(fingerprint), |record| record.lineage);
        // Only an inline load needs the materialized graph again (to
        // spill it); a compressed snapshot always arrives by path.
        let reload = match &spec.source {
            LoadSource::Path(path) => ReloadSource::ClientPath {
                path: path.clone(),
                format: spec.format,
            },
            LoadSource::Data(_) => match self.spill(fingerprint, &store.into_csr()) {
                Ok(path) => ReloadSource::Spill(path),
                Err(answer) => return answer,
            },
        };
        let routed = self.exchange(
            &envelope.to_json(),
            None,
            None,
            |dead| self.on_backend_death(dead),
            |_| {
                self.ring_owner(lineage.base_fingerprint).ok_or_else(|| {
                    self.unavailable("no healthy backend can take the graph".to_string())
                })
            },
        );
        let mut routed = match routed {
            Ok(routed) => routed,
            Err(answer) => return answer,
        };
        if !routed.ok() {
            // The shard rejected the load (bad path, parse error):
            // forward its typed error untouched.
            return routed.annotated(self);
        }
        let (replaced, stale_spill) = {
            let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
            let record = GraphRecord {
                owner: Some(routed.owner),
                fingerprint,
                lineage,
                vertices,
                edges,
                reload,
                compression: spec.compression,
            };
            let old = graphs.insert(spec.name.clone(), record);
            // A replaced-away inline graph leaves its spill snapshot
            // behind; delete it once nothing else reloads from it —
            // replacing must not leak disk.
            let stale = old
                .as_ref()
                .and_then(|o| o.spill().cloned())
                .filter(|path| !spill_referenced(&graphs, path));
            (old.is_some(), stale)
        };
        if let Some(path) = stale_spill {
            let _ = std::fs::remove_file(path);
        }
        // The router's table is the fleet-wide truth for "replaced":
        // the shard only sees its own slice.
        if let Json::Object(fields) = &mut routed.response {
            for (key, value) in fields.iter_mut() {
                if key == "replaced" {
                    *value = Json::Bool(replaced);
                }
            }
        }
        routed.annotated(self)
    }

    /// Routes an edge mutation to the shard owning the graph, keeping
    /// the router's failover state in sync: the same patch is applied
    /// to the router's copy of the graph and written as a fresh spill
    /// snapshot keyed by the post-mutation fingerprint **before** the
    /// batch is forwarded, so a shard death at any point reloads
    /// content no older than what the fleet last acknowledged.
    /// Placement stays on the base fingerprint — mutating never moves
    /// a graph. A path-loaded graph converts to a spill reload here
    /// (its client file no longer matches the resident content), and
    /// the pre-mutation spill is deleted once nothing references it.
    fn route_mutate(&self, envelope: &Envelope, spec: &MutateSpec) -> Json {
        use gms_core::Graph as _;
        let _one_at_a_time = self.mutation.lock().unwrap_or_else(|e| e.into_inner());
        // Patch the router's copy first.
        let (patched, delta, old_spill) = {
            let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
            let Some(record) = graphs.get(&spec.graph) else {
                return self.not_found(&spec.graph);
            };
            let old = match record.materialize() {
                Ok(graph) => graph,
                Err(e) => return Self::io_error(format!("reload source unreadable: {e}")),
            };
            match gms_graph::patch_csr(&old, &spec.add, &spec.remove) {
                Ok((patched, delta)) => (patched, delta, record.spill().cloned()),
                Err(e) => return error_json(&ApiError::new(ErrorCode::BadMutation, e.to_string())),
            }
        };
        let new_spill = if delta.is_empty() {
            // Content unchanged: forward for the authoritative no-op
            // response, nothing router-side to refresh.
            None
        } else {
            let fingerprint = gms_graph::fingerprint(&patched);
            match self.spill(fingerprint, &patched) {
                Ok(path) => Some((fingerprint, path)),
                Err(answer) => return answer,
            }
        };
        let new_edges = patched.num_arcs() / 2;
        drop(patched);

        let routed = self.exchange(
            &envelope.to_json(),
            None,
            Some(&spec.graph),
            |dead| self.on_backend_death(dead),
            |_| {
                self.ensure_placed(&spec.graph)
                    .ok_or_else(|| self.no_home(&spec.graph))
            },
        );
        let routed = match routed {
            Ok(routed) if routed.ok() => routed,
            uncommitted => {
                // The mutation never committed (dead fleet, shard-side
                // rejection): drop the freshly written spill.
                if let Some((_, path)) = &new_spill {
                    let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
                    if !spill_referenced(&graphs, path) {
                        let _ = std::fs::remove_file(path);
                    }
                }
                return uncommitted.map_or_else(|answer| answer, |routed| routed.annotated(self));
            }
        };
        self.counters.mutations.fetch_add(1, Ordering::Relaxed);
        if let Some((fingerprint, path)) = new_spill {
            let stale_spill = {
                let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
                if let Some(record) = graphs.get_mut(&spec.graph) {
                    record.fingerprint = fingerprint;
                    record.lineage.version += 1;
                    record.edges = new_edges;
                    record.reload = ReloadSource::Spill(path);
                }
                old_spill.filter(|p| !spill_referenced(&graphs, p))
            };
            if let Some(path) = stale_spill {
                let _ = std::fs::remove_file(path);
            }
        }
        routed.annotated(self)
    }

    fn route_run(&self, envelope: &Envelope, spec: &RunSpec) -> Json {
        if !self.knows(&spec.graph) {
            return self.not_found(&spec.graph);
        }
        let place = |failover: bool| {
            let owner = self
                .ensure_placed(&spec.graph)
                .ok_or_else(|| self.no_home(&spec.graph))?;
            if failover && envelope.redirect {
                // The graph moved while this request was in flight
                // and the client asked to manage its own retries.
                self.counters.moved.fetch_add(1, Ordering::Relaxed);
                let moved = ApiError::new(
                    ErrorCode::Moved,
                    format!("graph {:?} moved to a new shard", spec.graph),
                )
                .with_detail("addr", Json::from(self.backends[owner].addr.to_string()));
                return Err(error_json(&moved));
            }
            Ok(owner)
        };
        self.exchange(
            &envelope.to_json(),
            envelope.deadline_ms,
            Some(&spec.graph),
            |dead| self.on_backend_death(dead),
            place,
        )
        .map_or_else(|answer| answer, |routed| routed.annotated(self))
    }

    /// Scatter-gather: runs a batch on the shards owning its graphs
    /// concurrently and reassembles the results in request order.
    fn route_batch(&self, envelope: &Envelope, specs: &[RunSpec]) -> Json {
        let mut results = vec![Json::Null; specs.len()];
        let mut shards = BTreeSet::new();
        let slots = (0..specs.len()).collect();
        self.scatter(envelope, specs, slots, &mut results, &mut shards);
        response(vec![
            ("ok", Json::Bool(true)),
            ("results", Json::Array(results)),
            ("shards", Json::from(shards.len())),
        ])
    }

    /// Places `slots` by graph ownership and sends each owner's
    /// sub-batch through [`Core::exchange`], one scoped thread per
    /// owner. Unknown and homeless graphs answer typed errors without
    /// a shard round trip. A sub-batch whose shard died comes back
    /// (its placement refuses a second owner) and its slots re-enter
    /// here to be placed on the survivors — each re-entry follows a
    /// backend's down-transition, so the depth is bounded by the
    /// fleet size.
    fn scatter(
        &self,
        envelope: &Envelope,
        specs: &[RunSpec],
        slots: Vec<usize>,
        results: &mut [Json],
        shards: &mut BTreeSet<usize>,
    ) {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for slot in slots {
            let graph = &specs[slot].graph;
            if !self.knows(graph) {
                results[slot] = self.not_found(graph);
            } else if let Some(owner) = self.ensure_placed(graph) {
                groups.entry(owner).or_default().push(slot);
            } else {
                results[slot] = self.no_home(graph);
            }
        }
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|(owner, slots)| {
                    // The sub-batch keeps the caller's deadline and
                    // fairness identity, so the shard enforces the
                    // same deadline and accounts the work to the
                    // right client.
                    let sub_batch = Envelope {
                        deadline_ms: envelope.deadline_ms,
                        client: envelope.client.clone(),
                        weight: envelope.weight,
                        ..Envelope::new(Request::Batch(
                            slots.iter().map(|&s| specs[s].clone()).collect(),
                        ))
                    }
                    .to_json();
                    scope.spawn(move || {
                        let routed = self.exchange(
                            &sub_batch,
                            envelope.deadline_ms,
                            None,
                            |dead| self.on_backend_death(dead),
                            |failover| (!failover).then_some(owner).ok_or(Json::Null),
                        );
                        (slots, routed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut orphaned = Vec::new();
        for (slots, routed) in answers {
            let answers = match routed {
                Err(Json::Null) => {
                    orphaned.extend(slots);
                    continue;
                }
                // Retrying elsewhere cannot beat an already-spent
                // deadline: the slots answer typed, the shard stays.
                Err(lapsed) => vec![lapsed; slots.len()],
                Ok(routed) => match routed.response.get("results").and_then(Json::as_array) {
                    Some(items) if items.len() == slots.len() => {
                        shards.insert(routed.owner);
                        items.to_vec()
                    }
                    _ => {
                        let malformed = "shard answered a malformed batch response";
                        let error = ApiError::new(ErrorCode::BackendUnavailable, malformed);
                        vec![error_json(&error); slots.len()]
                    }
                },
            };
            for (slot, answer) in slots.into_iter().zip(answers) {
                results[slot] = answer;
            }
        }
        if !orphaned.is_empty() {
            self.scatter(envelope, specs, orphaned, results, shards);
        }
    }

    /// `kernels` from the first healthy backend.
    fn proxy_kernels(&self) -> Json {
        self.exchange(
            &Envelope::new(Request::Kernels).to_json(),
            None,
            None,
            |dead| self.on_backend_death(dead),
            |_| {
                let first = self.backends.iter().position(Backend::healthy);
                first.ok_or_else(|| self.unavailable("no healthy backends".to_string()))
            },
        )
        .map_or_else(|answer| answer, |routed| routed.annotated(self))
    }

    fn health_json(&self) -> Json {
        let live: Vec<&Backend> = self.backends.iter().filter(|b| b.healthy()).collect();
        let (healthy, workers) = (live.len(), live.iter().map(|b| b.weight).sum::<usize>());
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner()).len();
        response(vec![
            ("ok", Json::Bool(true)),
            (
                "status",
                Json::from(if self.running() {
                    "serving"
                } else {
                    "shutting-down"
                }),
            ),
            ("role", Json::from("router")),
            ("addr", Json::from(self.addr.to_string())),
            ("backends", Json::from(self.backends.len())),
            ("healthy", Json::from(healthy)),
            ("workers", Json::from(workers)),
            ("graphs", Json::from(graphs)),
        ])
    }

    /// Fleet-wide stats: per-backend blocks straight from the shards,
    /// their cache/server counters summed into one fleet aggregate,
    /// the router's own counters, and the authoritative graph table.
    fn stats_json(&self) -> Json {
        const CACHE_KEYS: &[&str] = &[
            "hits",
            "misses",
            "evictions",
            "coalesced",
            "cross_hits",
            "invalidated",
            "migrated",
            "refreshed",
            "stale_drops",
            "entries",
            "capacity",
        ];
        const SERVER_KEYS: &[&str] = &[
            "connections",
            "requests",
            "completed",
            "inline_hits",
            "rejected",
            "malformed",
        ];
        let request = Envelope::new(Request::Stats).to_json();
        let mut cache_totals: BTreeMap<&str, i64> = BTreeMap::new();
        let mut server_totals: BTreeMap<&str, i64> = BTreeMap::new();
        let mut backend_blocks: Vec<Json> = Vec::new();
        for (index, backend) in self.backends.iter().enumerate() {
            let mut fields: Vec<(String, Json)> = vec![
                ("addr".to_string(), Json::from(backend.addr.to_string())),
                ("healthy".to_string(), Json::Bool(backend.healthy())),
                ("weight".to_string(), Json::from(backend.weight)),
                (
                    "served".to_string(),
                    Json::from(backend.served.load(Ordering::Relaxed)),
                ),
            ];
            if backend.healthy() {
                match backend.request(&request, None) {
                    Ok(stats) => {
                        for (section, keys, totals) in [
                            ("cache", CACHE_KEYS, &mut cache_totals),
                            ("server", SERVER_KEYS, &mut server_totals),
                        ] {
                            if let Some(block) = stats.get(section) {
                                for &key in keys {
                                    if let Some(v) = block.get(key).and_then(Json::as_i64) {
                                        *totals.entry(key).or_insert(0) += v;
                                    }
                                }
                                fields.push((section.to_string(), block.clone()));
                            }
                        }
                    }
                    Err(_) => self.on_backend_death(index),
                }
            }
            backend_blocks.push(Json::Object(fields));
        }
        let totals_json = |keys: &[&str], totals: &BTreeMap<&str, i64>| {
            Json::Object(
                keys.iter()
                    .map(|&k| (k.to_string(), Json::from(*totals.get(k).unwrap_or(&0))))
                    .collect(),
            )
        };
        let graphs: Vec<Json> = {
            let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
            graphs
                .iter()
                .map(|(name, record)| {
                    Json::object([
                        ("name", Json::from(name.clone())),
                        (
                            "shard",
                            match record.owner {
                                Some(owner) => Json::from(self.backends[owner].addr.to_string()),
                                None => Json::Null,
                            },
                        ),
                        ("fingerprint", fingerprint_json(record.fingerprint)),
                        (
                            "base_fingerprint",
                            fingerprint_json(record.lineage.base_fingerprint),
                        ),
                        ("version", Json::from(record.lineage.version)),
                        ("vertices", Json::from(record.vertices)),
                        ("edges", Json::from(record.edges)),
                    ])
                })
                .collect()
        };
        let counters = &self.counters;
        let router_block = [
            ("connections", &counters.front.connections),
            ("requests", &counters.front.requests),
            ("routed", &counters.routed),
            ("mutations", &counters.mutations),
            ("malformed", &counters.front.malformed),
            ("failovers", &counters.failovers),
            ("graphs_replaced", &counters.replaced),
            ("moved", &counters.moved),
            ("unavailable", &counters.unavailable),
            ("not_found", &counters.not_found),
            ("deadline_exceeded", &counters.deadline_exceeded),
        ]
        .map(|(name, counter)| (name, Json::from(counter.load(Ordering::Relaxed))));
        let healthy = self.backends.iter().filter(|b| b.healthy()).count();
        response(vec![
            ("ok", Json::Bool(true)),
            ("role", Json::from("router")),
            (
                "fleet",
                Json::object([
                    ("backends", Json::from(self.backends.len())),
                    ("healthy", Json::from(healthy)),
                    ("cache", totals_json(CACHE_KEYS, &cache_totals)),
                    ("server", totals_json(SERVER_KEYS, &server_totals)),
                ]),
            ),
            ("router", Json::object(router_block)),
            ("backends", Json::Array(backend_blocks)),
            ("graphs", Json::Array(graphs)),
        ])
    }
}

/// Whether any record still reloads from `path` — shared-content
/// graphs share spill files (the path is keyed by fingerprint), so a
/// spill is only deletable once the last referent is gone.
fn spill_referenced(graphs: &BTreeMap<String, GraphRecord>, path: &Path) -> bool {
    graphs
        .values()
        .any(|r| r.spill().is_some_and(|p| p == path))
}

/// The routing front end. [`Router::start`] probes every backend,
/// builds the placement ring, binds, and returns a [`RouterHandle`].
pub struct Router;

impl Router {
    /// Starts a router per `config`. Fails on bind errors, an empty
    /// backend list, or any backend not answering its registration
    /// probe.
    pub fn start(config: RouterConfig) -> std::io::Result<RouterHandle> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "a router needs at least one backend",
            ));
        }
        let mut backends = Vec::new();
        for text in &config.backends {
            let addr = text
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "bad backend addr"))?;
            let backend = Backend::register(addr, config.connect_timeout, config.read_timeout)
                .map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!("backend {text} failed registration: {e}"),
                    )
                })?;
            backends.push(backend);
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The default spill dir is this instance's alone — pid plus
        // bound port — so two routers in one process never share (or
        // delete) each other's failover state.
        let (spill_dir, owns_spill_dir) = match &config.spill_dir {
            Some(dir) => (dir.clone(), false),
            None => {
                let name = format!("gms-router-spill-{}-{}", std::process::id(), addr.port());
                (std::env::temp_dir().join(name), true)
            }
        };
        std::fs::create_dir_all(&spill_dir)?;

        let core = Arc::new(Core {
            backends,
            ring: RwLock::new(HashRing::default()),
            graphs: RwLock::new(BTreeMap::new()),
            placement: Mutex::new(()),
            mutation: Mutex::new(()),
            running: AtomicBool::new(true),
            counters: Counters::default(),
            addr,
            spill_dir,
            shutdown_backends: config.shutdown_backends,
        });
        core.rebuild_ring();

        let acceptor = spawn_acceptor(listener, Arc::clone(&core), "gms-router");
        let prober = (config.probe_interval > Duration::ZERO).then(|| {
            let core = Arc::clone(&core);
            let interval = config.probe_interval;
            let timeout = config.probe_timeout;
            std::thread::Builder::new()
                .name("gms-router-probe".to_string())
                .spawn(move || probe_loop(&core, interval, timeout))
                .expect("spawn probe thread")
        });

        Ok(RouterHandle {
            addr,
            core,
            acceptor,
            prober,
            owns_spill_dir,
        })
    }
}

/// A running router: its bound address plus shutdown/join control.
pub struct RouterHandle {
    addr: SocketAddr,
    core: Arc<Core>,
    acceptor: JoinHandle<()>,
    prober: Option<JoinHandle<()>>,
    owns_spill_dir: bool,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown (also triggered by the
    /// protocol's `shutdown` op). Idempotent.
    pub fn shutdown(&self) {
        self.core.begin_shutdown();
    }

    /// Waits for the router to finish, deletes every spill snapshot
    /// the router created, and removes the default spill directory
    /// (an explicitly configured directory is left in place, empty
    /// of router state).
    pub fn join(self) {
        let _ = self.acceptor.join();
        if let Some(prober) = self.prober {
            let _ = prober.join();
        }
        {
            let graphs = self.core.graphs.read().unwrap_or_else(|e| e.into_inner());
            for path in graphs.values().filter_map(GraphRecord::spill) {
                let _ = std::fs::remove_file(path);
            }
        }
        if self.owns_spill_dir {
            let _ = std::fs::remove_dir_all(&self.core.spill_dir);
        }
    }
}

fn probe_loop(core: &Core, interval: Duration, timeout: Duration) {
    while core.running() {
        std::thread::sleep(interval);
        for index in 0..core.backends.len() {
            if !core.running() {
                return;
            }
            let backend = &core.backends[index];
            if backend.healthy() && !backend.probe(timeout) {
                core.on_backend_death(index);
            }
        }
    }
}
