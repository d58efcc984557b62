//! The server: the local executor behind the
//! [`Service`] seam — an admission queue
//! and a fixed pool of worker threads over one table of resident
//! graphs and one shared [`ResultCache`].
//!
//! ```text
//!  front end (service.rs)                          graphs: name → Resident
//!  NDJSON | HTTP ─► Shared::call                   shared cache + single-flight
//!                    │ control ops ─► answered inline
//!                    │ run ─► hit probe: try_read graphs, Engine::key,
//!                    │        ResultCache::try_get ── hit ─► admit_inline
//!                    │        (never waits on a lock)        (token bucket)
//!                    │                                       ─► answered inline
//!                    │ miss, contended lock, load, mutate, batch
//!                    ▼
//!                  try_submit ─► bounded queue ─► worker 0 | worker 1
//!                  (queue-full ⇒ 429 analog)      Engine::{admit, run, mutate}
//!                                                 ─► Reply
//! ```
//!
//! The split mirrors the admission/execution separation of HTAP
//! serving systems: `call` answers the cheap control-plane requests
//! (`health`, `stats`, `kernels`, `shutdown`) on the connection
//! thread, and so is a `run` whose outcome is already cached: the
//! probe only *tries* the graphs table and the cache lock, so a hit
//! never queues behind a mutation holding either — a contended probe
//! simply takes the queue. A hit pays the client's token bucket but
//! no queue slot, since it occupies no worker. Everything that costs
//! kernel or I/O time (`load`, a run that misses, `batch`, mutations)
//! must pass the bounded [`AdmissionQueue`] first, so a traffic spike
//! degrades into fast `queue-full` rejections instead of
//! oversubscribing the compute pool. The worker count is fixed at
//! startup, and a panic inside a job is contained and answered
//! `internal`: the worker lives on. Workers are plain threads, not
//! [`Session`](gms_platform::kernel::Session)s: the server keeps its
//! graphs by *name* in one `RwLock`ed table every worker sees, where
//! a session keeps them by handle — but an entry of either table is
//! the same [`Resident`], and registering, running and mutating one
//! are the same three [`Engine`] operations, so the two cannot
//! disagree on what a re-load, a cache key or a mutation means. What
//! is the server's own is the lock discipline: a run clones its
//! resident out of the read lock and computes outside it, so a
//! mutation — serialized under the write lock — swaps the next
//! version in under readers still running on the old one. Each worker
//! has its own owner tag on the shared result cache, so duplicate
//! requests landing on different workers still resolve to one kernel
//! execution (single-flight) and show up as cross-session hits in the
//! stats endpoint.

use crate::admission::{AdmissionQueue, RateLimit, SubmitError};
use crate::json::Json;
use crate::protocol::{
    error_json, graph_members, mutation_json, outcome_json, outcome_json_full, response,
    shutdown_ack, ApiError, Envelope, ErrorCode, LoadCompression, LoadSpec, MutateSpec, Request,
    RunSpec,
};
use crate::service::{spawn_acceptor, FrontCounters, Reply, Service};
use gms_graph::io::load_graph;
use gms_graph::CompressedCsr;
use gms_platform::kernel::{
    next_owner, Bounds, CancelToken, Engine, GraphStore, KernelError, MutationOutcome, Outcome,
    Registry, Resident, ResultCache,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back
    /// from [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Admission-queue bound: pending requests beyond this are
    /// rejected with `queue-full`.
    pub queue_capacity: usize,
    /// Shared result-cache capacity in outcomes.
    pub cache_capacity: usize,
    /// Optional per-client token-bucket rate limit applied at
    /// admission (`None` = unlimited, the pre-v1 behavior).
    pub rate_limit: Option<RateLimit>,
    /// Largest inline request body (HTTP body or NDJSON line) in
    /// bytes; larger requests are rejected with `payload-too-large`
    /// *before* being materialized.
    pub max_body_bytes: usize,
    /// How long a peer may take to deliver one complete request
    /// (line or HTTP head) before the slow-loris guard answers
    /// `timeout` and closes the connection.
    pub request_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            rate_limit: None,
            max_body_bytes: 8 * 1024 * 1024,
            request_timeout: Duration::from_secs(5),
        }
    }
}

#[derive(Default)]
struct Counters {
    front: FrontCounters,
    completed: AtomicU64,
    /// Runs answered from the cache on their connection thread,
    /// never queued (a subset of `completed`).
    inline_hits: AtomicU64,
    rejected: AtomicU64,
    /// Requests refused by a per-client token bucket.
    rate_limited: AtomicU64,
    /// Requests that failed with `deadline-exceeded`.
    deadline_exceeded: AtomicU64,
}

pub(crate) struct Shared {
    engine: Engine,
    /// The residents by name. Runs clone one out under the read lock
    /// and compute outside it; loads and mutations swap the next
    /// version in under the write lock.
    graphs: RwLock<BTreeMap<String, Resident>>,
    queue: AdmissionQueue<Job>,
    running: AtomicBool,
    counters: Counters,
    worker_served: Vec<AtomicU64>,
    /// The cache owner tag of hits answered on connection threads.
    inline_owner: u64,
    addr: SocketAddr,
    max_body_bytes: usize,
    request_timeout: Duration,
}

impl Shared {
    /// Idempotent: stop admitting, drain the queue, wake the
    /// acceptor.
    fn begin_shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            self.queue.close();
            // Unblock the acceptor's `accept()` with a throwaway
            // connection; if that fails the acceptor still exits on
            // its next successful accept.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// The local executor: control ops and cache hits are answered here,
/// on the connection thread; other data ops must pass admission
/// control and are answered by whichever worker dequeues them.
impl Service for Shared {
    fn running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    fn call(&self, envelope: Envelope, reply: Reply) {
        let op = match envelope.request {
            Request::Health => return reply.deliver(health_json(self)),
            Request::Kernels => return reply.deliver(kernels_json(self)),
            Request::Stats => return reply.deliver(stats_json(self)),
            Request::Shutdown => {
                reply.deliver(shutdown_ack());
                return self.begin_shutdown();
            }
            Request::Load(spec) => DataOp::Load(spec),
            Request::Mutate(spec) => DataOp::Mutate(spec),
            Request::Run(spec) => DataOp::Run(spec),
            Request::Batch(specs) => DataOp::Batch(specs),
        };
        let cancel = match envelope.deadline_ms {
            Some(ms) => CancelToken::after(Duration::from_millis(ms)),
            None => CancelToken::none(),
        };
        let client = envelope.client.as_deref().unwrap_or("");
        if let DataOp::Run(spec) = &op {
            if let Some(answer) = self.answer_hit(
                spec,
                client,
                envelope.weight,
                &cancel,
                envelope.full_payload,
            ) {
                return reply.deliver(answer);
            }
        }
        let job = Job {
            op,
            reply,
            cancel,
            full_payload: envelope.full_payload,
        };
        self.submit(job, client, envelope.weight);
    }

    fn front(&self) -> &FrontCounters {
        &self.counters.front
    }

    fn max_body_bytes(&self) -> usize {
        self.max_body_bytes
    }

    fn http(&self) -> Option<Duration> {
        Some(self.request_timeout)
    }
}

enum DataOp {
    Load(LoadSpec),
    Mutate(MutateSpec),
    Run(RunSpec),
    Batch(Vec<RunSpec>),
}

pub(crate) struct Job {
    op: DataOp,
    reply: Reply,
    /// The propagated request deadline; workers probe it before and
    /// during kernel execution.
    cancel: CancelToken,
    /// Render the full payload items into the response (the
    /// streaming HTTP endpoints page over them); NDJSON responses
    /// keep the compact summary.
    full_payload: bool,
}

/// The serving front end. [`Server::start`] binds, spawns the
/// acceptor and worker threads, and returns a [`ServerHandle`].
pub struct Server;

impl Server {
    /// Starts a server per `config`. Fails only on bind errors; after
    /// this returns the server is accepting connections.
    pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
        launch(config, Registry::with_builtins())
    }
}

/// [`Server::start`] over any kernel registry.
fn launch(config: ServeConfig, registry: Registry) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        engine: Engine {
            registry,
            cache: Arc::new(ResultCache::new(config.cache_capacity)),
        },
        graphs: RwLock::new(BTreeMap::new()),
        queue: AdmissionQueue::with_rate_limit(config.queue_capacity, config.rate_limit),
        running: AtomicBool::new(true),
        counters: Counters::default(),
        worker_served: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        inline_owner: next_owner(),
        addr,
        max_body_bytes: config.max_body_bytes,
        request_timeout: config.request_timeout,
    });

    let worker_threads: Vec<JoinHandle<()>> = (0..workers)
        .map(|index| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gms-serve-worker-{index}"))
                .spawn(move || worker_loop(&shared, index))
                .expect("spawn worker thread")
        })
        .collect();

    let acceptor = spawn_acceptor(listener, Arc::clone(&shared), "gms-serve");

    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
        workers: worker_threads,
    })
}

/// A running server: its bound address plus shutdown/join control.
/// Dropping the handle without calling [`ServerHandle::join`] leaves
/// the server running detached until a client sends `shutdown`.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown: stop accepting, answer
    /// everything already admitted, exit. Idempotent; also triggered
    /// by the protocol's `shutdown` op.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the server to finish (after [`ServerHandle::shutdown`]
    /// or a client-driven `shutdown` op).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

impl Shared {
    /// Admission control: data-plane requests either enter the
    /// bounded queue under their client's identity and weight, or are
    /// rejected right here on the connection thread — the rejection
    /// travels back through the job's own reply, so NDJSON and HTTP
    /// callers share one code path.
    fn submit(&self, job: Job, client: &str, weight: u32) {
        if !self.running() {
            return job.reply.deliver(error_json(&shutting_down()));
        }
        if let Err(refusal) = self.queue.try_submit_as(client, weight, job) {
            let (job, error) = self.refused(refusal, client);
            job.reply.deliver(error_json(&error));
        }
    }

    /// Counts and words an admission refusal, handing back what was
    /// refused.
    fn refused<T>(&self, refusal: SubmitError<T>, client: &str) -> (T, ApiError) {
        match refusal {
            SubmitError::Full(item) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let error = ApiError::new(
                    ErrorCode::QueueFull,
                    format!(
                        "admission queue at capacity ({}); retry later",
                        self.queue.capacity()
                    ),
                );
                (item, error)
            }
            SubmitError::RateLimited(item) => {
                self.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
                let error = ApiError::new(
                    ErrorCode::RateLimited,
                    format!("client {client:?} is over its rate limit; slow down"),
                );
                (item, error)
            }
            SubmitError::Closed(item) => (item, shutting_down()),
        }
    }

    /// The hit path: answers a `run` whose outcome is already cached
    /// on the connection thread, before the queue. The hit pays the
    /// client's token bucket ([`AdmissionQueue::admit_inline`]) but
    /// no queue slot, and wakes no worker. `None` sends the request
    /// to the queue as before: a spent deadline (the worker answers
    /// it), a stopping server, a miss, a lock another thread holds,
    /// or a request no key can be built for. A panic on the way is
    /// contained and answered `internal`.
    fn answer_hit(
        &self,
        spec: &RunSpec,
        client: &str,
        weight: u32,
        cancel: &CancelToken,
        full_payload: bool,
    ) -> Option<Json> {
        if !self.running() || cancel.expired() {
            return None;
        }
        let hit = || {
            let outcome = self.probe_hit(spec)?;
            Some(match self.queue.admit_inline(client, weight) {
                Ok(()) => {
                    self.counters.inline_hits.fetch_add(1, Ordering::Relaxed);
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    run_json(spec, &outcome, full_payload)
                }
                Err(refusal) => error_json(&self.refused(refusal, client).1),
            })
        };
        catch_unwind(AssertUnwindSafe(hit)).unwrap_or_else(|panic| Some(contained(panic)))
    }

    /// The non-blocking hit probe: the resident out of the graphs
    /// table, its [`Engine::key`], then [`ResultCache::try_get`]. Each
    /// lock is only tried, so a mutation holding the table's write
    /// lock, or migrating entries under the cache lock, delays no
    /// hit: the probe answers `None` at once.
    fn probe_hit(&self, spec: &RunSpec) -> Option<Outcome> {
        let resident = match self.graphs.try_read() {
            Ok(graphs) => graphs.get(&spec.graph).cloned(),
            Err(TryLockError::Poisoned(graphs)) => graphs.into_inner().get(&spec.graph).cloned(),
            Err(TryLockError::WouldBlock) => None,
        }?;
        let request = self
            .engine
            .key(&resident, &spec.kernel, &spec.params)
            .ok()?;
        self.engine.cache.try_get(&request.key, self.inline_owner)
    }
}

fn shutting_down() -> ApiError {
    ApiError::new(ErrorCode::ShuttingDown, "server is shutting down")
}

/// The backstop's answer: a panic that escaped a request, contained.
fn contained(panic: Box<dyn Any + Send>) -> Json {
    let message = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string panic payload");
    error_json(&ApiError::new(
        ErrorCode::Internal,
        format!("the request panicked and was contained: {message}"),
    ))
}

/// Renders a successful run: the one rendering both the worker and
/// the hit path answer with.
fn run_json(spec: &RunSpec, outcome: &Outcome, full_payload: bool) -> Json {
    if full_payload {
        outcome_json_full(spec, outcome)
    } else {
        outcome_json(spec, outcome)
    }
}

/// One worker: drains the admission queue until the server shuts
/// down. The owner tag attributes this worker's cache traffic,
/// so hits on entries another worker paid for count as cross-session.
///
/// The backstop: a panic anywhere in a job — kernel, patch or render —
/// is answered `internal`, and the worker takes the next job. A run
/// that panicked as single-flight leader releases its slot through
/// the cache's own guard, which promotes a waiting duplicate.
fn worker_loop(shared: &Shared, index: usize) {
    let owner = next_owner();
    while let Some(job) = shared.queue.dequeue() {
        let Job {
            op,
            reply,
            cancel,
            full_payload,
        } = job;
        let answer = catch_unwind(AssertUnwindSafe(|| {
            execute_job(shared, owner, &op, &cancel, full_payload)
        }))
        .unwrap_or_else(contained);
        reply.deliver(answer);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        shared.worker_served[index].fetch_add(1, Ordering::Relaxed);
    }
}

/// Answers one admitted job.
fn execute_job(
    shared: &Shared,
    owner: u64,
    op: &DataOp,
    cancel: &CancelToken,
    full_payload: bool,
) -> Json {
    let lapsed = || {
        ApiError::new(
            ErrorCode::DeadlineExceeded,
            "deadline exceeded before the request completed",
        )
    };
    let fail = |e: &ApiError| {
        if e.code == ErrorCode::DeadlineExceeded {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
        }
        error_json(e)
    };
    // A request whose deadline passed while queued — or, for a batch
    // item, while earlier items ran — fails without costing any
    // kernel time: the worker is immediately free for the next job.
    let run = |spec: &RunSpec| {
        if cancel.expired() {
            return fail(&lapsed());
        }
        match execute_run(shared, owner, spec, cancel) {
            Ok(outcome) => run_json(spec, &outcome, full_payload),
            Err(e) => fail(&e),
        }
    };
    match op {
        _ if cancel.expired() => fail(&lapsed()),
        DataOp::Load(spec) => execute_load(shared, spec).unwrap_or_else(|e| error_json(&e)),
        DataOp::Mutate(spec) => match execute_mutate(shared, spec) {
            Ok(outcome) => mutation_json(&spec.graph, &outcome),
            Err(e) => error_json(&e),
        },
        DataOp::Run(spec) => run(spec),
        DataOp::Batch(specs) => response(vec![
            ("ok", Json::Bool(true)),
            ("results", Json::Array(specs.iter().map(run).collect())),
        ]),
    }
}

fn unknown_graph(name: &str) -> ApiError {
    ApiError::new(
        ErrorCode::UnknownGraph,
        format!("no graph loaded under {name:?}"),
    )
}

/// Loads and fingerprints the graph outside any lock, then registers
/// it under the write lock ([`Engine::admit`]): a retried `load`
/// whose earlier attempt died after registering finds identical
/// content under the name and changes nothing; a re-load of the same content in another
/// representation swaps the store and keeps lineage, version and
/// cache lines; new content replaces and invalidates. The reply
/// describes the resident actually held.
fn execute_load(shared: &Shared, spec: &LoadSpec) -> Result<Json, ApiError> {
    let store = load_graph(spec.format, spec.source.as_graph_source())
        .map_err(|e| ApiError::new(ErrorCode::Io, e.to_string()))?;
    // `compression: "gap"` recompresses whatever arrived raw; the
    // fingerprint is order-preserving, so cached outcomes carry over.
    let store = match (spec.compression, store) {
        (LoadCompression::Gap, GraphStore::Csr(g)) => {
            GraphStore::Compressed(CompressedCsr::from_csr(&g))
        }
        (_, store) => store,
    };
    let fresh = Resident::new(store);
    let mut graphs = shared.graphs.write().unwrap_or_else(|e| e.into_inner());
    let old = graphs.get(&spec.name);
    let (resident, invalidated) = shared.engine.admit(fresh, old, graphs.values());
    let mut body = vec![("ok", Json::Bool(true))];
    body.extend(graph_members("graph", &spec.name, &resident));
    body.push(("replaced", Json::from(old.is_some())));
    body.push(("invalidated", Json::from(invalidated)));
    graphs.insert(spec.name.clone(), resident);
    Ok(response(body))
}

/// Applies a batched edge mutation under the graphs write lock, so
/// mutations to one graph serialize and no kernel admission can
/// observe a half-swapped entry ([`Engine::mutate`]). An in-flight
/// kernel still computing against the old content cannot resurrect a
/// migrated-away entry — its late insert is dropped by the cache's
/// invalidation epoch (`stale_drops`).
fn execute_mutate(shared: &Shared, spec: &MutateSpec) -> Result<MutationOutcome, ApiError> {
    let mut graphs = shared.graphs.write().unwrap_or_else(|e| e.into_inner());
    let resident = graphs
        .get(&spec.graph)
        .ok_or_else(|| unknown_graph(&spec.graph))?;
    let (next, outcome) = shared
        .engine
        .mutate(resident, &spec.add, &spec.remove, graphs.values())
        .map_err(|e| match e {
            // The bare patch error, as the router words its own rejections.
            KernelError::BadMutation { message } => ApiError::new(ErrorCode::BadMutation, message),
            other => ApiError::from_kernel(&other),
        })?;
    *graphs.get_mut(&spec.graph).expect("entry checked above") = next;
    Ok(outcome)
}

fn execute_run(
    shared: &Shared,
    owner: u64,
    spec: &RunSpec,
    cancel: &CancelToken,
) -> Result<Outcome, ApiError> {
    let resident = {
        let graphs = shared.graphs.read().unwrap_or_else(|e| e.into_inner());
        graphs.get(&spec.graph).cloned()
    };
    let resident = resident.ok_or_else(|| unknown_graph(&spec.graph))?;
    shared
        .engine
        .key(&resident, &spec.kernel, &spec.params)
        .and_then(|request| shared.engine.run(&request, cancel, owner))
        .map_err(|e| ApiError::from_kernel(&e))
}

fn health_json(shared: &Shared) -> Json {
    let graphs = shared.graphs.read().unwrap_or_else(|e| e.into_inner());
    response(vec![
        ("ok", Json::Bool(true)),
        (
            "status",
            Json::from(if shared.running() {
                "serving"
            } else {
                "shutting-down"
            }),
        ),
        ("addr", Json::from(shared.addr.to_string())),
        ("kernels", Json::from(shared.engine.registry.len())),
        ("graphs", Json::from(graphs.len())),
        ("workers", Json::from(shared.worker_served.len())),
        ("queue_depth", Json::from(shared.queue.depth())),
        ("queue_capacity", Json::from(shared.queue.capacity())),
    ])
}

fn kernels_json(shared: &Shared) -> Json {
    let kernels: Vec<Json> = shared
        .engine
        .registry
        .iter()
        .map(|k| {
            let params: Vec<Json> = k
                .params()
                .iter()
                .map(|spec| {
                    let mut members = vec![
                        ("name", Json::from(spec.name)),
                        ("kind", Json::from(spec.kind.to_string())),
                        ("default", Json::from(spec.default.render())),
                        (
                            "choices",
                            Json::Array(spec.choices.iter().map(|&c| Json::from(c)).collect()),
                        ),
                    ];
                    members.extend(match spec.bounds {
                        Some(Bounds::Int(min, max)) => {
                            vec![("min", Json::from(min)), ("max", Json::from(max))]
                        }
                        Some(Bounds::Float(min, max)) => {
                            vec![("min", Json::from(min)), ("max", Json::from(max))]
                        }
                        None => Vec::new(),
                    });
                    Json::object(members)
                })
                .collect();
            Json::object([
                ("name", Json::from(k.name())),
                ("category", Json::from(k.category().label())),
                ("about", Json::from(k.about())),
                ("params", Json::Array(params)),
            ])
        })
        .collect();
    response(vec![
        ("ok", Json::Bool(true)),
        ("kernels", Json::Array(kernels)),
    ])
}

fn stats_json(shared: &Shared) -> Json {
    let cache = shared.engine.cache.stats();
    let counters = &shared.counters;
    let graphs: Vec<Json> = {
        let graphs = shared.graphs.read().unwrap_or_else(|e| e.into_inner());
        graphs
            .iter()
            .map(|(name, resident)| Json::object(graph_members("name", name, resident)))
            .collect()
    };
    let count = |counter: &AtomicU64| Json::from(counter.load(Ordering::Relaxed));
    let worker_served: Vec<Json> = shared.worker_served.iter().map(count).collect();
    response(vec![
        ("ok", Json::Bool(true)),
        (
            "cache",
            Json::object([
                ("hits", Json::from(cache.hits)),
                ("misses", Json::from(cache.misses)),
                ("evictions", Json::from(cache.evictions)),
                ("coalesced", Json::from(cache.coalesced)),
                ("cross_hits", Json::from(cache.cross_hits)),
                ("invalidated", Json::from(cache.invalidated)),
                ("migrated", Json::from(cache.migrated)),
                ("refreshed", Json::from(cache.refreshed)),
                ("stale_drops", Json::from(cache.stale_drops)),
                ("entries", Json::from(cache.entries)),
                ("capacity", Json::from(cache.capacity)),
            ]),
        ),
        (
            "server",
            Json::object([
                ("workers", Json::from(shared.worker_served.len())),
                ("connections", count(&counters.front.connections)),
                ("requests", count(&counters.front.requests)),
                ("completed", count(&counters.completed)),
                ("inline_hits", count(&counters.inline_hits)),
                ("rejected", count(&counters.rejected)),
                ("malformed", count(&counters.front.malformed)),
                ("rate_limited", count(&counters.rate_limited)),
                ("deadline_exceeded", count(&counters.deadline_exceeded)),
                ("http_requests", count(&counters.front.http_requests)),
                ("queue_depth", Json::from(shared.queue.depth())),
                ("queue_capacity", Json::from(shared.queue.capacity())),
                ("worker_served", Json::Array(worker_served)),
            ]),
        ),
        (
            "clients",
            Json::Array(
                shared
                    .queue
                    .client_stats()
                    .into_iter()
                    .map(|c| {
                        Json::object([
                            ("client", Json::from(c.client)),
                            ("weight", Json::from(u64::from(c.weight))),
                            ("pending", Json::from(c.pending)),
                            ("admitted", Json::from(c.admitted)),
                            ("served", Json::from(c.served)),
                            ("shed", Json::from(c.shed)),
                            ("rate_limited", Json::from(c.rate_limited)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("graphs", Json::Array(graphs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientBuilder};
    use crate::service::SyncReply;
    use gms_core::Graph;
    use gms_platform::kernel::{Category, Kernel, MigrationDecision, ParamSpec, Params, RunCx};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};
    use std::time::Instant;

    /// What the test-only `panics-once` kernel shares with its test:
    /// its first run meets the test at `entered`, waits for `release`
    /// and panics; every later run answers the vertex count and notes
    /// whether it began before the first run ended.
    struct Gate {
        calls: AtomicUsize,
        entered: Barrier,
        release: Barrier,
        first_ended: AtomicBool,
        overlapped: AtomicBool,
    }

    struct PanicsOnce(Arc<Gate>);

    impl Kernel for PanicsOnce {
        fn name(&self) -> &'static str {
            "panics-once"
        }

        fn category(&self) -> Category {
            Category::Pattern
        }

        fn about(&self) -> &'static str {
            "test kernel: its first run panics"
        }

        fn params(&self) -> &'static [ParamSpec] {
            &[]
        }

        fn run(&self, cx: &RunCx<'_>) -> Result<Outcome, KernelError> {
            let gate = &self.0;
            if gate.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                gate.entered.wait();
                gate.release.wait();
                gate.first_ended.store(true, Ordering::SeqCst);
                panic!("the first run panics");
            }
            if !gate.first_ended.load(Ordering::SeqCst) {
                gate.overlapped.store(true, Ordering::SeqCst);
            }
            Ok(Outcome::new("panics-once", cx.csr().num_vertices() as u64))
        }
    }

    /// A server with `workers` workers, `panics-once` registered beside
    /// the built-ins, and a triangle loaded as `g`.
    fn launch_with_panics_once(workers: usize) -> (ServerHandle, Arc<Gate>) {
        let gate = Arc::new(Gate {
            calls: AtomicUsize::new(0),
            entered: Barrier::new(2),
            release: Barrier::new(2),
            first_ended: AtomicBool::new(false),
            overlapped: AtomicBool::new(false),
        });
        let mut registry = Registry::with_builtins();
        registry.register(Box::new(PanicsOnce(Arc::clone(&gate))));
        let config = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let handle = launch(config, registry).expect("server start");
        let loaded = connect(handle.addr())
            .load_inline("g", "edge-list", "0 1\n1 2\n2 0\n")
            .unwrap();
        assert_eq!(loaded.get("ok"), Some(&Json::Bool(true)));
        (handle, gate)
    }

    /// Sends `panics-once` on `g` from a thread of its own.
    fn spawn_run(addr: SocketAddr) -> std::thread::JoinHandle<Json> {
        std::thread::spawn(move || connect(addr).run("panics-once", "g", &[]).unwrap())
    }

    /// A client that fails instead of hanging when a reply never comes
    /// (a dead worker drops its job's reply).
    fn connect(addr: SocketAddr) -> Client {
        ClientBuilder::new()
            .read_timeout(Duration::from_secs(10))
            .connect(addr)
            .unwrap()
    }

    fn error_code(reply: &Json) -> Option<&str> {
        reply.get("error")?.get("code")?.as_str()
    }

    fn stop(handle: ServerHandle) {
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn a_kernel_panic_answers_internal_and_the_worker_serves_on() {
        // One worker: the job after the panic can only be answered by
        // the worker that panicked.
        let (handle, gate) = launch_with_panics_once(1);
        let leader = spawn_run(handle.addr());
        gate.entered.wait();
        gate.release.wait();
        let panicked = leader.join().unwrap();
        assert_eq!(
            error_code(&panicked),
            Some("internal"),
            "{}",
            panicked.render()
        );
        let error = panicked.get("error").unwrap();
        assert_eq!(error.get("retryable"), Some(&Json::Bool(false)));
        let mut client = connect(handle.addr());
        let next = client.run("triangle-count", "g", &[]).unwrap();
        assert_eq!(
            next.get("patterns"),
            Some(&Json::Int(1)),
            "{}",
            next.render()
        );
        let retried = client.run("panics-once", "g", &[]).unwrap();
        assert_eq!(
            retried.get("cached"),
            Some(&Json::Bool(false)),
            "nothing was cached"
        );
        assert_eq!(retried.get("patterns"), Some(&Json::Int(3)));
        // Joined, the worker has counted every job it answered.
        let shared = Arc::clone(&handle.shared);
        stop(handle);
        let served = shared.worker_served[0].load(Ordering::Relaxed);
        assert_eq!(served, 4, "the load and all three runs, on the one worker");

        // Two workers: a duplicate sent while the leader is inside the
        // kernel waits on the leader's single flight, and is promoted
        // to run it when the leader panics.
        let (handle, gate) = launch_with_panics_once(2);
        let leader = spawn_run(handle.addr());
        gate.entered.wait();
        let waiter = spawn_run(handle.addr());
        // The idle worker takes the duplicate off the queue, finds the
        // flight and parks on it; the margin covers that last step.
        let shared = &handle.shared;
        let requests = || shared.counters.front.requests.load(Ordering::Relaxed);
        while requests() < 3 || shared.queue.depth() > 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        gate.release.wait();
        let (leader, waiter) = (leader.join().unwrap(), waiter.join().unwrap());
        assert_eq!(error_code(&leader), Some("internal"), "{}", leader.render());
        assert_eq!(
            waiter.get("patterns"),
            Some(&Json::Int(3)),
            "{}",
            waiter.render()
        );
        assert_eq!(
            gate.calls.load(Ordering::SeqCst),
            2,
            "the waiter ran it, once"
        );
        assert!(
            !gate.overlapped.load(Ordering::SeqCst),
            "only after the leader ended"
        );
        let cache = handle.shared.engine.cache.stats();
        assert_eq!((cache.misses, cache.entries), (2, 1));
        stop(handle);
    }

    /// The wire refuses `deadline_ms: 0`, so the spent deadline is
    /// built in process: an envelope whose token has fired before
    /// `call` sees it. The hit probe must not answer it; the worker
    /// does, `deadline-exceeded`, exactly as before the probe existed.
    #[test]
    fn a_hit_with_a_spent_deadline_still_answers_deadline_exceeded() {
        let handle = launch(ServeConfig::default(), Registry::with_builtins()).unwrap();
        let mut client = connect(handle.addr());
        client
            .load_inline("g", "edge-list", "0 1\n1 2\n2 0\n")
            .unwrap();
        client.run("triangle-count", "g", &[]).unwrap();
        let run = |deadline_ms: Option<u64>| {
            let mut envelope = Envelope::new(Request::Run(RunSpec {
                kernel: "triangle-count".to_string(),
                graph: "g".to_string(),
                params: Params::new(),
            }));
            envelope.deadline_ms = deadline_ms;
            let slot = SyncReply::new();
            handle.shared.call(envelope, Reply::sync(Arc::clone(&slot)));
            slot.recv()
        };
        let lapsed = run(Some(0));
        assert_eq!(
            error_code(&lapsed),
            Some("deadline-exceeded"),
            "{}",
            lapsed.render()
        );
        let counters = &handle.shared.counters;
        assert_eq!(counters.inline_hits.load(Ordering::Relaxed), 0);
        assert_eq!(counters.deadline_exceeded.load(Ordering::Relaxed), 1);
        let hit = run(Some(60_000));
        assert_eq!(
            hit.get("cached"),
            Some(&Json::Bool(true)),
            "{}",
            hit.render()
        );
        assert_eq!(counters.inline_hits.load(Ordering::Relaxed), 1);
        stop(handle);
    }

    #[test]
    fn the_hit_probe_never_waits_on_a_held_lock() {
        let handle = launch(ServeConfig::default(), Registry::with_builtins()).unwrap();
        let mut client = connect(handle.addr());
        for (name, edges) in [("g", "0 1\n1 2\n2 0\n"), ("h", "0 1\n1 2\n")] {
            client.load_inline(name, "edge-list", edges).unwrap();
            client.run("triangle-count", name, &[]).unwrap();
        }
        let shared = Arc::clone(&handle.shared);
        let spec = RunSpec {
            kernel: "triangle-count".to_string(),
            graph: "g".to_string(),
            params: Params::new(),
        };
        // Each probe runs on its own thread; one that waited on a
        // held lock would miss this bound.
        let probe = || {
            let (shared, spec) = (Arc::clone(&shared), spec.clone());
            let (done, answer) = mpsc::channel();
            let started = Instant::now();
            let prober = std::thread::spawn(move || {
                let _ = done.send(shared.probe_hit(&spec).is_some());
            });
            let hit = answer
                .recv_timeout(Duration::from_secs(1))
                .expect("the probe waited on a held lock");
            let took = started.elapsed();
            prober.join().unwrap();
            (hit, took)
        };
        assert!(probe().0, "nothing held: the probe hits");

        let table = shared.graphs.write().unwrap();
        let (hit, took) = probe();
        assert!(!hit, "the graphs table is write-locked: no answer");
        assert!(took < Duration::from_secs(1));
        drop(table);

        // A migration holds the cache lock through each per-entry
        // decision; hold it there, on the other graph's entry.
        let h = shared.graphs.read().unwrap()["h"].fingerprint();
        let (held, is_held) = mpsc::channel();
        let (release, on_release) = mpsc::channel::<()>();
        let migration = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                shared
                    .engine
                    .cache
                    .migrate_fingerprint(h, h ^ 1, 3, 4, |_, _| {
                        held.send(()).unwrap();
                        let _ = on_release.recv();
                        MigrationDecision::Keep
                    })
            })
        };
        is_held.recv().unwrap();
        let (hit, took) = probe();
        assert!(!hit, "the cache lock is held: no answer");
        assert!(took < Duration::from_secs(1));
        release.send(()).unwrap();
        migration.join().unwrap();
        assert!(probe().0, "released: the probe hits again");
        stop(handle);
    }
}
