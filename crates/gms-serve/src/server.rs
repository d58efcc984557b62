//! The server: the local executor behind the
//! [`Service`] seam — an admission queue
//! and a fixed pool of worker threads over one table of resident
//! graphs and one shared [`ResultCache`].
//!
//! ```text
//!  front end (service.rs)         try_submit   ┌─ worker 0 ─┐   graphs: name → Resident
//!  NDJSON | HTTP ─► Shared::call ─────────────►│ dequeue,   │──► Engine::{admit, run,
//!                   control ops   bounded queue│ execute    │    mutate} ──► Reply
//!                   answered      (queue-full ⇒└─ worker 1 ─┘   shared cache
//!                   inline         429 analog)                  + single-flight
//! ```
//!
//! The split mirrors the admission/execution separation of HTAP
//! serving systems: `call` answers the cheap control-plane requests
//! (`health`, `stats`, `kernels`, `shutdown`) on the connection
//! thread; everything that costs kernel or I/O time (`load`, `run`,
//! `batch`, mutations) must pass the bounded [`AdmissionQueue`]
//! first, so a traffic spike degrades into fast `queue-full`
//! rejections instead of oversubscribing the compute pool. The
//! worker count is fixed at startup. Workers are plain threads, not
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
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
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

/// The local executor: control ops are answered here, on the
/// connection thread; data ops must pass admission control and are
/// answered by whichever worker dequeues them.
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
        let job = Job {
            op,
            reply,
            cancel,
            full_payload: envelope.full_payload,
        };
        let client = envelope.client.as_deref().unwrap_or("");
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
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine: Engine {
                registry: Registry::with_builtins(),
                cache: Arc::new(ResultCache::new(config.cache_capacity)),
            },
            graphs: RwLock::new(BTreeMap::new()),
            queue: AdmissionQueue::with_rate_limit(config.queue_capacity, config.rate_limit),
            running: AtomicBool::new(true),
            counters: Counters::default(),
            worker_served: (0..workers).map(|_| AtomicU64::new(0)).collect(),
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
        let shutting_down = || ApiError::new(ErrorCode::ShuttingDown, "server is shutting down");
        if !self.running() {
            return job.reply.deliver(error_json(&shutting_down()));
        }
        let (job, error) = match self.queue.try_submit_as(client, weight, job) {
            Ok(()) => return,
            Err(SubmitError::Full(job)) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let error = ApiError::new(
                    ErrorCode::QueueFull,
                    format!(
                        "admission queue at capacity ({}); retry later",
                        self.queue.capacity()
                    ),
                );
                (job, error)
            }
            Err(SubmitError::RateLimited(job)) => {
                self.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
                let error = ApiError::new(
                    ErrorCode::RateLimited,
                    format!("client {client:?} is over its rate limit; slow down"),
                );
                (job, error)
            }
            Err(SubmitError::Closed(job)) => (job, shutting_down()),
        };
        job.reply.deliver(error_json(&error));
    }
}

/// One worker: drains the admission queue until the server shuts
/// down. The owner tag attributes this worker's cache traffic,
/// so hits on entries another worker paid for count as cross-session.
fn worker_loop(shared: &Shared, index: usize) {
    let owner = next_owner();
    while let Some(job) = shared.queue.dequeue() {
        let Job {
            op,
            reply,
            cancel,
            full_payload,
        } = job;
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
        // A request whose deadline passed while queued — or, for a
        // batch item, while earlier items ran — fails without costing
        // any kernel time: the worker is immediately free for the
        // next job.
        let run = |spec: &RunSpec| {
            if cancel.expired() {
                return fail(&lapsed());
            }
            match execute_run(shared, owner, spec, &cancel) {
                Ok(outcome) if full_payload => outcome_json_full(spec, &outcome),
                Ok(outcome) => outcome_json(spec, &outcome),
                Err(e) => fail(&e),
            }
        };
        let answer = match &op {
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
        };
        reply.deliver(answer);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        shared.worker_served[index].fetch_add(1, Ordering::Relaxed);
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
