//! The server: acceptor, connection readers, admission queue, and a
//! fixed pool of worker sessions over one shared [`ResultCache`].
//!
//! ```text
//!            ┌─ conn thread ─┐   try_submit   ┌─ worker 0 ─┐
//!  TCP ──────┤ parse, answer ├───────────────►│  session   │──► response
//!  accept ───┤ control plane │  bounded queue └─ worker 1 ─┘    (writer
//!            └───────────────┘  (queue-full ⇒ shared cache       mutex)
//!                                429 analog)   + single-flight
//! ```
//!
//! The split mirrors the admission/execution separation of HTAP
//! serving systems: connection threads only parse and answer cheap
//! control-plane requests (`health`, `stats`, `kernels`,
//! `shutdown`); everything that costs kernel or I/O time (`load`,
//! `run`, `batch`) must pass the bounded [`AdmissionQueue`] first,
//! so a traffic spike degrades into fast `queue-full` rejections
//! instead of oversubscribing the compute pool. The worker count is
//! fixed at startup; each worker is one serving session with its own
//! owner tag on the shared result cache, so duplicate requests
//! landing on different workers still resolve to one kernel
//! execution (single-flight) and show up as cross-session hits in
//! the stats endpoint.

use crate::admission::{AdmissionQueue, RateLimit, SubmitError};
use crate::json::Json;
use crate::protocol::{
    error_json, fingerprint_json, mutation_json, outcome_json, outcome_json_full, with_id,
    ApiError, Envelope, ErrorCode, LoadCompression, LoadFormat, LoadSource, LoadSpec, MutateSpec,
    Request, RunSpec, WireError,
};
use gms_graph::io::SnapshotGraph;
use gms_graph::CompressedCsr;
use gms_platform::kernel::{
    apply_mutation, execute, next_owner, CacheKey, CancelToken, GraphLineage, GraphStore,
    KernelError, MutationOutcome, Registry, ResultCache, RunCx,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked connection read may go unanswered before the
/// thread re-checks the shutdown flag. Bounds shutdown latency for
/// idle connections.
pub(crate) const READ_POLL: Duration = Duration::from_millis(100);

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back
    /// from [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker sessions executing admitted requests.
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

pub(crate) struct GraphEntry {
    store: Arc<GraphStore>,
    fingerprint: u64,
    /// Fingerprint at registration time — the stable identity edge
    /// mutations preserve (the router places shards by it) — and the
    /// number of effective mutation batches applied since.
    lineage: GraphLineage,
    vertices: usize,
    edges: usize,
}

#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) malformed: AtomicU64,
    /// Requests accepted without a `"v"` member — the deprecation
    /// gauge for pre-v1 clients.
    pub(crate) legacy_requests: AtomicU64,
    /// Requests refused by a per-client token bucket.
    pub(crate) rate_limited: AtomicU64,
    /// Requests that failed with `deadline-exceeded`.
    pub(crate) deadline_exceeded: AtomicU64,
    /// HTTP requests served by the `/v1` gateway (any method).
    pub(crate) http_requests: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) registry: Registry,
    pub(crate) cache: Arc<ResultCache>,
    pub(crate) graphs: RwLock<BTreeMap<String, GraphEntry>>,
    pub(crate) queue: AdmissionQueue<Job>,
    pub(crate) running: AtomicBool,
    pub(crate) counters: Counters,
    pub(crate) worker_served: Vec<AtomicU64>,
    pub(crate) addr: SocketAddr,
    pub(crate) max_body_bytes: usize,
    pub(crate) request_timeout: Duration,
}

impl Shared {
    pub(crate) fn running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

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

/// A shared, mutex-guarded handle on one connection's write half.
/// Workers serving requests from the same connection serialize their
/// response lines through it.
#[derive(Clone)]
pub(crate) struct ResponseWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl ResponseWriter {
    fn send(&self, response: &Json) {
        let mut line = response.render();
        line.push('\n');
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        // The client may have hung up; nothing useful to do then.
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.flush();
    }
}

/// A one-shot rendezvous an HTTP connection thread blocks on while
/// its admitted job crosses the worker pool.
pub(crate) struct SyncReply {
    slot: Mutex<Option<Json>>,
    ready: Condvar,
}

impl SyncReply {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn deliver(&self, response: Json) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(response);
        self.ready.notify_all();
    }

    /// Blocks until the worker delivers. Workers answer every job
    /// they dequeue and close() drains, so admitted jobs always
    /// resolve.
    pub(crate) fn recv(&self) -> Json {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            slot = self.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Where a finished job's response goes: back onto an NDJSON
/// connection's write half, or into the [`SyncReply`] an HTTP thread
/// is blocked on.
pub(crate) enum Reply {
    Line(ResponseWriter),
    Sync(Arc<SyncReply>),
}

impl Reply {
    fn deliver(&self, response: Json) {
        match self {
            Reply::Line(writer) => writer.send(&response),
            Reply::Sync(reply) => reply.deliver(response),
        }
    }
}

pub(crate) enum DataOp {
    Load(LoadSpec),
    Mutate(MutateSpec),
    Run(RunSpec),
    Batch(Vec<RunSpec>),
}

pub(crate) struct Job {
    pub(crate) op: DataOp,
    pub(crate) id: Option<Json>,
    pub(crate) reply: Reply,
    /// The propagated request deadline; workers probe it before and
    /// during kernel execution.
    pub(crate) cancel: CancelToken,
    /// Render the full payload items into the response (the
    /// streaming HTTP endpoints page over them); NDJSON responses
    /// keep the compact summary.
    pub(crate) full_payload: bool,
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
            registry: Registry::with_builtins(),
            cache: Arc::new(ResultCache::new(config.cache_capacity)),
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

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gms-serve-acceptor".to_string())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn acceptor thread")
        };

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

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while shared.running() {
        match listener.accept() {
            Ok((stream, _)) => {
                if !shared.running() {
                    break;
                }
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("gms-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &shared))
                {
                    connections.push(handle);
                }
                // Opportunistically reap finished connection threads
                // so a long-lived server does not accumulate handles.
                connections.retain(|h| !h.is_finished());
            }
            Err(_) => {
                if !shared.running() {
                    break;
                }
            }
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Sniffs the first byte to pick a protocol: NDJSON requests start
/// with `{` (or leading whitespace); anything else — an HTTP method
/// letter — goes to the `/v1` HTTP gateway. Both planes share one
/// port, one admission queue, and one worker pool.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut first = [0u8; 1];
    loop {
        match stream.peek(&mut first) {
            Ok(0) => return, // closed before the first byte
            Ok(_) => {
                if first[0] == b'{' || first[0].is_ascii_whitespace() {
                    return ndjson_connection(stream, shared);
                }
                return crate::http::http_connection(stream, shared);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !shared.running() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn ndjson_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Responses are short: send them as soon as they are written.
    let _ = stream.set_nodelay(true);
    // Poll reads so an idle connection notices shutdown.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let writer = ResponseWriter {
        stream: Arc::new(Mutex::new(stream)),
    };
    let mut reader = BufReader::new(read_half);
    // Byte-oriented line assembly with the body cap enforced *while*
    // bytes arrive: a newline-free stream is cut off at
    // `max_body_bytes`, never materialized — the same
    // reject-before-buffering guarantee the HTTP plane gets from
    // Content-Length. Partial lines survive timeout polls intact,
    // even mid-multibyte-character.
    let mut line: Vec<u8> = Vec::new();
    // Set after a too-long line: the remainder is consumed without
    // being stored, so memory stays bounded while the stream resyncs
    // on the next newline.
    let mut discarding = false;
    loop {
        if discarding {
            match discard_line(&mut reader) {
                Ok(true) => discarding = false, // resynced past the newline
                Ok(false) => break,             // client closed
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !shared.running() {
                        break;
                    }
                }
                Err(_) => break,
            }
            continue;
        }
        match read_line_bounded(&mut reader, &mut line, shared.max_body_bytes) {
            Ok(LineRead::Closed) => break,
            Ok(LineRead::Line) => {
                let keep_going = match std::str::from_utf8(&line) {
                    Ok(text) => handle_line(text.trim(), shared, &writer),
                    Err(_) => {
                        shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                        writer.send(&error_json(
                            &WireError::new(ErrorCode::BadJson, "request line is not valid UTF-8"),
                            None,
                        ));
                        true
                    }
                };
                line.clear();
                if !keep_going {
                    break;
                }
            }
            Ok(LineRead::TooLong) => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                writer.send(&error_json(
                    &ApiError::new(
                        ErrorCode::PayloadTooLarge,
                        format!(
                            "request line exceeds the {}-byte cap",
                            shared.max_body_bytes
                        ),
                    ),
                    None,
                ));
                line.clear();
                discarding = true;
            }
            // Timeout poll: `line` keeps any partial read; loop
            // appends the rest once it arrives.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !shared.running() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

enum LineRead {
    /// A full line (newline included) landed in the buffer.
    Line,
    /// The line under assembly outgrew `cap` before its newline.
    TooLong,
    /// EOF: the peer closed the connection.
    Closed,
}

/// Appends bytes up to and including the next `\n` onto `line`,
/// refusing to buffer more than `cap` bytes of a newline-free
/// stream. Timeouts surface as errors with the partial line kept.
fn read_line_bounded(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            // EOF terminates a non-empty final line, like `read_until`.
            return Ok(if line.is_empty() {
                LineRead::Closed
            } else {
                LineRead::Line
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&available[..=pos]);
            reader.consume(pos + 1);
            return Ok(LineRead::Line);
        }
        let n = available.len();
        line.extend_from_slice(available);
        reader.consume(n);
        if line.len() > cap {
            return Ok(LineRead::TooLong);
        }
    }
}

/// Consumes bytes without storing them until a newline goes by.
/// Returns `Ok(true)` once resynced, `Ok(false)` at EOF; timeouts
/// surface as errors and the discard resumes on the next call.
fn discard_line(reader: &mut impl BufRead) -> std::io::Result<bool> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(false);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(true);
            }
            None => {
                let n = available.len();
                reader.consume(n);
            }
        }
    }
}

/// Processes one request line; returns `false` when the connection
/// should close (shutdown acknowledged).
fn handle_line(line: &str, shared: &Arc<Shared>, writer: &ResponseWriter) -> bool {
    if line.is_empty() {
        return true; // tolerate blank keep-alive lines
    }
    if line.len() > shared.max_body_bytes {
        shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
        writer.send(&error_json(
            &ApiError::new(
                ErrorCode::PayloadTooLarge,
                format!(
                    "request line of {} bytes exceeds the {}-byte cap",
                    line.len(),
                    shared.max_body_bytes
                ),
            ),
            None,
        ));
        return true;
    }
    let envelope = match crate::protocol::parse_envelope(line) {
        Ok(envelope) => envelope,
        Err((error, id)) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            writer.send(&error_json(&error, id.as_ref()));
            return true;
        }
    };
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    if !envelope.versioned {
        shared
            .counters
            .legacy_requests
            .fetch_add(1, Ordering::Relaxed);
    }
    let Envelope {
        request,
        id,
        deadline_ms,
        client,
        weight,
        ..
    } = envelope;
    // `Request::is_control` is the single source of truth for the
    // plane split; the matches below panic loudly if it drifts.
    if request.is_control() {
        return answer_control(request, shared, writer, id);
    }
    let op = match request {
        Request::Load(spec) => DataOp::Load(spec),
        Request::Mutate(spec) => DataOp::Mutate(spec),
        Request::Run(spec) => DataOp::Run(spec),
        Request::Batch(specs) => DataOp::Batch(specs),
        control => unreachable!("control op routed to the data plane: {control:?}"),
    };
    let cancel = match deadline_ms {
        Some(ms) => CancelToken::after(Duration::from_millis(ms)),
        None => CancelToken::none(),
    };
    let job = Job {
        op,
        id,
        reply: Reply::Line(writer.clone()),
        cancel,
        full_payload: false,
    };
    submit(shared, job, client.as_deref().unwrap_or(""), weight);
    true
}

/// Answers a control-plane request inline on the connection thread;
/// returns `false` when the connection should close (shutdown).
fn answer_control(
    request: Request,
    shared: &Arc<Shared>,
    writer: &ResponseWriter,
    id: Option<Json>,
) -> bool {
    match request {
        Request::Health => {
            writer.send(&health_json(shared, id.as_ref()));
            true
        }
        Request::Kernels => {
            writer.send(&kernels_json(shared, id.as_ref()));
            true
        }
        Request::Stats => {
            writer.send(&stats_json(shared, id.as_ref()));
            true
        }
        Request::Shutdown => {
            writer.send(&with_id(
                vec![
                    ("ok", Json::Bool(true)),
                    ("status", Json::from("shutting-down")),
                ],
                id.as_ref(),
            ));
            shared.begin_shutdown();
            false
        }
        data => unreachable!("data-plane op answered inline: {data:?}"),
    }
}

/// Admission control: data-plane requests either enter the bounded
/// queue under their client's identity and weight, or are rejected
/// right here on the connection thread — the rejection travels back
/// through the job's own reply channel, so NDJSON and HTTP callers
/// share one code path.
pub(crate) fn submit(shared: &Arc<Shared>, job: Job, client: &str, weight: u32) {
    if !shared.running() {
        let response = error_json(
            &WireError::new(ErrorCode::ShuttingDown, "server is shutting down"),
            job.id.as_ref(),
        );
        job.reply.deliver(response);
        return;
    }
    match shared.queue.try_submit_as(client, weight, job) {
        Ok(()) => {}
        Err(SubmitError::Full(job)) => {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let response = error_json(
                &WireError::new(
                    ErrorCode::QueueFull,
                    format!(
                        "admission queue at capacity ({}); retry later",
                        shared.queue.capacity()
                    ),
                ),
                job.id.as_ref(),
            );
            job.reply.deliver(response);
        }
        Err(SubmitError::RateLimited(job)) => {
            shared.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
            let response = error_json(
                &WireError::new(
                    ErrorCode::RateLimited,
                    format!("client {client:?} is over its rate limit; slow down"),
                ),
                job.id.as_ref(),
            );
            job.reply.deliver(response);
        }
        Err(SubmitError::Closed(job)) => {
            let response = error_json(
                &WireError::new(ErrorCode::ShuttingDown, "server is shutting down"),
                job.id.as_ref(),
            );
            job.reply.deliver(response);
        }
    }
}

/// One worker session: drains the admission queue until the server
/// shuts down. The owner tag attributes this worker's cache traffic,
/// so hits on entries another worker paid for count as cross-session.
fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let owner = next_owner();
    while let Some(job) = shared.queue.dequeue() {
        let id = job.id.as_ref();
        let lapsed = || {
            ApiError::new(
                ErrorCode::DeadlineExceeded,
                "deadline exceeded before the request completed",
            )
        };
        let fail = |e: &ApiError, id: Option<&Json>| {
            if e.code == ErrorCode::DeadlineExceeded {
                shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::Relaxed);
            }
            error_json(e, id)
        };
        // A request whose deadline passed while queued — or, for a
        // batch item, while earlier items ran — fails without costing
        // any kernel time: the worker is immediately free for the
        // next job.
        let run = |spec: &RunSpec, id: Option<&Json>| {
            if job.cancel.expired() {
                return fail(&lapsed(), id);
            }
            match execute_run(shared, owner, spec, &job.cancel) {
                Ok(outcome) if job.full_payload => outcome_json_full(spec, &outcome, id),
                Ok(outcome) => outcome_json(spec, &outcome, id),
                Err(e) => fail(&e, id),
            }
        };
        let response = match &job.op {
            _ if job.cancel.expired() => fail(&lapsed(), id),
            DataOp::Load(spec) => match execute_load(shared, spec) {
                Ok(body) => with_id(body, id),
                Err(e) => error_json(&e, id),
            },
            DataOp::Mutate(spec) => match execute_mutate(shared, spec) {
                Ok(outcome) => mutation_json(&spec.graph, &outcome, id),
                Err(e) => error_json(&e, id),
            },
            DataOp::Run(spec) => run(spec, id),
            DataOp::Batch(specs) => {
                let results = specs.iter().map(|spec| run(spec, None)).collect();
                with_id(
                    vec![("ok", Json::Bool(true)), ("results", Json::Array(results))],
                    id,
                )
            }
        };
        job.reply.deliver(response);
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        shared.worker_served[index].fetch_add(1, Ordering::Relaxed);
    }
}

fn execute_load(
    shared: &Arc<Shared>,
    spec: &LoadSpec,
) -> Result<Vec<(&'static str, Json)>, WireError> {
    let io_err = |e: gms_graph::io::GraphIoError| WireError::new(ErrorCode::Io, e.to_string());
    let store = match (&spec.format, &spec.source) {
        (LoadFormat::EdgeList, LoadSource::Path(p)) => {
            GraphStore::Csr(gms_graph::io::load_undirected(p).map_err(io_err)?)
        }
        (LoadFormat::EdgeList, LoadSource::Data(d)) => {
            GraphStore::Csr(gms_graph::io::load_undirected_from(d.as_bytes()).map_err(io_err)?)
        }
        (LoadFormat::Metis, LoadSource::Path(p)) => {
            GraphStore::Csr(gms_graph::io::load_metis(p).map_err(io_err)?)
        }
        (LoadFormat::Metis, LoadSource::Data(d)) => {
            GraphStore::Csr(gms_graph::io::load_metis_from(d.as_bytes()).map_err(io_err)?)
        }
        // A v2 snapshot stays compressed; a v1 snapshot materializes.
        (LoadFormat::Gcsr, LoadSource::Path(p)) => {
            match gms_graph::io::load_snapshot_auto(p).map_err(io_err)? {
                SnapshotGraph::Raw(g) => GraphStore::Csr(g),
                SnapshotGraph::Compressed(c) => GraphStore::Compressed(c),
            }
        }
        // The parser rejects inline gcsr before a job is built.
        (LoadFormat::Gcsr, LoadSource::Data(_)) => {
            return Err(WireError::new(
                ErrorCode::BadRequest,
                "gcsr is a binary format: send a \"path\", not inline \"data\"",
            ))
        }
    };
    // `compression: "gap"` recompresses whatever arrived raw; the
    // fingerprint is order-preserving, so cached outcomes carry over.
    let store = match (spec.compression, store) {
        (LoadCompression::Gap, GraphStore::Csr(g)) => {
            GraphStore::Compressed(CompressedCsr::from_csr(&g))
        }
        (_, store) => store,
    };
    let fp = store.fingerprint();
    let vertices = store.num_vertices();
    let edges = store.num_arcs() / 2;
    let compression = store.compression();
    let resident_bytes = store.resident_bytes();
    let (replaced, invalidated, lineage) = {
        let mut graphs = shared.graphs.write().unwrap_or_else(|e| e.into_inner());
        match graphs.get(&spec.name) {
            // Idempotent re-registration: a retried `load` whose
            // earlier attempt died after registering (response lost
            // mid-body) finds identical content already under the
            // name and keeps the existing entry — lineage, version
            // and store untouched, nothing invalidated.
            Some(existing) if existing.fingerprint == fp => (true, 0, existing.lineage),
            old => {
                let old_fp = old.map(|e| e.fingerprint);
                let lineage = GraphLineage::new(fp);
                let entry = GraphEntry {
                    store: Arc::new(store),
                    fingerprint: fp,
                    lineage,
                    vertices,
                    edges,
                };
                graphs.insert(spec.name.clone(), entry);
                // Replacing a graph drops the old content's cached
                // outcomes — unless the content is still reachable
                // under another name.
                let invalidated = match old_fp {
                    Some(old_fp) if !graphs.values().any(|e| e.fingerprint == old_fp) => {
                        shared.cache.invalidate_fingerprint(old_fp)
                    }
                    _ => 0,
                };
                (old_fp.is_some(), invalidated, lineage)
            }
        }
    };
    Ok(vec![
        ("ok", Json::Bool(true)),
        ("graph", Json::from(spec.name.clone())),
        ("vertices", Json::from(vertices)),
        ("edges", Json::from(edges)),
        ("fingerprint", fingerprint_json(fp)),
        (
            "base_fingerprint",
            fingerprint_json(lineage.base_fingerprint),
        ),
        ("version", Json::from(lineage.version)),
        ("compression", Json::from(compression)),
        ("resident_bytes", Json::from(resident_bytes)),
        ("replaced", Json::from(replaced)),
        ("invalidated", Json::from(invalidated)),
    ])
}

/// Applies a batched edge mutation under the graphs write lock, so
/// mutations to one graph serialize and no kernel admission can
/// observe a half-swapped entry. Cached outcomes of the old content
/// are migrated to the new fingerprint per kernel
/// [`DeltaSensitivity`](gms_platform::kernel::DeltaSensitivity)
/// declarations; an in-flight kernel still computing against the old
/// content cannot resurrect a migrated-away entry — its late insert
/// is dropped by the cache's invalidation epoch (`stale_drops`).
fn execute_mutate(shared: &Arc<Shared>, spec: &MutateSpec) -> Result<MutationOutcome, WireError> {
    let mut graphs = shared.graphs.write().unwrap_or_else(|e| e.into_inner());
    let entry = graphs.get(&spec.graph).ok_or_else(|| {
        WireError::new(
            ErrorCode::UnknownGraph,
            format!("no graph loaded under {:?}", spec.graph),
        )
    })?;
    let still_referenced = graphs
        .iter()
        .any(|(name, e)| name != &spec.graph && e.fingerprint == entry.fingerprint);
    let (store, outcome) = apply_mutation(
        &entry.store,
        entry.fingerprint,
        entry.lineage,
        &spec.add,
        &spec.remove,
        &shared.cache,
        &shared.registry,
        still_referenced,
    )
    .map_err(|e| match e {
        // The bare patch error, as the router words its own rejections.
        KernelError::BadMutation { message } => WireError::new(ErrorCode::BadMutation, message),
        other => WireError::from_kernel(&other),
    })?;
    if let Some(store) = store {
        let entry = graphs.get_mut(&spec.graph).expect("entry checked above");
        entry.store = Arc::new(store);
        entry.fingerprint = outcome.fingerprint;
        entry.lineage.version = outcome.version;
        entry.vertices = outcome.vertices;
        entry.edges = outcome.edges;
    }
    Ok(outcome)
}

fn execute_run(
    shared: &Arc<Shared>,
    owner: u64,
    spec: &RunSpec,
    cancel: &CancelToken,
) -> Result<gms_platform::kernel::Outcome, WireError> {
    let (store, fp) = {
        let graphs = shared.graphs.read().unwrap_or_else(|e| e.into_inner());
        let entry = graphs.get(&spec.graph).ok_or_else(|| {
            WireError::new(
                ErrorCode::UnknownGraph,
                format!("no graph loaded under {:?}", spec.graph),
            )
        })?;
        (Arc::clone(&entry.store), entry.fingerprint)
    };
    let kernel = shared.registry.get(&spec.kernel).ok_or_else(|| {
        WireError::new(
            ErrorCode::UnknownKernel,
            format!("unknown kernel {:?}", spec.kernel),
        )
    })?;
    let key = CacheKey::build(
        kernel,
        store.num_vertices() + 1,
        store.num_arcs(),
        fp,
        &spec.params,
    )
    .map_err(|e| WireError::from_kernel(&e))?;
    // The cancel token rides into the kernel's own cancellation
    // points; a fired token surfaces as `DeadlineExceeded`, which
    // `run_or_wait` never caches (and a waiting duplicate request is
    // promoted to leader with its *own* token, so one client's tight
    // deadline cannot poison another's identical request).
    let cx = RunCx::new(store.view(), &spec.params).with_cancel(cancel);
    shared
        .cache
        .run_or_wait(&key, owner, || execute(kernel, &cx))
        .map_err(|e| WireError::from_kernel(&e))
}

pub(crate) fn health_json(shared: &Arc<Shared>, id: Option<&Json>) -> Json {
    let graphs = shared.graphs.read().unwrap_or_else(|e| e.into_inner());
    with_id(
        vec![
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
            ("kernels", Json::from(shared.registry.len())),
            ("graphs", Json::from(graphs.len())),
            ("workers", Json::from(shared.worker_served.len())),
            ("queue_depth", Json::from(shared.queue.depth())),
            ("queue_capacity", Json::from(shared.queue.capacity())),
        ],
        id,
    )
}

pub(crate) fn kernels_json(shared: &Arc<Shared>, id: Option<&Json>) -> Json {
    let kernels: Vec<Json> = shared
        .registry
        .iter()
        .map(|k| {
            let params: Vec<Json> = k
                .params()
                .iter()
                .map(|spec| {
                    Json::object([
                        ("name", Json::from(spec.name)),
                        ("kind", Json::from(spec.kind.to_string())),
                        ("default", Json::from(spec.default.render())),
                        (
                            "choices",
                            Json::Array(spec.choices.iter().map(|&c| Json::from(c)).collect()),
                        ),
                    ])
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
    with_id(
        vec![("ok", Json::Bool(true)), ("kernels", Json::Array(kernels))],
        id,
    )
}

pub(crate) fn stats_json(shared: &Arc<Shared>, id: Option<&Json>) -> Json {
    let cache = shared.cache.stats();
    let counters = &shared.counters;
    let graphs: Vec<Json> = {
        let graphs = shared.graphs.read().unwrap_or_else(|e| e.into_inner());
        graphs
            .iter()
            .map(|(name, entry)| {
                Json::object([
                    ("name", Json::from(name.clone())),
                    ("vertices", Json::from(entry.vertices)),
                    ("edges", Json::from(entry.edges)),
                    ("fingerprint", fingerprint_json(entry.fingerprint)),
                    (
                        "base_fingerprint",
                        fingerprint_json(entry.lineage.base_fingerprint),
                    ),
                    ("version", Json::from(entry.lineage.version)),
                    ("compression", Json::from(entry.store.compression())),
                    ("resident_bytes", Json::from(entry.store.resident_bytes())),
                ])
            })
            .collect()
    };
    let worker_served: Vec<Json> = shared
        .worker_served
        .iter()
        .map(|count| Json::from(count.load(Ordering::Relaxed)))
        .collect();
    with_id(
        vec![
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
                    (
                        "connections",
                        Json::from(counters.connections.load(Ordering::Relaxed)),
                    ),
                    (
                        "requests",
                        Json::from(counters.requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "completed",
                        Json::from(counters.completed.load(Ordering::Relaxed)),
                    ),
                    (
                        "rejected",
                        Json::from(counters.rejected.load(Ordering::Relaxed)),
                    ),
                    (
                        "malformed",
                        Json::from(counters.malformed.load(Ordering::Relaxed)),
                    ),
                    (
                        "legacy_requests",
                        Json::from(counters.legacy_requests.load(Ordering::Relaxed)),
                    ),
                    (
                        "rate_limited",
                        Json::from(counters.rate_limited.load(Ordering::Relaxed)),
                    ),
                    (
                        "deadline_exceeded",
                        Json::from(counters.deadline_exceeded.load(Ordering::Relaxed)),
                    ),
                    (
                        "http_requests",
                        Json::from(counters.http_requests.load(Ordering::Relaxed)),
                    ),
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
        ],
        id,
    )
}
