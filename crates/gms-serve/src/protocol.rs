//! The wire protocol and the one request model behind every
//! transport.
//!
//! One request is one JSON object on one line; the server answers
//! with exactly one JSON object on one line. Every request may carry
//! an `"id"` member (any scalar), echoed verbatim as the last member
//! of the response so clients that pipeline requests over one
//! connection can match answers to questions. The full format,
//! endpoint by endpoint, is documented in
//! `crates/gms-serve/README.md`.
//!
//! **One model, one parser, one renderer.** An [`Envelope`] is a
//! parsed [`Request`] plus the members every operation shares: the
//! `id`, `"deadline_ms"` (a relative deadline propagated into the
//! kernel as a cancellation token), `"client"` (the fairness
//! identity), `"weight"` (its scheduling weight) and `"redirect"`
//! (fleet failover policy). [`parse_envelope`] is the only way a
//! line becomes one — the HTTP plane turns its route, path segment,
//! `X-Gms-*` headers and body into the same members and enters
//! through the same validation — and [`Envelope::to_json`] is its
//! inverse, the only place a request is rendered: the
//! [`Client`](crate::Client) helpers and the router's forwarding
//! both go through it.
//!
//! **Versioning (v1).** Every response carries `"v":1` as its first
//! member. Requests *may* send `"v":1`; a request without it means
//! v1, any other version is a `bad-request`.
//!
//! Errors are typed ([`ApiError`]): `{"ok":false,"error":{"code":...,
//! "message":...,"retryable":...}}` with the closed set of codes in
//! [`ErrorCode`] — rendered identically on the NDJSON wire and as
//! HTTP response bodies (where [`ErrorCode::http_status`] picks the
//! status line). `queue-full` and `rate-limited` are the
//! backpressure signals: the request was parsed but not admitted,
//! and the client should retry later or slow down.

use crate::json::Json;
use gms_core::{Edge, NodeId};
use gms_graph::io::GraphSource;
use gms_platform::kernel::{
    KernelError, MutationOutcome, Outcome, Params, Payload, Resident, Value,
};
use std::path::Path;

pub use gms_graph::io::GraphFormat;

/// The protocol version this server speaks: stamped on every
/// response, accepted (and required to match) when a request sends
/// `"v"`.
pub const PROTOCOL_VERSION: i64 = 1;

/// The closed set of error codes a response can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON.
    BadJson,
    /// Valid JSON, but not a well-formed request (unknown `op`,
    /// missing or mistyped members).
    BadRequest,
    /// The admission queue is at capacity; retry later (HTTP 429
    /// analog).
    QueueFull,
    /// No kernel registered under the requested name.
    UnknownKernel,
    /// A parameter name the kernel's schema does not declare.
    UnknownParam,
    /// A parameter with the wrong type or an inadmissible value.
    BadParam,
    /// No graph loaded under the requested name.
    UnknownGraph,
    /// Loading a graph failed (file missing, parse error, checksum
    /// mismatch, ...).
    Io,
    /// An edge-mutation batch was rejected (endpoint out of range —
    /// mutations cannot create vertices). The graph is untouched.
    BadMutation,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
    /// Fleet vocabulary: the shard owning the requested graph is
    /// down and the request could not be served by a survivor.
    /// Retryable — the router keeps re-placing orphaned graphs.
    BackendUnavailable,
    /// Fleet vocabulary: the graph now lives on a different shard;
    /// the error object carries the new owner under `"addr"`. A
    /// client talking to the router can simply retry the request.
    Moved,
    /// Fleet vocabulary: the graph is not in the fleet-wide table
    /// (the router-level analog of a single process's
    /// `unknown-graph`).
    GraphNotFound,
    /// The request's deadline passed before the kernel completed;
    /// partial work was discarded and nothing was cached (HTTP 504
    /// analog). Retryable with a longer deadline.
    DeadlineExceeded,
    /// The client's token bucket is empty: admission was refused by
    /// the per-client rate limit, not by queue capacity (HTTP 429
    /// analog). Other clients are unaffected.
    RateLimited,
    /// An inline request body exceeded the configured size cap and
    /// was rejected before being materialized (HTTP 413 analog).
    PayloadTooLarge,
    /// The peer was too slow producing a complete request (the
    /// slow-loris guard; HTTP 408 analog).
    Timeout,
    /// Client-side vocabulary (never sent by a server): the
    /// transport failed before a well-formed response arrived —
    /// connect/read/write failure or an unparsable reply. Lets every
    /// typed client method fail with one [`ApiError`] shape.
    Transport,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::UnknownKernel => "unknown-kernel",
            ErrorCode::UnknownParam => "unknown-param",
            ErrorCode::BadParam => "bad-param",
            ErrorCode::UnknownGraph => "unknown-graph",
            ErrorCode::Io => "io-error",
            ErrorCode::BadMutation => "bad-mutation",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::BackendUnavailable => "backend-unavailable",
            ErrorCode::Moved => "moved",
            ErrorCode::GraphNotFound => "graph-not-found",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::RateLimited => "rate-limited",
            ErrorCode::PayloadTooLarge => "payload-too-large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Transport => "transport",
        }
    }

    /// Whether retrying the identical request can succeed without the
    /// client changing anything (transient congestion / placement
    /// churn) — stamped into every rendered error so clients need no
    /// code-by-code retry table.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ErrorCode::QueueFull
                | ErrorCode::RateLimited
                | ErrorCode::ShuttingDown
                | ErrorCode::BackendUnavailable
                | ErrorCode::Moved
                | ErrorCode::Timeout
                | ErrorCode::DeadlineExceeded
                | ErrorCode::Transport
        )
    }

    /// The HTTP status line the `/v1` gateway answers with when a
    /// request fails with this code — the same typed error body is
    /// the response payload, so the two surfaces never disagree.
    pub fn http_status(&self) -> u16 {
        match self {
            ErrorCode::BadJson
            | ErrorCode::BadRequest
            | ErrorCode::BadParam
            | ErrorCode::UnknownParam
            | ErrorCode::BadMutation => 400,
            ErrorCode::UnknownKernel | ErrorCode::UnknownGraph | ErrorCode::GraphNotFound => 404,
            ErrorCode::Timeout => 408,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::Moved => 421,
            ErrorCode::RateLimited => 429,
            ErrorCode::Io => 500,
            ErrorCode::BackendUnavailable | ErrorCode::Transport => 502,
            ErrorCode::QueueFull | ErrorCode::ShuttingDown => 503,
            ErrorCode::DeadlineExceeded => 504,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The one typed failure shape of the v1 API: every error — NDJSON
/// line, HTTP body, router verdict, client-side transport failure —
/// is one of these. Rendered as
/// `{"code":...,"message":...,"retryable":...}` plus any `details`
/// members (e.g. `moved` carries the new shard under `"addr"`).
#[derive(Clone, Debug)]
pub struct ApiError {
    /// Which of the closed error codes.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Extra structured members rendered inside the error object,
    /// after `retryable`. Empty for most errors.
    pub details: Vec<(String, Json)>,
}

impl ApiError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            details: Vec::new(),
        }
    }

    /// Attaches a structured detail member.
    pub fn with_detail(mut self, key: &str, value: Json) -> Self {
        self.details.push((key.to_string(), value));
        self
    }

    /// Whether retrying the identical request can succeed (see
    /// [`ErrorCode::retryable`]).
    pub fn retryable(&self) -> bool {
        self.code.retryable()
    }

    /// Maps a kernel-API error onto the wire codes.
    pub fn from_kernel(e: &KernelError) -> Self {
        let code = match e {
            KernelError::UnknownKernel(_) => ErrorCode::UnknownKernel,
            KernelError::UnknownParam { .. } => ErrorCode::UnknownParam,
            KernelError::BadParam { .. } => ErrorCode::BadParam,
            KernelError::InvalidHandle => ErrorCode::UnknownGraph,
            KernelError::NotMaterialized => ErrorCode::BadRequest,
            KernelError::BadMutation { .. } => ErrorCode::BadMutation,
            KernelError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
        };
        Self::new(code, e.to_string())
    }

    /// Parses a rendered error object (the value under `"error"`)
    /// back into a typed [`ApiError`] — how the client surfaces
    /// server-side failures typed instead of as strings. Unknown
    /// codes map to the closest local meaning so old clients survive
    /// new servers.
    pub fn from_json(value: &Json) -> Self {
        let code_str = value.get("code").and_then(Json::as_str).unwrap_or("");
        let code = [
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::QueueFull,
            ErrorCode::UnknownKernel,
            ErrorCode::UnknownParam,
            ErrorCode::BadParam,
            ErrorCode::UnknownGraph,
            ErrorCode::Io,
            ErrorCode::BadMutation,
            ErrorCode::ShuttingDown,
            ErrorCode::BackendUnavailable,
            ErrorCode::Moved,
            ErrorCode::GraphNotFound,
            ErrorCode::DeadlineExceeded,
            ErrorCode::RateLimited,
            ErrorCode::PayloadTooLarge,
            ErrorCode::Timeout,
            ErrorCode::Transport,
        ]
        .into_iter()
        .find(|c| c.as_str() == code_str)
        .unwrap_or(ErrorCode::Io);
        let message = value
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("unrecognized error shape")
            .to_string();
        let details = value
            .as_object()
            .map(|fields| {
                fields
                    .iter()
                    .filter(|(k, _)| k != "code" && k != "message" && k != "retryable")
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect()
            })
            .unwrap_or_default();
        Self {
            code,
            message,
            details,
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// On-disk / inline source of a graph to load.
#[derive(Clone, Debug, PartialEq)]
pub enum LoadSource {
    /// Load from a path on the server's filesystem.
    Path(String),
    /// Parse the graph text sent inline in the request.
    Data(String),
}

impl LoadSource {
    /// The borrowed form [`gms_graph::io::load_graph`] reads from.
    pub fn as_graph_source(&self) -> GraphSource<'_> {
        match self {
            LoadSource::Path(path) => GraphSource::Path(Path::new(path)),
            LoadSource::Data(text) => GraphSource::Text(text),
        }
    }
}

/// How a loaded graph is held resident, per the request's optional
/// `"compression"` member.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoadCompression {
    /// Raw CSR arrays (the default; also `"compression":"none"`).
    /// A v2 `.gcsr` file still loads compressed — the file's own
    /// encoding wins.
    #[default]
    None,
    /// `"compression":"gap"`: recompress into a gap+varint
    /// [`CompressedCsr`](gms_graph::CompressedCsr) after loading and
    /// serve kernels through the decode hot path. The fingerprint —
    /// and therefore the result cache — is unchanged.
    Gap,
}

impl LoadCompression {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(LoadCompression::None),
            "gap" => Some(LoadCompression::Gap),
            _ => None,
        }
    }
}

/// A parsed `load` request.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadSpec {
    /// Server-side name to register the graph under; loading onto an
    /// existing name replaces that graph and invalidates its cached
    /// outcomes.
    pub name: String,
    /// Input format.
    pub format: GraphFormat,
    /// Where the bytes come from.
    pub source: LoadSource,
    /// Resident representation to hold the graph in.
    pub compression: LoadCompression,
}

/// A parsed `add_edges` / `remove_edges` request: one batched edge
/// mutation against a named graph. Set semantics — already-satisfied
/// requests are no-ops — so replaying a batch after a lost response
/// is safe (the client's idempotent-retry path uses this).
///
/// An NDJSON line fills one side (`add_edges` or `remove_edges`);
/// only the HTTP `mutate` route can fill both.
#[derive(Clone, Debug, PartialEq)]
pub struct MutateSpec {
    /// Server-side graph name.
    pub graph: String,
    /// Undirected edges to add.
    pub add: Vec<Edge>,
    /// Undirected edges to remove.
    pub remove: Vec<Edge>,
}

/// One kernel invocation inside a `run` or `batch` request.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Registered kernel name.
    pub kernel: String,
    /// Server-side graph name.
    pub graph: String,
    /// Parameter overrides.
    pub params: Params,
}

/// A fully parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness and capacity probe (answered inline).
    Health,
    /// Kernel listing with parameter schemas (answered inline).
    Kernels,
    /// Cache / server / graph statistics (answered inline).
    Stats,
    /// Graceful shutdown (acknowledged inline, then the server
    /// drains and exits).
    Shutdown,
    /// Load or replace a graph (admitted through the queue).
    Load(LoadSpec),
    /// Apply a batched edge mutation (admitted through the queue).
    Mutate(MutateSpec),
    /// Run one kernel (admitted through the queue).
    Run(RunSpec),
    /// Run several kernels as one admitted unit.
    Batch(Vec<RunSpec>),
}

fn bad_request(message: impl Into<String>) -> ApiError {
    ApiError::new(ErrorCode::BadRequest, message)
}

fn required_str(obj: &Json, key: &str, op: &str) -> Result<String, ApiError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad_request(format!("op {op:?} requires a string {key:?} member")))
}

/// Converts a JSON `params` object into typed kernel [`Params`].
/// Only scalar members are admissible; `null`, arrays and nested
/// objects are rejected up front.
pub fn params_from_json(value: &Json) -> Result<Params, ApiError> {
    let Some(fields) = value.as_object() else {
        return Err(bad_request("\"params\" must be an object"));
    };
    let mut params = Params::new();
    for (key, v) in fields {
        let value = match v {
            Json::Int(i) => Value::Int(*i),
            Json::Float(x) => Value::Float(*x),
            Json::Bool(b) => Value::Bool(*b),
            Json::Str(s) => Value::from(s.as_str()),
            _ => return Err(bad_request(format!("parameter {key:?} must be a scalar"))),
        };
        params.set(key, value);
    }
    Ok(params)
}

fn params_json(params: &Params) -> Json {
    Json::Object(
        params
            .iter()
            .map(|(key, value)| {
                let value = match value {
                    Value::Int(i) => Json::Int(*i),
                    Value::Float(x) => Json::Float(*x),
                    Value::Bool(b) => Json::Bool(*b),
                    Value::Str(s) => Json::from(s.as_ref()),
                };
                (key.to_string(), value)
            })
            .collect(),
    )
}

fn run_spec(obj: &Json, op: &str) -> Result<RunSpec, ApiError> {
    let params = match obj.get("params") {
        None => Params::new(),
        Some(v) => params_from_json(v)?,
    };
    Ok(RunSpec {
        kernel: required_str(obj, "kernel", op)?,
        graph: required_str(obj, "graph", op)?,
        params,
    })
}

fn run_spec_members(spec: &RunSpec) -> Vec<(&'static str, Json)> {
    vec![
        ("kernel", Json::from(spec.kernel.as_str())),
        ("graph", Json::from(spec.graph.as_str())),
        ("params", params_json(&spec.params)),
    ]
}

/// `load` from its members — the NDJSON op and `POST /v1/graphs`.
pub(crate) fn load_request(obj: &Json) -> Result<Request, ApiError> {
    let name = required_str(obj, "graph", "load")?;
    let format_name = required_str(obj, "format", "load")?;
    let format = GraphFormat::parse(&format_name).ok_or_else(|| {
        bad_request(format!(
            "unknown format {format_name:?} (expected edge-list, metis, or gcsr)"
        ))
    })?;
    let source = match (obj.get("path"), obj.get("data")) {
        (Some(p), None) => LoadSource::Path(
            p.as_str()
                .ok_or_else(|| bad_request("\"path\" must be a string"))?
                .to_string(),
        ),
        (None, Some(d)) => {
            if format == GraphFormat::Gcsr {
                return Err(bad_request(
                    "gcsr is a binary format: send a \"path\", not inline \"data\"",
                ));
            }
            LoadSource::Data(
                d.as_str()
                    .ok_or_else(|| bad_request("\"data\" must be a string"))?
                    .to_string(),
            )
        }
        _ => {
            return Err(bad_request(
                "op \"load\" requires exactly one of \"path\" or \"data\"",
            ))
        }
    };
    let compression = match obj.get("compression") {
        None => LoadCompression::default(),
        Some(v) => {
            let text = v
                .as_str()
                .ok_or_else(|| bad_request("\"compression\" must be a string"))?;
            LoadCompression::parse(text).ok_or_else(|| {
                bad_request(format!(
                    "unknown compression {text:?} (expected none or gap)"
                ))
            })?
        }
    };
    Ok(Request::Load(LoadSpec {
        name,
        format,
        source,
        compression,
    }))
}

fn edges_required(key: &str, op: &str) -> ApiError {
    bad_request(format!(
        "op {op:?} requires an {key:?} array of [u,v] pairs"
    ))
}

/// Parses the edge array under `key` — `[[u,v],...]` with `u32`
/// endpoints; `None` when the member is absent. The one edge parser:
/// `add_edges` / `remove_edges` read `"edges"` through it, the HTTP
/// `mutate` body `"add"` / `"remove"`.
fn edges_from_json(obj: &Json, key: &str, op: &str) -> Result<Option<Vec<Edge>>, ApiError> {
    let Some(value) = obj.get(key) else {
        return Ok(None);
    };
    let items = value.as_array().ok_or_else(|| edges_required(key, op))?;
    let endpoint = |v: &Json| -> Option<NodeId> {
        match v {
            Json::Int(i) if (0..=i64::from(NodeId::MAX)).contains(i) => Some(*i as NodeId),
            _ => None,
        }
    };
    items
        .iter()
        .map(|item| {
            let pair = item.as_array().filter(|p| p.len() == 2);
            pair.and_then(|p| Some((endpoint(&p[0])?, endpoint(&p[1])?)))
                .ok_or_else(|| {
                    bad_request(format!(
                        "every edge of op {op:?} must be a [u,v] pair of non-negative integers"
                    ))
                })
        })
        .collect::<Result<Vec<Edge>, ApiError>>()
        .map(Some)
}

/// Renders an edge batch the way [`edges_from_json`] reads it.
pub(crate) fn edges_json(edges: &[Edge]) -> Json {
    Json::Array(
        edges
            .iter()
            .map(|&(u, v)| Json::Array(vec![Json::from(i64::from(u)), Json::from(i64::from(v))]))
            .collect(),
    )
}

/// Reads the operation an NDJSON line names under `"op"`.
fn request_from_op(obj: &Json) -> Result<Request, ApiError> {
    if obj.as_object().is_none() {
        return Err(bad_request("a request is a JSON object"));
    }
    let op = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad_request("missing string \"op\""))?;
    Ok(match op {
        "health" => Request::Health,
        "kernels" => Request::Kernels,
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "load" => load_request(obj)?,
        // One op per side: a required `"edges"` array.
        "add_edges" | "remove_edges" => {
            let graph = required_str(obj, "graph", op)?;
            let edges =
                edges_from_json(obj, "edges", op)?.ok_or_else(|| edges_required("edges", op))?;
            let (add, remove) = if op == "add_edges" {
                (edges, Vec::new())
            } else {
                (Vec::new(), edges)
            };
            Request::Mutate(MutateSpec { graph, add, remove })
        }
        "run" => run_request(obj)?,
        "batch" => {
            let items = obj
                .get("requests")
                .and_then(Json::as_array)
                .ok_or_else(|| bad_request("op \"batch\" requires a \"requests\" array"))?;
            Request::Batch(
                items
                    .iter()
                    .map(|item| run_spec(item, "batch"))
                    .collect::<Result<_, _>>()?,
            )
        }
        other => return Err(bad_request(format!("unknown op {other:?}"))),
    })
}

/// `run` from its members — the NDJSON op and
/// `POST /v1/graphs/{name}/run`.
pub(crate) fn run_request(obj: &Json) -> Result<Request, ApiError> {
    run_spec(obj, "run").map(Request::Run)
}

/// The body of `POST /v1/graphs/{name}/mutate`: optional `"add"` and
/// `"remove"` arrays, at least one non-empty — both sides of a batch
/// in one request, which no single NDJSON op can say.
pub(crate) fn http_mutate_request(obj: &Json) -> Result<Request, ApiError> {
    let spec = MutateSpec {
        graph: required_str(obj, "graph", "mutate")?,
        add: edges_from_json(obj, "add", "mutate")?.unwrap_or_default(),
        remove: edges_from_json(obj, "remove", "mutate")?.unwrap_or_default(),
    };
    if spec.add.is_empty() && spec.remove.is_empty() {
        return Err(bad_request(
            "mutation body requires \"add\" and/or \"remove\" edge arrays",
        ));
    }
    Ok(Request::Mutate(spec))
}

/// The request model every transport shares: the parsed [`Request`]
/// plus the members that travel alongside any operation — the echoed
/// `id` and the admission metadata (deadline, client identity,
/// fairness weight).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// The parsed operation.
    pub request: Request,
    /// The `"id"` member to echo, if one was sent. The serving front
    /// end moves it into the [`Reply`](crate::service::Reply) before
    /// [`Service::call`](crate::service::Service::call), so a service
    /// that forwards the envelope does not forward the caller's id.
    pub id: Option<Json>,
    /// `"deadline_ms"`: relative deadline for the whole request,
    /// propagated into kernels as a cancellation token.
    pub deadline_ms: Option<u64>,
    /// `"client"`: the fairness / rate-limit identity. Connections
    /// that never say fall back to a per-transport default.
    pub client: Option<String>,
    /// `"weight"`: weighted-fair-queuing weight (1..=1024; default 1).
    pub weight: u32,
    /// `"redirect"`: a routed `run` whose graph moved mid-request is
    /// answered a typed `moved` error naming the new shard instead
    /// of being retried there. A single server ignores it.
    pub redirect: bool,
    /// Render a `run` outcome with its payload items materialized —
    /// set by the HTTP plane for `?stream=1`, which pages over them.
    /// Not a wire member: [`Envelope::to_json`] does not render it.
    pub full_payload: bool,
}

impl Envelope {
    /// `request` with no id, no deadline, anonymous, weight 1.
    pub fn new(request: Request) -> Self {
        Self {
            request,
            id: None,
            deadline_ms: None,
            client: None,
            weight: 1,
            redirect: false,
            full_payload: false,
        }
    }

    /// Renders the request line [`parse_envelope`] reads back into an
    /// equal envelope: `"v":1`, the op and its members, then whichever
    /// of `deadline_ms` / `client` / `weight` / `redirect` / `id`
    /// differ from their defaults. The only place a request is
    /// rendered — client helpers and router forwarding alike.
    ///
    /// # Panics
    ///
    /// On a [`MutateSpec`] with both sides filled: the line protocol
    /// has one op per side, and only the HTTP `mutate` route — which
    /// is never re-rendered — can produce such a spec.
    pub fn to_json(&self) -> Json {
        let (op, members) = match &self.request {
            Request::Health => ("health", Vec::new()),
            Request::Kernels => ("kernels", Vec::new()),
            Request::Stats => ("stats", Vec::new()),
            Request::Shutdown => ("shutdown", Vec::new()),
            Request::Load(spec) => {
                let mut members = vec![
                    ("graph", Json::from(spec.name.as_str())),
                    ("format", Json::from(spec.format.as_str())),
                    match &spec.source {
                        LoadSource::Path(path) => ("path", Json::from(path.as_str())),
                        LoadSource::Data(data) => ("data", Json::from(data.as_str())),
                    },
                ];
                if spec.compression == LoadCompression::Gap {
                    members.push(("compression", Json::from("gap")));
                }
                ("load", members)
            }
            Request::Mutate(spec) => {
                assert!(
                    spec.add.is_empty() || spec.remove.is_empty(),
                    "a two-sided mutation has no single-line form"
                );
                let (op, edges) = if spec.remove.is_empty() {
                    ("add_edges", &spec.add)
                } else {
                    ("remove_edges", &spec.remove)
                };
                let graph = Json::from(spec.graph.as_str());
                (op, vec![("graph", graph), ("edges", edges_json(edges))])
            }
            Request::Run(spec) => ("run", run_spec_members(spec)),
            Request::Batch(specs) => {
                let items = specs
                    .iter()
                    .map(|spec| Json::object(run_spec_members(spec)))
                    .collect();
                ("batch", vec![("requests", Json::Array(items))])
            }
        };
        let mut fields = Vec::with_capacity(members.len() + 7);
        fields.push(("v", Json::Int(PROTOCOL_VERSION)));
        fields.push(("op", Json::from(op)));
        fields.extend(members);
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", Json::from(ms)));
        }
        if let Some(client) = &self.client {
            fields.push(("client", Json::from(client.as_str())));
        }
        if self.weight != 1 {
            fields.push(("weight", Json::from(u64::from(self.weight))));
        }
        if self.redirect {
            fields.push(("redirect", Json::Bool(true)));
        }
        if let Some(id) = &self.id {
            fields.push(("id", id.clone()));
        }
        Json::object(fields)
    }
}

/// Parses one request line into an [`Envelope`]. On failure the
/// error still carries whatever `id` could be recovered, so even
/// malformed requests get a matchable response.
pub fn parse_envelope(line: &str) -> Result<Envelope, (ApiError, Option<Json>)> {
    let value =
        Json::parse(line).map_err(|e| (ApiError::new(ErrorCode::BadJson, e.to_string()), None))?;
    envelope_from(&value, request_from_op).map_err(|e| (e, value.get("id").cloned()))
}

/// Builds a [`Request`] from the members of one JSON object.
pub(crate) type RequestBuilder = fn(&Json) -> Result<Request, ApiError>;

/// The one validation every transport's request passes: the shared
/// members of `obj` (`v`, `deadline_ms`, `client`, `weight`,
/// `redirect`, `id`) are checked here, the operation's own by
/// `build` — [`request_from_op`] for an NDJSON line, the route's
/// builder for an HTTP request whose path, headers and body were
/// folded into `obj`.
pub(crate) fn envelope_from(obj: &Json, build: RequestBuilder) -> Result<Envelope, ApiError> {
    match obj.get("v") {
        None => {}
        Some(Json::Int(v)) if *v == PROTOCOL_VERSION => {}
        Some(other) => {
            return Err(bad_request(format!(
                "unsupported protocol version {} (this server speaks \"v\":{PROTOCOL_VERSION})",
                other.render()
            )))
        }
    }
    let deadline_ms = match obj.get("deadline_ms") {
        None => None,
        Some(Json::Int(ms)) if *ms > 0 => Some(*ms as u64),
        Some(_) => return Err(bad_request("\"deadline_ms\" must be a positive integer")),
    };
    let client = match obj.get("client") {
        None => None,
        Some(Json::Str(name)) if !name.is_empty() => Some(name.clone()),
        Some(_) => return Err(bad_request("\"client\" must be a non-empty string")),
    };
    let weight = match obj.get("weight") {
        None => 1,
        Some(Json::Int(w)) if (1..=1024).contains(w) => *w as u32,
        Some(_) => return Err(bad_request("\"weight\" must be an integer in 1..=1024")),
    };
    Ok(Envelope {
        request: build(obj)?,
        id: obj.get("id").cloned(),
        deadline_ms,
        client,
        weight,
        redirect: obj.get("redirect").and_then(Json::as_bool).unwrap_or(false),
        full_payload: false,
    })
}

/// Assembles a response object: the protocol version (`"v":1`)
/// first, then `fields`. The request's `id` is appended as the last
/// member by the [`Reply`](crate::service::Reply) that delivers it —
/// public so the `gms-router` front end composes responses the same
/// way.
pub fn response(fields: Vec<(&'static str, Json)>) -> Json {
    let mut members = Vec::with_capacity(fields.len() + 2);
    members.push(("v", Json::Int(PROTOCOL_VERSION)));
    members.extend(fields);
    Json::object(members)
}

/// Renders a typed error response; the [`ApiError`]'s own `details`
/// members ride inside the error object (how `moved` carries the new
/// shard under `"addr"`).
pub fn error_json(error: &ApiError) -> Json {
    response(vec![
        ("ok", Json::Bool(false)),
        ("error", error_object(error)),
    ])
}

/// Renders just the error *object* (the value under `"error"`),
/// which [`ApiError::from_json`] reads back.
pub fn error_object(error: &ApiError) -> Json {
    let mut members = vec![
        ("code", Json::from(error.code.as_str())),
        ("message", Json::from(error.message.clone())),
        ("retryable", Json::Bool(error.retryable())),
    ];
    for (key, value) in &error.details {
        members.push((key.as_str(), value.clone()));
    }
    Json::object(members)
}

/// Splits a response into success (`Ok(response)`) or the typed
/// error it carries — for callers of the [`Client`](crate::Client)
/// helpers that want `?`-able failures instead of inspecting `"ok"`.
pub fn response_or_error(response: Json) -> Result<Json, ApiError> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(response);
    }
    match response.get("error") {
        Some(error) => Err(ApiError::from_json(error)),
        None => Err(ApiError::new(
            ErrorCode::Transport,
            format!(
                "response carries neither ok nor error: {}",
                response.render()
            ),
        )),
    }
}

fn payload_json(payload: &Payload) -> Json {
    match payload {
        Payload::None => Json::object([("type", Json::from("none"))]),
        Payload::VertexGroups(groups) => Json::object([
            ("type", Json::from("vertex-groups")),
            ("groups", Json::from(groups.len())),
        ]),
        Payload::Assignment(a) => Json::object([
            ("type", Json::from("assignment")),
            ("len", Json::from(a.len())),
        ]),
        Payload::Rank(r) => {
            Json::object([("type", Json::from("rank")), ("len", Json::from(r.len()))])
        }
        Payload::Scalar(x) => {
            Json::object([("type", Json::from("scalar")), ("value", Json::from(*x))])
        }
    }
}

/// Renders one page of a payload's items — the unit the streaming
/// HTTP endpoints emit chunk by chunk. `offset`/`limit` select the
/// page; the returned array is empty once `offset` walks off the
/// end. Scalar and empty payloads have no items to page.
pub fn payload_items_json(payload: &Payload, offset: usize, limit: usize) -> Json {
    match payload {
        Payload::None | Payload::Scalar(_) => Json::Array(Vec::new()),
        Payload::VertexGroups(groups) => Json::Array(
            groups
                .iter()
                .skip(offset)
                .take(limit)
                .map(|group| Json::Array(group.iter().map(|&v| Json::Int(i64::from(v))).collect()))
                .collect(),
        ),
        Payload::Assignment(a) => Json::Array(
            a.iter()
                .skip(offset)
                .take(limit)
                .map(|&x| Json::Int(i64::from(x)))
                .collect(),
        ),
        Payload::Rank(r) => Json::Array(
            r.iter()
                .skip(offset)
                .take(limit)
                .map(|&x| Json::Int(i64::from(x)))
                .collect(),
        ),
    }
}

/// How many pageable items a payload holds (the total the streaming
/// meta line announces).
pub fn payload_item_count(payload: &Payload) -> usize {
    match payload {
        Payload::None | Payload::Scalar(_) => 0,
        Payload::VertexGroups(groups) => groups.len(),
        Payload::Assignment(a) => a.len(),
        Payload::Rank(r) => r.len(),
    }
}

fn outcome_members(spec: &RunSpec, outcome: &Outcome, payload: Json) -> Vec<(&'static str, Json)> {
    vec![
        ("ok", Json::Bool(true)),
        ("kernel", Json::from(outcome.kernel)),
        ("graph", Json::from(spec.graph.clone())),
        ("patterns", Json::from(outcome.patterns)),
        ("cached", Json::from(outcome.cached)),
        (
            "kernel_ms",
            Json::from(outcome.timings.kernel.as_secs_f64() * 1e3),
        ),
        (
            "total_ms",
            Json::from(outcome.timings.total().as_secs_f64() * 1e3),
        ),
        ("payload", payload),
    ]
}

/// Renders a successful `run` response (also one element of a
/// `batch` response's `results` array). The payload is summarized
/// (counts, not items); [`outcome_json_full`] materializes it.
pub fn outcome_json(spec: &RunSpec, outcome: &Outcome) -> Json {
    response(outcome_members(
        spec,
        outcome,
        payload_json(&outcome.payload),
    ))
}

/// Renders a successful `run` response with the payload's items
/// materialized under `payload.items` (plus `payload.items_total`) —
/// the form the streaming HTTP endpoints page over chunk by chunk.
pub fn outcome_json_full(spec: &RunSpec, outcome: &Outcome) -> Json {
    let summary = payload_json(&outcome.payload);
    let mut members: Vec<(String, Json)> = summary
        .as_object()
        .map(|fields| fields.to_vec())
        .unwrap_or_default();
    members.push((
        "items_total".to_string(),
        Json::from(payload_item_count(&outcome.payload)),
    ));
    members.push((
        "items".to_string(),
        payload_items_json(&outcome.payload, 0, usize::MAX),
    ));
    let payload = Json::Object(members);
    response(outcome_members(spec, outcome, payload))
}

/// Renders a hexadecimal graph fingerprint the way every endpoint
/// spells it.
pub fn fingerprint_json(fingerprint: u64) -> Json {
    Json::from(format!("{fingerprint:#018x}"))
}

/// Renders a resident graph the way every endpoint spells one — the
/// `load` reply (`label` = `"graph"`) and the rows of `stats`
/// (`"name"`): identity, size and lineage, then the representation
/// actually held.
pub fn graph_members(
    label: &'static str,
    name: &str,
    resident: &Resident,
) -> Vec<(&'static str, Json)> {
    let store = resident.store();
    let lineage = resident.lineage();
    vec![
        (label, Json::from(name)),
        ("vertices", Json::from(store.num_vertices())),
        ("edges", Json::from(store.num_arcs() / 2)),
        ("fingerprint", fingerprint_json(resident.fingerprint())),
        (
            "base_fingerprint",
            fingerprint_json(lineage.base_fingerprint),
        ),
        ("version", Json::from(lineage.version)),
        ("compression", Json::from(store.compression())),
        ("resident_bytes", Json::from(store.resident_bytes())),
    ]
}

/// The acknowledgement of a `shutdown` request, from a server and a
/// router alike.
pub fn shutdown_ack() -> Json {
    response(vec![
        ("ok", Json::Bool(true)),
        ("status", Json::from("shutting-down")),
    ])
}

/// Renders a successful `add_edges` / `remove_edges` response: the
/// graph's new identity (fingerprint, base fingerprint, version), the
/// effective delta, and how the result cache fared.
pub fn mutation_json(graph: &str, outcome: &MutationOutcome) -> Json {
    response(vec![
        ("ok", Json::Bool(true)),
        ("graph", Json::from(graph)),
        ("fingerprint", fingerprint_json(outcome.fingerprint)),
        (
            "base_fingerprint",
            fingerprint_json(outcome.base_fingerprint),
        ),
        ("version", Json::from(outcome.version)),
        ("added", Json::from(outcome.added)),
        ("removed", Json::from(outcome.removed)),
        ("touched", Json::from(outcome.touched)),
        ("vertices", Json::from(outcome.vertices)),
        ("edges", Json::from(outcome.edges)),
        (
            "cache",
            Json::object([
                ("survived", Json::from(outcome.cache.survived)),
                ("refreshed", Json::from(outcome.cache.refreshed)),
                ("invalidated", Json::from(outcome.cache.invalidated)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        for (line, control) in [
            (r#"{"op":"health"}"#, true),
            (r#"{"op":"kernels"}"#, true),
            (r#"{"op":"stats"}"#, true),
            (r#"{"op":"shutdown"}"#, true),
            (
                r#"{"op":"load","graph":"g","format":"metis","path":"/x"}"#,
                false,
            ),
            (
                r#"{"op":"load","graph":"g","format":"gcsr","path":"/x","compression":"gap"}"#,
                false,
            ),
            (
                r#"{"op":"run","kernel":"k-clique","graph":"g","params":{"k":3}}"#,
                false,
            ),
            (
                r#"{"op":"batch","requests":[{"kernel":"t","graph":"g"}]}"#,
                false,
            ),
        ] {
            let request = parse_envelope(line).unwrap().request;
            let is_control = matches!(
                request,
                Request::Health | Request::Kernels | Request::Stats | Request::Shutdown
            );
            assert_eq!(is_control, control, "{line}");
        }
    }

    #[test]
    fn run_params_convert_and_reject_non_scalars() {
        let Envelope { request, id, .. } = parse_envelope(
            r#"{"op":"run","id":7,"kernel":"k-clique","graph":"g","params":{"k":5,"eps":0.5,"ordering":"adg","collect":true}}"#,
        )
        .unwrap();
        assert_eq!(id, Some(Json::Int(7)));
        let Request::Run(spec) = request else {
            panic!("expected run")
        };
        assert_eq!(spec.params.get_int("k", 0), 5);
        assert_eq!(spec.params.get_float("eps", 0.0), 0.5);
        assert_eq!(spec.params.get_str("ordering", ""), "adg");
        assert!(spec.params.get_bool("collect", false));

        let err = parse_envelope(r#"{"op":"run","kernel":"k","graph":"g","params":{"k":[1]}}"#)
            .unwrap_err();
        assert_eq!(err.0.code, ErrorCode::BadRequest);
    }

    #[test]
    fn malformed_lines_carry_typed_codes_and_recovered_ids() {
        let (err, id) = parse_envelope("{nope").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadJson);
        assert!(id.is_none());

        let (err, id) = parse_envelope(r#"{"op":"warp","id":"x"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(id, Some(Json::Str("x".into())), "id survives a bad op");

        let (err, _) =
            parse_envelope(r#"{"op":"load","graph":"g","format":"xml","path":"p"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);

        let (err, _) =
            parse_envelope(r#"{"op":"load","graph":"g","format":"gcsr","data":"x"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest, "inline gcsr is rejected");

        let (err, _) = parse_envelope(
            r#"{"op":"load","graph":"g","format":"metis","path":"p","compression":"zip"}"#,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest, "unknown compression");

        let (err, _) =
            parse_envelope(r#"{"op":"load","graph":"g","format":"metis","path":"a","data":"b"}"#)
                .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn fleet_error_vocabulary_renders_with_extra_members() {
        for (code, spelling) in [
            (ErrorCode::BackendUnavailable, "backend-unavailable"),
            (ErrorCode::Moved, "moved"),
            (ErrorCode::GraphNotFound, "graph-not-found"),
        ] {
            assert_eq!(code.as_str(), spelling);
        }
        let rendered = error_json(
            &ApiError::new(ErrorCode::Moved, "graph \"g\" moved")
                .with_detail("addr", Json::from("127.0.0.1:7002")),
        );
        assert_eq!(
            rendered.render(),
            r#"{"v":1,"ok":false,"error":{"code":"moved","message":"graph \"g\" moved","retryable":true,"addr":"127.0.0.1:7002"}}"#
        );
    }

    #[test]
    fn error_and_outcome_rendering() {
        let rendered = error_json(&ApiError::new(
            ErrorCode::QueueFull,
            "admission queue at capacity (4)",
        ))
        .render();
        assert_eq!(
            rendered,
            r#"{"v":1,"ok":false,"error":{"code":"queue-full","message":"admission queue at capacity (4)","retryable":true}}"#
        );

        let spec = RunSpec {
            kernel: "triangle-count".into(),
            graph: "g".into(),
            params: Params::new(),
        };
        let outcome = Outcome::new("triangle-count", 12);
        let v = outcome_json(&spec, &outcome);
        assert_eq!(v.get("v"), Some(&Json::Int(1)), "responses are versioned");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("patterns"), Some(&Json::Int(12)));
        assert_eq!(v.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("payload")
                .and_then(|p| p.get("type"))
                .and_then(Json::as_str),
            Some("none")
        );
    }

    #[test]
    fn envelope_members_parse_and_validate() {
        let env = parse_envelope(
            r#"{"v":1,"op":"run","id":4,"kernel":"t","graph":"g","deadline_ms":250,"client":"alice","weight":4}"#,
        )
        .unwrap();
        assert_eq!(env.deadline_ms, Some(250));
        assert_eq!(env.client.as_deref(), Some("alice"));
        assert_eq!(env.weight, 4);
        assert_eq!(env.id, Some(Json::Int(4)));

        // A request without "v" means v1 and takes every default...
        let bare = parse_envelope(r#"{"op":"health"}"#).unwrap();
        assert_eq!(bare, Envelope::new(Request::Health));

        // ...but a *wrong* version, bad deadline, or bad weight is a
        // typed bad-request.
        for line in [
            r#"{"v":2,"op":"health"}"#,
            r#"{"v":"1","op":"health"}"#,
            r#"{"op":"health","deadline_ms":0}"#,
            r#"{"op":"health","deadline_ms":-5}"#,
            r#"{"op":"health","client":""}"#,
            r#"{"op":"health","weight":0}"#,
            r#"{"op":"health","weight":4096}"#,
        ] {
            let (err, _) = parse_envelope(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn api_errors_round_trip_and_classify() {
        assert!(ErrorCode::RateLimited.retryable());
        assert!(ErrorCode::DeadlineExceeded.retryable());
        assert!(!ErrorCode::PayloadTooLarge.retryable());
        assert_eq!(ErrorCode::RateLimited.http_status(), 429);
        assert_eq!(ErrorCode::PayloadTooLarge.http_status(), 413);
        assert_eq!(ErrorCode::DeadlineExceeded.http_status(), 504);
        assert_eq!(ErrorCode::Timeout.http_status(), 408);

        let original = ApiError::new(ErrorCode::Moved, "graph \"g\" moved")
            .with_detail("addr", Json::from("10.0.0.2:7002"));
        let parsed = ApiError::from_json(&error_object(&original));
        assert_eq!(parsed.code, ErrorCode::Moved);
        assert_eq!(parsed.message, original.message);
        assert_eq!(parsed.details.len(), 1);
        assert_eq!(parsed.details[0].0, "addr");
    }

    #[test]
    fn payload_items_page_cleanly() {
        let payload = Payload::VertexGroups(vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(payload_item_count(&payload), 3);
        let page = payload_items_json(&payload, 1, 1);
        assert_eq!(page.render(), "[[2,3]]");
        let tail = payload_items_json(&payload, 2, 10);
        assert_eq!(tail.render(), "[[4,5]]");
        let off_end = payload_items_json(&payload, 7, 10);
        assert_eq!(off_end.render(), "[]");
        let ranks = Payload::Rank(vec![5, 4, 3]);
        assert_eq!(payload_items_json(&ranks, 0, 2).render(), "[5,4]");
    }
}
