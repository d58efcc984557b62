//! Clients for both faces of the server: the newline-delimited JSON
//! protocol and the `/v1` HTTP gateway.
//!
//! - [`Client`] — one NDJSON connection, one request in flight. Every
//!   op helper (`health`, `load_inline`, `run`, `add_edges`, ...)
//!   builds a typed [`Request`], renders it through
//!   [`Envelope::to_json`] — `"v":1` plus the builder's default
//!   deadline / client identity / weight — and returns the response
//!   as `io::Result<Json>`: transport failures are the `Err`, a
//!   server-side failure is an `Ok` response with `"ok":false`.
//!   Callers that would rather `?` a typed failure pass the response
//!   through [`response_or_error`](crate::response_or_error).
//!   [`Client::request`] / [`Client::request_raw`] send anything
//!   else, including deliberately malformed lines.
//! - [`HttpClient`] — a minimal HTTP/1.1 client for the gateway,
//!   chunk-aware so tests and the benchmark can observe how many
//!   chunks a streamed response actually arrived in. Its bodies come
//!   from the same renderer.
//!
//! Construction goes through [`ClientBuilder`]:
//!
//! ```no_run
//! use gms_serve::{response_or_error, ClientBuilder};
//! use std::time::Duration;
//!
//! let mut client = ClientBuilder::new()
//!     .connect_timeout(Duration::from_secs(1))
//!     .read_timeout(Duration::from_secs(10))
//!     .deadline_ms(500)
//!     .client_name("alice")
//!     .weight(4)
//!     .connect("127.0.0.1:7001")
//!     .unwrap();
//! let health = response_or_error(client.health().unwrap()).unwrap();
//! assert_eq!(health.get("status").and_then(|s| s.as_str()), Some("serving"));
//! ```
//!
//! Built for reuse inside connection pools: the client remembers its
//! resolved address, carries configurable connect/read timeouts (a
//! dead server answers with a timeout error instead of hanging the
//! calling thread forever), and [`Client::request_idempotent`]
//! transparently reconnects and retries **once** when a pooled
//! connection turns out to be stale — the case every pool hits after
//! a server restart — but never after a read timeout.

use crate::http::parse_head;
use crate::json::Json;
use crate::protocol::{
    edges_json, params_from_json, ApiError, Envelope, ErrorCode, GraphFormat, LoadCompression,
    LoadSource, LoadSpec, MutateSpec, Request, RunSpec,
};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Builder for [`Client`] and [`HttpClient`]: connection timeouts
/// (unset = block indefinitely) plus the request defaults (deadline,
/// client identity, fairness weight) stamped onto every helper's
/// request.
#[derive(Clone, Debug)]
pub struct ClientBuilder {
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    deadline_ms: Option<u64>,
    client_name: Option<String>,
    weight: u32,
}

impl Default for ClientBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClientBuilder {
    /// A builder with no timeouts, no default deadline, anonymous
    /// identity, and weight 1.
    pub fn new() -> Self {
        Self {
            connect_timeout: None,
            read_timeout: None,
            deadline_ms: None,
            client_name: None,
            weight: 1,
        }
    }

    /// Give up dialing after this long.
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Give up waiting for a response after this long. The failed
    /// read surfaces as a `WouldBlock`/`TimedOut` I/O error and
    /// poisons the connection (the next use reconnects).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Default relative deadline stamped on every helper's request;
    /// the server propagates it into kernel cancellation points.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// The fairness / rate-limit identity sent with every helper's
    /// request.
    pub fn client_name(mut self, name: impl Into<String>) -> Self {
        self.client_name = Some(name.into());
        self
    }

    /// Weighted-fair-queuing weight (1..=1024) sent with every
    /// helper's request.
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Dials an NDJSON [`Client`].
    pub fn connect<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<Client> {
        let mut client = Client {
            addr: resolve(addr)?,
            config: self.clone(),
            conn: None,
            out: Vec::new(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Builds an [`HttpClient`] for the `/v1` gateway at `addr`
    /// (connections are per-request, so this only resolves the
    /// address).
    pub fn connect_http<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<HttpClient> {
        Ok(HttpClient {
            addr: resolve(addr)?,
            config: self.clone(),
        })
    }

    fn dial(&self, addr: &SocketAddr) -> std::io::Result<TcpStream> {
        let stream = match self.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(addr, timeout)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        Ok(stream)
    }
}

fn resolve<A: ToSocketAddrs>(addr: A) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing"))
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// One protocol connection. Each call sends a line and blocks for
/// the one-line response; drop the client to close the connection.
pub struct Client {
    addr: SocketAddr,
    config: ClientBuilder,
    conn: Option<Conn>,
    /// The request line being sent, newline included: reused across
    /// calls, and written with one `write_all`, so a line leaves as
    /// one segment under `TCP_NODELAY`, not two.
    out: Vec<u8>,
}

/// Whether an I/O failure means the connection was stale: the peer
/// closed, reset or refused it, so nothing was answered and one
/// redial may heal it.
fn is_stale(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionRefused
            | ErrorKind::UnexpectedEof
    )
}

/// A helper's arguments do not form a request (unknown format name,
/// non-scalar parameter): nothing was sent.
fn invalid_input(error: ApiError) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidInput, error.message)
}

impl Client {
    /// Connects to a running server with default (blocking) timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        ClientBuilder::new().connect(addr)
    }

    /// The resolved peer address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replaces the read timeout for subsequent requests.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.config.read_timeout = timeout;
        if let Some(conn) = &self.conn {
            conn.writer.set_read_timeout(timeout)?;
        }
        Ok(())
    }

    /// Drops any existing connection and dials a fresh one.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.conn = None;
        let stream = self.config.dial(&self.addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some(Conn {
            reader,
            writer: stream,
        });
        Ok(())
    }

    fn round_trip(&mut self, line: &str) -> std::io::Result<Json> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let conn = self.conn.as_mut().expect("reconnect() populated conn");
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let out = &self.out;
        let result = (|| {
            conn.writer.write_all(out)?;
            conn.writer.flush()?;
            let mut response = String::new();
            let n = conn.reader.read_line(&mut response)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            Ok(response)
        })();
        match result {
            Ok(response) => Json::parse(response.trim()).map_err(|e| {
                std::io::Error::new(ErrorKind::InvalidData, format!("unparsable response: {e}"))
            }),
            Err(e) => {
                // A half-written request or half-read response (a
                // dead peer, a read timeout) leaves the stream
                // desynchronized: poison the connection so the next
                // use dials fresh.
                self.conn = None;
                Err(e)
            }
        }
    }

    /// Sends raw bytes as one line and reads one response line. The
    /// raw entry point exists so tests and load generators can send
    /// deliberately malformed requests.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<Json> {
        self.round_trip(line)
    }

    /// Sends a request value and reads the response.
    pub fn request(&mut self, request: &Json) -> std::io::Result<Json> {
        self.request_raw(&request.render())
    }

    /// Like [`Client::request`], for requests that are safe to send
    /// twice (`health`, `stats`, `run` — the result cache makes runs
    /// repeatable): when the connection turns out to be stale (broken
    /// pipe, reset, refused, EOF on a pooled connection the server
    /// closed), reconnects and retries **once**. A second failure
    /// propagates — the server really is unreachable. A read timeout
    /// is never retried: the server took the request and did not
    /// answer in time, and asking again would only double the wait.
    /// The timed-out connection is still dropped (the next use dials
    /// fresh).
    pub fn request_idempotent(&mut self, request: &Json) -> std::io::Result<Json> {
        let line = request.render();
        match self.round_trip(&line) {
            Err(e) if is_stale(e.kind()) => {
                self.reconnect()?;
                self.round_trip(&line)
            }
            other => other,
        }
    }

    /// Renders `request` under the builder's defaults and sends it.
    /// Mutations ride the reconnect-and-retry path: set semantics
    /// make replaying a batch after a lost response safe.
    fn send(&mut self, request: Request) -> std::io::Result<Json> {
        let idempotent = matches!(request, Request::Mutate(_));
        let line = Envelope {
            deadline_ms: self.config.deadline_ms,
            client: self.config.client_name.clone(),
            weight: self.config.weight,
            ..Envelope::new(request)
        }
        .to_json();
        if idempotent {
            self.request_idempotent(&line)
        } else {
            self.request(&line)
        }
    }

    /// `health`: liveness and capacity.
    pub fn health(&mut self) -> std::io::Result<Json> {
        self.send(Request::Health)
    }

    /// `stats`: cache / server / graph statistics.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.send(Request::Stats)
    }

    /// `kernels`: the kernel listing with parameter schemas.
    pub fn kernels(&mut self) -> std::io::Result<Json> {
        self.send(Request::Kernels)
    }

    /// Loads a graph from text sent inline with the request.
    pub fn load_inline(&mut self, name: &str, format: &str, data: &str) -> std::io::Result<Json> {
        let source = LoadSource::Data(data.to_string());
        let request = build_load(name, format, source).map_err(invalid_input)?;
        self.send(request)
    }

    /// Loads a graph from a path on the server's filesystem.
    pub fn load_path(&mut self, name: &str, format: &str, path: &str) -> std::io::Result<Json> {
        let source = LoadSource::Path(path.to_string());
        let request = build_load(name, format, source).map_err(invalid_input)?;
        self.send(request)
    }

    /// Adds a batch of undirected edges to a loaded graph. Set
    /// semantics make the batch idempotent (already-present edges are
    /// no-ops), so the request rides the reconnect-and-retry path —
    /// a lost response is safe to replay.
    pub fn add_edges(&mut self, graph: &str, edges: &[(u32, u32)]) -> std::io::Result<Json> {
        self.send(build_mutate(graph, edges, &[]))
    }

    /// Removes a batch of undirected edges from a loaded graph. Set
    /// semantics make the batch idempotent (already-absent edges are
    /// no-ops), so the request rides the reconnect-and-retry path.
    pub fn remove_edges(&mut self, graph: &str, edges: &[(u32, u32)]) -> std::io::Result<Json> {
        self.send(build_mutate(graph, &[], edges))
    }

    /// Runs a kernel on a loaded graph with parameter overrides.
    pub fn run(
        &mut self,
        kernel: &str,
        graph: &str,
        params: &[(&str, Json)],
    ) -> std::io::Result<Json> {
        let request = build_run(kernel, graph, params).map_err(invalid_input)?;
        self.send(request)
    }

    /// Requests a graceful shutdown and returns the acknowledgment.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.send(Request::Shutdown)
    }
}

fn build_load(name: &str, format: &str, source: LoadSource) -> Result<Request, ApiError> {
    let format = GraphFormat::parse(format).ok_or_else(|| {
        ApiError::new(
            ErrorCode::BadRequest,
            format!("unknown graph format {format:?}"),
        )
    })?;
    Ok(Request::Load(LoadSpec {
        name: name.to_string(),
        format,
        source,
        compression: LoadCompression::None,
    }))
}

fn build_mutate(graph: &str, add: &[(u32, u32)], remove: &[(u32, u32)]) -> Request {
    Request::Mutate(MutateSpec {
        graph: graph.to_string(),
        add: add.to_vec(),
        remove: remove.to_vec(),
    })
}

fn build_run(kernel: &str, graph: &str, params: &[(&str, Json)]) -> Result<Request, ApiError> {
    let params = Json::Object(
        params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    Ok(Request::Run(RunSpec {
        kernel: kernel.to_string(),
        graph: graph.to_string(),
        params: params_from_json(&params)?,
    }))
}

/// A minimal HTTP/1.1 client for the `/v1` gateway. One connection
/// per request (`Connection: close`), which keeps it stateless and
/// lets it observe exactly how many chunks a streamed response
/// arrived in ([`HttpResponse::chunks`]).
pub struct HttpClient {
    addr: SocketAddr,
    config: ClientBuilder,
}

/// One parsed HTTP response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, chunked transfer already decoded.
    pub body: String,
    /// Data chunks the body arrived in: 1 for a fixed-length body,
    /// the actual chunk count for `Transfer-Encoding: chunked`.
    pub chunks: usize,
}

impl HttpResponse {
    /// Header lookup (name lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as one JSON value.
    pub fn json(&self) -> Result<Json, ApiError> {
        Json::parse(self.body.trim())
            .map_err(|e| ApiError::new(ErrorCode::Transport, format!("unparsable body: {e}")))
    }

    /// Parses an NDJSON body (a streamed response) line by line.
    pub fn json_lines(&self) -> Result<Vec<Json>, ApiError> {
        self.body
            .lines()
            .filter(|line| !line.trim().is_empty())
            .map(|line| {
                Json::parse(line.trim()).map_err(|e| {
                    ApiError::new(ErrorCode::Transport, format!("unparsable line: {e}"))
                })
            })
            .collect()
    }

    /// The typed error this response carries, if it is a failure.
    pub fn error(&self) -> Option<ApiError> {
        let body = self.json().ok()?;
        body.get("error").map(ApiError::from_json)
    }
}

impl HttpClient {
    /// A client for the gateway at `addr` with default (blocking)
    /// timeouts; [`ClientBuilder::connect_http`] sets more.
    pub fn new<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        ClientBuilder::new().connect_http(addr)
    }

    /// The resolved gateway address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `GET` a path (e.g. `/v1/health`).
    pub fn get(&self, path: &str) -> Result<HttpResponse, ApiError> {
        self.round_trip("GET", path, None)
    }

    /// `POST` a JSON body to a path.
    pub fn post(&self, path: &str, body: &Json) -> Result<HttpResponse, ApiError> {
        self.round_trip("POST", path, Some(body))
    }

    /// `POST /v1/graphs`: load a graph from inline text.
    pub fn load_inline(
        &self,
        name: &str,
        format: &str,
        data: &str,
    ) -> Result<HttpResponse, ApiError> {
        let request = build_load(name, format, LoadSource::Data(data.to_string()))?;
        self.post("/v1/graphs", &Envelope::new(request).to_json())
    }

    /// `POST /v1/graphs/{graph}/run`.
    pub fn run(
        &self,
        graph: &str,
        kernel: &str,
        params: &[(&str, Json)],
    ) -> Result<HttpResponse, ApiError> {
        let request = build_run(kernel, graph, params)?;
        self.post(
            &format!("/v1/graphs/{graph}/run"),
            &Envelope::new(request).to_json(),
        )
    }

    /// `POST /v1/graphs/{graph}/run?stream=1&limit=N`: chunked
    /// streaming with `limit` items per page.
    pub fn run_streaming(
        &self,
        graph: &str,
        kernel: &str,
        params: &[(&str, Json)],
        limit: usize,
    ) -> Result<HttpResponse, ApiError> {
        let request = build_run(kernel, graph, params)?;
        self.post(
            &format!("/v1/graphs/{graph}/run?stream=1&limit={limit}"),
            &Envelope::new(request).to_json(),
        )
    }

    /// `POST /v1/graphs/{graph}/mutate`.
    pub fn mutate(
        &self,
        graph: &str,
        add: &[(u32, u32)],
        remove: &[(u32, u32)],
    ) -> Result<HttpResponse, ApiError> {
        self.post(
            &format!("/v1/graphs/{graph}/mutate"),
            &Json::object([("add", edges_json(add)), ("remove", edges_json(remove))]),
        )
    }

    fn round_trip(
        &self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<HttpResponse, ApiError> {
        let transport = |e: std::io::Error| ApiError::new(ErrorCode::Transport, e.to_string());
        let mut stream = self.config.dial(&self.addr).map_err(transport)?;

        let payload = body.map(|b| b.render()).unwrap_or_default();
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n",
            self.addr
        );
        if let Some(ms) = self.config.deadline_ms {
            head.push_str(&format!("X-Gms-Deadline-Ms: {ms}\r\n"));
        }
        if let Some(name) = &self.config.client_name {
            head.push_str(&format!("X-Gms-Client: {name}\r\n"));
        }
        if self.config.weight != 1 {
            head.push_str(&format!("X-Gms-Weight: {}\r\n", self.config.weight));
        }
        if body.is_some() {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                payload.len()
            ));
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes()).map_err(transport)?;
        stream.write_all(payload.as_bytes()).map_err(transport)?;
        stream.flush().map_err(transport)?;

        // `Connection: close` means EOF delimits the response.
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).map_err(transport)?;
        parse_http_response(&raw)
    }
}

fn parse_http_response(raw: &[u8]) -> Result<HttpResponse, ApiError> {
    let bad = |why: &str| ApiError::new(ErrorCode::Transport, format!("bad HTTP response: {why}"));
    let text = std::str::from_utf8(raw).map_err(|_| bad("not UTF-8"))?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| bad("no head"))?;
    let (status_line, headers) = parse_head(head);
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparsable status line"))?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    if !chunked {
        return Ok(HttpResponse {
            status,
            headers,
            body: body.to_string(),
            chunks: 1,
        });
    }
    // Decode chunked transfer, counting data chunks as they arrived.
    let mut decoded = String::new();
    let mut chunks = 0usize;
    let mut rest = body;
    loop {
        let (size_line, tail) = rest
            .split_once("\r\n")
            .ok_or_else(|| bad("truncated chunk"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad("unparsable chunk size"))?;
        if size == 0 {
            break;
        }
        if tail.len() < size {
            return Err(bad("short chunk"));
        }
        decoded.push_str(&tail[..size]);
        chunks += 1;
        rest = tail[size..]
            .strip_prefix("\r\n")
            .ok_or_else(|| bad("chunk without terminator"))?;
    }
    Ok(HttpResponse {
        status,
        headers,
        body: decoded,
        chunks,
    })
}
