//! The `/v1` HTTP/1.1 gateway: the public face of the server.
//!
//! The server listens on **one** port and sniffs the first byte of
//! each connection: `{` means the NDJSON wire protocol, an ASCII
//! method letter means HTTP. This module is only the HTTP part —
//! head/body framing, the route table, status mapping, chunked
//! streaming. A request's route, path segment, `X-Gms-*` headers and
//! JSON body are folded into the same members an NDJSON line
//! carries, validated by the same
//! [`envelope_from`](crate::protocol::envelope_from), and enter the
//! same [`Service::call`] — the gateway is a framing, not a second
//! server.
//!
//! ```text
//! GET  /v1/health                  liveness + capacity probe
//! GET  /v1/kernels                 kernel listing with schemas
//! GET  /v1/stats                   cache / server / client stats
//! POST /v1/graphs                  load a graph (body: load spec)
//! POST /v1/graphs/{name}/run       run a kernel (body: {kernel, params})
//! POST /v1/graphs/{name}/mutate    batched edge mutation
//! ```
//!
//! Failures reuse the NDJSON error body verbatim
//! (`{"v":1,"ok":false,"error":{code,message,retryable,...}}`) with
//! the status line picked by
//! [`ErrorCode::http_status`](crate::protocol::ErrorCode::http_status),
//! so the two surfaces never disagree about what went wrong.
//!
//! Request metadata rides in headers: `X-Gms-Deadline-Ms` (relative
//! deadline, propagated into the kernel as a cancellation token),
//! `X-Gms-Client` (fairness identity; defaults to the peer address),
//! and `X-Gms-Weight` (weighted-fair-queuing weight).
//!
//! Abuse is rejected before it costs memory or compute: a
//! `Content-Length` above the configured body cap answers `413`
//! *without reading the body*, a peer that trickles its request head
//! slower than the request timeout gets `408` (the slow-loris
//! guard), and over-deadline work is dropped at the next kernel
//! cancellation point.
//!
//! `POST /v1/graphs/{name}/run?stream=1&limit=N` switches the
//! response to `Transfer-Encoding: chunked` NDJSON streaming (see
//! [`stream`](crate::stream)): a meta line, then payload items in
//! pages of `N`, each page flushed as its own chunk.

use crate::json::Json;
use crate::protocol::{
    envelope_from, error_json, load_request, mutate_request, run_request, ApiError, ErrorCode,
    Request, RequestBuilder,
};
use crate::service::{Reply, Service, SyncReply, READ_POLL};
use crate::stream::{stream_outcome, DEFAULT_PAGE_LIMIT};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    /// Path without the query string.
    path: String,
    /// `key=value` pairs from the query string, undecoded.
    query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lowercased.
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpRequest {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

enum RecvError {
    /// Peer closed (or went idle into shutdown) between requests —
    /// not an error, just the end of the connection.
    Done,
    /// The slow-loris guard fired.
    Timeout,
    /// The head outgrew [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// Declared body above the configured cap.
    BodyTooLarge(usize),
    /// Anything else unparseable.
    Bad(String),
}

/// Serves HTTP requests on one sniffed connection until the peer
/// closes, an abuse guard fires, or the service shuts down.
pub(crate) fn http_connection<S: Service>(
    mut stream: TcpStream,
    service: &S,
    request_timeout: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown-peer".to_string());
    // Bytes read past one request's body (a pipelined next request)
    // carry over to the next `recv_request` instead of being dropped.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let request = match recv_request(&mut stream, service, request_timeout, &mut carry) {
            Ok(request) => request,
            Err(refused) => {
                let error = match refused {
                    RecvError::Done => return,
                    RecvError::Timeout => ApiError::new(
                        ErrorCode::Timeout,
                        format!(
                            "request not completed within {request_timeout:?} (slow-loris guard)"
                        ),
                    ),
                    RecvError::HeadTooLarge => ApiError::new(
                        ErrorCode::PayloadTooLarge,
                        format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                    ),
                    // Rejected on the Content-Length header alone —
                    // the oversized body was never read, let alone
                    // parsed.
                    RecvError::BodyTooLarge(declared) => ApiError::new(
                        ErrorCode::PayloadTooLarge,
                        format!(
                            "declared body of {declared} bytes exceeds the {}-byte cap",
                            service.max_body_bytes()
                        ),
                    ),
                    RecvError::Bad(message) => ApiError::new(ErrorCode::BadRequest, message),
                };
                let _ = send_error(&mut stream, &error, false);
                return;
            }
        };
        let front = service.front();
        front.http_requests.fetch_add(1, Ordering::Relaxed);
        front.requests.fetch_add(1, Ordering::Relaxed);
        let keep_alive = !request.wants_close();
        if handle_request(&mut stream, service, &request, &peer, keep_alive).is_err() {
            return; // peer hung up mid-response
        }
        if !keep_alive || !service.running() {
            return;
        }
    }
}

/// Reads one complete request. Idle waiting between requests is
/// unbounded (keep-alive), but once the first byte arrives the whole
/// head+body must land within `request_timeout`. `carry` seeds the
/// parse with bytes already read past the previous body (pipelining)
/// and receives this request's own overrun on return.
fn recv_request<S: Service>(
    stream: &mut TcpStream,
    service: &S,
    request_timeout: Duration,
    carry: &mut Vec<u8>,
) -> Result<HttpRequest, RecvError> {
    // Phase 0: wait for the first byte (poll so shutdown is noticed)
    // — unless a pipelined request is already buffered.
    if carry.is_empty() {
        let mut probe = [0u8; 1];
        loop {
            match stream.peek(&mut probe) {
                Ok(0) => return Err(RecvError::Done),
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !service.running() {
                        return Err(RecvError::Done);
                    }
                }
                Err(_) => return Err(RecvError::Done),
            }
        }
    }
    let deadline = Instant::now() + request_timeout;

    // Phase 1: the head, terminated by CRLFCRLF.
    let mut buf: Vec<u8> = std::mem::take(carry);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RecvError::HeadTooLarge);
        }
        read_some(stream, &mut buf, deadline)?;
    };
    let head = String::from_utf8(buf[..head_end].to_vec())
        .map_err(|_| RecvError::Bad("request head is not valid UTF-8".to_string()))?;
    let mut rest = buf.split_off(head_end + 4);
    std::mem::swap(&mut buf, &mut rest); // buf = bytes past the head

    let (request_line, headers) = parse_head(&head);
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("").to_string();
    if method.is_empty() || target.is_empty() {
        return Err(RecvError::Bad(format!(
            "malformed request line {request_line:?}"
        )));
    }

    // Phase 2: the body cap is enforced on the *declared* length,
    // before any body byte is read or buffered.
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| RecvError::Bad("unparseable Content-Length".to_string()))?
        .unwrap_or(0);
    if content_length > service.max_body_bytes() {
        return Err(RecvError::BodyTooLarge(content_length));
    }
    while buf.len() < content_length {
        read_some(stream, &mut buf, deadline)?;
    }
    // Bytes past the body belong to the next pipelined request.
    *carry = buf.split_off(content_length);

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(HttpRequest {
        method,
        path,
        query,
        headers,
        body: buf,
    })
}

/// Splits an HTTP head (without its blank line) into the start line
/// and the `(name, value)` header pairs, names lowercased — one parser
/// for the server's requests and [`HttpClient`](crate::HttpClient)'s
/// responses.
pub(crate) fn parse_head(head: &str) -> (&str, Vec<(String, String)>) {
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or("");
    let headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    (start_line, headers)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One bounded read append; maps timeouts against `deadline` to the
/// slow-loris error.
fn read_some(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    deadline: Instant,
) -> Result<(), RecvError> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(RecvError::Done),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(());
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return Err(RecvError::Timeout);
                }
            }
            Err(_) => return Err(RecvError::Done),
        }
    }
}

/// Routes one parsed request: the route names the operation, the
/// path segment, `X-Gms-*` headers and JSON body become the members
/// an NDJSON line would carry, and the resulting envelope crosses
/// the same [`Service::call`]. The answer is rendered with the
/// status its error code maps to (or streamed chunked when asked).
fn handle_request<S: Service>(
    stream: &mut TcpStream,
    service: &S,
    request: &HttpRequest,
    peer: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let (build, graph): (RequestBuilder, Option<&str>) =
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["v1", "health"]) => (|_| Ok(Request::Health), None),
            ("GET", ["v1", "kernels"]) => (|_| Ok(Request::Kernels), None),
            ("GET", ["v1", "stats"]) => (|_| Ok(Request::Stats), None),
            ("POST", ["v1", "graphs"]) => (load_request, None),
            ("POST", ["v1", "graphs", name, "run"]) => (run_request, Some(*name)),
            ("POST", ["v1", "graphs", name, "mutate"]) => (mutate_request, Some(*name)),
            _ => {
                let error = ApiError::new(
                    ErrorCode::GraphNotFound,
                    format!(
                        "no endpoint {} {} (see crates/gms-serve/README.md for the /v1 reference)",
                        request.method, request.path
                    ),
                );
                return send_error(stream, &error, keep_alive);
            }
        };
    let malformed = |stream: &mut TcpStream, error: &ApiError| {
        service.front().malformed.fetch_add(1, Ordering::Relaxed);
        send_error(stream, error, keep_alive)
    };

    // Path and headers first: `Json::get` answers the first match, so
    // they win over same-named body members.
    let mut members: Vec<(String, Json)> = Vec::new();
    if let Some(graph) = graph {
        members.push(("graph".to_string(), Json::from(graph)));
    }
    // A header that is not a number stays a string, which the
    // envelope's integer rules then reject.
    let number = |raw: &str| raw.parse().map_or_else(|_| Json::from(raw), Json::Int);
    if let Some(raw) = request.header("x-gms-deadline-ms") {
        members.push(("deadline_ms".to_string(), number(raw)));
    }
    if let Some(raw) = request.header("x-gms-weight") {
        members.push(("weight".to_string(), number(raw)));
    }
    let client = request.header("x-gms-client").filter(|c| !c.is_empty());
    members.push(("client".to_string(), Json::from(client.unwrap_or(peer))));
    if !request.body.is_empty() {
        match std::str::from_utf8(&request.body)
            .ok()
            .and_then(|text| Json::parse(text).ok())
        {
            Some(Json::Object(body)) => members.extend(body),
            // A non-object body has no members to offer.
            Some(_) => {}
            None => {
                let error = ApiError::new(ErrorCode::BadJson, "body is not valid JSON");
                return malformed(stream, &error);
            }
        }
    }
    let mut envelope = match envelope_from(&Json::Object(members), build) {
        Ok(envelope) => envelope,
        Err(error) => return malformed(stream, &error),
    };
    let streaming = request.query_param("stream").is_some_and(|v| v == "1");
    let limit = request
        .query_param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_PAGE_LIMIT);
    envelope.full_payload = streaming;

    let slot = SyncReply::new();
    service.call(envelope, Reply::sync(Arc::clone(&slot)));
    let response = slot.recv();

    // An error response carries its own status; success is 200.
    if let Some(error) = response.get("error") {
        let status = ApiError::from_json(error).code.http_status();
        return send_json(stream, status, &response, keep_alive);
    }
    if streaming {
        return stream_outcome(stream, &response, limit, keep_alive);
    }
    send_json(stream, 200, &response, keep_alive)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Writes one fixed-length JSON response.
fn send_json(
    stream: &mut TcpStream,
    status: u16,
    body: &Json,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut payload = body.render();
    payload.push('\n');
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        payload.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload.as_bytes())?;
    stream.flush()
}

/// Writes a typed error with its mapped status — the same error
/// object the NDJSON plane would send.
fn send_error(stream: &mut TcpStream, error: &ApiError, keep_alive: bool) -> std::io::Result<()> {
    send_json(
        stream,
        error.code.http_status(),
        &error_json(error),
        keep_alive,
    )
}
