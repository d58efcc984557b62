//! The `Service` seam and the one front end in front of it.
//!
//! ```text
//!  NDJSON line ─┐ parse_envelope                       ┌─ gms-serve `Shared`:
//!               ├────────────────► Service::call ──────┤  control ops and run
//!  HTTP /v1 ────┘ route + headers   (Envelope, Reply)  │  hits inline, other
//!    + body → the same members                         │  data ops → admission
//!                                                      │  queue → worker pool
//!                                                      └─ gms-router `Core`:
//!                                                         place → forward →
//!                                                         failover (remote)
//! ```
//!
//! Everything a connection needs before a request means anything —
//! the accept loop, the first-byte protocol sniff, the bounded-line
//! NDJSON loop with its `payload-too-large` / resync / UTF-8
//! handling, envelope parsing, malformed accounting, the `id` echo
//! and the reply write — lives here once, generic over [`Service`].
//! A service sees only parsed [`Envelope`]s and answers each through
//! its [`Reply`]; `gms-serve` and `gms-router` differ in what `call`
//! does, not in how bytes become requests. [`Service::call`] is the
//! only way in, so no framing bypasses admission: a cache hit the
//! server answers before its queue still pays the client's token
//! bucket there, and everything else waits in the queue.

use crate::json::Json;
use crate::protocol::{error_json, parse_envelope, ApiError, Envelope, ErrorCode, Request};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked connection read may go unanswered before the
/// thread re-checks [`Service::running`]. Bounds shutdown latency
/// for idle connections.
pub(crate) const READ_POLL: Duration = Duration::from_millis(100);

/// What the front end counts on a service's behalf; the service
/// renders them in its `stats`.
#[derive(Default)]
pub struct FrontCounters {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests that parsed into an [`Envelope`] (plus, on the HTTP
    /// plane, every request with a complete head).
    pub requests: AtomicU64,
    /// Lines and bodies answered without reaching
    /// [`Service::call`]: bad JSON, bad members, over-long lines.
    pub malformed: AtomicU64,
    /// HTTP requests served by the `/v1` plane (any method).
    pub http_requests: AtomicU64,
}

/// What sits behind the front end: something that answers parsed
/// requests. Implemented by the `gms-serve` server state (local
/// executor) and the `gms-router` core (remote executor).
pub trait Service: Send + Sync + 'static {
    /// Whether the service is still serving. Once `false` the accept
    /// loop exits and idle connections close; requests that still
    /// arrive on open connections are passed to [`Service::call`],
    /// which answers them `shutting-down`.
    fn running(&self) -> bool;

    /// Answers one request by delivering exactly one response
    /// through `reply` — before returning or later, from any thread.
    /// The front end has already moved `request.id` into `reply`.
    fn call(&self, request: Envelope, reply: Reply);

    /// The counters the front end bumps.
    fn front(&self) -> &FrontCounters;

    /// Largest request line (or HTTP body) in bytes; anything longer
    /// is answered `payload-too-large` without being materialized.
    fn max_body_bytes(&self) -> usize;

    /// `Some(request timeout)` if a connection whose first byte is
    /// not `{` or whitespace is served as HTTP/1.1 `/v1`; `None`
    /// keeps every connection on the NDJSON plane.
    fn http(&self) -> Option<Duration>;
}

/// A shared, mutex-guarded handle on one connection's write half.
/// Workers serving requests from the same connection serialize their
/// response lines through it.
#[derive(Clone)]
struct ResponseWriter {
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
/// its request crosses the service.
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

    /// Blocks until the service delivers. Every `call` delivers
    /// exactly once, so this always returns.
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

enum Sink {
    /// Back onto an NDJSON connection's write half.
    Line(ResponseWriter),
    /// Into the [`SyncReply`] an HTTP thread is blocked on.
    Sync(Arc<SyncReply>),
}

/// Where one request's response goes. Consumed by
/// [`Reply::deliver`], so a request is answered at most once; usable
/// from any thread, so a service may answer inline or hand the reply
/// to a worker.
pub struct Reply {
    id: Option<Json>,
    sink: Sink,
}

impl Reply {
    pub(crate) fn sync(slot: Arc<SyncReply>) -> Self {
        Self {
            id: None,
            sink: Sink::Sync(slot),
        }
    }

    /// Sends `response`, with the request's `id` (when it sent one)
    /// appended as the last member.
    pub fn deliver(self, mut response: Json) {
        if let (Some(id), Json::Object(fields)) = (self.id, &mut response) {
            fields.push(("id".to_string(), id));
        }
        match self.sink {
            Sink::Line(writer) => writer.send(&response),
            Sink::Sync(slot) => {
                *slot.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(response);
                slot.ready.notify_all();
            }
        }
    }
}

/// Spawns the acceptor thread for `service` on `listener`: one
/// connection thread per accepted socket (named `{name}-conn`),
/// joined when the service stops running. The service's shutdown
/// must connect to the listener once to unblock `accept`.
pub fn spawn_acceptor<S: Service>(
    listener: TcpListener,
    service: Arc<S>,
    name: &'static str,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("{name}-acceptor"))
        .spawn(move || accept_loop(listener, &service, name))
        .expect("spawn acceptor thread")
}

fn accept_loop<S: Service>(listener: TcpListener, service: &Arc<S>, name: &'static str) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while service.running() {
        match listener.accept() {
            Ok((stream, _)) => {
                if !service.running() {
                    break;
                }
                service.front().connections.fetch_add(1, Ordering::Relaxed);
                let service = Arc::clone(service);
                if let Ok(handle) = std::thread::Builder::new()
                    .name(format!("{name}-conn"))
                    .spawn(move || connection_loop(stream, &*service))
                {
                    connections.push(handle);
                }
                // Opportunistically reap finished connection threads
                // so a long-lived server does not accumulate handles.
                connections.retain(|h| !h.is_finished());
            }
            Err(_) => {
                if !service.running() {
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
/// letter — goes to the `/v1` HTTP plane when the service speaks it.
/// Both planes share one port and one [`Service::call`].
fn connection_loop<S: Service>(stream: TcpStream, service: &S) {
    let Some(request_timeout) = service.http() else {
        return ndjson_connection(stream, service);
    };
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut first = [0u8; 1];
    loop {
        match stream.peek(&mut first) {
            Ok(0) => return, // closed before the first byte
            Ok(_) => {
                if first[0] == b'{' || first[0].is_ascii_whitespace() {
                    return ndjson_connection(stream, service);
                }
                return crate::http::http_connection(stream, service, request_timeout);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !service.running() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn ndjson_connection<S: Service>(stream: TcpStream, service: &S) {
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
    let cap = service.max_body_bytes();
    let reject = |error: ApiError, id: Option<Json>| {
        service.front().malformed.fetch_add(1, Ordering::Relaxed);
        let reply = Reply {
            id,
            sink: Sink::Line(writer.clone()),
        };
        reply.deliver(error_json(&error));
    };
    let mut reader = BufReader::new(read_half);
    // Byte-oriented line assembly with the body cap enforced *while*
    // bytes arrive: a newline-free stream is cut off at `cap`, never
    // materialized — the same reject-before-buffering guarantee the
    // HTTP plane gets from Content-Length. Partial lines survive
    // timeout polls intact, even mid-multibyte-character.
    let mut line: Vec<u8> = Vec::new();
    // Set after a too-long line: the remainder is consumed without
    // being stored, so memory stays bounded while the stream resyncs
    // on the next newline.
    let mut discarding = false;
    loop {
        let read = if discarding {
            discard_line(&mut reader)
        } else {
            read_line_bounded(&mut reader, &mut line, cap)
        };
        match read {
            Ok(LineRead::Closed) => break,
            Ok(LineRead::Line) if discarding => discarding = false, // resynced
            Ok(LineRead::Line) => {
                let text = std::str::from_utf8(&line).map(str::trim);
                let mut closing = false;
                match text {
                    Ok("") => {} // tolerate blank keep-alive lines
                    Ok(text) if text.len() > cap => reject(
                        ApiError::new(
                            ErrorCode::PayloadTooLarge,
                            format!(
                                "request line of {} bytes exceeds the {cap}-byte cap",
                                text.len()
                            ),
                        ),
                        None,
                    ),
                    Ok(text) => match parse_envelope(text) {
                        Ok(mut envelope) => {
                            service.front().requests.fetch_add(1, Ordering::Relaxed);
                            // An acknowledged shutdown ends the
                            // connection it arrived on.
                            closing = matches!(envelope.request, Request::Shutdown);
                            let reply = Reply {
                                id: envelope.id.take(),
                                sink: Sink::Line(writer.clone()),
                            };
                            service.call(envelope, reply);
                        }
                        Err((error, id)) => reject(error, id),
                    },
                    Err(_) => reject(
                        ApiError::new(ErrorCode::BadJson, "request line is not valid UTF-8"),
                        None,
                    ),
                }
                line.clear();
                if closing {
                    break;
                }
            }
            Ok(LineRead::TooLong) => {
                reject(
                    ApiError::new(
                        ErrorCode::PayloadTooLarge,
                        format!("request line exceeds the {cap}-byte cap"),
                    ),
                    None,
                );
                line.clear();
                discarding = true;
            }
            // Timeout poll: `line` keeps any partial read (and a
            // discard stays a discard); the loop resumes once more
            // bytes arrive.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !service.running() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

enum LineRead {
    /// A full line (newline included) went by.
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

/// Consumes bytes without storing them until a newline goes by
/// ([`LineRead::Line`]) or the peer closes; timeouts surface as
/// errors and the discard resumes on the next call.
fn discard_line(reader: &mut impl BufRead) -> std::io::Result<LineRead> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(LineRead::Closed);
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(LineRead::Line);
            }
            None => {
                let n = available.len();
                reader.consume(n);
            }
        }
    }
}
