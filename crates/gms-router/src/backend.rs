//! One backend shard as the router sees it: an address, a capacity
//! weight, a health flag, and a pool of reusable protocol
//! connections.
//!
//! [`Backend::request`] is the one pooled send, and it has one retry
//! rule — [`Client::request_idempotent`](gms_serve::Client::request_idempotent)'s:
//! a stale pooled connection (reset, broken pipe, EOF, refused: the
//! shard restarted, an idle socket died) heals with one redial and
//! one resend. A read timeout is never resent — the shard took the
//! request and did not answer — so a hung shard costs one timeout
//! before the router fails it over, and a lapsed caller deadline is
//! answered at once.

use gms_serve::{Client, ClientBuilder, Json};
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Grace on top of a caller deadline before the router stops waiting
/// on a shard: covers the shard's strided cancellation checks plus
/// one response transit.
const DEADLINE_SLACK: Duration = Duration::from_millis(500);

/// How a routed request failed — the distinction drives failover.
#[derive(Debug)]
pub enum RequestError {
    /// The caller's deadline (plus slack) lapsed waiting on the
    /// shard. The shard may be perfectly healthy and merely slow to
    /// cancel, so the router answers a typed `deadline-exceeded` and
    /// must **not** declare the backend dead.
    DeadlineLapsed,
    /// Transport failure after the stale-connection retry, or a read
    /// timeout with no tighter caller deadline: the shard is
    /// unreachable or hung, and failover should run.
    Dead(std::io::Error),
}

/// A registered shard.
pub struct Backend {
    /// The shard's address (also its ring identity).
    pub addr: SocketAddr,
    /// Ring weight — the backend's worker count from its `health`
    /// response at registration.
    pub weight: usize,
    healthy: AtomicBool,
    idle: Mutex<Vec<Client>>,
    /// Dials pooled connections; its read timeout is the failover
    /// death watch.
    dialer: ClientBuilder,
    read_timeout: Duration,
    /// Requests this shard served through the router.
    pub served: AtomicU64,
}

impl Backend {
    /// Registers a backend: dials it, probes `health` to learn its
    /// capacity (worker count), and starts with that connection
    /// pooled.
    pub fn register(
        addr: SocketAddr,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> std::io::Result<Self> {
        let dialer = ClientBuilder::new()
            .connect_timeout(connect_timeout)
            .read_timeout(read_timeout);
        let mut client = dialer.connect(addr)?;
        let health = client.health()?;
        let weight = health
            .get("workers")
            .and_then(Json::as_i64)
            .unwrap_or(1)
            .max(1) as usize;
        let backend = Self {
            addr,
            weight,
            healthy: AtomicBool::new(true),
            idle: Mutex::new(Vec::new()),
            dialer,
            read_timeout,
            served: AtomicU64::new(0),
        };
        backend.put(client);
        Ok(backend)
    }

    /// Whether the router currently considers this shard alive.
    pub fn healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Marks the shard dead; returns `true` on the transition (the
    /// caller that wins the race runs failover exactly once). The
    /// pool is drained — every pooled connection is to a dead peer.
    pub fn mark_down(&self) -> bool {
        let transitioned = self.healthy.swap(false, Ordering::SeqCst);
        if transitioned {
            self.idle.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        transitioned
    }

    fn put(&self, client: Client) {
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(client);
    }

    /// Sends one idempotent request through a pooled connection — the
    /// router's only pooled send. A `deadline_ms` tightens the read
    /// timeout to `deadline + slack` for this request when that is
    /// shorter than the configured failover timeout (it never loosens
    /// it), so an over-deadline request costs the routing thread
    /// roughly the deadline instead of the full death watch; without
    /// one the socket is not touched. A timeout under a tightened
    /// budget is [`RequestError::DeadlineLapsed`]; every other failure
    /// is [`RequestError::Dead`]. On success the connection returns to
    /// the pool; on failure it is dropped.
    pub fn request(&self, request: &Json, deadline_ms: Option<u64>) -> Result<Json, RequestError> {
        let tightened = deadline_ms
            .map(|ms| Duration::from_millis(ms) + DEADLINE_SLACK)
            .filter(|t| *t < self.read_timeout);
        let pooled = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let mut client = pooled
            .map_or_else(|| self.dialer.connect(self.addr), Ok)
            .map_err(RequestError::Dead)?;
        if tightened.is_some() {
            client
                .set_read_timeout(tightened)
                .map_err(RequestError::Dead)?;
        }
        let response = client.request_idempotent(request).map_err(|e| {
            let timed_out = matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
            if timed_out && tightened.is_some() {
                RequestError::DeadlineLapsed
            } else {
                RequestError::Dead(e)
            }
        })?;
        self.served.fetch_add(1, Ordering::Relaxed);
        // Restore the configured timeout before pooling so the next
        // request is not stuck with this deadline.
        if tightened.is_none() || client.set_read_timeout(Some(self.read_timeout)).is_ok() {
            self.put(client);
        }
        Ok(response)
    }

    /// A liveness probe with its own (short) deadline, independent of
    /// the pool: `true` iff the backend answers `health` in time.
    pub fn probe(&self, timeout: Duration) -> bool {
        let dialer = ClientBuilder::new()
            .connect_timeout(timeout)
            .read_timeout(timeout);
        match dialer.connect(self.addr) {
            Ok(mut client) => matches!(
                client.health(),
                Ok(ref h) if h.get("ok") == Some(&Json::Bool(true))
            ),
            Err(_) => false,
        }
    }
}
