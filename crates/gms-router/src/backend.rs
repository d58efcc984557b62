//! One backend shard as the router sees it: an address, a capacity
//! weight, a health flag, and a pool of reusable protocol
//! connections.
//!
//! Pooled requests go through
//! [`Client::request_idempotent`](gms_serve::Client::request_idempotent),
//! so a single stale pooled connection (the server restarted, an
//! idle socket timed out) heals transparently with one reconnect —
//! while a backend that is actually gone surfaces as an I/O error
//! the router turns into failover.

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
    /// Transport failure after the one-reconnect retry: the shard is
    /// genuinely unreachable and failover should run.
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

    fn take(&self) -> std::io::Result<Client> {
        if let Some(client) = self.idle.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok(client);
        }
        self.dialer.connect(self.addr)
    }

    fn put(&self, client: Client) {
        self.idle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(client);
    }

    /// Sends one idempotent request through a pooled connection. On
    /// success the connection returns to the pool; on failure it is
    /// dropped (the caller decides whether the backend is dead).
    pub fn request(&self, request: &Json) -> std::io::Result<Json> {
        let mut client = self.take()?;
        match client.request_idempotent(request) {
            Ok(response) => {
                self.served.fetch_add(1, Ordering::Relaxed);
                self.put(client);
                Ok(response)
            }
            Err(e) => Err(e),
        }
    }

    /// Like [`Backend::request`], but when the caller carries a
    /// `deadline_ms` the pooled connection's read timeout is
    /// tightened to `deadline + slack` for this request — never
    /// loosened past the configured failover timeout — so an
    /// over-deadline request costs the routing thread roughly the
    /// deadline instead of the full 30 s death watch. A timeout under
    /// the tightened budget maps to [`RequestError::DeadlineLapsed`]
    /// (no failover); stale pooled connections still heal with one
    /// reconnect, exactly like the plain path.
    pub fn request_with_deadline(
        &self,
        request: &Json,
        deadline_ms: Option<u64>,
    ) -> Result<Json, RequestError> {
        let tightened = deadline_ms
            .map(|ms| Duration::from_millis(ms) + DEADLINE_SLACK)
            .filter(|t| *t < self.read_timeout);
        let Some(timeout) = tightened else {
            return self.request(request).map_err(RequestError::Dead);
        };
        let is_timeout =
            |e: &std::io::Error| matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut);
        let mut client = self.take().map_err(RequestError::Dead)?;
        if let Err(e) = client.set_read_timeout(Some(timeout)) {
            return Err(RequestError::Dead(e));
        }
        let outcome = match client.request(request) {
            // A non-timeout failure is a stale pooled connection (the
            // shard restarted, an idle socket died): one reconnect,
            // one retry — the deadline-tightened timeout carries over
            // because `reconnect` re-applies the client's config.
            Err(e) if !is_timeout(&e) => match client.reconnect() {
                Ok(()) => client.request(request),
                Err(dial) => Err(dial),
            },
            other => other,
        };
        match outcome {
            Ok(response) => {
                self.served.fetch_add(1, Ordering::Relaxed);
                // Restore the configured timeout before pooling so
                // the next request is not stuck with this deadline.
                if client.set_read_timeout(Some(self.read_timeout)).is_ok() {
                    self.put(client);
                }
                Ok(response)
            }
            Err(e) if is_timeout(&e) => Err(RequestError::DeadlineLapsed),
            Err(e) => Err(RequestError::Dead(e)),
        }
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
