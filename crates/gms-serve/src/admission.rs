//! Admission control: a bounded MPMC queue between the connection
//! threads (producers) and the worker sessions (consumers).
//!
//! The queue is the server's backpressure valve. Connection threads
//! *never block* on it: [`AdmissionQueue::try_submit_as`] either
//! admits the request or returns immediately with
//! [`SubmitError::Full`] (queue at capacity) or
//! [`SubmitError::RateLimited`] (that client's token bucket is
//! empty), which the wire layer turns into `queue-full` /
//! `rate-limited` error responses. A request answered without a
//! worker (a cache hit) enters through [`AdmissionQueue::admit_inline`]
//! instead: the same token bucket and accounting, no capacity check,
//! nothing queued. Worker threads block on
//! [`AdmissionQueue::dequeue`] until work arrives or the queue is
//! closed; closing drains — jobs admitted before
//! [`AdmissionQueue::close`] are still handed out, so a graceful
//! shutdown answers everything it admitted.
//!
//! # Fairness (the v1 redesign)
//!
//! The pre-v1 queue was one global FIFO: a client flooding requests
//! starved everyone behind it, and a shed request left no trace of
//! *who* was shed. The queue is now a set of per-client sub-queues
//! served by **weighted round-robin**: each visit to a client serves
//! up to `weight` consecutive items before the cursor moves on, so
//! two saturating clients with weights 4 and 1 see their work
//! dequeued in a 4:1 ratio, and a heavy client can only ever delay —
//! not starve — a light one. Every client's admitted / served / shed
//! / rate-limited counts are tracked and surfaced through
//! [`AdmissionQueue::client_stats`] into the server's `stats`
//! endpoint.
//!
//! An optional per-client **token bucket** ([`RateLimit`]) caps
//! sustained request rate independently of queue capacity: capacity
//! protects the *server*, the rate limit protects *other clients*.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Bound on distinct per-client accounting entries. Clients beyond
/// the bound share the default (`""`) entry, so a client-name
/// cardinality attack cannot grow server memory.
const MAX_CLIENTS: usize = 1024;

/// A per-client token-bucket rate limit: `rate_per_sec` sustained
/// requests per second with bursts up to `burst`.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Steady-state admissions per second per client.
    pub rate_per_sec: f64,
    /// Bucket capacity: how many requests may arrive back-to-back
    /// before the steady rate applies.
    pub burst: f64,
}

/// Why a submission was not admitted.
#[derive(Debug)]
pub enum SubmitError<T> {
    /// The queue is at capacity; the rejected item is handed back.
    Full(T),
    /// The submitting client's token bucket is empty; the rejected
    /// item is handed back. Other clients are unaffected.
    RateLimited(T),
    /// The queue was closed (server shutting down).
    Closed(T),
}

impl SubmitError<()> {
    /// The same refusal, handing `item` back to the submitter.
    fn with<T>(self, item: T) -> SubmitError<T> {
        match self {
            SubmitError::Full(()) => SubmitError::Full(item),
            SubmitError::RateLimited(()) => SubmitError::RateLimited(item),
            SubmitError::Closed(()) => SubmitError::Closed(item),
        }
    }
}

/// A point-in-time snapshot of one client's admission accounting.
#[derive(Clone, Debug)]
pub struct ClientStats {
    /// Client identity (`""` is the default / anonymous client).
    pub client: String,
    /// Current weighted-fair-queuing weight (the last one sent).
    pub weight: u32,
    /// Items waiting in this client's sub-queue right now.
    pub pending: usize,
    /// Total items admitted.
    pub admitted: u64,
    /// Total items handed to workers.
    pub served: u64,
    /// Total items rejected because the queue was at capacity — the
    /// record of *who* was shed that the FIFO design never kept.
    pub shed: u64,
    /// Total items rejected by this client's token bucket.
    pub rate_limited: u64,
}

struct ClientState<T> {
    name: String,
    weight: u32,
    items: VecDeque<T>,
    admitted: u64,
    served: u64,
    shed: u64,
    rate_limited: u64,
    tokens: f64,
    refilled: Instant,
}

impl<T> ClientState<T> {
    fn new(name: &str, burst: f64) -> Self {
        Self {
            name: name.to_string(),
            weight: 1,
            items: VecDeque::new(),
            admitted: 0,
            served: 0,
            shed: 0,
            rate_limited: 0,
            tokens: burst,
            refilled: Instant::now(),
        }
    }

    /// Refills by elapsed wall time, then tries to spend one token.
    fn take_token(&mut self, limit: &RateLimit) -> bool {
        let now = Instant::now();
        let elapsed = now.duration_since(self.refilled).as_secs_f64();
        self.refilled = now;
        self.tokens = (self.tokens + elapsed * limit.rate_per_sec).min(limit.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

struct Inner<T> {
    clients: Vec<ClientState<T>>,
    /// Index of the client the round-robin cursor is on.
    cursor: usize,
    /// How many more consecutive items the cursor's client may be
    /// served before the cursor moves on (reset to `weight` on
    /// arrival).
    quantum_left: u32,
    /// Total pending items across all sub-queues.
    len: usize,
    closed: bool,
}

impl<T> Inner<T> {
    /// Index of `client`'s accounting entry, creating it if the
    /// table has room; full tables fold new names into the default
    /// entry (index of `""`, itself created on demand).
    fn client_index(&mut self, client: &str, burst: f64) -> usize {
        if let Some(i) = self.clients.iter().position(|c| c.name == client) {
            return i;
        }
        if self.clients.len() >= MAX_CLIENTS {
            // Full table: fold the new name into the default entry,
            // creating it on demand — never push an attacker-chosen
            // name past the bound.
            if let Some(i) = self.clients.iter().position(|c| c.name.is_empty()) {
                return i;
            }
            self.clients.push(ClientState::new("", burst));
        } else {
            self.clients.push(ClientState::new(client, burst));
        }
        self.clients.len() - 1
    }

    /// Pops the next item under weighted round-robin. Caller
    /// guarantees `len > 0`.
    fn pop_weighted(&mut self) -> T {
        loop {
            let c = &mut self.clients[self.cursor];
            if self.quantum_left > 0 {
                if let Some(item) = c.items.pop_front() {
                    self.quantum_left -= 1;
                    self.len -= 1;
                    c.served += 1;
                    return item;
                }
            }
            self.cursor = (self.cursor + 1) % self.clients.len();
            self.quantum_left = self.clients[self.cursor].weight.max(1);
        }
    }
}

/// A bounded multi-producer / multi-consumer queue with non-blocking
/// submission, weighted-fair consumption, optional per-client rate
/// limits, and blocking, drain-on-close dequeue.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
    rate_limit: Option<RateLimit>,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` pending items, with no
    /// per-client rate limit.
    pub fn new(capacity: usize) -> Self {
        Self::with_rate_limit(capacity, None)
    }

    /// A queue admitting at most `capacity` pending items; when
    /// `rate_limit` is set, every client is additionally held to its
    /// own token bucket.
    pub fn with_rate_limit(capacity: usize, rate_limit: Option<RateLimit>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                clients: Vec::new(),
                cursor: 0,
                quantum_left: 1,
                len: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
            rate_limit,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits `item` for the default client at weight 1; never
    /// blocks. The pre-v1 entry point — NDJSON lines that carry no
    /// `"client"` member land here.
    pub fn try_submit(&self, item: T) -> Result<(), SubmitError<T>> {
        self.try_submit_as("", 1, item)
    }

    /// Admits `item` on `client`'s sub-queue at `weight`; never
    /// blocks. The weight sticks to the client (its last value
    /// wins), and a client's first rejection still creates its
    /// accounting entry — shed requests are attributed, not lost.
    pub fn try_submit_as(&self, client: &str, weight: u32, item: T) -> Result<(), SubmitError<T>> {
        let (mut inner, index) = match self.admit(client, weight, true) {
            Ok(admitted) => admitted,
            Err(refusal) => return Err(refusal.with(item)),
        };
        inner.clients[index].items.push_back(item);
        inner.len += 1;
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Admits one request that is answered without a worker — a
    /// cache hit served on its connection thread. It pays `client`'s
    /// token bucket and counts as admitted and served at once, but
    /// skips the capacity check: it never occupies a queue slot.
    pub fn admit_inline(&self, client: &str, weight: u32) -> Result<(), SubmitError<()>> {
        let (mut inner, index) = self.admit(client, weight, false)?;
        inner.clients[index].served += 1;
        Ok(())
    }

    /// The admission decision both entry points share: closed, then —
    /// for work that will wait in the queue — capacity, then the
    /// client's token bucket. Returns the locked queue and the
    /// admitted client's entry, its `admitted` count already bumped.
    fn admit(
        &self,
        client: &str,
        weight: u32,
        queued: bool,
    ) -> Result<(MutexGuard<'_, Inner<T>>, usize), SubmitError<()>> {
        let burst = self.rate_limit.map_or(0.0, |l| l.burst);
        let mut inner = self.lock();
        if inner.closed {
            return Err(SubmitError::Closed(()));
        }
        let index = inner.client_index(client, burst);
        inner.clients[index].weight = weight.max(1);
        // Capacity before the token bucket: a request shed on a full
        // queue must not also burn a rate-limit token — the work was
        // never admitted, so the client is not double-penalized.
        if queued && inner.len >= self.capacity {
            inner.clients[index].shed += 1;
            return Err(SubmitError::Full(()));
        }
        if let Some(limit) = &self.rate_limit {
            if !inner.clients[index].take_token(limit) {
                inner.clients[index].rate_limited += 1;
                return Err(SubmitError::RateLimited(()));
            }
        }
        inner.clients[index].admitted += 1;
        Ok((inner, index))
    }

    /// Blocks until an item is available and pops the next one under
    /// weighted round-robin. Returns `None` only when the queue is
    /// closed *and* drained.
    pub fn dequeue(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if inner.len > 0 {
                return Some(inner.pop_weighted());
            }
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Rejects all future submissions and wakes every waiting
    /// consumer; already-admitted items are still dequeued.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Items currently waiting, across all clients.
    pub fn depth(&self) -> usize {
        self.lock().len
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Per-client accounting, in first-seen order.
    pub fn client_stats(&self) -> Vec<ClientStats> {
        self.lock()
            .clients
            .iter()
            .map(|c| ClientStats {
                client: c.name.clone(),
                weight: c.weight,
                pending: c.items.len(),
                admitted: c.admitted,
                served: c.served,
                shed: c.shed,
                rate_limited: c.rate_limited,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_above_capacity_without_blocking() {
        let q = AdmissionQueue::new(2);
        q.try_submit(1).unwrap();
        q.try_submit(2).unwrap();
        assert!(matches!(q.try_submit(3), Err(SubmitError::Full(3))));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.dequeue(), Some(1));
        q.try_submit(3).unwrap();
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = AdmissionQueue::new(4);
        q.try_submit("a").unwrap();
        q.try_submit("b").unwrap();
        q.close();
        assert!(matches!(q.try_submit("c"), Err(SubmitError::Closed("c"))));
        assert_eq!(q.dequeue(), Some("a"));
        assert_eq!(q.dequeue(), Some("b"));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn blocking_consumers_wake_on_submit_and_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.dequeue())
            })
            .collect();
        // Two get items, one is released by close.
        q.try_submit(10).unwrap();
        q.try_submit(20).unwrap();
        q.close();
        let mut got: Vec<_> = consumers.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, Some(10), Some(20)]);
    }

    #[test]
    fn weighted_round_robin_serves_four_to_one() {
        let q = AdmissionQueue::new(64);
        for i in 0..16 {
            q.try_submit_as("heavy", 4, ("heavy", i)).unwrap();
            q.try_submit_as("light", 1, ("light", i)).unwrap();
        }
        // Under saturation, the first 10 dequeues split 8:2 — the
        // ≥2:1 completed-request ratio the 4:1 weights promise.
        let first: Vec<_> = (0..10).map(|_| q.dequeue().unwrap().0).collect();
        let heavy = first.iter().filter(|&&c| c == "heavy").count();
        let light = first.iter().filter(|&&c| c == "light").count();
        assert_eq!(heavy + light, 10);
        assert!(
            heavy >= 2 * light,
            "4:1 weights must yield >= 2:1 service, got {heavy}:{light}"
        );
        // Nothing starves: draining the queue serves everything.
        let mut rest = 0;
        while q.depth() > 0 {
            q.dequeue().unwrap();
            rest += 1;
        }
        assert_eq!(rest, 22);
    }

    #[test]
    fn shed_requests_are_attributed_to_their_client() {
        let q = AdmissionQueue::new(1);
        q.try_submit_as("a", 1, 1).unwrap();
        assert!(matches!(
            q.try_submit_as("b", 1, 2),
            Err(SubmitError::Full(2))
        ));
        assert!(matches!(
            q.try_submit_as("b", 1, 3),
            Err(SubmitError::Full(3))
        ));
        let stats = q.client_stats();
        let a = stats.iter().find(|s| s.client == "a").unwrap();
        let b = stats.iter().find(|s| s.client == "b").unwrap();
        assert_eq!((a.admitted, a.shed), (1, 0));
        assert_eq!((b.admitted, b.shed), (0, 2), "shed is per-client now");
    }

    #[test]
    fn client_table_is_bounded_under_name_cardinality_attack() {
        let q = AdmissionQueue::new(2 * MAX_CLIENTS);
        let extra = 100;
        for i in 0..MAX_CLIENTS + extra {
            let name = format!("spoofed-{i}");
            q.try_submit_as(&name, 1, i).unwrap();
        }
        let stats = q.client_stats();
        assert!(
            stats.len() <= MAX_CLIENTS + 1,
            "unique names must not grow the table past the bound (+ the fold entry), got {}",
            stats.len()
        );
        // Overflow names all fold into the default entry...
        let fold = stats.iter().find(|s| s.client.is_empty()).unwrap();
        assert_eq!(fold.admitted, extra as u64);
        // ...and nothing was lost.
        let mut drained = 0;
        while q.depth() > 0 {
            q.dequeue().unwrap();
            drained += 1;
        }
        assert_eq!(drained, MAX_CLIENTS + extra);
    }

    #[test]
    fn full_queue_rejection_does_not_burn_a_token() {
        let q = AdmissionQueue::with_rate_limit(
            1,
            Some(RateLimit {
                rate_per_sec: 1e-9,
                burst: 2.0,
            }),
        );
        q.try_submit_as("c", 1, 1).unwrap(); // one token spent
        assert!(matches!(
            q.try_submit_as("c", 1, 2),
            Err(SubmitError::Full(2))
        ));
        assert_eq!(q.dequeue(), Some(1));
        // The full-queue rejection must not have cost the second
        // token: this admission succeeds, and only then is the
        // bucket empty.
        q.try_submit_as("c", 1, 3).unwrap();
        assert_eq!(q.dequeue(), Some(3));
        assert!(matches!(
            q.try_submit_as("c", 1, 4),
            Err(SubmitError::RateLimited(4))
        ));
    }

    #[test]
    fn inline_admission_pays_the_token_bucket_but_not_the_capacity() {
        let q = AdmissionQueue::with_rate_limit(
            1,
            Some(RateLimit {
                rate_per_sec: 1e-9,
                burst: 2.0,
            }),
        );
        q.try_submit_as("c", 1, 1).unwrap();
        // The queue is full, yet a hit needs no slot...
        q.admit_inline("c", 3).unwrap();
        // ...but the bucket is the client's, whichever way it enters.
        assert!(matches!(
            q.admit_inline("c", 1),
            Err(SubmitError::RateLimited(()))
        ));
        let stats = q.client_stats();
        let c = stats.iter().find(|s| s.client == "c").unwrap();
        assert_eq!((c.admitted, c.served, c.pending), (2, 1, 1));
        assert_eq!((c.shed, c.rate_limited), (0, 1));
        q.close();
        assert!(matches!(
            q.admit_inline("c", 1),
            Err(SubmitError::Closed(()))
        ));
    }

    #[test]
    fn token_bucket_limits_one_client_not_the_other() {
        // A near-zero refill rate makes the test deterministic: each
        // client gets exactly `burst` admissions.
        let q = AdmissionQueue::with_rate_limit(
            64,
            Some(RateLimit {
                rate_per_sec: 1e-9,
                burst: 2.0,
            }),
        );
        q.try_submit_as("greedy", 1, 1).unwrap();
        q.try_submit_as("greedy", 1, 2).unwrap();
        assert!(matches!(
            q.try_submit_as("greedy", 1, 3),
            Err(SubmitError::RateLimited(3))
        ));
        // An unrelated client still has its own full bucket.
        q.try_submit_as("polite", 1, 4).unwrap();
        let stats = q.client_stats();
        let greedy = stats.iter().find(|s| s.client == "greedy").unwrap();
        assert_eq!(greedy.rate_limited, 1);
        assert_eq!(greedy.admitted, 2);
    }
}
