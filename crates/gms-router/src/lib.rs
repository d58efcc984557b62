//! # gms-router — sharded multi-backend serving
//!
//! A fleet front end for [`gms-serve`](gms_serve): one process that
//! speaks the **same newline-delimited JSON protocol** as a single
//! backend, but shards loaded graphs across N `gms-serve` processes
//! and survives losing any of them.
//!
//! ```text
//!              clients (unchanged gms-serve protocol)
//!                              │
//!                              ▼
//!                     ┌─── gms-router ───┐
//!                     │ global graph     │   capacity-weighted
//!                     │ table (truth)    │   consistent-hash ring:
//!                     │ spill snapshots  │   fingerprint → shard
//!                     │ health probes    │
//!                     └──┬──────┬──────┬─┘
//!                        ▼      ▼      ▼
//!                   serve:0  serve:1  serve:2     ← N gms-serve
//!                   workers  workers  workers       backends
//! ```
//!
//! The router is a [`gms_serve::service::Service`] whose executor is
//! remote: the connection front end (accept loop, bounded NDJSON
//! line reader, envelope parsing, `id` echo) is `gms-serve`'s, shared
//! verbatim, and what this crate adds is everything behind
//! `Service::call` — placement, forwarding, failover. Requests are
//! forwarded as the re-rendered [`gms_serve::Envelope`] (one parse
//! per line; the caller's `id` stays at the router).
//!
//! ```text
//!  framings                seam                  executors
//!  NDJSON line ─┐                          ┌─ gms-serve: admission queue → workers
//!               ├──► Service::call ────────┤
//!  HTTP /v1 ────┘  (Envelope, Reply)       └─ gms-router: place → forward → failover
//!  (gms-serve only)                                         └──► gms-serve × N
//! ```
//!
//! - **Placement** — a graph's home shard is the consistent-hash
//!   owner of its content fingerprint, with ring points weighted by
//!   each backend's worker count ([`ring`]). Placement is a pure
//!   function of the fleet membership: deterministic across router
//!   restarts and across independently configured routers.
//! - **Scatter-gather** — `batch` requests split by graph ownership,
//!   run on their shards concurrently, and reassemble in request
//!   order; `stats` merges every shard's counters into fleet-wide
//!   aggregates plus the router's own routing/failover counters.
//! - **Failover** — when a shard dies (request failure or background
//!   probe), the router re-places only that shard's graphs on the
//!   survivors, reloading from client-supplied paths or router-side
//!   `.gcsr` spills, and answers in-flight requests with either a
//!   transparent retry or — for clients that sent `"redirect":true` —
//!   a typed `moved` error naming the new shard. A fleet with no
//!   home for a graph answers `backend-unavailable`; nothing hangs.
//!
//! Start a fleet programmatically:
//!
//! ```no_run
//! use gms_router::{Router, RouterConfig};
//!
//! let handle = Router::start(RouterConfig {
//!     backends: vec!["127.0.0.1:7401".into(), "127.0.0.1:7402".into()],
//!     ..RouterConfig::default()
//! })?;
//! println!("routing on {}", handle.addr());
//! handle.shutdown();
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! or from the shell — `gms-router --spawn 4` forks four local
//! `gms-serve` children on ephemeral ports and fronts them.

pub mod backend;
pub mod ring;
pub mod router;

pub use ring::{HashRing, RingMember, POINTS_PER_WEIGHT};
pub use router::{Router, RouterConfig, RouterHandle};
