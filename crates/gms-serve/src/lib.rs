//! # gms-serve
//!
//! The long-running process around the GMS kernel platform: a
//! std-only TCP server speaking newline-delimited JSON (crates.io is
//! unreachable, so the wire layer — including its JSON — is built on
//! `std::net` alone), exposing the `gms-platform` registry, resident
//! graphs and result cache as network endpoints with *admission
//! control* in front of the compute pool.
//!
//! The design separates request admission from execution resources
//! (the split HTAP serving systems like Polynesia make): connection
//! threads parse and answer cheap control-plane requests inline,
//! while every request that costs kernel or I/O time must pass a
//! bounded [`admission::AdmissionQueue`] — at capacity the server
//! answers `queue-full` immediately (the HTTP 429 analog) instead of
//! stacking work onto the fixed worker pool. N workers share one
//! table of resident graphs and one
//! [`ResultCache`](gms_platform::kernel::ResultCache), so
//! duplicate requests resolve to one kernel execution (single-flight)
//! wherever they land, and replacing a loaded graph invalidates the
//! old content's cached outcomes.
//!
//! Transports are framings over one seam: the [`service`] module
//! owns the connection front end (accept loop, protocol sniff,
//! bounded NDJSON lines, envelope parsing, `id` echo) and hands every
//! request — NDJSON line or HTTP `/v1` call — to one
//! [`Service::call`] as a parsed [`Envelope`]; this crate's server is
//! the local executor behind it, `gms-router`'s core the remote one.
//!
//! See `crates/gms-serve/README.md` for the protocol reference, and
//! run the server with `cargo run --release -p gms-serve`.
//!
//! ```
//! use gms_serve::{Client, Json, ServeConfig, Server};
//!
//! let handle = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let health = client.health().unwrap();
//! assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod client;
mod http;
pub mod json;
pub mod protocol;
pub mod server;
pub mod service;
mod stream;

pub use admission::{ClientStats, RateLimit};
pub use client::{Client, ClientBuilder, HttpClient, HttpResponse};
pub use json::{Json, JsonError};
pub use protocol::{
    response_or_error, ApiError, Envelope, ErrorCode, GraphFormat, LoadCompression, LoadSource,
    LoadSpec, MutateSpec, Request, RunSpec, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, ServerHandle};
pub use service::{Reply, Service};
