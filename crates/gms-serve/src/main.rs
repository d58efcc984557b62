//! The `gms-serve` binary: bind, print the bound address, serve
//! until a client sends `{"op":"shutdown"}`.
//!
//! Flags (each also readable from the environment):
//!
//! | flag | env | default | meaning |
//! |---|---|---|---|
//! | `--addr` | `GMS_SERVE_ADDR` | `127.0.0.1:0` | bind address (port 0 = ephemeral) |
//! | `--workers` | `GMS_SERVE_WORKERS` | 2 | worker threads |
//! | `--queue` | `GMS_SERVE_QUEUE` | 64 | admission-queue capacity |
//! | `--cache` | `GMS_SERVE_CACHE` | 256 | result-cache capacity |
//! | `--rate-limit` | `GMS_SERVE_RATE_LIMIT` | off | per-client token bucket as `rate/burst` (e.g. `100/20` = 100 req/s, burst 20) |
//! | `--max-body-bytes` | `GMS_SERVE_MAX_BODY` | 8388608 | largest inline request body; bigger is `payload-too-large` (HTTP 413) |
//! | `--request-timeout-ms` | `GMS_SERVE_REQUEST_TIMEOUT_MS` | 5000 | slow-loris guard: max time to deliver one complete request |
//! | `--addr-file` | `GMS_SERVE_ADDR_FILE` | — | write the bound address to this file (CI reads the ephemeral port from it) |

use gms_serve::{RateLimit, ServeConfig, Server};
use std::time::Duration;

fn arg_or_env(args: &[String], flag: &str, env: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| std::env::var(env).ok())
}

fn parse_or<T: std::str::FromStr>(value: Option<String>, default: T, flag: &str) -> T {
    match value {
        None => default,
        Some(text) => text.parse().unwrap_or_else(|_| {
            eprintln!("gms-serve: unparsable value {text:?} for {flag}");
            std::process::exit(2);
        }),
    }
}

fn parse_rate_limit(text: &str) -> RateLimit {
    let parsed = text.split_once('/').and_then(|(rate, burst)| {
        Some(RateLimit {
            rate_per_sec: rate.parse().ok().filter(|&r: &f64| r > 0.0)?,
            burst: burst.parse().ok().filter(|&b: &f64| b >= 1.0)?,
        })
    });
    parsed.unwrap_or_else(|| {
        eprintln!("gms-serve: --rate-limit expects \"rate/burst\" (e.g. 100/20), got {text:?}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = ServeConfig {
        addr: arg_or_env(&args, "--addr", "GMS_SERVE_ADDR")
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        workers: parse_or(
            arg_or_env(&args, "--workers", "GMS_SERVE_WORKERS"),
            2,
            "--workers",
        ),
        queue_capacity: parse_or(
            arg_or_env(&args, "--queue", "GMS_SERVE_QUEUE"),
            64,
            "--queue",
        ),
        cache_capacity: parse_or(
            arg_or_env(&args, "--cache", "GMS_SERVE_CACHE"),
            256,
            "--cache",
        ),
        rate_limit: arg_or_env(&args, "--rate-limit", "GMS_SERVE_RATE_LIMIT")
            .map(|text| parse_rate_limit(&text)),
        max_body_bytes: parse_or(
            arg_or_env(&args, "--max-body-bytes", "GMS_SERVE_MAX_BODY"),
            8 * 1024 * 1024,
            "--max-body-bytes",
        ),
        request_timeout: Duration::from_millis(parse_or(
            arg_or_env(
                &args,
                "--request-timeout-ms",
                "GMS_SERVE_REQUEST_TIMEOUT_MS",
            ),
            5000,
            "--request-timeout-ms",
        )),
    };
    let addr_file = arg_or_env(&args, "--addr-file", "GMS_SERVE_ADDR_FILE");

    let handle = Server::start(config).unwrap_or_else(|e| {
        eprintln!("gms-serve: failed to start: {e}");
        std::process::exit(1);
    });
    println!("gms-serve listening on {}", handle.addr());
    // Line-buffered stdout may sit on the banner otherwise.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Some(path) = addr_file {
        if let Err(e) = std::fs::write(&path, handle.addr().to_string()) {
            eprintln!("gms-serve: cannot write {path:?}: {e}");
            std::process::exit(1);
        }
    }
    // Serve until a client drives a graceful shutdown over the wire.
    handle.join();
    println!("gms-serve: shut down cleanly");
}
