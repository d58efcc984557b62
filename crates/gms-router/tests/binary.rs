//! The `gms-router` binary's self-managed lifecycle: `--spawn 2` forks
//! two `gms-serve` children found next to the router executable,
//! publishes the router's address through `--addr-file`, serves load,
//! run and batch across the fleet, and on a wire `shutdown` takes the
//! children down with it and exits with status 0. The in-process tests
//! in `router_e2e.rs` cover routing; only this file runs the real
//! executables.

use gms_serve::{ClientBuilder, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Kills the child if the test fails before it exits on its own.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The address the process wrote to `path`, once it has.
fn published_addr(child: &mut Child, path: &Path, within: Duration) -> String {
    let deadline = Instant::now() + within;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.trim().is_empty() {
                return text.trim().to_string();
            }
        }
        if let Some(status) = child.try_wait().unwrap() {
            panic!("exited with {status} before publishing its address");
        }
        assert!(
            Instant::now() < deadline,
            "no address in {}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn exit_status(child: &mut Child, within: Duration) -> ExitStatus {
    let deadline = Instant::now() + within;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "still running after shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn addr_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gms-router-binary-{tag}-{}.addr",
        std::process::id()
    ))
}

/// Starts `gms-router --spawn 2` and returns it with its published
/// address.
fn spawn_fleet(tag: &str) -> (Running, String) {
    let router_bin = Path::new(env!("CARGO_BIN_EXE_gms-router"));
    let serve_bin = router_bin.with_file_name("gms-serve");
    assert!(
        serve_bin.exists(),
        "--spawn needs the gms-serve binary next to gms-router, but {} is missing; \
         `cargo test --workspace` (or `-p gms-serve -p gms-router`) builds it",
        serve_bin.display()
    );

    let path = addr_file(tag);
    let _ = std::fs::remove_file(&path);
    let mut router = Running(
        Command::new(router_bin)
            .args(["--spawn", "2", "--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&path)
            .env_remove("GMS_ROUTER_SERVE_BIN")
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn gms-router"),
    );
    let addr = published_addr(&mut router.0, &path, Duration::from_secs(30));
    let _ = std::fs::remove_file(&path);
    (router, addr)
}

fn ok(response: &Json) -> &Json {
    assert_eq!(
        response.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        response.render()
    );
    response
}

#[test]
fn spawn_mode_serves_a_two_child_fleet_and_shuts_it_down() {
    let (mut router, addr) = spawn_fleet("lifecycle");

    let mut client = ClientBuilder::new()
        .read_timeout(Duration::from_secs(30))
        .connect(addr.as_str())
        .unwrap();
    let health = client.health().unwrap();
    assert_eq!(
        ok(&health).get("role").and_then(Json::as_str),
        Some("router")
    );
    assert_eq!(health.get("healthy"), Some(&Json::Int(2)));

    ok(&client
        .load_inline("triangle", "edge-list", "0 1\n1 2\n2 0\n")
        .unwrap());
    ok(&client
        .load_inline("k4", "edge-list", "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        .unwrap());
    let run = client.run("triangle-count", "k4", &[]).unwrap();
    assert_eq!(ok(&run).get("patterns"), Some(&Json::Int(4)));
    assert!(run.get("shard").and_then(Json::as_str).is_some());

    let item = |graph: &str| {
        Json::object([
            ("kernel", Json::from("triangle-count")),
            ("graph", Json::from(graph)),
        ])
    };
    let batch = client
        .request(&Json::object([
            ("op", Json::from("batch")),
            ("requests", Json::Array(vec![item("k4"), item("triangle")])),
        ]))
        .unwrap();
    let patterns: Vec<Option<&Json>> = ok(&batch)
        .get("results")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| r.get("patterns"))
        .collect();
    assert_eq!(patterns, [Some(&Json::Int(4)), Some(&Json::Int(1))]);

    let stats = client.stats().unwrap();
    let children: Vec<SocketAddr> = ok(&stats)
        .get("backends")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|b| {
            b.get("addr")
                .and_then(Json::as_str)
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert_eq!(children.len(), 2);

    let ack = client.shutdown().unwrap();
    assert_eq!(
        ack.get("status").and_then(Json::as_str),
        Some("shutting-down")
    );
    let status = exit_status(&mut router.0, Duration::from_secs(20));
    assert!(status.success(), "gms-router exited with {status}");
    // The router reaps its children before it exits; neither listens.
    for child in children {
        assert!(
            TcpStream::connect_timeout(&child, Duration::from_secs(1)).is_err(),
            "child {child} still listening after the router exited"
        );
    }
}

/// The line that once aborted a shard on a 2^40-worker pool
/// allocation — and, replayed by failover, its survivor too — is a
/// typed `unknown-param` from the owning shard (no kernel takes a
/// `threads` parameter), and the fleet stays whole.
#[test]
fn a_two_to_the_forty_thread_request_leaves_the_fleet_healthy() {
    let (mut router, addr) = spawn_fleet("threads");
    let mut client = ClientBuilder::new()
        .read_timeout(Duration::from_secs(30))
        .connect(addr.as_str())
        .unwrap();
    ok(&client
        .load_inline("g", "edge-list", "0 1\n1 2\n2 0\n")
        .unwrap());

    let mut stream = TcpStream::connect(addr.as_str()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let line = r#"{"op":"run","kernel":"subgraph-iso-par","graph":"g","params":{"threads":1099511627776}}"#;
    writeln!(stream, "{line}").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    let reply = Json::parse(&reply).unwrap_or_else(|e| panic!("no reply ({e:?}): {reply:?}"));
    let error = reply
        .get("error")
        .unwrap_or_else(|| panic!("{}", reply.render()));
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("unknown-param")
    );

    let health = client.health().unwrap();
    assert_eq!(
        ok(&health).get("healthy"),
        Some(&Json::Int(2)),
        "{}",
        health.render()
    );

    // A wire shutdown takes the children down too; a kill would
    // leave them running.
    let ack = client.shutdown().unwrap();
    assert_eq!(
        ack.get("status").and_then(Json::as_str),
        Some("shutting-down")
    );
    let status = exit_status(&mut router.0, Duration::from_secs(20));
    assert!(status.success(), "gms-router exited with {status}");
}
