//! The `gms-serve` binary's lifecycle as an operator drives it: start
//! on an ephemeral port, publish the bound address through
//! `--addr-file`, answer both framings, and exit with status 0 after a
//! wire `shutdown`. The in-process tests in `server_e2e.rs` cover the
//! protocol; only this file runs the real executable.

use gms_serve::{ClientBuilder, HttpClient, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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
        "gms-serve-binary-{tag}-{}.addr",
        std::process::id()
    ))
}

/// Starts the real binary on an ephemeral port and returns it with
/// its published address.
fn spawn_server(tag: &str) -> (Running, String) {
    let path = addr_file(tag);
    let _ = std::fs::remove_file(&path);
    let mut server = Running(
        Command::new(env!("CARGO_BIN_EXE_gms-serve"))
            .args(["--addr", "127.0.0.1:0", "--queue", "4", "--addr-file"])
            .arg(&path)
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn gms-serve"),
    );
    let addr = published_addr(&mut server.0, &path, Duration::from_secs(10));
    let _ = std::fs::remove_file(&path);
    (server, addr)
}

/// Sends one raw NDJSON line and parses the one-line reply; a process
/// that died on the line leaves nothing to parse.
fn exchange_line(addr: &str, line: &str) -> Json {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    writeln!(stream, "{line}").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    Json::parse(&reply).unwrap_or_else(|e| panic!("no reply to {line} ({e:?}): {reply:?}"))
}

#[test]
fn the_binary_publishes_its_address_serves_and_exits_cleanly_on_shutdown() {
    let (mut server, addr) = spawn_server("lifecycle");

    let mut client = ClientBuilder::new()
        .read_timeout(Duration::from_secs(30))
        .connect(addr.as_str())
        .unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        health.get("addr").and_then(Json::as_str),
        Some(addr.as_str())
    );
    assert_eq!(health.get("queue_capacity"), Some(&Json::Int(4)));

    let loaded = client
        .load_inline("toy", "edge-list", "0 1\n1 2\n2 0\n2 3\n")
        .unwrap();
    assert_eq!(
        loaded.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        loaded.render()
    );
    let run = client.run("triangle-count", "toy", &[]).unwrap();
    assert_eq!(run.get("patterns"), Some(&Json::Int(1)), "{}", run.render());

    let http = HttpClient::new(addr.as_str()).unwrap();
    assert_eq!(http.get("/v1/health").unwrap().status, 200);

    let ack = client.shutdown().unwrap();
    assert_eq!(
        ack.get("status").and_then(Json::as_str),
        Some("shutting-down")
    );
    let status = exit_status(&mut server.0, Duration::from_secs(10));
    assert!(status.success(), "gms-serve exited with {status}");
}

/// A `threads` width of 2^40 once reached the pool shim, whose
/// allocation of that many workers aborted the process. The schema
/// bounds `threads`, so the line is a typed `bad-param` and the
/// process keeps serving.
#[test]
fn a_two_to_the_forty_thread_request_is_a_bad_param_and_the_process_lives() {
    let (mut server, addr) = spawn_server("threads");
    let mut client = ClientBuilder::new()
        .read_timeout(Duration::from_secs(30))
        .connect(addr.as_str())
        .unwrap();
    let loaded = client
        .load_inline("g", "edge-list", "0 1\n1 2\n2 0\n")
        .unwrap();
    assert_eq!(
        loaded.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        loaded.render()
    );

    let reply = exchange_line(
        &addr,
        r#"{"op":"run","kernel":"subgraph-iso-par","graph":"g","params":{"threads":1099511627776}}"#,
    );
    let error = reply
        .get("error")
        .unwrap_or_else(|| panic!("{}", reply.render()));
    assert_eq!(error.get("code").and_then(Json::as_str), Some("bad-param"));

    assert!(server.0.try_wait().unwrap().is_none(), "gms-serve exited");
    // `kernels` reports the bound the line broke.
    let kernels = client.kernels().unwrap();
    let threads = kernels
        .get("kernels")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|k| k.get("name").and_then(Json::as_str) == Some("subgraph-iso-par"))
        .and_then(|k| k.get("params").and_then(Json::as_array))
        .unwrap()
        .iter()
        .find(|p| p.get("name").and_then(Json::as_str) == Some("threads"))
        .cloned()
        .unwrap();
    assert_eq!(threads.get("min"), Some(&Json::Int(0)));
    assert_eq!(threads.get("max"), Some(&Json::Int(64)));
    let health = client.health().unwrap();
    assert_eq!(
        health.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        health.render()
    );
    let run = client
        .run("subgraph-iso-par", "g", &[("threads", Json::Int(2))])
        .unwrap();
    assert_eq!(run.get("patterns"), Some(&Json::Int(6)), "{}", run.render());
}
