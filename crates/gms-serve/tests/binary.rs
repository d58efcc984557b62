//! The `gms-serve` binary's lifecycle as an operator drives it: start
//! on an ephemeral port, publish the bound address through
//! `--addr-file`, answer both framings, and exit with status 0 after a
//! wire `shutdown`. The in-process tests in `server_e2e.rs` cover the
//! protocol; only this file runs the real executable.

use gms_serve::{Client, ClientBuilder, HttpClient, Json};
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

/// No request can pick a pool width. `subgraph-iso-par` once took a
/// `threads` parameter that built the pool shim a registry of workers
/// per width (and at 2^40 aborted the process on the allocation); the
/// parameter is gone, so once every kernel has run, a second round of
/// every kernel plus width requests leaves the thread count where it
/// was.
#[test]
fn once_every_kernel_has_run_no_request_adds_a_thread() {
    let (mut server, addr) = spawn_server("threads");
    let mut client = ClientBuilder::new()
        .read_timeout(Duration::from_secs(30))
        .connect(addr.as_str())
        .unwrap();
    // Two graphs of different content, so the second round runs every
    // kernel again instead of answering from the cache: K5 with a tail
    // of one edge, then of two.
    let k5 = "0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n";
    for (graph, tail) in [("g", "4 5\n"), ("h", "4 5\n5 6\n")] {
        let loaded = client
            .load_inline(graph, "edge-list", &format!("{k5}{tail}"))
            .unwrap();
        assert_eq!(
            loaded.get("ok"),
            Some(&Json::Bool(true)),
            "{}",
            loaded.render()
        );
    }
    let kernels = client.kernels().unwrap();
    let names: Vec<String> = kernels
        .get("kernels")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|k| k.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert!(names.len() > 20, "{}", kernels.render());
    let run_every_kernel = |client: &mut Client, graph: &str| {
        for name in &names {
            let reply = client.run(name, graph, &[]).unwrap();
            assert!(reply.get("error").is_none(), "{name}: {}", reply.render());
        }
    };
    let tasks = |pid: u32| {
        std::fs::read_dir(format!("/proc/{pid}/task"))
            .unwrap()
            .count()
    };

    run_every_kernel(&mut client, "g");
    let warm = tasks(server.0.id());
    run_every_kernel(&mut client, "h");
    let widths: Vec<Json> = [3, 5, 1 << 40]
        .into_iter()
        .map(|width| {
            client
                .run("subgraph-iso-par", "h", &[("threads", Json::Int(width))])
                .unwrap()
        })
        .collect();
    assert_eq!(
        tasks(server.0.id()),
        warm,
        "threads after a second round of every kernel and the width requests"
    );
    for reply in &widths {
        let error = reply
            .get("error")
            .unwrap_or_else(|| panic!("{}", reply.render()));
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("unknown-param"),
            "{}",
            reply.render()
        );
        let message = error.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("\"threads\""), "{message}");
    }

    assert!(server.0.try_wait().unwrap().is_none(), "gms-serve exited");
    let run = client.run("subgraph-iso-par", "h", &[]).unwrap();
    // C(5, 3) triangles, each embedded 3! times.
    assert_eq!(
        run.get("patterns"),
        Some(&Json::Int(60)),
        "{}",
        run.render()
    );
}
