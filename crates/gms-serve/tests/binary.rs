//! The `gms-serve` binary's lifecycle as an operator drives it: start
//! on an ephemeral port, publish the bound address through
//! `--addr-file`, answer both framings, and exit with status 0 after a
//! wire `shutdown`. The in-process tests in `server_e2e.rs` cover the
//! protocol; only this file runs the real executable.

use gms_serve::{ClientBuilder, HttpClient, Json};
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

fn addr_file() -> PathBuf {
    std::env::temp_dir().join(format!("gms-serve-binary-{}.addr", std::process::id()))
}

#[test]
fn the_binary_publishes_its_address_serves_and_exits_cleanly_on_shutdown() {
    let path = addr_file();
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
