//! Protocol v1 on the wire, framed by hand.
//!
//! The load generator depends on the wire contract, not on
//! `gms_serve::Client`: it writes NDJSON lines and HTTP/1.1 requests
//! itself over `std::net::TcpStream` and validates replies by scanning
//! a few fixed members, so its own cost is the same on every commit.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use gms_core::{CsrGraph, Edge};

/// No reply may take longer than this; a silent peer fails the run
/// instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One kernel request, independent of graph and id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct KernelKey {
    pub kernel: &'static str,
    /// The `params` object as JSON text (`{}` for defaults).
    pub params: &'static str,
}

pub const fn key(kernel: &'static str, params: &'static str) -> KernelKey {
    KernelKey { kernel, params }
}

/// A `run` line split around its id, so sending costs two copies and
/// an integer format.
pub struct RunTemplate {
    tail: String,
}

const RUN_HEAD: &str = "{\"v\":1,\"op\":\"run\",\"id\":";

impl RunTemplate {
    pub fn new(graph: &str, key: KernelKey) -> Self {
        Self {
            tail: format!(
                ",\"kernel\":\"{}\",\"graph\":\"{graph}\",\"params\":{}}}\n",
                key.kernel, key.params
            ),
        }
    }

    pub fn render_into(&self, id: u64, out: &mut String) {
        out.clear();
        out.push_str(RUN_HEAD);
        let _ = write!(out, "{id}");
        out.push_str(&self.tail);
    }

    pub fn render(&self, id: u64) -> String {
        let mut out = String::new();
        self.render_into(id, &mut out);
        out
    }
}

/// An inline edge-list `load` line. The text holds only digits, spaces
/// and newlines, so escaping the newlines is all JSON needs.
pub fn load_line(graph: &str, edge_list: &str) -> String {
    format!(
        "{{\"v\":1,\"op\":\"load\",\"graph\":\"{graph}\",\"format\":\"edge-list\",\"data\":\"{}\"}}\n",
        edge_list.replace('\n', "\\n")
    )
}

/// The graph as the edge-list text `load` accepts.
pub fn edge_list_text(graph: &CsrGraph) -> String {
    let mut bytes = Vec::new();
    gms_graph::io::write_edge_list(graph, &mut bytes).expect("writing to memory cannot fail");
    String::from_utf8(bytes).expect("an edge list is ASCII")
}

/// An `add_edges` / `remove_edges` line.
pub fn mutate_line(id: u64, graph: &str, add: bool, edges: &[Edge]) -> String {
    let op = if add { "add_edges" } else { "remove_edges" };
    let mut line =
        format!("{{\"v\":1,\"op\":\"{op}\",\"id\":{id},\"graph\":\"{graph}\",\"edges\":[");
    for (i, (u, v)) in edges.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "[{u},{v}]");
    }
    line.push_str("]}\n");
    line
}

/// The scalar token after the first `"name":` of a reply line. The
/// members scanned for (`ok`, `patterns`, `cached`, `total_ms`, ...)
/// occur once in a v1 reply, ahead of any nested object.
pub fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let at = line
        .match_indices(name)
        .find(|&(i, _)| is_member(line, i, name))?
        .0;
    token_after(line, at, name)
}

/// Same, for the last occurrence: `id` is always the final member,
/// after any text the server quotes back.
pub fn last_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let at = line
        .rmatch_indices(name)
        .find(|&(i, _)| is_member(line, i, name))?
        .0;
    token_after(line, at, name)
}

/// Whether the `name` found at `at` is a member name: `"name":`. No
/// allocation: this runs for every reply of a closed loop.
fn is_member(line: &str, at: usize, name: &str) -> bool {
    at > 0 && line.as_bytes()[at - 1] == b'"' && line[at + name.len()..].starts_with("\":")
}

fn token_after<'a>(line: &'a str, at: usize, name: &str) -> Option<&'a str> {
    let rest = line[at + name.len() + 2..].trim_start();
    let end = if let Some(quoted) = rest.strip_prefix('"') {
        quoted.find('"')? + 2
    } else {
        rest.find([',', '}', ']']).unwrap_or(rest.len())
    };
    Some(rest[..end].trim_matches('"'))
}

pub fn field_u64(line: &str, name: &str) -> Option<u64> {
    field(line, name)?.parse().ok()
}

pub fn field_f64(line: &str, name: &str) -> Option<f64> {
    field(line, name)?.parse().ok()
}

pub fn is_ok(line: &str) -> bool {
    field(line, "ok") == Some("true")
}

pub fn reply_id(line: &str) -> Option<u64> {
    last_field(line, "id")?.parse().ok()
}

/// A connection speaking NDJSON: one line out, one line back.
pub struct Ndjson {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Ndjson {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// Reads one reply line into `line` (cleared first).
    pub fn recv(&mut self, line: &mut String) -> std::io::Result<()> {
        line.clear();
        if self.reader.read_line(line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    pub fn call(&mut self, request: &str) -> std::io::Result<String> {
        self.send(request)?;
        let mut reply = String::new();
        self.recv(&mut reply)?;
        Ok(reply)
    }
}

/// A keep-alive HTTP/1.1 connection to the `/v1` gateway.
pub struct Http {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Http {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let Ndjson { writer, reader } = Ndjson::connect(addr)?;
        Ok(Self { writer, reader })
    }

    /// `POST /v1/graphs/{graph}/run`; returns the status and the body.
    pub fn run(&mut self, graph: &str, key: KernelKey) -> std::io::Result<(u16, String)> {
        let body = format!(
            "{{\"kernel\":\"{}\",\"params\":{}}}",
            key.kernel, key.params
        );
        let request = format!(
            "POST /v1/graphs/{graph}/run HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        read_http_response(&mut self.reader)
    }
}

/// Reads one `Content-Length`-framed HTTP/1.1 response.
pub fn read_http_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, String)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let length = length.ok_or_else(|| bad("no Content-Length"))?;
    if length > 1 << 20 {
        return Err(bad("reply body over 1 MiB"));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|body| (status, body))
        .map_err(|_| bad("body is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Replies recorded from gms-serve and gms-router at the commit
    // that added the benchmark.
    const RUN: &str = r#"{"v":1,"ok":true,"kernel":"k-clique","graph":"g","patterns":1,"cached":true,"kernel_ms":0.0,"total_ms":0.0,"payload":{"type":"none"},"id":4712}"#;
    const ROUTED: &str = r#"{"v":1,"ok":true,"kernel":"bk","graph":"g","patterns":2,"cached":false,"kernel_ms":0.044085,"total_ms":0.09351899999999999,"payload":{"type":"none"},"shard":"127.0.0.1:46319","id":12}"#;
    const MUTATED: &str = r#"{"v":1,"ok":true,"graph":"g","fingerprint":"0x7eb2a614c11c330c","base_fingerprint":"0xf8fd37309a7c8f41","version":1,"added":2,"removed":0,"touched":3,"vertices":4,"edges":6,"cache":{"survived":0,"refreshed":0,"invalidated":1},"id":88}"#;
    const REFUSED: &str = r#"{"v":1,"ok":false,"error":{"code":"unknown-kernel","message":"unknown kernel \"nope\"","retryable":false},"id":5}"#;
    const HTTP: &str = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 151\r\nConnection: keep-alive\r\n\r\n{\"v\":1,\"ok\":true,\"kernel\":\"triangle-count\",\"graph\":\"g\",\"patterns\":4,\"cached\":false,\"kernel_ms\":0.031361,\"total_ms\":0.031361,\"payload\":{\"type\":\"none\"}}\nHTTP/1.1 404";

    #[test]
    fn scans_recorded_ndjson_replies() {
        assert!(is_ok(RUN));
        assert_eq!(field_u64(RUN, "patterns"), Some(1));
        assert_eq!(field(RUN, "cached"), Some("true"));
        assert_eq!(field_f64(RUN, "total_ms"), Some(0.0));
        assert_eq!(reply_id(RUN), Some(4712));
        assert_eq!(field(ROUTED, "cached"), Some("false"));
        assert_eq!(field_f64(ROUTED, "total_ms"), Some(0.09351899999999999));
        assert_eq!(field(ROUTED, "shard"), Some("127.0.0.1:46319"));
        assert_eq!(reply_id(ROUTED), Some(12));
        assert_eq!(field_u64(MUTATED, "added"), Some(2));
        assert_eq!(field_u64(MUTATED, "removed"), Some(0));
        assert_eq!(field_u64(MUTATED, "invalidated"), Some(1));
        assert_eq!(reply_id(MUTATED), Some(88));
        assert!(!is_ok(REFUSED));
        assert_eq!(field(REFUSED, "code"), Some("unknown-kernel"));
        assert_eq!(reply_id(REFUSED), Some(5));
        assert_eq!(field(RUN, "absent"), None);
    }

    #[test]
    fn reads_a_recorded_http_reply_and_leaves_the_next_one() {
        let mut reader = std::io::Cursor::new(HTTP.as_bytes());
        let (status, body) = read_http_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        assert!(is_ok(&body));
        assert_eq!(field_u64(&body, "patterns"), Some(4));
        assert_eq!(
            reader.position() as usize,
            HTTP.len() - "HTTP/1.1 404".len()
        );
    }

    #[test]
    fn renders_requests_the_server_documents() {
        let t = RunTemplate::new("g", key("k-clique", "{\"k\":3}"));
        assert_eq!(
            t.render(9),
            "{\"v\":1,\"op\":\"run\",\"id\":9,\"kernel\":\"k-clique\",\"graph\":\"g\",\"params\":{\"k\":3}}\n"
        );
        assert_eq!(
            mutate_line(2, "g", false, &[(0, 3), (1, 3)]),
            "{\"v\":1,\"op\":\"remove_edges\",\"id\":2,\"graph\":\"g\",\"edges\":[[0,3],[1,3]]}\n"
        );
        assert_eq!(
            load_line("g", "0 1\n1 2\n"),
            "{\"v\":1,\"op\":\"load\",\"graph\":\"g\",\"format\":\"edge-list\",\"data\":\"0 1\\n1 2\\n\"}\n"
        );
    }
}
