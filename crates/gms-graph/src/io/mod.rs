//! Dataset I/O — the "load graph into memory" stage (pipeline step 1
//! in Figure 2), grown into a multi-format ingestion subsystem so the
//! suite can ingest real SNAP/KONECT-scale datasets (Table 7).
//!
//! Three interchangeable on-disk formats, all converging on the same
//! [`CsrGraph`](gms_core::CsrGraph): whichever format a dataset arrives in, the loaded
//! CSR is byte-identical (same offsets, same targets), so downstream
//! fingerprint-keyed result caches treat the loads as one graph.
//!
//! | format | module | shape | typical source |
//! |---|---|---|---|
//! | edge list | [`edge_list`] | `u v` text lines | SNAP / KONECT / Network-Repository dumps |
//! | METIS | [`metis`] | header + 1-indexed adjacency lines | DIMACS / METIS / KaHIP ecosystems |
//! | `.gcsr` snapshot | [`snapshot`] | versioned, checksummed binary CSR | this suite's own save path |
//!
//! [`load_graph`] is the one entry point the platform, the server and
//! the router load through: a [`GraphFormat`] and a path-or-text
//! [`GraphSource`] in, a [`GraphStore`] out — in
//! the representation the source stored. The per-format functions
//! below it stay public for callers that hold a reader or a buffer.
//!
//! Text loaders stream line by line over any [`std::io::BufRead`]
//! source (a multi-gigabyte dump is never materialized as one
//! `String`); the binary snapshot is read by one validating reader,
//! over a byte buffer ([`read_snapshot`]) or a mapped file
//! ([`load_snapshot`]).
//!
//! # The `.gcsr` snapshot layout, byte for byte
//!
//! Two body versions share the magic and differ in the version field:
//! **v1** stores the raw CSR arrays, **v2** stores a gap+varint
//! compressed body (see [`snapshot`] for the v2 section internals).
//! All integers are **little-endian**. With `n` vertices and `a`
//! stored arcs (`a = 2m` for an undirected graph saved from its
//! symmetric CSR), a **v1** file is:
//!
//! ```text
//! offset            size       field
//! ------            ----       -----
//! 0                 4          magic, the ASCII bytes "GCSR"
//! 4                 4          format version, u32 (1)
//! 8                 8          n  — vertex count, u64
//! 16                8          a  — stored arc count, u64
//! 24                8          checksum of the offsets section, u64
//! 32                8          checksum of the targets section, u64
//! 40                8*(n+1)    offsets section: n+1 × u64
//! 40 + 8*(n+1)      4*a        targets section: a × u32
//! ```
//!
//! and a **v2** file, with `b = ceil(n/64)` index blocks, `i` index
//! section bytes and `p` payload section bytes, is:
//!
//! ```text
//! offset            size       field
//! ------            ----       -----
//! 0                 4          magic, the ASCII bytes "GCSR"
//! 4                 4          format version, u32 (2)
//! 8                 4          payload scheme, u32 (1 = varint gap)
//! 12                4          flags, u32 (bit 0: locality-reordered)
//! 16                8          n  — vertex count, u64
//! 24                8          a  — stored arc count, u64
//! 32                8          i  — index section length, u64
//! 40                8          p  — payload section length, u64
//! 48                8          checksum of the index section, u64
//! 56                8          checksum of the payload section, u64
//! 64                i          index section:
//!                                b × u64   block payload anchors
//!                                b × u32   block pair-stream starts
//!                                i - 12b   varint (byte_len, degree)
//!                                          pairs, one per vertex
//! 64 + i            p          payload section: gap+varint encoded
//!                              neighborhoods, concatenated per vertex
//! ```
//!
//! The file ends exactly after its last section; a shorter *or*
//! longer file is rejected ([`GraphIoCause::SnapshotSize`]). Each
//! section checksum is FNV-1a 64 ([`section_checksum`]) over the
//! section's encoded bytes. A v1 body must satisfy the
//! [`CsrGraph`](gms_core::CsrGraph) invariants: offsets starting at 0, monotonically
//! non-decreasing, ending at `a`; every target `< n` and every
//! neighborhood sorted ascending. A v2 body is decoded end to end at
//! validation time: every block anchor and block start must agree
//! with the pair stream, every neighborhood must decode to strictly
//! ascending in-range vertices in exactly its declared byte length,
//! and the byte lengths and degrees must sum to `p` and `a`. A v2
//! body loads as a compressed graph: its payload is copied as-is and
//! decompressed per neighborhood on demand.
//!
//! # Errors
//!
//! Every loader reports failures through the single [`GraphIoError`]
//! type: the 1-based line number where reading stopped (for the text
//! formats) plus a [`GraphIoCause`] saying why. Corrupt input of any
//! kind — truncated files, checksum mismatches, malformed headers,
//! non-numeric tokens — returns a typed error; parsers never panic.

pub mod edge_list;
pub mod metis;
pub mod snapshot;

pub use edge_list::{
    load_undirected, load_undirected_from, read_edge_list, write_edge_list, EdgeListStream,
};
pub use metis::{
    load_metis, load_metis_from, read_metis_header, write_metis, MetisFmt, MetisHeader,
};
pub use snapshot::{
    load_snapshot, read_snapshot, save_snapshot, save_snapshot_compressed, section_checksum,
    write_snapshot, write_snapshot_compressed, GCSR_FLAG_REORDERED, GCSR_HEADER_BYTES, GCSR_MAGIC,
    GCSR_SCHEME_GAP, GCSR_V2_HEADER_BYTES, GCSR_VERSION, GCSR_VERSION_COMPRESSED,
};

use crate::GraphStore;
use std::path::Path;

/// The on-disk graph formats [`load_graph`] reads (and the `load`
/// endpoint of the serving protocol names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// SNAP-style whitespace-separated edge list.
    EdgeList,
    /// METIS adjacency format.
    Metis,
    /// `.gcsr` binary CSR snapshot (path only — the binary format
    /// does not survive a text channel).
    Gcsr,
}

impl GraphFormat {
    /// The format a spelling names, if any.
    pub fn parse(s: &str) -> Option<Self> {
        [GraphFormat::EdgeList, GraphFormat::Metis, GraphFormat::Gcsr]
            .into_iter()
            .find(|format| format.as_str() == s)
    }

    /// The spelling (`"edge-list"`, `"metis"`, `"gcsr"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            GraphFormat::EdgeList => "edge-list",
            GraphFormat::Metis => "metis",
            GraphFormat::Gcsr => "gcsr",
        }
    }
}

/// Where [`load_graph`] reads from.
#[derive(Clone, Copy, Debug)]
pub enum GraphSource<'a> {
    /// A file on the local filesystem.
    Path(&'a Path),
    /// The graph text itself, already in memory.
    Text(&'a str),
}

/// The one loader: reads `source` as `format` into the representation
/// the source stored — the text formats and a v1 `.gcsr` materialize
/// CSR arrays, a v2 `.gcsr` stays compressed — with the same content
/// fingerprint whichever way the graph arrives. A `.gcsr` snapshot is
/// binary and has no inline form: asking for one as
/// [`GraphSource::Text`] is [`GraphIoCause::Io`] with
/// [`InvalidInput`](std::io::ErrorKind::InvalidInput).
pub fn load_graph(
    format: GraphFormat,
    source: GraphSource<'_>,
) -> Result<GraphStore, GraphIoError> {
    Ok(match (format, source) {
        (GraphFormat::EdgeList, GraphSource::Path(path)) => GraphStore::Csr(load_undirected(path)?),
        (GraphFormat::EdgeList, GraphSource::Text(text)) => {
            GraphStore::Csr(load_undirected_from(text.as_bytes())?)
        }
        (GraphFormat::Metis, GraphSource::Path(path)) => GraphStore::Csr(load_metis(path)?),
        (GraphFormat::Metis, GraphSource::Text(text)) => {
            GraphStore::Csr(load_metis_from(text.as_bytes())?)
        }
        (GraphFormat::Gcsr, GraphSource::Path(path)) => load_snapshot(path)?,
        (GraphFormat::Gcsr, GraphSource::Text(_)) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "gcsr is a binary format: load it from a path, not inline text",
            )
            .into())
        }
    })
}

/// Why a graph read failed (the cause half of [`GraphIoError`]).
#[derive(Debug)]
pub enum GraphIoCause {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line with fewer than two whitespace-separated fields.
    MissingEndpoint,
    /// A field that should be a vertex ID but does not parse as one.
    InvalidVertexId(String),
    /// A field that should be a (vertex or edge) weight but does not
    /// parse as a number, or a neighbor token whose declared edge
    /// weight is missing.
    InvalidWeight(String),
    /// A missing or malformed METIS header line (`n m [fmt [ncon]]`).
    MetisHeader(String),
    /// The METIS body does not contain the declared number of vertex
    /// lines.
    MetisVertexCount {
        /// Vertex count declared by the header.
        declared: usize,
        /// Vertex lines actually present.
        actual: usize,
    },
    /// The METIS adjacency lists do not encode the declared edge
    /// count `m`: the entry count is not `2m`, or duplicate entries
    /// stand in for a missing mirror entry (each edge must appear
    /// exactly once in each endpoint's list).
    MetisEdgeCount {
        /// Edge count `m` declared by the header.
        declared: usize,
        /// Adjacency entries actually present (expected `2m`; the
        /// *distinct* entry count when the raw count matches but
        /// duplicates or missing mirrors were detected).
        entries: usize,
    },
    /// A METIS adjacency line lists the vertex itself — self-loops
    /// are forbidden by the format.
    MetisSelfLoop {
        /// The 1-indexed vertex, as written.
        vertex: u64,
    },
    /// A vertex reference outside the graph: a METIS adjacency entry
    /// outside `1..=n`, or a snapshot target `>= n`.
    VertexOutOfRange {
        /// The offending vertex reference, as written.
        id: u64,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// The first four bytes are not the `.gcsr` magic.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// A `.gcsr` version this build does not understand.
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The snapshot's byte length disagrees with its header: the file
    /// is truncated or carries trailing garbage.
    SnapshotSize {
        /// Length implied by the header (or the minimum header size).
        expected: u64,
        /// Length actually present.
        actual: u64,
    },
    /// A section's stored checksum does not match its contents.
    ChecksumMismatch {
        /// Which section (`"offsets"`/`"targets"` for v1,
        /// `"index"`/`"payload"` for v2).
        section: &'static str,
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the section bytes.
        computed: u64,
    },
    /// The snapshot decodes but violates a CSR structural invariant
    /// (offsets not starting at 0, non-monotone offsets, offsets not
    /// spanning the targets, an unsorted or duplicated neighborhood).
    SnapshotFormat {
        /// Which invariant broke.
        detail: &'static str,
    },
}

/// The unified error type of every `gms_graph::io` loader: where the
/// read stopped and why.
#[derive(Debug)]
pub struct GraphIoError {
    /// 1-based line number of the offending line; `None` when the
    /// failure is not attributable to a line (e.g. opening the file,
    /// or any binary-snapshot failure).
    pub line: Option<usize>,
    /// What went wrong.
    pub cause: GraphIoCause,
}

impl GraphIoError {
    pub(crate) fn at(line: usize, cause: GraphIoCause) -> Self {
        Self {
            line: Some(line),
            cause,
        }
    }

    pub(crate) fn new(cause: GraphIoCause) -> Self {
        Self { line: None, cause }
    }
}

impl std::fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(line) = self.line {
            write!(f, "line {line}: ")?;
        }
        match &self.cause {
            GraphIoCause::Io(e) => write!(f, "I/O error: {e}"),
            GraphIoCause::MissingEndpoint => {
                write!(f, "edge line needs two vertex IDs")
            }
            GraphIoCause::InvalidVertexId(field) => {
                write!(f, "invalid vertex ID {field:?}")
            }
            GraphIoCause::InvalidWeight(field) => {
                write!(f, "invalid weight {field:?}")
            }
            GraphIoCause::MetisHeader(detail) => {
                write!(f, "malformed METIS header: {detail}")
            }
            GraphIoCause::MetisVertexCount { declared, actual } => write!(
                f,
                "METIS header declares {declared} vertices but the body has {actual} vertex lines"
            ),
            GraphIoCause::MetisEdgeCount { declared, entries } => write!(
                f,
                "METIS header declares {declared} edges but the adjacency lists hold \
                 {entries} entries (expected twice the edge count)"
            ),
            GraphIoCause::MetisSelfLoop { vertex } => {
                write!(
                    f,
                    "METIS adjacency lists a self-loop on vertex {vertex} (forbidden by the format)"
                )
            }
            GraphIoCause::VertexOutOfRange { id, n } => {
                write!(f, "vertex reference {id} outside a graph of {n} vertices")
            }
            GraphIoCause::BadMagic { found } => {
                write!(f, "not a .gcsr snapshot (magic bytes {found:?})")
            }
            GraphIoCause::UnsupportedVersion { found } => write!(
                f,
                "unsupported .gcsr version {found} (this build reads versions \
                 {GCSR_VERSION} and {GCSR_VERSION_COMPRESSED})"
            ),
            GraphIoCause::SnapshotSize { expected, actual } => write!(
                f,
                "snapshot is {actual} bytes but its header implies {expected}"
            ),
            GraphIoCause::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "{section} section checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            GraphIoCause::SnapshotFormat { detail } => {
                write!(f, "snapshot violates a CSR invariant: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            GraphIoCause::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> Self {
        Self {
            line: None,
            cause: GraphIoCause::Io(e),
        }
    }
}
