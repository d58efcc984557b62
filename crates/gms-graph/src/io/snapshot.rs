//! The `.gcsr` binary CSR snapshot — this suite's own save format,
//! built for Table 7-scale datasets: parse a text dump once, snapshot
//! it, and every later run loads the CSR arrays back at disk
//! bandwidth (or serves them straight out of an mmap without copying
//! the targets array at all).
//!
//! Two body versions (see the [module docs](super) for the
//! byte-for-byte layouts): **v1** stores the raw CSR arrays, **v2**
//! stores a compressed body — the
//! [`crate::CompressedCsr`] block index and gap+varint
//! payload, written exactly as held in memory. Every read path —
//! copying ([`read_snapshot`]/[`load_snapshot`]) and zero-copy
//! ([`MmapSnapshot`]) — runs the full validation battery for the
//! version it finds: magic, version, exact length, per-section FNV-1a
//! checksums, and the structural invariants (for v1, monotone offsets
//! spanning in-range sorted targets; for v2, a complete structural
//! decode of the index and every neighborhood). A snapshot that
//! passes is safe to hand to every kernel in the suite.
//!
//! A v2 file mmap-opens *without* decompressing: the index (a few
//! bytes per vertex) is decoded to the heap, the payload stays on the
//! mapped pages and neighborhoods are gap-decoded on demand — the
//! resident cost of serving a compressed graph is
//! [`MmapSnapshot::resident_bytes`], not the raw adjacency size.

use super::{GraphIoCause, GraphIoError};
use crate::compress::{gap, varint};
use crate::compressed_csr::{self, CompressedCsr, NbrIndex, SkipIndex, INDEX_BLOCK};
use crate::GraphStore;
use gms_core::{CsrGraph, Graph, NodeId};
use std::io::Write;
use std::path::Path;

/// The four magic bytes opening every snapshot.
pub const GCSR_MAGIC: [u8; 4] = *b"GCSR";

/// The raw-CSR format version ([`write_snapshot`] writes this).
pub const GCSR_VERSION: u32 = 1;

/// The compressed-payload format version
/// ([`write_snapshot_compressed`] writes this).
pub const GCSR_VERSION_COMPRESSED: u32 = 2;

/// Fixed v1 header size in bytes: magic + version + two u64 counts +
/// two u64 section checksums.
pub const GCSR_HEADER_BYTES: usize = 40;

/// Fixed v2 header size in bytes: magic + version + scheme + flags +
/// four u64 geometry fields + two u64 section checksums.
pub const GCSR_V2_HEADER_BYTES: usize = 64;

/// The only payload scheme defined so far: varint gap encoding.
pub const GCSR_SCHEME_GAP: u32 = 1;

/// v2 header flag bit: the graph was relabeled by a locality ordering
/// before encoding.
pub const GCSR_FLAG_REORDERED: u32 = 1;

/// Incremental FNV-1a 64 state, folded over a section's encoded
/// bytes without materializing the section.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a 64 over a byte section — the checksum function of the
/// `.gcsr` format. Implemented here (it is part of the on-disk
/// contract) rather than borrowed from an in-process hasher whose
/// mixing could drift.
pub fn section_checksum(bytes: &[u8]) -> u64 {
    let mut state = Fnv1a::new();
    state.update(bytes);
    state.0
}

/// Values encoded per chunk while streaming sections out; bounds the
/// transient buffer at ~64 KiB however large the graph is.
const WRITE_CHUNK: usize = 8192;

/// Serializes a graph's CSR arrays into the snapshot layout. Peak
/// extra memory is O(1): checksums are folded in a first pass over
/// the arrays, then the sections stream out through one small
/// reusable buffer — the encoded sections are never materialized.
pub fn write_snapshot<W: Write>(graph: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    let offsets = graph.offsets();
    let targets = graph.adjacency();

    let mut offsets_sum = Fnv1a::new();
    for &offset in offsets {
        offsets_sum.update(&(offset as u64).to_le_bytes());
    }
    let mut targets_sum = Fnv1a::new();
    for &target in targets {
        targets_sum.update(&target.to_le_bytes());
    }

    writer.write_all(&GCSR_MAGIC)?;
    writer.write_all(&GCSR_VERSION.to_le_bytes())?;
    writer.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(targets.len() as u64).to_le_bytes())?;
    writer.write_all(&offsets_sum.0.to_le_bytes())?;
    writer.write_all(&targets_sum.0.to_le_bytes())?;

    let mut buf = Vec::with_capacity(8 * WRITE_CHUNK);
    for chunk in offsets.chunks(WRITE_CHUNK) {
        buf.clear();
        for &offset in chunk {
            buf.extend_from_slice(&(offset as u64).to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    for chunk in targets.chunks(2 * WRITE_CHUNK) {
        buf.clear();
        for &target in chunk {
            buf.extend_from_slice(&target.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Writes a snapshot file (buffered).
pub fn save_snapshot<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<(), GraphIoError> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    write_snapshot(graph, &mut writer)?;
    writer.flush()?;
    Ok(())
}

/// Serializes a compressed graph into the `.gcsr` v2 layout: the
/// per-vertex index (block anchors ‖ block starts ‖ varint
/// `(byte_len, degree)` pairs) followed by the gap-encoded payload,
/// each section under its own FNV-1a checksum. The payload bytes are
/// written exactly as held in memory, so an mmap of the file can
/// serve them back without re-encoding.
pub fn write_snapshot_compressed<W: Write>(
    graph: &CompressedCsr,
    mut writer: W,
) -> std::io::Result<()> {
    let index = graph.index();
    let payload = graph.payload();

    let mut index_sum = Fnv1a::new();
    for &anchor in &index.anchors {
        index_sum.update(&anchor.to_le_bytes());
    }
    for &start in &index.block_starts {
        index_sum.update(&start.to_le_bytes());
    }
    index_sum.update(&index.pairs);
    let index_len = 8 * index.anchors.len() + 4 * index.block_starts.len() + index.pairs.len();

    let flags = if graph.is_reordered() {
        GCSR_FLAG_REORDERED
    } else {
        0
    };
    writer.write_all(&GCSR_MAGIC)?;
    writer.write_all(&GCSR_VERSION_COMPRESSED.to_le_bytes())?;
    writer.write_all(&GCSR_SCHEME_GAP.to_le_bytes())?;
    writer.write_all(&flags.to_le_bytes())?;
    writer.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(graph.num_arcs() as u64).to_le_bytes())?;
    writer.write_all(&(index_len as u64).to_le_bytes())?;
    writer.write_all(&(payload.len() as u64).to_le_bytes())?;
    writer.write_all(&index_sum.0.to_le_bytes())?;
    writer.write_all(&section_checksum(payload).to_le_bytes())?;

    let mut buf = Vec::with_capacity(8 * WRITE_CHUNK);
    for chunk in index.anchors.chunks(WRITE_CHUNK) {
        buf.clear();
        for &anchor in chunk {
            buf.extend_from_slice(&anchor.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    for chunk in index.block_starts.chunks(2 * WRITE_CHUNK) {
        buf.clear();
        for &start in chunk {
            buf.extend_from_slice(&start.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    writer.write_all(&index.pairs)?;
    writer.write_all(payload)?;
    Ok(())
}

/// Writes a v2 compressed snapshot file (buffered).
pub fn save_snapshot_compressed<P: AsRef<Path>>(
    graph: &CompressedCsr,
    path: P,
) -> Result<(), GraphIoError> {
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    write_snapshot_compressed(graph, &mut writer)?;
    writer.flush()?;
    Ok(())
}

/// The validated section geometry of a snapshot byte buffer: where
/// the offsets and targets sections live, with every format and CSR
/// invariant already checked.
struct RawSnapshot {
    n: usize,
    arcs: usize,
    offsets_start: usize,
    targets_start: usize,
}

fn fail(cause: GraphIoCause) -> GraphIoError {
    GraphIoError::new(cause)
}

/// Decodes the `i`-th u64 of a section without materializing it.
#[inline]
fn u64_at(bytes: &[u8], index: usize) -> u64 {
    let at = 8 * index;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// Decodes the `i`-th u32 of a section without materializing it.
#[inline]
fn u32_at(bytes: &[u8], index: usize) -> u32 {
    let at = 4 * index;
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

/// Checks the magic and reads the version field — the dispatch step
/// shared by every read path.
fn snapshot_version(bytes: &[u8]) -> Result<u32, GraphIoError> {
    if bytes.len() >= 4 && bytes[..4] != GCSR_MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&bytes[..4]);
        return Err(fail(GraphIoCause::BadMagic { found }));
    }
    if bytes.len() < 8 {
        return Err(fail(GraphIoCause::SnapshotSize {
            expected: GCSR_HEADER_BYTES as u64,
            actual: bytes.len() as u64,
        }));
    }
    Ok(u32::from_le_bytes(
        bytes[4..8].try_into().expect("4-byte slice"),
    ))
}

/// A validated snapshot body of either version.
enum RawBody {
    Raw(RawSnapshot),
    Compressed(RawSnapshotV2),
}

/// Validates a snapshot buffer of any supported version.
fn validate_any(bytes: &[u8]) -> Result<RawBody, GraphIoError> {
    match snapshot_version(bytes)? {
        GCSR_VERSION => Ok(RawBody::Raw(validate(bytes)?)),
        GCSR_VERSION_COMPRESSED => Ok(RawBody::Compressed(validate_v2(bytes)?)),
        found => Err(fail(GraphIoCause::UnsupportedVersion { found })),
    }
}

/// Runs the full validation battery over a v1 (raw CSR) snapshot
/// buffer. The magic and version are already checked by
/// [`snapshot_version`].
fn validate(bytes: &[u8]) -> Result<RawSnapshot, GraphIoError> {
    if bytes.len() < GCSR_HEADER_BYTES {
        return Err(fail(GraphIoCause::SnapshotSize {
            expected: GCSR_HEADER_BYTES as u64,
            actual: bytes.len() as u64,
        }));
    }

    let n_u64 = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    let arcs_u64 = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let stored_offsets_sum = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    let stored_targets_sum = u64::from_le_bytes(bytes[32..40].try_into().expect("8-byte slice"));

    // The exact length the header implies, in u128 so a corrupt
    // header cannot overflow the arithmetic.
    let expected = GCSR_HEADER_BYTES as u128 + 8 * (n_u64 as u128 + 1) + 4 * arcs_u64 as u128;
    if bytes.len() as u128 != expected {
        return Err(fail(GraphIoCause::SnapshotSize {
            expected: u64::try_from(expected).unwrap_or(u64::MAX),
            actual: bytes.len() as u64,
        }));
    }
    // The length matched, so both counts fit comfortably in usize.
    let n = n_u64 as usize;
    let arcs = arcs_u64 as usize;
    let offsets_start = GCSR_HEADER_BYTES;
    let targets_start = offsets_start + 8 * (n + 1);
    let offsets_bytes = &bytes[offsets_start..targets_start];
    let targets_bytes = &bytes[targets_start..];

    let computed = section_checksum(offsets_bytes);
    if computed != stored_offsets_sum {
        return Err(fail(GraphIoCause::ChecksumMismatch {
            section: "offsets",
            stored: stored_offsets_sum,
            computed,
        }));
    }
    let computed = section_checksum(targets_bytes);
    if computed != stored_targets_sum {
        return Err(fail(GraphIoCause::ChecksumMismatch {
            section: "targets",
            stored: stored_targets_sum,
            computed,
        }));
    }

    // CSR structural invariants, decoded in place.
    if u64_at(offsets_bytes, 0) != 0 {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "offsets must start at 0",
        }));
    }
    if u64_at(offsets_bytes, n) != arcs as u64 {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "final offset must equal the arc count",
        }));
    }
    // Monotonicity over the WHOLE offset array first: only once every
    // offset is known to be bounded by the final one (= arcs) is it
    // safe to use offsets as indices into the targets section. An
    // interleaved check would walk past the section on a crafted
    // intermediate offset before reaching the pair that disproves it.
    let mut prev = 0u64;
    for v in 1..=n {
        let off = u64_at(offsets_bytes, v);
        if off < prev {
            return Err(fail(GraphIoCause::SnapshotFormat {
                detail: "offsets must be monotonically non-decreasing",
            }));
        }
        prev = off;
    }
    for v in 0..n {
        let lo = u64_at(offsets_bytes, v);
        let hi = u64_at(offsets_bytes, v + 1);
        // Each neighborhood: targets in range, strictly ascending.
        let mut last: Option<u32> = None;
        for i in lo as usize..hi as usize {
            let target = u32_at(targets_bytes, i);
            if target as usize >= n {
                return Err(fail(GraphIoCause::VertexOutOfRange {
                    id: u64::from(target),
                    n,
                }));
            }
            if let Some(previous) = last {
                if target <= previous {
                    return Err(fail(GraphIoCause::SnapshotFormat {
                        detail: "neighborhoods must be sorted and duplicate-free",
                    }));
                }
            }
            last = Some(target);
        }
    }

    Ok(RawSnapshot {
        n,
        arcs,
        offsets_start,
        targets_start,
    })
}

/// The validated geometry of a v2 (compressed) snapshot: the decoded
/// per-vertex index plus where the still-encoded payload lives.
struct RawSnapshotV2 {
    index: NbrIndex,
    payload_start: usize,
    arcs: usize,
    reordered: bool,
}

/// Runs the full validation battery over a v2 (compressed) snapshot
/// buffer: header geometry, per-section checksums, then a complete
/// structural decode — every index pair is walked, every block anchor
/// cross-checked against the pair stream, and every neighborhood
/// decoded (strictly ascending, in-range, exactly filling its
/// declared byte length). A buffer that passes is safe to serve
/// without any per-access checks.
fn validate_v2(bytes: &[u8]) -> Result<RawSnapshotV2, GraphIoError> {
    if bytes.len() < GCSR_V2_HEADER_BYTES {
        return Err(fail(GraphIoCause::SnapshotSize {
            expected: GCSR_V2_HEADER_BYTES as u64,
            actual: bytes.len() as u64,
        }));
    }
    let scheme = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    let flags = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
    let n_u64 = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    let arcs_u64 = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    let index_len_u64 = u64::from_le_bytes(bytes[32..40].try_into().expect("8-byte slice"));
    let payload_len_u64 = u64::from_le_bytes(bytes[40..48].try_into().expect("8-byte slice"));
    let stored_index_sum = u64::from_le_bytes(bytes[48..56].try_into().expect("8-byte slice"));
    let stored_payload_sum = u64::from_le_bytes(bytes[56..64].try_into().expect("8-byte slice"));

    if scheme != GCSR_SCHEME_GAP {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "unknown compression scheme",
        }));
    }
    if flags & !GCSR_FLAG_REORDERED != 0 {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "unknown header flags",
        }));
    }

    // Exact length in u128 so a corrupt header cannot overflow.
    let expected = GCSR_V2_HEADER_BYTES as u128 + index_len_u64 as u128 + payload_len_u64 as u128;
    if bytes.len() as u128 != expected {
        return Err(fail(GraphIoCause::SnapshotSize {
            expected: u64::try_from(expected).unwrap_or(u64::MAX),
            actual: bytes.len() as u64,
        }));
    }
    // The length matched, so the section lengths fit in usize.
    let index_len = index_len_u64 as usize;
    let index_bytes = &bytes[GCSR_V2_HEADER_BYTES..GCSR_V2_HEADER_BYTES + index_len];
    let payload_bytes = &bytes[GCSR_V2_HEADER_BYTES + index_len..];

    let computed = section_checksum(index_bytes);
    if computed != stored_index_sum {
        return Err(fail(GraphIoCause::ChecksumMismatch {
            section: "index",
            stored: stored_index_sum,
            computed,
        }));
    }
    let computed = section_checksum(payload_bytes);
    if computed != stored_payload_sum {
        return Err(fail(GraphIoCause::ChecksumMismatch {
            section: "payload",
            stored: stored_payload_sum,
            computed,
        }));
    }

    // The block arrays must fit inside the index section (u128: a
    // corrupt n cannot overflow the product).
    let blocks_u128 = (n_u64 as u128).div_ceil(INDEX_BLOCK as u128);
    if 12 * blocks_u128 > index_len as u128 {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "index section too short for its block arrays",
        }));
    }
    let n = n_u64 as usize;
    let blocks = n.div_ceil(INDEX_BLOCK);
    let anchors: Vec<u64> = (0..blocks).map(|i| u64_at(index_bytes, i)).collect();
    let starts_bytes = &index_bytes[8 * blocks..];
    let block_starts: Vec<u32> = (0..blocks).map(|i| u32_at(starts_bytes, i)).collect();
    let pairs = index_bytes[12 * blocks..].to_vec();

    // Structural decode: walk the whole pair stream and every
    // neighborhood once.
    let mut cursor = pairs.as_slice();
    let mut payload_offset = 0u64;
    let mut total_degree = 0u64;
    for v in 0..n {
        if v % INDEX_BLOCK == 0 {
            let b = v / INDEX_BLOCK;
            if anchors[b] != payload_offset {
                return Err(fail(GraphIoCause::SnapshotFormat {
                    detail: "block anchor disagrees with the pair stream",
                }));
            }
            if u64::from(block_starts[b]) != (pairs.len() - cursor.len()) as u64 {
                return Err(fail(GraphIoCause::SnapshotFormat {
                    detail: "block start disagrees with the pair stream",
                }));
            }
        }
        let (Some(byte_len), Some(degree)) = (
            varint::decode_u32(&mut cursor),
            varint::decode_u32(&mut cursor),
        ) else {
            return Err(fail(GraphIoCause::SnapshotFormat {
                detail: "index pair stream is truncated",
            }));
        };
        if payload_offset + u64::from(byte_len) > payload_bytes.len() as u64 {
            return Err(fail(GraphIoCause::SnapshotFormat {
                detail: "payload section too short for its index",
            }));
        }
        let start = payload_offset as usize;
        let mut nbr_cursor = &payload_bytes[start..start + byte_len as usize];
        let mut acc = 0u64;
        for i in 0..degree {
            let Some(gapv) = varint::decode_u32(&mut nbr_cursor) else {
                return Err(fail(GraphIoCause::SnapshotFormat {
                    detail: "truncated neighborhood encoding",
                }));
            };
            if i > 0 && gapv == 0 {
                return Err(fail(GraphIoCause::SnapshotFormat {
                    detail: "neighborhoods must be sorted and duplicate-free",
                }));
            }
            acc = if i == 0 {
                u64::from(gapv)
            } else {
                acc + u64::from(gapv)
            };
            if acc >= n_u64 {
                return Err(fail(GraphIoCause::VertexOutOfRange { id: acc, n }));
            }
        }
        if !nbr_cursor.is_empty() {
            return Err(fail(GraphIoCause::SnapshotFormat {
                detail: "neighborhood byte length disagrees with its encoding",
            }));
        }
        payload_offset += u64::from(byte_len);
        total_degree += u64::from(degree);
    }
    if !cursor.is_empty() {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "index pair stream has trailing bytes",
        }));
    }
    if payload_offset != payload_len_u64 {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "payload section length disagrees with the index",
        }));
    }
    if total_degree != arcs_u64 {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "degree sum disagrees with the arc count",
        }));
    }

    Ok(RawSnapshotV2 {
        index: NbrIndex::from_parts(n, anchors, block_starts, pairs),
        payload_start: GCSR_V2_HEADER_BYTES + index_len,
        arcs: arcs_u64 as usize,
        reordered: flags & GCSR_FLAG_REORDERED != 0,
    })
}

/// Deserializes a snapshot from an in-memory byte buffer into an
/// owned [`CsrGraph`], validating everything first; a v2 snapshot is
/// decompressed. This path decodes field by field and has no
/// alignment or endianness requirements on the buffer.
pub fn read_snapshot(bytes: &[u8]) -> Result<CsrGraph, GraphIoError> {
    Ok(read_snapshot_auto(bytes)?.into_csr())
}

/// Deserializes a snapshot of either version, keeping the stored
/// representation (raw stays raw, compressed stays compressed).
pub fn read_snapshot_auto(bytes: &[u8]) -> Result<GraphStore, GraphIoError> {
    match validate_any(bytes)? {
        RawBody::Raw(raw) => {
            let offsets_bytes = &bytes[raw.offsets_start..raw.targets_start];
            let targets_bytes = &bytes[raw.targets_start..];
            let offsets: Vec<usize> = (0..=raw.n)
                .map(|i| u64_at(offsets_bytes, i) as usize)
                .collect();
            let targets: Vec<NodeId> = (0..raw.arcs).map(|i| u32_at(targets_bytes, i)).collect();
            Ok(GraphStore::Csr(CsrGraph::from_parts(offsets, targets)))
        }
        RawBody::Compressed(raw) => {
            Ok(GraphStore::Compressed(CompressedCsr::from_validated_parts(
                raw.index,
                bytes[raw.payload_start..].to_vec(),
                raw.arcs,
                raw.reordered,
            )))
        }
    }
}

/// Loads a snapshot file through the mmap path and materializes an
/// owned [`CsrGraph`] (one copy of each section; the validation pass
/// reads the mapped bytes exactly once beforehand). A v2 snapshot is
/// decompressed — use [`load_snapshot_auto`] to keep it compressed.
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphIoError> {
    Ok(MmapSnapshot::open(path)?.to_csr())
}

/// Loads a snapshot file of either version through the mmap path,
/// keeping the stored representation: a v1 file yields a plain CSR, a
/// v2 file yields a [`CompressedCsr`] without ever materializing the
/// raw adjacency.
pub fn load_snapshot_auto<P: AsRef<Path>>(path: P) -> Result<GraphStore, GraphIoError> {
    Ok(MmapSnapshot::open(path)?.into_graph())
}

/// A validated, memory-mapped `.gcsr` snapshot serving the CSR
/// access interface **without copying the targets array**: neighbor
/// slices are handed out straight from the mapped file bytes.
///
/// The offsets section (the small one, `8(n+1)` bytes against `4a`
/// for the targets) is decoded into a `usize` vector at open time —
/// that is what makes `neighbors_slice` a two-load operation instead
/// of a decode. The targets section is reinterpreted in place, which
/// is sound because the mapping is page-aligned (the vendored
/// `memmap2` shim guarantees 8-byte alignment even on its fallback
/// path), the section starts at the 4-aligned offset `40 + 8(n+1)`,
/// and the format is little-endian like every target this suite
/// builds for. [`MmapSnapshot::open`] verifies the alignment anyway
/// and fails closed rather than misread.
///
/// Implements [`Graph`], so trait-generic mining code can run over
/// the mapped file directly; [`MmapSnapshot::to_csr`] materializes an
/// owned graph when one is needed (e.g. to hand to a platform
/// session).
#[derive(Debug)]
pub struct MmapSnapshot {
    map: memmap2::Mmap,
    view: SnapshotView,
}

/// The decoded per-version geometry held alongside the mapping: the
/// small sections live on the heap, the big one (targets for v1, gap
/// payload for v2) is served from the mapped file bytes.
#[derive(Debug)]
enum SnapshotView {
    Raw {
        offsets: Vec<usize>,
        targets_start: usize,
        arcs: usize,
    },
    Compressed {
        index: NbrIndex,
        skips: SkipIndex,
        payload_start: usize,
        arcs: usize,
        reordered: bool,
    },
}

/// The neighbor stream of a mapped snapshot: a plain slice walk for a
/// raw body, an on-the-fly gap decode for a compressed one.
pub enum SnapshotNeighbors<'a> {
    /// Raw targets, borrowed from the mapping.
    Raw(std::iter::Copied<std::slice::Iter<'a, NodeId>>),
    /// Gap-decoded on demand from the mapped payload.
    Gap(gap::GapDecoder<'a>),
}

impl Iterator for SnapshotNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            SnapshotNeighbors::Raw(it) => it.next(),
            SnapshotNeighbors::Gap(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SnapshotNeighbors::Raw(it) => it.size_hint(),
            SnapshotNeighbors::Gap(it) => it.size_hint(),
        }
    }
}

impl MmapSnapshot {
    /// Maps a snapshot file and runs the full validation battery for
    /// its version (magic, version, length, checksums, structural
    /// invariants) over the mapped bytes. Both versions open into the
    /// same type; check [`MmapSnapshot::is_compressed`] to see which
    /// body the file stores.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, GraphIoError> {
        let file = std::fs::File::open(path)?;
        // Safety: the map is read-only and private; concurrent
        // truncation of the underlying file is the documented caveat
        // inherited from memmap2.
        let map = unsafe { memmap2::Mmap::map(&file) }?;
        let view = match validate_any(&map)? {
            RawBody::Raw(raw) => {
                if !(map[raw.targets_start..].as_ptr() as usize)
                    .is_multiple_of(std::mem::align_of::<NodeId>())
                {
                    // Unreachable with the vendored shim; kept so a
                    // future swap to real memmap2 can never silently
                    // misread.
                    return Err(fail(GraphIoCause::SnapshotFormat {
                        detail: "targets section is not aligned for in-place access",
                    }));
                }
                let offsets_bytes = &map[raw.offsets_start..raw.targets_start];
                let offsets = (0..=raw.n)
                    .map(|i| u64_at(offsets_bytes, i) as usize)
                    .collect();
                SnapshotView::Raw {
                    offsets,
                    targets_start: raw.targets_start,
                    arcs: raw.arcs,
                }
            }
            RawBody::Compressed(raw) => {
                // The gap payload has no alignment requirement — it
                // is a byte stream — so the mapped section is served
                // as-is; only the small index lives on the heap.
                let skips = SkipIndex::build(&raw.index, &map[raw.payload_start..]);
                SnapshotView::Compressed {
                    index: raw.index,
                    skips,
                    payload_start: raw.payload_start,
                    arcs: raw.arcs,
                    reordered: raw.reordered,
                }
            }
        };
        Ok(Self { map, view })
    }

    /// The format version of the mapped file.
    pub fn version(&self) -> u32 {
        match &self.view {
            SnapshotView::Raw { .. } => GCSR_VERSION,
            SnapshotView::Compressed { .. } => GCSR_VERSION_COMPRESSED,
        }
    }

    /// Whether the mapped file stores a compressed (v2) body.
    pub fn is_compressed(&self) -> bool {
        matches!(self.view, SnapshotView::Compressed { .. })
    }

    /// Whether a v2 body was recorded as locality-reordered at save
    /// time (always `false` for v1).
    pub fn is_reordered(&self) -> bool {
        matches!(
            self.view,
            SnapshotView::Compressed {
                reordered: true,
                ..
            }
        )
    }

    /// The targets section, served in place from the mapping.
    ///
    /// # Panics
    ///
    /// On a compressed (v2) snapshot, which stores no raw targets
    /// array — gate on [`MmapSnapshot::is_compressed`] or use
    /// [`MmapSnapshot::decode_into`]/[`Graph::neighbors`] instead.
    pub fn targets(&self) -> &[NodeId] {
        let SnapshotView::Raw {
            targets_start,
            arcs,
            ..
        } = &self.view
        else {
            panic!("raw targets access on a compressed (v2) snapshot");
        };
        let bytes = &self.map[*targets_start..];
        // Alignment was verified at open; the length is exact by the
        // size check, so the prefix/suffix are empty.
        let (prefix, targets, _suffix) = unsafe { bytes.align_to::<NodeId>() };
        debug_assert!(prefix.is_empty() && targets.len() == *arcs);
        targets
    }

    /// The decoded offset array (`n + 1` entries).
    ///
    /// # Panics
    ///
    /// On a compressed (v2) snapshot (see [`MmapSnapshot::targets`]).
    pub fn offsets(&self) -> &[usize] {
        let SnapshotView::Raw { offsets, .. } = &self.view else {
            panic!("raw offsets access on a compressed (v2) snapshot");
        };
        offsets
    }

    /// The sorted neighborhood of `v`, borrowed from the mapping.
    ///
    /// # Panics
    ///
    /// On a compressed (v2) snapshot (see [`MmapSnapshot::targets`]).
    #[inline]
    pub fn neighbors_slice(&self, v: NodeId) -> &[NodeId] {
        let SnapshotView::Raw { offsets, .. } = &self.view else {
            panic!("raw neighborhood access on a compressed (v2) snapshot");
        };
        &self.targets()[offsets[v as usize]..offsets[v as usize + 1]]
    }

    /// Decodes the neighborhood of `v` into `out`, clearing it first —
    /// the version-independent access path: a slice copy for a raw
    /// body, a gap decode for a compressed one. Allocation-free once
    /// `out` has grown to the maximum degree.
    #[inline]
    pub fn decode_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        match &self.view {
            SnapshotView::Raw { .. } => {
                out.clear();
                out.extend_from_slice(self.neighbors_slice(v));
            }
            SnapshotView::Compressed {
                index,
                payload_start,
                ..
            } => compressed_csr::decode_neighborhood(index, &self.map[*payload_start..], v, out),
        }
    }

    /// Size of the mapped file in bytes.
    pub fn mapped_bytes(&self) -> usize {
        self.map.len()
    }

    /// Heap bytes the view holds on top of the mapping (decoded
    /// offsets for v1; neighborhood index and skip samples for v2) —
    /// the resident cost of serving this snapshot, excluding whatever
    /// mapped pages the OS keeps warm.
    pub fn resident_bytes(&self) -> usize {
        match &self.view {
            SnapshotView::Raw { offsets, .. } => offsets.len() * std::mem::size_of::<usize>(),
            SnapshotView::Compressed { index, skips, .. } => {
                index.heap_bytes() + skips.heap_bytes()
            }
        }
    }

    /// Materializes an owned [`CsrGraph`]: a copy of both sections for
    /// v1, the same parallel decode-all as
    /// [`CompressedCsr::to_csr`] for v2, straight off the mapped
    /// payload.
    pub fn to_csr(&self) -> CsrGraph {
        match &self.view {
            SnapshotView::Raw { offsets, .. } => {
                CsrGraph::from_parts(offsets.clone(), self.targets().to_vec())
            }
            SnapshotView::Compressed {
                index,
                payload_start,
                ..
            } => compressed_csr::decode_all(index, &self.map[*payload_start..]),
        }
    }

    /// Converts into an owned graph in the representation the file
    /// stored: raw stays raw, compressed stays compressed (one copy of
    /// the payload; the decoded index and skip samples move over).
    pub fn into_graph(self) -> GraphStore {
        match self.view {
            SnapshotView::Raw { .. } => GraphStore::Csr(self.to_csr()),
            SnapshotView::Compressed {
                index,
                skips,
                payload_start,
                arcs,
                reordered,
            } => GraphStore::Compressed(CompressedCsr::assemble(
                index,
                skips,
                self.map[payload_start..].to_vec(),
                arcs,
                reordered,
            )),
        }
    }
}

impl Graph for MmapSnapshot {
    #[inline]
    fn num_vertices(&self) -> usize {
        match &self.view {
            SnapshotView::Raw { offsets, .. } => offsets.len() - 1,
            SnapshotView::Compressed { index, .. } => index.len(),
        }
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        match &self.view {
            SnapshotView::Raw { arcs, .. } | SnapshotView::Compressed { arcs, .. } => *arcs,
        }
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        match &self.view {
            SnapshotView::Raw { offsets, .. } => offsets[v as usize + 1] - offsets[v as usize],
            SnapshotView::Compressed { index, .. } => index.locate(v as usize).degree,
        }
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        match &self.view {
            SnapshotView::Raw { .. } => {
                SnapshotNeighbors::Raw(self.neighbors_slice(v).iter().copied())
            }
            SnapshotView::Compressed {
                index,
                payload_start,
                ..
            } => {
                let entry = index.locate(v as usize);
                let payload = &self.map[*payload_start..];
                SnapshotNeighbors::Gap(gap::GapDecoder::new(
                    &payload[entry.start..entry.end],
                    entry.degree,
                ))
            }
        }
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match &self.view {
            SnapshotView::Raw { .. } => self.neighbors_slice(u).binary_search(&v).is_ok(),
            SnapshotView::Compressed {
                index,
                skips,
                payload_start,
                ..
            } => compressed_csr::probe_edge(index, skips, &self.map[*payload_start..], u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        CsrGraph::from_undirected_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (0, 4)])
    }

    fn snapshot_bytes(g: &CsrGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(g, &mut buf).unwrap();
        buf
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gms_gcsr_{}_{name}.gcsr", std::process::id()))
    }

    #[test]
    fn roundtrips_in_memory() {
        let g = sample();
        assert_eq!(read_snapshot(&snapshot_bytes(&g)).unwrap(), g);
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        for g in [
            CsrGraph::from_undirected_edges(0, &[]),
            CsrGraph::from_undirected_edges(5, &[]),
            CsrGraph::from_undirected_edges(4, &[(0, 1)]),
        ] {
            assert_eq!(read_snapshot(&snapshot_bytes(&g)).unwrap(), g);
        }
    }

    #[test]
    fn layout_matches_the_documented_geometry() {
        let g = sample();
        let bytes = snapshot_bytes(&g);
        assert_eq!(&bytes[..4], b"GCSR");
        assert_eq!(
            bytes.len(),
            GCSR_HEADER_BYTES + 8 * (g.num_vertices() + 1) + 4 * g.num_arcs()
        );
        // Counts land where the layout table says.
        let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let arcs = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        assert_eq!(n as usize, g.num_vertices());
        assert_eq!(arcs as usize, g.num_arcs());
    }

    #[test]
    fn mmap_view_serves_the_graph_in_place() {
        let g = sample();
        let path = temp_path("view");
        save_snapshot(&g, &path).unwrap();
        let snap = MmapSnapshot::open(&path).unwrap();
        assert_eq!(snap.num_vertices(), g.num_vertices());
        assert_eq!(snap.num_arcs(), g.num_arcs());
        for v in g.vertices() {
            assert_eq!(snap.neighbors_slice(v), g.neighbors_slice(v));
            assert_eq!(snap.degree(v), g.degree(v));
        }
        assert!(snap.has_edge(0, 1) && !snap.has_edge(0, 3));
        assert_eq!(snap.to_csr(), g);
        assert_eq!(load_snapshot(&path).unwrap(), g);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checksums_cover_every_section_byte() {
        let g = sample();
        let pristine = snapshot_bytes(&g);
        for index in GCSR_HEADER_BYTES..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[index] ^= 0x40;
            let err = read_snapshot(&corrupt).unwrap_err();
            assert!(
                matches!(err.cause, GraphIoCause::ChecksumMismatch { .. }),
                "byte {index}: expected checksum failure, got {err}"
            );
        }
    }

    #[test]
    fn section_checksum_is_fnv1a() {
        // Pinned test vectors so the on-disk contract cannot drift.
        assert_eq!(section_checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(section_checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn bigger_sample() -> CsrGraph {
        let mut edges = Vec::new();
        for v in 0..300u32 {
            edges.push((v, (v + 1) % 300));
            edges.push((v, (v + 9) % 300));
            if v % 4 == 0 {
                edges.push((0, v)); // make vertex 0 a hub
            }
        }
        CsrGraph::from_undirected_edges(300, &edges)
    }

    fn v2_bytes(g: &CsrGraph) -> Vec<u8> {
        let compressed = CompressedCsr::from_csr(g);
        let mut buf = Vec::new();
        write_snapshot_compressed(&compressed, &mut buf).unwrap();
        buf
    }

    #[test]
    fn v2_layout_matches_the_documented_geometry() {
        let g = bigger_sample();
        let compressed = CompressedCsr::from_csr(&g);
        let mut bytes = Vec::new();
        write_snapshot_compressed(&compressed, &mut bytes).unwrap();
        assert_eq!(&bytes[..4], b"GCSR");
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let scheme = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let flags = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let n = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let arcs = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
        let index_len = u64::from_le_bytes(bytes[32..40].try_into().unwrap());
        let payload_len = u64::from_le_bytes(bytes[40..48].try_into().unwrap());
        assert_eq!(version, GCSR_VERSION_COMPRESSED);
        assert_eq!(scheme, GCSR_SCHEME_GAP);
        assert_eq!(flags, 0);
        assert_eq!(n as usize, g.num_vertices());
        assert_eq!(arcs as usize, g.num_arcs());
        assert_eq!(payload_len as usize, compressed.payload().len());
        assert_eq!(
            bytes.len() as u64,
            GCSR_V2_HEADER_BYTES as u64 + index_len + payload_len
        );
    }

    #[test]
    fn v2_roundtrips_and_both_versions_auto_detect() {
        let g = bigger_sample();
        // Buffered path decompresses back to the same CSR.
        assert_eq!(read_snapshot(&v2_bytes(&g)).unwrap(), g);
        // Auto path keeps the stored representation per version.
        match read_snapshot_auto(&v2_bytes(&g)).unwrap() {
            GraphStore::Compressed(c) => assert_eq!(c.to_csr(), g),
            GraphStore::Csr(_) => panic!("v2 must stay compressed"),
        }
        match read_snapshot_auto(&snapshot_bytes(&g)).unwrap() {
            GraphStore::Csr(csr) => assert_eq!(csr, g),
            GraphStore::Compressed(_) => panic!("v1 must stay raw"),
        }
    }

    #[test]
    fn v2_mmap_serves_the_graph_without_materializing() {
        let g = bigger_sample();
        let compressed = CompressedCsr::from_csr(&g);
        let path = temp_path("v2_view");
        save_snapshot_compressed(&compressed, &path).unwrap();
        let snap = MmapSnapshot::open(&path).unwrap();
        assert!(snap.is_compressed() && !snap.is_reordered());
        assert_eq!(snap.version(), GCSR_VERSION_COMPRESSED);
        assert_eq!(snap.num_vertices(), g.num_vertices());
        assert_eq!(snap.num_arcs(), g.num_arcs());
        // The resident cost is the index, far below the raw arrays.
        assert!(snap.resident_bytes() < g.heap_bytes() / 4);
        let mut scratch = Vec::new();
        for v in g.vertices() {
            assert_eq!(snap.degree(v), g.degree(v));
            snap.decode_into(v, &mut scratch);
            assert_eq!(scratch.as_slice(), g.neighbors_slice(v));
            let streamed: Vec<NodeId> = snap.neighbors(v).collect();
            assert_eq!(streamed.as_slice(), g.neighbors_slice(v));
        }
        for (u, v) in [(0u32, 1u32), (0, 4), (1, 2), (5, 250), (7, 133)] {
            assert_eq!(snap.has_edge(u, v), g.has_edge(u, v), "has_edge({u},{v})");
        }
        assert_eq!(snap.to_csr(), g);
        // Consuming conversion keeps the compressed representation.
        match snap.into_graph() {
            GraphStore::Compressed(c) => assert_eq!(c.to_csr(), g),
            GraphStore::Csr(_) => panic!("v2 must stay compressed"),
        }
        assert_eq!(load_snapshot(&path).unwrap(), g);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v2_preserves_the_reordered_flag() {
        let g = bigger_sample();
        let rank = crate::transform::Rank::identity(g.num_vertices());
        let compressed = CompressedCsr::from_csr_ordered(&g, &rank);
        assert!(compressed.is_reordered());
        let mut buf = Vec::new();
        write_snapshot_compressed(&compressed, &mut buf).unwrap();
        let flags = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        assert_eq!(flags, GCSR_FLAG_REORDERED);
        match read_snapshot_auto(&buf).unwrap() {
            GraphStore::Compressed(c) => assert!(c.is_reordered()),
            GraphStore::Csr(_) => panic!("v2 must stay compressed"),
        }
    }

    #[test]
    fn v2_checksums_cover_every_section_byte() {
        let g = sample();
        let pristine = v2_bytes(&g);
        for index in GCSR_V2_HEADER_BYTES..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[index] ^= 0x40;
            let err = read_snapshot(&corrupt).unwrap_err();
            assert!(
                matches!(err.cause, GraphIoCause::ChecksumMismatch { .. }),
                "byte {index}: expected checksum failure, got {err}"
            );
        }
    }
}
