//! The `.gcsr` binary CSR snapshot — this suite's own save format,
//! built for Table 7-scale datasets: parse a text dump once, snapshot
//! it, and every later run loads the CSR arrays back at disk
//! bandwidth.
//!
//! Two body versions (see the [module docs](super) for the
//! byte-for-byte layouts): **v1** stores the raw CSR arrays, **v2**
//! stores a compressed body — the
//! [`crate::CompressedCsr`] block index and gap+varint
//! payload, written exactly as held in memory. A snapshot is read one
//! way: [`read_snapshot`] over a byte buffer, and [`load_snapshot`]
//! over a mapped file through the same reader. It runs the full
//! validation battery for the version it finds: magic, version, exact
//! length, per-section FNV-1a checksums, and the structural
//! invariants (for v1, monotone offsets spanning in-range sorted
//! targets; for v2, a complete structural decode of the index and
//! every neighborhood). A snapshot that passes is safe to hand to
//! every kernel in the suite, and comes back in the representation it
//! stored — a v2 body as a [`crate::CompressedCsr`], never
//! decompressed on the way in.

use super::{GraphIoCause, GraphIoError};
use crate::compress::varint;
use crate::compressed_csr::{CompressedCsr, NbrIndex, INDEX_BLOCK};
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
/// written exactly as held in memory, so a load copies them back
/// without re-encoding.
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

fn fail(cause: GraphIoCause) -> GraphIoError {
    GraphIoError::new(cause)
}

/// The little-endian u64 at byte `at` of a header.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// The little-endian u32 at byte `at` of a header.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

/// Decodes a section of little-endian u64s.
fn le_u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
}

/// Decodes a section of little-endian u32s.
fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

/// Checks the magic and reads the version field — the dispatch step
/// of [`read_snapshot`].
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
    Ok(le_u32(bytes, 4))
}

/// Runs the full validation battery over a v1 (raw CSR) snapshot
/// buffer and returns its arrays. The magic and version are already
/// checked by [`snapshot_version`].
fn read_v1(bytes: &[u8]) -> Result<CsrGraph, GraphIoError> {
    if bytes.len() < GCSR_HEADER_BYTES {
        return Err(fail(GraphIoCause::SnapshotSize {
            expected: GCSR_HEADER_BYTES as u64,
            actual: bytes.len() as u64,
        }));
    }
    let n_u64 = le_u64(bytes, 8);
    let arcs_u64 = le_u64(bytes, 16);
    let stored_offsets_sum = le_u64(bytes, 24);
    let stored_targets_sum = le_u64(bytes, 32);

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
    let targets_start = GCSR_HEADER_BYTES + 8 * (n + 1);
    let offsets_bytes = &bytes[GCSR_HEADER_BYTES..targets_start];
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

    // CSR structural invariants, checked on the decoded arrays (no
    // bigger than the buffer the length check just bounded).
    let offsets: Vec<usize> = le_u64s(offsets_bytes).map(|o| o as usize).collect();
    let targets: Vec<NodeId> = le_u32s(targets_bytes).collect();
    if offsets[0] != 0 {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "offsets must start at 0",
        }));
    }
    if offsets[n] != targets.len() {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "final offset must equal the arc count",
        }));
    }
    // Monotonicity over the WHOLE offset array first: only once every
    // offset is known to be bounded by the final one (= arcs) is it
    // safe to use offsets as indices into the targets. An interleaved
    // check would slice past the array on a crafted intermediate
    // offset before reaching the pair that disproves it.
    if offsets.windows(2).any(|w| w[1] < w[0]) {
        return Err(fail(GraphIoCause::SnapshotFormat {
            detail: "offsets must be monotonically non-decreasing",
        }));
    }
    for w in offsets.windows(2) {
        // Each neighborhood: targets in range, strictly ascending.
        let mut last: Option<u32> = None;
        for &target in &targets[w[0]..w[1]] {
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
    Ok(CsrGraph::from_parts(offsets, targets))
}

/// Runs the full validation battery over a v2 (compressed) snapshot
/// buffer and returns the compressed graph: header geometry,
/// per-section checksums, then a complete structural decode — every
/// index pair is walked, every block anchor cross-checked against the
/// pair stream, and every neighborhood decoded (strictly ascending,
/// in-range, exactly filling its declared byte length). A buffer that
/// passes is safe to serve without any per-access checks.
fn read_v2(bytes: &[u8]) -> Result<CompressedCsr, GraphIoError> {
    if bytes.len() < GCSR_V2_HEADER_BYTES {
        return Err(fail(GraphIoCause::SnapshotSize {
            expected: GCSR_V2_HEADER_BYTES as u64,
            actual: bytes.len() as u64,
        }));
    }
    let scheme = le_u32(bytes, 8);
    let flags = le_u32(bytes, 12);
    let n_u64 = le_u64(bytes, 16);
    let arcs_u64 = le_u64(bytes, 24);
    let index_len_u64 = le_u64(bytes, 32);
    let payload_len_u64 = le_u64(bytes, 40);
    let stored_index_sum = le_u64(bytes, 48);
    let stored_payload_sum = le_u64(bytes, 56);

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
    let anchors: Vec<u64> = le_u64s(&index_bytes[..8 * blocks]).collect();
    let block_starts: Vec<u32> = le_u32s(&index_bytes[8 * blocks..12 * blocks]).collect();
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

    Ok(CompressedCsr::from_validated_parts(
        NbrIndex::from_parts(n, anchors, block_starts, pairs),
        payload_bytes.to_vec(),
        arcs_u64 as usize,
        flags & GCSR_FLAG_REORDERED != 0,
    ))
}

/// Deserializes a snapshot of either version from an in-memory byte
/// buffer, validating everything first, into the representation the
/// file stored: a v1 body is a raw CSR, a v2 body stays compressed.
/// The buffer has no alignment requirement.
pub fn read_snapshot(bytes: &[u8]) -> Result<GraphStore, GraphIoError> {
    match snapshot_version(bytes)? {
        GCSR_VERSION => Ok(GraphStore::Csr(read_v1(bytes)?)),
        GCSR_VERSION_COMPRESSED => Ok(GraphStore::Compressed(read_v2(bytes)?)),
        found => Err(fail(GraphIoCause::UnsupportedVersion { found })),
    }
}

/// Loads a snapshot file: maps it read-only and runs
/// [`read_snapshot`] over the mapped bytes. Mapping instead of reading
/// the file into a buffer first saves one copy of the whole file
/// (`bench_io` times both: `gcsr-load` against `gcsr-read`).
pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<GraphStore, GraphIoError> {
    let file = std::fs::File::open(path)?;
    // Safety: the map is read-only and private; concurrent
    // truncation of the underlying file is the documented caveat
    // inherited from memmap2.
    let map = unsafe { memmap2::Mmap::map(&file) }?;
    read_snapshot(&map)
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
        assert_eq!(read_snapshot(&snapshot_bytes(&g)).unwrap().into_csr(), g);
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        for g in [
            CsrGraph::from_undirected_edges(0, &[]),
            CsrGraph::from_undirected_edges(5, &[]),
            CsrGraph::from_undirected_edges(4, &[(0, 1)]),
        ] {
            assert_eq!(read_snapshot(&snapshot_bytes(&g)).unwrap().into_csr(), g);
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
    fn v1_file_loads_as_the_raw_graph() {
        let g = sample();
        let path = temp_path("v1_load");
        save_snapshot(&g, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        std::fs::remove_file(path).ok();
        let GraphStore::Csr(csr) = loaded else {
            panic!("v1 must stay raw");
        };
        assert!(csr.has_edge(0, 1) && !csr.has_edge(0, 3));
        assert_eq!(csr, g);
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
        // The stored representation survives per version, and the
        // compressed one decompresses back to the same CSR.
        assert_eq!(read_snapshot(&v2_bytes(&g)).unwrap().into_csr(), g);
        match read_snapshot(&v2_bytes(&g)).unwrap() {
            GraphStore::Compressed(c) => assert_eq!(c.to_csr(), g),
            GraphStore::Csr(_) => panic!("v2 must stay compressed"),
        }
        match read_snapshot(&snapshot_bytes(&g)).unwrap() {
            GraphStore::Csr(csr) => assert_eq!(csr, g),
            GraphStore::Compressed(_) => panic!("v1 must stay raw"),
        }
    }

    #[test]
    fn v2_file_loads_without_decompressing() {
        let g = bigger_sample();
        let compressed = CompressedCsr::from_csr(&g);
        let path = temp_path("v2_load");
        save_snapshot_compressed(&compressed, &path).unwrap();
        let loaded = load_snapshot(&path).unwrap();
        std::fs::remove_file(path).ok();
        let GraphStore::Compressed(snap) = loaded else {
            panic!("v2 must stay compressed");
        };
        assert!(!snap.is_reordered());
        assert_eq!(snap.num_vertices(), g.num_vertices());
        assert_eq!(snap.num_arcs(), g.num_arcs());
        assert_eq!(snap.heap_bytes(), compressed.heap_bytes());
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
        match read_snapshot(&buf).unwrap() {
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
