//! Adversarial-input battery: every parser in `gms_graph::io`, fed
//! every kind of malformed input, must return a typed
//! [`GraphIoError`] with the right line/cause — and **never** panic.
//! Together these tests exercise every variant of [`GraphIoCause`].
//!
//! Snapshot corruptions are checked through both sources of the one
//! reader (a byte buffer through [`read_snapshot`] and a file through
//! [`load_snapshot`]), and every corpus entry is also fed to
//! [`load_graph`] — the one loader the platform, the server and the
//! router call — which must stop at the same line for the same cause
//! as the per-format function.

use gms_core::{CsrGraph, Graph};
use gms_graph::io::{
    load_graph, load_metis_from, load_snapshot, load_undirected, load_undirected_from,
    read_edge_list, read_snapshot, section_checksum, write_snapshot, write_snapshot_compressed,
    GraphFormat, GraphIoCause, GraphIoError, GraphSource, GCSR_HEADER_BYTES, GCSR_V2_HEADER_BYTES,
    GCSR_VERSION, GCSR_VERSION_COMPRESSED,
};
use gms_graph::CompressedCsr;
use std::path::Path;

/// `load_graph` must fail exactly like the per-format entry point
/// did: same line, same cause (by discriminant).
fn assert_same_through_load_graph(
    direct: &GraphIoError,
    format: GraphFormat,
    source: GraphSource<'_>,
) {
    let unified = load_graph(format, source).unwrap_err();
    assert_eq!(unified.line, direct.line, "{format:?}: {unified:?}");
    assert_eq!(
        std::mem::discriminant(&unified.cause),
        std::mem::discriminant(&direct.cause),
        "{format:?}: load_graph says {unified:?}, the format's own loader {direct:?}"
    );
}

fn edge_list_err(text: &str) -> GraphIoError {
    let err = read_edge_list(text.as_bytes()).unwrap_err();
    assert_same_through_load_graph(&err, GraphFormat::EdgeList, GraphSource::Text(text));
    err
}

// ---------------------------------------------------------------- edge list

#[test]
fn edge_list_io_error_has_no_line() {
    let missing = "/definitely/not/a/path.el";
    let err = load_undirected(missing).unwrap_err();
    assert_eq!(err.line, None);
    assert!(matches!(err.cause, GraphIoCause::Io(_)));
    for format in [GraphFormat::EdgeList, GraphFormat::Metis, GraphFormat::Gcsr] {
        assert_same_through_load_graph(&err, format, GraphSource::Path(Path::new(missing)));
    }
}

#[test]
fn edge_list_missing_endpoint_mid_file() {
    let err = edge_list_err("0 1\n1 2\n3\n");
    assert_eq!(err.line, Some(3));
    assert!(matches!(err.cause, GraphIoCause::MissingEndpoint));
}

#[test]
fn edge_list_non_numeric_tokens() {
    for (text, line, bad) in [
        ("x 1\n", 1, "x"),
        ("0 1\n1 two\n", 2, "two"),
        ("0 1\n\n# c\n-3 4\n", 4, "-3"),
    ] {
        let err = edge_list_err(text);
        assert_eq!(err.line, Some(line), "{text:?}");
        match err.cause {
            GraphIoCause::InvalidVertexId(field) => assert_eq!(field, bad),
            other => panic!("{text:?}: unexpected cause {other:?}"),
        }
    }
}

// -------------------------------------------------------------------- METIS

fn metis_err(text: &str) -> GraphIoError {
    let err = load_metis_from(text.as_bytes()).unwrap_err();
    assert_same_through_load_graph(&err, GraphFormat::Metis, GraphSource::Text(text));
    err
}

#[test]
fn metis_missing_header() {
    for text in ["", "% only comments\n% here\n"] {
        let err = metis_err(text);
        assert!(
            matches!(err.cause, GraphIoCause::MetisHeader(_)),
            "{text:?}: {err:?}"
        );
    }
}

#[test]
fn metis_malformed_headers() {
    for text in [
        "5\n",         // one field
        "5 4 1 2 9\n", // five fields
        "x 4\n",       // non-numeric n
        "5 y\n",       // non-numeric m
        "5 4 2\n",     // fmt digit outside {0,1}
        "5 4 0011\n",  // fmt too long
        "5 4 011 0\n", // ncon of zero
    ] {
        let err = metis_err(text);
        assert_eq!(err.line, Some(1), "{text:?}");
        assert!(
            matches!(err.cause, GraphIoCause::MetisHeader(_)),
            "{text:?}: {err:?}"
        );
    }
}

#[test]
fn metis_too_few_vertex_lines() {
    let err = metis_err("3 1\n2\n1\n");
    assert!(matches!(
        err.cause,
        GraphIoCause::MetisVertexCount {
            declared: 3,
            actual: 2
        }
    ));
}

#[test]
fn metis_too_many_vertex_lines() {
    let err = metis_err("2 1\n2\n1\n1 2\n");
    assert_eq!(err.line, Some(4));
    assert!(matches!(
        err.cause,
        GraphIoCause::MetisVertexCount { declared: 2, .. }
    ));
}

#[test]
fn metis_edge_count_mismatch() {
    // Header says 2 edges (4 entries); body holds one edge (2).
    let err = metis_err("2 2\n2\n1\n");
    assert!(matches!(
        err.cause,
        GraphIoCause::MetisEdgeCount {
            declared: 2,
            entries: 2
        }
    ));
}

#[test]
fn metis_huge_declared_edge_count_is_rejected_not_allocated() {
    // A absurd m must fail the entry check, not exhaust memory up
    // front.
    let err = metis_err("2 18446744073709551615\n2\n1\n");
    assert!(matches!(
        err.cause,
        GraphIoCause::MetisEdgeCount { entries: 2, .. }
    ));
}

#[test]
fn metis_adjacency_out_of_range() {
    // 0 is out of range in the 1-indexed format; so is n+1.
    let err = metis_err("2 1\n2\n0\n");
    assert_eq!(err.line, Some(3));
    assert!(matches!(
        err.cause,
        GraphIoCause::VertexOutOfRange { id: 0, n: 2 }
    ));
    let err = metis_err("2 1\n2\n3\n");
    assert!(matches!(
        err.cause,
        GraphIoCause::VertexOutOfRange { id: 3, n: 2 }
    ));
}

#[test]
fn metis_self_loops_are_rejected() {
    // Forbidden by the format — and accepting them would let the
    // edge-count check pass while the builder drops the loop.
    let err = metis_err("2 1\n1 1\n\n");
    assert_eq!(err.line, Some(2));
    assert!(matches!(
        err.cause,
        GraphIoCause::MetisSelfLoop { vertex: 1 }
    ));
}

#[test]
fn metis_duplicates_compensating_omissions_are_caught() {
    // Raw entry count matches 2m, but deduplication leaves only one
    // distinct edge against the two declared.
    let err = metis_err("3 2\n2 2\n1 1\n\n");
    assert!(matches!(
        err.cause,
        GraphIoCause::MetisEdgeCount {
            declared: 2,
            entries: 2
        }
    ));
}

#[test]
fn metis_duplicate_standing_in_for_a_missing_mirror_is_caught() {
    // Vertex 1 lists vertex 2 twice; vertex 2 lists nothing. The raw
    // entry count (2) matches 2m and the deduplicated edge count
    // matches m, but the lists are not symmetric — each edge must
    // appear exactly once in each endpoint's list.
    let err = metis_err("2 1\n2 2\n\n");
    assert!(matches!(
        err.cause,
        GraphIoCause::MetisEdgeCount {
            declared: 1,
            entries: 1
        }
    ));
}

#[test]
fn metis_non_numeric_adjacency_token() {
    let err = metis_err("2 1\n2\nfoo\n");
    assert_eq!(err.line, Some(3));
    assert!(matches!(err.cause, GraphIoCause::InvalidVertexId(ref f) if f == "foo"));
}

#[test]
fn metis_bad_and_missing_weights() {
    // fmt=001: every neighbor needs a numeric edge weight.
    let err = metis_err("2 1 001\n2 w\n1 1\n");
    assert_eq!(err.line, Some(2));
    assert!(matches!(err.cause, GraphIoCause::InvalidWeight(ref f) if f == "w"));
    let err = metis_err("2 1 001\n2\n1 1\n");
    assert!(matches!(err.cause, GraphIoCause::InvalidWeight(ref f) if f == "<missing>"));
    // fmt=010: the vertex weight itself is malformed.
    let err = metis_err("2 1 010\nbad 2\n7 1\n");
    assert!(matches!(err.cause, GraphIoCause::InvalidWeight(ref f) if f == "bad"));
}

// ----------------------------------------------------------------- snapshot

fn sample_bytes() -> Vec<u8> {
    let g = CsrGraph::from_undirected_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
    let mut buf = Vec::new();
    write_snapshot(&g, &mut buf).unwrap();
    buf
}

/// Checks one corrupt buffer as bytes and as a file and asserts both
/// report the same cause (by discriminant).
fn snapshot_err(bytes: &[u8], what: &str) -> GraphIoError {
    let buffered = read_snapshot(bytes).unwrap_err();
    let path = std::env::temp_dir().join(format!(
        "gms_adversarial_{}_{what}.gcsr",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let loaded = load_snapshot(&path).unwrap_err();
    assert_same_through_load_graph(&loaded, GraphFormat::Gcsr, GraphSource::Path(&path));
    std::fs::remove_file(&path).ok();
    assert_eq!(
        std::mem::discriminant(&buffered.cause),
        std::mem::discriminant(&loaded.cause),
        "{what}: bytes and file disagree: {buffered:?} vs {loaded:?}"
    );
    assert_eq!(buffered.line, None, "{what}: binary errors carry no line");
    buffered
}

/// Rewrites both section checksums so corruption *past* the checksum
/// check can be tested in isolation.
fn fix_checksums(bytes: &mut [u8]) {
    let n = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let targets_start = GCSR_HEADER_BYTES + 8 * (n + 1);
    let offsets_sum = section_checksum(&bytes[GCSR_HEADER_BYTES..targets_start]);
    let targets_sum = section_checksum(&bytes[targets_start..]);
    bytes[24..32].copy_from_slice(&offsets_sum.to_le_bytes());
    bytes[32..40].copy_from_slice(&targets_sum.to_le_bytes());
}

#[test]
fn snapshot_bad_magic() {
    let mut bytes = sample_bytes();
    bytes[0] = b'X';
    let err = snapshot_err(&bytes, "magic");
    assert!(matches!(
        err.cause,
        GraphIoCause::BadMagic {
            found: [b'X', b'C', b'S', b'R']
        }
    ));
    // A short file that still shows a foreign magic reports it too.
    let err = snapshot_err(b"PK\x03\x04", "zip");
    assert!(matches!(err.cause, GraphIoCause::BadMagic { .. }));
}

#[test]
fn snapshot_unsupported_version() {
    let mut bytes = sample_bytes();
    bytes[4..8].copy_from_slice(&(GCSR_VERSION + 9).to_le_bytes());
    let err = snapshot_err(&bytes, "version");
    assert!(matches!(
        err.cause,
        GraphIoCause::UnsupportedVersion { found } if found == GCSR_VERSION + 9
    ));
}

#[test]
fn snapshot_truncation_at_every_section() {
    let bytes = sample_bytes();
    // Shorter than a header, mid-offsets, mid-targets, one byte shy.
    for cut in [
        0,
        10,
        GCSR_HEADER_BYTES + 3,
        bytes.len() - 7,
        bytes.len() - 1,
    ] {
        let err = snapshot_err(&bytes[..cut], "truncated");
        assert!(
            matches!(err.cause, GraphIoCause::SnapshotSize { .. }),
            "cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn snapshot_trailing_garbage() {
    let mut bytes = sample_bytes();
    let expected = bytes.len() as u64;
    bytes.push(0);
    let err = snapshot_err(&bytes, "trailing");
    assert!(matches!(
        err.cause,
        GraphIoCause::SnapshotSize { expected: e, actual } if e == expected && actual == expected + 1
    ));
}

#[test]
fn snapshot_corrupt_sections_fail_their_checksum() {
    let pristine = sample_bytes();

    let mut bytes = pristine.clone();
    bytes[GCSR_HEADER_BYTES + 1] ^= 0xff; // inside offsets
    let err = snapshot_err(&bytes, "offsets");
    assert!(matches!(
        err.cause,
        GraphIoCause::ChecksumMismatch {
            section: "offsets",
            ..
        }
    ));

    let mut bytes = pristine.clone();
    *bytes.last_mut().unwrap() ^= 0x01; // inside targets
    let err = snapshot_err(&bytes, "targets");
    assert!(
        matches!(
            err.cause,
            GraphIoCause::ChecksumMismatch { section: "targets", stored, computed } if stored != computed
        ),
        "{err:?}"
    );

    // Corrupting a stored checksum itself is also a mismatch.
    let mut bytes = pristine;
    bytes[26] ^= 0x10;
    let err = snapshot_err(&bytes, "storedsum");
    assert!(matches!(
        err.cause,
        GraphIoCause::ChecksumMismatch {
            section: "offsets",
            ..
        }
    ));
}

#[test]
fn snapshot_csr_invariants_hold_even_with_valid_checksums() {
    // Non-monotone offsets.
    let mut bytes = sample_bytes();
    bytes[GCSR_HEADER_BYTES + 8..GCSR_HEADER_BYTES + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    fix_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "monotone");
    assert!(
        matches!(err.cause, GraphIoCause::SnapshotFormat { .. }),
        "{err:?}"
    );

    // First offset not zero (compensated to stay monotone).
    let mut bytes = sample_bytes();
    bytes[GCSR_HEADER_BYTES..GCSR_HEADER_BYTES + 8].copy_from_slice(&1u64.to_le_bytes());
    fix_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "firstzero");
    assert!(matches!(
        err.cause,
        GraphIoCause::SnapshotFormat { detail } if detail.contains("start at 0")
    ));

    // Final offset not spanning the targets.
    let mut bytes = sample_bytes();
    let n = 5usize;
    let last = GCSR_HEADER_BYTES + 8 * n;
    bytes[last..last + 8].copy_from_slice(&3u64.to_le_bytes());
    fix_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "span");
    assert!(matches!(
        err.cause,
        GraphIoCause::SnapshotFormat { detail } if detail.contains("arc count")
    ));

    // A target pointing past n.
    let mut bytes = sample_bytes();
    let targets_start = GCSR_HEADER_BYTES + 8 * (n + 1);
    bytes[targets_start..targets_start + 4].copy_from_slice(&99u32.to_le_bytes());
    fix_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "range");
    assert!(matches!(
        err.cause,
        GraphIoCause::VertexOutOfRange { id: 99, n: 5 }
    ));

    // An unsorted neighborhood (vertex 0's is [1, 2] in the sample;
    // swap to [2, 1]).
    let mut bytes = sample_bytes();
    bytes[targets_start..targets_start + 4].copy_from_slice(&2u32.to_le_bytes());
    bytes[targets_start + 4..targets_start + 8].copy_from_slice(&1u32.to_le_bytes());
    fix_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "sorted");
    assert!(matches!(
        err.cause,
        GraphIoCause::SnapshotFormat { detail } if detail.contains("sorted")
    ));

    // A corrupt header count implying an absurd length must fail the
    // size check without any allocation.
    let mut bytes = sample_bytes();
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = snapshot_err(&bytes, "hugecount");
    assert!(matches!(err.cause, GraphIoCause::SnapshotSize { .. }));

    // Regression: an intermediate offset larger than the arc count
    // whose successors later dip back down (so the final offset still
    // equals the arc count) must be rejected as non-monotone — not
    // walk the targets section out of bounds and panic.
    let mut bytes = sample_bytes();
    bytes[GCSR_HEADER_BYTES + 8..GCSR_HEADER_BYTES + 16].copy_from_slice(&1000u64.to_le_bytes());
    fix_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "overshoot");
    assert!(
        matches!(
            err.cause,
            GraphIoCause::SnapshotFormat { detail } if detail.contains("monotonically")
        ),
        "{err:?}"
    );
}

// ------------------------------------------------------ snapshot v2

fn v2_sample_bytes() -> Vec<u8> {
    let g = CsrGraph::from_undirected_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]);
    let mut buf = Vec::new();
    write_snapshot_compressed(&CompressedCsr::from_csr(&g), &mut buf).unwrap();
    buf
}

/// Rewrites both v2 section checksums so corruption *past* the
/// checksum check can be tested in isolation.
fn fix_v2_checksums(bytes: &mut [u8]) {
    let index_len = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
    let payload_start = GCSR_V2_HEADER_BYTES + index_len;
    let index_sum = section_checksum(&bytes[GCSR_V2_HEADER_BYTES..payload_start]);
    let payload_sum = section_checksum(&bytes[payload_start..]);
    bytes[48..56].copy_from_slice(&index_sum.to_le_bytes());
    bytes[56..64].copy_from_slice(&payload_sum.to_le_bytes());
}

#[test]
fn v2_truncation_at_every_section() {
    let bytes = v2_sample_bytes();
    let index_len = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;
    // Mid-header, mid-index, mid-payload, one byte shy.
    for cut in [
        10,
        GCSR_V2_HEADER_BYTES - 1,
        GCSR_V2_HEADER_BYTES + index_len / 2,
        bytes.len() - 3,
        bytes.len() - 1,
    ] {
        let err = snapshot_err(&bytes[..cut], "v2truncated");
        assert!(
            matches!(err.cause, GraphIoCause::SnapshotSize { .. }),
            "cut at {cut}: {err:?}"
        );
    }
}

#[test]
fn v2_corrupt_sections_fail_their_checksum() {
    let pristine = v2_sample_bytes();
    let index_len = u64::from_le_bytes(pristine[32..40].try_into().unwrap()) as usize;

    let mut bytes = pristine.clone();
    bytes[GCSR_V2_HEADER_BYTES + 1] ^= 0xff; // inside the index
    let err = snapshot_err(&bytes, "v2index");
    assert!(matches!(
        err.cause,
        GraphIoCause::ChecksumMismatch {
            section: "index",
            ..
        }
    ));

    let mut bytes = pristine.clone();
    bytes[GCSR_V2_HEADER_BYTES + index_len + 1] ^= 0x01; // inside the payload
    let err = snapshot_err(&bytes, "v2payload");
    assert!(matches!(
        err.cause,
        GraphIoCause::ChecksumMismatch {
            section: "payload",
            ..
        }
    ));

    // Corrupting a stored checksum itself is also a mismatch.
    let mut bytes = pristine;
    bytes[50] ^= 0x10;
    let err = snapshot_err(&bytes, "v2storedsum");
    assert!(matches!(
        err.cause,
        GraphIoCause::ChecksumMismatch {
            section: "index",
            ..
        }
    ));
}

#[test]
fn v2_header_on_a_v1_body_is_rejected() {
    // Flip a valid v1 file's version field to 2: the reinterpreted
    // header must fail validation, never serve garbage. (With the v1
    // geometry, the bytes under the v2 scheme field are the vertex
    // count — not a defined scheme.)
    let mut bytes = sample_bytes();
    bytes[4..8].copy_from_slice(&GCSR_VERSION_COMPRESSED.to_le_bytes());
    let err = snapshot_err(&bytes, "v2headerv1body");
    assert!(
        matches!(
            err.cause,
            GraphIoCause::SnapshotFormat { .. } | GraphIoCause::SnapshotSize { .. }
        ),
        "{err:?}"
    );

    // And the reverse: a v1 version field on a v2 body.
    let mut bytes = v2_sample_bytes();
    bytes[4..8].copy_from_slice(&GCSR_VERSION.to_le_bytes());
    let err = snapshot_err(&bytes, "v1headerv2body");
    assert!(
        matches!(
            err.cause,
            GraphIoCause::SnapshotFormat { .. }
                | GraphIoCause::SnapshotSize { .. }
                | GraphIoCause::ChecksumMismatch { .. }
        ),
        "{err:?}"
    );
}

#[test]
fn v2_unknown_scheme_and_flags_are_rejected() {
    let mut bytes = v2_sample_bytes();
    bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
    let err = snapshot_err(&bytes, "v2scheme");
    assert!(matches!(
        err.cause,
        GraphIoCause::SnapshotFormat { detail } if detail.contains("scheme")
    ));

    let mut bytes = v2_sample_bytes();
    bytes[12..16].copy_from_slice(&0x8000_0000u32.to_le_bytes());
    let err = snapshot_err(&bytes, "v2flags");
    assert!(matches!(
        err.cause,
        GraphIoCause::SnapshotFormat { detail } if detail.contains("flags")
    ));
}

#[test]
fn v2_structural_corruption_holds_even_with_valid_checksums() {
    // A payload gap of zero decodes as a duplicate neighbor. In the
    // sample, vertex 0's neighborhood is [1, 2]: its payload bytes
    // are the varints [1, 1] — zero the second gap.
    let pristine = v2_sample_bytes();
    let index_len = u64::from_le_bytes(pristine[32..40].try_into().unwrap()) as usize;
    let payload_start = GCSR_V2_HEADER_BYTES + index_len;

    let mut bytes = pristine.clone();
    bytes[payload_start + 1] = 0;
    fix_v2_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "v2duplicate");
    assert!(
        matches!(
            err.cause,
            GraphIoCause::SnapshotFormat { detail } if detail.contains("sorted")
        ),
        "{err:?}"
    );

    // A gap pushing the prefix sum past n.
    let mut bytes = pristine.clone();
    bytes[payload_start + 1] = 0x7f;
    fix_v2_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "v2range");
    assert!(
        matches!(err.cause, GraphIoCause::VertexOutOfRange { .. }),
        "{err:?}"
    );

    // An arc count disagreeing with the degree sum.
    let mut bytes = pristine.clone();
    bytes[24..32].copy_from_slice(&1234u64.to_le_bytes());
    let err = snapshot_err(&bytes, "v2arcs");
    assert!(
        matches!(
            err.cause,
            GraphIoCause::SnapshotFormat { detail } if detail.contains("arc count")
        ),
        "{err:?}"
    );

    // A corrupt header length implying an absurd file must fail the
    // size check without any allocation.
    let mut bytes = pristine;
    bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = snapshot_err(&bytes, "v2hugeindex");
    assert!(matches!(err.cause, GraphIoCause::SnapshotSize { .. }));
}

#[test]
fn v2_overflowing_fifth_varint_byte_is_refused_at_load() {
    // `[0x81, 0x80, 0x80, 0x80, 0x70]` is a five-byte varint whose
    // fifth byte carries bits past 2³²: with the high bits shifted
    // out it used to decode to 1 — exactly vertex 0's first neighbor
    // in the sample ([1, 2], stored as the gaps [1, 1]). Swap it in
    // for that first gap, grow vertex 0's byte length (2 → 6, the
    // first byte of the pair stream behind the one block's 8-byte
    // anchor and 4-byte block start) and the payload length, and fix
    // the checksums: every structural check still agrees, so only the
    // varint rule can refuse the file — which it must, or the
    // unchecked bulk decode would later see a code validation never
    // vetted.
    let pristine = v2_sample_bytes();
    let index_len = u64::from_le_bytes(pristine[32..40].try_into().unwrap()) as usize;
    let payload_start = GCSR_V2_HEADER_BYTES + index_len;
    let pair_start = GCSR_V2_HEADER_BYTES + 12;
    assert_eq!(&pristine[pair_start..pair_start + 2], &[2, 2]);
    assert_eq!(&pristine[payload_start..payload_start + 2], &[1, 1]);

    let mut bytes = pristine[..payload_start].to_vec();
    bytes.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x70]);
    bytes.extend_from_slice(&pristine[payload_start + 1..]);
    bytes[pair_start] = 6;
    let payload_len = (bytes.len() - payload_start) as u64;
    bytes[40..48].copy_from_slice(&payload_len.to_le_bytes());
    fix_v2_checksums(&mut bytes);
    let err = snapshot_err(&bytes, "v2fifthbyte");
    assert!(
        matches!(
            err.cause,
            GraphIoCause::SnapshotFormat { detail } if detail.contains("truncated neighborhood")
        ),
        "{err:?}"
    );
}

/// Re-fixes the section checksums of a corrupted buffer whenever its
/// header still places the sections inside it, so the corruption
/// reaches the structural checks behind them.
fn refix_checksums(bytes: &mut [u8]) {
    let header = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as u128;
    let len = bytes.len() as u128;
    match u32::from_le_bytes(bytes[4..8].try_into().unwrap()) {
        GCSR_VERSION if GCSR_HEADER_BYTES as u128 + 8 * (header(8) + 1) <= len => {
            fix_checksums(bytes)
        }
        GCSR_VERSION_COMPRESSED if GCSR_V2_HEADER_BYTES as u128 + header(32) <= len => {
            fix_v2_checksums(bytes)
        }
        _ => {}
    }
}

/// Every byte of the small v1 and v2 samples, XORed with each of a
/// few masks and re-checksummed, must either fail with the same typed
/// error as bytes and as a file, or load — both ways alike — into a
/// graph that keeps the CSR invariants.
#[test]
fn every_byte_flip_is_a_typed_error_or_a_sound_graph() {
    let path =
        std::env::temp_dir().join(format!("gms_adversarial_{}_flip.gcsr", std::process::id()));
    for (version, pristine) in [("v1", sample_bytes()), ("v2", v2_sample_bytes())] {
        for at in 0..pristine.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let what = format!("{version} byte {at} ^ {mask:#04x}");
                let mut bytes = pristine.clone();
                bytes[at] ^= mask;
                refix_checksums(&mut bytes);
                std::fs::write(&path, &bytes).unwrap();
                match (
                    read_snapshot(&bytes),
                    load_graph(GraphFormat::Gcsr, GraphSource::Path(&path)),
                ) {
                    (Err(buffered), Err(loaded)) => {
                        assert_eq!(
                            std::mem::discriminant(&buffered.cause),
                            std::mem::discriminant(&loaded.cause),
                            "{what}: {buffered:?} vs {loaded:?}"
                        );
                        assert_eq!(buffered.line, None, "{what}");
                    }
                    (Ok(buffered), Ok(loaded)) => {
                        let csr = buffered.to_csr();
                        let n = csr.num_vertices();
                        let offsets = csr.offsets();
                        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{what}");
                        assert_eq!(offsets[n], csr.num_arcs(), "{what}");
                        for v in csr.vertices() {
                            let nbrs = csr.neighbors_slice(v);
                            assert!(nbrs.iter().all(|&u| (u as usize) < n), "{what}");
                            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "{what}");
                        }
                        assert_eq!(csr, loaded.to_csr(), "{what}");
                    }
                    (buffered, loaded) => panic!("{what}: {buffered:?} vs {loaded:?}"),
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn edge_list_huge_nodes_header_is_ignored_not_allocated() {
    // Regression: a hostile `# Nodes:` comment must not drive the
    // loader into an unrepresentable allocation; counts beyond the
    // NodeId range are ignored and the edges size the graph.
    let text = "# Nodes: 18446744073709551615 Edges: 1\n0 1\n";
    let g = load_undirected_from(text.as_bytes()).unwrap();
    assert_eq!(g.num_vertices(), 2);
}

// ------------------------------------------------- cross-parser consistency

#[test]
fn empty_input_is_an_empty_graph_for_edge_lists_but_not_metis() {
    // An empty edge list is a valid (empty) graph; METIS requires a
    // header; an empty snapshot is not even a header.
    let g = load_undirected_from("".as_bytes()).unwrap();
    assert_eq!(g.num_vertices(), 0);
    assert!(matches!(metis_err("").cause, GraphIoCause::MetisHeader(_)));
    assert!(matches!(
        read_snapshot(b"").unwrap_err().cause,
        GraphIoCause::SnapshotSize { .. }
    ));
}
