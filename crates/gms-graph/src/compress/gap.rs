//! Gap (difference) encoding of sorted neighborhoods (§B.2): a sorted
//! neighborhood `[a0, a1, a2, ...]` is stored as `[a0, a1-a0, a2-a1,
//! ...]`; combined with varints, small gaps — common after good vertex
//! relabelings — compress to single bytes.

use super::varint;

/// Encodes a strictly increasing neighborhood as varint gaps.
pub fn encode(sorted: &[u32]) -> Vec<u8> {
    debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    let mut out = Vec::with_capacity(sorted.len());
    let mut prev = 0u32;
    for (i, &v) in sorted.iter().enumerate() {
        let gap = if i == 0 { v } else { v - prev };
        varint::encode_u32(gap, &mut out);
        prev = v;
    }
    out
}

/// Decodes `count` values from a gap-encoded buffer.
pub fn decode(input: &[u8], count: usize) -> Option<Vec<u32>> {
    let mut out = Vec::new();
    decode_into(input, count, &mut out)?;
    Some(out)
}

/// Decodes `count` values into `out`, replacing its contents — the
/// allocation-free neighborhood decode: once `out` has grown to the
/// maximum degree it is reused without touching the allocator.
/// Returns the number of payload bytes consumed, or `None` on
/// truncated/over-long varints or a prefix-sum overflow.
#[inline]
pub fn decode_into(input: &[u8], count: usize, out: &mut Vec<u32>) -> Option<usize> {
    out.clear();
    out.resize(count, 0);
    decode_run(input, 0, out)
}

/// The bulk gap decoder: reads `out.len()` varint gaps from the front
/// of `input` and fills `out` with their running sums on top of
/// `base` (0 for a whole neighborhood, whose first entry is absolute;
/// the previous value when resuming mid-neighborhood). Returns the
/// number of bytes consumed, or `None` on truncated/over-long varints
/// or a sum past `u32::MAX`.
///
/// `input` may extend past the encoded run — callers hand over the
/// rest of the payload — which is what lets the fast path work a word
/// at a time: one unaligned 8-byte load yields four gaps as long as
/// each is a 1- or 2-byte code (every gap below 16 384), with no
/// per-byte loop, no per-element bounds check or `push`, and the
/// overflow test hoisted out of the loop (the sum is carried in 64
/// bits, which `out.len() < 2³²` gaps cannot overflow, and checked
/// once at the end). A wider code drops to [`varint::decode_u32`] for
/// that one gap, so both paths accept exactly the same encodings.
pub fn decode_run(input: &[u8], base: u32, out: &mut [u32]) -> Option<usize> {
    /// Gaps per word: an 8-byte word always holds four ≤2-byte codes.
    const LANES: usize = 4;
    let mut pos = 0usize;
    let mut acc = u64::from(base);
    let mut quads = out.chunks_exact_mut(LANES);
    for quad in &mut quads {
        let mut filled = 0;
        if let Some(bytes) = input.get(pos..pos + 8) {
            let mut word = u64::from_le_bytes(bytes.try_into().expect("8-byte slice"));
            let mut bits = 0u64;
            for slot in quad.iter_mut() {
                if word & 0x8080 == 0x8080 {
                    break; // a code of three or more bytes
                }
                // 8 when the first byte carries a continuation flag
                // (a 2-byte code), else 0: the extra shift, and — as a
                // mask — whether the second byte belongs to the value.
                let extra = (word >> 4) & 8;
                let second = (word >> 1) & 0x3F80 & (extra >> 3).wrapping_neg();
                acc += (word & 0x7F) | second;
                *slot = acc as u32;
                word = (word >> 8) >> extra;
                bits += 8 + extra;
                filled += 1;
            }
            pos += (bits / 8) as usize;
        }
        // Wide codes and the last few payload bytes: one gap at a time.
        for slot in &mut quad[filled..] {
            acc += u64::from(decode_at(input, &mut pos)?);
            *slot = acc as u32;
        }
    }
    for slot in quads.into_remainder() {
        acc += u64::from(decode_at(input, &mut pos)?);
        *slot = acc as u32;
    }
    (acc <= u64::from(u32::MAX)).then_some(pos)
}

/// One scalar varint at byte `pos` of `input`, advancing `pos`.
#[inline]
fn decode_at(input: &[u8], pos: &mut usize) -> Option<u32> {
    let mut cursor = input.get(*pos..)?;
    let value = varint::decode_u32(&mut cursor)?;
    *pos = input.len() - cursor.len();
    Some(value)
}

/// Iterator-based decoder that avoids materializing the neighborhood.
pub struct GapDecoder<'a> {
    input: &'a [u8],
    remaining: usize,
    acc: u32,
    first: bool,
}

impl<'a> GapDecoder<'a> {
    /// Starts decoding `count` values from `input`.
    pub fn new(input: &'a [u8], count: usize) -> Self {
        Self {
            input,
            remaining: count,
            acc: 0,
            first: true,
        }
    }
}

impl Iterator for GapDecoder<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        let gap = varint::decode_u32(&mut self.input)?;
        self.acc = if self.first { gap } else { self.acc + gap };
        self.first = false;
        self.remaining -= 1;
        Some(self.acc)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let neigh = vec![3u32, 4, 9, 100, 101, 70_000];
        let encoded = encode(&neigh);
        assert_eq!(decode(&encoded, neigh.len()), Some(neigh.clone()));
        let streamed: Vec<u32> = GapDecoder::new(&encoded, neigh.len()).collect();
        assert_eq!(streamed, neigh);
    }

    #[test]
    fn dense_ranges_compress_to_one_byte_per_entry() {
        let neigh: Vec<u32> = (1000..2000).collect();
        let encoded = encode(&neigh);
        // First value takes 2 bytes; every following gap is 1.
        assert_eq!(encoded.len(), 2 + 999);
    }

    #[test]
    fn empty_neighborhood() {
        assert!(encode(&[]).is_empty());
        assert_eq!(decode(&[], 0), Some(vec![]));
    }

    #[test]
    fn truncated_buffer_fails() {
        let encoded = encode(&[1, 2, 3]);
        assert_eq!(decode(&encoded[..1], 3), None);
        let mut out = Vec::new();
        assert_eq!(decode_into(&encoded[..1], 3, &mut out), None);
    }

    #[test]
    fn decode_into_reuses_capacity_and_reports_bytes() {
        let neigh: Vec<u32> = (0..533u32).map(|i| i * 3 + 1).collect();
        let encoded = encode(&neigh);
        let mut out = Vec::new();
        let consumed = decode_into(&encoded, neigh.len(), &mut out).unwrap();
        assert_eq!(consumed, encoded.len());
        assert_eq!(out, neigh);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        // A second decode of a same-size neighborhood must reuse the
        // buffer in place.
        decode_into(&encoded, neigh.len(), &mut out).unwrap();
        assert_eq!(out, neigh);
        assert_eq!((out.capacity(), out.as_ptr()), (cap, ptr));
    }

    #[test]
    fn decode_into_agrees_with_iterator_on_awkward_counts() {
        // Counts around the quad width exercise the quad/remainder
        // split: 0..=9 covers empty, 1 (absolute only), 4, 5, 8, 9.
        for count in 0..10usize {
            let neigh: Vec<u32> = (0..count as u32).map(|i| i * 1000 + 7).collect();
            let encoded = encode(&neigh);
            let mut out = Vec::new();
            decode_into(&encoded, count, &mut out).unwrap();
            let streamed: Vec<u32> = GapDecoder::new(&encoded, count).collect();
            assert_eq!(out, neigh);
            assert_eq!(streamed, neigh);
        }
    }

    #[test]
    fn resuming_from_a_base_continues_the_neighborhood() {
        let neigh: Vec<u32> = (0..100u32).map(|i| i * i + 3).collect();
        let encoded = encode(&neigh);
        let mut head = [0u32; 37];
        let used = decode_run(&encoded, 0, &mut head).unwrap();
        let mut tail = [0u32; 63];
        let rest = decode_run(&encoded[used..], head[36], &mut tail).unwrap();
        assert_eq!(used + rest, encoded.len());
        assert_eq!([&head[..], &tail[..]].concat(), neigh);
    }

    #[test]
    fn bulk_decoder_shares_the_fifth_byte_rule() {
        // An overflowing fifth byte in the middle of a run, with
        // plenty of payload around it so the word path is active.
        let mut encoded = encode(&(1..=20).collect::<Vec<u32>>());
        let tail = encoded.split_off(10);
        encoded.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x70]);
        encoded.extend_from_slice(&tail);
        let mut out = [0u32; 21];
        assert_eq!(decode_run(&encoded, 0, &mut out), None);
        assert_eq!(scalar_run(&encoded, 0, 21), None);
    }

    /// The reference the bulk decoder must match: one
    /// [`varint::decode_u32`] and one checked add per gap.
    fn scalar_run(mut input: &[u8], base: u32, count: usize) -> Option<(Vec<u32>, usize)> {
        let len = input.len();
        let mut acc = base;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            acc = acc.checked_add(varint::decode_u32(&mut input)?)?;
            out.push(acc);
        }
        Some((out, len - input.len()))
    }

    fn bulk_run(input: &[u8], base: u32, count: usize) -> Option<(Vec<u32>, usize)> {
        let mut out = vec![0u32; count];
        let used = decode_run(input, base, &mut out)?;
        Some((out, used))
    }

    /// A gap whose varint is exactly `width` bytes long.
    fn gap_of_width(width: u32, raw: u32) -> u32 {
        let lo = if width == 1 {
            0
        } else {
            1u64 << (7 * (width - 1))
        };
        let hi = (1u64 << (7 * width).min(32)) - 1;
        (lo + u64::from(raw) % (hi - lo + 1)) as u32
    }

    /// Gap streams mixing every code width, weighted toward the 1- and
    /// 2-byte codes real payloads are made of; the rare 5-byte gaps
    /// also drive some runs past `u32::MAX`.
    fn gap_stream(counts: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec((0u32..100, 0u32..u32::MAX), counts).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(class, raw)| {
                    let width = match class {
                        0..45 => 1,
                        45..80 => 2,
                        80..92 => 3,
                        92..98 => 4,
                        _ => 5,
                    };
                    gap_of_width(width, raw)
                })
                .collect()
        })
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Counts 0..70 straddle every quad boundary; `extra` trailing
        // gaps put 0..=39 payload bytes behind the run, so both the
        // open-ended word path and the short-input scalar tail run.
        #[test]
        fn bulk_decoder_matches_the_scalar_loop(
            gaps in gap_stream(0..70),
            extra in gap_stream(0..8),
            base in 0u32..1000,
        ) {
            let mut encoded = varint::encode_slice(&gaps);
            let run_bytes = encoded.len();
            encoded.extend_from_slice(&varint::encode_slice(&extra));
            let expected = scalar_run(&encoded, base, gaps.len());
            prop_assert_eq!(bulk_run(&encoded, base, gaps.len()), expected.clone());
            if let Some((_, used)) = expected {
                prop_assert_eq!(used, run_bytes);
            }
        }

        // A stream cut anywhere inside the run is truncated for both.
        #[test]
        fn truncated_streams_fail_in_both_decoders(gaps in gap_stream(1..70), cut in 0usize..1000) {
            let encoded = varint::encode_slice(&gaps);
            let short = &encoded[..cut % encoded.len()];
            prop_assert_eq!(scalar_run(short, 0, gaps.len()), None);
            prop_assert_eq!(bulk_run(short, 0, gaps.len()), None);
        }
    }

    #[test]
    fn overflowing_prefix_sum_is_rejected() {
        // Two max-size gaps overflow u32 on the second add.
        let mut encoded = Vec::new();
        varint::encode_u32(u32::MAX, &mut encoded);
        varint::encode_u32(u32::MAX, &mut encoded);
        assert_eq!(decode(&encoded, 2), None);
    }
}
