//! Variable-length integer (Varint) encoding — one of the
//! fine-grained element encodings in the paper's storage taxonomy
//! (Figure 3, §B.2). Small values take 1 byte, each byte carries 7
//! payload bits and a continuation flag.

use bytes::Buf;

/// Appends `value` to `out` in LEB128 varint form.
#[inline]
pub fn encode_u32(value: u32, out: &mut Vec<u8>) {
    let mut v = value;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one varint from the front of `input`, advancing it.
/// Returns `None` on truncated or over-long input: a `u32` takes at
/// most five bytes, and the fifth carries only the top four payload
/// bits — a larger fifth byte (or a continuation flag on it) would
/// shift bits out of the value, so it is refused, never truncated.
#[inline]
pub fn decode_u32(input: &mut &[u8]) -> Option<u32> {
    let mut value: u32 = 0;
    let mut shift = 0;
    while input.has_remaining() {
        let byte = input.get_u8();
        if shift == 28 && byte > 0x0F {
            return None; // over-long or overflowing encoding
        }
        value |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
    None
}

/// Encodes a whole slice.
pub fn encode_slice(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    for &v in values {
        encode_u32(v, &mut out);
    }
    out
}

/// Decodes `count` varints.
pub fn decode_slice(mut input: &[u8], count: usize) -> Option<Vec<u32>> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_u32(&mut input)?);
    }
    Some(out)
}

/// Bytes a varint encoding of `value` occupies.
#[inline]
pub fn encoded_len(value: u32) -> usize {
    match value {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0x0FFF_FFFF => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            encode_u32(v, &mut buf);
            assert_eq!(buf.len(), encoded_len(v));
            let mut slice = buf.as_slice();
            assert_eq!(decode_u32(&mut slice), Some(v));
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn slice_roundtrip() {
        let values: Vec<u32> = (0..1000).map(|i| i * 37).collect();
        let encoded = encode_slice(&values);
        assert_eq!(decode_slice(&encoded, values.len()), Some(values));
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut buf = Vec::new();
        encode_u32(300, &mut buf); // 2 bytes
        let mut short = &buf[..1];
        assert_eq!(decode_u32(&mut short), None);
    }

    #[test]
    fn overlong_input_is_rejected() {
        let bytes = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x01];
        let mut slice = bytes.as_slice();
        assert_eq!(decode_u32(&mut slice), None);
    }

    #[test]
    fn overflowing_fifth_byte_is_rejected() {
        // The fifth byte holds bits 28..32 only: anything above 0x0F
        // used to decode with its high bits silently shifted out.
        for bytes in [
            [0xFFu8, 0xFF, 0xFF, 0xFF, 0x7F],
            [0x81, 0x80, 0x80, 0x80, 0x70],
            [0x80, 0x80, 0x80, 0x80, 0x10],
        ] {
            assert_eq!(decode_u32(&mut bytes.as_slice()), None, "{bytes:02x?}");
        }
        let max = [0xFFu8, 0xFF, 0xFF, 0xFF, 0x0F];
        assert_eq!(decode_u32(&mut max.as_slice()), Some(u32::MAX));
    }
}
