//! A UTF-8-style variable-length integer codec.
//!
//! The Vector labelling scheme (\[27\] in the paper) claims to avoid the
//! overflow problem "by using UTF-8 encoding to process delimiters". The
//! paper (§4) points out that a single 4-byte UTF-8 unit tops out at 2²¹
//! values and questions how larger components are handled. This codec
//! reproduces both sides of that argument: values below 2²¹ use the real
//! UTF-8 length schedule (1–4 bytes), and larger values switch to an
//! *extension* schedule (continuation bytes carrying 7 bits each) whose
//! use is observable via [`exceeds_utf8`] — the framework's overflow
//! checker reports when a workload pushes Vector labels past the paper's
//! questioned boundary.

/// Number of bytes the UTF-8 length schedule needs for `v`, or `None` when
/// `v` exceeds the 4-byte UTF-8 payload capacity of 21 bits.
pub fn utf8_len(v: u64) -> Option<u32> {
    match v {
        0..=0x7F => Some(1),
        0x80..=0x7FF => Some(2),
        0x800..=0xFFFF => Some(3),
        0x1_0000..=0x1F_FFFF => Some(4),
        _ => None,
    }
}

/// Does `v` exceed what a single UTF-8 unit can carry (the 2²¹ boundary
/// the paper questions)?
pub fn exceeds_utf8(v: u64) -> bool {
    utf8_len(v).is_none()
}

/// Encoded size in bytes: the UTF-8 schedule below 2²¹, and a
/// 7-bits-per-byte continuation schedule above it.
pub fn encoded_len(v: u64) -> u32 {
    if let Some(n) = utf8_len(v) {
        return n;
    }
    // LEB128-style extension: ceil(bits/7) bytes.
    let bits = 64 - v.leading_zeros();
    bits.div_ceil(7)
}

/// Encode `v` with the extension schedule (LEB128) into a
/// [`SmallBuf`](crate::smallbuf::SmallBuf) (any u64 needs ≤ 10 bytes,
/// so encoding alone never spills). Used by the storage model;
/// decodability is what matters for the self-delimiting claim.
pub fn encode(v: u64, out: &mut crate::smallbuf::SmallBuf) {
    let mut v = v;
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

/// Decode a value encoded by [`encode`], returning the value and the
/// number of bytes consumed; `None` on truncated input.
pub fn decode(input: &[u8]) -> Option<(u64, usize)> {
    let mut v: u64 = 0;
    for (i, &b) in input.iter().enumerate() {
        if i >= 10 {
            return None; // malformed: longer than any u64 encoding
        }
        v |= u64::from(b & 0x7F) << (7 * i as u32);
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallbuf::SmallBuf;

    #[test]
    fn utf8_schedule_boundaries() {
        assert_eq!(utf8_len(0), Some(1));
        assert_eq!(utf8_len(0x7F), Some(1));
        assert_eq!(utf8_len(0x80), Some(2));
        assert_eq!(utf8_len(0x7FF), Some(2));
        assert_eq!(utf8_len(0x800), Some(3));
        assert_eq!(utf8_len(0xFFFF), Some(3));
        assert_eq!(utf8_len(0x1_0000), Some(4));
        assert_eq!(utf8_len(0x1F_FFFF), Some(4));
        assert_eq!(utf8_len(0x20_0000), None);
    }

    #[test]
    fn the_papers_two_to_twenty_one_question() {
        assert!(!exceeds_utf8((1 << 21) - 1));
        assert!(exceeds_utf8(1 << 21));
    }

    #[test]
    fn encoded_len_monotone_nondecreasing() {
        let mut prev = 0;
        for shift in 0..64 {
            let v = 1u64 << shift;
            let n = encoded_len(v);
            assert!(n >= prev, "len({v}) = {n} < {prev}");
            prev = n;
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
            u64::MAX,
        ] {
            let mut buf = SmallBuf::new();
            encode(v, &mut buf);
            let (back, used) = decode(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        let mut buf = SmallBuf::new();
        encode(u64::MAX, &mut buf);
        buf.pop();
        assert!(decode(&buf).is_none());
        assert!(decode(&[]).is_none());
    }

    #[test]
    fn decode_is_self_delimiting_in_a_stream() {
        let mut buf = SmallBuf::new();
        encode(5, &mut buf);
        encode(1 << 30, &mut buf);
        encode(0, &mut buf);
        let (a, n1) = decode(&buf).unwrap();
        let (b, n2) = decode(&buf[n1..]).unwrap();
        let (c, n3) = decode(&buf[n1 + n2..]).unwrap();
        assert_eq!((a, b, c), (5, 1 << 30, 0));
        assert_eq!(n1 + n2 + n3, buf.len());
    }
}
