//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! The persistent trace store (`stems-trace::store`) encodes per-chunk
//! columns as delta streams of varints, and the wire protocol of the
//! trace-streaming service (`stems_core::protocol`) uses the same
//! primitives for its message fields, so they live here in the leaf
//! crate rather than inside the store.
//!
//! Encoding is unsigned LEB128: seven payload bits per byte, low bits
//! first, high bit of each byte set while more bytes follow. A `u64`
//! therefore takes 1–10 bytes. Signed values go through the zigzag
//! mapping first so small-magnitude deltas of either sign stay short.
//!
//! # Example
//!
//! ```
//! use stems_types::varint;
//!
//! let mut buf = Vec::new();
//! varint::write_u64(&mut buf, 300);
//! varint::write_i64(&mut buf, -2);
//! let (a, n) = varint::read_u64(&buf).unwrap();
//! assert_eq!((a, n), (300, 2));
//! let (b, m) = varint::read_i64(&buf[n..]).unwrap();
//! assert_eq!((b, m), (-2, 1));
//! ```

/// Longest possible LEB128 encoding of a `u64` (ceil(64 / 7) bytes).
pub const MAX_VARINT_BYTES: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends the zigzag-LEB128 encoding of `value` to `out`.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, zigzag(value));
}

/// Decodes one LEB128 `u64` from the front of `bytes`, returning the
/// value and the number of bytes consumed.
///
/// Returns `None` when `bytes` ends inside the varint, when the
/// encoding runs past [`MAX_VARINT_BYTES`], or when the final byte
/// carries bits beyond the 64th — all three are data corruption for a
/// stream that was written by [`write_u64`].
///
/// With at least eight bytes available, an encoding of 1–8 bytes is
/// decoded from one little-endian 8-byte load: the first byte with its
/// high bit clear ends it, and three shift-and-mask steps pack its 7-bit
/// groups. Longer encodings and buffer tails take the byte loop.
#[inline]
pub fn read_u64(bytes: &[u8]) -> Option<(u64, usize)> {
    if let Some(word) = bytes.first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        let stops = !word & 0x8080_8080_8080_8080;
        if stops != 0 {
            // Bits up to and including the first stop bit: the varint's bytes.
            let mut x = word & (stops ^ (stops - 1)) & 0x7F7F_7F7F_7F7F_7F7F;
            x = (x & 0x007F_007F_007F_007F) | ((x & 0x7F00_7F00_7F00_7F00) >> 1);
            x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
            x = (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4);
            return Some((x, stops.trailing_zeros() as usize / 8 + 1));
        }
    }
    read_u64_bytewise(bytes)
}

fn read_u64_bytewise(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    for (i, &byte) in bytes.iter().enumerate().take(MAX_VARINT_BYTES) {
        let payload = (byte & 0x7F) as u64;
        // The 10th byte may only contribute the single remaining bit.
        if i == MAX_VARINT_BYTES - 1 && payload > 1 {
            return None;
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
    }
    None
}

/// Decodes one zigzag-LEB128 `i64` from the front of `bytes` (see
/// [`read_u64`] for the error conditions).
#[inline]
pub fn read_i64(bytes: &[u8]) -> Option<(i64, usize)> {
    let (raw, n) = read_u64(bytes)?;
    Some((unzigzag(raw), n))
}

/// Maps a signed value to an unsigned one with small absolute values
/// staying small: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
pub fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 0);
        assert_eq!(buf, [0x00]);
        buf.clear();
        write_u64(&mut buf, 127);
        assert_eq!(buf, [0x7F]);
        buf.clear();
        write_u64(&mut buf, 128);
        assert_eq!(buf, [0x80, 0x01]);
        buf.clear();
        write_u64(&mut buf, 300);
        assert_eq!(buf, [0xAC, 0x02]);
        buf.clear();
        write_u64(&mut buf, u64::MAX);
        assert_eq!(buf.len(), MAX_VARINT_BYTES);
    }

    #[test]
    fn round_trips_across_magnitudes() {
        let mut buf = Vec::new();
        for shift in 0..64 {
            for delta in [-1i64, 0, 1] {
                let v = (1u64 << shift).wrapping_add(delta as u64);
                buf.clear();
                write_u64(&mut buf, v);
                assert_eq!(read_u64(&buf), Some((v, buf.len())), "u64 {v:#x}");
                let s = v as i64;
                buf.clear();
                write_i64(&mut buf, s);
                assert_eq!(read_i64(&buf), Some((s, buf.len())), "i64 {s}");
            }
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_short() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [i64::MIN, i64::MAX, -12345, 12345] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        write_i64(&mut buf, -3);
        assert_eq!(buf.len(), 1, "small negative deltas stay one byte");
    }

    #[test]
    fn truncated_and_overlong_inputs_are_rejected() {
        // Continuation bit set on the final available byte.
        assert_eq!(read_u64(&[0x80]), None);
        assert_eq!(read_u64(&[]), None);
        // 11 continuation bytes: longer than any valid u64 encoding.
        assert_eq!(read_u64(&[0x80; 11]), None);
        // 10th byte carrying more than the single remaining bit.
        let mut overflowing = [0x80u8; 10];
        overflowing[9] = 0x02;
        assert_eq!(read_u64(&overflowing), None);
        // The canonical-maximum encoding still decodes.
        let mut max = [0xFFu8; 10];
        max[9] = 0x01;
        assert_eq!(read_u64(&max), Some((u64::MAX, 10)));
    }
}
