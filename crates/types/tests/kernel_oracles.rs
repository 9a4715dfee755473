//! Differential tests for the word-at-a-time codec kernels: slicing-by-8
//! CRC-32 and the 8-byte-load LEB128 reader, each pinned against the
//! byte-at-a-time code it replaced. The oracles live only here; the
//! library ships the fast kernels alone.

use proptest::prelude::*;

use stems_types::crc::{crc32, Crc32};
use stems_types::varint::{self, MAX_VARINT_BYTES};

/// The bytewise table-driven CRC-32 the slicing-by-8 kernel replaced.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *slot = crc;
    }
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The byte-at-a-time LEB128 reader the word-at-a-time one replaced.
fn read_u64_bytewise(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    for (i, &byte) in bytes.iter().enumerate().take(MAX_VARINT_BYTES) {
        let payload = (byte & 0x7F) as u64;
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

/// Deterministic filler bytes (SplitMix64).
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = TestRng::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// An encoding of exactly `len` bytes (1..=10) whose 7-bit groups come
/// from `groups`: continuation bits set on all but the last byte. Zero
/// high groups make it non-minimal.
fn encoding(len: usize, groups: u64, last: u8) -> Vec<u8> {
    let mut out: Vec<u8> = (0..len - 1)
        .map(|i| ((groups >> (7 * (i % 9))) as u8 & 0x7F) | 0x80)
        .collect();
    out.push(last & 0x7F);
    out
}

#[test]
fn crc_check_value_and_every_length_up_to_64() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    let data = bytes(1, 64);
    for len in 0..=data.len() {
        assert_eq!(
            crc32(&data[..len]),
            crc32_bytewise(&data[..len]),
            "len {len}"
        );
    }
}

#[test]
fn varint_reads_match_at_every_encoded_length() {
    // Every length 1..=10, with the last byte's payload at each boundary
    // value (0 makes lengths >= 2 non-minimal; 1 and 0x7F probe the 10th
    // byte rule), exactly at the buffer end and followed by filler that
    // must not be read.
    for len in 1..=MAX_VARINT_BYTES {
        for last in [0u8, 1, 2, 0x40, 0x7F] {
            for groups in [0u64, 0x7F, 0x0123_4567_89AB_CDEF, u64::MAX] {
                let enc = encoding(len, groups, last);
                for tail in [0usize, 1, 7, 8, 16] {
                    let mut buf = enc.clone();
                    buf.extend(bytes(len as u64 * 31 + tail as u64, tail));
                    assert_eq!(
                        varint::read_u64(&buf),
                        read_u64_bytewise(&buf),
                        "{buf:02x?}"
                    );
                }
            }
        }
    }
}

#[test]
fn varint_reads_reject_truncation_and_overlong_runs() {
    for run in 0..=16 {
        let mut buf = vec![0x80u8; run];
        assert_eq!(varint::read_u64(&buf), None, "{run} continuation bytes");
        assert_eq!(read_u64_bytewise(&buf), None);
        buf.push(0x00);
        assert_eq!(
            varint::read_u64(&buf),
            read_u64_bytewise(&buf),
            "{buf:02x?}"
        );
        if run >= MAX_VARINT_BYTES {
            assert_eq!(varint::read_u64(&buf), None);
        }
    }
    // Every prefix of a full 10-byte encoding is a truncation.
    let mut max = [0xFFu8; MAX_VARINT_BYTES];
    max[MAX_VARINT_BYTES - 1] = 0x01;
    for cut in 0..MAX_VARINT_BYTES {
        assert_eq!(varint::read_u64(&max[..cut]), None, "cut at {cut}");
    }
    assert_eq!(varint::read_u64(&max), Some((u64::MAX, MAX_VARINT_BYTES)));
}

#[test]
fn varint_round_trips_through_both_readers() {
    let mut buf = Vec::new();
    for shift in 0..64 {
        for delta in [-1i64, 0, 1] {
            let v = (1u64 << shift).wrapping_add(delta as u64);
            buf.clear();
            varint::write_u64(&mut buf, v);
            let n = buf.len();
            buf.extend_from_slice(&[0xAA; 9]);
            assert_eq!(varint::read_u64(&buf), Some((v, n)));
            assert_eq!(varint::read_u64(&buf[..n]), Some((v, n)));
            assert_eq!(read_u64_bytewise(&buf), Some((v, n)));
        }
    }
}

proptest! {
    /// Any bytes, any length, folded through `update` in up to four
    /// arbitrary pieces: the same checksum as the bytewise oracle.
    #[test]
    fn crc_matches_the_bytewise_oracle_under_any_split(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let expect = crc32_bytewise(&data);
        prop_assert_eq!(crc32(&data), expect);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Crc32::new();
        let mut from = 0;
        for cut in cuts {
            h.update(&data[from..cut]);
            from = cut;
        }
        h.update(&data[from..]);
        prop_assert_eq!(h.finish(), expect);
    }

    /// Arbitrary bytes read as a varint at every offset: the same value
    /// and length, or the same rejection, as the bytewise oracle.
    #[test]
    fn varint_matches_the_bytewise_oracle_on_any_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..40),
        high in 0u8..8,
    ) {
        // Bias toward long continuation runs: set the high bit on a
        // prefix of the bytes.
        let mut data = data;
        let run = (high as usize * 2).min(data.len());
        for b in &mut data[..run] {
            *b |= 0x80;
        }
        for start in 0..=data.len() {
            prop_assert_eq!(
                varint::read_u64(&data[start..]),
                read_u64_bytewise(&data[start..])
            );
        }
    }
}
