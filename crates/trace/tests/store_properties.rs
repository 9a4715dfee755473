//! Adversarial and property tests for the chunked trace store
//! (`docs/TRACE_FORMAT.md`): lossless round trips over arbitrary
//! records and frame geometries, and typed — never panicking — errors
//! on every class of damaged input.

use proptest::prelude::*;

use stems_trace::store::{
    write_store, DEFAULT_FRAME_RECORDS, HEADER_BYTES, STORE_MAGIC, STORE_VERSION,
};
use stems_trace::{
    Access, AccessKind, Dependence, Trace, TraceReader, TraceStoreError, TraceWriter,
};
use stems_types::{Addr, Pc};

fn access(pc: u64, addr: u64, write: bool, dep: bool, work: u16) -> Access {
    Access {
        pc: Pc::new(pc),
        addr: Addr::new(addr),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        dep: if dep {
            Dependence::OnPrevAccess
        } else {
            Dependence::Independent
        },
        work_before: work,
    }
}

/// A small valid store (3 frames of 5 records) used as the corruption
/// target throughout.
fn valid_store() -> Vec<u8> {
    let trace: Trace = (0..15u64)
        .map(|i| access(0x400 + i * 4, i * 64, i % 3 == 0, i % 5 == 0, i as u16))
        .collect();
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf)
        .expect("header write")
        .with_frame_capacity(5);
    w.write_accesses(trace.as_slice()).unwrap();
    w.finish().unwrap();
    drop(w);
    buf
}

fn read_all(bytes: &[u8]) -> Result<Trace, TraceStoreError> {
    TraceReader::new(bytes)?.read_to_trace()
}

proptest! {
    /// Any sequence of records survives persist → stream untouched, for
    /// any frame capacity, and no streamed chunk ever exceeds that
    /// capacity (the O(chunk) memory bound).
    #[test]
    fn store_round_trips_any_records_and_frame_capacity(
        records in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>(), any::<u16>()),
            0..300,
        ),
        capacity in 1usize..64,
    ) {
        let trace: Trace = records
            .iter()
            .map(|&(pc, addr, w, d, work)| access(pc, addr, w, d, work))
            .collect();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap().with_frame_capacity(capacity);
        w.write_accesses(trace.as_slice()).unwrap();
        let summary = w.finish().unwrap();
        drop(w);
        prop_assert_eq!(summary.records, trace.len() as u64);

        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut replayed = Trace::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            prop_assert!(chunk.len() <= capacity, "chunk exceeds frame capacity");
            replayed.extend(chunk.iter().copied());
        }
        prop_assert_eq!(replayed, trace);
        prop_assert_eq!(reader.frames_read(), summary.frames);
        prop_assert_eq!(reader.records_read(), summary.records);
    }

    /// Truncating a valid store anywhere mid-frame yields `Truncated`;
    /// cutting exactly at a frame boundary is a clean (shorter) stream.
    /// Never a panic, never garbage records.
    #[test]
    fn truncation_is_always_detected_or_clean(cut in 0usize..1000) {
        let bytes = valid_store();
        let cut = cut % bytes.len();
        let result = read_all(&bytes[..cut]);
        match result {
            Ok(trace) => {
                // Only frame boundaries (and the bare header) read clean,
                // and then only whole frames' worth of records survive.
                prop_assert!(cut >= HEADER_BYTES);
                prop_assert_eq!(trace.len() % 5, 0);
            }
            Err(TraceStoreError::Truncated { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// Flipping any single byte of a valid store produces a typed error
    /// or (for cuts inside undecoded regions) a successful read of
    /// unaffected frames — never a panic. This is the blanket
    /// hostile-bytes guarantee behind every narrower test below.
    #[test]
    fn single_byte_flips_never_panic(pos in 0usize..1000, bit in 0u32..8) {
        let mut bytes = valid_store();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let _ = read_all(&bytes); // Ok or Err both acceptable; no panic.
    }
}

#[test]
fn bad_magic_is_reported_with_found_bytes() {
    let mut bytes = valid_store();
    bytes[0] = b'X';
    match read_all(&bytes) {
        Err(TraceStoreError::BadMagic { found }) => {
            assert_eq!(&found[1..], &STORE_MAGIC[1..]);
            assert_eq!(found[0], b'X');
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unsupported_version_is_rejected() {
    let mut bytes = valid_store();
    bytes[8..10].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
    match read_all(&bytes) {
        Err(TraceStoreError::UnsupportedVersion { found }) => {
            assert_eq!(found, STORE_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn unknown_feature_flags_are_rejected() {
    let mut bytes = valid_store();
    bytes[10..12].copy_from_slice(&0x0004u16.to_le_bytes());
    match read_all(&bytes) {
        Err(TraceStoreError::UnsupportedFlags { flags }) => assert_eq!(flags, 4),
        other => panic!("expected UnsupportedFlags, got {other:?}"),
    }
}

#[test]
fn file_shorter_than_the_header_is_truncated_at_zero() {
    for len in 0..HEADER_BYTES {
        match read_all(&valid_store()[..len]) {
            Err(TraceStoreError::Truncated { frame_offset: 0 }) => {}
            other => panic!("len {len}: expected Truncated at 0, got {other:?}"),
        }
    }
}

#[test]
fn payload_corruption_fails_the_checksum_with_both_values() {
    let mut bytes = valid_store();
    // First frame's payload starts after the file header + frame header.
    let target = HEADER_BYTES + 8 + 2;
    bytes[target] ^= 0xFF;
    match read_all(&bytes) {
        Err(TraceStoreError::ChecksumMismatch {
            frame,
            stored,
            computed,
        }) => {
            assert_eq!(frame, 0);
            assert_ne!(stored, computed);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn checksum_corruption_reports_the_frame_index() {
    let full = valid_store();
    // Corrupt the *second* frame's checksum: flip the last byte of the
    // second frame (frames are identical in size here).
    let frame_len = (full.len() - HEADER_BYTES) / 3;
    let mut bytes = full;
    let pos = HEADER_BYTES + 2 * frame_len - 1;
    bytes[pos] ^= 0x01;
    match read_all(&bytes) {
        Err(TraceStoreError::ChecksumMismatch { frame, .. }) => assert_eq!(frame, 1),
        other => panic!("expected ChecksumMismatch on frame 1, got {other:?}"),
    }
}

#[test]
fn zero_record_frame_is_corrupt_not_a_loop() {
    let mut bytes = valid_store();
    // Zero the first frame's record count; keep everything else.
    bytes[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&0u32.to_le_bytes());
    match read_all(&bytes) {
        Err(TraceStoreError::Corrupt { frame: 0, .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn oversized_declared_payload_is_corrupt_without_allocation() {
    let mut bytes = valid_store();
    bytes[HEADER_BYTES + 4..HEADER_BYTES + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    match read_all(&bytes) {
        Err(TraceStoreError::Corrupt { frame: 0, reason }) => {
            assert!(reason.contains("payload"), "reason: {reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn partial_chunks_before_the_damage_are_still_delivered() {
    // Streaming must hand over frames 0 and 1 before failing on frame 2:
    // a replay consumer sees good data up to the corruption point.
    let full = valid_store();
    let frame_len = (full.len() - HEADER_BYTES) / 3;
    let mut bytes = full;
    let last_payload = HEADER_BYTES + 2 * frame_len + 8 + 1;
    bytes[last_payload] ^= 0x80;
    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    assert_eq!(reader.next_chunk().unwrap().unwrap().len(), 5);
    assert_eq!(reader.next_chunk().unwrap().unwrap().len(), 5);
    assert!(matches!(
        reader.next_chunk(),
        Err(TraceStoreError::ChecksumMismatch { frame: 2, .. })
    ));
}

#[test]
fn empty_store_reads_back_empty() {
    let mut buf = Vec::new();
    let summary = write_store(&mut buf, &Trace::new()).unwrap();
    assert_eq!(summary.frames, 0);
    assert_eq!(summary.records, 0);
    assert_eq!(buf.len(), HEADER_BYTES);
    assert!(read_all(&buf).unwrap().is_empty());
}

#[test]
fn worked_example_in_trace_format_md_is_byte_accurate() {
    // The spec's worked example, byte for byte. If this fails, either
    // the encoder changed (bump STORE_VERSION) or the doc has a bug.
    let mut trace = Trace::new();
    trace.read(0x400, 0x1000);
    trace.read(0x404, 0x1040);
    let mut buf = Vec::new();
    write_store(&mut buf, &trace).unwrap();
    #[rustfmt::skip]
    let expected: &[u8] = &[
        b'S', b'T', b'E', b'M', b'S', b'T', b'R', b'C',
        0x01, 0x00,             // version 1
        0x00, 0x00,             // flags 0
        0x02, 0x00, 0x00, 0x00, // count = 2
        0x0a, 0x00, 0x00, 0x00, // payload_len = 10
        0x80, 0x10, 0x08,       // pc deltas
        0x80, 0x40, 0x80, 0x01, // addr deltas
        0x00,                   // flags column
        0x00, 0x00,             // work column
        0xda, 0x0f, 0xbe, 0xf4, // CRC-32
    ];
    assert_eq!(buf, expected);
}

#[test]
fn default_frame_capacity_is_the_documented_constant() {
    // TRACE_FORMAT.md quotes this; keep the doc honest.
    assert_eq!(DEFAULT_FRAME_RECORDS, 1 << 15);
}
