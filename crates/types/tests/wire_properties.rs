//! Adversarial and property tests for the wire framing layer
//! (`docs/WIRE_PROTOCOL.md`), mirroring the trace store's
//! `store_properties.rs`: lossless round trips over arbitrary payloads
//! — pure codec and streaming reader alike — and typed, never
//! panicking, errors on every class of hostile bytes.

use proptest::prelude::*;

use stems_types::wire::{
    self, WireError, HELLO_BYTES, MAX_MESSAGE_PAYLOAD, MESSAGE_OVERHEAD, WIRE_VERSION,
};

/// A hello followed by three messages of distinct shapes (empty,
/// short, multi-hundred-byte) — the corruption target throughout.
fn valid_stream() -> Vec<u8> {
    let mut buf = Vec::new();
    wire::encode_hello(&mut buf);
    wire::encode_message(&mut buf, 0x01, b"");
    wire::encode_message(&mut buf, 0x02, b"short payload");
    let big: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
    wire::encode_message(&mut buf, 0x82, &big);
    buf
}

/// Drains a full byte stream through the transport-level reader,
/// returning the decoded `(kind, payload)` sequence.
fn read_all(bytes: &[u8]) -> Result<Vec<(u8, Vec<u8>)>, WireError> {
    let mut r = bytes;
    wire::read_hello(&mut r)?;
    let mut out = Vec::new();
    let mut payload = Vec::new();
    while let Some(kind) = wire::read_message(&mut r, &mut payload)? {
        out.push((kind, payload.clone()));
    }
    Ok(out)
}

proptest! {
    /// Any (kind, payload) sequence survives encode → decode untouched,
    /// through both the pure codec and the streaming reader, and the
    /// two agree with each other.
    #[test]
    fn messages_round_trip_any_payloads(
        frames in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..600)),
            0..8,
        ),
    ) {
        let mut buf = Vec::new();
        wire::encode_hello(&mut buf);
        let mut scratch = Vec::new();
        for (kind, payload) in &frames {
            wire::write_message(&mut buf, *kind, payload, &mut scratch).unwrap();
        }

        // Streaming reader.
        let decoded = read_all(&buf).unwrap();
        prop_assert_eq!(decoded.len(), frames.len());
        for ((k, p), (ek, ep)) in decoded.iter().zip(&frames) {
            prop_assert_eq!(k, ek);
            prop_assert_eq!(p, ep);
        }

        // Pure codec over the same bytes.
        let mut pos = wire::decode_hello(&buf).unwrap();
        for (ek, ep) in &frames {
            let (k, p, n) = wire::decode_message(&buf[pos..]).unwrap();
            prop_assert_eq!(&k, ek);
            prop_assert_eq!(p, ep.as_slice());
            prop_assert_eq!(n, MESSAGE_OVERHEAD + ep.len());
            pos += n;
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// Truncating a valid stream anywhere yields `Truncated` — or a
    /// clean shorter stream when the cut lands exactly between frames.
    /// Never a panic, never a partially-delivered message.
    #[test]
    fn truncation_is_always_detected_or_clean(cut in 0usize..2000) {
        let bytes = valid_stream();
        let cut = cut % bytes.len();
        match read_all(&bytes[..cut]) {
            Ok(msgs) => {
                // Only frame boundaries at or past the hello read clean.
                prop_assert!(cut >= HELLO_BYTES);
                let mut boundary = HELLO_BYTES;
                for (_, p) in &msgs {
                    boundary += MESSAGE_OVERHEAD + p.len();
                }
                prop_assert_eq!(boundary, cut, "clean read must end on a frame boundary");
            }
            Err(WireError::Truncated { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// Flipping any single bit anywhere in a valid stream produces a
    /// typed error — the message CRC covers the header bytes too, so
    /// unlike the trace store there is no undecoded region where a flip
    /// can hide. Never a panic.
    #[test]
    fn single_bit_flips_are_always_typed_errors(pos in 0usize..2000, bit in 0u32..8) {
        let mut bytes = valid_stream();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match read_all(&bytes) {
            Err(
                WireError::BadMagic { .. }
                | WireError::UnsupportedVersion { .. }
                | WireError::UnsupportedFlags { .. }
                | WireError::ChecksumMismatch { .. }
                | WireError::Oversized { .. }
                | WireError::Truncated { .. },
            ) => {}
            Ok(_) => prop_assert!(false, "flip at byte {pos} bit {bit} went undetected"),
            Err(other) => prop_assert!(false, "unexpected error class: {other}"),
        }
    }

    /// Completely random bytes never panic either reader; whatever they
    /// decode as, the total consumed never exceeds the input.
    #[test]
    fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = read_all(&bytes);
        let _ = wire::decode_hello(&bytes);
        if let Ok((_, payload, n)) = wire::decode_message(&bytes) {
            prop_assert!(n <= bytes.len());
            prop_assert!(payload.len() <= n);
        }
    }
}

#[test]
fn hostile_length_prefix_cannot_force_a_huge_allocation() {
    // A frame header declaring a payload over the bound is rejected from
    // the 5 header bytes alone — before any allocation of that size.
    let mut bytes = vec![0x01u8];
    bytes.extend_from_slice(&(MAX_MESSAGE_PAYLOAD + 1).to_le_bytes());
    assert!(matches!(
        wire::decode_message(&bytes),
        Err(WireError::Oversized { .. })
    ));
    let mut r = bytes.as_slice();
    let mut payload = Vec::new();
    assert!(matches!(
        wire::read_message(&mut r, &mut payload),
        Err(WireError::Oversized { .. })
    ));
    assert_eq!(
        payload.capacity(),
        0,
        "no payload allocation for a rejected length"
    );
}

#[test]
fn bad_hello_fields_are_typed_errors() {
    let mut ok = Vec::new();
    wire::encode_hello(&mut ok);

    let mut bad = ok.clone();
    bad[..8].copy_from_slice(b"STEMSTR1"); // trace-store magic, wrong layer
    assert!(matches!(
        read_all(&bad),
        Err(WireError::BadMagic { got }) if &got == b"STEMSTR1"
    ));

    // Version 1 (the generation with the unsequenced chunk) is refused
    // at the hello, and so is any version from the future.
    for version in [1, WIRE_VERSION + 1] {
        let mut bad = ok.clone();
        bad[8..10].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            read_all(&bad),
            Err(WireError::UnsupportedVersion { got }) if got == version
        ));
    }

    let mut bad = ok.clone();
    bad[10..12].copy_from_slice(&0x8000u16.to_le_bytes());
    assert!(matches!(
        read_all(&bad),
        Err(WireError::UnsupportedFlags { got: 0x8000 })
    ));
}
