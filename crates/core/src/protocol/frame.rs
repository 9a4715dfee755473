//! The two byte-level constructs every connection uses: the connection
//! **hello** and the length-prefixed **message frame**.
//!
//! A peer either receives the exact bytes that were sent or gets a
//! typed [`WireError`], never a panic and never silent corruption. The
//! full byte-level spec is `docs/WIRE_PROTOCOL.md`.
//!
//! # Frame shapes
//!
//! The hello is exchanged once per connection, client first:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "STEMSWIR"
//! 8       2     version (u16 LE) — reject-unknown
//! 10      2     flags   (u16 LE) — reject-unknown (must be 0)
//! ```
//!
//! Every subsequent message is:
//!
//! ```text
//! offset  size  field
//! 0       1     kind (u8, protocol-defined)
//! 1       4     payload_len (u32 LE, <= MAX_MESSAGE_PAYLOAD)
//! 5       len   payload
//! 5+len   4     CRC-32 (u32 LE) over bytes [0, 5+len) — header AND payload
//! ```
//!
//! Unlike the trace store (whose CRC covers the payload only), the
//! message CRC covers the kind and length bytes too, so *any*
//! single-byte corruption anywhere in a frame is detected as
//! [`WireError::ChecksumMismatch`] rather than surfacing as a different
//! — possibly valid — message.
//!
//! # Example
//!
//! ```
//! use stems_core::protocol::{read_hello, write_hello, Request, WireError, HELLO_BYTES};
//!
//! let mut buf = Vec::new();
//! write_hello(&mut buf).unwrap();
//! assert_eq!(buf.len(), HELLO_BYTES);
//! Request::Close { session: 7 }.encode(&mut buf, &mut Vec::new());
//!
//! let (mut frame, mut records) = (Vec::new(), Vec::new());
//! let mut r = buf.as_slice();
//! read_hello(&mut r).unwrap();
//! let back = Request::read_from(&mut r, &mut frame, &mut records).unwrap();
//! assert!(matches!(back, Some(Request::Close { session: 7 })));
//!
//! buf[HELLO_BYTES + 5] ^= 1; // the first payload byte
//! let err = Request::read_from(&mut &buf[HELLO_BYTES..], &mut frame, &mut records);
//! assert!(matches!(err, Err(WireError::ChecksumMismatch { .. })));
//! ```

use std::fmt;
use std::io::{Read, Write};
use stems_trace::store::{fill, Fill};
use stems_types::crc::crc32;

/// Magic bytes opening every connection.
const WIRE_MAGIC: [u8; 8] = *b"STEMSWIR";
/// Current (and only) protocol version. Version 2 retired the
/// unsequenced chunk kind of version 1 (`docs/WIRE_PROTOCOL.md`).
const WIRE_VERSION: u16 = 2;
/// Size of the hello: magic + version + flags.
pub const HELLO_BYTES: usize = 12;
/// Size of a message header: kind + payload length.
const MESSAGE_HEADER_BYTES: usize = 5;
/// Fixed per-message overhead: header + trailing CRC.
const MESSAGE_OVERHEAD: usize = MESSAGE_HEADER_BYTES + 4;
/// Upper bound on a message payload (64 MiB — matches the trace store's
/// frame bound). A hostile length prefix can make a peer allocate at
/// most this much.
const MAX_MESSAGE_PAYLOAD: u32 = 1 << 26;

/// Everything that can go wrong while framing or unframing bytes.
///
/// Every variant is a *typed* rejection of hostile or truncated input —
/// the decoding paths never panic and never return partially-decoded
/// data.
#[derive(Debug)]
pub enum WireError {
    /// The hello did not start with the magic `STEMSWIR`.
    BadMagic {
        /// The eight bytes actually read.
        got: [u8; 8],
    },
    /// The hello carried a version this implementation does not speak.
    UnsupportedVersion {
        /// The version actually read.
        got: u16,
    },
    /// The hello carried flag bits this implementation does not know.
    UnsupportedFlags {
        /// The flags actually read.
        got: u16,
    },
    /// The stream ended inside a hello or message.
    Truncated {
        /// Which construct was being read.
        context: &'static str,
    },
    /// A message declared a payload longer than `MAX_MESSAGE_PAYLOAD`
    /// (64 MiB).
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The message CRC did not match the received bytes.
    ChecksumMismatch {
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// A structurally valid frame carried a kind byte no message uses.
    UnknownKind {
        /// The kind byte actually read.
        kind: u8,
    },
    /// A structurally valid frame carried a payload its message kind
    /// could not decode.
    Corrupt(&'static str),
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => {
                write!(f, "bad wire magic {:02x?} (expected \"STEMSWIR\")", got)
            }
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got} (speak {WIRE_VERSION})")
            }
            WireError::UnsupportedFlags { got } => {
                write!(f, "unsupported wire flags {got:#06x} (must be 0)")
            }
            WireError::Truncated { context } => {
                write!(f, "stream truncated inside {context}")
            }
            WireError::Oversized { len } => {
                write!(
                    f,
                    "message payload of {len} bytes exceeds the {MAX_MESSAGE_PAYLOAD}-byte bound"
                )
            }
            WireError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "message checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WireError::UnknownKind { kind } => write!(f, "unknown message kind {kind:#04x}"),
            WireError::Corrupt(what) => write!(f, "corrupt message payload: {what}"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl WireError {
    /// A short, stable, lowercase identifier for this error's variant —
    /// the `kind` label on the server's `stems_wire_errors_total`
    /// metric and the `wire_error` observability event. Stable across
    /// releases so dashboards keyed on it do not break.
    pub fn kind_name(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => "bad_magic",
            WireError::UnsupportedVersion { .. } => "unsupported_version",
            WireError::UnsupportedFlags { .. } => "unsupported_flags",
            WireError::Truncated { .. } => "truncated",
            WireError::Oversized { .. } => "oversized",
            WireError::ChecksumMismatch { .. } => "checksum_mismatch",
            WireError::UnknownKind { .. } => "unknown_kind",
            WireError::Corrupt(_) => "corrupt",
            WireError::Io(_) => "io",
        }
    }

    /// Whether a fresh connection could plausibly succeed where this
    /// error occurred — the retry classifier used by the client's
    /// fault-tolerance layer (`docs/FAULT_TOLERANCE.md`).
    ///
    /// Transport damage (`Io`, `Truncated`, `ChecksumMismatch`, and
    /// `Oversized` — the length prefix is consulted *before* the
    /// checksum can vouch for it, so a flipped length bit surfaces
    /// here) is transient: the bytes were hurt in flight, not wrong at
    /// the source. Everything else (`BadMagic`, version/flags mismatch,
    /// `UnknownKind`, `Corrupt`) means the *peer* speaks a different
    /// protocol or sent garbage that checksummed clean — reconnecting
    /// to the same peer reproduces it.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            WireError::Io(_)
                | WireError::Truncated { .. }
                | WireError::ChecksumMismatch { .. }
                | WireError::Oversized { .. }
        )
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Appends the 12-byte hello to `out`.
fn encode_hello(out: &mut Vec<u8>) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
}

/// Validates a hello at the front of `bytes`, returning the number of
/// bytes consumed ([`HELLO_BYTES`]).
fn decode_hello(bytes: &[u8]) -> Result<usize, WireError> {
    if bytes.len() < HELLO_BYTES {
        return Err(WireError::Truncated { context: "hello" });
    }
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&bytes[..8]);
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { got: version });
    }
    let flags = u16::from_le_bytes([bytes[10], bytes[11]]);
    if flags != 0 {
        return Err(WireError::UnsupportedFlags { got: flags });
    }
    Ok(HELLO_BYTES)
}

/// Appends one framed message (`kind` + `payload`) to `out`.
///
/// # Panics
///
/// If `payload` exceeds `MAX_MESSAGE_PAYLOAD` — callers build payloads
/// and are expected to chunk below the bound.
pub(super) fn encode_message(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_MESSAGE_PAYLOAD as usize,
        "message payload of {} bytes exceeds the wire bound",
        payload.len()
    );
    let start = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The payload length a message header declares, refused past
/// `MAX_MESSAGE_PAYLOAD` before anything is allocated for it.
fn payload_len(header: &[u8]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    if len > MAX_MESSAGE_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    Ok(len as usize)
}

/// Decodes one framed message from the front of `bytes`.
///
/// Returns `(kind, payload, total_bytes_consumed)`. The payload slice
/// borrows from `bytes`; the CRC has already been verified over the
/// header and payload.
pub(super) fn decode_message(bytes: &[u8]) -> Result<(u8, &[u8], usize), WireError> {
    if bytes.len() < MESSAGE_HEADER_BYTES {
        return Err(WireError::Truncated {
            context: "message header",
        });
    }
    let len = payload_len(bytes)?;
    let total = MESSAGE_OVERHEAD + len;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            context: "message body",
        });
    }
    let covered = MESSAGE_HEADER_BYTES + len;
    let stored = u32::from_le_bytes([
        bytes[covered],
        bytes[covered + 1],
        bytes[covered + 2],
        bytes[covered + 3],
    ]);
    let computed = crc32(&bytes[..covered]);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok((bytes[0], &bytes[MESSAGE_HEADER_BYTES..covered], total))
}

/// Writes the hello to a transport.
pub fn write_hello<W: Write>(w: &mut W) -> Result<(), WireError> {
    let mut buf = Vec::with_capacity(HELLO_BYTES);
    encode_hello(&mut buf);
    w.write_all(&buf)?;
    Ok(())
}

/// Reads and validates the hello from a transport.
pub fn read_hello<R: Read>(r: &mut R) -> Result<(), WireError> {
    let mut buf = [0u8; HELLO_BYTES];
    if fill(r, &mut buf)? != Fill::Full {
        return Err(WireError::Truncated { context: "hello" });
    }
    decode_hello(&buf).map(|_| ())
}

/// Reads one framed message from a transport into `frame` (cleared and
/// refilled each call) and returns its kind and verified payload.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed the
/// connection *between* messages); a stream that ends mid-frame is
/// [`WireError::Truncated`].
pub(super) fn read_message<'a, R: Read>(
    r: &mut R,
    frame: &'a mut Vec<u8>,
) -> Result<Option<(u8, &'a [u8])>, WireError> {
    let mut header = [0u8; MESSAGE_HEADER_BYTES];
    match fill(r, &mut header)? {
        Fill::Eof => return Ok(None),
        Fill::Partial => {
            return Err(WireError::Truncated {
                context: "message header",
            })
        }
        Fill::Full => {}
    }
    let len = payload_len(&header)?;
    frame.clear();
    frame.extend_from_slice(&header);
    frame.resize(MESSAGE_OVERHEAD + len, 0);
    let (body, crc) = frame[MESSAGE_HEADER_BYTES..].split_at_mut(len);
    for (buf, context) in [(body, "message body"), (crc, "message checksum")] {
        if fill(r, buf)? != Fill::Full {
            return Err(WireError::Truncated { context });
        }
    }
    let (kind, payload, _) = decode_message(frame)?;
    Ok(Some((kind, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hello_round_trips() {
        let mut buf = Vec::new();
        encode_hello(&mut buf);
        assert_eq!(buf.len(), HELLO_BYTES);
        assert_eq!(decode_hello(&buf).unwrap(), HELLO_BYTES);
    }

    #[test]
    fn hello_rejects_bad_magic_version_flags() {
        let mut buf = Vec::new();
        encode_hello(&mut buf);
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_hello(&bad),
            Err(WireError::BadMagic { .. })
        ));
        let mut bad = buf.clone();
        bad[8] = 99;
        assert!(matches!(
            decode_hello(&bad),
            Err(WireError::UnsupportedVersion { got: 99 })
        ));
        let mut bad = buf.clone();
        bad[10] = 1;
        assert!(matches!(
            decode_hello(&bad),
            Err(WireError::UnsupportedFlags { got: 1 })
        ));
        assert!(matches!(
            decode_hello(&buf[..HELLO_BYTES - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn message_round_trips_and_reports_consumed_bytes() {
        let mut buf = Vec::new();
        encode_message(&mut buf, 3, b"abc");
        encode_message(&mut buf, 4, b"");
        let (kind, payload, n) = decode_message(&buf).unwrap();
        assert_eq!((kind, payload), (3, &b"abc"[..]));
        let (kind2, payload2, n2) = decode_message(&buf[n..]).unwrap();
        assert_eq!((kind2, payload2), (4, &b""[..]));
        assert_eq!(n + n2, buf.len());
    }

    #[test]
    fn message_detects_any_single_byte_flip() {
        let mut buf = Vec::new();
        encode_message(&mut buf, 9, b"hello wire");
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x41;
            assert!(decode_message(&bad).is_err(), "flip at {i} went undetected");
        }
    }

    #[test]
    fn message_rejects_oversized_and_truncated() {
        let mut buf = Vec::new();
        encode_message(&mut buf, 1, b"xyz");
        for cut in 0..buf.len() {
            assert!(matches!(
                decode_message(&buf[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }
        let mut bad = buf.clone();
        bad[1..5].copy_from_slice(&(MAX_MESSAGE_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_message(&bad),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn streaming_matches_pure_codec() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        encode_message(&mut buf, 5, b"stream me");
        encode_message(&mut buf, 6, &[0u8; 1000]);

        let mut r = &buf[..];
        read_hello(&mut r).unwrap();
        let mut frame = Vec::new();
        let zeros = [0u8; 1000];
        assert_eq!(
            read_message(&mut r, &mut frame).unwrap(),
            Some((5, &b"stream me"[..]))
        );
        assert_eq!(
            read_message(&mut r, &mut frame).unwrap(),
            Some((6, &zeros[..]))
        );
        // Clean EOF between frames.
        assert_eq!(read_message(&mut r, &mut frame).unwrap(), None);
        // Mid-frame EOF is Truncated, not clean.
        let mut r = &buf[..buf.len() - 3];
        read_hello(&mut r).unwrap();
        assert_eq!(
            read_message(&mut r, &mut frame).unwrap(),
            Some((5, &b"stream me"[..]))
        );
        assert!(matches!(
            read_message(&mut r, &mut frame),
            Err(WireError::Truncated { .. })
        ));
    }

    // Adversarial and property tests, mirroring the trace store's
    // `store_properties.rs`: lossless round trips over arbitrary
    // payloads, through the pure codec and the streaming reader alike,
    // and typed, never panicking, errors on every class of hostile
    // bytes.

    /// A hello followed by three messages of distinct shapes (empty,
    /// short, multi-hundred-byte) — the corruption target throughout.
    fn valid_stream() -> Vec<u8> {
        let mut buf = Vec::new();
        encode_hello(&mut buf);
        encode_message(&mut buf, 0x01, b"");
        encode_message(&mut buf, 0x02, b"short payload");
        let big: Vec<u8> = (0..300u32).map(|i| (i * 7) as u8).collect();
        encode_message(&mut buf, 0x82, &big);
        buf
    }

    /// Drains a full byte stream through the transport-level reader,
    /// returning the decoded `(kind, payload)` sequence.
    fn read_all(bytes: &[u8]) -> Result<Vec<(u8, Vec<u8>)>, WireError> {
        let mut r = bytes;
        read_hello(&mut r)?;
        let mut out = Vec::new();
        let mut frame = Vec::new();
        while let Some((kind, payload)) = read_message(&mut r, &mut frame)? {
            out.push((kind, payload.to_vec()));
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
            encode_hello(&mut buf);
            for (kind, payload) in &frames {
                encode_message(&mut buf, *kind, payload);
            }

            // Streaming reader.
            let decoded = read_all(&buf).unwrap();
            prop_assert_eq!(decoded.len(), frames.len());
            for ((k, p), (ek, ep)) in decoded.iter().zip(&frames) {
                prop_assert_eq!(k, ek);
                prop_assert_eq!(p, ep);
            }

            // Pure codec over the same bytes.
            let mut pos = decode_hello(&buf).unwrap();
            for (ek, ep) in &frames {
                let (k, p, n) = decode_message(&buf[pos..]).unwrap();
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
            let _ = decode_hello(&bytes);
            if let Ok((_, payload, n)) = decode_message(&bytes) {
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
            decode_message(&bytes),
            Err(WireError::Oversized { .. })
        ));
        let mut r = bytes.as_slice();
        let mut frame = Vec::new();
        assert!(matches!(
            read_message(&mut r, &mut frame),
            Err(WireError::Oversized { .. })
        ));
        assert_eq!(
            frame.capacity(),
            0,
            "no payload allocation for a rejected length"
        );
    }

    #[test]
    fn bad_hello_fields_are_typed_errors() {
        let mut ok = Vec::new();
        encode_hello(&mut ok);

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
}
