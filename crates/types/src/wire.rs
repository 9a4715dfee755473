//! Framing layer for the trace-streaming wire protocol.
//!
//! This module owns the two byte-level constructs every connection uses —
//! the connection **hello** and the length-prefixed **message frame** —
//! and nothing else. Typed requests/responses (session open, chunk
//! delivery, stats) live in `stems_core::protocol`; this layer only
//! guarantees that a peer either receives the exact bytes that were sent
//! or gets a typed [`WireError`], never a panic and never silent
//! corruption. The full byte-level spec is `docs/WIRE_PROTOCOL.md`.
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
//! use stems_types::wire;
//!
//! let mut buf = Vec::new();
//! wire::encode_hello(&mut buf);
//! wire::encode_message(&mut buf, 7, b"payload");
//! let consumed = wire::decode_hello(&buf).unwrap();
//! let (kind, payload, _total) = wire::decode_message(&buf[consumed..]).unwrap();
//! assert_eq!((kind, payload), (7, &b"payload"[..]));
//! ```

use crate::crc::{crc32, Crc32};
use std::fmt;
use std::io::{Read, Write};

/// Magic bytes opening every connection.
pub const WIRE_MAGIC: [u8; 8] = *b"STEMSWIR";
/// Current (and only) protocol version. Version 2 retired the
/// unsequenced chunk kind of version 1 (`docs/WIRE_PROTOCOL.md`).
pub const WIRE_VERSION: u16 = 2;
/// Size of the hello: magic + version + flags.
pub const HELLO_BYTES: usize = 12;
/// Size of a message header: kind + payload length.
pub const MESSAGE_HEADER_BYTES: usize = 5;
/// Fixed per-message overhead: header + trailing CRC.
pub const MESSAGE_OVERHEAD: usize = MESSAGE_HEADER_BYTES + 4;
/// Upper bound on a message payload (64 MiB — matches the trace store's
/// frame bound). A hostile length prefix can make a peer allocate at
/// most this much.
pub const MAX_MESSAGE_PAYLOAD: u32 = 1 << 26;

/// Everything that can go wrong while framing or unframing bytes.
///
/// Every variant is a *typed* rejection of hostile or truncated input —
/// the decoding paths never panic and never return partially-decoded
/// data.
#[derive(Debug)]
pub enum WireError {
    /// The hello did not start with [`WIRE_MAGIC`].
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
    /// A message declared a payload longer than [`MAX_MESSAGE_PAYLOAD`].
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
    /// A structurally valid frame carried a kind byte the protocol layer
    /// does not define (reported by `stems_core::protocol`, not here).
    UnknownKind {
        /// The kind byte actually read.
        kind: u8,
    },
    /// A structurally valid frame carried a payload the protocol layer
    /// could not decode (reported by `stems_core::protocol`, not here).
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
pub fn encode_hello(out: &mut Vec<u8>) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
}

/// Validates a hello at the front of `bytes`, returning the number of
/// bytes consumed ([`HELLO_BYTES`]).
pub fn decode_hello(bytes: &[u8]) -> Result<usize, WireError> {
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
/// If `payload` exceeds [`MAX_MESSAGE_PAYLOAD`] — callers build payloads
/// and are expected to chunk below the bound.
pub fn encode_message(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
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

/// Decodes one framed message from the front of `bytes`.
///
/// Returns `(kind, payload, total_bytes_consumed)`. The payload slice
/// borrows from `bytes`; the CRC has already been verified over the
/// header and payload.
pub fn decode_message(bytes: &[u8]) -> Result<(u8, &[u8], usize), WireError> {
    if bytes.len() < MESSAGE_HEADER_BYTES {
        return Err(WireError::Truncated {
            context: "message header",
        });
    }
    let kind = bytes[0];
    let len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
    if len > MAX_MESSAGE_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    let len = len as usize;
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
    Ok((kind, &bytes[MESSAGE_HEADER_BYTES..covered], total))
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
    read_full(r, &mut buf, "hello")?;
    decode_hello(&buf).map(|_| ())
}

/// Writes one framed message to a transport.
///
/// `scratch` is reused across calls to keep steady-state streaming
/// allocation-free; it is cleared on entry.
pub fn write_message<W: Write>(
    w: &mut W,
    kind: u8,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> Result<(), WireError> {
    scratch.clear();
    encode_message(scratch, kind, payload);
    w.write_all(scratch)?;
    Ok(())
}

/// Reads one framed message from a transport into `payload`.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed the
/// connection *between* messages); a stream that ends mid-frame is
/// [`WireError::Truncated`]. On `Ok(Some(kind))` the verified payload is
/// in `payload` (cleared and refilled each call).
pub fn read_message<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> Result<Option<u8>, WireError> {
    let mut header = [0u8; MESSAGE_HEADER_BYTES];
    if !read_full_or_eof(r, &mut header, "message header")? {
        return Ok(None);
    }
    let kind = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    if len > MAX_MESSAGE_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    payload.clear();
    payload.resize(len as usize, 0);
    read_full(r, payload, "message body")?;
    let mut crc_bytes = [0u8; 4];
    read_full(r, &mut crc_bytes, "message checksum")?;
    let stored = u32::from_le_bytes(crc_bytes);
    // The CRC covers header + payload as one span; the incremental
    // hasher folds the two separately-buffered pieces without copying
    // them together.
    let mut h = Crc32::new();
    h.update(&header);
    h.update(payload);
    let computed = h.finish();
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    Ok(Some(kind))
}

/// Reads exactly `buf.len()` bytes or returns [`WireError::Truncated`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8], context: &'static str) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Truncated { context }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Like [`read_full`], but a clean EOF *before the first byte* returns
/// `Ok(false)` instead of an error — the peer hung up between frames.
fn read_full_or_eof<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(WireError::Truncated { context }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut scratch = Vec::new();
        write_hello(&mut buf).unwrap();
        write_message(&mut buf, 5, b"stream me", &mut scratch).unwrap();
        write_message(&mut buf, 6, &[0u8; 1000], &mut scratch).unwrap();

        let mut r = &buf[..];
        read_hello(&mut r).unwrap();
        let mut payload = Vec::new();
        assert_eq!(read_message(&mut r, &mut payload).unwrap(), Some(5));
        assert_eq!(payload, b"stream me");
        assert_eq!(read_message(&mut r, &mut payload).unwrap(), Some(6));
        assert_eq!(payload, vec![0u8; 1000]);
        // Clean EOF between frames.
        assert_eq!(read_message(&mut r, &mut payload).unwrap(), None);
        // Mid-frame EOF is Truncated, not clean.
        let mut r = &buf[..buf.len() - 3];
        read_hello(&mut r).unwrap();
        assert_eq!(read_message(&mut r, &mut payload).unwrap(), Some(5));
        assert!(matches!(
            read_message(&mut r, &mut payload),
            Err(WireError::Truncated { .. })
        ));
    }
}
