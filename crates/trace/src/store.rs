//! The persistent trace store: an append-only, chunked on-disk format
//! with streaming replay.
//!
//! Traces are written as a sequence of self-contained *frames*, each
//! carrying its own record count, a delta/varint-encoded columnar
//! payload, and a CRC-32 checksum, so a [`TraceWriter`] only ever
//! appends and a [`TraceReader`] streams the file back one frame at a
//! time — memory stays O(frame) no matter how many billions of
//! accesses the file holds. The frame is sized for
//! `Session::run_chunk`: replay feeds each decoded `&[Access]` slice
//! straight into the engine's batched entry point.
//!
//! The byte-level layout, versioning, and forward-compatibility rules
//! are specified in `docs/TRACE_FORMAT.md`; this module is the
//! reference implementation.
//!
//! # Example
//!
//! ```
//! use stems_trace::store::{TraceReader, TraceWriter};
//! use stems_trace::Access;
//! use stems_types::{Addr, Pc};
//!
//! let mut buf = Vec::new();
//! let mut w = TraceWriter::new(&mut buf).unwrap().with_frame_capacity(2);
//! for i in 0..5u64 {
//!     w.push(Access::read(Pc::new(0x400), Addr::new(i * 64))).unwrap();
//! }
//! let summary = w.finish().unwrap();
//! drop(w);
//! assert_eq!((summary.records, summary.frames), (5, 3));
//!
//! let mut r = TraceReader::new(buf.as_slice()).unwrap();
//! let mut total = 0;
//! while let Some(chunk) = r.next_chunk().unwrap() {
//!     assert!(chunk.len() <= 2);
//!     total += chunk.len();
//! }
//! assert_eq!(total, 5);
//! ```

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use stems_types::varint;
use stems_types::{Addr, Pc};

use crate::{Access, AccessKind, Dependence, Trace};

/// Store file magic: `STEMSTRC` ("STeMS trace, chunked").
pub const STORE_MAGIC: &[u8; 8] = b"STEMSTRC";
/// Current format version. Readers reject any other value.
pub const STORE_VERSION: u16 = 1;
/// Hard cap on records per frame; [`TraceWriter`] clamps its frame
/// capacity here, and readers reject frames claiming more (a corrupt
/// count must not drive a giant allocation).
pub const MAX_FRAME_RECORDS: usize = 1 << 21;
/// Hard cap on a frame's encoded payload length in bytes. Sized so the
/// worst-case encoding of [`MAX_FRAME_RECORDS`] records (24 bytes per
/// record: two 10-byte varints, a flags byte, a 3-byte work varint)
/// always fits.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 26;
/// Default records per frame: large enough to amortize the frame
/// header/checksum and keep `Session::run_chunk` batches wide, small
/// enough that replay holds well under a megabyte of decoded records.
pub const DEFAULT_FRAME_RECORDS: usize = 1 << 15;

/// File header size: magic + version u16 + flags u16.
pub const HEADER_BYTES: usize = 12;
/// Frame header size: record count u32 + payload length u32.
pub const FRAME_HEADER_BYTES: usize = 8;
const CHECKSUM_BYTES: usize = 4;

/// Errors produced by the trace store. Every corrupt-input condition is
/// a typed variant — readers never panic on hostile bytes.
#[derive(Debug)]
pub enum TraceStoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`STORE_MAGIC`]. The found bytes
    /// are reported.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The header's version field is not [`STORE_VERSION`].
    UnsupportedVersion {
        /// The version the file claims.
        found: u16,
    },
    /// The header's reserved flags field has unknown bits set (a future
    /// incompatible feature this reader does not understand).
    UnsupportedFlags {
        /// The flags word found.
        flags: u16,
    },
    /// The stream ended inside a frame (mid-header, mid-payload, or
    /// before the checksum) — an interrupted append.
    Truncated {
        /// Byte offset at which the frame being read began.
        frame_offset: u64,
    },
    /// A frame's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Zero-based index of the corrupt frame.
        frame: u64,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// A frame that checksummed correctly still failed to decode — the
    /// writer that produced it was broken, not the storage.
    Corrupt {
        /// Zero-based index of the undecodable frame.
        frame: u64,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for TraceStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStoreError::Io(e) => write!(f, "trace store i/o error: {e}"),
            TraceStoreError::BadMagic { found } => {
                write!(f, "not a stems trace store (magic {found:02x?})")
            }
            TraceStoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "trace store version {found} not supported (this reader speaks {STORE_VERSION})"
                )
            }
            TraceStoreError::UnsupportedFlags { flags } => {
                write!(f, "trace store uses unknown feature flags {flags:#06x}")
            }
            TraceStoreError::Truncated { frame_offset } => {
                write!(
                    f,
                    "trace store truncated inside frame at byte {frame_offset}"
                )
            }
            TraceStoreError::ChecksumMismatch {
                frame,
                stored,
                computed,
            } => write!(
                f,
                "frame {frame} checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            TraceStoreError::Corrupt { frame, reason } => {
                write!(f, "frame {frame} is corrupt: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceStoreError {
    fn from(e: io::Error) -> Self {
        TraceStoreError::Io(e)
    }
}

/// When the writer forces buffered frames to durable storage.
///
/// Mirrors the classic append-only-file trade-off: syncing every frame
/// bounds loss to the in-flight frame at a per-frame fsync cost;
/// syncing on finish is one fsync for the whole capture; never syncing
/// leaves durability to the OS page cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Flush to the OS on finish but never fsync. Fastest; a crash can
    /// lose anything the OS had not written back yet.
    Never,
    /// One fsync when [`TraceWriter::finish`] completes the capture.
    /// The right default for capture-then-replay workflows.
    #[default]
    OnFinish,
    /// fsync after every frame. An interrupted capture loses at most
    /// the frame being encoded; the truncated tail is detected on
    /// replay as [`TraceStoreError::Truncated`].
    EveryFrame,
}

/// A byte sink the store can write to and, when file-backed, force to
/// durable storage. In-memory sinks treat sync as a flush.
pub trait StoreSink: Write {
    /// Forces previously written bytes to durable storage (fsync for
    /// files; a plain flush for memory-backed sinks).
    fn sync_to_storage(&mut self) -> io::Result<()> {
        self.flush()
    }
}

impl StoreSink for Vec<u8> {}

impl<S: StoreSink + ?Sized> StoreSink for &mut S {
    fn sync_to_storage(&mut self) -> io::Result<()> {
        (**self).sync_to_storage()
    }
}

impl StoreSink for File {
    fn sync_to_storage(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl StoreSink for BufWriter<File> {
    fn sync_to_storage(&mut self) -> io::Result<()> {
        self.flush()?;
        self.get_ref().sync_data()
    }
}

/// Totals reported by [`TraceWriter::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreSummary {
    /// Frames written.
    pub frames: u64,
    /// Records written across all frames.
    pub records: u64,
}

/// Append-only writer for the chunked trace store.
///
/// Records are cut into frames of [`TraceWriter::with_frame_capacity`]
/// records; each full frame is delta/varint encoded, checksummed, and
/// appended, and only a partial tail waits for the next write. Call
/// [`TraceWriter::finish`] to flush the final partial frame and apply the
/// [`SyncPolicy`]; dropping an unfinished writer flushes best-effort but
/// reports no errors.
#[derive(Debug)]
pub struct TraceWriter<W: StoreSink> {
    sink: W,
    /// Records of the partial frame not yet written.
    pending: Vec<Access>,
    frame_capacity: usize,
    sync_policy: SyncPolicy,
    payload: Vec<u8>,
    frames: u64,
    records: u64,
    finished: bool,
    /// The directory of a file this writer created, until the first sync
    /// makes the file's entry in it durable.
    unsynced_dir: Option<PathBuf>,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (truncating) `path` and writes the store header. Under a
    /// syncing [`SyncPolicy`], the first sync of the file's data also
    /// syncs its parent directory, so the new file's name survives a
    /// crash along with its frames.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self, TraceStoreError> {
        let path = path.as_ref();
        let mut writer = TraceWriter::new(BufWriter::new(File::create(path)?))?;
        writer.unsynced_dir = Some(parent_dir(path).to_path_buf());
        Ok(writer)
    }
}

/// The directory whose entry names `path`: its parent, or `.` for a bare
/// file name.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

impl<W: StoreSink> TraceWriter<W> {
    /// Wraps `sink`, writing the store header immediately.
    pub fn new(mut sink: W) -> Result<Self, TraceStoreError> {
        sink.write_all(STORE_MAGIC)?;
        sink.write_all(&STORE_VERSION.to_le_bytes())?;
        sink.write_all(&0u16.to_le_bytes())?; // reserved flags
        Ok(TraceWriter {
            sink,
            pending: Vec::new(),
            frame_capacity: DEFAULT_FRAME_RECORDS,
            sync_policy: SyncPolicy::default(),
            payload: Vec::new(),
            frames: 0,
            records: 0,
            finished: false,
            unsynced_dir: None,
        })
    }

    /// Sets records per frame (clamped to `1..=`[`MAX_FRAME_RECORDS`]).
    pub fn with_frame_capacity(mut self, records: usize) -> Self {
        self.frame_capacity = records.clamp(1, MAX_FRAME_RECORDS);
        self
    }

    /// Sets the durability policy (default [`SyncPolicy::OnFinish`]).
    pub fn with_sync_policy(mut self, policy: SyncPolicy) -> Self {
        self.sync_policy = policy;
        self
    }

    /// Appends one access, emitting a frame whenever one fills.
    pub fn push(&mut self, access: Access) -> Result<(), TraceStoreError> {
        assert!(!self.finished, "TraceWriter used after finish()");
        self.pending.push(access);
        if self.pending.len() >= self.frame_capacity {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Appends a slice of accesses (the capture-side mirror of
    /// `Session::run_chunk`). Full frames are encoded straight from
    /// `accesses`; only a partial tail is copied, to wait for the next
    /// write or [`TraceWriter::finish`]. The frames are the same however
    /// the caller slices its writes.
    pub fn write_accesses(&mut self, mut accesses: &[Access]) -> Result<(), TraceStoreError> {
        assert!(!self.finished, "TraceWriter used after finish()");
        if !self.pending.is_empty() {
            let fill = accesses
                .len()
                .min(self.frame_capacity.saturating_sub(self.pending.len()));
            self.pending.extend_from_slice(&accesses[..fill]);
            accesses = &accesses[fill..];
            if self.pending.len() < self.frame_capacity {
                return Ok(());
            }
            self.flush_frame()?;
        }
        let mut frames = accesses.chunks_exact(self.frame_capacity);
        for frame in &mut frames {
            self.write_frame(frame)?;
            self.frame_written()?;
        }
        self.pending.extend_from_slice(frames.remainder());
        Ok(())
    }

    /// Encodes and appends the buffered records as one frame (no-op
    /// when nothing is buffered).
    pub fn flush_frame(&mut self) -> Result<(), TraceStoreError> {
        assert!(!self.finished, "TraceWriter used after finish()");
        if self.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending);
        let written = self.write_frame(&pending);
        self.pending = pending;
        written?;
        self.pending.clear();
        self.frame_written()
    }

    /// Encodes `records` (at most one frame's worth) and appends them as
    /// one frame.
    fn write_frame(&mut self, records: &[Access]) -> Result<(), TraceStoreError> {
        self.payload.clear();
        encode_records(records, &mut self.payload);
        debug_assert!(self.payload.len() <= MAX_FRAME_PAYLOAD);
        self.sink.write_all(&(records.len() as u32).to_le_bytes())?;
        self.sink
            .write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.payload)?;
        self.sink.write_all(&crc32(&self.payload).to_le_bytes())?;
        self.frames += 1;
        self.records += records.len() as u64;
        Ok(())
    }

    /// Applies the per-frame part of the sync policy to a written frame.
    fn frame_written(&mut self) -> Result<(), TraceStoreError> {
        if self.sync_policy == SyncPolicy::EveryFrame {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces the written bytes to durable storage, and on the first call
    /// the directory entry of a file this writer created.
    fn sync(&mut self) -> Result<(), TraceStoreError> {
        self.sink.sync_to_storage()?;
        if let Some(dir) = self.unsynced_dir.take() {
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Flushes the final partial frame, applies the sync policy, and
    /// returns the totals. The writer is unusable afterwards.
    pub fn finish(&mut self) -> Result<StoreSummary, TraceStoreError> {
        self.flush_frame()?;
        match self.sync_policy {
            SyncPolicy::Never => self.sink.flush()?,
            SyncPolicy::OnFinish | SyncPolicy::EveryFrame => self.sync()?,
        }
        self.finished = true;
        Ok(StoreSummary {
            frames: self.frames,
            records: self.records,
        })
    }
}

impl<W: StoreSink> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort: persist what we can, but only finish() can
            // report errors.
            let _ = self.flush_frame();
            let _ = self.sink.flush();
        }
    }
}

/// What [`TraceReader::recover_tail`] found and did: how much of the
/// file was a valid frame sequence, and how many trailing bytes were
/// cut to restore the invariant that every frame in the file decodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames in the surviving valid prefix.
    pub frames_kept: u64,
    /// Records across the surviving frames.
    pub records_kept: u64,
    /// Bytes removed from the end of the file (0 when undamaged).
    pub bytes_truncated: u64,
    /// Whether the file needed repair at all.
    pub was_damaged: bool,
}

/// Streaming reader for the chunked trace store.
///
/// [`TraceReader::next_chunk`] decodes one frame at a time into an
/// internal buffer that is reused across frames, so replay memory is
/// bounded by the largest frame in the file — never by trace length.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    decoded: Vec<Access>,
    payload: Vec<u8>,
    frames: u64,
    records: u64,
    offset: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens `path` and validates the store header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceStoreError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }

    /// Repairs a store damaged by an interrupted or injured append
    /// (`kill -9` mid-write, a torn copy, a truncated download):
    /// scans the file's valid frame prefix and truncates everything
    /// after it, so the survivor is a well-formed store again.
    ///
    /// The scan stops at the first frame that is cut short, fails its
    /// CRC, or does not decode; that frame and everything after it are
    /// removed with `set_len` — the store's frames are self-contained,
    /// so the prefix needs no rewriting. An undamaged file is left
    /// byte-identical (`was_damaged: false`). Damage the scan *cannot*
    /// localize — a missing or mangled 12-byte file header — is not
    /// repairable and returns the underlying error instead.
    pub fn recover_tail<P: AsRef<Path>>(path: P) -> Result<RecoveryReport, TraceStoreError> {
        let path = path.as_ref();
        let mut reader = TraceReader::open(path)?;
        let damage = loop {
            match reader.next_chunk() {
                Ok(Some(_)) => {}
                Ok(None) => break None,
                // The valid prefix ends where the failed frame began
                // (`reader.offset` advances only on success). Real I/O
                // failures abort: the file may be fine.
                Err(TraceStoreError::Io(e)) => return Err(TraceStoreError::Io(e)),
                Err(_) => break Some(reader.offset),
            }
        };
        let report = RecoveryReport {
            frames_kept: reader.frames,
            records_kept: reader.records,
            bytes_truncated: 0,
            was_damaged: damage.is_some(),
        };
        drop(reader);
        let Some(valid_end) = damage else {
            return Ok(report);
        };
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        let len = file.metadata()?.len();
        file.set_len(valid_end)?;
        file.sync_data()?;
        Ok(RecoveryReport {
            bytes_truncated: len.saturating_sub(valid_end),
            ..report
        })
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps `src`, reading and validating the store header.
    pub fn new(mut src: R) -> Result<Self, TraceStoreError> {
        let mut header = [0u8; HEADER_BYTES];
        if fill(&mut src, &mut header)? != Fill::Full {
            return Err(TraceStoreError::Truncated { frame_offset: 0 });
        }
        if &header[0..8] != STORE_MAGIC {
            return Err(TraceStoreError::BadMagic {
                found: header[0..8].try_into().unwrap(),
            });
        }
        let version = u16::from_le_bytes(header[8..10].try_into().unwrap());
        if version != STORE_VERSION {
            return Err(TraceStoreError::UnsupportedVersion { found: version });
        }
        let flags = u16::from_le_bytes(header[10..12].try_into().unwrap());
        if flags != 0 {
            return Err(TraceStoreError::UnsupportedFlags { flags });
        }
        Ok(TraceReader {
            src,
            decoded: Vec::new(),
            payload: Vec::new(),
            frames: 0,
            records: 0,
            offset: HEADER_BYTES as u64,
        })
    }

    /// Decodes the next frame and returns its records, or `None` at a
    /// clean end of stream. The returned slice borrows an internal
    /// buffer and is invalidated by the next call — feed it forward
    /// (e.g. into `Session::run_chunk`) before advancing.
    pub fn next_chunk(&mut self) -> Result<Option<&[Access]>, TraceStoreError> {
        let frame_offset = self.offset;
        let mut frame_header = [0u8; FRAME_HEADER_BYTES];
        match fill(&mut self.src, &mut frame_header)? {
            Fill::Eof => return Ok(None),
            Fill::Partial => return Err(TraceStoreError::Truncated { frame_offset }),
            Fill::Full => {}
        }
        let count = u32::from_le_bytes(frame_header[0..4].try_into().unwrap()) as usize;
        let payload_len = u32::from_le_bytes(frame_header[4..8].try_into().unwrap()) as usize;
        if count == 0 {
            return Err(self.corrupt("frame claims zero records"));
        }
        if count > MAX_FRAME_RECORDS {
            return Err(self.corrupt("frame record count exceeds MAX_FRAME_RECORDS"));
        }
        if payload_len > MAX_FRAME_PAYLOAD {
            return Err(self.corrupt("frame payload length exceeds MAX_FRAME_PAYLOAD"));
        }
        self.payload.resize(payload_len, 0);
        let mut checksum = [0u8; CHECKSUM_BYTES];
        for buf in [&mut self.payload[..], &mut checksum[..]] {
            if fill(&mut self.src, buf)? != Fill::Full {
                return Err(TraceStoreError::Truncated { frame_offset });
            }
        }
        let stored = u32::from_le_bytes(checksum);
        let computed = crc32(&self.payload);
        if stored != computed {
            return Err(TraceStoreError::ChecksumMismatch {
                frame: self.frames,
                stored,
                computed,
            });
        }
        decode_records(&self.payload, count, &mut self.decoded)
            .map_err(|reason| self.corrupt(reason))?;
        self.offset = frame_offset + (FRAME_HEADER_BYTES + payload_len + CHECKSUM_BYTES) as u64;
        self.frames += 1;
        self.records += count as u64;
        Ok(Some(&self.decoded))
    }

    /// Frames decoded so far.
    pub fn frames_read(&self) -> u64 {
        self.frames
    }

    /// Records decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records
    }

    /// Reads every remaining frame into one in-memory [`Trace`]. This
    /// defeats the streaming design on purpose — use it for fixtures
    /// and figure inputs that need random access, not for replay.
    pub fn read_to_trace(mut self) -> Result<Trace, TraceStoreError> {
        let mut trace = Trace::new();
        while let Some(chunk) = self.next_chunk()? {
            trace.extend(chunk.iter().copied());
        }
        Ok(trace)
    }

    fn corrupt(&self, reason: &'static str) -> TraceStoreError {
        TraceStoreError::Corrupt {
            frame: self.frames,
            reason,
        }
    }
}

/// Writes `trace` through a [`TraceWriter`] with default settings
/// (convenience for fixtures and tests).
pub fn write_store<W: StoreSink>(sink: W, trace: &Trace) -> Result<StoreSummary, TraceStoreError> {
    let mut w = TraceWriter::new(sink)?;
    w.write_accesses(trace.as_slice())?;
    w.finish()
}

/// Reads an entire store back into memory (convenience mirror of
/// [`write_store`]; replay paths should stream with [`TraceReader`]).
pub fn read_store<R: Read>(src: R) -> Result<Trace, TraceStoreError> {
    TraceReader::new(src)?.read_to_trace()
}

/// What [`fill`] got from a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fill {
    /// The whole buffer (an empty buffer is always full).
    Full,
    /// Nothing: the stream ended before the first byte, a clean
    /// boundary between frames or messages.
    Eof,
    /// Only part: the stream ended mid-buffer, a truncation.
    Partial,
}

/// Fills `buf` from `src`, retrying interrupted reads, and reports
/// whether the stream gave all of it, none of it or only part. The
/// store's frames and the wire protocol's messages both read through
/// it, so each can tell a clean end of stream from a cut-short one.
pub fn fill<R: Read>(src: &mut R, buf: &mut [u8]) -> io::Result<Fill> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(Fill::Eof),
            Ok(0) => return Ok(Fill::Partial),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(Fill::Full)
}

/// Appends `records` to `out` as the four frame columns (pc deltas,
/// address deltas, packed kind/dep flags, work values).
///
/// Append-only so callers can prefix their own header (the wire
/// protocol's `Chunk` message carries a session id and count before the
/// columns — `docs/WIRE_PROTOCOL.md`); the column bytes are exactly
/// what a store frame checksums.
pub fn encode_records(records: &[Access], out: &mut Vec<u8>) {
    let mut prev = 0i64;
    for a in records {
        let v = a.pc.get() as i64;
        varint::write_i64(out, v.wrapping_sub(prev));
        prev = v;
    }
    let mut prev = 0i64;
    for a in records {
        let v = a.addr.get() as i64;
        varint::write_i64(out, v.wrapping_sub(prev));
        prev = v;
    }
    let mut byte = 0u8;
    for (i, a) in records.iter().enumerate() {
        let mut bits = 0u8;
        if a.kind == AccessKind::Write {
            bits |= 0b01;
        }
        if a.dep == Dependence::OnPrevAccess {
            bits |= 0b10;
        }
        byte |= bits << (2 * (i % 4));
        if i % 4 == 3 {
            out.push(byte);
            byte = 0;
        }
    }
    if !records.len().is_multiple_of(4) {
        out.push(byte);
    }
    for a in records {
        varint::write_u64(out, a.work_before as u64);
    }
}

/// Decodes a columnar payload of exactly `count` records back into
/// `out` (cleared first); any structural inconsistency returns the
/// reason (the store wraps it as [`TraceStoreError::Corrupt`], the wire
/// protocol as `WireError::Corrupt`).
///
/// The payload must have been produced by [`encode_records`]; callers
/// are expected to have already verified an enclosing checksum.
///
/// One pass writes each record once: the pc and address columns' ends
/// are found first by counting varint terminators eight bytes at a time,
/// then the four column cursors advance together. A frame of at least
/// eight records whose varints are all 1–8 bytes long and whose work
/// values fit a `u16` takes a fast loop with one 8-byte load per varint;
/// any other frame, and any frame the fast loop gives up on, takes the
/// general loop from the start. A damaged payload gets the reason a
/// column-by-column decode would give: any bad pc or address varint
/// outranks a flags-column error, which outranks a work-column error,
/// which outranks trailing bytes.
pub fn decode_records(
    payload: &[u8],
    count: usize,
    out: &mut Vec<Access>,
) -> Result<(), &'static str> {
    const RUNS_PAST: &str = "varint runs past the frame payload";
    out.clear();
    let pc_end = skip_varints(payload, count).ok_or(RUNS_PAST)?;
    let addr_end = pc_end + skip_varints(&payload[pc_end..], count).ok_or(RUNS_PAST)?;
    let flag_bytes = count.div_ceil(4);
    let work_start = addr_end + flag_bytes;
    let flags_error = if payload.len() < work_start {
        Some("flags column runs past the frame payload")
    } else if !count.is_multiple_of(4) && payload[work_start - 1] >> (2 * (count % 4)) != 0 {
        // Canonical encoding: padding bits in the final flags byte are zero.
        Some("nonzero padding bits in the flags column")
    } else {
        None
    };
    if let Some(reason) = flags_error {
        return Err(if varints_valid(payload, 2 * count) {
            reason
        } else {
            RUNS_PAST
        });
    }
    if decode_well_formed(payload, count, pc_end, addr_end, work_start, out) {
        return Ok(());
    }
    out.clear();
    out.reserve(count);
    let flags = &payload[addr_end..work_start];
    let (mut pc_pos, mut addr_pos, mut work_pos) = (0, pc_end, work_start);
    let (mut pc, mut addr) = (0i64, 0i64);
    for i in 0..count {
        let (dpc, n) = varint::read_i64(&payload[pc_pos..]).ok_or(RUNS_PAST)?;
        pc_pos += n;
        let (daddr, n) = varint::read_i64(&payload[addr_pos..]).ok_or(RUNS_PAST)?;
        addr_pos += n;
        let (work, n) = varint::read_u64(&payload[work_pos..]).ok_or(RUNS_PAST)?;
        work_pos += n;
        let Ok(work_before) = u16::try_from(work) else {
            let rest = count - 1 - i;
            let columns_valid = varints_valid(&payload[pc_pos..], rest)
                && varints_valid(&payload[addr_pos..], rest);
            return Err(if columns_valid {
                "work value exceeds u16"
            } else {
                RUNS_PAST
            });
        };
        pc = pc.wrapping_add(dpc);
        addr = addr.wrapping_add(daddr);
        out.push(record(pc, addr, flags[i / 4] >> (2 * (i % 4)), work_before));
    }
    if work_pos != payload.len() {
        return Err("trailing bytes after the last column");
    }
    Ok(())
}

/// The fast loop of [`decode_records`], entered once `skip_varints` has
/// found the pc column's end (`pc_end`) and the address column's
/// (`addr_end`) and the flags column has been checked to end inside the
/// payload at `work_start`. Decodes the frame into `out` and returns
/// `true` when it has at least eight records, every pc and address
/// varint is 1–8 bytes long, every work value fits a `u16` and the work
/// column ends exactly at the payload's end. Returns `false`, with `out`
/// partly written, on anything else; the caller then decodes the frame
/// with the general loop, which finds the error and its reason.
///
/// Each varint is one unchecked little-endian 8-byte load decoded by
/// [`varint::decode_word`] (a bounds-checked load measured about 40%
/// slower on this loop). Every load is in bounds by construction: a pc
/// or address cursor only ever advances to just past its column's next
/// terminator, so before record `i` it sits at or below the column's
/// `i + 1`th terminator, which `skip_varints` found below `pc_end` or
/// `addr_end`; eight records put at least two flags bytes and, with the
/// length check below, eight work bytes after `addr_end`. Work varints
/// that start within eight bytes of the payload's end are read by the
/// bounds-checked reader instead.
#[allow(unsafe_code)]
fn decode_well_formed(
    payload: &[u8],
    count: usize,
    pc_end: usize,
    addr_end: usize,
    work_start: usize,
    out: &mut Vec<Access>,
) -> bool {
    // Each record needs at least one work byte.
    if count < 8 || payload.len() - work_start < count {
        return false;
    }
    let flags = &payload[addr_end..work_start];
    let last_work_word = payload.len() - 8;
    out.reserve(count);
    let (mut pc_pos, mut addr_pos, mut work_pos) = (0, pc_end, work_start);
    let (mut pc, mut addr) = (0i64, 0i64);
    for i in 0..count {
        debug_assert!(pc_pos < pc_end && addr_pos < addr_end);
        // SAFETY: `pc_pos < pc_end` (the cursor argument above), and the
        // eight or more address varints put `pc_end + 8 <= addr_end`.
        let (dpc, pc_len) = varint::decode_word(unsafe { load_word(payload, pc_pos) });
        // SAFETY: `addr_pos < addr_end`, and `addr_end + 8 <= work_start
        // + count <= payload.len()` by the length check above.
        let (daddr, addr_len) = varint::decode_word(unsafe { load_word(payload, addr_pos) });
        let (work, work_len) = if work_pos <= last_work_word {
            // SAFETY: `work_pos + 8 <= payload.len()` was just checked.
            varint::decode_word(unsafe { load_word(payload, work_pos) })
        } else {
            match varint::read_u64(&payload[work_pos..]) {
                Some(read) => read,
                None => return false,
            }
        };
        if pc_len.max(addr_len).max(work_len) > 8 || work > u16::MAX as u64 {
            return false;
        }
        pc_pos += pc_len;
        addr_pos += addr_len;
        work_pos += work_len;
        pc = pc.wrapping_add(varint::unzigzag(dpc));
        addr = addr.wrapping_add(varint::unzigzag(daddr));
        out.push(record(pc, addr, flags[i / 4] >> (2 * (i % 4)), work as u16));
    }
    work_pos == payload.len()
}

/// The record at `pc` and `addr` whose low two flags `bits` mark a write
/// and a dependence on the previous access.
#[inline(always)]
fn record(pc: i64, addr: i64, bits: u8, work_before: u16) -> Access {
    Access {
        pc: Pc::new(pc as u64),
        addr: Addr::new(addr as u64),
        kind: if bits & 0b01 != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        dep: if bits & 0b10 != 0 {
            Dependence::OnPrevAccess
        } else {
            Dependence::Independent
        },
        work_before,
    }
}

/// The eight bytes of `bytes` at `pos`, as a little-endian word.
///
/// # Safety
///
/// `pos + 8 <= bytes.len()`.
#[allow(unsafe_code)]
#[inline(always)]
unsafe fn load_word(bytes: &[u8], pos: usize) -> u64 {
    debug_assert!(pos + 8 <= bytes.len());
    // SAFETY: the caller guarantees the eight bytes at `pos` lie inside
    // `bytes`, and an unaligned read has no alignment requirement.
    u64::from_le_bytes(unsafe { bytes.as_ptr().add(pos).cast::<[u8; 8]>().read_unaligned() })
}

/// Offset just past the `n`th varint terminator (a byte with its high
/// bit clear) in `bytes`, or `None` when there are fewer than `n`. When
/// the first `n` varints are well-formed this is where they end.
fn skip_varints(bytes: &[u8], mut n: usize) -> Option<usize> {
    if n == 0 {
        return Some(0);
    }
    let (words, tail) = bytes.as_chunks::<8>();
    for (w, word) in words.iter().enumerate() {
        let mut stops = !u64::from_le_bytes(*word) & 0x8080_8080_8080_8080;
        let found = stops.count_ones() as usize;
        if found < n {
            n -= found;
            continue;
        }
        for _ in 1..n {
            stops &= stops - 1;
        }
        return Some(8 * w + stops.trailing_zeros() as usize / 8 + 1);
    }
    let base = 8 * words.len();
    tail.iter()
        .enumerate()
        .filter(|(_, &b)| b & 0x80 == 0)
        .nth(n - 1)
        .map(|(i, _)| base + i + 1)
}

/// Whether `n` well-formed varints can be read back to back from the
/// front of `bytes`.
fn varints_valid(mut bytes: &[u8], n: usize) -> bool {
    for _ in 0..n {
        match varint::read_u64(bytes) {
            Some((_, len)) => bytes = &bytes[len..],
            None => return false,
        }
    }
    true
}

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the checksum named in
/// `docs/TRACE_FORMAT.md`. Re-exported from `stems_types::crc`, which
/// the wire protocol shares (`docs/WIRE_PROTOCOL.md`).
pub use stems_types::crc::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            let a = Access {
                pc: Pc::new(0x400 + (i % 13) * 4),
                addr: Addr::new((i * 2654435761) % (1 << 30)),
                kind: if i % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                dep: if i % 7 == 0 {
                    Dependence::OnPrevAccess
                } else {
                    Dependence::Independent
                },
                work_before: (i % 300) as u16,
            };
            t.push(a);
        }
        t
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let t = sample_trace(1000);
        let mut buf = Vec::new();
        let summary = write_store(&mut buf, &t).unwrap();
        assert_eq!(summary.records, 1000);
        assert_eq!(summary.frames, 1);
        let back = read_store(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn extreme_values_round_trip() {
        let mut t = Trace::new();
        t.push(
            Access::read(Pc::new(u64::MAX), Addr::new(u64::MAX))
                .with_dep(Dependence::OnPrevAccess)
                .with_work(u16::MAX),
        );
        t.push(Access::write(Pc::new(0), Addr::new(0)));
        t.push(Access::read(Pc::new(1 << 63), Addr::new((1 << 63) - 1)));
        let mut buf = Vec::new();
        write_store(&mut buf, &t).unwrap();
        assert_eq!(read_store(buf.as_slice()).unwrap(), t);
    }

    #[test]
    fn empty_store_round_trips_with_zero_frames() {
        let mut buf = Vec::new();
        let summary = write_store(&mut buf, &Trace::new()).unwrap();
        assert_eq!(summary, StoreSummary::default());
        assert_eq!(buf.len(), HEADER_BYTES, "header only, no frames");
        let back = read_store(buf.as_slice()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn frames_split_at_the_configured_capacity() {
        let t = sample_trace(1000);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap().with_frame_capacity(64);
        w.write_accesses(t.as_slice()).unwrap();
        let summary = w.finish().unwrap();
        drop(w);
        assert_eq!(summary.frames, 1000u64.div_ceil(64));
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        let mut sizes = Vec::new();
        let mut all = Trace::new();
        while let Some(chunk) = r.next_chunk().unwrap() {
            sizes.push(chunk.len());
            all.extend(chunk.iter().copied());
        }
        assert!(sizes[..sizes.len() - 1].iter().all(|&s| s == 64));
        assert_eq!(*sizes.last().unwrap(), 1000 % 64);
        assert_eq!(all, t);
        assert_eq!(r.records_read(), 1000);
    }

    #[test]
    fn append_after_reopen_extends_the_stream() {
        // Append-only means a second writer session can continue a file
        // by writing frames with no header; simulate with two writers
        // over one Vec (the second emits frames only).
        let first = sample_trace(100);
        let second = sample_trace(40);
        let mut buf = Vec::new();
        write_store(&mut buf, &first).unwrap();
        // Frames are self-contained: encode the continuation with a
        // throwaway writer and splice its frame bytes after the header.
        let mut cont = Vec::new();
        write_store(&mut cont, &second).unwrap();
        buf.extend_from_slice(&cont[HEADER_BYTES..]);
        let back = read_store(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 140);
        assert_eq!(&back.as_slice()[..100], first.as_slice());
        assert_eq!(&back.as_slice()[100..], second.as_slice());
    }

    #[test]
    fn delta_encoding_is_compact_for_sequential_access() {
        let mut t = Trace::new();
        for i in 0..10_000u64 {
            t.read(0x400, (1 << 30) + i * 64);
        }
        let mut buf = Vec::new();
        write_store(&mut buf, &t).unwrap();
        // A fixed-width record would take 24 bytes. Delta varints: ~4.
        assert!(
            buf.len() < t.len() * 5,
            "sequential trace should encode well under 5 B/record, got {} for {}",
            buf.len(),
            t.len()
        );
    }

    #[test]
    fn writer_drop_without_finish_still_flushes_frames() {
        let mut buf = Vec::new();
        {
            let mut w = TraceWriter::new(&mut buf).unwrap().with_frame_capacity(8);
            w.write_accesses(sample_trace(20).as_slice()).unwrap();
            // Dropped without finish(): the pending 4-record frame is
            // flushed best-effort.
        }
        let back = read_store(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 20);
    }

    #[test]
    fn recover_tail_repairs_every_truncation_point() {
        // Sweep: cut a 5-frame store at every byte length from full
        // down past the last frame boundary, repair, and check the
        // survivor is exactly the longest valid frame prefix.
        let t = sample_trace(100);
        let mut pristine = Vec::new();
        let mut w = TraceWriter::new(&mut pristine)
            .unwrap()
            .with_frame_capacity(20);
        w.write_accesses(t.as_slice()).unwrap();
        w.finish().unwrap();
        drop(w);
        // Frame boundaries, from the header on up.
        let mut boundaries = vec![HEADER_BYTES as u64];
        {
            let mut r = TraceReader::new(pristine.as_slice()).unwrap();
            while r.next_chunk().unwrap().is_some() {
                boundaries.push(r.offset);
            }
        }
        assert_eq!(boundaries.len(), 6, "header + 5 frames");
        let path =
            std::env::temp_dir().join(format!("stems_recover_sweep_{}.stems", std::process::id()));
        for cut in (HEADER_BYTES..=pristine.len()).rev() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let report = TraceReader::recover_tail(&path).unwrap();
            let at_boundary = boundaries.contains(&(cut as u64));
            assert_eq!(report.was_damaged, !at_boundary, "cut at {cut}");
            let expect_end = *boundaries
                .iter()
                .filter(|b| **b <= cut as u64)
                .max()
                .unwrap();
            let expect_frames = boundaries.iter().position(|b| *b == expect_end).unwrap() as u64;
            assert_eq!(report.frames_kept, expect_frames, "cut at {cut}");
            assert_eq!(report.records_kept, expect_frames * 20, "cut at {cut}");
            assert_eq!(
                report.bytes_truncated,
                cut as u64 - expect_end,
                "cut at {cut}"
            );
            // The repaired file reads cleanly end to end and holds the
            // exact record prefix.
            let back = TraceReader::open(&path).unwrap().read_to_trace().unwrap();
            assert_eq!(
                back.as_slice(),
                &t.as_slice()[..(expect_frames * 20) as usize],
                "cut at {cut}"
            );
            // Repair is idempotent: a second pass finds no damage.
            let again = TraceReader::recover_tail(&path).unwrap();
            assert!(!again.was_damaged, "cut at {cut}");
            assert_eq!(again.bytes_truncated, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_tail_cuts_a_corrupted_tail_frame() {
        let t = sample_trace(60);
        let mut pristine = Vec::new();
        let mut w = TraceWriter::new(&mut pristine)
            .unwrap()
            .with_frame_capacity(20);
        w.write_accesses(t.as_slice()).unwrap();
        w.finish().unwrap();
        drop(w);
        let path = std::env::temp_dir().join(format!(
            "stems_recover_corrupt_{}.stems",
            std::process::id()
        ));
        // Flip a bit in the last frame's payload: the CRC catches it
        // and repair drops that frame, keeping the first two.
        let mut damaged = pristine.clone();
        let n = damaged.len();
        damaged[n - CHECKSUM_BYTES - 1] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        let report = TraceReader::recover_tail(&path).unwrap();
        assert!(report.was_damaged);
        assert_eq!(report.frames_kept, 2);
        assert_eq!(report.records_kept, 40);
        let back = TraceReader::open(&path).unwrap().read_to_trace().unwrap();
        assert_eq!(back.as_slice(), &t.as_slice()[..40]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_tail_refuses_a_damaged_header() {
        let path =
            std::env::temp_dir().join(format!("stems_recover_header_{}.stems", std::process::id()));
        std::fs::write(&path, &STORE_MAGIC[..6]).unwrap();
        let err = TraceReader::recover_tail(&path).unwrap_err();
        assert!(matches!(
            err,
            TraceStoreError::Truncated { frame_offset: 0 }
        ));
        // The file is untouched: header damage is not repairable.
        assert_eq!(std::fs::read(&path).unwrap().len(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn parent_dir_maps_a_bare_file_name_to_the_working_directory() {
        assert_eq!(parent_dir(Path::new("db2.stems")), Path::new("."));
        assert_eq!(parent_dir(Path::new("./db2.stems")), Path::new("."));
        assert_eq!(
            parent_dir(Path::new("corpus/db2.stems")),
            Path::new("corpus")
        );
        assert_eq!(
            parent_dir(Path::new("/srv/corpus/db2.stems")),
            Path::new("/srv/corpus")
        );
    }

    #[test]
    fn created_stores_round_trip_under_every_sync_policy() {
        let dir = std::env::temp_dir().join(format!("stems_create_sync_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let t = sample_trace(100);
        for policy in [
            SyncPolicy::Never,
            SyncPolicy::OnFinish,
            SyncPolicy::EveryFrame,
        ] {
            let path = dir.join(format!("{policy:?}.stems"));
            let mut w = TraceWriter::create(&path)
                .unwrap()
                .with_frame_capacity(32)
                .with_sync_policy(policy);
            assert_eq!(w.unsynced_dir.as_deref(), Some(dir.as_path()));
            w.write_accesses(t.as_slice()).unwrap();
            let summary = w.finish().unwrap();
            assert_eq!((summary.records, summary.frames), (100, 4), "{policy:?}");
            // Only a syncing policy touches the directory.
            assert_eq!(
                w.unsynced_dir.is_none(),
                policy != SyncPolicy::Never,
                "{policy:?}"
            );
            drop(w);
            let back = TraceReader::open(&path).unwrap().read_to_trace().unwrap();
            assert_eq!(back, t, "{policy:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_policies_produce_identical_bytes() {
        let t = sample_trace(64);
        let mut reference = Vec::new();
        write_store(&mut reference, &t).unwrap();
        for policy in [
            SyncPolicy::Never,
            SyncPolicy::OnFinish,
            SyncPolicy::EveryFrame,
        ] {
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf).unwrap().with_sync_policy(policy);
            w.write_accesses(t.as_slice()).unwrap();
            w.finish().unwrap();
            drop(w);
            assert_eq!(buf, reference, "{policy:?} must not change the format");
        }
    }
}
