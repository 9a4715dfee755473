//! Typed messages for the trace-streaming session service.
//!
//! The framing below these messages (hello, kind byte, length prefix,
//! CRC-32) lives in `stems_types::wire`; this module defines what the
//! payloads *mean*: a client opens sessions (each with its own
//! [`SystemConfig`]/[`PrefetchConfig`]/[`Predictor`]), streams
//! sequenced trace chunks into them, and receives per-chunk counter
//! snapshots plus an end-of-stream summary. Chunk payloads reuse the
//! trace store's columnar record codec
//! ([`stems_trace::store::encode_records`]) so a persisted trace can be
//! streamed to a server without transcoding.
//! The byte-level spec is `docs/WIRE_PROTOCOL.md`.
//!
//! Every decode path returns a typed [`WireError`] on hostile bytes —
//! unknown kinds, out-of-range config fields, truncated columns — and
//! never panics.
//!
//! # Example
//!
//! ```
//! use stems_core::protocol::{Request, Response, ChunkStats};
//! use stems_core::{Counters, PrefetchConfig, Predictor};
//! use stems_memsim::SystemConfig;
//!
//! let req = Request::Open(Box::new(stems_core::protocol::OpenRequest {
//!     system: SystemConfig::small(),
//!     prefetch: PrefetchConfig::small(),
//!     predictor: Predictor::Stems,
//!     invalidations: None,
//! }));
//! let mut wire = Vec::new();
//! let mut scratch = Vec::new();
//! req.encode(&mut wire, &mut scratch);
//! let (kind, payload, _) = stems_types::wire::decode_message(&wire).unwrap();
//! let back = Request::decode(kind, payload).unwrap();
//! assert!(matches!(back, Request::Open(o) if o.predictor == Predictor::Stems));
//! ```

use crate::config::PrefetchConfig;
use crate::engine::Counters;
use crate::session::Predictor;
use crate::stems::recon::ReconStats;
use std::io::{Read, Write};
use stems_memsim::{CacheConfig, SystemConfig};
use stems_trace::store::{decode_records, encode_records, MAX_FRAME_RECORDS};
use stems_trace::Access;
use stems_types::wire::{self, WireError};
use stems_types::{varint, BLOCK_BYTES};

/// Message kind: client opens a session.
pub const KIND_OPEN: u8 = 0x01;
/// Message kind: client closes a session (server replies with a summary).
pub const KIND_CLOSE: u8 = 0x03;
/// Message kind: client asks the server to drain all sessions and exit.
pub const KIND_SHUTDOWN: u8 = 0x04;
/// Message kind: client asks for a metrics scrape (and optionally the
/// buffered event log).
pub const KIND_METRICS: u8 = 0x05;
/// Message kind: client streams a chunk of trace records into a
/// session, tagged with a monotonic per-session sequence number so
/// delivery is resumable (`docs/FAULT_TOLERANCE.md`). Kind 0x02, the
/// unsequenced chunk of wire version 1, is retired and unassigned.
pub const KIND_SEQ_CHUNK: u8 = 0x06;
/// Message kind: a reconnecting client re-attaches to a session and
/// asks where delivery stopped.
pub const KIND_RESUME: u8 = 0x07;
/// Message kind: server acknowledges an open with the session id.
pub const KIND_OPENED: u8 = 0x81;
/// Message kind: server returns a counter snapshot after a chunk.
pub const KIND_STATS: u8 = 0x82;
/// Message kind: server returns a session's end-of-stream summary.
pub const KIND_SUMMARY: u8 = 0x83;
/// Message kind: server acknowledges a shutdown after draining.
pub const KIND_SHUTDOWN_ACK: u8 = 0x84;
/// Message kind: server returns a rendered metrics scrape.
pub const KIND_METRICS_REPLY: u8 = 0x85;
/// Message kind: server answers a `Resume` with the session's journal
/// position (last applied sequence number + counter snapshot).
pub const KIND_RESUMED: u8 = 0x86;
/// Message kind: server sheds load — the request was refused by
/// admission control and is safe to retry after a hinted delay.
pub const KIND_BUSY: u8 = 0x87;
/// Message kind: server reports a typed failure.
pub const KIND_ERROR: u8 = 0x8F;

/// Prefix the server puts on `Error` messages that report a *framing*
/// failure (corrupt, truncated, or oversized bytes on the wire) rather
/// than an application-level refusal. A client seeing it knows the
/// request may have been mangled in flight and is safe to retry over a
/// fresh connection (idempotently, via the resume protocol) — unlike
/// every other server error, which is authoritative.
pub const FRAMING_ERROR_PREFIX: &str = "bad frame: ";

/// Upper bound accepted for any table-size field in a decoded config
/// (a cache's size counts in 64-byte lines). A corrupt-but-checksummed
/// open request must not drive a giant allocation when the session is
/// built.
pub const MAX_CONFIG_ENTRIES: u64 = 1 << 28;

/// Everything a tenant chooses at session-open time.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenRequest {
    /// Cache hierarchy + latency model for this tenant.
    pub system: SystemConfig,
    /// Predictor table geometry for this tenant.
    pub prefetch: PrefetchConfig,
    /// Which predictor to run.
    pub predictor: Predictor,
    /// Optional coherence-invalidation injection `(rate, seed)`.
    pub invalidations: Option<(f64, u64)>,
}

/// Per-chunk counter snapshot streamed back after every chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkStats {
    /// Which session the snapshot describes.
    pub session: u32,
    /// Cumulative records fed into the session so far.
    pub accesses_fed: u64,
    /// Counter state after the chunk (not finalized).
    pub counters: Counters,
}

/// End-of-stream summary returned on close (and per session on drain).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionSummary {
    /// Which session the summary describes.
    pub session: u32,
    /// Total records fed into the session.
    pub accesses_fed: u64,
    /// Finalized counters (in-flight prefetches counted as
    /// overpredictions, exactly like [`crate::Session::finalize`]).
    pub counters: Counters,
    /// Reconstruction placement stats, when the predictor was STeMS.
    pub recon: Option<ReconStats>,
    /// Total PST key probes, when the predictor was STeMS.
    pub pst_probes: Option<u64>,
}

/// A metrics scrape rendered by the server.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsReply {
    /// Prometheus-style text exposition (`name{label="v"} value`
    /// lines): the process-wide registry followed by each live
    /// session's registry labeled `session="N"`.
    pub exposition: String,
    /// JSON-lines event log drained from the server's ring; empty when
    /// the request did not ask for events (draining is destructive, so
    /// it is opt-in).
    pub events: String,
}

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a session with the given tenant configuration.
    Open(Box<OpenRequest>),
    /// Feed a chunk of records into an open session, tagged with a
    /// monotonic per-session sequence number so delivery is idempotent
    /// — a chunk whose `seq` the session has already applied is skipped
    /// and answered from the journal instead of re-run (exactly-once
    /// application under retries).
    SeqChunk {
        /// Target session id (from [`Response::Opened`]).
        session: u32,
        /// 1-based position of this chunk in the session's stream
        /// (0 does not decode). The server applies `seq == last_seq +
        /// 1`, dedupes `seq <= last_seq`, and rejects gaps.
        seq: u64,
        /// The records, in trace order.
        records: Vec<Access>,
    },
    /// Re-attach to a session after a connection fault and learn where
    /// delivery stopped. `last_seq` is the highest sequence number the
    /// client saw acknowledged; the server replies
    /// [`Response::Resumed`] with its own (authoritative, possibly
    /// higher) journal position.
    Resume {
        /// Session to re-attach to.
        session: u32,
        /// Highest sequence number the client saw acknowledged.
        last_seq: u64,
    },
    /// Close a session; the server replies with its [`SessionSummary`].
    Close {
        /// Session to close.
        session: u32,
    },
    /// Drain every open session (each produces a summary) and shut the
    /// server down.
    Shutdown,
    /// Ask for a metrics scrape; the server replies with a
    /// [`MetricsReply`]. Read-only with respect to sessions — safe to
    /// issue from a monitoring connection while tenants stream.
    Metrics {
        /// Also drain the buffered event ring into the reply
        /// (destructive: drained events are gone).
        drain_events: bool,
    },
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A session was opened.
    Opened {
        /// Server-assigned session id, unique per connection lifetime.
        session: u32,
    },
    /// Counter snapshot after a chunk.
    Stats(ChunkStats),
    /// End-of-stream summary for a closed (or drained) session.
    Summary(Box<SessionSummary>),
    /// A rendered metrics scrape.
    MetricsReply(Box<MetricsReply>),
    /// Answer to [`Request::Resume`]: the session's journal position.
    /// The client drops buffered chunks with `seq <= last_seq` (they
    /// were applied) and resends the rest.
    Resumed {
        /// The re-attached session.
        session: u32,
        /// Highest sequence number the session has applied.
        last_seq: u64,
        /// Cumulative records fed through `last_seq`.
        accesses_fed: u64,
        /// Counter snapshot at `last_seq` (not finalized).
        counters: Counters,
    },
    /// Admission control refused the request; unlike [`Response::Error`]
    /// this is a *retryable* condition — the server is shedding load,
    /// not reporting a broken request. Clients should back off at least
    /// `retry_after_ms` before retrying.
    Busy {
        /// The session the refusal concerns, when there is one.
        session: Option<u32>,
        /// Server's load-derived hint for the minimum retry delay.
        retry_after_ms: u32,
    },
    /// Drain finished; the server is about to close the connection.
    ShutdownAck {
        /// How many sessions were drained (their summaries precede
        /// this message).
        drained: u32,
    },
    /// A request failed. The connection stays usable unless the
    /// failure was a framing error.
    Error {
        /// The session the failure concerns, when there is one.
        session: Option<u32>,
        /// Human-readable description.
        message: String,
    },
}

// --- column helpers -------------------------------------------------

fn read_u64(payload: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, WireError> {
    let (v, n) = varint::read_u64(&payload[*pos..]).ok_or(WireError::Corrupt(what))?;
    *pos += n;
    Ok(v)
}

fn read_u32(payload: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, WireError> {
    let v = read_u64(payload, pos, what)?;
    u32::try_from(v).map_err(|_| WireError::Corrupt(what))
}

fn read_entries(payload: &[u8], pos: &mut usize, what: &'static str) -> Result<usize, WireError> {
    let v = read_u64(payload, pos, what)?;
    if v > MAX_CONFIG_ENTRIES {
        return Err(WireError::Corrupt("config field out of range"));
    }
    Ok(v as usize)
}

const SYS: &str = "truncated system config";

/// One cache level's geometry, refused unless its size is within
/// [`MAX_CONFIG_ENTRIES`] lines and it passes
/// [`CacheConfig::try_num_sets`], so building the session cannot panic.
fn read_cache(
    payload: &[u8],
    pos: &mut usize,
    size_what: &'static str,
    geometry_what: &'static str,
) -> Result<CacheConfig, WireError> {
    let size_bytes = read_u64(payload, pos, SYS)?;
    if size_bytes / BLOCK_BYTES > MAX_CONFIG_ENTRIES {
        return Err(WireError::Corrupt(size_what));
    }
    let cache = CacheConfig {
        size_bytes,
        associativity: read_entries(payload, pos, SYS)?,
    };
    cache
        .try_num_sets()
        .map_err(|_| WireError::Corrupt(geometry_what))?;
    Ok(cache)
}

fn read_f64(payload: &[u8], pos: &mut usize, what: &'static str) -> Result<f64, WireError> {
    Ok(f64::from_bits(read_u64(payload, pos, what)?))
}

fn write_counters(out: &mut Vec<u8>, c: &Counters) {
    for v in [
        c.accesses,
        c.reads,
        c.l1_hits,
        c.l2_hits,
        c.covered,
        c.uncovered,
        c.overpredictions,
        c.fetches,
        c.offchip_writes,
        c.invalidations,
    ] {
        varint::write_u64(out, v);
    }
}

fn read_counters(payload: &[u8], pos: &mut usize) -> Result<Counters, WireError> {
    let mut vals = [0u64; 10];
    for v in &mut vals {
        *v = read_u64(payload, pos, "truncated counters")?;
    }
    Ok(Counters {
        accesses: vals[0],
        reads: vals[1],
        l1_hits: vals[2],
        l2_hits: vals[3],
        covered: vals[4],
        uncovered: vals[5],
        overpredictions: vals[6],
        fetches: vals[7],
        offchip_writes: vals[8],
        invalidations: vals[9],
    })
}

fn write_open(out: &mut Vec<u8>, o: &OpenRequest) {
    let s = &o.system;
    for v in [
        s.l1.size_bytes,
        s.l1.associativity as u64,
        s.l2.size_bytes,
        s.l2.associativity as u64,
        s.clock_ghz.to_bits(),
        s.l1_latency,
        s.l2_latency,
        s.mem_latency_ns.to_bits(),
        s.hop_latency_ns.to_bits(),
        s.nodes as u64,
        s.rob_entries as u64,
        s.width as u64,
        s.mshrs as u64,
    ] {
        varint::write_u64(out, v);
    }
    let p = &o.prefetch;
    for v in [
        p.svb_entries,
        p.stream_queues,
        p.lookahead,
        p.agt_entries,
        p.pht_entries,
        p.pst_entries,
        p.cmob_entries,
        p.rmob_entries,
        p.recon_entries,
        p.recon_search,
        p.stride_entries,
        p.stride_degree,
        p.refill_threshold,
        p.refill_chunk,
    ] {
        varint::write_u64(out, v as u64);
    }
    out.push(p.spatial_only_streams as u8);
    let idx = Predictor::ALL
        .iter()
        .position(|k| *k == o.predictor)
        .expect("predictor not in Predictor::ALL");
    out.push(idx as u8);
    match o.invalidations {
        None => out.push(0),
        Some((rate, seed)) => {
            out.push(1);
            varint::write_u64(out, rate.to_bits());
            varint::write_u64(out, seed);
        }
    }
}

fn read_open(payload: &[u8], pos: &mut usize) -> Result<OpenRequest, WireError> {
    const PF: &str = "truncated prefetch config";
    let system = SystemConfig {
        l1: read_cache(
            payload,
            pos,
            "config field l1.size_bytes out of range",
            "config field l1 has an invalid cache geometry",
        )?,
        l2: read_cache(
            payload,
            pos,
            "config field l2.size_bytes out of range",
            "config field l2 has an invalid cache geometry",
        )?,
        clock_ghz: read_f64(payload, pos, SYS)?,
        l1_latency: read_u64(payload, pos, SYS)?,
        l2_latency: read_u64(payload, pos, SYS)?,
        mem_latency_ns: read_f64(payload, pos, SYS)?,
        hop_latency_ns: read_f64(payload, pos, SYS)?,
        nodes: read_entries(payload, pos, SYS)?,
        rob_entries: read_entries(payload, pos, SYS)?,
        width: read_entries(payload, pos, SYS)?,
        mshrs: read_entries(payload, pos, SYS)?,
    };
    let mut pf = [0usize; 14];
    for v in &mut pf {
        *v = read_entries(payload, pos, PF)?;
    }
    let flags = *payload.get(*pos).ok_or(WireError::Corrupt(PF))?;
    *pos += 1;
    if flags > 1 {
        return Err(WireError::Corrupt("bad spatial_only_streams flag"));
    }
    let prefetch = PrefetchConfig {
        svb_entries: pf[0],
        stream_queues: pf[1],
        lookahead: pf[2],
        agt_entries: pf[3],
        pht_entries: pf[4],
        pst_entries: pf[5],
        cmob_entries: pf[6],
        rmob_entries: pf[7],
        recon_entries: pf[8],
        recon_search: pf[9],
        stride_entries: pf[10],
        stride_degree: pf[11],
        refill_threshold: pf[12],
        refill_chunk: pf[13],
        spatial_only_streams: flags == 1,
    };
    // Tables whose structures refuse zero entries at construction, so a
    // session for any predictor can be built from the config.
    for (entries, what) in [
        (prefetch.svb_entries, "config field svb_entries is zero"),
        (prefetch.stream_queues, "config field stream_queues is zero"),
        (prefetch.agt_entries, "config field agt_entries is zero"),
        (prefetch.pht_entries, "config field pht_entries is zero"),
        (prefetch.pst_entries, "config field pst_entries is zero"),
        (prefetch.cmob_entries, "config field cmob_entries is zero"),
        (prefetch.rmob_entries, "config field rmob_entries is zero"),
        (
            prefetch.stride_entries,
            "config field stride_entries is zero",
        ),
    ] {
        if entries == 0 {
            return Err(WireError::Corrupt(what));
        }
    }
    let pidx = *payload
        .get(*pos)
        .ok_or(WireError::Corrupt("truncated predictor"))?;
    *pos += 1;
    let predictor = *Predictor::ALL
        .get(pidx as usize)
        .ok_or(WireError::Corrupt("unknown predictor index"))?;
    let inv_flag = *payload
        .get(*pos)
        .ok_or(WireError::Corrupt("truncated invalidations"))?;
    *pos += 1;
    let invalidations = match inv_flag {
        0 => None,
        1 => {
            let rate = read_f64(payload, pos, "truncated invalidations")?;
            let seed = read_u64(payload, pos, "truncated invalidations")?;
            Some((rate, seed))
        }
        _ => return Err(WireError::Corrupt("bad invalidations flag")),
    };
    Ok(OpenRequest {
        system,
        prefetch,
        predictor,
        invalidations,
    })
}

fn write_seq_chunk(out: &mut Vec<u8>, session: u32, seq: u64, records: &[Access]) {
    varint::write_u64(out, session as u64);
    varint::write_u64(out, seq);
    varint::write_u64(out, records.len() as u64);
    encode_records(records, out);
}

/// Appends one complete `SeqChunk` wire message for borrowed records —
/// byte-identical to encoding [`Request::SeqChunk`] with the same data,
/// but without cloning the records into an owned `Vec`. This is the
/// streaming client's hot path: trace-store chunks arrive as borrowed
/// slices.
pub fn encode_seq_chunk(
    out: &mut Vec<u8>,
    scratch: &mut Vec<u8>,
    session: u32,
    seq: u64,
    records: &[Access],
) {
    scratch.clear();
    write_seq_chunk(scratch, session, seq, records);
    wire::encode_message(out, KIND_SEQ_CHUNK, scratch);
}

/// Decodes a chunk's record columns into the allocation taken out of
/// `spare`.
fn read_records(
    columns: &[u8],
    count: u32,
    spare: &mut Vec<Access>,
) -> Result<Vec<Access>, WireError> {
    if count as usize > MAX_FRAME_RECORDS {
        return Err(WireError::Corrupt("chunk record count out of range"));
    }
    let mut records = std::mem::take(spare);
    decode_records(columns, count as usize, &mut records).map_err(WireError::Corrupt)?;
    Ok(records)
}

// --- requests -------------------------------------------------------

impl Request {
    /// The wire kind byte this request is framed with.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Open(_) => KIND_OPEN,
            Request::SeqChunk { .. } => KIND_SEQ_CHUNK,
            Request::Resume { .. } => KIND_RESUME,
            Request::Close { .. } => KIND_CLOSE,
            Request::Shutdown => KIND_SHUTDOWN,
            Request::Metrics { .. } => KIND_METRICS,
        }
    }

    /// Appends this request to `out` as one complete wire message.
    ///
    /// `scratch` holds the payload between calls so steady-state
    /// streaming does not allocate.
    pub fn encode(&self, out: &mut Vec<u8>, scratch: &mut Vec<u8>) {
        scratch.clear();
        match self {
            Request::Open(o) => write_open(scratch, o),
            Request::SeqChunk {
                session,
                seq,
                records,
            } => write_seq_chunk(scratch, *session, *seq, records),
            Request::Resume { session, last_seq } => {
                varint::write_u64(scratch, *session as u64);
                varint::write_u64(scratch, *last_seq);
            }
            Request::Close { session } => varint::write_u64(scratch, *session as u64),
            Request::Shutdown => {}
            Request::Metrics { drain_events } => scratch.push(*drain_events as u8),
        }
        wire::encode_message(out, self.kind(), scratch);
    }

    /// Decodes a request from a verified message payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
        Request::decode_reusing(kind, payload, &mut Vec::new())
    }

    /// [`Request::decode`], but a chunk's records are decoded into the
    /// allocation taken out of `records`, which is left empty.
    fn decode_reusing(
        kind: u8,
        payload: &[u8],
        records: &mut Vec<Access>,
    ) -> Result<Request, WireError> {
        let mut pos = 0usize;
        let req = match kind {
            KIND_OPEN => Request::Open(Box::new(read_open(payload, &mut pos)?)),
            KIND_SEQ_CHUNK => {
                let session = read_u32(payload, &mut pos, "truncated seq chunk header")?;
                let seq = read_u64(payload, &mut pos, "truncated seq chunk header")?;
                // Sequence numbers are 1-based: a 0 would read as a
                // duplicate of "nothing applied yet" and be dropped.
                if seq == 0 {
                    return Err(WireError::Corrupt("seq chunk sequence is zero"));
                }
                let count = read_u32(payload, &mut pos, "truncated seq chunk header")?;
                let records = read_records(&payload[pos..], count, records)?;
                return Ok(Request::SeqChunk {
                    session,
                    seq,
                    records,
                });
            }
            KIND_RESUME => Request::Resume {
                session: read_u32(payload, &mut pos, "truncated resume")?,
                last_seq: read_u64(payload, &mut pos, "truncated resume")?,
            },
            KIND_CLOSE => Request::Close {
                session: read_u32(payload, &mut pos, "truncated close")?,
            },
            KIND_SHUTDOWN => Request::Shutdown,
            KIND_METRICS => {
                let flag = *payload
                    .get(pos)
                    .ok_or(WireError::Corrupt("truncated metrics request"))?;
                pos += 1;
                if flag > 1 {
                    return Err(WireError::Corrupt("bad drain_events flag"));
                }
                Request::Metrics {
                    drain_events: flag == 1,
                }
            }
            other => return Err(WireError::UnknownKind { kind: other }),
        };
        if pos != payload.len() {
            return Err(WireError::Corrupt("trailing bytes after request"));
        }
        Ok(req)
    }

    /// Writes this request to a transport as one wire message.
    pub fn write_to<W: Write>(
        &self,
        w: &mut W,
        frame: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        frame.clear();
        self.encode(frame, scratch);
        w.write_all(frame)?;
        Ok(())
    }

    /// Reads one request from a transport. `Ok(None)` means the peer
    /// closed the connection cleanly between messages.
    ///
    /// A chunk's records are decoded into the allocation taken out of
    /// `records`, which is left empty; a caller that puts the `Vec` back
    /// after handling the chunk reads a stream of chunks without
    /// allocating per chunk.
    pub fn read_from<R: Read>(
        r: &mut R,
        payload: &mut Vec<u8>,
        records: &mut Vec<Access>,
    ) -> Result<Option<Request>, WireError> {
        match wire::read_message(r, payload)? {
            None => Ok(None),
            Some(kind) => Request::decode_reusing(kind, payload, records).map(Some),
        }
    }
}

// --- responses ------------------------------------------------------

impl Response {
    /// The wire kind byte this response is framed with.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Opened { .. } => KIND_OPENED,
            Response::Stats(_) => KIND_STATS,
            Response::Summary(_) => KIND_SUMMARY,
            Response::MetricsReply(_) => KIND_METRICS_REPLY,
            Response::Resumed { .. } => KIND_RESUMED,
            Response::Busy { .. } => KIND_BUSY,
            Response::ShutdownAck { .. } => KIND_SHUTDOWN_ACK,
            Response::Error { .. } => KIND_ERROR,
        }
    }

    /// Appends this response to `out` as one complete wire message.
    pub fn encode(&self, out: &mut Vec<u8>, scratch: &mut Vec<u8>) {
        scratch.clear();
        match self {
            Response::Opened { session } => varint::write_u64(scratch, *session as u64),
            Response::Stats(s) => {
                varint::write_u64(scratch, s.session as u64);
                varint::write_u64(scratch, s.accesses_fed);
                write_counters(scratch, &s.counters);
            }
            Response::Summary(s) => {
                varint::write_u64(scratch, s.session as u64);
                varint::write_u64(scratch, s.accesses_fed);
                write_counters(scratch, &s.counters);
                match s.recon {
                    None => scratch.push(0),
                    Some(r) => {
                        scratch.push(1);
                        for v in [
                            r.exact,
                            r.shifted1,
                            r.shifted2,
                            r.dropped_conflict,
                            r.dropped_window,
                        ] {
                            varint::write_u64(scratch, v);
                        }
                    }
                }
                match s.pst_probes {
                    None => scratch.push(0),
                    Some(p) => {
                        scratch.push(1);
                        varint::write_u64(scratch, p);
                    }
                }
            }
            Response::MetricsReply(m) => {
                varint::write_u64(scratch, m.exposition.len() as u64);
                scratch.extend_from_slice(m.exposition.as_bytes());
                varint::write_u64(scratch, m.events.len() as u64);
                scratch.extend_from_slice(m.events.as_bytes());
            }
            Response::Resumed {
                session,
                last_seq,
                accesses_fed,
                counters,
            } => {
                varint::write_u64(scratch, *session as u64);
                varint::write_u64(scratch, *last_seq);
                varint::write_u64(scratch, *accesses_fed);
                write_counters(scratch, counters);
            }
            Response::Busy {
                session,
                retry_after_ms,
            } => {
                match session {
                    None => scratch.push(0),
                    Some(s) => {
                        scratch.push(1);
                        varint::write_u64(scratch, *s as u64);
                    }
                }
                varint::write_u64(scratch, *retry_after_ms as u64);
            }
            Response::ShutdownAck { drained } => varint::write_u64(scratch, *drained as u64),
            Response::Error { session, message } => {
                match session {
                    None => scratch.push(0),
                    Some(s) => {
                        scratch.push(1);
                        varint::write_u64(scratch, *s as u64);
                    }
                }
                varint::write_u64(scratch, message.len() as u64);
                scratch.extend_from_slice(message.as_bytes());
            }
        }
        wire::encode_message(out, self.kind(), scratch);
    }

    /// Decodes a response from a verified message payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
        let mut pos = 0usize;
        let resp = match kind {
            KIND_OPENED => Response::Opened {
                session: read_u32(payload, &mut pos, "truncated opened")?,
            },
            KIND_STATS => Response::Stats(ChunkStats {
                session: read_u32(payload, &mut pos, "truncated stats")?,
                accesses_fed: read_u64(payload, &mut pos, "truncated stats")?,
                counters: read_counters(payload, &mut pos)?,
            }),
            KIND_SUMMARY => {
                let session = read_u32(payload, &mut pos, "truncated summary")?;
                let accesses_fed = read_u64(payload, &mut pos, "truncated summary")?;
                let counters = read_counters(payload, &mut pos)?;
                let recon_flag = *payload
                    .get(pos)
                    .ok_or(WireError::Corrupt("truncated summary"))?;
                pos += 1;
                let recon = match recon_flag {
                    0 => None,
                    1 => {
                        let mut vals = [0u64; 5];
                        for v in &mut vals {
                            *v = read_u64(payload, &mut pos, "truncated recon stats")?;
                        }
                        Some(ReconStats {
                            exact: vals[0],
                            shifted1: vals[1],
                            shifted2: vals[2],
                            dropped_conflict: vals[3],
                            dropped_window: vals[4],
                        })
                    }
                    _ => return Err(WireError::Corrupt("bad recon flag")),
                };
                let probes_flag = *payload
                    .get(pos)
                    .ok_or(WireError::Corrupt("truncated summary"))?;
                pos += 1;
                let pst_probes = match probes_flag {
                    0 => None,
                    1 => Some(read_u64(payload, &mut pos, "truncated summary")?),
                    _ => return Err(WireError::Corrupt("bad pst_probes flag")),
                };
                Response::Summary(Box::new(SessionSummary {
                    session,
                    accesses_fed,
                    counters,
                    recon,
                    pst_probes,
                }))
            }
            KIND_METRICS_REPLY => {
                let mut read_text = |what: &'static str| -> Result<String, WireError> {
                    let len = read_u64(payload, &mut pos, what)? as usize;
                    let end = pos.checked_add(len).ok_or(WireError::Corrupt(what))?;
                    let bytes = payload.get(pos..end).ok_or(WireError::Corrupt(what))?;
                    pos = end;
                    String::from_utf8(bytes.to_vec())
                        .map_err(|_| WireError::Corrupt("metrics text is not utf-8"))
                };
                let exposition = read_text("truncated metrics exposition")?;
                let events = read_text("truncated metrics events")?;
                Response::MetricsReply(Box::new(MetricsReply { exposition, events }))
            }
            KIND_RESUMED => Response::Resumed {
                session: read_u32(payload, &mut pos, "truncated resumed")?,
                last_seq: read_u64(payload, &mut pos, "truncated resumed")?,
                accesses_fed: read_u64(payload, &mut pos, "truncated resumed")?,
                counters: read_counters(payload, &mut pos)?,
            },
            KIND_BUSY => {
                let flag = *payload
                    .get(pos)
                    .ok_or(WireError::Corrupt("truncated busy"))?;
                pos += 1;
                let session = match flag {
                    0 => None,
                    1 => Some(read_u32(payload, &mut pos, "truncated busy")?),
                    _ => return Err(WireError::Corrupt("bad busy session flag")),
                };
                Response::Busy {
                    session,
                    retry_after_ms: read_u32(payload, &mut pos, "truncated busy")?,
                }
            }
            KIND_SHUTDOWN_ACK => Response::ShutdownAck {
                drained: read_u32(payload, &mut pos, "truncated shutdown ack")?,
            },
            KIND_ERROR => {
                let flag = *payload
                    .get(pos)
                    .ok_or(WireError::Corrupt("truncated error"))?;
                pos += 1;
                let session = match flag {
                    0 => None,
                    1 => Some(read_u32(payload, &mut pos, "truncated error")?),
                    _ => return Err(WireError::Corrupt("bad error session flag")),
                };
                let len = read_u64(payload, &mut pos, "truncated error")? as usize;
                let end = pos
                    .checked_add(len)
                    .ok_or(WireError::Corrupt("truncated error message"))?;
                let bytes = payload
                    .get(pos..end)
                    .ok_or(WireError::Corrupt("truncated error message"))?;
                pos = end;
                let message = String::from_utf8(bytes.to_vec())
                    .map_err(|_| WireError::Corrupt("error message is not utf-8"))?;
                Response::Error { session, message }
            }
            other => return Err(WireError::UnknownKind { kind: other }),
        };
        if pos != payload.len() {
            return Err(WireError::Corrupt("trailing bytes after response"));
        }
        Ok(resp)
    }

    /// Writes this response to a transport as one wire message.
    pub fn write_to<W: Write>(
        &self,
        w: &mut W,
        frame: &mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        frame.clear();
        self.encode(frame, scratch);
        w.write_all(frame)?;
        Ok(())
    }

    /// Reads one response from a transport. `Ok(None)` means the peer
    /// closed the connection cleanly between messages.
    pub fn read_from<R: Read>(
        r: &mut R,
        payload: &mut Vec<u8>,
    ) -> Result<Option<Response>, WireError> {
        match wire::read_message(r, payload)? {
            None => Ok(None),
            Some(kind) => Response::decode(kind, payload).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use stems_types::{Addr, Pc};

    fn sample_open() -> OpenRequest {
        OpenRequest {
            system: SystemConfig::small(),
            prefetch: PrefetchConfig::small(),
            predictor: Predictor::Tms,
            invalidations: Some((0.001, 0xC0FFEE)),
        }
    }

    fn round_trip_request(req: &Request) -> Request {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        req.encode(&mut out, &mut scratch);
        let (kind, payload, n) = wire::decode_message(&out).unwrap();
        assert_eq!(n, out.len());
        Request::decode(kind, payload).unwrap()
    }

    fn round_trip_response(resp: &Response) -> Response {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        resp.encode(&mut out, &mut scratch);
        let (kind, payload, n) = wire::decode_message(&out).unwrap();
        assert_eq!(n, out.len());
        Response::decode(kind, payload).unwrap()
    }

    #[test]
    fn every_request_round_trips() {
        let records: Vec<Access> = (0..100)
            .map(|i| Access::read(Pc::new(0x400 + i * 4), Addr::new(i * 64 + (1 << 20))))
            .collect();
        for req in [
            Request::Open(Box::new(sample_open())),
            Request::SeqChunk {
                session: 7,
                seq: 2,
                records,
            },
            Request::SeqChunk {
                session: 0,
                seq: 1,
                records: Vec::new(),
            },
            Request::SeqChunk {
                session: 7,
                seq: 1,
                records: (0..50)
                    .map(|i| Access::read(Pc::new(0x800 + i * 4), Addr::new(i * 64)))
                    .collect(),
            },
            Request::SeqChunk {
                session: 1,
                seq: u64::MAX,
                records: Vec::new(),
            },
            Request::Resume {
                session: 7,
                last_seq: 0,
            },
            Request::Resume {
                session: 3,
                last_seq: 0xFFFF_FFFF_FFFF,
            },
            Request::Close { session: 9 },
            Request::Shutdown,
            Request::Metrics {
                drain_events: false,
            },
            Request::Metrics { drain_events: true },
        ] {
            assert_eq!(round_trip_request(&req), req);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let counters = Counters {
            accesses: 1,
            reads: 2,
            l1_hits: 3,
            l2_hits: 4,
            covered: 5,
            uncovered: 6,
            overpredictions: 7,
            fetches: 8,
            offchip_writes: 9,
            invalidations: 10,
        };
        for resp in [
            Response::Opened { session: 3 },
            Response::Stats(ChunkStats {
                session: 3,
                accesses_fed: 1234,
                counters,
            }),
            Response::Summary(Box::new(SessionSummary {
                session: 3,
                accesses_fed: 1234,
                counters,
                recon: Some(ReconStats {
                    exact: 1,
                    shifted1: 2,
                    shifted2: 3,
                    dropped_conflict: 4,
                    dropped_window: 5,
                }),
                pst_probes: Some(42),
            })),
            Response::Summary(Box::new(SessionSummary {
                session: 4,
                accesses_fed: 0,
                counters: Counters::default(),
                recon: None,
                pst_probes: None,
            })),
            Response::MetricsReply(Box::new(MetricsReply {
                exposition: "stems_chunks_total 3\nstems_accesses_total{session=\"1\"} 640\n"
                    .into(),
                events: "{\"nanos\":1,\"level\":\"INFO\",\"event\":\"session_open\"}\n".into(),
            })),
            Response::MetricsReply(Box::default()),
            Response::Resumed {
                session: 3,
                last_seq: 17,
                accesses_fed: 1234,
                counters,
            },
            Response::Busy {
                session: Some(3),
                retry_after_ms: 250,
            },
            Response::Busy {
                session: None,
                retry_after_ms: 0,
            },
            Response::ShutdownAck { drained: 2 },
            Response::Error {
                session: Some(1),
                message: "no such session".into(),
            },
            Response::Error {
                session: None,
                message: String::new(),
            },
        ] {
            assert_eq!(round_trip_response(&resp), resp);
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_typed_errors() {
        assert!(matches!(
            Request::decode(0x77, &[]),
            Err(WireError::UnknownKind { kind: 0x77 })
        ));
        assert!(matches!(
            Response::decode(0x77, &[]),
            Err(WireError::UnknownKind { kind: 0x77 })
        ));
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        Request::Close { session: 1 }.encode(&mut out, &mut scratch);
        let (kind, payload, _) = wire::decode_message(&out).unwrap();
        let mut padded = payload.to_vec();
        padded.push(0);
        assert!(matches!(
            Request::decode(kind, &padded),
            Err(WireError::Corrupt("trailing bytes after request"))
        ));
    }

    #[test]
    fn hostile_metrics_payloads_are_typed_errors() {
        assert!(matches!(
            Request::decode(KIND_METRICS, &[]),
            Err(WireError::Corrupt("truncated metrics request"))
        ));
        assert!(matches!(
            Request::decode(KIND_METRICS, &[2]),
            Err(WireError::Corrupt("bad drain_events flag"))
        ));
        // A reply whose exposition length runs past the payload is
        // truncated, not a panic or an over-read.
        let mut bad = Vec::new();
        varint::write_u64(&mut bad, 1000);
        bad.extend_from_slice(b"short");
        assert!(matches!(
            Response::decode(KIND_METRICS_REPLY, &bad),
            Err(WireError::Corrupt("truncated metrics exposition"))
        ));
        // Non-UTF-8 text is rejected.
        let mut nonutf = Vec::new();
        varint::write_u64(&mut nonutf, 1);
        nonutf.push(0xFF);
        varint::write_u64(&mut nonutf, 0);
        assert!(matches!(
            Response::decode(KIND_METRICS_REPLY, &nonutf),
            Err(WireError::Corrupt("metrics text is not utf-8"))
        ));
    }

    /// The payload of an encoded `Open` for `open`.
    fn open_payload(open: OpenRequest) -> Vec<u8> {
        let mut out = Vec::new();
        Request::Open(Box::new(open)).encode(&mut out, &mut Vec::new());
        wire::decode_message(&out).unwrap().1.to_vec()
    }

    /// `payload` with its `field`-th leading varint (the config fields,
    /// in encoding order) replaced by `value`.
    fn with_field(payload: &[u8], field: usize, value: u64) -> Vec<u8> {
        let mut pos = 0;
        for _ in 0..field {
            pos += varint::read_u64(&payload[pos..]).unwrap().1;
        }
        let mut out = payload[..pos].to_vec();
        varint::write_u64(&mut out, value);
        out.extend_from_slice(&payload[pos + varint::read_u64(&payload[pos..]).unwrap().1..]);
        out
    }

    #[test]
    fn hostile_open_fields_are_rejected() {
        let payload = open_payload(sample_open());
        // Field 1 is l1.associativity; field 0 (l1.size_bytes) is bounded
        // in lines.
        for (field, value, want) in [
            (1, MAX_CONFIG_ENTRIES + 1, "config field out of range"),
            (
                0,
                (MAX_CONFIG_ENTRIES + 1) * 64,
                "config field l1.size_bytes out of range",
            ),
        ] {
            let bad = with_field(&payload, field, value);
            assert!(matches!(
                Request::decode(KIND_OPEN, &bad),
                Err(WireError::Corrupt(got)) if got == want
            ));
        }
        // Truncation at every byte boundary is typed, never a panic.
        for cut in 0..payload.len() {
            assert!(Request::decode(KIND_OPEN, &payload[..cut]).is_err());
        }
    }

    /// Every config field at 0, and an L1 of 3 sets, 0 ways or
    /// `u16::MAX` ways, under every predictor: the `Open` is refused as
    /// `Corrupt`, or it builds a session that runs a chunk without
    /// panicking.
    #[test]
    fn degenerate_open_configs_are_refused_or_run() {
        // 13 system + 14 prefetch varints; l1 is fields 0 (size_bytes)
        // and 1 (associativity).
        const CONFIG_FIELDS: usize = 27;
        let trace: Vec<Access> = (0..2000u64)
            .map(|i| Access::read(Pc::new(0x400 + i % 7), Addr::new((i * 7919 % 512) * 64)))
            .collect();
        for predictor in Predictor::ALL {
            let payload = open_payload(OpenRequest {
                predictor,
                ..sample_open()
            });
            let mut variants: Vec<Vec<u8>> = (0..CONFIG_FIELDS)
                .map(|field| with_field(&payload, field, 0))
                .collect();
            let ways = u16::MAX as u64;
            variants.push(with_field(&with_field(&payload, 0, 3 * 2 * 64), 1, 2));
            variants.push(with_field(&with_field(&payload, 0, ways * 64), 1, ways));
            for (i, bad) in variants.iter().enumerate() {
                match Request::decode(KIND_OPEN, bad) {
                    Err(WireError::Corrupt(_)) => {}
                    Ok(Request::Open(open)) => {
                        let mut b = Session::builder(&open.system)
                            .prefetch(&open.prefetch)
                            .predictor(open.predictor);
                        if let Some((rate, seed)) = open.invalidations {
                            b = b.invalidations(rate, seed);
                        }
                        let mut session = b.build();
                        session.run_chunk(&trace);
                        session.finalize();
                    }
                    other => panic!("variant {i} under {predictor:?}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn chunk_count_binds_the_columns() {
        let records: Vec<Access> = (0..10)
            .map(|i| Access::read(Pc::new(0x400), Addr::new(i * 64)))
            .collect();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        Request::SeqChunk {
            session: 1,
            seq: 1,
            records,
        }
        .encode(&mut out, &mut scratch);
        let (_, payload, _) = wire::decode_message(&out).unwrap();
        // Bump the count without extending the columns: typed corrupt.
        let mut bad = Vec::new();
        varint::write_u64(&mut bad, 1); // session
        varint::write_u64(&mut bad, 1); // seq
        varint::write_u64(&mut bad, 11); // count, one too many
        let mut pos = 0;
        for _ in 0..3 {
            pos += varint::read_u64(&payload[pos..]).unwrap().1;
        }
        bad.extend_from_slice(&payload[pos..]);
        assert!(Request::decode(KIND_SEQ_CHUNK, &bad).is_err());
    }

    #[test]
    fn seq_chunk_helper_matches_owned_encoding() {
        let records: Vec<Access> = (0..64)
            .map(|i| Access::read(Pc::new(0x400 + i * 4), Addr::new(i * 64)))
            .collect();
        let mut owned = Vec::new();
        let mut scratch = Vec::new();
        Request::SeqChunk {
            session: 5,
            seq: 42,
            records: records.clone(),
        }
        .encode(&mut owned, &mut scratch);
        let mut borrowed = Vec::new();
        encode_seq_chunk(&mut borrowed, &mut scratch, 5, 42, &records);
        assert_eq!(owned, borrowed);
    }

    #[test]
    fn chunks_decode_into_the_callers_allocation() {
        let records: Vec<Access> = (0..64)
            .map(|i| Access::read(Pc::new(0x400 + i * 4), Addr::new(i * 64)))
            .collect();
        let (mut frame, mut scratch) = (Vec::new(), Vec::new());
        encode_seq_chunk(&mut frame, &mut scratch, 5, 42, &records);
        let mut spare = Vec::with_capacity(256);
        for _ in 0..3 {
            let buffer = spare.as_ptr();
            let request = Request::read_from(&mut frame.as_slice(), &mut scratch, &mut spare)
                .unwrap()
                .unwrap();
            let Request::SeqChunk {
                session: 5,
                seq: 42,
                records: got,
            } = request
            else {
                panic!("expected the SeqChunk back, got {request:?}");
            };
            assert_eq!(got, records);
            assert_eq!(got.as_ptr(), buffer, "decoded in place, no new allocation");
            assert!(spare.is_empty());
            spare = got;
        }
    }

    #[test]
    fn hostile_seq_chunk_and_resume_payloads_are_typed_errors() {
        // Oversized count is rejected before any column decoding.
        let mut huge = Vec::new();
        varint::write_u64(&mut huge, 1); // session
        varint::write_u64(&mut huge, 7); // seq
        varint::write_u64(&mut huge, (MAX_FRAME_RECORDS + 1) as u64);
        assert!(matches!(
            Request::decode(KIND_SEQ_CHUNK, &huge),
            Err(WireError::Corrupt("chunk record count out of range"))
        ));
        // Truncation at every byte boundary is typed, never a panic.
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let records: Vec<Access> = (0..4)
            .map(|i| Access::read(Pc::new(0x400), Addr::new(i * 64)))
            .collect();
        encode_seq_chunk(&mut out, &mut scratch, 3, 9, &records);
        let (_, payload, _) = wire::decode_message(&out).unwrap();
        for cut in 0..payload.len() {
            assert!(Request::decode(KIND_SEQ_CHUNK, &payload[..cut]).is_err());
        }
        assert!(Request::decode(KIND_RESUME, &[]).is_err());
        // Resume with trailing bytes is rejected.
        let mut resume = Vec::new();
        varint::write_u64(&mut resume, 3);
        varint::write_u64(&mut resume, 9);
        resume.push(0);
        assert!(matches!(
            Request::decode(KIND_RESUME, &resume),
            Err(WireError::Corrupt("trailing bytes after request"))
        ));
    }

    #[test]
    fn seq_zero_and_the_retired_chunk_kind_are_typed_errors() {
        // Sequence numbers are 1-based: the server's journal would take
        // a 0 for a duplicate and drop its records.
        assert!(matches!(
            Request::decode(KIND_SEQ_CHUNK, &[3, 0, 0]), // session 3, seq 0, count 0
            Err(WireError::Corrupt("seq chunk sequence is zero"))
        ));
        // Wire version 2 retired the unsequenced chunk: 0x02 is unassigned.
        assert!(matches!(
            Request::decode(0x02, &[1, 0]),
            Err(WireError::UnknownKind { kind: 0x02 })
        ));
    }

    #[test]
    fn hostile_error_payloads_are_typed_errors() {
        // A message length running past the payload is truncated, and so
        // is one whose end overflows: no arithmetic panic.
        for len in [10, u64::MAX] {
            let mut bad = vec![0];
            varint::write_u64(&mut bad, len);
            bad.extend_from_slice(b"short");
            assert!(matches!(
                Response::decode(KIND_ERROR, &bad),
                Err(WireError::Corrupt("truncated error message"))
            ));
        }
        assert!(matches!(
            Response::decode(KIND_ERROR, &[2]),
            Err(WireError::Corrupt("bad error session flag"))
        ));
    }

    #[test]
    fn hostile_busy_payloads_are_typed_errors() {
        assert!(matches!(
            Response::decode(KIND_BUSY, &[]),
            Err(WireError::Corrupt("truncated busy"))
        ));
        assert!(matches!(
            Response::decode(KIND_BUSY, &[2]),
            Err(WireError::Corrupt("bad busy session flag"))
        ));
        assert!(matches!(
            Response::decode(KIND_BUSY, &[1]),
            Err(WireError::Corrupt("truncated busy"))
        ));
        assert!(Response::decode(KIND_RESUMED, &[]).is_err());
    }
}
