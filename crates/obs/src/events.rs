//! Structured events: typed records in a bounded ring, drainable as
//! JSON-lines.
//!
//! Counters answer "how many"; events answer "what happened, when, to
//! whom". The server pushes an [`Event`] for every lifecycle edge
//! (session open/close/evict/abort, drain start/finish, wire errors by
//! kind, slow-chunk threshold crossings) into an [`EventRing`] — a
//! fixed-capacity ring that overwrites the oldest record under
//! pressure and counts what it dropped, so a stalled scraper can never
//! grow server memory. Draining serialises each record as one JSON
//! object per line.
//!
//! Timestamps are nanoseconds from a caller-supplied
//! [`stems_types::clock::Clock`] origin (the server anchors at bind
//! time), never wall-clock reads inside this crate.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Severity of an event, ordered `Error < Warn < Info < Debug` so a
/// configured level admits everything at or below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogLevel {
    /// Protocol violations, aborted sessions.
    Error,
    /// Degraded-but-alive conditions: evictions, slow chunks.
    Warn,
    /// Normal lifecycle edges.
    Info,
    /// Chatty per-operation detail.
    Debug,
}

impl LogLevel {
    /// Uppercase name as printed in log lines (`ERROR`, `WARN`, ...).
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "ERROR",
            LogLevel::Warn => "WARN",
            LogLevel::Info => "INFO",
            LogLevel::Debug => "DEBUG",
        }
    }
}

impl std::str::FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<LogLevel, String> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(LogLevel::Error),
            "warn" | "warning" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug)"
            )),
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened. Fields carry the identifying detail; anything
/// aggregate belongs in a metric instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A session slot was created for a client.
    SessionOpen {
        /// Server-assigned session id.
        session: u32,
        /// Predictor configuration name.
        predictor: String,
    },
    /// A client closed its session normally.
    SessionClose {
        /// Server-assigned session id.
        session: u32,
        /// Total accesses fed over the session's lifetime.
        accesses: u64,
    },
    /// A reconnecting client re-attached to a live session and the
    /// server replied with its journal position.
    SessionResume {
        /// Server-assigned session id.
        session: u32,
        /// The server's authoritative last applied sequence number.
        last_seq: u64,
    },
    /// The idle sweeper reclaimed a session past its TTL.
    SessionEvict {
        /// Server-assigned session id.
        session: u32,
    },
    /// A session was torn down abnormally (connection worker panicked
    /// or died mid-chunk); its slot was repaired rather than leaked.
    SessionAbort {
        /// Server-assigned session id.
        session: u32,
        /// Short description of why.
        context: String,
    },
    /// Shutdown drain began.
    DrainStart {
        /// Sessions outstanding when the drain started.
        sessions: usize,
    },
    /// Shutdown drain finished.
    DrainFinish {
        /// Sessions still busy when the drain deadline expired.
        sessions: usize,
    },
    /// A connection produced a protocol-level error.
    WireError {
        /// `stems_core::protocol::WireError::kind_name()` of the error.
        kind: &'static str,
    },
    /// A chunk took longer than the configured threshold.
    SlowChunk {
        /// Server-assigned session id.
        session: u32,
        /// Observed chunk latency in nanoseconds.
        nanos: u64,
        /// Records in the offending chunk.
        records: usize,
    },
    /// Free-form operational message (the server's logging path).
    Log {
        /// Severity of the message.
        level: LogLevel,
        /// The message text.
        message: String,
    },
}

impl EventKind {
    /// Stable snake_case name used as the JSON `"event"` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SessionOpen { .. } => "session_open",
            EventKind::SessionClose { .. } => "session_close",
            EventKind::SessionResume { .. } => "session_resume",
            EventKind::SessionEvict { .. } => "session_evict",
            EventKind::SessionAbort { .. } => "session_abort",
            EventKind::DrainStart { .. } => "drain_start",
            EventKind::DrainFinish { .. } => "drain_finish",
            EventKind::WireError { .. } => "wire_error",
            EventKind::SlowChunk { .. } => "slow_chunk",
            EventKind::Log { .. } => "log",
        }
    }

    /// The severity this kind is reported at.
    pub fn level(&self) -> LogLevel {
        match self {
            EventKind::SessionAbort { .. } | EventKind::WireError { .. } => LogLevel::Error,
            EventKind::SessionEvict { .. } | EventKind::SlowChunk { .. } => LogLevel::Warn,
            EventKind::SessionOpen { .. }
            | EventKind::SessionClose { .. }
            | EventKind::SessionResume { .. }
            | EventKind::DrainStart { .. }
            | EventKind::DrainFinish { .. } => LogLevel::Info,
            EventKind::Log { level, .. } => *level,
        }
    }
}

/// One timestamped event record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the owning process's clock origin.
    pub nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Appends the record as one JSON object (no trailing newline):
    /// `{"nanos":N,"level":"...","event":"...", ...detail fields}`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        write!(
            out,
            "{{\"nanos\":{},\"level\":\"{}\",\"event\":\"{}\"",
            self.nanos,
            self.kind.level().name(),
            self.kind.name()
        )
        .unwrap();
        match &self.kind {
            EventKind::SessionOpen { session, predictor } => {
                write!(out, ",\"session\":{session},\"predictor\":").unwrap();
                push_json_str(out, predictor);
            }
            EventKind::SessionClose { session, accesses } => {
                write!(out, ",\"session\":{session},\"accesses\":{accesses}").unwrap();
            }
            EventKind::SessionResume { session, last_seq } => {
                write!(out, ",\"session\":{session},\"last_seq\":{last_seq}").unwrap();
            }
            EventKind::SessionEvict { session } => {
                write!(out, ",\"session\":{session}").unwrap();
            }
            EventKind::SessionAbort { session, context } => {
                write!(out, ",\"session\":{session},\"context\":").unwrap();
                push_json_str(out, context);
            }
            EventKind::DrainStart { sessions } | EventKind::DrainFinish { sessions } => {
                write!(out, ",\"sessions\":{sessions}").unwrap();
            }
            EventKind::WireError { kind } => {
                write!(out, ",\"kind\":\"{kind}\"").unwrap();
            }
            EventKind::SlowChunk {
                session,
                nanos,
                records,
            } => {
                write!(
                    out,
                    ",\"session\":{session},\"chunk_nanos\":{nanos},\"records\":{records}"
                )
                .unwrap();
            }
            EventKind::Log { message, .. } => {
                out.push_str(",\"message\":");
                push_json_str(out, message);
            }
        }
        out.push('}');
    }

    /// Appends a human-oriented one-liner (`[+1.234s] WARN slow_chunk
    /// ...`), the server's stderr log format.
    pub fn write_text(&self, out: &mut String) {
        use std::fmt::Write;
        write!(
            out,
            "[+{:.3}s] {} ",
            self.nanos as f64 / 1e9,
            self.kind.level().name()
        )
        .unwrap();
        match &self.kind {
            EventKind::SessionOpen { session, predictor } => {
                write!(out, "session {session} opened ({predictor})").unwrap();
            }
            EventKind::SessionClose { session, accesses } => {
                write!(out, "session {session} closed after {accesses} accesses").unwrap();
            }
            EventKind::SessionResume { session, last_seq } => {
                write!(out, "session {session} resumed at seq {last_seq}").unwrap();
            }
            EventKind::SessionEvict { session } => {
                write!(out, "session {session} evicted (idle past TTL)").unwrap();
            }
            EventKind::SessionAbort { session, context } => {
                write!(out, "session {session} aborted: {context}").unwrap();
            }
            EventKind::DrainStart { sessions } => {
                write!(out, "draining {sessions} session(s)").unwrap();
            }
            EventKind::DrainFinish { sessions } => {
                write!(out, "drain finished, {sessions} session(s) still busy").unwrap();
            }
            EventKind::WireError { kind } => {
                write!(out, "wire error: {kind}").unwrap();
            }
            EventKind::SlowChunk {
                session,
                nanos,
                records,
            } => {
                write!(
                    out,
                    "slow chunk on session {session}: {records} records in {:.3}ms",
                    *nanos as f64 / 1e6
                )
                .unwrap();
            }
            EventKind::Log { message, .. } => out.push_str(message),
        }
    }
}

/// The largest ring `stems-serve --event-capacity` accepts: 1,048,576
/// events.
pub const MAX_EVENT_CAPACITY: usize = 1 << 20;

/// Records a ring reserves at its first push: the default server ring
/// whole, so it allocates once.
const FIRST_RESERVE: usize = 1024;

/// A bounded ring of [`Event`]s. Pushing past capacity overwrites the
/// oldest record and bumps a drop counter; draining empties the ring.
/// Storage is reserved at the first push and grows with the records
/// held, never past `capacity`, so a large capacity costs nothing until
/// events arrive.
#[derive(Debug)]
pub struct EventRing {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl EventRing {
    /// A ring holding at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            buf: Mutex::new(VecDeque::new()),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Maximum records retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten before anyone drained them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends an event, evicting the oldest record if full.
    pub fn push(&self, event: Event) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else if buf.capacity() == 0 {
            buf.reserve(self.capacity.min(FIRST_RESERVE));
        }
        buf.push_back(event);
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.buf.lock().unwrap().drain(..).collect()
    }

    /// Drains the ring into JSON-lines text (one object per line, each
    /// line newline-terminated). Empty ring renders as the empty
    /// string.
    pub fn drain_json(&self) -> String {
        let events = self.drain();
        let mut out = String::new();
        for e in &events {
            e.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(nanos: u64, kind: EventKind) -> Event {
        Event { nanos, kind }
    }

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
        assert_eq!("warn".parse::<LogLevel>().unwrap(), LogLevel::Warn);
        assert_eq!("DEBUG".parse::<LogLevel>().unwrap(), LogLevel::Debug);
        assert!("verbose".parse::<LogLevel>().is_err());
    }

    #[test]
    fn kinds_carry_names_and_levels() {
        let k = EventKind::SessionAbort {
            session: 3,
            context: "worker panic".into(),
        };
        assert_eq!(k.name(), "session_abort");
        assert_eq!(k.level(), LogLevel::Error);
        assert_eq!(
            EventKind::SlowChunk {
                session: 1,
                nanos: 10,
                records: 2
            }
            .level(),
            LogLevel::Warn
        );
        assert_eq!(
            EventKind::Log {
                level: LogLevel::Debug,
                message: "x".into()
            }
            .level(),
            LogLevel::Debug
        );
    }

    #[test]
    fn json_lines_escape_and_carry_fields() {
        let ring = EventRing::new(8);
        ring.push(ev(
            1_500_000_000,
            EventKind::SessionOpen {
                session: 7,
                predictor: "stems".into(),
            },
        ));
        ring.push(ev(
            2_000_000_000,
            EventKind::Log {
                level: LogLevel::Warn,
                message: "quote \" and \\ and\nnewline".into(),
            },
        ));
        let text = ring.drain_json();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"nanos\":1500000000,\"level\":\"INFO\",\"event\":\"session_open\",\
             \"session\":7,\"predictor\":\"stems\"}"
        );
        assert!(lines[1].contains("\\\"") && lines[1].contains("\\\\") && lines[1].contains("\\n"));
        // Drained means drained.
        assert!(ring.is_empty());
        assert_eq!(ring.drain_json(), "");
    }

    #[test]
    fn overflow_overwrites_oldest_and_counts_drops() {
        // The satellite event-ring overflow test.
        let ring = EventRing::new(3);
        for i in 0..10u32 {
            ring.push(ev(i as u64, EventKind::SessionEvict { session: i }));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let kept = ring.drain();
        let ids: Vec<u32> = kept
            .iter()
            .map(|e| match e.kind {
                EventKind::SessionEvict { session } => session,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![7, 8, 9], "oldest records were the ones dropped");
        // Drop counter survives the drain.
        assert_eq!(ring.dropped(), 7);
    }

    #[test]
    fn a_ring_reserves_nothing_before_its_first_push() {
        let ring = EventRing::new(MAX_EVENT_CAPACITY);
        assert_eq!(ring.capacity(), MAX_EVENT_CAPACITY);
        assert_eq!(ring.buf.lock().unwrap().capacity(), 0);
        ring.push(ev(0, EventKind::DrainStart { sessions: 1 }));
        assert_eq!(ring.buf.lock().unwrap().capacity(), FIRST_RESERVE);
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(ev(0, EventKind::DrainStart { sessions: 1 }));
        ring.push(ev(1, EventKind::DrainFinish { sessions: 0 }));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn text_lines_are_human_readable() {
        let mut out = String::new();
        ev(
            1_234_000_000,
            EventKind::SlowChunk {
                session: 2,
                nanos: 350_000_000,
                records: 4096,
            },
        )
        .write_text(&mut out);
        assert_eq!(
            out,
            "[+1.234s] WARN slow chunk on session 2: 4096 records in 350.000ms"
        );
    }
}
