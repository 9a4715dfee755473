//! Client for the trace-streaming session daemon (`stems-server`).
//!
//! A [`Client`] is one TCP connection speaking the protocol in
//! `docs/WIRE_PROTOCOL.md`: open sessions (each with its own tenant
//! configuration), feed sequenced trace chunks into them one at a time
//! ([`Client::write_seq_chunk`] + [`Client::read_stats`]), and collect
//! end-of-stream summaries. Whole-trace streaming is
//! [`ResilientClient::stream`]: it pipelines a bounded window of chunks
//! before reading each snapshot back, so the link stays full without
//! unbounded in-flight work on either side, and it heals transient
//! faults as far as its [`RetryPolicy`] allows (`max_retries: 0` fails
//! fast on the first one).
//!
//! # Example
//!
//! ```no_run
//! use stems_client::{ResilientClient, RetryPolicy};
//! use stems_core::protocol::OpenRequest;
//! use stems_core::{PrefetchConfig, Predictor};
//! use stems_memsim::SystemConfig;
//! use stems_trace::TraceReader;
//!
//! let policy = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
//! let mut client = ResilientClient::new("127.0.0.1:4909", policy);
//! let session = client
//!     .open(&OpenRequest {
//!         system: SystemConfig::default(),
//!         prefetch: PrefetchConfig::default(),
//!         predictor: Predictor::Stems,
//!         invalidations: None,
//!     })
//!     .unwrap();
//! let mut reader = TraceReader::open("db2.trace").unwrap();
//! let (fed, _last) = client.stream(session, &mut reader, 4).unwrap();
//! let summary = client.close(session).unwrap();
//! assert_eq!(summary.accesses_fed, fed);
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use stems_core::protocol::{
    self, ChunkStats, MetricsReply, OpenRequest, Request, Response, SessionSummary, WireError,
};
use stems_trace::store::TraceStoreError;
use stems_trace::Access;

pub mod retry;

pub use retry::{FaultStats, ResilientClient, RetryPolicy};

/// Everything that can go wrong on the client side of a connection.
#[derive(Debug)]
pub enum ClientError {
    /// Framing or transport failure.
    Wire(WireError),
    /// The server answered with a typed `Error` response.
    Server {
        /// The session the server's error concerns, when there is one.
        session: Option<u32>,
        /// The server's description.
        message: String,
    },
    /// The server's admission control turned the request away; retry
    /// after the hinted delay (see [`RetryPolicy`]).
    Busy {
        /// The session the rejection concerns, when there is one.
        session: Option<u32>,
        /// The server's suggested retry delay.
        retry_after_ms: u32,
    },
    /// The server answered with a structurally valid response of the
    /// wrong kind for the request in flight.
    UnexpectedResponse {
        /// What the client was waiting for.
        expected: &'static str,
    },
    /// The server closed the connection while a response was expected.
    Disconnected,
    /// Reading the local trace store failed while streaming.
    Trace(TraceStoreError),
}

impl ClientError {
    /// Whether a retry over a fresh connection can plausibly succeed:
    /// transport faults, truncated/corrupted frames, clean disconnects,
    /// and `Busy` rejections are transient; typed server errors and
    /// protocol mismatches are not — with one exception: a server
    /// `Error` carrying [`protocol::FRAMING_ERROR_PREFIX`] reports that
    /// *our* bytes arrived mangled (the fault was in flight, not in the
    /// request), so it retries like a transport fault.
    pub fn is_transient(&self) -> bool {
        match self {
            ClientError::Wire(e) => e.is_transient(),
            ClientError::Busy { .. } | ClientError::Disconnected => true,
            ClientError::Server { message, .. } => {
                message.starts_with(protocol::FRAMING_ERROR_PREFIX)
            }
            ClientError::UnexpectedResponse { .. } | ClientError::Trace(_) => false,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server {
                session: Some(s),
                message,
            } => {
                write!(f, "server error (session {s}): {message}")
            }
            ClientError::Server {
                session: None,
                message,
            } => {
                write!(f, "server error: {message}")
            }
            ClientError::Busy {
                session: Some(s),
                retry_after_ms,
            } => {
                write!(
                    f,
                    "server busy (session {s}), retry after {retry_after_ms}ms"
                )
            }
            ClientError::Busy {
                session: None,
                retry_after_ms,
            } => {
                write!(f, "server busy, retry after {retry_after_ms}ms")
            }
            ClientError::UnexpectedResponse { expected } => {
                write!(f, "unexpected response (expected {expected})")
            }
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::Trace(e) => write!(f, "trace store error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            ClientError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

impl From<TraceStoreError> for ClientError {
    fn from(e: TraceStoreError) -> Self {
        ClientError::Trace(e)
    }
}

/// What a successful [`Client::resume`] reports back: where the
/// server's journal stands and the session's current counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResumeInfo {
    /// The server's authoritative last applied sequence number.
    pub last_seq: u64,
    /// Records applied to the session so far.
    pub accesses_fed: u64,
    /// Current counter snapshot.
    pub counters: stems_core::Counters,
}

/// The error for a reply that is not the `expected` one: `Busy` and
/// `Error` replies become their typed errors, anything else is
/// unexpected.
fn refused(reply: Response, expected: &'static str) -> ClientError {
    match reply {
        Response::Busy {
            session,
            retry_after_ms,
        } => ClientError::Busy {
            session,
            retry_after_ms,
        },
        Response::Error { session, message } => ClientError::Server { session, message },
        _ => ClientError::UnexpectedResponse { expected },
    }
}

/// One connection to a `stems-server` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    payload: Vec<u8>,
    frame: Vec<u8>,
    scratch: Vec<u8>,
}

/// Default bound on connection establishment (the OS default can hang
/// for minutes against a blackholed address).
pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Default per-read socket deadline applied at connect.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Default per-write socket deadline applied at connect.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    /// Connects with the default deadlines
    /// ([`DEFAULT_CONNECT_TIMEOUT`], [`DEFAULT_READ_TIMEOUT`],
    /// [`DEFAULT_WRITE_TIMEOUT`]) and performs the hello exchange.
    /// Every timeout is in force before the first byte moves — there
    /// is no window where a dead peer can hang the client.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(
            addr,
            DEFAULT_CONNECT_TIMEOUT,
            DEFAULT_READ_TIMEOUT,
            DEFAULT_WRITE_TIMEOUT,
        )
    }

    /// Connects with explicit deadlines: `connect_timeout` bounds
    /// establishment (each resolved address is tried in turn), and the
    /// read/write timeouts are applied to the socket before the hello
    /// exchange, atomically with the connect rather than via a
    /// separate fallible call.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        connect_timeout: Duration,
        read_timeout: Duration,
        write_timeout: Duration,
    ) -> Result<Client, ClientError> {
        let mut last_err: Option<std::io::Error> = None;
        let mut stream = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = match stream {
            Some(s) => s,
            None => {
                return Err(last_err
                    .unwrap_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                    .into())
            }
        };
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            payload: Vec::new(),
            frame: Vec::new(),
            scratch: Vec::new(),
        };
        protocol::write_hello(&mut client.writer)?;
        client.writer.flush()?;
        protocol::read_hello(&mut client.reader)?;
        Ok(client)
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        req.write_to(&mut self.writer, &mut self.frame, &mut self.scratch)?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        self.writer.flush()?;
        match Response::read_from(&mut self.reader, &mut self.payload)? {
            None => Err(ClientError::Disconnected),
            Some(resp) => Ok(resp),
        }
    }

    /// Opens a session with the given tenant configuration, returning
    /// the server-assigned session id.
    pub fn open(&mut self, open: &OpenRequest) -> Result<u32, ClientError> {
        self.send(&Request::Open(Box::new(open.clone())))?;
        match self.read_response()? {
            Response::Opened { session } => Ok(session),
            other => Err(refused(other, "Opened")),
        }
    }

    /// Queues one sequenced chunk ([`Request::SeqChunk`]) without
    /// waiting for its snapshot. Pair with [`Client::read_stats`]; at
    /// most one snapshot is owed per queued chunk. Sequence numbers
    /// start at 1 per session: the server journals `seq` and skips
    /// retransmits idempotently, which is what makes a session
    /// resumable.
    pub fn write_seq_chunk(
        &mut self,
        session: u32,
        seq: u64,
        records: &[Access],
    ) -> Result<(), ClientError> {
        self.frame.clear();
        protocol::encode_seq_chunk(&mut self.frame, &mut self.scratch, session, seq, records);
        self.writer.write_all(&self.frame)?;
        Ok(())
    }

    /// Queues an already-encoded wire frame verbatim (the retry layer's
    /// resend path: buffered frames go out again byte-identically).
    pub(crate) fn write_frame_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.writer.write_all(bytes)?;
        Ok(())
    }

    /// Re-attaches to a live session after a reconnect: tells the
    /// server the last sequence number this client saw acknowledged and
    /// gets back the server's authoritative journal position (which can
    /// only be at or ahead of `last_seq`) plus the current counter
    /// snapshot.
    pub fn resume(&mut self, session: u32, last_seq: u64) -> Result<ResumeInfo, ClientError> {
        self.send(&Request::Resume { session, last_seq })?;
        match self.read_response()? {
            Response::Resumed {
                session: _,
                last_seq,
                accesses_fed,
                counters,
            } => Ok(ResumeInfo {
                last_seq,
                accesses_fed,
                counters,
            }),
            other => Err(refused(other, "Resumed")),
        }
    }

    /// Reads one owed counter snapshot (flushing queued chunks first).
    pub fn read_stats(&mut self) -> Result<ChunkStats, ClientError> {
        match self.read_response()? {
            Response::Stats(stats) => Ok(stats),
            other => Err(refused(other, "Stats")),
        }
    }

    /// Scrapes the server's metrics: the rendered text exposition and,
    /// when `drain_events` is set, the buffered event log as JSON-lines
    /// (draining is destructive on the server side). Safe to call from
    /// a dedicated monitoring connection while other clients stream.
    pub fn metrics(&mut self, drain_events: bool) -> Result<MetricsReply, ClientError> {
        self.send(&Request::Metrics { drain_events })?;
        match self.read_response()? {
            Response::MetricsReply(reply) => Ok(*reply),
            other => Err(refused(other, "MetricsReply")),
        }
    }

    /// Closes a session and returns its finalized summary.
    pub fn close(&mut self, session: u32) -> Result<SessionSummary, ClientError> {
        self.send(&Request::Close { session })?;
        match self.read_response()? {
            Response::Summary(summary) => Ok(*summary),
            other => Err(refused(other, "Summary")),
        }
    }

    /// Asks the server to drain every open session and exit. Returns
    /// the drained sessions' summaries (in session-id order).
    pub fn shutdown_server(&mut self) -> Result<Vec<SessionSummary>, ClientError> {
        self.send(&Request::Shutdown)?;
        let mut summaries = Vec::new();
        loop {
            match self.read_response()? {
                Response::Summary(summary) => summaries.push(*summary),
                Response::ShutdownAck { drained } => {
                    if drained as usize != summaries.len() {
                        return Err(ClientError::UnexpectedResponse {
                            expected: "one summary per drained session",
                        });
                    }
                    return Ok(summaries);
                }
                other => return Err(refused(other, "Summary or ShutdownAck")),
            }
        }
    }
}
