//! The trace-streaming session daemon.
//!
//! A [`Server`] listens on one TCP port and multiplexes any number of
//! tenant [`Session`]s: each `Open` request carries its own
//! `SystemConfig`/`PrefetchConfig`/`Predictor` choice, each `SeqChunk`
//! feeds records straight into `Session::run_chunk`, and every chunk is
//! answered with a counter snapshot so the client can watch coverage
//! converge while the trace streams. Message framing and typed payloads
//! are `stems_core::protocol`, and the byte-level contract is
//! `docs/WIRE_PROTOCOL.md`.
//!
//! The robustness plumbing a long-lived daemon needs is here rather
//! than in the protocol:
//!
//! * **per-connection read/write timeouts** — a dead or stalled peer
//!   cannot pin a connection thread forever; its sessions stay in the
//!   table and can be re-addressed from a new connection;
//! * **a session table with idle eviction** — sessions untouched for
//!   [`ServerConfig::session_ttl`] are discarded by the accept loop, so
//!   abandoned tenants cannot hold memory indefinitely;
//! * **bounded in-flight work** — requests on a connection are served
//!   strictly in order, one chunk resident at a time, and a session
//!   checked out by one connection answers `busy` to others instead of
//!   queueing unbounded work;
//! * **graceful drain** — a `Shutdown` request finalizes every open
//!   session, streams each summary back, acknowledges, and only then
//!   stops the accept loop; in-flight chunks on other connections are
//!   waited for, not aborted;
//! * **observability** — every lifecycle edge and chunk feeds the
//!   [`ServerObs`] hub (metrics registries + event ring, see
//!   `docs/OBSERVABILITY.md`); a `Metrics` request scrapes it live
//!   over the same wire protocol;
//! * **crash containment** — a connection worker that panics mid-chunk
//!   cannot strand its session as `Busy` forever: a drop-guard removes
//!   the orphaned slot, records a `session_abort` event, and the
//!   worker's panic is caught so the daemon keeps serving.
//!
//! # Example
//!
//! ```no_run
//! use stems_server::{Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run().unwrap(); // blocks until a client sends Shutdown
//! ```

#![forbid(unsafe_code)]

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use stems_core::protocol::{
    self, ChunkStats, OpenRequest, Request, Response, SessionSummary, WireError,
};
use stems_core::Session;
use stems_obs::LogLevel;

pub mod chaos;
pub mod obs;

pub use obs::ServerObs;

/// Tunables for a [`Server`]. `Default` is sized for the loopback
/// harness and CI smoke runs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// A connection that sends nothing for this long is closed (its
    /// sessions survive in the table until `session_ttl`).
    pub read_timeout: Duration,
    /// A peer that refuses to drain responses for this long is closed.
    pub write_timeout: Duration,
    /// Sessions untouched for this long are evicted by the accept loop.
    pub session_ttl: Duration,
    /// Upper bound on concurrently open sessions across all tenants.
    pub max_sessions: usize,
    /// Mirror events at or below this level to stderr as timestamped
    /// log lines. `None` (the default) keeps the daemon silent; events
    /// still land in the ring either way.
    pub log: Option<LogLevel>,
    /// Chunks slower than this raise a `slow_chunk` event (0 disables).
    pub slow_chunk_nanos: u64,
    /// Capacity of the bounded event ring.
    pub event_capacity: usize,
    /// Upper bound on chunks resident in workers at once, across all
    /// connections. At the cap new chunks answer `Busy`; at half the
    /// cap new `Open`s already answer `Busy`, so load-shedding rejects
    /// new tenants before it starves checked-out ones.
    pub max_concurrent_chunks: usize,
    /// Upper bound on concurrently served connections. Connections
    /// past the cap get a hello + `Busy` + close instead of a thread —
    /// a typed rejection the retrying client understands, never a
    /// silent stall.
    pub max_connections: usize,
    /// The `retry_after_ms` hint carried by every `Busy` reply.
    pub busy_retry_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            session_ttl: Duration::from_secs(300),
            max_sessions: 64,
            log: None,
            slow_chunk_nanos: 250_000_000,
            event_capacity: 1024,
            max_concurrent_chunks: 32,
            max_connections: 256,
            busy_retry_ms: 50,
        }
    }
}

/// How often the accept loop polls for new connections, the shutdown
/// flag, and idle-session eviction.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// How long a drain waits for chunks in flight on other connections.
const DRAIN_WAIT: Duration = Duration::from_millis(1);

/// Closed-session summaries kept so a retried `Close` (the client
/// never saw the reply) is answered from the journal instead of
/// "no such session".
const RECENT_SUMMARIES: usize = 64;

struct SessionState {
    session: Session,
    fed: u64,
    /// Sequence number of the last applied chunk (0 = none yet). A
    /// `SeqChunk` at or below this is a retransmit and is skipped
    /// idempotently.
    last_seq: u64,
}

enum Slot {
    /// Parked in the table, ready for the next chunk.
    Idle(Box<SessionState>),
    /// Checked out by a connection thread running a chunk.
    Busy,
}

struct Table {
    next_id: u32,
    slots: HashMap<u32, (Slot, Instant)>,
    /// Bounded journal of the last [`RECENT_SUMMARIES`] closed
    /// sessions, making `Close` idempotent across reconnects.
    recent: VecDeque<(u32, SessionSummary)>,
}

impl Table {
    /// Number of live sessions (idle or checked out).
    fn len(&self) -> usize {
        self.slots.len()
    }
}

struct Shared {
    config: ServerConfig,
    shutdown: AtomicBool,
    table: Mutex<Table>,
    obs: ServerObs,
    /// Chunks currently resident in connection workers (the admission
    /// counter behind [`ServerConfig::max_concurrent_chunks`]).
    in_flight_chunks: AtomicUsize,
    /// Connections currently being served (the backlog counter behind
    /// [`ServerConfig::max_connections`]).
    connections: AtomicUsize,
}

/// Why the session table refused a checkout or a removal.
#[derive(Debug, PartialEq)]
enum Refusal {
    /// No session has that id: a hard `Error`.
    NoSuchSession,
    /// Checked out by another connection: a retryable `Busy`.
    Busy,
}

/// The `Error` reply to a request for a session id the table does not
/// hold.
fn no_such_session(session: u32) -> Response {
    Response::Error {
        session: Some(session),
        message: "no such session".into(),
    }
}

impl Shared {
    fn new(config: ServerConfig) -> Shared {
        Shared {
            shutdown: AtomicBool::new(false),
            table: Mutex::new(Table {
                next_id: 1,
                slots: HashMap::new(),
                recent: VecDeque::new(),
            }),
            obs: ServerObs::new(config.log, config.slow_chunk_nanos, config.event_capacity),
            in_flight_chunks: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            config,
        }
    }

    fn checkout(&self, id: u32) -> Result<Box<SessionState>, Refusal> {
        let mut table = self.table.lock().unwrap();
        match table.slots.get_mut(&id) {
            None => Err(Refusal::NoSuchSession),
            Some((slot @ Slot::Idle(_), touched)) => {
                *touched = Instant::now();
                match std::mem::replace(slot, Slot::Busy) {
                    Slot::Idle(state) => Ok(state),
                    Slot::Busy => unreachable!(),
                }
            }
            Some((Slot::Busy, _)) => Err(Refusal::Busy),
        }
    }

    fn checkin(&self, id: u32, state: Box<SessionState>) {
        let mut table = self.table.lock().unwrap();
        table.slots.insert(id, (Slot::Idle(state), Instant::now()));
    }

    fn remove(&self, id: u32) -> Result<Box<SessionState>, Refusal> {
        let mut table = self.table.lock().unwrap();
        match table.slots.get(&id) {
            None => Err(Refusal::NoSuchSession),
            Some((Slot::Busy, _)) => Err(Refusal::Busy),
            Some((Slot::Idle(_), _)) => match table.slots.remove(&id) {
                Some((Slot::Idle(state), _)) => Ok(state),
                _ => unreachable!(),
            },
        }
    }

    /// Journals a closed session's summary so a retried `Close` can be
    /// answered idempotently.
    fn record_summary(&self, id: u32, summary: &SessionSummary) {
        let mut table = self.table.lock().unwrap();
        if table.recent.len() == RECENT_SUMMARIES {
            table.recent.pop_front();
        }
        table.recent.push_back((id, *summary));
    }

    /// The journaled summary for a recently closed session, if any.
    fn cached_summary(&self, id: u32) -> Option<SessionSummary> {
        let table = self.table.lock().unwrap();
        table
            .recent
            .iter()
            .rev()
            .find(|(sid, _)| *sid == id)
            .map(|(_, s)| *s)
    }

    /// Admits one chunk against `max_concurrent_chunks`, returning a
    /// guard that releases the slot on every exit path. `None` means
    /// the server is saturated and the caller must answer `Busy`.
    fn admit_chunk(&self) -> Option<ChunkPermit<'_>> {
        let cap = self.config.max_concurrent_chunks;
        let prev = self.in_flight_chunks.fetch_add(1, Ordering::SeqCst);
        if prev >= cap {
            self.in_flight_chunks.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(ChunkPermit { shared: self })
    }

    /// Whether new `Open`s should shed: at half the chunk cap the
    /// server protects tenants already checked out instead of admitting
    /// more.
    fn opens_saturated(&self) -> bool {
        let threshold = (self.config.max_concurrent_chunks / 2).max(1);
        self.in_flight_chunks.load(Ordering::SeqCst) >= threshold
    }

    fn busy(&self, session: Option<u32>) -> Response {
        Response::Busy {
            session,
            retry_after_ms: self.config.busy_retry_ms,
        }
    }

    /// Evicts idle sessions untouched for longer than `session_ttl`.
    fn sweep_idle(&self) -> usize {
        let ttl = self.config.session_ttl;
        let now = Instant::now();
        let mut evicted = Vec::new();
        {
            let mut table = self.table.lock().unwrap();
            table.slots.retain(|id, (slot, touched)| {
                let keep = matches!(slot, Slot::Busy) || now - *touched < ttl;
                if !keep {
                    evicted.push(*id);
                }
                keep
            });
        }
        // Events are recorded outside the table lock.
        for &id in &evicted {
            self.obs.session_evicted(id);
        }
        evicted.len()
    }

    /// Takes every session out of the table for a drain, waiting for
    /// busy ones to be checked back in. Returns them in session-id
    /// order so drain summaries are deterministic.
    fn drain_all(&self) -> Vec<(u32, Box<SessionState>)> {
        let deadline = Instant::now() + self.config.write_timeout;
        let mut drained = Vec::new();
        loop {
            {
                let mut table = self.table.lock().unwrap();
                let idle_ids: Vec<u32> = table
                    .slots
                    .iter()
                    .filter(|(_, (slot, _))| matches!(slot, Slot::Idle(_)))
                    .map(|(id, _)| *id)
                    .collect();
                for id in idle_ids {
                    if let Some((Slot::Idle(state), _)) = table.slots.remove(&id) {
                        drained.push((id, state));
                    }
                }
                if table.slots.is_empty() {
                    break;
                }
            }
            // Busy sessions are mid-chunk on another connection; give
            // them time to check back in rather than aborting them.
            if Instant::now() > deadline {
                break;
            }
            thread::sleep(DRAIN_WAIT);
        }
        drained.sort_by_key(|(id, _)| *id);
        drained
    }
}

/// One admitted chunk's slot in the global in-flight budget; dropping
/// it (normally or during a panic unwind) releases the slot.
struct ChunkPermit<'a> {
    shared: &'a Shared,
}

impl Drop for ChunkPermit<'_> {
    fn drop(&mut self) {
        self.shared.in_flight_chunks.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One served connection's slot in the backlog budget; dropping it
/// (normally or during a panic unwind) releases the slot.
struct ConnPermit {
    shared: Arc<Shared>,
}

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Owns a checked-out session slot for the duration of one chunk.
///
/// The happy path calls [`CheckoutGuard::finish`], which checks the
/// session back in. If the guard is instead dropped with the state
/// still held — the chunk panicked, and the stack is unwinding — the
/// slot would otherwise stay `Busy` in the table forever (unservable,
/// unevictable, and a permanent drain blocker). `Drop` repairs that:
/// it removes the orphaned entry, discards the half-run session (its
/// simulation state is unreliable mid-chunk), and records the abort.
struct CheckoutGuard<'a> {
    shared: &'a Shared,
    id: u32,
    state: Option<Box<SessionState>>,
}

impl<'a> CheckoutGuard<'a> {
    fn new(shared: &'a Shared, id: u32, state: Box<SessionState>) -> CheckoutGuard<'a> {
        CheckoutGuard {
            shared,
            id,
            state: Some(state),
        }
    }

    fn state(&mut self) -> &mut SessionState {
        self.state.as_mut().expect("state taken before finish")
    }

    /// Normal completion: parks the session back in the table.
    fn finish(mut self) {
        let state = self.state.take().expect("finish called twice");
        self.shared.checkin(self.id, state);
    }
}

impl Drop for CheckoutGuard<'_> {
    fn drop(&mut self) {
        if self.state.take().is_some() {
            let mut table = self.shared.table.lock().unwrap();
            table.slots.remove(&self.id);
            drop(table);
            self.shared
                .obs
                .session_aborted(self.id, "connection worker died mid-chunk");
        }
    }
}

/// The daemon: a bound listener plus the shared session table.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds to `addr` (port 0 picks an ephemeral port — read it back
    /// with [`Server::local_addr`]).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared::new(config)),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves connections until a client's `Shutdown` request drains
    /// the server. Every connection thread is joined before returning,
    /// so when `run` comes back no request is still in flight.
    pub fn run(self) -> std::io::Result<()> {
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        let mut last_sweep = Instant::now();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.shared.obs.connection_accepted();
                    let shared = Arc::clone(&self.shared);
                    // Claim a backlog slot before spawning; over the cap
                    // the worker's only job is a hello + Busy + close.
                    let shed = shared.connections.fetch_add(1, Ordering::SeqCst)
                        >= shared.config.max_connections;
                    let permit = ConnPermit {
                        shared: Arc::clone(&shared),
                    };
                    workers.push(thread::spawn(move || {
                        let _permit = permit;
                        // Contain panics to the one connection: the
                        // chunk guard has already repaired the session
                        // table by the time the unwind reaches here.
                        let body = || {
                            if shed {
                                shed_connection(stream, &shared);
                            } else {
                                serve_connection(stream, &shared);
                            }
                        };
                        if catch_unwind(AssertUnwindSafe(body)).is_err() {
                            shared.obs.worker_panicked();
                        }
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(e),
            }
            workers.retain(|w| !w.is_finished());
            if last_sweep.elapsed() >= Duration::from_secs(1) {
                self.shared.sweep_idle();
                last_sweep = Instant::now();
            }
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn summarize(id: u32, mut state: Box<SessionState>) -> SessionSummary {
    let recon = state.session.recon_stats();
    let pst_probes = state.session.pst_probes();
    let counters = state.session.finalize();
    SessionSummary {
        session: id,
        accesses_fed: state.fed,
        counters,
        recon,
        pst_probes,
    }
}

fn build_session(open: &OpenRequest) -> Session {
    let mut b = Session::builder(&open.system)
        .prefetch(&open.prefetch)
        .predictor(open.predictor);
    if let Some((rate, seed)) = open.invalidations {
        b = b.invalidations(rate, seed);
    }
    b.build()
}

/// Turns a connection away at the door when the backlog is full: the
/// hello exchange still happens (so the client's framing layer is in a
/// known state), then one `Busy` and a close. The retrying client
/// backs off and reconnects; a silent drop would look like a network
/// fault instead of load.
fn shed_connection(stream: TcpStream, shared: &Shared) {
    shared.obs.connection_shed();
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    if protocol::read_hello(&mut reader).is_err() {
        return;
    }
    if protocol::write_hello(&mut writer).is_err() {
        return;
    }
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    let _ = shared
        .busy(None)
        .write_to(&mut writer, &mut frame, &mut scratch);
    let _ = writer.flush();
}

/// One connection's request loop. Any framing error ends the
/// connection (after a best-effort `Error` response); request-level
/// failures (unknown session, full table) are answered and the
/// connection keeps going.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    // Hello exchange: validate the client's, then identify ourselves.
    if protocol::read_hello(&mut reader).is_err() {
        shared.obs.hello_failed();
        return;
    }
    if protocol::write_hello(&mut writer).is_err() || writer.flush().is_err() {
        shared.obs.hello_failed();
        return;
    }

    let mut payload = Vec::new();
    // Every chunk on this connection decodes into this one allocation:
    // the request takes it, and it comes back once the chunk has run.
    let mut records = Vec::new();
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    let send = |writer: &mut BufWriter<TcpStream>,
                frame: &mut Vec<u8>,
                scratch: &mut Vec<u8>,
                resp: &Response|
     -> Result<(), WireError> {
        resp.write_to(writer, frame, scratch)?;
        writer.flush()?;
        Ok(())
    };

    loop {
        let request = match Request::read_from(&mut reader, &mut payload, &mut records) {
            Ok(Some(req)) => req,
            Ok(None) => return,              // peer closed cleanly
            Err(WireError::Io(_)) => return, // dead/stalled peer or timeout
            Err(e) => {
                // Hostile or corrupt bytes: report the typed error,
                // then drop the connection — framing is unrecoverable.
                // A failed decode never strands a session: the chunk is
                // fully decoded before any checkout happens. Only damage
                // in flight carries the retryable prefix; an intact
                // request the server refuses (an `Open` whose config
                // cannot build a session) would be refused again.
                shared.obs.wire_error(&e);
                let prefix = if e.is_transient() {
                    protocol::FRAMING_ERROR_PREFIX
                } else {
                    ""
                };
                let resp = Response::Error {
                    session: None,
                    message: format!("{prefix}{e}"),
                };
                let _ = send(&mut writer, &mut frame, &mut scratch, &resp);
                return;
            }
        };
        let reply = match request {
            Request::Open(open) => handle_open(shared, &open),
            Request::SeqChunk {
                session,
                seq,
                records: chunk,
            } => {
                let reply = handle_chunk(shared, session, seq, &chunk);
                records = chunk;
                reply
            }
            Request::Resume { session, last_seq } => handle_resume(shared, session, last_seq),
            Request::Close { session } => handle_close(shared, session),
            Request::Metrics { drain_events } => {
                Response::MetricsReply(Box::new(shared.obs.render(drain_events)))
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.obs.drain_started(shared.table.lock().unwrap().len());
                let drained = shared.drain_all();
                let count = drained.len() as u32;
                let still_busy = shared.table.lock().unwrap().len();
                let ids: Vec<u32> = drained.iter().map(|(id, _)| *id).collect();
                shared.obs.drain_finished(&ids, still_busy);
                for (id, state) in drained {
                    let resp = Response::Summary(Box::new(summarize(id, state)));
                    if send(&mut writer, &mut frame, &mut scratch, &resp).is_err() {
                        return;
                    }
                }
                let _ = send(
                    &mut writer,
                    &mut frame,
                    &mut scratch,
                    &Response::ShutdownAck { drained: count },
                );
                return;
            }
        };
        if send(&mut writer, &mut frame, &mut scratch, &reply).is_err() {
            return;
        }
    }
}

fn handle_open(shared: &Shared, open: &OpenRequest) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.obs.open_rejected();
        return Response::Error {
            session: None,
            message: "server is shutting down".into(),
        };
    }
    // Load shedding prefers rejecting new tenants over starving
    // checked-out ones: opens go Busy at half the chunk cap, chunks
    // only at the full cap.
    if shared.opens_saturated() {
        shared.obs.open_shed();
        return shared.busy(None);
    }
    {
        let table = shared.table.lock().unwrap();
        if table.len() >= shared.config.max_sessions {
            drop(table);
            shared.obs.open_shed();
            return shared.busy(None);
        }
    }
    // Build the tenant's Session outside the lock — table geometry can
    // make this allocate tens of megabytes.
    let mut state = Box::new(SessionState {
        session: build_session(open),
        fed: 0,
        last_seq: 0,
    });
    let mut table = shared.table.lock().unwrap();
    if table.len() >= shared.config.max_sessions {
        drop(table);
        shared.obs.open_shed();
        return shared.busy(None);
    }
    let id = table.next_id;
    table.next_id = table.next_id.wrapping_add(1).max(1);
    // The hook needs the assigned id (its metrics are labeled by it),
    // so it is attached here rather than in the builder.
    state
        .session
        .set_obs(shared.obs.session_opened(id, open.predictor));
    table.slots.insert(id, (Slot::Idle(state), Instant::now()));
    Response::Opened { session: id }
}

/// Runs one sequenced chunk through the admission gate, the session
/// checkout, and the dedupe/gap journal.
fn handle_chunk(
    shared: &Shared,
    session: u32,
    seq: u64,
    records: &[stems_trace::Access],
) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Error {
            session: Some(session),
            message: "server is shutting down".into(),
        };
    }
    let Some(_permit) = shared.admit_chunk() else {
        shared.obs.chunk_shed();
        return shared.busy(Some(session));
    };
    let state = match shared.checkout(session) {
        Ok(state) => state,
        Err(Refusal::Busy) => {
            // Checked out by another connection: the per-tenant
            // in-flight quota (one chunk per session) answers Busy, not
            // a hard error — the client retries after backoff.
            shared.obs.chunk_shed();
            return shared.busy(Some(session));
        }
        Err(Refusal::NoSuchSession) => return no_such_session(session),
    };
    // The chunk runs outside the table lock: other tenants' chunks
    // proceed concurrently, and the drain path waits for this slot to
    // check back in rather than observing a half-run session. The
    // guard guarantees the `Busy` slot is repaired even if run_chunk
    // panics (the worker's unwind would otherwise orphan it forever).
    let mut guard = CheckoutGuard::new(shared, session, state);
    let state = guard.state();
    // A retransmit the journal already applied: skip it idempotently
    // and re-answer with the current snapshot, so a client that lost
    // the original Stats still converges.
    if seq <= state.last_seq {
        shared.obs.chunk_deduped();
        let stats = ChunkStats {
            session,
            accesses_fed: state.fed,
            counters: *state.session.counters(),
        };
        guard.finish();
        return Response::Stats(stats);
    }
    // A gap means the client skipped data we never saw; applying it
    // would silently drift the counters. Fatal, not retryable.
    if seq != state.last_seq + 1 {
        let last_seq = state.last_seq;
        guard.finish();
        return Response::Error {
            session: Some(session),
            message: format!("sequence gap: got {seq}, journal is at {last_seq}"),
        };
    }
    state.session.run_chunk(records);
    state.fed += records.len() as u64;
    state.last_seq = seq;
    let stats = ChunkStats {
        session,
        accesses_fed: state.fed,
        counters: *state.session.counters(),
    };
    guard.finish();
    Response::Stats(stats)
}

/// Re-attaches a reconnecting client: replies with the journal
/// position so the client can drop already-applied chunks from its
/// resend window and continue byte-identically.
fn handle_resume(shared: &Shared, session: u32, client_last_seq: u64) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Error {
            session: Some(session),
            message: "server is shutting down".into(),
        };
    }
    let state = match shared.checkout(session) {
        Ok(state) => state,
        Err(Refusal::Busy) => {
            shared.obs.chunk_shed();
            return shared.busy(Some(session));
        }
        Err(Refusal::NoSuchSession) => return no_such_session(session),
    };
    let guard = CheckoutGuard::new(shared, session, state);
    let state = guard.state.as_ref().expect("state held");
    // The client can only be behind the server (it acks what the
    // server already confirmed); claiming to be ahead means it is
    // resuming someone else's session id or its state is corrupt.
    if client_last_seq > state.last_seq {
        let last_seq = state.last_seq;
        guard.finish();
        return Response::Error {
            session: Some(session),
            message: format!(
                "resume ahead of journal: client at {client_last_seq}, server at {last_seq}"
            ),
        };
    }
    let resumed = Response::Resumed {
        session,
        last_seq: state.last_seq,
        accesses_fed: state.fed,
        counters: *state.session.counters(),
    };
    shared.obs.session_resumed(session, state.last_seq);
    guard.finish();
    resumed
}

/// Closes a session, answering a retried `Close` from the bounded
/// summary journal so a client that lost the reply still gets its
/// (byte-identical) summary instead of "no such session".
fn handle_close(shared: &Shared, session: u32) -> Response {
    match shared.remove(session) {
        Ok(state) => {
            shared.obs.session_closed(session, state.fed);
            let summary = summarize(session, state);
            shared.record_summary(session, &summary);
            Response::Summary(Box::new(summary))
        }
        Err(Refusal::Busy) => {
            shared.obs.busy_replied();
            shared.busy(Some(session))
        }
        Err(Refusal::NoSuchSession) => match shared.cached_summary(session) {
            Some(summary) => Response::Summary(Box::new(summary)),
            None => no_such_session(session),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_core::session::Predictor;
    use stems_core::PrefetchConfig;
    use stems_memsim::SystemConfig;

    fn test_shared() -> Shared {
        Shared::new(ServerConfig {
            event_capacity: 16,
            ..ServerConfig::default()
        })
    }

    fn open_session(shared: &Shared) -> u32 {
        let open = OpenRequest {
            system: SystemConfig::small(),
            prefetch: PrefetchConfig::small(),
            predictor: Predictor::Stems,
            invalidations: None,
        };
        match handle_open(shared, &open) {
            Response::Opened { session } => session,
            other => panic!("open failed: {other:?}"),
        }
    }

    #[test]
    fn panicking_chunk_repairs_the_busy_slot() {
        // Without the guard, a panic mid-run_chunk leaves the slot
        // `Busy` forever: unservable, unevictable, and drain_all spins
        // on it until its deadline. The guard must remove the entry and
        // record the abort instead.
        let shared = test_shared();
        let id = open_session(&shared);

        let state = shared.checkout(id).expect("checkout");
        let panic_result = {
            // Silence the expected panic's default backtrace spew.
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut guard = CheckoutGuard::new(&shared, id, state);
                let _ = guard.state();
                panic!("simulated chunk crash");
            }));
            std::panic::set_hook(prev);
            result
        };
        assert!(panic_result.is_err(), "the chunk must actually panic");

        // The slot is gone, not stuck Busy: new requests get a clean
        // "no such session", the table can accept fresh opens, and the
        // drain path has nothing to wait on.
        assert_eq!(shared.table.lock().unwrap().len(), 0);
        assert_eq!(shared.checkout(id).err(), Some(Refusal::NoSuchSession));
        let scrape = shared.obs.render(true);
        assert!(scrape.exposition.contains("stems_sessions_aborted_total 1"));
        assert!(scrape.exposition.contains("stems_sessions_open 0"));
        assert!(scrape.events.contains("\"event\":\"session_abort\""));

        // The table is still fully serviceable afterwards.
        let id2 = open_session(&shared);
        assert_ne!(id2, id);
        let state2 = shared.checkout(id2).expect("checkout after repair");
        let guard = CheckoutGuard::new(&shared, id2, state2);
        guard.finish();
        assert_eq!(shared.checkout(id2).map(|_| ()), Ok(()));
    }

    fn acc(i: u64) -> stems_trace::Access {
        use stems_types::{Addr, Pc};
        stems_trace::Access::read(Pc::new(0x400 + i * 4), Addr::new(i * 64))
    }

    #[test]
    fn seq_chunks_apply_dedupe_and_reject_gaps() {
        let shared = test_shared();
        let id = open_session(&shared);
        let records: Vec<_> = (0..8).map(acc).collect();

        // seq 1 applies.
        let first = match handle_chunk(&shared, id, 1, &records) {
            Response::Stats(s) => s,
            other => panic!("seq 1 rejected: {other:?}"),
        };
        assert_eq!(first.accesses_fed, 8);

        // A retransmit of seq 1 is skipped idempotently and re-answers
        // the same snapshot — counters must not drift.
        let replayed = match handle_chunk(&shared, id, 1, &records) {
            Response::Stats(s) => s,
            other => panic!("dedupe failed: {other:?}"),
        };
        assert_eq!(replayed, first);

        // seq 2 continues the stream.
        let second = match handle_chunk(&shared, id, 2, &records) {
            Response::Stats(s) => s,
            other => panic!("seq 2 rejected: {other:?}"),
        };
        assert_eq!(second.accesses_fed, 16);

        // seq 4 is a gap: typed error, nothing applied.
        match handle_chunk(&shared, id, 4, &records) {
            Response::Error { session, message } => {
                assert_eq!(session, Some(id));
                assert!(message.contains("sequence gap"), "{message}");
            }
            other => panic!("gap accepted: {other:?}"),
        }
        let after_gap = match handle_chunk(&shared, id, 3, &records) {
            Response::Stats(s) => s,
            other => panic!("seq 3 rejected after gap: {other:?}"),
        };
        assert_eq!(after_gap.accesses_fed, 24);

        let scrape = shared.obs.render(false);
        assert!(scrape.exposition.contains("stems_chunks_deduped_total 1"));
    }

    #[test]
    fn dedupe_equals_fault_free_run() {
        // The resumable-session invariant in miniature: a stream with
        // duplicated sequenced chunks produces counters byte-identical
        // to the clean stream.
        let clean = test_shared();
        let noisy = test_shared();
        let a = open_session(&clean);
        let b = open_session(&noisy);
        let chunks: Vec<Vec<_>> = (0..4u64)
            .map(|c| (0..16).map(|i| acc(c * 16 + i)).collect())
            .collect();
        for (i, chunk) in chunks.iter().enumerate() {
            let seq = i as u64 + 1;
            handle_chunk(&clean, a, seq, chunk);
            handle_chunk(&noisy, b, seq, chunk);
            // Every chunk delivered twice on the noisy path.
            handle_chunk(&noisy, b, seq, chunk);
        }
        let s1 = match handle_close(&clean, a) {
            Response::Summary(s) => s,
            other => panic!("{other:?}"),
        };
        let s2 = match handle_close(&noisy, b) {
            Response::Summary(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(s1.counters, s2.counters);
        assert_eq!(s1.accesses_fed, s2.accesses_fed);
    }

    #[test]
    fn resume_reports_the_journal_and_rejects_ahead_clients() {
        let shared = test_shared();
        let id = open_session(&shared);
        let records: Vec<_> = (0..8).map(acc).collect();
        handle_chunk(&shared, id, 1, &records);
        handle_chunk(&shared, id, 2, &records);

        // A client that saw only seq 1 acked resumes behind the
        // journal and learns the authoritative position.
        match handle_resume(&shared, id, 1) {
            Response::Resumed {
                session,
                last_seq,
                accesses_fed,
                ..
            } => {
                assert_eq!(session, id);
                assert_eq!(last_seq, 2);
                assert_eq!(accesses_fed, 16);
            }
            other => panic!("resume failed: {other:?}"),
        }

        // Claiming to be ahead of the server is fatal.
        match handle_resume(&shared, id, 9) {
            Response::Error { message, .. } => {
                assert!(message.contains("ahead of journal"), "{message}")
            }
            other => panic!("ahead resume accepted: {other:?}"),
        }

        // Unknown session is a hard error, not Busy.
        assert!(matches!(
            handle_resume(&shared, 999, 0),
            Response::Error { .. }
        ));

        let scrape = shared.obs.render(true);
        assert!(scrape.exposition.contains("stems_sessions_resumed_total 1"));
        assert!(scrape.events.contains("\"event\":\"session_resume\""));
    }

    #[test]
    fn retried_close_is_answered_from_the_summary_journal() {
        let shared = test_shared();
        let id = open_session(&shared);
        let records: Vec<_> = (0..8).map(acc).collect();
        handle_chunk(&shared, id, 1, &records);
        let first = match handle_close(&shared, id) {
            Response::Summary(s) => s,
            other => panic!("{other:?}"),
        };
        // The retry (client never saw the reply) gets the identical
        // summary back, not "no such session".
        let retry = match handle_close(&shared, id) {
            Response::Summary(s) => s,
            other => panic!("retried close failed: {other:?}"),
        };
        assert_eq!(first, retry);
        // A session that never existed still errors.
        assert!(matches!(handle_close(&shared, 999), Response::Error { .. }));
    }

    #[test]
    fn busy_checkout_answers_busy_not_error() {
        let shared = test_shared();
        let id = open_session(&shared);
        let held = shared.checkout(id).expect("checkout");
        let records: Vec<_> = (0..4).map(acc).collect();
        match handle_chunk(&shared, id, 1, &records) {
            Response::Busy {
                session,
                retry_after_ms,
            } => {
                assert_eq!(session, Some(id));
                assert_eq!(retry_after_ms, shared.config.busy_retry_ms);
            }
            other => panic!("expected Busy: {other:?}"),
        }
        assert!(matches!(
            handle_resume(&shared, id, 0),
            Response::Busy { .. }
        ));
        assert!(matches!(handle_close(&shared, id), Response::Busy { .. }));
        shared.checkin(id, held);
        let scrape = shared.obs.render(false);
        assert!(scrape.exposition.contains("stems_chunks_shed_total 2"));
        assert!(scrape.exposition.contains("stems_busy_total 3"));
    }

    #[test]
    fn chunk_admission_cap_sheds_with_busy() {
        let shared = Shared::new(ServerConfig {
            event_capacity: 16,
            max_concurrent_chunks: 2,
            ..ServerConfig::default()
        });
        let id = open_session(&shared);
        // Two permits saturate the cap; the third chunk sheds.
        let _p1 = shared.admit_chunk().expect("permit 1");
        let _p2 = shared.admit_chunk().expect("permit 2");
        let records: Vec<_> = (0..4).map(acc).collect();
        assert!(matches!(
            handle_chunk(&shared, id, 1, &records),
            Response::Busy { .. }
        ));
        // At half the cap (1 in flight after dropping p2), opens shed
        // while chunks still run — new tenants lose first.
        drop(_p2);
        assert!(shared.opens_saturated());
        let open = OpenRequest {
            system: SystemConfig::small(),
            prefetch: PrefetchConfig::small(),
            predictor: Predictor::Stems,
            invalidations: None,
        };
        assert!(matches!(handle_open(&shared, &open), Response::Busy { .. }));
        assert!(matches!(
            handle_chunk(&shared, id, 1, &records),
            Response::Stats(_)
        ));
        drop(_p1);
        let scrape = shared.obs.render(false);
        assert!(scrape.exposition.contains("stems_chunks_shed_total 1"));
        assert!(scrape.exposition.contains("stems_opens_shed_total 1"));
    }

    #[test]
    fn finished_guard_checks_back_in_without_abort() {
        let shared = test_shared();
        let id = open_session(&shared);
        let state = shared.checkout(id).expect("checkout");
        let mut guard = CheckoutGuard::new(&shared, id, state);
        guard.state().fed += 10;
        guard.finish();
        let back = shared.checkout(id).expect("still present");
        assert_eq!(back.fed, 10);
        shared.checkin(id, back);
        let scrape = shared.obs.render(false);
        assert!(scrape.exposition.contains("stems_sessions_aborted_total 0"));
        assert!(scrape.exposition.contains("stems_sessions_open 1"));
    }
}
