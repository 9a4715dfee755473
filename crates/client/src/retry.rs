//! Retry, backoff, and resumable streaming on top of [`Client`].
//!
//! A raw [`Client`] surfaces every fault as a typed error and stops.
//! [`ResilientClient`] heals the transient ones instead: it wraps one
//! logical session in a [`RetryPolicy`] (bounded exponential backoff
//! with deterministic seeded jitter, connect timeout, per-call socket
//! deadlines) and the resume protocol from `docs/FAULT_TOLERANCE.md`.
//! [`ResilientClient::stream`] is the one whole-trace streaming loop; a
//! caller that must fail fast passes a policy with `max_retries: 0`.
//!
//! The streaming path keeps every unacknowledged sequenced chunk
//! buffered (as its already-encoded wire frame). When anything
//! transient goes wrong mid-stream — a torn connection, a truncated or
//! corrupted frame, a `Busy` rejection — it tears the connection down,
//! backs off, reconnects, sends `Resume{session, last_acked_seq}`,
//! drops the buffered frames the server's journal already applied,
//! resends the rest byte-identically, and keeps going. The server's
//! idempotent dedupe guarantees the replayed stream produces counters
//! byte-identical to a fault-free run.
//!
//! Everything is deterministic on purpose: the jitter schedule is a
//! pure function of `(seed, attempt)`, so a failure reproduces exactly
//! under a fixed seed, and the chaos harness can assert that retry
//! counts equal injected-fault counts.

use std::collections::VecDeque;
use std::io::Read;
use std::time::Duration;

use stems_core::protocol::{self, ChunkStats, OpenRequest, SessionSummary};
use stems_trace::TraceReader;

use crate::{Client, ClientError};

/// How a [`ResilientClient`] retries: bounded exponential backoff with
/// deterministic seeded jitter, plus the socket deadlines applied at
/// every (re)connect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failed attempts tolerated before giving up (the
    /// counter resets after every success).
    pub max_retries: u32,
    /// Backoff before retry `n` starts from `base_delay << n`.
    pub base_delay: Duration,
    /// Hard cap on any single backoff delay, jitter included.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter schedule.
    pub jitter_seed: u64,
    /// Bound on connection establishment.
    pub connect_timeout: Duration,
    /// Per-read socket deadline.
    pub read_timeout: Duration,
    /// Per-write socket deadline.
    pub write_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0x5EED_2009,
            connect_timeout: crate::DEFAULT_CONNECT_TIMEOUT,
            read_timeout: crate::DEFAULT_READ_TIMEOUT,
            write_timeout: crate::DEFAULT_WRITE_TIMEOUT,
        }
    }
}

/// SplitMix64: the house mixer for deriving independent deterministic
/// values from a seed (same finalizer the workload RNGs use).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// The backoff before retry attempt `attempt` (0-based): a pure
    /// function of `(jitter_seed, attempt)`, so the whole schedule is
    /// reproducible under a fixed seed. The raw delay doubles each
    /// attempt from [`RetryPolicy::base_delay`]; jitter scales it by a
    /// factor in `[0.5, 1.0]`; the result never exceeds
    /// [`RetryPolicy::max_delay`].
    pub fn delay(&self, attempt: u32) -> Duration {
        let shift = attempt.min(31);
        let raw = self
            .base_delay
            .saturating_mul(1u32 << shift)
            .min(self.max_delay);
        let r =
            splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
        let factor = 0.5 + 0.5 * (r as f64 / u64::MAX as f64);
        raw.mul_f64(factor)
    }

    /// The delay before retrying a `Busy` rejection: the larger of the
    /// server's hint and the backoff schedule's delay, still capped at
    /// [`RetryPolicy::max_delay`].
    pub fn busy_delay(&self, attempt: u32, retry_after_ms: u32) -> Duration {
        self.delay(attempt)
            .max(Duration::from_millis(u64::from(retry_after_ms)))
            .min(self.max_delay)
    }
}

/// What the retry layer healed (and what it could not avoid paying):
/// one counter per recovery mechanism, so a chaos run can reconcile
/// client-side healing against the proxy's injection log and the
/// server's scraped metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Connection teardowns forced by a transient non-`Busy` fault
    /// (one per fault the transport surfaced — the number a fault
    /// proxy's fatal-injection log must match).
    pub reconnects: u64,
    /// Successful `Resume` handshakes after a mid-stream teardown
    /// (what the server counts as `stems_sessions_resumed_total`).
    pub resumes: u64,
    /// `Busy` rejections answered by backing off and retrying.
    pub busy_retries: u64,
    /// Buffered frames resent after a resume.
    pub chunks_resent: u64,
    /// Resent chunks the server's journal had already applied (their
    /// original `Stats` reply died with the old connection).
    pub chunks_deduped: u64,
}

/// One buffered in-flight chunk: its sequence number and the exact wire
/// frame that was sent.
struct Pending {
    seq: u64,
    frame: Vec<u8>,
}

/// A [`Client`] wrapped in a [`RetryPolicy`] and the resume protocol:
/// transient faults (torn connections, corrupt frames, `Busy`
/// shedding) heal transparently; authoritative server errors still
/// surface.
pub struct ResilientClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<Client>,
    stats: FaultStats,
    /// Buffers of acknowledged frames, reused for later chunks.
    spare: Vec<Vec<u8>>,
}

impl ResilientClient {
    /// Creates the wrapper. No connection is made until the first call
    /// needs one.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> ResilientClient {
        ResilientClient {
            addr: addr.into(),
            policy,
            client: None,
            stats: FaultStats::default(),
            spare: Vec::new(),
        }
    }

    /// What the retry layer has healed so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    fn connect(&mut self) -> Result<&mut Client, ClientError> {
        if self.client.is_none() {
            let client = Client::connect_with(
                self.addr.as_str(),
                self.policy.connect_timeout,
                self.policy.read_timeout,
                self.policy.write_timeout,
            )?;
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// Counts one transient failure, tears the connection down, and
    /// sleeps the policy's backoff. Returns the next attempt index.
    fn note_fault(&mut self, e: &ClientError, attempt: u32) -> u32 {
        match e {
            ClientError::Busy { retry_after_ms, .. } => {
                self.stats.busy_retries += 1;
                self.client = None;
                std::thread::sleep(self.policy.busy_delay(attempt, *retry_after_ms));
            }
            _ => {
                self.stats.reconnects += 1;
                self.client = None;
                std::thread::sleep(self.policy.delay(attempt));
            }
        }
        attempt + 1
    }

    /// Runs `op` against a live connection, retrying transient faults
    /// (with reconnect) and `Busy` rejections (with backoff) up to
    /// `max_retries` consecutive failures. `op` must be idempotent —
    /// every caller here satisfies that via the server's journals.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = match self.connect() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt = self.note_fault(&e, attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Opens a session, retrying transient faults. A retried `Open`
    /// whose first reply was lost can leak a server-side session until
    /// its idle TTL reclaims it — accepted, and why `Open` stays cheap.
    pub fn open(&mut self, open: &OpenRequest) -> Result<u32, ClientError> {
        let open = open.clone();
        self.with_retry(move |client| client.open(&open))
    }

    /// Closes a session, retrying transient faults; the server's
    /// summary journal answers a retried close with the identical
    /// summary even though the session is already gone.
    pub fn close(&mut self, session: u32) -> Result<SessionSummary, ClientError> {
        self.with_retry(move |client| client.close(session))
    }

    /// Streams a whole persisted trace into `session` with sequenced
    /// chunks, keeping up to `window` chunks in flight and healing
    /// every transient fault via reconnect + `Resume`. Returns the
    /// records fed and the last counter snapshot (which reflects every
    /// record, because all snapshots are drained before returning).
    ///
    /// The trace reader is forward-only, so the unacknowledged window
    /// is buffered here as encoded frames; a resume resends exactly
    /// the frames the server's journal has not applied, and the
    /// server's dedupe absorbs any overlap. Counters stay
    /// byte-identical to a fault-free run. An acknowledged frame's
    /// buffer is reused for a later chunk, so once the window is full
    /// streaming allocates nothing per chunk.
    pub fn stream<R: Read>(
        &mut self,
        session: u32,
        reader: &mut TraceReader<R>,
        window: usize,
    ) -> Result<(u64, Option<ChunkStats>), ClientError> {
        let window = window.max(1);
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut next_seq = 1u64;
        let mut acked_seq = 0u64;
        let mut fed = 0u64;
        let mut last: Option<ChunkStats> = None;
        let mut attempt = 0u32;
        let mut scratch = Vec::new();
        let mut exhausted = false;

        while !exhausted || !pending.is_empty() {
            // Fill the window from the reader, encoding each chunk once
            // (the buffered frame is also the retransmit unit).
            while !exhausted && pending.len() < window {
                match reader.next_chunk()? {
                    None => exhausted = true,
                    Some(chunk) => {
                        let mut frame = self.spare.pop().unwrap_or_default();
                        frame.clear();
                        protocol::encode_seq_chunk(
                            &mut frame,
                            &mut scratch,
                            session,
                            next_seq,
                            chunk,
                        );
                        fed += chunk.len() as u64;
                        let send = self.connect().and_then(|c| c.write_frame_bytes(&frame));
                        pending.push_back(Pending {
                            seq: next_seq,
                            frame,
                        });
                        next_seq += 1;
                        if let Err(e) = send {
                            attempt = self.recover(
                                session,
                                &mut pending,
                                &mut acked_seq,
                                &mut last,
                                attempt,
                                e,
                            )?;
                        }
                    }
                }
            }
            if pending.is_empty() {
                break;
            }
            // One snapshot owed per in-flight frame, in order.
            match self.connect().and_then(|c| c.read_stats()) {
                Ok(stats) => {
                    attempt = 0;
                    let head = pending.pop_front().expect("stats without a pending chunk");
                    acked_seq = head.seq;
                    self.spare.push(head.frame);
                    last = Some(stats);
                }
                Err(e) => {
                    attempt =
                        self.recover(session, &mut pending, &mut acked_seq, &mut last, attempt, e)?;
                }
            }
        }
        Ok((fed, last))
    }

    /// Heals one mid-stream fault: tear down, back off, reconnect,
    /// `Resume`, drop journal-applied frames from the window, resend
    /// the rest. Returns the attempt counter to carry forward (0 after
    /// a successful recovery); consecutive failures share it so a dead
    /// server exhausts `max_retries` instead of looping forever.
    fn recover(
        &mut self,
        session: u32,
        pending: &mut VecDeque<Pending>,
        acked_seq: &mut u64,
        last: &mut Option<ChunkStats>,
        mut attempt: u32,
        cause: ClientError,
    ) -> Result<u32, ClientError> {
        if !cause.is_transient() {
            return Err(cause);
        }
        let mut err = cause;
        loop {
            if attempt >= self.policy.max_retries {
                return Err(err);
            }
            attempt = self.note_fault(&err, attempt);
            let info = match self.connect().and_then(|c| c.resume(session, *acked_seq)) {
                Ok(info) => info,
                Err(e) if e.is_transient() => {
                    err = e;
                    continue;
                }
                Err(e) => return Err(e),
            };
            self.stats.resumes += 1;
            // Frames the server's journal already applied are
            // acknowledged now; their Stats replies died with the old
            // connection.
            while pending.front().is_some_and(|p| p.seq <= info.last_seq) {
                let done = pending.pop_front().expect("checked non-empty");
                *acked_seq = done.seq;
                self.spare.push(done.frame);
                self.stats.chunks_deduped += 1;
            }
            *last = Some(ChunkStats {
                session,
                accesses_fed: info.accesses_fed,
                counters: info.counters,
            });
            // Resend the rest of the window byte-identically.
            let mut resend_err = None;
            for p in pending.iter() {
                match self.connect().and_then(|c| c.write_frame_bytes(&p.frame)) {
                    Ok(()) => self.stats.chunks_resent += 1,
                    Err(e) if e.is_transient() => {
                        // The fresh connection died too; resume again.
                        resend_err = Some(e);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            match resend_err {
                Some(e) => err = e,
                None => return Ok(0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        let a: Vec<Duration> = (0..16).map(|n| policy.delay(n)).collect();
        let b: Vec<Duration> = (0..16).map(|n| policy.delay(n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for d in &a {
            assert!(*d <= policy.max_delay);
        }
        // Jitter keeps at least half the raw delay.
        assert!(a[0] >= policy.base_delay / 2);
        // A different seed produces a different schedule.
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy
        };
        assert_ne!(a, (0..16).map(|n| other.delay(n)).collect::<Vec<_>>());
    }

    #[test]
    fn busy_delay_honors_the_server_hint() {
        let policy = RetryPolicy::default();
        assert!(policy.busy_delay(0, 500) >= Duration::from_millis(500));
        assert!(policy.busy_delay(0, u32::MAX) <= policy.max_delay);
    }

    #[test]
    fn huge_attempt_indices_saturate_instead_of_overflowing() {
        let policy = RetryPolicy::default();
        assert!(policy.delay(u32::MAX) <= policy.max_delay);
        assert!(policy.delay(31) <= policy.max_delay);
    }
}
