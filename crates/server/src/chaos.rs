//! Fault-injection TCP proxy for chaos testing the serving path.
//!
//! [`ChaosProxy`] sits between a client and a `stems-serve` upstream
//! and deterministically injures the byte stream: it truncates
//! connections mid-frame, swallows bytes and closes, flips single
//! bits, delays segments, and splits writes. Every decision comes from
//! a seeded RNG keyed by `(seed, connection index)`, and fatal faults
//! fire at pre-chosen **byte offsets** in a direction's stream — so a
//! run is reproducible regardless of how TCP happens to segment the
//! bytes.
//!
//! The proxy is intentionally crude about what it knows: it never
//! parses frames. The wire format's CRC and length bounds are the
//! things under test — every injected fault must surface downstream as
//! a typed, transient error (`Truncated`, `ChecksumMismatch`,
//! `Oversized`, an EOF, or the server's `bad frame:` courtesy error),
//! never as a panic, a hang, or silent counter drift. The one
//! exception the proxy respects: the 12-byte connection hello carries
//! no checksum, so bit flips are scheduled at offsets past it —
//! corrupting the hello is indistinguishable from a protocol mismatch,
//! which is *supposed* to be fatal.
//!
//! At most **one fatal fault fires per proxied connection**, and the
//! connection is closed immediately after. That gives exact
//! accounting: each fired fatal fault forces exactly one client
//! teardown, so a resilient client's `reconnects` counter must equal
//! [`ChaosLog::fatal_faults`] at the end of a run (the chaos loopback
//! test pins this).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use stems_types::hash::splitmix64;
use stems_types::wire::HELLO_BYTES;

/// Fatal faults are scheduled at a byte offset in
/// `[HELLO_BYTES, HELLO_BYTES + FAULT_WINDOW)`; an offset the stream
/// never reaches simply does not fire (and is not logged).
const FAULT_WINDOW: u64 = 16 * 1024;

/// How the proxy misbehaves. Rates are probabilities in `[0, 1]`.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for every schedule; same seed, same faults.
    pub seed: u64,
    /// Probability that a connection is assigned one fatal fault
    /// (truncate / drop / bit flip at a scheduled byte offset).
    pub fault_rate: f64,
    /// Probability per forwarded segment of pausing for [`ChaosConfig::delay`].
    pub delay_rate: f64,
    /// The pause injected by a delay fault.
    pub delay: Duration,
    /// Probability per forwarded segment of splitting the write in two
    /// (with a flush between halves) to exercise short reads.
    pub split_rate: f64,
    /// Print one `chaos: fatal ...` line to stdout per fired fatal
    /// fault (what the CI smoke job counts).
    pub verbose: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0x5EED_C405,
            fault_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(1),
            split_rate: 0.0,
            verbose: false,
        }
    }
}

/// What the proxy actually injected, as atomic counters. Fired fatal
/// faults ([`ChaosLog::fatal_faults`]) are the ground truth a chaos
/// run reconciles client retry stats and server shed metrics against.
#[derive(Debug, Default)]
pub struct ChaosLog {
    /// Connections accepted and proxied.
    pub connections: AtomicU64,
    /// Connections cut mid-stream at the scheduled offset.
    pub truncated: AtomicU64,
    /// Connections that had bytes swallowed, then were closed.
    pub dropped: AtomicU64,
    /// Single-bit flips forwarded into the stream.
    pub corrupted: AtomicU64,
    /// Segments paused before forwarding.
    pub delayed: AtomicU64,
    /// Segments forwarded as two flushed halves.
    pub split: AtomicU64,
}

impl ChaosLog {
    /// Fatal faults that actually fired — each one forced a client
    /// teardown and therefore one reconnect.
    pub fn fatal_faults(&self) -> u64 {
        self.truncated.load(Ordering::SeqCst)
            + self.dropped.load(Ordering::SeqCst)
            + self.corrupted.load(Ordering::SeqCst)
    }
}

/// Tiny deterministic RNG: a SplitMix64 counter stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Client bytes flowing toward the server.
    C2s,
    /// Server bytes flowing toward the client.
    S2c,
}

impl Direction {
    fn label(self) -> &'static str {
        match self {
            Direction::C2s => "c2s",
            Direction::S2c => "s2c",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Direction::C2s => 0x0C25,
            Direction::S2c => 0x052C,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum FaultKind {
    /// Cut the connection exactly at the scheduled offset.
    Truncate,
    /// Forward up to the offset, swallow the rest of that segment,
    /// then close — bytes vanish, then the transport dies.
    Drop,
    /// Flip one bit at the offset and keep forwarding; the CRC (or the
    /// peer's framing checks) must catch it.
    Corrupt,
}

impl FaultKind {
    fn label(self) -> &'static str {
        match self {
            FaultKind::Truncate => "truncate",
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// The one fatal fault a connection may carry: fires in `dir` when the
/// stream reaches `offset`.
#[derive(Clone, Copy, Debug)]
struct FaultPlan {
    dir: Direction,
    kind: FaultKind,
    offset: u64,
    bit: u8,
}

/// Draws a connection's fault plan from the seeded schedule. Pure:
/// `(seed, conn)` fully determines the answer.
fn plan_fault(config: &ChaosConfig, conn: u64) -> Option<FaultPlan> {
    let mut rng = Rng::new(config.seed ^ conn.wrapping_mul(0xA076_1D64_78BD_642F));
    if !rng.chance(config.fault_rate) {
        return None;
    }
    let dir = if rng.next() & 1 == 0 {
        Direction::C2s
    } else {
        Direction::S2c
    };
    let kind = match rng.next() % 3 {
        0 => FaultKind::Truncate,
        1 => FaultKind::Drop,
        _ => FaultKind::Corrupt,
    };
    // Past the hello: it has no checksum, so corrupting it looks like
    // a protocol mismatch rather than a transient transport fault.
    let offset = HELLO_BYTES as u64 + rng.next() % FAULT_WINDOW;
    let bit = (rng.next() & 7) as u8;
    Some(FaultPlan {
        dir,
        kind,
        offset,
        bit,
    })
}

/// A running fault-injection proxy. Dropping it (or calling
/// [`ChaosProxy::stop`]) stops accepting; connections already proxied
/// run until their streams close.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    log: Arc<ChaosLog>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `listen` (use port 0 for an ephemeral port) and proxies
    /// every accepted connection to `upstream` with faults injected
    /// per `config`.
    pub fn spawn(
        listen: &str,
        upstream: impl Into<String>,
        config: ChaosConfig,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        let local_addr = listener.local_addr()?;
        let upstream = upstream.into();
        let log = Arc::new(ChaosLog::default());
        let stop = Arc::new(AtomicBool::new(false));
        let accept_log = Arc::clone(&log);
        let accept_stop = Arc::clone(&stop);
        let accept_thread = thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || {
                let mut conn: u64 = 0;
                for inbound in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(inbound) = inbound else { continue };
                    let Ok(outbound) = TcpStream::connect(&upstream) else {
                        // Upstream refused; drop the client so it sees
                        // a plain connection failure.
                        continue;
                    };
                    let _ = inbound.set_nodelay(true);
                    let _ = outbound.set_nodelay(true);
                    accept_log.connections.fetch_add(1, Ordering::SeqCst);
                    let plan = plan_fault(&config, conn);
                    spawn_pumps(conn, inbound, outbound, plan, config, &accept_log);
                    conn += 1;
                }
            })
            .expect("spawn chaos accept thread");
        Ok(ChaosProxy {
            local_addr,
            log,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's bound address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The injection log (shared with the pump threads; counters move
    /// while connections are live).
    pub fn log(&self) -> Arc<ChaosLog> {
        Arc::clone(&self.log)
    }

    /// Stops accepting new connections and joins the accept thread.
    pub fn stop(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.local_addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawns the two direction pumps for one proxied connection.
fn spawn_pumps(
    conn: u64,
    inbound: TcpStream,
    outbound: TcpStream,
    plan: Option<FaultPlan>,
    config: ChaosConfig,
    log: &Arc<ChaosLog>,
) {
    let pairs = [
        (Direction::C2s, inbound.try_clone(), outbound.try_clone()),
        (Direction::S2c, outbound.try_clone(), inbound.try_clone()),
    ];
    for (dir, src, dst) in pairs {
        let (Ok(src), Ok(dst)) = (src, dst) else {
            let _ = inbound.shutdown(Shutdown::Both);
            let _ = outbound.shutdown(Shutdown::Both);
            return;
        };
        let fault = plan.filter(|p| p.dir == dir);
        let log = Arc::clone(log);
        thread::Builder::new()
            .name(format!("chaos-{}-{conn}", dir.label()))
            .spawn(move || pump(src, dst, dir, conn, fault, config, log))
            .expect("spawn chaos pump thread");
    }
}

/// Copies `src` to `dst` byte-for-byte, injecting the scheduled fatal
/// fault (if any) plus probabilistic delays and splits. Returns when
/// either side closes or the fatal fault fires.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    dir: Direction,
    conn: u64,
    mut fault: Option<FaultPlan>,
    config: ChaosConfig,
    log: Arc<ChaosLog>,
) {
    let mut rng = Rng::new(config.seed ^ conn ^ dir.salt());
    let mut buf = [0u8; 8192];
    let mut pos: u64 = 0;
    loop {
        let n = match src.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if let Some(plan) = fault {
            if plan.offset < pos + n as u64 {
                let cut = (plan.offset - pos) as usize;
                let fired = |counter: &AtomicU64| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    if config.verbose {
                        println!(
                            "chaos: fatal kind={} conn={conn} dir={} offset={}",
                            plan.kind.label(),
                            dir.label(),
                            plan.offset
                        );
                    }
                };
                match plan.kind {
                    FaultKind::Truncate => {
                        let _ = dst.write_all(&buf[..cut]);
                        let _ = dst.flush();
                        fired(&log.truncated);
                        break;
                    }
                    FaultKind::Drop => {
                        let _ = dst.write_all(&buf[..cut]);
                        let _ = dst.flush();
                        fired(&log.dropped);
                        break;
                    }
                    FaultKind::Corrupt => {
                        buf[cut] ^= 1 << plan.bit;
                        fired(&log.corrupted);
                        fault = None;
                    }
                }
            }
        }
        if config.delay_rate > 0.0 && rng.chance(config.delay_rate) {
            log.delayed.fetch_add(1, Ordering::SeqCst);
            thread::sleep(config.delay);
        }
        let wrote = if config.split_rate > 0.0 && n > 1 && rng.chance(config.split_rate) {
            log.split.fetch_add(1, Ordering::SeqCst);
            let mid = n / 2;
            dst.write_all(&buf[..mid])
                .and_then(|()| dst.flush())
                .and_then(|()| dst.write_all(&buf[mid..n]))
        } else {
            dst.write_all(&buf[..n])
        };
        if wrote.and_then(|()| dst.flush()).is_err() {
            break;
        }
        pos += n as u64;
    }
    // Tear down the pair: a fatal fault (or either side closing) kills
    // both directions, so nobody is left waiting on a half-dead pipe.
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_are_deterministic_and_past_the_hello() {
        let config = ChaosConfig {
            seed: 7,
            fault_rate: 0.5,
            ..ChaosConfig::default()
        };
        let a: Vec<bool> = (0..64).map(|c| plan_fault(&config, c).is_some()).collect();
        let b: Vec<bool> = (0..64).map(|c| plan_fault(&config, c).is_some()).collect();
        assert_eq!(a, b, "same seed, same schedule");
        let hits = a.iter().filter(|f| **f).count();
        assert!(hits > 8 && hits < 56, "rate 0.5 should land mid-range");
        for c in 0..64 {
            if let Some(plan) = plan_fault(&config, c) {
                assert!(plan.offset >= HELLO_BYTES as u64, "hello is off-limits");
                assert!(plan.offset < HELLO_BYTES as u64 + FAULT_WINDOW);
            }
        }
        let other = ChaosConfig { seed: 8, ..config };
        let c: Vec<bool> = (0..64).map(|c| plan_fault(&other, c).is_some()).collect();
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn zero_fault_rate_plans_nothing() {
        let config = ChaosConfig::default();
        assert!((0..256).all(|c| plan_fault(&config, c).is_none()));
    }

    #[test]
    fn transparent_proxy_forwards_bytes_exactly() {
        // A zero-rate proxy in front of an echo server must be
        // invisible: bytes round-trip unchanged and nothing is logged.
        let echo = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let echo_addr = echo.local_addr().expect("echo addr");
        let echo_thread = thread::spawn(move || {
            let (mut conn, _) = echo.accept().expect("accept");
            let mut buf = [0u8; 256];
            loop {
                match conn.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if conn.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let mut proxy =
            ChaosProxy::spawn("127.0.0.1:0", echo_addr.to_string(), ChaosConfig::default())
                .expect("spawn proxy");
        let mut client = TcpStream::connect(proxy.local_addr()).expect("connect");
        let sent: Vec<u8> = (0..=255).collect();
        client.write_all(&sent).expect("write");
        let mut got = vec![0u8; sent.len()];
        client.read_exact(&mut got).expect("read echo");
        assert_eq!(got, sent, "zero-rate proxy must be byte-transparent");
        drop(client);
        echo_thread.join().expect("echo thread");
        let log = proxy.log();
        assert_eq!(log.connections.load(Ordering::SeqCst), 1);
        assert_eq!(log.fatal_faults(), 0);
        assert_eq!(log.delayed.load(Ordering::SeqCst), 0);
        assert_eq!(log.split.load(Ordering::SeqCst), 0);
        proxy.stop();
    }
}
