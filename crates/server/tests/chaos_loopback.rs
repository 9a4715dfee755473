//! Chaos loopback: a real server, a real resilient client, and a
//! fault-injection proxy between them. The acceptance bar from the
//! fault-tolerance design: a full DB2 replay through the proxy at a
//! double-digit fault rate must complete with counters **byte-identical**
//! to a fault-free run, with zero panics or hangs, and with every
//! injected fault accounted for — the client's reconnect count equals
//! the proxy's fired fatal-fault count, and the server's scraped
//! `stems_sessions_resumed_total` equals the client's resume count.

mod support;

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use stems_client::{Client, ResilientClient, RetryPolicy};
use stems_core::Predictor;
use stems_server::chaos::{ChaosConfig, ChaosProxy};
use stems_server::ServerConfig;
use stems_trace::store::TraceReader;
use support::{local_summary, open_request, sample, store_bytes, test_trace};

/// Small frames (`support::FRAME`) so the test trace spans many chunk
/// messages — more in-flight frames, more fault surface per connection.
fn start_server() -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    // Bound how long a wedged read can stall the run; every other knob
    // stays at the production default.
    support::start_server(ServerConfig {
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    })
}

/// A retry policy tuned for a hostile loopback: fast backoff so the
/// test finishes quickly, a short read deadline so a swallowed reply
/// cannot stall a pipeline for long, and enough retries that even an
/// unlucky chain of per-connection faults cannot exhaust it (each
/// success resets the attempt counter; at fault rate 0.5 a 32-failure
/// streak has probability 2^-32).
fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 32,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(50),
        jitter_seed: seed,
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(5),
    }
}

/// The tentpole acceptance test: full DB2 replay through the fault
/// proxy at a 50% per-connection fatal-fault rate (plus delays and
/// splits), byte-identical counters, every fault accounted.
#[test]
fn chaos_replay_is_byte_identical_and_every_fault_accounted() {
    let bytes = store_bytes(&test_trace());
    let (server_addr, handle) = start_server();
    let chaos = ChaosConfig {
        seed: 2046,
        fault_rate: 0.9,
        delay_rate: 0.02,
        delay: Duration::from_millis(2),
        split_rate: 0.2,
        verbose: false,
    };
    let mut proxy =
        ChaosProxy::spawn("127.0.0.1:0", server_addr.to_string(), chaos).expect("spawn proxy");
    let proxy_addr = proxy.local_addr();

    let open = open_request(Predictor::Stems);
    let mut client = ResilientClient::new(proxy_addr.to_string(), chaos_policy(7));
    let session = client.open(&open).expect("open through chaos");
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
    let (fed, last) = client
        .stream(session, &mut reader, 4)
        .expect("stream through chaos");
    let last = last.expect("at least one chunk");
    assert_eq!(last.accesses_fed, fed, "last snapshot is cumulative");
    let remote = client.close(session).expect("close through chaos");

    // Byte-identical to the fault-free oracle: the replay lost nothing
    // and duplicated nothing, no matter what the proxy did.
    let local = local_summary(&open, &bytes);
    assert_eq!(remote.accesses_fed, local.accesses_fed);
    assert_eq!(fed, local.accesses_fed, "every record was fed exactly once");
    assert_eq!(remote.counters, local.counters, "counters diverged");
    assert_eq!(remote.recon, local.recon, "recon stats diverged");
    assert_eq!(remote.pst_probes, local.pst_probes, "pst probes diverged");

    // Every fault accounted: each fired fatal fault forced exactly one
    // client teardown, and each successful resume was counted by the
    // server. (The scrape goes direct, not through the proxy.)
    let stats = client.stats();
    let log = proxy.log();
    assert_eq!(
        stats.reconnects,
        log.fatal_faults(),
        "client teardowns must reconcile with the proxy's fired fatal faults \
         (stats {stats:?}, log {log:?})"
    );
    assert!(
        log.fatal_faults() >= 1,
        "seed 2046 at rate 0.9 must actually injure the run (log {log:?})"
    );
    let mut admin = Client::connect(server_addr).expect("connect direct");
    let reply = admin.metrics(false).expect("scrape");
    assert_eq!(
        sample(&reply.exposition, "stems_sessions_resumed_total"),
        stats.resumes,
        "server-counted resumes must equal client-counted resumes"
    );
    assert_eq!(
        sample(&reply.exposition, "stems_busy_total"),
        stats.busy_retries,
        "every Busy the server sent, the client retried"
    );

    proxy.stop();
    // A retried Open whose first reply was eaten can leak an idle
    // server-side session, so the drain may summarize stragglers —
    // that is the documented cost of keeping Open retryable.
    admin.shutdown_server().expect("shutdown");
    handle.join().unwrap().expect("server run");
}

/// A second predictor under a different chaos seed: the oracle match is
/// not a property of one lucky schedule.
#[test]
fn chaos_replay_matches_oracle_for_another_predictor_and_seed() {
    let bytes = store_bytes(&test_trace());
    let (server_addr, handle) = start_server();
    let chaos = ChaosConfig {
        seed: 77,
        fault_rate: 0.4,
        ..ChaosConfig::default()
    };
    let mut proxy =
        ChaosProxy::spawn("127.0.0.1:0", server_addr.to_string(), chaos).expect("proxy");
    let open = open_request(Predictor::Sms);
    let mut client = ResilientClient::new(proxy.local_addr().to_string(), chaos_policy(3));
    let session = client.open(&open).expect("open");
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
    let (fed, _) = client.stream(session, &mut reader, 4).expect("stream");
    let summary = client.close(session).expect("close");
    let local = local_summary(&open, &bytes);
    assert_eq!(fed, local.accesses_fed);
    assert_eq!(summary.counters, local.counters, "counters diverged");
    assert_eq!(
        client.stats().reconnects,
        proxy.log().fatal_faults(),
        "every fired fault reconciled"
    );
    proxy.stop();
    let mut admin = Client::connect(server_addr).expect("connect direct");
    admin.shutdown_server().expect("shutdown");
    handle.join().unwrap().expect("server run");
}

/// The kill-mid-stream pin, scripted rather than probabilistic: feed
/// half the sequenced chunks, kill the connection without closing the
/// session, resume from a *stale* acknowledgment on a fresh connection
/// (the server's journal is ahead — exactly what a died-before-ack
/// fault leaves behind), and finish. The summary must be byte-identical
/// to the oracle: the journal dedupes what was already applied.
#[test]
fn kill_mid_stream_then_resume_replays_byte_identically() {
    let bytes = store_bytes(&test_trace());
    let (addr, handle) = start_server();
    let open = open_request(Predictor::Stems);

    // Collect the frames once so the kill point is exact.
    let mut frames: Vec<Vec<stems_trace::Access>> = Vec::new();
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
    while let Some(chunk) = reader.next_chunk().expect("chunk") {
        frames.push(chunk.to_vec());
    }
    assert!(frames.len() >= 4, "need a meaningful mid-stream kill point");
    let kill_at = frames.len() / 2;

    let mut first = Client::connect(addr).expect("connect");
    let session = first.open(&open).expect("open");
    for (i, frame) in frames[..kill_at].iter().enumerate() {
        first
            .write_seq_chunk(session, (i + 1) as u64, frame)
            .expect("send");
        first.read_stats().expect("stats");
    }
    // Kill: drop the connection with the session un-closed and pretend
    // the last two acknowledgments were lost in flight.
    drop(first);
    let stale_ack = (kill_at as u64).saturating_sub(2);

    let mut second = Client::connect(addr).expect("reconnect");
    let info = second.resume(session, stale_ack).expect("resume");
    assert_eq!(
        info.last_seq, kill_at as u64,
        "journal answers with its true position, ahead of the stale ack"
    );
    for (i, frame) in frames.iter().enumerate().skip(info.last_seq as usize) {
        second
            .write_seq_chunk(session, (i + 1) as u64, frame)
            .expect("send");
        second.read_stats().expect("stats");
    }
    let remote = second.close(session).expect("close");
    let local = local_summary(&open, &bytes);
    assert_eq!(remote.accesses_fed, local.accesses_fed);
    assert_eq!(remote.counters, local.counters, "counters diverged");
    assert_eq!(remote.recon, local.recon);
    assert_eq!(remote.pst_probes, local.pst_probes);

    assert!(second.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}
