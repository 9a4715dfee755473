//! Loopback integration: a real `Server` on an ephemeral port, real
//! clients over TCP, and the acceptance bar from the service design —
//! counters streamed back from the server must be **identical** to an
//! in-memory `Session::replay` of the same persisted trace, for every
//! predictor, under both golden configurations, including with many
//! tenant sessions interleaved on one server, and a `Shutdown` drain
//! must summarize every open session before the daemon exits cleanly.

mod support;

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use stems_client::{Client, ClientError, ResilientClient, RetryPolicy};
use stems_core::protocol::{
    OpenRequest, Response, SessionSummary, FRAMING_ERROR_PREFIX, KIND_SEQ_CHUNK,
};
use stems_core::{Predictor, PrefetchConfig};
use stems_memsim::{CacheConfig, SystemConfig};
use stems_server::ServerConfig;
use stems_trace::store::{decode_records, encode_records, TraceReader};
use stems_trace::Trace;
use stems_types::{varint, wire};
use support::{fail_fast, local_summary, sample, start_server, store_bytes, test_trace};

/// The two golden configurations from `engine::sim`: the default small
/// geometry and the 1KB 2-way L1 / 16KB L2 pressure geometry.
fn golden_configs() -> [(&'static str, SystemConfig, PrefetchConfig, (f64, u64)); 2] {
    let pressure = SystemConfig {
        l1: CacheConfig {
            size_bytes: 1024,
            associativity: 2,
        },
        l2: CacheConfig {
            size_bytes: 16 * 1024,
            associativity: 4,
        },
        ..SystemConfig::default()
    };
    [
        (
            "default",
            SystemConfig::small(),
            PrefetchConfig::small(),
            (0.01, 42),
        ),
        ("pressure", pressure, PrefetchConfig::small(), (0.02, 7)),
    ]
}

fn open_request(
    sys: &SystemConfig,
    cfg: &PrefetchConfig,
    predictor: Predictor,
    inval: (f64, u64),
) -> OpenRequest {
    OpenRequest {
        system: sys.clone(),
        prefetch: cfg.clone(),
        predictor,
        invalidations: Some(inval),
    }
}

fn assert_summaries_match(remote: &SessionSummary, local: &SessionSummary, what: &str) {
    assert_eq!(
        remote.accesses_fed, local.accesses_fed,
        "{what}: accesses fed diverged"
    );
    assert_eq!(
        remote.counters, local.counters,
        "{what}: counters diverged from in-memory replay"
    );
    assert_eq!(remote.recon, local.recon, "{what}: recon stats diverged");
    assert_eq!(
        remote.pst_probes, local.pst_probes,
        "{what}: pst probes diverged"
    );
}

/// Every predictor, both golden configurations, one session at a time:
/// streamed counters equal the in-memory replay's, byte for byte.
#[test]
fn streamed_counters_match_in_memory_replay() {
    let bytes = store_bytes(&test_trace());
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = fail_fast(addr);
    for (config_name, sys, cfg, inval) in golden_configs() {
        for predictor in Predictor::all() {
            let open = open_request(&sys, &cfg, predictor, inval);
            let session = client.open(&open).expect("open");
            let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
            let (fed, last) = client.stream(session, &mut reader, 4).expect("stream");
            let last = last.expect("at least one chunk");
            assert_eq!(last.accesses_fed, fed, "last snapshot is cumulative");
            let remote = client.close(session).expect("close");
            let local = local_summary(&open, &bytes);
            assert_summaries_match(
                &remote,
                &local,
                &format!("{config_name}/{}", predictor.name()),
            );
        }
    }
    drop(client);
    let mut admin = Client::connect(addr).expect("connect");
    assert!(admin.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}

/// Six tenant sessions (one per predictor) open simultaneously on one
/// server, chunks interleaved round-robin on a single connection: each
/// session's summary still equals its in-memory oracle.
#[test]
fn interleaved_tenant_sessions_stay_isolated() {
    let bytes = store_bytes(&test_trace());
    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let (_, sys, cfg, inval) = golden_configs().into_iter().next().unwrap();

    let opens: Vec<OpenRequest> = Predictor::all()
        .into_iter()
        .map(|p| open_request(&sys, &cfg, p, inval))
        .collect();
    let ids: Vec<u32> = opens
        .iter()
        .map(|o| client.open(o).expect("open"))
        .collect();
    assert!(
        ids.len() >= 4,
        "acceptance asks for >= 4 concurrent tenants"
    );

    // One reader per session, drained round-robin so every chunk of
    // every tenant interleaves with every other tenant's.
    let mut readers: Vec<TraceReader<&[u8]>> = ids
        .iter()
        .map(|_| TraceReader::new(bytes.as_slice()).expect("reader"))
        .collect();
    let mut seqs = vec![0u64; ids.len()];
    let mut done = vec![false; ids.len()];
    while !done.iter().all(|d| *d) {
        for (i, reader) in readers.iter_mut().enumerate() {
            if done[i] {
                continue;
            }
            match reader.next_chunk().expect("chunk") {
                Some(chunk) => {
                    seqs[i] += 1;
                    client
                        .write_seq_chunk(ids[i], seqs[i], chunk)
                        .expect("write_seq_chunk");
                    client.read_stats().expect("read_stats");
                }
                None => done[i] = true,
            }
        }
    }
    for (i, open) in opens.iter().enumerate() {
        let remote = client.close(ids[i]).expect("close");
        let local = local_summary(open, &bytes);
        assert_summaries_match(&remote, &local, open.predictor.name());
    }
    assert!(client.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}

/// Four client threads, each with its own connection and session,
/// streaming concurrently — exercises the checkout/checkin discipline
/// under real parallelism.
#[test]
fn parallel_connections_stream_concurrently() {
    let bytes = store_bytes(&test_trace());
    let (addr, handle) = start_server(ServerConfig::default());
    let (_, sys, cfg, inval) = golden_configs().into_iter().next().unwrap();
    let predictors = [
        Predictor::Stride,
        Predictor::Tms,
        Predictor::Sms,
        Predictor::Stems,
    ];
    thread::scope(|s| {
        let workers: Vec<_> = predictors
            .iter()
            .map(|&p| {
                let bytes = &bytes;
                let open = open_request(&sys, &cfg, p, inval);
                s.spawn(move || {
                    let mut client = fail_fast(addr);
                    let session = client.open(&open).expect("open");
                    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
                    client.stream(session, &mut reader, 4).expect("stream");
                    let remote = client.close(session).expect("close");
                    let local = local_summary(&open, bytes);
                    assert_summaries_match(&remote, &local, open.predictor.name());
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
    });
    let mut client = Client::connect(addr).expect("connect");
    assert!(client.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}

/// Shutdown with sessions still open: the drain finalizes each one,
/// streams back one summary per session (matching a local replay of
/// the same records), acknowledges with the drained count, and the
/// accept loop exits cleanly.
#[test]
fn shutdown_drains_open_sessions_with_summaries() {
    let bytes = store_bytes(&test_trace());
    let (addr, handle) = start_server(ServerConfig::default());
    let (_, sys, cfg, inval) = golden_configs().into_iter().next().unwrap();

    // Feed the full store into two sessions but do NOT close them.
    let mut feeder = fail_fast(addr);
    let opens = [
        open_request(&sys, &cfg, Predictor::Tms, inval),
        open_request(&sys, &cfg, Predictor::Sms, inval),
    ];
    let mut ids = Vec::new();
    for open in &opens {
        let id = feeder.open(open).expect("open");
        let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
        feeder.stream(id, &mut reader, 4).expect("stream");
        ids.push(id);
    }

    // A second connection requests the drain.
    let mut admin = Client::connect(addr).expect("connect");
    let summaries = admin.shutdown_server().expect("shutdown");
    assert_eq!(summaries.len(), 2, "one summary per open session");
    for (open, id) in opens.iter().zip(&ids) {
        let remote = summaries
            .iter()
            .find(|s| s.session == *id)
            .expect("summary for session");
        let local = local_summary(open, &bytes);
        assert_summaries_match(remote, &local, open.predictor.name());
    }
    // The server joins every connection worker before `run` returns;
    // closing the feeder's idle connection spares its worker the read
    // timeout.
    drop(feeder);
    handle.join().unwrap().expect("server run");
}

/// Checksummed `Open`s whose configs cannot build a session (an L1 with
/// zero ways, an SVB of zero entries, an L1 of 3 sets) get a typed
/// `Error` reply naming the field; no connection worker panics and no
/// session opens.
#[test]
fn degenerate_opens_get_an_error_reply() {
    let (addr, handle) = start_server(ServerConfig::default());
    let base = OpenRequest {
        system: SystemConfig::small(),
        prefetch: PrefetchConfig::small(),
        predictor: Predictor::Stems,
        invalidations: None,
    };
    let mut zero_ways = base.clone();
    zero_ways.system.l1.associativity = 0;
    let mut zero_svb = base.clone();
    zero_svb.prefetch.svb_entries = 0;
    let mut three_sets = base;
    three_sets.system.l1 = CacheConfig {
        size_bytes: 3 * 2 * 64,
        associativity: 2,
    };
    for (open, field) in [
        (zero_ways, "l1"),
        (zero_svb, "svb_entries"),
        (three_sets, "l1"),
    ] {
        let mut client = Client::connect(addr).expect("connect");
        match client.open(&open) {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains(field), "{field}: {message}")
            }
            other => panic!("{field}: want an Error reply, got {other:?}"),
        }
    }
    let mut admin = Client::connect(addr).expect("connect");
    let scrape = admin.metrics(false).expect("scrape").exposition;
    assert_eq!(sample(&scrape, "stems_worker_panics_total"), 0);
    assert_eq!(sample(&scrape, "stems_sessions_opened_total"), 0);
    assert!(admin.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}

/// An intact `Open` refused for its config is authoritative: under the
/// default retry policy a resilient client gets the error on its first
/// attempt, with no reconnect or backoff, and the server counts exactly
/// one decode failure.
#[test]
fn refused_open_fails_fast_under_the_default_retry_policy() {
    let (addr, handle) = start_server(ServerConfig::default());
    let mut open = OpenRequest {
        system: SystemConfig::small(),
        prefetch: PrefetchConfig::small(),
        predictor: Predictor::Stems,
        invalidations: None,
    };
    open.prefetch.svb_entries = 0;
    let mut client = ResilientClient::new(addr.to_string(), RetryPolicy::default());
    let err = client.open(&open).expect_err("a zero-entry SVB is refused");
    let ClientError::Server { message, .. } = &err else {
        panic!("want an Error reply, got {err:?}");
    };
    assert!(message.contains("svb_entries"), "{message}");
    assert!(!err.is_transient(), "retryable refusal: {err}");
    assert_eq!(client.stats().reconnects, 0);
    let mut admin = Client::connect(addr).expect("connect");
    let scrape = admin.metrics(false).expect("scrape").exposition;
    assert_eq!(sample(&scrape, "stems_wire_errors_total"), 1);
    assert_eq!(
        sample(&scrape, "stems_wire_errors_by_kind_total{kind=\"corrupt\"}"),
        1
    );
    assert!(admin.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}

/// Connections past `max_connections` are shed at the door: each one's
/// first request, whether `open`, `metrics` or `shutdown_server`, gets
/// a typed (retryable) `Busy`, and the held connection's scrape counts
/// every shed connection and every `Busy` reply before it drains the
/// server.
#[test]
fn connections_past_the_cap_are_shed_with_busy() {
    let (addr, handle) = start_server(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    let mut held = Client::connect(addr).expect("connect");
    let (_, sys, cfg, inval) = golden_configs().into_iter().next().unwrap();
    let open = open_request(&sys, &cfg, Predictor::Stems, inval);
    for request in ["open", "metrics", "shutdown_server"] {
        let mut client = Client::connect(addr).expect("connect");
        let err = match request {
            "open" => client.open(&open).map(drop),
            "metrics" => client.metrics(false).map(drop),
            _ => client.shutdown_server().map(drop),
        }
        .expect_err(request);
        assert!(
            matches!(err, ClientError::Busy { session: None, .. }),
            "{request}: want Busy, got {err:?}"
        );
        assert!(err.is_transient(), "{request}: {err}");
    }
    let scrape = held.metrics(false).expect("scrape").exposition;
    assert_eq!(sample(&scrape, "stems_connections_shed_total"), 3);
    assert_eq!(sample(&scrape, "stems_busy_total"), 3);
    assert!(held.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}

/// Sends one correctly framed and checksummed `SeqChunk` carrying
/// `columns` as its record columns over a fresh connection, and returns
/// the server's reply.
fn send_raw_chunk(
    addr: SocketAddr,
    session: u32,
    seq: u64,
    count: usize,
    columns: &[u8],
) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    wire::write_hello(&mut writer).expect("hello");
    wire::read_hello(&mut reader).expect("server hello");
    let mut payload = Vec::new();
    varint::write_u64(&mut payload, session as u64);
    varint::write_u64(&mut payload, seq);
    varint::write_u64(&mut payload, count as u64);
    payload.extend_from_slice(columns);
    wire::write_message(&mut writer, KIND_SEQ_CHUNK, &payload, &mut Vec::new()).expect("send");
    Response::read_from(&mut reader, &mut Vec::new())
        .expect("a well-formed reply")
        .expect("a reply before the close")
}

/// End offsets of the `n` varints that start at `from`.
fn varint_ends(bytes: &[u8], from: usize, n: usize) -> Vec<usize> {
    let mut pos = from;
    (0..n)
        .map(|_| {
            pos += varint::read_u64(&bytes[pos..])
                .expect("well-formed column")
                .1;
            pos
        })
        .collect()
}

/// Chunks that pass the CRC but whose columns are hostile (a record
/// count one past the columns, an 11-byte pc varint, a work value of
/// 65,536, nonzero flags padding) each get an authoritative `Error`
/// naming the decoder's reason, and leave the session exactly where its
/// one applied chunk put it.
#[test]
fn a_checksummed_hostile_chunk_leaves_its_session_untouched() {
    let trace = test_trace();
    let (first, rest) = trace.as_slice().split_at(support::FRAME);
    let second = &rest[..1_025];
    let (addr, handle) = start_server(ServerConfig::default());
    let open = support::open_request(Predictor::Stems);
    let mut client = Client::connect(addr).expect("connect");
    let session = client.open(&open).expect("open");
    client.write_seq_chunk(session, 1, first).expect("chunk 1");
    client.read_stats().expect("chunk 1 applied");

    let mut columns = Vec::new();
    encode_records(second, &mut columns);
    let count = second.len();
    let pc_ends = varint_ends(&columns, 0, count);
    let addr_end = *varint_ends(&columns, pc_ends[count - 1], count)
        .last()
        .unwrap();
    let work_start = addr_end + count.div_ceil(4);
    let last_work = varint_ends(&columns, work_start, count)[count - 2];

    let extra_record = (columns.clone(), count + 1);
    let overlong_pc = (
        [
            &columns[..pc_ends[count - 2]],
            &[0x80; 10],
            &[0x00],
            &columns[pc_ends[count - 1]..],
        ]
        .concat(),
        count,
    );
    let mut big_work = columns[..last_work].to_vec();
    varint::write_u64(&mut big_work, 65_536);
    let mut padding = columns.clone();
    padding[work_start - 1] |= 0b1000_0000;
    const RUNS_PAST: &str = "varint runs past the frame payload";
    const PADDING: &str = "nonzero padding bits in the flags column";
    for (what, (bytes, count), reason) in [
        ("a record count past the columns", extra_record, PADDING),
        ("an 11-byte pc varint", overlong_pc, RUNS_PAST),
        (
            "a work value of 65,536",
            (big_work, count),
            "work value exceeds u16",
        ),
        ("nonzero flags padding", (padding, count), PADDING),
    ] {
        assert_eq!(
            decode_records(&bytes, count, &mut Vec::new()),
            Err(reason),
            "{what}"
        );
        match send_raw_chunk(addr, session, 2, count, &bytes) {
            Response::Error { message, .. } => {
                assert!(
                    !message.starts_with(FRAMING_ERROR_PREFIX),
                    "{what}: {message}"
                );
                assert_eq!(
                    message,
                    format!("corrupt message payload: {reason}"),
                    "{what}"
                );
            }
            other => panic!("{what}: want an Error reply, got {other:?}"),
        }
    }
    drop(client);

    let mut fresh = Client::connect(addr).expect("connect");
    assert_eq!(fresh.resume(session, 1).expect("resume").last_seq, 1);
    let remote = fresh.close(session).expect("close");
    let mut applied = Trace::new();
    applied.extend(first.iter().copied());
    let local = local_summary(&open, &store_bytes(&applied));
    assert_summaries_match(&remote, &local, "one applied chunk");
    let scrape = fresh.metrics(false).expect("scrape").exposition;
    assert_eq!(sample(&scrape, "stems_worker_panics_total"), 0);
    assert!(fresh.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}
