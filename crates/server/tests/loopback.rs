//! Loopback integration: a real `Server` on an ephemeral port, real
//! clients over TCP, and the acceptance bar from the service design —
//! counters streamed back from the server must be **identical** to an
//! in-memory `Session::replay` of the same persisted trace, for every
//! predictor, under both golden configurations, including with many
//! tenant sessions interleaved on one server, and a `Shutdown` drain
//! must summarize every open session before the daemon exits cleanly.

mod support;

use std::thread;

use stems_client::{Client, ClientError};
use stems_core::protocol::{OpenRequest, SessionSummary};
use stems_core::{Predictor, PrefetchConfig};
use stems_memsim::{CacheConfig, SystemConfig};
use stems_server::ServerConfig;
use stems_trace::store::TraceReader;
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
