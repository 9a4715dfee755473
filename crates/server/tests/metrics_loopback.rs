//! Loopback observability: a real `Server` on an ephemeral port, real
//! clients over TCP, and the wire scrape as the oracle — the counters a
//! `Metrics` request reports must equal what the client actually fed
//! (chunk for chunk, access for access), tenants must appear and
//! disappear with their sessions, and the drained event log must tell
//! the same story.

mod support;

use stems_client::Client;
use stems_core::Predictor;
use stems_server::ServerConfig;
use stems_trace::store::TraceReader;
use support::{fail_fast, open_request, sample, start_server, store_bytes, test_trace, FRAME};

/// The client-side ground truth: how many chunks and accesses a stream
/// of this store will feed (one wire chunk per store frame).
fn client_side_counts(bytes: &[u8]) -> (u64, u64) {
    let mut reader = TraceReader::new(bytes).expect("reader");
    let (mut chunks, mut accesses) = (0u64, 0u64);
    while let Some(chunk) = reader.next_chunk().expect("chunk") {
        chunks += 1;
        accesses += chunk.len() as u64;
    }
    (chunks, accesses)
}

/// The acceptance bar for the observability subsystem: counters scraped
/// over the wire — from a *separate* monitoring connection — equal the
/// feeding client's own chunk/access counts exactly, per tenant and
/// process-wide; the tenant vanishes on close while process totals
/// survive; and the drained event log records the same lifecycle.
#[test]
fn scraped_counters_match_client_side_feed() {
    let bytes = store_bytes(&test_trace());
    let (expected_chunks, expected_accesses) = client_side_counts(&bytes);
    assert!(expected_chunks > 1, "test store must span several chunks");

    let (addr, handle) = start_server(ServerConfig::default());
    let mut feeder = fail_fast(addr);
    let mut monitor = Client::connect(addr).expect("connect monitor");

    let session = feeder.open(&open_request(Predictor::Stems)).expect("open");
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
    let (fed, _) = feeder.stream(session, &mut reader, 4).expect("stream");
    assert_eq!(fed, expected_accesses, "stream must feed the whole store");

    // Mid-session scrape from the monitoring connection: the live
    // tenant's rows carry its session id and predictor, and both views
    // (tenant and process-wide) agree with the client-side counts.
    let live = monitor.metrics(false).expect("scrape");
    assert_eq!(sample(&live.exposition, "stems_accesses_total"), fed);
    assert_eq!(
        sample(&live.exposition, "stems_chunks_total"),
        expected_chunks
    );
    let tenant_row =
        format!("stems_accesses_total{{session=\"{session}\",predictor=\"STeMS\"}} {fed}");
    assert!(
        live.exposition.contains(&tenant_row),
        "missing tenant row {tenant_row:?} in scrape:\n{}",
        live.exposition
    );
    assert_eq!(sample(&live.exposition, "stems_sessions_opened_total"), 1);
    assert_eq!(sample(&live.exposition, "stems_sessions_open"), 1);
    assert_eq!(sample(&live.exposition, "stems_wire_errors_total"), 0);
    // The chunk-latency histogram saw exactly one observation per chunk.
    assert_eq!(
        sample(&live.exposition, "stems_chunk_nanos_count"),
        expected_chunks
    );
    assert_eq!(
        sample(&live.exposition, "stems_chunk_records_sum"),
        expected_accesses
    );
    assert!(live.events.is_empty(), "no drain requested");

    // Close the session: its tenant leaves the scrape, the process-wide
    // totals survive, and the drained events narrate the lifecycle.
    let summary = feeder.close(session).expect("close");
    assert_eq!(summary.accesses_fed, fed);
    let after = monitor.metrics(true).expect("scrape after close");
    assert_eq!(sample(&after.exposition, "stems_sessions_open"), 0);
    assert_eq!(sample(&after.exposition, "stems_sessions_closed_total"), 1);
    assert_eq!(sample(&after.exposition, "stems_accesses_total"), fed);
    assert!(
        !after.exposition.contains("session=\""),
        "closed tenants must leave the scrape"
    );
    assert!(after.events.contains("\"event\":\"session_open\""));
    assert!(after.events.contains("\"event\":\"session_close\""));
    assert!(after.events.contains(&format!("\"accesses\":{fed}")));
    // Draining is destructive: a second drain starts empty.
    assert!(monitor.metrics(true).expect("rescrape").events.is_empty());

    assert!(monitor.shutdown_server().expect("shutdown").is_empty());
    // The server joins every connection worker before `run` returns;
    // closing the feeder's idle connection spares its worker the read
    // timeout.
    drop(feeder);
    handle.join().unwrap().expect("server run");
}

/// Two tenants with different predictors feed different amounts; the
/// scrape keeps their per-tenant rows separate while the process-wide
/// totals sum them.
#[test]
fn per_tenant_rows_stay_separate_and_process_totals_sum() {
    let trace = test_trace();
    let bytes = store_bytes(&trace);
    let (_, expected_accesses) = client_side_counts(&bytes);

    let (addr, handle) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // Tenant 1 (STeMS) gets the whole store, streamed over a connection
    // of its own; tenant 2 (TMS) one chunk.
    let full = client.open(&open_request(Predictor::Stems)).expect("open");
    let mut reader = TraceReader::new(bytes.as_slice()).expect("reader");
    let (fed_full, _) = fail_fast(addr)
        .stream(full, &mut reader, 4)
        .expect("stream");
    let partial = client.open(&open_request(Predictor::Tms)).expect("open");
    let first = &trace.as_slice()[..FRAME.min(trace.len())];
    client
        .write_seq_chunk(partial, 1, first)
        .expect("write_seq_chunk");
    client.read_stats().expect("read_stats");

    let scrape = client.metrics(false).expect("scrape");
    let full_row =
        format!("stems_accesses_total{{session=\"{full}\",predictor=\"STeMS\"}} {fed_full}");
    let partial_row = format!(
        "stems_accesses_total{{session=\"{partial}\",predictor=\"TMS\"}} {}",
        first.len()
    );
    assert!(
        scrape.exposition.contains(&full_row),
        "{full_row:?} missing"
    );
    assert!(
        scrape.exposition.contains(&partial_row),
        "{partial_row:?} missing"
    );
    assert_eq!(
        sample(&scrape.exposition, "stems_accesses_total"),
        expected_accesses + first.len() as u64,
        "process-wide total must sum the tenants"
    );
    assert_eq!(sample(&scrape.exposition, "stems_sessions_open"), 2);

    client.close(full).expect("close full");
    client.close(partial).expect("close partial");
    assert!(client.shutdown_server().expect("shutdown").is_empty());
    handle.join().unwrap().expect("server run");
}
