//! Fixtures shared by the loopback suites: an in-process server, the
//! test trace as store bytes, a tenant configuration, the fail-fast
//! streaming client, the in-memory oracle, and a scrape reader.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::thread;

use stems_client::{ResilientClient, RetryPolicy};
use stems_core::protocol::{OpenRequest, SessionSummary};
use stems_core::{Predictor, PrefetchConfig, Session};
use stems_memsim::SystemConfig;
use stems_server::{Server, ServerConfig};
use stems_trace::store::{TraceReader, TraceWriter};
use stems_trace::Trace;
use stems_workloads::Workload;

/// Records per store frame — small, so even the tiny test trace spans
/// many chunk messages.
pub const FRAME: usize = 512;

/// Serves `config` on an ephemeral loopback port until a `Shutdown`
/// drains it.
pub fn start_server(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    (addr, thread::spawn(move || server.run()))
}

pub fn test_trace() -> Trace {
    Workload::Db2.generate_scaled(0.01, 2009)
}

/// `trace` as store bytes in [`FRAME`]-record frames.
pub fn store_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf)
        .expect("writer")
        .with_frame_capacity(FRAME);
    w.write_accesses(trace.as_slice()).expect("write");
    w.finish().expect("finish");
    drop(w);
    buf
}

/// The small tenant configuration with invalidation injection on.
pub fn open_request(predictor: Predictor) -> OpenRequest {
    OpenRequest {
        system: SystemConfig::small(),
        prefetch: PrefetchConfig::small(),
        predictor,
        invalidations: Some((0.01, 42)),
    }
}

/// The streaming client as `stems-client replay` runs it: the one
/// streaming loop, failing on the first fault (the loopback has none to
/// heal).
pub fn fail_fast(addr: SocketAddr) -> ResilientClient {
    let policy = RetryPolicy {
        max_retries: 0,
        ..RetryPolicy::default()
    };
    ResilientClient::new(addr.to_string(), policy)
}

/// The in-memory oracle: replay the same store bytes through a local
/// session and finalize, exactly as the server does.
pub fn local_summary(open: &OpenRequest, bytes: &[u8]) -> SessionSummary {
    let mut b = Session::builder(&open.system)
        .prefetch(&open.prefetch)
        .predictor(open.predictor);
    if let Some((rate, seed)) = open.invalidations {
        b = b.invalidations(rate, seed);
    }
    let mut session = b.build();
    let mut reader = TraceReader::new(bytes).expect("reader");
    let fed = session.replay(&mut reader).expect("replay");
    let recon = session.recon_stats();
    let pst_probes = session.pst_probes();
    let counters = session.finalize();
    SessionSummary {
        session: 0, // callers compare everything but the id
        accesses_fed: fed,
        counters,
        recon,
        pst_probes,
    }
}

/// The value of the unlabeled sample `name` in a text exposition
/// (`name value` — exact match, so `name{labels} value` tenant rows
/// never alias it).
pub fn sample(exposition: &str, name: &str) -> u64 {
    let line = exposition
        .lines()
        .find(|l| l.strip_prefix(name).is_some_and(|r| r.starts_with(' ')))
        .unwrap_or_else(|| panic!("no sample {name:?} in scrape:\n{exposition}"));
    line[name.len() + 1..]
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("unparseable sample line {line:?}"))
}
