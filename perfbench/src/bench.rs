//! The four workloads: set-up, measured passes, output checks, and the
//! traced run's per-layer measurements.
//!
//! Every call into a layer goes through that layer's public API, with a
//! span around it. Spans are recorded only on traced passes and in the
//! traced run's extra measurements; the end-to-end numbers come from
//! untraced passes.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use stems_client::Client;
use stems_core::engine::Counters;
use stems_core::protocol::{self, OpenRequest};
use stems_core::stems::ReconStats;
use stems_core::Predictor;
use stems_harness::figs;
use stems_harness::runner::{self, Settings};
use stems_memsim::{Hierarchy, ProbeLevel, SystemConfig};
use stems_obs::{MetricsRegistry, SessionObs};
use stems_server::{Server, ServerConfig};
use stems_trace::store::DEFAULT_FRAME_RECORDS;
use stems_trace::{Trace, TraceReader, TraceWriter};
use stems_types::clock::MonotonicClock;
use stems_workloads::Workload as Gen;

use crate::alloc;
use crate::calib;
use crate::cli::{Args, Workload};
use crate::report::Report;
use crate::span::{self, Tracer};
use crate::stats::{median, percentile, ratio};

/// Footprint scale of the replay traces: DB2 gives 1,037,177 accesses and
/// em3d 660,342 at seed 2009, long enough that one pass is a few hundred
/// milliseconds.
const REPLAY_SCALE: f64 = 0.5;
/// Scale and worker threads of the figure workload.
const FIGURE_SCALE: f64 = 0.05;
const FIGURE_THREADS: usize = 2;
/// Figures 9 and 10 each simulate four predictors per workload trace.
const FIGURE_CELLS: u64 = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Sequenced chunks `wire-null` keeps in flight: the window every
/// streaming caller in the repository uses (`tracegen replay --remote`,
/// `bench_harness`).
const WIRE_WINDOW: usize = 4;
/// Threads the process runs while a `wire-null` fixture is up: the
/// driving thread, the server's accept loop and its connection worker.
const WIRE_THREADS: usize = 3;
/// Fewest untraced passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Repetitions of each traced-run extra (ladder rungs, encode, timing).
const ROUNDS: usize = 3;

/// The predictor ladder: one `run_chunk` replay of the same trace per
/// predictor, after the bare cache hierarchy.
const LADDER: [(&str, Predictor); 6] = [
    ("ladder.none", Predictor::None),
    ("ladder.stride", Predictor::Stride),
    ("ladder.tms", Predictor::Tms),
    ("ladder.sms", Predictor::Sms),
    ("ladder.stems", Predictor::Stems),
    ("ladder.tms_sms", Predictor::Naive),
];

/// What one STeMS (or null) replay produced; every pass must reproduce
/// its reference exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Outcome {
    counters: Counters,
    pst_probes: u64,
    recon: ReconStats,
}

impl Outcome {
    fn of(session: &mut stems_core::Session) -> Outcome {
        Outcome {
            counters: session.finalize(),
            pst_probes: session.pst_probes().unwrap_or(0),
            recon: session.recon_stats().unwrap_or_default(),
        }
    }

    fn add(&mut self, o: &Outcome) {
        let (c, d) = (&mut self.counters, &o.counters);
        c.accesses += d.accesses;
        c.reads += d.reads;
        c.l1_hits += d.l1_hits;
        c.l2_hits += d.l2_hits;
        c.covered += d.covered;
        c.uncovered += d.uncovered;
        c.overpredictions += d.overpredictions;
        c.fetches += d.fetches;
        c.offchip_writes += d.offchip_writes;
        c.invalidations += d.invalidations;
        self.pst_probes += o.pst_probes;
        self.recon.merge(&o.recon);
    }
}

/// A loopback server and the one client connection that drives it.
struct Wire {
    client: Client,
    /// The session opened during set-up, used by the first pass.
    opened: Option<u32>,
    /// Chunks written and not yet answered: when each write began, and
    /// the accesses fed through that chunk. Reused across passes.
    in_flight: VecDeque<(Instant, u64)>,
    server: JoinHandle<std::io::Result<()>>,
}

impl Wire {
    fn close(mut self) -> Result<(), String> {
        self.client
            .shutdown_server()
            .map_err(|e| format!("server shutdown: {e}"))?;
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// The inputs set-up builds.
// One fixture exists per run, so the size gap between variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum Fixture {
    Replay {
        gen: Gen,
        trace: Trace,
        store: Vec<u8>,
        wire: Option<Wire>,
    },
    Figures {
        traces: Vec<(Gen, Trace)>,
    },
}

impl Fixture {
    fn close(self) -> Result<(), String> {
        match self {
            Fixture::Replay { wire: Some(w), .. } => w.close(),
            _ => Ok(()),
        }
    }

    fn traces(&self) -> Vec<(Gen, &Trace)> {
        match self {
            Fixture::Replay { gen, trace, .. } => vec![(*gen, trace)],
            Fixture::Figures { traces } => traces.iter().map(|(g, t)| (*g, t)).collect(),
        }
    }

    fn system(&self) -> SystemConfig {
        runner::system_config(match self {
            Fixture::Replay { .. } => REPLAY_SCALE,
            Fixture::Figures { .. } => FIGURE_SCALE,
        })
    }

    /// Threads a pass keeps busy, for calibration.
    fn busy_threads(&self) -> usize {
        match self {
            Fixture::Replay { .. } => 1,
            Fixture::Figures { .. } => FIGURE_THREADS,
        }
    }

    /// Threads the process runs between passes.
    fn threads(&self) -> usize {
        match self {
            Fixture::Replay { wire: Some(_), .. } => WIRE_THREADS,
            _ => 1,
        }
    }

    /// Chunks one pass hands to the stack (store frames; none for figures).
    fn pass_chunks(&self) -> usize {
        match self {
            Fixture::Replay { trace, .. } => trace.len().div_ceil(DEFAULT_FRAME_RECORDS),
            Fixture::Figures { .. } => 0,
        }
    }

    /// Accesses one pass simulates.
    fn pass_accesses(&self) -> u64 {
        match self {
            Fixture::Replay { trace, .. } => trace.len() as u64,
            Fixture::Figures { traces } => {
                FIGURE_CELLS * traces.iter().map(|(_, t)| t.len() as u64).sum::<u64>()
            }
        }
    }
}

fn generate(gen: Gen, scale: f64, seed: u64, tr: &mut Tracer) -> Trace {
    let s = tr.begin("workloads.generate");
    let trace = gen.generate_scaled(scale, seed);
    tr.end(s, trace.len() as u64);
    trace
}

fn encode(trace: &Trace, tr: &mut Tracer) -> Result<Vec<u8>, String> {
    let s = tr.begin("trace.store.encode");
    let mut store = Vec::new();
    let mut writer = TraceWriter::new(&mut store).map_err(|e| format!("store: {e}"))?;
    writer
        .write_accesses(trace.as_slice())
        .and_then(|_| writer.finish())
        .map_err(|e| format!("store encode: {e}"))?;
    drop(writer);
    tr.end(s, trace.len() as u64);
    Ok(store)
}

fn wire_open() -> OpenRequest {
    runner::remote_open_request(
        Gen::Db2,
        Predictor::None,
        &runner::system_config(REPLAY_SCALE),
    )
}

fn start_wire(tr: &mut Tracer) -> Result<Wire, String> {
    let s = tr.begin("server.bind");
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind loopback server: {e}"))?;
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    tr.end(s, 1);
    let s = tr.begin("client.connect");
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    tr.end(s, 1);
    let s = tr.begin("client.open");
    let session = client
        .open(&wire_open())
        .map_err(|e| format!("open: {e}"))?;
    tr.end(s, 1);
    Ok(Wire {
        client,
        opened: Some(session),
        in_flight: VecDeque::with_capacity(WIRE_WINDOW),
        server: handle,
    })
}

fn setup(workload: Workload, seed: u64, tr: &mut Tracer) -> Result<Fixture, String> {
    let replay = |gen: Gen, tr: &mut Tracer| -> Result<(Trace, Vec<u8>), String> {
        let trace = generate(gen, REPLAY_SCALE, seed, tr);
        let store = encode(&trace, tr)?;
        Ok((trace, store))
    };
    Ok(match workload {
        Workload::OltpStems | Workload::SciStems => {
            let gen = if workload == Workload::OltpStems {
                Gen::Db2
            } else {
                Gen::Em3d
            };
            let (trace, store) = replay(gen, tr)?;
            Fixture::Replay {
                gen,
                trace,
                store,
                wire: None,
            }
        }
        Workload::WireNull => {
            let (trace, store) = replay(Gen::Db2, tr)?;
            Fixture::Replay {
                gen: Gen::Db2,
                trace,
                store,
                wire: Some(start_wire(tr)?),
            }
        }
        Workload::Figures => Fixture::Figures {
            traces: Gen::all()
                .into_iter()
                .map(|g| (g, generate(g, FIGURE_SCALE, seed, tr)))
                .collect(),
        },
    })
}

/// How a measured pass runs: untraced, traced, or untraced with the
/// session observation hook attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Plain,
    Traced,
    Hooked,
}

/// Per-chunk times of one pass (none for a figure pass).
#[derive(Debug, Default)]
struct ChunkTimes {
    /// Back-to-back, non-overlapping parts of the pass, one per chunk in
    /// order: a chunk's decode and run in-process; on the wire, the time
    /// from one answered chunk to the next.
    segments: Vec<f64>,
    /// Each chunk's latency: decode and run in-process; on the wire,
    /// from its write to its `Stats`, so with a window they overlap.
    latencies: Vec<f64>,
}

impl ChunkTimes {
    fn with_capacity(chunks: usize) -> ChunkTimes {
        ChunkTimes {
            segments: Vec::with_capacity(chunks),
            latencies: Vec::with_capacity(chunks),
        }
    }
}

/// One pass's measurements. Times are as measured; multiply by `speed`
/// to scale them to the reference machine.
#[derive(Debug)]
struct Pass {
    secs: f64,
    chunks: ChunkTimes,
    /// [`calib::speed`] just before the pass.
    speed: f64,
    thread_allocs: u64,
    total_allocs: u64,
}

/// The reference a pass is checked against.
#[derive(Clone, Debug, PartialEq)]
enum Expect {
    /// Replay counters (STeMS for in-process, null for the wire).
    Outcome(Outcome),
    /// Figure 9 and Figure 10 text.
    Figures(String, String),
}

struct Bench {
    workload: Workload,
    seed: u64,
    fixture: Fixture,
    tr: Tracer,
    hook: SessionObs,
    /// What every pass must reproduce.
    expect: Option<Expect>,
    /// The measured passes, warm-up excluded.
    samples: Vec<(Variant, Pass)>,
    attempted: u64,
}

impl Bench {
    fn figure_settings(&self, threads: usize) -> Settings {
        Settings {
            scale: FIGURE_SCALE,
            seed: self.seed,
            threads,
            trace_dir: None,
        }
    }

    /// One pass over the workload; returns what it measured and the
    /// output to check.
    fn pass(&mut self, variant: Variant) -> Result<(Pass, Expect), String> {
        let speed = calib::speed(self.fixture.busy_threads(), self.fixture.threads())?;
        // Reserved before the allocation counters are read.
        let mut chunks = ChunkTimes::with_capacity(self.fixture.pass_chunks());
        let threads_before = alloc::this_thread();
        let total_before = alloc::total();
        let start = Instant::now();
        let outer = self.tr.begin("pass");
        let accesses = self.fixture.pass_accesses();
        let hook = (variant == Variant::Hooked).then(|| self.hook.clone());
        let settings = self.figure_settings(FIGURE_THREADS);
        let result = match &mut self.fixture {
            Fixture::Replay {
                store,
                wire: Some(wire),
                ..
            } => wire_pass(
                wire,
                store,
                WIRE_WINDOW,
                CLIENT_SPANS,
                &mut self.tr,
                &mut chunks,
            ),
            Fixture::Replay { gen, store, .. } => {
                replay_pass(*gen, store, hook, &mut self.tr, &mut chunks)
            }
            Fixture::Figures { traces } => {
                let cells =
                    FIGURE_CELLS / 2 * traces.iter().map(|(_, t)| t.len() as u64).sum::<u64>();
                let s = self.tr.begin("figs.fig9");
                let fig9 = figs::fig9(settings.clone());
                self.tr.end(s, cells);
                let s = self.tr.begin("figs.fig10");
                let fig10 = figs::fig10(settings);
                self.tr.end(s, cells);
                Ok(Expect::Figures(fig9, fig10))
            }
        };
        self.tr.end(outer, accesses);
        let secs = start.elapsed().as_secs_f64();
        let expect = result?;
        Ok((
            Pass {
                secs,
                chunks,
                speed,
                thread_allocs: alloc::this_thread() - threads_before,
                total_allocs: alloc::total() - total_before,
            },
            expect,
        ))
    }
}

/// Decodes the store frame by frame into a fresh STeMS session.
fn replay_pass(
    gen: Gen,
    store: &[u8],
    hook: Option<SessionObs>,
    tr: &mut Tracer,
    chunks: &mut ChunkTimes,
) -> Result<Expect, String> {
    let sys = runner::system_config(REPLAY_SCALE);
    let mut session = runner::session_builder(gen, Predictor::Stems, &sys).build();
    if let Some(hook) = hook {
        session.set_obs(hook);
    }
    let mut reader = TraceReader::new(store).map_err(|e| format!("open store: {e}"))?;
    loop {
        let t0 = Instant::now();
        let s = tr.begin("trace.store.decode");
        let next = reader.next_chunk();
        let n = next.as_ref().map_or(0, |c| c.map_or(0, <[_]>::len)) as u64;
        tr.end(s, n);
        let Some(chunk) = next.map_err(|e| format!("decode: {e}"))? else {
            break;
        };
        let s = tr.begin("session.run_chunk");
        session.run_chunk(chunk);
        tr.end(s, n);
        let secs = t0.elapsed().as_secs_f64();
        chunks.segments.push(secs);
        chunks.latencies.push(secs);
    }
    Ok(Expect::Outcome(Outcome::of(&mut session)))
}

/// Span names of a wire pass's writes and waits.
type WireSpans = (&'static str, &'static str);
/// The measured passes' spans.
const CLIENT_SPANS: WireSpans = ("client.send", "client.wait");
/// The traced run's one-chunk-in-flight passes, whose round trips split
/// into client, server and the rest.
const WINDOW1_SPANS: WireSpans = ("window1.send", "window1.wait");

/// Streams the store over the wire into a fresh null-predictor session,
/// keeping up to `window` sequenced chunks in flight.
fn wire_pass(
    wire: &mut Wire,
    store: &[u8],
    window: usize,
    (send_span, wait_span): WireSpans,
    tr: &mut Tracer,
    chunks: &mut ChunkTimes,
) -> Result<Expect, String> {
    let session = match wire.opened.take() {
        Some(s) => s,
        None => {
            let s = tr.begin("client.open");
            let opened = wire.client.open(&wire_open());
            tr.end(s, 1);
            opened.map_err(|e| format!("open: {e}"))?
        }
    };
    let mut reader = TraceReader::new(store).map_err(|e| format!("open store: {e}"))?;
    let mut fed = 0u64;
    let mut seq = 0u64;
    let (mut answered, mut acked) = (0u64, 0u64);
    wire.in_flight.clear();
    let mut mark = Instant::now();
    // Reads the oldest chunk's `Stats`, checks it, and times it.
    let mut await_oldest = |wire: &mut Wire, tr: &mut Tracer| -> Result<(), String> {
        let (written, fed_through) = wire.in_flight.pop_front().expect("a chunk in flight");
        answered += 1;
        let s = tr.begin(wait_span);
        let stats = wire.client.read_stats();
        tr.end(s, fed_through - acked);
        acked = fed_through;
        let stats = stats.map_err(|e| format!("chunk {answered}: {e}"))?;
        chunks.latencies.push(written.elapsed().as_secs_f64());
        chunks.segments.push(mark.elapsed().as_secs_f64());
        mark = Instant::now();
        if stats.session != session || stats.accesses_fed != fed_through {
            return Err(format!(
                "chunk {answered}: stats for session {} at {} accesses, expected {session} at {fed_through}",
                stats.session, stats.accesses_fed
            ));
        }
        Ok(())
    };
    loop {
        let s = tr.begin("trace.store.decode");
        let next = reader.next_chunk();
        let n = next.as_ref().map_or(0, |c| c.map_or(0, <[_]>::len)) as u64;
        tr.end(s, n);
        let Some(chunk) = next.map_err(|e| format!("decode: {e}"))? else {
            break;
        };
        if wire.in_flight.len() == window {
            await_oldest(wire, tr)?;
        }
        seq += 1;
        fed += n;
        wire.in_flight.push_back((Instant::now(), fed));
        let s = tr.begin(send_span);
        let sent = wire.client.write_seq_chunk(session, seq, chunk);
        tr.end(s, n);
        sent.map_err(|e| format!("chunk {seq}: send: {e}"))?;
    }
    while !wire.in_flight.is_empty() {
        await_oldest(wire, tr)?;
    }
    let s = tr.begin("client.close");
    let summary = wire.client.close(session);
    tr.end(s, 1);
    let summary = summary.map_err(|e| format!("close: {e}"))?;
    if summary.accesses_fed != fed {
        return Err(format!(
            "summary counts {} accesses, sent {fed}",
            summary.accesses_fed
        ));
    }
    Ok(Expect::Outcome(Outcome {
        counters: summary.counters,
        ..Outcome::default()
    }))
}

/// Replays `trace` in-process through `predictor` as one chunk.
fn replay_in_process(gen: Gen, predictor: Predictor, trace: &Trace, sys: &SystemConfig) -> Outcome {
    let mut session = runner::session_builder(gen, predictor, sys).build();
    session.run_chunk(trace.as_slice());
    Outcome::of(&mut session)
}

/// Peak resident set size in MiB (`VmHWM`), or 0 where unreadable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The value of an unlabelled sample `name` in a text exposition.
fn scrape_value(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(n, _)| *n == name)
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn counters_line(label: &str, c: &Counters) -> String {
    format!(
        "{label:<10} accesses {:>9} reads {:>9} covered {:>8} uncovered {:>8} overpred {:>8} fetches {:>8}",
        c.accesses, c.reads, c.covered, c.uncovered, c.overpredictions, c.fetches
    )
}

/// Runs one workload as `args` ask and returns the report.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::new(args.trace);

    // Set-up, several times; the last fixture is the one measured.
    let mut setup_secs = Vec::new();
    let mut fixture: Option<Fixture> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = fixture.take() {
            previous.close()?;
        }
        let speed = calib::speed(1, 1)?;
        let t0 = Instant::now();
        fixture = Some(setup(args.workload, args.seed, &mut tr)?);
        setup_secs.push(t0.elapsed().as_secs_f64() * speed);
    }
    let fixture = fixture.expect("at least one set-up");
    tr.set_enabled(false);

    // References, untimed and untraced: STeMS's simulated results on the
    // workload's traces, and what each pass must reproduce (for figures,
    // the warm-up pass's text).
    let sys = fixture.system();
    let mut stems = Outcome::default();
    for (gen, trace) in fixture.traces() {
        stems.add(&replay_in_process(gen, Predictor::Stems, trace, &sys));
    }
    let expect = match &fixture {
        Fixture::Replay {
            gen,
            trace,
            wire: Some(_),
            ..
        } => Some(Expect::Outcome(replay_in_process(
            *gen,
            Predictor::None,
            trace,
            &sys,
        ))),
        Fixture::Replay { .. } => Some(Expect::Outcome(stems)),
        Fixture::Figures { .. } => None,
    };

    let variants: &[Variant] = match (args.trace, &fixture) {
        (false, _) => &[Variant::Plain],
        (true, Fixture::Replay { wire: None, .. }) => {
            &[Variant::Plain, Variant::Traced, Variant::Hooked]
        }
        (true, _) => &[Variant::Plain, Variant::Traced],
    };
    let registry = MetricsRegistry::new();
    let mut bench = Bench {
        workload: args.workload,
        seed: args.seed,
        fixture,
        tr,
        hook: SessionObs::builder(Arc::new(MonotonicClock::new()))
            .registry(&registry)
            .build(),
        expect,
        samples: Vec::new(),
        attempted: 0,
    };
    let error = bench.measure(variants, args.seconds).err();
    if let Some(e) = &error {
        eprintln!("perfbench: {e}");
    }

    // The counters of what the measured path ran.
    let path = match &bench.expect {
        Some(Expect::Outcome(o)) => *o,
        _ => stems,
    };
    eprintln!(
        "perfbench: {} seed {} — {} measured passes at {:.3}x reference speed, {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        bench.samples.len(),
        bench.speed(Variant::Plain),
        bench.attempted,
        u64::from(error.is_some())
    );
    eprintln!("{}", counters_line("path", &path.counters));
    eprintln!("{}", counters_line("STeMS", &stems.counters));

    let mut report = Report {
        correct: error.is_none(),
        attempted: 0,
        failed: u64::from(error.is_some()),
        metrics: Vec::new(),
    };
    if args.trace {
        bench.per_layer(&mut report, &path, &stems)?;
    } else {
        bench.end_to_end(&mut report, &setup_secs, &stems);
    }
    report.attempted = bench.attempted;
    bench.fixture.close()?;
    if report.failed > 0 {
        report.correct = false;
    }
    Ok(report)
}

impl Bench {
    /// A warm-up pass, then passes in `variants` rotation for `seconds`
    /// (whole rotations, at least [`MIN_PASSES`] plain ones). Every pass
    /// is checked against the reference; the first failure or mismatch
    /// ends the loop and is returned.
    fn measure(&mut self, variants: &[Variant], seconds: u64) -> Result<(), String> {
        self.attempted += 1;
        let (_, warm) = self.pass(Variant::Plain)?;
        self.check(Variant::Plain, warm)?;
        let budget = std::time::Duration::from_secs(seconds);
        let start = Instant::now();
        for i in 0.. {
            let plain = self.passes(Variant::Plain).count();
            if start.elapsed() >= budget && plain >= MIN_PASSES && i % variants.len() == 0 {
                break;
            }
            let variant = variants[i % variants.len()];
            self.attempted += 1;
            self.tr.set_enabled(variant == Variant::Traced);
            let outcome = self.pass(variant);
            self.tr.set_enabled(false);
            let (pass, got) = outcome?;
            self.check(variant, got)?;
            self.samples.push((variant, pass));
        }
        Ok(())
    }

    /// Compares a pass's output with the reference; the first pass of a
    /// workload without one sets it.
    fn check(&mut self, variant: Variant, got: Expect) -> Result<(), String> {
        match &self.expect {
            None => self.expect = Some(got),
            Some(want) if *want == got => {}
            Some(want) => {
                return Err(format!(
                "{variant:?} pass {} differs from the reference:\n  got  {got:?}\n  want {want:?}",
                self.attempted
            ))
            }
        }
        Ok(())
    }

    fn passes(&self, variant: Variant) -> impl Iterator<Item = &Pass> {
        self.samples
            .iter()
            .filter(move |(v, _)| *v == variant)
            .map(|(_, p)| p)
    }

    /// Accesses per second of a typical pass of `variant`: one pass's
    /// accesses over the sum of each chunk segment's median time and the
    /// median time outside the segments. Without noise this is the median
    /// pass; a stall that hits a few chunks of many passes moves it less.
    /// Times are at reference machine speed when `scaled`, raw otherwise.
    fn rate(&self, variant: Variant, scaled: bool) -> f64 {
        let passes: Vec<&Pass> = self.passes(variant).collect();
        let Some(first) = passes.first() else {
            return 0.0;
        };
        let speed = |p: &Pass| if scaled { p.speed } else { 1.0 };
        let outside: Vec<f64> = passes
            .iter()
            .map(|p| (p.secs - p.chunks.segments.iter().sum::<f64>()) * speed(p))
            .collect();
        let mut secs = median(&outside);
        for k in 0..first.chunks.segments.len() {
            let at_k: Vec<f64> = passes
                .iter()
                .map(|p| p.chunks.segments[k] * speed(p))
                .collect();
            secs += median(&at_k);
        }
        ratio(self.fixture.pass_accesses() as f64, secs)
    }

    /// Median [`calib::speed`] over the passes of `variant`.
    fn speed(&self, variant: Variant) -> f64 {
        let xs: Vec<f64> = self.passes(variant).map(|p| p.speed).collect();
        median(&xs)
    }

    /// Latencies, in milliseconds at reference machine speed, of the unit
    /// of work the workload hands to the stack in plain passes: each
    /// chunk, or each figure pass.
    fn chunk_ms(&self) -> Vec<f64> {
        self.passes(Variant::Plain)
            .flat_map(|p| {
                let ms = p.speed * 1e3;
                if p.chunks.latencies.is_empty() {
                    vec![p.secs * ms]
                } else {
                    p.chunks.latencies.iter().map(|s| s * ms).collect()
                }
            })
            .collect()
    }

    fn end_to_end(&self, report: &mut Report, setup_secs: &[f64], stems: &Outcome) {
        let plain: Vec<&Pass> = self.passes(Variant::Plain).collect();
        let kacc = (self.fixture.pass_accesses() * plain.len() as u64) as f64 / 1e3;
        let allocs: u64 = plain.iter().map(|p| p.total_allocs).sum();
        let c = &stems.counters;
        report.push("acc_per_s", self.rate(Variant::Plain, true), "1/s");
        report.push("chunk_ms_p50", percentile(&self.chunk_ms(), 50.0), "ms");
        report.push("setup_s", median(setup_secs), "s");
        report.push("peak_rss_mb", peak_rss_mb(), "MiB");
        report.push("allocs_per_kacc", ratio(allocs as f64, kacc), "1/kacc");
        let offchip = c.offchip_reads() as f64;
        report.push(
            "coverage_pct",
            100.0 * ratio(c.covered as f64, offchip),
            "%",
        );
        report.push(
            "overpred_pct",
            100.0 * ratio(c.overpredictions as f64, offchip),
            "%",
        );
    }

    /// The traced run's metrics: spans from the traced passes and the
    /// extras, exact counters, and the pass-variant comparisons. Layers
    /// off the workload's path report 0.
    fn per_layer(
        &mut self,
        report: &mut Report,
        path: &Outcome,
        stems: &Outcome,
    ) -> Result<(), String> {
        let extras = self.extras()?;
        let spans = self.tr.spans();
        let by = span::layers(spans);
        let layer = |name: &str| by.get(name).copied().unwrap_or_default();
        let per = |name: &str| {
            let l = layer(name);
            ratio(l.self_ns as f64, l.count as f64)
        };
        let per_call = |name: &str| {
            let l = layer(name);
            ratio(l.self_ns as f64, l.calls as f64)
        };
        let allocs_per_kacc = |name: &str| {
            let l = layer(name);
            ratio(l.allocs as f64, l.count as f64 / 1e3)
        };
        let times = span::self_times(spans);
        // Self ns per item of each span of one name, then the median.
        let median_per = |name: &str| {
            let xs: Vec<f64> = spans
                .iter()
                .zip(&times)
                .filter(|(s, _)| s.name == name)
                .map(|(s, t)| ratio(*t as f64, s.count as f64))
                .collect();
            median(&xs)
        };
        let median_secs = |name: &str| {
            let xs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
                .collect();
            median(&xs)
        };
        let wire = matches!(self.fixture, Fixture::Replay { wire: Some(_), .. });
        let wire_only = |v: f64| if wire { v } else { 0.0 };
        let plain: Vec<&Pass> = self.passes(Variant::Plain).collect();
        let chunks = plain
            .iter()
            .map(|p| p.chunks.latencies.len())
            .sum::<usize>() as f64;
        let client_allocs: u64 = plain.iter().map(|p| p.thread_allocs).sum();
        let other_allocs: u64 = plain.iter().map(|p| p.total_allocs - p.thread_allocs).sum();
        // One chunk in flight: the round trip is the chunk's whole cost.
        let (send, wait) = (layer(WINDOW1_SPANS.0), layer(WINDOW1_SPANS.1));
        let round_trip = ratio((send.self_ns + wait.self_ns) as f64, send.count as f64);
        let plain_rate = self.rate(Variant::Plain, true);
        let hooked_rate = self.rate(Variant::Hooked, true);
        let p = &path.counters;
        let acc = p.accesses as f64;
        let stems_acc = stems.counters.accesses as f64;
        let r = &stems.recon;
        let metrics = [
            ("chunk_ms_p90", percentile(&self.chunk_ms(), 90.0), "ms"),
            ("calib.speed", self.speed(Variant::Plain), "x"),
            ("raw.acc_per_s", self.rate(Variant::Plain, false), "1/s"),
            (
                "workloads.generate.ns_per_acc",
                per("workloads.generate"),
                "ns",
            ),
            (
                "trace.store.encode.ns_per_acc",
                per("trace.store.encode"),
                "ns",
            ),
            (
                "trace.store.decode.ns_per_acc",
                per("trace.store.decode"),
                "ns",
            ),
            (
                "session.run_chunk.ns_per_acc",
                per("session.run_chunk"),
                "ns",
            ),
            (
                "ladder.memsim.ns_per_acc",
                median_per("ladder.memsim"),
                "ns",
            ),
            ("ladder.none.ns_per_acc", median_per("ladder.none"), "ns"),
            (
                "ladder.stride.ns_per_acc",
                median_per("ladder.stride"),
                "ns",
            ),
            ("ladder.tms.ns_per_acc", median_per("ladder.tms"), "ns"),
            ("ladder.sms.ns_per_acc", median_per("ladder.sms"), "ns"),
            ("ladder.stems.ns_per_acc", median_per("ladder.stems"), "ns"),
            (
                "ladder.tms_sms.ns_per_acc",
                median_per("ladder.tms_sms"),
                "ns",
            ),
            ("protocol.encode.ns_per_acc", per("protocol.encode"), "ns"),
            ("client.send.ns_per_chunk", per_call("client.send"), "ns"),
            ("client.wait.ns_per_chunk", per_call("client.wait"), "ns"),
            ("server.run.ns_per_acc", extras.server_run_ns_per_acc, "ns"),
            (
                "server.other.ns_per_acc",
                wire_only(round_trip - extras.server_run_ns_per_acc - per("protocol.encode")),
                "ns",
            ),
            ("server.busy_total", extras.busy_total, "count"),
            ("server.resumes_total", extras.resumes_total, "count"),
            (
                "timing.ns_per_acc",
                median_per("runner.run_timing") - median_per("runner.run_coverage"),
                "ns",
            ),
            ("figs.fig9_s", median_secs("figs.fig9"), "s"),
            ("figs.fig10_s", median_secs("figs.fig10"), "s"),
            (
                "runner.speedup_2t",
                ratio(
                    median_secs("figs.fig9.threads1"),
                    median_secs("figs.fig9.threads2"),
                ),
                "x",
            ),
            ("memsim.l1_hit_frac", ratio(p.l1_hits as f64, acc), "1"),
            ("memsim.l2_hit_frac", ratio(p.l2_hits as f64, acc), "1"),
            (
                "memsim.offchip_per_kacc",
                ratio((p.uncovered + p.offchip_writes) as f64, acc / 1e3),
                "1/kacc",
            ),
            ("engine.fetches_per_acc", ratio(p.fetches as f64, acc), "1"),
            (
                "engine.invalidations_per_kacc",
                ratio(p.invalidations as f64, acc / 1e3),
                "1/kacc",
            ),
            (
                "stems.pst.probes_per_acc",
                ratio(stems.pst_probes as f64, stems_acc),
                "1",
            ),
            (
                "stems.recon.attempts_per_acc",
                ratio(r.attempts() as f64, stems_acc),
                "1",
            ),
            ("stems.recon.exact_frac", r.exact_fraction(), "1"),
            (
                "stems.recon.dropped_frac",
                ratio(
                    (r.dropped_conflict + r.dropped_window) as f64,
                    r.attempts() as f64,
                ),
                "1",
            ),
            ("wire.bytes_per_acc", extras.wire_bytes_per_acc, "B"),
            (
                "wire.chunks",
                wire_only(ratio(chunks, plain.len() as f64)),
                "count",
            ),
            (
                "alloc.session.per_kacc",
                allocs_per_kacc("session.run_chunk"),
                "1/kacc",
            ),
            (
                "alloc.decode.per_kacc",
                allocs_per_kacc("trace.store.decode"),
                "1/kacc",
            ),
            (
                "alloc.client.per_chunk",
                wire_only(ratio(client_allocs as f64, chunks)),
                "1/chunk",
            ),
            (
                "alloc.server.per_chunk",
                wire_only(ratio(other_allocs as f64, chunks)),
                "1/chunk",
            ),
            (
                "obs.hook.overhead_frac",
                if hooked_rate > 0.0 {
                    plain_rate / hooked_rate - 1.0
                } else {
                    0.0
                },
                "1",
            ),
            (
                "trace.overhead_frac",
                ratio(plain_rate, self.rate(Variant::Traced, true)) - 1.0,
                "1",
            ),
        ];
        for (name, value, unit) in metrics {
            report.push(name, value, unit);
        }
        for f in &extras.failures {
            eprintln!("perfbench: {f}");
        }
        report.failed += extras.failures.len() as u64;

        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = dir.join(format!(
            "spans-{}-seed{}.jsonl",
            self.workload.name(),
            self.seed
        ));
        std::fs::create_dir_all(&dir)
            .and_then(|_| span::write_jsonl(spans, &file))
            .map_err(|e| format!("write {}: {e}", file.display()))?;
        eprintln!(
            "perfbench: {} spans ({} dropped) -> {}",
            spans.len(),
            self.tr.dropped(),
            file.display()
        );
        Ok(())
    }
}

/// Numbers the traced run's extras measure outside the spans' reach.
#[derive(Default)]
struct Extras {
    server_run_ns_per_acc: f64,
    busy_total: f64,
    resumes_total: f64,
    wire_bytes_per_acc: f64,
    failures: Vec<String>,
}

impl Bench {
    /// The traced run's measurements beyond the passes: the predictor
    /// ladder, and each workload's layer probes.
    fn extras(&mut self) -> Result<Extras, String> {
        let mut out = Extras::default();
        self.tr.set_enabled(true);
        let sys = self.fixture.system();
        let traces = self.fixture.traces();
        let total: u64 = traces.iter().map(|(_, t)| t.len() as u64).sum();
        for _ in 0..ROUNDS {
            let s = self.tr.begin("ladder.memsim");
            let mut offchip = 0u64;
            let mut evicted = Vec::new();
            for (_, trace) in &traces {
                let mut h = Hierarchy::new(&sys);
                for a in trace.iter() {
                    evicted.clear();
                    if h.probe(a.addr.block(), !a.is_read(), || false, &mut evicted)
                        == ProbeLevel::Memory
                    {
                        offchip += 1;
                    }
                }
            }
            self.tr.end(s, total);
            black_box(offchip);
            for (name, predictor) in LADDER {
                let s = self.tr.begin(name);
                for (gen, trace) in &traces {
                    let mut session = runner::session_builder(*gen, predictor, &sys).build();
                    session.run_chunk(trace.as_slice());
                    black_box(session.finalize());
                }
                self.tr.end(s, total);
            }
        }
        match &mut self.fixture {
            Fixture::Replay {
                trace,
                store,
                wire: Some(wire),
                ..
            } => {
                // One chunk in flight, so each round trip splits into
                // client send, server run and the rest.
                for _ in 0..ROUNDS {
                    self.attempted += 1;
                    let mut chunks = ChunkTimes::default();
                    let got = wire_pass(wire, store, 1, WINDOW1_SPANS, &mut self.tr, &mut chunks);
                    match got {
                        Ok(got) if Some(&got) == self.expect.as_ref() => {}
                        Ok(_) => out
                            .failures
                            .push("a one-in-flight wire pass differs from the reference".into()),
                        Err(e) => out.failures.push(format!("one-in-flight wire pass: {e}")),
                    }
                }
                let (mut frame, mut scratch, mut bytes) = (Vec::new(), Vec::new(), 0usize);
                for _ in 0..ROUNDS {
                    for (i, chunk) in trace.as_slice().chunks(DEFAULT_FRAME_RECORDS).enumerate() {
                        frame.clear();
                        let s = self.tr.begin("protocol.encode");
                        protocol::encode_seq_chunk(
                            &mut frame,
                            &mut scratch,
                            1,
                            i as u64 + 1,
                            chunk,
                        );
                        self.tr.end(s, chunk.len() as u64);
                        bytes += frame.len();
                    }
                }
                out.wire_bytes_per_acc = ratio(bytes as f64, (ROUNDS * trace.len()) as f64);
                self.attempted += 1;
                let scrape = wire
                    .client
                    .metrics(false)
                    .map_err(|e| format!("metrics scrape: {e}"))?
                    .exposition;
                out.server_run_ns_per_acc = ratio(
                    scrape_value(&scrape, "stems_chunk_nanos_sum"),
                    scrape_value(&scrape, "stems_accesses_total"),
                );
                out.busy_total = scrape_value(&scrape, "stems_busy_total");
                out.resumes_total = scrape_value(&scrape, "stems_sessions_resumed_total");
                if out.busy_total != 0.0 || out.resumes_total != 0.0 {
                    out.failures.push(format!(
                        "server answered Busy {} times and resumed {} sessions",
                        out.busy_total, out.resumes_total
                    ));
                }
            }
            Fixture::Figures { traces } => {
                let (gen, trace) = traces
                    .iter()
                    .find(|(g, _)| *g == Gen::Db2)
                    .expect("the figure traces include DB2");
                for _ in 0..ROUNDS {
                    let s = self.tr.begin("runner.run_coverage");
                    black_box(runner::run_coverage(*gen, Predictor::Stems, trace, &sys));
                    self.tr.end(s, trace.len() as u64);
                    let s = self.tr.begin("runner.run_timing");
                    black_box(runner::run_timing(*gen, Predictor::Stems, trace, &sys));
                    self.tr.end(s, trace.len() as u64);
                }
                // Figure 9 on one thread and on two, back to back; the text
                // must not depend on the thread count.
                for _ in 0..ROUNDS {
                    for (name, threads) in [("figs.fig9.threads1", 1), ("figs.fig9.threads2", 2)] {
                        let s = self.tr.begin(name);
                        let text = figs::fig9(self.figure_settings(threads));
                        self.tr.end(s, 1);
                        self.attempted += 1;
                        if !matches!(&self.expect, Some(Expect::Figures(fig9, _)) if *fig9 == text)
                        {
                            out.failures.push(format!(
                                "fig9 on {threads} thread(s) differs from the reference"
                            ));
                        }
                    }
                }
            }
            Fixture::Replay { .. } => {}
        }
        self.tr.set_enabled(false);
        Ok(out)
    }
}
