//! Trace corpus utility: capture workload traces into the persistent
//! chunked store, inspect them, replay them through a session, and
//! verify the capture→replay round trip against the in-memory path.
//!
//! ```sh
//! tracegen capture db2 /tmp/db2.stems --scale 0.1 --seed 7
//! tracegen capture-all /tmp/corpus --scale 0.1
//! tracegen info /tmp/db2.stems
//! tracegen replay /tmp/db2.stems --workload db2 --predictor STeMS
//! tracegen replay /tmp/db2.stems --workload db2 --remote 127.0.0.1:4909
//! tracegen verify db2 /tmp/db2.stems --scale 0.1 --seed 7
//! tracegen metrics --remote 127.0.0.1:4909 [--events]
//! tracegen shutdown --remote 127.0.0.1:4909
//! ```
//!
//! `capture` writes the chunked store format (`docs/TRACE_FORMAT.md`);
//! `info` streams its stats. `verify` is the round-trip oracle used by
//! CI: every predictor's counters from streaming replay must equal the
//! in-memory run's.
//! `verify --repair` first truncates a damaged store to its last valid
//! frame boundary (`TraceReader::recover_tail`) so an interrupted
//! capture reads cleanly again — note a repaired file holds a *prefix*
//! of the workload, so full verification still reports the shortfall.
//! `replay --remote` streams the store to a running `stems-serve`
//! daemon instead, using the identical session configuration, so its
//! counters line up with the local replay row for row-by-row diffing
//! (the counters row is the last line printed, after a `fault-stats:`
//! line). The stream keeps `--window` chunks in flight (at least 1,
//! default 4) and fails on the first fault; `--retry` gives it the
//! default retry policy instead (`docs/FAULT_TOLERANCE.md`), so
//! transient faults heal via backoff + resume, and the `fault-stats:`
//! line reports what was healed (`--retry-seed` pins the jitter
//! schedule for reproducible chaos runs).
//! `metrics --remote` scrapes a live daemon's observability registry
//! (`docs/OBSERVABILITY.md`) and prints the text exposition; `--events`
//! also drains the daemon's event ring as JSON-lines. `shutdown
//! --remote` drains the daemon: every open session is finalized and its
//! counters row printed, and the daemon exits 0.
//!
//! Each subcommand takes its positional arguments first, then only the
//! flags it uses. A usage error (an unknown subcommand, workload or
//! predictor, a missing argument, a flag the subcommand does not take, or
//! a missing or malformed value) exits with status 2; a failed run (I/O,
//! a replay mismatch, a remote fault) exits with status 1.

use std::path::Path;
use std::process::ExitCode;

use stems_client::{ClientError, ResilientClient, RetryPolicy};
use stems_core::engine::Counters;
use stems_harness::runner::{
    remote_open_request, replay_coverage, run_coverage, system_config, Predictor,
};
use stems_harness::{parallel_map, Args, Flag, Settings};
use stems_trace::store::SyncPolicy;
use stems_trace::{TraceReader, TraceStats};
use stems_workloads::{capture_to_path, trace_file_name, Workload};

use Flag::{Switch, Value};

const SCALE: Flag = Value("--scale");
const SEED: Flag = Value("--seed");
const REMOTE: Flag = Value("--remote");
const CAPTURE: &[Flag] = &[SCALE, SEED, Switch("--sync-every-frame")];
const CAPTURE_ALL: &[Flag] = &[SCALE, SEED, Value("--threads")];
const REPLAY: &[Flag] = &[
    Value("--workload"),
    Value("--predictor"),
    SCALE,
    REMOTE,
    Value("--window"),
    Switch("--retry"),
    Value("--retry-seed"),
];
const VERIFY: &[Flag] = &[SCALE, SEED, Switch("--repair")];
const METRICS: &[Flag] = &[REMOTE, Switch("--events")];

/// Every subcommand: its name, its positional arguments, and the flags it
/// takes.
const COMMANDS: [(&str, &[&str], &[Flag]); 7] = [
    ("capture", &["<workload>", "<file>"], CAPTURE),
    ("capture-all", &["<dir>"], CAPTURE_ALL),
    ("info", &["<file>"], &[]),
    ("replay", &["<file>"], REPLAY),
    ("verify", &["<workload>", "<file>"], VERIFY),
    ("metrics", &[], METRICS),
    ("shutdown", &[], &[REMOTE]),
];

const USAGE: &str = "\
usage: tracegen capture <workload> <file> [--scale f] [--seed n] [--sync-every-frame]
       tracegen capture-all <dir> [--scale f] [--seed n] [--threads n]
       tracegen info <file>
       tracegen replay <file> --workload <w> [--predictor <p>] [--scale f]
                       [--remote HOST:PORT [--window n] [--retry [--retry-seed n]]]
       tracegen verify <workload> <file> [--scale f] [--seed n] [--repair]
       tracegen metrics --remote HOST:PORT [--events]
       tracegen shutdown --remote HOST:PORT";

/// A parsed invocation: everything a subcommand needs to run.
#[derive(Debug, PartialEq)]
enum Command {
    /// `capture <workload> <file>`, with the sync policy.
    Capture(Workload, String, Settings, SyncPolicy),
    /// `capture-all <dir>`.
    CaptureAll(String, Settings),
    /// `info <file>`.
    Info(String),
    /// `replay <file>`: the workload, predictor and scale, and where to
    /// stream instead of replaying locally.
    Replay(String, Workload, Predictor, f64, Option<Remote>),
    /// `verify <workload> <file>`, and whether to repair the file first.
    Verify(Workload, String, Settings, bool),
    /// `metrics --remote <addr>`, and whether to drain the event ring.
    Metrics(String, bool),
    /// `shutdown --remote <addr>`.
    Shutdown(String),
}

/// Where and how `replay --remote` streams.
#[derive(Debug, PartialEq)]
struct Remote {
    addr: String,
    window: usize,
    policy: RetryPolicy,
}

/// Parses a whole argument list (without the program name) into a
/// [`Command`]; every usage error is an `Err` naming what is wrong.
fn parse_command(args: &[String]) -> Result<Command, String> {
    let (name, rest) = args.split_first().ok_or("missing subcommand")?;
    let (_, positional, flags) = COMMANDS
        .iter()
        .find(|(command, ..)| command == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    let given = rest.iter().take_while(|a| !a.starts_with("--")).count();
    if given < positional.len() {
        return Err(format!("{name} needs {}", positional[given..].join(" ")));
    }
    let (pos, rest) = rest.split_at(positional.len());
    let args = Args::parse(rest.iter().cloned(), flags)?;
    let settings = args.settings.clone();
    Ok(match name.as_str() {
        "capture" => {
            let sync = if args.switch("--sync-every-frame") {
                SyncPolicy::EveryFrame
            } else {
                SyncPolicy::OnFinish
            };
            Command::Capture(workload_by_name(&pos[0])?, pos[1].clone(), settings, sync)
        }
        "capture-all" => Command::CaptureAll(pos[0].clone(), settings),
        "info" => Command::Info(pos[0].clone()),
        "replay" => {
            let workload = args.value::<String>("--workload")?.ok_or(
                "replay needs --workload <name> (selects prefetch config + invalidation rate)",
            )?;
            let workload = workload_by_name(&workload)?;
            let predictor = match args.value::<String>("--predictor")? {
                Some(name) => name.parse().map_err(|e| format!("--predictor: {e}"))?,
                None => Predictor::Stems,
            };
            let remote = remote_flags(&args)?;
            Command::Replay(pos[0].clone(), workload, predictor, settings.scale, remote)
        }
        "verify" => {
            let repair = args.switch("--repair");
            Command::Verify(workload_by_name(&pos[0])?, pos[1].clone(), settings, repair)
        }
        "metrics" => Command::Metrics(
            args.value("--remote")?
                .ok_or("metrics needs --remote HOST:PORT (a running stems-serve daemon)")?,
            args.switch("--events"),
        ),
        _ => Command::Shutdown(
            args.value("--remote")?
                .ok_or("shutdown needs --remote HOST:PORT (a running stems-serve daemon)")?,
        ),
    })
}

fn workload_by_name(name: &str) -> Result<Workload, String> {
    Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?}; expected one of {}",
                Workload::all().map(|w| w.name()).join(", ")
            )
        })
}

/// Reads `replay`'s remote flags: `--remote HOST:PORT`, `--window n` (n
/// at least 1, default 4) and `--retry [--retry-seed n]`. Without
/// `--retry` the policy makes no retries. A zero window, `--retry-seed`
/// without `--retry`, or `--window`/`--retry`/`--retry-seed` without
/// `--remote` is an error naming the flag.
fn remote_flags(args: &Args) -> Result<Option<Remote>, String> {
    let window = args.value("--window")?.unwrap_or(4);
    let retry = args.switch("--retry");
    let seed = args.value("--retry-seed")?;
    if window == 0 {
        return Err("--window must be at least 1".into());
    }
    if seed.is_some() && !retry {
        return Err("--retry-seed needs --retry".into());
    }
    let Some(addr) = args.value("--remote")? else {
        return match ["--window", "--retry", "--retry-seed"]
            .into_iter()
            .find(|flag| args.switch(flag))
        {
            Some(flag) => Err(format!("{flag} needs --remote")),
            None => Ok(None),
        };
    };
    let default = RetryPolicy::default();
    let policy = if retry {
        RetryPolicy {
            jitter_seed: seed.unwrap_or(default.jitter_seed),
            ..default
        }
    } else {
        RetryPolicy {
            max_retries: 0,
            ..default
        }
    };
    Ok(Some(Remote {
        addr,
        window,
        policy,
    }))
}

fn counters_row(label: &str, c: &Counters) {
    println!(
        "{label:<10} accesses {:>9} reads {:>9} covered {:>8} uncovered {:>8} overpred {:>8} fetches {:>8}",
        c.accesses, c.reads, c.covered, c.uncovered, c.overpredictions, c.fetches
    );
}

fn capture(workload: Workload, file: &str, settings: &Settings, sync: SyncPolicy) -> ExitCode {
    match capture_to_path(workload, settings.scale, settings.seed, file, sync) {
        Ok(summary) => {
            println!(
                "{file}: {} records in {} frames (scale {}, seed {})",
                summary.records, summary.frames, settings.scale, settings.seed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("capture failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn capture_all(dir: &str, settings: &Settings) -> ExitCode {
    let dir = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let workloads = Workload::all();
    let results = parallel_map(&workloads, settings.effective_threads(), |w| {
        let path = dir.join(trace_file_name(*w));
        capture_to_path(
            *w,
            settings.scale,
            settings.seed,
            &path,
            SyncPolicy::OnFinish,
        )
        .map(|s| (path, s))
    });
    let mut failed = false;
    for (w, result) in workloads.iter().zip(results) {
        match result {
            Ok((path, summary)) => println!(
                "{:<8} {} records / {} frames -> {}",
                w.name(),
                summary.records,
                summary.frames,
                path.display()
            ),
            Err(e) => {
                eprintln!("{}: capture failed: {e}", w.name());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn info(path: &str) -> ExitCode {
    match TraceReader::open(path) {
        Ok(mut reader) => match TraceStats::from_reader(&mut reader) {
            Ok(stats) => {
                println!("{path}: {} ({} frames)", stats, reader.frames_read());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("store damaged: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("not a valid trace store: {e}");
            ExitCode::FAILURE
        }
    }
}

fn replay(
    path: &str,
    workload: Workload,
    predictor: Predictor,
    scale: f64,
    remote: Option<&Remote>,
) -> ExitCode {
    let sys = system_config(scale);
    if let Some(remote) = remote {
        return remote_replay(path, workload, predictor, &sys, remote);
    }
    match replay_coverage(workload, predictor, path, &sys) {
        Ok((counters, fed)) => {
            println!("{path}: replayed {fed} accesses through {predictor}");
            counters_row(predictor.name(), &counters);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Streams the store to a `stems-serve` daemon with the same workload
/// session configuration the local path uses (see
/// `runner::remote_open_request`), so the printed counters line up with
/// `tracegen replay` and `tracegen verify` for the same file. The
/// stream keeps `remote.window` chunks in flight and heals transient
/// faults as far as `remote.policy` allows (torn connections, corrupt
/// frames, `Busy` shedding, via backoff + resume). One `fault-stats:`
/// line, printed before the counters row, lets chaos harnesses
/// reconcile the healing against a fault proxy's injection log.
fn remote_replay(
    path: &str,
    workload: Workload,
    predictor: Predictor,
    sys: &stems_memsim::SystemConfig,
    remote: &Remote,
) -> ExitCode {
    let open = remote_open_request(workload, predictor, sys);
    let mut reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = &remote.addr;
    let mut client = ResilientClient::new(addr, remote.policy);
    let result = (|| -> Result<_, ClientError> {
        let session = client.open(&open)?;
        let (fed, _) = client.stream(session, &mut reader, remote.window)?;
        let summary = client.close(session)?;
        Ok((fed, summary))
    })();
    match result {
        Ok((fed, summary)) => {
            let stats = client.stats();
            println!("{path}: streamed {fed} accesses to {addr} through {predictor}");
            println!(
                "fault-stats: reconnects={} resumes={} busy_retries={} \
                 chunks_resent={} chunks_deduped={}",
                stats.reconnects,
                stats.resumes,
                stats.busy_retries,
                stats.chunks_resent,
                stats.chunks_deduped
            );
            counters_row(predictor.name(), &summary.counters);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("remote replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scrapes a live daemon's metrics over the wire protocol and prints
/// the text exposition to stdout. With `drain_events`, the daemon's
/// event ring is drained and printed after the exposition (separated
/// by a blank line) as JSON-lines.
fn metrics(addr: &str, drain_events: bool) -> ExitCode {
    let run = || -> Result<_, ClientError> {
        let mut client = stems_client::Client::connect(addr)?;
        client.metrics(drain_events)
    };
    match run() {
        Ok(reply) => {
            print!("{}", reply.exposition);
            if drain_events {
                println!();
                print!("{}", reply.events);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("metrics scrape failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Drains a live daemon: it finalizes every open session and sends back
/// its summary, printed here as one counters row per session, then
/// exits 0.
fn shutdown(addr: &str) -> ExitCode {
    match stems_client::Client::connect(addr).and_then(|mut client| client.shutdown_server()) {
        Ok(summaries) => {
            println!("{addr}: drained {} session(s)", summaries.len());
            for s in &summaries {
                counters_row(&format!("session {}", s.session), &s.counters);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn verify(workload: Workload, path: &str, settings: &Settings, repair: bool) -> ExitCode {
    if repair {
        match TraceReader::recover_tail(path) {
            Ok(report) if report.was_damaged => {
                println!(
                    "repaired {path}: kept {} frames ({} records), cut {} damaged tail bytes",
                    report.frames_kept, report.records_kept, report.bytes_truncated
                );
            }
            Ok(report) => {
                println!(
                    "no repair needed: {} frames ({} records) all valid",
                    report.frames_kept, report.records_kept
                );
            }
            Err(e) => {
                eprintln!("repair failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let sys = system_config(settings.scale);
    let trace = workload.generate_scaled(settings.scale, settings.seed);
    let mut failed = false;
    for p in Predictor::all() {
        let expected = run_coverage(workload, p, &trace, &sys);
        match replay_coverage(workload, p, path, &sys) {
            Ok((replayed, fed)) => {
                if replayed == expected && fed == trace.len() as u64 {
                    println!("{:<8} OK ({} accesses, counters identical)", p.name(), fed);
                } else {
                    eprintln!(
                        "{:<8} MISMATCH: replay {:?} (fed {fed}) vs in-memory {:?} ({} accesses)",
                        p.name(),
                        replayed,
                        expected,
                        trace.len()
                    );
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("{:<8} replay failed: {e}", p.name());
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("verify FAILED: the store does not reproduce the in-memory run");
        ExitCode::FAILURE
    } else {
        println!("verify OK: capture -> replay reproduces every predictor byte-identically");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_command(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("tracegen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Capture(workload, file, settings, sync) => {
            capture(workload, &file, &settings, sync)
        }
        Command::CaptureAll(dir, settings) => capture_all(&dir, &settings),
        Command::Info(file) => info(&file),
        Command::Replay(file, workload, predictor, scale, remote) => {
            replay(&file, workload, predictor, scale, remote.as_ref())
        }
        Command::Verify(workload, file, settings, repair) => {
            verify(workload, &file, &settings, repair)
        }
        Command::Metrics(addr, events) => metrics(&addr, events),
        Command::Shutdown(addr) => shutdown(&addr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_command(&args)
    }

    /// Each accepted line must parse; each rejected one must fail naming
    /// what is wrong. The accepted lines include every tracegen
    /// invocation in README.md, docs/ and the CI smokes.
    fn check(accepted: &[&str], rejected: &[(&str, &str)]) {
        for line in accepted {
            assert!(parse(line).is_ok(), "{line}: {:?}", parse(line));
        }
        for (line, named) in rejected {
            let err = parse(line).expect_err(&format!("{line} must be rejected"));
            assert!(err.contains(named), "{line}: error names {named}: {err}");
        }
    }

    #[test]
    fn remote_flags_accept_and_reject() {
        // (window, max_retries, jitter_seed) of each parse; every case
        // follows the bare `replay db2.stems --workload db2 --remote ..`.
        let parse = |args: &str| -> Result<_, String> {
            let line = format!("replay db2.stems --workload db2 --remote 127.0.0.1:1 {args}");
            match parse(&line)? {
                Command::Replay(.., Some(r)) => {
                    Ok((r.window, r.policy.max_retries, r.policy.jitter_seed))
                }
                other => panic!("{args} parsed to {other:?}"),
            }
        };
        let default = RetryPolicy::default();
        let (retries, seed) = (default.max_retries, default.jitter_seed);
        let accepts = |args: &str, want| assert_eq!(parse(args), Ok(want), "{args}");
        accepts("", (4, 0, seed));
        accepts("--window 1 --remote 127.0.0.1:1", (1, 0, seed));
        accepts("--retry", (4, retries, seed));
        accepts("--retry --retry-seed 7 --window 8", (8, retries, 7));
        accepts("--retry-seed 9 --retry", (4, retries, 9));
        let rejected = [
            "--window x",
            "--window 0",
            "--window -4",
            "--window",
            "--window --retry",
            "--retry --retry-seed banana",
            "--retry --retry-seed",
            "--retry-seed 7",
        ];
        for args in rejected {
            assert!(parse(args).is_err(), "{args} must be rejected");
        }
    }

    #[test]
    fn capture_flags_accept_and_reject() {
        let accepted = [
            "capture db2 /tmp/db2.stems --scale 0.01 --seed 2009",
            "capture db2 /tmp/db2.stems --scale 0.1 --seed 2009",
            "capture DB2 f --sync-every-frame --seed 7",
        ];
        let rejected = [
            ("capture", "<workload> <file>"),
            ("capture db2", "<file>"),
            ("capture db2 --scale 0.1", "<file>"),
            ("capture nosuch f", "unknown workload \"nosuch\""),
            ("capture db2 /tmp/typo.stems --sacle 0.01", "--sacle"),
            ("capture db2 f --threads 2", "--threads"),
            ("capture db2 f --trace-dir d", "--trace-dir"),
            ("capture db2 f --repair", "--repair"),
            ("capture db2 f --sync-every-frame 1", "\"1\""),
            ("capture db2 f extra", "\"extra\""),
            ("capture db2 f --seed", "--seed"),
            ("capture db2 f --scale 0", "--scale"),
        ];
        check(&accepted, &rejected);
        let sync = SyncPolicy::EveryFrame;
        let want =
            |c| matches!(c, Command::Capture(Workload::Db2, _, s, p) if s.seed == 7 && p == sync);
        assert!(parse(accepted[2]).is_ok_and(want));
    }

    #[test]
    fn capture_all_flags_accept_and_reject() {
        let accepted = [
            "capture-all /tmp/corpus --scale 0.1",
            "capture-all /tmp/corpus --scale 0.05 --seed 2009",
            "capture-all c --threads 2",
        ];
        let rejected = [
            ("capture-all", "<dir>"),
            ("capture-all --scale 0.1", "<dir>"),
            ("capture-all c --trace-dir d", "--trace-dir"),
            ("capture-all c --sync-every-frame", "--sync-every-frame"),
            ("capture-all c --threads two", "--threads"),
            ("capture-all c d", "\"d\""),
        ];
        check(&accepted, &rejected);
        let want = |c| matches!(c, Command::CaptureAll(_, s) if s.threads == 2);
        assert!(parse(accepted[2]).is_ok_and(want));
    }

    #[test]
    fn info_takes_a_file_and_no_flags() {
        let rejected = [
            ("info", "<file>"),
            ("info f --scale 0.1", "--scale"),
            ("info f g", "\"g\""),
        ];
        check(&["info /tmp/db2.stems"], &rejected);
    }

    #[test]
    fn replay_flags_accept_and_reject() {
        let accepted = [
            "replay /tmp/db2.stems --workload db2 --predictor STeMS",
            "replay /tmp/db2.stems --workload db2 --predictor STeMS --scale 0.01",
            "replay /tmp/db2.stems --workload db2 --predictor STeMS --scale 0.01 --remote h:1",
            "replay /tmp/db2.stems --workload db2 --predictor STeMS --scale 0.01 --remote h:1 \
             --retry --retry-seed 7",
            "replay db2.stems --workload db2 --remote h:1 --retry",
            "replay f --workload DB2 --predictor tms",
        ];
        let rejected = [
            ("replay", "<file>"),
            ("replay --workload db2", "<file>"),
            ("replay f", "--workload"),
            ("replay f --workload", "--workload"),
            ("replay f --workload nosuch", "unknown workload"),
            ("replay f --workload db2 --predictor nosuch", "--predictor"),
            ("replay f --workload db2 --seed 7", "--seed"),
            ("replay f --workload db2 --threads 2", "--threads"),
            ("replay f --workload db2 --events", "--events"),
            ("replay f --workload db2 --scale 0", "--scale"),
            ("replay f --workload db2 stray", "\"stray\""),
            ("replay f --workload db2 --remote", "--remote"),
            // The stream flags mean nothing without --remote.
            ("replay f --workload db2 --window 8", "--window"),
            ("replay f --workload db2 --retry", "--retry"),
        ];
        check(&accepted, &rejected);
        let want = Command::Replay("f".into(), Workload::Db2, Predictor::Tms, 1.0, None);
        assert_eq!(parse(accepted[5]), Ok(want));
    }

    #[test]
    fn verify_flags_accept_and_reject() {
        let accepted = [
            "verify db2 /tmp/db2.stems --scale 0.01 --seed 2009",
            "verify db2 /tmp/db2.stems --scale 0.1 --seed 2009",
            "verify db2 /tmp/db2.stems --repair",
        ];
        let rejected = [
            ("verify db2", "<file>"),
            ("verify nosuch f", "unknown workload"),
            ("verify db2 f --threads 2", "--threads"),
            ("verify db2 f --workload db2", "--workload"),
            ("verify db2 f --repair yes", "\"yes\""),
            ("verify db2 f --seed x", "--seed"),
        ];
        check(&accepted, &rejected);
        let (file, settings) = ("/tmp/db2.stems".into(), Settings::default());
        let want = Command::Verify(Workload::Db2, file, settings, true);
        assert_eq!(parse(accepted[2]), Ok(want));
    }

    #[test]
    fn metrics_flags_accept_and_reject() {
        let accepted = [
            "metrics --remote 127.0.0.1:4909",
            "metrics --remote h:1 --events",
        ];
        let rejected = [
            ("metrics", "--remote"),
            ("metrics --events", "--remote"),
            ("metrics --remote", "--remote"),
            ("metrics --remote h:1 --scale 0.1", "--scale"),
            ("metrics stray --remote h:1", "\"stray\""),
            // Not a subcommand at all.
            ("", "missing subcommand"),
            ("bogus", "\"bogus\""),
            ("--help", "\"--help\""),
        ];
        check(&accepted, &rejected);
        assert_eq!(parse(accepted[1]), Ok(Command::Metrics("h:1".into(), true)));
    }

    #[test]
    fn shutdown_flags_accept_and_reject() {
        let accepted = ["shutdown --remote 127.0.0.1:4909"];
        let rejected = [
            ("shutdown", "--remote"),
            ("shutdown --remote", "--remote"),
            ("shutdown --remote h:1 --events", "--events"),
            ("shutdown stray --remote h:1", "\"stray\""),
        ];
        check(&accepted, &rejected);
        let want = Command::Shutdown("127.0.0.1:4909".into());
        assert_eq!(parse(accepted[0]), Ok(want));
    }
}
