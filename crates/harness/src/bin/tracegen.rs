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
//! also drains the daemon's event ring as JSON-lines.

use std::path::Path;
use std::process::ExitCode;

use stems_client::{ClientError, ResilientClient, RetryPolicy};
use stems_core::engine::Counters;
use stems_harness::runner::{
    remote_open_request, replay_coverage, run_coverage, system_config, Predictor,
};
use stems_harness::{parallel_map, Settings};
use stems_trace::store::SyncPolicy;
use stems_trace::{TraceReader, TraceStats};
use stems_workloads::{capture_to_path, trace_file_name, Workload};

fn workload_by_name(name: &str) -> Option<Workload> {
    Workload::all()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tracegen capture <workload> <file> [--scale f] [--seed n] [--sync-every-frame]"
    );
    eprintln!("       tracegen capture-all <dir> [--scale f] [--seed n] [--threads n]");
    eprintln!("       tracegen info <file>");
    eprintln!("       tracegen replay <file> --workload <w> [--predictor <p>] [--scale f]");
    eprintln!(
        "                       [--remote HOST:PORT [--window n] [--retry [--retry-seed n]]]"
    );
    eprintln!("       tracegen verify <workload> <file> [--scale f] [--seed n] [--repair]");
    eprintln!("       tracegen metrics --remote HOST:PORT [--events]");
    ExitCode::FAILURE
}

/// Parses the shared `--scale`/`--seed`/`--threads`/`--trace-dir`
/// flags; a missing or malformed value is reported with exit code 2.
fn parse_settings(args: &[String]) -> Result<Settings, ExitCode> {
    Settings::from_args(args.iter().cloned()).map_err(|e| {
        eprintln!("tracegen: {e}");
        ExitCode::from(2)
    })
}

fn counters_row(label: &str, c: &Counters) {
    println!(
        "{label:<10} accesses {:>9} reads {:>9} covered {:>8} uncovered {:>8} overpred {:>8} fetches {:>8}",
        c.accesses, c.reads, c.covered, c.uncovered, c.overpredictions, c.fetches
    );
}

fn capture(args: &[String]) -> ExitCode {
    let Some(workload) = workload_by_name(&args[0]) else {
        eprintln!(
            "unknown workload {:?}; expected one of {}",
            args[0],
            Workload::all().map(|w| w.name()).join(", ")
        );
        return ExitCode::FAILURE;
    };
    let settings = match parse_settings(&args[2..]) {
        Ok(settings) => settings,
        Err(code) => return code,
    };
    let sync = if args.iter().any(|a| a == "--sync-every-frame") {
        SyncPolicy::EveryFrame
    } else {
        SyncPolicy::OnFinish
    };
    match capture_to_path(workload, settings.scale, settings.seed, &args[1], sync) {
        Ok(summary) => {
            println!(
                "{}: {} records in {} frames (scale {}, seed {})",
                args[1], summary.records, summary.frames, settings.scale, settings.seed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("capture failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn capture_all(args: &[String]) -> ExitCode {
    let dir = Path::new(&args[0]);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let settings = match parse_settings(&args[1..]) {
        Ok(settings) => settings,
        Err(code) => return code,
    };
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

fn arg_after<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

fn replay(args: &[String]) -> ExitCode {
    let path = &args[0];
    let Some(workload) = arg_after(args, "--workload").and_then(|n| workload_by_name(n)) else {
        eprintln!("replay needs --workload <name> (selects prefetch config + invalidation rate)");
        return ExitCode::FAILURE;
    };
    let predictor = match arg_after(args, "--predictor") {
        Some(name) => match name.parse::<Predictor>() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => Predictor::Stems,
    };
    let settings = match parse_settings(&args[1..]) {
        Ok(settings) => settings,
        Err(code) => return code,
    };
    let sys = system_config(settings.scale);
    if let Some(addr) = arg_after(args, "--remote") {
        return match remote_flags(args) {
            Ok((window, policy)) => {
                remote_replay(path, workload, predictor, &sys, addr, window, policy)
            }
            Err(e) => {
                eprintln!("tracegen: {e}");
                ExitCode::from(2)
            }
        };
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

/// Parses `replay --remote`'s own flags: `--window n` (n at least 1,
/// default 4) and `--retry [--retry-seed n]`. Without `--retry` the
/// policy makes no retries. A missing or malformed value, a zero
/// window, or `--retry-seed` without `--retry` is an error naming the
/// flag; other arguments are skipped.
fn remote_flags(args: &[String]) -> Result<(usize, RetryPolicy), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let (mut window, mut retry, mut seed) = (4, false, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--window" => window = value(flag, args.next())?,
            "--retry" => retry = true,
            "--retry-seed" => seed = Some(value(flag, args.next())?),
            _ => {}
        }
    }
    let default = RetryPolicy::default();
    match (retry, seed) {
        _ if window == 0 => Err("--window must be at least 1".into()),
        (false, Some(_)) => Err("--retry-seed needs --retry".into()),
        (false, None) => Ok((
            window,
            RetryPolicy {
                max_retries: 0,
                ..default
            },
        )),
        (true, seed) => {
            let jitter_seed = seed.unwrap_or(default.jitter_seed);
            Ok((
                window,
                RetryPolicy {
                    jitter_seed,
                    ..default
                },
            ))
        }
    }
}

/// Streams the store to a `stems-serve` daemon with the same workload
/// session configuration the local path uses (see
/// `runner::remote_open_request`), so the printed counters line up with
/// `tracegen replay` and `tracegen verify` for the same file. The
/// stream heals transient faults as far as `policy` allows (torn
/// connections, corrupt frames, `Busy` shedding, via backoff +
/// resume). One `fault-stats:` line, printed before the counters row,
/// lets chaos harnesses reconcile the healing against a fault proxy's
/// injection log.
fn remote_replay(
    path: &str,
    workload: Workload,
    predictor: Predictor,
    sys: &stems_memsim::SystemConfig,
    addr: &str,
    window: usize,
    policy: RetryPolicy,
) -> ExitCode {
    let open = remote_open_request(workload, predictor, sys);
    let mut reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = ResilientClient::new(addr, policy);
    let result = (|| -> Result<_, ClientError> {
        let session = client.open(&open)?;
        let (fed, _) = client.stream(session, &mut reader, window)?;
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
/// the text exposition to stdout. With `--events`, the daemon's event
/// ring is drained and printed after the exposition (separated by a
/// blank line) as JSON-lines.
fn metrics(args: &[String]) -> ExitCode {
    let Some(addr) = arg_after(args, "--remote") else {
        eprintln!("metrics needs --remote HOST:PORT (a running stems-serve daemon)");
        return ExitCode::FAILURE;
    };
    let drain_events = args.iter().any(|a| a == "--events");
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

fn verify(args: &[String]) -> ExitCode {
    let Some(workload) = workload_by_name(&args[0]) else {
        eprintln!("unknown workload {:?}", args[0]);
        return ExitCode::FAILURE;
    };
    let path = &args[1];
    let settings = match parse_settings(&args[2..]) {
        Ok(settings) => settings,
        Err(code) => return code,
    };
    if args[2..].iter().any(|a| a == "--repair") {
        match stems_trace::store::TraceReader::recover_tail(path) {
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
    match args.first().map(String::as_str) {
        Some("capture") if args.len() >= 3 => capture(&args[1..]),
        Some("capture-all") if args.len() >= 2 => capture_all(&args[1..]),
        Some("info") if args.len() >= 2 => info(&args[1]),
        Some("replay") if args.len() >= 2 => replay(&args[1..]),
        Some("verify") if args.len() >= 3 => verify(&args[1..]),
        Some("metrics") if args.len() >= 2 => metrics(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_flags_accept_and_reject() {
        // (window, max_retries, jitter_seed) of each parse.
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            remote_flags(&args).map(|(w, p)| (w, p.max_retries, p.jitter_seed))
        };
        let RetryPolicy {
            max_retries: retries,
            jitter_seed: seed,
            ..
        } = RetryPolicy::default();
        let accepts = |args: &[&str], want| assert_eq!(parse(args), Ok(want), "{args:?}");
        accepts(&["db2.stems", "--workload", "db2"], (4, 0, seed));
        accepts(&["--window", "1", "--remote", "127.0.0.1:1"], (1, 0, seed));
        accepts(&["--retry"], (4, retries, seed));
        accepts(
            &["--retry", "--retry-seed", "7", "--window", "8"],
            (8, retries, 7),
        );
        accepts(&["--retry-seed", "9", "--retry"], (4, retries, 9));
        let rejected: [&[&str]; 8] = [
            &["--window", "x"],
            &["--window", "0"],
            &["--window", "-4"],
            &["--window"],
            &["--window", "--retry"],
            &["--retry", "--retry-seed", "banana"],
            &["--retry", "--retry-seed"],
            &["--retry-seed", "7"],
        ];
        for args in rejected {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
