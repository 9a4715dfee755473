//! `stems-client` — stream persisted traces to a `stems-serve` daemon.
//!
//! ```text
//! stems-client replay <store-file> --addr HOST:PORT
//!              [--predictor none|stride|tms|sms|stems|naive]
//!              [--window N] [--small]
//!              [--inval-rate R --inval-seed S]
//! stems-client shutdown --addr HOST:PORT
//! ```
//!
//! `replay` opens one session (paper Table 1 configuration, or the
//! scaled-down `small()` pair with `--small`), streams the store file
//! with a bounded in-flight window (`--window`, at least 1, default 4)
//! through `ResilientClient` with retries off (the first fault fails
//! the replay), closes the session, and prints the summary counters.
//! `--inval-rate` is a probability in `[0, 1]`; `--inval-seed` (default
//! `0xC0FFEE`) needs it. A missing or malformed flag value exits 2.
//! Workload-aware replay (per-workload prefetch configuration and
//! invalidation injection, comparable to `tracegen verify`) lives in
//! `tracegen replay --remote`.
//!
//! `shutdown` drains the server: every open session is finalized, its
//! summary printed, and the daemon exits 0.

use std::process::ExitCode;

use stems_client::{Client, ResilientClient, RetryPolicy};
use stems_core::protocol::{OpenRequest, SessionSummary};
use stems_core::{Counters, Predictor, PrefetchConfig};
use stems_memsim::SystemConfig;
use stems_trace::TraceReader;

fn usage() -> ExitCode {
    eprintln!("usage: stems-client replay <store-file> --addr HOST:PORT [--predictor p]");
    eprintln!("                    [--window N] [--small] [--inval-rate R --inval-seed S]");
    eprintln!("       stems-client shutdown --addr HOST:PORT");
    ExitCode::FAILURE
}

fn counters_row(label: &str, c: &Counters) {
    println!(
        "{label:<10} accesses {:>9} reads {:>9} covered {:>8} uncovered {:>8} overpred {:>8} fetches {:>8}",
        c.accesses, c.reads, c.covered, c.uncovered, c.overpredictions, c.fetches
    );
}

fn print_summary(s: &SessionSummary, predictor: &str) {
    println!("session {}: {} accesses fed", s.session, s.accesses_fed);
    counters_row(predictor, &s.counters);
    if let Some(r) = s.recon {
        println!(
            "recon: exact {} shifted1 {} shifted2 {} dropped_conflict {} dropped_window {}",
            r.exact, r.shifted1, r.shifted2, r.dropped_conflict, r.dropped_window
        );
    }
    if let Some(p) = s.pst_probes {
        println!("pst probes: {p}");
    }
}

fn arg_after<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

/// Parses `replay`'s `--window`, `--inval-rate` and `--inval-seed` into
/// the stream window and the invalidation injection. A missing or
/// malformed value, a zero window, a rate outside `[0, 1]`, or a seed
/// without a rate is an error naming the flag; other arguments are
/// skipped.
fn replay_flags(args: &[String]) -> Result<(usize, Option<(f64, u64)>), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let (mut window, mut rate, mut seed) = (4, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--window" => window = value(flag, args.next())?,
            "--inval-rate" => rate = Some(value::<f64>(flag, args.next())?),
            "--inval-seed" => seed = Some(value(flag, args.next())?),
            _ => {}
        }
    }
    match (rate, seed) {
        _ if window == 0 => Err("--window must be at least 1".into()),
        (Some(r), _) if !(0.0..=1.0).contains(&r) => {
            Err(format!("--inval-rate must be in [0, 1], got {r}"))
        }
        (None, Some(_)) => Err("--inval-seed needs --inval-rate".into()),
        (rate, seed) => Ok((window, rate.map(|r| (r, seed.unwrap_or(0xC0FFEE))))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("replay") if args.len() >= 2 => replay(&args[1..]),
        Some("shutdown") => shutdown(&args[1..]),
        _ => usage(),
    }
}

fn replay(args: &[String]) -> ExitCode {
    let path = &args[0];
    let Some(addr) = arg_after(args, "--addr") else {
        eprintln!("replay needs --addr HOST:PORT");
        return usage();
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
    let (window, invalidations) = match replay_flags(args) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("stems-client: {e}");
            return ExitCode::from(2);
        }
    };
    let small = args.iter().any(|a| a == "--small");
    let open = OpenRequest {
        system: if small {
            SystemConfig::small()
        } else {
            SystemConfig::default()
        },
        prefetch: if small {
            PrefetchConfig::small()
        } else {
            PrefetchConfig::default()
        },
        predictor,
        invalidations,
    };

    let mut reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let policy = RetryPolicy {
        max_retries: 0,
        ..RetryPolicy::default()
    };
    let mut client = ResilientClient::new(addr.as_str(), policy);
    let mut run = || -> Result<(u64, SessionSummary), stems_client::ClientError> {
        let session = client.open(&open)?;
        let (fed, _) = client.stream(session, &mut reader, window)?;
        let summary = client.close(session)?;
        Ok((fed, summary))
    };
    match run() {
        Ok((fed, summary)) => {
            println!("{path}: streamed {fed} accesses to {addr} through {predictor}");
            print_summary(&summary, predictor.name());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn shutdown(args: &[String]) -> ExitCode {
    let Some(addr) = arg_after(args, "--addr") else {
        eprintln!("shutdown needs --addr HOST:PORT");
        return usage();
    };
    let run = || -> Result<Vec<SessionSummary>, stems_client::ClientError> {
        let mut client = Client::connect(addr)?;
        client.shutdown_server()
    };
    match run() {
        Ok(summaries) => {
            println!("{addr}: drained {} session(s)", summaries.len());
            for s in &summaries {
                print_summary(s, "drained");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shutdown failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_flags_accept_and_reject() {
        let parse =
            |args: &[&str]| replay_flags(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let accepts = |args: &[&str], want| assert_eq!(parse(args), Ok(want), "{args:?}");
        accepts(
            &["db2.stems", "--addr", "127.0.0.1:1", "--small"],
            (4, None),
        );
        accepts(&["--window", "1"], (1, None));
        accepts(&["--inval-rate", "0.01"], (4, Some((0.01, 0xC0FFEE))));
        accepts(&["--inval-rate", "0"], (4, Some((0.0, 0xC0FFEE))));
        accepts(
            &["--inval-seed", "7", "--window", "16", "--inval-rate", "1"],
            (16, Some((1.0, 7))),
        );
        let rejected: [&[&str]; 11] = [
            &["--window", "x"],
            &["--window", "0"],
            &["--window", "-1"],
            &["--window"],
            &["--window", "--small"],
            &["--inval-rate", "lots"],
            &["--inval-rate", "1.5"],
            &["--inval-rate", "NaN"],
            &["--inval-rate"],
            &["--inval-rate", "0.1", "--inval-seed", "x"],
            &["--inval-seed", "7"],
        ];
        for args in rejected {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
