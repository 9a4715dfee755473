//! `stems-chaos` — fault-injection TCP proxy for chaos testing.
//!
//! ```text
//! stems-chaos --upstream HOST:PORT [--listen HOST:PORT] [--port-file PATH]
//!             [--seed N] [--fault-rate F] [--delay-rate F] [--delay-ms N]
//!             [--split-rate F]
//! ```
//!
//! Binds (default `127.0.0.1:0` — an ephemeral port), prints the bound
//! address on stdout, optionally writes the bound port to
//! `--port-file`, and proxies every connection to `--upstream` with
//! deterministic seeded faults (see `docs/FAULT_TOLERANCE.md`). Each
//! fired fatal fault prints one `chaos: fatal kind=... conn=N ...`
//! line to stdout — CI counts those lines and reconciles them against
//! the client's reported reconnects and the server's shed metrics.
//!
//! Runs until killed; rates default to 0 (a transparent proxy). A usage
//! error (an unknown argument, a missing `--upstream`, a missing or
//! malformed value, or a rate outside `[0, 1]`) exits 2.

use std::process::ExitCode;
use std::time::Duration;

use stems_server::chaos::{ChaosConfig, ChaosProxy};

const USAGE: &str = "\
usage: stems-chaos --upstream HOST:PORT [--listen HOST:PORT] [--port-file PATH]
                   [--seed N] [--fault-rate F] [--delay-rate F] [--delay-ms N]
                   [--split-rate F]";

/// What the command line asks for.
#[derive(Debug)]
struct Options {
    listen: String,
    upstream: String,
    port_file: Option<String>,
    config: ChaosConfig,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        listen,
        upstream,
        port_file,
        config,
    } = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("stems-chaos: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let proxy = match ChaosProxy::spawn(&listen, upstream.clone(), config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("stems-chaos: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = proxy.local_addr();
    println!(
        "proxying {bound} -> {upstream} (seed={} fault-rate={} delay-rate={} split-rate={})",
        config.seed, config.fault_rate, config.delay_rate, config.split_rate
    );
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", bound.port())) {
            eprintln!("stems-chaos: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Serve until killed: park forever. The accept thread does the
    // work; `proxy` stays alive (and its Drop never runs — the process
    // exits with the threads), which is exactly what a kill expects.
    loop {
        std::thread::park();
    }
}

/// Parses the arguments (without the program name). An unknown argument,
/// a missing `--upstream`, a missing or malformed value (a value that
/// starts with `--` is a missing one), or a rate outside `[0, 1]` is an
/// error naming the flag.
fn parse_args(args: &[String]) -> Result<Options, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag}: cannot parse {value:?}"))
    }
    fn rate(flag: &str, value: &str) -> Result<f64, String> {
        let rate: f64 = number(flag, value)?;
        if (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(format!("{flag} must be in [0, 1], got {value}"))
        }
    }
    let mut listen = String::from("127.0.0.1:0");
    let mut upstream = None;
    let mut port_file = None;
    let mut config = ChaosConfig {
        verbose: true,
        ..ChaosConfig::default()
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--listen" => listen = value()?.clone(),
            "--upstream" => upstream = Some(value()?.clone()),
            "--port-file" => port_file = Some(value()?.clone()),
            "--seed" => config.seed = number(flag, value()?)?,
            "--fault-rate" => config.fault_rate = rate(flag, value()?)?,
            "--delay-rate" => config.delay_rate = rate(flag, value()?)?,
            "--delay-ms" => config.delay = Duration::from_millis(number(flag, value()?)?),
            "--split-rate" => config.split_rate = rate(flag, value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        listen,
        upstream: upstream.ok_or("--upstream HOST:PORT is required")?,
        port_file,
        config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parse_args_accepts_and_rejects() {
        let bare = parse("--upstream 127.0.0.1:1").unwrap();
        assert_eq!(
            (bare.listen.as_str(), bare.port_file),
            ("127.0.0.1:0", None)
        );
        let want = ChaosConfig {
            verbose: true,
            ..ChaosConfig::default()
        };
        assert_eq!(format!("{:?}", bare.config), format!("{want:?}"));
        // The chaos smoke's line.
        let ci = parse(
            "--upstream 127.0.0.1:4909 --port-file /tmp/chaos_port --seed 12 --fault-rate 0.25 \
             --split-rate 0.2",
        )
        .unwrap();
        assert_eq!(ci.upstream, "127.0.0.1:4909");
        assert_eq!(ci.port_file.as_deref(), Some("/tmp/chaos_port"));
        let c = ci.config;
        assert_eq!((c.seed, c.fault_rate, c.split_rate), (12, 0.25, 0.2));
        let c = parse("--upstream h:1 --listen h:2 --delay-rate 1 --delay-ms 7")
            .unwrap()
            .config;
        assert_eq!((c.delay_rate, c.delay), (1.0, Duration::from_millis(7)));

        let rejected = [
            // A flag where a value belongs is a missing value.
            ("--upstream 127.0.0.1:1 --port-file --seed", "--port-file"),
            ("--upstream --seed 5", "--upstream"),
            ("--upstream h:1 --seed", "--seed"),
            ("--seed 5", "--upstream"),
            ("", "--upstream"),
            ("--upstream h:1 --fault-rate 1.5", "--fault-rate"),
            ("--upstream h:1 --fault-rate NaN", "--fault-rate"),
            ("--upstream h:1 --split-rate -0.1", "--split-rate"),
            ("--upstream h:1 --delay-ms x", "--delay-ms"),
            ("--upstream h:1 --seed -1", "--seed"),
            ("--upstream h:1 --help", "--help"),
            ("--upstream h:1 stray", "\"stray\""),
        ];
        for (line, named) in rejected {
            let err = parse(line).expect_err(&format!("{line} must be rejected"));
            assert!(err.contains(named), "{line}: error names {named}: {err}");
        }
    }
}
