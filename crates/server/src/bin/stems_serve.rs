//! `stems-serve` — run the trace-streaming session daemon.
//!
//! ```text
//! stems-serve [--addr HOST:PORT] [--port-file PATH]
//!             [--read-timeout-secs N] [--write-timeout-secs N]
//!             [--session-ttl-secs N] [--max-sessions N]
//!             [--log-level error|warn|info|debug] [--quiet]
//!             [--slow-chunk-ms N] [--event-capacity N]
//!             [--max-concurrent-chunks N] [--max-connections N]
//!             [--busy-retry-ms N]
//! ```
//!
//! Binds (default `127.0.0.1:0` — an ephemeral port), prints the bound
//! address on stdout, optionally writes the bound port to `--port-file`
//! (how scripts discover an ephemeral port), and serves until a client
//! sends `Shutdown`. Exit code 0 on a graceful drain; 2 on a usage error
//! (an unknown argument, a missing or malformed value, a zero timeout, or
//! a `--busy-retry-ms`/`--slow-chunk-ms` too large to keep).
//!
//! Logging goes through the observability event layer (see
//! `docs/OBSERVABILITY.md`): `--log-level info` mirrors every event at
//! or below that level to stderr as timestamped `[+secs] LEVEL ...`
//! lines; `--quiet` (the default) suppresses them. Events land in the
//! server's bounded ring either way and can be scraped over the wire
//! with `tracegen metrics --remote ADDR --events`.

use std::process::ExitCode;
use std::time::Duration;

use stems_server::{Server, ServerConfig};

const USAGE: &str = "\
usage: stems-serve [--addr HOST:PORT] [--port-file PATH]
                   [--read-timeout-secs N] [--write-timeout-secs N]
                   [--session-ttl-secs N] [--max-sessions N]
                   [--log-level error|warn|info|debug] [--quiet]
                   [--slow-chunk-ms N] [--event-capacity N]
                   [--max-concurrent-chunks N] [--max-connections N]
                   [--busy-retry-ms N]";

/// What the command line asks for.
#[derive(Debug)]
struct Options {
    addr: String,
    port_file: Option<String>,
    config: ServerConfig,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        addr,
        port_file,
        config,
    } = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("stems-serve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stems-serve: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.local_addr();
    println!("listening on {bound}");
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", bound.port())) {
            eprintln!("stems-serve: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            println!("drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stems-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the arguments (without the program name). An unknown argument,
/// a missing or malformed value, or a value the server would not keep
/// as given is an error naming the flag: a zero socket timeout (std
/// refuses it, so the connection would run with no timeout at all), a
/// `--busy-retry-ms` past `u32::MAX`, or a `--slow-chunk-ms` whose
/// nanoseconds overflow a `u64`.
fn parse_args(args: &[String]) -> Result<Options, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{flag}: cannot parse {value:?}"))
    }
    fn timeout(flag: &str, value: &str) -> Result<Duration, String> {
        match number(flag, value)? {
            0 => Err(format!(
                "{flag} must be at least 1 (a zero timeout is refused)"
            )),
            secs => Ok(Duration::from_secs(secs)),
        }
    }
    let mut options = Options {
        addr: String::from("127.0.0.1:0"),
        port_file: None,
        config: ServerConfig::default(),
    };
    let config = &mut options.config;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        if flag == "--quiet" {
            config.log = None;
            continue;
        }
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--addr" => options.addr = value()?.clone(),
            "--port-file" => options.port_file = Some(value()?.clone()),
            "--read-timeout-secs" => config.read_timeout = timeout(flag, value()?)?,
            "--write-timeout-secs" => config.write_timeout = timeout(flag, value()?)?,
            "--session-ttl-secs" => {
                config.session_ttl = Duration::from_secs(number(flag, value()?)?)
            }
            "--max-sessions" => config.max_sessions = number(flag, value()?)?,
            "--log-level" => {
                config.log = Some(value()?.parse().map_err(|e| format!("{flag}: {e}"))?)
            }
            "--slow-chunk-ms" => {
                let ms: u64 = number(flag, value()?)?;
                config.slow_chunk_nanos = ms.checked_mul(1_000_000).ok_or_else(|| {
                    format!("{flag} must be at most {}, got {ms}", u64::MAX / 1_000_000)
                })?
            }
            "--event-capacity" => config.event_capacity = number(flag, value()?)?,
            "--max-concurrent-chunks" => config.max_concurrent_chunks = number(flag, value()?)?,
            "--max-connections" => config.max_connections = number(flag, value()?)?,
            "--busy-retry-ms" => {
                let ms: u64 = number(flag, value()?)?;
                config.busy_retry_ms = u32::try_from(ms)
                    .map_err(|_| format!("{flag} must be at most {}, got {ms}", u32::MAX))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_obs::LogLevel;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parse_args_accepts_and_rejects() {
        let defaults = parse("").unwrap();
        assert_eq!(
            (defaults.addr.as_str(), defaults.port_file),
            ("127.0.0.1:0", None)
        );
        let default_config = format!("{:?}", ServerConfig::default());
        assert_eq!(format!("{:?}", defaults.config), default_config);
        let ci = parse("--addr 127.0.0.1:0 --port-file /tmp/stems_port").unwrap();
        assert_eq!(ci.port_file.as_deref(), Some("/tmp/stems_port"));
        let c = parse(
            "--read-timeout-secs 1 --write-timeout-secs 2 --session-ttl-secs 0 --max-sessions 3 \
             --slow-chunk-ms 18446744073709 --event-capacity 5 --max-concurrent-chunks 6 \
             --max-connections 7 --busy-retry-ms 4294967295 --log-level info",
        )
        .unwrap()
        .config;
        let secs = Duration::from_secs;
        assert_eq!(
            (c.read_timeout, c.write_timeout, c.session_ttl),
            (secs(1), secs(2), secs(0))
        );
        assert_eq!((c.max_sessions, c.event_capacity), (3, 5));
        assert_eq!((c.max_concurrent_chunks, c.max_connections), (6, 7));
        assert_eq!(c.slow_chunk_nanos, 18_446_744_073_709_000_000);
        assert_eq!((c.busy_retry_ms, c.log), (u32::MAX, Some(LogLevel::Info)));
        assert_eq!(parse("--log-level debug --quiet").unwrap().config.log, None);
        assert_eq!(
            parse("--slow-chunk-ms 0").unwrap().config.slow_chunk_nanos,
            0
        );

        let rejected = [
            // Values the server would otherwise change silently.
            ("--read-timeout-secs 0", "--read-timeout-secs"),
            ("--write-timeout-secs 0", "--write-timeout-secs"),
            ("--busy-retry-ms 4294967296", "--busy-retry-ms"),
            ("--slow-chunk-ms 18446744073710", "--slow-chunk-ms"),
            ("--slow-chunk-ms 18446744073709551615", "--slow-chunk-ms"),
            // Missing or malformed values.
            ("--addr", "--addr"),
            ("--port-file --quiet", "--port-file"),
            ("--max-sessions x", "--max-sessions"),
            ("--max-connections -1", "--max-connections"),
            ("--read-timeout-secs 1.5", "--read-timeout-secs"),
            ("--log-level loud", "--log-level"),
            // Unknown arguments.
            ("--bogus", "--bogus"),
            ("--help", "--help"),
            ("stray", "\"stray\""),
        ];
        for (line, named) in rejected {
            let err = parse(line).expect_err(&format!("{line} must be rejected"));
            assert!(err.contains(named), "{line}: error names {named}: {err}");
        }
    }
}
