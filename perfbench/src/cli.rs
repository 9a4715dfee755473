//! Strict command-line parsing: every flag is known, given at most once,
//! and well-formed, or the run is refused with a message.

use std::fmt;
use std::str::FromStr;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// DB2 (TPC-C) store replay through STeMS.
    OltpStems,
    /// em3d store replay through STeMS.
    SciStems,
    /// DB2 store streamed over loopback TCP to the null predictor.
    WireNull,
    /// Figures 9 and 10 for all ten workloads.
    Figures,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OltpStems,
        Workload::SciStems,
        Workload::WireNull,
        Workload::Figures,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpStems => "oltp-stems",
            Workload::SciStems => "sci-stems",
            Workload::WireNull => "wire-null",
            Workload::Figures => "figures",
        }
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload {s:?}; expected one of {}",
                    names.join(", ")
                )
            })
    }
}

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// Default seed: the paper's year, as elsewhere in the repository.
pub const DEFAULT_SEED: u64 = 2009;
/// Default measured seconds.
pub const DEFAULT_SECONDS: u64 = 10;
/// Longest measured phase accepted.
pub const MAX_SECONDS: u64 = 600;

/// Usage text printed with every refusal.
pub const USAGE: &str = "usage: perfbench --workload <oltp-stems|sci-stems|wire-null|figures> \
[--seed <u64, default 2009>] [--seconds <1..=600, default 10>] [--trace <0|1, default 0>]";

/// Why the arguments were refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn value<T: FromStr>(flag: &str, raw: Option<String>) -> Result<T, CliError> {
    let raw = raw.ok_or_else(|| CliError(format!("{flag} needs a value")))?;
    raw.parse()
        .map_err(|_| CliError(format!("{flag}: malformed value {raw:?}")))
}

/// Parses the arguments after the program name.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, CliError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let seen = match flag.as_str() {
            "--workload" => {
                let name: String = value(&flag, args.next())?;
                workload.replace(name.parse().map_err(CliError)?).is_some()
            }
            "--seed" => seed.replace(value::<u64>(&flag, args.next())?).is_some(),
            "--seconds" => {
                let s: u64 = value(&flag, args.next())?;
                if !(1..=MAX_SECONDS).contains(&s) {
                    return Err(CliError(format!(
                        "--seconds: {s} is outside 1..={MAX_SECONDS}"
                    )));
                }
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let on = match value::<String>(&flag, args.next())?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => {
                        return Err(CliError(format!("--trace: expected 0 or 1, got {other:?}")))
                    }
                };
                trace.replace(on).is_some()
            }
            other => return Err(CliError(format!("unknown argument {other:?}"))),
        };
        if seen {
            return Err(CliError(format!("{flag} given twice")));
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| CliError("--workload is required".into()))?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(DEFAULT_SECONDS),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<Args, CliError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn accepts_the_full_flag_set_and_defaults() {
        assert_eq!(
            run(&[
                "--workload",
                "wire-null",
                "--seed",
                "7",
                "--seconds",
                "12",
                "--trace",
                "1"
            ]),
            Ok(Args {
                workload: Workload::WireNull,
                seed: 7,
                seconds: 12,
                trace: true,
            })
        );
        assert_eq!(
            run(&["--workload", "figures"]),
            Ok(Args {
                workload: Workload::Figures,
                seed: DEFAULT_SEED,
                seconds: DEFAULT_SECONDS,
                trace: false,
            })
        );
        for w in Workload::ALL {
            assert_eq!(run(&["--workload", w.name()]).unwrap().workload, w);
        }
    }

    #[test]
    fn refuses_unknown_malformed_missing_and_repeated_flags() {
        let refused = [
            &["--workload", "oltp"][..],
            &["--workload", "figures", "--seed", "banana"],
            &["--workload", "figures", "--seed", "-1"],
            &["--workload", "figures", "--seed"],
            &["--workload", "figures", "--seconds", "0"],
            &["--workload", "figures", "--seconds", "601"],
            &["--workload", "figures", "--seconds", "1.5"],
            &["--workload", "figures", "--trace", "yes"],
            &["--workload", "figures", "--junk"],
            &["--workload=figures"],
            &["--seed", "3"],
            &["--workload", "figures", "--seed", "3", "--seed", "4"],
            &[],
        ];
        for args in refused {
            assert!(run(args).is_err(), "{args:?} must be refused");
        }
        let err = run(&["--workload", "figures", "--seed", "banana"]).unwrap_err();
        assert!(err.0.contains("banana"), "{err}");
    }
}
