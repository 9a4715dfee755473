//! Figure 10 with 95% confidence intervals over multiple workload seeds
//! (`--seeds <n>`, default 3).

use std::process::ExitCode;

use stems_harness::{Args, Flag, Settings};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok((settings, seeds)) => {
            println!(
                "{}",
                stems_harness::stats::fig10_with_confidence(settings, seeds)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// The shared settings' flags plus `--seeds`, but not `--trace-dir`:
/// every seed's traces are generated, so a corpus would go unread.
const FLAGS: [Flag; 4] = [
    Flag::Value("--scale"),
    Flag::Value("--seed"),
    Flag::Value("--threads"),
    Flag::Value("--seeds"),
];

/// Parses the shared settings and `--seeds n` (n at least 1, default 3).
/// An unknown flag, a stray argument, a missing or malformed value, or a
/// zero count is an error naming it.
fn parse_args(args: &[String]) -> Result<(Settings, usize), String> {
    let args = Args::parse(args.iter().cloned(), &FLAGS)?;
    let seeds = args.value("--seeds")?.unwrap_or(3);
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    Ok((args.settings, seeds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_flag_accepts_and_rejects() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_args(&args).map(|(_, seeds)| seeds)
        };
        let accepted: [(&[&str], usize); 4] = [
            (&[], 3),
            (&["--scale", "0.01", "--seed", "7"], 3),
            (&["--seeds", "1"], 1),
            (&["--seeds", "5", "--threads", "2"], 5),
        ];
        for (args, want) in accepted {
            assert_eq!(parse(args), Ok(want), "{args:?}");
        }
        let rejected: [&[&str]; 10] = [
            &["--seeds"],
            &["--seeds", "banana"],
            &["--seeds", "0"],
            &["--seeds", "-2"],
            &["--seeds", "--scale", "0.01"],
            // Unknown flags and stray arguments, as in every figure binary.
            &["--sacle", "0.05"],
            &["--seed", "7", "--sedes", "2"],
            &["--seeds", "2", "stray"],
            &["5"],
            // Every seed is generated: there is no corpus to replay.
            &["--trace-dir", "/tmp/corpus", "--seeds", "1"],
        ];
        for args in rejected {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
