//! Figure 10 with 95% confidence intervals over multiple workload seeds
//! (`--seeds <n>`, default 3).

use std::process::ExitCode;

fn main() -> ExitCode {
    let settings = stems_harness::Settings::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match seeds_flag(&args) {
        Ok(seeds) => {
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

/// Parses `--seeds n` (n at least 1, default 3). A missing or malformed
/// value or a zero count is an error naming the flag; other arguments
/// are skipped.
fn seeds_flag(args: &[String]) -> Result<usize, String> {
    let mut seeds = 3;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--seeds" {
            let v = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or("--seeds needs a value")?;
            seeds = v
                .parse()
                .map_err(|_| format!("--seeds: cannot parse {v:?}"))?;
        }
    }
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_flag_accepts_and_rejects() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            seeds_flag(&args)
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
        let rejected: [&[&str]; 5] = [
            &["--seeds"],
            &["--seeds", "banana"],
            &["--seeds", "0"],
            &["--seeds", "-2"],
            &["--seeds", "--scale", "0.01"],
        ];
        for args in rejected {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
