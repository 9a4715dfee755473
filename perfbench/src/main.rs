//! `perfbench`: the repository's benchmark.
//!
//! Runs one workload for a fixed time and prints, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics for an untraced run
//! (`--trace 0`), the per-layer metrics for a traced one (`--trace 1`).
//! `perfbench/README.md` lists the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp-stems --seed 2009 --seconds 10 --trace 0
//! ```

use std::process::ExitCode;

mod alloc;
mod bench;
mod calib;
mod cli;
mod report;
mod span;
mod stats;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = match bench::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let json = report.to_json();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, &json)) {
        eprintln!("perfbench: write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{json}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
