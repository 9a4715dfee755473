//! Self-timing throughput report: writes `BENCH_harness.json` with
//! per-predictor step throughput, per-figure wall-clock, and a peak-RSS
//! proxy, so successive PRs have a machine-readable perf trajectory.
//!
//! Usage: `cargo run --release -p stems-harness --bin bench_harness --
//! [--scale <f>] [--seed <n>] [--threads <n>] [--out <path>]
//! [--obs-json <path>]`
//!
//! `--obs-json` additionally writes the flat-JSON dump of the metrics
//! registry that the observation-cost A/B's hooked runs recorded into
//! (counters, plus quantile summaries of the chunk-latency histograms)
//! — the observability layer's own view of the bench, next to the
//! stopwatch's.

use stems_harness::bench;
use stems_harness::Settings;
use stems_obs::MetricsRegistry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut settings = Settings::from_args(args.iter().cloned()).unwrap_or_else(|e| {
        eprintln!("bench_harness: {e}");
        std::process::exit(2)
    });
    // Full-size traces take minutes per cell; default the bench to a
    // scale that exercises every path in seconds.
    if !args.iter().any(|a| a == "--scale") {
        settings.scale = 0.05;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_harness.json".to_string());
    let obs_json = args
        .iter()
        .position(|a| a == "--obs-json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    eprintln!(
        "bench_harness: scale {} seed {} threads {}",
        settings.scale,
        settings.seed,
        settings.effective_threads()
    );
    let registry = MetricsRegistry::new();
    let measurements =
        bench::run_with_obs(settings.clone(), obs_json.is_some().then_some(&registry));
    for m in &measurements {
        eprintln!("  {:<44} {:>16.3} {}", m.name, m.value, m.unit);
    }
    let json = bench::to_json(settings, &measurements);
    std::fs::write(&out_path, &json).expect("write BENCH_harness.json");
    eprintln!("wrote {out_path}");
    if let Some(path) = obs_json {
        let mut dump = String::new();
        registry.render_json(&mut dump);
        dump.push('\n');
        std::fs::write(&path, &dump).expect("write observability dump");
        eprintln!("wrote {path}");
    }
}
