//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (`EXPERIMENTS.md` has one section per table and figure).
//!
//! Each figure has a binary (`cargo run --release -p stems-harness --bin
//! fig9`) accepting `--scale <f>` (footprint scale, default 1.0) and
//! `--seed <n>`; `--bin all` runs the complete evaluation.

pub mod ablate;
pub mod figs;
pub mod render;
pub mod runner;
pub mod stats;

pub use render::{pct, pct_signed, Table};
pub use runner::{
    load_trace, parallel_map, per_workload, per_workload_predictor, prefetch_config,
    replay_coverage, run_coverage, run_timing, session_builder, Args, Flag, Predictor, Settings,
};
