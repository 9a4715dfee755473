//! Regenerates fig8 of the evaluation (`EXPERIMENTS.md`, "Figure 8").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::fig8(settings));
}
