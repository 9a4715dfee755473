//! Regenerates fig7 of the evaluation (`EXPERIMENTS.md`, "Figure 7").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::fig7(settings));
}
