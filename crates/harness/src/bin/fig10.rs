//! Regenerates fig10 of the evaluation (`EXPERIMENTS.md`, "Figure 10").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::fig10(settings));
}
