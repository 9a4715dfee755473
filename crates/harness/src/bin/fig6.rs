//! Regenerates fig6 of the evaluation (`EXPERIMENTS.md`, "Figure 6").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::fig6(settings));
}
