//! Regenerates fig9 of the evaluation (`EXPERIMENTS.md`, "Figure 9").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::fig9(settings));
}
