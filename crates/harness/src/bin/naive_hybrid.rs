//! Regenerates naive_hybrid of the evaluation (`EXPERIMENTS.md`,
//! "Section 5.5: naive TMS+SMS hybrid vs STeMS").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::naive_hybrid(settings));
}
