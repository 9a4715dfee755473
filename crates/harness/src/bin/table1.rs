//! Regenerates table1 of the evaluation (`EXPERIMENTS.md`, "Table 1:
//! system parameters" and "Table 1: applications").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::table1(settings));
}
