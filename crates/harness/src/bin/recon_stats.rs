//! Regenerates recon_stats of the evaluation (`EXPERIMENTS.md`,
//! "Section 4.3: reconstruction placement accuracy").

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::figs::recon_stats(settings));
}
