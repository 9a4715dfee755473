//! Runs the STeMS design-parameter ablation sweeps (the "Ablation:"
//! sections of `EXPERIMENTS.md`).

fn main() {
    let settings = stems_harness::Settings::from_env();
    println!("{}", stems_harness::ablate::ablations(settings));
}
