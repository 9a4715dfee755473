//! Cross-crate pipeline tests: generators -> trace store -> simulator ->
//! analyses, exercised together.

use stems::analysis::{classify, filter_trace, Sequitur};
use stems::core::engine::{CoverageSim, NullPrefetcher};
use stems::core::{PrefetchConfig, StemsPrefetcher};
use stems::memsim::SystemConfig;
use stems::trace::store::{read_store, write_store};
use stems::workloads::Workload;

#[test]
fn traces_round_trip_through_binary_io() {
    for w in Workload::all() {
        let trace = w.generate_scaled(0.004, 11);
        let mut buf = Vec::new();
        write_store(&mut buf, &trace).expect("write");
        let back = read_store(buf.as_slice()).expect("read");
        assert_eq!(back, trace, "{w}: store round trip changed the trace");
    }
}

#[test]
fn replaying_a_stored_trace_reproduces_counters() {
    let trace = Workload::Qry16.generate_scaled(0.01, 5);
    let mut buf = Vec::new();
    write_store(&mut buf, &trace).unwrap();
    let reloaded = read_store(buf.as_slice()).unwrap();
    let sys = SystemConfig::small();
    let cfg = PrefetchConfig::small();
    let a = CoverageSim::new(&sys, &cfg, StemsPrefetcher::new(&cfg)).run(&trace);
    let b = CoverageSim::new(&sys, &cfg, StemsPrefetcher::new(&cfg)).run(&reloaded);
    assert_eq!(a, b, "simulation must be a pure function of the trace");
}

#[test]
fn filter_misses_are_a_subset_of_reads() {
    let trace = Workload::Apache.generate_scaled(0.01, 7);
    let sys = SystemConfig::small();
    let out = filter_trace(&trace, &sys);
    let reads = trace.iter().filter(|a| a.is_read()).count();
    assert!(out.misses.len() <= reads);
    assert!(!out.misses.is_empty());
    // Triggers are a subset of misses; every generation has >= 1 offset.
    let triggers = out.misses.iter().filter(|m| m.trigger).count();
    assert!(triggers > 0 && triggers <= out.misses.len());
    assert!(out.generations.iter().all(|g| !g.offsets.is_empty()));
}

#[test]
fn sequitur_grammar_reproduces_real_miss_sequences() {
    let trace = Workload::Db2.generate_scaled(0.01, 3);
    let sys = SystemConfig::small();
    let misses: Vec<u64> = filter_trace(&trace, &sys)
        .misses
        .iter()
        .map(|m| m.block.get())
        .collect();
    let grammar = Sequitur::build(misses.iter().copied());
    assert_eq!(grammar.expand_root(), misses);
    assert!(grammar.digrams_are_unique());
    let breakdown = classify(misses);
    assert_eq!(breakdown.total(), grammar.expand_root().len() as u64);
}

#[test]
fn deterministic_across_identical_runs() {
    let trace = Workload::Sparse.generate_scaled(0.01, 9);
    let sys = SystemConfig::small();
    let cfg = PrefetchConfig::small();
    let run = || {
        CoverageSim::new(&sys, &cfg, StemsPrefetcher::new(&cfg))
            .with_invalidations(1e-4, 77)
            .run(&trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn coverage_conservation_invariant() {
    // covered + uncovered in a prefetched run stays close to the
    // unprefetched miss count (cache perturbation stays small).
    let trace = Workload::Zeus.generate_scaled(0.02, 13);
    let sys = SystemConfig::small();
    let cfg = PrefetchConfig::commercial();
    let base = CoverageSim::new(&sys, &cfg, NullPrefetcher).run(&trace);
    let stems = CoverageSim::new(&sys, &cfg, StemsPrefetcher::new(&cfg)).run(&trace);
    let total = (stems.covered + stems.uncovered) as f64;
    let drift = (total - base.uncovered as f64).abs() / base.uncovered as f64;
    assert!(
        drift < 0.10,
        "off-chip miss population drifted {:.1}% under prefetching",
        drift * 100.0
    );
}
