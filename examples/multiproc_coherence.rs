//! The multiprocessor substrate: a lock-step 16-node run over the
//! directory protocol and 4x4 torus, sharding one workload across nodes.
//!
//! Used to validate the coherence-invalidation rates that the single-node
//! figure harnesses inject in place of the other 15 nodes of the
//! paper's Table 1.
//!
//! ```sh
//! cargo run --release --example multiproc_coherence
//! ```

use stems::core::{PrefetchConfig, Session};
use stems::memsim::SystemConfig;
use stems::timing::run_lockstep;
use stems::trace::Trace;
use stems::workloads::Workload;

fn main() {
    let mut sys = SystemConfig::small();
    sys.nodes = 4; // 2x2 torus for a fast demonstration
    let workload = Workload::Db2;
    println!("sharding {workload} across {} nodes...", sys.nodes);
    // Same workload, different seeds: nodes share the hot buffer pool
    // (the generators draw template pages from the same region space).
    let traces: Vec<Trace> = (0..sys.nodes)
        .map(|n| workload.generate_scaled(0.02, 100 + n as u64))
        .collect();

    let report = run_lockstep(&sys, &traces);
    println!(
        "{:<6} {:>10} {:>8} {:>8} {:>9} {:>10} {:>8}",
        "node", "accesses", "L1", "L2", "memory", "c2c", "invals"
    );
    for (n, s) in report.nodes.iter().enumerate() {
        println!(
            "{:<6} {:>10} {:>8} {:>8} {:>9} {:>10} {:>8}",
            n,
            s.accesses,
            s.l1_hits,
            s.l2_hits,
            s.from_memory,
            s.from_remote_cache,
            s.invalidations_received
        );
    }
    let total = report.total();
    println!(
        "\ncache-to-cache transfers: {} ({:.1}% of off-chip misses)",
        total.from_remote_cache,
        100.0 * total.from_remote_cache as f64 / total.offchip().max(1) as f64
    );
    println!(
        "observed invalidation rate: {:.2e} per access (the single-node \
         harness injects {:.2e} for OLTP)",
        total.invalidation_rate(),
        workload.invalidation_rate()
    );

    // The single-node approximation of the same pressure: a session with
    // invalidation injection enabled at the workload's rate.
    let single = Session::builder(&sys)
        .prefetch(&PrefetchConfig::commercial())
        .invalidations(workload.invalidation_rate(), 7)
        .run(&traces[0]);
    println!(
        "single-node session injects {} invalidations over {} accesses \
         ({:.2e} per access)",
        single.invalidations,
        single.accesses,
        single.invalidations as f64 / single.accesses.max(1) as f64
    );
}
