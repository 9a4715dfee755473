//! Differential oracle for the batched trace-delivery path: a
//! `run_chunk` of any chunking must be indistinguishable from scalar
//! stepping, one access per chunk — same counters, same [`StepOutcome`]
//! stream, and the same eviction-hook calls in the same order.

use proptest::prelude::*;

use stems_core::engine::{
    AccessEvent, Counters, CoverageSim, EvictKind, PrefetchSink, Prefetcher, StepOutcome, StreamTag,
};
use stems_core::session::{AnyPrefetcher, Predictor};
use stems_core::PrefetchConfig;
use stems_memsim::SystemConfig;
use stems_trace::Trace;
use stems_types::BlockAddr;

/// Every engine → prefetcher interaction the batched path must replay
/// exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Hook {
    Access(AccessEvent),
    L1Evict(BlockAddr, EvictKind),
    SvbEvict(BlockAddr, StreamTag),
}

/// Wraps a prefetcher and logs every call the engine makes into it,
/// delegating unchanged (including the `observes_l1_hits` hint, so the
/// wrapped run takes the same fast paths as an unwrapped one).
struct Recording {
    inner: AnyPrefetcher,
    log: Vec<Hook>,
}

impl Prefetcher for Recording {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_access(&mut self, ev: &AccessEvent, sink: &mut dyn PrefetchSink) {
        self.log.push(Hook::Access(*ev));
        self.inner.on_access(ev, sink);
    }

    fn observes_l1_hits(&self) -> bool {
        self.inner.observes_l1_hits()
    }

    fn on_l1_evict(&mut self, block: BlockAddr, kind: EvictKind) {
        self.log.push(Hook::L1Evict(block, kind));
        self.inner.on_l1_evict(block, kind);
    }

    fn on_svb_evict(&mut self, block: BlockAddr, tag: StreamTag) {
        self.log.push(Hook::SvbEvict(block, tag));
        self.inner.on_svb_evict(block, tag);
    }
}

/// A run's complete observable behavior.
#[derive(Clone, Debug, PartialEq)]
struct Observed {
    counters: Counters,
    outcomes: Vec<StepOutcome>,
    hooks: Vec<Hook>,
    /// Counters snapshot at each chunk boundary.
    boundaries: Vec<Counters>,
}

fn sim(p: Predictor, cfg: &PrefetchConfig, invalidations: bool) -> CoverageSim<Recording> {
    let sys = SystemConfig::small();
    let recording = Recording {
        inner: p.build(cfg),
        log: Vec::new(),
    };
    let mut sim = CoverageSim::new(&sys, cfg, recording);
    if invalidations {
        sim = sim.with_invalidations(0.03, 0xABCD);
    }
    sim
}

/// Delivers `trace` to a fresh simulator in `chunk_size`-access chunks.
fn run(
    p: Predictor,
    cfg: &PrefetchConfig,
    invalidations: bool,
    trace: &Trace,
    chunk_size: usize,
) -> Observed {
    let mut s = sim(p, cfg, invalidations);
    let mut outcomes = Vec::new();
    let mut boundaries = Vec::new();
    for chunk in trace.as_slice().chunks(chunk_size) {
        s.run_chunk_with(chunk, |_, out| outcomes.push(out.clone()));
        boundaries.push(*s.counters());
    }
    let counters = s.finalize();
    Observed {
        counters,
        outcomes,
        hooks: std::mem::take(&mut s.prefetcher_mut().log),
        boundaries,
    }
}

fn build_trace(ops: &[(u8, u8, u8, bool)]) -> Trace {
    let mut t = Trace::new();
    for &(pc, region, offset, is_write) in ops {
        // 48 regions of 2KB keep the small L1/L2 under replacement and
        // generation churn; offsets exercise spatial patterns.
        let addr = (region as u64 % 48) * 2048 + (offset as u64 % 32) * 64;
        let pc = 0x400 + (pc as u64 % 6) * 4;
        if is_write {
            t.write(pc, addr);
        } else {
            t.read(pc, addr);
        }
    }
    t
}

proptest! {
    /// Random traces through every predictor: `run_chunk` at chunk sizes
    /// 7 / 64 / whole-trace replays one-access chunks exactly — counters
    /// (final and at chunk boundaries), outcome streams, and the
    /// prefetcher hook log all byte-identical, with and without
    /// invalidation injection.
    #[test]
    fn batched_delivery_matches_scalar_stepping(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()),
            1..300,
        ),
        invalidations in any::<bool>(),
    ) {
        let trace = build_trace(&ops);
        let cfg = PrefetchConfig::small();
        for p in Predictor::all() {
            let scalar = run(p, &cfg, invalidations, &trace, 1);
            for chunk_size in [7usize, 64, trace.len()] {
                let batched = run(p, &cfg, invalidations, &trace, chunk_size);
                // The scalar run snapshots after every access; keep the
                // snapshots that fall on this chunking's boundaries.
                let expected = Observed {
                    boundaries: scalar
                        .boundaries
                        .chunks(chunk_size)
                        .map(|c| c[c.len() - 1])
                        .collect(),
                    ..scalar.clone()
                };
                prop_assert_eq!(
                    &expected, &batched,
                    "{} chunk {}: batched run diverged", p, chunk_size
                );
            }
        }
    }
}
