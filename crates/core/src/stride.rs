//! The baseline stride prefetcher (Table 1: 32-entry buffer, at most 16
//! distinct strides).
//!
//! A classic PC-indexed stride predictor: per static load, track the last
//! block accessed and the current stride; after two confirmations, run
//! `degree` blocks ahead. Effective for dense scientific code, "largely
//! ineffective for commercial workloads" (Section 1) — which the
//! evaluation reproduces.

use stems_types::{BlockAddr, Pc, SatCounter};

use crate::engine::{AccessEvent, PrefetchSink, Prefetcher, StreamTag};
use crate::util::{Entry, LruTable};
use crate::PrefetchConfig;

/// SVB tag reserved for stride prefetches (there are no stride streams to
/// flush, so one shared tag suffices).
pub const STRIDE_TAG: StreamTag = StreamTag(u8::MAX);

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    last: BlockAddr,
    stride: i64,
    confidence: SatCounter<3>,
}

/// The PC-indexed stride prefetcher.
///
/// # Example
///
/// ```
/// use stems_core::{PrefetchConfig, StridePrefetcher};
///
/// let p = StridePrefetcher::new(&PrefetchConfig::commercial());
/// assert_eq!(stems_core::engine::Prefetcher::name(&p), "stride");
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    table: LruTable<Pc, StrideEntry>,
    degree: usize,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher sized by `cfg`
    /// (`stride_entries` PCs, `stride_degree` blocks ahead).
    pub fn new(cfg: &PrefetchConfig) -> Self {
        StridePrefetcher {
            table: LruTable::new(cfg.stride_entries),
            degree: cfg.stride_degree,
        }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &str {
        "stride"
    }

    /// Strides are learned from *every* read a PC issues — consecutive
    /// elements usually hit the L1 — so the engine must deliver L1-hit
    /// events (the default; stated explicitly because returning `false`
    /// here would silently stop stride confirmation).
    fn observes_l1_hits(&self) -> bool {
        true
    }

    fn on_access(&mut self, ev: &AccessEvent, sink: &mut dyn PrefetchSink) {
        if ev.is_write {
            return;
        }
        let block = ev.block;
        // Single-hash access: one index probe covers both the learned-PC
        // update and the cold-PC insert.
        match self.table.entry(ev.pc) {
            Entry::Occupied(occupied) => {
                let entry = occupied.into_mut();
                let observed = block.get() as i64 - entry.last.get() as i64;
                if observed == 0 {
                    // Same block re-touched; no stride information.
                    return;
                }
                if observed == entry.stride {
                    entry.confidence.increment();
                } else {
                    entry.stride = observed;
                    entry.confidence = SatCounter::new(0);
                }
                entry.last = block;
                if entry.confidence.predicts(2) {
                    let stride = entry.stride;
                    for k in 1..=self.degree as i64 {
                        if let Some(target) = block.offset_by(stride * k) {
                            sink.fetch_svb(target, STRIDE_TAG);
                        }
                    }
                }
            }
            Entry::Vacant(vacant) => {
                vacant.insert(StrideEntry {
                    last: block,
                    stride: 0,
                    confidence: SatCounter::new(0),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CoverageSim, Satisfied};
    use stems_memsim::SystemConfig;
    use stems_trace::Trace;

    #[test]
    fn unit_stride_stream_is_covered_after_training() {
        // One PC walking blocks 0,1,2,...: after two confirmations the
        // prefetcher runs ahead and covers the remainder.
        let mut t = Trace::new();
        for i in 0..64u64 {
            t.read(0x400, i * 64 + 16 * 1024 * 1024);
        }
        let cfg = PrefetchConfig::small();
        let mut sim = CoverageSim::new(&SystemConfig::small(), &cfg, StridePrefetcher::new(&cfg));
        let c = sim.run(&t);
        assert!(c.covered > 40, "covered = {}", c.covered);
        assert!(c.uncovered < 16, "uncovered = {}", c.uncovered);
    }

    #[test]
    fn irregular_addresses_are_not_prefetched() {
        let mut t = Trace::new();
        let mut x: u64 = 0x9E3779B9;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.read(0x400, (x % (1 << 30)) & !63);
        }
        let cfg = PrefetchConfig::small();
        let mut sim = CoverageSim::new(&SystemConfig::small(), &cfg, StridePrefetcher::new(&cfg));
        let c = sim.run(&t);
        assert_eq!(c.covered, 0);
    }

    #[test]
    fn negative_strides_work() {
        let mut t = Trace::new();
        for i in (0..64u64).rev() {
            t.read(0x400, i * 64 + 16 * 1024 * 1024);
        }
        let cfg = PrefetchConfig::small();
        let mut sim = CoverageSim::new(&SystemConfig::small(), &cfg, StridePrefetcher::new(&cfg));
        let c = sim.run(&t);
        assert!(c.covered > 40, "covered = {}", c.covered);
    }

    #[test]
    fn writes_are_ignored() {
        let mut p = StridePrefetcher::new(&PrefetchConfig::small());
        struct NoSink;
        impl PrefetchSink for NoSink {
            fn fetch_svb(&mut self, _: BlockAddr, _: StreamTag) -> bool {
                panic!("write should not prefetch");
            }
            fn fetch_l1(&mut self, _: BlockAddr) -> bool {
                panic!("write should not prefetch");
            }
            fn flush_stream(&mut self, _: StreamTag) {}
        }
        for i in 0..16u64 {
            p.on_access(
                &AccessEvent {
                    pc: Pc::new(1),
                    block: BlockAddr::new(i),
                    is_write: true,
                    satisfied: Satisfied::OffChip,
                },
                &mut NoSink,
            );
        }
    }
}
