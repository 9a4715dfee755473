//! Temporal Memory Streaming (TMS, Wenisch et al., ISCA 2005; Section 2.2).
//!
//! TMS records the sequence of off-chip read misses in a large circular
//! buffer (the CMOB, ~2MB = 384K entries per processor, held in main
//! memory) with an index from address to most recent occurrence. On an
//! unpredicted off-chip miss, TMS locates the miss in the CMOB and streams
//! the blocks whose addresses follow, throttled by the stream-queue
//! machinery: one probe block until the stream is confirmed, then a
//! constant lookahead matched to consumption.

use stems_types::BlockAddr;

use crate::engine::{AccessEvent, PrefetchSink, Prefetcher, Satisfied, StreamTag};
use crate::streams::StreamQueues;
use crate::util::OrderBuffer;
use crate::PrefetchConfig;

/// Per-stream source state: the CMOB position streaming continues from.
#[derive(Clone, Copy, Debug)]
pub struct CmobCursor {
    next: u64,
}

/// The TMS prefetcher.
///
/// # Example
///
/// ```
/// use stems_core::{PrefetchConfig, TmsPrefetcher};
/// use stems_core::engine::Prefetcher;
///
/// let p = TmsPrefetcher::new(&PrefetchConfig::commercial());
/// assert_eq!(p.name(), "TMS");
/// ```
#[derive(Clone, Debug)]
pub struct TmsPrefetcher {
    cmob: OrderBuffer<BlockAddr>,
    queues: StreamQueues<CmobCursor>,
}

impl TmsPrefetcher {
    /// Creates a TMS prefetcher sized by `cfg` (384K-entry CMOB, 8 stream
    /// queues, lookahead 8 at paper defaults).
    pub fn new(cfg: &PrefetchConfig) -> Self {
        TmsPrefetcher {
            cmob: OrderBuffer::new(cfg.cmob_entries),
            queues: StreamQueues::new(cfg),
        }
    }

    /// Entries appended to the CMOB so far.
    pub fn recorded_misses(&self) -> u64 {
        self.cmob.appended()
    }

    /// Streams allocated so far.
    pub fn streams_started(&self) -> u64 {
        self.queues.streams_started()
    }
}

impl Prefetcher for TmsPrefetcher {
    fn name(&self) -> &str {
        "TMS"
    }

    fn on_access(&mut self, ev: &AccessEvent, sink: &mut dyn PrefetchSink) {
        if ev.is_write {
            return;
        }
        let TmsPrefetcher { cmob, queues } = self;
        match ev.satisfied {
            Satisfied::Svb(tag) => {
                // Prefetch hit: the block is part of the recorded miss
                // order (it would have missed), and its consumption
                // advances the stream.
                queues.on_consumed(tag, sink, &mut |cursor: &mut CmobCursor, n, out| {
                    let read = cmob.read_from_into(cursor.next, n, out);
                    cursor.next += read as u64;
                    read
                });
                cmob.append(ev.block);
            }
            Satisfied::OffChip => {
                // If an active stream already predicted this block just
                // ahead, catch it up instead of thrashing the queues.
                let caught = queues
                    .catch_up(ev.block, sink, &mut |cursor: &mut CmobCursor, n, out| {
                        let read = cmob.read_from_into(cursor.next, n, out);
                        cursor.next += read as u64;
                        read
                    })
                    .is_some();
                // Locate the previous occurrence *before* recording this
                // one, then start streaming from the following entry.
                let found = cmob.lookup(ev.block);
                cmob.append(ev.block);
                if !caught {
                    if let Some(pos) = found {
                        // CmobCursor is Copy: nothing to recycle from the
                        // retired source.
                        let _ = queues.start(
                            CmobCursor { next: pos + 1 },
                            sink,
                            &mut |cursor, n, out| {
                                let read = cmob.read_from_into(cursor.next, n, out);
                                cursor.next += read as u64;
                                read
                            },
                        );
                    }
                }
            }
            Satisfied::L1 | Satisfied::L2 => {}
        }
    }

    fn on_svb_evict(&mut self, _block: BlockAddr, tag: StreamTag) {
        self.queues.on_svb_evicted(tag);
    }

    /// TMS records and predicts only off-chip-class misses; `on_access`
    /// is a no-op for `Satisfied::L1`, so the engine's L1-hit fast path
    /// may skip delivery entirely.
    fn observes_l1_hits(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Counters, CoverageSim};
    use stems_memsim::SystemConfig;
    use stems_trace::Trace;

    /// A pointer-chase loop: the same sequence of scattered blocks,
    /// repeated. The second iteration onward should stream.
    fn looping_trace(seq_len: u64, iters: u64) -> Trace {
        let mut t = Trace::new();
        for _ in 0..iters {
            for i in 0..seq_len {
                // Scattered, conflict-heavy addresses out of L2 reach.
                let addr = (i * 7919 + 13) % 4096 * (1 << 20);
                t.read(0x400, addr);
            }
        }
        t
    }

    fn run(t: &Trace) -> Counters {
        let cfg = PrefetchConfig::small();
        CoverageSim::new(&SystemConfig::small(), &cfg, TmsPrefetcher::new(&cfg)).run(t)
    }

    #[test]
    fn repeated_miss_sequence_is_streamed() {
        let c = run(&looping_trace(128, 6));
        let total = c.covered + c.uncovered;
        assert!(
            c.coverage_vs(total) > 0.5,
            "TMS should cover a repeating sequence: {c:?}"
        );
    }

    #[test]
    fn fresh_addresses_are_never_predicted() {
        // A pure scan: every address new (compulsory) — TMS blind.
        let mut t = Trace::new();
        for i in 0..2048u64 {
            t.read(0x400, i * (1 << 20));
        }
        let c = run(&t);
        assert_eq!(c.covered, 0);
        assert_eq!(c.uncovered, 2048);
    }

    #[test]
    fn first_iteration_trains_second_streams() {
        let cfg = PrefetchConfig::small();
        let mut sim = CoverageSim::new(&SystemConfig::small(), &cfg, TmsPrefetcher::new(&cfg));
        sim.run_chunk(looping_trace(256, 1).as_slice());
        let c1 = *sim.counters();
        assert_eq!(c1.covered, 0, "first pass has no history");
        sim.run_chunk(looping_trace(256, 1).as_slice());
        let c2 = sim.finalize();
        assert!(c2.covered > 128, "second pass should stream: {:?}", c2);
        assert!(sim.prefetcher().streams_started() >= 1);
        assert!(sim.prefetcher().recorded_misses() >= 256);
    }

    #[test]
    fn writes_are_not_recorded() {
        let cfg = PrefetchConfig::small();
        let mut sim = CoverageSim::new(&SystemConfig::small(), &cfg, TmsPrefetcher::new(&cfg));
        let mut t = Trace::new();
        for i in 0..32u64 {
            t.write(0x400, i * (1 << 20));
        }
        sim.run(&t);
        assert_eq!(sim.prefetcher().recorded_misses(), 0);
    }
}
