//! The trace-driven prefetch evaluation engine.
//!
//! [`CoverageSim`] drives a memory trace through one node's cache
//! hierarchy, a streamed value buffer (SVB), and a pluggable
//! [`Prefetcher`], producing the covered / uncovered / overpredicted
//! accounting of Figure 9:
//!
//! * **covered** — an off-chip read miss eliminated because the block was
//!   prefetched and still resides in the SVB at the time of the
//!   processor request" (Section 5.5), or was prefetched directly into the
//!   L1 (SMS-style) and used;
//! * **uncovered** — an off-chip read miss the processor suffers;
//! * **overpredictions** — "erroneously fetched blocks": prefetched blocks
//!   evicted, invalidated, or never consumed.
//!
//! Prefetch requests are filtered against the L1, L2, and SVB, so every
//! fetched block really would have come from off-chip — which makes an SVB
//! (or prefetched-L1) hit an off-chip miss avoided, and keeps the covered
//! metric well defined under cache perturbation.

mod sim;
mod svb;

pub use sim::{Counters, CoverageSim, InvalidationInjector, StepOutcome};
pub use svb::{Svb, SvbInsert};

use stems_types::{BlockAddr, Pc};

/// Identifies one of the prefetcher's stream queues; tags partition the
/// SVB so a reallocated stream can flush its stale blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamTag(pub u8);

impl std::fmt::Display for StreamTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Where a demand access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Satisfied {
    /// L1 hit.
    L1,
    /// L1 miss satisfied by the streamed value buffer (prefetch hit); the
    /// tag identifies the stream that fetched the block.
    Svb(StreamTag),
    /// L1 miss, L2 hit.
    L2,
    /// Off-chip miss (missed L1, SVB, and L2).
    OffChip,
}

impl Satisfied {
    /// Whether the access went (or would have gone) off chip: the events
    /// the paper's predictors train on and predict.
    pub fn is_off_chip_class(self) -> bool {
        matches!(self, Satisfied::OffChip | Satisfied::Svb(_))
    }
}

/// One demand access as seen by a prefetcher, after the memory system
/// resolved it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessEvent {
    /// PC of the access instruction.
    pub pc: Pc,
    /// Block accessed.
    pub block: BlockAddr,
    /// Whether the access is a store.
    pub is_write: bool,
    /// Where it was satisfied.
    pub satisfied: Satisfied,
}

/// Why a block left the L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvictKind {
    /// Capacity/conflict replacement (or inclusion back-invalidation).
    Replacement,
    /// Coherence invalidation from another node.
    Coherence,
}

/// The engine-side services a prefetcher may invoke while handling an
/// access. Fetch requests are filtered: a block already in the L1, L2, or
/// SVB is refused (returns `false`) and costs no bandwidth.
pub trait PrefetchSink {
    /// Fetches `block` into the SVB on behalf of stream `tag`.
    fn fetch_svb(&mut self, block: BlockAddr, tag: StreamTag) -> bool;

    /// Fetches `block` directly into the L1 (SMS-style spatial prefetch).
    fn fetch_l1(&mut self, block: BlockAddr) -> bool;

    /// Discards all SVB blocks belonging to `tag` (stream reallocation);
    /// they count as overpredictions.
    fn flush_stream(&mut self, tag: StreamTag);
}

/// A hardware prefetcher under evaluation.
///
/// The engine calls [`Prefetcher::on_access`] for every demand access
/// (after the caches and SVB resolved it), and the eviction hooks as blocks
/// leave the L1 or SVB. Implementations issue fetches through the sink.
pub trait Prefetcher {
    /// Short display name ("TMS", "SMS", "STeMS", ...).
    fn name(&self) -> &str;

    /// Observes a demand access; may issue prefetches.
    fn on_access(&mut self, ev: &AccessEvent, sink: &mut dyn PrefetchSink);

    /// Whether this prefetcher needs to observe accesses satisfied in the
    /// L1. When `false`, the engine's L1-hit fast path skips event
    /// construction and the [`Prefetcher::on_access`] call entirely —
    /// legal only for predictors whose `on_access` is a provable no-op
    /// for [`Satisfied::L1`] events (TMS, STeMS, and the null predictor
    /// train exclusively on L1-miss traffic). SMS-style predictors that
    /// accumulate spatial generations over *all* L1 accesses must keep
    /// the default `true`. Must be state-independent: the engine
    /// resolves it once at construction and never re-consults it.
    fn observes_l1_hits(&self) -> bool {
        true
    }

    /// A block left the L1 (ends spatial generations covering it).
    fn on_l1_evict(&mut self, _block: BlockAddr, _kind: EvictKind) {}

    /// A block belonging to stream `tag` was evicted from the SVB without
    /// being consumed (capacity pressure or invalidation).
    fn on_svb_evict(&mut self, _block: BlockAddr, _tag: StreamTag) {}
}

/// The no-op prefetcher: the un-prefetched system used to count baseline
/// off-chip read misses (the denominator of Figure 9's bars).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullPrefetcher;

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &str {
        "none"
    }

    fn on_access(&mut self, _ev: &AccessEvent, _sink: &mut dyn PrefetchSink) {}

    /// The un-prefetched baseline does nothing on any access; letting the
    /// engine skip L1 hits entirely makes this run measure the raw
    /// hierarchy cost (perfbench's `ladder.none` rung).
    fn observes_l1_hits(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfied_off_chip_class() {
        assert!(Satisfied::OffChip.is_off_chip_class());
        assert!(Satisfied::Svb(StreamTag(0)).is_off_chip_class());
        assert!(!Satisfied::L1.is_off_chip_class());
        assert!(!Satisfied::L2.is_off_chip_class());
    }

    #[test]
    fn null_prefetcher_has_a_name() {
        assert_eq!(NullPrefetcher.name(), "none");
    }
}
