//! The two-level private cache hierarchy of one node.
//!
//! Models an inclusive L1d + unified L2 pair: fills populate both levels,
//! and an L2 eviction back-invalidates the L1 copy. L1 evictions (demand,
//! inclusion, or coherence) are reported because they terminate spatial
//! generations (Section 2.4).
//!
//! Every demand access resolves through one single-pass
//! [`Hierarchy::probe`]. The scalar two-call path it replaced lives on
//! only as the two-[`Cache`] reference in `tests/probe_differential.rs`.

use stems_types::BlockAddr;

use crate::cache::Cache;
use crate::config::SystemConfig;

/// The level of the hierarchy that satisfied an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Level {
    /// L1 data cache hit.
    #[default]
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Off-chip: missed both levels. These are the misses every prefetcher
    /// in the paper targets.
    Memory,
}

/// Result of a demand access through the hierarchy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Where the access was satisfied.
    pub level: Level,
    /// Blocks removed from the L1 by this access (demand eviction plus any
    /// inclusion-driven back-invalidations). Ends spatial generations.
    pub l1_evicted: Vec<BlockAddr>,
}

/// Where a single-pass [`Hierarchy::probe`] resolved the access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbeLevel {
    /// L1 data cache hit.
    L1,
    /// L1 miss satisfied by the caller's interposed buffer (the streamed
    /// value buffer in the engine): the block was filled into both levels
    /// without counting demand traffic.
    Svb,
    /// L1 miss, L2 hit.
    L2,
    /// Off-chip: missed the L1, the interposed buffer, and the L2.
    Memory,
}

/// One node's L1d + L2.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
}

impl Hierarchy {
    /// Creates an empty hierarchy from a system configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Hierarchy {
            l1: Cache::new(&config.l1),
            l2: Cache::new(&config.l2),
        }
    }

    /// Performs a demand access; allocates into both levels on miss.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> HierarchyOutcome {
        let mut l1_evicted = Vec::new();
        let level = match self.probe(block, is_write, || false, &mut l1_evicted) {
            ProbeLevel::L1 => Level::L1,
            ProbeLevel::L2 => Level::L2,
            ProbeLevel::Memory => Level::Memory,
            ProbeLevel::Svb => unreachable!("no interposed buffer was offered"),
        };
        HierarchyOutcome { level, l1_evicted }
    }

    /// Single-pass demand probe: resolves L1-hit / interposed-buffer hit /
    /// L1-miss+L2-hit / full-miss in one call, with **one** L1 tag/set
    /// computation and caller-owned eviction scratch.
    ///
    /// `svb_take` is invoked exactly once, only after the L1 probe
    /// missed; returning `true` means the caller's interposed buffer (the
    /// streamed value buffer in the engine) held the block and consumed
    /// it, so the hierarchy installs it into both levels as a prefetch
    /// fill (no demand counters) instead of performing the L2 demand
    /// access. Evicted L1 blocks (demand or inclusion victims) are
    /// appended to `l1_evicted`.
    ///
    /// Behavior is pinned byte-identical to a scalar reference built
    /// from two plain [`Cache`]s (an L1 hit check, then a miss fill or a
    /// prefetch fill) by the differential property tests in
    /// `tests/probe_differential.rs`.
    #[inline]
    pub fn probe(
        &mut self,
        block: BlockAddr,
        is_write: bool,
        svb_take: impl FnOnce() -> bool,
        l1_evicted: &mut Vec<BlockAddr>,
    ) -> ProbeLevel {
        self.probe_at(
            self.l1.set_base(block),
            block,
            is_write,
            svb_take,
            l1_evicted,
        )
    }

    /// The L1 way-array base for `block`, for a per-access pre-decode:
    /// compute up front, redeem with [`Hierarchy::probe_at`].
    #[inline]
    pub fn l1_set_base(&self, block: BlockAddr) -> usize {
        self.l1.set_base(block)
    }

    /// [`Hierarchy::probe`] with the L1 set base already computed (by
    /// [`Hierarchy::l1_set_base`]); behavior is otherwise identical.
    #[inline]
    pub fn probe_at(
        &mut self,
        l1_base: usize,
        block: BlockAddr,
        is_write: bool,
        svb_take: impl FnOnce() -> bool,
        l1_evicted: &mut Vec<BlockAddr>,
    ) -> ProbeLevel {
        let Some(missed) = self.l1.probe_at(l1_base, block, is_write) else {
            return ProbeLevel::L1;
        };
        if svb_take() {
            // Prefetch consumption: the block moves from the caller's
            // buffer into both levels without counting demand traffic.
            if let Some(e) = self.l1.fill_at(missed, block) {
                l1_evicted.push(e.block);
            }
            if let Some(e) = self.l2.fill(block) {
                if self.l1.invalidate(e.block) {
                    l1_evicted.push(e.block);
                }
            }
            return ProbeLevel::Svb;
        }
        if let Some(e) = self.l1.miss_fill_at(missed, block, is_write) {
            l1_evicted.push(e.block);
        }
        let l2 = self.l2.access(block, is_write);
        if let Some(e) = l2.evicted {
            // Inclusive hierarchy: an L2 victim may not stay in L1.
            if self.l1.invalidate(e.block) {
                l1_evicted.push(e.block);
            }
        }
        if l2.hit {
            ProbeLevel::L2
        } else {
            ProbeLevel::Memory
        }
    }

    /// Installs `block` into both levels without counting demand traffic
    /// (prefetch fill or streamed-value-buffer consumption), appending
    /// the blocks removed from the L1 (demand eviction plus any
    /// inclusion-driven back-invalidation) to `l1_evicted`.
    pub fn fill_into(&mut self, block: BlockAddr, l1_evicted: &mut Vec<BlockAddr>) {
        if let Some(e) = self.l1.fill(block) {
            l1_evicted.push(e.block);
        }
        if let Some(e) = self.l2.fill(block) {
            if self.l1.invalidate(e.block) {
                l1_evicted.push(e.block);
            }
        }
    }

    /// Whether `block` is in the L1 (no recency update).
    pub fn in_l1(&self, block: BlockAddr) -> bool {
        self.l1.contains(block)
    }

    /// Whether `block` is in the L2 (no recency update).
    pub fn in_l2(&self, block: BlockAddr) -> bool {
        self.l2.contains(block)
    }

    /// Coherence invalidation of `block` from both levels.
    ///
    /// Returns whether the block was present in the L1 (which would end a
    /// spatial generation covering it).
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let was_in_l1 = self.l1.invalidate(block);
        self.l2.invalidate(block);
        was_in_l1
    }

    /// Demand L1 misses so far.
    pub fn l1_misses(&self) -> u64 {
        self.l1.misses()
    }

    /// Demand off-chip misses so far (L2 misses).
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses()
    }

    /// Access to the raw L1 (for structural tests).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Access to the raw L2 (for structural tests).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(&SystemConfig::small())
    }

    #[test]
    fn miss_levels_in_order() {
        let mut h = small();
        let b = BlockAddr::new(77);
        assert_eq!(h.access(b, false).level, Level::Memory);
        assert_eq!(h.access(b, false).level, Level::L1);
        // Evict from L1 only (L1 is 4KB 2-way = 32 sets; same set = +32*k).
        let conflict1 = BlockAddr::new(77 + 32);
        let conflict2 = BlockAddr::new(77 + 64);
        h.access(conflict1, false);
        h.access(conflict2, false);
        assert!(!h.in_l1(b));
        assert!(h.in_l2(b));
        assert_eq!(h.access(b, false).level, Level::L2);
    }

    #[test]
    fn l1_eviction_is_reported() {
        let mut h = small();
        let b0 = BlockAddr::new(0);
        h.access(b0, false);
        h.access(BlockAddr::new(32), false);
        let out = h.access(BlockAddr::new(64), false);
        assert!(out.l1_evicted.contains(&b0));
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        let cfg = SystemConfig {
            l1: crate::CacheConfig {
                size_bytes: 4 * 1024,
                associativity: 2,
            },
            // Tiny L2: 2 sets x 1 way so conflicts are easy to force.
            l2: crate::CacheConfig {
                size_bytes: 2 * 64,
                associativity: 1,
            },
            ..SystemConfig::default()
        };
        let mut h = Hierarchy::new(&cfg);
        let b = BlockAddr::new(0);
        h.access(b, false);
        assert!(h.in_l1(b));
        // Block 2 maps to the same L2 set (even), evicting b from L2 and,
        // by inclusion, from L1.
        let out = h.access(BlockAddr::new(2), false);
        assert!(out.l1_evicted.contains(&b));
        assert!(!h.in_l1(b));
        assert!(!h.in_l2(b));
    }

    #[test]
    fn invalidate_clears_both_levels() {
        let mut h = small();
        let b = BlockAddr::new(9);
        h.access(b, false);
        assert!(h.invalidate(b));
        assert!(!h.in_l1(b));
        assert!(!h.in_l2(b));
        assert!(!h.invalidate(b));
    }

    #[test]
    fn fill_installs_without_demand_counters() {
        let mut h = small();
        let b = BlockAddr::new(123);
        let mut evicted = Vec::new();
        h.fill_into(b, &mut evicted);
        assert!(evicted.is_empty());
        assert!(h.in_l1(b));
        assert!(h.in_l2(b));
        assert_eq!(h.l1_misses(), 0);
        assert_eq!(h.l2_misses(), 0);
        assert_eq!(h.access(b, false).level, Level::L1);
    }

    #[test]
    fn probe_interposes_between_l1_and_l2() {
        let mut h = small();
        let b = BlockAddr::new(321);
        let mut evicted = Vec::new();
        // Cold probe with an SVB hit: installed as a fill — no demand
        // counters — and resident in both levels afterwards.
        let level = h.probe(b, false, || true, &mut evicted);
        assert_eq!(level, ProbeLevel::Svb);
        assert!(evicted.is_empty());
        assert!(h.in_l1(b) && h.in_l2(b));
        assert_eq!(h.l1_misses(), 0);
        assert_eq!(h.l2_misses(), 0);
        // Resident now: the interposer must not even be consulted.
        let level = h.probe(b, false, || panic!("L1 hit asks no one"), &mut evicted);
        assert_eq!(level, ProbeLevel::L1);
    }

    #[test]
    fn probe_consults_interposer_exactly_once_on_miss() {
        let mut h = small();
        let mut evicted = Vec::new();
        let mut asked = 0u32;
        let level = h.probe(
            BlockAddr::new(7),
            false,
            || {
                asked += 1;
                false
            },
            &mut evicted,
        );
        assert_eq!(level, ProbeLevel::Memory);
        assert_eq!(asked, 1);
        assert_eq!(h.l1_misses(), 1);
        assert_eq!(h.l2_misses(), 1);
    }

    #[test]
    fn miss_counters_accumulate() {
        let mut h = small();
        for i in 0..10 {
            h.access(BlockAddr::new(i * 1000), false);
        }
        assert_eq!(h.l1_misses(), 10);
        assert_eq!(h.l2_misses(), 10);
    }
}
