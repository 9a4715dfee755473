//! Differential oracle for the single-pass probe pipeline.
//!
//! `Hierarchy::probe` collapses the per-access SVB/L1/L2 resolution into
//! one call. The reference path is the scalar call sequence it replaced,
//! rebuilt here from two plain `Cache`s (`ScalarHierarchy`). These
//! properties drive both through identical random
//! access/invalidation/fill sequences — including interposed (SVB-hit)
//! accesses — and require the satisfying level, the eviction lists,
//! every demand counter, and the final residency to match exactly at L1
//! associativities 1, 2, 4, 8, and 16 (the fixed-width specialized set
//! scans) plus 3 (the generic fallback scan).

use proptest::prelude::*;

use stems_memsim::{Cache, CacheConfig, Hierarchy, ProbeLevel, SystemConfig};
use stems_types::BlockAddr;

/// A small, conflict-prone geometry: 8 L1 sets, 32 L2 sets at the given
/// associativities, so short random sequences exercise every path
/// (free-way fill, LRU eviction, inclusion back-invalidation).
fn config(l1_assoc: usize, l2_assoc: usize) -> SystemConfig {
    SystemConfig {
        l1: CacheConfig {
            size_bytes: (8 * l1_assoc * 64) as u64,
            associativity: l1_assoc,
        },
        l2: CacheConfig {
            size_bytes: (32 * l2_assoc * 64) as u64,
            associativity: l2_assoc,
        },
        ..SystemConfig::default()
    }
}

/// The scalar reference: the same inclusive L1 + L2 pair as two plain
/// `Cache`s, resolved call by call the way the engine's pre-pipeline hot
/// loop did.
struct ScalarHierarchy {
    l1: Cache,
    l2: Cache,
}

impl ScalarHierarchy {
    fn new(config: &SystemConfig) -> Self {
        ScalarHierarchy {
            l1: Cache::new(&config.l1),
            l2: Cache::new(&config.l2),
        }
    }

    /// One demand access: an L1 hit check, then either a prefetch fill
    /// (the interposed buffer held the block) or an L1 miss fill plus
    /// an L2 demand access whose victim is back-invalidated from the L1.
    fn step(
        &mut self,
        block: BlockAddr,
        is_write: bool,
        svb_has_block: bool,
        l1_evicted: &mut Vec<BlockAddr>,
    ) -> ProbeLevel {
        if self.l1.access_hit(block, is_write) {
            return ProbeLevel::L1;
        }
        if svb_has_block {
            self.fill(block, l1_evicted);
            return ProbeLevel::Svb;
        }
        if let Some(e) = self.l1.miss_fill(block, is_write) {
            l1_evicted.push(e.block);
        }
        let l2 = self.l2.access(block, is_write);
        if let Some(e) = l2.evicted {
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

    /// A prefetch fill into both levels, with inclusion.
    fn fill(&mut self, block: BlockAddr, l1_evicted: &mut Vec<BlockAddr>) {
        if let Some(e) = self.l1.fill(block) {
            l1_evicted.push(e.block);
        }
        if let Some(e) = self.l2.fill(block) {
            if self.l1.invalidate(e.block) {
                l1_evicted.push(e.block);
            }
        }
    }

    /// A coherence invalidation; whether the block was in the L1.
    fn invalidate(&mut self, block: BlockAddr) -> bool {
        let was_in_l1 = self.l1.invalidate(block);
        self.l2.invalidate(block);
        was_in_l1
    }
}

/// Drives the probe pipeline and the scalar oracle through an identical
/// op sequence, asserting equality after every operation. Ops: 0 = read,
/// 1 = write, 2 = read with the interposed buffer holding the block
/// (SVB hit on L1 miss), 3 = coherence invalidation, 4 = prefetch fill.
fn check_differential(l1_assoc: usize, l2_assoc: usize, ops: &[(u64, u8)]) -> Result<(), String> {
    let cfg = config(l1_assoc, l2_assoc);
    let mut pipeline = Hierarchy::new(&cfg);
    let mut scalar = ScalarHierarchy::new(&cfg);
    let mut pipe_evicted = Vec::new();
    let mut ref_evicted = Vec::new();
    for (i, &(raw, op)) in ops.iter().enumerate() {
        let block = BlockAddr::new(raw);
        match op {
            0..=2 => {
                let is_write = op == 1;
                let svb_has_block = op == 2;
                pipe_evicted.clear();
                ref_evicted.clear();
                let got = pipeline.probe(block, is_write, || svb_has_block, &mut pipe_evicted);
                let want = scalar.step(block, is_write, svb_has_block, &mut ref_evicted);
                prop_assert_eq!(
                    got,
                    want,
                    "level diverged at op {} (block {}, assoc {}/{})",
                    i,
                    raw,
                    l1_assoc,
                    l2_assoc
                );
                prop_assert_eq!(
                    &pipe_evicted,
                    &ref_evicted,
                    "eviction list diverged at op {} (block {})",
                    i,
                    raw
                );
            }
            3 => {
                prop_assert_eq!(
                    pipeline.invalidate(block),
                    scalar.invalidate(block),
                    "invalidate diverged at op {} (block {})",
                    i,
                    raw
                );
            }
            _ => {
                pipe_evicted.clear();
                ref_evicted.clear();
                pipeline.fill_into(block, &mut pipe_evicted);
                scalar.fill(block, &mut ref_evicted);
                prop_assert_eq!(
                    &pipe_evicted,
                    &ref_evicted,
                    "fill eviction diverged at op {} (block {})",
                    i,
                    raw
                );
            }
        }
        // All demand counters must track exactly, every step.
        prop_assert_eq!(pipeline.l1().hits(), scalar.l1.hits(), "L1 hits, op {}", i);
        prop_assert_eq!(
            pipeline.l1_misses(),
            scalar.l1.misses(),
            "L1 misses, op {}",
            i
        );
        prop_assert_eq!(pipeline.l2().hits(), scalar.l2.hits(), "L2 hits, op {}", i);
        prop_assert_eq!(
            pipeline.l2_misses(),
            scalar.l2.misses(),
            "L2 misses, op {}",
            i
        );
        prop_assert_eq!(
            pipeline.l1().occupancy(),
            scalar.l1.occupancy(),
            "L1 occupancy, op {}",
            i
        );
        prop_assert_eq!(
            pipeline.l2().occupancy(),
            scalar.l2.occupancy(),
            "L2 occupancy, op {}",
            i
        );
        prop_assert_eq!(
            pipeline.in_l1(block),
            scalar.l1.contains(block),
            "L1 residency, op {}",
            i
        );
        prop_assert_eq!(
            pipeline.in_l2(block),
            scalar.l2.contains(block),
            "L2 residency, op {}",
            i
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn probe_matches_scalar_path_at_assoc_1(
        l2_assoc in 1usize..=4,
        ops in proptest::collection::vec((0u64..192, 0u8..5), 1..400),
    ) {
        check_differential(1, l2_assoc, &ops)?;
    }

    #[test]
    fn probe_matches_scalar_path_at_assoc_2(
        l2_assoc in 1usize..=8,
        ops in proptest::collection::vec((0u64..192, 0u8..5), 1..400),
    ) {
        check_differential(2, l2_assoc, &ops)?;
    }

    #[test]
    fn probe_matches_scalar_path_at_assoc_4(
        l2_assoc in 1usize..=8,
        ops in proptest::collection::vec((0u64..192, 0u8..5), 1..400),
    ) {
        check_differential(4, l2_assoc, &ops)?;
    }

    /// Associativity 3 is not one of the fixed-width specializations, so
    /// this pins the generic fallback scan against the scalar oracle too.
    #[test]
    fn probe_matches_scalar_path_at_assoc_3_generic_fallback(
        l2_assoc in 1usize..=8,
        ops in proptest::collection::vec((0u64..192, 0u8..5), 1..400),
    ) {
        check_differential(3, l2_assoc, &ops)?;
    }

    #[test]
    fn probe_matches_scalar_path_at_assoc_8(
        l2_assoc in 1usize..=8,
        ops in proptest::collection::vec((0u64..192, 0u8..5), 1..400),
    ) {
        check_differential(8, l2_assoc, &ops)?;
    }

    #[test]
    fn probe_matches_scalar_path_at_assoc_16(
        l2_assoc in 1usize..=16,
        ops in proptest::collection::vec((0u64..384, 0u8..5), 1..400),
    ) {
        check_differential(16, l2_assoc, &ops)?;
    }
}

/// A short conflict-heavy mix on the small system configuration, where
/// every level outcome occurs.
#[test]
fn probe_matches_scalar_access_on_levels() {
    let cfg = SystemConfig::small();
    let mut probe_h = Hierarchy::new(&cfg);
    let mut scalar_h = ScalarHierarchy::new(&cfg);
    let blocks = [77u64, 77, 109, 141, 77, 9, 77, 141];
    for (i, &raw) in blocks.iter().enumerate() {
        let b = BlockAddr::new(raw);
        let is_write = i % 3 == 2;
        let mut evicted = Vec::new();
        let level = probe_h.probe(b, is_write, || false, &mut evicted);
        let mut scalar_evicted = Vec::new();
        let want = scalar_h.step(b, is_write, false, &mut scalar_evicted);
        assert_eq!(level, want, "step {i}");
        assert_eq!(evicted, scalar_evicted, "step {i}");
    }
    assert_eq!(probe_h.l1_misses(), scalar_h.l1.misses());
    assert_eq!(probe_h.l2_misses(), scalar_h.l2.misses());
}
