//! Property-based tests of the memory-system substrate: the cache is
//! checked against a naive reference model, the directory against
//! protocol invariants, and the torus against metric-space laws.

use proptest::prelude::*;

use stems_memsim::{Cache, CacheConfig, Directory, Hierarchy, NodeId, SystemConfig, Torus};
use stems_types::BlockAddr;

/// A naive, obviously-correct set-associative write-back LRU model.
struct RefCache {
    sets: Vec<Vec<(u64, bool)>>, // MRU-first (block, dirty)
    assoc: usize,
    mask: u64,
}

impl RefCache {
    fn new(sets: usize, assoc: usize) -> Self {
        RefCache {
            sets: vec![Vec::new(); sets],
            assoc,
            mask: sets as u64 - 1,
        }
    }

    /// Moves `block` to MRU, dirtying it on `write`, or inserts it at MRU
    /// with dirty bit `write`, evicting the LRU line of a full set.
    /// Returns `(hit, evicted (block, dirty))`.
    fn access(&mut self, block: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        let set = &mut self.sets[(block & self.mask) as usize];
        if let Some(pos) = set.iter().position(|&(b, _)| b == block) {
            let (b, dirty) = set.remove(pos);
            set.insert(0, (b, dirty | write));
            (true, None)
        } else {
            let evicted = if set.len() == self.assoc {
                set.pop()
            } else {
                None
            };
            set.insert(0, (block, write));
            (false, evicted)
        }
    }

    /// A prefetch fill: refreshes a resident line (keeping its dirty bit)
    /// or inserts a clean one.
    fn fill(&mut self, block: u64) -> Option<(u64, bool)> {
        self.access(block, false).1
    }

    fn invalidate(&mut self, block: u64) -> bool {
        let set = &mut self.sets[(block & self.mask) as usize];
        if let Some(pos) = set.iter().position(|&(b, _)| b == block) {
            set.remove(pos);
            true
        } else {
            false
        }
    }
}

/// Drives the production cache and the MRU-first Vec reference through an
/// identical op sequence at the given associativity, asserting identical
/// hit/miss outcomes, identical eviction order and identical dirty bits
/// on every victim. Ops: 0 = read, 1 = prefetch fill, 2 = invalidate,
/// 3 = write. Returns the compat `prop_assert*` error string so callers
/// inside `proptest!` can `?` it.
fn check_against_reference(assoc: usize, ops: &[(u64, u8)]) -> Result<(), String> {
    let sets = 4usize;
    let cfg = CacheConfig {
        size_bytes: (sets * assoc * 64) as u64,
        associativity: assoc,
    };
    let mut cache = Cache::new(&cfg);
    let mut reference = RefCache::new(sets, assoc);
    for &(b, op) in ops {
        let block = BlockAddr::new(b);
        match op {
            0 | 3 => {
                let write = op == 3;
                let got = cache.access(block, write);
                let (want_hit, want_evicted) = reference.access(b, write);
                prop_assert_eq!(got.hit, want_hit, "hit/miss diverged at block {}", b);
                prop_assert_eq!(
                    got.evicted.map(|e| (e.block.get(), e.dirty)),
                    want_evicted,
                    "eviction diverged at block {} (assoc {}, write {})",
                    b,
                    assoc,
                    write
                );
            }
            1 => {
                let got = cache.fill(block);
                let want = reference.fill(b);
                prop_assert_eq!(
                    got.map(|e| (e.block.get(), e.dirty)),
                    want,
                    "fill eviction diverged at block {} (assoc {})",
                    b,
                    assoc
                );
            }
            _ => {
                prop_assert_eq!(
                    cache.invalidate(block),
                    reference.invalidate(b),
                    "invalidate diverged at block {} (assoc {})",
                    b,
                    assoc
                );
            }
        }
        prop_assert_eq!(cache.occupancy(), reference.sets.iter().map(Vec::len).sum());
    }
    Ok(())
}

proptest! {
    /// The production cache agrees with the reference model on every
    /// hit/miss outcome under arbitrary access interleavings.
    #[test]
    fn cache_matches_reference_model(
        blocks in proptest::collection::vec(0u64..128, 1..500),
    ) {
        let cfg = CacheConfig { size_bytes: 16 * 64, associativity: 4 }; // 4 sets x 4 ways
        let mut cache = Cache::new(&cfg);
        let mut reference = RefCache::new(4, 4);
        for &b in &blocks {
            let got = cache.access(BlockAddr::new(b), false).hit;
            let (want, _) = reference.access(b, false);
            prop_assert_eq!(got, want, "divergence at block {}", b);
        }
    }

    /// The array-backed set storage matches the MRU-first Vec oracle —
    /// hit/miss, eviction order and victim dirtiness, fill refresh, and
    /// invalidation — at every associativity with its own rank kernel
    /// (the fixed-width 2/4/8/16 windows), plus the generic loop at the
    /// direct-mapped 1 and the non-power-of-two 3.
    #[test]
    fn cache_matches_reference_model_at_assoc_1(
        ops in proptest::collection::vec((0u64..256, 0u8..4), 1..400),
    ) {
        check_against_reference(1, &ops)?;
    }

    #[test]
    fn cache_matches_reference_model_at_assoc_2(
        ops in proptest::collection::vec((0u64..256, 0u8..4), 1..400),
    ) {
        check_against_reference(2, &ops)?;
    }

    #[test]
    fn cache_matches_reference_model_at_assoc_3(
        ops in proptest::collection::vec((0u64..256, 0u8..4), 1..400),
    ) {
        check_against_reference(3, &ops)?;
    }

    #[test]
    fn cache_matches_reference_model_at_assoc_4(
        ops in proptest::collection::vec((0u64..256, 0u8..4), 1..400),
    ) {
        check_against_reference(4, &ops)?;
    }

    #[test]
    fn cache_matches_reference_model_at_assoc_8(
        ops in proptest::collection::vec((0u64..256, 0u8..4), 1..400),
    ) {
        check_against_reference(8, &ops)?;
    }

    #[test]
    fn cache_matches_reference_model_at_assoc_16(
        ops in proptest::collection::vec((0u64..256, 0u8..4), 1..400),
    ) {
        check_against_reference(16, &ops)?;
    }

    /// Directory invariant: after any operation sequence, a modified
    /// owner is the sole sharer, and sharers never exceed the node count.
    #[test]
    fn directory_protocol_invariants(
        ops in proptest::collection::vec((0usize..4, 0u64..8, any::<bool>()), 1..300),
    ) {
        let mut dir = Directory::new(4);
        for &(node, block, write) in &ops {
            let block = BlockAddr::new(block);
            if write {
                let out = dir.write(NodeId(node), block);
                prop_assert!(!out.invalidated.contains(&NodeId(node)));
                prop_assert_eq!(dir.owner(block), Some(NodeId(node)));
                prop_assert_eq!(dir.sharers(block), vec![NodeId(node)]);
            } else {
                dir.read(NodeId(node), block);
                prop_assert!(dir.sharers(block).contains(&NodeId(node)));
            }
            prop_assert!(dir.sharers(block).len() <= 4);
            if let Some(owner) = dir.owner(block) {
                prop_assert_eq!(dir.sharers(block), vec![owner]);
            }
        }
    }

    /// The torus hop count is a metric: symmetric, zero iff equal, and
    /// satisfies the triangle inequality.
    #[test]
    fn torus_is_a_metric(a in 0usize..16, b in 0usize..16, c in 0usize..16) {
        let t = Torus::paper();
        let (a, b, c) = (NodeId(a), NodeId(b), NodeId(c));
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
        prop_assert_eq!(t.hops(a, a), 0);
        if a != b {
            prop_assert!(t.hops(a, b) > 0);
        }
        prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        prop_assert!(t.hops(a, b) <= 4, "4x4 torus diameter is 4");
    }

    /// Inclusive hierarchy invariant: every L1-resident block is also
    /// L2-resident, under arbitrary demand/fill/invalidate mixes.
    #[test]
    fn hierarchy_is_inclusive(
        ops in proptest::collection::vec((0u64..512, 0u8..3), 1..400),
    ) {
        let mut h = Hierarchy::new(&SystemConfig::small());
        let mut touched = Vec::new();
        for &(block, op) in &ops {
            let block = BlockAddr::new(block);
            match op {
                0 => {
                    h.access(block, false);
                }
                1 => {
                    h.fill_into(block, &mut Vec::new());
                }
                _ => {
                    h.invalidate(block);
                }
            }
            touched.push(block);
            if touched.len() % 16 == 0 {
                for &b in touched.iter().rev().take(16) {
                    if h.in_l1(b) {
                        prop_assert!(h.in_l2(b), "L1 block {b:?} missing from L2");
                    }
                }
            }
        }
    }
}
