//! A set-associative, write-back, LRU cache model.
//!
//! Evictions are reported to the caller because they drive predictor
//! behaviour: a spatial generation ends when one of its accessed blocks is
//! evicted or invalidated from the L1 (Section 2.4).

use stems_types::BlockAddr;

use crate::config::CacheConfig;

/// A block evicted by an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted block.
    pub block: BlockAddr,
    /// Whether it was dirty (would be written back).
    pub dirty: bool,
}

/// Result of a demand access or fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the block was already present.
    pub hit: bool,
    /// Block evicted to make room (misses only; `None` if a free way).
    pub evicted: Option<Evicted>,
}

/// Proof that a [`Cache::probe`] missed, carrying the probed set's way
/// base so the follow-up install reuses the probe's tag/set computation
/// instead of re-deriving it. Redeem with [`Cache::miss_fill_at`] or
/// [`Cache::fill_at`], against the same cache and block that produced it
/// (the token is deliberately not `Copy`/`Clone`: one probe, one install).
#[derive(Debug)]
pub struct MissedSet {
    base: usize,
}

/// Recency rank marking an unoccupied way. Real ranks are `0..assoc`,
/// and [`CacheConfig::try_num_sets`] bounds `assoc` below `u16::MAX`.
const FREE_WAY: u16 = u16::MAX;

/// Block value stored in unoccupied ways. No demand access can name it:
/// it would require a byte address of at least 2^70.
const SENTINEL_BLOCK: BlockAddr = BlockAddr::new(u64::MAX);

/// A set-associative cache with true-LRU replacement.
///
/// Stores block presence and dirtiness only — a trace-driven simulator has
/// no data values. All operations are O(associativity).
///
/// Sets are fixed-capacity windows of flat per-field arrays (blocks,
/// recency ranks, dirty bits), with recency an intrusive per-way age
/// rank — 0 = MRU, `occupancy - 1` = LRU. Touching a way adjusts ranks
/// in place instead of memmoving an MRU-first Vec, so a 16-way touch
/// never shifts 15 lines. Unoccupied ways hold a sentinel block that no
/// demand access can name, so the hot residency scan is an unconditional
/// pass over one contiguous fixed-width `u64` window — no occupancy
/// load, no validity branches.
///
/// # Example
///
/// ```
/// use stems_memsim::{Cache, CacheConfig};
/// use stems_types::BlockAddr;
///
/// let mut c = Cache::new(&CacheConfig { size_bytes: 128, associativity: 2 });
/// assert!(!c.access(BlockAddr::new(1), false).hit);
/// assert!(c.access(BlockAddr::new(1), false).hit);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// Resident blocks, `associativity` consecutive ways per set;
    /// unoccupied ways hold [`SENTINEL_BLOCK`].
    blocks: Box<[BlockAddr]>,
    /// Recency rank per way: 0 = MRU; [`FREE_WAY`] marks an empty way.
    ages: Box<[u16]>,
    /// Dirty bit per way.
    dirty: Box<[bool]>,
    set_mask: u64,
    associativity: usize,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see
    /// [`CacheConfig::try_num_sets`]).
    pub fn new(config: &CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let ways = num_sets * config.associativity;
        Cache {
            blocks: vec![SENTINEL_BLOCK; ways].into_boxed_slice(),
            ages: vec![FREE_WAY; ways].into_boxed_slice(),
            dirty: vec![false; ways].into_boxed_slice(),
            set_mask: num_sets as u64 - 1,
            associativity: config.associativity,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, block: BlockAddr) -> usize {
        (block.get() & self.set_mask) as usize
    }

    /// Way-array base of the set holding `block`. Public so a batched
    /// caller can pre-decode set bases for a whole chunk of accesses and
    /// redeem them through [`Cache::probe_at`]; the value is only
    /// meaningful for this cache instance.
    #[inline]
    pub fn set_base(&self, block: BlockAddr) -> usize {
        self.set_index(block) * self.associativity
    }

    /// Branch-free scan of a compile-time-width window of ways,
    /// accumulating the compare results into one bit mask. With `N` known
    /// the loop fully unrolls into chunked `u64` compares the
    /// autovectorizer turns into SIMD-width packed compares plus a
    /// movemask — no per-way branches, no early exit (resident blocks are
    /// unique in a set, so at most one bit is ever set).
    #[inline]
    fn find_fixed<const N: usize>(ways: &[BlockAddr], block: BlockAddr) -> Option<usize> {
        let ways: &[BlockAddr; N] = ways.try_into().expect("window narrower than declared");
        let mut mask = 0u32;
        for (w, &b) in ways.iter().enumerate() {
            mask |= ((b == block) as u32) << w;
        }
        (mask != 0).then(|| mask.trailing_zeros() as usize)
    }

    /// Position of `block` among the set's ways: one scan of a
    /// contiguous sentinel-padded window (free ways hold the unmatchable
    /// sentinel, so there is no occupancy branch). The scan is
    /// specialized by associativity: at width 1/2 two direct compares
    /// beat any reduction (measured — the mask-and-movemask form was a
    /// ~7% regression on the 2-way L1 microbench), while 4/8/16 dispatch
    /// to fixed-width windows ([`Cache::find_fixed`]) whose unrolled
    /// chunked `u64` compares the autovectorizer packs into SIMD lanes;
    /// other geometries fall back to a generic reduction.
    #[inline]
    fn find(&self, base: usize, block: BlockAddr) -> Option<usize> {
        let ways = &self.blocks[base..base + self.associativity];
        match self.associativity {
            1 => (ways[0] == block).then_some(0),
            2 => {
                if ways[0] == block {
                    Some(0)
                } else if ways[1] == block {
                    Some(1)
                } else {
                    None
                }
            }
            4 => Self::find_fixed::<4>(ways, block),
            8 => Self::find_fixed::<8>(ways, block),
            16 => Self::find_fixed::<16>(ways, block),
            _ => {
                let mut found = usize::MAX;
                for (w, &b) in ways.iter().enumerate() {
                    if b == block {
                        found = w;
                    }
                }
                (found != usize::MAX).then_some(found)
            }
        }
    }

    /// Promotes way `base + w` to MRU by bumping every younger way's
    /// rank. Free ways (rank [`FREE_WAY`]) are never younger. Dispatched
    /// by associativity like [`Cache::find`]: 2/4/8/16 take the
    /// fixed-width [`Cache::touch_fixed`], other widths the generic loop.
    #[inline]
    fn touch(&mut self, base: usize, w: usize) {
        match self.associativity {
            2 => Self::touch_fixed::<2>(&mut self.ages[base..base + 2], w),
            4 => Self::touch_fixed::<4>(&mut self.ages[base..base + 4], w),
            8 => Self::touch_fixed::<8>(&mut self.ages[base..base + 8], w),
            16 => Self::touch_fixed::<16>(&mut self.ages[base..base + 16], w),
            assoc => {
                let age = self.ages[base + w];
                if age == 0 {
                    return;
                }
                for a in &mut self.ages[base..base + assoc] {
                    if *a < age {
                        *a += 1;
                    }
                }
                self.ages[base + w] = 0;
            }
        }
    }

    /// Branch-free MRU promotion over a compile-time-width rank window:
    /// every rank younger than way `w`'s gains one, then `w` becomes 0.
    /// No early exit for an MRU hit: the bump is then a no-op, so the
    /// window stays one straight-line pass with no data-dependent branch.
    #[inline]
    fn touch_fixed<const N: usize>(ages: &mut [u16], w: usize) {
        let ages: &mut [u16; N] = ages.try_into().expect("window narrower than declared");
        let age = ages[w];
        for a in ages.iter_mut() {
            *a += (*a < age) as u16;
        }
        ages[w] = 0;
    }

    /// Installs `block` in the first free way of the set at `base`, or in
    /// the LRU way when the set is full (reporting the victim). New lines
    /// enter at MRU.
    #[inline]
    fn install_at(&mut self, base: usize, block: BlockAddr, is_dirty: bool) -> Option<Evicted> {
        let (w, full) = match self.associativity {
            2 => Self::rank_install_fixed::<2>(&mut self.ages[base..base + 2]),
            4 => Self::rank_install_fixed::<4>(&mut self.ages[base..base + 4]),
            8 => Self::rank_install_fixed::<8>(&mut self.ages[base..base + 8]),
            16 => Self::rank_install_fixed::<16>(&mut self.ages[base..base + 16]),
            assoc => Self::rank_install(&mut self.ages[base..base + assoc]),
        };
        let evicted = full.then(|| Evicted {
            block: self.blocks[base + w],
            dirty: self.dirty[base + w],
        });
        self.blocks[base + w] = block;
        self.dirty[base + w] = is_dirty;
        evicted
    }

    /// The rank half of [`Cache::install_at`] for any width: picks the
    /// first free way, else the LRU way, bumps every resident rank and
    /// writes the chosen way at rank 0, keeping ranks a permutation of
    /// `0..occupancy`. Returns the way and whether it held a victim.
    fn rank_install(ages: &mut [u16]) -> (usize, bool) {
        let lru_rank = (ages.len() - 1) as u16;
        let mut way = None; // first free way, else the LRU way
        for (w, &a) in ages.iter().enumerate() {
            if a == FREE_WAY {
                way = Some((w, false));
                break;
            }
            if a == lru_rank {
                way = Some((w, true));
                // A free way further right may still exist; keep looking.
            }
        }
        let (w, full) = way.expect("a set always has a free or an LRU way");
        for a in ages.iter_mut() {
            if *a != FREE_WAY {
                *a += 1;
            }
        }
        ages[w] = 0;
        (w, full)
    }

    /// [`Cache::rank_install`] over a compile-time-width window: the
    /// free ways and the rank-`N−1` way are found as two bit masks in one
    /// unrolled pass (the lowest free bit wins, matching the generic
    /// first-free scan; a full set has exactly one LRU bit), and the
    /// resident ranks are bumped branch-free.
    #[inline]
    fn rank_install_fixed<const N: usize>(ages: &mut [u16]) -> (usize, bool) {
        let ages: &mut [u16; N] = ages.try_into().expect("window narrower than declared");
        let lru_rank = (N - 1) as u16;
        let (mut free, mut lru) = (0u32, 0u32);
        for (w, &a) in ages.iter().enumerate() {
            free |= ((a == FREE_WAY) as u32) << w;
            lru |= ((a == lru_rank) as u32) << w;
        }
        let full = free == 0;
        let mask = if full { lru } else { free };
        let w = mask.trailing_zeros() as usize;
        for a in ages.iter_mut() {
            *a += (*a != FREE_WAY) as u16;
        }
        ages[w] = 0;
        (w, full)
    }

    /// Performs a demand access, allocating on miss.
    ///
    /// On hit the line moves to MRU (and is dirtied by writes). On miss the
    /// block is inserted; if the set was full, the LRU line is evicted and
    /// reported.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> CacheOutcome {
        if self.access_hit(block, is_write) {
            return CacheOutcome {
                hit: true,
                evicted: None,
            };
        }
        CacheOutcome {
            hit: false,
            evicted: self.miss_fill(block, is_write),
        }
    }

    /// Single-pass demand probe: the hit half of [`Cache::access`] with a
    /// reusable miss token. On hit the line moves to MRU (dirtying on
    /// write), the hit is counted, and `None` is returned. On miss there
    /// are no side effects; the returned [`MissedSet`] carries the set
    /// location so [`Cache::miss_fill_at`] / [`Cache::fill_at`] complete
    /// the access without recomputing the tag or re-scanning for the
    /// block.
    #[inline]
    pub fn probe(&mut self, block: BlockAddr, is_write: bool) -> Option<MissedSet> {
        self.probe_at(self.set_base(block), block, is_write)
    }

    /// [`Cache::probe`] with the set base already computed (by
    /// [`Cache::set_base`]): the tag/set arithmetic is skipped,
    /// everything else is identical.
    #[inline]
    pub fn probe_at(&mut self, base: usize, block: BlockAddr, is_write: bool) -> Option<MissedSet> {
        debug_assert_eq!(base, self.set_base(block), "pre-decoded base mismatch");
        if let Some(w) = self.find(base, block) {
            self.dirty[base + w] |= is_write;
            self.touch(base, w);
            self.hits += 1;
            return None;
        }
        Some(MissedSet { base })
    }

    /// The hit half of [`Cache::access`]: if `block` is resident, move it
    /// to MRU (dirtying on write), count the hit, and return `true`. A
    /// miss has no side effects — pair with [`Cache::miss_fill`] to
    /// complete the access without re-scanning the set.
    pub fn access_hit(&mut self, block: BlockAddr, is_write: bool) -> bool {
        self.probe(block, is_write).is_none()
    }

    /// The miss half of [`Cache::access`]: allocates `block` at MRU,
    /// counting the miss and evicting the LRU line if the set is full.
    /// The caller must already know the block is absent (via
    /// [`Cache::access_hit`] returning `false`).
    pub fn miss_fill(&mut self, block: BlockAddr, is_write: bool) -> Option<Evicted> {
        debug_assert!(
            self.find(self.set_base(block), block).is_none(),
            "miss_fill on a resident block"
        );
        self.miss_fill_at(
            MissedSet {
                base: self.set_base(block),
            },
            block,
            is_write,
        )
    }

    /// Completes a probed demand miss: allocates `block` at MRU in the
    /// probed set, counting the miss and evicting the LRU line if the set
    /// is full.
    pub fn miss_fill_at(
        &mut self,
        at: MissedSet,
        block: BlockAddr,
        is_write: bool,
    ) -> Option<Evicted> {
        debug_assert_eq!(
            at.base,
            self.set_base(block),
            "MissedSet redeemed for a block in a different set"
        );
        debug_assert!(
            self.find(at.base, block).is_none(),
            "miss_fill_at on a resident block"
        );
        self.misses += 1;
        self.install_at(at.base, block, is_write)
    }

    /// Completes a probed miss as a prefetch-consumption fill: allocates
    /// `block` clean at MRU in the probed set without counting demand
    /// traffic.
    pub fn fill_at(&mut self, at: MissedSet, block: BlockAddr) -> Option<Evicted> {
        debug_assert_eq!(
            at.base,
            self.set_base(block),
            "MissedSet redeemed for a block in a different set"
        );
        debug_assert!(
            self.find(at.base, block).is_none(),
            "fill_at on a resident block"
        );
        self.install_at(at.base, block, false)
    }

    /// Inserts a block without counting a demand hit/miss (prefetch fill).
    ///
    /// Returns the eviction if one occurred. If the block is already
    /// present it is refreshed to MRU and `None` is returned.
    pub fn fill(&mut self, block: BlockAddr) -> Option<Evicted> {
        let base = self.set_base(block);
        if let Some(w) = self.find(base, block) {
            self.touch(base, w);
            return None;
        }
        self.install_at(base, block, false)
    }

    /// Whether `block` is present (no recency update).
    ///
    /// Unlike `Cache::find` this needs no way position, so the
    /// specialized widths reduce with branch-free ORs: the dominant
    /// caller is the prefetch residency filter, whose answer is usually
    /// "absent" — a short-circuit scan there is a chain of mispredicted
    /// branches, while the OR-fold is straight-line compares.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        let base = self.set_base(block);
        let ways = &self.blocks[base..base + self.associativity];
        match self.associativity {
            1 => ways[0] == block,
            2 => (ways[0] == block) | (ways[1] == block),
            4 => Self::any_match::<4>(ways, block),
            8 => Self::any_match::<8>(ways, block),
            16 => Self::any_match::<16>(ways, block),
            _ => ways.contains(&block),
        }
    }

    /// Branch-free any-way match over a compile-time-width window: the
    /// unrolled compare-and-OR chain vectorizes like
    /// [`Cache::find_fixed`] without the movemask.
    #[inline]
    fn any_match<const N: usize>(ways: &[BlockAddr], block: BlockAddr) -> bool {
        let ways: &[BlockAddr; N] = ways.try_into().expect("window narrower than declared");
        let mut any = false;
        for &b in ways {
            any |= b == block;
        }
        any
    }

    /// Removes `block` if present; returns whether it was present.
    /// Older ranks close up over the departed one.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let base = self.set_base(block);
        if let Some(w) = self.find(base, block) {
            let age = self.ages[base + w];
            self.blocks[base + w] = SENTINEL_BLOCK;
            self.ages[base + w] = FREE_WAY;
            self.dirty[base + w] = false;
            for a in &mut self.ages[base..base + self.associativity] {
                if *a != FREE_WAY && *a > age {
                    *a -= 1;
                }
            }
            true
        } else {
            false
        }
    }

    /// Demand hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.ages.iter().filter(|&&a| a != FREE_WAY).count()
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(&CacheConfig {
            size_bytes: 4 * 64,
            associativity: 2,
        })
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        let b = BlockAddr::new(4);
        assert!(!c.access(b, false).hit);
        assert!(c.access(b, false).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent_in_set() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even numbers).
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        c.access(BlockAddr::new(0), false); // refresh 0; LRU is now 2
        let out = c.access(BlockAddr::new(4), false);
        assert_eq!(
            out.evicted,
            Some(Evicted {
                block: BlockAddr::new(2),
                dirty: false
            })
        );
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(2)));
    }

    #[test]
    fn writes_dirty_lines_and_eviction_reports_it() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false); // evicts 0 (LRU)
        assert_eq!(
            out.evicted,
            Some(Evicted {
                block: BlockAddr::new(0),
                dirty: true
            })
        );
    }

    #[test]
    fn fill_does_not_count_demand_traffic() {
        let mut c = tiny();
        c.fill(BlockAddr::new(0));
        assert_eq!(c.misses(), 0);
        assert!(c.access(BlockAddr::new(0), false).hit);
    }

    #[test]
    fn fill_of_resident_block_refreshes_without_eviction() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        assert_eq!(c.fill(BlockAddr::new(0)), None);
        // 2 is now LRU; a new block evicts it, not 0.
        let e = c.fill(BlockAddr::new(4)).unwrap();
        assert_eq!(e.block, BlockAddr::new(2));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.access(BlockAddr::new(6), false);
        assert!(c.invalidate(BlockAddr::new(6)));
        assert!(!c.contains(BlockAddr::new(6)));
        assert!(!c.invalidate(BlockAddr::new(6)));
    }

    #[test]
    fn occupancy_tracks_contents() {
        let mut c = tiny();
        assert_eq!(c.capacity(), 4);
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(1), false);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        // Odd blocks map to set 1.
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(1), false);
        c.access(BlockAddr::new(3), false);
        c.access(BlockAddr::new(5), false); // evicts 1, not 0
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(1)));
    }

    #[test]
    fn invalidate_in_the_middle_preserves_lru_order() {
        // 4 ways in one set: fill, invalidate a middle-recency line, then
        // check the eviction order of the survivors is unchanged.
        let mut c = Cache::new(&CacheConfig {
            size_bytes: 4 * 64,
            associativity: 4,
        });
        for b in [0u64, 4, 8, 12] {
            c.access(BlockAddr::new(b), false);
        }
        // Recency now (MRU..LRU): 12, 8, 4, 0.
        assert!(c.invalidate(BlockAddr::new(8)));
        // A new block fills the free way without evicting.
        assert_eq!(c.access(BlockAddr::new(16), false).evicted, None);
        // Next allocation evicts 0 (still LRU), then 4.
        let e = c.access(BlockAddr::new(20), false).evicted.unwrap();
        assert_eq!(e.block, BlockAddr::new(0));
        let e = c.access(BlockAddr::new(24), false).evicted.unwrap();
        assert_eq!(e.block, BlockAddr::new(4));
    }
}
