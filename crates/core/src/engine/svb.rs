//! The streamed value buffer (SVB).
//!
//! A small fully-associative buffer (64 entries, Section 4.3) holding
//! prefetched blocks next to the L1. Blocks move to the L1 when consumed;
//! capacity evictions are FIFO and count as overpredictions at the engine.

use stems_types::BlockAddr;

use super::StreamTag;

/// Outcome of [`Svb::try_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvbInsert {
    /// The block was already resident; nothing changed.
    AlreadyResident,
    /// The block was not resident and the caller's `refuse` check turned
    /// it away; nothing changed.
    Refused,
    /// The block was admitted, evicting the carried victim if the buffer
    /// was full.
    Inserted(Option<(BlockAddr, StreamTag)>),
}

/// "No slot": ends the admission list and the free list.
const NIL: u32 = u32::MAX;

/// One buffer entry. An occupied slot sits in the admission-order list;
/// a freed one chains the free list through `next`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    block: BlockAddr,
    prev: u32,
    next: u32,
    tag: StreamTag,
}

/// The streamed value buffer: block tags plus owning-stream tags, in
/// storage fixed at construction.
///
/// Resident blocks occupy a slot array of at most `capacity` entries,
/// doubly linked in admission order, and an open-addressed index
/// (linear probing, at most an eighth full, no tombstones) maps a block
/// to its slot. Eviction is FIFO over *residencies*: the list head is the
/// oldest current residency and so the capacity victim. A consumed
/// block ([`Svb::take`]) leaves the list at once and a re-admitted one
/// joins the tail, so a consumed-then-re-admitted block is ordered by
/// its latest admission and is reported with its current stream tag
/// (the eviction-order fidelity the residency oracle pins). Nothing
/// grows with the number of admissions: a long-lived session holds the
/// same SVB storage after a million admissions as after the first.
#[derive(Clone, Debug)]
pub struct Svb {
    capacity: usize,
    /// Slot storage, reserved for `capacity` slots at construction: a
    /// never-used slot is pushed (the length is the bump cursor), a
    /// freed one is recycled from the free list.
    slots: Vec<Slot>,
    /// Index positions holding `slot id + 1`, 0 for empty; a power of
    /// two at least eight times `capacity`. Nearly every probe ends at
    /// its home position, so the probe loop's data-dependent branches
    /// rarely mispredict: replaying em3d's SVB operations, a half-full
    /// index spent ~70% more time than the hashbrown map it replaced,
    /// an eighth-full one no more.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the multiplicative hash keeps the top
    /// `log2(index.len())` bits.
    shift: u32,
    /// Oldest resident slot (the capacity victim), or [`NIL`].
    head: u32,
    /// Newest resident slot, or [`NIL`].
    tail: u32,
    /// First freed slot, or [`NIL`].
    free: u32,
    len: usize,
    /// Resident blocks per stream tag: lets `flush_tag` skip the list
    /// walk entirely when the victimized stream has nothing in flight —
    /// the common case on every stream start — and stop the walk once
    /// the stream's last block is gone.
    per_tag: [u32; 256],
}

impl Svb {
    /// Creates an empty SVB with `capacity` entries. Makes two
    /// allocations (the slot array, reserved but unwritten, and the
    /// zeroed index) and touches no per-slot memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity >= 2^32 - 1`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SVB capacity must be nonzero");
        assert!(
            capacity < NIL as usize,
            "SVB capacity must fit 32-bit slot ids"
        );
        let positions = (8 * capacity).next_power_of_two();
        Svb {
            capacity,
            slots: Vec::with_capacity(capacity),
            index: vec![0; positions],
            shift: 64 - positions.trailing_zeros(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            per_tag: [0; 256],
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the SVB is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.find(block).is_ok()
    }

    /// The index position `block` hashes to.
    #[inline]
    fn home(&self, block: BlockAddr) -> usize {
        (block.get().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The index position holding `block` (`Ok`), or the empty position
    /// that ends its probe run (`Err`). Terminates because the index is
    /// never full.
    #[inline]
    fn find(&self, block: BlockAddr) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut pos = self.home(block);
        loop {
            match self.index[pos] {
                0 => return Err(pos),
                id if self.slots[id as usize - 1].block == block => return Ok(pos),
                _ => pos = (pos + 1) & mask,
            }
        }
    }

    /// Admits a prefetched block for stream `tag` unless it is already
    /// resident or `refuse` turns it away, evicting the oldest resident
    /// block when the buffer is full.
    ///
    /// Residency is decided first, by one index probe; `refuse` (the
    /// engine's L1/L2 residency check) runs only for a block that is not
    /// resident, so a candidate the SVB already holds costs no cache
    /// lookups.
    pub fn try_insert(
        &mut self,
        block: BlockAddr,
        tag: StreamTag,
        refuse: impl FnOnce() -> bool,
    ) -> SvbInsert {
        let mut pos = match self.find(block) {
            Ok(_) => return SvbInsert::AlreadyResident,
            Err(pos) => pos,
        };
        if refuse() {
            return SvbInsert::Refused;
        }
        let mut evicted = None;
        if self.len == self.capacity {
            let victim = self.head;
            let vb = self.slots[victim as usize].block;
            let vpos = self.find(vb).expect("a listed block is indexed");
            evicted = Some((vb, self.remove(vpos, victim)));
            // Removing the victim may have shifted this block's probe run.
            pos = self.find(block).expect_err("the block is not resident");
        }
        let slot = Slot {
            block,
            prev: self.tail,
            next: NIL,
            tag,
        };
        let id = if self.free == NIL {
            // Every slot so far is resident, so the reserved storage has
            // room: no reallocation.
            debug_assert!(self.slots.len() < self.capacity);
            self.slots.push(slot);
            self.slots.len() as u32 - 1
        } else {
            let id = self.free;
            self.free = self.slots[id as usize].next;
            self.slots[id as usize] = slot;
            id
        };
        match self.tail {
            NIL => self.head = id,
            t => self.slots[t as usize].next = id,
        }
        self.tail = id;
        self.index[pos] = id + 1;
        self.per_tag[tag.0 as usize] += 1;
        self.len += 1;
        SvbInsert::Inserted(evicted)
    }

    /// Drops slot `id`, whose index entry sits at `pos`, from the index
    /// and the admission list onto the free list; returns its tag.
    fn remove(&mut self, pos: usize, id: u32) -> StreamTag {
        self.unindex(pos);
        let Slot {
            prev, next, tag, ..
        } = self.slots[id as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
        self.slots[id as usize].next = self.free;
        self.free = id;
        self.per_tag[tag.0 as usize] -= 1;
        self.len -= 1;
        tag
    }

    /// Empties index position `hole`, moving later members of its probe
    /// run back into it (backward-shift deletion) so that every run stays
    /// unbroken without tombstones.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let id = self.index[pos];
            if id == 0 {
                break;
            }
            // The entry may fill the hole unless its home lies in the
            // cyclic range (hole, pos].
            let home = self.home(self.slots[id as usize - 1].block);
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.index[hole] = id;
                hole = pos;
            }
        }
        self.index[hole] = 0;
    }

    /// Consumes `block` (prefetch hit), returning its stream tag.
    pub fn take(&mut self, block: BlockAddr) -> Option<StreamTag> {
        let pos = self.find(block).ok()?;
        let id = self.index[pos] - 1;
        Some(self.remove(pos, id))
    }

    /// Removes every block owned by `tag`, returning how many were
    /// dropped (stream reallocation flush; callers only account counts).
    pub fn flush_tag(&mut self, tag: StreamTag) -> usize {
        let count = self.per_tag[tag.0 as usize] as usize;
        let mut id = self.head;
        while self.per_tag[tag.0 as usize] > 0 {
            let slot = self.slots[id as usize];
            if slot.tag == tag {
                let pos = self.find(slot.block).expect("a listed block is indexed");
                self.remove(pos, id);
            }
            id = slot.next;
        }
        count
    }

    /// Removes all blocks, returning how many were resident (end-of-run
    /// accounting of never-consumed prefetches).
    pub fn drain_all(&mut self) -> usize {
        let count = self.len;
        while self.head != NIL {
            let id = self.head;
            let pos = self
                .find(self.slots[id as usize].block)
                .expect("a listed block is indexed");
            self.remove(pos, id);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    /// Admission with no caches to consult, reporting only the victim.
    fn insert(s: &mut Svb, block: BlockAddr, tag: StreamTag) -> Option<(BlockAddr, StreamTag)> {
        match s.try_insert(block, tag, || false) {
            SvbInsert::Inserted(evicted) => evicted,
            SvbInsert::AlreadyResident | SvbInsert::Refused => None,
        }
    }

    #[test]
    fn insert_take_round_trip() {
        let mut s = Svb::new(4);
        assert_eq!(insert(&mut s, b(1), StreamTag(0)), None);
        assert!(s.contains(b(1)));
        assert_eq!(s.take(b(1)), Some(StreamTag(0)));
        assert!(!s.contains(b(1)));
        assert_eq!(s.take(b(1)), None);
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut s = Svb::new(2);
        insert(&mut s, b(1), StreamTag(0));
        insert(&mut s, b(2), StreamTag(1));
        let evicted = insert(&mut s, b(3), StreamTag(2));
        assert_eq!(evicted, Some((b(1), StreamTag(0))));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut s = Svb::new(2);
        insert(&mut s, b(1), StreamTag(0));
        assert_eq!(insert(&mut s, b(1), StreamTag(5)), None);
        assert_eq!(s.take(b(1)), Some(StreamTag(0)));
    }

    #[test]
    fn lazy_deletion_skips_taken_entries() {
        let mut s = Svb::new(2);
        insert(&mut s, b(1), StreamTag(0));
        insert(&mut s, b(2), StreamTag(0));
        s.take(b(1)); // 1 leaves the admission order
                      // Inserting two more should evict 2 (the oldest *resident*).
        let e = insert(&mut s, b(3), StreamTag(1));
        assert_eq!(e, None); // room freed by take
        let e = insert(&mut s, b(4), StreamTag(1));
        assert_eq!(e, Some((b(2), StreamTag(0))));
    }

    #[test]
    fn flush_tag_removes_only_that_stream() {
        let mut s = Svb::new(8);
        insert(&mut s, b(1), StreamTag(0));
        insert(&mut s, b(2), StreamTag(1));
        insert(&mut s, b(3), StreamTag(0));
        assert_eq!(s.flush_tag(StreamTag(0)), 2);
        assert!(!s.contains(b(1)) && !s.contains(b(3)));
        assert!(s.contains(b(2)));
        assert_eq!(s.flush_tag(StreamTag(0)), 0, "already flushed");
    }

    /// `try_insert` must distinguish residency from admission, and a
    /// block consumed and then re-inserted at capacity must be ordered by
    /// its new admission: the capacity victim is the oldest other
    /// resident, never the fresh residency.
    #[test]
    fn try_insert_skips_own_stale_entry_in_eviction_walk() {
        let mut s = Svb::new(2);
        assert_eq!(
            s.try_insert(b(1), StreamTag(0), || false),
            SvbInsert::Inserted(None)
        );
        insert(&mut s, b(2), StreamTag(1));
        assert_eq!(
            s.try_insert(b(2), StreamTag(9), || false),
            SvbInsert::AlreadyResident
        );
        s.take(b(1)); // consumed: the admission order is [2]
        insert(&mut s, b(3), StreamTag(2)); // full again: [2, 3]
                                            // Re-inserting 1 at capacity must evict 2, the
                                            // oldest resident, and admit 1 behind 3.
        assert_eq!(
            s.try_insert(b(1), StreamTag(3), || false),
            SvbInsert::Inserted(Some((b(2), StreamTag(1))))
        );
        assert!(s.contains(b(1)) && s.contains(b(3)) && !s.contains(b(2)));
    }

    /// The caller's `refuse` check runs only for a block the SVB does not
    /// hold, and a refusal changes nothing — not even at capacity, where
    /// an admission would have evicted.
    #[test]
    fn refuse_runs_only_for_absent_blocks_and_changes_nothing() {
        let mut s = Svb::new(2);
        insert(&mut s, b(1), StreamTag(0));
        insert(&mut s, b(2), StreamTag(1));
        let resident = s.try_insert(b(1), StreamTag(7), || {
            panic!("consulted for a resident block")
        });
        assert_eq!(resident, SvbInsert::AlreadyResident);
        assert_eq!(
            s.try_insert(b(3), StreamTag(7), || true),
            SvbInsert::Refused
        );
        assert_eq!(s.len(), 2);
        assert!(s.contains(b(1)) && s.contains(b(2)) && !s.contains(b(3)));
        assert_eq!(s.per_tag[7], 0);
        assert_eq!(
            insert(&mut s, b(3), StreamTag(2)),
            Some((b(1), StreamTag(0)))
        );
    }

    /// Storage is fixed at construction: 100,000 admit/take cycles at
    /// the paper's 64 entries, none of which evicts, never grow the slot
    /// array past its capacity or the index past its initial size.
    #[test]
    fn admit_take_churn_stays_within_capacity() {
        let mut s = Svb::new(64);
        let (slot_room, positions) = (s.slots.capacity(), s.index.len());
        for i in 0..100_000u64 {
            // Keep up to 48 blocks in flight, consuming the oldest.
            assert_eq!(
                s.try_insert(b(i), StreamTag((i % 8) as u8), || false),
                SvbInsert::Inserted(None)
            );
            if i >= 48 {
                assert!(s.take(b(i - 48)).is_some());
            }
        }
        assert_eq!(s.len(), 48);
        assert!(s.slots.len() <= 64);
        assert_eq!(s.slots.capacity(), slot_room);
        assert_eq!(s.index.len(), positions);
    }

    /// The index and both slot lists stay consistent under random churn
    /// over a key range wide enough for wrapped probe runs and long
    /// backward shifts: every listed block is found at its own slot, the
    /// index holds exactly the listed blocks, and listed plus free slots
    /// account for every slot ever used.
    #[test]
    fn index_and_slot_lists_stay_consistent_under_churn() {
        use crate::util::XorShift64;

        let mut rng = XorShift64::new(0x51_07);
        for capacity in [1, 2, 3, 7, 64] {
            let mut s = Svb::new(capacity);
            for _ in 0..20_000 {
                let block = b(rng.below(4 * capacity as u64 + 4) << rng.below(3));
                match rng.below(10) {
                    0..=5 => {
                        insert(&mut s, block, StreamTag(rng.below(4) as u8));
                    }
                    6..=8 => {
                        s.take(block);
                    }
                    _ => {
                        s.flush_tag(StreamTag(rng.below(4) as u8));
                    }
                }
                let mut listed = 0;
                let mut id = s.head;
                while id != NIL {
                    let pos = s
                        .find(s.slots[id as usize].block)
                        .expect("listed is indexed");
                    assert_eq!(s.index[pos], id + 1);
                    listed += 1;
                    id = s.slots[id as usize].next;
                }
                let mut free = 0;
                let mut id = s.free;
                while id != NIL {
                    free += 1;
                    id = s.slots[id as usize].next;
                }
                assert_eq!(listed, s.len());
                assert_eq!(s.index.iter().filter(|&&e| e != 0).count(), listed);
                assert_eq!(listed + free, s.slots.len());
                assert!(s.slots.len() <= capacity);
            }
        }
    }

    #[test]
    fn drain_all_empties() {
        let mut s = Svb::new(4);
        insert(&mut s, b(1), StreamTag(0));
        insert(&mut s, b(2), StreamTag(1));
        assert_eq!(s.drain_all(), 2);
        assert!(s.is_empty());
        assert_eq!(s.drain_all(), 0);
    }

    /// A naive reimplementation of the SVB with plain `Vec`s and linear
    /// scans everywhere — no hash index, no `per_tag` fast path, no
    /// linked slots — used as a differential oracle. It keeps an
    /// insertion-order FIFO that consumption leaves stale and repairs it
    /// eagerly at insert time (dropping any stale entry naming the
    /// re-inserted block); the production buffer unlinks a consumed
    /// block at once instead, which is observably equivalent: in both, a
    /// capacity eviction victimizes the oldest *current residency* and
    /// reports that victim's current tag.
    struct SvbModel {
        capacity: usize,
        /// Insertion order, stale entries included (the FIFO).
        fifo: Vec<(u64, u8)>,
        /// Currently resident `(block, tag)` pairs.
        resident: Vec<(u64, u8)>,
    }

    impl SvbModel {
        fn new(capacity: usize) -> Self {
            SvbModel {
                capacity,
                fifo: Vec::new(),
                resident: Vec::new(),
            }
        }

        fn insert(&mut self, block: u64, tag: u8) -> Option<(u64, u8)> {
            if self.resident.iter().any(|&(rb, _)| rb == block) {
                return None;
            }
            // Insert-time FIFO repair: a consumed-then-re-inserted block
            // must not be reachable through its old entry.
            self.fifo.retain(|&(fb, _)| fb != block);
            let mut evicted = None;
            if self.resident.len() == self.capacity {
                while !self.fifo.is_empty() {
                    let (fb, ft) = self.fifo.remove(0);
                    if let Some(pos) = self.resident.iter().position(|&(rb, _)| rb == fb) {
                        self.resident.remove(pos);
                        evicted = Some((fb, ft));
                        break;
                    }
                }
            }
            self.resident.push((block, tag));
            self.fifo.push((block, tag));
            evicted
        }

        fn take(&mut self, block: u64) -> Option<u8> {
            // FIFO entry removed lazily.
            let pos = self.resident.iter().position(|&(rb, _)| rb == block)?;
            Some(self.resident.remove(pos).1)
        }

        fn flush_tag(&mut self, tag: u8) -> usize {
            let before = self.resident.len();
            self.resident.retain(|&(_, rt)| rt != tag);
            before - self.resident.len()
        }

        fn drain_all(&mut self) -> usize {
            let count = self.resident.len();
            self.resident.clear();
            self.fifo.clear();
            count
        }

        fn count_tag(&self, tag: u8) -> usize {
            self.resident.iter().filter(|&&(_, rt)| rt == tag).count()
        }
    }

    /// Pins the eviction-order fidelity the residency oracle once found
    /// broken: a block consumed and re-inserted must be ordered by its
    /// fresh admission alone — a capacity eviction victimizes the oldest
    /// *current* residency and reports that victim's current tag, never
    /// the consumed residency's.
    #[test]
    fn reinserted_block_can_be_victimized_through_stale_fifo_entry() {
        let mut s = Svb::new(3);
        insert(&mut s, b(1), StreamTag(0));
        insert(&mut s, b(2), StreamTag(1));
        s.take(b(1)); // consumed: the admission order is [2]
        insert(&mut s, b(3), StreamTag(2));
        insert(&mut s, b(1), StreamTag(3)); // re-inserted: buffer full again
        let evicted = insert(&mut s, b(4), StreamTag(4));
        assert_eq!(
            evicted,
            Some((b(2), StreamTag(1))),
            "the oldest current residency is the victim, with its current tag"
        );
        assert!(
            s.contains(b(1)),
            "the re-inserted block must survive its stale FIFO entry"
        );
        assert_eq!(
            s.flush_tag(StreamTag(3)),
            1,
            "the re-inserted block is resident under its new tag"
        );
        assert_eq!(s.flush_tag(StreamTag(0)), 0, "the stale tag owns nothing");
    }

    /// Per-tag residency oracle: under random insert / take / flush /
    /// drain interleavings, `flush_tag` and `drain_all` counts (and the
    /// fast-reject `per_tag` table behind them) must match a linear-scan
    /// model exactly — `flush_tag`'s early-out and walk bound are only
    /// correct if `per_tag` never goes stale across consumption,
    /// eviction, and re-admission.
    #[test]
    fn per_tag_residency_matches_linear_scan_oracle() {
        use crate::util::XorShift64;

        for seed in 0..16u64 {
            let mut rng = XorShift64::new(0x5B_B0A7 ^ (seed << 8));
            let capacity = 1 + rng.below(12) as usize;
            let mut svb = Svb::new(capacity);
            let mut model = SvbModel::new(capacity);
            for step in 0..3000u32 {
                let block = rng.below(24);
                let tag = rng.below(6) as u8;
                match rng.below(12) {
                    0..=5 => {
                        let got = insert(&mut svb, b(block), StreamTag(tag));
                        let want = model.insert(block, tag);
                        assert_eq!(
                            got,
                            want.map(|(eb, et)| (b(eb), StreamTag(et))),
                            "insert eviction diverged (seed {seed}, step {step})"
                        );
                    }
                    6..=8 => {
                        let got = svb.take(b(block));
                        let want = model.take(block).map(StreamTag);
                        assert_eq!(got, want, "take diverged (seed {seed}, step {step})");
                    }
                    9..=10 => {
                        let got = svb.flush_tag(StreamTag(tag));
                        let want = model.flush_tag(tag);
                        assert_eq!(got, want, "flush_tag diverged (seed {seed}, step {step})");
                    }
                    _ => {
                        if rng.chance(0.1) {
                            let got = svb.drain_all();
                            let want = model.drain_all();
                            assert_eq!(got, want, "drain_all diverged (seed {seed}, step {step})");
                        }
                    }
                }
                assert_eq!(svb.len(), model.resident.len(), "seed {seed}, step {step}");
                assert_eq!(
                    svb.contains(b(block)),
                    model.resident.iter().any(|&(rb, _)| rb == block),
                    "residency diverged (seed {seed}, step {step})"
                );
                for t in 0..6u8 {
                    assert_eq!(
                        svb.per_tag[t as usize] as usize,
                        model.count_tag(t),
                        "per-tag count stale for tag {t} (seed {seed}, step {step})"
                    );
                }
            }
        }
    }
}
