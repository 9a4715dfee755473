//! The streamed value buffer (SVB).
//!
//! A small fully-associative buffer (64 entries, Section 4.3) holding
//! prefetched blocks next to the L1. Blocks move to the L1 when consumed;
//! capacity evictions are FIFO and count as overpredictions at the engine.

use std::collections::VecDeque;

use stems_types::{fx_map_with_capacity, BlockAddr, FxHashMap};

use super::StreamTag;

/// Outcome of [`Svb::try_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvbInsert {
    /// The block was already resident; nothing changed.
    AlreadyResident,
    /// The block was admitted, evicting the carried victim if the buffer
    /// was full.
    Inserted(Option<(BlockAddr, StreamTag)>),
}

/// The streamed value buffer: block tags plus owning-stream tags.
///
/// Eviction is FIFO over *residencies*, not over raw insertions: each
/// admission stamps a unique sequence number into both the index entry
/// and its FIFO entry, and the capacity-eviction walk only honors a
/// FIFO entry whose sequence still matches the index. A block that was
/// consumed ([`Svb::take`]) and later re-inserted gets a fresh
/// sequence, so the stale lazy-deletion FIFO entry left by the take can
/// never victimize the re-inserted block nor leak its old stream tag to
/// the eviction report (the eviction-order fidelity bug the PR 3
/// residency oracle pinned; see README "Design notes").
#[derive(Clone, Debug)]
pub struct Svb {
    capacity: usize,
    fifo: VecDeque<(BlockAddr, u64)>,
    index: FxHashMap<BlockAddr, (StreamTag, u64)>,
    /// Admission stamp source; unique per [`Svb::try_insert`] admission.
    next_seq: u64,
    /// Resident blocks per stream tag: lets `flush_tag` skip the index
    /// scan entirely when the victimized stream has nothing in flight —
    /// the common case on every stream start.
    per_tag: [u32; 256],
}

impl Svb {
    /// Creates an empty SVB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SVB capacity must be nonzero");
        Svb {
            capacity,
            fifo: VecDeque::with_capacity(capacity),
            index: fx_map_with_capacity(capacity),
            next_seq: 0,
            per_tag: [0; 256],
        }
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the SVB is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `block` is resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.index.contains_key(&block)
    }

    /// Inserts a prefetched block; returns the FIFO-evicted victim if the
    /// buffer was full. Inserting a resident block is a no-op.
    pub fn insert(&mut self, block: BlockAddr, tag: StreamTag) -> Option<(BlockAddr, StreamTag)> {
        match self.try_insert(block, tag) {
            SvbInsert::AlreadyResident => None,
            SvbInsert::Inserted(evicted) => evicted,
        }
    }

    /// Single-hash [`Svb::insert`] that distinguishes "was already
    /// resident" from "inserted without eviction" — the engine's
    /// fetch-residency filter needs that distinction and previously paid
    /// a separate `contains` probe for it.
    ///
    /// The capacity eviction walks the lazy-deletion FIFO *after* the
    /// new entry is admitted. Each admission carries a unique sequence
    /// stamp, and the walk only honors a FIFO entry whose stamp still
    /// matches the index — a stale entry (its block was consumed, and
    /// possibly re-admitted under a new stamp) is dropped, never
    /// victimized through. The new entry itself sits at the FIFO back
    /// behind at least one older resident entry (over-capacity
    /// guarantees one), so the walk always terminates on a true victim
    /// and reports that victim's *current* stream tag.
    pub fn try_insert(&mut self, block: BlockAddr, tag: StreamTag) -> SvbInsert {
        use std::collections::hash_map::Entry;
        match self.index.entry(block) {
            Entry::Occupied(_) => SvbInsert::AlreadyResident,
            Entry::Vacant(slot) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                slot.insert((tag, seq));
                self.per_tag[tag.0 as usize] += 1;
                self.fifo.push_back((block, seq));
                let mut evicted = None;
                if self.index.len() > self.capacity {
                    // Oldest *current* residency: entries whose stamp no
                    // longer matches the index are lazy-deleted leftovers.
                    while let Some((b, s)) = self.fifo.pop_front() {
                        match self.index.get(&b) {
                            Some(&(vt, vs)) if vs == s => {
                                self.index.remove(&b);
                                self.per_tag[vt.0 as usize] -= 1;
                                evicted = Some((b, vt));
                                break;
                            }
                            _ => continue, // stale: consumed or re-admitted
                        }
                    }
                }
                SvbInsert::Inserted(evicted)
            }
        }
    }

    /// Consumes `block` (prefetch hit), returning its stream tag.
    pub fn take(&mut self, block: BlockAddr) -> Option<StreamTag> {
        // The FIFO entry stays behind, but its admission stamp dies with
        // the index entry: a later eviction walk drops it, and a
        // re-insert of the same block gets a fresh stamp — the stale
        // entry can never victimize the new residency.
        let (tag, _seq) = self.index.remove(&block)?;
        self.per_tag[tag.0 as usize] -= 1;
        Some(tag)
    }

    /// Removes every block owned by `tag`, returning how many were
    /// dropped (stream reallocation flush; callers only account counts).
    pub fn flush_tag(&mut self, tag: StreamTag) -> usize {
        if self.per_tag[tag.0 as usize] == 0 {
            return 0;
        }
        let before = self.index.len();
        self.index.retain(|_, &mut (t, _)| t != tag);
        let removed = before - self.index.len();
        debug_assert_eq!(
            removed, self.per_tag[tag.0 as usize] as usize,
            "per-tag count out of sync with index"
        );
        self.per_tag[tag.0 as usize] = 0;
        removed
    }

    /// Removes all blocks, returning how many were resident (end-of-run
    /// accounting of never-consumed prefetches).
    pub fn drain_all(&mut self) -> usize {
        let count = self.index.len();
        self.fifo.clear();
        self.index.clear();
        self.per_tag = [0; 256];
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn insert_take_round_trip() {
        let mut s = Svb::new(4);
        assert_eq!(s.insert(b(1), StreamTag(0)), None);
        assert!(s.contains(b(1)));
        assert_eq!(s.take(b(1)), Some(StreamTag(0)));
        assert!(!s.contains(b(1)));
        assert_eq!(s.take(b(1)), None);
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut s = Svb::new(2);
        s.insert(b(1), StreamTag(0));
        s.insert(b(2), StreamTag(1));
        let evicted = s.insert(b(3), StreamTag(2));
        assert_eq!(evicted, Some((b(1), StreamTag(0))));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut s = Svb::new(2);
        s.insert(b(1), StreamTag(0));
        assert_eq!(s.insert(b(1), StreamTag(5)), None);
        assert_eq!(s.take(b(1)), Some(StreamTag(0)));
    }

    #[test]
    fn lazy_deletion_skips_taken_entries() {
        let mut s = Svb::new(2);
        s.insert(b(1), StreamTag(0));
        s.insert(b(2), StreamTag(0));
        s.take(b(1)); // stale FIFO entry for 1 remains
                      // Inserting two more should evict 2 (the oldest *resident*).
        let e = s.insert(b(3), StreamTag(1));
        assert_eq!(e, None); // room freed by take
        let e = s.insert(b(4), StreamTag(1));
        assert_eq!(e, Some((b(2), StreamTag(0))));
    }

    #[test]
    fn flush_tag_removes_only_that_stream() {
        let mut s = Svb::new(8);
        s.insert(b(1), StreamTag(0));
        s.insert(b(2), StreamTag(1));
        s.insert(b(3), StreamTag(0));
        assert_eq!(s.flush_tag(StreamTag(0)), 2);
        assert!(!s.contains(b(1)) && !s.contains(b(3)));
        assert!(s.contains(b(2)));
        assert_eq!(s.flush_tag(StreamTag(0)), 0, "already flushed");
    }

    /// `try_insert` must distinguish residency from admission, and its
    /// post-insert eviction walk must drop a stale FIFO entry naming the
    /// block being re-inserted (the admission stamp no longer matches)
    /// instead of victimizing the fresh residency through it.
    #[test]
    fn try_insert_skips_own_stale_entry_in_eviction_walk() {
        let mut s = Svb::new(2);
        assert_eq!(s.try_insert(b(1), StreamTag(0)), SvbInsert::Inserted(None));
        s.insert(b(2), StreamTag(1));
        assert_eq!(s.try_insert(b(2), StreamTag(9)), SvbInsert::AlreadyResident);
        s.take(b(1)); // stale FIFO entry for 1 remains at the front
        s.insert(b(3), StreamTag(2)); // full again: [stale 1, 2, 3]
                                      // Re-inserting 1 at capacity: the walk must pop its own stale
                                      // entry without victimizing the fresh 1, and evict 2 instead.
        assert_eq!(
            s.try_insert(b(1), StreamTag(3)),
            SvbInsert::Inserted(Some((b(2), StreamTag(1))))
        );
        assert!(s.contains(b(1)) && s.contains(b(3)) && !s.contains(b(2)));
    }

    #[test]
    fn drain_all_empties() {
        let mut s = Svb::new(4);
        s.insert(b(1), StreamTag(0));
        s.insert(b(2), StreamTag(1));
        assert_eq!(s.drain_all(), 2);
        assert!(s.is_empty());
        assert_eq!(s.drain_all(), 0);
    }

    /// A naive reimplementation of the SVB with plain `Vec`s and linear
    /// scans everywhere — no hash index, no `per_tag` fast path, no
    /// sequence stamps — used as a differential oracle. Instead of the
    /// production buffer's lazy stamp-mismatch deletion it repairs the
    /// FIFO eagerly at insert time (dropping any stale entry naming the
    /// re-inserted block), which is observably equivalent: in both, a
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
            // FIFO entry removed lazily, exactly like the real buffer.
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

    /// Pins the eviction-order fidelity fix for the lazy-deletion corner
    /// the residency oracle found (PR 3): a block consumed and
    /// re-inserted leaves a stale FIFO entry ahead of its fresh one. The
    /// admission stamp makes that entry dead — a capacity eviction must
    /// walk past it, victimize the oldest *current* residency instead,
    /// and report that victim's current tag, never the stale one.
    #[test]
    fn reinserted_block_can_be_victimized_through_stale_fifo_entry() {
        let mut s = Svb::new(3);
        s.insert(b(1), StreamTag(0));
        s.insert(b(2), StreamTag(1));
        s.take(b(1)); // stale FIFO entry for 1 remains at the front
        s.insert(b(3), StreamTag(2));
        s.insert(b(1), StreamTag(3)); // re-inserted: buffer full again
        let evicted = s.insert(b(4), StreamTag(4));
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
    /// model exactly — `flush_tag`'s early-out is only correct if
    /// `per_tag` never goes stale across lazy FIFO deletion.
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
                        let got = svb.insert(b(block), StreamTag(tag));
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
