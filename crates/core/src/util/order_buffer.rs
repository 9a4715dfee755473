//! A circular history buffer with a most-recent-occurrence index.
//!
//! Both temporal history structures are instances of this: TMS's circular
//! miss-order buffer (CMOB, ~384K entries) and STeMS's region miss-order
//! buffer (RMOB, 128K entries). Appends overwrite the oldest entry once
//! full; an index maps a block address to its most recent position so a
//! miss can locate where to start streaming (Section 2.2, 4.2).

use stems_types::{fx_map_with_capacity, BlockAddr, FxHashMap};

/// Types storable in an [`OrderBuffer`]: anything with a block address key.
pub trait HasBlock {
    /// The block address this entry is indexed under.
    fn block(&self) -> BlockAddr;
}

impl HasBlock for BlockAddr {
    fn block(&self) -> BlockAddr {
        *self
    }
}

/// A bounded circular append-only buffer of history entries, with O(1)
/// lookup of the most recent occurrence of a block address.
///
/// Positions are *absolute* append counts (monotonically increasing); a
/// position is readable while it has not been overwritten, i.e. while it is
/// within `capacity` of the append cursor.
///
/// Index entries whose position has left the window are dead (lookups
/// filter them out) but would otherwise stay in the index for good, so
/// it would grow with every distinct block ever appended. When the index
/// reaches twice the ring capacity, append drops every dead entry; that
/// leaves at most `capacity` live ones, so the amortized cost is O(1)
/// per append and no lookup result changes.
///
/// The position→slot mapping (`pos % capacity`) is computed without
/// division: the write cursor (`appended % capacity`) is maintained
/// incrementally by the append path, and a read derives its slot from
/// the cursor with one conditional add — the paper-scale CMOB
/// (384K = 3·2¹⁷ entries) otherwise pays a 64-bit division on every
/// append and every streamed read. The ring stays exactly `capacity`
/// entries: rounding up to a power of two for mask indexing was measured
/// to cost more in extra cache/TLB footprint (+33% on the CMOB) than the
/// division it removed.
#[derive(Clone, Debug)]
pub struct OrderBuffer<T> {
    ring: Vec<T>,
    /// `appended % capacity` — the slot the next append writes.
    cursor: usize,
    capacity: usize,
    appended: u64,
    index: FxHashMap<BlockAddr, u64>,
}

impl<T: HasBlock + Clone> OrderBuffer<T> {
    /// Creates a buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "OrderBuffer capacity must be nonzero");
        OrderBuffer {
            ring: Vec::with_capacity(capacity.min(1 << 16)),
            cursor: 0,
            capacity,
            appended: 0,
            index: fx_map_with_capacity(capacity.min(1 << 16)),
        }
    }

    /// Total entries ever appended (the next entry's position).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Entries currently resident (`min(appended, capacity)`).
    pub fn len(&self) -> usize {
        (self.appended as usize).min(self.capacity)
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.appended == 0
    }

    /// Appends an entry, indexing it as the most recent occurrence of its
    /// block. Returns the entry's absolute position.
    pub fn append(&mut self, entry: T) -> u64 {
        let pos = self.appended;
        let slot = self.cursor;
        self.index.insert(entry.block(), pos);
        if slot < self.ring.len() {
            self.ring[slot] = entry;
        } else {
            self.ring.push(entry);
        }
        self.appended += 1;
        self.cursor += 1;
        if self.cursor == self.capacity {
            self.cursor = 0;
        }
        if self.index.len() >= self.capacity.saturating_mul(2) {
            let (appended, capacity) = (self.appended, self.capacity as u64);
            self.index.retain(|_, pos| appended - *pos <= capacity);
        }
        pos
    }

    fn in_window(&self, pos: u64) -> bool {
        pos < self.appended && self.appended - pos <= self.capacity as u64
    }

    /// Position of the most recent occurrence of `block`, if it is still
    /// resident (not overwritten by wraparound).
    pub fn lookup(&self, block: BlockAddr) -> Option<u64> {
        let &pos = self.index.get(&block)?;
        self.in_window(pos).then_some(pos)
    }

    /// The entry at absolute position `pos`, if still resident.
    pub fn get(&self, pos: u64) -> Option<&T> {
        if !self.in_window(pos) {
            return None;
        }
        // `pos % capacity` via the maintained cursor: with `pos` in the
        // window, `back = appended - pos` is in `1..=capacity`, so one
        // conditional add replaces the division.
        let back = (self.appended - pos) as usize;
        let slot = if self.cursor >= back {
            self.cursor - back
        } else {
            self.cursor + self.capacity - back
        };
        self.ring.get(slot)
    }

    /// Reads up to `n` consecutive entries starting at `pos` (stops at the
    /// append cursor or the window edge).
    pub fn read_from(&self, pos: u64, n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        for p in pos..pos.saturating_add(n as u64) {
            match self.get(p) {
                Some(e) => out.push(e.clone()),
                None => break,
            }
        }
        out
    }

    /// Like [`OrderBuffer::read_from`], but appends into a caller-provided
    /// buffer (the stream queue's pending deque) instead of allocating.
    /// Returns the number of entries appended.
    pub fn read_from_into(
        &self,
        pos: u64,
        n: usize,
        out: &mut std::collections::VecDeque<T>,
    ) -> usize {
        let mut appended = 0;
        for p in pos..pos.saturating_add(n as u64) {
            match self.get(p) {
                Some(e) => {
                    out.push_back(e.clone());
                    appended += 1;
                }
                None => break,
            }
        }
        appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn append_and_lookup_most_recent() {
        let mut buf: OrderBuffer<BlockAddr> = OrderBuffer::new(8);
        buf.append(b(1));
        buf.append(b(2));
        buf.append(b(1));
        assert_eq!(buf.lookup(b(1)), Some(2));
        assert_eq!(buf.lookup(b(2)), Some(1));
        assert_eq!(buf.lookup(b(9)), None);
    }

    #[test]
    fn wraparound_invalidates_stale_index() {
        let mut buf: OrderBuffer<BlockAddr> = OrderBuffer::new(4);
        buf.append(b(1)); // pos 0
        for i in 2..=5 {
            buf.append(b(i)); // positions 1..=4; pos 0 overwritten
        }
        assert_eq!(buf.lookup(b(1)), None);
        assert_eq!(buf.get(0), None);
        assert_eq!(buf.lookup(b(5)), Some(4));
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn read_from_stops_at_cursor() {
        let mut buf: OrderBuffer<BlockAddr> = OrderBuffer::new(8);
        for i in 0..5 {
            buf.append(b(i));
        }
        let v = buf.read_from(3, 10);
        assert_eq!(v, vec![b(3), b(4)]);
        assert!(buf.read_from(5, 4).is_empty());
    }

    #[test]
    fn read_from_respects_window_edge() {
        let mut buf: OrderBuffer<BlockAddr> = OrderBuffer::new(4);
        for i in 0..10 {
            buf.append(b(i));
        }
        // Window holds positions 6..=9.
        assert!(buf.read_from(2, 3).is_empty());
        assert_eq!(buf.read_from(6, 2), vec![b(6), b(7)]);
    }

    #[test]
    fn index_stays_bounded_and_lookups_match_an_unpruned_index() {
        let capacity = 64;
        let mut buf: OrderBuffer<BlockAddr> = OrderBuffer::new(capacity);
        // Every block ever appended and its latest position, never pruned.
        let mut reference: std::collections::HashMap<u64, u64> = Default::default();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..10 * capacity as u64 {
            // Mostly fresh blocks, with repeats of recent and long-gone ones.
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let block = match rng >> 61 {
                0 => i.saturating_sub(rng >> 58 & 7),
                1 => (rng >> 32) % (i + 1),
                _ => i,
            };
            let pos = buf.append(b(block));
            reference.insert(block, pos);
            assert!(buf.index.len() <= 2 * capacity, "after {} appends", i + 1);
            for (&block, &latest) in &reference {
                let live = buf.appended() - latest <= capacity as u64;
                assert_eq!(
                    buf.lookup(b(block)),
                    live.then_some(latest),
                    "block {block}"
                );
            }
        }
        assert!(buf.index.len() <= 2 * capacity);
        assert!(
            reference.len() > 2 * capacity,
            "the test must outgrow the bound"
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _: OrderBuffer<BlockAddr> = OrderBuffer::new(0);
    }

    /// The slot mapping is cursor-derived rather than a `pos % capacity`
    /// division: a non-power-of-two capacity (the CMOB's 384K, scaled
    /// down here to 3) must still expire entries after exactly
    /// `capacity` appends, with every in-window position readable.
    #[test]
    fn non_power_of_two_capacity_windows_logically() {
        let mut buf: OrderBuffer<BlockAddr> = OrderBuffer::new(3);
        for i in 0..10 {
            buf.append(b(i));
            // Exactly the last 3 positions are readable.
            for p in 0..=i {
                let pos = p;
                let readable = i - p < 3;
                assert_eq!(
                    buf.get(pos).is_some(),
                    readable,
                    "pos {pos} after {} appends",
                    i + 1
                );
                if readable {
                    assert_eq!(buf.get(pos), Some(&b(p)));
                }
            }
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.lookup(b(9)), Some(9));
        assert_eq!(buf.lookup(b(6)), None, "outside the logical window");
    }
}
