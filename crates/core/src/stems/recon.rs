//! The reconstruction engine (Section 4.2, Figure 5).
//!
//! Reconstruction rebuilds a predicted *total* miss order from the two
//! recorded components:
//!
//! 1. the initial miss is placed at slot 0 of the reconstruction buffer;
//! 2. each subsequent RMOB entry is placed `delta` empty slots after the
//!    previous one (the temporal skeleton);
//! 3. each RMOB entry triggers a PST lookup; the predicted spatial
//!    sequence's elements are interleaved at slots chained by their own
//!    deltas from the trigger's slot.
//!
//! If a slot is already occupied, up to `search` adjacent slots each way
//! are tried (Section 4.3 reports >=99% of addresses place within +-2,
//! ~92% exactly); otherwise the address is dropped. The buffer is a
//! sliding 256-slot window: draining from the front yields the predicted
//! address sequence and frees space, so reconstruction resumes on demand
//! when the stream queue runs low — "STeMS resumes reconstruction from
//! where it left off previously".
//!
//! The window is a bitmap ring ([`Reconstructor`]). The deque window it
//! replaced is kept only as a test oracle, in `tests/support/mod.rs`.

use std::collections::VecDeque;

use stems_types::{BlockAddr, FlatBitmap};

use crate::stems::rmob::RmobEntry;
use crate::util::OrderBuffer;

use super::pst::Pst;
use crate::sms::spatial_index;

/// Placement accuracy statistics (reported by `--bin recon_stats`,
/// reproducing the Section 4.3 claim).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconStats {
    /// Placed at the exact slot its delta chain named.
    pub exact: u64,
    /// Placed one slot away.
    pub shifted1: u64,
    /// Placed two slots away.
    pub shifted2: u64,
    /// Dropped: no free slot within the search distance.
    pub dropped_conflict: u64,
    /// Dropped: target beyond the reconstruction window.
    pub dropped_window: u64,
}

impl ReconStats {
    /// Total placement attempts.
    pub fn attempts(&self) -> u64 {
        self.exact + self.shifted1 + self.shifted2 + self.dropped_conflict + self.dropped_window
    }

    /// Fraction placed at their exact slot.
    pub fn exact_fraction(&self) -> f64 {
        let n = self.attempts();
        if n == 0 {
            0.0
        } else {
            self.exact as f64 / n as f64
        }
    }

    /// Fraction placed within the +-2 search distance.
    pub fn placed_fraction(&self) -> f64 {
        let n = self.attempts();
        if n == 0 {
            0.0
        } else {
            (self.exact + self.shifted1 + self.shifted2) as f64 / n as f64
        }
    }

    /// The component-wise difference `self - earlier` (saturating), used
    /// to extract the increment between two snapshots.
    pub fn diff(&self, earlier: &ReconStats) -> ReconStats {
        ReconStats {
            exact: self.exact.saturating_sub(earlier.exact),
            shifted1: self.shifted1.saturating_sub(earlier.shifted1),
            shifted2: self.shifted2.saturating_sub(earlier.shifted2),
            dropped_conflict: self
                .dropped_conflict
                .saturating_sub(earlier.dropped_conflict),
            dropped_window: self.dropped_window.saturating_sub(earlier.dropped_window),
        }
    }

    /// Accumulates another run's statistics.
    pub fn merge(&mut self, other: &ReconStats) {
        self.exact += other.exact;
        self.shifted1 += other.shifted1;
        self.shifted2 += other.shifted2;
        self.dropped_conflict += other.dropped_conflict;
        self.dropped_window += other.dropped_window;
    }
}

/// An in-progress reconstruction: one per active reconstructed stream.
///
/// The sliding window is a flat power-of-two ring of predicted blocks
/// carrying a `u64`-word occupancy bitmap: exact/±`search` placement is a
/// bounds check plus a mask-and-shift bit test per candidate (the old
/// `VecDeque<Option<_>>` window paid lazy `push_back(None)` materialization
/// and a bounds-checked deque index per probe), and draining walks set
/// bits a word at a time instead of popping empty slots one by one.
/// Behavior is pinned exactly — placement slots, [`ReconStats`], and drain
/// order — against the retained deque implementation, the test oracle
/// `DequeReconstructor` in `tests/support/mod.rs`, by the differential
/// suite in `tests/recon_differential.rs`.
#[derive(Clone, Debug)]
pub struct Reconstructor {
    /// Predicted block per physical ring slot; validity is governed by
    /// `occupancy` (a stale value under a clear bit is never read).
    slots: Vec<BlockAddr>,
    /// One bit per physical slot: set = slot holds a prediction.
    occupancy: FlatBitmap,
    /// `slots.len() - 1`; absolute slot & mask = physical slot.
    slot_mask: u64,
    /// Absolute slot index of the window front.
    base: u64,
    /// Absolute end of the materialized prefix: slots in
    /// `[base, materialized)` exist (occupied or empty); beyond it the
    /// window has never been touched. Mirrors the deque's length.
    materialized: u64,
    /// Absolute slot of the most recently placed RMOB trigger.
    horizon: u64,
    /// Next RMOB position to expand.
    next_rmob: u64,
    /// Window capacity (256 in the paper).
    capacity: usize,
    /// Adjacent-slot search distance (2 in the paper).
    search: usize,
    /// Whether the first (initiating) entry has been expanded.
    primed: bool,
    /// Whether the temporal history has run out (stream end).
    exhausted: bool,
    /// Placement statistics for this reconstruction.
    pub stats: ReconStats,
}

/// Physical ring size for a logical window capacity: the next power of
/// two, at least one occupancy word wide so the bitmap walk never
/// special-cases a partial word.
///
/// # Panics
///
/// Panics if `capacity == 0`: a window must hold at least its trigger.
fn ring_size(capacity: usize) -> usize {
    assert!(capacity > 0, "Reconstructor window must be nonzero");
    capacity.next_power_of_two().max(64)
}

impl Reconstructor {
    /// Starts a reconstruction whose initiating miss matched the RMOB at
    /// `rmob_pos`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(rmob_pos: u64, capacity: usize, search: usize) -> Self {
        let physical = ring_size(capacity);
        Reconstructor {
            slots: vec![BlockAddr::new(0); physical],
            occupancy: FlatBitmap::new(physical),
            slot_mask: physical as u64 - 1,
            base: 0,
            materialized: 0,
            horizon: 0,
            next_rmob: rmob_pos,
            capacity,
            search,
            primed: false,
            exhausted: false,
            stats: ReconStats::default(),
        }
    }

    /// Re-initializes a recycled reconstructor to exactly the state
    /// [`Reconstructor::new`] would produce, keeping the window and
    /// PST-expansion scratch allocations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn reset(&mut self, rmob_pos: u64, capacity: usize, search: usize) {
        let physical = ring_size(capacity);
        if physical != self.slots.len() {
            self.slots = vec![BlockAddr::new(0); physical];
            self.occupancy.reset(physical);
            self.slot_mask = physical as u64 - 1;
        } else {
            self.occupancy.clear_all();
        }
        self.base = 0;
        self.materialized = 0;
        self.horizon = 0;
        self.next_rmob = rmob_pos;
        self.capacity = capacity;
        self.search = search;
        self.primed = false;
        self.exhausted = false;
        self.stats = ReconStats::default();
    }

    #[inline]
    fn is_occupied(&self, abs: u64) -> bool {
        self.occupancy.get((abs & self.slot_mask) as usize)
    }

    /// Marks `abs` occupied with `block`, extending the materialized
    /// prefix (the deque's lazy `push_back(None)` growth collapses to a
    /// cursor bump: intermediate slots are empty by bitmap invariant).
    #[inline]
    fn set_slot(&mut self, abs: u64, block: BlockAddr) {
        let s = abs & self.slot_mask;
        self.occupancy.set(s as usize);
        self.slots[s as usize] = block;
        if abs >= self.materialized {
            self.materialized = abs + 1;
        }
    }

    /// Places `block` as close to absolute slot `abs` as the search
    /// distance allows; records stats. Returns the slot used, if any.
    /// Inlined into the expansion loop so the window bounds stay in
    /// registers across the candidate probes.
    #[inline]
    fn place(&mut self, abs: u64, block: BlockAddr) -> Option<u64> {
        if abs >= self.base + self.capacity as u64 {
            self.stats.dropped_window += 1;
            return None;
        }
        // Try exact, then +-1, then +-2 (forward first: a later slot only
        // delays the prefetch, an earlier one reorders it). Each probe is
        // a window-bounds check plus one occupancy bit test: this runs
        // for every placed address.
        if self.try_place(abs, block) {
            self.stats.exact += 1;
            return Some(abs);
        }
        for d in 1..=self.search as u64 {
            if self.try_place(abs + d, block) {
                self.bump_shifted(d);
                return Some(abs + d);
            }
            if abs >= self.base + d && self.try_place(abs - d, block) {
                self.bump_shifted(d);
                return Some(abs - d);
            }
        }
        self.stats.dropped_conflict += 1;
        None
    }

    #[inline]
    fn try_place(&mut self, candidate: u64, block: BlockAddr) -> bool {
        // Candidates drained past (< base) or beyond the window read as
        // unplaceable, exactly as the deque's `slot_at` refused them.
        if candidate < self.base
            || candidate - self.base >= self.capacity as u64
            || self.is_occupied(candidate)
        {
            return false;
        }
        self.set_slot(candidate, block);
        true
    }

    fn bump_shifted(&mut self, dist: u64) {
        if dist == 1 {
            self.stats.shifted1 += 1;
        } else {
            self.stats.shifted2 += 1;
        }
    }

    /// First occupied absolute slot in `[from, limit)`, walking the
    /// occupancy words. `limit - from` never exceeds the window capacity,
    /// so the scan touches each physical word at most once.
    fn next_occupied(&self, from: u64, limit: u64) -> Option<u64> {
        let mut abs = from;
        while abs < limit {
            let s = abs & self.slot_mask;
            let bit = s & 63;
            let word = self.occupancy.word((s >> 6) as usize) >> bit;
            if word != 0 {
                let cand = abs + word.trailing_zeros() as u64;
                return (cand < limit).then_some(cand);
            }
            abs += 64 - bit; // next word boundary
        }
        None
    }

    /// Expands one RMOB entry into the window: places its trigger address
    /// and interleaves its PST spatial sequence. Returns `false` when the
    /// RMOB has no further readable entry or the window is full.
    ///
    /// `predicted_region` is invoked with each region whose spatial
    /// sequence was used, so the caller can remember the reconstruction
    /// index (suppressing redundant spatial-only streams, Section 4.2).
    ///
    /// The PST consult here is deliberately a *scalar* [`Pst::lookup`].
    /// Resolving upcoming expansions in one batched PST lookup (with the
    /// recency touch deferred to expansion time) was built and measured,
    /// and lost end-to-end: the engine drains streams in
    /// `refill_chunk`-sized nibbles (4 addresses ≈ 1–3 expansions), so
    /// batches stayed too narrow for the probe pipelining to pay for the
    /// id-cache bookkeeping — even with the batch width ramping 1→8
    /// within a drain. Per the house rules that measured pessimization
    /// was reverted, not shipped.
    pub fn expand_one(
        &mut self,
        rmob: &OrderBuffer<RmobEntry>,
        pst: &mut Pst,
        mut predicted_region: impl FnMut(stems_types::RegionAddr, u64),
    ) -> bool {
        let Some(entry) = rmob.get(self.next_rmob).copied() else {
            return false;
        };
        let trigger_slot = if !self.primed {
            self.primed = true;
            // The initiating miss occupies slot 0; it was demand-fetched,
            // and the residency filter will refuse a refetch when drained.
            if self.base == 0 {
                self.set_slot(0, entry.block);
            }
            Some(0)
        } else {
            let target = self.horizon + entry.delta.get() as u64 + 1;
            if target >= self.base + self.capacity as u64 {
                // The temporal skeleton has outrun the window; resume
                // after the consumer drains some slots.
                return false;
            }
            self.horizon = target;
            self.place(target, entry.block)
        };
        let anchor = match trigger_slot {
            Some(s) => s,
            None => self.horizon, // trigger dropped: chain spatials anyway
        };
        let region = entry.block.region();
        // Placement reads the sequence in place: `lookup` borrows `pst`
        // while placement mutates `self`, so no staging buffer is needed.
        // Callback timing: `predicted_region` fires before the first
        // placement, and only when the sequence predicts >= one element.
        let index = spatial_index(entry.pc, entry.block.offset_in_region());
        if let Some(seq) = pst.lookup(index) {
            let mut predicted = seq.predicted();
            if let Some(first) = predicted.next() {
                predicted_region(region, index);
                let mut prev = anchor;
                for e in std::iter::once(first).chain(predicted) {
                    let target = prev + e.delta.get() as u64 + 1;
                    match self.place(target, region.block_at(e.offset)) {
                        Some(slot) => prev = slot,
                        None => prev = target.min(self.base + self.capacity as u64 - 1),
                    }
                }
            }
        }
        self.next_rmob += 1;
        true
    }

    /// Drains up to `n` predicted addresses from the window front,
    /// expanding further RMOB entries as needed. An empty return means the
    /// temporal history is exhausted.
    ///
    /// A front slot is only emitted once it is *final*: expansion has run
    /// far enough ahead that no future RMOB entry (whose trigger lands
    /// beyond the current horizon, minus the ±search adjustment) can still
    /// place an address there.
    pub fn produce(
        &mut self,
        n: usize,
        rmob: &OrderBuffer<RmobEntry>,
        pst: &mut Pst,
        predicted_region: impl FnMut(stems_types::RegionAddr, u64),
    ) -> Vec<BlockAddr> {
        let mut out = VecDeque::with_capacity(n);
        self.produce_into(n, rmob, pst, predicted_region, &mut out);
        out.into()
    }

    /// Like [`Reconstructor::produce`], but appends into a caller-provided
    /// buffer (the stream queue's pending deque) instead of allocating.
    /// Returns the number of addresses appended.
    pub fn produce_into(
        &mut self,
        n: usize,
        rmob: &OrderBuffer<RmobEntry>,
        pst: &mut Pst,
        mut predicted_region: impl FnMut(stems_types::RegionAddr, u64),
        out: &mut VecDeque<BlockAddr>,
    ) -> usize {
        let mut appended = 0;
        while appended < n {
            let safe_frontier = self.base + 2 * self.search as u64 + 1;
            if !self.exhausted && self.horizon < safe_frontier {
                // The front slot could still receive placements: expand.
                if !self.expand_one(rmob, pst, &mut predicted_region) {
                    self.exhausted = true;
                }
                continue;
            }
            if self.base < self.materialized {
                if self.is_occupied(self.base) {
                    // Emit the front slot and clear its bit so the
                    // physical slot is clean when the ring wraps back.
                    let s = (self.base & self.slot_mask) as usize;
                    self.occupancy.clear(s);
                    out.push_back(self.slots[s]);
                    appended += 1;
                    self.base += 1;
                } else {
                    // Drain walks set bits: empty slots emit nothing, so
                    // skip straight to the next occupied slot — bounded
                    // by the materialized prefix and, while expansion can
                    // still run, by the frontier up to which the deque
                    // loop would have popped empties one at a time
                    // without re-triggering expansion (popping at slot b
                    // requires `horizon >= b + 2*search + 1`).
                    let limit = if self.exhausted {
                        self.materialized
                    } else {
                        self.materialized
                            .min(self.horizon.saturating_sub(2 * self.search as u64))
                    };
                    self.base = self.next_occupied(self.base, limit).unwrap_or(limit);
                }
            } else if self.exhausted || !self.expand_one(rmob, pst, &mut predicted_region) {
                break;
            }
        }
        appended
    }

    /// The window contents as the deque implementation would store them
    /// (`[base, materialized)`, `None` = empty slot). Diagnostics for the
    /// differential suites; not part of the reconstruction API.
    #[doc(hidden)]
    pub fn window_snapshot(&self) -> Vec<Option<BlockAddr>> {
        (self.base..self.materialized)
            .map(|abs| {
                self.is_occupied(abs)
                    .then(|| self.slots[(abs & self.slot_mask) as usize])
            })
            .collect()
    }

    /// `(base, horizon, next_rmob, primed, exhausted)` for the
    /// differential suites.
    #[doc(hidden)]
    pub fn cursor_state(&self) -> (u64, u64, u64, bool, bool) {
        (
            self.base,
            self.horizon,
            self.next_rmob,
            self.primed,
            self.exhausted,
        )
    }
}

/// A reusable arena for per-stream allocations, handed down from the
/// engine so stream churn stops allocating in steady state.
///
/// Every reconstructed stream needs a boxed [`Reconstructor`] (a 256-slot
/// window deque plus PST-expansion scratch) and every spatial-only stream
/// a `VecDeque` of fixed addresses. Both live exactly as long as their
/// stream queue, so when [`crate::streams::StreamQueues::start`] retires a
/// victim's source, its buffers come back here instead of being freed.
#[derive(Clone, Debug, Default)]
pub struct ReconPool {
    // Deliberately Box: the box moves into `StemsSource::Recon` whole, so
    // pooling it recycles that allocation too, not just the buffers inside.
    #[allow(clippy::vec_box)]
    recons: Vec<Box<Reconstructor>>,
    deques: Vec<VecDeque<BlockAddr>>,
}

/// Spare-list bound: the paper runs 8 stream queues, so a few times that
/// covers every live-plus-retiring stream without hoarding.
const POOL_CAPACITY: usize = 32;

impl ReconPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A reconstructor initialized as `Reconstructor::new(rmob_pos,
    /// capacity, search)`, reusing a pooled allocation when available.
    pub fn take_recon(
        &mut self,
        rmob_pos: u64,
        capacity: usize,
        search: usize,
    ) -> Box<Reconstructor> {
        match self.recons.pop() {
            Some(mut r) => {
                r.reset(rmob_pos, capacity, search);
                r
            }
            None => Box::new(Reconstructor::new(rmob_pos, capacity, search)),
        }
    }

    /// Returns a retired reconstructor's allocations to the pool.
    pub fn put_recon(&mut self, recon: Box<Reconstructor>) {
        if self.recons.len() < POOL_CAPACITY {
            self.recons.push(recon);
        }
    }

    /// An empty deque for a spatial-only stream's fixed addresses,
    /// reusing a pooled allocation when available.
    pub fn take_deque(&mut self) -> VecDeque<BlockAddr> {
        let mut q = self.deques.pop().unwrap_or_default();
        q.clear();
        q
    }

    /// Returns a retired fixed-address deque to the pool.
    pub fn put_deque(&mut self, deque: VecDeque<BlockAddr>) {
        if self.deques.len() < POOL_CAPACITY {
            self.deques.push(deque);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::{BlockOffset, Delta, Pc, RegionAddr, SpatialSequence};

    fn entry(region: u64, offset: u8, pc: u64, delta: u8) -> RmobEntry {
        RmobEntry {
            block: RegionAddr::new(region).block_at(BlockOffset::new(offset)),
            pc: Pc::new(pc),
            delta: Delta::from(delta),
        }
    }

    fn seq(items: &[(u8, u8)]) -> SpatialSequence {
        items
            .iter()
            .map(|&(o, d)| (BlockOffset::new(o), Delta::from(d)))
            .collect()
    }

    /// Rebuilds the Figure 3 / Figure 5 example and checks the
    /// reconstructed total order.
    ///
    /// Observed order: A A+4 B A+2 B+6 A-1 C D D+1 D+2 (regions A,B,C,D;
    /// "X+n" meaning offset n within region X; the paper's relative
    /// offsets are encoded region-relative here with the trigger at a
    /// nonzero offset).
    #[test]
    fn figure5_reconstruction() {
        // Region-relative encoding: trigger of A at offset 8; A+4 -> 12,
        // A+2 -> 10, A-1 -> 7. Triggers of B, C, D at offset 0.
        let mut rmob: OrderBuffer<RmobEntry> = OrderBuffer::new(64);
        rmob.append(entry(0xA, 8, 1, 0)); // A (pos 0)
        rmob.append(entry(0xB, 0, 2, 1)); // B skips one (A+4)
        rmob.append(entry(0xC, 0, 3, 3)); // C skips A+2, B+6, A-1
        rmob.append(entry(0xD, 0, 4, 0)); // D immediately follows

        let mut pst = Pst::new(16);
        // Each sequence is trained twice: elements predict at counter 2.
        for _ in 0..2 {
            pst.train(
                spatial_index(Pc::new(1), BlockOffset::new(8)),
                &seq(&[(12, 0), (10, 1), (7, 1)]),
            );
            pst.train(
                spatial_index(Pc::new(2), BlockOffset::new(0)),
                &seq(&[(6, 1)]),
            );
            pst.train(
                spatial_index(Pc::new(4), BlockOffset::new(0)),
                &seq(&[(1, 0), (2, 0)]),
            );
        }

        let mut r = Reconstructor::new(0, 64, 2);
        let out = r.produce(16, &rmob, &mut pst, |_, _| {});
        let expect: Vec<BlockAddr> = vec![
            RegionAddr::new(0xA).block_at(BlockOffset::new(8)), // A (slot 0)
            RegionAddr::new(0xA).block_at(BlockOffset::new(12)), // A+4
            RegionAddr::new(0xB).block_at(BlockOffset::new(0)), // B
            RegionAddr::new(0xA).block_at(BlockOffset::new(10)), // A+2
            RegionAddr::new(0xB).block_at(BlockOffset::new(6)), // B+6
            RegionAddr::new(0xA).block_at(BlockOffset::new(7)), // A-1
            RegionAddr::new(0xC).block_at(BlockOffset::new(0)), // C
            RegionAddr::new(0xD).block_at(BlockOffset::new(0)), // D
            RegionAddr::new(0xD).block_at(BlockOffset::new(1)), // D+1
            RegionAddr::new(0xD).block_at(BlockOffset::new(2)), // D+2
        ];
        assert_eq!(out, expect);
        assert_eq!(r.stats.exact, r.stats.attempts());
        assert_eq!(r.stats.dropped_conflict + r.stats.dropped_window, 0);
    }

    #[test]
    fn conflicting_slot_searches_adjacent() {
        let mut rmob: OrderBuffer<RmobEntry> = OrderBuffer::new(8);
        rmob.append(entry(0xA, 0, 1, 0));
        let mut pst = Pst::new(8);
        // Two spatial elements whose deltas name the same slot: (1,0) at
        // slot 1, then from slot 1 delta... make second element collide:
        // (2, delta such that lands on slot 1 again is impossible going
        // forward). Instead collide trigger+spatial: spatial (1,0) -> slot
        // 1, (2,0) -> slot 2, (3, 0) -> slot 3: no conflict. Build a
        // conflict via two sequences is not possible with one region, so
        // collide with slot 0 (occupied by the initial miss): delta chain
        // starting before it cannot happen; instead verify the drop path
        // with a saturated window.
        for _ in 0..2 {
            pst.train(
                spatial_index(Pc::new(1), BlockOffset::new(0)),
                &seq(&[(1, 0), (2, 0)]),
            );
        }
        let mut r = Reconstructor::new(0, 2, 2); // tiny window: cap 2 slots
        let out = r.produce(8, &rmob, &mut pst, |_, _| {});
        // Window holds slots 0..2: initial miss + first spatial element;
        // the second is beyond the window. Draining frees slots, but
        // expansion already consumed the entry.
        assert_eq!(out.len(), 2);
        assert!(r.stats.dropped_window >= 1);
    }

    #[test]
    fn produce_in_small_chunks_resumes() {
        let mut rmob: OrderBuffer<RmobEntry> = OrderBuffer::new(64);
        for i in 0..10 {
            rmob.append(entry(i, 0, 100 + i, 0));
        }
        let mut pst = Pst::new(8);
        let mut r = Reconstructor::new(0, 64, 2);
        let mut all = Vec::new();
        loop {
            let chunk = r.produce(3, &rmob, &mut pst, |_, _| {});
            if chunk.is_empty() {
                break;
            }
            all.extend(chunk);
        }
        assert_eq!(all.len(), 10);
        for (i, b) in all.iter().enumerate() {
            assert_eq!(b.region(), RegionAddr::new(i as u64));
        }
    }

    #[test]
    fn predicted_region_callback_reports_index() {
        let mut rmob: OrderBuffer<RmobEntry> = OrderBuffer::new(8);
        rmob.append(entry(0xA, 0, 1, 0));
        let mut pst = Pst::new(8);
        let idx = spatial_index(Pc::new(1), BlockOffset::new(0));
        pst.train(idx, &seq(&[(5, 0)]));
        pst.train(idx, &seq(&[(5, 0)]));
        let mut seen = Vec::new();
        let mut r = Reconstructor::new(0, 64, 2);
        r.produce(4, &rmob, &mut pst, |region, i| seen.push((region, i)));
        assert_eq!(seen, vec![(RegionAddr::new(0xA), idx)]);
    }

    /// A recycled (reset) bitmap reconstructor must behave exactly like a
    /// fresh one — stale occupancy bits from the previous stream must not
    /// leak into placements, including across capacity changes.
    #[test]
    fn reset_clears_occupancy_exactly() {
        let mut rmob: OrderBuffer<RmobEntry> = OrderBuffer::new(64);
        for i in 0..24 {
            rmob.append(entry(i, (i % 32) as u8, 100 + i, (i % 3) as u8));
        }
        let mut pst = Pst::new(8);
        let mut recycled = Reconstructor::new(0, 64, 2);
        // Leave the window mid-reconstruction with occupied slots.
        recycled.produce_into(5, &rmob, &mut pst, |_, _| {}, &mut VecDeque::new());
        for (cap, search) in [(64usize, 2usize), (16, 1), (256, 4)] {
            recycled.reset(3, cap, search);
            let mut fresh = Reconstructor::new(3, cap, search);
            let mut a = VecDeque::new();
            let mut b = VecDeque::new();
            recycled.produce_into(32, &rmob, &mut pst, |_, _| {}, &mut a);
            fresh.produce_into(32, &rmob, &mut pst, |_, _| {}, &mut b);
            assert_eq!(a, b, "cap {cap} search {search}");
            assert_eq!(recycled.stats, fresh.stats, "cap {cap} search {search}");
            assert_eq!(
                recycled.window_snapshot(),
                fresh.window_snapshot(),
                "cap {cap} search {search}"
            );
        }
    }

    #[test]
    fn stats_fractions() {
        let s = ReconStats {
            exact: 92,
            shifted1: 5,
            shifted2: 2,
            dropped_conflict: 1,
            dropped_window: 0,
        };
        assert_eq!(s.attempts(), 100);
        assert!((s.exact_fraction() - 0.92).abs() < 1e-12);
        assert!((s.placed_fraction() - 0.99).abs() < 1e-12);
        let mut t = ReconStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.attempts(), 200);
    }
}
