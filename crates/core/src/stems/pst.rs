//! The pattern sequence table (PST).
//!
//! STeMS's spatial history (Section 4.1/4.3): like the SMS PHT it is
//! indexed by (trigger PC, trigger offset), but instead of a bit vector
//! each entry stores the region's access *sequence* — block offsets in
//! first-access order, each with an 8-bit reconstruction delta and a 2-bit
//! saturating counter. 16K entries x 40B puts it in main memory in
//! hardware; functionally it is a bounded LRU map.
//!
//! PR 5 profiling pinned PST probes during reconstruction expansion as
//! STeMS's last table-lookup bottleneck (~8–12 placement attempts per
//! access on em3d, each expansion consulting the table), so [`Pst`] is a
//! purpose-built open-addressed table rather than a general
//! [`LruTable`](crate::util::LruTable):
//!
//! * **spatial-index-keyed slots** — power-of-two probe array keyed by
//!   one [`fx_hash_u64`] multiply, linear probing, with occupancy and
//!   tombstone state folded into the slot's id field as sentinels
//!   (`EMPTY`/`TOMBSTONE`) and the key stored alongside, so a probe
//!   step is one 16-byte slot load with no dependent fetch. (Two
//!   earlier cuts measured slower and were replaced: separate
//!   occupancy/tombstone [`FlatBitmap`](stems_types::FlatBitmap) planes
//!   cost three loads per step — the bitmap helper now serves the
//!   reconstruction window's occupancy instead — and a key side array
//!   indexed by entry id serialized every step on a
//!   `slot → id → key` chase.);
//! * **dense side-array recency** — entries live in dense parallel
//!   arrays (`keys` / `values` / back-pointing `slot_of`) with the PR 5
//!   packed `u32`-pair recency links, so an LRU eviction clears its slot
//!   through the back-pointer in O(1) without rehashing and a recency
//!   splice never drags a fat `SpatialSequence` cache line;
//! * **single-probe trigger resolution** — the dense ids are public
//!   currency: [`Pst::lookup_id`] + [`Pst::sequence_at`] +
//!   [`Pst::entry_matches`] let the engine's generation-trigger path
//!   read the predicted pattern *and* stream the stored sequence off one
//!   probe, where the old surface forced a `lookup` followed by a
//!   re-probing `peek`.
//!
//! Every key resolution is scalar: a batched lookup with deferred
//! recency was measured as an end-to-end loss and removed (see
//! [`Reconstructor::expand_one`](crate::stems::recon::Reconstructor::expand_one)).
//!
//! The previous `LruTable`-backed implementation is kept as the test
//! oracle `LruPst` in `tests/support/mod.rs` and pinned against this one
//! by the property suite in `tests/pst_differential.rs` (hit/miss
//! results, victim order, arena accounting), beside the deque-window
//! reconstruction oracle.

use stems_types::{fx_hash_u64, SequenceArena, SpatialSequence};

const NIL: u32 = u32::MAX;

/// Sentinel returned by [`Pst::lookup_id`] for an index with no
/// resident sequence.
pub const PST_MISS: u32 = u32::MAX;

/// Slot-word sentinel: this slot has never held an entry — a probe chain
/// ends here.
const EMPTY: u32 = u32::MAX;

/// Slot-word sentinel: this slot was vacated by an eviction — probe
/// chains continue through it, inserts may reclaim it.
const TOMBSTONE: u32 = u32::MAX - 1;

/// Packed recency-list node (PR 5 style): dense, so an unlink/push-front
/// splice lands in one or two cache lines away from the fat values.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

/// One physical slot: the dense entry id (or [`EMPTY`]/[`TOMBSTONE`])
/// *with the key stored alongside*. Keeping the key in the slot makes a
/// probe step one 16-byte load with no dependent fetch — an earlier cut
/// kept keys in a dense side array, and the serialized
/// `slot → id → keys[id]` chase per step measurably lost to the
/// hash-map backing on reconstruction-heavy workloads (em3d).
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: u32,
    /// Valid only when `id < TOMBSTONE`.
    key: u64,
}

/// Result of probing the slot array for a key.
enum Probe {
    /// Resident: dense entry id.
    Hit { id: u32 },
    /// Absent: the slot an insert should use — the first tombstone on
    /// the probe path if any, else the never-used slot that ended it.
    Miss { insert_slot: usize },
}

/// The bounded PST: an open-addressed, LRU-evicting map from spatial
/// index to [`SpatialSequence`].
#[derive(Clone, Debug)]
pub struct Pst {
    /// Physical slot array: id + occupancy state + key in one 16-byte
    /// unit, so a probe step loads exactly one slot (and usually one
    /// cache line) before deciding hit/continue/stop.
    slot_entry: Vec<Slot>,
    /// `64 - log2(slots)`: the slot is the hash's top bits, where the
    /// Fx multiply concentrates the mixing.
    hash_shift: u32,
    /// `slot_entry.len() - 1` for the wrap mask.
    slot_mask: usize,
    /// Set tombstone bits (rebuild trigger).
    tombstones: usize,
    /// Physical-size ceiling: `(2 * capacity).next_power_of_two()`, so a
    /// full table still probes at load factor <= 1/2. Growth toward it
    /// is lazy doubling — most sessions never fill the paper-size PST,
    /// and eager full pre-sizing measured as a net loss in PR 5.
    max_physical: usize,
    /// Dense entry storage, parallel by id.
    keys: Vec<u64>,
    values: Vec<SpatialSequence>,
    /// Dense id -> physical slot (back-pointer for O(1) eviction).
    slot_of: Vec<u32>,
    links: Vec<Link>,
    free: Vec<u32>,
    head: u32, // MRU
    tail: u32, // LRU
    len: usize,
    capacity: usize,
    trainings: u64,
    /// Slot-array probes issued (one per key resolved, not per probe
    /// step): the counter behind the `pst_probes_per_access` diagnostic.
    /// A `Cell` so read-only probes (`peek`) count too.
    probes: std::cell::Cell<u64>,
}

impl Pst {
    /// Creates a PST with `entries` capacity (16K in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "Pst capacity must be nonzero");
        assert!(
            entries < TOMBSTONE as usize / 2,
            "capacity exceeds the u32 entry range"
        );
        let max_physical = (2 * entries).next_power_of_two();
        let physical = max_physical.min(64);
        Pst {
            slot_entry: vec![Slot { id: EMPTY, key: 0 }; physical],
            hash_shift: 64 - physical.trailing_zeros(),
            slot_mask: physical - 1,
            tombstones: 0,
            max_physical,
            keys: Vec::new(),
            values: Vec::new(),
            slot_of: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity: entries,
            trainings: 0,
            probes: std::cell::Cell::new(0),
        }
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (fx_hash_u64(key) >> self.hash_shift) as usize
    }

    /// Linear probe from `key`'s home slot. The loop is bounded by the
    /// physical size: occupancy never exceeds half the slots, so a full
    /// wrap — possible only in degenerate tiny tables where tombstones
    /// briefly fill the rest — still terminates with a reusable
    /// tombstone in hand.
    #[inline]
    fn probe(&self, key: u64) -> Probe {
        self.probes.set(self.probes.get() + 1);
        let mut slot = self.home_slot(key);
        // Deriving the wrap mask from the slice length (physical size is
        // always a power of two) lets the compiler prove `slot & mask`
        // in-bounds and drop the per-step bounds check.
        let entries = self.slot_entry.as_slice();
        let mask = entries.len() - 1;
        let mut insert_slot = usize::MAX;
        for _ in 0..entries.len() {
            let Slot { id, key: slot_key } = entries[slot & mask];
            if id < TOMBSTONE {
                if slot_key == key {
                    return Probe::Hit { id };
                }
            } else if id == EMPTY {
                return Probe::Miss {
                    insert_slot: if insert_slot != usize::MAX {
                        insert_slot
                    } else {
                        slot
                    },
                };
            } else if insert_slot == usize::MAX {
                insert_slot = slot;
            }
            slot = (slot + 1) & mask;
        }
        debug_assert_ne!(insert_slot, usize::MAX, "full wrap with no reusable slot");
        Probe::Miss { insert_slot }
    }

    fn unlink(&mut self, i: u32) {
        let Link { prev, next } = self.links[i as usize];
        if prev != NIL {
            self.links[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.links[i as usize] = Link {
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            self.links[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Refreshes live entry `id` to most-recently-used: the recency
    /// effect of every hit.
    #[inline]
    fn touch(&mut self, id: u32) {
        debug_assert!(
            (self.slot_of[id as usize] as usize) <= self.slot_mask
                && self.slot_entry[self.slot_of[id as usize] as usize].id == id,
            "touch of a dead entry id"
        );
        if self.head != id {
            self.unlink(id);
            self.push_front(id);
        }
    }

    /// The sequence stored under a dense entry id from
    /// [`Pst::lookup_id`], valid until the next training (training can
    /// evict entries and recycle their ids).
    #[inline]
    pub fn sequence_at(&self, id: u32) -> &SpatialSequence {
        &self.values[id as usize]
    }

    /// The stored sequence for `index`, refreshing recency. Inlined into
    /// the reconstruction expansion loop (its hottest caller).
    #[inline]
    pub fn lookup(&mut self, index: u64) -> Option<&SpatialSequence> {
        match self.probe(index) {
            Probe::Hit { id } => {
                self.touch(id);
                Some(&self.values[id as usize])
            }
            Probe::Miss { .. } => None,
        }
    }

    /// Single-probe [`Pst::lookup`] returning the dense entry id
    /// ([`PST_MISS`] on a miss) instead of the sequence, with the same
    /// recency refresh. The trigger path pairs it with
    /// [`Pst::sequence_at`] and [`Pst::entry_matches`], so reading the
    /// predicted pattern *and* streaming the sequence costs one probe
    /// where `lookup` + `peek` cost two.
    #[inline]
    pub fn lookup_id(&mut self, index: u64) -> u32 {
        match self.probe(index) {
            Probe::Hit { id } => {
                self.touch(id);
                id
            }
            Probe::Miss { .. } => PST_MISS,
        }
    }

    /// O(1) revalidation (no probe) that dense id `id` still holds
    /// `index`: eviction kills the id (its back-pointer is cleared),
    /// free-list reuse rebinds it to a different key, and a retrain of
    /// the same index keeps both. For an id from this access's
    /// [`Pst::lookup_id`] hit — MRU, so a single intervening training
    /// can only displace it at capacity 1, necessarily with a different
    /// key — this is `true` exactly when a fresh [`Pst::peek`] of
    /// `index` would hit.
    #[inline]
    pub fn entry_matches(&self, id: u32, index: u64) -> bool {
        id != PST_MISS && self.slot_of[id as usize] != NIL && self.keys[id as usize] == index
    }

    /// The stored sequence without a recency update.
    pub fn peek(&self, index: u64) -> Option<&SpatialSequence> {
        match self.probe(index) {
            Probe::Hit { id } => Some(&self.values[id as usize]),
            Probe::Miss { .. } => None,
        }
    }

    /// Doubles toward `max_physical` when an insert would push load past
    /// 1/2, and rebuilds in place when tombstones reach a quarter of the
    /// slots (bounding probe chains). Called before any probe that may
    /// insert, since both invalidate probed slot positions.
    fn prepare_for_insert(&mut self) {
        let physical = self.slot_entry.len();
        if self.len + 1 > physical / 2 && physical < self.max_physical {
            let mut grown = physical;
            while self.len + 1 > grown / 2 && grown < self.max_physical {
                grown *= 2;
            }
            self.rebuild(grown);
        } else if self.tombstones * 4 >= physical {
            self.rebuild(physical);
        }
    }

    /// Rehashes every live entry into a clean slot array of
    /// `new_physical` slots (tombstones drop; probe chains reset).
    fn rebuild(&mut self, new_physical: usize) {
        self.slot_entry.clear();
        self.slot_entry
            .resize(new_physical, Slot { id: EMPTY, key: 0 });
        self.hash_shift = 64 - new_physical.trailing_zeros();
        self.slot_mask = new_physical - 1;
        self.tombstones = 0;
        let mut id = self.head;
        while id != NIL {
            let key = self.keys[id as usize];
            let mut slot = self.home_slot(key);
            while self.slot_entry[slot].id != EMPTY {
                slot = (slot + 1) & self.slot_mask;
            }
            self.slot_entry[slot] = Slot { id, key };
            self.slot_of[id as usize] = slot as u32;
            id = self.links[id as usize].next;
        }
    }

    /// Inserts a key known absent at its probed `slot`, evicting the LRU
    /// entry first when at capacity. Returns the victim's sequence for
    /// the caller to recycle (or drop).
    fn insert_at(
        &mut self,
        slot: usize,
        key: u64,
        value: SpatialSequence,
    ) -> Option<SpatialSequence> {
        let mut victim = None;
        if self.len == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.slot_entry[self.slot_of[lru as usize] as usize].id = TOMBSTONE;
            // Break the dense id: `entry_matches` must see an evicted id
            // as dead even before the free list recycles it.
            self.slot_of[lru as usize] = NIL;
            self.tombstones += 1;
            self.free.push(lru);
            self.len -= 1;
            victim = Some(std::mem::take(&mut self.values[lru as usize]));
        }
        if self.slot_entry[slot].id == TOMBSTONE {
            self.tombstones -= 1;
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.keys[id as usize] = key;
                self.values[id as usize] = value;
                self.slot_of[id as usize] = slot as u32;
                id
            }
            None => {
                let id = self.keys.len() as u32;
                self.keys.push(key);
                self.values.push(value);
                self.slot_of.push(slot as u32);
                self.links.push(Link {
                    prev: NIL,
                    next: NIL,
                });
                id
            }
        };
        self.slot_entry[slot] = Slot { id, key };
        self.push_front(id);
        self.len += 1;
        victim
    }

    /// Trains `index` with the sequence observed over a completed
    /// generation (empty observations are ignored).
    pub fn train(&mut self, index: u64, observed: &SpatialSequence) {
        if observed.is_empty() {
            return;
        }
        self.trainings += 1;
        self.prepare_for_insert();
        match self.probe(index) {
            Probe::Hit { id } => {
                self.touch(id);
                self.values[id as usize].retrain(observed);
            }
            Probe::Miss { insert_slot } => {
                self.insert_at(insert_slot, index, observed.clone());
            }
        }
    }

    /// [`Pst::train`] taking ownership of the observed sequence and
    /// recycling every buffer through `arena`: the observed buffer
    /// returns to the arena after a retrain (or moves into the table on
    /// first insert, uncloned), the retrain merge runs in arena scratch,
    /// and an LRU-evicted victim's buffer is reclaimed too. Table state
    /// after the call is identical to [`Pst::train`].
    pub fn train_owned(
        &mut self,
        index: u64,
        observed: SpatialSequence,
        arena: &mut SequenceArena,
    ) {
        if observed.is_empty() {
            arena.put(observed);
            return;
        }
        self.trainings += 1;
        self.prepare_for_insert();
        // Single-probe train: the AGT→PST handoff runs on every retired
        // generation, and both the retrain and insert cases resolve the
        // slot array exactly once.
        match self.probe(index) {
            Probe::Hit { id } => {
                self.touch(id);
                self.values[id as usize].retrain_in(&observed, arena);
                arena.put(observed);
            }
            Probe::Miss { insert_slot } => {
                if let Some(victim) = self.insert_at(insert_slot, index, observed) {
                    arena.put(victim);
                }
            }
        }
    }

    /// Completed generations trained into the table.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Total key probes issued against the slot array (lookups, peeks
    /// and trainings), regardless of probe-chain length. Divided by
    /// simulated accesses this is perfbench's `stems.pst.probes_per_acc`
    /// row.
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// Number of resident sequences.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident spatial indices from most- to least-recently-used.
    /// Diagnostics for the differential suites (victim order is the
    /// suffix of this list); not part of the prediction API.
    #[doc(hidden)]
    pub fn recency_snapshot(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut id = self.head;
        while id != NIL {
            out.push(self.keys[id as usize]);
            id = self.links[id as usize].next;
        }
        out
    }

    /// Physical slot count (diagnostics: growth stays bounded by
    /// `2 * capacity` rounded up to a power of two).
    #[doc(hidden)]
    pub fn physical_slots(&self) -> usize {
        self.slot_entry.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_types::{BlockOffset, Delta};

    fn seq(items: &[(u8, u8)]) -> SpatialSequence {
        items
            .iter()
            .map(|&(o, d)| (BlockOffset::new(o), Delta::from(d)))
            .collect()
    }

    #[test]
    fn lookup_after_train() {
        let mut pst = Pst::new(4);
        pst.train(1, &seq(&[(4, 0), (2, 1)]));
        let s = pst.lookup(1).unwrap();
        let order: Vec<u8> = s.iter().map(|e| e.offset.get()).collect();
        assert_eq!(order, [4, 2]);
        assert!(pst.lookup(2).is_none());
    }

    #[test]
    fn retrain_merges() {
        let mut pst = Pst::new(4);
        pst.train(1, &seq(&[(4, 0), (2, 1)]));
        pst.train(1, &seq(&[(4, 3)]));
        let s = pst.peek(1).unwrap();
        assert_eq!(s.get(BlockOffset::new(4)).unwrap().delta.get(), 3);
        assert_eq!(s.get(BlockOffset::new(4)).unwrap().counter.get(), 2);
        assert!(s.get(BlockOffset::new(2)).is_none(), "decayed to zero");
        assert_eq!(pst.trainings(), 2);
    }

    #[test]
    fn empty_observation_ignored() {
        let mut pst = Pst::new(4);
        pst.train(9, &SpatialSequence::new());
        assert!(pst.is_empty());
        assert_eq!(pst.trainings(), 0);
    }

    #[test]
    fn capacity_bounded() {
        let mut pst = Pst::new(2);
        pst.train(1, &seq(&[(1, 0)]));
        pst.train(2, &seq(&[(2, 0)]));
        pst.train(3, &seq(&[(3, 0)]));
        assert_eq!(pst.len(), 2);
        assert!(pst.peek(1).is_none());
    }

    #[test]
    fn growth_stays_bounded_and_lookups_survive_churn() {
        let mut pst = Pst::new(1000);
        for k in 0..5000u64 {
            pst.train(k, &seq(&[((k % 32) as u8, 0)]));
        }
        assert_eq!(pst.len(), 1000);
        assert_eq!(pst.physical_slots(), 2048, "ceiling is 2*capacity pow2");
        // The newest 1000 keys are resident, the rest evicted.
        for k in 4000..5000u64 {
            let s = pst.peek(k).unwrap();
            assert!(s.contains(BlockOffset::new((k % 32) as u8)));
        }
        assert!(pst.peek(3999).is_none());
    }

    #[test]
    fn tombstone_churn_at_tiny_capacity_keeps_probes_correct() {
        // Capacity 1 exercises the degenerate occupied+tombstone == slots
        // window between an eviction and the next rebuild.
        let mut pst = Pst::new(1);
        for k in 0..200u64 {
            pst.train(k, &seq(&[(1, 0)]));
            assert_eq!(pst.len(), 1);
            assert!(pst.peek(k).is_some());
            assert!(pst.peek(k + 1).is_none());
            assert!(pst.peek(k.wrapping_sub(1)).is_none());
        }
    }

    #[test]
    fn dense_id_dies_on_eviction_and_survives_retrain() {
        let mut pst = Pst::new(1);
        pst.train(7, &seq(&[(1, 0)]));
        let id = pst.lookup_id(7);
        assert_ne!(id, PST_MISS);
        assert!(pst.entry_matches(id, 7));
        assert!(!pst.entry_matches(id, 8), "wrong key must not revalidate");
        // Retraining the same index keeps the entry (and its id) alive.
        pst.train(7, &seq(&[(1, 2)]));
        assert!(pst.entry_matches(id, 7));
        // Training another key at capacity 1 evicts it; the recycled id
        // must read as dead for the old key even though it is live again
        // under the new one.
        pst.train(8, &seq(&[(2, 0)]));
        assert!(!pst.entry_matches(id, 7));
        assert_eq!(pst.lookup_id(7), PST_MISS);
    }

    #[test]
    fn probes_count_every_key_resolution() {
        let mut pst = Pst::new(4);
        let start = pst.probes();
        pst.train(1, &seq(&[(1, 0)]));
        pst.lookup(1);
        pst.peek(2);
        let id = pst.lookup_id(1);
        // entry_matches is probe-free.
        assert!(pst.entry_matches(id, 1));
        assert_eq!(pst.probes() - start, 1 + 1 + 1 + 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = Pst::new(0);
    }
}
