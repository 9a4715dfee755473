//! Test oracles shared by the differential suites: the implementations
//! the shipped `Pst` and `Reconstructor` replaced, kept verbatim and
//! built only from the crate's public API. The suites drive identical
//! streams through an oracle and its replacement and require every
//! observable to match exactly.

// Each suite uses its own subset.
#![allow(dead_code)]

use std::collections::VecDeque;

use stems_core::sms::spatial_index;
use stems_core::stems::{Pst, ReconStats, RmobEntry};
use stems_core::util::{Entry, LruTable, OrderBuffer};
use stems_types::{BlockAddr, SequenceArena, SpatialSequence};

/// The pre-open-addressing PST, retained verbatim as a differential
/// oracle: a general-purpose `LruTable` with an FxHash map index,
/// mirroring `Pst`'s training and lookup surface. The property suite in
/// `tests/pst_differential.rs` drives identical train/lookup streams
/// through this and `Pst` and requires hit/miss results, recency/victim
/// order, and arena-buffer accounting to match exactly.
#[derive(Clone, Debug)]
pub struct LruPst {
    table: LruTable<u64, SpatialSequence>,
    trainings: u64,
}

impl LruPst {
    /// Mirrors `Pst::new`.
    pub fn new(entries: usize) -> Self {
        LruPst {
            table: LruTable::new(entries),
            trainings: 0,
        }
    }

    /// Mirrors `Pst::lookup`.
    pub fn lookup(&mut self, index: u64) -> Option<&SpatialSequence> {
        self.table.get(&index).map(|s| &*s)
    }

    /// Mirrors `Pst::peek`.
    pub fn peek(&self, index: u64) -> Option<&SpatialSequence> {
        self.table.peek(&index)
    }

    /// Mirrors `Pst::train`.
    pub fn train(&mut self, index: u64, observed: &SpatialSequence) {
        if observed.is_empty() {
            return;
        }
        self.trainings += 1;
        match self.table.entry(index) {
            Entry::Occupied(mut stored) => stored.get_mut().retrain(observed),
            Entry::Vacant(slot) => {
                slot.insert(observed.clone());
            }
        }
    }

    /// Mirrors `Pst::train_owned`.
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
        match self.table.entry(index) {
            Entry::Occupied(mut stored) => {
                stored.get_mut().retrain_in(&observed, arena);
                arena.put(observed);
            }
            Entry::Vacant(slot) => {
                if let Some((_, victim)) = slot.insert(observed) {
                    arena.put(victim);
                }
            }
        }
    }

    /// Mirrors `Pst::trainings`.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Mirrors `Pst::len`.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Mirrors `Pst::is_empty`.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Mirrors `Pst::recency_snapshot`.
    pub fn recency_snapshot(&self) -> Vec<u64> {
        self.table.iter().map(|(&k, _)| k).collect()
    }
}

/// The pre-bitmap reconstruction window, retained verbatim as a
/// differential oracle: a `VecDeque<Option<BlockAddr>>` window with lazy
/// `push_back(None)` materialization and per-slot probing, mirroring
/// `Reconstructor`'s API. The suite in `tests/recon_differential.rs`
/// drives identical RMOB/PST streams through this and the bitmap ring
/// and requires placement slots, `ReconStats`, window contents, and
/// drain order to match exactly.
#[derive(Clone, Debug)]
pub struct DequeReconstructor {
    slots: VecDeque<Option<BlockAddr>>,
    base: u64,
    horizon: u64,
    next_rmob: u64,
    capacity: usize,
    search: usize,
    primed: bool,
    exhausted: bool,
    predicted_scratch: Vec<(u8, u8)>,
    /// Placement statistics for this reconstruction.
    pub stats: ReconStats,
}

impl DequeReconstructor {
    /// Mirrors `Reconstructor::new`.
    pub fn new(rmob_pos: u64, capacity: usize, search: usize) -> Self {
        DequeReconstructor {
            slots: VecDeque::with_capacity(capacity.min(256)),
            base: 0,
            horizon: 0,
            next_rmob: rmob_pos,
            capacity,
            search,
            primed: false,
            exhausted: false,
            predicted_scratch: Vec::new(),
            stats: ReconStats::default(),
        }
    }

    fn slot_at(&mut self, abs: u64) -> Option<&mut Option<BlockAddr>> {
        if abs < self.base {
            return None; // already drained past
        }
        let rel = (abs - self.base) as usize;
        if rel >= self.capacity {
            return None; // beyond the window
        }
        while self.slots.len() <= rel {
            self.slots.push_back(None);
        }
        Some(&mut self.slots[rel])
    }

    fn place(&mut self, abs: u64, block: BlockAddr) -> Option<u64> {
        if abs >= self.base + self.capacity as u64 {
            self.stats.dropped_window += 1;
            return None;
        }
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

    fn try_place(&mut self, candidate: u64, block: BlockAddr) -> bool {
        match self.slot_at(candidate) {
            Some(slot @ None) => {
                *slot = Some(block);
                true
            }
            _ => false,
        }
    }

    fn bump_shifted(&mut self, dist: u64) {
        if dist == 1 {
            self.stats.shifted1 += 1;
        } else {
            self.stats.shifted2 += 1;
        }
    }

    /// Mirrors `Reconstructor::expand_one`.
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
            if let Some(slot) = self.slot_at(0) {
                *slot = Some(entry.block);
            }
            Some(0)
        } else {
            let target = self.horizon + entry.delta.get() as u64 + 1;
            if target >= self.base + self.capacity as u64 {
                return false;
            }
            self.horizon = target;
            self.place(target, entry.block)
        };
        let anchor = match trigger_slot {
            Some(s) => s,
            None => self.horizon,
        };
        let region = entry.block.region();
        let index = spatial_index(entry.pc, entry.block.offset_in_region());
        self.predicted_scratch.clear();
        if let Some(seq) = pst.lookup(index) {
            self.predicted_scratch
                .extend(seq.predicted().map(|e| (e.offset.get(), e.delta.get())));
        }
        if !self.predicted_scratch.is_empty() {
            predicted_region(region, index);
            let mut prev = anchor;
            for i in 0..self.predicted_scratch.len() {
                let (offset, delta) = self.predicted_scratch[i];
                let target = prev + delta as u64 + 1;
                let off = stems_types::BlockOffset::new(offset);
                match self.place(target, region.block_at(off)) {
                    Some(slot) => prev = slot,
                    None => prev = target.min(self.base + self.capacity as u64 - 1),
                }
            }
        }
        self.next_rmob += 1;
        true
    }

    /// Mirrors `Reconstructor::produce_into`.
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
                if !self.expand_one(rmob, pst, &mut predicted_region) {
                    self.exhausted = true;
                }
                continue;
            }
            match self.slots.pop_front() {
                Some(opt) => {
                    self.base += 1;
                    if let Some(block) = opt {
                        out.push_back(block);
                        appended += 1;
                    }
                }
                None => {
                    if self.exhausted || !self.expand_one(rmob, pst, &mut predicted_region) {
                        break;
                    }
                }
            }
        }
        appended
    }

    /// Mirrors `Reconstructor::window_snapshot`.
    pub fn window_snapshot(&self) -> Vec<Option<BlockAddr>> {
        self.slots.iter().copied().collect()
    }

    /// Mirrors `Reconstructor::cursor_state`.
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
