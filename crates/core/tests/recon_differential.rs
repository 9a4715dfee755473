//! Property-based differential suite for the bitmap reconstruction
//! window (PR 5): random RMOB/PST streams driven through the flat
//! power-of-two occupancy-bitmap ring (`Reconstructor`) and the retained
//! deque implementation (the `DequeReconstructor` oracle in
//! `support/mod.rs`) must agree exactly — placement slots (via window
//! snapshots), `ReconStats` counters, cursor state, and drain order —
//! across the whole supported search-distance range 0–4.

mod support;

use std::collections::VecDeque;

use proptest::prelude::*;

use stems_core::sms::spatial_index;
use stems_core::stems::{Pst, Reconstructor, Rmob, RmobEntry};
use stems_core::util::XorShift64;
use stems_types::{BlockOffset, Delta, Pc, RegionAddr, SpatialSequence};
use support::DequeReconstructor;

fn rmob_entry(region: u64, offset: u8, pc: u64, delta: u8) -> RmobEntry {
    RmobEntry {
        block: RegionAddr::new(region).block_at(BlockOffset::new(offset % 32)),
        pc: Pc::new(pc),
        delta: Delta::from(delta),
    }
}

fn sequence(items: &[(u8, u8)]) -> SpatialSequence {
    items
        .iter()
        .map(|&(o, d)| (BlockOffset::new(o % 32), Delta::from(d)))
        .collect()
}

proptest! {
    /// Lockstep equivalence over random temporal skeletons, random
    /// trained spatial sequences, and random drain chunk sizes, at every
    /// search distance 0..=4 and across small and paper-size windows.
    #[test]
    fn bitmap_ring_equals_deque_oracle(
        search in 0usize..5,
        capacity_pick in 0usize..4,
        entries in proptest::collection::vec(
            (0u64..20, 0u8..32, 1u64..6, 0u8..6), 1..160),
        trainings in proptest::collection::vec(
            (1u64..6, 0u8..32,
             proptest::collection::vec((0u8..32, 0u8..4), 1..5)), 0..40),
        chunks in proptest::collection::vec(1usize..8, 1..80),
        start in 0u64..32,
    ) {
        let capacity = [2usize, 5, 64, 256][capacity_pick];
        let mut rmob = Rmob::new(256);
        for &(region, offset, pc, delta) in &entries {
            rmob.append(rmob_entry(region, offset, pc, delta));
        }
        let mut pst_ring = Pst::new(32);
        let mut pst_deque = Pst::new(32);
        for (pc, offset, items) in &trainings {
            let s = sequence(items);
            // Trained twice so elements cross the 2-bit counter
            // prediction threshold and actually expand.
            for _ in 0..2 {
                pst_ring.train(spatial_index(Pc::new(*pc), BlockOffset::new(*offset % 32)), &s);
                pst_deque.train(spatial_index(Pc::new(*pc), BlockOffset::new(*offset % 32)), &s);
            }
        }
        let mut ring = Reconstructor::new(start, capacity, search);
        let mut deque = DequeReconstructor::new(start, capacity, search);
        let mut ring_out = VecDeque::new();
        let mut deque_out = VecDeque::new();
        let mut ring_regions = Vec::new();
        let mut deque_regions = Vec::new();
        for (round, &n) in chunks.iter().enumerate() {
            let a = ring.produce_into(
                n, &rmob, &mut pst_ring, |r, i| ring_regions.push((r, i)), &mut ring_out);
            let b = deque.produce_into(
                n, &rmob, &mut pst_deque, |r, i| deque_regions.push((r, i)), &mut deque_out);
            prop_assert_eq!(a, b, "appended count diverged at round {}", round);
            prop_assert_eq!(&ring_out, &deque_out, "drain order diverged at round {}", round);
            prop_assert_eq!(ring.stats, deque.stats, "stats diverged at round {}", round);
            prop_assert_eq!(
                ring.cursor_state(), deque.cursor_state(),
                "cursor state diverged at round {}", round);
            prop_assert_eq!(
                ring.window_snapshot(), deque.window_snapshot(),
                "window contents diverged at round {}", round);
            prop_assert_eq!(
                &ring_regions, &deque_regions,
                "predicted-region callbacks diverged at round {}", round);
            if a == 0 {
                break;
            }
        }
    }

    /// Expansion-granular equivalence: after every single `expand_one`
    /// the two windows hold identical contents, so any placement-slot
    /// divergence is caught at the exact expansion that introduced it.
    #[test]
    fn expansion_steps_agree_slot_by_slot(
        search in 0usize..5,
        entries in proptest::collection::vec(
            (0u64..10, 0u8..32, 1u64..4, 0u8..4), 1..60),
        trainings in proptest::collection::vec(
            (1u64..4, 0u8..32,
             proptest::collection::vec((0u8..32, 0u8..3), 1..4)), 0..20),
    ) {
        let mut rmob = Rmob::new(128);
        for &(region, offset, pc, delta) in &entries {
            rmob.append(rmob_entry(region, offset, pc, delta));
        }
        let mut pst_ring = Pst::new(16);
        let mut pst_deque = Pst::new(16);
        for (pc, offset, items) in &trainings {
            let s = sequence(items);
            for _ in 0..2 {
                pst_ring.train(spatial_index(Pc::new(*pc), BlockOffset::new(*offset % 32)), &s);
                pst_deque.train(spatial_index(Pc::new(*pc), BlockOffset::new(*offset % 32)), &s);
            }
        }
        let mut ring = Reconstructor::new(0, 64, search);
        let mut deque = DequeReconstructor::new(0, 64, search);
        for step in 0..entries.len() + 2 {
            let a = ring.expand_one(&rmob, &mut pst_ring, |_, _| {});
            let b = deque.expand_one(&rmob, &mut pst_deque, |_, _| {});
            prop_assert_eq!(a, b, "expand_one return diverged at step {}", step);
            prop_assert_eq!(ring.stats, deque.stats, "stats diverged at step {}", step);
            prop_assert_eq!(
                ring.window_snapshot(), deque.window_snapshot(),
                "placement slots diverged at step {}", step);
            if !a {
                break;
            }
        }
    }
}

/// Drives random RMOB/PST streams through the bitmap ring and the
/// retained deque oracle in lockstep: window contents, cursor state,
/// ReconStats, and drain order must match exactly after every
/// expansion and every drain chunk.
#[test]
fn bitmap_ring_matches_deque_oracle_under_random_streams() {
    for seed in 0..24u64 {
        let mut rng = XorShift64::new(0x2ECC ^ seed);
        let search = (seed % 5) as usize; // search distances 0..=4
        let capacity = [2usize, 7, 64, 256][(seed % 4) as usize];
        // Random temporal skeleton over a few regions with clustered
        // PCs so PST lookups fire often.
        let mut rmob = Rmob::new(512);
        for _ in 0..200 {
            rmob.append(rmob_entry(
                rng.below(24),
                rng.below(32) as u8,
                1 + rng.below(6),
                rng.below(5) as u8,
            ));
        }
        // Random spatial sequences, trained twice so elements predict.
        let mut pst_new = Pst::new(32);
        let mut pst_old = Pst::new(32);
        for _ in 0..40 {
            let pc = 1 + rng.below(6);
            let off = rng.below(32) as u8;
            let len = 1 + rng.below(4) as usize;
            let s: Vec<(u8, u8)> = (0..len)
                .map(|_| (rng.below(32) as u8, rng.below(4) as u8))
                .collect();
            let index = spatial_index(Pc::new(pc), BlockOffset::new(off));
            for _ in 0..2 {
                pst_new.train(index, &sequence(&s));
                pst_old.train(index, &sequence(&s));
            }
        }
        let start = rng.below(64);
        let mut ring = Reconstructor::new(start, capacity, search);
        let mut deque = DequeReconstructor::new(start, capacity, search);
        let mut ring_out = VecDeque::new();
        let mut deque_out = VecDeque::new();
        let mut ring_regions = Vec::new();
        let mut deque_regions = Vec::new();
        for round in 0..120u32 {
            let n = 1 + rng.below(7) as usize;
            let a = ring.produce_into(
                n,
                &rmob,
                &mut pst_new,
                |r, i| ring_regions.push((r, i)),
                &mut ring_out,
            );
            let b = deque.produce_into(
                n,
                &rmob,
                &mut pst_old,
                |r, i| deque_regions.push((r, i)),
                &mut deque_out,
            );
            let ctx = format!("seed {seed} round {round} (cap {capacity} search {search})");
            assert_eq!(a, b, "appended count diverged: {ctx}");
            assert_eq!(ring_out, deque_out, "drain order diverged: {ctx}");
            assert_eq!(ring.stats, deque.stats, "stats diverged: {ctx}");
            assert_eq!(
                ring.cursor_state(),
                deque.cursor_state(),
                "cursor state diverged: {ctx}"
            );
            assert_eq!(
                ring.window_snapshot(),
                deque.window_snapshot(),
                "window contents (placement slots) diverged: {ctx}"
            );
            if a == 0 {
                break;
            }
        }
    }
}
