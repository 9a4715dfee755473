//! Property-based differential suite for the open-addressed PST (PR 6):
//! random train/train_owned/lookup/peek sequences driven through the
//! open-addressed `Pst` and the retained `LruTable`-backed `LruPst`
//! oracle (`support/mod.rs`) must agree exactly — hit/miss results,
//! stored sequence contents, recency order (and therefore victim choice,
//! the suffix of that order), training counts, and `SequenceArena`
//! buffer accounting — at capacities from degenerate (1) through a grown
//! multi-rebuild table (300).

mod support;

use proptest::prelude::*;

use stems_core::stems::pst::{Pst, PST_MISS};
use stems_types::{BlockOffset, Delta, SequenceArena, SpatialSequence};
use support::LruPst;

fn sequence(items: &[(u8, u8)]) -> SpatialSequence {
    items
        .iter()
        .map(|&(o, d)| (BlockOffset::new(o % 32), Delta::from(d)))
        .collect()
}

/// One randomized table operation, decoded from a tuple strategy
/// (`sel`: 0 = train, 1 = train_owned, 2 = lookup, 3 = peek,
/// 4 = lookup_id + entry_matches).
type Op = (u8, u64, Vec<(u8, u8)>);

fn apply_lockstep(
    ops: &[Op],
    new_pst: &mut Pst,
    old_pst: &mut LruPst,
    new_arena: &mut SequenceArena,
    old_arena: &mut SequenceArena,
) -> Result<(), String> {
    for (step, (sel, key, items)) in ops.iter().enumerate() {
        match sel % 5 {
            0 => {
                let s = sequence(items);
                new_pst.train(*key, &s);
                old_pst.train(*key, &s);
            }
            1 => {
                // Route both observations through their arenas the way
                // the AGT handoff does, so take/put accounting is live.
                let mut a = new_arena.take();
                let mut b = old_arena.take();
                for &(o, d) in items {
                    a.push(BlockOffset::new(o % 32), Delta::from(d));
                    b.push(BlockOffset::new(o % 32), Delta::from(d));
                }
                new_pst.train_owned(*key, a, new_arena);
                old_pst.train_owned(*key, b, old_arena);
            }
            2 => {
                let a = new_pst.lookup(*key).cloned();
                let b = old_pst.lookup(*key).cloned();
                prop_assert_eq!(a, b, "lookup diverged at step {}", step);
            }
            3 => {
                let a = new_pst.peek(*key).cloned();
                let b = old_pst.peek(*key).cloned();
                prop_assert_eq!(a, b, "peek diverged at step {}", step);
            }
            _ => {
                // The single-probe trigger surface: a lookup_id hit must
                // resolve to the sequence (and recency effect) of the
                // oracle's lookup, and the id must revalidate against
                // its key while no training has intervened.
                let id = new_pst.lookup_id(*key);
                let b = old_pst.lookup(*key).cloned();
                prop_assert_eq!(
                    id != PST_MISS,
                    b.is_some(),
                    "lookup_id hit/miss diverged at step {}",
                    step
                );
                if id != PST_MISS {
                    prop_assert_eq!(
                        Some(new_pst.sequence_at(id).clone()),
                        b,
                        "lookup_id sequence diverged at step {}",
                        step
                    );
                    prop_assert!(
                        new_pst.entry_matches(id, *key),
                        "fresh id failed revalidation at step {}",
                        step
                    );
                    prop_assert!(
                        !new_pst.entry_matches(id, key.wrapping_add(1)),
                        "id revalidated against the wrong key at step {}",
                        step
                    );
                }
            }
        }
        prop_assert_eq!(
            new_pst.len(),
            old_pst.len(),
            "len diverged at step {}",
            step
        );
        prop_assert_eq!(
            new_pst.trainings(),
            old_pst.trainings(),
            "trainings diverged at step {}",
            step
        );
        prop_assert_eq!(
            new_pst.recency_snapshot(),
            old_pst.recency_snapshot(),
            "recency/victim order diverged at step {}",
            step
        );
        prop_assert_eq!(
            (
                new_arena.taken(),
                new_arena.returned(),
                new_arena.outstanding()
            ),
            (
                old_arena.taken(),
                old_arena.returned(),
                old_arena.outstanding()
            ),
            "arena accounting diverged at step {}",
            step
        );
    }
    Ok(())
}

proptest! {
    /// Lockstep equivalence under random operation streams over a key
    /// universe a few times larger than the table, so evictions,
    /// retrains, tombstone reuse, and (at the larger capacities) growth
    /// rebuilds all fire.
    #[test]
    fn open_addressed_pst_equals_lru_oracle(
        capacity_pick in 0usize..5,
        ops in proptest::collection::vec(
            (0u8..5, 0u64..40, proptest::collection::vec((0u8..32, 0u8..4), 0..5)),
            1..200),
    ) {
        let capacity = [1usize, 2, 5, 64, 300][capacity_pick];
        let mut new_pst = Pst::new(capacity);
        let mut old_pst = LruPst::new(capacity);
        let mut new_arena = SequenceArena::new();
        let mut old_arena = SequenceArena::new();
        apply_lockstep(&ops, &mut new_pst, &mut old_pst, &mut new_arena, &mut old_arena)?;
    }
}
