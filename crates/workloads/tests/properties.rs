//! Property-based tests of the workload generators and interleaver.

use proptest::prelude::*;
use rand::Rng;

use stems_trace::Trace;
use stems_types::RegionAddr;
use stems_workloads::build::{rng, Interleaver, VisitAccess, Visits};
use stems_workloads::Workload;

/// The interleaver as it was when every visit owned its access vector
/// and live visits moved through a `VecDeque`: the reference the
/// span-based [`Interleaver::drain`] must reproduce access for access
/// and random draw for random draw.
mod reference {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::VecDeque;

    use stems_trace::{Access, AccessKind, Dependence, Trace};
    use stems_types::{Addr, BlockOffset, Pc, RegionAddr};
    use stems_workloads::VisitAccess;

    pub struct Visit {
        pub region: RegionAddr,
        pub accesses: Vec<VisitAccess>,
        pub dependent: bool,
    }

    pub fn emit(window: usize, mix: f64, visits: Vec<Visit>, rng: &mut StdRng, trace: &mut Trace) {
        let mut source = visits.into_iter();
        let mut live: VecDeque<(Visit, usize, bool)> = VecDeque::new();
        loop {
            while live.len() < window {
                match source.next() {
                    Some(v) if !v.accesses.is_empty() => live.push_back((v, 0, false)),
                    Some(_) => continue,
                    None => break,
                }
            }
            if live.is_empty() {
                break;
            }
            let mut idx = 0;
            while idx + 1 < live.len() && rng.gen_bool(mix) {
                idx += 1;
            }
            let (visit, cursor, started) = &mut live[idx];
            let acc = visit.accesses[*cursor];
            let dep = if !*started && visit.dependent {
                Dependence::OnPrevAccess
            } else {
                Dependence::Independent
            };
            *started = true;
            let addr = Addr::new(
                visit
                    .region
                    .block_at(BlockOffset::new(acc.offset))
                    .base()
                    .get(),
            );
            trace.push(Access {
                pc: Pc::new(acc.pc),
                addr,
                kind: if acc.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                dep,
                work_before: acc.work,
            });
            *cursor += 1;
            if *cursor == visit.accesses.len() {
                live.remove(idx);
            }
        }
    }
}

/// The accesses of a random visit: `len` of them, their fields spread
/// from the bits of `bits`.
fn random_accesses(len: u8, bits: u64) -> Vec<VisitAccess> {
    (0..len as u64)
        .map(|k| VisitAccess {
            offset: ((bits >> (5 * k)) & 31) as u8,
            pc: 0x400 + 4 * k,
            write: (bits >> (40 + k)) & 1 == 1,
            work: (bits >> 48) as u16 ^ k as u16,
        })
        .collect()
}

proptest! {
    /// The interleaver is a permutation-with-order-preservation: the
    /// output contains exactly the input accesses, and each visit's
    /// accesses appear in their original relative order.
    #[test]
    fn interleaver_preserves_multiset_and_visit_order(
        lens in proptest::collection::vec(1u8..6, 1..40),
        window in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut visits = Visits::new();
        for (i, &len) in lens.iter().enumerate() {
            let accesses = (0..len.clamp(1, 31)).map(|offset| VisitAccess {
                offset,
                pc: 0x400,
                write: false,
                work: 2,
            });
            visits.push(RegionAddr::new(i as u64), false, accesses);
        }
        let expected: usize = lens.iter().map(|&l| l as usize).sum();
        let mut trace = Trace::new();
        let mut r = rng(seed);
        Interleaver::new(window, 0.4).drain(&mut visits, &mut r, &mut trace);
        prop_assert_eq!(trace.len(), expected);
        // Per-region offsets must be strictly increasing (original order).
        let mut last: std::collections::HashMap<u64, i32> =
            std::collections::HashMap::new();
        for a in trace.iter() {
            let region = a.addr.region().get();
            let off = a.addr.block().offset_in_region().get() as i32;
            let prev = last.insert(region, off).unwrap_or(-1);
            prop_assert!(off > prev, "visit-internal order violated");
        }
    }

    /// One interleaver draining batch after batch emits exactly what the
    /// reference emits for the same batches, and draws the same random
    /// numbers: empty visits, pointer-chased visits and repeated regions
    /// included, at windows 1 to 4 and mix 0, 0.3 and 1.
    #[test]
    fn interleaver_matches_the_reference(
        specs in proptest::collection::vec((0u8..6, any::<bool>(), 0u64..8, any::<u64>()), 0..40),
        split in 0usize..40,
        window in 1usize..5,
        mix in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mix = [0.0, 0.3, 1.0][mix];
        let split = split.min(specs.len());
        let mut interleaver = Interleaver::new(window, mix);
        let (mut r_new, mut r_ref) = (rng(seed), rng(seed));
        let (mut t_new, mut t_ref) = (Trace::new(), Trace::new());
        let mut visits = Visits::new();
        for batch in [&specs[..split], &specs[split..]] {
            let mut reference = Vec::new();
            for &(len, dependent, region, bits) in batch {
                let accesses = random_accesses(len, bits);
                let region = RegionAddr::new(region);
                visits.push(region, dependent, accesses.iter().copied());
                reference.push(reference::Visit { region, accesses, dependent });
            }
            interleaver.drain(&mut visits, &mut r_new, &mut t_new);
            reference::emit(window, mix, reference, &mut r_ref, &mut t_ref);
            prop_assert_eq!(&t_new, &t_ref);
            prop_assert_eq!(r_new.gen::<u64>(), r_ref.gen::<u64>(), "random draws diverged");
        }
    }

    /// Every workload generator is a pure function of (scale, seed), and
    /// different seeds produce different traces.
    #[test]
    fn generators_are_deterministic(seed in 0u64..500) {
        for w in [Workload::Db2, Workload::Qry16, Workload::Sparse] {
            let a = w.generate_scaled(0.003, seed);
            let b = w.generate_scaled(0.003, seed);
            prop_assert_eq!(a.as_slice().len(), b.as_slice().len());
            prop_assert_eq!(a, b);
        }
    }

    /// Traces are well-formed: nonempty, block-aligned addresses, and
    /// dependence flags only on reads or writes that exist.
    #[test]
    fn traces_are_well_formed(seed in 0u64..200) {
        let t = Workload::Apache.generate_scaled(0.004, seed);
        prop_assert!(!t.is_empty());
        for a in t.iter() {
            prop_assert_eq!(a.addr.get() % 64, 0, "generators emit block-aligned addresses");
        }
        let stats = t.stats();
        prop_assert!(stats.read_fraction() > 0.5);
        prop_assert!(stats.unique_regions > 1);
    }
}

/// The footprint scaling knob actually scales footprints.
#[test]
fn scaling_shrinks_footprints() {
    let small = Workload::Ocean.generate_scaled(0.01, 1).stats();
    let large = Workload::Ocean.generate_scaled(0.05, 1).stats();
    assert!(large.unique_blocks > 3 * small.unique_blocks);
}
