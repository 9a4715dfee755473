//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use stems::analysis::Sequitur;
use stems::core::engine::{CoverageSim, NullPrefetcher};
use stems::core::util::{LruTable, OrderBuffer};
use stems::core::PrefetchConfig;
use stems::memsim::{Cache, CacheConfig, SystemConfig};
use stems::trace::store::{read_store, write_store};
use stems::trace::{Access, AccessKind, Dependence, Trace};
use stems::types::{Addr, BlockAddr, BlockOffset, Delta, Pc, SpatialSequence};

proptest! {
    /// Sequitur always reproduces its input and keeps digrams unique.
    #[test]
    fn sequitur_round_trips(input in proptest::collection::vec(0u64..24, 0..400)) {
        let g = Sequitur::build(input.iter().copied());
        prop_assert_eq!(g.expand_root(), input);
        prop_assert!(g.digrams_are_unique());
    }

    /// The trace store codec is lossless.
    #[test]
    fn trace_io_round_trips(
        records in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>(), any::<u16>()),
            0..200,
        )
    ) {
        let trace: Trace = records
            .iter()
            .map(|&(pc, addr, write, dep, work)| Access {
                pc: Pc::new(pc),
                addr: Addr::new(addr),
                kind: if write { AccessKind::Write } else { AccessKind::Read },
                dep: if dep { Dependence::OnPrevAccess } else { Dependence::Independent },
                work_before: work,
            })
            .collect();
        let mut buf = Vec::new();
        write_store(&mut buf, &trace).unwrap();
        prop_assert_eq!(read_store(buf.as_slice()).unwrap(), trace);
    }

    /// A cache never exceeds capacity, and a just-accessed block is
    /// always resident afterwards.
    #[test]
    fn cache_capacity_and_residency(
        blocks in proptest::collection::vec(0u64..64, 1..300),
    ) {
        let mut c = Cache::new(&CacheConfig { size_bytes: 8 * 64, associativity: 2 });
        for &b in &blocks {
            c.access(BlockAddr::new(b), false);
            prop_assert!(c.contains(BlockAddr::new(b)));
            prop_assert!(c.occupancy() <= c.capacity());
        }
        prop_assert_eq!(c.hits() + c.misses(), blocks.len() as u64);
    }

    /// LRU tables never exceed capacity and always retain the most
    /// recently inserted key.
    #[test]
    fn lru_table_bounds(
        ops in proptest::collection::vec((0u32..40, any::<bool>()), 1..300),
    ) {
        let mut t: LruTable<u32, u32> = LruTable::new(8);
        for &(k, is_insert) in &ops {
            if is_insert {
                t.insert(k, k * 2);
                prop_assert!(t.contains(&k));
            } else {
                if let Some(v) = t.get(&k) {
                    prop_assert_eq!(*v, k * 2);
                }
            }
            prop_assert!(t.len() <= 8);
        }
    }

    /// An order buffer's lookup always returns the most recent position,
    /// and reads never cross the append cursor.
    #[test]
    fn order_buffer_lookup_is_most_recent(
        appends in proptest::collection::vec(0u64..16, 1..200),
    ) {
        let mut buf: OrderBuffer<BlockAddr> = OrderBuffer::new(32);
        let mut last_pos = std::collections::HashMap::new();
        for (i, &b) in appends.iter().enumerate() {
            let pos = buf.append(BlockAddr::new(b));
            prop_assert_eq!(pos, i as u64);
            last_pos.insert(b, pos);
        }
        for (&b, &pos) in &last_pos {
            let expect = (appends.len() as u64 - pos <= 32).then_some(pos);
            prop_assert_eq!(buf.lookup(BlockAddr::new(b)), expect);
        }
        prop_assert!(buf.read_from(appends.len() as u64, 8).is_empty());
    }

    /// Spatial sequences: offsets unique, order preserved, pattern
    /// consistent with contents, counters bounded.
    #[test]
    fn spatial_sequence_invariants(
        items in proptest::collection::vec((0u8..32, any::<u8>()), 0..64),
    ) {
        let mut s = SpatialSequence::new();
        let mut first_seen = Vec::new();
        for &(o, d) in &items {
            if s.push(BlockOffset::new(o), Delta::from(d)) {
                first_seen.push(o);
            }
        }
        let order: Vec<u8> = s.iter().map(|e| e.offset.get()).collect();
        prop_assert_eq!(order, first_seen);
        prop_assert_eq!(s.pattern().count() as usize, s.len());
        for e in s.iter() {
            prop_assert!(e.counter.get() <= 3);
            prop_assert!(s.pattern().contains(e.offset));
        }
    }

    /// The coverage engine's accounting identity: every read is satisfied
    /// exactly once.
    #[test]
    fn engine_accounting_identity(
        addrs in proptest::collection::vec(0u64..(1 << 22), 1..500),
    ) {
        let mut t = Trace::new();
        for &a in &addrs {
            t.read(0x400, a * 64);
        }
        let c = CoverageSim::new(
            &SystemConfig::small(),
            &PrefetchConfig::small(),
            NullPrefetcher,
        )
        .run(&t);
        prop_assert_eq!(c.reads, addrs.len() as u64);
        prop_assert_eq!(c.l1_hits + c.l2_hits + c.covered + c.uncovered, c.reads);
    }
}
