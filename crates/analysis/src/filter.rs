//! The trace-analysis front end: extracts the off-chip read-miss sequence,
//! generation structure, and idealized-SMS annotations from a raw trace.
//!
//! The paper's workload-characterization results (Figures 6-8) are
//! computed over memory traces collected without prefetching
//! (Section 5.1). This pass replays a trace through one node's L1/L2
//! hierarchy and an SMS-style active generation table, emitting:
//!
//! * the sequence of off-chip read misses, each annotated with whether it
//!   is a *spatial trigger* (the first miss of its generation) and whether
//!   an idealized SMS would have predicted it;
//! * each completed generation's within-region first-touch sequence,
//!   keyed by its spatial prediction index (for Figure 8).

use std::collections::HashMap;

use stems_core::sms::spatial_index;
use stems_core::util::LruTable;
use stems_memsim::{Hierarchy, ProbeLevel, SystemConfig};
use stems_trace::Trace;
use stems_types::{BlockAddr, Pc, RegionAddr, SpatialPattern};

/// One off-chip read miss in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissRecord {
    /// PC of the miss instruction.
    pub pc: Pc,
    /// Missing block.
    pub block: BlockAddr,
    /// First off-chip read miss of its spatial generation.
    pub trigger: bool,
    /// An idealized (unbounded-table) SMS would have prefetched it.
    pub sms_predictable: bool,
}

/// One completed spatial generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenerationRecord {
    /// Spatial prediction index (trigger PC + offset).
    pub index: u64,
    /// Block offsets in first-touch order (trigger first).
    pub offsets: Vec<u8>,
}

/// Output of [`filter_trace`].
#[derive(Clone, Debug, Default)]
pub struct FilterOutput {
    /// Off-chip read misses in order.
    pub misses: Vec<MissRecord>,
    /// Completed generations in completion order.
    pub generations: Vec<GenerationRecord>,
}

#[derive(Clone, Debug)]
struct GenState {
    index: u64,
    offsets: Vec<u8>,
    touched: SpatialPattern,
    predicted: SpatialPattern,
    had_miss: bool,
    first_access_block: BlockAddr,
}

impl Default for GenState {
    fn default() -> Self {
        GenState {
            index: 0,
            offsets: Vec::new(),
            touched: SpatialPattern::empty(),
            predicted: SpatialPattern::empty(),
            had_miss: false,
            first_access_block: BlockAddr::new(0),
        }
    }
}

/// Replays `trace` through an un-prefetched hierarchy, producing the miss
/// and generation structure (see module docs).
pub fn filter_trace(trace: &Trace, system: &SystemConfig) -> FilterOutput {
    let mut hierarchy = Hierarchy::new(system);
    let mut l1_evicted = Vec::new();
    let mut agt: LruTable<RegionAddr, GenState> = LruTable::new(64);
    // Idealized SMS history: unbounded, most-recent pattern per index.
    let mut pht: HashMap<u64, SpatialPattern> = HashMap::new();
    let mut out = FilterOutput::default();

    let end_generation = |agt: &mut LruTable<RegionAddr, GenState>,
                          pht: &mut HashMap<u64, SpatialPattern>,
                          out: &mut FilterOutput,
                          region: RegionAddr| {
        if let Some(gen) = agt.remove(&region) {
            pht.insert(gen.index, gen.touched);
            if !gen.offsets.is_empty() {
                out.generations.push(GenerationRecord {
                    index: gen.index,
                    offsets: gen.offsets,
                });
            }
        }
    };

    for access in trace.iter() {
        let block = access.addr.block();
        let region = block.region();
        let offset = block.offset_in_region();
        l1_evicted.clear();
        let level = hierarchy.probe(block, !access.is_read(), || false, &mut l1_evicted);
        for evicted in &l1_evicted {
            let evicted_region = evicted.region();
            let ends = agt
                .peek(&evicted_region)
                .is_some_and(|g| g.touched.contains(evicted.offset_in_region()));
            if ends {
                end_generation(&mut agt, &mut pht, &mut out, evicted_region);
            }
        }
        let in_generation = agt.contains(&region);
        if !in_generation {
            // Trigger access: open a generation (prediction snapshot).
            let index = spatial_index(access.pc, offset);
            let predicted = pht.get(&index).copied().unwrap_or_default();
            let mut touched = SpatialPattern::empty();
            touched.set(offset);
            let state = GenState {
                index,
                offsets: vec![offset.get()],
                touched,
                predicted,
                had_miss: false,
                first_access_block: block,
            };
            if let Some((victim_region, victim)) = agt.insert(region, state) {
                // Capacity eviction completes the victim's generation.
                let _ = victim_region;
                pht.insert(victim.index, victim.touched);
                if !victim.offsets.is_empty() {
                    out.generations.push(GenerationRecord {
                        index: victim.index,
                        offsets: victim.offsets,
                    });
                }
            }
        } else if let Some(gen) = agt.get(&region) {
            if !gen.touched.contains(offset) {
                gen.touched.set(offset);
                gen.offsets.push(offset.get());
            }
        }

        if access.is_read() && level == ProbeLevel::Memory {
            let gen = agt.get(&region).expect("generation opened above");
            let trigger = !gen.had_miss;
            gen.had_miss = true;
            // SMS covers pattern blocks other than the one that began the
            // generation (nothing is in flight for the first access).
            let sms_predictable = gen.predicted.contains(offset) && gen.first_access_block != block;
            out.misses.push(MissRecord {
                pc: access.pc,
                block,
                trigger,
                sms_predictable,
            });
        }
    }
    // Flush generations still open at end of trace.
    let open_regions: Vec<RegionAddr> = agt.iter().map(|(&r, _)| r).collect();
    for region in open_regions {
        end_generation(&mut agt, &mut pht, &mut out, region);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemConfig {
        SystemConfig::small()
    }

    #[test]
    fn every_cold_miss_is_recorded_with_triggers() {
        let mut t = Trace::new();
        // Two regions, two blocks each, all cold.
        t.read(0x1, 0); // region 0 trigger
        t.read(0x2, 320); // region 0, offset 5
        t.read(0x3, 1 << 20); // region 512 trigger
        let out = filter_trace(&t, &sys());
        assert_eq!(out.misses.len(), 3);
        assert!(out.misses[0].trigger);
        assert!(!out.misses[1].trigger);
        assert!(out.misses[2].trigger);
    }

    #[test]
    fn repeated_layout_becomes_sms_predictable() {
        let mut t = Trace::new();
        for r in 0..20u64 {
            let base = (1 << 30) + r * 2048;
            t.read(0x10, base); // trigger, offset 0
            t.read(0x11, base + 4 * 64); // offset 4
        }
        let out = filter_trace(&t, &sys());
        // After the first generation trains, the offset-4 misses are
        // predictable; triggers never are.
        let offset4: Vec<&MissRecord> = out
            .misses
            .iter()
            .filter(|m| m.block.offset_in_region().get() == 4)
            .collect();
        assert!(offset4.len() >= 10);
        assert!(!offset4[0].sms_predictable, "nothing learned yet");
        assert!(offset4[5].sms_predictable);
        assert!(out
            .misses
            .iter()
            .filter(|m| m.trigger)
            .all(|m| { m.block.offset_in_region().get() != 4 || !m.sms_predictable }));
    }

    #[test]
    fn generations_capture_first_touch_order() {
        let mut t = Trace::new();
        let base = 1 << 30;
        t.read(0x1, base + 3 * 64);
        t.read(0x2, base + 9 * 64);
        t.read(0x3, base + 64);
        t.read(0x3, base + 9 * 64); // re-touch: not recorded twice
        let out = filter_trace(&t, &sys());
        assert_eq!(out.generations.len(), 1);
        assert_eq!(out.generations[0].offsets, vec![3, 9, 1]);
    }

    #[test]
    fn l1_hits_do_not_create_misses() {
        let mut t = Trace::new();
        t.read(0x1, 4096);
        t.read(0x1, 4096);
        let out = filter_trace(&t, &sys());
        assert_eq!(out.misses.len(), 1);
    }
}
