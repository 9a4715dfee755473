//! Decision-support workloads: TPC-H queries 2, 16, and 17 on DB2.
//!
//! DSS queries are dominated by scans of previously untouched data
//! (Section 2.2: "TMS is mostly ineffective for DSS workloads, which are
//! dominated by scans"), while all scanned pages share the same layout and
//! are traversed by the same code — so SMS-class prediction covers over
//! 60% of misses (Section 5.2). A join component revisits a smaller inner
//! table: mostly cache-resident (so it adds little temporal opportunity),
//! larger for the balanced scan-join query 17.

use rand::Rng;

use stems_trace::Trace;
use stems_types::hash::splitmix64;
use stems_types::RegionAddr;

use crate::build::{rng, scatter, Interleaver, VisitAccess, Visits};

/// Tuning knobs for a DSS query.
#[derive(Clone, Debug)]
pub struct DssParams {
    /// Scanned pages (each visited exactly once — compulsory).
    pub scan_regions: u64,
    /// Stable layout offsets per page (shared by all pages).
    pub layout_offsets: usize,
    /// Unstable extra offsets per page (page-specific tuple positions).
    pub noise_offsets: usize,
    /// Probability a stable offset is skipped on a given page.
    pub skip_prob: f64,
    /// Probability of swapping adjacent pattern elements (within-page
    /// reorder noise; highest for query 16 per Figure 8).
    pub reorder_prob: f64,
    /// Probability of inserting an inner-join visit after a scan page.
    pub join_prob: f64,
    /// Inner join table size in regions.
    pub join_regions: u64,
    /// Non-memory work before each access.
    pub work: (u16, u16),
    /// Interleaver window / mix.
    pub window: usize,
    /// Interleaver mix probability.
    pub mix: f64,
}

impl DssParams {
    /// TPC-H query 2 (join-dominated, small inner tables).
    pub fn qry2() -> Self {
        DssParams {
            scan_regions: 42_000,
            layout_offsets: 9,
            noise_offsets: 2,
            skip_prob: 0.08,
            reorder_prob: 0.06,
            join_prob: 0.14,
            join_regions: 1800,
            work: (4, 12),
            window: 3,
            mix: 0.35,
        }
    }

    /// TPC-H query 16 (join-dominated, noisier within-page order — the
    /// outlier of Figure 8).
    pub fn qry16() -> Self {
        DssParams {
            reorder_prob: 0.30,
            noise_offsets: 3,
            ..DssParams::qry2()
        }
    }

    /// TPC-H query 17 (balanced scan-join: larger recurring inner table).
    pub fn qry17() -> Self {
        DssParams {
            join_prob: 0.35,
            join_regions: 7000,
            reorder_prob: 0.08,
            ..DssParams::qry2()
        }
    }

    /// Scales trace-length-related sizes by `f`.
    pub fn scaled(mut self, f: f64) -> Self {
        self.scan_regions = ((self.scan_regions as f64 * f).ceil() as u64).max(64);
        self.join_regions = ((self.join_regions as f64 * f).ceil() as u64).max(16);
        self
    }
}

const SCAN_SPACE: u64 = 1 << 35;
const JOIN_SALT: u64 = 11;

/// Generates the trace for a DSS query.
pub fn generate(params: &DssParams, seed: u64) -> Trace {
    let mut r = rng(seed);

    // The shared page layout: offset 0 header + stable tuple offsets.
    let layout: Vec<u8> = std::iter::once(0u8)
        .chain((0..params.layout_offsets).map(|k| (1 + (splitmix64(k as u64 + 77) % 30)) as u8))
        .collect();

    // The whole query is one batch: every page's visit, and at most one
    // two-access join probe after each. Both it and the trace are sized
    // for that bound, so neither grows.
    let pages = params.scan_regions as usize;
    let most_accesses = pages * (layout.len() + params.noise_offsets + 2);
    let mut visits = Visits::with_capacity(2 * pages, most_accesses);
    let mut trace = Trace::with_capacity(most_accesses);
    // One page's offsets, refilled per page.
    let mut offsets: Vec<u8> = Vec::with_capacity(layout.len() + params.noise_offsets);
    for page in 0..params.scan_regions {
        // Scan pages are fresh: scattered placement in their own space.
        let region = RegionAddr::new(SCAN_SPACE + scatter(page, seed ^ 5, 1 << 26).get());
        offsets.clear();
        offsets.extend(
            layout
                .iter()
                .enumerate()
                .filter(|&(i, _)| i == 0 || !r.gen_bool(params.skip_prob))
                .map(|(_, &o)| o),
        );
        // Page-specific noise tuples (spatially unpredictable).
        for k in 0..params.noise_offsets {
            let o = (1 + (splitmix64(page ^ ((k as u64 + 3) << 40)) % 31)) as u8;
            if !offsets.contains(&o) {
                offsets.push(o);
            }
        }
        // Within-page reorder noise (Figure 8): swap adjacent non-trigger
        // elements.
        for i in 2..offsets.len() {
            if r.gen_bool(params.reorder_prob) {
                offsets.swap(i - 1, i);
            }
        }
        let work = r.gen_range(params.work.0..=params.work.1);
        let accesses = offsets.iter().enumerate().map(|(i, &offset)| VisitAccess {
            offset,
            pc: 0x50_0000 + (i as u64) * 4,
            write: false,
            work,
        });
        visits.push(region, false, accesses);

        if r.gen_bool(params.join_prob) {
            // Inner-table probe: revisits a bounded set of regions
            // (mostly L2-resident unless the inner table is large).
            let inner = scatter(r.gen_range(0..params.join_regions), JOIN_SALT, 1 << 22);
            let base = (splitmix64(inner.get()) % 28) as u8;
            let accesses = [
                VisitAccess {
                    offset: base,
                    pc: 0x51_0000,
                    write: false,
                    work: 8,
                },
                VisitAccess {
                    offset: base + 2,
                    pc: 0x51_0004,
                    write: false,
                    work: 8,
                },
            ];
            visits.push(inner, true, accesses);
        }
    }
    Interleaver::new(params.window, params.mix).drain(&mut visits, &mut r, &mut trace);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_per_seed() {
        let p = DssParams::qry2().scaled(0.01);
        assert_eq!(generate(&p, 3), generate(&p, 3));
        assert_ne!(generate(&p, 3), generate(&p, 4));
    }

    #[test]
    fn scan_pages_are_never_revisited() {
        let p = DssParams {
            join_prob: 0.0,
            ..DssParams::qry2().scaled(0.01)
        };
        let t = generate(&p, 1);
        // With no join traffic, each region's accesses form one contiguous
        // episode (modulo the interleaver window): region visit count must
        // equal distinct regions.
        let mut seen = HashSet::new();
        for a in t.iter() {
            seen.insert(a.addr.region());
        }
        assert_eq!(seen.len() as u64, p.scan_regions);
    }

    #[test]
    fn qry17_has_more_join_traffic_than_qry2() {
        let p2 = DssParams::qry2().scaled(0.02);
        let p17 = DssParams::qry17().scaled(0.02);
        let join_accesses = |t: &Trace| {
            t.iter()
                .filter(|a| a.addr.region().get() < SCAN_SPACE)
                .count()
        };
        assert!(join_accesses(&generate(&p17, 2)) > join_accesses(&generate(&p2, 2)));
    }

    #[test]
    fn all_reads_no_writes() {
        let t = generate(&DssParams::qry16().scaled(0.01), 8);
        assert!((t.stats().read_fraction() - 1.0).abs() < 1e-12);
    }
}
