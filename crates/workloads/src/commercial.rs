//! Transaction-template workloads: OLTP (TPC-C on DB2/Oracle) and web
//! serving (SPECweb on Apache/Zeus).
//!
//! Built from the paper's characterization:
//!
//! * transactions re-execute a library of *templates* — fixed sequences of
//!   buffer-pool page visits reached by pointer chasing (index traversal),
//!   giving **temporal** repetition of the miss sequence (Section 2.1);
//! * within a page, the same code touches the same structural offsets
//!   (header, lock, slot array, fields), giving PC-correlated **spatial**
//!   patterns (Section 2.3, Figure 2);
//! * each page also has idiosyncratic offsets (its own record positions):
//!   temporally repetitive but spatially unstable — TMS-only fuel;
//! * some visits touch *fresh* pages with the common layout (new
//!   connection buffers, appended pages): compulsory misses only SMS-class
//!   prediction can cover;
//! * and a fraction of visits is simply unpredictable (hash probes,
//!   private working state) — the "neither" fraction of Figure 6.

use rand::rngs::StdRng;
use rand::Rng;

use stems_trace::Trace;
use stems_types::hash::splitmix64;
use stems_types::RegionAddr;

use crate::build::{rng, scatter, Interleaver, VisitAccess, Visits};

/// Tuning knobs for a template workload.
#[derive(Clone, Debug)]
pub struct CommercialParams {
    /// Number of distinct transaction templates.
    pub templates: usize,
    /// Page visits per template.
    pub template_len: usize,
    /// Hot buffer-pool size in regions (template pages are drawn here).
    pub hot_regions: u64,
    /// Cold pool for unpredictable visits.
    pub cold_regions: u64,
    /// Total template visits to emit (trace-length driver).
    pub visits: usize,
    /// Distinct logical tables (layout families).
    pub tables: usize,
    /// Stable structural offsets per table layout.
    pub layout_offsets: usize,
    /// Per-visit record offsets (fixed per template step, unstable per
    /// spatial index).
    pub record_offsets: usize,
    /// Fraction of pages with an idiosyncratic offset (touched on every
    /// visit of such a page).
    pub idio_prob: f64,
    /// Probability of a per-execution volatile offset (unpredictable).
    pub volatile_prob: f64,
    /// Probability of inserting a fresh common-layout page visit.
    pub fresh_prob: f64,
    /// Probability of inserting an unpredictable visit.
    pub random_prob: f64,
    /// Probability a template pick comes from the hot subset.
    pub hot_template_frac: f64,
    /// Size of the hot template subset.
    pub hot_templates: usize,
    /// Probability a template visit is skipped (sequence glitch).
    pub glitch_skip: f64,
    /// Probability a template visit is pointer-chased from the previous.
    pub dependent: f64,
    /// Probability an access is a store.
    pub write_prob: f64,
    /// Non-memory work before each access (uniform range).
    pub work: (u16, u16),
    /// Interleaver window (live visits).
    pub window: usize,
    /// Interleaver mix probability.
    pub mix: f64,
}

impl CommercialParams {
    /// TPC-C on DB2 (Table 1: 100 warehouses, 450MB buffer pool) — scaled
    /// so the recurring working set exceeds the 8MB L2.
    pub fn db2() -> Self {
        CommercialParams {
            templates: 3600,
            template_len: 14,
            hot_regions: 96 * 1024,
            cold_regions: 1 << 22,
            visits: 260_000,
            tables: 4,
            layout_offsets: 3,
            record_offsets: 2,
            idio_prob: 0.8,
            volatile_prob: 0.4,
            fresh_prob: 0.05,
            random_prob: 0.35,
            hot_template_frac: 0.85,
            hot_templates: 2200,
            glitch_skip: 0.015,
            dependent: 0.9,
            write_prob: 0.12,
            work: (6, 18),
            window: 2,
            mix: 0.3,
        }
    }

    /// TPC-C on Oracle (1.4GB SGA): same structure, more computation per
    /// access (the paper notes Oracle spends only a quarter of its time on
    /// off-chip misses, compressing all speedups).
    pub fn oracle() -> Self {
        CommercialParams {
            work: (24, 56),
            random_prob: 0.40,
            idio_prob: 0.75,
            ..CommercialParams::db2()
        }
    }

    /// SPECweb on Apache: denser spatial patterns (response buffers, file
    /// cache), more fresh pages, shorter dependence chains.
    pub fn apache() -> Self {
        CommercialParams {
            templates: 2400,
            template_len: 10,
            hot_regions: 80 * 1024,
            visits: 190_000,
            tables: 5,
            layout_offsets: 7,
            record_offsets: 2,
            idio_prob: 0.45,
            volatile_prob: 0.55,
            fresh_prob: 0.22,
            random_prob: 0.25,
            hot_templates: 1500,
            dependent: 0.45,
            write_prob: 0.10,
            work: (8, 20),
            window: 3,
            mix: 0.35,
            ..CommercialParams::db2()
        }
    }

    /// SPECweb on Zeus: like Apache with a leaner event-driven engine
    /// (fewer unpredictable visits, more locality, fewer off-chip stalls).
    pub fn zeus() -> Self {
        CommercialParams {
            random_prob: 0.16,
            fresh_prob: 0.25,
            work: (12, 28),
            ..CommercialParams::apache()
        }
    }

    /// Scales trace-length-related sizes by `f` (for tests and benches).
    pub fn scaled(mut self, f: f64) -> Self {
        let s = |x: usize| ((x as f64 * f).ceil() as usize).max(8);
        self.templates = s(self.templates);
        self.hot_templates = s(self.hot_templates).min(self.templates);
        self.visits = s(self.visits);
        self.hot_regions = ((self.hot_regions as f64 * f).ceil() as u64).max(64);
        self
    }
}

/// Address-space salts keeping the pools disjoint.
const HOT_SALT: u64 = 1;
const COLD_SALT: u64 = 2;
const FRESH_SALT: u64 = 3;
/// Fresh/cold pages live in their own huge spaces above the hot pool.
const FRESH_SPACE: u64 = 1 << 34;

/// One page visit of a transaction template. Its record offsets are
/// `record_offsets` consecutive entries of the shared offset array,
/// starting at the step's index times `record_offsets`.
struct TemplateStep {
    page: u64,
    table: usize,
}

/// Generates the trace for a template workload.
pub fn generate(params: &CommercialParams, seed: u64) -> Trace {
    let mut r = rng(seed);
    let mut trace = Trace::with_capacity(params.visits * 6);

    // Per-table stable layouts: offset 0 is the trigger (page header);
    // the remaining structural offsets are fixed per table.
    let layouts: Vec<Vec<u8>> = (0..params.tables)
        .map(|t| {
            let mut offsets = vec![0u8];
            for k in 0..params.layout_offsets {
                offsets.push((1 + (splitmix64((t * 37 + k * 7 + 1) as u64) % 30)) as u8);
            }
            offsets.dedup();
            offsets
        })
        .collect();

    // Build templates: fixed page sequences with fixed per-step record
    // offsets (so the miss sequence repeats temporally). Template `t`'s
    // steps are `steps[t * template_len..][..template_len]`.
    let step_count = params.templates * params.template_len;
    let steps: Vec<TemplateStep> = (0..step_count as u64)
        .map(|key| TemplateStep {
            page: splitmix64(key.wrapping_mul(31).wrapping_add(seed)) % params.hot_regions,
            table: (splitmix64(key ^ 0xABCD) % params.tables as u64) as usize,
        })
        .collect();
    let record_offsets: Vec<u8> = (0..step_count as u64)
        .flat_map(|key| {
            (0..params.record_offsets as u64)
                .map(move |k| (4 + (splitmix64(key ^ (k + 1)) % 28)) as u8)
        })
        .collect();

    let executions = params.visits / params.template_len.max(1);
    let mut fresh_counter: u64 = 0;
    let mut interleaver = Interleaver::new(params.window, params.mix);
    // One execution's body and noise visits; drained and reused by every
    // execution.
    let mut visits = Visits::new();
    let mut noise = Visits::new();
    for _ in 0..executions {
        let t = if r.gen_bool(params.hot_template_frac) {
            r.gen_range(0..params.hot_templates.min(params.templates))
        } else {
            r.gen_range(0..params.templates)
        };
        let first = t * params.template_len;
        for (i, step) in steps[first..first + params.template_len].iter().enumerate() {
            if r.gen_bool(params.glitch_skip) {
                continue;
            }
            let records =
                &record_offsets[(first + i) * params.record_offsets..][..params.record_offsets];
            template_visit(params, &layouts, step, records, &mut r, &mut visits);
            if r.gen_bool(params.volatile_prob) {
                // A volatile touch of the page at a fresh random offset:
                // predictable by neither technique. Emitted outside the
                // deterministic interleave so the repeating body's global
                // order is undisturbed.
                noise.push(
                    scatter(step.page, HOT_SALT, params.hot_regions * 16),
                    false,
                    [VisitAccess {
                        offset: r.gen_range(1..32),
                        pc: table_pc(step.table, 28),
                        write: false,
                        work: 8,
                    }],
                );
            }
            if r.gen_bool(params.fresh_prob) {
                fresh_visit(&layouts, &mut fresh_counter, &mut noise);
            }
            if r.gen_bool(params.random_prob) {
                random_visit(params, &mut r, &mut noise);
            }
        }
        // The interleaving of concurrent generations is a property of the
        // transaction's code path, so it repeats per template: reseed the
        // interleaver per execution to keep the miss order repetitive.
        // Noise visits (fresh pages, hash probes) follow the transaction
        // body so they do not perturb its repeating interleave pattern.
        let mut exec_rng = rng(splitmix64(t as u64 ^ seed ^ 0x1EAF));
        interleaver.drain(&mut visits, &mut exec_rng, &mut trace);
        interleaver.drain(&mut noise, &mut r, &mut trace);
    }
    trace
}

fn table_pc(table: usize, field: usize) -> u64 {
    0x40_0000 + (table as u64) * 0x100 + (field as u64) * 4
}

fn template_visit(
    params: &CommercialParams,
    layouts: &[Vec<u8>],
    step: &TemplateStep,
    record_offsets: &[u8],
    r: &mut StdRng,
    visits: &mut Visits,
) {
    let region = scatter(step.page, HOT_SALT, params.hot_regions * 16);
    let work = r.gen_range(params.work.0..=params.work.1);
    let dependent = r.gen_bool(params.dependent);
    let layout = layouts[step.table]
        .iter()
        .enumerate()
        .map(|(field, &offset)| VisitAccess {
            offset,
            pc: table_pc(step.table, field),
            write: false,
            work,
        });
    // Per-step record offsets: fixed across executions (temporal), but
    // different per template step (spatially unstable for the PC index).
    // Write/read is a fixed property of the step so the *read-miss*
    // sequence repeats too.
    let records = record_offsets.iter().enumerate().map(|(k, &offset)| {
        let write = (splitmix64(step.page ^ ((k as u64 + 9) << 48)) % 1000) as f64 / 1000.0
            < params.write_prob;
        VisitAccess {
            offset,
            pc: table_pc(step.table, 16 + k),
            write,
            work,
        }
    });
    // Page-idiosyncratic offset: a fixed function of the page, touched on
    // a fixed (per page) subset of visits — recurs temporally, never
    // stabilizes spatially.
    let idiosyncratic = ((splitmix64(step.page ^ 0x1D_1055) % 1000) as f64 / 1000.0
        < params.idio_prob)
        .then(|| VisitAccess {
            offset: (4 + (splitmix64(step.page ^ 0x1D10) % 28)) as u8,
            pc: table_pc(step.table, 24),
            write: false,
            work,
        });
    visits.push(
        region,
        dependent,
        layout.chain(records).chain(idiosyncratic),
    );
}

fn fresh_visit(layouts: &[Vec<u8>], counter: &mut u64, visits: &mut Visits) {
    *counter += 1;
    // Never-seen region (compulsory), laid out like table 0 and touched by
    // table 0's code: spatially predictable, temporally impossible.
    let region = RegionAddr::new(FRESH_SPACE + scatter(*counter, FRESH_SALT, 1 << 24).get());
    let accesses = layouts[0]
        .iter()
        .enumerate()
        .map(|(field, &offset)| VisitAccess {
            offset,
            pc: table_pc(0, field),
            write: false,
            work: 10,
        });
    visits.push(region, false, accesses);
}

fn random_visit(params: &CommercialParams, r: &mut StdRng, visits: &mut Visits) {
    // Unpredictable: random cold page, random offsets, from a pool of
    // "miscellaneous" PCs.
    let region = scatter(r.gen::<u64>(), COLD_SALT, params.cold_regions);
    let n = r.gen_range(1..=3);
    let accesses = (0..n).map(|_| VisitAccess {
        offset: r.gen_range(0..32),
        pc: 0x80_0000 + r.gen_range(0u64..64) * 4,
        write: r.gen_bool(0.1),
        work: r.gen_range(params.work.0..=params.work.1),
    });
    visits.push(region, true, accesses);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db2_trace_is_deterministic() {
        let p = CommercialParams::db2().scaled(0.02);
        let a = generate(&p, 42);
        let b = generate(&p, 42);
        assert_eq!(a, b);
        assert_ne!(a, generate(&p, 43));
    }

    #[test]
    fn db2_has_expected_shape() {
        let p = CommercialParams::db2().scaled(0.05);
        let t = generate(&p, 1);
        let stats = t.stats();
        assert!(stats.accesses > 10_000, "{stats}");
        // Pointer chasing must be present for TMS to matter.
        assert!(
            stats.dependent as f64 / stats.accesses as f64 > 0.05,
            "{stats}"
        );
        // Some writes, mostly reads.
        assert!(stats.read_fraction() > 0.8 && stats.read_fraction() < 1.0);
    }

    #[test]
    fn oracle_has_more_work_per_access() {
        let p_db2 = CommercialParams::db2().scaled(0.02);
        let p_ora = CommercialParams::oracle().scaled(0.02);
        let w_db2: u64 = generate(&p_db2, 5)
            .iter()
            .map(|a| a.work_before as u64)
            .sum();
        let w_ora: u64 = generate(&p_ora, 5)
            .iter()
            .map(|a| a.work_before as u64)
            .sum();
        // Normalize by length.
        let l_db2 = generate(&p_db2, 5).len() as f64;
        let l_ora = generate(&p_ora, 5).len() as f64;
        assert!(w_ora as f64 / l_ora > 1.5 * (w_db2 as f64 / l_db2));
    }

    #[test]
    fn apache_touches_fresh_regions() {
        let p = CommercialParams::apache().scaled(0.03);
        let t = generate(&p, 9);
        let fresh = t
            .iter()
            .filter(|a| a.addr.region().get() >= FRESH_SPACE)
            .count();
        assert!(fresh > 0, "web workloads must include compulsory pages");
    }
}
