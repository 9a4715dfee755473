//! Scientific workloads: em3d, ocean, and sparse (Table 1).
//!
//! These provide the paper's frame of reference: iterative kernels whose
//! miss sequences repeat essentially perfectly across iterations, so TMS
//! is near-perfect (4x+ speedups on em3d and sparse, Section 5.6) while
//! SMS struggles where one trigger PC maps to many spatial layouts.

use rand::Rng;

use stems_trace::Trace;
use stems_types::hash::splitmix64;
use stems_types::RegionAddr;

use crate::build::{rng, scatter, Interleaver, VisitAccess, Visits};

/// em3d: electromagnetic wave propagation on an irregular bipartite graph
/// (3M nodes in the paper; scaled here so one iteration exceeds the L2).
///
/// Each iteration chases the same randomly-scattered node list — a
/// perfectly repetitive *temporal* sequence of dependent misses. Node
/// sizes vary (degree differences), so the single traversal PC maps to
/// many different spatial extents: SMS "cannot disambiguate spatial
/// patterns" (Section 5.2) and STeMS "is unable to choose the best
/// pattern to use for each trigger" (Section 5.5).
#[derive(Clone, Debug)]
pub struct Em3dParams {
    /// Graph nodes.
    pub nodes: u64,
    /// Iterations over the node list.
    pub iterations: usize,
    /// Non-memory work per node (field update computation).
    pub work: (u16, u16),
}

impl Em3dParams {
    /// Paper-shaped defaults (scaled to simulator footprints).
    pub fn default_paper() -> Self {
        Em3dParams {
            // One iteration's triggers must fit the 128K-entry RMOB
            // (Section 4.3's sizing constraint) while the node footprint
            // still exceeds the 8MB L2.
            nodes: 110_000,
            iterations: 6,
            work: (10, 24),
        }
    }

    /// Scales the node count by `f`.
    pub fn scaled(mut self, f: f64) -> Self {
        self.nodes = ((self.nodes as f64 * f).ceil() as u64).max(64);
        self
    }
}

/// Generates the em3d trace.
pub fn em3d(params: &Em3dParams, seed: u64) -> Trace {
    let mut r = rng(seed);
    let per_iteration: usize = (0..params.nodes).map(|n| node_extent(n) as usize).sum();
    let mut trace = Trace::with_capacity(per_iteration * params.iterations);
    let mut interleaver = Interleaver::new(1, 0.0);
    let mut visits = Visits::new();
    for _ in 0..params.iterations {
        for n in 0..params.nodes {
            // Node placement and extent are fixed functions of the node:
            // identical across iterations (perfect temporal repetition).
            let region = scatter(n, seed ^ 21, 1 << 24);
            let trigger = (splitmix64(n ^ 0xE3D) % 29) as u8;
            let work = r.gen_range(params.work.0..=params.work.1);
            let accesses = (0..node_extent(n)).map(|k| VisitAccess {
                offset: trigger + k,
                pc: 0x60_0000 + k as u64 * 4,
                write: k == 0 && n % 7 == 0,
                work,
            });
            // Dependent: a pointer chase through the node list.
            visits.push(region, true, accesses);
        }
        interleaver.drain(&mut visits, &mut r, &mut trace);
    }
    trace
}

/// The blocks an em3d node spans: 1 to 3, a fixed function of the node.
fn node_extent(n: u64) -> u8 {
    1 + (splitmix64(n ^ 0x7A11) % 3) as u8
}

/// ocean: regular grid relaxation (1026x1026 in the paper).
///
/// Dense sequential sweeps over two grids: every predictor (including the
/// baseline stride prefetcher) does well; accesses are independent, so
/// out-of-order execution already overlaps much of the latency.
#[derive(Clone, Debug)]
pub struct OceanParams {
    /// Grid size in regions (per array).
    pub grid_regions: u64,
    /// Relaxation sweeps.
    pub sweeps: usize,
    /// Non-memory work per block.
    pub work: (u16, u16),
}

impl OceanParams {
    /// Paper-shaped defaults.
    pub fn default_paper() -> Self {
        OceanParams {
            grid_regions: 6144,
            sweeps: 4,
            work: (3, 8),
        }
    }

    /// Scales the grid by `f`.
    pub fn scaled(mut self, f: f64) -> Self {
        self.grid_regions = ((self.grid_regions as f64 * f).ceil() as u64).max(16);
        self
    }
}

/// Generates the ocean trace.
pub fn ocean(params: &OceanParams, seed: u64) -> Trace {
    let mut r = rng(seed);
    let mut trace = Trace::with_capacity(params.grid_regions as usize * 32 * params.sweeps * 2);
    // Two arrays at fixed contiguous bases (grids are contiguous memory).
    let bases = [1u64 << 24, 1u64 << 25];
    let mut interleaver = Interleaver::new(2, 0.4);
    let mut visits = Visits::new();
    // Placement and kinds are identical every sweep.
    for _ in 0..params.sweeps {
        for g in 0..params.grid_regions {
            for (a, &base) in bases.iter().enumerate() {
                let region = RegionAddr::new(base + g);
                let work = r.gen_range(params.work.0..=params.work.1);
                let accesses = (0..32u8).map(|k| VisitAccess {
                    offset: k,
                    pc: 0x70_0000 + a as u64 * 0x100,
                    // A fixed subset of the second array is written,
                    // so the read-miss sequence repeats across sweeps.
                    write: a == 1 && k % 8 == 7,
                    work,
                });
                visits.push(region, false, accesses);
            }
        }
        // The interleaver RNG resets every sweep so the global access
        // order repeats exactly across sweeps (TMS is near-perfect on
        // scientific kernels, Section 5.2).
        let mut sweep_rng = rng(seed ^ 0x0CEA);
        interleaver.drain(&mut visits, &mut sweep_rng, &mut trace);
    }
    trace
}

/// sparse: sparse matrix-vector multiply (4096x4096 in the paper).
///
/// The matrix streams through sequentially each iteration; the x-vector
/// gathers are scattered and *dependent* on the column-index loads.
/// The global miss order repeats exactly (TMS near-perfect), but gather
/// clusters sharing a prediction index come in two different
/// within-region orders, so the PST's delta sequences keep toggling — the
/// paper's stated reason STeMS loses coverage on sparse (Section 5.5).
#[derive(Clone, Debug)]
pub struct SparseParams {
    /// Matrix stream size in regions.
    pub matrix_regions: u64,
    /// x-vector size in regions.
    pub x_regions: u64,
    /// Iterations (SpMV repetitions).
    pub iterations: usize,
    /// Gather clusters per matrix region.
    pub gathers_per_region: usize,
    /// Non-memory work per access.
    pub work: (u16, u16),
}

impl SparseParams {
    /// Paper-shaped defaults.
    pub fn default_paper() -> Self {
        SparseParams {
            matrix_regions: 8192,
            x_regions: 4096,
            iterations: 5,
            gathers_per_region: 2,
            work: (4, 10),
        }
    }

    /// Scales both footprints by `f`.
    pub fn scaled(mut self, f: f64) -> Self {
        self.matrix_regions = ((self.matrix_regions as f64 * f).ceil() as u64).max(32);
        self.x_regions = ((self.x_regions as f64 * f).ceil() as u64).max(16);
        self
    }
}

/// Generates the sparse trace.
pub fn sparse(params: &SparseParams, seed: u64) -> Trace {
    let mut r = rng(seed);
    let mut trace = Trace::with_capacity(
        params.matrix_regions as usize * (16 + params.gathers_per_region * 3) * params.iterations,
    );
    let matrix_base = 1u64 << 26;
    let mut interleaver = Interleaver::new(2, 0.3);
    let mut visits = Visits::new();
    for _ in 0..params.iterations {
        for m in 0..params.matrix_regions {
            // Matrix rows: 16 sequential blocks per region (values +
            // column indices), same order every iteration.
            let work = r.gen_range(params.work.0..=params.work.1);
            let accesses = (0..16u8).map(|k| VisitAccess {
                offset: k * 2,
                pc: 0x75_0000 + (k as u64 % 4) * 4,
                write: false,
                work,
            });
            visits.push(RegionAddr::new(matrix_base + m), false, accesses);
            // Gather clusters: fixed x-regions and offsets per matrix
            // region, but the within-region *order* toggles with
            // iteration parity.
            for gather in 0..params.gathers_per_region {
                let key = m ^ ((gather as u64 + 1) << 32);
                let x_region = scatter(splitmix64(key) % params.x_regions, seed ^ 31, 1 << 22);
                let base_off = (splitmix64(key ^ 0xF00) % 26) as u8;
                let mut offsets = [base_off, base_off + 2, base_off + 5];
                if splitmix64(key ^ 0x0070_661E) % 2 == 1 {
                    // Half the clusters use the reversed order: identical
                    // every iteration (temporal repetition intact), but
                    // the shared PST entry sees two delta sequences.
                    offsets.reverse();
                }
                let accesses = offsets.map(|offset| VisitAccess {
                    offset,
                    pc: 0x76_0000 + gather as u64 * 4,
                    write: false,
                    work: 4,
                });
                // Dependent: the address comes from the column-index load.
                visits.push(x_region, true, accesses);
            }
        }
        // Deterministic per-iteration interleaving: the global order
        // repeats exactly across iterations.
        let mut iter_rng = rng(seed ^ 0x59A);
        interleaver.drain(&mut visits, &mut iter_rng, &mut trace);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn em3d_iterations_repeat_the_same_address_sequence() {
        let p = Em3dParams::default_paper().scaled(0.01);
        let t = em3d(&p, 3);
        let per_iter = t.len() / p.iterations;
        let first: Vec<u64> = t.iter().take(per_iter).map(|a| a.addr.get()).collect();
        let second: Vec<u64> = t
            .iter()
            .skip(per_iter)
            .take(per_iter)
            .map(|a| a.addr.get())
            .collect();
        assert_eq!(first, second, "em3d miss sequence must repeat exactly");
    }

    #[test]
    fn em3d_is_dependence_dominated() {
        let p = Em3dParams::default_paper().scaled(0.01);
        let s = em3d(&p, 3).stats();
        assert!(s.dependent as f64 / s.accesses as f64 > 0.3, "{s}");
    }

    #[test]
    fn ocean_is_sequential_and_dense() {
        let p = OceanParams::default_paper().scaled(0.02);
        let t = ocean(&p, 1);
        // Every touched region must see all 32 offsets.
        let mut counts: HashMap<u64, u32> = HashMap::new();
        for a in t.iter() {
            *counts.entry(a.addr.region().get()).or_default() |=
                1 << a.addr.block().offset_in_region().get();
        }
        assert!(counts.values().all(|&m| m == u32::MAX));
    }

    #[test]
    fn sparse_iterations_repeat_but_cluster_orders_differ() {
        let p = SparseParams::default_paper().scaled(0.01);
        let t = sparse(&p, 9);
        let gathers: Vec<(u64, u8)> = t
            .iter()
            .filter(|a| a.pc.get() >= 0x76_0000)
            .map(|a| {
                (
                    a.addr.region().get(),
                    a.addr.block().offset_in_region().get(),
                )
            })
            .collect();
        // The global gather order repeats exactly across iterations (TMS
        // near-perfect on sparse)...
        let per_iter = gathers.len() / p.iterations;
        assert_eq!(&gathers[..per_iter], &gathers[per_iter..2 * per_iter]);
        // ...but clusters sharing the prediction index use two different
        // within-cluster orders (the PST's toggling delta sequences):
        // both ascending and descending offset runs must exist.
        let mut ascending = false;
        let mut descending = false;
        for w in gathers[..per_iter].windows(3) {
            if w[0].0 == w[1].0 && w[1].0 == w[2].0 {
                if w[0].1 < w[1].1 && w[1].1 < w[2].1 {
                    ascending = true;
                } else if w[0].1 > w[1].1 && w[1].1 > w[2].1 {
                    descending = true;
                }
            }
        }
        assert!(
            ascending && descending,
            "both cluster orders must occur (asc={ascending}, desc={descending})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = SparseParams::default_paper().scaled(0.005);
        assert_eq!(sparse(&p, 5), sparse(&p, 5));
        let q = OceanParams::default_paper().scaled(0.01);
        assert_eq!(ocean(&q, 5), ocean(&q, 5));
        let e = Em3dParams::default_paper().scaled(0.005);
        assert_eq!(em3d(&e, 5), em3d(&e, 5));
    }
}
