//! The ROB-window timing model.
//!
//! A greedy out-of-order core model that preserves the two mechanisms the
//! paper's speedups are built on:
//!
//! * **memory-level parallelism** — independent misses overlap, bounded by
//!   the 96-entry ROB, the 32 MSHRs, and off-chip bandwidth; *dependent*
//!   misses (pointer chases) serialize, which is exactly what temporal
//!   streaming parallelizes (Section 2.1);
//! * **prefetch timeliness** — a prefetched block is only useful once its
//!   off-chip fetch completes, so bursty prediction (the naive hybrid of
//!   Section 5.5) queues on bandwidth while STeMS's single ordered stream
//!   stays just ahead of consumption.
//!
//! Instructions retire in order at the pipeline width; each access issues
//! at the latest of its program slot, the ROB head constraint, its data
//! dependence, and MSHR availability, then completes after the latency of
//! the level that satisfied it.

use std::collections::VecDeque;

use stems_core::engine::{Counters, Satisfied, StepOutcome};
use stems_core::session::SessionBuilder;
use stems_memsim::SystemConfig;
use stems_trace::{Access, Dependence, Trace};
use stems_types::{fx_map_with_capacity, BlockAddr, FxHashMap};

/// Latency and resource parameters for the timing model.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingParams {
    /// Dispatch/retire width (instructions per cycle).
    pub width: u64,
    /// Reorder-buffer size in instructions.
    pub rob: u64,
    /// Outstanding off-chip misses allowed (MSHRs).
    pub mshrs: usize,
    /// L1 hit latency (cycles).
    pub l1_latency: u64,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// SVB hit latency (cycles) — the buffer sits next to the L1.
    pub svb_latency: u64,
    /// Off-chip miss latency (cycles): DRAM plus the torus round trip at
    /// the average hop count.
    pub offchip_latency: u64,
    /// Minimum cycles between off-chip fetch starts (per-node share of
    /// the 128 GB/s bisection, Table 1).
    pub fetch_bw_cycles: u64,
}

impl TimingParams {
    /// Derives the parameters from a Table 1 system configuration.
    pub fn from_system(sys: &SystemConfig) -> Self {
        TimingParams {
            width: sys.width as u64,
            rob: sys.rob_entries as u64,
            mshrs: sys.mshrs,
            l1_latency: sys.l1_latency,
            l2_latency: sys.l2_latency,
            svb_latency: 4,
            // Table 1's 4x4 torus is two rings of four nodes. Along one
            // ring the hop counts from any node are 0, 1, 2 and 1, so
            // (0+1+2+1)/4 = 1 hop on average per ring, 2 hops in all.
            offchip_latency: sys.off_chip_latency_cycles(2),
            // 64B per fetch at ~21 GB/s of usable per-node bandwidth
            // (the 128 GB/s bisection is not uniformly contended) is one
            // fetch per ~3ns = 12 cycles at 4 GHz.
            fetch_bw_cycles: 12,
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::from_system(&SystemConfig::default())
    }
}

/// Result of a timed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingReport {
    /// Total cycles to retire the trace.
    pub cycles: u64,
    /// Instructions retired (memory accesses plus annotated work).
    pub instructions: u64,
    /// The functional coverage counters of the same run.
    pub counters: Counters,
}

impl TimingReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of `self` relative to `baseline` (same trace assumed).
    pub fn speedup_over(&self, baseline: &TimingReport) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Performance improvement in percent (the y-axis of Figure 10).
    pub fn improvement_percent_over(&self, baseline: &TimingReport) -> f64 {
        (self.speedup_over(baseline) - 1.0) * 100.0
    }
}

/// The ROB/MSHR/bandwidth core model as a step observer: feed it each
/// access and the engine's [`StepOutcome`] in trace order, then
/// [`TimingModel::finish`] with the finalized counters.
/// [`TimedSessionBuilder::run`] drives it through the session's
/// `run_chunk_with`.
#[derive(Debug)]
struct TimingModel {
    params: TimingParams,
    instr: u64,
    prev_complete: u64,
    prev_retire: u64,
    rob_floor: u64,
    /// Next cycle the off-chip fetch port is free.
    bw_free: u64,
    end: u64,
    /// (instruction index, retire time) per past access, pending ROB
    /// exit.
    window: VecDeque<(u64, u64)>,
    /// Completion times of outstanding off-chip accesses (MSHR
    /// occupancy).
    mshr_q: VecDeque<u64>,
    /// Arrival times of in-flight/banked prefetched blocks.
    ready: FxHashMap<BlockAddr, u64>,
}

impl TimingModel {
    /// Creates a model at cycle zero.
    fn new(params: &TimingParams) -> Self {
        TimingModel {
            params: params.clone(),
            instr: 0,
            prev_complete: 0,
            prev_retire: 0,
            rob_floor: 0,
            bw_free: 0,
            end: 0,
            window: VecDeque::new(),
            mshr_q: VecDeque::new(),
            ready: fx_map_with_capacity(1024),
        }
    }

    /// Accounts one access and the engine outcome that resolved it.
    fn observe(&mut self, access: &Access, out: &StepOutcome) {
        let params = &self.params;
        let block = access.addr.block();
        self.instr += access.work_before as u64 + 1;

        // Program-order dispatch slot.
        let mut t = self.instr / params.width;
        // ROB: everything more than `rob` instructions older must have
        // retired before this access can dispatch.
        let limit = self.instr.saturating_sub(params.rob);
        while let Some(&(idx, retire)) = self.window.front() {
            if idx <= limit {
                self.rob_floor = self.rob_floor.max(retire);
                self.window.pop_front();
            } else {
                break;
            }
        }
        t = t.max(self.rob_floor);
        // Data dependence: a pointer chase waits for the previous access.
        if access.dep == Dependence::OnPrevAccess {
            t = t.max(self.prev_complete);
        }

        let latency = match out.satisfied {
            Satisfied::L1 => {
                if out.prefetched_hit {
                    // First touch of an SMS-prefetched block: wait for its
                    // fetch to arrive if it has not yet.
                    let arrive = self.ready.remove(&block).unwrap_or(0);
                    params.l1_latency + arrive.saturating_sub(t)
                } else {
                    params.l1_latency
                }
            }
            Satisfied::Svb(_) => {
                let arrive = self.ready.remove(&block).unwrap_or(0);
                params.svb_latency + arrive.saturating_sub(t)
            }
            Satisfied::L2 => params.l2_latency,
            Satisfied::OffChip => {
                // MSHR admission.
                while let Some(&done) = self.mshr_q.front() {
                    if done <= t {
                        self.mshr_q.pop_front();
                    } else {
                        break;
                    }
                }
                if self.mshr_q.len() >= params.mshrs {
                    t = t.max(self.mshr_q.pop_front().expect("mshr queue nonempty"));
                }
                // Bandwidth: the demand fetch occupies the off-chip port.
                let start = t.max(self.bw_free);
                self.bw_free = start + params.fetch_bw_cycles;
                let complete_in = (start - t) + params.offchip_latency;
                let pos = self
                    .mshr_q
                    .binary_search(&(t + complete_in))
                    .unwrap_or_else(|e| e);
                self.mshr_q.insert(pos, t + complete_in);
                complete_in
            }
        };

        // Prefetches issued while handling this access occupy bandwidth
        // and arrive one off-chip latency later.
        for fetched in &out.fetched {
            let start = t.max(self.bw_free);
            self.bw_free = start + params.fetch_bw_cycles;
            self.ready.insert(*fetched, start + params.offchip_latency);
        }

        let complete = t + latency;
        self.prev_complete = complete;
        self.prev_retire = self.prev_retire.max(complete);
        self.window.push_back((self.instr, self.prev_retire));
        self.end = self
            .end
            .max(self.prev_retire)
            .max(self.instr / params.width);

        // Bound the in-flight bookkeeping.
        if self.ready.len() > 1 << 20 {
            self.ready.clear();
        }
    }

    /// Completes the run, pairing the timed cycles with the functional
    /// `counters` of the same run.
    fn finish(self, counters: Counters) -> TimingReport {
        TimingReport {
            cycles: self.end.max(1),
            instructions: self.instr,
            counters,
        }
    }
}

/// Extends [`SessionBuilder`] with the timing model, completing the
/// builder chain the harness uses:
///
/// ```
/// use stems_core::session::{Predictor, Session};
/// use stems_core::PrefetchConfig;
/// use stems_memsim::SystemConfig;
/// use stems_timing::{SessionTiming, TimingParams};
/// use stems_trace::Trace;
///
/// let sys = SystemConfig::small();
/// let mut trace = Trace::new();
/// trace.read(0x400, 0x10_0000);
/// let report = Session::builder(&sys)
///     .prefetch(&PrefetchConfig::small())
///     .predictor(Predictor::Tms)
///     .timing(&TimingParams::from_system(&sys))
///     .run(&trace);
/// assert_eq!(report.counters.accesses, 1);
/// ```
pub trait SessionTiming {
    /// Attaches the ROB/MSHR/bandwidth timing model to the session under
    /// construction.
    fn timing(self, params: &TimingParams) -> TimedSessionBuilder;
}

impl SessionTiming for SessionBuilder {
    fn timing(self, params: &TimingParams) -> TimedSessionBuilder {
        TimedSessionBuilder {
            session: self,
            params: params.clone(),
        }
    }
}

/// A [`SessionBuilder`] with a timing model attached; see
/// [`SessionTiming::timing`].
#[derive(Clone, Debug)]
pub struct TimedSessionBuilder {
    session: SessionBuilder,
    params: TimingParams,
}

impl TimedSessionBuilder {
    /// Builds the session with empty caches at cycle zero, runs the
    /// whole trace through the engine and the timing model, and returns
    /// the timing report.
    pub fn run(self, trace: &Trace) -> TimingReport {
        let mut session = self.session.build();
        let mut model = TimingModel::new(&self.params);
        session.run_chunk_with(trace.as_slice(), |access, out| model.observe(access, out));
        model.finish(session.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_core::engine::{CoverageSim, NullPrefetcher, Prefetcher};
    use stems_core::{PrefetchConfig, TmsPrefetcher};
    use stems_types::{Addr, Pc};

    /// Runs `prefetcher` over `trace` with full timing, straight on a
    /// [`CoverageSim`]: the reference a timed session must match.
    /// `invalidations` optionally enables coherence-invalidation
    /// injection `(rate, seed)`.
    fn time_trace<P: Prefetcher>(
        sys: &SystemConfig,
        cfg: &PrefetchConfig,
        params: &TimingParams,
        prefetcher: P,
        trace: &Trace,
        invalidations: Option<(f64, u64)>,
    ) -> TimingReport {
        let mut sim = CoverageSim::new(sys, cfg, prefetcher);
        if let Some((rate, seed)) = invalidations {
            sim = sim.with_invalidations(rate, seed);
        }
        let mut model = TimingModel::new(params);
        sim.run_chunk_with(trace.as_slice(), |access, out| model.observe(access, out));
        model.finish(sim.finalize())
    }

    fn sys() -> SystemConfig {
        SystemConfig::small()
    }

    fn cfg() -> PrefetchConfig {
        PrefetchConfig::small()
    }

    fn params() -> TimingParams {
        TimingParams::from_system(&SystemConfig::small())
    }

    fn run_null(t: &Trace) -> TimingReport {
        time_trace(&sys(), &cfg(), &params(), NullPrefetcher, t, None)
    }

    #[test]
    fn l1_hits_run_at_core_speed() {
        let mut t = Trace::new();
        for _ in 0..1000 {
            t.push(Access::read(Pc::new(1), Addr::new(64)).with_work(3));
        }
        let r = run_null(&t);
        // 4 instructions per access at width 4: ~1 cycle per access.
        assert!(r.ipc() > 3.0, "ipc = {}", r.ipc());
    }

    #[test]
    fn dependent_misses_serialize() {
        // 64 dependent cold misses: total time ~ 64 * offchip latency.
        let mut dep_t = Trace::new();
        let mut ind_t = Trace::new();
        for i in 0..64u64 {
            let a = Addr::new(i * (1 << 21));
            dep_t.push(Access::read(Pc::new(1), a).with_dep(Dependence::OnPrevAccess));
            ind_t.push(Access::read(Pc::new(1), a));
        }
        let dep = run_null(&dep_t);
        let ind = run_null(&ind_t);
        assert!(
            dep.cycles > 3 * ind.cycles,
            "dependent {} vs independent {}",
            dep.cycles,
            ind.cycles
        );
        let p = params();
        assert!(dep.cycles >= 64 * p.offchip_latency);
    }

    #[test]
    fn rob_bounds_independent_overlap() {
        // Without work, 96-instruction ROB admits ~96 parallel accesses;
        // with large work budgets between accesses the window shrinks.
        let mut t = Trace::new();
        for i in 0..256u64 {
            t.push(Access::read(Pc::new(1), Addr::new(i * (1 << 21))).with_work(95));
        }
        let r = run_null(&t);
        // Each access is ~96 instructions apart: ROB holds ~1 access, so
        // misses barely overlap.
        let p = params();
        assert!(r.cycles > 128 * p.fetch_bw_cycles, "cycles = {}", r.cycles);
    }

    #[test]
    fn prefetching_speeds_up_repeated_pointer_chase() {
        let mut t = Trace::new();
        for _ in 0..4 {
            for i in 0..256u64 {
                let a = Addr::new(((i * 7919 + 13) % 1024) * (1 << 21));
                t.push(
                    Access::read(Pc::new(1), a)
                        .with_dep(Dependence::OnPrevAccess)
                        .with_work(8),
                );
            }
        }
        let base = run_null(&t);
        let tms = time_trace(
            &sys(),
            &cfg(),
            &params(),
            TmsPrefetcher::new(&cfg()),
            &t,
            None,
        );
        assert!(
            tms.improvement_percent_over(&base) > 30.0,
            "TMS should parallelize the chase: base {} vs tms {} ({}%)",
            base.cycles,
            tms.cycles,
            tms.improvement_percent_over(&base)
        );
    }

    #[test]
    fn bandwidth_limits_burst_fetches() {
        // 64 independent misses issue in a burst: total time is bounded
        // below by the bandwidth serialization.
        let mut t = Trace::new();
        for i in 0..64u64 {
            t.push(Access::read(Pc::new(1), Addr::new(i * (1 << 21))));
        }
        let r = run_null(&t);
        let p = params();
        assert!(r.cycles >= 48 * p.fetch_bw_cycles);
    }

    #[test]
    fn timed_session_matches_time_trace() {
        use stems_core::session::{Predictor, Session};

        let mut t = Trace::new();
        for _ in 0..3 {
            for i in 0..200u64 {
                let a = Addr::new(((i * 7919 + 13) % 512) * (1 << 21));
                t.push(
                    Access::read(Pc::new(1), a)
                        .with_dep(Dependence::OnPrevAccess)
                        .with_work(4),
                );
            }
        }
        for p in Predictor::all() {
            let direct = time_trace(
                &sys(),
                &cfg(),
                &params(),
                p.build(&cfg()),
                &t,
                Some((0.01, 9)),
            );
            let via_session = Session::builder(&sys())
                .prefetch(&cfg())
                .predictor(p)
                .invalidations(0.01, 9)
                .timing(&params())
                .run(&t);
            assert_eq!(direct, via_session, "{p}");
        }
    }

    #[test]
    fn report_arithmetic() {
        let a = TimingReport {
            cycles: 100,
            instructions: 400,
            counters: Counters::default(),
        };
        let b = TimingReport {
            cycles: 50,
            instructions: 400,
            counters: Counters::default(),
        };
        assert!((b.speedup_over(&a) - 2.0).abs() < 1e-12);
        assert!((b.improvement_percent_over(&a) - 100.0).abs() < 1e-12);
        assert!((a.ipc() - 4.0).abs() < 1e-12);
    }
}
