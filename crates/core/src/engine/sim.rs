//! The coverage simulator: caches + SVB + prefetcher over a trace.

use stems_memsim::{Hierarchy, ProbeLevel, SystemConfig};
use stems_trace::{Access, Trace};
use stems_types::{BlockAddr, FetchList, FxHashSet};

use crate::util::XorShift64;

use super::{
    AccessEvent, EvictKind, PrefetchSink, Prefetcher, Satisfied, StreamTag, Svb, SvbInsert,
};

/// Counters produced by a coverage run (Figure 9 accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Demand accesses processed.
    pub accesses: u64,
    /// Demand reads processed.
    pub reads: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (after missing L1 and SVB).
    pub l2_hits: u64,
    /// Off-chip read misses eliminated by prefetching.
    pub covered: u64,
    /// Off-chip read misses suffered.
    pub uncovered: u64,
    /// Erroneously fetched blocks (evicted/invalidated/never used).
    pub overpredictions: u64,
    /// Blocks fetched from off-chip by the prefetcher (bandwidth).
    pub fetches: u64,
    /// Off-chip write misses (not part of read-coverage metrics).
    pub offchip_writes: u64,
    /// Coherence invalidations injected.
    pub invalidations: u64,
}

impl Counters {
    /// Off-chip read misses the un-prefetched run would suffer
    /// (covered + uncovered in this run).
    pub fn offchip_reads(&self) -> u64 {
        self.covered + self.uncovered
    }

    /// Coverage as a fraction of `baseline` off-chip read misses.
    pub fn coverage_vs(&self, baseline: u64) -> f64 {
        if baseline == 0 {
            0.0
        } else {
            self.covered as f64 / baseline as f64
        }
    }

    /// Overpredictions as a fraction of `baseline` off-chip read misses.
    pub fn overprediction_vs(&self, baseline: u64) -> f64 {
        if baseline == 0 {
            0.0
        } else {
            self.overpredictions as f64 / baseline as f64
        }
    }
}

/// Injects coherence invalidations, standing in for the write traffic of
/// the other 15 nodes of the paper's multiprocessor (see DESIGN.md §2).
///
/// Every access, with probability `rate`, one recently touched block is
/// invalidated from the L1/L2/SVB — ending any spatial generation covering
/// it, exactly as a remote write would.
#[derive(Clone, Debug)]
pub struct InvalidationInjector {
    /// `ceil(rate · 2^53)`: the per-access trial fires when the draw's top
    /// 53 bits fall below it (see `fires`).
    threshold: u64,
    rng: XorShift64,
    recent: Vec<BlockAddr>,
    cursor: usize,
}

/// Recently-touched blocks the injector picks victims from. Must stay a
/// power of two: `observe` wraps the cursor with a mask, not a modulo.
const RECENT_CAPACITY: usize = 1024;

impl InvalidationInjector {
    /// Creates an injector firing with probability `rate` per access.
    pub fn new(rate: f64, seed: u64) -> Self {
        // Scaling by a power of two is exact, so the ceiling is exact and
        // converts losslessly (a NaN rate saturates to 0: never fires,
        // like `XorShift64::chance`).
        let threshold = (rate.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64;
        InvalidationInjector {
            threshold,
            rng: XorShift64::new(seed),
            recent: Vec::with_capacity(RECENT_CAPACITY),
            cursor: 0,
        }
    }

    /// One Bernoulli trial at the injector's rate, consuming the RNG and
    /// deciding exactly as `XorShift64::chance(rate)` does without the
    /// float conversion: for an integer `x < 2^53`,
    /// `x · 2^-53 < p` ⟺ `x < ⌈p · 2^53⌉`.
    fn fires(&mut self) -> bool {
        (self.rng.next_u64() >> 11) < self.threshold
    }

    fn observe(&mut self, block: BlockAddr) {
        if self.recent.len() < RECENT_CAPACITY {
            self.recent.push(block);
        } else {
            self.recent[self.cursor] = block;
            self.cursor = (self.cursor + 1) & (RECENT_CAPACITY - 1);
        }
    }

    fn pick(&mut self) -> Option<BlockAddr> {
        if self.recent.is_empty() || !self.fires() {
            return None;
        }
        let i = self.rng.below(self.recent.len() as u64) as usize;
        Some(self.recent[i])
    }
}

/// Per-access outcome reported by [`CoverageSim::step`], consumed by the
/// timing model (which needs to know where each access was satisfied and
/// which prefetches were issued when).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepOutcome {
    /// Where the demand access was satisfied.
    pub satisfied: Satisfied,
    /// Whether it was satisfied by a previously prefetched block (an SVB
    /// hit, or the first touch of an SMS-style L1 prefetch).
    pub prefetched_hit: bool,
    /// Blocks fetched from off-chip by the prefetcher during this step,
    /// inline up to [`FetchList`]'s capacity so the common case performs
    /// no heap allocation.
    pub fetched: FetchList,
}

/// Trace-driven simulator of one node: L1/L2 hierarchy, SVB, and a
/// [`Prefetcher`].
///
/// # Example
///
/// ```
/// use stems_core::engine::{CoverageSim, NullPrefetcher};
/// use stems_core::PrefetchConfig;
/// use stems_memsim::SystemConfig;
/// use stems_trace::Trace;
///
/// let mut t = Trace::new();
/// t.read(0x400, 0x10_0000);
/// t.read(0x400, 0x10_0000);
/// let mut sim = CoverageSim::new(&SystemConfig::small(), &PrefetchConfig::small(), NullPrefetcher);
/// let counters = sim.run(&t);
/// assert_eq!(counters.uncovered, 1); // cold miss, then L1 hit
/// ```
#[derive(Debug)]
pub struct CoverageSim<P> {
    hierarchy: Hierarchy,
    svb: Svb,
    l1_prefetched_unused: FxHashSet<BlockAddr>,
    counters: Counters,
    prefetcher: P,
    /// [`Prefetcher::observes_l1_hits`] resolved once at construction
    /// (the hint is documented state-independent), so neither the scalar
    /// nor the batched path consults the prefetcher per access.
    observes_l1_hits: bool,
    injector: Option<InvalidationInjector>,
    scratch: StepScratch,
}

/// Buffers reused across [`CoverageSim::step`] calls so the per-access
/// path performs no heap allocation in steady state: each step drains
/// them but keeps their capacity.
#[derive(Debug)]
struct StepScratch {
    l1_evicted: Vec<BlockAddr>,
    svb_evictions: Vec<(BlockAddr, StreamTag)>,
    l1_evictions: Vec<BlockAddr>,
    /// The latest access's outcome, cleared and refilled in place by
    /// `step_core`: the batched path lends visitors a reference to it and
    /// only the scalar `step` clones it, so no per-access outcome is
    /// built or copied.
    outcome: StepOutcome,
}

struct EngineSink<'a> {
    hierarchy: &'a mut Hierarchy,
    svb: &'a mut Svb,
    l1_prefetched_unused: &'a mut FxHashSet<BlockAddr>,
    counters: &'a mut Counters,
    svb_evictions: &'a mut Vec<(BlockAddr, StreamTag)>,
    l1_evictions: &'a mut Vec<BlockAddr>,
    fetched: &'a mut FetchList,
}

impl PrefetchSink for EngineSink<'_> {
    fn fetch_svb(&mut self, block: BlockAddr, tag: StreamTag) -> bool {
        if self.hierarchy.in_l1(block) || self.hierarchy.in_l2(block) {
            return false;
        }
        // Single-hash SVB admission: residency check and insert share one
        // index probe (this runs for every candidate a stream pumps).
        match self.svb.try_insert(block, tag) {
            SvbInsert::AlreadyResident => false,
            SvbInsert::Inserted(evicted) => {
                self.counters.fetches += 1;
                self.fetched.push(block);
                if let Some((b, t)) = evicted {
                    self.counters.overpredictions += 1;
                    self.svb_evictions.push((b, t));
                }
                true
            }
        }
    }

    fn fetch_l1(&mut self, block: BlockAddr) -> bool {
        if self.hierarchy.in_l1(block) || self.hierarchy.in_l2(block) || self.svb.contains(block) {
            return false;
        }
        self.counters.fetches += 1;
        self.fetched.push(block);
        self.l1_prefetched_unused.insert(block);
        let start = self.l1_evictions.len();
        self.hierarchy.fill_into(block, self.l1_evictions);
        for i in start..self.l1_evictions.len() {
            let evicted = self.l1_evictions[i];
            if self.l1_prefetched_unused.remove(&evicted) {
                self.counters.overpredictions += 1;
            }
        }
        true
    }

    fn flush_stream(&mut self, tag: StreamTag) {
        self.counters.overpredictions += self.svb.flush_tag(tag) as u64;
    }

    fn in_l1(&self, block: BlockAddr) -> bool {
        self.hierarchy.in_l1(block)
    }

    fn in_l2(&self, block: BlockAddr) -> bool {
        self.hierarchy.in_l2(block)
    }

    fn in_svb(&self, block: BlockAddr) -> bool {
        self.svb.contains(block)
    }
}

impl<P: Prefetcher> CoverageSim<P> {
    /// Creates a simulator with empty caches.
    pub fn new(system: &SystemConfig, prefetch: &crate::PrefetchConfig, prefetcher: P) -> Self {
        let observes_l1_hits = prefetcher.observes_l1_hits();
        CoverageSim {
            hierarchy: Hierarchy::new(system),
            svb: Svb::new(prefetch.svb_entries),
            l1_prefetched_unused: stems_types::fx_set_with_capacity(prefetch.svb_entries.max(64)),
            counters: Counters::default(),
            prefetcher,
            observes_l1_hits,
            injector: None,
            scratch: StepScratch {
                l1_evicted: Vec::new(),
                svb_evictions: Vec::new(),
                l1_evictions: Vec::new(),
                outcome: StepOutcome {
                    satisfied: Satisfied::L1,
                    prefetched_hit: false,
                    fetched: FetchList::new(),
                },
            },
        }
    }

    /// Enables coherence-invalidation injection at `rate` per access.
    pub fn with_invalidations(mut self, rate: f64, seed: u64) -> Self {
        self.injector = Some(InvalidationInjector::new(rate, seed));
        self
    }

    /// The prefetcher under test.
    pub fn prefetcher(&self) -> &P {
        &self.prefetcher
    }

    /// Mutable access to the prefetcher (for inspecting internal stats).
    pub fn prefetcher_mut(&mut self) -> &mut P {
        &mut self.prefetcher
    }

    /// Counters accumulated so far (call [`CoverageSim::finalize`] first
    /// for end-of-run overprediction accounting).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Processes one access, returning where it was satisfied and which
    /// prefetches were issued.
    ///
    /// This is the scalar wrapper around the same per-access core the
    /// batched [`CoverageSim::run_chunk`] path drives; prefer the chunked
    /// entry points when the accesses are already materialized in a
    /// slice.
    pub fn step(&mut self, access: &Access) -> StepOutcome {
        self.maybe_invalidate();
        self.counters.accesses += 1;
        if access.is_read() {
            self.counters.reads += 1;
        }
        let block = access.addr.block();
        if let Some(inj) = &mut self.injector {
            inj.observe(block);
        }
        let l1_base = self.hierarchy.l1_set_base(block);
        self.step_core(access, block, l1_base, self.observes_l1_hits);
        self.scratch.outcome.clone()
    }

    /// Processes `chunk` in one call, hoisting the per-access overheads
    /// the scalar wrapper pays on every step: the injector presence
    /// branch, the `observes_l1_hits` consult, and the access/read
    /// counter bookkeeping (accumulated locally, committed per chunk).
    /// Each access's block address and L1 set base are decoded ahead of
    /// the per-access core and redeemed via `Hierarchy::probe_at`. (A
    /// chunk-wide pre-decode pass staging them through a scratch vector
    /// was measured 4-10% *slower* — the extra pass and buffer traffic
    /// outweighed any vectorization of the address arithmetic — so the
    /// decode stays per-access, just hoisted out of `step_core`.)
    ///
    /// Counters, prefetcher event order, and RNG streams are identical to
    /// an access-by-access [`CoverageSim::step`] loop over the same
    /// slice; only intermediate `accesses`/`reads` counter values differ
    /// mid-chunk (both are committed by the time the call returns).
    pub fn run_chunk(&mut self, chunk: &[Access]) {
        self.run_chunk_with(chunk, |_, _| {});
    }

    /// [`CoverageSim::run_chunk`] with a per-access observer: `visit` is
    /// called with each access and its [`StepOutcome`] in trace order.
    /// This is how the timing model consumes a batched run. The outcome
    /// is borrowed from the simulator's one per-access record, which the
    /// next access overwrites: clone it to keep it.
    pub fn run_chunk_with(
        &mut self,
        chunk: &[Access],
        mut visit: impl FnMut(&Access, &StepOutcome),
    ) {
        let observes_l1_hits = self.observes_l1_hits;
        self.counters.accesses += chunk.len() as u64;
        let mut reads: u64 = 0;
        if self.injector.is_some() {
            for access in chunk {
                reads += access.is_read() as u64;
                self.maybe_invalidate();
                let block = access.addr.block();
                if let Some(inj) = &mut self.injector {
                    inj.observe(block);
                }
                let l1_base = self.hierarchy.l1_set_base(block);
                self.step_core(access, block, l1_base, observes_l1_hits);
                visit(access, &self.scratch.outcome);
            }
        } else {
            for access in chunk {
                reads += access.is_read() as u64;
                let block = access.addr.block();
                let l1_base = self.hierarchy.l1_set_base(block);
                self.step_core(access, block, l1_base, observes_l1_hits);
                visit(access, &self.scratch.outcome);
            }
        }
        self.counters.reads += reads;
    }

    /// The per-access core shared by [`CoverageSim::step`] and the
    /// chunked paths: cache/SVB resolution, counter classification, event
    /// delivery, and eviction hooks, writing the access's outcome into
    /// `scratch.outcome`. Counter bookkeeping for `accesses`/`reads`,
    /// invalidation injection, and the block/L1-set-base decode
    /// (`l1_base` must equal `hierarchy.l1_set_base(block)`) happen in
    /// the callers.
    fn step_core(
        &mut self,
        access: &Access,
        block: BlockAddr,
        l1_base: usize,
        observes_l1_hits: bool,
    ) {
        let is_write = !access.is_read();

        self.scratch.l1_evicted.clear();
        self.scratch.outcome.fetched.clear();
        let mut prefetched_hit = false;
        // Single-pass probe: the pre-decoded L1 set base resolves the
        // whole SVB/L1/L2 pipeline, with the SVB consulted (exactly once)
        // only after the L1 missed, and evictions appended to scratch.
        let Self {
            hierarchy,
            svb,
            scratch,
            ..
        } = self;
        let mut svb_tag = None;
        let level = hierarchy.probe_at(
            l1_base,
            block,
            is_write,
            || {
                if svb.is_empty() {
                    return false;
                }
                match svb.take(block) {
                    Some(tag) => {
                        svb_tag = Some(tag);
                        true
                    }
                    None => false,
                }
            },
            &mut scratch.l1_evicted,
        );
        let satisfied = match level {
            ProbeLevel::L1 => {
                self.counters.l1_hits += 1;
                // The fast path pays the prefetched-block hash probe only
                // when SMS-style L1 prefetches are actually outstanding.
                if !self.l1_prefetched_unused.is_empty() && self.l1_prefetched_unused.remove(&block)
                {
                    prefetched_hit = true;
                    if access.is_read() {
                        // First use of an SMS-style prefetched block: an
                        // off-chip miss avoided.
                        self.counters.covered += 1;
                    }
                }
                Satisfied::L1
            }
            ProbeLevel::Svb => {
                prefetched_hit = true;
                if access.is_read() {
                    self.counters.covered += 1;
                }
                Satisfied::Svb(svb_tag.expect("probe reported an SVB consumption"))
            }
            ProbeLevel::L2 => {
                self.counters.l2_hits += 1;
                Satisfied::L2
            }
            ProbeLevel::Memory => {
                if access.is_read() {
                    self.counters.uncovered += 1;
                } else {
                    self.counters.offchip_writes += 1;
                }
                Satisfied::OffChip
            }
        };

        self.scratch.outcome.satisfied = satisfied;
        self.scratch.outcome.prefetched_hit = prefetched_hit;

        // An L1 hit evicts nothing and — for predictors that train only
        // on miss traffic — needs no event delivery at all: the fast path
        // ends here.
        if satisfied == Satisfied::L1 && !observes_l1_hits {
            return;
        }

        for i in 0..self.scratch.l1_evicted.len() {
            let b = self.scratch.l1_evicted[i];
            // Empty unless an SMS-style predictor has `fetch_l1`
            // prefetches outstanding, as on the L1-hit path above.
            if !self.l1_prefetched_unused.is_empty() && self.l1_prefetched_unused.remove(&b) {
                self.counters.overpredictions += 1;
            }
            self.prefetcher.on_l1_evict(b, EvictKind::Replacement);
        }

        let ev = AccessEvent {
            pc: access.pc,
            block,
            is_write,
            satisfied,
        };
        let mut sink = EngineSink {
            hierarchy: &mut self.hierarchy,
            svb: &mut self.svb,
            l1_prefetched_unused: &mut self.l1_prefetched_unused,
            counters: &mut self.counters,
            svb_evictions: &mut self.scratch.svb_evictions,
            l1_evictions: &mut self.scratch.l1_evictions,
            fetched: &mut self.scratch.outcome.fetched,
        };
        self.prefetcher.on_access(&ev, &mut sink);
        for i in 0..self.scratch.svb_evictions.len() {
            let (b, t) = self.scratch.svb_evictions[i];
            self.prefetcher.on_svb_evict(b, t);
        }
        self.scratch.svb_evictions.clear();
        for i in 0..self.scratch.l1_evictions.len() {
            let b = self.scratch.l1_evictions[i];
            self.prefetcher.on_l1_evict(b, EvictKind::Replacement);
        }
        self.scratch.l1_evictions.clear();
    }

    fn maybe_invalidate(&mut self) {
        let Some(inj) = &mut self.injector else {
            return;
        };
        let Some(block) = inj.pick() else {
            return;
        };
        self.counters.invalidations += 1;
        if self.hierarchy.invalidate(block) {
            if self.l1_prefetched_unused.remove(&block) {
                self.counters.overpredictions += 1;
            }
            self.prefetcher.on_l1_evict(block, EvictKind::Coherence);
        }
        if let Some(tag) = self.svb.take(block) {
            self.counters.overpredictions += 1;
            self.prefetcher.on_svb_evict(block, tag);
        }
    }

    /// Counts blocks still sitting unconsumed in the SVB or tagged in the
    /// L1 as overpredictions. Call once at end of run.
    pub fn finalize(&mut self) -> Counters {
        self.counters.overpredictions += self.svb.drain_all() as u64;
        self.counters.overpredictions += self.l1_prefetched_unused.len() as u64;
        self.l1_prefetched_unused.clear();
        self.counters
    }

    /// Runs the whole trace through the batched path and finalizes.
    pub fn run(&mut self, trace: &Trace) -> Counters {
        self.run_chunk(trace.as_slice());
        self.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullPrefetcher;
    use crate::PrefetchConfig;

    fn sys() -> SystemConfig {
        SystemConfig::small()
    }

    fn cfg() -> PrefetchConfig {
        PrefetchConfig::small()
    }

    #[test]
    fn cold_misses_are_uncovered() {
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.read(0x400, i * 1024 * 1024);
        }
        let c = CoverageSim::new(&sys(), &cfg(), NullPrefetcher).run(&t);
        assert_eq!(c.uncovered, 10);
        assert_eq!(c.covered, 0);
        assert_eq!(c.reads, 10);
    }

    #[test]
    fn repeat_accesses_hit_l1() {
        let mut t = Trace::new();
        t.read(1, 0x1000);
        t.read(1, 0x1000);
        t.read(1, 0x1010); // same block
        let c = CoverageSim::new(&sys(), &cfg(), NullPrefetcher).run(&t);
        assert_eq!(c.uncovered, 1);
        assert_eq!(c.l1_hits, 2);
    }

    /// A prefetcher that fetches block+1 into the SVB on every off-chip
    /// read miss (degenerate next-line prefetcher) — exercises the SVB
    /// cover path.
    struct NextLine;

    impl Prefetcher for NextLine {
        fn name(&self) -> &str {
            "next-line"
        }
        fn on_access(&mut self, ev: &AccessEvent, sink: &mut dyn PrefetchSink) {
            if ev.satisfied == Satisfied::OffChip && !ev.is_write {
                if let Some(next) = ev.block.offset_by(1) {
                    sink.fetch_svb(next, StreamTag(0));
                }
            }
        }
    }

    #[test]
    fn svb_hit_counts_as_covered() {
        let mut t = Trace::new();
        t.read(1, 0); // miss, prefetches block 1
        t.read(1, 64); // SVB hit -> covered
        let c = CoverageSim::new(&sys(), &cfg(), NextLine).run(&t);
        assert_eq!(c.uncovered, 1);
        assert_eq!(c.covered, 1);
        assert_eq!(c.fetches, 1);
        assert_eq!(c.overpredictions, 0);
        assert_eq!(c.offchip_reads(), 2);
    }

    #[test]
    fn unused_prefetch_counts_as_overprediction() {
        let mut t = Trace::new();
        t.read(1, 0); // prefetches block 1, never used
        let c = CoverageSim::new(&sys(), &cfg(), NextLine).run(&t);
        assert_eq!(c.covered, 0);
        assert_eq!(c.overpredictions, 1);
    }

    #[test]
    fn fetches_are_filtered_by_residency() {
        let mut t = Trace::new();
        t.read(1, 64); // miss on block 1; prefetches block 2
        t.read(1, 0); // miss on block 0; prefetch of block 1 refused (L1)
        let mut sim = CoverageSim::new(&sys(), &cfg(), NextLine);
        let c = sim.run(&t);
        assert_eq!(c.fetches, 1);
        assert_eq!(c.overpredictions, 1); // block 2 never consumed
    }

    #[test]
    fn coverage_ratios() {
        let c = Counters {
            covered: 30,
            uncovered: 70,
            overpredictions: 20,
            ..Counters::default()
        };
        assert!((c.coverage_vs(100) - 0.3).abs() < 1e-12);
        assert!((c.overprediction_vs(100) - 0.2).abs() < 1e-12);
        assert_eq!(c.coverage_vs(0), 0.0);
    }

    /// A deterministic synthetic trace mixing spatial region walks,
    /// recurring pointer-chase sequences, writes, and noise — enough to
    /// exercise every predictor's hot path.
    fn golden_trace() -> Trace {
        let mut t = Trace::new();
        let mut rng = XorShift64::new(0xD1CE);
        for _rep in 0..3 {
            for _visit in 0..400u64 {
                let region = rng.below(64);
                let len = 1 + rng.below(6);
                let stride = 1 + region % 3;
                for k in 0..len {
                    let off = (k * stride) % 32;
                    let addr = region * 2048 + off * 64 + rng.below(2) * 8;
                    let pc = 0x400 + (region % 7) * 4;
                    if rng.chance(0.2) {
                        t.write(pc, addr);
                    } else {
                        t.read(pc, addr);
                    }
                }
            }
        }
        t
    }

    /// Runs every predictor over `trace` through the batched session
    /// path, printing each row in golden-table form (regenerate an
    /// expected table by running with `--nocapture` and copying the
    /// printed values).
    fn golden_rows(
        sys: &SystemConfig,
        cfg: &PrefetchConfig,
        trace: &Trace,
        inval: (f64, u64),
    ) -> Vec<(&'static str, [u64; 10])> {
        use crate::session::{Predictor, Session};
        Predictor::all()
            .into_iter()
            .map(|p| {
                let c = Session::builder(sys)
                    .prefetch(cfg)
                    .predictor(p)
                    .invalidations(inval.0, inval.1)
                    .run(trace);
                let row = [
                    c.accesses,
                    c.reads,
                    c.l1_hits,
                    c.l2_hits,
                    c.covered,
                    c.uncovered,
                    c.overpredictions,
                    c.fetches,
                    c.offchip_writes,
                    c.invalidations,
                ];
                println!("(\"{}\", {row:?}),", p.name());
                (p.name(), row)
            })
            .collect()
    }

    /// Golden counters for every predictor over [`golden_trace`]: guards
    /// the batched session path (and any engine refactor) against
    /// behavioral drift. Regenerate by running with `--nocapture` and
    /// copying the printed values.
    #[test]
    fn golden_counters_are_stable() {
        let expected: [(&str, [u64; 10]); 6] = [
            ("none", [4088, 3237, 183, 2562, 0, 1056, 0, 0, 287, 39]),
            (
                "stride",
                [4088, 3237, 183, 2562, 66, 990, 295, 377, 271, 39],
            ),
            ("TMS", [4088, 3237, 183, 2562, 86, 970, 653, 758, 268, 39]),
            ("SMS", [4088, 3237, 401, 2289, 193, 1095, 574, 813, 303, 39]),
            ("STeMS", [4088, 3237, 183, 2562, 99, 957, 741, 865, 262, 39]),
            // The TMS+SMS row moved by 4 overpredictions/fetches when the
            // SVB gained eviction-order fidelity (stale lazy-deletion FIFO
            // entries can no longer victimize a re-inserted block); every
            // other row is byte-identical to the pre-fix goldens.
            (
                "TMS+SMS",
                [4088, 3237, 183, 2562, 169, 887, 1359, 1573, 242, 39],
            ),
        ];
        let golden = golden_rows(&sys(), &cfg(), &golden_trace(), (0.01, 42));
        for ((name, got), (ename, e)) in golden.iter().zip(expected.iter()) {
            assert_eq!(name, ename);
            assert_eq!(got, e, "{name}: counters drifted from golden values");
        }
    }

    /// A trace that keeps the hierarchy under pressure: fresh regions
    /// sharing one layout (spatial-only stream fodder), a hot small set
    /// driving L1-hit fast-path traffic, writes, and a repeating
    /// scattered traversal for the temporal predictors.
    fn pressure_trace() -> Trace {
        let mut t = Trace::new();
        let mut rng = XorShift64::new(0xBEEF);
        for r in 0..300u64 {
            let base = (1u64 << 33) + r * 2048;
            for (i, &o) in [0u64, 4, 11, 23].iter().enumerate() {
                let addr = base + o * 64;
                let pc = 0x900 + i as u64;
                if rng.chance(0.15) {
                    t.write(pc, addr);
                } else {
                    t.read(pc, addr);
                }
            }
            for _ in 0..3 {
                t.read(0x400, rng.below(16) * 64);
            }
        }
        for _ in 0..2 {
            for r in 0..64u64 {
                let base = ((r * 2654435761) % (1 << 14)) * 2048 + (1 << 32);
                for (i, &o) in [0u64, 5, 9].iter().enumerate() {
                    t.read(0x700 + i as u64, base + o * 64);
                }
            }
        }
        t
    }

    /// Second golden configuration: a tiny 1KB 2-way L1 over a 16KB L2,
    /// invalidations enabled, spatial-only streams active — the L1-hit
    /// fast path and the eviction/generation machinery run under constant
    /// pressure. Guards the probe pipeline exactly like
    /// [`golden_counters_are_stable`] guards the default geometry.
    /// Regenerate with `--nocapture` and copy the printed rows.
    #[test]
    fn golden_counters_under_pressure_are_stable() {
        use stems_memsim::CacheConfig;

        let sys = SystemConfig {
            l1: CacheConfig {
                size_bytes: 1024,
                associativity: 2,
            },
            l2: CacheConfig {
                size_bytes: 16 * 1024,
                associativity: 4,
            },
            ..SystemConfig::default()
        };
        let cfg = PrefetchConfig::small();
        assert!(cfg.spatial_only_streams, "pressure config needs them on");
        let expected: [(&str, [u64; 10]); 6] = [
            ("none", [2484, 2321, 524, 296, 0, 1501, 0, 0, 163, 52]),
            (
                "stride",
                [2484, 2321, 524, 296, 253, 1248, 72, 333, 155, 52],
            ),
            ("TMS", [2484, 2321, 524, 296, 193, 1308, 73, 266, 163, 52]),
            ("SMS", [2484, 2321, 1667, 296, 1023, 478, 1, 1144, 43, 52]),
            ("STeMS", [2484, 2321, 524, 296, 947, 554, 67, 1116, 61, 52]),
            (
                "TMS+SMS",
                [2484, 2321, 524, 296, 1089, 412, 68, 1277, 43, 52],
            ),
        ];
        let golden = golden_rows(&sys, &cfg, &pressure_trace(), (0.02, 7));
        for ((name, got), (ename, e)) in golden.iter().zip(expected.iter()) {
            assert_eq!(name, ename);
            assert_eq!(got, e, "{name}: counters drifted from golden values");
        }
    }

    /// The outcome stream agrees with the counters for every predictor on
    /// both golden traces and geometries, with and without invalidations:
    /// the fetches reported across `run_chunk_with` sum to the final
    /// `fetches` counter, and an L1 hit under a predictor that ignores L1
    /// hits reports none. An outcome record left stale from an earlier
    /// access breaks both — which the scalar-versus-batched comparisons
    /// cannot see, since both sides read the same record.
    #[test]
    fn outcome_stream_accounts_for_every_fetch() {
        use crate::session::Predictor;
        use stems_memsim::CacheConfig;

        // The geometry of `golden_counters_under_pressure_are_stable`.
        let pressure_sys = SystemConfig {
            l1: CacheConfig {
                size_bytes: 1024,
                associativity: 2,
            },
            l2: CacheConfig {
                size_bytes: 16 * 1024,
                associativity: 4,
            },
            ..SystemConfig::default()
        };
        let runs = [
            (sys(), golden_trace(), (0.01, 42)),
            (pressure_sys, pressure_trace(), (0.02, 7)),
        ];
        let cfg = cfg();
        for (sys, trace, (rate, seed)) in &runs {
            for p in Predictor::all() {
                for invalidations in [false, true] {
                    let mut sim = CoverageSim::new(sys, &cfg, p.build(&cfg));
                    if invalidations {
                        sim = sim.with_invalidations(*rate, *seed);
                    }
                    let silent_l1 = !sim.prefetcher().observes_l1_hits();
                    let mut reported = 0u64;
                    for chunk in trace.as_slice().chunks(64) {
                        sim.run_chunk_with(chunk, |_, out| {
                            reported += out.fetched.len() as u64;
                            assert!(
                                !(silent_l1 && out.satisfied == Satisfied::L1)
                                    || out.fetched.is_empty(),
                                "{p}: an unobserved L1 hit reported fetches"
                            );
                        });
                    }
                    let c = sim.finalize();
                    assert_eq!(
                        reported, c.fetches,
                        "{p} (invalidations {invalidations}): reported fetches"
                    );
                }
            }
        }
    }

    /// The injector's integer threshold makes exactly the decisions
    /// `XorShift64::chance` makes from the same draws: over whole draw
    /// streams at the edge rates, every workload's rate and `k/2^53`
    /// with its float neighbours, and at the exact boundary, where the
    /// rate is the next draw's own `x/2^53` (or a neighbour of it).
    #[test]
    fn integer_invalidation_draw_matches_float_chance() {
        const SCALE: f64 = (1u64 << 53) as f64;
        let mut rates = vec![0.0, 1.0];
        rates.extend(stems_workloads::Workload::all().map(|w| w.invalidation_rate()));
        for k in [1u64, 3, 1 << 20, (1 << 52) + 1, (1 << 53) - 1] {
            let p = k as f64 / SCALE;
            rates.extend([p.next_down(), p, p.next_up()]);
        }
        for (i, &p) in rates.iter().enumerate() {
            let seed = i as u64 + 1;
            let mut inj = InvalidationInjector::new(p, seed);
            let mut rng = XorShift64::new(seed);
            for _ in 0..100_000 {
                assert_eq!(inj.fires(), rng.chance(p), "rate {p:e}");
            }
        }

        let mut rng = XorShift64::new(0x5EED);
        for _ in 0..100_000 {
            let x = rng.clone().next_u64() >> 11;
            let p = x as f64 / SCALE;
            for q in [p.next_down(), p, p.next_up()] {
                let mut inj = InvalidationInjector::new(q, 0);
                inj.rng = rng.clone();
                assert_eq!(inj.fires(), rng.clone().chance(q), "draw {x}, rate {q:e}");
            }
            rng.next_u64();
        }
    }

    #[test]
    fn invalidation_injection_invalidates_and_counts() {
        let mut t = Trace::new();
        for i in 0..2000u64 {
            t.read(1, (i % 16) * 64);
        }
        let mut sim = CoverageSim::new(&sys(), &cfg(), NullPrefetcher).with_invalidations(0.05, 7);
        let c = sim.run(&t);
        assert!(c.invalidations > 0);
        // Invalidations force re-misses of the 16-block working set.
        assert!(c.uncovered > 16);
    }
}
