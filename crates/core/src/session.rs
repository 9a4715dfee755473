//! The unified simulation session API.
//!
//! Every experiment in the harness drives the same trace-driven engine;
//! this module is the single front door to it. [`Predictor`] names the
//! six predictors the paper evaluates, [`AnyPrefetcher`] is the
//! enum-dispatch type the factory builds (no `Box<dyn>` — the engine's
//! hot loop stays monomorphic over one concrete type), and [`Session`]
//! wraps the engine behind a builder so call sites configure a run once
//! instead of re-spelling a six-way `match` over constructors.
//!
//! # Example
//!
//! ```
//! use stems_core::session::{Predictor, Session};
//! use stems_core::PrefetchConfig;
//! use stems_memsim::SystemConfig;
//! use stems_trace::Trace;
//!
//! let mut trace = Trace::new();
//! for _ in 0..2 {
//!     for r in 0..64u64 {
//!         let base = (r * 7919 % 4096) * 2048 + (1 << 30);
//!         trace.read(0x400, base);
//!         trace.read(0x404, base + 5 * 64);
//!     }
//! }
//! let sys = SystemConfig::small();
//! let cfg = PrefetchConfig::small();
//! let baseline = Session::builder(&sys).prefetch(&cfg).run(&trace);
//! let stems = Session::builder(&sys)
//!     .prefetch(&cfg)
//!     .predictor(Predictor::Stems)
//!     .run(&trace);
//! assert!(stems.covered > 0);
//! assert!(stems.uncovered < baseline.uncovered);
//! ```

use std::fmt;
use std::str::FromStr;

use stems_memsim::SystemConfig;
use stems_obs::SessionObs;
use stems_trace::{Access, Trace};

use crate::engine::{
    AccessEvent, Counters, CoverageSim, EvictKind, NullPrefetcher, PrefetchSink, Prefetcher,
    StepOutcome, StreamTag,
};
use crate::stems::ReconStats;
use crate::{
    NaiveHybrid, PrefetchConfig, SmsPrefetcher, StemsPrefetcher, StridePrefetcher, TmsPrefetcher,
};
use stems_types::BlockAddr;

/// The predictors under evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Predictor {
    /// No prefetching (baseline miss counting).
    None,
    /// The baseline system's stride prefetcher.
    Stride,
    /// Temporal Memory Streaming.
    Tms,
    /// Spatial Memory Streaming.
    Sms,
    /// Spatio-Temporal Memory Streaming.
    Stems,
    /// TMS and SMS side by side (Section 5.5 strawman).
    Naive,
}

impl Predictor {
    /// Every predictor, in the canonical evaluation order.
    pub const ALL: [Predictor; 6] = [
        Predictor::None,
        Predictor::Stride,
        Predictor::Tms,
        Predictor::Sms,
        Predictor::Stems,
        Predictor::Naive,
    ];

    /// The three streaming predictors compared in Figures 9 and 10.
    pub const STREAMING: [Predictor; 3] = [Predictor::Tms, Predictor::Sms, Predictor::Stems];

    /// Every predictor ([`Predictor::ALL`] as a method, for iteration).
    pub fn all() -> [Predictor; 6] {
        Predictor::ALL
    }

    /// Display name; matches the [`Prefetcher::name`] of the prefetcher
    /// [`Predictor::build`] constructs, and round-trips through
    /// [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            Predictor::None => "none",
            Predictor::Stride => "stride",
            Predictor::Tms => "TMS",
            Predictor::Sms => "SMS",
            Predictor::Stems => "STeMS",
            Predictor::Naive => "TMS+SMS",
        }
    }

    /// Constructs this predictor's prefetcher for `cfg`.
    pub fn build(self, cfg: &PrefetchConfig) -> AnyPrefetcher {
        match self {
            Predictor::None => AnyPrefetcher::None(NullPrefetcher),
            Predictor::Stride => AnyPrefetcher::Stride(StridePrefetcher::new(cfg)),
            Predictor::Tms => AnyPrefetcher::Tms(TmsPrefetcher::new(cfg)),
            Predictor::Sms => AnyPrefetcher::Sms(SmsPrefetcher::new(cfg)),
            Predictor::Stems => AnyPrefetcher::Stems(StemsPrefetcher::new(cfg)),
            Predictor::Naive => AnyPrefetcher::Naive(NaiveHybrid::new(cfg)),
        }
    }
}

impl fmt::Display for Predictor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`Predictor::from_str`] for an unrecognized name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePredictorError(String);

impl fmt::Display for ParsePredictorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown predictor {:?}; expected one of none, stride, TMS, SMS, STeMS, TMS+SMS",
            self.0
        )
    }
}

impl std::error::Error for ParsePredictorError {}

impl FromStr for Predictor {
    type Err = ParsePredictorError;

    /// Parses a display name, case-insensitively; `"naive"` and
    /// `"hybrid"` are accepted as aliases for the TMS+SMS strawman.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "none" => Ok(Predictor::None),
            "stride" => Ok(Predictor::Stride),
            "tms" => Ok(Predictor::Tms),
            "sms" => Ok(Predictor::Sms),
            "stems" => Ok(Predictor::Stems),
            "tms+sms" | "naive" | "hybrid" => Ok(Predictor::Naive),
            _ => Err(ParsePredictorError(s.to_string())),
        }
    }
}

/// Enum dispatch over the six concrete prefetchers.
///
/// The engine stays generic over one monomorphic type (no `Box<dyn
/// Prefetcher>` indirection on the per-access path), and the
/// state-independent [`Prefetcher::observes_l1_hits`] hint is resolved
/// once per run by [`CoverageSim::new`] rather than re-matched per
/// access.
// One AnyPrefetcher exists per session (never collections of them), so
// the padding the smaller variants carry up to STeMS's footprint costs
// nothing; boxing the large variants would put a pointer chase on every
// on_access instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum AnyPrefetcher {
    /// [`NullPrefetcher`].
    None(NullPrefetcher),
    /// [`StridePrefetcher`].
    Stride(StridePrefetcher),
    /// [`TmsPrefetcher`].
    Tms(TmsPrefetcher),
    /// [`SmsPrefetcher`].
    Sms(SmsPrefetcher),
    /// [`StemsPrefetcher`].
    Stems(StemsPrefetcher),
    /// [`NaiveHybrid`].
    Naive(NaiveHybrid),
}

impl AnyPrefetcher {
    /// Which [`Predictor`] this prefetcher is.
    pub fn kind(&self) -> Predictor {
        match self {
            AnyPrefetcher::None(_) => Predictor::None,
            AnyPrefetcher::Stride(_) => Predictor::Stride,
            AnyPrefetcher::Tms(_) => Predictor::Tms,
            AnyPrefetcher::Sms(_) => Predictor::Sms,
            AnyPrefetcher::Stems(_) => Predictor::Stems,
            AnyPrefetcher::Naive(_) => Predictor::Naive,
        }
    }

    /// STeMS reconstruction-placement statistics, when this is the STeMS
    /// predictor.
    pub fn recon_stats(&self) -> Option<ReconStats> {
        match self {
            AnyPrefetcher::Stems(p) => Some(p.recon_stats()),
            _ => None,
        }
    }

    /// Total PST key probes issued so far, when this is the STeMS
    /// predictor (the counter behind perfbench's
    /// `stems.pst.probes_per_acc` row).
    pub fn pst_probes(&self) -> Option<u64> {
        match self {
            AnyPrefetcher::Stems(p) => Some(p.pst().probes()),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPrefetcher::None($p) => $body,
            AnyPrefetcher::Stride($p) => $body,
            AnyPrefetcher::Tms($p) => $body,
            AnyPrefetcher::Sms($p) => $body,
            AnyPrefetcher::Stems($p) => $body,
            AnyPrefetcher::Naive($p) => $body,
        }
    };
}

impl Prefetcher for AnyPrefetcher {
    fn name(&self) -> &str {
        dispatch!(self, p => p.name())
    }

    fn on_access(&mut self, ev: &AccessEvent, sink: &mut dyn PrefetchSink) {
        dispatch!(self, p => p.on_access(ev, sink))
    }

    fn observes_l1_hits(&self) -> bool {
        dispatch!(self, p => p.observes_l1_hits())
    }

    fn on_l1_evict(&mut self, block: BlockAddr, kind: EvictKind) {
        dispatch!(self, p => p.on_l1_evict(block, kind))
    }

    fn on_svb_evict(&mut self, block: BlockAddr, tag: StreamTag) {
        dispatch!(self, p => p.on_svb_evict(block, tag))
    }
}

/// Configures a [`Session`]; created by [`Session::builder`].
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    system: SystemConfig,
    prefetch: PrefetchConfig,
    predictor: Predictor,
    invalidations: Option<(f64, u64)>,
    obs: Option<SessionObs>,
}

impl SessionBuilder {
    /// Sets the prefetcher configuration (defaults to
    /// [`PrefetchConfig::default`]).
    pub fn prefetch(mut self, cfg: &PrefetchConfig) -> Self {
        self.prefetch = cfg.clone();
        self
    }

    /// Sets the predictor under test (defaults to [`Predictor::None`],
    /// the un-prefetched baseline).
    pub fn predictor(mut self, kind: Predictor) -> Self {
        self.predictor = kind;
        self
    }

    /// Enables coherence-invalidation injection at `rate` per access.
    pub fn invalidations(mut self, rate: f64, seed: u64) -> Self {
        self.invalidations = Some((rate, seed));
        self
    }

    /// Attaches an observation hook called around every chunk (defaults
    /// to none — an unobserved session pays zero overhead). Observation
    /// only reads a clock and bumps atomic metrics; it never alters
    /// simulation behaviour or counters.
    pub fn obs(mut self, hook: SessionObs) -> Self {
        self.obs = Some(hook);
        self
    }

    /// Builds the session with empty caches.
    pub fn build(self) -> Session {
        let prefetcher = self.predictor.build(&self.prefetch);
        let mut sim = CoverageSim::new(&self.system, &self.prefetch, prefetcher);
        if let Some((rate, seed)) = self.invalidations {
            sim = sim.with_invalidations(rate, seed);
        }
        Session { sim, obs: self.obs }
    }

    /// Convenience: builds the session, runs the whole trace through the
    /// batched path, and returns the finalized counters.
    pub fn run(self, trace: &Trace) -> Counters {
        self.build().run(trace)
    }
}

/// One configured simulation run: the cache hierarchy, SVB, and chosen
/// predictor behind a single driving interface.
///
/// [`Session::run_chunk`] is the one way accesses enter the engine: it
/// amortizes the per-access overheads over a whole slice of accesses,
/// and a caller that interleaves its own work between accesses delivers
/// one-access chunks.
#[derive(Debug)]
pub struct Session {
    sim: CoverageSim<AnyPrefetcher>,
    obs: Option<SessionObs>,
}

impl Session {
    /// Starts configuring a session for `system`.
    pub fn builder(system: &SystemConfig) -> SessionBuilder {
        SessionBuilder {
            system: system.clone(),
            prefetch: PrefetchConfig::default(),
            predictor: Predictor::None,
            invalidations: None,
            obs: None,
        }
    }

    /// Attaches (or replaces) the observation hook after construction —
    /// how the server binds per-tenant metrics once it knows the
    /// session id.
    pub fn set_obs(&mut self, hook: SessionObs) {
        self.obs = Some(hook);
    }

    /// Delivers a batch of accesses to the engine (see
    /// [`CoverageSim::run_chunk`]).
    pub fn run_chunk(&mut self, chunk: &[Access]) {
        match &self.obs {
            None => self.sim.run_chunk(chunk),
            Some(obs) => {
                let started = obs.begin_chunk();
                self.sim.run_chunk(chunk);
                // The hook cannot see or touch `sim`; it only records
                // elapsed time and the record count.
                obs.end_chunk(started, chunk.len());
            }
        }
    }

    /// [`Session::run_chunk`] with a per-access observer called with each
    /// access and its [`StepOutcome`] in trace order.
    pub fn run_chunk_with(&mut self, chunk: &[Access], visit: impl FnMut(&Access, &StepOutcome)) {
        self.sim.run_chunk_with(chunk, visit);
    }

    /// Streams a persisted trace store through the engine, one frame at
    /// a time: each decoded chunk is fed straight into
    /// [`Session::run_chunk`], so memory stays bounded by the store's
    /// frame size no matter how long the trace is. Returns the number
    /// of accesses replayed; call [`Session::finalize`] afterwards as
    /// with any other run.
    pub fn replay<R: std::io::Read>(
        &mut self,
        reader: &mut stems_trace::TraceReader<R>,
    ) -> Result<u64, stems_trace::TraceStoreError> {
        let mut fed = 0u64;
        while let Some(chunk) = reader.next_chunk()? {
            let len = chunk.len() as u64;
            self.run_chunk(chunk);
            fed += len;
        }
        Ok(fed)
    }

    /// Runs the whole trace through the batched path and finalizes.
    pub fn run(&mut self, trace: &Trace) -> Counters {
        // One observed chunk when a hook is attached; identical to
        // `CoverageSim::run` (run_chunk + finalize) either way.
        self.run_chunk(trace.as_slice());
        self.finalize()
    }

    /// Counters accumulated so far (call [`Session::finalize`] first for
    /// end-of-run overprediction accounting).
    pub fn counters(&self) -> &Counters {
        self.sim.counters()
    }

    /// Counts still-unconsumed prefetched blocks as overpredictions and
    /// returns the final counters. Call once at end of run.
    pub fn finalize(&mut self) -> Counters {
        self.sim.finalize()
    }

    /// Which predictor this session runs.
    pub fn predictor(&self) -> Predictor {
        self.sim.prefetcher().kind()
    }

    /// The prefetcher under test.
    pub fn prefetcher(&self) -> &AnyPrefetcher {
        self.sim.prefetcher()
    }

    /// STeMS reconstruction-placement statistics, when this session runs
    /// the STeMS predictor.
    pub fn recon_stats(&self) -> Option<ReconStats> {
        self.sim.prefetcher().recon_stats()
    }

    /// Total PST key probes issued, when this session runs the STeMS
    /// predictor.
    pub fn pst_probes(&self) -> Option<u64> {
        self.sim.prefetcher().pst_probes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_str() {
        for p in Predictor::all() {
            assert_eq!(p.name().parse::<Predictor>().unwrap(), p, "{p}");
            assert_eq!(p.to_string(), p.name());
            // Case-insensitive.
            assert_eq!(
                p.name().to_ascii_uppercase().parse::<Predictor>().unwrap(),
                p
            );
            assert_eq!(
                p.name().to_ascii_lowercase().parse::<Predictor>().unwrap(),
                p
            );
        }
        assert_eq!("naive".parse::<Predictor>().unwrap(), Predictor::Naive);
        assert!("bogus".parse::<Predictor>().is_err());
        let err = "bogus".parse::<Predictor>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn factory_covers_every_predictor_with_matching_names() {
        let cfg = PrefetchConfig::small();
        for p in Predictor::all() {
            let built = p.build(&cfg);
            assert_eq!(built.kind(), p, "factory must build its own kind");
            assert_eq!(
                built.name(),
                p.name(),
                "Prefetcher::name must match Predictor::name"
            );
            assert_eq!(
                built.recon_stats().is_some(),
                p == Predictor::Stems,
                "only STeMS exposes reconstruction stats"
            );
        }
    }

    #[test]
    fn builder_defaults_to_unprefetched_baseline() {
        let sys = SystemConfig::small();
        let s = Session::builder(&sys).build();
        assert_eq!(s.predictor(), Predictor::None);
        assert_eq!(*s.counters(), Counters::default());
    }

    #[test]
    fn session_matches_direct_engine_construction() {
        let mut trace = Trace::new();
        for i in 0..500u64 {
            trace.read(0x400 + (i % 5), ((i * 7919) % 256) * 2048);
        }
        let sys = SystemConfig::small();
        let cfg = PrefetchConfig::small();
        for p in Predictor::all() {
            let direct = {
                let mut sim =
                    CoverageSim::new(&sys, &cfg, p.build(&cfg)).with_invalidations(0.01, 99);
                sim.run(&trace)
            };
            let via_session = Session::builder(&sys)
                .prefetch(&cfg)
                .predictor(p)
                .invalidations(0.01, 99)
                .run(&trace);
            assert_eq!(direct, via_session, "{p}");
        }
    }

    #[test]
    fn replaying_a_persisted_store_matches_the_in_memory_run() {
        use stems_trace::{TraceReader, TraceWriter};

        let mut trace = Trace::new();
        for i in 0..600u64 {
            trace.read(0x500 + (i % 4), ((i * 7919) % 384) * 2048 + (i % 11) * 64);
        }
        let sys = SystemConfig::small();
        let cfg = PrefetchConfig::small();
        for p in [Predictor::Stems, Predictor::Sms] {
            let direct = Session::builder(&sys)
                .prefetch(&cfg)
                .predictor(p)
                .invalidations(0.01, 3)
                .run(&trace);
            // Small frames force many chunks through the replay path.
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf).unwrap().with_frame_capacity(53);
            w.write_accesses(trace.as_slice()).unwrap();
            w.finish().unwrap();
            drop(w);
            let mut reader = TraceReader::new(buf.as_slice()).unwrap();
            let mut session = Session::builder(&sys)
                .prefetch(&cfg)
                .predictor(p)
                .invalidations(0.01, 3)
                .build();
            let fed = session.replay(&mut reader).unwrap();
            assert_eq!(fed, trace.len() as u64);
            assert_eq!(session.finalize(), direct, "{p}");
        }
    }

    #[test]
    fn observation_never_perturbs_results() {
        // The acceptance guarantee behind the golden-counter configs:
        // attaching a hook must leave every counter byte-identical, and
        // a ManualClock makes the recorded metrics fully deterministic.
        use std::sync::Arc;
        use stems_obs::{MetricsRegistry, SessionObs};
        use stems_types::clock::{ManualClock, SharedClock};

        let mut trace = Trace::new();
        for i in 0..700u64 {
            trace.read(0x700 + (i % 6), ((i * 7919) % 300) * 2048 + (i % 13) * 64);
        }
        let sys = SystemConfig::small();
        let cfg = PrefetchConfig::small();
        for p in [Predictor::Stems, Predictor::Tms] {
            let plain = Session::builder(&sys)
                .prefetch(&cfg)
                .predictor(p)
                .invalidations(0.01, 7)
                .run(&trace);

            let clock = Arc::new(ManualClock::new());
            let reg = MetricsRegistry::new();
            let obs = SessionObs::builder(clock.clone() as SharedClock)
                .registry(&reg)
                .build();
            let mut session = Session::builder(&sys)
                .prefetch(&cfg)
                .predictor(p)
                .invalidations(0.01, 7)
                .obs(obs)
                .build();
            for chunk in trace.as_slice().chunks(100) {
                clock.advance_nanos(5_000);
                session.run_chunk(chunk);
            }
            assert_eq!(session.finalize(), plain, "{p}: observed run must match");
            assert_eq!(reg.counter("stems_chunks_total").get(), 7);
            assert_eq!(reg.counter("stems_accesses_total").get(), 700);
            // The clock only advanced between begin/end via our manual
            // ticks, so latency metrics are exact, not flaky.
            assert_eq!(reg.histogram("stems_chunk_nanos").count(), 7);
            assert_eq!(reg.histogram("stems_chunk_nanos").max(), 0);
            assert_eq!(reg.histogram("stems_chunk_records").sum(), 700);
        }
    }

    #[test]
    fn set_obs_observes_replay_and_run() {
        use std::sync::Arc;
        use stems_obs::{MetricsRegistry, SessionObs};
        use stems_trace::{TraceReader, TraceWriter};
        use stems_types::clock::{ManualClock, SharedClock};

        let mut trace = Trace::new();
        for i in 0..150u64 {
            trace.read(0x800, ((i * 31) % 64) * 2048);
        }
        let clock = Arc::new(ManualClock::new());
        let reg = MetricsRegistry::new();
        let obs = SessionObs::builder(clock as SharedClock)
            .registry(&reg)
            .build();
        let sys = SystemConfig::small();

        // Attached after construction (the server's path), replay is
        // observed chunk by chunk.
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap().with_frame_capacity(40);
        w.write_accesses(trace.as_slice()).unwrap();
        w.finish().unwrap();
        drop(w);
        let mut session = Session::builder(&sys).build();
        session.set_obs(obs.clone());
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        session.replay(&mut reader).unwrap();
        assert_eq!(reg.counter("stems_accesses_total").get(), 150);
        assert_eq!(reg.counter("stems_chunks_total").get(), 4); // ceil(150/40)

        // Session::run counts as one chunk.
        let mut second = Session::builder(&sys).obs(obs).build();
        second.run(&trace);
        assert_eq!(reg.counter("stems_accesses_total").get(), 300);
        assert_eq!(reg.counter("stems_chunks_total").get(), 5);
    }

    /// Scalar stepping is delivery in one-access chunks: every larger
    /// chunking must reproduce its counters and outcome stream.
    #[test]
    fn scalar_step_equals_batched_run_chunk() {
        let mut trace = Trace::new();
        for i in 0..800u64 {
            let addr = ((i * 2654435761) % 512) * 2048 + (i % 7) * 64;
            if i % 5 == 0 {
                trace.write(0x600, addr);
            } else {
                trace.read(0x600 + (i % 3), addr);
            }
        }
        let sys = SystemConfig::small();
        let cfg = PrefetchConfig::small();
        for p in Predictor::all() {
            let build = || {
                Session::builder(&sys)
                    .prefetch(&cfg)
                    .predictor(p)
                    .invalidations(0.02, 5)
                    .build()
            };
            let run = |chunk_size: usize| {
                let mut s = build();
                let mut outs: Vec<StepOutcome> = Vec::new();
                for chunk in trace.as_slice().chunks(chunk_size) {
                    s.run_chunk_with(chunk, |_, out| outs.push(out.clone()));
                }
                (s.finalize(), outs)
            };
            let scalar = run(1);
            for chunk_size in [7, 64, trace.len()] {
                let (counters, outs) = run(chunk_size);
                assert_eq!(counters, scalar.0, "{p} chunk {chunk_size}: counters");
                assert_eq!(outs, scalar.1, "{p} chunk {chunk_size}: outcomes");
            }
        }
    }
}
