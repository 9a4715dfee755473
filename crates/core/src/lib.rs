//! # stems-core — Spatio-Temporal Memory Streaming
//!
//! A from-scratch implementation of the prefetchers evaluated in
//! *Spatio-Temporal Memory Streaming* (Somogyi, Wenisch, Ailamaki,
//! Falsafi; ISCA 2009):
//!
//! * [`StridePrefetcher`] — the baseline system's stride prefetcher;
//! * [`TmsPrefetcher`] — Temporal Memory Streaming: replays recorded
//!   off-chip miss sequences from a circular buffer;
//! * [`SmsPrefetcher`] — Spatial Memory Streaming: code-correlated spatial
//!   footprints over 2KB regions, with this paper's 2-bit counters;
//! * [`StemsPrefetcher`] — the paper's contribution: a reconstructed
//!   *total* predicted miss order interleaving temporal trigger sequences
//!   with per-region spatial sequences via recorded deltas;
//! * [`NaiveHybrid`] — TMS and SMS side by side (the strawman of §5.5).
//!
//! All predictors plug into the trace-driven [`engine::CoverageSim`],
//! which models one node's L1/L2 hierarchy plus the streamed value buffer
//! and produces the covered / uncovered / overpredicted accounting of the
//! paper's Figure 9. The [`session`] module is the front door: a
//! [`Predictor`] registry, the [`AnyPrefetcher`] factory, and the
//! [`Session`] builder over the engine's batched delivery path.
//!
//! # Quickstart
//!
//! ```
//! use stems_core::{Predictor, PrefetchConfig, Session};
//! use stems_memsim::SystemConfig;
//! use stems_trace::Trace;
//!
//! // A toy trace: two passes over a scattered region sequence.
//! let mut trace = Trace::new();
//! for _ in 0..2 {
//!     for r in 0..64u64 {
//!         let base = (r * 7919 % 4096) * 2048 + (1 << 30);
//!         trace.read(0x400, base);
//!         trace.read(0x404, base + 5 * 64);
//!     }
//! }
//!
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

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod naive;
pub mod protocol;
pub mod session;
pub mod sms;
pub mod stems;
pub mod streams;
pub mod stride;
pub mod tms;
pub mod util;

pub use config::PrefetchConfig;
pub use engine::{Counters, CoverageSim, NullPrefetcher, Prefetcher};
pub use naive::NaiveHybrid;
pub use session::{AnyPrefetcher, Predictor, Session, SessionBuilder};
pub use sms::SmsPrefetcher;
pub use stems::StemsPrefetcher;
pub use stride::StridePrefetcher;
pub use tms::TmsPrefetcher;
