//! Timing simulation for the STeMS reproduction (Figure 10).
//!
//! * [`model`] — a single-node ROB/MSHR/bandwidth timing model driven by
//!   the functional coverage engine, reporting cycles and IPC;
//! * [`multiproc`] — a lock-step multi-node run over the directory +
//!   torus substrate (validates the coherence behaviour the single-node
//!   harness approximates with invalidation injection).
//!
//! # Example
//!
//! ```
//! use stems_core::engine::NullPrefetcher;
//! use stems_core::{PrefetchConfig, TmsPrefetcher};
//! use stems_memsim::SystemConfig;
//! use stems_timing::{time_trace, TimingParams};
//! use stems_trace::{Access, Dependence, Trace};
//! use stems_types::{Addr, Pc};
//!
//! // A repeated dependent-miss chain.
//! let mut t = Trace::new();
//! for _ in 0..3 {
//!     for i in 0..128u64 {
//!         let a = Addr::new(((i * 7919) % 512) * (1 << 21));
//!         t.push(Access::read(Pc::new(1), a).with_dep(Dependence::OnPrevAccess));
//!     }
//! }
//! let sys = SystemConfig::small();
//! let cfg = PrefetchConfig::small();
//! let params = TimingParams::from_system(&sys);
//! let base = time_trace(&sys, &cfg, &params, NullPrefetcher, &t, None);
//! let tms = time_trace(&sys, &cfg, &params, TmsPrefetcher::new(&cfg), &t, None);
//! assert!(tms.cycles < base.cycles);
//! ```

#![forbid(unsafe_code)]

pub mod model;
pub mod multiproc;

pub use model::{
    time_trace, SessionTiming, TimedSession, TimedSessionBuilder, TimingModel, TimingParams,
    TimingReport,
};
pub use multiproc::{run_lockstep, MultiProcReport, NodeStats};
