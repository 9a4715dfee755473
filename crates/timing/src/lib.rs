//! Timing simulation for the STeMS reproduction (Figure 10).
//!
//! [`model`] is a single-node ROB/MSHR/bandwidth timing model driven by
//! the functional coverage engine, reporting cycles and IPC. A session
//! takes it on with [`SessionTiming::timing`].
//!
//! # Example
//!
//! ```
//! use stems_core::session::{Predictor, Session};
//! use stems_core::PrefetchConfig;
//! use stems_memsim::SystemConfig;
//! use stems_timing::{SessionTiming, TimingParams};
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
//! let timed = |p| {
//!     Session::builder(&sys)
//!         .prefetch(&cfg)
//!         .predictor(p)
//!         .timing(&params)
//!         .run(&t)
//! };
//! assert!(timed(Predictor::Tms).cycles < timed(Predictor::None).cycles);
//! ```

#![forbid(unsafe_code)]

pub mod model;

pub use model::{SessionTiming, TimedSessionBuilder, TimingParams, TimingReport};
