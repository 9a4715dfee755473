//! # stems — a reproduction of *Spatio-Temporal Memory Streaming*
//! (Somogyi, Wenisch, Ailamaki, Falsafi; ISCA 2009)
//!
//! STeMS is a hardware prefetcher that records the **temporal** sequence
//! of spatial-region trigger misses and the **spatial** access sequence
//! within each region, then *reconstructs* a single predicted total miss
//! order by interleaving the two according to recorded deltas. This
//! workspace implements STeMS and everything it is evaluated against,
//! from scratch:
//!
//! * [`core`] — the prefetchers: STeMS, TMS, SMS, stride, the naive
//!   TMS+SMS hybrid, the trace-driven coverage engine, and the unified
//!   `Session` API every driver goes through;
//! * [`memsim`] — one node's caches and the Table 1 system parameters;
//! * [`workloads`] — synthetic equivalents of the paper's ten
//!   applications;
//! * [`analysis`] — Sequitur, repetition classes, correlation distance,
//!   and the joint predictability oracle (Figures 6–8);
//! * [`timing`] — the ROB/MSHR/bandwidth timing model (Figure 10);
//! * [`harness`] — per-figure experiment binaries;
//! * [`server`] / [`client`] — the trace-streaming session service:
//!   a TCP daemon multiplexing tenant sessions and its streaming
//!   client (`docs/WIRE_PROTOCOL.md`).
//!
//! # Quickstart
//!
//! ```
//! use stems::core::{Predictor, PrefetchConfig, Session};
//! use stems::memsim::SystemConfig;
//! use stems::workloads::Workload;
//!
//! let trace = Workload::Qry2.generate_scaled(0.01, 42);
//! let sys = SystemConfig::small();
//! let cfg = PrefetchConfig::commercial();
//! let baseline = Session::builder(&sys).prefetch(&cfg).run(&trace);
//! let stems = Session::builder(&sys)
//!     .prefetch(&cfg)
//!     .predictor(Predictor::Stems)
//!     .run(&trace);
//! assert!(stems.covered > 0);
//! assert!(stems.uncovered < baseline.uncovered);
//! ```

pub use stems_analysis as analysis;
pub use stems_client as client;
pub use stems_core as core;
pub use stems_harness as harness;
pub use stems_memsim as memsim;
pub use stems_server as server;
pub use stems_timing as timing;
pub use stems_trace as trace;
pub use stems_types as types;
pub use stems_workloads as workloads;
