//! Zero-dependency observability for the STeMS service stack.
//!
//! The ROADMAP's north star is a production-scale daemon, and a daemon
//! that cannot be observed cannot be operated. This crate is the one
//! subsystem every later layer reports through; it is `std`-only (no
//! new dependencies, consistent with the offline-container house rules)
//! and deliberately small:
//!
//! * [`MetricsRegistry`] — named atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log2 [`Histogram`]s. Handles are `Arc`-backed and
//!   lock-free to update; the registry lock is taken only at
//!   registration and render time, never on the hot path. Label
//!   support is one small static dimension (tenant / predictor /
//!   workload), resolved at registration so updates stay
//!   allocation-free.
//! * [`EventRing`] — a bounded, lock-protected ring of structured
//!   [`Event`] records (session open/close/evict, drain start/finish,
//!   wire error kinds, slow-chunk crossings) with drop-counting,
//!   drainable as JSON-lines.
//! * [`SessionObs`] — the optional hook `stems_core::Session` calls
//!   around each chunk. Time comes from a caller-supplied
//!   [`stems_types::clock::Clock`], so determinism and tests never
//!   depend on wall time; simulation results are never perturbed by
//!   observation (the hook only reads a clock and bumps atomics).
//!
//! Rendering is the Prometheus-style text exposition format
//! (`name{label="v"} value` lines, helpers in `stems_types::expo`);
//! the scheme, event schema, and scrape path are documented in
//! `docs/OBSERVABILITY.md`.
//!
//! # Example
//!
//! ```
//! use stems_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let chunks = reg.counter("stems_chunks_total");
//! let latency = reg.histogram("stems_chunk_nanos");
//! chunks.inc();
//! latency.observe(1_500);
//! let mut text = String::new();
//! reg.render(&mut text);
//! assert!(text.contains("stems_chunks_total 1"));
//! assert!(text.contains("stems_chunk_nanos_count 1"));
//! ```

#![forbid(unsafe_code)]

pub mod events;
pub mod hook;
pub mod metrics;

pub use events::{Event, EventKind, EventRing, LogLevel, MAX_EVENT_CAPACITY};
pub use hook::{SessionObs, SessionObsBuilder};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
