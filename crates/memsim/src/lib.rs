//! Cache and memory-system simulator substrate for the STeMS reproduction.
//!
//! The paper evaluates on a 16-processor directory-based shared-memory
//! multiprocessor with a 4x4 2D torus (Table 1). This crate models one
//! node of it: the data side of the split L1 (where all predictors
//! observe) and the unified 8MB L2. The engine stands in for the other
//! 15 nodes' writes by injecting invalidations, and the interconnect
//! enters only as the hop count of
//! [`SystemConfig::off_chip_latency_cycles`].
//!
//! * [`Cache`] — set-associative, LRU, write-back, with eviction reporting
//!   (evictions terminate spatial generations, Section 2.4);
//! * [`Hierarchy`] — an inclusive L1d + L2 pair with back-invalidation;
//! * [`SystemConfig`] — Table 1 parameters with latency conversion.
//!
//! # Example
//!
//! ```
//! use stems_memsim::{Hierarchy, ProbeLevel, SystemConfig};
//! use stems_types::BlockAddr;
//!
//! let cfg = SystemConfig::default();
//! let mut h = Hierarchy::new(&cfg);
//! let b = BlockAddr::new(42);
//! let mut evicted = Vec::new();
//! // Demand reads, with no streamed value buffer to consult.
//! assert_eq!(h.probe(b, false, || false, &mut evicted), ProbeLevel::Memory); // cold miss
//! assert_eq!(h.probe(b, false, || false, &mut evicted), ProbeLevel::L1); // now cached
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod hierarchy;

pub use cache::{Cache, CacheOutcome, Evicted, MissedSet};
pub use config::{CacheConfig, SystemConfig};
pub use hierarchy::{Hierarchy, ProbeLevel};
