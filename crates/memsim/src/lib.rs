//! Cache and memory-system simulator substrate for the STeMS reproduction.
//!
//! The paper evaluates on a 16-processor directory-based shared-memory
//! multiprocessor (Table 1): per-node split L1 caches (we model the data
//! side, where all predictors observe), a unified 8MB L2, a directory
//! protocol, and a 4x4 2D torus interconnect. This crate implements those
//! substrates:
//!
//! * [`Cache`] — set-associative, LRU, write-back, with eviction reporting
//!   (evictions terminate spatial generations, Section 2.4);
//! * [`Hierarchy`] — an inclusive L1d + L2 pair with back-invalidation;
//! * [`Directory`] — an MSI-style full-map directory at 64B grain;
//! * [`Torus`] — wrap-around Manhattan hop distances and latency;
//! * [`SystemConfig`] — Table 1 parameters with latency conversion.
//!
//! # Example
//!
//! ```
//! use stems_memsim::{Hierarchy, Level, SystemConfig};
//! use stems_types::BlockAddr;
//!
//! let cfg = SystemConfig::default();
//! let mut h = Hierarchy::new(&cfg);
//! let b = BlockAddr::new(42);
//! assert_eq!(h.access(b, false).level, Level::Memory); // cold miss
//! assert_eq!(h.access(b, false).level, Level::L1);     // now cached
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod directory;
pub mod hierarchy;
pub mod torus;

pub use cache::{Cache, CacheOutcome, Evicted, MissedSet};
pub use config::{CacheConfig, SystemConfig};
pub use directory::{Directory, NodeId, ReadOutcome, WriteOutcome};
pub use hierarchy::{Hierarchy, HierarchyOutcome, Level, ProbeLevel};
pub use torus::Torus;
