//! Workload-characterization analyses for the STeMS reproduction
//! (the paper's Sections 5.2-5.4).
//!
//! * [`filter`] — extracts the off-chip read-miss sequence and spatial
//!   generation structure from a raw trace (the front end for all
//!   analyses);
//! * [`joint`] — Figure 6: each miss classified by idealized temporal /
//!   spatial predictability;
//! * [`sequitur`] + [`repetition`] — Figure 7: grammar-based temporal
//!   repetition breakdown of miss and trigger sequences;
//! * [`corr`] — Figure 8: correlation distance within spatial
//!   generations.
//!
//! # Example
//!
//! ```
//! use stems_analysis::{filter::filter_trace, joint::joint_analysis};
//! use stems_memsim::SystemConfig;
//! use stems_trace::Trace;
//!
//! let mut t = Trace::new();
//! for pass in 0..2 {
//!     for i in 0..64u64 {
//!         t.read(0x400, (i * 7919 % 512) * 2048 + (1 << 30));
//!     }
//!     let _ = pass;
//! }
//! let misses = filter_trace(&t, &SystemConfig::small()).misses;
//! let joint = joint_analysis(&misses);
//! assert!(joint.temporal_fraction() > 0.3); // the second pass repeats
//! ```

#![forbid(unsafe_code)]

pub mod corr;
pub mod filter;
pub mod joint;
pub mod repetition;
pub mod sequitur;

pub use corr::{correlation_distance, CorrDistanceHist};
pub use filter::{filter_trace, FilterOutput, GenerationRecord, MissRecord};
pub use joint::{joint_analysis, JointBreakdown};
pub use repetition::{classify, classify_grammar, RepetitionBreakdown};
pub use sequitur::{GSym, Grammar, Sequitur};
