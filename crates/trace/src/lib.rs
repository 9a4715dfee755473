//! Memory-access traces: the interchange format between workload
//! generators, the cache simulator, the prefetchers, and the analyses.
//!
//! The paper collects traces with FLEXUS (in-order functional simulation,
//! Section 5.1) and feeds them to trace-driven predictor studies. Our
//! equivalent is the [`Trace`] type: a flat sequence of [`Access`] records,
//! each carrying the access PC, byte address, read/write kind, a
//! *dependence* annotation (whether the address was computed from the value
//! returned by the previous access — i.e. pointer chasing), and the amount
//! of non-memory work preceding it. The dependence and work annotations are
//! only consumed by the timing model; the functional cache simulation and
//! all trace analyses ignore them.
//!
//! Traces live in one of two places: in memory as a [`Trace`], or on
//! disk in the chunked, append-only store format ([`store`]) that can
//! be written incrementally and replayed in O(chunk) memory. The
//! on-disk layout is specified byte-by-byte in `docs/TRACE_FORMAT.md`.
//!
//! # Example
//!
//! ```
//! use stems_trace::{Access, AccessKind, Dependence, Trace};
//! use stems_types::{Addr, Pc};
//!
//! let mut trace = Trace::new();
//! trace.push(Access::read(Pc::new(0x400), Addr::new(0x1000)));
//! trace.push(
//!     Access::read(Pc::new(0x404), Addr::new(0x2000)).with_dep(Dependence::OnPrevAccess),
//! );
//! assert_eq!(trace.len(), 2);
//! assert_eq!(trace.iter().filter(|a| a.kind == AccessKind::Read).count(), 2);
//! ```

#![deny(missing_docs)]
// `unsafe` lives only in the record decoder's fast loop (`store`).
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod record;
pub mod stats;
pub mod store;

pub use record::{Access, AccessKind, Dependence};
pub use stats::TraceStats;
pub use store::{StoreSummary, SyncPolicy, TraceReader, TraceStoreError, TraceWriter};

use stems_types::{Addr, Pc};

/// An in-memory sequence of memory accesses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<Access>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            accesses: Vec::new(),
        }
    }

    /// Creates an empty trace with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            accesses: Vec::with_capacity(n),
        }
    }

    /// Appends an access.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(access);
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterates over accesses in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// The accesses as a slice.
    pub fn as_slice(&self) -> &[Access] {
        &self.accesses
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_trace(self)
    }

    /// Convenience: appends a read at `(pc, addr)`.
    pub fn read(&mut self, pc: u64, addr: u64) {
        self.push(Access::read(Pc::new(pc), Addr::new(addr)));
    }

    /// Convenience: appends a write at `(pc, addr)`.
    pub fn write(&mut self, pc: u64, addr: u64) {
        self.push(Access::write(Pc::new(pc), Addr::new(addr)));
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<Access> for Trace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Access;
    type IntoIter = std::vec::IntoIter<Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut t = Trace::new();
        t.read(1, 64);
        t.write(2, 128);
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(t.as_slice()[0].kind, AccessKind::Read);
        assert_eq!(t.as_slice()[1].kind, AccessKind::Write);
    }

    #[test]
    fn collect_from_iterator() {
        let t: Trace = (0..10)
            .map(|i| Access::read(Pc::new(i), Addr::new(i * 64)))
            .collect();
        assert_eq!(t.len(), 10);
    }
}
