//! Synthetic workload generators for the STeMS reproduction.
//!
//! The paper evaluates on proprietary commercial applications (TPC-C on
//! IBM DB2 and Oracle, TPC-H queries on DB2, SPECweb on Apache and Zeus)
//! plus three scientific kernels (Table 1). None of those can be run here,
//! so each is replaced by a deterministic generator that reproduces the
//! *memory behaviour* the paper attributes to it — temporal repetition,
//! PC-correlated spatial layouts, dependence structure, compulsory-miss
//! fractions, and footprints relative to the 8MB L2 (the paper's Table 1).
//!
//! # Example
//!
//! ```
//! use stems_workloads::Workload;
//!
//! let trace = Workload::Em3d.generate_scaled(0.01, 42);
//! assert!(!trace.is_empty());
//! assert_eq!(Workload::all().len(), 10);
//! ```

#![forbid(unsafe_code)]

pub mod build;
pub mod capture;
pub mod commercial;
pub mod dss;
pub mod sci;

use stems_trace::Trace;

pub use build::{Interleaver, VisitAccess, Visits};
pub use capture::{capture_into, capture_to_path, trace_file_name};
pub use commercial::CommercialParams;
pub use dss::DssParams;
pub use sci::{Em3dParams, OceanParams, SparseParams};

/// Workload category (the grouping used along the x-axis of every figure).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// SPECweb (Apache, Zeus).
    Web,
    /// TPC-C (DB2, Oracle).
    Oltp,
    /// TPC-H on DB2 (queries 2, 16, 17).
    Dss,
    /// em3d, ocean, sparse.
    Scientific,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Web => write!(f, "Web"),
            Category::Oltp => write!(f, "OLTP"),
            Category::Dss => write!(f, "DSS"),
            Category::Scientific => write!(f, "Scientific"),
        }
    }
}

/// The paper's ten applications (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Apache HTTP Server v2.0 under SPECweb99.
    Apache,
    /// Zeus Web Server v4.3 under SPECweb99.
    Zeus,
    /// TPC-C v3.0 on IBM DB2 v8 ESE.
    Db2,
    /// TPC-C v3.0 on Oracle 10g.
    Oracle,
    /// TPC-H query 2 on DB2.
    Qry2,
    /// TPC-H query 16 on DB2.
    Qry16,
    /// TPC-H query 17 on DB2.
    Qry17,
    /// em3d electromagnetic kernel.
    Em3d,
    /// ocean current simulation.
    Ocean,
    /// sparse matrix-vector multiply.
    Sparse,
}

impl Workload {
    /// All ten workloads in the paper's presentation order.
    pub fn all() -> [Workload; 10] {
        [
            Workload::Apache,
            Workload::Zeus,
            Workload::Db2,
            Workload::Oracle,
            Workload::Qry2,
            Workload::Qry16,
            Workload::Qry17,
            Workload::Em3d,
            Workload::Ocean,
            Workload::Sparse,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Apache => "Apache",
            Workload::Zeus => "Zeus",
            Workload::Db2 => "DB2",
            Workload::Oracle => "Oracle",
            Workload::Qry2 => "Qry2",
            Workload::Qry16 => "Qry16",
            Workload::Qry17 => "Qry17",
            Workload::Em3d => "em3d",
            Workload::Ocean => "ocean",
            Workload::Sparse => "sparse",
        }
    }

    /// The workload's category.
    pub fn category(self) -> Category {
        match self {
            Workload::Apache | Workload::Zeus => Category::Web,
            Workload::Db2 | Workload::Oracle => Category::Oltp,
            Workload::Qry2 | Workload::Qry16 | Workload::Qry17 => Category::Dss,
            Workload::Em3d | Workload::Ocean | Workload::Sparse => Category::Scientific,
        }
    }

    /// Whether this workload uses the scientific prefetcher configuration
    /// (stream lookahead 12 instead of 8, Section 4.3).
    pub fn is_scientific(self) -> bool {
        self.category() == Category::Scientific
    }

    /// Coherence-invalidation injection rate standing in for the other 15
    /// nodes' writes (OLTP shares the buffer pool heavily; DSS scans
    /// private data; em3d has 15% remote nodes).
    pub fn invalidation_rate(self) -> f64 {
        match self.category() {
            Category::Oltp => 3e-4,
            Category::Web => 1.5e-4,
            Category::Dss => 1e-5,
            Category::Scientific => match self {
                Workload::Em3d => 1e-4,
                _ => 3e-5,
            },
        }
    }

    /// Generates the full-size trace for `seed`.
    pub fn generate(self, seed: u64) -> Trace {
        self.generate_scaled(1.0, seed)
    }

    /// Generates a trace with footprints scaled by `scale` (1.0 = the
    /// evaluation size; smaller values for tests and benches).
    pub fn generate_scaled(self, scale: f64, seed: u64) -> Trace {
        match self {
            Workload::Apache => {
                commercial::generate(&CommercialParams::apache().scaled(scale), seed)
            }
            Workload::Zeus => commercial::generate(&CommercialParams::zeus().scaled(scale), seed),
            Workload::Db2 => commercial::generate(&CommercialParams::db2().scaled(scale), seed),
            Workload::Oracle => {
                commercial::generate(&CommercialParams::oracle().scaled(scale), seed)
            }
            Workload::Qry2 => dss::generate(&DssParams::qry2().scaled(scale), seed),
            Workload::Qry16 => dss::generate(&DssParams::qry16().scaled(scale), seed),
            Workload::Qry17 => dss::generate(&DssParams::qry17().scaled(scale), seed),
            Workload::Em3d => sci::em3d(&Em3dParams::default_paper().scaled(scale), seed),
            Workload::Ocean => sci::ocean(&OceanParams::default_paper().scaled(scale), seed),
            Workload::Sparse => sci::sparse(&SparseParams::default_paper().scaled(scale), seed),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_nonempty_deterministic_traces() {
        for w in Workload::all() {
            let a = w.generate_scaled(0.01, 7);
            let b = w.generate_scaled(0.01, 7);
            assert!(!a.is_empty(), "{w} produced an empty trace");
            assert_eq!(a, b, "{w} is not deterministic");
        }
    }

    #[test]
    fn names_and_categories_are_stable() {
        assert_eq!(Workload::Db2.name(), "DB2");
        assert_eq!(Workload::Qry16.category(), Category::Dss);
        assert!(Workload::Sparse.is_scientific());
        assert!(!Workload::Apache.is_scientific());
    }

    #[test]
    fn scientific_traces_are_dependence_heavy_where_expected() {
        let em3d = Workload::Em3d.generate_scaled(0.005, 1).stats();
        let ocean = Workload::Ocean.generate_scaled(0.02, 1).stats();
        assert!(em3d.dependent > 0);
        assert_eq!(ocean.dependent, 0, "ocean sweeps are independent");
    }
}
