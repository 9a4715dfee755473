//! System parameters (Table 1) and latency conversion.

use stems_types::BLOCK_BYTES;

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
}

impl CacheConfig {
    /// Number of sets implied by the capacity, associativity, and the
    /// global 64B block size.
    ///
    /// # Panics
    ///
    /// Panics with the reason [`CacheConfig::try_num_sets`] gives when
    /// the geometry is invalid.
    pub fn num_sets(&self) -> usize {
        self.try_num_sets()
            .unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// The geometry rule every [`Cache`](crate::Cache) is built under:
    /// at least one way and fewer than `u16::MAX` (the recency-rank
    /// range), and a nonzero power-of-two number of sets. Returns the
    /// set count, or why the geometry is invalid.
    pub fn try_num_sets(&self) -> Result<usize, &'static str> {
        if self.associativity == 0 {
            return Err("associativity must be nonzero");
        }
        if self.associativity >= u16::MAX as usize {
            return Err("associativity exceeds rank range");
        }
        let sets = (self.size_bytes / BLOCK_BYTES) as usize / self.associativity;
        if sets == 0 {
            return Err("cache must have at least one set");
        }
        if !sets.is_power_of_two() {
            return Err("set count must be a power of two");
        }
        Ok(sets)
    }
}

/// Table 1 system parameters relevant to trace-driven simulation, plus the
/// derived cycle latencies used by the timing model.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// L1 data cache (64KB 2-way in the paper).
    pub l1: CacheConfig,
    /// Unified L2 (8MB 8-way in the paper).
    pub l2: CacheConfig,
    /// Core clock in GHz (4 GHz).
    pub clock_ghz: f64,
    /// L1 load-to-use latency in cycles (2).
    pub l1_latency: u64,
    /// L2 hit latency in cycles (25).
    pub l2_latency: u64,
    /// DRAM access latency in nanoseconds (40).
    pub mem_latency_ns: f64,
    /// Per-hop torus latency in nanoseconds (25).
    pub hop_latency_ns: f64,
    /// Number of processors (16, arranged 4x4).
    pub nodes: usize,
    /// Reorder-buffer entries (96).
    pub rob_entries: usize,
    /// Dispatch/retire width (4).
    pub width: usize,
    /// L1 miss-status handling registers (32) — bounds outstanding misses.
    pub mshrs: usize,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            l1: CacheConfig {
                size_bytes: 64 * 1024,
                associativity: 2,
            },
            l2: CacheConfig {
                size_bytes: 8 * 1024 * 1024,
                associativity: 8,
            },
            clock_ghz: 4.0,
            l1_latency: 2,
            l2_latency: 25,
            mem_latency_ns: 40.0,
            hop_latency_ns: 25.0,
            nodes: 16,
            rob_entries: 96,
            width: 4,
            mshrs: 32,
        }
    }
}

impl SystemConfig {
    /// A scaled-down configuration for fast unit tests and benches: 4KB L1,
    /// 64KB L2, 4 nodes. Miss behaviour is exercised with small footprints.
    pub fn small() -> Self {
        SystemConfig {
            l1: CacheConfig {
                size_bytes: 4 * 1024,
                associativity: 2,
            },
            l2: CacheConfig {
                size_bytes: 64 * 1024,
                associativity: 4,
            },
            nodes: 4,
            ..SystemConfig::default()
        }
    }

    /// Converts nanoseconds to core cycles at the configured clock.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.clock_ghz).round() as u64
    }

    /// DRAM latency in cycles (160 at the default 4 GHz / 40 ns).
    pub fn mem_latency_cycles(&self) -> u64 {
        self.ns_to_cycles(self.mem_latency_ns)
    }

    /// Latency of one interconnect hop in cycles (100 at defaults).
    pub fn hop_latency_cycles(&self) -> u64 {
        self.ns_to_cycles(self.hop_latency_ns)
    }

    /// End-to-end off-chip miss latency in cycles for a round trip over
    /// `hops` torus hops each way plus one DRAM access.
    ///
    /// At the defaults with the torus-average ~2 hops this is in the
    /// "hundreds of cycles" regime the paper describes (Section 1).
    pub fn off_chip_latency_cycles(&self, hops: u32) -> u64 {
        self.mem_latency_cycles() + 2 * hops as u64 * self.hop_latency_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_1() {
        let c = SystemConfig::default();
        assert_eq!(c.l1.num_sets(), 512); // 64KB / 64B / 2-way
        assert_eq!(c.l2.num_sets(), 16384); // 8MB / 64B / 8-way
        assert_eq!(c.mem_latency_cycles(), 160);
        assert_eq!(c.hop_latency_cycles(), 100);
        assert_eq!(c.nodes, 16);
    }

    #[test]
    fn off_chip_latency_is_hundreds_of_cycles() {
        let c = SystemConfig::default();
        let lat = c.off_chip_latency_cycles(2);
        assert!((300..=800).contains(&lat), "latency {lat} out of regime");
    }

    #[test]
    fn geometry_rule_names_each_violation() {
        let geometry = |size_bytes, associativity| {
            CacheConfig {
                size_bytes,
                associativity,
            }
            .try_num_sets()
        };
        assert_eq!(geometry(4096, 2), Ok(32));
        assert_eq!(geometry(4096, 0), Err("associativity must be nonzero"));
        let max = u16::MAX as usize;
        assert_eq!(geometry(1 << 30, max - 1), Ok(1 << 8));
        assert_eq!(
            geometry(1 << 30, max),
            Err("associativity exceeds rank range")
        );
        assert_eq!(geometry(64, 2), Err("cache must have at least one set"));
        assert_eq!(
            geometry(3 * 2 * 64, 2),
            Err("set count must be a power of two")
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let c = CacheConfig {
            size_bytes: 3 * 64,
            associativity: 1,
        };
        let _ = c.num_sets();
    }
}
