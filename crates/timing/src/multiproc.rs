//! Lock-step multi-node simulation over the directory + torus substrate.
//!
//! The paper's testbed is a 16-node directory-based shared-memory
//! multiprocessor (Table 1). This module interleaves per-node traces
//! round-robin through private L1/L2 hierarchies coupled by the full-map
//! [`Directory`], applying coherence invalidations to the victims and
//! accounting torus-distance latencies per miss. The figure harnesses use
//! single-node detail plus invalidation injection for speed (the
//! injector stands in for the other 15 nodes); this substrate validates
//! that the injected rates are plausible and exercises the protocol end
//! to end.

use stems_memsim::{
    directory::DataSource, Directory, Hierarchy, Level, NodeId, SystemConfig, Torus,
};
use stems_trace::Trace;

/// Per-node statistics from a lock-step run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Demand accesses processed.
    pub accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Off-chip misses served by the home node's memory.
    pub from_memory: u64,
    /// Off-chip misses forwarded from another node's cache.
    pub from_remote_cache: u64,
    /// Coherence invalidations received that hit this node's L1.
    pub invalidations_received: u64,
    /// Estimated miss cycles (torus hops + DRAM), summed.
    pub miss_cycles: u64,
}

impl NodeStats {
    /// Off-chip misses of any source.
    pub fn offchip(&self) -> u64 {
        self.from_memory + self.from_remote_cache
    }

    /// Invalidations received per thousand accesses — directly comparable
    /// to the single-node injection rate used by the figure harnesses.
    pub fn invalidation_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.invalidations_received as f64 / self.accesses as f64
        }
    }
}

/// Aggregate result of [`run_lockstep`].
#[derive(Clone, Debug, Default)]
pub struct MultiProcReport {
    /// Per-node statistics.
    pub nodes: Vec<NodeStats>,
}

impl MultiProcReport {
    /// Sum across nodes.
    pub fn total(&self) -> NodeStats {
        let mut t = NodeStats::default();
        for n in &self.nodes {
            t.accesses += n.accesses;
            t.l1_hits += n.l1_hits;
            t.l2_hits += n.l2_hits;
            t.from_memory += n.from_memory;
            t.from_remote_cache += n.from_remote_cache;
            t.invalidations_received += n.invalidations_received;
            t.miss_cycles += n.miss_cycles;
        }
        t
    }
}

/// Runs one trace per node, interleaved round-robin, through private
/// hierarchies coupled by the directory protocol.
///
/// # Panics
///
/// Panics if `traces.len()` does not match `sys.nodes` or the torus size.
pub fn run_lockstep(sys: &SystemConfig, traces: &[Trace]) -> MultiProcReport {
    assert_eq!(traces.len(), sys.nodes, "one trace per node required");
    let dim = (sys.nodes as f64).sqrt() as usize;
    assert_eq!(dim * dim, sys.nodes, "node count must be a square torus");
    let torus = Torus::new(dim);
    let mut directory = Directory::new(sys.nodes);
    let mut hierarchies: Vec<Hierarchy> = (0..sys.nodes).map(|_| Hierarchy::new(sys)).collect();
    let mut stats = vec![NodeStats::default(); sys.nodes];
    let mut cursors = vec![0usize; sys.nodes];

    let mut live = true;
    while live {
        live = false;
        for n in 0..sys.nodes {
            let trace = &traces[n];
            if cursors[n] >= trace.len() {
                continue;
            }
            live = true;
            let access = &trace.as_slice()[cursors[n]];
            cursors[n] += 1;
            let node = NodeId(n);
            let block = access.addr.block();
            let is_write = !access.is_read();
            let out = hierarchies[n].access(block, is_write);
            for evicted in &out.l1_evicted {
                // Silent replacement notice so directory state stays
                // accurate when the block also left the L2.
                if !hierarchies[n].in_l2(*evicted) {
                    directory.evict(node, *evicted);
                }
            }
            stats[n].accesses += 1;
            if is_write && out.level != Level::Memory && directory.owner(block) != Some(node) {
                // Write hit on a line not held modified: an upgrade that
                // invalidates every other sharer.
                let w = directory.write(node, block);
                for victim in w.invalidated {
                    if victim != node && hierarchies[victim.0].invalidate(block) {
                        stats[victim.0].invalidations_received += 1;
                    }
                }
            }
            match out.level {
                Level::L1 => stats[n].l1_hits += 1,
                Level::L2 => stats[n].l2_hits += 1,
                Level::Memory => {
                    let home = torus.home(block);
                    let req_hops = torus.hops(node, home);
                    let (source, invalidated) = if is_write {
                        let w = directory.write(node, block);
                        (w.source, w.invalidated)
                    } else {
                        let r = directory.read(node, block);
                        (r.source, Vec::new())
                    };
                    for victim in invalidated {
                        if hierarchies[victim.0].invalidate(block) {
                            stats[victim.0].invalidations_received += 1;
                        }
                    }
                    let lat = match source {
                        DataSource::Memory => {
                            stats[n].from_memory += 1;
                            sys.mem_latency_cycles()
                                + 2 * req_hops as u64 * sys.hop_latency_cycles()
                        }
                        DataSource::RemoteCache(owner) => {
                            stats[n].from_remote_cache += 1;
                            let fwd = torus.hops(home, owner) + torus.hops(owner, node);
                            (req_hops as u64 + fwd as u64) * sys.hop_latency_cycles()
                        }
                    };
                    stats[n].miss_cycles += lat;
                }
            }
        }
    }
    MultiProcReport { nodes: stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sys() -> SystemConfig {
        SystemConfig::small() // 4 nodes -> 2x2 torus
    }

    /// Nodes share a block region; writes must invalidate peers.
    #[test]
    fn shared_writes_invalidate_other_nodes() {
        let sys = small_sys();
        let mut traces = Vec::new();
        for n in 0..4 {
            let mut t = Trace::new();
            for i in 0..64u64 {
                // Everyone reads the same shared blocks.
                t.read(0x1, (i % 8) * 64);
                if n == 0 && i % 4 == 0 {
                    t.write(0x2, (i % 8) * 64);
                }
            }
            traces.push(t);
        }
        let report = run_lockstep(&sys, &traces);
        let total = report.total();
        assert!(
            total.invalidations_received > 0,
            "writer must invalidate reader copies: {total:?}"
        );
        // Some misses must be served cache-to-cache.
        assert!(total.from_remote_cache > 0, "{total:?}");
    }

    #[test]
    fn private_traces_have_no_coherence_traffic() {
        let sys = small_sys();
        let traces: Vec<Trace> = (0..4)
            .map(|n| {
                let mut t = Trace::new();
                for i in 0..64u64 {
                    t.read(0x1, (n as u64 + 1) * (1 << 30) + i * 2048);
                }
                t
            })
            .collect();
        let report = run_lockstep(&sys, &traces);
        let total = report.total();
        assert_eq!(total.invalidations_received, 0);
        assert_eq!(total.from_remote_cache, 0);
        assert_eq!(total.from_memory, 4 * 64);
    }

    #[test]
    fn unequal_trace_lengths_complete() {
        let sys = small_sys();
        let mut traces: Vec<Trace> = (0..4).map(|_| Trace::new()).collect();
        traces[0].read(1, 64);
        traces[2].read(1, 128);
        traces[2].read(1, 192);
        let report = run_lockstep(&sys, &traces);
        assert_eq!(report.total().accesses, 3);
    }

    #[test]
    #[should_panic(expected = "one trace per node")]
    fn trace_count_is_validated() {
        run_lockstep(&small_sys(), &[Trace::new()]);
    }
}
