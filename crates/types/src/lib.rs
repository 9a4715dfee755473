//! Fundamental value types shared by every crate in the STeMS reproduction.
//!
//! The paper ("Spatio-Temporal Memory Streaming", ISCA 2009) works at three
//! granularities:
//!
//! * **byte addresses** ([`Addr`]) as produced by the processor,
//! * **cache blocks** ([`BlockAddr`], 64 bytes) — the unit of caching,
//!   coherence, and prefetching,
//! * **spatial regions** ([`RegionAddr`], 2KB = 32 blocks) — the unit over
//!   which spatial patterns are learned.
//!
//! This crate defines newtypes for those granularities plus the small
//! mechanisms reused everywhere: saturating counters ([`SatCounter`]),
//! 32-bit spatial bit patterns ([`SpatialPattern`]), and ordered spatial
//! sequences ([`SpatialSequence`]) with reconstruction deltas.
//!
//! # Example
//!
//! ```
//! use stems_types::{Addr, BLOCK_BYTES, REGION_BLOCKS};
//!
//! let a = Addr::new(0x1_2345);
//! let block = a.block();
//! let region = a.region();
//! assert_eq!(block.region(), region);
//! assert!(block.offset_in_region().get() < REGION_BLOCKS as u8);
//! assert_eq!(region.base().get() % (BLOCK_BYTES * REGION_BLOCKS as u64), 0);
//! ```

// `unsafe` lives only in the CRC-32 folding kernel (`crc`).
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod addr;
pub mod bitmap;
pub mod clock;
pub mod counter;
pub mod crc;
pub mod expo;
pub mod hash;
pub mod pattern;
pub mod sequence;
pub mod smallvec;
pub mod varint;

pub use addr::{Addr, BlockAddr, BlockOffset, Pc, RegionAddr};
pub use bitmap::FlatBitmap;
pub use counter::SatCounter;
pub use hash::{
    fx_hash_u64, fx_map_with_capacity, fx_set_with_capacity, FxBuildHasher, FxHashMap, FxHashSet,
    FxHasher,
};
pub use pattern::SpatialPattern;
pub use sequence::{Delta, SeqEntry, SequenceArena, SpatialSequence};
pub use smallvec::{FetchList, SmallVec};

/// Bytes per cache block (64B, Table 1).
pub const BLOCK_BYTES: u64 = 64;
/// log2 of [`BLOCK_BYTES`].
pub const BLOCK_SHIFT: u32 = 6;
/// Cache blocks per spatial region (32, Section 2.4).
pub const REGION_BLOCKS: usize = 32;
/// Bytes per spatial region (2KB, Section 2.4).
pub const REGION_BYTES: u64 = BLOCK_BYTES * REGION_BLOCKS as u64;
/// log2 of [`REGION_BYTES`].
pub const REGION_SHIFT: u32 = 11;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(1u64 << BLOCK_SHIFT, BLOCK_BYTES);
        assert_eq!(1u64 << REGION_SHIFT, REGION_BYTES);
        assert_eq!(REGION_BYTES / BLOCK_BYTES, REGION_BLOCKS as u64);
    }
}
