//! Address newtypes: byte addresses, block addresses, region addresses,
//! block offsets within a region, and program counters.
//!
//! Keeping the granularities as distinct types prevents the classic
//! simulator bug of mixing a block number with a byte address. Conversions
//! are explicit ([`Addr::block`], [`BlockAddr::region`], ...) and cheap.

use core::fmt;

use crate::{BLOCK_SHIFT, REGION_BLOCKS, REGION_SHIFT};

/// A physical byte address.
///
/// # Example
///
/// ```
/// use stems_types::Addr;
/// let a = Addr::new(0x8040);
/// assert_eq!(a.get(), 0x8040);
/// assert_eq!(a.block().get(), 0x8040 >> 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The cache block containing this address.
    pub const fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// The 2KB spatial region containing this address.
    pub const fn region(self) -> RegionAddr {
        RegionAddr(self.0 >> REGION_SHIFT)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-block address (byte address divided by the 64B block size).
///
/// This is the granularity at which caches, the coherence directory, and
/// all prefetchers in the paper operate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a raw block number.
    pub const fn new(raw: u64) -> Self {
        BlockAddr(raw)
    }

    /// Returns the raw block number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// First byte address of the block.
    pub const fn base(self) -> Addr {
        Addr(self.0 << BLOCK_SHIFT)
    }

    /// The spatial region containing this block.
    pub const fn region(self) -> RegionAddr {
        RegionAddr(self.0 >> (REGION_SHIFT - BLOCK_SHIFT))
    }

    /// The block's offset within its 2KB region (0..32).
    pub const fn offset_in_region(self) -> BlockOffset {
        BlockOffset((self.0 & (REGION_BLOCKS as u64 - 1)) as u8)
    }

    /// The block `delta` blocks away, or `None` on address-space wraparound.
    ///
    /// Used by spatial predictors, which predict blocks at signed offsets
    /// relative to a trigger block.
    pub fn offset_by(self, delta: i64) -> Option<BlockAddr> {
        self.0.checked_add_signed(delta).map(BlockAddr)
    }
}

impl fmt::Debug for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockAddr({:#x})", self.0)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

/// A 2KB spatial-region address (byte address divided by the region size).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RegionAddr(u64);

impl RegionAddr {
    /// Creates a region address from a raw region number.
    pub const fn new(raw: u64) -> Self {
        RegionAddr(raw)
    }

    /// Returns the raw region number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// First byte address of the region.
    pub const fn base(self) -> Addr {
        Addr(self.0 << REGION_SHIFT)
    }

    /// The block at `offset` within this region.
    ///
    /// # Panics
    ///
    /// Panics if `offset.get() >= 32` (cannot happen for offsets built via
    /// [`BlockOffset::new`]).
    pub fn block_at(self, offset: BlockOffset) -> BlockAddr {
        assert!((offset.0 as usize) < REGION_BLOCKS, "offset out of region");
        BlockAddr((self.0 << (REGION_SHIFT - BLOCK_SHIFT)) + offset.0 as u64)
    }
}

impl fmt::Debug for RegionAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RegionAddr({:#x})", self.0)
    }
}

impl fmt::Display for RegionAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{:#x}", self.0)
    }
}

/// A block offset within a 2KB spatial region: `0..32`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockOffset(u8);

impl BlockOffset {
    /// Creates an offset.
    ///
    /// # Panics
    ///
    /// Panics if `raw >= 32`.
    pub fn new(raw: u8) -> Self {
        assert!(
            (raw as usize) < REGION_BLOCKS,
            "block offset {raw} out of range 0..{REGION_BLOCKS}"
        );
        BlockOffset(raw)
    }

    /// Returns the raw offset value (always `< 32`).
    pub const fn get(self) -> u8 {
        self.0
    }

    /// Iterator over all 32 offsets in order.
    pub fn all() -> impl Iterator<Item = BlockOffset> {
        (0..REGION_BLOCKS as u8).map(BlockOffset)
    }
}

impl fmt::Debug for BlockOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockOffset({})", self.0)
    }
}

impl fmt::Display for BlockOffset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{}", self.0)
    }
}

/// A program counter (the address of the instruction making an access).
///
/// SMS and STeMS correlate spatial patterns with the PC of the trigger
/// instruction, so training generalizes across regions touched by the same
/// code (Section 2.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Creates a PC from its raw value.
    pub const fn new(raw: u64) -> Self {
        Pc(raw)
    }

    /// Returns the raw value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The truncated 16-bit PC stored in RMOB entries (Section 4.3).
    pub const fn truncated16(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }
}

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pc({:#x})", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc{:#x}", self.0)
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Pc(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_round_trips_through_granularities() {
        let a = Addr::new(0x1234_5678);
        assert_eq!(a.block().base().get(), 0x1234_5678 & !63);
        assert_eq!(a.region().base().get(), 0x1234_5678 & !2047);
        assert_eq!(a.block().region(), a.region());
    }

    #[test]
    fn offset_in_region_matches_manual_computation() {
        let a = Addr::new(7 * 2048 + 13 * 64 + 5);
        assert_eq!(a.region().get(), 7);
        assert_eq!(a.block().offset_in_region().get(), 13);
        assert_eq!(a.region().block_at(BlockOffset::new(13)), a.block());
    }

    #[test]
    fn block_offset_by_signed() {
        let b = BlockAddr::new(100);
        assert_eq!(b.offset_by(5), Some(BlockAddr::new(105)));
        assert_eq!(b.offset_by(-100), Some(BlockAddr::new(0)));
        assert_eq!(b.offset_by(-101), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_offset_rejects_out_of_range() {
        let _ = BlockOffset::new(32);
    }

    #[test]
    fn all_offsets_are_in_order_and_complete() {
        let v: Vec<u8> = BlockOffset::all().map(|o| o.get()).collect();
        assert_eq!(v.len(), REGION_BLOCKS);
        assert_eq!(v[0], 0);
        assert_eq!(v[31], 31);
    }

    #[test]
    fn pc_truncation() {
        assert_eq!(Pc::new(0xABCD_1234).truncated16(), 0x1234);
    }

    #[test]
    fn display_forms_are_nonempty() {
        assert!(!format!("{}", Addr::new(0)).is_empty());
        assert!(!format!("{}", BlockAddr::new(0)).is_empty());
        assert!(!format!("{}", RegionAddr::new(0)).is_empty());
        assert!(!format!("{}", BlockOffset::new(0)).is_empty());
        assert!(!format!("{}", Pc::new(0)).is_empty());
    }
}
