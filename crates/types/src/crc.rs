//! CRC-32 (IEEE 802.3), the checksum used by every binary format in the
//! workspace.
//!
//! Both the persistent trace store (`docs/TRACE_FORMAT.md`) and the wire
//! protocol (`docs/WIRE_PROTOCOL.md`) terminate their length-prefixed
//! payloads with this checksum, so the implementation lives here in the
//! leaf crate. The polynomial is the reflected `0xEDB88320`; the check
//! value for `"123456789"` is `0xCBF43926`.
//!
//! The kernel is slicing-by-8: eight 256-entry tables, where
//! `TABLES[k][b]` is the CRC contribution of byte `b` followed by `k`
//! zero bytes, fold one 8-byte word per step with eight independent
//! lookups instead of eight dependent ones. Bytes past the last whole
//! word go through `TABLES[0]`, the classic bytewise table, so the
//! result is bit-for-bit the bytewise CRC for any input and any split.

const POLY: u32 = 0xEDB8_8320;

const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) over one contiguous
/// slice. Table-driven (slicing-by-8); the tables are built in a const
/// context.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32 over a sequence of slices.
///
/// `Crc32::new()` → [`update`](Crc32::update) in any split →
/// [`finish`](Crc32::finish) produces exactly what [`crc32`] returns
/// over the concatenation; the wire codec uses this to checksum a
/// message header and its separately-buffered payload without copying
/// them together.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc32 { state: u32::MAX }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[((hi >> 8) & 0xFF) as usize]
                ^ t1[((hi >> 16) & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &b in tail {
            crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_contiguous_at_every_split() {
        let data = b"split me anywhere and the checksum must not care";
        let whole = crc32(data);
        for cut in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
    }
}
