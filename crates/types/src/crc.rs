//! CRC-32 (IEEE 802.3), the checksum used by every binary format in the
//! workspace.
//!
//! Both the persistent trace store (`docs/TRACE_FORMAT.md`) and the wire
//! protocol (`docs/WIRE_PROTOCOL.md`) terminate their length-prefixed
//! payloads with this checksum, so the implementation lives here in the
//! leaf crate. The polynomial is the reflected `0xEDB88320`; the check
//! value for `"123456789"` is `0xCBF43926`.
//!
//! Two kernels compute the same function. On x86-64 CPUs with PCLMULQDQ
//! and SSE4.1 (detected at run time), an input of 64 bytes or more is
//! folded with carry-less multiplies (Gopal et al., "Fast CRC Computation
//! for Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009):
//! four 128-bit lanes fold 64 bytes per step, then fold into one lane,
//! which takes the remaining 16-byte blocks and is reduced 128 → 64 → 32
//! bits, the last step a Barrett reduction. Everything else, shorter
//! inputs, the fold's sub-16-byte tail and other CPUs, goes through
//! slicing-by-8: eight 256-entry tables, where `TABLES[k][b]` is the CRC
//! contribution of byte `b` followed by `k` zero bytes, fold one 8-byte
//! word per step with eight independent lookups instead of eight
//! dependent ones. Bytes past the last whole word go through
//! `TABLES[0]`, the classic bytewise table. Both kernels carry the same
//! running state, so the result is bit-for-bit the bytewise CRC for any
//! input and any split.

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
/// slice, through the same kernels as [`Crc32::update`].
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32 over a sequence of slices.
///
/// `Crc32::new()` → [`update`](Crc32::update) in any split →
/// [`finish`](Crc32::finish) produces exactly what [`crc32`] returns
/// over the concatenation.
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
        #[cfg(target_arch = "x86_64")]
        if let Some((state, tail)) = clmul::fold(self.state, bytes) {
            self.state = slicing_by_8(state, tail);
            return;
        }
        self.state = slicing_by_8(self.state, bytes);
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The portable kernel: folds `bytes` into the running (uninverted)
/// state `crc` one 8-byte word at a time.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
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
    crc
}

/// The PCLMULQDQ folding kernel (x86-64 only).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input worth folding: four 16-byte lanes.
    const MIN_BYTES: usize = 64;
    /// The paper's constants for the reflected polynomial: `k1`/`k2`
    /// fold a lane 512 bits forward (four lanes at a time), `k3`/`k4` 128
    /// bits (one lane), `k5` folds 64 bits to 32, and `P′` with `μ` drive
    /// the Barrett reduction. Each `(lo, hi)` pair multiplies a lane's low
    /// and high 64 bits.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_PRIME: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Folds every whole 16-byte block of `bytes` into `state` and returns
    /// the new state with the unfolded tail (under 16 bytes), or `None`
    /// when `bytes` is shorter than 64 bytes or the CPU lacks PCLMULQDQ or
    /// SSE4.1.
    pub(super) fn fold(state: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        if bytes.len() < MIN_BYTES
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        // SAFETY: `fold_blocks` enables `pclmulqdq` and `sse4.1`, and both
        // were detected on this CPU just above.
        Some(unsafe { fold_blocks(state, bytes) })
    }

    /// `fold` past its checks: `bytes` holds at least 64 bytes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_blocks(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks
            .split_first_chunk::<4>()
            .expect("fold takes at least 64 bytes");
        // The running state enters as the first 32 bits of the message.
        let mut x0 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[1]);
        let mut x2 = load(&first[2]);
        let mut x3 = load(&first[3]);
        let (quads, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for q in quads {
            x0 = fold_lane(x0, k1k2, load(&q[0]));
            x1 = fold_lane(x1, k1k2, load(&q[1]));
            x2 = fold_lane(x2, k1k2, load(&q[2]));
            x3 = fold_lane(x3, k1k2, load(&q[3]));
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_lane(x0, k3k4, x1);
        x = fold_lane(x, k3k4, x2);
        x = fold_lane(x, k3k4, x3);
        for block in singles {
            x = fold_lane(x, k3k4, load(block));
        }
        // 128 → 64 bits: the low half times K4, onto the high half.
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        // 64 → 32 bits: the low word times K5, onto the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let k5 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: q = (x mod x^32)·μ, then x + (q mod x^32)·P′ leaves the
        // remainder in bits 32..64.
        let p_mu = _mm_set_epi64x(MU, P_PRIME);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), p_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, r)) as u32;
        (crc, tail)
    }

    /// One fold step: `x`'s two halves times `k`'s, plus the next block.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lane(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and an unaligned load
        // has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
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

    /// SplitMix64 filler bytes.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// The folding kernel and slicing-by-8 called directly on the same
    /// buffers and running states: `update` only ever reaches one of
    /// them for a given input, so without this slicing-by-8 never sees
    /// a long input on a CPU that folds.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_and_slicing_kernels_agree() {
        let mut folded = 0;
        for (i, len) in [
            64, 65, 79, 80, 127, 128, 129, 191, 255, 256, 1000, 4096, 65_537,
        ]
        .into_iter()
        .enumerate()
        {
            let data = random_bytes(i as u64, len);
            for state in [u32::MAX, 0, 0x1234_5678] {
                let want = slicing_by_8(state, &data);
                if let Some((mid, tail)) = clmul::fold(state, &data) {
                    assert_eq!(tail.len(), len % 16, "len {len}");
                    assert_eq!(slicing_by_8(mid, tail), want, "len {len}, state {state:#x}");
                    folded += 1;
                }
            }
        }
        assert!(
            clmul::fold(u32::MAX, &[0; 63]).is_none(),
            "63 bytes never fold"
        );
        if folded == 0 {
            eprintln!("this CPU lacks PCLMULQDQ or SSE4.1: only slicing-by-8 ran");
        }
    }
}
