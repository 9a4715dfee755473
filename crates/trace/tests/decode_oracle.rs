//! Differential tests for the single-pass `decode_records` and its fast
//! loop: on valid payloads it must return the records, and on damaged
//! ones the same `Ok`/`Err` and the same reason string, as the four-pass
//! column-by-column decoder it replaced. That decoder lives only here,
//! as the oracle.

use proptest::prelude::*;

use stems_trace::store::{decode_records, encode_records, DEFAULT_FRAME_RECORDS};
use stems_trace::{Access, AccessKind, Dependence};
use stems_types::varint;
use stems_types::{Addr, Pc};
use stems_workloads::Workload;

/// The four-pass decoder `decode_records` replaced: pc column, address
/// column, flags, work, each in its own pass over the records.
fn decode_four_pass(
    payload: &[u8],
    count: usize,
    out: &mut Vec<Access>,
) -> Result<(), &'static str> {
    out.clear();
    out.reserve(count);
    let mut pos = 0usize;
    let next_delta = |payload: &[u8], pos: &mut usize| -> Result<i64, &'static str> {
        let (v, n) =
            varint::read_i64(&payload[*pos..]).ok_or("varint runs past the frame payload")?;
        *pos += n;
        Ok(v)
    };
    let mut prev = 0i64;
    for _ in 0..count {
        prev = prev.wrapping_add(next_delta(payload, &mut pos)?);
        out.push(Access::read(Pc::new(prev as u64), Addr::new(0)));
    }
    let mut prev = 0i64;
    for a in out.iter_mut() {
        prev = prev.wrapping_add(next_delta(payload, &mut pos)?);
        a.addr = Addr::new(prev as u64);
    }
    let flag_bytes = count.div_ceil(4);
    if payload.len() < pos + flag_bytes {
        return Err("flags column runs past the frame payload");
    }
    for (i, a) in out.iter_mut().enumerate() {
        let bits = payload[pos + i / 4] >> (2 * (i % 4));
        if bits & 0b01 != 0 {
            a.kind = AccessKind::Write;
        }
        if bits & 0b10 != 0 {
            a.dep = Dependence::OnPrevAccess;
        }
    }
    if !count.is_multiple_of(4) && payload[pos + flag_bytes - 1] >> (2 * (count % 4)) != 0 {
        return Err("nonzero padding bits in the flags column");
    }
    pos += flag_bytes;
    for a in out.iter_mut() {
        let (work, n) =
            varint::read_u64(&payload[pos..]).ok_or("varint runs past the frame payload")?;
        pos += n;
        if work > u16::MAX as u64 {
            return Err("work value exceeds u16");
        }
        a.work_before = work as u16;
    }
    if pos != payload.len() {
        return Err("trailing bytes after the last column");
    }
    Ok(())
}

fn access(pc: u64, addr: u64, write: bool, dep: bool, work: u16) -> Access {
    let a = if write {
        Access::write(Pc::new(pc), Addr::new(addr))
    } else {
        Access::read(Pc::new(pc), Addr::new(addr))
    };
    let dep = if dep {
        Dependence::OnPrevAccess
    } else {
        Dependence::Independent
    };
    a.with_dep(dep).with_work(work)
}

/// A small frame mixing short and long varints in every column.
fn small_frame(n: u64) -> Vec<Access> {
    (0..n)
        .map(|i| {
            let pc = if i % 4 == 3 {
                u64::MAX - i
            } else {
                0x400 + i * 4
            };
            let addr = (i * 2_654_435_761) % (1 << 40);
            let work = [0u16, 1, 127, 128, 300, u16::MAX][i as usize % 6];
            access(pc, addr, i % 3 == 0, i % 5 == 0, work)
        })
        .collect()
}

/// Both decoders on one payload: same result, and on success the same
/// records.
fn assert_agree(payload: &[u8], count: usize, what: &str) {
    let (mut fast, mut oracle) = (Vec::new(), Vec::new());
    let got = decode_records(payload, count, &mut fast);
    let want = decode_four_pass(payload, count, &mut oracle);
    assert_eq!(got, want, "{what}: count {count}, payload {payload:02x?}");
    if want.is_ok() {
        assert_eq!(fast, oracle, "{what}");
    }
}

/// Every way of damaging one frame: each single-byte flip (with several
/// masks, including the continuation bit), each truncation, appended
/// bytes, and the record count off by one either way.
fn assert_agree_on_damage(records: &[Access]) {
    let mut payload = Vec::new();
    encode_records(records, &mut payload);
    let count = records.len();
    assert_agree(&payload, count, "pristine");
    for pos in 0..payload.len() {
        for mask in [0x80u8, 0x01, 0x7F, 0xFF, 0x40] {
            let mut bad = payload.clone();
            bad[pos] ^= mask;
            assert_agree(&bad, count, &format!("flip {mask:#04x} at {pos}"));
        }
    }
    for cut in 0..payload.len() {
        assert_agree(&payload[..cut], count, &format!("cut at {cut}"));
    }
    for extra in [&[0x00][..], &[0x80], &[0x01, 0x02], &[0xFF; 9]] {
        let mut long = payload.clone();
        long.extend_from_slice(extra);
        assert_agree(&long, count, &format!("appended {extra:02x?}"));
    }
    assert_agree(&payload, count + 1, "count + 1");
    if count > 0 {
        assert_agree(&payload, count - 1, "count - 1");
    }
}

/// A zigzag value whose LEB128 encoding is exactly `len` bytes (1..=8).
fn value_of_len(len: usize, salt: u64) -> u64 {
    let low = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
    low + salt % ((1u64 << (7 * len)) - low)
}

/// `n` records whose pc and address deltas encode in 1–8 bytes each,
/// lengths drawn at random so every column mixes them, with work values
/// at the 1-, 2- and 3-byte boundaries: the frames the fast loop takes.
fn short_varint_frame(n: usize, seed: u64) -> Vec<Access> {
    let mut rng = TestRng::new(seed);
    let (mut pc, mut addr) = (0u64, 0u64);
    (0..n)
        .map(|_| {
            let dpc = value_of_len(1 + rng.below(8) as usize, rng.next_u64());
            let daddr = value_of_len(1 + rng.below(8) as usize, rng.next_u64());
            pc = pc.wrapping_add(varint::unzigzag(dpc) as u64);
            addr = addr.wrapping_add(varint::unzigzag(daddr) as u64);
            let work = [0u16, 1, 127, 128, 16_383, 16_384, u16::MAX][rng.below(7) as usize];
            access(pc, addr, rng.below(2) == 0, rng.below(3) == 0, work)
        })
        .collect()
}

/// Offsets of the `n` varints that start at `from`: `(start, end)` each.
fn varint_spans(payload: &[u8], from: usize, n: usize) -> Vec<(usize, usize)> {
    let mut pos = from;
    (0..n)
        .map(|_| {
            let (_, len) = varint::read_u64(&payload[pos..]).expect("well-formed column");
            pos += len;
            (pos - len, pos)
        })
        .collect()
}

/// The payload of `records`, checked to be a fast-loop frame: every pc
/// and address varint 1–8 bytes long.
fn short_varint_payload(records: &[Access]) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_records(records, &mut payload);
    let spans = varint_spans(&payload, 0, 2 * records.len());
    assert!(spans.iter().all(|(start, end)| end - start <= 8));
    payload
}

/// `value`'s 7-bit groups spread over exactly `width` bytes: a
/// non-minimal encoding of the same value up to ten bytes, an overlong
/// one past that.
fn widened(value: u64, width: usize) -> Vec<u8> {
    (0..width)
        .map(|i| {
            let group = if 7 * i < 64 {
                (value >> (7 * i)) as u8 & 0x7F
            } else {
                0
            };
            if i + 1 < width {
                group | 0x80
            } else {
                group
            }
        })
        .collect()
}

#[test]
fn every_damaged_fast_loop_frame_fails_alike() {
    for (seed, n) in [8, 9, 11, 16, 31, 64, 129, 512].into_iter().enumerate() {
        let records = short_varint_frame(n, seed as u64);
        short_varint_payload(&records);
        assert_agree_on_damage(&records);
    }
}

#[test]
fn frames_that_leave_the_fast_loop_late_decode_alike() {
    let records = short_varint_frame(64, 77);
    let payload = short_varint_payload(&records);
    let count = records.len();
    let mut out = Vec::new();

    // The last record's pc varint, widened to 9 bytes (still valid) and
    // to 11 (overlong).
    let (start, end) = varint_spans(&payload, 0, count)[count - 1];
    let (value, _) = varint::read_u64(&payload[start..]).unwrap();
    for width in [9, 11] {
        let wide = [&payload[..start], &widened(value, width), &payload[end..]].concat();
        assert_agree(&wide, count, &format!("last pc varint {width} bytes wide"));
    }
    let nine = [&payload[..start], &widened(value, 9), &payload[end..]].concat();
    assert_eq!(decode_records(&nine, count, &mut out), Ok(()));
    assert_eq!(out, records);
    let eleven = [&payload[..start], &widened(value, 11), &payload[end..]].concat();
    assert_eq!(
        decode_records(&eleven, count, &mut out),
        Err("varint runs past the frame payload")
    );

    // The last work value set to 65,536.
    let work_start = varint_spans(&payload, 0, 2 * count)[2 * count - 1].1 + count.div_ceil(4);
    let (start, end) = varint_spans(&payload, work_start, count)[count - 1];
    assert_eq!(end, payload.len());
    let mut big = payload[..start].to_vec();
    varint::write_u64(&mut big, 65_536);
    assert_agree(&big, count, "last work value 65,536");
    assert_eq!(
        decode_records(&big, count, &mut out),
        Err("work value exceeds u16")
    );
}

#[test]
fn a_full_db2_frame_decodes_alike_pristine_and_damaged() {
    let trace = Workload::Db2.generate_scaled(0.02, 2009);
    let records = &trace.as_slice()[..DEFAULT_FRAME_RECORDS];
    let payload = short_varint_payload(records);
    let count = records.len();
    let mut out = Vec::new();
    assert_eq!(decode_records(&payload, count, &mut out), Ok(()));
    assert_eq!(out, records);
    assert_agree(&payload, count, "pristine DB2 frame");

    // Every 3,001st byte, each byte around the column boundaries, and the
    // last 24 bytes (the work column's byte-at-a-time tail).
    let pc_end = varint_spans(&payload, 0, count)[count - 1].1;
    let addr_end = varint_spans(&payload, pc_end, count)[count - 1].1;
    let work_start = addr_end + count.div_ceil(4);
    let mut positions: Vec<usize> = (0..payload.len()).step_by(3_001).collect();
    for edge in [pc_end, addr_end, work_start] {
        positions.extend(edge - 2..edge + 2);
    }
    positions.extend(payload.len() - 24..payload.len());
    for &pos in &positions {
        for mask in [0x80u8, 0x01, 0xFF] {
            let mut bad = payload.clone();
            bad[pos] ^= mask;
            assert_agree(&bad, count, &format!("DB2 flip {mask:#04x} at {pos}"));
        }
        assert_agree(&payload[..pos], count, &format!("DB2 cut at {pos}"));
    }
    for extra in [&[0x00][..], &[0x80], &[0xFF; 9]] {
        let long = [&payload[..], extra].concat();
        assert_agree(&long, count, &format!("DB2 appended {extra:02x?}"));
    }
    assert_agree(&payload, count + 1, "DB2 count + 1");
    assert_agree(&payload, count - 1, "DB2 count - 1");
}

#[test]
fn every_damaged_small_frame_fails_alike() {
    for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 13] {
        assert_agree_on_damage(&small_frame(n));
    }
}

#[test]
fn errors_keep_the_column_order() {
    // An 11-byte and a 10th-byte-violating varint at the front of the
    // pc column.
    let records = small_frame(6);
    let mut payload = Vec::new();
    encode_records(&records, &mut payload);
    let mut overlong = vec![0x80u8; 10];
    overlong.extend_from_slice(&payload);
    assert_agree(&overlong, 6, "11-byte pc varint");
    let mut tenth = vec![0xFFu8; 9];
    tenth.push(0x02);
    tenth.extend_from_slice(&payload[1..]);
    assert_agree(&tenth, 6, "10th-byte violation");

    // Record 0's work value is 2^16, but record 1's address varint is 11
    // bytes long: the address column's error wins.
    let eleven = [[0x80u8; 10].as_slice(), &[0x00]].concat();
    let late_address = [
        &[0x00, 0x00][..],         // pc column
        &[0x00],                   // address 0
        &eleven,                   // address 1, overlong
        &[0x00],                   // flags
        &[0x80, 0x80, 0x04, 0x00], // work: 65536, 0
    ]
    .concat();
    assert_agree(&late_address, 2, "work overflow before a bad address");
    let mut out = Vec::new();
    assert_eq!(
        decode_records(&late_address, 2, &mut out),
        Err("varint runs past the frame payload")
    );

    // A short flags column behind an 11-byte pc varint: the pc error wins.
    let short_flags = [&eleven[..], &[0x00]].concat();
    assert_agree(&short_flags, 1, "short flags behind a bad pc varint");
    assert_eq!(
        decode_records(&short_flags, 1, &mut out),
        Err("varint runs past the frame payload")
    );
}

proptest! {
    /// Arbitrary records round-trip through both decoders alike.
    #[test]
    fn valid_payloads_decode_identically(
        rows in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>(), any::<u16>()),
            0..200,
        ),
    ) {
        let records: Vec<Access> = rows
            .iter()
            .map(|&(pc, addr, w, d, work)| access(pc, addr, w, d, work))
            .collect();
        let mut payload = Vec::new();
        encode_records(&records, &mut payload);
        let mut out = Vec::new();
        prop_assert_eq!(decode_records(&payload, records.len(), &mut out), Ok(()));
        prop_assert_eq!(&out, &records);
        assert_agree(&payload, records.len(), "valid");
    }

    /// Random fast-loop frames, intact and with a burst of random bytes
    /// written over them.
    #[test]
    fn short_varint_frames_decode_alike(
        n in 8usize..600,
        seed in any::<u64>(),
        at in any::<usize>(),
        burst in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let records = short_varint_frame(n, seed);
        let mut payload = short_varint_payload(&records);
        let mut out = Vec::new();
        prop_assert_eq!(decode_records(&payload, n, &mut out), Ok(()));
        prop_assert_eq!(&out, &records);
        let at = at % payload.len();
        for (i, b) in burst.iter().enumerate() {
            if let Some(slot) = payload.get_mut(at + i) {
                *slot = *b;
            }
        }
        assert_agree(&payload, n, "burst over a fast-loop frame");
    }

    /// Random frames damaged at random: a burst of random bytes written
    /// over the payload, then a random count.
    #[test]
    fn randomly_damaged_payloads_fail_alike(
        n in 0u64..24,
        at in any::<usize>(),
        burst in proptest::collection::vec(any::<u8>(), 1..6),
        count_delta in 0usize..3,
    ) {
        let records = small_frame(n);
        let mut payload = Vec::new();
        encode_records(&records, &mut payload);
        if !payload.is_empty() {
            let at = at % payload.len();
            for (i, b) in burst.iter().enumerate() {
                if let Some(slot) = payload.get_mut(at + i) {
                    *slot = *b;
                }
            }
        }
        let count = (records.len() + count_delta).saturating_sub(1);
        assert_agree(&payload, count, "burst");
    }
}
