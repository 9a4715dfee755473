//! Differential tests for the single-pass `decode_records`: on valid
//! payloads it must return the records, and on damaged ones the same
//! `Ok`/`Err` and the same reason string, as the four-pass
//! column-by-column decoder it replaced. That decoder lives only here,
//! as the oracle.

use proptest::prelude::*;

use stems_trace::store::{decode_records, encode_records};
use stems_trace::{Access, AccessKind, Dependence};
use stems_types::varint;
use stems_types::{Addr, Pc};

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
