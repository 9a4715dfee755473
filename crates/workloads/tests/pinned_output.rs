//! Pins what the ten generators and the store writer produce.
//!
//! Every figure, replay fixture and wire fixture starts from a generated
//! trace, so a change in any generator's output (or in the order it draws
//! random numbers) changes every downstream number. The table below holds
//! each workload's trace length and a hash over every access's pc,
//! address, kind, dependence and work at two seeds, plus hashes of the
//! store bytes one trace encodes to. A refactor of the generators or the
//! writer must leave all of them unchanged.

use stems_trace::store::TraceWriter;
use stems_trace::{Access, AccessKind, Dependence, Trace};
use stems_workloads::Workload;

const SCALE: f64 = 0.01;

/// `(workload, seed, accesses, hash of every access)`.
const PINNED: [(&str, u64, usize, u64); 20] = [
    ("Apache", 2009, 24945, 0xbb9897c606f65cc4),
    ("Apache", 7, 25177, 0x422aeec14cfeb482),
    ("Zeus", 2009, 24984, 0xc6ba5a61ae9c278e),
    ("Zeus", 7, 25219, 0x89fd6c12c0a668d0),
    ("DB2", 2009, 20812, 0x0c5835152c58cb59),
    ("DB2", 7, 20583, 0xc27e7710a145170f),
    ("Oracle", 2009, 20775, 0xbcd714f3f52db664),
    ("Oracle", 7, 20887, 0x3bbfc54b4cf8ed51),
    ("Qry2", 2009, 4680, 0x76a24d7b9061b26e),
    ("Qry2", 7, 4607, 0x99a80902dde12421),
    ("Qry16", 2009, 4943, 0x2aa51ef7541eaa37),
    ("Qry16", 7, 4978, 0xce69cb7dac71a5dd),
    ("Qry17", 2009, 4837, 0x26677a48f79fe278),
    ("Qry17", 7, 4808, 0x7f59bf103e75f580),
    ("em3d", 2009, 13074, 0x98393483f9280b99),
    ("em3d", 7, 13074, 0xd791509f3ff52ee7),
    ("ocean", 2009, 15872, 0x2225fc3b2e13ad5d),
    ("ocean", 7, 15872, 0x13ca0f16e1285061),
    ("sparse", 2009, 9020, 0xc09f018731fb94b9),
    ("sparse", 7, 9020, 0x2764c63ac82f34cf),
];

/// Hashes of the store bytes for DB2 at seed 2009: at the default frame
/// capacity (one frame) and at [`SMALL_FRAME`] records per frame.
const PINNED_STORE: [(usize, u64); 2] = [
    (0, 0xd929_53e4_880e_225b),
    (SMALL_FRAME, 0x428e_8676_436e_5374),
];

/// A frame capacity that does not divide the trace length, so the store
/// ends in a partial frame.
const SMALL_FRAME: usize = 1000;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

fn trace_hash(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for a in trace.iter() {
        h.bytes(&a.pc.get().to_le_bytes());
        h.bytes(&a.addr.get().to_le_bytes());
        h.bytes(&[
            (a.kind == AccessKind::Write) as u8,
            (a.dep == Dependence::OnPrevAccess) as u8,
        ]);
        h.bytes(&a.work_before.to_le_bytes());
    }
    h.0
}

/// The store bytes for `accesses`, written in slices of `slice` records
/// at `frame` records per frame (0 keeps the default capacity).
fn store_bytes(accesses: &[Access], frame: usize, slice: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = TraceWriter::new(&mut buf).unwrap();
    if frame > 0 {
        writer = writer.with_frame_capacity(frame);
    }
    for part in accesses.chunks(slice) {
        writer.write_accesses(part).unwrap();
    }
    writer.finish().unwrap();
    drop(writer);
    buf
}

fn store_hash(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

#[test]
fn generator_output_is_pinned() {
    let mut actual = Vec::new();
    for &(name, seed, _, _) in &PINNED {
        let w = Workload::all()
            .into_iter()
            .find(|w| w.name() == name)
            .unwrap();
        let trace = w.generate_scaled(SCALE, seed);
        actual.push((name, seed, trace.len(), trace_hash(&trace)));
    }
    let table: String = actual
        .iter()
        .map(|(name, seed, len, hash)| format!("    ({name:?}, {seed}, {len}, {hash:#018x}),\n"))
        .collect();
    assert_eq!(actual, PINNED, "generator output changed; now:\n{table}");
}

#[test]
fn store_bytes_are_pinned() {
    let trace = Workload::Db2.generate_scaled(SCALE, 2009);
    let accesses = trace.as_slice();
    let mut actual = Vec::new();
    for &(frame, _) in &PINNED_STORE {
        let whole = store_bytes(accesses, frame, accesses.len());
        // However the caller slices its writes, the frames are the same.
        for slice in [1, 7, 999, 1000, 1001, 4096] {
            assert!(
                store_bytes(accesses, frame, slice) == whole,
                "frame {frame}, slices of {slice}: bytes differ from one write"
            );
        }
        actual.push((frame, store_hash(&whole)));
    }
    assert_eq!(
        actual, PINNED_STORE,
        "store bytes changed; now {actual:#x?}"
    );
}
