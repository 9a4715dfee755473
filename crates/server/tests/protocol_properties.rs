//! Property tests for the session protocol and the live service:
//! arbitrary records survive the full client → TCP → server → session
//! round trip at any chunking, and hostile payloads fed to the typed
//! message decoders are rejected — never panics, never garbage.

mod support;

use proptest::prelude::*;

use stems_client::Client;
use stems_core::protocol::{Request, Response};
use stems_core::{Predictor, Session};
use stems_server::ServerConfig;
use stems_trace::{Access, AccessKind, Dependence, Trace};
use stems_types::{Addr, Pc};
use support::{open_request, start_server};

fn access(pc: u64, addr: u64, write: bool, dep: bool, work: u16) -> Access {
    Access {
        pc: Pc::new(pc),
        addr: Addr::new(addr),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        dep: if dep {
            Dependence::OnPrevAccess
        } else {
            Dependence::Independent
        },
        work_before: work,
    }
}

/// Pins the worked example in `docs/WIRE_PROTOCOL.md` byte for byte: a
/// `SeqChunk` feeding session 7 two reads as its first chunk, whose
/// payload from the count onward is the trace store spec's frame payload
/// for the same records.
#[test]
fn chunk_worked_example_is_byte_exact() {
    let records = [
        access(0x400, 0x1000, false, false, 0),
        access(0x404, 0x1040, false, false, 0),
    ];
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    stems_core::protocol::encode_seq_chunk(&mut out, &mut scratch, 7, 1, &records);
    let expected: &[u8] = &[
        0x06, // kind = SeqChunk
        0x0d, 0x00, 0x00, 0x00, // payload_len = 13
        0x07, // session = 7
        0x01, // seq = 1
        0x02, // count = 2
        0x80, 0x10, 0x08, // pc deltas
        0x80, 0x40, 0x80, 0x01, // addr deltas
        0x00, // flags: two reads, independent
        0x00, 0x00, // work: 0, 0
        0x80, 0x44, 0x57, 0xd2, // CRC-32 (0xD2574480) over the 18 bytes above
    ];
    assert_eq!(
        out, expected,
        "docs/WIRE_PROTOCOL.md worked example drifted"
    );

    // And it reads back as the same request, with no byte left over.
    let mut rest = out.as_slice();
    let request = Request::read_from(&mut rest, &mut Vec::new(), &mut Vec::new()).unwrap();
    assert!(rest.is_empty());
    match request.unwrap() {
        Request::SeqChunk {
            session,
            seq,
            records: decoded,
        } => {
            assert_eq!((session, seq), (7, 1));
            assert_eq!(decoded, records);
        }
        other => panic!("expected SeqChunk, decoded {other:?}"),
    }
}

proptest! {
    /// Any record sequence, delivered in chunks of any size over a real
    /// loopback connection, finalizes to exactly the counters a local
    /// session produces from the same records — chunk boundaries are
    /// invisible to the simulation.
    #[test]
    fn loopback_replay_is_chunking_invariant(
        records in proptest::collection::vec(
            (any::<u64>(), 0u64..(1 << 20), any::<bool>(), any::<bool>(), any::<u16>()),
            1..120,
        ),
        chunk in 1usize..48,
        predictor_ix in 0usize..6,
    ) {
        let trace: Trace = records
            .iter()
            .map(|&(pc, addr, w, d, work)| access(pc, addr, w, d, work))
            .collect();
        let predictor = Predictor::all()[predictor_ix % Predictor::all().len()];
        let open = open_request(predictor);

        // Local oracle.
        let mut local = Session::builder(&open.system)
            .prefetch(&open.prefetch)
            .predictor(open.predictor)
            .invalidations(0.01, 42)
            .build();
        local.run_chunk(trace.as_slice());
        let expected = local.finalize();

        // Remote run, chunked at `chunk` records per message.
        let (addr, handle) = start_server(ServerConfig::default());
        let mut client = Client::connect(addr).unwrap();
        let session = client.open(&open).unwrap();
        for (i, piece) in trace.as_slice().chunks(chunk).enumerate() {
            client.write_seq_chunk(session, i as u64 + 1, piece).unwrap();
            let stats = client.read_stats().unwrap();
            prop_assert_eq!(stats.session, session);
        }
        let summary = client.close(session).unwrap();
        prop_assert!(client.shutdown_server().unwrap().is_empty());
        handle.join().unwrap().unwrap();

        prop_assert_eq!(summary.accesses_fed, trace.len() as u64);
        prop_assert_eq!(summary.counters, expected, "chunk={} predictor={}", chunk, predictor.name());
    }

    /// Random bytes under any defined kind never panic the typed
    /// decoders: they decode to a valid message or a typed `WireError`.
    #[test]
    fn random_payloads_never_panic_typed_decoders(
        kind in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = Request::decode(kind, &payload);
        let _ = Response::decode(kind, &payload);
    }

    /// Corrupting a valid encoded request — any single byte — either
    /// still decodes (the flip landed in a don't-care value like an
    /// address bit) or reports a typed error. Never a panic. The wire
    /// CRC normally screens these out; this pins the defense in depth
    /// when the payload itself is hostile.
    #[test]
    fn flipped_request_payloads_never_panic(pos in 0usize..4096, bit in 0u32..8) {
        let open = open_request(Predictor::Stems);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let req = Request::Open(Box::new(open));
        req.encode(&mut out, &mut scratch);
        let pos = pos % out.len();
        out[pos] ^= 1 << bit;
        let _ = Request::decode(stems_core::protocol::KIND_OPEN, &out);
    }
}
