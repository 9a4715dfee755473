//! Pins the wire byte for byte: the hello and at least one message of
//! each of the 14 kinds, through the public encoders, hash to a fixed
//! FNV-1a digest, and so do the decoders' answers to every proper prefix
//! of each payload. A round-trip test passes when an encoder and its
//! decoder change together; this one does not.

use stems_core::protocol::{
    write_hello, ChunkStats, MetricsReply, OpenRequest, Request, Response, SessionSummary,
    WireError,
};
use stems_core::stems::ReconStats;
use stems_core::{Counters, Predictor, PrefetchConfig};
use stems_memsim::{CacheConfig, SystemConfig};
use stems_trace::{Access, AccessKind, Dependence};
use stems_types::{Addr, Pc};

/// 64-bit FNV-1a, folded over successive slices.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The two golden configurations of `engine::sim`'s golden-counter
/// tests: the small geometry, and the 1KB 2-way L1 / 16KB 4-way L2
/// pressure geometry.
fn golden_systems() -> [SystemConfig; 2] {
    let pressure = SystemConfig {
        l1: CacheConfig {
            size_bytes: 1024,
            associativity: 2,
        },
        l2: CacheConfig {
            size_bytes: 16 * 1024,
            associativity: 4,
        },
        ..SystemConfig::default()
    };
    [SystemConfig::small(), pressure]
}

fn requests() -> Vec<Request> {
    let mut out = Vec::new();
    for (system, predictor) in golden_systems()
        .into_iter()
        .zip([Predictor::Stems, Predictor::Tms])
    {
        for invalidations in [None, Some((0.01, 42))] {
            out.push(Request::Open(Box::new(OpenRequest {
                system: system.clone(),
                prefetch: PrefetchConfig::small(),
                predictor,
                invalidations,
            })));
        }
    }
    let records = (0..12u64)
        .map(|i| Access {
            pc: Pc::new(0x400 + (i % 3) * 4),
            addr: Addr::new((1 << 32) + i * 72 - (i % 4) * 4096),
            kind: if i % 3 == 1 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            dep: if i % 4 == 2 {
                Dependence::OnPrevAccess
            } else {
                Dependence::Independent
            },
            work_before: (i * i * 37) as u16,
        })
        .collect();
    out.extend([
        Request::SeqChunk {
            session: 7,
            seq: 300,
            records,
        },
        Request::Resume {
            session: 7,
            last_seq: 299,
        },
        Request::Close { session: 7 },
        Request::Shutdown,
        Request::Metrics { drain_events: true },
        Request::Metrics {
            drain_events: false,
        },
    ]);
    out
}

fn responses() -> Vec<Response> {
    let counters = Counters {
        accesses: 4088,
        reads: 3237,
        l1_hits: 183,
        l2_hits: 2562,
        covered: 99,
        uncovered: 957,
        overpredictions: 741,
        fetches: 865,
        offchip_writes: 262,
        invalidations: 39,
    };
    let summary = |recon, pst_probes| {
        Response::Summary(Box::new(SessionSummary {
            session: 7,
            accesses_fed: 4088,
            counters,
            recon,
            pst_probes,
        }))
    };
    let recon = ReconStats {
        exact: 510,
        shifted1: 120,
        shifted2: 33,
        dropped_conflict: 200,
        dropped_window: 1,
    };
    vec![
        Response::Opened { session: 7 },
        Response::Stats(ChunkStats {
            session: 7,
            accesses_fed: 128,
            counters,
        }),
        summary(Some(recon), Some(70_000)),
        summary(None, None),
        summary(Some(recon), None),
        summary(None, Some(1)),
        Response::MetricsReply(Box::new(MetricsReply {
            exposition: "stems_chunks_total 3\nstems_accesses_total{session=\"7\"} 640\n".into(),
            events: "{\"nanos\":1,\"level\":\"INFO\",\"event\":\"session_open\"}\n".into(),
        })),
        Response::Resumed {
            session: 7,
            last_seq: 299,
            accesses_fed: 4000,
            counters,
        },
        Response::Busy {
            session: Some(7),
            retry_after_ms: 50,
        },
        Response::Busy {
            session: None,
            retry_after_ms: 250,
        },
        Response::ShutdownAck { drained: 2 },
        Response::Error {
            session: Some(7),
            message: "no such session".into(),
        },
        Response::Error {
            session: None,
            message: "bad frame: stream truncated inside message body".into(),
        },
    ]
}

/// The payload of one encoded message: the bytes between the 5-byte
/// kind-and-length header and the 4-byte CRC.
fn payload(frame: &[u8]) -> &[u8] {
    &frame[5..frame.len() - 4]
}

/// Folds what `decode` answers for every proper prefix of `payload`
/// into `hash`: the `Corrupt` reason, or the error's kind name.
fn fold_prefixes<T: std::fmt::Debug>(
    mut hash: u64,
    payload: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
) -> u64 {
    for cut in 0..payload.len() {
        match decode(&payload[..cut]) {
            Err(WireError::Corrupt(reason)) => {
                hash = fnv1a(hash, reason.as_bytes());
            }
            Err(other) => hash = fnv1a(hash, other.kind_name().as_bytes()),
            Ok(decoded) => panic!("a {cut}-byte prefix decoded as {decoded:?}"),
        }
        hash = fnv1a(hash, &[0]);
    }
    hash
}

#[test]
fn encoded_bytes_and_prefix_errors_are_pinned() {
    let mut bytes = Vec::new();
    write_hello(&mut bytes).expect("a Vec takes every write");
    let (mut frame, mut scratch) = (Vec::new(), Vec::new());
    let mut kinds = Vec::new();
    let mut prefix_hash = FNV_OFFSET;
    for request in requests() {
        frame.clear();
        request.encode(&mut frame, &mut scratch);
        bytes.extend_from_slice(&frame);
        kinds.push(request.kind());
        assert_eq!(
            Request::decode(request.kind(), payload(&frame)).unwrap(),
            request
        );
        prefix_hash = fold_prefixes(prefix_hash, payload(&frame), |p| {
            Request::decode(request.kind(), p)
        });
    }
    for response in responses() {
        frame.clear();
        response.encode(&mut frame, &mut scratch);
        bytes.extend_from_slice(&frame);
        kinds.push(response.kind());
        assert_eq!(
            Response::decode(response.kind(), payload(&frame)).unwrap(),
            response
        );
        prefix_hash = fold_prefixes(prefix_hash, payload(&frame), |p| {
            Response::decode(response.kind(), p)
        });
    }
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), 14, "every message kind is pinned");

    // Neither value may move: peers built from other revisions must keep
    // reading these bytes and reporting these reasons.
    assert_eq!(
        (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
        (892, 0x8f17_a50f_e554_fa68),
        "the wire bytes drifted"
    );
    assert_eq!(
        prefix_hash, 0xe070_1c26_eb59_7c23,
        "a decoder's answer to a truncated payload drifted"
    );
}
