//! Golden bytes for the fleet wire: one recorded `CMFR` frame per
//! frame kind (hex under `tests/golden/`, recorded from the build that
//! defined the layouts).
//!
//! `tests/wire.rs` proves `decode(encode(x)) == x`, which an encoder
//! and its decoder moved *together* still pass — and a fleet is
//! exactly where the two ends may be different builds. Each case here
//! asserts `write_frame(encode(value)) == golden` and that the golden
//! frame reads and decodes back to `value`.

use std::path::Path;

use clientmap_cacheprobe::{PopHealth, ProbeUnit};
use clientmap_faults::{FaultConfig, FaultProfile};
use clientmap_fleet::{
    decode_rescue_request, decode_rescue_result, decode_shard_result, encode_rescue_request,
    encode_rescue_result, encode_shard_result, read_frame, write_frame, Frame, FrameKind, JobAck,
    JobSpec,
};
use clientmap_net::Prefix;
use clientmap_store::{HitEvent, RecordTable, ScopeRecord, SweepSnapshot};

/// The bytes of `tests/golden/<name>.hex` (whitespace ignored).
fn golden(name: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.hex"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| {
            u8::from_str_radix(std::str::from_utf8(pair).expect("ascii hex"), 16).expect("hex byte")
        })
        .collect()
}

/// Asserts that `kind ‖ payload` frames to the golden bytes, and hands
/// back the payload the golden frame reads to.
fn pinned_frame(name: &str, kind: FrameKind, payload: Vec<u8>) -> Vec<u8> {
    let bytes = golden(name);
    let mut written = Vec::new();
    write_frame(&mut written, &Frame::new(kind, payload)).expect("in-memory write");
    assert_eq!(written, bytes, "{name}: the encoder moved a byte");
    let frame: Frame = read_frame(&mut bytes.as_slice()).expect("golden frame reads");
    assert_eq!(frame.kind, kind, "{name}");
    frame.payload
}

fn job(prior: Option<Vec<u8>>) -> JobSpec {
    JobSpec {
        scale: "tiny".into(),
        seed: 7,
        duration_hours: 4.0,
        expiry_budget: 0.25,
        batched_probing: true,
        clustered_probing: false,
        cluster_epsilon: 0.25,
        cluster_escalate_below: 0.5,
        num_shards: 8,
        config_digest: 0xDEAD_BEEF,
        faults: FaultConfig::profile(FaultProfile::PopChurn, 3),
        prior,
    }
}

/// A small shard delta: one record with a hit event.
fn delta() -> SweepSnapshot {
    let mut delta = SweepSnapshot::new(42, 0xFEED);
    delta.epoch = 7;
    delta.records = RecordTable::from_ascending([(
        (1, 0, 0x0A00_0000, 24),
        ScopeRecord {
            attempts: 3,
            scope0: 1,
            drops: 0,
            hit_events: vec![HitEvent {
                resp_addr: 0x0A00_0000,
                resp_len: 24,
                remaining_ttl: 99,
            }],
        },
    )]);
    delta
}

#[test]
fn job_frames_are_pinned() {
    for (name, spec) in [
        ("job_without_prior", job(None)),
        (
            "job_with_prior",
            job(Some(SweepSnapshot::new(7, 0xDEAD_BEEF).encode())),
        ),
    ] {
        let payload = pinned_frame(name, FrameKind::Job, spec.encode());
        assert_eq!(JobSpec::decode(&payload).expect("golden job decodes"), spec);
    }

    let ack = JobAck {
        num_units: 1234,
        config_digest: 0xDEAD_BEEF,
        world_seed: 7,
        warm_full_skip: true,
    };
    let payload = pinned_frame("job_ack", FrameKind::JobAck, ack.encode());
    assert_eq!(JobAck::decode(&payload).expect("golden ack decodes"), ack);

    let reason = "config digest mismatch: driver 0x1, worker 0x2";
    let payload = pinned_frame("job_err", FrameKind::JobErr, reason.as_bytes().to_vec());
    assert_eq!(payload, reason.as_bytes());
}

#[test]
fn shard_frames_are_pinned() {
    let payload = pinned_frame(
        "shard_request",
        FrameKind::ShardRequest,
        7u32.to_le_bytes().to_vec(),
    );
    assert_eq!(payload, [7, 0, 0, 0]);

    let book = vec![
        PopHealth {
            pop: 3,
            attempts: 40,
            drops: 21,
            tripped: false,
        },
        PopHealth {
            pop: 9,
            attempts: 8,
            drops: 8,
            tripped: true,
        },
    ];
    let payload = pinned_frame(
        "shard_result",
        FrameKind::ShardResult,
        encode_shard_result(7, &delta(), &book),
    );
    assert_eq!(
        decode_shard_result(&payload).expect("golden shard result decodes"),
        (7, delta(), book)
    );
}

#[test]
fn rescue_frames_are_pinned() {
    let units = vec![
        ProbeUnit {
            bound_idx: 5,
            domain: 1,
            scopes: vec![
                Prefix::new(0x0A00_0000, 24).expect("valid prefix"),
                Prefix::new(0xC0A8_0000, 16).expect("valid prefix"),
            ],
        },
        ProbeUnit {
            bound_idx: 0,
            domain: 3,
            scopes: vec![Prefix::new(0, 0).expect("valid prefix")],
        },
    ];
    let payload = pinned_frame(
        "rescue_request",
        FrameKind::RescueRequest,
        encode_rescue_request(3, &units),
    );
    assert_eq!(
        decode_rescue_request(&payload).expect("golden rescue request decodes"),
        (3, units)
    );

    let payload = pinned_frame(
        "rescue_result",
        FrameKind::RescueResult,
        encode_rescue_result(9, &delta()),
    );
    assert_eq!(
        decode_rescue_result(&payload).expect("golden rescue result decodes"),
        (9, delta())
    );
}

#[test]
fn shutdown_frames_are_pinned() {
    for (name, kind) in [("shutdown", FrameKind::Shutdown), ("bye", FrameKind::Bye)] {
        assert!(pinned_frame(name, kind, Vec::new()).is_empty(), "{name}");
    }
}
