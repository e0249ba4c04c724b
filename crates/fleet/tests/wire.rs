//! Wire-protocol tests for the fleet frame codec and job protocol:
//! round-trip properties over randomized frames and job specs, and the
//! rejection paths a hostile or truncated byte stream must hit
//! (short reads, oversized frames, corrupted checksums, bad magic,
//! unknown kinds) — each surfaced as its own typed [`FrameError`], so
//! the driver can tell a lost worker from a protocol bug.

use std::io::Cursor;

use clientmap_cacheprobe::{merge_fault_books, PopHealth, ProbeUnit};
use clientmap_faults::{FaultConfig, FaultProfile};
use clientmap_fleet::{
    decode_fault_book, decode_rescue_request, decode_rescue_result, decode_shard_result,
    encode_fault_book, encode_rescue_request, read_frame, shard_range, write_frame, Frame,
    FrameError, FrameKind, JobAck, JobSpec, MAX_FRAME_PAYLOAD,
};
use clientmap_net::Prefix;
use clientmap_store::CodecError;
use proptest::prelude::*;

fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame).expect("in-memory write");
    buf
}

fn kind_strategy() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Job),
        Just(FrameKind::JobAck),
        Just(FrameKind::JobErr),
        Just(FrameKind::ShardRequest),
        Just(FrameKind::ShardResult),
        Just(FrameKind::Shutdown),
        Just(FrameKind::Bye),
        Just(FrameKind::RescueRequest),
        Just(FrameKind::RescueResult),
    ]
}

fn profile_strategy() -> impl Strategy<Value = FaultProfile> {
    prop_oneof![
        Just(FaultProfile::Off),
        Just(FaultProfile::Light),
        Just(FaultProfile::Lossy),
        Just(FaultProfile::PopChurn),
    ]
}

fn health_strategy() -> impl Strategy<Value = PopHealth> {
    // Attempt/drop counts stay well under u64::MAX so summing any
    // number of generated books cannot overflow — as in a real fleet.
    (0usize..32, 0u64..1 << 40, 0u64..1 << 40, any::<bool>()).prop_map(
        |(pop, attempts, drops, tripped)| PopHealth {
            pop,
            attempts,
            drops,
            tripped,
        },
    )
}

fn book_strategy() -> impl Strategy<Value = Vec<PopHealth>> {
    proptest::collection::vec(health_strategy(), 0..24)
}

fn unit_strategy() -> impl Strategy<Value = ProbeUnit> {
    (
        0usize..64,
        0usize..8,
        proptest::collection::vec((any::<u32>(), 0u8..=32), 1..12),
    )
        .prop_map(|(bound_idx, domain, scopes)| ProbeUnit {
            bound_idx,
            domain,
            scopes: scopes
                .into_iter()
                .map(|(addr, len)| Prefix::new(addr, len).expect("len <= 32"))
                .collect(),
        })
}

/// Re-seals a checksummed payload whose body was edited, so that only
/// a field check — never the checksum — can object to the edit.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = clientmap_store::checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// `clean` with one body byte (`pos_frac` of the way through)
/// overwritten by `value`, re-sealed.
fn overwrite(clean: &[u8], pos_frac: f64, value: u8) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    let pos = ((bytes.len() - 9) as f64 * pos_frac) as usize;
    bytes[pos] = value;
    reseal(bytes)
}

fn spec_with(
    profile: FaultProfile,
    batched_probing: bool,
    clustered_probing: bool,
    prior: Option<Vec<u8>>,
) -> JobSpec {
    JobSpec {
        scale: "tiny".into(),
        seed: 7,
        duration_hours: 4.0,
        expiry_budget: 0.25,
        batched_probing,
        clustered_probing,
        cluster_epsilon: 0.25,
        cluster_escalate_below: 0.5,
        num_shards: 8,
        config_digest: 0xDEAD_BEEF,
        faults: FaultConfig::profile(profile, 3),
        prior,
    }
}

/// The satellite bug of the wire-layer PR: a flag byte the encoder
/// never writes (2..=255, checksum recomputed) used to decode as
/// `true`/`Some`, giving a value that no longer re-encodes to the bytes
/// that were accepted. Every flag on the fleet wire is now strict.
#[test]
fn flag_bytes_other_than_0_and_1_are_malformed() {
    /// The flag's offset: where two encodings that differ only in that
    /// flag first differ.
    fn flag_at(a: &[u8], b: &[u8]) -> usize {
        let at = a.iter().zip(b).position(|(x, y)| x != y);
        at.expect("the two encodings differ")
    }
    fn assert_strict<T: std::fmt::Debug>(
        what: &str,
        clean: &[u8],
        at: usize,
        decode: impl Fn(&[u8]) -> Result<T, CodecError>,
    ) {
        assert!(clean[at] <= 1, "{what}: byte {at} is not a flag");
        for value in 2..=255u8 {
            let mut bad = clean.to_vec();
            bad[at] = value;
            match decode(&reseal(bad)) {
                Err(CodecError::Malformed(_)) => {}
                other => panic!("{what} = {value}: expected Malformed, got {other:?}"),
            }
        }
    }

    let prior = Some(vec![9; 4]);
    let clean = spec_with(FaultProfile::Lossy, false, false, prior.clone()).encode();
    for (what, other) in [
        (
            "job batched-probing flag",
            spec_with(FaultProfile::Lossy, true, false, prior.clone()),
        ),
        (
            "job clustered-probing flag",
            spec_with(FaultProfile::Lossy, false, true, prior.clone()),
        ),
        (
            "job prior flag",
            spec_with(FaultProfile::Lossy, false, false, None),
        ),
    ] {
        assert_strict(
            what,
            &clean,
            flag_at(&clean, &other.encode()),
            JobSpec::decode,
        );
    }

    let ack = |warm_full_skip| JobAck {
        num_units: 1234,
        config_digest: 0xDEAD_BEEF,
        world_seed: 7,
        warm_full_skip,
    };
    let clean = ack(false).encode();
    let at = flag_at(&clean, &ack(true).encode());
    assert_strict("job ack warm-full-skip flag", &clean, at, JobAck::decode);

    let health = |pop, tripped| PopHealth {
        pop,
        attempts: 40,
        drops: 21,
        tripped,
    };
    let clean = encode_fault_book(&[health(3, false), health(9, true)]);
    for (what, other) in [
        ("first tripped flag", [health(3, true), health(9, true)]),
        ("second tripped flag", [health(3, false), health(9, false)]),
    ] {
        let at = flag_at(&clean, &encode_fault_book(&other));
        assert_strict(what, &clean, at, decode_fault_book);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever decodes, re-encodes to the bytes that were accepted:
    /// overwrite any one body byte of a valid payload (checksum
    /// recomputed) and the decoder either refuses the result or hands
    /// back a value whose encoding is exactly those bytes. A decoder
    /// that normalises on the way in — a flag byte of 2 read as `true`,
    /// a profile alias, host bits masked off a prefix — fails this.
    #[test]
    fn whatever_decodes_reencodes_to_the_same_bytes(
        profile in profile_strategy(),
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        prior in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..32)),
        book in book_strategy(),
        shard in any::<u32>(),
        units in proptest::collection::vec(unit_strategy(), 0..4),
        pos_frac in 0.0..1.0f64,
        value in any::<u8>(),
    ) {
        let bytes = overwrite(&spec_with(profile, flags.0, flags.1, prior).encode(), pos_frac, value);
        if let Ok(spec) = JobSpec::decode(&bytes) {
            prop_assert_eq!(spec.encode(), bytes);
        }
        let ack = JobAck { num_units: 9, config_digest: 8, world_seed: 7, warm_full_skip: flags.2 };
        let bytes = overwrite(&ack.encode(), pos_frac, value);
        if let Ok(ack) = JobAck::decode(&bytes) {
            prop_assert_eq!(ack.encode(), bytes);
        }
        let bytes = overwrite(&encode_fault_book(&book), pos_frac, value);
        if let Ok(book) = decode_fault_book(&bytes) {
            prop_assert_eq!(encode_fault_book(&book), bytes);
        }
        let bytes = overwrite(&encode_rescue_request(shard, &units), pos_frac, value);
        if let Ok((shard, units)) = decode_rescue_request(&bytes) {
            prop_assert_eq!(encode_rescue_request(shard, &units), bytes);
        }
    }

    /// Any frame survives an encode/decode round trip, and back-to-back
    /// frames on one stream decode in order.
    #[test]
    fn frames_roundtrip_any_payload(
        kind in kind_strategy(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        kind2 in kind_strategy(),
        payload2 in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let a = Frame::new(kind, payload);
        let b = Frame::new(kind2, payload2);
        let mut buf = encode_frame(&a);
        buf.extend_from_slice(&encode_frame(&b));
        let mut cur = Cursor::new(buf);
        let got_a = read_frame::<FrameKind>(&mut cur).expect("first frame");
        let got_b = read_frame::<FrameKind>(&mut cur).expect("second frame");
        prop_assert_eq!(got_a.kind, a.kind);
        prop_assert_eq!(got_a.payload, a.payload);
        prop_assert_eq!(got_b.kind, b.kind);
        prop_assert_eq!(got_b.payload, b.payload);
    }

    /// Truncating an encoded frame anywhere short of its full length
    /// yields `ShortRead` — never a bogus frame, never a hang.
    #[test]
    fn any_truncation_is_a_short_read(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        cut_frac in 0.0..1.0f64,
    ) {
        let buf = encode_frame(&Frame::new(FrameKind::ShardResult, payload));
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        let mut cur = Cursor::new(buf[..cut].to_vec());
        match read_frame::<FrameKind>(&mut cur) {
            Err(FrameError::ShortRead) => {}
            other => prop_assert!(false, "expected ShortRead, got {other:?}"),
        }
    }

    /// Flipping any single bit of an encoded frame never yields the
    /// original frame back: either a typed error, or (when the flip
    /// lands in the length field in a way that still parses) a frame
    /// whose content differs.
    #[test]
    fn any_single_bitflip_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let frame = Frame::new(FrameKind::Job, payload);
        let mut buf = encode_frame(&frame);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        let mut cur = Cursor::new(buf);
        match read_frame::<FrameKind>(&mut cur) {
            Err(_) => {}
            Ok(got) => prop_assert!(
                got.kind != frame.kind || got.payload != frame.payload,
                "bitflip at byte {pos} bit {bit} went unnoticed"
            ),
        }
    }

    /// `shard_range` partitions `0..num_units` exactly: contiguous,
    /// disjoint, covering, and balanced to within one unit.
    #[test]
    fn shard_ranges_are_a_balanced_partition(num_units in 0usize..5000, num_shards in 1u32..64) {
        let mut next = 0usize;
        let (mut min_len, mut max_len) = (usize::MAX, 0usize);
        for shard in 0..num_shards {
            let r = shard_range(num_units, num_shards, shard);
            prop_assert_eq!(r.start, next, "shard {} not contiguous", shard);
            next = r.end;
            min_len = min_len.min(r.len());
            max_len = max_len.max(r.len());
        }
        prop_assert_eq!(next, num_units);
        prop_assert!(max_len - min_len <= 1, "unbalanced: {min_len}..{max_len}");
    }

    /// `JobSpec` and `JobAck` survive their codec round trip for any
    /// field values, including an embedded prior-snapshot byte blob.
    #[test]
    fn job_messages_roundtrip(
        seed in any::<u64>(),
        duration in 0.0..100.0f64,
        budget in 0.0..1.0f64,
        batched in any::<bool>(),
        clustered in any::<bool>(),
        epsilon in 0.0..1.0f64,
        escalate in 0.0..1.0f64,
        num_shards in 1u32..256,
        digest in any::<u64>(),
        profile in profile_strategy(),
        fault_seed in any::<u64>(),
        prior in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..128)),
        num_units in any::<u64>(),
        world_seed in any::<u64>(),
        warm in any::<bool>(),
    ) {
        let spec = JobSpec {
            scale: "small".into(),
            seed,
            duration_hours: duration,
            expiry_budget: budget,
            batched_probing: batched,
            clustered_probing: clustered,
            cluster_epsilon: epsilon,
            cluster_escalate_below: escalate,
            num_shards,
            config_digest: digest,
            faults: FaultConfig::profile(profile, fault_seed),
            prior,
        };
        let got = JobSpec::decode(&spec.encode()).expect("spec round trip");
        prop_assert_eq!(got, spec);

        let ack = JobAck {
            num_units,
            config_digest: digest,
            world_seed,
            warm_full_skip: warm,
        };
        let got = JobAck::decode(&ack.encode()).expect("ack round trip");
        prop_assert_eq!(got, ack);
    }

    /// Fault books survive their codec round trip for any contents,
    /// and any single bit flip in the encoding is rejected — the book
    /// record is checksummed end to end.
    #[test]
    fn fault_books_roundtrip_and_reject_bitflips(
        book in book_strategy(),
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let clean = encode_fault_book(&book);
        prop_assert_eq!(decode_fault_book(&clean).expect("book round trip"), book);

        let mut bad = clean.clone();
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= 1 << bit;
        prop_assert!(
            decode_fault_book(&bad).is_err(),
            "bitflip at byte {} bit {} went unnoticed", pos, bit
        );
        prop_assert!(decode_fault_book(&clean[..clean.len() - 2]).is_err());
    }

    /// Rescue requests survive their codec round trip (the prefixes
    /// come back exactly, already masked by construction), and any
    /// single bit flip is rejected by the trailing checksum.
    #[test]
    fn rescue_requests_roundtrip_and_reject_bitflips(
        shard in any::<u32>(),
        units in proptest::collection::vec(unit_strategy(), 0..6),
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let clean = encode_rescue_request(shard, &units);
        let (got_shard, got_units) =
            decode_rescue_request(&clean).expect("rescue request round trip");
        prop_assert_eq!(got_shard, shard);
        prop_assert_eq!(got_units, units);

        let mut bad = clean.clone();
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= 1 << bit;
        prop_assert!(
            decode_rescue_request(&bad).is_err(),
            "bitflip at byte {} bit {} went unnoticed", pos, bit
        );
        prop_assert!(decode_rescue_request(&clean[..clean.len() - 1]).is_err());
    }

    /// Folding fleet fault books is associative and shard-order
    /// invariant up to the canonical (sorted, one-entry-per-PoP) form:
    /// however the driver interleaves worker completions, the merged
    /// book — and therefore the quarantine decision — is the same.
    #[test]
    fn fault_book_merge_is_associative_and_order_invariant(
        a in book_strategy(),
        b in book_strategy(),
        c in book_strategy(),
    ) {
        let concat: Vec<PopHealth> =
            a.iter().chain(&b).chain(&c).copied().collect();
        let canonical = merge_fault_books(&concat);

        // Shard-order invariance: any permutation of shard books (and
        // of entries within) folds to the same canonical book.
        let reversed: Vec<PopHealth> =
            c.iter().chain(&b).chain(&a).rev().copied().collect();
        prop_assert_eq!(merge_fault_books(&reversed), canonical.clone());

        // Associativity: folding partial folds equals folding once.
        let ab = merge_fault_books(&a.iter().chain(&b).copied().collect::<Vec<_>>());
        let partial: Vec<PopHealth> = ab.iter().chain(&merge_fault_books(&c)).copied().collect();
        prop_assert_eq!(merge_fault_books(&partial), canonical.clone());

        // The canonical form is a fixed point.
        prop_assert_eq!(merge_fault_books(&canonical), canonical);
    }
}

#[test]
fn shard_and_rescue_results_roundtrip() {
    use clientmap_store::SweepSnapshot;

    let mut delta = SweepSnapshot::new(42, 0xFEED);
    delta.epoch = 7;
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
            drops: 0,
            tripped: true,
        },
    ];
    let payload = clientmap_fleet::encode_shard_result(7, &delta, &book);
    let (shard, got_delta, got_book) = decode_shard_result(&payload).expect("shard result");
    assert_eq!(shard, 7);
    assert_eq!(got_delta, delta);
    assert_eq!(got_book, book);
    assert!(decode_shard_result(&payload[..6]).is_err());

    let payload = clientmap_fleet::encode_rescue_result(9, &delta);
    let (shard, got_delta) = decode_rescue_result(&payload).expect("rescue result");
    assert_eq!(shard, 9);
    assert_eq!(got_delta, delta);
    assert!(decode_rescue_result(&payload[..3]).is_err());
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    // Hand-build a header claiming a payload just past the cap; the
    // reader must fail on the length field without trying to read (or
    // allocate) the body.
    let mut buf = Vec::new();
    buf.extend_from_slice(b"CMFR");
    buf.push(FrameKind::ShardResult as u8);
    buf.extend_from_slice(&((MAX_FRAME_PAYLOAD + 1) as u32).to_le_bytes());
    match read_frame::<FrameKind>(&mut Cursor::new(buf)) {
        Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME_PAYLOAD + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn corrupted_checksum_is_rejected() {
    let mut buf = encode_frame(&Frame::new(FrameKind::JobAck, vec![1, 2, 3]));
    let last = buf.len() - 1;
    buf[last] ^= 0x40; // flip a checksum bit only
    match read_frame::<FrameKind>(&mut Cursor::new(buf)) {
        Err(FrameError::BadChecksum) => {}
        other => panic!("expected BadChecksum, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_unknown_kind_are_rejected() {
    let mut buf = encode_frame(&Frame::new(FrameKind::Shutdown, Vec::new()));
    buf[0] = b'X';
    match read_frame::<FrameKind>(&mut Cursor::new(buf.clone())) {
        Err(FrameError::BadMagic(m)) => assert_eq!(&m, b"XMFR"),
        other => panic!("expected BadMagic, got {other:?}"),
    }

    let mut buf = encode_frame(&Frame::new(FrameKind::Shutdown, Vec::new()));
    buf[4] = 0xEE; // kind byte — checked before the checksum
    match read_frame::<FrameKind>(&mut Cursor::new(buf)) {
        Err(FrameError::UnknownKind(0xEE)) => {}
        other => panic!("expected UnknownKind, got {other:?}"),
    }
}

#[test]
fn payload_bitflips_hit_the_checksum() {
    // Deterministic complement of the proptest: every single-bit flip
    // in the payload region specifically lands on BadChecksum.
    let frame = Frame::new(FrameKind::ShardResult, (0u8..32).collect::<Vec<u8>>());
    let clean = encode_frame(&frame);
    let payload_start = 4 + 1 + 4;
    let payload_end = payload_start + frame.payload.len();
    for pos in payload_start..payload_end {
        for bit in 0..8 {
            let mut buf = clean.clone();
            buf[pos] ^= 1 << bit;
            match read_frame::<FrameKind>(&mut Cursor::new(buf)) {
                Err(FrameError::BadChecksum) => {}
                other => panic!("flip at {pos}/{bit}: expected BadChecksum, got {other:?}"),
            }
        }
    }
}

#[test]
fn job_spec_rejects_truncation_and_checksum_damage() {
    let spec = JobSpec {
        scale: "tiny".into(),
        seed: 7,
        duration_hours: 4.0,
        expiry_budget: 0.0,
        batched_probing: true,
        clustered_probing: false,
        cluster_epsilon: 0.25,
        cluster_escalate_below: 0.5,
        num_shards: 8,
        config_digest: 0xDEAD_BEEF,
        faults: FaultConfig::profile(FaultProfile::Lossy, 3),
        prior: Some(vec![9; 40]),
    };
    let clean = spec.encode();
    assert!(JobSpec::decode(&clean[..clean.len() - 3]).is_err());
    let mut bad = clean.clone();
    bad[10] ^= 1;
    assert!(JobSpec::decode(&bad).is_err());
}

/// A job from a protocol-4 driver — the same spec layout, sealed with a
/// valid checksum — is refused on its version: its prior and its
/// workers' results would be version-4 snapshots.
#[test]
fn a_protocol_4_job_is_refused_on_its_version() {
    let mut w = clientmap_store::ByteWriter::new();
    w.u32(4); // protocol version
    w.str("tiny");
    w.u64(7); // seed
    w.u64(4.0f64.to_bits()); // duration hours
    w.u64(0.0f64.to_bits()); // expiry budget
    w.flag(true); // batched probing
    w.flag(false); // clustered probing
    w.u64(0.25f64.to_bits()); // cluster epsilon
    w.u64(0.5f64.to_bits()); // escalation floor
    w.u32(8); // shards
    w.u64(0xDEAD_BEEF); // config digest
    w.str("off");
    w.u64(0); // fault seed
    w.flag(false); // no prior
    assert_eq!(
        JobSpec::decode(&w.finish()).err(),
        Some(CodecError::BadVersion(4))
    );
}
