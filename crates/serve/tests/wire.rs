//! Wire-protocol tests for the serve query protocol — the mirror of
//! `crates/fleet/tests/wire.rs` for the `QueryKind` vocabulary: frame
//! round trips, query/reply codec round trips over randomized values,
//! and the rejection paths a hostile or truncated byte stream must
//! hit (short reads, oversized frames before allocation, corrupted
//! checksums, bad magic, unknown kinds, single bitflips). The serve
//! protocol rides the same `CMFR` framing as the fleet protocol via
//! the `WireKind` seam, so this suite proves the seam carried the
//! whole error discipline across.

use std::io::Cursor;

use clientmap_fleet::{read_frame, write_frame, Frame, FrameError, MAX_FRAME_PAYLOAD};
use clientmap_geo::CountryCode;
use clientmap_net::{Asn, Prefix};
use clientmap_serve::{
    AsReply, CountryReply, InfoReply, PrefixReply, Query, QueryKind, Reply, QUERY_PROTOCOL_VERSION,
};
use clientmap_store::CodecError;
use proptest::prelude::*;

fn encode_frame(frame: &Frame<QueryKind>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame).expect("in-memory write");
    buf
}

fn kind_strategy() -> impl Strategy<Value = QueryKind> {
    prop_oneof![
        Just(QueryKind::Info),
        Just(QueryKind::WaitGen),
        Just(QueryKind::As),
        Just(QueryKind::Country),
        Just(QueryKind::Prefix),
        Just(QueryKind::TopK),
        Just(QueryKind::Ecdf),
        Just(QueryKind::Stop),
        Just(QueryKind::RespInfo),
        Just(QueryKind::RespAs),
        Just(QueryKind::RespCountry),
        Just(QueryKind::RespPrefix),
        Just(QueryKind::RespTopK),
        Just(QueryKind::RespEcdf),
        Just(QueryKind::RespBye),
        Just(QueryKind::RespErr),
    ]
}

fn query_strategy() -> impl Strategy<Value = Query> {
    prop_oneof![
        Just(Query::Info),
        any::<u64>().prop_map(Query::WaitGen),
        any::<u32>().prop_map(|n| Query::As(Asn(n))),
        (0u8..26, 0u8..26).prop_map(|(a, b)| Query::Country(CountryCode::new(b'A' + a, b'A' + b))),
        (any::<u32>(), 1u8..=32).prop_map(|(addr, len)| {
            let masked = addr & (u32::MAX << (32 - u32::from(len)));
            Query::Prefix(Prefix::new(masked, len).expect("masked to length"))
        }),
        any::<u32>().prop_map(Query::TopK),
        any::<u32>().prop_map(Query::Ecdf),
        Just(Query::Stop),
    ]
}

/// Re-seals a checksummed payload whose body was edited, so that only
/// a field check — never the checksum — can object to the edit.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = clientmap_store::checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

fn info(degraded: bool) -> Reply {
    Reply::Info(InfoReply {
        protocol: QUERY_PROTOCOL_VERSION,
        generation: 2,
        epoch: 5,
        log_offset: 1234,
        world_seed: 7,
        config_digest: 0xDEAD,
        measured_slash24s: 99,
        active_ases: 12,
        countries: 3,
        degraded,
    })
}

/// A reply of every variant, built from the query strategy's values.
fn reply_strategy() -> impl Strategy<Value = Reply> {
    let rows = proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..6);
    let verdicts = proptest::collection::vec(any::<u64>(), 5);
    (query_strategy(), any::<bool>(), verdicts, rows).prop_map(
        |(query, degraded, verdicts, rows)| {
            let verdicts: [u64; 5] = verdicts.try_into().expect("five counts");
            match query {
                Query::Info | Query::WaitGen(_) => info(degraded),
                Query::As(asn) => Reply::As(AsReply {
                    asn,
                    country: CountryCode::new(b'D', b'E'),
                    announced_slash24s: verdicts[0],
                    active_slash24s: verdicts[4],
                    verdicts,
                }),
                Query::Country(country) => Reply::Country(CountryReply {
                    country,
                    ases: 4,
                    announced_slash24s: verdicts[0],
                    active_slash24s: verdicts[4],
                }),
                Query::Prefix(prefix) => Reply::Prefix(PrefixReply {
                    prefix,
                    origins: rows.iter().map(|row| Asn(row.0)).collect(),
                    verdicts,
                }),
                Query::TopK(_) => {
                    Reply::TopK(rows.into_iter().map(|(a, x, y)| (Asn(a), x, y)).collect())
                }
                Query::Ecdf(_) => Reply::Ecdf(
                    rows.iter()
                        .map(|row| (f64::from_bits(row.1), f64::from_bits(row.2)))
                        .collect(),
                ),
                Query::Stop if degraded => Reply::Bye,
                Query::Stop => Reply::Err(format!("unknown AS {}", verdicts[0])),
            }
        },
    )
}

/// The satellite bug of the wire-layer PR, on the query wire: a
/// `degraded` byte the encoder never writes (2..=255, checksum
/// recomputed) used to decode as `true`.
#[test]
fn an_info_flag_byte_other_than_0_and_1_is_malformed() {
    let clean = info(false).encode();
    let other = info(true).encode();
    let at = clean.iter().zip(&other).position(|(a, b)| a != b);
    let at = at.expect("the two encodings differ");
    for value in 2..=255u8 {
        let mut bad = clean.clone();
        bad[at] = value;
        match Reply::decode(QueryKind::RespInfo, &reseal(bad)) {
            Err(CodecError::Malformed(_)) => {}
            other => panic!("degraded = {value}: expected Malformed, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever decodes, re-encodes to the bytes that were accepted:
    /// overwrite any one body byte of a valid query or reply payload
    /// (checksum recomputed) and the decoder either refuses the result
    /// or hands back a value whose encoding is exactly those bytes. A
    /// decoder that normalises on the way in — a flag byte of 2 read as
    /// `true`, a lower-case country code, host bits masked off a prefix
    /// — fails this.
    #[test]
    fn whatever_decodes_reencodes_to_the_same_bytes(
        query in query_strategy(),
        reply in reply_strategy(),
        pos_frac in 0.0..1.0f64,
        value in any::<u8>(),
    ) {
        let overwrite = |clean: Vec<u8>| {
            let mut bytes = clean;
            if bytes.len() > 8 {
                let pos = ((bytes.len() - 9) as f64 * pos_frac) as usize;
                bytes[pos] = value;
            }
            reseal(bytes)
        };
        let bytes = overwrite(query.encode());
        if let Ok(got) = Query::decode(query.kind(), &bytes) {
            prop_assert_eq!(got.encode(), bytes);
        }
        let bytes = overwrite(reply.encode());
        if let Ok(got) = Reply::decode(reply.kind(), &bytes) {
            prop_assert_eq!(got.encode(), bytes);
        }
    }

    /// Any query-kind frame survives an encode/decode round trip, and
    /// back-to-back frames on one stream decode in order.
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
        let got_a = read_frame::<QueryKind>(&mut cur).expect("first frame");
        let got_b = read_frame::<QueryKind>(&mut cur).expect("second frame");
        prop_assert_eq!(got_a.kind, a.kind);
        prop_assert_eq!(got_a.payload, a.payload);
        prop_assert_eq!(got_b.kind, b.kind);
        prop_assert_eq!(got_b.payload, b.payload);
    }

    /// Every query survives frame + payload codec round trip: encode
    /// to a frame, ship the bytes, decode kind and payload back.
    #[test]
    fn queries_roundtrip_through_frames(query in query_strategy()) {
        let frame = Frame::new(query.kind(), query.encode());
        let buf = encode_frame(&frame);
        let got = read_frame::<QueryKind>(&mut Cursor::new(buf)).expect("frame");
        let decoded = Query::decode(got.kind, &got.payload).expect("query payload");
        prop_assert_eq!(decoded, query);
    }

    /// Truncating an encoded frame anywhere short of its full length
    /// yields `ShortRead` — never a bogus frame, never a hang.
    #[test]
    fn any_truncation_is_a_short_read(
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        cut_frac in 0.0..1.0f64,
    ) {
        let buf = encode_frame(&Frame::new(QueryKind::RespTopK, payload));
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        let mut cur = Cursor::new(buf[..cut].to_vec());
        match read_frame::<QueryKind>(&mut cur) {
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
        let frame = Frame::new(QueryKind::As, payload);
        let mut buf = encode_frame(&frame);
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= 1 << bit;
        let mut cur = Cursor::new(buf);
        match read_frame::<QueryKind>(&mut cur) {
            Err(_) => {}
            Ok(got) => prop_assert!(
                got.kind != frame.kind || got.payload != frame.payload,
                "bitflip at byte {pos} bit {bit} went unnoticed"
            ),
        }
    }

    /// A flipped bit *inside a query payload* is caught even though
    /// the frame checksum is recomputed to match: query payloads carry
    /// their own trailing checksum (`ByteWriter::finish`), so payload
    /// damage with a valid frame wrapper still fails to decode — or
    /// decodes to a different query (flips in the already-read-and-
    /// checked value bytes cannot collide with the original).
    #[test]
    fn requery_bitflips_are_caught_by_the_payload_checksum(
        query in query_strategy(),
        pos_frac in 0.0..1.0f64,
        bit in 0u8..8,
    ) {
        let payload = query.encode();
        prop_assume!(!payload.is_empty());
        let mut damaged = payload.clone();
        let pos = ((damaged.len() - 1) as f64 * pos_frac) as usize;
        damaged[pos] ^= 1 << bit;
        match Query::decode(query.kind(), &damaged) {
            Err(_) => {}
            Ok(got) => prop_assert!(got != query, "payload flip at {pos}/{bit} went unnoticed"),
        }
    }
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    // Hand-build a header claiming a payload just past the cap; the
    // reader must fail on the length field without trying to read (or
    // allocate) the body.
    let mut buf = Vec::new();
    buf.extend_from_slice(b"CMFR");
    buf.push(QueryKind::RespEcdf as u8);
    buf.extend_from_slice(&((MAX_FRAME_PAYLOAD + 1) as u32).to_le_bytes());
    match read_frame::<QueryKind>(&mut Cursor::new(buf)) {
        Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME_PAYLOAD + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn corrupted_checksum_is_rejected() {
    let mut buf = encode_frame(&Frame::new(QueryKind::RespInfo, vec![1, 2, 3]));
    let last = buf.len() - 1;
    buf[last] ^= 0x40; // flip a checksum bit only
    match read_frame::<QueryKind>(&mut Cursor::new(buf)) {
        Err(FrameError::BadChecksum) => {}
        other => panic!("expected BadChecksum, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_unknown_kind_are_rejected() {
    let mut buf = encode_frame(&Frame::new(QueryKind::Stop, Vec::new()));
    buf[0] = b'X';
    match read_frame::<QueryKind>(&mut Cursor::new(buf.clone())) {
        Err(FrameError::BadMagic(m)) => assert_eq!(&m, b"XMFR"),
        other => panic!("expected BadMagic, got {other:?}"),
    }

    // 0xEE is no QueryKind — checked before the checksum, so a fleet
    // peer accidentally pointed at a serve port fails fast and typed.
    let mut buf = encode_frame(&Frame::new(QueryKind::Stop, Vec::new()));
    buf[4] = 0xEE;
    match read_frame::<QueryKind>(&mut Cursor::new(buf)) {
        Err(FrameError::UnknownKind(0xEE)) => {}
        other => panic!("expected UnknownKind, got {other:?}"),
    }
}

#[test]
fn payload_bitflips_hit_the_checksum() {
    // Deterministic complement of the proptest: every single-bit flip
    // in the payload region specifically lands on BadChecksum.
    let frame = Frame::new(QueryKind::RespAs, (0u8..32).collect::<Vec<u8>>());
    let clean = encode_frame(&frame);
    let payload_start = 4 + 1 + 4;
    let payload_end = payload_start + frame.payload.len();
    for pos in payload_start..payload_end {
        for bit in 0..8 {
            let mut buf = clean.clone();
            buf[pos] ^= 1 << bit;
            match read_frame::<QueryKind>(&mut Cursor::new(buf)) {
                Err(FrameError::BadChecksum) => {}
                other => panic!("flip at {pos}/{bit}: expected BadChecksum, got {other:?}"),
            }
        }
    }
}

#[test]
fn replies_reject_truncation_and_checksum_damage() {
    let reply = Reply::Err("generation 9 will never be published".into());
    let clean = reply.encode();
    assert!(Reply::decode(reply.kind(), &clean[..clean.len() - 3]).is_err());
    let mut bad = clean.clone();
    bad[2] ^= 1;
    assert!(Reply::decode(reply.kind(), &bad).is_err());
    // And a reply payload never decodes under a query's kind.
    assert!(Query::decode(reply.kind(), &clean).is_err());
}
