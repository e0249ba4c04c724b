//! Golden bytes for the query wire: one recorded `CMFR` frame per
//! [`Query`] and per [`Reply`] variant (hex under `tests/golden/`,
//! recorded from the build that defined the layouts).
//!
//! `tests/wire.rs` proves `decode(encode(x)) == x`, which an encoder
//! and its decoder moved *together* still pass — and a query client
//! and the service it talks to may be different builds. Each case here
//! asserts `write_frame(encode(value)) == golden` and that the golden
//! frame reads and decodes back to `value`.

use std::path::Path;

use clientmap_fleet::{read_frame, write_frame, Frame};
use clientmap_geo::CountryCode;
use clientmap_net::{Asn, Prefix};
use clientmap_serve::{
    AsReply, CountryReply, InfoReply, PrefixReply, Query, QueryKind, Reply, QUERY_PROTOCOL_VERSION,
};

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
/// back the frame the golden bytes read to.
fn pinned_frame(name: &str, kind: QueryKind, payload: Vec<u8>) -> Frame<QueryKind> {
    let bytes = golden(name);
    let mut written = Vec::new();
    write_frame(&mut written, &Frame::new(kind, payload)).expect("in-memory write");
    assert_eq!(written, bytes, "{name}: the encoder moved a byte");
    read_frame(&mut bytes.as_slice()).expect("golden frame reads")
}

#[test]
fn query_frames_are_pinned() {
    let cc: CountryCode = "DE".parse().expect("country code");
    for (name, query) in [
        ("query_info", Query::Info),
        ("query_wait_gen", Query::WaitGen(3)),
        ("query_as", Query::As(Asn(64500))),
        ("query_country", Query::Country(cc)),
        (
            "query_prefix",
            Query::Prefix(Prefix::new(0x0A00_0000, 16).expect("valid prefix")),
        ),
        ("query_top_k", Query::TopK(10)),
        ("query_ecdf", Query::Ecdf(32)),
        ("query_stop", Query::Stop),
    ] {
        let frame = pinned_frame(name, query.kind(), query.encode());
        assert_eq!(
            Query::decode(frame.kind, &frame.payload).expect("golden query decodes"),
            query,
            "{name}"
        );
    }
}

#[test]
fn reply_frames_are_pinned() {
    let cc: CountryCode = "US".parse().expect("country code");
    for (name, reply) in [
        (
            "reply_info",
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
                degraded: true,
            }),
        ),
        (
            "reply_as",
            Reply::As(AsReply {
                asn: Asn(64501),
                country: cc,
                announced_slash24s: 256,
                active_slash24s: 17,
                verdicts: [0, 1, 2, 3, 17],
            }),
        ),
        (
            "reply_country",
            Reply::Country(CountryReply {
                country: cc,
                ases: 4,
                announced_slash24s: 1024,
                active_slash24s: 77,
            }),
        ),
        (
            "reply_prefix",
            Reply::Prefix(PrefixReply {
                prefix: Prefix::new(0xC0A8_0000, 16).expect("valid prefix"),
                origins: vec![Asn(1), Asn(9)],
                verdicts: [200, 0, 40, 6, 10],
            }),
        ),
        (
            "reply_top_k",
            Reply::TopK(vec![(Asn(5), 90, 100), (Asn(6), 10, 400)]),
        ),
        (
            "reply_ecdf",
            Reply::Ecdf(vec![(0.0, 0.1), (0.5, 0.75), (1.0, 1.0)]),
        ),
        ("reply_bye", Reply::Bye),
        ("reply_err", Reply::Err("unknown AS 99".into())),
    ] {
        let frame = pinned_frame(name, reply.kind(), reply.encode());
        assert_eq!(
            Reply::decode(frame.kind, &frame.payload).expect("golden reply decodes"),
            reply,
            "{name}"
        );
    }
}
