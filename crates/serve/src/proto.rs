//! The serve query protocol: `CMFR` frames carrying checksummed query
//! and reply payloads.
//!
//! The framing layer is `clientmap-fleet`'s [`Frame`] stack, reused
//! verbatim via the [`WireKind`] seam — same magic, same length
//! prefix, same trailing splitmix64 checksum, same typed error for
//! every way a hostile or truncated stream can fail. Only the kind
//! vocabulary differs: [`QueryKind`] speaks queries and replies
//! instead of jobs and shards.
//!
//! Payloads are encoded with the snapshot codec's [`ByteWriter`] /
//! [`ByteReader`] discipline (fixed little-endian fields, trailing
//! checksum), so a reply is integrity-checked twice: once by the
//! frame, once by the payload codec. Equal values encode to
//! byte-identical buffers — the property the serve determinism test
//! pins end to end.

use clientmap_fleet::WireKind;
use clientmap_geo::CountryCode;
use clientmap_net::{Asn, Prefix};
use clientmap_store::{ByteReader, ByteWriter, CodecError, Verdict};

/// Protocol version, echoed in [`Reply::Info`].
/// Version 2 added the `degraded` flag to [`InfoReply`] — whether the
/// service's sweep chain has died and it is answering from its last
/// published generation.
pub const QUERY_PROTOCOL_VERSION: u16 = 2;

/// The most points one [`Query::Ecdf`] may ask for; a larger count is
/// refused with a typed [`Reply::Err`]. The count comes off the wire
/// and sizes the reply (16 bytes a point), so it must be bounded
/// before anything is allocated for it: 4 096 points is a 64 KiB
/// reply — far inside the frame layer's payload limit, and far more
/// resolution than a plotted CDF of per-AS fractions can show.
pub const MAX_ECDF_POINTS: u32 = 4096;

/// Frame kinds of the query protocol. Values 1–15 are client → server
/// queries, 16–31 server → client replies; the numeric value is the
/// wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum QueryKind {
    /// Service introspection: latest generation, log offset, counts.
    Info = 1,
    /// Block until a generation number is published (payload: u64 seq).
    WaitGen = 2,
    /// Per-AS client activity (payload: u32 ASN).
    As = 3,
    /// Per-country aggregate (payload: two ASCII letters).
    Country = 4,
    /// Per-prefix verdict breakdown (payload: u32 addr, u8 len).
    Prefix = 5,
    /// Top-K ASes by active /24s (payload: u32 k).
    TopK = 6,
    /// ECDF of per-AS active fraction (payload: u32 points).
    Ecdf = 7,
    /// Ask the service to finish: once sweeps end, serve returns.
    Stop = 8,
    /// Reply to [`QueryKind::Info`] and [`QueryKind::WaitGen`].
    RespInfo = 16,
    /// Reply to [`QueryKind::As`].
    RespAs = 17,
    /// Reply to [`QueryKind::Country`].
    RespCountry = 18,
    /// Reply to [`QueryKind::Prefix`].
    RespPrefix = 19,
    /// Reply to [`QueryKind::TopK`].
    RespTopK = 20,
    /// Reply to [`QueryKind::Ecdf`].
    RespEcdf = 21,
    /// Reply to [`QueryKind::Stop`]: acknowledged, hang up.
    RespBye = 30,
    /// Any query that could not be answered; payload is a reason.
    RespErr = 31,
}

impl WireKind for QueryKind {
    fn to_byte(self) -> u8 {
        self as u8
    }

    fn from_byte(v: u8) -> Option<QueryKind> {
        Some(match v {
            1 => QueryKind::Info,
            2 => QueryKind::WaitGen,
            3 => QueryKind::As,
            4 => QueryKind::Country,
            5 => QueryKind::Prefix,
            6 => QueryKind::TopK,
            7 => QueryKind::Ecdf,
            8 => QueryKind::Stop,
            16 => QueryKind::RespInfo,
            17 => QueryKind::RespAs,
            18 => QueryKind::RespCountry,
            19 => QueryKind::RespPrefix,
            20 => QueryKind::RespTopK,
            21 => QueryKind::RespEcdf,
            30 => QueryKind::RespBye,
            31 => QueryKind::RespErr,
            _ => return None,
        })
    }
}

/// One client → server question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Latest-generation introspection.
    Info,
    /// Block until generation `seq` is published.
    WaitGen(u64),
    /// Client activity of one AS.
    As(Asn),
    /// Aggregate activity of one registration country.
    Country(CountryCode),
    /// Verdict breakdown of the /24s inside a prefix.
    Prefix(Prefix),
    /// Top `k` ASes by active /24s.
    TopK(u32),
    /// The per-AS active-fraction ECDF sampled at `points` points
    /// (at most [`MAX_ECDF_POINTS`]).
    Ecdf(u32),
    /// Finish: reply `Bye`, and let serve return once sweeps end.
    Stop,
}

impl Query {
    /// The frame kind this query travels under.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Info => QueryKind::Info,
            Query::WaitGen(_) => QueryKind::WaitGen,
            Query::As(_) => QueryKind::As,
            Query::Country(_) => QueryKind::Country,
            Query::Prefix(_) => QueryKind::Prefix,
            Query::TopK(_) => QueryKind::TopK,
            Query::Ecdf(_) => QueryKind::Ecdf,
            Query::Stop => QueryKind::Stop,
        }
    }

    /// Encodes the query payload (checksummed, frame body only).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Query::Info | Query::Stop => {}
            Query::WaitGen(seq) => w.u64(*seq),
            Query::As(asn) => w.u32(asn.0),
            Query::Country(cc) => w.bytes(cc.as_str().as_bytes()),
            Query::Prefix(p) => w.prefix(*p),
            Query::TopK(k) => w.u32(*k),
            Query::Ecdf(points) => w.u32(*points),
        }
        w.finish()
    }

    /// Decodes a query from its frame kind and payload.
    pub fn decode(kind: QueryKind, payload: &[u8]) -> Result<Query, CodecError> {
        let mut r = ByteReader::verified(payload)?;
        let q = match kind {
            QueryKind::Info => Query::Info,
            QueryKind::Stop => Query::Stop,
            QueryKind::WaitGen => Query::WaitGen(r.u64()?),
            QueryKind::As => Query::As(Asn(r.u32()?)),
            QueryKind::Country => Query::Country(decode_country(&mut r)?),
            QueryKind::Prefix => Query::Prefix(r.prefix("prefix")?),
            QueryKind::TopK => Query::TopK(r.u32()?),
            QueryKind::Ecdf => Query::Ecdf(r.u32()?),
            _ => return Err(CodecError::Malformed("reply kind used as a query")),
        };
        r.expect_done()?;
        Ok(q)
    }
}

/// Service introspection: the state of the latest (or awaited)
/// generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoReply {
    /// Query-protocol version.
    pub protocol: u16,
    /// The described generation (0 before the first sweep lands).
    pub generation: u64,
    /// Sweep epoch of that generation's snapshot.
    pub epoch: u32,
    /// Event-log length (bytes) right after that generation's event.
    pub log_offset: u64,
    /// World seed the service is sweeping.
    pub world_seed: u64,
    /// Probing-config digest of the sweep chain.
    pub config_digest: u64,
    /// Measured /24s in that generation's verdict table.
    pub measured_slash24s: u64,
    /// ASes with at least one measured /24.
    pub active_ases: u32,
    /// Countries covered by those ASes.
    pub countries: u32,
    /// Whether the service is degraded: its sweep chain failed, so the
    /// described generation is the last it will ever publish — but
    /// queries keep being answered from it.
    pub degraded: bool,
}

/// One AS's client-activity row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsReply {
    /// The AS.
    pub asn: Asn,
    /// Registration country.
    pub country: CountryCode,
    /// /24s the AS announces in the RIB.
    pub announced_slash24s: u64,
    /// /24s with a `Hit` verdict.
    pub active_slash24s: u64,
    /// Measured /24s per verdict, indexed by `Verdict as u8`
    /// (`Unmeasured` is always 0 — unmeasured space is implicit).
    pub verdicts: [u64; 5],
}

/// One country's aggregate row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountryReply {
    /// The country.
    pub country: CountryCode,
    /// ASes registered there with any announced space.
    pub ases: u32,
    /// Announced /24s across those ASes.
    pub announced_slash24s: u64,
    /// Active (`Hit`) /24s across those ASes.
    pub active_slash24s: u64,
}

/// One prefix's verdict breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixReply {
    /// The queried prefix.
    pub prefix: Prefix,
    /// Origin ASes announcing space within the prefix, ascending.
    pub origins: Vec<Asn>,
    /// Measured /24s inside the prefix per verdict, indexed by
    /// `Verdict as u8` (index 0, `Unmeasured`, counts the remainder).
    pub verdicts: [u64; 5],
}

/// What the server says back.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Introspection (also the reply to a satisfied `WaitGen`).
    Info(InfoReply),
    /// A per-AS row.
    As(AsReply),
    /// A per-country aggregate.
    Country(CountryReply),
    /// A per-prefix breakdown.
    Prefix(PrefixReply),
    /// `(asn, active, announced)` rows, best first.
    TopK(Vec<(Asn, u64, u64)>),
    /// `(active_fraction, cumulative_fraction)` ECDF points.
    Ecdf(Vec<(f64, f64)>),
    /// Acknowledged stop; the server will hang up.
    Bye,
    /// The query could not be answered.
    Err(String),
}

impl Reply {
    /// The frame kind this reply travels under.
    pub fn kind(&self) -> QueryKind {
        match self {
            Reply::Info(_) => QueryKind::RespInfo,
            Reply::As(_) => QueryKind::RespAs,
            Reply::Country(_) => QueryKind::RespCountry,
            Reply::Prefix(_) => QueryKind::RespPrefix,
            Reply::TopK(_) => QueryKind::RespTopK,
            Reply::Ecdf(_) => QueryKind::RespEcdf,
            Reply::Bye => QueryKind::RespBye,
            Reply::Err(_) => QueryKind::RespErr,
        }
    }

    /// Encodes the reply payload (checksummed, frame body only).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Reply::Info(i) => {
                w.u16(i.protocol);
                w.u64(i.generation);
                w.u32(i.epoch);
                w.u64(i.log_offset);
                w.u64(i.world_seed);
                w.u64(i.config_digest);
                w.u64(i.measured_slash24s);
                w.u32(i.active_ases);
                w.u32(i.countries);
                w.flag(i.degraded);
            }
            Reply::As(a) => {
                w.u32(a.asn.0);
                w.bytes(a.country.as_str().as_bytes());
                w.u64(a.announced_slash24s);
                w.u64(a.active_slash24s);
                for v in a.verdicts {
                    w.u64(v);
                }
            }
            Reply::Country(c) => {
                w.bytes(c.country.as_str().as_bytes());
                w.u32(c.ases);
                w.u64(c.announced_slash24s);
                w.u64(c.active_slash24s);
            }
            Reply::Prefix(p) => {
                w.prefix(p.prefix);
                w.u32(p.origins.len() as u32);
                for asn in &p.origins {
                    w.u32(asn.0);
                }
                for v in p.verdicts {
                    w.u64(v);
                }
            }
            Reply::TopK(rows) => {
                w.u32(rows.len() as u32);
                for (asn, active, announced) in rows {
                    w.u32(asn.0);
                    w.u64(*active);
                    w.u64(*announced);
                }
            }
            Reply::Ecdf(points) => {
                w.u32(points.len() as u32);
                for (x, y) in points {
                    w.u64(x.to_bits());
                    w.u64(y.to_bits());
                }
            }
            Reply::Bye => {}
            Reply::Err(msg) => w.str(msg),
        }
        w.finish()
    }

    /// Decodes a reply from its frame kind and payload.
    pub fn decode(kind: QueryKind, payload: &[u8]) -> Result<Reply, CodecError> {
        let mut r = ByteReader::verified(payload)?;
        let reply = match kind {
            QueryKind::RespInfo => Reply::Info(InfoReply {
                protocol: r.u16()?,
                generation: r.u64()?,
                epoch: r.u32()?,
                log_offset: r.u64()?,
                world_seed: r.u64()?,
                config_digest: r.u64()?,
                measured_slash24s: r.u64()?,
                active_ases: r.u32()?,
                countries: r.u32()?,
                degraded: r.flag("info degraded flag")?,
            }),
            QueryKind::RespAs => {
                let asn = Asn(r.u32()?);
                let country = decode_country(&mut r)?;
                let announced = r.u64()?;
                let active = r.u64()?;
                let mut verdicts = [0u64; 5];
                for v in verdicts.iter_mut() {
                    *v = r.u64()?;
                }
                Reply::As(AsReply {
                    asn,
                    country,
                    announced_slash24s: announced,
                    active_slash24s: active,
                    verdicts,
                })
            }
            QueryKind::RespCountry => Reply::Country(CountryReply {
                country: decode_country(&mut r)?,
                ases: r.u32()?,
                announced_slash24s: r.u64()?,
                active_slash24s: r.u64()?,
            }),
            QueryKind::RespPrefix => {
                let prefix = r.prefix("prefix")?;
                let origins = r.seq(|r| Ok(Asn(r.u32()?)))?;
                let mut verdicts = [0u64; 5];
                for v in verdicts.iter_mut() {
                    *v = r.u64()?;
                }
                Reply::Prefix(PrefixReply {
                    prefix,
                    origins,
                    verdicts,
                })
            }
            QueryKind::RespTopK => Reply::TopK(r.seq(|r| Ok((Asn(r.u32()?), r.u64()?, r.u64()?)))?),
            QueryKind::RespEcdf => {
                Reply::Ecdf(r.seq(|r| Ok((f64::from_bits(r.u64()?), f64::from_bits(r.u64()?))))?)
            }
            QueryKind::RespBye => Reply::Bye,
            QueryKind::RespErr => Reply::Err(r.str()?),
            _ => return Err(CodecError::Malformed("query kind used as a reply")),
        };
        r.expect_done()?;
        Ok(reply)
    }
}

/// Reads a country code as the encoder writes it: two upper-case ASCII
/// letters. (Parsing alone would also take lower case, and hand back a
/// value that re-encodes to different bytes.)
fn decode_country(r: &mut ByteReader<'_>) -> Result<CountryCode, CodecError> {
    let raw = r.raw(2)?;
    std::str::from_utf8(raw)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|cc: &CountryCode| cc.as_str().as_bytes() == raw)
        .ok_or(CodecError::Malformed("country code"))
}

/// The verdict names used when rendering per-verdict counts, indexed
/// by `Verdict as u8` — one stable spelling shared by the client
/// renderer and the docs.
pub fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Unmeasured => "unmeasured",
        Verdict::Dropped => "dropped",
        Verdict::Miss => "miss",
        Verdict::HitScopeZero => "hit0",
        Verdict::Hit => "hit",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_roundtrip() {
        let cc: CountryCode = "de".parse().unwrap();
        for q in [
            Query::Info,
            Query::Stop,
            Query::WaitGen(3),
            Query::As(Asn(64500)),
            Query::Country(cc),
            Query::Prefix(Prefix::new(0x0A00_0000, 16).unwrap()),
            Query::TopK(10),
            Query::Ecdf(32),
        ] {
            let got = Query::decode(q.kind(), &q.encode()).expect("roundtrip");
            assert_eq!(got, q);
        }
    }

    #[test]
    fn replies_roundtrip() {
        let cc: CountryCode = "us".parse().unwrap();
        for reply in [
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
            Reply::As(AsReply {
                asn: Asn(64501),
                country: cc,
                announced_slash24s: 256,
                active_slash24s: 17,
                verdicts: [0, 1, 2, 3, 17],
            }),
            Reply::Country(CountryReply {
                country: cc,
                ases: 4,
                announced_slash24s: 1024,
                active_slash24s: 77,
            }),
            Reply::Prefix(PrefixReply {
                prefix: Prefix::new(0xC0A8_0000, 16).unwrap(),
                origins: vec![Asn(1), Asn(9)],
                verdicts: [200, 0, 40, 6, 10],
            }),
            Reply::TopK(vec![(Asn(5), 90, 100), (Asn(6), 10, 400)]),
            Reply::Ecdf(vec![(0.0, 0.1), (0.5, 0.75), (1.0, 1.0)]),
            Reply::Bye,
            Reply::Err("unknown AS 99".into()),
        ] {
            let got = Reply::decode(reply.kind(), &reply.encode()).expect("roundtrip");
            assert_eq!(got, reply);
        }
    }

    #[test]
    fn mismatched_kind_is_rejected() {
        let q = Query::Info;
        assert!(Reply::decode(QueryKind::Info, &q.encode()).is_err());
        let r = Reply::Bye;
        assert!(Query::decode(QueryKind::RespBye, &r.encode()).is_err());
        // A truncated payload fails the codec checksum.
        let enc = Query::WaitGen(9).encode();
        assert!(Query::decode(QueryKind::WaitGen, &enc[..enc.len() - 1]).is_err());
    }
}
