//! RFC 1035 wire-format codec with name compression, plus a
//! zero-allocation fast lane for rendering probe queries.
//!
//! [`encode`] produces a compact packet (names compressed against every
//! previously written name suffix). [`decode`] is fully bounds-checked:
//! arbitrary bytes can be fed in and the worst outcome is a
//! [`WireError`]. Compression pointers must point strictly backwards,
//! which both matches real resolver behaviour and makes pointer loops
//! impossible.
//!
//! The codec exists so the simulated query path exercises exactly what a
//! real prober would put on the wire — including the EDNS0 OPT record
//! and the RFC 7871 ECS option the whole cache-probing technique relies
//! on — and so the test suite can fuzz the parser with garbage. Both
//! ends of the wire probe lane use it whole: the resolver decodes each
//! query and encodes its reply, and the prober decodes the reply.
//!
//! ## The fast lane
//!
//! Two primitives write packets without touching the allocator after
//! warm-up, while staying byte-compatible with the [`Message`] codec
//! (asserted in tests):
//!
//! - [`encode_into`] — [`encode`] writing into a caller-reused buffer;
//!   the compression table is a thread-local `Vec<u16>` of buffer
//!   offsets compared against the output bytes, so no per-suffix
//!   `String` keys are built.
//! - [`ProbeQueryTemplate`] / [`ProbeQueryTemplate::render`] — a
//!   pre-rendered non-recursive `A` query per probe domain; per probe
//!   only the transaction ID and the ECS option are patched in.

use std::cell::RefCell;

use clientmap_net::Prefix;

use crate::edns::{ECS_FAMILY_IPV4, OPTION_CODE_ECS};
use crate::name::{Label, MAX_NAME_LEN};
use crate::{
    DomainName, EcsOption, Edns, EdnsOption, Message, Opcode, Question, RData, Rcode, Record,
    RrClass, RrType, WireError,
};

/// Maximum offset expressible by a 14-bit compression pointer.
const MAX_POINTER: usize = 0x3FFF;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

#[inline]
fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

#[inline]
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

#[inline]
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

thread_local! {
    /// Reused name-compression table: offsets in the output buffer where
    /// a name suffix starts. Cleared per encode; grows once, then stays.
    static NAME_TABLE: RefCell<Vec<u16>> = const { RefCell::new(Vec::new()) };
}

/// Encodes a message to wire format.
pub fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut buf = Vec::with_capacity(512);
    encode_into(msg, &mut buf)?;
    Ok(buf)
}

/// [`encode`] into a caller-owned buffer (cleared first). Reusing the
/// buffer across calls keeps the steady-state encode allocation-free.
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    NAME_TABLE.with(|t| {
        let mut table = t.borrow_mut();
        table.clear();
        encode_message(msg, out, &mut table)
    })
}

fn encode_message(msg: &Message, buf: &mut Vec<u8>, names: &mut Vec<u16>) -> Result<(), WireError> {
    put_u16(buf, msg.id);
    let mut flags: u16 = 0;
    if msg.is_response {
        flags |= 0x8000;
    }
    flags |= (msg.opcode.to_u8() as u16) << 11;
    if msg.authoritative {
        flags |= 0x0400;
    }
    if msg.truncated {
        flags |= 0x0200;
    }
    if msg.recursion_desired {
        flags |= 0x0100;
    }
    if msg.recursion_available {
        flags |= 0x0080;
    }
    flags |= msg.rcode.to_u8() as u16;
    put_u16(buf, flags);

    let qdcount = msg.question.iter().count() as u16;
    let arcount = msg.additional.len() as u16 + msg.edns.iter().count() as u16;
    put_u16(buf, qdcount);
    put_u16(buf, msg.answers.len() as u16);
    put_u16(buf, msg.authority.len() as u16);
    put_u16(buf, arcount);

    if let Some(q) = &msg.question {
        encode_name(buf, &q.name, names)?;
        put_u16(buf, q.rtype.to_u16());
        put_u16(buf, q.class.to_u16());
    }
    for r in &msg.answers {
        encode_record(buf, r, names)?;
    }
    for r in &msg.authority {
        encode_record(buf, r, names)?;
    }
    for r in &msg.additional {
        encode_record(buf, r, names)?;
    }
    if let Some(edns) = &msg.edns {
        encode_opt(buf, edns)?;
    }
    Ok(())
}

/// Whether the name encoded in `buf` starting at `pos` (following
/// already-written, hence backward, compression pointers) spells exactly
/// `labels`. Used for compression lookups against the output buffer, so
/// no suffix strings need to be materialised.
fn name_matches_at(buf: &[u8], mut pos: usize, labels: &[Label]) -> bool {
    let mut li = 0usize;
    loop {
        let Some(&len) = buf.get(pos) else {
            return false;
        };
        match len & 0xC0 {
            0x00 => {
                if len == 0 {
                    return li == labels.len();
                }
                let n = len as usize;
                let Some(label) = labels.get(li) else {
                    return false;
                };
                let text = label.as_str().as_bytes();
                if text.len() != n || buf.get(pos + 1..pos + 1 + n) != Some(text) {
                    return false;
                }
                li += 1;
                pos += 1 + n;
            }
            0xC0 => {
                let Some(&second) = buf.get(pos + 1) else {
                    return false;
                };
                let target = (((len & 0x3F) as usize) << 8) | second as usize;
                if target >= pos {
                    return false; // we never write forward pointers
                }
                pos = target;
            }
            _ => return false,
        }
    }
}

/// Writes a (possibly compressed) name at the current offset. The first
/// recorded occurrence of an equal suffix wins, matching the map-based
/// encoder this replaced byte for byte.
fn encode_name(
    buf: &mut Vec<u8>,
    name: &DomainName,
    names: &mut Vec<u16>,
) -> Result<(), WireError> {
    let labels = name.labels();
    for i in 0..labels.len() {
        let suffix = &labels[i..];
        if let Some(&off) = names
            .iter()
            .find(|&&off| name_matches_at(buf, off as usize, suffix))
        {
            put_u16(buf, 0xC000 | off);
            return Ok(());
        }
        let here = buf.len();
        if here <= MAX_POINTER {
            names.push(here as u16);
        }
        let label = labels[i].as_str();
        debug_assert!(label.len() <= 63);
        put_u8(buf, label.len() as u8);
        buf.extend_from_slice(label.as_bytes());
    }
    put_u8(buf, 0); // root
    Ok(())
}

fn encode_record(buf: &mut Vec<u8>, r: &Record, names: &mut Vec<u16>) -> Result<(), WireError> {
    encode_name(buf, &r.name, names)?;
    put_u16(buf, r.rtype.to_u16());
    put_u16(buf, r.class.to_u16());
    put_u32(buf, r.ttl);
    // Reserve the RDLENGTH slot, then backfill.
    let len_pos = buf.len();
    put_u16(buf, 0);
    let start = buf.len();
    match &r.rdata {
        RData::A(addr) => put_u32(buf, *addr),
        RData::Cname(n) | RData::Ns(n) => encode_name(buf, n, names)?,
        RData::Txt(text) => {
            let bytes = text.as_bytes();
            if bytes.is_empty() {
                put_u8(buf, 0);
            } else {
                for chunk in bytes.chunks(255) {
                    put_u8(buf, chunk.len() as u8);
                    buf.extend_from_slice(chunk);
                }
            }
        }
        RData::Opaque(data) => buf.extend_from_slice(data),
    }
    let rdlen = buf.len() - start;
    if rdlen > u16::MAX as usize {
        return Err(WireError::EncodeTooLong);
    }
    buf[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
    Ok(())
}

fn encode_opt(buf: &mut Vec<u8>, edns: &Edns) -> Result<(), WireError> {
    put_u8(buf, 0); // root name
    put_u16(buf, RrType::Opt.to_u16());
    put_u16(buf, edns.udp_payload_size);
    let ttl: u32 =
        ((edns.ext_rcode as u32) << 24) | ((edns.version as u32) << 16) | edns.flags as u32;
    put_u32(buf, ttl);
    let len_pos = buf.len();
    put_u16(buf, 0);
    let start = buf.len();
    for opt in &edns.options {
        match opt {
            EdnsOption::Ecs(ecs) => write_ecs_option(buf, ecs.source, ecs.scope_len),
            EdnsOption::Other { code, data } => {
                if data.len() > u16::MAX as usize {
                    return Err(WireError::EncodeTooLong);
                }
                put_u16(buf, *code);
                put_u16(buf, data.len() as u16);
                buf.extend_from_slice(data);
            }
        }
    }
    let rdlen = buf.len() - start;
    if rdlen > u16::MAX as usize {
        return Err(WireError::EncodeTooLong);
    }
    buf[len_pos..len_pos + 2].copy_from_slice(&(rdlen as u16).to_be_bytes());
    Ok(())
}

/// RFC 7871: family, source prefix len, scope prefix len, then
/// ceil(source_len/8) address bytes.
fn write_ecs_option(buf: &mut Vec<u8>, source: Prefix, scope_len: u8) {
    let src_len = source.len();
    let addr_bytes = src_len.div_ceil(8) as usize;
    put_u16(buf, OPTION_CODE_ECS);
    put_u16(buf, 4 + addr_bytes as u16);
    put_u16(buf, ECS_FAMILY_IPV4);
    put_u8(buf, src_len);
    put_u8(buf, scope_len);
    let addr = source.addr().to_be_bytes();
    buf.extend_from_slice(&addr[..addr_bytes]);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over the packet.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(((self.u8()? as u16) << 8) | self.u8()? as u16)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(((self.u16()? as u32) << 16) | self.u16()? as u32)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

/// Decodes a name starting at the cursor, following backward-only
/// compression pointers.
fn decode_name(cur: &mut Cursor<'_>) -> Result<DomainName, WireError> {
    let mut labels: Vec<Label> = Vec::new();
    let mut wire_len = 1usize; // root byte
                               // After the first pointer jump we stop advancing the real cursor.
    let mut jumped = false;
    let mut pos = cur.pos;

    loop {
        let len_byte = *cur.data.get(pos).ok_or(WireError::Truncated)?;
        match len_byte & 0xC0 {
            0x00 => {
                if len_byte == 0 {
                    pos += 1;
                    if !jumped {
                        cur.pos = pos;
                    }
                    return DomainName::from_labels(labels).map_err(|_| WireError::NameTooLong);
                }
                let n = len_byte as usize;
                let start = pos + 1;
                let end = start + n;
                if end > cur.data.len() {
                    return Err(WireError::Truncated);
                }
                wire_len += 1 + n;
                if wire_len > MAX_NAME_LEN {
                    return Err(WireError::NameTooLong);
                }
                let text = std::str::from_utf8(&cur.data[start..end])
                    .map_err(|_| WireError::InvalidLabel)?;
                labels.push(Label::new(text).map_err(|_| WireError::InvalidLabel)?);
                pos = end;
                if !jumped {
                    cur.pos = pos;
                }
            }
            0xC0 => {
                let second = *cur.data.get(pos + 1).ok_or(WireError::Truncated)?;
                let target = (((len_byte & 0x3F) as usize) << 8) | second as usize;
                // Backward-only: prevents loops and forward references.
                if target >= pos {
                    return Err(WireError::BadPointer(target as u16));
                }
                if !jumped {
                    cur.pos = pos + 2;
                }
                jumped = true;
                pos = target;
            }
            other => return Err(WireError::BadLabelType(other)),
        }
    }
}

fn decode_question(cur: &mut Cursor<'_>) -> Result<Question, WireError> {
    let name = decode_name(cur)?;
    let rtype = RrType::from_u16(cur.u16()?);
    let class = RrClass::from_u16(cur.u16()?);
    Ok(Question { name, rtype, class })
}

/// Outcome of decoding one record slot: a regular record or the OPT
/// pseudo-record (extracted into [`Edns`]).
enum Slot {
    Record(Record),
    Opt(Edns),
}

fn decode_record(cur: &mut Cursor<'_>) -> Result<Slot, WireError> {
    let name = decode_name(cur)?;
    let rtype = RrType::from_u16(cur.u16()?);
    let class_raw = cur.u16()?;
    let ttl = cur.u32()?;
    let rdlen = cur.u16()? as usize;
    if cur.remaining() < rdlen {
        return Err(WireError::Truncated);
    }
    if rtype == RrType::Opt {
        if !name.is_root() {
            return Err(WireError::BadOpt("OPT owner name must be root"));
        }
        let rdata = cur.bytes(rdlen)?;
        let edns = decode_opt(class_raw, ttl, rdata)?;
        return Ok(Slot::Opt(edns));
    }

    let rdata_end = cur.pos + rdlen;
    let rdata = match rtype {
        RrType::A => {
            if rdlen != 4 {
                return Err(WireError::RdataLengthMismatch {
                    declared: rdlen as u16,
                    consumed: 4,
                });
            }
            RData::A(cur.u32()?)
        }
        RrType::Cname | RrType::Ns => {
            let n = decode_name(cur)?;
            if cur.pos != rdata_end {
                return Err(WireError::RdataLengthMismatch {
                    declared: rdlen as u16,
                    consumed: (cur.pos + rdlen - rdata_end) as u16,
                });
            }
            if rtype == RrType::Cname {
                RData::Cname(n)
            } else {
                RData::Ns(n)
            }
        }
        RrType::Txt => {
            let mut text = Vec::new();
            while cur.pos < rdata_end {
                let n = cur.u8()? as usize;
                if cur.pos + n > rdata_end {
                    return Err(WireError::Truncated);
                }
                text.extend_from_slice(cur.bytes(n)?);
            }
            RData::Txt(String::from_utf8(text).map_err(|_| WireError::InvalidLabel)?)
        }
        _ => RData::Opaque(cur.bytes(rdlen)?.to_vec()),
    };
    Ok(Slot::Record(Record {
        name,
        rtype,
        class: RrClass::from_u16(class_raw),
        ttl,
        rdata,
    }))
}

fn decode_opt(class_raw: u16, ttl: u32, rdata: &[u8]) -> Result<Edns, WireError> {
    let mut edns = Edns {
        udp_payload_size: class_raw,
        ext_rcode: (ttl >> 24) as u8,
        version: (ttl >> 16) as u8,
        flags: (ttl & 0xFFFF) as u16,
        options: Vec::new(),
    };
    let mut cur = Cursor::new(rdata);
    while cur.remaining() > 0 {
        let code = cur.u16()?;
        let len = cur.u16()? as usize;
        let body = cur.bytes(len)?;
        if code == OPTION_CODE_ECS {
            edns.options.push(EdnsOption::Ecs(decode_ecs(body)?));
        } else {
            edns.options.push(EdnsOption::Other {
                code,
                data: body.to_vec(),
            });
        }
    }
    Ok(edns)
}

fn decode_ecs(body: &[u8]) -> Result<EcsOption, WireError> {
    if body.len() < 4 {
        return Err(WireError::BadEcs("option shorter than fixed header"));
    }
    let family = ((body[0] as u16) << 8) | body[1] as u16;
    if family != ECS_FAMILY_IPV4 {
        return Err(WireError::BadEcs("non-IPv4 family"));
    }
    let source_len = body[2];
    let scope_len = body[3];
    if source_len > 32 || scope_len > 32 {
        return Err(WireError::BadEcs("prefix length > 32"));
    }
    let addr_bytes = source_len.div_ceil(8) as usize;
    if body.len() != 4 + addr_bytes {
        return Err(WireError::BadEcs("address length mismatch"));
    }
    let mut octets = [0u8; 4];
    octets[..addr_bytes].copy_from_slice(&body[4..4 + addr_bytes]);
    let addr = u32::from_be_bytes(octets);
    // RFC 7871 §6: trailing bits beyond source_len MUST be zero.
    let source =
        Prefix::new(addr, source_len).map_err(|_| WireError::BadEcs("bad source prefix"))?;
    if source.addr() != addr {
        return Err(WireError::BadEcs("nonzero padding bits"));
    }
    Ok(EcsOption { source, scope_len })
}

/// Decodes a packet into a [`Message`].
pub fn decode(data: &[u8]) -> Result<Message, WireError> {
    let mut cur = Cursor::new(data);
    let id = cur.u16()?;
    let flags = cur.u16()?;
    let qdcount = cur.u16()?;
    let ancount = cur.u16()?;
    let nscount = cur.u16()?;
    let arcount = cur.u16()?;

    if qdcount > 1 {
        return Err(WireError::Unsupported("multiple questions"));
    }

    let question = if qdcount == 1 {
        Some(decode_question(&mut cur)?)
    } else {
        None
    };

    let mut answers = Vec::with_capacity(ancount.min(64) as usize);
    for _ in 0..ancount {
        match decode_record(&mut cur)? {
            Slot::Record(r) => answers.push(r),
            Slot::Opt(_) => return Err(WireError::BadOpt("OPT in answer section")),
        }
    }
    let mut authority = Vec::with_capacity(nscount.min(64) as usize);
    for _ in 0..nscount {
        match decode_record(&mut cur)? {
            Slot::Record(r) => authority.push(r),
            Slot::Opt(_) => return Err(WireError::BadOpt("OPT in authority section")),
        }
    }
    let mut additional = Vec::new();
    let mut edns = None;
    for _ in 0..arcount {
        match decode_record(&mut cur)? {
            Slot::Record(r) => additional.push(r),
            Slot::Opt(e) => {
                if edns.replace(e).is_some() {
                    return Err(WireError::BadOpt("duplicate OPT"));
                }
            }
        }
    }

    Ok(Message {
        id,
        is_response: flags & 0x8000 != 0,
        opcode: Opcode::from_u8((flags >> 11) as u8),
        authoritative: flags & 0x0400 != 0,
        truncated: flags & 0x0200 != 0,
        recursion_desired: flags & 0x0100 != 0,
        recursion_available: flags & 0x0080 != 0,
        rcode: Rcode::from_u8(flags as u8),
        question,
        answers,
        authority,
        additional,
        edns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Question;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn roundtrip(msg: &Message) -> Message {
        let bytes = encode(msg).unwrap();
        decode(&bytes).unwrap()
    }

    #[test]
    fn simple_query_roundtrip() {
        let m = Message::query(0xBEEF, Question::a("www.example.com").unwrap());
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn non_recursive_ecs_query_roundtrip() {
        let m = Message::query(1, Question::a("facebook.com").unwrap())
            .with_recursion_desired(false)
            .with_ecs(p("203.0.113.0/24"));
        let back = roundtrip(&m);
        assert_eq!(back, m);
        assert!(!back.recursion_desired);
        assert_eq!(back.ecs().unwrap().source, p("203.0.113.0/24"));
    }

    #[test]
    fn response_with_answers_and_scope() {
        let q = Message::query(2, Question::a("www.google.com").unwrap())
            .with_recursion_desired(false)
            .with_ecs(p("198.51.100.0/24"));
        let resp = Message::response_for(&q)
            .with_answers(vec![Record::a(
                "www.google.com".parse().unwrap(),
                300,
                0x8efa436e,
            )])
            .with_response_ecs(p("198.51.100.0/24"), 20);
        let back = roundtrip(&resp);
        assert_eq!(back, resp);
        assert_eq!(back.ecs().unwrap().scope_len, 20);
        assert!(back.has_answers());
    }

    #[test]
    fn ecs_partial_address_bytes() {
        // A /20 source needs ceil(20/8)=3 address octets on the wire.
        let m = Message::query(3, Question::a("x.example").unwrap()).with_ecs(p("10.32.16.0/20"));
        let bytes = encode(&m).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.ecs().unwrap().source, p("10.32.16.0/20"));
        // /0 needs zero octets.
        let m0 = Message::query(4, Question::a("x.example").unwrap()).with_ecs(Prefix::DEFAULT);
        assert_eq!(roundtrip(&m0).ecs().unwrap().source, Prefix::DEFAULT);
    }

    #[test]
    fn name_compression_shrinks_and_roundtrips() {
        let mut m = Message::query(5, Question::a("www.example.com").unwrap());
        m.answers = vec![
            Record::a("www.example.com".parse().unwrap(), 60, 1),
            Record::a("www.example.com".parse().unwrap(), 60, 2),
            Record {
                name: "api.example.com".parse().unwrap(),
                rtype: RrType::Cname,
                class: RrClass::In,
                ttl: 60,
                rdata: RData::Cname("www.example.com".parse().unwrap()),
            },
        ];
        let bytes = encode(&m).unwrap();
        assert_eq!(decode(&bytes).unwrap(), m);
        // The three repeats of www.example.com must compress to pointers:
        // a full encoding would repeat 17 bytes; allow generous slack.
        assert!(
            bytes.len() < 100,
            "packet unexpectedly large: {}",
            bytes.len()
        );
    }

    #[test]
    fn txt_record_long_string_chunks() {
        let long = "x".repeat(700);
        let mut m = Message::query(6, Question::txt("t.example").unwrap());
        m.answers = vec![Record::txt("t.example".parse().unwrap(), 60, long.clone())];
        let back = roundtrip(&m);
        match &back.answers[0].rdata {
            RData::Txt(s) => assert_eq!(s, &long),
            other => panic!("wrong rdata: {other:?}"),
        }
    }

    #[test]
    fn empty_txt_roundtrips() {
        let mut m = Message::query(6, Question::txt("t.example").unwrap());
        m.answers = vec![Record::txt("t.example".parse().unwrap(), 60, "")];
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn unknown_type_is_opaque_lossless() {
        let mut m = Message::query(7, Question::a("z.example").unwrap());
        m.answers = vec![Record {
            name: "z.example".parse().unwrap(),
            rtype: RrType::Other(4242),
            class: RrClass::In,
            ttl: 9,
            rdata: RData::Opaque(vec![1, 2, 3, 4, 5]),
        }];
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn root_question_roundtrips() {
        let q = Question {
            name: DomainName::root(),
            rtype: RrType::Ns,
            class: RrClass::In,
        };
        let m = Message::query(8, q);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let m =
            Message::query(9, Question::a("www.example.com").unwrap()).with_ecs(p("10.0.0.0/24"));
        let bytes = encode(&m).unwrap();
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(r.is_err(), "decode accepted a {cut}-byte truncation");
        }
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Header + a name that points forward to itself.
        let mut pkt = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        pkt.extend_from_slice(&[0xC0, 12]); // pointer to its own offset 12
        pkt.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(decode(&pkt), Err(WireError::BadPointer(_))));
    }

    #[test]
    fn decode_rejects_reserved_label_type() {
        let mut pkt = vec![0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        pkt.push(0x80); // reserved 10-prefix label type
        pkt.extend_from_slice(&[0, 1, 0, 1]);
        assert!(matches!(decode(&pkt), Err(WireError::BadLabelType(_))));
    }

    #[test]
    fn decode_rejects_bad_ecs() {
        // Build a valid message, then corrupt the ECS family to IPv6.
        let m = Message::query(10, Question::a("a.example").unwrap()).with_ecs(p("10.0.0.0/24"));
        let mut bytes = encode(&m).unwrap();
        // Find the ECS option: family bytes are the 2 bytes after code+len.
        // code 0x0008, len 0x0007 — locate that pattern.
        let pat = [0x00, 0x08, 0x00, 0x07, 0x00, 0x01];
        let pos = bytes
            .windows(pat.len())
            .position(|w| w == pat)
            .expect("ECS option not found");
        bytes[pos + 5] = 2; // family = 2 (IPv6)
        assert!(matches!(decode(&bytes), Err(WireError::BadEcs(_))));
    }

    #[test]
    fn decode_rejects_nonzero_ecs_padding() {
        let m = Message::query(11, Question::a("a.example").unwrap()).with_ecs(p("10.0.0.0/20"));
        let mut bytes = encode(&m).unwrap();
        // /20 encodes 3 address octets: 0x0A 0x00 0x00; set low 4 bits of
        // the third octet (beyond the /20 boundary) to violate RFC 7871.
        let pat = [0x00, 0x08, 0x00, 0x07, 0x00, 0x01, 20, 0, 0x0A];
        let pos = bytes
            .windows(pat.len())
            .position(|w| w == pat)
            .expect("ECS option not found");
        bytes[pos + 10] |= 0x0F;
        assert!(matches!(decode(&bytes), Err(WireError::BadEcs(_))));
    }

    #[test]
    fn decode_rejects_wrong_a_rdlen() {
        let mut m = Message::query(12, Question::a("a.example").unwrap());
        m.answers = vec![Record::a("a.example".parse().unwrap(), 1, 7)];
        let mut bytes = encode(&m).unwrap();
        // The final 6 bytes are RDLENGTH(2) + RDATA(4). Shrink RDLENGTH to 3
        // and drop a byte.
        let n = bytes.len();
        bytes[n - 6..n - 4].copy_from_slice(&3u16.to_be_bytes());
        bytes.truncate(n - 1);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn decode_garbage_never_panics() {
        // Deterministic pseudo-random garbage.
        let mut x = 0x12345678u32;
        for len in 0..200 {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                v.push((x >> 24) as u8);
            }
            let _ = decode(&v); // must not panic
        }
    }

    #[test]
    fn multiple_questions_rejected() {
        let m = Message::query(13, Question::a("a.example").unwrap());
        let mut bytes = encode(&m).unwrap();
        bytes[4..6].copy_from_slice(&2u16.to_be_bytes());
        assert!(matches!(decode(&bytes), Err(WireError::Unsupported(_))));
    }
}

// ---------------------------------------------------------------------------
// Zero-allocation fast lane
// ---------------------------------------------------------------------------

/// A pre-rendered non-recursive `A`-in-`IN` probe query for one domain.
///
/// The cache-probing sweep sends the same query shape millions of times,
/// varying only the transaction ID and the ECS source prefix. Rendering
/// from a template writes the packet into a caller-reused buffer without
/// building a [`Message`], cloning a [`DomainName`], or allocating.
/// [`ProbeQueryTemplate::render`] is asserted byte-identical to
/// `encode(Message::query(..).with_recursion_desired(false).with_ecs(..))`
/// in tests.
#[derive(Debug, Clone)]
pub struct ProbeQueryTemplate {
    /// Header + question + OPT record up to (and excluding) RDLEN.
    prefix: Vec<u8>,
    /// Length in bytes of the QNAME within `prefix` (starts at offset 12).
    qname_len: usize,
    name: DomainName,
}

impl ProbeQueryTemplate {
    /// Pre-renders the query skeleton for `domain`.
    pub fn new(domain: &DomainName) -> Self {
        let mut prefix = Vec::with_capacity(64);
        put_u16(&mut prefix, 0); // id, patched per render
        put_u16(&mut prefix, 0); // flags: query, opcode 0, rd=0
        put_u16(&mut prefix, 1); // qdcount
        put_u16(&mut prefix, 0); // ancount
        put_u16(&mut prefix, 0); // nscount
        put_u16(&mut prefix, 1); // arcount (the OPT)
        for label in domain.labels() {
            put_u8(&mut prefix, label.as_str().len() as u8);
            prefix.extend_from_slice(label.as_str().as_bytes());
        }
        put_u8(&mut prefix, 0); // root
        let qname_len = prefix.len() - 12;
        put_u16(&mut prefix, RrType::A.to_u16());
        put_u16(&mut prefix, RrClass::In.to_u16());
        // OPT pseudo-record header, mirroring `Edns::default()`.
        let edns = Edns::default();
        put_u8(&mut prefix, 0); // root owner name
        put_u16(&mut prefix, RrType::Opt.to_u16());
        put_u16(&mut prefix, edns.udp_payload_size);
        let ttl: u32 =
            ((edns.ext_rcode as u32) << 24) | ((edns.version as u32) << 16) | edns.flags as u32;
        put_u32(&mut prefix, ttl);
        ProbeQueryTemplate {
            prefix,
            qname_len,
            name: domain.clone(),
        }
    }

    /// The probe domain this template encodes.
    pub fn name(&self) -> &DomainName {
        &self.name
    }

    /// The uncompressed QNAME wire bytes (labels + terminal root byte).
    pub fn qname_wire(&self) -> &[u8] {
        &self.prefix[12..12 + self.qname_len]
    }

    /// Renders the query for one probe into `out` (cleared first).
    pub fn render(&self, id: u16, ecs_source: Prefix, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&self.prefix);
        out[0..2].copy_from_slice(&id.to_be_bytes());
        let addr_bytes = ecs_source.len().div_ceil(8) as u16;
        put_u16(out, 4 + (4 + addr_bytes)); // OPT RDLEN: option code+len+body
        write_ecs_option(out, ecs_source, 0);
    }

    /// Appends the rendered query to `out` without clearing it; returns
    /// the byte offset the packet starts at. Bytes written are identical
    /// to [`ProbeQueryTemplate::render`] for the same `(id, ecs_source)`.
    pub fn render_append(&self, id: u16, ecs_source: Prefix, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&self.prefix);
        out[start..start + 2].copy_from_slice(&id.to_be_bytes());
        let addr_bytes = ecs_source.len().div_ceil(8) as u16;
        put_u16(out, 4 + (4 + addr_bytes));
        write_ecs_option(out, ecs_source, 0);
        start
    }
}

/// An arena of rendered probe queries: many [`ProbeQueryTemplate`]
/// renders packed back-to-back in one reused buffer. After the first
/// few batches the arena reaches steady state and `clear` + `push`
/// cycles allocate nothing.
///
/// Kept for the frozen benchmark harness, which times rendering and
/// the simulator's validating batch door; ROADMAP 2(d) deletes it. The
/// product's batched lane renders nothing.
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch {
    /// All rendered packets, concatenated.
    buf: Vec<u8>,
    /// `(start, len)` of each packet within `buf`.
    spans: Vec<(u32, u32)>,
}

impl ProbeBatch {
    /// An empty arena.
    pub fn new() -> ProbeBatch {
        ProbeBatch::default()
    }

    /// Forgets every rendered query but keeps the capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.spans.clear();
    }

    /// Renders one query into the arena; returns its index.
    pub fn push(&mut self, template: &ProbeQueryTemplate, id: u16, ecs_source: Prefix) -> usize {
        let start = template.render_append(id, ecs_source, &mut self.buf);
        self.spans
            .push((start as u32, (self.buf.len() - start) as u32));
        self.spans.len() - 1
    }

    /// The rendered packet at `index`.
    pub fn query(&self, index: usize) -> &[u8] {
        let (start, len) = self.spans[index];
        &self.buf[start as usize..(start + len) as usize]
    }

    /// Number of rendered queries.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no queries.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The rendered packets, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(move |i| self.query(i))
    }
}

/// A borrowed view of a simple probe-shaped query packet.
///
/// "Simple" means: exactly one question with an uncompressed QNAME, no
/// answer/authority records, and at most one additional record which
/// must be a root-owned OPT. Anything else returns `None`.
///
/// Kept only as the packet validator of the simulator's frozen batch
/// door (`serve_batch`), which the benchmark harness times; ROADMAP
/// 2(d) deletes it with that door. The wire lane reads queries through
/// [`decode`].
#[derive(Debug, Clone, Copy)]
pub struct QueryView<'a> {
    /// Transaction ID.
    pub id: u16,
    /// Raw header flags word.
    pub flags: u16,
    /// Raw uncompressed QNAME bytes (labels + terminal root byte),
    /// borrowed from the packet starting at offset 12.
    pub qname_wire: &'a [u8],
    /// Raw QTYPE.
    pub rtype: u16,
    /// Raw QCLASS.
    pub qclass: u16,
    /// First ECS option in the OPT record, if any.
    pub ecs: Option<EcsOption>,
}

impl QueryView<'_> {
    /// The QR bit.
    pub fn is_response(&self) -> bool {
        self.flags & 0x8000 != 0
    }

    /// The raw opcode.
    pub fn opcode(&self) -> u8 {
        (self.flags >> 11) as u8 & 0x0F
    }

    /// The RD bit.
    pub fn recursion_desired(&self) -> bool {
        self.flags & 0x0100 != 0
    }
}

/// Parses a probe-shaped query without allocating. See [`QueryView`].
pub fn query_view(data: &[u8]) -> Option<QueryView<'_>> {
    if data.len() < 12 {
        return None;
    }
    let be16 = |i: usize| ((data[i] as u16) << 8) | data[i + 1] as u16;
    let (qdcount, ancount, nscount, arcount) = (be16(4), be16(6), be16(8), be16(10));
    if qdcount != 1 || ancount != 0 || nscount != 0 || arcount > 1 {
        return None;
    }
    // QNAME: plain labels only (our own probers never compress it).
    let mut pos = 12usize;
    loop {
        let len = *data.get(pos)? as usize;
        if len == 0 {
            pos += 1;
            break;
        }
        if len & 0xC0 != 0 {
            return None;
        }
        pos += 1 + len;
        if pos - 12 > MAX_NAME_LEN {
            return None;
        }
    }
    let qname_wire = &data[12..pos];
    if data.len() < pos + 4 {
        return None;
    }
    let rtype = be16(pos);
    let qclass = be16(pos + 2);
    pos += 4;

    let mut ecs = None;
    if arcount == 1 {
        // Must be a root-owned OPT record.
        if data.len() < pos + 11 || data[pos] != 0 || be16(pos + 1) != RrType::Opt.to_u16() {
            return None;
        }
        let rdlen = be16(pos + 9) as usize;
        pos += 11;
        let rdata = data.get(pos..pos + rdlen)?;
        let mut opt = 0usize;
        while opt < rdata.len() {
            if rdata.len() < opt + 4 {
                return None;
            }
            let code = ((rdata[opt] as u16) << 8) | rdata[opt + 1] as u16;
            let len = (((rdata[opt + 2] as u16) << 8) | rdata[opt + 3] as u16) as usize;
            let body = rdata.get(opt + 4..opt + 4 + len)?;
            if code == OPTION_CODE_ECS && ecs.is_none() {
                ecs = Some(decode_ecs(body).ok()?);
            }
            opt += 4 + len;
        }
    }
    Some(QueryView {
        id: be16(0),
        flags: be16(2),
        qname_wire,
        rtype,
        qclass,
        ecs,
    })
}

/// Whether `response` echoes `query`'s question verbatim — byte-compares
/// the QNAME + QTYPE + QCLASS region starting at offset 12 of each
/// packet. Used by the resilient prober to reject responses whose
/// question does not match what was asked: the exchange observes as a
/// `Mismatch`, counted on `cacheprobe.fault.observed.mismatch`.
pub fn question_echo_matches(query: &[u8], response: &[u8]) -> bool {
    let Some(end) = question_end(query) else {
        return false;
    };
    response.len() >= end && response[12..end] == query[12..end]
}

/// End offset (exclusive) of the first question in `pkt`, assuming an
/// uncompressed QNAME at offset 12.
fn question_end(pkt: &[u8]) -> Option<usize> {
    let mut pos = 12usize;
    loop {
        let b = *pkt.get(pos)?;
        if b == 0 {
            pos += 1;
            break;
        }
        if b & 0xC0 != 0 {
            return None; // compressed question names are never emitted
        }
        pos += 1 + b as usize;
    }
    pos += 4; // QTYPE + QCLASS
    (pos <= pkt.len()).then_some(pos)
}

#[cfg(test)]
mod fast_lane_tests {
    use super::*;
    use crate::Question;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn probe_query(domain: &str, id: u16, scope: Prefix) -> Message {
        Message::query(id, Question::a(domain).unwrap())
            .with_recursion_desired(false)
            .with_ecs(scope)
    }

    #[test]
    fn template_render_matches_message_encoder() {
        for domain in [
            "www.google.com",
            "facebook.com",
            "cdn.msvalidation.example",
            "a.b.c.d.example",
        ] {
            let tmpl = ProbeQueryTemplate::new(&domain.parse().unwrap());
            let mut fast = Vec::new();
            for scope in ["203.0.113.0/24", "10.32.16.0/20", "0.0.0.0/0", "1.2.3.4/32"] {
                let scope = p(scope);
                for id in [0u16, 0x1234, 0xFFFF] {
                    tmpl.render(id, scope, &mut fast);
                    let slow = encode(&probe_query(domain, id, scope)).unwrap();
                    assert_eq!(fast, slow, "{domain} {scope} {id:#x}");
                }
            }
        }
    }

    #[test]
    fn batch_entries_match_scalar_renders() {
        let domains = ["www.google.com", "facebook.com", "a.b.c.d.example"];
        let templates: Vec<ProbeQueryTemplate> = domains
            .iter()
            .map(|d| ProbeQueryTemplate::new(&d.parse().unwrap()))
            .collect();
        let mut batch = ProbeBatch::new();
        let mut scalar = Vec::new();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for (i, scope) in ["203.0.113.0/24", "10.32.16.0/20", "0.0.0.0/0", "1.2.3.4/32"]
            .iter()
            .enumerate()
        {
            let scope = p(scope);
            for (j, tmpl) in templates.iter().enumerate() {
                let id = (i * 7 + j) as u16 ^ 0x5AA5;
                let idx = batch.push(tmpl, id, scope);
                assert_eq!(idx, expected.len());
                tmpl.render(id, scope, &mut scalar);
                expected.push(scalar.clone());
            }
        }
        assert_eq!(batch.len(), expected.len());
        assert!(!batch.is_empty());
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(batch.query(i), &want[..], "entry {i}");
        }
        assert_eq!(
            batch.iter().map(<[u8]>::len).sum::<usize>(),
            expected.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn batch_clear_reuses_capacity() {
        let tmpl = ProbeQueryTemplate::new(&"www.google.com".parse().unwrap());
        let mut batch = ProbeBatch::new();
        for i in 0..32u16 {
            batch.push(&tmpl, i, p("203.0.113.0/24"));
        }
        let cap = batch.buf.capacity();
        let spans_cap = batch.spans.capacity();
        batch.clear();
        assert!(batch.is_empty());
        for i in 0..32u16 {
            batch.push(&tmpl, i, p("203.0.113.0/24"));
        }
        assert_eq!(batch.buf.capacity(), cap, "buffer capacity not reused");
        assert_eq!(
            batch.spans.capacity(),
            spans_cap,
            "span capacity not reused"
        );
        let mut scalar = Vec::new();
        tmpl.render(31, p("203.0.113.0/24"), &mut scalar);
        assert_eq!(batch.query(31), &scalar[..]);
    }

    #[test]
    fn query_view_agrees_with_decode() {
        let tmpl = ProbeQueryTemplate::new(&"www.google.com".parse().unwrap());
        let mut buf = Vec::new();
        tmpl.render(0xABCD, p("198.51.100.0/24"), &mut buf);
        let view = query_view(&buf).expect("template query is simple");
        let full = decode(&buf).unwrap();
        assert_eq!(view.id, full.id);
        assert_eq!(view.is_response(), full.is_response);
        assert_eq!(view.recursion_desired(), full.recursion_desired);
        assert_eq!(view.opcode(), full.opcode.to_u8());
        assert_eq!(view.rtype, RrType::A.to_u16());
        assert_eq!(view.qclass, RrClass::In.to_u16());
        assert_eq!(view.ecs, full.ecs().copied());
        assert_eq!(view.qname_wire, tmpl.qname_wire());
    }

    #[test]
    fn question_echo_matching() {
        let q = probe_query("www.google.com", 7, p("203.0.113.0/24"));
        let query = encode(&q).unwrap();

        // A real probe response echoes the question.
        let miss = Message::response_for(&q).with_response_ecs(p("203.0.113.0/24"), 0);
        let resp = encode(&miss).unwrap();
        assert!(question_echo_matches(&query, &resp));
        // So does an injected error response.
        let refused = Message::response_for(&q).with_rcode(Rcode::Refused);
        assert!(question_echo_matches(&query, &encode(&refused).unwrap()));

        // A response to a different name does not.
        let other = probe_query("facebook.com", 7, p("203.0.113.0/24"));
        let other_miss = Message::response_for(&other).with_response_ecs(p("203.0.113.0/24"), 0);
        let resp = encode(&other_miss).unwrap();
        assert!(!question_echo_matches(&query, &resp));
        // Truncated garbage never panics.
        assert!(!question_echo_matches(&query, &resp[..8]));
        assert!(!question_echo_matches(&[0u8; 5], &resp));
    }

    #[test]
    fn query_view_rejects_non_simple_shapes() {
        // A response with answers is not probe-query-shaped.
        let q = probe_query("www.google.com", 1, p("10.0.0.0/24"));
        let resp = Message::response_for(&q)
            .with_answers(vec![Record::a("www.google.com".parse().unwrap(), 60, 1)])
            .with_response_ecs(p("10.0.0.0/24"), 20);
        assert!(query_view(&encode(&resp).unwrap()).is_none());
        // Truncated packets are rejected, never panic.
        let bytes = encode(&q).unwrap();
        for cut in 0..bytes.len() {
            let _ = query_view(&bytes[..cut]);
        }
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_encode() {
        let msgs = [
            probe_query("www.google.com", 1, p("10.0.0.0/24")),
            probe_query("www.wikipedia.org", 2, p("192.0.2.0/28")),
            Message::query(3, Question::a("www.example.com").unwrap()),
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            encode_into(m, &mut buf).unwrap();
            assert_eq!(buf, encode(m).unwrap());
        }
    }
}
