//! The one wire codec: every byte this workspace puts in a file or on
//! a socket — `CMSS` snapshots, `CMEL` event logs, `CMFR` fleet and
//! query frames and every payload inside them — is laid out here.
//!
//! Deliberately boring: every integer is fixed-width little-endian,
//! strings and sequences carry a `u32` length prefix, and a sealed
//! buffer ends in a [`checksum`] of everything before it. No field is
//! optional at the byte level (options encode an explicit flag byte),
//! so equal values encode to byte-identical buffers — the property the
//! warm-start determinism tests pin.
//!
//! Three rules live here once instead of once per decoder:
//!
//! * **The record envelope** — `kind ‖ len ‖ payload ‖ sum`, the unit
//!   both containers repeat ([`seal_record`] / [`open_record`]): a
//!   `CMFR` frame is the magic plus one envelope on a stream, a `CMEL`
//!   log is a header plus envelopes in a file.
//! * **Counts** — [`ByteReader::count`] refuses an element count the
//!   unread payload cannot hold and [`ByteReader::seq`] reserves within
//!   it, so no decoder picks a cap of its own.
//! * **Flags** — [`ByteReader::flag`] accepts 0 and 1 and nothing else,
//!   so whatever decodes re-encodes to the bytes that were accepted.

use clientmap_net::{splitmix64, Prefix};

/// Decode-side failures. Corruption is detected *before* any field is
/// interpreted (magic → version → checksum, then parse), so a bad
/// snapshot can never half-load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The format version is newer (or older) than this build reads.
    BadVersion(u16),
    /// The trailing checksum does not match the payload.
    BadChecksum,
    /// The buffer ended mid-field.
    Truncated,
    /// A field decoded to an impossible value.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a sweep snapshot (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CodecError::BadChecksum => write!(f, "snapshot checksum mismatch (corrupt file)"),
            CodecError::Truncated => write!(f, "snapshot truncated"),
            CodecError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Seeded checksum over `bytes`: splitmix64 folded over 8-byte
/// little-endian chunks (zero-padded tail) with the length mixed in
/// first, so permutations, truncations, and bit flips all disturb it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut acc = splitmix64(0xC5EC_5EED ^ bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = splitmix64(acc ^ u64::from_le_bytes(word));
    }
    acc
}

/// Bytes of a record envelope before its payload: kind byte, `u32`
/// length — what a stream reader needs in hand to size the rest.
pub const ENVELOPE_HEAD: usize = 1 + 4;

/// Bytes the record envelope adds around a payload: the head, and the
/// trailing `u64` checksum.
pub const ENVELOPE_OVERHEAD: usize = ENVELOPE_HEAD + 8;

/// Appends one sealed record to `out`:
///
/// ```text
/// ┌──────┬─────────┬────────────┬────────────┐
/// │ kind │ len u32 │ payload    │ sum u64 LE │
/// │ u8   │ LE      │ len bytes  │ splitmix64 │
/// └──────┴─────────┴────────────┴────────────┘
/// ```
///
/// The checksum is [`checksum`] over `kind ‖ len ‖ payload`, taken in
/// place over the bytes just appended.
pub fn seal_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.reserve(ENVELOPE_OVERHEAD + payload.len());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Opens the sealed record at the head of `bytes` into `(kind,
/// payload, bytes consumed)`. A slice that ends before the record does
/// is [`CodecError::Truncated`]; a record whose checksum does not
/// match is [`CodecError::BadChecksum`]. Nothing is copied and nothing
/// is allocated: the length prefix is only ever compared against the
/// bytes actually present.
pub fn open_record(bytes: &[u8]) -> Result<(u8, &[u8], usize), CodecError> {
    let mut r = ByteReader::unsealed(bytes);
    let kind = r.u8()?;
    let payload = r.blob()?;
    let body = &bytes[..r.pos];
    if r.u64()? != checksum(body) {
        return Err(CodecError::BadChecksum);
    }
    Ok((kind, payload, r.pos))
}

/// Little-endian append-only encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a flag byte: 1 for `true`, 0 for `false`.
    pub fn flag(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u32` length prefix, then the bytes (e.g. a nested
    /// sealed structure).
    pub fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes(b);
    }

    /// Appends a prefix: `u32` network address, `u8` length.
    pub fn prefix(&mut self, p: Prefix) {
        self.u32(p.addr());
        self.u8(p.len());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Seals the buffer: appends the [`checksum`] of everything
    /// written so far and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.u64(sum);
        self.buf
    }

    /// Returns the bytes as written, with no checksum — for layouts
    /// whose integrity is carried elsewhere (a frame payload made of
    /// sealed parts, a header the first record boundary vouches for).
    pub fn into_unsealed(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian cursor decoder, over a checksum-verified payload
/// ([`ByteReader::verified`]) or over raw bytes
/// ([`ByteReader::unsealed`]).
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Verifies the trailing [`checksum`] of `data` and returns a
    /// reader over the payload before it.
    pub fn verified(data: &'a [u8]) -> Result<ByteReader<'a>, CodecError> {
        if data.len() < 8 {
            return Err(CodecError::Truncated);
        }
        let (payload, tail) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        if checksum(payload) != stored {
            return Err(CodecError::BadChecksum);
        }
        Ok(ByteReader::unsealed(payload))
    }

    /// A reader over `data` as it stands, no checksum expected — the
    /// counterpart of [`ByteWriter::into_unsealed`].
    pub fn unsealed(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// Reads `n` raw bytes (e.g. a nested encoded structure).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.data.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.raw(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.raw(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.raw(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.raw(8)?.try_into().unwrap()))
    }

    /// Reads a flag byte strictly: 0 is `false`, 1 is `true`, and
    /// anything else is `Malformed(what)` — an encoder never writes
    /// it, so accepting it would decode a value that no longer
    /// re-encodes to the bytes it came from.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed(what)),
        }
    }

    /// Reads a `u32` element count and checks it against the unread
    /// payload: every encoded element costs at least one byte, so a
    /// count above the bytes still unread cannot be honest and is
    /// refused as [`CodecError::Truncated`] before anything is
    /// reserved for it.
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.unread() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads a counted sequence: a [`ByteReader::count`], then that
    /// many elements through `elem`. The `Vec` is reserved up front
    /// for the whole count, but never for more memory than the bytes
    /// still unread — the one bound every decoder's allocation obeys.
    pub fn seq<T>(
        &mut self,
        mut elem: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count()?;
        let fits_in_unread = self.unread() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(fits_in_unread));
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Reads a `u32` length prefix, then that many raw bytes.
    pub fn blob(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.raw(len)
    }

    /// Reads a prefix as [`ByteWriter::prefix`] writes it: length at
    /// most 32 and no host bits set, `Malformed(what)` otherwise.
    /// (`Prefix::new` alone would mask host bits off and hand back a
    /// value that re-encodes to different bytes.)
    pub fn prefix(&mut self, what: &'static str) -> Result<Prefix, CodecError> {
        let (addr, len) = (self.u32()?, self.u8()?);
        let prefix = Prefix::new(addr, len).ok().filter(|p| p.addr() == addr);
        prefix.ok_or(CodecError::Malformed(what))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.blob()?.to_vec()).map_err(|_| CodecError::Malformed("utf-8 string"))
    }

    /// Everything not yet read, consuming it (a trailing nested
    /// structure that carries its own length or checksum).
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.data[self.pos..];
        self.pos = self.data.len();
        rest
    }

    fn unread(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the payload is fully consumed.
    pub fn is_done(&self) -> bool {
        self.unread() == 0
    }

    /// Fails unless the payload is fully consumed — trailing garbage
    /// means a layout mismatch even when the checksum passes.
    pub fn expect_done(&self) -> Result<(), CodecError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_strings() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.str("scope/24");
        let bytes = w.finish();
        let mut r = ByteReader::verified(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "scope/24");
        assert!(r.expect_done().is_ok());
    }

    #[test]
    fn any_flipped_byte_fails_the_checksum() {
        let mut w = ByteWriter::new();
        w.u64(42);
        w.str("payload");
        let bytes = w.finish();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                ByteReader::verified(&bad).err(),
                Some(CodecError::BadChecksum),
                "flip at byte {i} went undetected"
            );
        }
        assert_eq!(
            ByteReader::verified(&bytes[..bytes.len() - 1]).err(),
            Some(CodecError::BadChecksum)
        );
        assert_eq!(
            ByteReader::verified(&[1, 2, 3]).err(),
            Some(CodecError::Truncated)
        );
    }

    #[test]
    fn reads_past_the_end_are_truncated_not_panics() {
        let bytes = ByteWriter::new().finish();
        let mut r = ByteReader::verified(&bytes).unwrap();
        assert_eq!(r.u8().err(), Some(CodecError::Truncated));
    }

    #[test]
    fn records_seal_and_open_back_to_back() {
        let mut buf = Vec::new();
        seal_record(&mut buf, 4, &[7, 0, 0, 0]);
        let first = buf.len();
        assert_eq!(first, ENVELOPE_OVERHEAD + 4);
        seal_record(&mut buf, 9, &[]);
        assert_eq!(open_record(&buf), Ok((4, &[7u8, 0, 0, 0][..], first)));
        assert_eq!(
            open_record(&buf[first..]),
            Ok((9, &[][..], ENVELOPE_OVERHEAD))
        );
        // The checksum covers kind ‖ len ‖ payload, nothing before it.
        assert_eq!(
            buf[first - 8..first],
            checksum(&buf[..first - 8]).to_le_bytes()
        );
    }

    /// The envelope's whole error discipline, once: every container
    /// built on it (`CMFR` frames, `CMEL` records) inherits this.
    #[test]
    fn a_record_cut_anywhere_is_truncated_and_any_flipped_bit_is_caught() {
        let payload: Vec<u8> = (0u8..40).collect();
        let mut clean = Vec::new();
        seal_record(&mut clean, 5, &payload);
        for cut in 0..clean.len() {
            assert_eq!(
                open_record(&clean[..cut]).err(),
                Some(CodecError::Truncated),
                "cut at {cut}"
            );
        }
        for pos in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[pos] ^= 1 << bit;
                let got = open_record(&bad);
                assert!(got.is_err(), "flip at {pos}/{bit} went unnoticed: {got:?}");
                if (5..5 + payload.len()).contains(&pos) {
                    assert_eq!(
                        got.err(),
                        Some(CodecError::BadChecksum),
                        "flip at {pos}/{bit}"
                    );
                }
            }
        }
        // A length prefix far past the slice is refused on the length
        // alone — nothing is reserved for it.
        let mut huge = vec![5u8];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(open_record(&huge).err(), Some(CodecError::Truncated));
    }

    #[test]
    fn counts_are_bounded_by_the_unread_payload() {
        let mut w = ByteWriter::new();
        w.u32(3);
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_unsealed();
        // Three one-byte elements fit exactly…
        assert_eq!(ByteReader::unsealed(&bytes).count(), Ok(3));
        assert_eq!(
            ByteReader::unsealed(&bytes).seq(|r| r.u8()),
            Ok(vec![1, 2, 3])
        );
        // …a fourth cannot, and the count alone says so.
        assert_eq!(
            ByteReader::unsealed(&bytes[..6]).count().err(),
            Some(CodecError::Truncated)
        );
        // A hostile count is refused before anything is reserved, and
        // an honest count of wide elements reserves within the payload
        // (the sequence then ends where the bytes do).
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        w.bytes(&[0; 64]);
        let bytes = w.into_unsealed();
        assert_eq!(
            ByteReader::unsealed(&bytes).seq(|r| r.u64()).err(),
            Some(CodecError::Truncated)
        );
        let mut w = ByteWriter::new();
        w.u32(64);
        w.bytes(&[0; 64]);
        let bytes = w.into_unsealed();
        assert_eq!(
            ByteReader::unsealed(&bytes).seq(|r| r.u64()).err(),
            Some(CodecError::Truncated)
        );
        // Zero elements always fit.
        assert_eq!(ByteReader::unsealed(&[0; 4]).seq(|r| r.u64()), Ok(vec![]));
    }

    #[test]
    fn flags_are_strict_and_blobs_and_rest_walk_the_cursor() {
        let mut w = ByteWriter::new();
        w.flag(false);
        w.flag(true);
        w.blob(b"nested");
        w.bytes(b"tail");
        let bytes = w.into_unsealed();
        let mut r = ByteReader::unsealed(&bytes);
        assert_eq!(r.flag("a"), Ok(false));
        assert_eq!(r.flag("b"), Ok(true));
        assert_eq!(r.blob(), Ok(&b"nested"[..]));
        assert_eq!(r.rest(), b"tail");
        assert!(r.is_done());
        for byte in 2..=255u8 {
            assert_eq!(
                ByteReader::unsealed(&[byte]).flag("some flag").err(),
                Some(CodecError::Malformed("some flag")),
                "flag byte {byte}"
            );
        }
    }
}
