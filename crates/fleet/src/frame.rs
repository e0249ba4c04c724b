//! The fleet's wire framing: length-prefixed, checksummed frames over
//! a TCP stream.
//!
//! ```text
//! ┌───────┬──────┬─────────┬────────────┬────────────┐
//! │ magic │ kind │ len u32 │ payload    │ sum u64 LE │
//! │ CMFR  │ u8   │ LE      │ len bytes  │ splitmix64 │
//! └───────┴──────┴─────────┴────────────┴────────────┘
//! ```
//!
//! A frame is the magic followed by one record envelope of the store's
//! codec (`clientmap_store::seal_record` / `open_record`, checksum over
//! `kind ‖ len ‖ payload`) — the same envelope the `CMEL` event log
//! repeats in a file — so truncations, reorderings, and bit flips on
//! the wire are all rejected before a payload is interpreted. This
//! module adds what a *stream* needs: the magic, one header loop that
//! tells a clean hang-up and an idle deadline from a stall mid-frame,
//! and the refusal of a length prefix above [`MAX_FRAME_PAYLOAD`]
//! *before* anything is allocated for it.
//!
//! The framing is generic over its kind byte via [`WireKind`]: the
//! fleet protocol's [`FrameKind`] is the default, and other `CMFR`
//! speakers (the serve query protocol) define their own kind enums
//! while sharing the exact same framing, checksum, and error
//! discipline — one wire format, audited once.

use std::io::{Read, Write};

use clientmap_store::{open_record, seal_record, ByteReader, ENVELOPE_HEAD, ENVELOPE_OVERHEAD};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CMFR";

/// Hard ceiling on a frame payload (256 MiB) — far above any real
/// shard delta, far below a corrupt length prefix.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 28;

/// A frame-kind vocabulary: one byte on the wire, one enum in code.
/// Implementors get the whole `CMFR` framing stack
/// ([`write_frame`]/[`read_frame`]/[`read_frame_deadline`]) for free.
pub trait WireKind: Copy {
    /// The wire encoding of this kind.
    fn to_byte(self) -> u8;
    /// Decodes a kind byte, `None` for bytes outside the vocabulary
    /// (surfaced as [`FrameError::UnknownKind`]).
    fn from_byte(b: u8) -> Option<Self>;
}

/// What a fleet frame means. The numeric values are the wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// driver → worker: sweep job description ([`crate::proto::JobSpec`]).
    Job = 1,
    /// worker → driver: job accepted; payload is a
    /// [`crate::proto::JobAck`].
    JobAck = 2,
    /// worker → driver: job refused; payload is a UTF-8 reason.
    JobErr = 3,
    /// driver → worker: probe one shard; payload is the shard id (u32
    /// LE).
    ShardRequest = 4,
    /// worker → driver: a shard's delta; payload is shard id (u32 LE)
    /// followed by `SweepSnapshot::encode` bytes.
    ShardResult = 5,
    /// driver → worker: sweep complete (or aborted) — exit cleanly.
    Shutdown = 6,
    /// worker → driver: acknowledged shutdown, closing.
    Bye = 7,
    /// driver → worker: probe a rescue shard; payload is a
    /// [`crate::proto`] rescue request (shard id + rescue units).
    RescueRequest = 8,
    /// worker → driver: a rescue shard's delta; payload is shard id
    /// (u32 LE) followed by `SweepSnapshot::encode` bytes.
    RescueResult = 9,
}

impl WireKind for FrameKind {
    fn to_byte(self) -> u8 {
        self as u8
    }

    fn from_byte(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Job,
            2 => FrameKind::JobAck,
            3 => FrameKind::JobErr,
            4 => FrameKind::ShardRequest,
            5 => FrameKind::ShardResult,
            6 => FrameKind::Shutdown,
            7 => FrameKind::Bye,
            8 => FrameKind::RescueRequest,
            9 => FrameKind::RescueResult,
            _ => return None,
        })
    }
}

/// One decoded frame (of the fleet vocabulary by default).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<K = FrameKind> {
    /// What the frame means.
    pub kind: K,
    /// The frame's payload (interpretation depends on `kind`).
    pub payload: Vec<u8>,
}

impl<K: WireKind> Frame<K> {
    /// A frame of `kind` carrying `payload`.
    pub fn new(kind: K, payload: Vec<u8>) -> Frame<K> {
        Frame { kind, payload }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended mid-frame — or, for [`read_frame`], which
    /// expects a frame, before one began ([`read_frame_deadline`]
    /// reports a clean EOF *between* frames as [`FrameRead::Eof`]).
    ShortRead,
    /// The first four bytes were not the frame magic.
    BadMagic([u8; 4]),
    /// The kind byte was outside the protocol's [`WireKind`] vocabulary.
    UnknownKind(u8),
    /// The length prefix exceeded [`MAX_FRAME_PAYLOAD`].
    Oversized(usize),
    /// The trailing checksum did not match the frame body.
    BadChecksum,
    /// A socket deadline expired while a frame was in flight — the
    /// peer stalled mid-frame past the configured `--io-timeout`.
    /// (A deadline expiring *between* frames is not an error; see
    /// [`read_frame_deadline`].)
    TimedOut,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::ShortRead => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::TimedOut => write!(f, "i/o deadline expired mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an i/o error is a socket-deadline expiry. Unix surfaces
/// these as `WouldBlock`, Windows as `TimedOut`.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::ShortRead
        } else if is_timeout(&e) {
            FrameError::TimedOut
        } else {
            FrameError::Io(e)
        }
    }
}

/// Writes one frame to `w` (buffered by the caller's stream; a frame
/// is a single `write_all`).
pub fn write_frame<K: WireKind>(w: &mut impl Write, frame: &Frame<K>) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(MAGIC.len() + ENVELOPE_OVERHEAD + frame.payload.len());
    buf.extend_from_slice(&MAGIC);
    seal_record(&mut buf, frame.kind.to_byte(), &frame.payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one frame from `r`, validating magic, kind, size, and
/// checksum — for a caller owed an answer: a peer that hangs up instead
/// is a `ShortRead`, one silent past the socket deadline a `TimedOut`.
pub fn read_frame<K: WireKind>(r: &mut impl Read) -> Result<Frame<K>, FrameError> {
    match read_frame_deadline(r)? {
        FrameRead::Frame(frame) => Ok(frame),
        FrameRead::Eof => Err(FrameError::ShortRead),
        FrameRead::Idle => Err(FrameError::TimedOut),
    }
}

/// What a deadline-aware read produced.
#[derive(Debug)]
pub enum FrameRead<K = FrameKind> {
    /// A complete, validated frame.
    Frame(Frame<K>),
    /// Clean EOF at a frame boundary — the peer hung up.
    Eof,
    /// The socket deadline expired with *no* frame in flight. Idle is
    /// not an error: servers use it to poll a stop flag (or simply
    /// keep waiting) between frames, while a deadline expiring
    /// mid-frame still fails hard as [`FrameError::TimedOut`].
    Idle,
}

/// Reads one frame from a socket with a read deadline set,
/// distinguishing the three healthy outcomes (frame, EOF, idle
/// deadline) from transport failure. A deadline expiring after the
/// frame header started arriving means the peer stalled mid-frame and
/// is reported as [`FrameError::TimedOut`].
pub fn read_frame_deadline<K: WireKind>(r: &mut impl Read) -> Result<FrameRead<K>, FrameError> {
    // magic ‖ kind ‖ len: everything needed to size the rest.
    let mut header = [0u8; MAGIC.len() + ENVELOPE_HEAD];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(FrameRead::Eof),
            Ok(0) => return Err(FrameError::ShortRead),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) && got == 0 => return Ok(FrameRead::Idle),
            Err(e) => return Err(e.into()),
        }
    }
    let (magic, head) = header.split_at(MAGIC.len());
    if magic != MAGIC {
        let magic = magic.try_into().expect("4-byte magic");
        return Err(FrameError::BadMagic(magic));
    }
    let mut fields = ByteReader::unsealed(head);
    let kind_byte = fields.u8().expect("kind byte in the header");
    let kind = K::from_byte(kind_byte).ok_or(FrameError::UnknownKind(kind_byte))?;
    let len = fields.u32().expect("length prefix in the header") as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    // The whole envelope: the head already read, then payload ‖ sum off
    // the stream. Sized to its own length prefix, it can only fail to
    // open on its checksum — taken in place, then the envelope is shed.
    let mut record = vec![0u8; ENVELOPE_OVERHEAD + len];
    record[..ENVELOPE_HEAD].copy_from_slice(head);
    r.read_exact(&mut record[ENVELOPE_HEAD..])?;
    open_record(&record).map_err(|_| FrameError::BadChecksum)?;
    record.truncate(ENVELOPE_HEAD + len);
    record.drain(..ENVELOPE_HEAD);
    Ok(FrameRead::Frame(Frame::new(kind, record)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: FrameKind, payload: Vec<u8>) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(kind, payload)).unwrap();
        read_frame(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        for (kind, payload) in [
            (FrameKind::Job, vec![]),
            (FrameKind::ShardRequest, 7u32.to_le_bytes().to_vec()),
            (FrameKind::ShardResult, vec![0xAB; 4096]),
            (FrameKind::Bye, vec![1, 2, 3]),
        ] {
            let f = roundtrip(kind, payload.clone());
            assert_eq!(f.kind, kind);
            assert_eq!(f.payload, payload);
        }
    }

    #[test]
    fn clean_eof_is_eof_midframe_is_error() {
        let eof = read_frame_deadline::<FrameKind>(&mut [].as_slice());
        assert!(matches!(eof, Ok(FrameRead::Eof)));
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::new(FrameKind::Job, vec![9; 100])).unwrap();
        for cut in [1, 5, 9, 30, buf.len() - 1] {
            let err = read_frame_deadline::<FrameKind>(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::ShortRead),
                "cut at {cut}: {err:?}"
            );
        }
    }
}
