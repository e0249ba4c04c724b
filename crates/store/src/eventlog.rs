//! The serve mode's append-only sweep event log.
//!
//! A resident `clientmap serve` process re-sweeps on a cadence and
//! records what each sweep *changed* — per-/24 [`Verdict`] transitions
//! — as one appended [`SweepEvent`] per sweep. The log is the durable
//! longitudinal record ("which networks gained or lost client activity,
//! and when") that the batch pipeline never kept.
//!
//! ```text
//! ┌──────────┬─────────┬───────────────┬───────────────────┬──────────────┐
//! │ magic    │ version │ world_seed    │ config_digest u64 │ records ...  │
//! │ CMEL     │ u16 LE  │ u64 LE        │ LE                │              │
//! └──────────┴─────────┴───────────────┴───────────────────┴──────────────┘
//! ```
//!
//! A record is the codec's record envelope
//! ([`seal_record`](crate::codec::seal_record): `kind ‖ len ‖ payload ‖
//! sum`) — byte for byte what follows the magic in one of the fleet's
//! `CMFR` frames — and every read of one, the recovery scan and the
//! offset-indexed read alike, goes through
//! [`open_record`](crate::codec::open_record), which only ever compares
//! the length prefix against bytes already in hand. Appends are a
//! single `write_all` + flush, so a crash can only ever tear the *tail*
//! record; [`EventLog::open`] scans the file, truncates a torn or
//! corrupt tail back to the last intact record boundary, and never
//! half-applies anything.
//!
//! Compaction reuses the [`SweepSnapshot`] codec as the compacted
//! base: [`EventLog::compact`] atomically replaces the sibling
//! `<path>.base` file with the current snapshot and rewinds the log to
//! its header — `base ⊕ log` always reconstructs the present store
//! state, and replaying the same sweeps regenerates the same log bytes.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::codec::{open_record, seal_record, ByteReader, ByteWriter, CodecError};
use crate::snapshot::SweepSnapshot;
use crate::verdict::{Verdict, VerdictTable};

/// Event-log magic: the first four bytes of every log file.
pub const EVENTLOG_MAGIC: [u8; 4] = *b"CMEL";

/// Current event-log format version.
pub const EVENTLOG_VERSION: u16 = 1;

/// Hard ceiling on one record's payload (256 MiB) — same rationale as
/// the fleet's frame cap: far above any real sweep delta, far below a
/// corrupt length prefix.
pub const MAX_EVENT_PAYLOAD: usize = 1 << 28;

/// Bytes before the first record: magic, version, world seed, digest.
pub const EVENTLOG_HEADER_LEN: u64 = 4 + 2 + 8 + 8;

/// Record kind: one sweep's verdict delta ([`SweepEvent`]).
pub const RECORD_SWEEP: u8 = 1;

/// Record kind: a sweep chain failure ([`FailureEvent`]) — the typed
/// mark a degraded-mode service leaves in its durable history when a
/// sweep dies but serving continues from the last good generation.
pub const RECORD_FAILURE: u8 = 2;

/// One per-/24 verdict transition between consecutive generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictChange {
    /// Dense /24 index (`addr >> 8`).
    pub index: u32,
    /// The verdict the previous generation held.
    pub from: Verdict,
    /// The verdict this generation holds.
    pub to: Verdict,
}

/// What one cadenced sweep changed: the unit of the event log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepEvent {
    /// The sweep's snapshot epoch.
    pub epoch: u32,
    /// The generation sequence number this sweep published (1-based).
    pub generation: u64,
    /// Active (measured-above-Unmeasured) /24s after this sweep.
    pub measured_slash24s: u64,
    /// Verdict transitions vs the previous generation, ascending by
    /// /24 index. The first event's `from` side is all-Unmeasured.
    pub changes: Vec<VerdictChange>,
}

impl SweepEvent {
    /// Encodes the event payload (with trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(self.epoch);
        w.u64(self.generation);
        w.u64(self.measured_slash24s);
        w.u32(self.changes.len() as u32);
        for c in &self.changes {
            w.u32(c.index);
            w.u8(c.from as u8);
            w.u8(c.to as u8);
        }
        w.finish()
    }

    /// Decodes an event payload, verifying its checksum.
    pub fn decode(bytes: &[u8]) -> Result<SweepEvent, CodecError> {
        let mut r = ByteReader::verified(bytes)?;
        let epoch = r.u32()?;
        let generation = r.u64()?;
        let measured_slash24s = r.u64()?;
        let mut last: Option<u32> = None;
        let changes = r.seq(|r| {
            let index = r.u32()?;
            if last.is_some_and(|p| p >= index) {
                return Err(CodecError::Malformed("event changes out of order"));
            }
            last = Some(index);
            let from = Verdict::from_u8(r.u8()?)
                .ok_or(CodecError::Malformed("bad `from` verdict in event"))?;
            let to = Verdict::from_u8(r.u8()?)
                .ok_or(CodecError::Malformed("bad `to` verdict in event"))?;
            Ok(VerdictChange { index, from, to })
        })?;
        r.expect_done()?;
        Ok(SweepEvent {
            epoch,
            generation,
            measured_slash24s,
            changes,
        })
    }
}

/// A sweep chain failure: the generation that was *being* produced
/// when the chain died, and why. Appending one of these is how a
/// degraded service records "history ends here because of X" instead
/// of silently stopping its log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailureEvent {
    /// The 1-based sweep number that failed (= last published
    /// generation + 1).
    pub generation: u64,
    /// Human-readable failure cause (a `PipelineError` rendering or a
    /// panic message).
    pub message: String,
}

impl FailureEvent {
    /// Encodes the failure payload (with trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.generation);
        w.str(&self.message);
        w.finish()
    }

    /// Decodes a failure payload, verifying its checksum.
    pub fn decode(bytes: &[u8]) -> Result<FailureEvent, CodecError> {
        let mut r = ByteReader::verified(bytes)?;
        let generation = r.u64()?;
        let message = r.str()?;
        r.expect_done()?;
        Ok(FailureEvent {
            generation,
            message,
        })
    }
}

/// Any record an event log can hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventRecord {
    /// A completed sweep's verdict delta.
    Sweep(SweepEvent),
    /// A sweep chain failure.
    Failure(FailureEvent),
}

/// Diffs two verdict tables into the event log's change list:
/// `(index, prior verdict, next verdict)` for every /24 whose verdict
/// differs, ascending by index. `prior = None` means "against an
/// all-Unmeasured table" — the shape of a service's first sweep.
pub fn verdict_delta(prior: Option<&VerdictTable>, next: &VerdictTable) -> Vec<VerdictChange> {
    let mut changes = Vec::new();
    match prior {
        None => {
            for (index, to) in next.iter_measured() {
                changes.push(VerdictChange {
                    index,
                    from: Verdict::Unmeasured,
                    to,
                });
            }
        }
        Some(prior) => {
            // Ordered merge of the two measured sets; either side may
            // hold indices the other lacks.
            let mut a = prior.iter_measured().peekable();
            let mut b = next.iter_measured().peekable();
            loop {
                match (a.peek().copied(), b.peek().copied()) {
                    (None, None) => break,
                    (Some((ia, from)), Some((ib, _))) if ia < ib => {
                        a.next();
                        changes.push(VerdictChange {
                            index: ia,
                            from,
                            to: Verdict::Unmeasured,
                        });
                    }
                    (Some((ia, _)), Some((ib, to))) if ib < ia => {
                        b.next();
                        changes.push(VerdictChange {
                            index: ib,
                            from: Verdict::Unmeasured,
                            to,
                        });
                    }
                    (Some((index, from)), Some((_, to))) => {
                        a.next();
                        b.next();
                        if from != to {
                            changes.push(VerdictChange { index, from, to });
                        }
                    }
                    (Some((index, from)), None) => {
                        a.next();
                        changes.push(VerdictChange {
                            index,
                            from,
                            to: Verdict::Unmeasured,
                        });
                    }
                    (None, Some((index, to))) => {
                        b.next();
                        changes.push(VerdictChange {
                            index,
                            from: Verdict::Unmeasured,
                            to,
                        });
                    }
                }
            }
        }
    }
    changes
}

/// Why an event log could not be opened or read.
#[derive(Debug)]
pub enum EventLogError {
    /// The underlying file system failed.
    Io(std::io::Error),
    /// The header is not an event log (wrong magic).
    BadMagic([u8; 4]),
    /// The header's format version is not [`EVENTLOG_VERSION`].
    BadVersion(u16),
    /// A record payload failed to decode after its frame verified —
    /// a format bug, not tail corruption.
    Codec(CodecError),
    /// `read_at` was handed an offset that is not a record boundary.
    BadOffset(u64),
}

impl std::fmt::Display for EventLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventLogError::Io(e) => write!(f, "event log i/o error: {e}"),
            EventLogError::BadMagic(m) => write!(f, "bad event log magic {m:02x?}"),
            EventLogError::BadVersion(v) => write!(f, "unsupported event log version {v}"),
            EventLogError::Codec(e) => write!(f, "event record payload malformed: {e}"),
            EventLogError::BadOffset(o) => write!(f, "offset {o} is not a record boundary"),
        }
    }
}

impl std::error::Error for EventLogError {}

impl From<std::io::Error> for EventLogError {
    fn from(e: std::io::Error) -> EventLogError {
        EventLogError::Io(e)
    }
}

impl From<CodecError> for EventLogError {
    fn from(e: CodecError) -> EventLogError {
        EventLogError::Codec(e)
    }
}

/// What [`EventLog::open`] recovered: intact records kept and torn
/// tail bytes discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Recovery {
    /// Intact records found.
    pub records: usize,
    /// Bytes truncated off a torn or corrupt tail (0 = clean file).
    pub truncated_bytes: u64,
}

/// The append-only, checksummed sweep event log.
///
/// Appends are atomic-at-the-record-level (single `write_all` +
/// flush); reads are offset-indexed ([`EventLog::offsets`] +
/// [`EventLog::read_at`]); [`EventLog::open`] recovers from a crash
/// mid-append by truncating the torn tail.
#[derive(Debug)]
pub struct EventLog {
    path: PathBuf,
    file: File,
    len: u64,
    offsets: Vec<u64>,
    world_seed: u64,
    config_digest: u64,
}

impl EventLog {
    /// Creates (truncating) a fresh log for the given world identity.
    pub fn create(
        path: impl AsRef<Path>,
        world_seed: u64,
        config_digest: u64,
    ) -> std::io::Result<EventLog> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut header = ByteWriter::new();
        header.bytes(&EVENTLOG_MAGIC);
        header.u16(EVENTLOG_VERSION);
        header.u64(world_seed);
        header.u64(config_digest);
        file.write_all(&header.into_unsealed())?;
        file.flush()?;
        Ok(EventLog {
            path,
            file,
            len: EVENTLOG_HEADER_LEN,
            offsets: Vec::new(),
            world_seed,
            config_digest,
        })
    }

    /// Opens an existing log, recovering from a torn tail: the file is
    /// scanned record by record, and everything after the last intact
    /// record boundary — a half-written append, a flipped bit, an
    /// unknown kind byte — is truncated away. Header corruption is not
    /// recoverable and is returned as an error instead.
    pub fn open(path: impl AsRef<Path>) -> Result<(EventLog, Recovery), EventLogError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut head = ByteReader::unsealed(&bytes);
        let header =
            (|| Ok::<_, CodecError>((head.raw(4)?, head.u16()?, head.u64()?, head.u64()?)))();
        let (world_seed, config_digest) = match header {
            Ok((magic, EVENTLOG_VERSION, seed, digest)) if magic == EVENTLOG_MAGIC => {
                (seed, digest)
            }
            Ok((magic, version, ..)) if magic == EVENTLOG_MAGIC => {
                return Err(EventLogError::BadVersion(version));
            }
            // Wrong magic, or too short to hold a header at all.
            _ => {
                let magic = [0, 1, 2, 3].map(|i| bytes.get(i).copied().unwrap_or(0));
                return Err(EventLogError::BadMagic(magic));
            }
        };

        // Scan forward; `good` is always a record boundary, and the
        // first thing that does not open as a record starts the dead
        // tail. (A record that opens but whose *payload* fails to decode
        // is a format bug surfaced on read, not a recovery matter.)
        let mut offsets = Vec::new();
        let mut good = EVENTLOG_HEADER_LEN as usize;
        while let Ok((_, _, consumed)) = open_event_record(&bytes[good..]) {
            offsets.push(good as u64);
            good += consumed;
        }
        let truncated = (bytes.len() - good) as u64;
        if truncated > 0 {
            file.set_len(good as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        let records = offsets.len();
        Ok((
            EventLog {
                path,
                file,
                len: good as u64,
                offsets,
                world_seed,
                config_digest,
            },
            Recovery {
                records,
                truncated_bytes: truncated,
            },
        ))
    }

    /// The world seed the log's header pins.
    pub fn world_seed(&self) -> u64 {
        self.world_seed
    }

    /// The config digest the log's header pins.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// The log's validated byte length (header + intact records).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no records have been appended since creation (or the
    /// last compaction).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Byte offset of each intact record, append order.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sibling path compaction writes the snapshot base to.
    pub fn base_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(".base");
        PathBuf::from(name)
    }

    /// Appends one raw record (kind + payload) as a single sealed
    /// write and flushes. Returns the record's byte offset.
    fn append_record(&mut self, kind: u8, payload: &[u8]) -> std::io::Result<u64> {
        let mut buf = Vec::new();
        seal_record(&mut buf, kind, payload);
        let offset = self.len;
        self.file.write_all(&buf)?;
        self.file.flush()?;
        self.offsets.push(offset);
        self.len += buf.len() as u64;
        Ok(offset)
    }

    /// Appends one sweep event. Returns the record's byte offset.
    pub fn append(&mut self, event: &SweepEvent) -> std::io::Result<u64> {
        self.append_record(RECORD_SWEEP, &event.encode())
    }

    /// Appends one failure event — the durable mark of a sweep chain
    /// dying under a service that keeps answering queries. Returns the
    /// record's byte offset.
    pub fn append_failure(&mut self, event: &FailureEvent) -> std::io::Result<u64> {
        self.append_record(RECORD_FAILURE, &event.encode())
    }

    /// Reads the record at `offset` (which must be one of
    /// [`EventLog::offsets`] — i.e. an intact record boundary),
    /// whatever its kind. The read is sized by the validated index
    /// (a record ends where the next begins, or where the log does),
    /// never by a length prefix read back off the disk.
    pub fn read_record_at(&mut self, offset: u64) -> Result<EventRecord, EventLogError> {
        let i = self
            .offsets
            .binary_search(&offset)
            .map_err(|_| EventLogError::BadOffset(offset))?;
        let end = self.offsets.get(i + 1).copied().unwrap_or(self.len);
        let mut buf = vec![0u8; (end - offset) as usize];
        self.file.seek(SeekFrom::Start(offset))?;
        let read = self.file.read_exact(&mut buf);
        // Back to the append position before anything can return.
        self.file.seek(SeekFrom::End(0))?;
        read?;
        let (kind, payload, _) = open_event_record(&buf)?;
        Ok(match kind {
            RECORD_SWEEP => EventRecord::Sweep(SweepEvent::decode(payload)?),
            _ => EventRecord::Failure(FailureEvent::decode(payload)?),
        })
    }

    /// Reads the sweep event at `offset`. A failure record at that
    /// offset is a caller error ([`EventLog::read_record_at`] reads
    /// either kind).
    pub fn read_at(&mut self, offset: u64) -> Result<SweepEvent, EventLogError> {
        match self.read_record_at(offset)? {
            EventRecord::Sweep(e) => Ok(e),
            EventRecord::Failure(_) => Err(EventLogError::Codec(CodecError::Malformed(
                "record at offset is a failure event, not a sweep event",
            ))),
        }
    }

    /// Every intact record, append order, whatever the kind.
    pub fn records(&mut self) -> Result<Vec<EventRecord>, EventLogError> {
        let offsets = self.offsets.clone();
        offsets
            .into_iter()
            .map(|o| self.read_record_at(o))
            .collect()
    }

    /// Every intact *sweep* event, append order (failure records are
    /// skipped; see [`EventLog::records`] for the full history).
    pub fn events(&mut self) -> Result<Vec<SweepEvent>, EventLogError> {
        Ok(self
            .records()?
            .into_iter()
            .filter_map(|r| match r {
                EventRecord::Sweep(e) => Some(e),
                EventRecord::Failure(_) => None,
            })
            .collect())
    }

    /// Compacts the log: atomically replaces the `<path>.base` sibling
    /// with `base` (the present store state as a [`SweepSnapshot`])
    /// and rewinds the log to its header. `base ⊕ log` reconstructs
    /// the same state before and after.
    pub fn compact(&mut self, base: &SweepSnapshot) -> std::io::Result<()> {
        let base_path = self.base_path();
        let mut tmp = base_path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, base.encode())?;
        std::fs::rename(&tmp, &base_path)?;
        self.file.set_len(EVENTLOG_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(EVENTLOG_HEADER_LEN))?;
        self.len = EVENTLOG_HEADER_LEN;
        self.offsets.clear();
        Ok(())
    }

    /// Loads the compacted base snapshot, if a compaction has run.
    pub fn load_base(&self) -> Result<Option<SweepSnapshot>, EventLogError> {
        match std::fs::read(self.base_path()) {
            Ok(bytes) => Ok(Some(SweepSnapshot::decode(&bytes)?)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// Opens the event record at the head of `bytes` — the one parser the
/// recovery scan and [`EventLog::read_record_at`] share: the codec's
/// envelope plus this log's own rules (known kind, bounded payload).
fn open_event_record(bytes: &[u8]) -> Result<(u8, &[u8], usize), CodecError> {
    let (kind, payload, consumed) = open_record(bytes)?;
    if !matches!(kind, RECORD_SWEEP | RECORD_FAILURE) {
        return Err(CodecError::Malformed("unknown event record kind"));
    }
    if payload.len() > MAX_EVENT_PAYLOAD {
        return Err(CodecError::Malformed("event record over the payload limit"));
    }
    Ok((kind, payload, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "clientmap-eventlog-{}-{}",
            std::process::id(),
            name
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("events.cmel")
    }

    fn event(generation: u64, n: usize) -> SweepEvent {
        SweepEvent {
            epoch: generation as u32,
            generation,
            measured_slash24s: n as u64,
            changes: (0..n as u32)
                .map(|i| VerdictChange {
                    index: i * 7 + generation as u32,
                    from: Verdict::Unmeasured,
                    to: Verdict::Hit,
                })
                .collect(),
        }
    }

    #[test]
    fn append_reopen_roundtrip_with_offsets() {
        let path = scratch("roundtrip");
        let mut log = EventLog::create(&path, 2021, 0xD16E57).unwrap();
        let events: Vec<SweepEvent> = (1..=3).map(|g| event(g, 5 * g as usize)).collect();
        let offsets: Vec<u64> = events.iter().map(|e| log.append(e).unwrap()).collect();
        assert_eq!(log.offsets(), offsets.as_slice());
        // Random-access reads by offset, out of append order.
        assert_eq!(log.read_at(offsets[2]).unwrap(), events[2]);
        assert_eq!(log.read_at(offsets[0]).unwrap(), events[0]);
        drop(log);

        let (mut back, rec) = EventLog::open(&path).unwrap();
        assert_eq!(
            rec,
            Recovery {
                records: 3,
                truncated_bytes: 0
            }
        );
        assert_eq!(back.world_seed(), 2021);
        assert_eq!(back.config_digest(), 0xD16E57);
        assert_eq!(back.events().unwrap(), events);
        // Appends continue where the log left off.
        let before = back.len();
        let off = back.append(&event(4, 2)).unwrap();
        assert_eq!(off, before);
        assert_eq!(back.read_at(off).unwrap(), event(4, 2));
    }

    #[test]
    fn torn_tail_truncated_never_half_applied() {
        let path = scratch("torn");
        let mut log = EventLog::create(&path, 7, 9).unwrap();
        for g in 1..=3 {
            log.append(&event(g, 4)).unwrap();
        }
        let intact_two = log.offsets()[2];
        let full = log.len();
        drop(log);
        let bytes = std::fs::read(&path).unwrap();

        // Cut the file at every byte inside the third record: recovery
        // must keep exactly two events and truncate the rest.
        for cut in (intact_two + 1)..full {
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let (mut log, rec) = EventLog::open(&path).unwrap();
            assert_eq!(rec.records, 2, "cut at {cut}");
            assert_eq!(rec.truncated_bytes, cut - intact_two, "cut at {cut}");
            assert_eq!(log.len(), intact_two);
            assert_eq!(log.events().unwrap().len(), 2);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_two);
            // The recovered log accepts appends again.
            log.append(&event(9, 1)).unwrap();
            assert_eq!(log.events().unwrap().len(), 3);
        }
    }

    #[test]
    fn bitflip_in_tail_record_is_discarded() {
        let path = scratch("bitflip");
        let mut log = EventLog::create(&path, 7, 9).unwrap();
        log.append(&event(1, 8)).unwrap();
        log.append(&event(2, 8)).unwrap();
        let tail_start = log.offsets()[1];
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        for byte in [tail_start, tail_start + 6, bytes.len() as u64 - 1] {
            let mut bad = bytes.clone();
            bad[byte as usize] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            let (_, rec) = EventLog::open(&path).unwrap();
            assert_eq!(rec.records, 1, "flip at {byte}");
        }
    }

    #[test]
    fn header_corruption_is_not_recoverable() {
        let path = scratch("header");
        drop(EventLog::create(&path, 7, 9).unwrap());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            EventLog::open(&path),
            Err(EventLogError::BadMagic(_))
        ));
    }

    #[test]
    fn compaction_swaps_base_and_rewinds() {
        let path = scratch("compact");
        let mut log = EventLog::create(&path, 2021, 0xD16E57).unwrap();
        for g in 1..=4 {
            log.append(&event(g, 3)).unwrap();
        }
        assert!(log.load_base().unwrap().is_none());
        let mut base = SweepSnapshot::new(2021, 0xD16E57);
        base.epoch = 4;
        log.compact(&base).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.len(), EVENTLOG_HEADER_LEN);
        assert_eq!(log.load_base().unwrap(), Some(base));
        // Post-compaction appends and reopen still work.
        log.append(&event(5, 2)).unwrap();
        drop(log);
        let (mut log, rec) = EventLog::open(&path).unwrap();
        assert_eq!(rec.records, 1);
        assert_eq!(log.events().unwrap()[0].generation, 5);
    }

    #[test]
    fn failure_records_interleave_survive_reopen_and_stay_typed() {
        let path = scratch("failure");
        let mut log = EventLog::create(&path, 2021, 0xD16E57).unwrap();
        log.append(&event(1, 3)).unwrap();
        let failure = FailureEvent {
            generation: 2,
            message: "probe stage failed: injected".into(),
        };
        let f_off = log.append_failure(&failure).unwrap();
        log.append(&event(3, 2)).unwrap();

        // The typed read sees all three; the sweep-only view skips the
        // failure; the sweep-typed read refuses the failure offset.
        assert_eq!(
            log.records().unwrap(),
            vec![
                EventRecord::Sweep(event(1, 3)),
                EventRecord::Failure(failure.clone()),
                EventRecord::Sweep(event(3, 2)),
            ]
        );
        assert_eq!(log.events().unwrap(), vec![event(1, 3), event(3, 2)]);
        assert!(matches!(
            log.read_at(f_off),
            Err(EventLogError::Codec(CodecError::Malformed(_)))
        ));
        drop(log);

        // Reopen scans both kinds as intact records.
        let (mut back, rec) = EventLog::open(&path).unwrap();
        assert_eq!(rec.records, 3);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(
            back.read_record_at(f_off).unwrap(),
            EventRecord::Failure(failure.clone())
        );

        // The failure payload codec rejects damage like any other.
        let bytes = failure.encode();
        assert_eq!(FailureEvent::decode(&bytes).unwrap(), failure);
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(FailureEvent::decode(&bad).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn verdict_delta_merges_both_sides() {
        let mut a = VerdictTable::new();
        a.record(1, Verdict::Hit);
        a.record(5, Verdict::Miss);
        a.record(9, Verdict::Hit);
        let mut b = VerdictTable::new();
        b.record(1, Verdict::Hit); // unchanged → no entry
        b.record(5, Verdict::Hit); // upgraded
        b.record(7, Verdict::Dropped); // new
                                       // 9 only in prior → transitions to Unmeasured.
        let delta = verdict_delta(Some(&a), &b);
        assert_eq!(
            delta,
            vec![
                VerdictChange {
                    index: 5,
                    from: Verdict::Miss,
                    to: Verdict::Hit
                },
                VerdictChange {
                    index: 7,
                    from: Verdict::Unmeasured,
                    to: Verdict::Dropped
                },
                VerdictChange {
                    index: 9,
                    from: Verdict::Hit,
                    to: Verdict::Unmeasured
                },
            ]
        );
        let cold = verdict_delta(None, &b);
        assert_eq!(cold.len(), 3);
        assert!(cold.iter().all(|c| c.from == Verdict::Unmeasured));
        // Applying the delta to the prior reproduces the next table.
        let mut applied = a.clone();
        for c in &delta {
            applied.set(c.index, c.to);
        }
        assert_eq!(
            applied.iter_measured().collect::<Vec<_>>(),
            b.iter_measured().collect::<Vec<_>>()
        );
    }

    #[test]
    fn event_codec_rejects_disorder_and_bitflips() {
        let e = event(3, 16);
        let bytes = e.encode();
        assert_eq!(SweepEvent::decode(&bytes).unwrap(), e);
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(SweepEvent::decode(&bad).is_err(), "flip at {i}");
        }
    }
}
