//! `EventLog::read_record_at` against a file that changed under it:
//! the read is sized by the log's own validated offset index, never by
//! a length prefix read back off the disk, and the append position
//! survives a failed read.

use std::io::{Seek, SeekFrom, Write};

use clientmap_store::{CodecError, EventLog, EventLogError, SweepEvent, Verdict, VerdictChange};

fn event(generation: u64) -> SweepEvent {
    SweepEvent {
        epoch: generation as u32,
        generation,
        measured_slash24s: 1,
        changes: vec![VerdictChange {
            index: 7 * generation as u32,
            from: Verdict::Unmeasured,
            to: Verdict::Hit,
        }],
    }
}

#[test]
fn a_length_prefix_damaged_on_disk_is_refused_from_the_indexed_span() {
    let dir = std::env::temp_dir().join(format!("clientmap-eventlog-read-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("events.cmel");
    let mut log = EventLog::create(&path, 7, 9).expect("create log");
    let offsets: Vec<u64> = (1..=3)
        .map(|g| log.append(&event(g)).expect("append"))
        .collect();

    // Behind the open log's back, rewrite record 2's length prefix
    // (one byte past its kind) to just under the 256 MiB payload cap.
    // Sized by that prefix, the read would reserve a quarter of a
    // gibibyte before noticing the file is a few hundred bytes long.
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("reopen for damage");
    file.seek(SeekFrom::Start(offsets[1] + 1)).expect("seek");
    file.write_all(&[0xFF, 0xFF, 0xFF, 0x0F]).expect("damage");
    drop(file);

    // The record no longer fits the span the index gives it.
    match log.read_record_at(offsets[1]) {
        Err(EventLogError::Codec(CodecError::Truncated)) => {}
        other => panic!("expected a truncated record, got {other:?}"),
    }
    // Its neighbours still read, and the failed read left the append
    // position where it was: the next record lands at the end.
    assert_eq!(log.read_at(offsets[0]).expect("record 1"), event(1));
    assert_eq!(log.read_at(offsets[2]).expect("record 3"), event(3));
    let end = log.len();
    assert_eq!(
        log.append(&event(4)).expect("append after a failed read"),
        end
    );
    assert_eq!(log.read_at(end).expect("record 4"), event(4));
    // An offset that is not a record boundary is still refused as such.
    assert!(matches!(
        log.read_record_at(offsets[1] + 1),
        Err(EventLogError::BadOffset(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}
