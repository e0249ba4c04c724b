//! The columnar snapshot decoder under hostile input: a forged record
//! or hit count is refused before anything is reserved for it, and
//! truncations and bit flips of a genuine snapshot decode or fail —
//! never panic. A counting global allocator measures the bytes the
//! decoder asks for on the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use clientmap_store::{
    checksum, ByteWriter, CodecError, HitEvent, RecordTable, ScopeRecord, SweepSnapshot,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to the system allocator, adding up the bytes each
/// allocation (or growth) on the current thread requests.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|c| c.set(c.get() + layout.size()));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|c| c.set(c.get() + layout.size()));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|c| c.set(c.get() + new_size));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Decodes `bytes`, returning the result and the bytes requested while
/// decoding.
fn decode_counting(bytes: &[u8]) -> (Result<SweepSnapshot, CodecError>, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = SweepSnapshot::decode(bytes);
    (out, REQUESTED.with(Cell::get) - before)
}

/// A sealed snapshot whose record section is `records` followed by
/// `padding` zero bytes (so the unread payload is large), then the
/// empty calibration and confidence sections.
fn craft(records: impl Fn(&mut ByteWriter), padding: usize) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&SNAPSHOT_MAGIC);
    w.u16(SNAPSHOT_VERSION);
    w.u32(1); // epoch
    w.u64(7); // world seed
    w.u64(9); // config digest
    w.u8(0); // no fault record
    w.u32(0); // no metric counters
    w.u32(0); // no histograms
    records(&mut w);
    w.bytes(&vec![0; padding]);
    w.finish()
}

const PADDING: usize = 1 << 20;

/// A record count that passes the generic count check (it is below the
/// unread byte count) but could not fit 39-byte records is refused as
/// truncated, with nothing reserved for the records it claims.
#[test]
fn a_forged_record_count_is_refused_before_anything_is_reserved() {
    let unread_after_count = PADDING + 8;
    let bytes = craft(|w| w.u32(unread_after_count as u32 - 1), PADDING);
    let (out, requested) = decode_counting(&bytes);
    assert_eq!(out.err(), Some(CodecError::Truncated));
    assert!(
        requested < 4096,
        "{requested} bytes requested for a forged record count"
    );
}

/// The same for one record's hit count.
#[test]
fn a_forged_hit_count_is_refused_before_anything_is_reserved() {
    let bytes = craft(
        |w| {
            w.u32(1); // one record
            w.u16(0);
            w.u16(0);
            w.u32(0x0A00_0000);
            w.u8(24);
            w.u64(1); // attempts
            w.u64(0); // scope0
            w.u64(0); // drops
            w.u32(PADDING as u32); // hits: just under the unread bytes
        },
        PADDING,
    );
    let (out, requested) = decode_counting(&bytes);
    assert_eq!(out.err(), Some(CodecError::Truncated));
    assert!(
        requested < 4096,
        "{requested} bytes requested for a forged hit count"
    );
}

/// A small snapshot with records across vantages, domains and hits.
fn genuine() -> Vec<u8> {
    let mut s = SweepSnapshot::new(2021, 0xD16E57);
    s.epoch = 2;
    s.records = RecordTable::from_ascending((0u16..3).flat_map(|b| {
        (0u16..2).flat_map(move |d| {
            (0u32..4).map(move |i| {
                let addr = 0x0A00_0000 + (i << 8);
                let hits = (i as usize + b as usize) % 3;
                let rec = ScopeRecord {
                    attempts: 4,
                    scope0: u64::from(i % 2),
                    drops: 0,
                    hit_events: vec![
                        HitEvent {
                            resp_addr: addr,
                            resp_len: 24,
                            remaining_ttl: 60 + i,
                        };
                        hits
                    ],
                };
                ((b, d, addr, 24), rec)
            })
        })
    }));
    s.encode()
}

/// Every truncation of a genuine snapshot is an error, and every single
/// bit flip — checksum resealed, so the field checks see it — either
/// decodes or is an error. None panics.
#[test]
fn truncations_and_bit_flips_of_a_genuine_snapshot_never_panic() {
    let bytes = genuine();
    assert!(SweepSnapshot::decode(&bytes).is_ok());
    for cut in 0..bytes.len() {
        assert!(
            SweepSnapshot::decode(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes decoded"
        );
    }
    let payload = bytes.len() - 8;
    for pos in 0..payload {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << bit;
            let sum = checksum(&bad[..payload]);
            bad[payload..].copy_from_slice(&sum.to_le_bytes());
            if let Ok(back) = SweepSnapshot::decode(&bad) {
                assert_eq!(back.encode(), bad, "byte {pos} bit {bit}");
            }
        }
    }
}
