//! Golden bytes for the store's two on-disk formats: the `CMSS` sweep
//! snapshot and the `CMEL` event log.
//!
//! The round-trip suites prove `decode(encode(x)) == x`, which an
//! encoder and its decoder moved *together* still pass. These fixtures
//! (hex under `tests/golden/`, recorded from the build that defined
//! the layouts) pin the bytes themselves: each test asserts
//! `encode(value) == golden` and `decode(golden) == value`, so a layout
//! change has to show up here as an edited fixture. (The snapshot
//! fixture holds two scopes with host bits, which the decoder refuses;
//! its test decodes the image with those bits cleared.)

use std::path::{Path, PathBuf};

use clientmap_store::{
    checksum, CalibrationRecord, CodecError, ConfidenceRecord, EventLog, EventRecord, FailureEvent,
    FaultRecord, HitEvent, Recovery, ScopeRecord, SweepEvent, SweepSnapshot, Verdict,
    VerdictChange,
};
use clientmap_telemetry::HistogramDelta;

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

/// A snapshot with every section populated: a fault record, one
/// counter and one histogram, two scope records with hit events, one
/// calibration record with and one without a radius, the calibration
/// stage's resolver counters, one confidence record.
fn snapshot() -> SweepSnapshot {
    let mut s = SweepSnapshot::new(2021, 0x00D1_6E57);
    s.epoch = 3;
    s.fault = Some(FaultRecord {
        profile: "pop-churn".into(),
        observed: 11,
        retries: 14,
        recovered: 9,
        degraded: 1,
        lost: 1,
        quarantined_pops: vec![4, 17],
        rescued_scopes: 3,
        unmeasured_scopes: 2,
        assigned_scopes: 40,
    });
    s.metrics.counters.insert("cacheprobe.attempts".into(), 55);
    s.metrics.histograms.insert(
        "cacheprobe.hit.remaining_ttl_secs".into(),
        HistogramDelta {
            count: 2,
            sum: 130,
            min: 30,
            max: 100,
            buckets: vec![(31, 1), (127, 1)],
        },
    );
    s.records.insert(
        (0, 1, 0x0A00_0000, 24),
        ScopeRecord {
            attempts: 9,
            scope0: 1,
            drops: 2,
            hit_events: vec![HitEvent {
                resp_addr: 0x0A00_0000,
                resp_len: 24,
                remaining_ttl: 99,
            }],
        },
    );
    s.records.insert(
        (2, 0, 0xC000_0200, 20),
        ScopeRecord {
            attempts: 4,
            scope0: 0,
            drops: 0,
            hit_events: vec![
                HitEvent {
                    resp_addr: 0xC000_0200,
                    resp_len: 22,
                    remaining_ttl: 30,
                },
                HitEvent {
                    resp_addr: 0xC000_0300,
                    resp_len: 24,
                    remaining_ttl: 7,
                },
            ],
        },
    );
    s.calibration = vec![
        CalibrationRecord {
            pop: 2,
            radius_km: Some(1450.5),
            hit_distances_km: vec![10.0, 1450.5, 2200.25],
        },
        CalibrationRecord {
            pop: 9,
            radius_km: None,
            hit_distances_km: Vec::new(),
        },
    ];
    for (name, inc) in [
        ("gpdns.cache.hit.pool0", 1),
        ("gpdns.cache.hit.pool2", 2),
        ("gpdns.cache.miss.pool0", 12),
        ("gpdns.cache.miss.pool1", 12),
        ("gpdns.cache.miss.pool2", 11),
        ("gpdns.cache.miss.pool3", 11),
        ("gpdns.cache.scope0.pool1", 1),
        ("gpdns.queries.tcp", 52),
        ("gpdns.rate_limited.tcp", 2),
    ] {
        s.calibration_metrics.counters.insert(name.into(), inc);
    }
    s.confidence.insert(
        (0, 1, 0x0A00_0100, 24),
        ConfidenceRecord {
            rep: (0, 1, 0x0A00_0000, 24),
            confidence: 240,
            prior_verdict: 4,
        },
    );
    s
}

#[test]
fn snapshot_bytes_are_pinned() {
    let value = snapshot();
    let bytes = golden("snapshot");
    assert_eq!(value.encode(), bytes, "SweepSnapshot::encode moved a byte");
    // The fixture's second key (192.0.2.0/20) and its first hit scope
    // (192.0.2.0/22) carry host bits, which no sweep writes and the
    // decoder refuses. With those bits cleared and the image resealed,
    // every other byte decodes to the fixture.
    assert_eq!(
        SweepSnapshot::decode(&bytes).err(),
        Some(CodecError::Malformed("scope length"))
    );
    let mut genuine = bytes.clone();
    for len in [20, 22] {
        let stray = [0x00, 0x02, 0x00, 0xC0, len];
        let at = genuine
            .windows(stray.len())
            .position(|w| w == stray)
            .expect("stray scope present");
        genuine[at + 1] = 0x00;
    }
    let body = genuine.len() - 8;
    let sum = checksum(&genuine[..body]);
    genuine[body..].copy_from_slice(&sum.to_le_bytes());
    let mut masked = value;
    let mut rec = masked
        .records
        .remove(&(2, 0, 0xC000_0200, 20))
        .expect("fixture key");
    rec.hit_events[0].resp_addr = 0xC000_0000;
    masked.records.insert((2, 0, 0xC000_0000, 20), rec);
    assert_eq!(
        SweepSnapshot::decode(&genuine).expect("cleared golden decodes"),
        masked
    );
}

/// The records of the golden log, in append order.
fn log_records() -> Vec<EventRecord> {
    vec![
        EventRecord::Sweep(SweepEvent {
            epoch: 1,
            generation: 1,
            measured_slash24s: 3,
            changes: vec![
                VerdictChange {
                    index: 0x0A_0000,
                    from: Verdict::Unmeasured,
                    to: Verdict::Hit,
                },
                VerdictChange {
                    index: 0x0A_0001,
                    from: Verdict::Unmeasured,
                    to: Verdict::Miss,
                },
                VerdictChange {
                    index: 0xC0_0002,
                    from: Verdict::Unmeasured,
                    to: Verdict::HitScopeZero,
                },
            ],
        }),
        EventRecord::Sweep(SweepEvent {
            epoch: 2,
            generation: 2,
            measured_slash24s: 2,
            changes: vec![
                VerdictChange {
                    index: 0x0A_0001,
                    from: Verdict::Miss,
                    to: Verdict::Dropped,
                },
                VerdictChange {
                    index: 0xC0_0002,
                    from: Verdict::HitScopeZero,
                    to: Verdict::Unmeasured,
                },
            ],
        }),
        EventRecord::Failure(FailureEvent {
            generation: 3,
            message: "probe stage failed: injected".into(),
        }),
    ]
}

fn scratch_log(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clientmap-store-golden-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("events.cmel")
}

#[test]
fn event_log_bytes_are_pinned() {
    let records = log_records();
    let bytes = golden("eventlog");

    // Writing the records produces the golden file image…
    let path = scratch_log("write");
    let mut log = EventLog::create(&path, 2021, 0x00D1_6E57).expect("create log");
    for record in &records {
        match record {
            EventRecord::Sweep(e) => log.append(e).expect("append sweep"),
            EventRecord::Failure(f) => log.append_failure(f).expect("append failure"),
        };
    }
    drop(log);
    assert_eq!(
        std::fs::read(&path).expect("read log"),
        bytes,
        "the CMEL writer moved a byte"
    );

    // …and the golden image opens clean and reads back the records.
    let path = scratch_log("read");
    std::fs::write(&path, &bytes).expect("write golden image");
    let (mut log, recovery) = EventLog::open(&path).expect("golden log opens");
    assert_eq!(
        recovery,
        Recovery {
            records: 3,
            truncated_bytes: 0
        }
    );
    assert_eq!(log.world_seed(), 2021);
    assert_eq!(log.config_digest(), 0x00D1_6E57);
    assert_eq!(log.len(), bytes.len() as u64);
    assert_eq!(log.records().expect("records decode"), records);
}
