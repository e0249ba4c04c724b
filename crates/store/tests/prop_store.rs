//! Property tests for the dense store: random insert/query/merge
//! sequences checked against plain-map reference models (same
//! verdicts, same iteration order), and snapshot round-trip,
//! corruption-rejection and canonical-decoding laws. The shim proptest
//! runner derives its RNG seed from each test's name, so every run
//! replays the same cases.

use std::collections::{BTreeMap, BTreeSet};

use clientmap_net::Prefix;
use clientmap_store::{
    checksum, ByteWriter, FaultRecord, HitEvent, HitStats, ProbeCount, RecordKey, RecordTable,
    ScopeRecord, Slash24Bitset, SweepSnapshot, Verdict, VerdictTable, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use clientmap_telemetry::HistogramDelta;
use proptest::prelude::*;

fn prefix_strategy() -> impl Strategy<Value = Prefix> {
    (0u32..=u32::MAX, 12u8..=24).prop_map(|(addr, len)| Prefix::new(addr, len).unwrap())
}

fn verdict_strategy() -> impl Strategy<Value = Verdict> {
    (0u8..=4).prop_map(|v| Verdict::from_u8(v).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bitset vs `BTreeSet<u32>`: membership, cardinality, iteration
    /// order, and the AND/OR popcounts all agree for any insert/merge
    /// sequence.
    #[test]
    fn bitset_matches_reference_model(
        a_prefixes in proptest::collection::vec(prefix_strategy(), 0..40),
        b_prefixes in proptest::collection::vec(prefix_strategy(), 0..40),
    ) {
        let mut a = Slash24Bitset::new();
        let mut a_ref = BTreeSet::new();
        for p in &a_prefixes {
            a.insert_prefix(*p);
            let first = p.first_addr() >> 8;
            a_ref.extend(first..first + p.num_slash24s() as u32);
        }
        prop_assert_eq!(a.count(), a_ref.len() as u64);
        prop_assert_eq!(a.iter().collect::<Vec<_>>(), a_ref.iter().copied().collect::<Vec<_>>());

        let b = Slash24Bitset::from_prefixes(&b_prefixes);
        let b_ref: BTreeSet<u32> = b
            .iter()
            .collect();
        for idx in a_ref.iter().take(8).chain(b_ref.iter().take(8)) {
            prop_assert_eq!(a.contains(*idx), a_ref.contains(idx));
        }
        prop_assert_eq!(a.and_count(&b), a_ref.intersection(&b_ref).count() as u64);
        prop_assert_eq!(a.or_count(&b), a_ref.union(&b_ref).count() as u64);

        // Merge = set union, including the incremental `ones` count.
        let mut merged = a.clone();
        merged.union_with(&b);
        let merged_ref: Vec<u32> = a_ref.union(&b_ref).copied().collect();
        prop_assert_eq!(merged.count(), merged_ref.len() as u64);
        prop_assert_eq!(merged.iter().collect::<Vec<_>>(), merged_ref);
    }

    /// VerdictTable vs `BTreeMap<u32, Verdict>` under max-rank merge:
    /// same verdicts, same ascending iteration order, for any record
    /// sequence split arbitrarily into two tables merged afterwards.
    #[test]
    fn verdict_table_matches_reference_model(
        ops in proptest::collection::vec(
            (0u32..1 << 24, verdict_strategy(), proptest::arbitrary::any::<bool>()),
            1..120,
        ),
    ) {
        let mut left = VerdictTable::new();
        let mut right = VerdictTable::new();
        let mut reference: BTreeMap<u32, Verdict> = BTreeMap::new();
        for (idx, verdict, go_left) in &ops {
            let table = if *go_left { &mut left } else { &mut right };
            table.record(*idx, *verdict);
            let slot = reference.entry(*idx).or_default();
            *slot = (*slot).max(*verdict);
        }
        left.merge_from(&right);
        reference.retain(|_, v| *v != Verdict::Unmeasured);
        for (idx, expected) in reference.iter().take(16) {
            prop_assert_eq!(left.get(*idx), *expected);
        }
        prop_assert_eq!(left.count_measured(), reference.len() as u64);
        prop_assert_eq!(
            left.iter_measured().collect::<Vec<_>>(),
            reference.into_iter().collect::<Vec<_>>()
        );
    }
}

fn record_strategy() -> impl Strategy<Value = ScopeRecord> {
    (
        0u64..6,
        0u64..3,
        0u64..3,
        proptest::collection::vec((prefix_strategy(), 0u32..100_000), 0..4),
    )
        .prop_map(|(extra, scope0, drops, events)| {
            let hit_events: Vec<HitEvent> = events
                .into_iter()
                .map(|(resp, remaining_ttl)| HitEvent {
                    resp_addr: resp.addr(),
                    resp_len: resp.len(),
                    remaining_ttl,
                })
                .collect();
            // Attempts always cover the outcomes, as in a real sweep.
            ScopeRecord {
                attempts: hit_events.len() as u64 + scope0 + drops + extra,
                scope0,
                drops,
                hit_events,
            }
        })
}

fn snapshot_strategy() -> impl Strategy<Value = SweepSnapshot> {
    (
        (
            1u32..50,
            proptest::arbitrary::any::<u64>(),
            proptest::arbitrary::any::<u64>(),
        ),
        proptest::option::of((0u64..100, proptest::collection::vec(0u64..64, 0..4))),
        proptest::collection::vec(
            (0u16..8, 0u16..5, prefix_strategy(), record_strategy()),
            0..24,
        ),
        proptest::collection::vec((0u64..1 << 40, 1u64..1 << 20), 0..6),
    )
        .prop_map(|((epoch, world_seed, digest), fault, records, counters)| {
            let mut snap = SweepSnapshot::new(world_seed, digest);
            snap.epoch = epoch;
            snap.fault = fault.map(|(observed, quarantined_pops)| FaultRecord {
                profile: "lossy".into(),
                observed,
                retries: observed / 2,
                recovered: observed / 3,
                degraded: observed / 7,
                lost: observed - observed / 3 - observed / 7,
                quarantined_pops,
                rescued_scopes: 3,
                unmeasured_scopes: 2,
                assigned_scopes: observed + 5,
            });
            snap.records = RecordTable::from_ascending(
                records
                    .into_iter()
                    .map(|(bound, domain, scope, record)| {
                        ((bound, domain, scope.addr(), scope.len()), record)
                    })
                    .collect::<BTreeMap<RecordKey, ScopeRecord>>(),
            );
            for (i, (sum, count)) in counters.iter().enumerate() {
                snap.metrics
                    .counters
                    .insert(format!("cacheprobe.c{i}"), *count);
                snap.metrics.histograms.insert(
                    format!("cacheprobe.h{i}"),
                    HistogramDelta {
                        count: *count,
                        sum: *sum,
                        min: sum % 97,
                        max: sum % 97 + count,
                        buckets: vec![(127, *count)],
                    },
                );
            }
            snap
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decode(encode(x)) == x` and `encode(decode(bytes)) == bytes`
    /// for arbitrary snapshots.
    #[test]
    fn snapshot_round_trips(snap in snapshot_strategy()) {
        let bytes = snap.encode();
        let back = SweepSnapshot::decode(&bytes).expect("fresh encoding decodes");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Flipping any single byte is always rejected — by the checksum,
    /// or by the stricter magic/version gates in front of it.
    #[test]
    fn corruption_is_always_rejected(
        snap in snapshot_strategy(),
        flip in proptest::arbitrary::any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut bytes = snap.encode();
        let pos = (flip % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        prop_assert!(
            SweepSnapshot::decode(&bytes).is_err(),
            "flip at byte {} bit {} went undetected",
            pos,
            bit
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever decodes re-encodes to the bytes that were accepted: with
    /// any one payload byte set to any value and the checksum resealed,
    /// the image either fails to decode or is canonical — no repeated
    /// key collapses, no out-of-order entry is silently re-sorted.
    #[test]
    fn resealed_mutations_decode_canonically_or_not_at_all(
        snap in snapshot_strategy(),
        at in proptest::arbitrary::any::<u64>(),
        value in proptest::arbitrary::any::<u8>(),
    ) {
        let mut bytes = snap.encode();
        let payload = bytes.len() - 8;
        let pos = (at % payload as u64) as usize;
        bytes[pos] = value;
        let sum = checksum(&bytes[..payload]);
        bytes[payload..].copy_from_slice(&sum.to_le_bytes());
        if let Ok(back) = SweepSnapshot::decode(&bytes) {
            prop_assert!(
                back.encode() == bytes,
                "byte {} set to {:#04x} decoded to a snapshot that re-encodes differently",
                pos,
                value
            );
        }
    }
}

/// The bytes of an otherwise empty snapshot whose record section is
/// `records`, written field by field from the reference map.
fn encode_records_by_hand(records: &BTreeMap<RecordKey, ScopeRecord>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(&SNAPSHOT_MAGIC);
    w.u16(SNAPSHOT_VERSION);
    w.u32(0); // epoch
    w.u64(7); // world seed
    w.u64(9); // config digest
    w.u8(0); // no fault record
    w.u32(0); // no metric counters
    w.u32(0); // no histograms
    w.u32(records.len() as u32);
    for (&(bound, domain, addr, len), rec) in records {
        w.u16(bound);
        w.u16(domain);
        w.u32(addr);
        w.u8(len);
        w.u64(rec.attempts);
        w.u64(rec.scope0);
        w.u64(rec.drops);
        w.u32(rec.hit_events.len() as u32);
        for e in &rec.hit_events {
            w.u32(e.resp_addr);
            w.u8(e.resp_len);
            w.u32(e.remaining_ttl);
        }
    }
    w.u32(0); // no calibration records
    w.u32(0); // no calibration counters
    w.u32(0); // no calibration histograms
    w.u32(0); // no confidence records
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `RecordTable` vs `BTreeMap<RecordKey, ScopeRecord>`: the same
    /// iteration, the same `get` (present and absent keys), the same
    /// encoded bytes, and views equal to a per-record fold into
    /// ordered maps.
    #[test]
    fn record_table_matches_reference_model(
        slots in proptest::collection::vec(
            (0u16..4, 0u16..3, prefix_strategy(), record_strategy()),
            0..40,
        ),
        probes in proptest::collection::vec((0u16..4, 0u16..3, prefix_strategy()), 0..8),
    ) {
        let reference: BTreeMap<RecordKey, ScopeRecord> = slots
            .into_iter()
            .map(|(b, d, scope, rec)| ((b, d, scope.addr(), scope.len()), rec))
            .collect();
        let table = RecordTable::from_ascending(reference.clone());
        prop_assert_eq!(table.len(), reference.len());
        prop_assert_eq!(
            table.iter().map(|(k, r)| (k, r.to_record())).collect::<Vec<_>>(),
            reference.iter().map(|(k, r)| (*k, r.clone())).collect::<Vec<_>>()
        );
        for (b, d, scope) in probes {
            let key = (b, d, scope.addr(), scope.len());
            prop_assert_eq!(table.get(&key).map(|r| r.to_record()), reference.get(&key).cloned());
        }
        for (key, rec) in &reference {
            prop_assert_eq!(table.get(key), Some(rec.view()));
        }
        let mut snap = SweepSnapshot::new(7, 9);
        snap.records = table.clone();
        let bytes = snap.encode();
        prop_assert_eq!(&bytes, &encode_records_by_hand(&reference));
        prop_assert_eq!(SweepSnapshot::decode(&bytes).expect("decodes").records, table.clone());

        let mut counts: BTreeMap<(usize, Prefix), ProbeCount> = BTreeMap::new();
        let mut families: BTreeMap<(usize, Prefix), HitStats> = BTreeMap::new();
        let mut attempts = 0;
        for (&(_, d, addr, len), rec) in reference.iter().filter(|(_, r)| r.attempts > 0) {
            attempts += rec.attempts;
            let c = counts.entry((d as usize, Prefix::new(addr, len).unwrap())).or_default();
            c.attempts += rec.attempts;
            c.hits += rec.hits();
            c.scope0 += rec.scope0;
            c.drops += rec.drops;
            for e in &rec.hit_events {
                let scope = Prefix::new(e.resp_addr, e.resp_len).unwrap();
                let s = families.entry((d as usize, scope)).or_insert(HitStats {
                    hits: 0,
                    min_remaining_ttl: e.remaining_ttl,
                });
                s.hits += 1;
                s.min_remaining_ttl = s.min_remaining_ttl.min(e.remaining_ttl);
            }
        }
        prop_assert_eq!(table.probe_counts(), &counts.into_iter().collect::<Vec<_>>()[..]);
        prop_assert_eq!(table.hit_families(), &families.into_iter().collect::<Vec<_>>()[..]);
        prop_assert_eq!(table.attempts_total(), attempts);
    }
}
