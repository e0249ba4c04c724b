//! The serialized state of one probing sweep — everything a later run
//! needs to warm-start instead of re-probing the world.
//!
//! One layout: [`SweepSnapshot::encode`] writes [`SNAPSHOT_VERSION`]
//! and [`SweepSnapshot::decode`] reads exactly that (see the constant
//! for the versioning policy). Counts and flags follow the codec's two
//! rules ([`ByteReader::count`], [`ByteReader::flag`]); the field checks
//! that are the snapshot's own each name their field in a
//! [`CodecError::Malformed`].

use std::collections::BTreeMap;

use clientmap_telemetry::{HistogramDelta, MetricsDelta};

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::confidence::ConfidenceRecord;
use crate::verdict::Verdict;

/// File magic: "CMSS" — ClientMap Sweep Snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"CMSS";

/// The format version. Policy: the version bumps on **any** layout
/// change, and a decoder accepts exactly the version it was built for
/// — the one [`SweepSnapshot::encode`] writes — rejecting everything
/// else up front (a warm start from a stale snapshot must fail loudly,
/// never half-load).
///
/// History: version 2 appended the per-PoP calibration section after
/// the scope records, version 3 the extrapolation-confidence section
/// after calibration. Version 4 removed the 48-byte `u64 ×6 gpdns`
/// block that followed the config digest — six sums of the `gpdns.*`
/// counters the `metrics` block already carries. Version 5 re-laid the
/// calibration section: the `u64` sample size and each record's 14
/// `u64` resolver tallies went, and the calibration stage's
/// [`MetricsDelta`] follows the record list in the `metrics` block's
/// encoding. No build writes versions 1 to 4 any more, so none reads
/// them.
pub const SNAPSHOT_VERSION: u16 = 5;

/// Key of one per-scope probe record:
/// `(bound-vantage index, domain index, scope address, scope length)`.
///
/// Bound-vantage and domain indexes are stable across runs of the same
/// config digest (discovery order and domain selection are
/// deterministic), so the key space lines up exactly between the run
/// that wrote the snapshot and the run that warm-starts from it.
pub type RecordKey = (u16, u16, u32, u8);

/// One cache hit observed for a scope: the response scope Google
/// returned and the remaining TTL it carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HitEvent {
    /// Response scope network address.
    pub resp_addr: u32,
    /// Response scope prefix length.
    pub resp_len: u8,
    /// Remaining TTL seconds on the cached answer.
    pub remaining_ttl: u32,
}

/// What probing one ⟨vantage, domain, scope⟩ stream slot produced over
/// the whole sweep. `attempts == 0` marks a scope that was assigned
/// but never reached (breaker-aborted stream) — the planner's rescue
/// signal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScopeRecord {
    /// Probe events sent (each `redundancy` wire queries).
    pub attempts: u64,
    /// Events answered only with a /0 scope.
    pub scope0: u64,
    /// Events lost entirely.
    pub drops: u64,
    /// Cache hits, in observation order.
    pub hit_events: Vec<HitEvent>,
}

impl ScopeRecord {
    /// Events that hit the cache with a usable scope.
    pub fn hits(&self) -> u64 {
        self.hit_events.len() as u64
    }

    /// Events that were answered but found nothing cached.
    pub fn misses(&self) -> u64 {
        self.attempts - self.hits() - self.scope0 - self.drops
    }

    /// The slot's verdict ([`Verdict::from_counts`]).
    pub fn verdict(&self) -> Verdict {
        Verdict::from_counts(self.attempts, self.hits(), self.scope0, self.drops)
    }
}

/// Partial-result accounting for a fault-injected sweep: what the
/// resilience layer observed, recovered, and had to give up on. The
/// prober fills it in, the report reads it (as
/// `clientmap_cacheprobe::FaultSummary`, the same type), and the
/// snapshot carries it to the next warm run. Absent when fault
/// injection is off, keeping fault-free reports and snapshots
/// byte-identical to the pre-fault pipeline.
///
/// Conservation: `observed == recovered + degraded + lost`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultRecord {
    /// The fault profile the run was injected with (`light`, `lossy`,
    /// `pop-churn`).
    pub profile: String,
    /// Failed wire exchanges observed by the prober, all classes.
    pub observed: u64,
    /// Retry sends beyond each probe's first query (not counted in
    /// the result's `probes_sent`).
    pub retries: u64,
    /// Observed failures on probes that a retry recovered unchanged.
    pub recovered: u64,
    /// Observed failures on probes recovered only by the TC-forced
    /// upgrade from UDP to TCP.
    pub degraded: u64,
    /// Observed failures on probes that exhausted retries or deadline.
    pub lost: u64,
    /// PoP ids quarantined by the circuit breaker, in PoP order — the
    /// planner's dirty set for the next warm run.
    pub quarantined_pops: Vec<u64>,
    /// Scopes re-probed at a fallback PoP after quarantine.
    pub rescued_scopes: u64,
    /// Assigned ⟨domain, scope⟩ pairs that never produced a probe
    /// event — coverage the faults cost us.
    pub unmeasured_scopes: u64,
    /// Total distinct assigned ⟨domain, scope⟩ pairs (denominator for
    /// the unmeasured share).
    pub assigned_scopes: u64,
}

impl FaultRecord {
    /// Share of probe events that needed at least one retry-class send,
    /// as retries over first-try sends, in `[0, 1]`.
    pub fn retried_fraction(&self, probes_sent: u64) -> f64 {
        if probes_sent + self.retries == 0 {
            0.0
        } else {
            self.retries as f64 / (probes_sent + self.retries) as f64
        }
    }

    /// Share of assigned scopes left unmeasured, in `[0, 1]`.
    pub fn unmeasured_fraction(&self) -> f64 {
        if self.assigned_scopes == 0 {
            0.0
        } else {
            self.unmeasured_scopes as f64 / self.assigned_scopes as f64
        }
    }
}

/// One PoP's calibration result: the measured service radius and the
/// hit distances behind it — what the sweep's `ServiceRadii` holds for
/// the PoP. The resolver counts the calibration queries produced are
/// not per PoP: they ride the snapshot's `calibration_metrics`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationRecord {
    /// The calibrated PoP id.
    pub pop: u64,
    /// The radius estimate (percentile of hit distances), if any hit
    /// landed.
    pub radius_km: Option<f64>,
    /// Geodesic distances of every calibration hit, ascending.
    pub hit_distances_km: Vec<f64>,
}

/// A versioned, checksummed, byte-stable record of one sweep.
///
/// Holds four things: (1) per-scope [`ScopeRecord`]s keyed by
/// [`RecordKey`] — enough to replay the sweep's results exactly;
/// (2) the [`MetricsDelta`] of the probing window — prober, fault and
/// resolver (`gpdns.*`) counters alike — so a warm run that skips
/// probing can absorb the skipped telemetry; (3) the calibration
/// stage's per-PoP results and its own [`MetricsDelta`], so a warm run
/// can skip calibration the same way; (4) the fault accounting, whose
/// quarantine list seeds the next planner's dirty set. Whatever crosses
/// a warm start carries its resolver counts inside a `MetricsDelta`.
/// `world_seed` + `config_digest` scope validity: a warm start under
/// any other world or probing config is rejected.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSnapshot {
    /// Sweep generation: 1 for a cold sweep, prior + 1 for each warm
    /// re-sweep. Drives the rotating expiry draw.
    pub epoch: u32,
    /// Seed of the world this sweep measured.
    pub world_seed: u64,
    /// Digest of every probing-relevant config field (see
    /// `cacheprobe`'s sweep module). The expiry budget is deliberately
    /// excluded — re-sweeping the same world under a different
    /// freshness budget is the point of warm starts.
    pub config_digest: u64,
    /// Fault accounting, when the sweep ran under fault injection.
    pub fault: Option<FaultRecord>,
    /// Telemetry recorded inside the probing window (probing + rescue
    /// stages), as a replayable delta.
    pub metrics: MetricsDelta,
    /// Per-scope probe records, ordered by key.
    pub records: BTreeMap<RecordKey, ScopeRecord>,
    /// Per-PoP calibration results, one per bound PoP, ordered by PoP
    /// id. Empty when the recorded sweep ran under fault injection.
    pub calibration: Vec<CalibrationRecord>,
    /// Telemetry recorded by the calibration stage, as a replayable
    /// delta. Empty whenever `calibration` is.
    pub calibration_metrics: MetricsDelta,
    /// Extrapolation provenance, keyed by the **member** slot: which
    /// representative each extrapolated record was copied from, with
    /// what confidence, against what prior verdict. Empty for
    /// exhaustive sweeps.
    pub confidence: BTreeMap<RecordKey, ConfidenceRecord>,
}

impl SweepSnapshot {
    /// An empty epoch-0 snapshot scoped to `(world_seed, digest)`.
    /// (Sweeps write epoch ≥ 1; epoch 0 only ever appears as a
    /// just-constructed value.)
    pub fn new(world_seed: u64, config_digest: u64) -> SweepSnapshot {
        SweepSnapshot {
            world_seed,
            config_digest,
            ..SweepSnapshot::default()
        }
    }

    /// The PoPs the recorded sweep quarantined — dirty for replanning.
    pub fn quarantined_pops(&self) -> &[u64] {
        self.fault
            .as_ref()
            .map_or(&[], |f| f.quarantined_pops.as_slice())
    }

    /// Serializes to the versioned, checksummed byte layout. Equal
    /// snapshots encode byte-identically (all maps are ordered).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u32(self.epoch);
        w.u64(self.world_seed);
        w.u64(self.config_digest);
        w.flag(self.fault.is_some());
        if let Some(f) = &self.fault {
            w.str(&f.profile);
            w.u64(f.observed);
            w.u64(f.retries);
            w.u64(f.recovered);
            w.u64(f.degraded);
            w.u64(f.lost);
            w.u32(f.quarantined_pops.len() as u32);
            for pop in &f.quarantined_pops {
                w.u64(*pop);
            }
            w.u64(f.rescued_scopes);
            w.u64(f.unmeasured_scopes);
            w.u64(f.assigned_scopes);
        }
        write_metrics(&mut w, &self.metrics);
        w.u32(self.records.len() as u32);
        for (key, rec) in &self.records {
            write_key(&mut w, *key);
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
        w.u32(self.calibration.len() as u32);
        for c in &self.calibration {
            w.u64(c.pop);
            w.flag(c.radius_km.is_some());
            if let Some(r) = c.radius_km {
                w.u64(r.to_bits());
            }
            w.u32(c.hit_distances_km.len() as u32);
            for d in &c.hit_distances_km {
                w.u64(d.to_bits());
            }
        }
        write_metrics(&mut w, &self.calibration_metrics);
        w.u32(self.confidence.len() as u32);
        for (key, c) in &self.confidence {
            write_key(&mut w, *key);
            write_key(&mut w, c.rep);
            w.u8(c.confidence);
            w.u8(c.prior_verdict);
        }
        w.finish()
    }

    /// Decodes and fully validates a snapshot: magic, version, and
    /// checksum are checked before any field is interpreted, and the
    /// payload must parse to exhaustion.
    pub fn decode(bytes: &[u8]) -> Result<SweepSnapshot, CodecError> {
        let mut head = ByteReader::unsealed(bytes);
        if head.raw(SNAPSHOT_MAGIC.len()) != Ok(&SNAPSHOT_MAGIC[..]) {
            return Err(CodecError::BadMagic);
        }
        let version = head.u16().map_err(|_| CodecError::BadMagic)?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let mut r = ByteReader::verified(bytes)?;
        r.raw(SNAPSHOT_MAGIC.len() + 2)?; // the header validated above
        let epoch = r.u32()?;
        let world_seed = r.u64()?;
        let config_digest = r.u64()?;
        let fault = if r.flag("fault flag")? {
            Some(FaultRecord {
                profile: r.str()?,
                observed: r.u64()?,
                retries: r.u64()?,
                recovered: r.u64()?,
                degraded: r.u64()?,
                lost: r.u64()?,
                quarantined_pops: r.seq(|r| r.u64())?,
                rescued_scopes: r.u64()?,
                unmeasured_scopes: r.u64()?,
                assigned_scopes: r.u64()?,
            })
        } else {
            None
        };
        let metrics = read_metrics(&mut r)?;
        let mut records = BTreeMap::new();
        for _ in 0..r.count()? {
            let key = read_key(&mut r, "scope length")?;
            let rec = ScopeRecord {
                attempts: r.u64()?,
                scope0: r.u64()?,
                drops: r.u64()?,
                hit_events: r.seq(|r| {
                    let resp = r.prefix("hit response length")?;
                    Ok(HitEvent {
                        resp_addr: resp.addr(),
                        resp_len: resp.len(),
                        remaining_ttl: r.u32()?,
                    })
                })?,
            };
            if rec.hits() + rec.scope0 + rec.drops > rec.attempts {
                return Err(CodecError::Malformed("record outcome counts"));
            }
            insert_ascending(&mut records, key, rec, "record key order")?;
        }
        let mut last_pop = None;
        let calibration = r.seq(|r| {
            let pop = r.u64()?;
            if last_pop.is_some_and(|prev| prev >= pop) {
                return Err(CodecError::Malformed("calibration pop order"));
            }
            last_pop = Some(pop);
            let radius_km = if r.flag("calibration radius flag")? {
                Some(distance_km(r, "calibration radius value")?)
            } else {
                None
            };
            let hit_distances_km = r.seq(|r| distance_km(r, "calibration hit distance"))?;
            Ok(CalibrationRecord {
                pop,
                radius_km,
                hit_distances_km,
            })
        })?;
        let calibration_metrics = read_metrics(&mut r)?;
        let mut confidence = BTreeMap::new();
        for _ in 0..r.count()? {
            let key = read_key(&mut r, "confidence member scope length")?;
            let rep = read_key(&mut r, "confidence rep scope length")?;
            let conf = r.u8()?;
            if conf == 0 {
                return Err(CodecError::Malformed("confidence value"));
            }
            let prior_verdict = r.u8()?;
            if prior_verdict > 4 {
                return Err(CodecError::Malformed("confidence prior verdict"));
            }
            let rec = ConfidenceRecord {
                rep,
                confidence: conf,
                prior_verdict,
            };
            insert_ascending(&mut confidence, key, rec, "confidence key order")?;
        }
        r.expect_done()?;
        Ok(SweepSnapshot {
            epoch,
            world_seed,
            config_digest,
            fault,
            metrics,
            records,
            calibration,
            calibration_metrics,
            confidence,
        })
    }
}

/// Writes a [`MetricsDelta`]: `u32`-counted counters (name, increment),
/// then `u32`-counted histograms (name, count, sum, min, max, counted
/// buckets) — the layout of both the probing-window and the calibration
/// block.
fn write_metrics(w: &mut ByteWriter, d: &MetricsDelta) {
    w.u32(d.counters.len() as u32);
    for (name, inc) in &d.counters {
        w.str(name);
        w.u64(*inc);
    }
    w.u32(d.histograms.len() as u32);
    for (name, h) in &d.histograms {
        w.str(name);
        w.u64(h.count);
        w.u64(h.sum);
        w.u64(h.min);
        w.u64(h.max);
        w.u32(h.buckets.len() as u32);
        for (le, c) in &h.buckets {
            w.u64(*le);
            w.u64(*c);
        }
    }
}

/// Reads what [`write_metrics`] writes. Names come strictly ascending
/// within each block, as every encoder writes them.
fn read_metrics(r: &mut ByteReader<'_>) -> Result<MetricsDelta, CodecError> {
    let mut d = MetricsDelta::default();
    for _ in 0..r.count()? {
        let name = r.str()?;
        insert_ascending(&mut d.counters, name, r.u64()?, "metrics name order")?;
    }
    for _ in 0..r.count()? {
        let name = r.str()?;
        let delta = HistogramDelta {
            count: r.u64()?,
            sum: r.u64()?,
            min: r.u64()?,
            max: r.u64()?,
            buckets: r.seq(|r| Ok((r.u64()?, r.u64()?)))?,
        };
        insert_ascending(&mut d.histograms, name, delta, "metrics name order")?;
    }
    Ok(d)
}

/// Appends a decoded entry to an ordered section, refusing as
/// `Malformed(what)` a key not strictly above the last one: a repeated
/// or out-of-order key would otherwise collapse or reorder silently and
/// re-encode to bytes other than the ones accepted.
fn insert_ascending<K: Ord, V>(
    map: &mut BTreeMap<K, V>,
    key: K,
    value: V,
    what: &'static str,
) -> Result<(), CodecError> {
    if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
        return Err(CodecError::Malformed(what));
    }
    map.insert(key, value);
    Ok(())
}

fn write_key(w: &mut ByteWriter, (bound, domain, addr, len): RecordKey) {
    w.u16(bound);
    w.u16(domain);
    w.u32(addr);
    w.u8(len);
}

/// Reads one [`RecordKey`]; a scope past /32 or with host bits set is
/// `Malformed(what)` ([`ByteReader::prefix`]).
fn read_key(r: &mut ByteReader<'_>, what: &'static str) -> Result<RecordKey, CodecError> {
    let (bound, domain) = (r.u16()?, r.u16()?);
    let scope = r.prefix(what)?;
    Ok((bound, domain, scope.addr(), scope.len()))
}

/// Reads one calibration distance: a finite, non-negative `f64`, or
/// `Malformed(what)`.
fn distance_km(r: &mut ByteReader<'_>, what: &'static str) -> Result<f64, CodecError> {
    let km = f64::from_bits(r.u64()?);
    if !km.is_finite() || km < 0.0 {
        return Err(CodecError::Malformed(what));
    }
    Ok(km)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::checksum;

    fn sample() -> SweepSnapshot {
        let mut s = SweepSnapshot::new(2021, 0xD16E57);
        s.epoch = 3;
        s.fault = Some(FaultRecord {
            profile: "lossy".into(),
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
            (0, 1, 0x0A000000, 24),
            ScopeRecord {
                attempts: 9,
                scope0: 1,
                drops: 2,
                hit_events: vec![HitEvent {
                    resp_addr: 0x0A000000,
                    resp_len: 24,
                    remaining_ttl: 99,
                }],
            },
        );
        s.records
            .insert((2, 0, 0xC0000200, 23), ScopeRecord::default());
        s.confidence.insert(
            (0, 1, 0x0A000100, 24),
            ConfidenceRecord {
                rep: (0, 1, 0x0A000000, 24),
                confidence: 240,
                prior_verdict: 4,
            },
        );
        s.confidence.insert(
            (2, 0, 0xC0000300, 24),
            ConfidenceRecord {
                rep: (2, 0, 0xC0000200, 23),
                confidence: 12,
                prior_verdict: 0,
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
        s.calibration_metrics
            .counters
            .insert("gpdns.queries.tcp".into(), 52);
        s.calibration_metrics
            .counters
            .insert("gpdns.cache.miss.pool0".into(), 12);
        s
    }

    /// A hand-built snapshot whose single calibration record is
    /// produced by `write_record` — for field-level corruption tests
    /// that must survive the checksum.
    fn craft_with_calibration(write_record: impl Fn(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u32(1); // epoch
        w.u64(7); // world seed
        w.u64(9); // config digest
        w.u8(0); // no fault record
        w.u32(0); // no metric counters
        w.u32(0); // no histograms
        w.u32(0); // no scope records
        w.u32(1); // one calibration record
        write_record(&mut w);
        w.u32(0); // no calibration counters
        w.u32(0); // no calibration histograms
        w.u32(0); // no confidence records
        w.finish()
    }

    /// A hand-built snapshot whose single confidence record is
    /// produced by `write_record` — for field-level corruption tests
    /// that must survive the checksum.
    fn craft_with_confidence(write_record: impl Fn(&mut ByteWriter)) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(&SNAPSHOT_MAGIC);
        w.u16(SNAPSHOT_VERSION);
        w.u32(1); // epoch
        w.u64(7); // world seed
        w.u64(9); // config digest
        w.u8(0); // no fault record
        w.u32(0); // no metric counters
        w.u32(0); // no histograms
        w.u32(0); // no scope records
        w.u32(0); // no calibration records
        w.u32(0); // no calibration counters
        w.u32(0); // no calibration histograms
        w.u32(1); // one confidence record
        write_record(&mut w);
        w.finish()
    }

    #[test]
    fn round_trips_exactly() {
        let s = sample();
        let bytes = s.encode();
        let back = SweepSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        // encode(decode(bytes)) is also byte-stable.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn rejects_magic_version_and_corruption() {
        let bytes = sample().encode();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::BadMagic)
        );
        let mut bad = bytes.clone();
        bad[4] = SNAPSHOT_VERSION as u8 + 1;
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::BadVersion(SNAPSHOT_VERSION + 1))
        );
        // Nothing writes the four older layouts any more, so nothing
        // reads them: stamped 1 to 4, the same bytes are refused on the
        // version alone.
        for old in [1, 2, 3, 4] {
            let mut bad = bytes.clone();
            bad[4] = old as u8;
            assert_eq!(
                SweepSnapshot::decode(&bad).err(),
                Some(CodecError::BadVersion(old))
            );
        }
        // And so is a genuine version-4 image — a calibration record
        // with its sample size and 14 resolver tallies, checksum valid
        // — never half-read.
        let mut v4 = ByteWriter::new();
        v4.bytes(&SNAPSHOT_MAGIC);
        v4.u16(4);
        v4.u32(1); // epoch
        v4.u64(7); // world seed
        v4.u64(9); // config digest
        v4.u8(0); // no fault record
        for _ in 0..3 {
            v4.u32(0); // no counters, histograms, scope records
        }
        v4.u64(800); // calibration sample
        v4.u32(1); // one calibration record
        v4.u64(3); // pop
        v4.u8(0); // no radius
        v4.u32(0); // no hit distances
        for _ in 0..14 {
            v4.u64(0); // the removed per-PoP resolver tallies
        }
        v4.u32(0); // no confidence records
        assert_eq!(
            SweepSnapshot::decode(&v4.finish()).err(),
            Some(CodecError::BadVersion(4))
        );
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(SweepSnapshot::decode(&bad).is_err());
        assert!(SweepSnapshot::decode(&bytes[..bytes.len() - 3]).is_err());
        assert!(SweepSnapshot::decode(b"CM").is_err());
    }

    /// A hit's response scope is a prefix, so a stored length past /32
    /// is refused like a record key's — it could never replay as a hit,
    /// yet it would count as one.
    #[test]
    fn hit_response_lengths_past_32_are_refused() {
        for len in [33, 64, 255] {
            let mut s = sample();
            let rec = s.records.values_mut().next().unwrap();
            rec.hit_events[0].resp_len = len;
            assert_eq!(
                SweepSnapshot::decode(&s.encode()).err(),
                Some(CodecError::Malformed("hit response length")),
                "/{len}"
            );
        }
    }

    /// A scope with host bits set is not a prefix: `10.0.0.1/24` would
    /// replay as `10.0.0.0/24`, so beside a genuine `10.0.0.0/24` key it
    /// counted that slot twice, and as a hit scope it re-encoded to other
    /// bytes than the ones accepted. Keys, confidence keys and hit scopes
    /// all refuse it, naming their field.
    #[test]
    fn scopes_with_host_bits_are_refused() {
        let hit = |addr| HitEvent {
            resp_addr: addr,
            resp_len: 24,
            remaining_ttl: 5,
        };
        let record = |addr| ScopeRecord {
            attempts: 1,
            hit_events: vec![hit(addr)],
            ..ScopeRecord::default()
        };
        let mut two_keys = SweepSnapshot::new(7, 9);
        two_keys
            .records
            .insert((0, 0, 0x0A000000, 24), record(0x0A000000));
        two_keys
            .records
            .insert((0, 0, 0x0A000001, 24), record(0x0A000001));
        assert_eq!(
            SweepSnapshot::decode(&two_keys.encode()).err(),
            Some(CodecError::Malformed("scope length"))
        );
        let mut one_key = SweepSnapshot::new(7, 9);
        one_key
            .records
            .insert((0, 0, 0x0A000000, 24), record(0x0A000001));
        assert_eq!(
            SweepSnapshot::decode(&one_key.encode()).err(),
            Some(CodecError::Malformed("hit response length"))
        );
        let mut tagged = SweepSnapshot::new(7, 9);
        let tag = |rep| ConfidenceRecord {
            rep,
            confidence: 9,
            prior_verdict: 0,
        };
        tagged
            .confidence
            .insert((0, 0, 0x0A000180, 24), tag((0, 0, 0x0A000000, 24)));
        assert_eq!(
            SweepSnapshot::decode(&tagged.encode()).err(),
            Some(CodecError::Malformed("confidence member scope length"))
        );
        tagged.confidence.clear();
        tagged
            .confidence
            .insert((0, 0, 0x0A000100, 24), tag((0, 0, 0x0A000080, 24)));
        assert_eq!(
            SweepSnapshot::decode(&tagged.encode()).err(),
            Some(CodecError::Malformed("confidence rep scope length"))
        );
        // Cleared, every scope decodes.
        one_key
            .records
            .insert((0, 0, 0x0A000000, 24), record(0x0A000000));
        assert!(SweepSnapshot::decode(&one_key.encode()).is_ok());
    }

    /// Re-seals `bytes` after an in-place edit, so only the field checks
    /// can object.
    fn reseal(bytes: &mut [u8]) {
        let n = bytes.len();
        let sum = checksum(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    /// `bytes` with the first occurrence of `from` overwritten by the
    /// same-length `to`, resealed.
    fn rewritten(mut bytes: Vec<u8>, from: &[u8], to: &[u8]) -> Vec<u8> {
        assert_eq!(from.len(), to.len());
        let at = bytes
            .windows(from.len())
            .position(|w| w == from)
            .expect("pattern present");
        bytes[at..at + to.len()].copy_from_slice(to);
        reseal(&mut bytes);
        bytes
    }

    fn key_bytes(key: RecordKey) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_key(&mut w, key);
        w.into_unsealed()
    }

    #[test]
    fn scope_records_must_come_in_strict_key_order() {
        let bytes = sample().encode();
        let (first, second) = ((0, 1, 0x0A000000, 24), (2, 0, 0xC0000200, 23));
        // The second record's key repeats the first's: decoding must not
        // collapse the two into one record.
        let repeated = rewritten(bytes.clone(), &key_bytes(second), &key_bytes(first));
        assert_eq!(
            SweepSnapshot::decode(&repeated).err(),
            Some(CodecError::Malformed("record key order"))
        );
        // The first record's key sorts after the second's: decoding must
        // not reorder them.
        let descending = rewritten(bytes, &key_bytes(first), &key_bytes((5, 1, 0x0A000000, 24)));
        assert_eq!(
            SweepSnapshot::decode(&descending).err(),
            Some(CodecError::Malformed("record key order"))
        );
    }

    #[test]
    fn metrics_names_must_come_in_strict_order() {
        // Calibration counters out of order
        // (`gpdns.cache.miss.pool0` < `gpdns.queries.tcp` as encoded).
        let descending = rewritten(
            sample().encode(),
            b"gpdns.queries.tcp",
            b"gpdns.aaaaaaaaaaa",
        );
        assert_eq!(
            SweepSnapshot::decode(&descending).err(),
            Some(CodecError::Malformed("metrics name order"))
        );
        // A window histogram name repeated.
        let mut s = sample();
        let h = s.metrics.histograms.values().next().unwrap().clone();
        s.metrics
            .histograms
            .insert("cacheprobe.hit.remaining_ttl_zzzz".into(), h);
        let repeated = rewritten(
            s.encode(),
            b"cacheprobe.hit.remaining_ttl_zzzz",
            b"cacheprobe.hit.remaining_ttl_secs",
        );
        assert_eq!(
            SweepSnapshot::decode(&repeated).err(),
            Some(CodecError::Malformed("metrics name order"))
        );
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = SweepSnapshot::new(7, 9);
        assert_eq!(SweepSnapshot::decode(&s.encode()).unwrap(), s);
        assert!(s.quarantined_pops().is_empty());
    }

    /// A well-formed confidence record for the crafted-buffer tests.
    fn write_good_confidence(w: &mut ByteWriter) {
        w.u16(0); // member bound
        w.u16(1); // member domain
        w.u32(0x0A000100); // member addr
        w.u8(24); // member len
        w.u16(0); // rep bound
        w.u16(1); // rep domain
        w.u32(0x0A000000); // rep addr
        w.u8(24); // rep len
        w.u8(200); // confidence
        w.u8(4); // prior verdict (Hit)
    }

    #[test]
    fn crafted_confidence_sections_parse_or_name_the_bad_field() {
        let good = craft_with_confidence(write_good_confidence);
        let s = SweepSnapshot::decode(&good).expect("good crafted record decodes");
        assert_eq!(s.confidence.len(), 1);
        let rec = s.confidence[&(0, 1, 0x0A000100, 24)];
        assert_eq!(rec.rep, (0, 1, 0x0A000000, 24));
        assert_eq!(rec.confidence, 200);
        assert_eq!(rec.prior_verdict, 4);

        // Impossible member scope length.
        let bad = craft_with_confidence(|w| {
            w.u16(0);
            w.u16(1);
            w.u32(0x0A000100);
            w.u8(33);
        });
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("confidence member scope length"))
        );

        // Impossible representative scope length.
        let bad = craft_with_confidence(|w| {
            w.u16(0);
            w.u16(1);
            w.u32(0x0A000100);
            w.u8(24);
            w.u16(0);
            w.u16(1);
            w.u32(0x0A000000);
            w.u8(40);
        });
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("confidence rep scope length"))
        );

        // A stored record must carry some confidence.
        let bad = craft_with_confidence(|w| {
            w.u16(0);
            w.u16(1);
            w.u32(0x0A000100);
            w.u8(24);
            w.u16(0);
            w.u16(1);
            w.u32(0x0A000000);
            w.u8(24);
            w.u8(0); // untagged sentinel is not storable
        });
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("confidence value"))
        );

        // Prior verdict rank outside the Verdict range.
        let bad = craft_with_confidence(|w| {
            write_good_confidence(w);
        });
        let mut bad = bad;
        // Rewrite the prior-verdict byte (last payload byte before the
        // checksum) and re-seal so only the field check can object.
        let n = bad.len();
        bad[n - 9] = 9;
        reseal(&mut bad);
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("confidence prior verdict"))
        );
    }

    #[test]
    fn confidence_records_must_come_in_key_order() {
        let s = sample();
        let keys: Vec<RecordKey> = s.confidence.keys().copied().collect();
        assert_eq!(keys.len(), 2);
        // Re-encode with the two entries swapped (descending keys).
        let good = s.encode();
        let entry_bytes = 20 * keys.len();
        let body_end = good.len() - 8 - entry_bytes;
        let mut w = ByteWriter::new();
        w.bytes(&good[..body_end]);
        w.bytes(&good[body_end + 20..body_end + 40]);
        w.bytes(&good[body_end..body_end + 20]);
        let bad = w.finish();
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("confidence key order"))
        );
    }

    #[test]
    fn truncated_or_flipped_confidence_is_rejected() {
        let bytes = sample().encode();
        // Any truncation inside the confidence section fails loudly
        // (checksum covers the whole payload).
        for cut in 1..48 {
            assert!(
                SweepSnapshot::decode(&bytes[..bytes.len() - cut]).is_err(),
                "truncation by {cut} bytes went unnoticed"
            );
        }
        // A bit flip inside the confidence section trips the trailing
        // checksum.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 10] ^= 0x01;
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::BadChecksum)
        );
    }

    /// A well-formed calibration record for the crafted-buffer tests.
    fn write_good_record(w: &mut ByteWriter) {
        w.u64(3); // pop
        w.u8(1); // radius present
        w.u64(1000.0f64.to_bits());
        w.u32(1); // one hit distance
        w.u64(1000.0f64.to_bits());
    }

    #[test]
    fn crafted_calibration_sections_parse_or_name_the_bad_field() {
        // The well-formed record decodes.
        let good = craft_with_calibration(write_good_record);
        let s = SweepSnapshot::decode(&good).expect("good crafted record decodes");
        assert_eq!(s.calibration.len(), 1);
        assert_eq!(s.calibration[0].pop, 3);
        assert_eq!(s.calibration[0].radius_km, Some(1000.0));
        assert_eq!(s.calibration[0].hit_distances_km, vec![1000.0]);
        assert!(s.calibration_metrics.is_empty());

        // Radius flag outside {0, 1}.
        let bad = craft_with_calibration(|w| {
            w.u64(3);
            w.u8(9); // bad flag
        });
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("calibration radius flag"))
        );

        // Non-finite radius.
        let bad = craft_with_calibration(|w| {
            w.u64(3);
            w.u8(1);
            w.u64(f64::NAN.to_bits());
        });
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("calibration radius value"))
        );

        // Negative hit distance.
        let bad = craft_with_calibration(|w| {
            w.u64(3);
            w.u8(0);
            w.u32(1);
            w.u64((-4.0f64).to_bits());
        });
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::Malformed("calibration hit distance"))
        );
    }

    /// The calibration stage's delta round-trips in the `metrics`
    /// block's encoding, histograms included, independently of the
    /// probing window's.
    #[test]
    fn calibration_metrics_round_trip_beside_the_window_delta() {
        let mut s = sample();
        s.calibration_metrics.histograms.insert(
            "gpdns.latency_ms".into(),
            HistogramDelta {
                count: 3,
                sum: 21,
                min: 2,
                max: 15,
                buckets: vec![(3, 1), (7, 1), (15, 1)],
            },
        );
        let back = SweepSnapshot::decode(&s.encode()).unwrap();
        assert_eq!(back.calibration_metrics, s.calibration_metrics);
        assert_eq!(back.metrics, s.metrics);
        assert_ne!(back.calibration_metrics, back.metrics);
        // An empty calibration section is three zero counts (records,
        // counters, histograms), then the empty confidence count.
        let empty = SweepSnapshot::new(7, 9).encode();
        let tail = &empty[empty.len() - 8 - 16..empty.len() - 8];
        assert_eq!(tail, &[0u8; 16][..]);
    }

    #[test]
    fn calibration_records_must_come_in_pop_order() {
        let mut s = sample();
        s.calibration.swap(0, 1); // descending pop order
        assert_eq!(
            SweepSnapshot::decode(&s.encode()).err(),
            Some(CodecError::Malformed("calibration pop order"))
        );
    }

    #[test]
    fn truncated_or_flipped_calibration_is_rejected() {
        let bytes = sample().encode();
        // Any truncation inside the calibration section fails loudly
        // (checksum covers the whole payload).
        for cut in 1..60 {
            assert!(
                SweepSnapshot::decode(&bytes[..bytes.len() - cut]).is_err(),
                "truncation by {cut} bytes went unnoticed"
            );
        }
        // A bit flip inside the calibration section trips the checksum.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 20] ^= 0x01;
        assert_eq!(
            SweepSnapshot::decode(&bad).err(),
            Some(CodecError::BadChecksum)
        );
    }
}
