//! Frame payloads: the job handshake and shard partitioning.
//!
//! A job names the sweep by `(scale, seed, probing knobs, prior
//! snapshot)` — the worker rebuilds the *same* world and prep from
//! those (preparation is a pure function of them) rather than
//! shipping the world over the wire. The driver's config digest rides
//! along, and the worker's ack echoes its own digest and unit count,
//! so a version or configuration skew between binaries is caught at
//! the handshake, never as a corrupt merge.

use clientmap_cacheprobe::{PopHealth, ProbeUnit};
use clientmap_core::PipelineConfig;
use clientmap_faults::{FaultConfig, FaultProfile};
use clientmap_store::{ByteReader, ByteWriter, CodecError, SweepSnapshot};

/// Bumped whenever the frame layout or payload encodings change; a
/// worker refuses a job from a different protocol version.
/// Version 2 added fault injection to the job spec, per-PoP fault
/// books on shard results, and the rescue request/result frames.
/// Version 3 added the clustered-planner knobs to the job spec —
/// driver and workers must cluster identically or the shard handshake
/// would pass while the planned unit lists silently diverged.
/// Version 4 dropped the job spec's dead `batch_size` slot and carries
/// version-4 snapshots (no resolver block) as priors and shard deltas.
/// Version 5 carries version-5 snapshots (calibration as per-PoP radii
/// plus the stage's metrics delta): every warm job and every shard or
/// rescue result embeds one, so a mixed-version fleet is refused at the
/// handshake rather than after a worker has probed a shard.
pub const PROTOCOL_VERSION: u32 = 5;

/// driver → worker: everything needed to rebuild the sweep and its
/// prep deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// World scale preset (`tiny`, `small`, `paper`).
    pub scale: String,
    /// World seed.
    pub seed: u64,
    /// Probing-window length in (sim) hours.
    pub duration_hours: f64,
    /// Warm-start expiry budget (fraction of scopes refreshed).
    pub expiry_budget: f64,
    /// Whether the batched probe kernels are enabled.
    pub batched_probing: bool,
    /// Whether the clustered predictive planner is enabled.
    pub clustered_probing: bool,
    /// Greedy clustering radius in feature-distance units.
    pub cluster_epsilon: f64,
    /// Escalation floor on the `0..=1` confidence scale.
    pub cluster_escalate_below: f64,
    /// How many shards the driver partitioned the unit list into.
    pub num_shards: u32,
    /// The driver's config digest, for handshake validation.
    pub config_digest: u64,
    /// Fault-injection profile and seed — workers rebuild the same
    /// fault plan so their shard probes fail exactly where the
    /// single-process sweep's would.
    pub faults: FaultConfig,
    /// Encoded prior [`SweepSnapshot`] for warm fleet sweeps.
    pub prior: Option<Vec<u8>>,
}

impl JobSpec {
    /// Encodes the spec (with trailing checksum) as a Job payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(PROTOCOL_VERSION);
        w.str(&self.scale);
        w.u64(self.seed);
        w.u64(self.duration_hours.to_bits());
        w.u64(self.expiry_budget.to_bits());
        w.flag(self.batched_probing);
        w.flag(self.clustered_probing);
        w.u64(self.cluster_epsilon.to_bits());
        w.u64(self.cluster_escalate_below.to_bits());
        w.u32(self.num_shards);
        w.u64(self.config_digest);
        w.str(self.faults.profile.as_str());
        w.u64(self.faults.fault_seed);
        w.flag(self.prior.is_some());
        if let Some(bytes) = &self.prior {
            w.blob(bytes);
        }
        w.finish()
    }

    /// Decodes a Job payload, verifying the checksum and protocol
    /// version.
    pub fn decode(bytes: &[u8]) -> Result<JobSpec, CodecError> {
        let mut r = ByteReader::verified(bytes)?;
        let version = r.u32()?;
        if version != PROTOCOL_VERSION {
            return Err(CodecError::BadVersion(version as u16));
        }
        let scale = r.str()?;
        let seed = r.u64()?;
        let duration_hours = f64::from_bits(r.u64()?);
        let expiry_budget = f64::from_bits(r.u64()?);
        let batched_probing = r.flag("job batched-probing flag")?;
        let clustered_probing = r.flag("job clustered-probing flag")?;
        let cluster_epsilon = f64::from_bits(r.u64()?);
        let cluster_escalate_below = f64::from_bits(r.u64()?);
        let num_shards = r.u32()?;
        let config_digest = r.u64()?;
        // By its canonical name only: the CLI's aliases (`none`,
        // `popchurn`) would decode, then re-encode to different bytes.
        let name = r.str()?;
        let profile = name
            .parse()
            .ok()
            .filter(|p: &FaultProfile| p.as_str() == name)
            .ok_or(CodecError::Malformed("unknown fault profile"))?;
        let faults = FaultConfig::profile(profile, r.u64()?);
        let prior = if r.flag("job prior flag")? {
            Some(r.blob()?.to_vec())
        } else {
            None
        };
        r.expect_done()?;
        Ok(JobSpec {
            scale,
            seed,
            duration_hours,
            expiry_budget,
            batched_probing,
            clustered_probing,
            cluster_epsilon,
            cluster_escalate_below,
            num_shards,
            config_digest,
            faults,
            prior,
        })
    }

    /// The pipeline configuration this job describes — the same
    /// mapping the CLI's `--scale`/`--seed` flags use
    /// ([`PipelineConfig::from_scale`]), with the probing knobs and
    /// fault plan overridden from the spec. `None` for a scale name
    /// that is not a preset: the worker refuses the job rather than
    /// agreeing with its driver on the wrong world.
    pub fn config(&self) -> Option<PipelineConfig> {
        let mut config = PipelineConfig::from_scale(&self.scale, self.seed)?;
        config.faults = self.faults;
        config.probe.duration_hours = self.duration_hours;
        config.probe.expiry_budget = self.expiry_budget;
        config.probe.batched_probing = self.batched_probing;
        config.probe.clustered_probing = self.clustered_probing;
        config.probe.cluster_epsilon = self.cluster_epsilon;
        config.probe.cluster_escalate_below = self.cluster_escalate_below;
        Some(config)
    }

    /// Decodes the job's prior snapshot, if any.
    pub fn prior_snapshot(&self) -> Result<Option<SweepSnapshot>, CodecError> {
        self.prior.as_deref().map(SweepSnapshot::decode).transpose()
    }
}

/// worker → driver: the worker rebuilt the sweep and is ready for
/// shard requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobAck {
    /// Units in the worker's prepared sweep (must match the driver's).
    pub num_units: u64,
    /// The worker's own config digest (must match the driver's).
    pub config_digest: u64,
    /// The worker's world seed.
    pub world_seed: u64,
    /// Whether the worker's warm plan skipped everything.
    pub warm_full_skip: bool,
}

impl JobAck {
    /// Encodes the ack (with trailing checksum) as a JobAck payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.num_units);
        w.u64(self.config_digest);
        w.u64(self.world_seed);
        w.flag(self.warm_full_skip);
        w.finish()
    }

    /// Decodes a JobAck payload.
    pub fn decode(bytes: &[u8]) -> Result<JobAck, CodecError> {
        let mut r = ByteReader::verified(bytes)?;
        let ack = JobAck {
            num_units: r.u64()?,
            config_digest: r.u64()?,
            world_seed: r.u64()?,
            warm_full_skip: r.flag("job ack warm-full-skip flag")?,
        };
        r.expect_done()?;
        Ok(ack)
    }
}

/// The deterministic shard partition: contiguous ranges over the unit
/// list, sizes differing by at most one (the remainder spread over the
/// first shards). Every ⟨unit count, shard count⟩ pair yields the same
/// partition in every process — the invariant that lets workers probe
/// shards the driver never sent them explicitly.
pub fn shard_range(num_units: usize, num_shards: u32, shard: u32) -> std::ops::Range<usize> {
    let k = (num_shards as usize).max(1);
    let s = (shard as usize).min(k - 1);
    let base = num_units / k;
    let extra = num_units % k;
    let start = s * base + s.min(extra);
    let len = base + usize::from(s < extra);
    start..(start + len).min(num_units)
}

/// Encodes a shard's per-PoP fault book as a standalone checksummed
/// record: entry count, then `(pop, attempts, drops, tripped)` per
/// entry. Fault-free shards encode an empty book (a fixed 12-byte
/// blob), so the wire cost of the fault machinery is near zero when
/// it's off.
pub fn encode_fault_book(book: &[PopHealth]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(book.len() as u32);
    for h in book {
        w.u32(h.pop as u32);
        w.u64(h.attempts);
        w.u64(h.drops);
        w.flag(h.tripped);
    }
    w.finish()
}

/// Decodes a checksummed fault book.
pub fn decode_fault_book(bytes: &[u8]) -> Result<Vec<PopHealth>, CodecError> {
    let mut r = ByteReader::verified(bytes)?;
    let book = r.seq(|r| {
        Ok(PopHealth {
            pop: r.u32()? as usize,
            attempts: r.u64()?,
            drops: r.u64()?,
            tripped: r.flag("fault book tripped flag")?,
        })
    })?;
    r.expect_done()?;
    Ok(book)
}

/// Encodes a ShardRequest payload: the shard id, four bytes. Unsealed
/// — the frame's own checksum is all the integrity four bytes need.
pub fn encode_shard_request(shard: u32) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(shard);
    w.into_unsealed()
}

/// Decodes a ShardRequest payload back into the shard id.
pub fn decode_shard_request(payload: &[u8]) -> Result<u32, CodecError> {
    let mut r = ByteReader::unsealed(payload);
    let shard = r.u32()?;
    r.expect_done()?;
    Ok(shard)
}

/// Encodes a ShardResult payload: shard id, the shard's fault book
/// (length-prefixed), then the delta snapshot's own checksummed
/// encoding. The payload itself is unsealed: both parts carry their
/// own checksum.
pub fn encode_shard_result(shard: u32, delta: &SweepSnapshot, book: &[PopHealth]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(shard);
    w.blob(&encode_fault_book(book));
    w.bytes(&delta.encode());
    w.into_unsealed()
}

/// Decodes a ShardResult payload back into `(shard id, delta, fault
/// book)`.
pub fn decode_shard_result(
    payload: &[u8],
) -> Result<(u32, SweepSnapshot, Vec<PopHealth>), CodecError> {
    let mut r = ByteReader::unsealed(payload);
    let shard = r.u32()?;
    let book = r.blob()?;
    Ok((
        shard,
        SweepSnapshot::decode(r.rest())?,
        decode_fault_book(book)?,
    ))
}

/// Encodes a RescueRequest payload: the rescue shard id and the
/// driver-planned rescue units that shard covers, as one checksummed
/// record.
pub fn encode_rescue_request(shard: u32, units: &[ProbeUnit]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(shard);
    w.u32(units.len() as u32);
    for u in units {
        w.u32(u.bound_idx as u32);
        w.u32(u.domain as u32);
        w.u32(u.scopes.len() as u32);
        for s in &u.scopes {
            w.prefix(*s);
        }
    }
    w.finish()
}

/// Decodes a RescueRequest payload back into `(shard id, units)`.
/// Index validity (vantage and domain in the prep's range) is the
/// *worker's* check — the codec only guarantees well-formed prefixes.
pub fn decode_rescue_request(bytes: &[u8]) -> Result<(u32, Vec<ProbeUnit>), CodecError> {
    let mut r = ByteReader::verified(bytes)?;
    let shard = r.u32()?;
    let units = r.seq(|r| {
        Ok(ProbeUnit {
            bound_idx: r.u32()? as usize,
            domain: r.u32()? as usize,
            scopes: r.seq(|r| r.prefix("bad prefix"))?,
        })
    })?;
    r.expect_done()?;
    Ok((shard, units))
}

/// Encodes a RescueResult payload: rescue shard id, then the delta
/// snapshot's own checksummed encoding (no fault book — the rescue
/// phase runs after quarantine is already decided).
pub fn encode_rescue_result(shard: u32, delta: &SweepSnapshot) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(shard);
    w.bytes(&delta.encode());
    w.into_unsealed()
}

/// Decodes a RescueResult payload back into `(shard id, delta)`.
pub fn decode_rescue_result(payload: &[u8]) -> Result<(u32, SweepSnapshot), CodecError> {
    let mut r = ByteReader::unsealed(payload);
    let shard = r.u32()?;
    Ok((shard, SweepSnapshot::decode(r.rest())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_unit_list() {
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for k in [1u32, 2, 3, 4, 7, 16] {
                let mut covered = 0;
                let mut expected_start = 0;
                for s in 0..k {
                    let r = shard_range(n, k, s);
                    assert_eq!(r.start, expected_start, "n={n} k={k} s={s}");
                    expected_start = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, n, "n={n} k={k}");
            }
        }
    }
}
