//! The fleet worker: a TCP server that rebuilds a sweep from a
//! [`JobSpec`], then answers shard requests with checksummed deltas.
//!
//! The worker never sees the driver's world over the wire — it
//! regenerates the same world and runs the same preparation from the
//! job's `(scale, seed, probing knobs, prior)`, which is what makes a
//! shard delta mergeable byte-for-byte. The handshake cross-checks the
//! config digest and unit count, so a skewed binary or configuration
//! fails loudly at job time instead of corrupting a merge.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use clientmap_cacheprobe::{prepare_sweep, probe_rescue_shard, probe_shard, SweepPrep};
use clientmap_core::PipelineConfig;
use clientmap_net::Prefix;
use clientmap_sim::Sim;
use clientmap_telemetry::MetricsRegistry;
use clientmap_world::World;

use crate::frame::{read_frame_deadline, write_frame, Frame, FrameKind, FrameRead};
use crate::proto::{
    decode_rescue_request, encode_rescue_result, encode_shard_result, shard_range, JobAck, JobSpec,
};

/// How a worker process runs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Address to listen on (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Exit after serving one driver connection (tests, benches).
    pub once: bool,
    /// Deterministic crash injection: serve this many shard requests,
    /// then exit the process without replying to the next one — the
    /// chaos lever for the driver's re-queue path.
    pub fail_after: Option<u32>,
    /// Per-frame socket deadline. A driver that goes silent *between*
    /// frames is fine (it may be merging, or waiting on other
    /// workers); one that stalls *mid-frame* for this long is dropped.
    pub io_timeout: Duration,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            listen: "127.0.0.1:0".into(),
            once: false,
            fail_after: None,
            io_timeout: Duration::from_secs(600),
        }
    }
}

/// A prepared job: the worker-side sweep, paused before probing.
struct JobState {
    config: PipelineConfig,
    sim: Sim,
    prep: SweepPrep,
    num_shards: u32,
}

fn build_job(spec: &JobSpec) -> Result<JobState, String> {
    let config = spec.config().ok_or_else(|| {
        format!(
            "unknown scale {:?} (expected tiny, small or paper)",
            spec.scale
        )
    })?;
    let world = World::generate(config.world.clone());
    let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
    if universe.is_empty() {
        return Err("generated world has no announced blocks to probe".into());
    }
    let metrics = Arc::new(MetricsRegistry::new());
    let mut sim = Sim::with_faults(world, Arc::clone(&metrics), &config.faults);
    let prior = spec
        .prior_snapshot()
        .map_err(|e| format!("prior snapshot unusable: {e}"))?;
    let prep = prepare_sweep(
        &mut sim,
        &config.probe,
        &universe,
        &mut Vec::new(),
        prior.as_ref(),
    );
    if prep.config_digest() != spec.config_digest {
        return Err(format!(
            "config digest mismatch: driver {:#x}, worker {:#x} \
             (binary or configuration skew)",
            spec.config_digest,
            prep.config_digest()
        ));
    }
    if spec.num_shards == 0 {
        return Err("job with zero shards".into());
    }
    Ok(JobState {
        config,
        sim,
        prep,
        num_shards: spec.num_shards,
    })
}

fn serve_connection(stream: TcpStream, opts: &WorkerOptions) -> std::io::Result<()> {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    stream.set_read_timeout(Some(opts.io_timeout)).ok();
    stream.set_write_timeout(Some(opts.io_timeout)).ok();
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut job: Option<JobState> = None;
    let mut served: u32 = 0;

    loop {
        let frame = match read_frame_deadline(&mut reader) {
            Ok(FrameRead::Frame(f)) => f,
            // Clean EOF: the driver hung up (e.g. it was interrupted
            // after draining) — not an error.
            Ok(FrameRead::Eof) => return Ok(()),
            // Idle deadline between frames: the driver is merging or
            // waiting on other workers. Keep listening.
            Ok(FrameRead::Idle) => continue,
            Err(e) => return Err(std::io::Error::other(e.to_string())),
        };
        match frame.kind {
            FrameKind::Job => {
                let reply = JobSpec::decode(&frame.payload)
                    .map_err(|e| format!("bad job payload: {e}"))
                    .and_then(|spec| build_job(&spec));
                match reply {
                    Ok(state) => {
                        let ack = JobAck {
                            num_units: state.prep.num_units() as u64,
                            config_digest: state.prep.config_digest(),
                            world_seed: state.prep.world_seed(),
                            warm_full_skip: state.prep.warm_full_skip(),
                        };
                        eprintln!(
                            "worker: job from {peer} accepted ({} units, {} shards)",
                            state.prep.num_units(),
                            state.num_shards
                        );
                        job = Some(state);
                        write_frame(&mut writer, &Frame::new(FrameKind::JobAck, ack.encode()))?;
                    }
                    Err(reason) => {
                        eprintln!("worker: job from {peer} refused: {reason}");
                        write_frame(
                            &mut writer,
                            &Frame::new(FrameKind::JobErr, reason.into_bytes()),
                        )?;
                    }
                }
            }
            FrameKind::ShardRequest => {
                let Some(state) = job.as_mut() else {
                    write_frame(
                        &mut writer,
                        &Frame::new(FrameKind::JobErr, b"shard request before job".to_vec()),
                    )?;
                    continue;
                };
                if frame.payload.len() != 4 {
                    write_frame(
                        &mut writer,
                        &Frame::new(FrameKind::JobErr, b"bad shard request payload".to_vec()),
                    )?;
                    continue;
                }
                let shard =
                    u32::from_le_bytes(frame.payload[..4].try_into().expect("4-byte shard id"));
                if opts.fail_after.is_some_and(|n| served >= n) {
                    // Chaos lever: die mid-request, leaving the driver
                    // with an in-flight shard to re-queue.
                    eprintln!("worker: injected crash before shard {shard}");
                    std::process::exit(17);
                }
                served += 1;
                let range = shard_range(state.prep.num_units(), state.num_shards, shard);
                eprintln!(
                    "worker: probing shard {shard} (units {}..{})",
                    range.start, range.end
                );
                let (delta, book) = probe_shard(
                    &mut state.sim,
                    &state.config.probe,
                    &state.prep,
                    range,
                    shard,
                );
                write_frame(
                    &mut writer,
                    &Frame::new(
                        FrameKind::ShardResult,
                        encode_shard_result(shard, &delta, &book),
                    ),
                )?;
            }
            FrameKind::RescueRequest => {
                let Some(state) = job.as_mut() else {
                    write_frame(
                        &mut writer,
                        &Frame::new(FrameKind::JobErr, b"rescue request before job".to_vec()),
                    )?;
                    continue;
                };
                if !state.prep.faulted() {
                    write_frame(
                        &mut writer,
                        &Frame::new(
                            FrameKind::JobErr,
                            b"rescue request on a fault-free job".to_vec(),
                        ),
                    )?;
                    continue;
                }
                let (shard, units) = match decode_rescue_request(&frame.payload) {
                    Ok(ok) => ok,
                    Err(e) => {
                        write_frame(
                            &mut writer,
                            &Frame::new(
                                FrameKind::JobErr,
                                format!("bad rescue request: {e}").into_bytes(),
                            ),
                        )?;
                        continue;
                    }
                };
                // Wire-decoded indices must land inside this prep —
                // anything else is a driver/worker skew, refused before
                // it can index out of bounds.
                if units.iter().any(|u| {
                    u.bound_idx >= state.prep.num_bound() || u.domain >= state.prep.num_domains()
                }) {
                    write_frame(
                        &mut writer,
                        &Frame::new(
                            FrameKind::JobErr,
                            b"rescue unit outside prepared sweep".to_vec(),
                        ),
                    )?;
                    continue;
                }
                if opts.fail_after.is_some_and(|n| served >= n) {
                    eprintln!("worker: injected crash before rescue shard {shard}");
                    std::process::exit(17);
                }
                served += 1;
                eprintln!(
                    "worker: probing rescue shard {shard} ({} units)",
                    units.len()
                );
                let delta = probe_rescue_shard(
                    &mut state.sim,
                    &state.config.probe,
                    &state.prep,
                    &units,
                    shard,
                );
                write_frame(
                    &mut writer,
                    &Frame::new(FrameKind::RescueResult, encode_rescue_result(shard, &delta)),
                )?;
            }
            FrameKind::Shutdown => {
                write_frame(&mut writer, &Frame::new(FrameKind::Bye, Vec::new()))?;
                return Ok(());
            }
            other => {
                return Err(std::io::Error::other(format!(
                    "unexpected frame {other:?} from driver"
                )));
            }
        }
    }
}

/// Runs the worker: binds `opts.listen`, announces the bound address
/// on stdout (`clientmap worker listening on <addr>` — scripts parse
/// this to discover ephemeral ports), and serves drivers until killed
/// (or after one connection with `opts.once`).
pub fn run_worker(opts: &WorkerOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(&opts.listen)?;
    let local = listener.local_addr()?;
    println!("clientmap worker listening on {local}");
    std::io::stdout().flush()?;

    for stream in listener.incoming() {
        let stream = stream?;
        if let Err(e) = serve_connection(stream, opts) {
            eprintln!("worker: connection failed: {e}");
        }
        if opts.once {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_faults::FaultConfig;

    /// A scale typo survives the wire intact (the layout does not know
    /// the preset names) and is refused by the job builder — before
    /// any world is generated — with a reason naming it.
    #[test]
    fn job_with_an_unknown_scale_is_refused_by_name() {
        let spec = JobSpec {
            scale: "papr".into(),
            seed: 7,
            duration_hours: 2.0,
            expiry_budget: 0.0,
            batched_probing: true,
            batch_size: 64,
            clustered_probing: false,
            cluster_epsilon: 0.25,
            cluster_escalate_below: 0.5,
            num_shards: 4,
            config_digest: 0,
            faults: FaultConfig::default(),
            prior: None,
        };
        let decoded = JobSpec::decode(&spec.encode()).expect("spec round trip");
        assert_eq!(decoded, spec);
        assert!(decoded.config().is_none());
        let reason = build_job(&decoded).err().expect("job must be refused");
        assert!(reason.contains("unknown scale \"papr\""), "{reason}");
    }
}
