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
use std::time::Duration;

use clientmap_cacheprobe::{prepare_sweep, probe_rescue_shard, probe_shard, SweepPrep};
use clientmap_core::SweepSession;
use clientmap_sim::Sim;

use crate::frame::{read_frame_deadline, write_frame, Frame, FrameKind, FrameRead};
use crate::proto::{
    decode_rescue_request, decode_shard_request, encode_rescue_result, encode_shard_result,
    shard_range, JobAck, JobSpec,
};

/// How a worker process runs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Address to listen on (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Exit after serving one driver connection (tests, benches).
    pub once: bool,
    /// Deterministic crash injection: serve this many shard requests
    /// (of either phase), then exit the process without replying to
    /// the next one — the chaos lever for the driver's re-queue path.
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
    session: SweepSession,
    sim: Sim,
    prep: SweepPrep,
    num_shards: u32,
}

/// Rebuilds the driver's sweep up to the probing window: the job's
/// world opened the way every sweep opens it ([`SweepSession::open`] —
/// so a prior from another world or probing configuration is refused
/// with the message `clientmap run --snapshot-in` prints), then the
/// same preparation the driver ran.
fn build_job(spec: &JobSpec) -> Result<JobState, String> {
    let config = spec.config().ok_or_else(|| {
        format!(
            "unknown scale {:?} (expected tiny, small or paper)",
            spec.scale
        )
    })?;
    let prior = spec
        .prior_snapshot()
        .map_err(|e| format!("prior snapshot unusable: {e}"))?;
    let mut session = SweepSession::new(config);
    let mut sim = session.open(prior.as_ref()).map_err(|e| e.to_string())?;
    let prep = prepare_sweep(
        &mut sim,
        &session.config().probe,
        session.universe(),
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
        session,
        sim,
        prep,
        num_shards: spec.num_shards,
    })
}

/// Accepts a job: rebuilds the sweep it describes and acknowledges
/// with this worker's own unit count and digest.
fn accept_job(payload: &[u8], peer: &str) -> Result<(JobState, Frame), String> {
    let spec = JobSpec::decode(payload).map_err(|e| format!("bad job payload: {e}"))?;
    let state = build_job(&spec)?;
    let ack = JobAck {
        num_units: state.prep.num_units() as u64,
        config_digest: state.prep.config_digest(),
        world_seed: state.prep.world_seed(),
        warm_full_skip: state.prep.warm_full_skip(),
    };
    eprintln!(
        "worker: job from {peer} accepted ({} units, {} shards)",
        ack.num_units, state.num_shards
    );
    Ok((state, Frame::new(FrameKind::JobAck, ack.encode())))
}

/// Answers a `ShardRequest` or a `RescueRequest`: validates it against
/// the prepared job, probes, and returns the result frame — or the
/// reason the request is refused. `served` counts requests answered on
/// this connection; the `--fail-after` chaos lever fires here, after
/// validation and before probing, leaving the driver with an in-flight
/// shard of whichever phase to re-queue.
fn answer_request(
    request: &Frame,
    job: Option<&mut JobState>,
    served: &mut u32,
    opts: &WorkerOptions,
) -> Result<Frame, String> {
    let rescue = request.kind == FrameKind::RescueRequest;
    let label = if rescue { "rescue shard" } else { "shard" };
    let state = job.ok_or_else(|| format!("{label} request before job"))?;
    let (shard, rescue_units) = if rescue {
        if !state.prep.faulted() {
            return Err("rescue request on a fault-free job".into());
        }
        let (shard, units) = decode_rescue_request(&request.payload)
            .map_err(|e| format!("bad rescue request: {e}"))?;
        // Wire-decoded indices must land inside this prep — anything
        // else is a driver/worker skew, refused before it can index
        // out of bounds.
        let (bounds, domains) = (state.prep.num_bound(), state.prep.num_domains());
        if units
            .iter()
            .any(|u| u.bound_idx >= bounds || u.domain >= domains)
        {
            return Err("rescue unit outside prepared sweep".into());
        }
        // The planner never emits one: a scope list is what a rescue
        // unit is for.
        if units.iter().any(|u| u.scopes.is_empty()) {
            return Err("rescue unit with no scopes".into());
        }
        (shard, Some(units))
    } else {
        let shard = decode_shard_request(&request.payload)
            .map_err(|e| format!("bad shard request: {e}"))?;
        (shard, None)
    };
    if opts.fail_after.is_some_and(|n| *served >= n) {
        eprintln!("worker: injected crash before {label} {shard}");
        std::process::exit(17);
    }
    *served += 1;
    let (sim, probe) = (&mut state.sim, &state.session.config().probe);
    Ok(match rescue_units {
        None => {
            let range = shard_range(state.prep.num_units(), state.num_shards, shard);
            eprintln!(
                "worker: probing shard {shard} (units {}..{})",
                range.start, range.end
            );
            let (delta, book) = probe_shard(sim, probe, &state.prep, range, shard);
            Frame::new(
                FrameKind::ShardResult,
                encode_shard_result(shard, &delta, &book),
            )
        }
        Some(units) => {
            eprintln!(
                "worker: probing rescue shard {shard} ({} units)",
                units.len()
            );
            let delta = probe_rescue_shard(sim, probe, &state.prep, &units, shard);
            Frame::new(FrameKind::RescueResult, encode_rescue_result(shard, &delta))
        }
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
        let reply = match frame.kind {
            FrameKind::Job => accept_job(&frame.payload, &peer).map(|(state, ack)| {
                job = Some(state);
                ack
            }),
            FrameKind::ShardRequest | FrameKind::RescueRequest => {
                answer_request(&frame, job.as_mut(), &mut served, opts)
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
        };
        // Every refusal, of a job or of a request, is a `JobErr` frame
        // carrying the reason; the connection stays up.
        let reply = reply.unwrap_or_else(|reason| {
            eprintln!("worker: {:?} from {peer} refused: {reason}", frame.kind);
            Frame::new(FrameKind::JobErr, reason.into_bytes())
        });
        write_frame(&mut writer, &reply)?;
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
    use crate::proto::encode_rescue_request;
    use clientmap_cacheprobe::ProbeUnit;
    use clientmap_faults::{FaultConfig, FaultProfile};
    use clientmap_store::SweepSnapshot;

    fn tiny_job() -> JobSpec {
        JobSpec {
            scale: "tiny".into(),
            seed: 7,
            duration_hours: 2.0,
            expiry_budget: 0.0,
            batched_probing: true,
            clustered_probing: false,
            cluster_epsilon: 0.25,
            cluster_escalate_below: 0.5,
            num_shards: 4,
            config_digest: 0,
            faults: FaultConfig::default(),
            prior: None,
        }
    }

    /// A scale typo survives the wire intact (the layout does not know
    /// the preset names) and is refused by the job builder — before
    /// any world is generated — with a reason naming it.
    #[test]
    fn job_with_an_unknown_scale_is_refused_by_name() {
        let spec = JobSpec {
            scale: "papr".into(),
            ..tiny_job()
        };
        let decoded = JobSpec::decode(&spec.encode()).expect("spec round trip");
        assert_eq!(decoded, spec);
        assert!(decoded.config().is_none());
        let reason = build_job(&decoded).err().expect("job must be refused");
        assert!(reason.contains("unknown scale \"papr\""), "{reason}");
    }

    /// The worker opens its world where every sweep does, so a prior
    /// from another world seed is refused — in the words `clientmap run
    /// --snapshot-in` uses — instead of being prepared against. (The
    /// handshake's own check compares only the two config digests.)
    #[test]
    fn job_with_a_prior_from_another_world_is_refused_as_a_warm_start_error() {
        let spec = JobSpec {
            prior: Some(SweepSnapshot::new(8, 0).encode()),
            ..tiny_job()
        };
        let reason = build_job(&spec).err().expect("job must be refused");
        assert_eq!(
            reason,
            "pipeline stage warm-start failed: \
             snapshot is from world seed 8 but this run uses seed 7"
        );
    }

    /// A rescue unit with an empty scope list is refused like any other
    /// skew — by name, nothing probed, the connection still up. (Its
    /// stream's slot budget would be divided by zero scopes.)
    #[test]
    fn rescue_unit_with_no_scopes_is_refused() {
        let spec = JobSpec {
            faults: FaultConfig::profile(FaultProfile::Lossy, 5),
            ..tiny_job()
        };
        // The state `build_job` leaves behind, minus its digest
        // handshake (the spec carries no driver's digest here).
        let mut session = SweepSession::new(spec.config().expect("tiny is a preset"));
        let mut sim = session.open(None).expect("world opens");
        let prep = prepare_sweep(
            &mut sim,
            &session.config().probe,
            session.universe(),
            &mut Vec::new(),
            None,
        );
        let mut state = JobState {
            session,
            sim,
            prep,
            num_shards: spec.num_shards,
        };

        let unit = ProbeUnit {
            bound_idx: 0,
            domain: 0,
            scopes: Vec::new(),
        };
        let request = Frame::new(FrameKind::RescueRequest, encode_rescue_request(0, &[unit]));
        let mut served = 0;
        let got = answer_request(
            &request,
            Some(&mut state),
            &mut served,
            &WorkerOptions::default(),
        );
        assert_eq!(got.err().as_deref(), Some("rescue unit with no scopes"));
        assert_eq!(served, 0);
    }

    /// The one refusal that needs no prepared sweep to reach: a request
    /// of either phase before any job, refused naming the phase.
    #[test]
    fn requests_before_a_job_are_refused_naming_the_phase() {
        for (kind, want) in [
            (FrameKind::ShardRequest, "shard request before job"),
            (FrameKind::RescueRequest, "rescue shard request before job"),
        ] {
            let request = Frame::new(kind, Vec::new());
            let got = answer_request(&request, None, &mut 0, &WorkerOptions::default());
            assert_eq!(got.err().as_deref(), Some(want));
        }
    }
}
