//! The fleet driver: shards a prepared sweep over TCP workers and
//! merges their deltas into byte-identical single-process output.
//!
//! The driver is a [`SweepExecutor`]: the pipeline runs every stage
//! in-process as usual, and only the probing window fans out. Shards
//! live in a shared work queue; each worker connection pulls the next
//! shard, and a worker that disconnects or crashes mid-shard has its
//! in-flight shard pushed back for the survivors — the sweep completes
//! as long as one worker remains. Nothing merges until every shard
//! delta is in, so a failed fleet never ships a partial merge.
//!
//! Fault-injected sweeps add a second, driver-coordinated phase: each
//! shard result carries the shard's per-PoP fault book, the merge
//! folds the books into the global quarantine decision, and the
//! driver dispatches the resulting rescue units back to the (still
//! connected) workers as rescue shards. The two phases ride one
//! persistent connection per worker, so quarantine sees exactly the
//! evidence a single-process sweep would — and produces exactly its
//! bytes.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use clientmap_cacheprobe::resilience::backoff_delay_ms;
use clientmap_cacheprobe::{
    merge_shards, prepare_sweep_in, CacheProbeResult, PopHealth, Preamble, ProbeConfig, ProbeUnit,
    ShardMergeError,
};
use clientmap_core::{PipelineError, SweepExecutor};
use clientmap_net::Prefix;
use clientmap_sim::Sim;
use clientmap_store::{checksum, SweepSnapshot};

use crate::frame::{read_frame, write_frame, Frame, FrameError, FrameKind};
use crate::proto::{
    decode_rescue_result, decode_shard_result, encode_rescue_request, encode_shard_request,
    shard_range, JobAck, JobSpec,
};
use crate::shutdown;

/// How the driver reaches and partitions its fleet.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Worker addresses (`host:port`).
    pub workers: Vec<String>,
    /// Shards to partition the unit list into; `0` picks 4 × workers
    /// (clamped to the unit count) so re-queues stay balanced.
    pub num_shards: u32,
    /// Budget for the initial connect to each worker (retried within,
    /// under seeded exponential backoff).
    pub connect_timeout: Duration,
    /// Per-frame read/write timeout once connected; an expiry counts
    /// as a lost worker and re-queues the in-flight shard. A fleet
    /// that loses *every* worker to deadline expiries surfaces as
    /// [`PipelineError::Timeout`] instead of a generic fleet failure.
    pub io_timeout: Duration,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            workers: Vec::new(),
            num_shards: 0,
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(600),
        }
    }
}

/// The fleet [`SweepExecutor`]: prepare locally, probe remotely,
/// merge in shard order.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// Fleet topology and timeouts.
    pub opts: FleetOptions,
    /// The scale preset name (`tiny`, `small`, `paper`) workers use to
    /// regenerate the same world.
    pub scale: String,
}

impl FleetSweep {
    /// A driver over `opts` for worlds of the named scale preset.
    pub fn new(opts: FleetOptions, scale: impl Into<String>) -> FleetSweep {
        FleetSweep {
            opts,
            scale: scale.into(),
        }
    }
}

fn merge_err(e: ShardMergeError) -> PipelineError {
    PipelineError::Fleet {
        worker: "merge".into(),
        message: e.to_string(),
    }
}

impl SweepExecutor for FleetSweep {
    fn run_sweep(
        &mut self,
        sim: &mut Sim,
        cfg: &ProbeConfig,
        universe: &[Prefix],
        preamble: &mut Preamble,
        timings: &mut Vec<(String, f64)>,
        prior: Option<&SweepSnapshot>,
    ) -> Result<(CacheProbeResult, SweepSnapshot), PipelineError> {
        if self.opts.workers.is_empty() {
            return Err(PipelineError::Fleet {
                worker: "driver".into(),
                message: "no worker addresses given".into(),
            });
        }

        let prep = prepare_sweep_in(sim, cfg, universe, preamble, timings, prior);
        let n = prep.num_units();
        if prep.warm_full_skip() || n == 0 {
            // Nothing to probe anywhere: the merge finishes from the
            // prior (or from zero units) without touching the fleet.
            return merge_shards(
                sim,
                cfg,
                prep,
                Vec::new(),
                Vec::new(),
                |_| Ok(Vec::new()),
                timings,
            )
            .map_err(merge_err);
        }

        let auto = 4 * self.opts.workers.len() as u32;
        let shards = if self.opts.num_shards == 0 {
            auto
        } else {
            self.opts.num_shards
        }
        .clamp(1, n as u32);
        let spec = JobSpec {
            scale: self.scale.clone(),
            seed: sim.world().config.seed,
            duration_hours: cfg.duration_hours,
            expiry_budget: cfg.expiry_budget,
            batched_probing: cfg.batched_probing,
            clustered_probing: cfg.clustered_probing,
            cluster_epsilon: cfg.cluster_epsilon,
            cluster_escalate_below: cfg.cluster_escalate_below,
            num_shards: shards,
            config_digest: prep.config_digest(),
            faults: sim.fault_plan().config(),
            prior: prior.map(SweepSnapshot::encode),
        };

        let num_workers = self.opts.workers.len();
        let shared = Shared::default();
        shared.state.lock().expect("state lock").alive = num_workers;
        let opts = &self.opts;
        let num_units = n as u64;

        let out = std::thread::scope(|scope| {
            for addr in &opts.workers {
                let shared = &shared;
                let spec = &spec;
                scope.spawn(move || {
                    let res = serve_worker(addr, opts, spec, num_units, shared);
                    let mut st = shared.state.lock().expect("state lock");
                    st.alive -= 1;
                    if let Err(failure) = res {
                        eprintln!("driver: worker {addr} lost: {}", failure.message);
                        st.losses.push((addr.clone(), failure));
                    }
                    drop(st);
                    shared.cond.notify_all();
                });
            }
            let main = run_phase(&shared, PhaseKind::Main, shards, Vec::new());
            let merged = main.and_then(|deltas| {
                let books = std::mem::take(&mut shared.state.lock().expect("state lock").books);
                // The merge calls back only with units to rescue. They
                // are split over the configured worker count, not the
                // live one, so a mid-run crash cannot change the split
                // (which never changes the merged bytes anyway: rescue
                // record keys are disjoint across units).
                let rescue = |units: Vec<ProbeUnit>| {
                    let shards = (num_workers as u32).min(units.len() as u32);
                    run_phase(&shared, PhaseKind::Rescue, shards, units).map_err(|e| e.to_string())
                };
                merge_shards(sim, cfg, prep, deltas, books, rescue, timings).map_err(merge_err)
            });
            // Merge done (or failed): release every worker thread so
            // the scope can join them.
            shared.state.lock().expect("state lock").shutdown = true;
            shared.cond.notify_all();
            merged
        });

        // A fleet whose every loss was a deadline expiry failed on
        // time, not on protocol — surface the typed deadline error.
        let losses = shared.state.into_inner().expect("state lock").losses;
        match out {
            Err(PipelineError::Fleet { .. })
                if !losses.is_empty() && losses.iter().all(|(_, f)| f.timed_out) =>
            {
                Err(PipelineError::Timeout {
                    peer: losses.last().expect("non-empty losses").0.clone(),
                    seconds: self.opts.io_timeout.as_secs(),
                })
            }
            other => other,
        }
    }
}

/// The sweep's two dispatch rounds: every sweep runs the main one; a
/// faulted sweep whose merge quarantined PoPs runs the rescue one after
/// it, over the same connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    Main,
    Rescue,
}

impl PhaseKind {
    /// What a unit of this phase's work is called, in every progress
    /// line, re-queue line and failure message.
    fn label(self) -> &'static str {
        match self {
            PhaseKind::Main => "shard",
            PhaseKind::Rescue => "rescue shard",
        }
    }
}

/// A unit of fleet work: one shard of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Task {
    phase: PhaseKind,
    shard: u32,
}

/// The phase now collecting results: one delta slot per shard, and the
/// driver-planned units a rescue phase's shards partition (a main
/// phase has none: workers cut main shards from their own prep).
#[derive(Default)]
struct Phase {
    slots: Vec<Option<SweepSnapshot>>,
    units: Arc<Vec<ProbeUnit>>,
}

/// Why an exchange — and with it the worker's connection — failed.
#[derive(Debug, PartialEq)]
struct Failure {
    message: String,
    /// Whether it was a socket-deadline expiry (drives the all-timeouts
    /// → [`PipelineError::Timeout`] upgrade).
    timed_out: bool,
}

/// Anything but a transport error is a plain message.
impl From<String> for Failure {
    fn from(message: String) -> Failure {
        let timed_out = false;
        Failure { message, timed_out }
    }
}

/// Cross-thread dispatch state, guarded by one mutex: the task queue,
/// the current phase's result slots, and fleet liveness.
#[derive(Default)]
struct State {
    queue: VecDeque<Task>,
    phase: Phase,
    books: Vec<PopHealth>,
    shutdown: bool,
    alive: usize,
    /// Lost workers: address, and what ended the connection.
    losses: Vec<(String, Failure)>,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    cond: Condvar,
}

impl Shared {
    /// One bounded wait on the condvar (bounded because a SIGINT
    /// notifies nobody and must still be noticed).
    fn wait<'a>(&self, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        let tick = Duration::from_millis(50);
        self.cond.wait_timeout(st, tick).expect("state lock").0
    }
}

/// Runs one phase from the merging thread: queues its `shards` tasks
/// (a rescue phase's shards partition `units`), then blocks until the
/// connection threads have filed every delta — returned in shard order
/// — or the fleet is out of workers.
fn run_phase(
    shared: &Shared,
    kind: PhaseKind,
    shards: u32,
    units: Vec<ProbeUnit>,
) -> Result<Vec<SweepSnapshot>, PipelineError> {
    let total = shards as usize;
    let mut st = shared.state.lock().expect("state lock");
    let (slots, units) = (vec![None; total], Arc::new(units));
    st.phase = Phase { slots, units };
    let tasks = (0..shards).map(|shard| Task { phase: kind, shard });
    st.queue.extend(tasks);
    shared.cond.notify_all();
    loop {
        let completed = st.phase.slots.iter().flatten().count();
        if completed == total {
            return Ok(st.phase.slots.drain(..).flatten().collect());
        }
        if st.alive == 0 && shutdown::requested() {
            return Err(PipelineError::Interrupted { completed, total });
        }
        if st.alive == 0 {
            let worker = st
                .losses
                .last()
                .map_or("fleet", |(addr, _)| addr)
                .to_string();
            let reasons = st
                .losses
                .iter()
                .map(|(addr, f)| format!("{addr}: {}", f.message));
            let mut message = reasons.collect::<Vec<_>>().join("; ");
            if message.is_empty() {
                let label = kind.label();
                message = format!("{completed}/{total} {label}s completed and no workers remain");
            }
            return Err(PipelineError::Fleet { worker, message });
        }
        st = shared.wait(st);
    }
}

/// Pulls the next task off the shared queue, waiting through quiet
/// stretches (merge in progress, shards in flight elsewhere) until the
/// driver flags shutdown.
fn next_task(shared: &Shared) -> Option<Task> {
    let mut st = shared.state.lock().expect("state lock");
    loop {
        if st.shutdown || shutdown::requested() {
            return None;
        }
        if let Some(task) = st.queue.pop_front() {
            return Some(task);
        }
        st = shared.wait(st);
    }
}

/// One worker connection: handshake, then pull tasks (main shards,
/// then any rescue shards) until the driver flags shutdown or the
/// worker is lost. Returns `Err` only when the worker itself failed
/// (its in-flight task, if any, is already back in the queue).
fn serve_worker(
    addr: &str,
    opts: &FleetOptions,
    spec: &JobSpec,
    num_units: u64,
    shared: &Shared,
) -> Result<(), Failure> {
    let stream = connect_with_retry(addr, opts.connect_timeout)?;
    stream.set_read_timeout(Some(opts.io_timeout)).ok();
    stream.set_write_timeout(Some(opts.io_timeout)).ok();
    let clone = stream.try_clone().map_err(|e| e.to_string())?;
    let (mut reader, mut writer) = (BufReader::new(clone), stream);

    let job = Frame::new(FrameKind::Job, spec.encode());
    let ack = exchange(&mut reader, &mut writer, "job", &job, FrameKind::JobAck)?;
    let ack = JobAck::decode(&ack).map_err(|e| format!("bad job ack: {e}"))?;
    if ack.num_units != num_units || ack.config_digest != spec.config_digest {
        let message = format!(
            "worker prep diverged: {} units / digest {:#x} vs driver {} / {:#x}",
            ack.num_units, ack.config_digest, num_units, spec.config_digest
        );
        return Err(message.into());
    }

    while let Some(task) = next_task(shared) {
        run_task(&mut reader, &mut writer, task, shared, addr)?;
    }

    // Clean exit (sweep complete or interrupt drained): tell the
    // worker to hang up. Failures here are harmless — the sweep
    // already has every delta it needs from this connection.
    let _ = write_frame(&mut writer, &Frame::new(FrameKind::Shutdown, Vec::new()));
    let _ = read_frame::<FrameKind>(&mut reader);
    Ok(())
}

/// The one request/reply round trip every conversation with a worker
/// is made of (the job handshake, and each shard of either phase):
/// sends `request`, reads one frame back, and returns its payload if it
/// is of the `expected` kind. A `JobErr` reply (the worker's refusal,
/// with its reason), any other kind, and a transport failure each
/// become a [`Failure`] naming `what` was being asked.
fn exchange(
    reader: &mut impl Read,
    writer: &mut impl Write,
    what: &str,
    request: &Frame,
    expected: FrameKind,
) -> Result<Vec<u8>, Failure> {
    let wire = |doing: &str, e: FrameError| Failure {
        message: format!("{doing} {what}: {e}"),
        timed_out: matches!(e, FrameError::TimedOut),
    };
    write_frame(writer, request).map_err(|e| wire("sending", e.into()))?;
    let reply: Frame = read_frame(reader).map_err(|e| wire("awaiting the reply to", e))?;
    match reply.kind {
        kind if kind == expected => Ok(reply.payload),
        FrameKind::JobErr => {
            let reason = String::from_utf8_lossy(&reply.payload);
            Err(format!("{what} refused: {reason}").into())
        }
        other => Err(format!("unexpected {other:?} reply to {what}").into()),
    }
}

/// Asks the worker for one shard; returns its `(delta, fault book)`
/// once the reply is known to answer what was asked.
fn request_task(
    reader: &mut impl Read,
    writer: &mut impl Write,
    Task { phase, shard }: Task,
    shared: &Shared,
) -> Result<(SweepSnapshot, Vec<PopHealth>), Failure> {
    let label = phase.label();
    let what = format!("{label} request");
    let (id, delta, book) = match phase {
        PhaseKind::Main => {
            let request = Frame::new(FrameKind::ShardRequest, encode_shard_request(shard));
            let reply = exchange(reader, writer, &what, &request, FrameKind::ShardResult)?;
            decode_shard_result(&reply)
        }
        PhaseKind::Rescue => {
            let st = shared.state.lock().expect("state lock");
            let (units, shards) = (Arc::clone(&st.phase.units), st.phase.slots.len() as u32);
            drop(st);
            let request =
                encode_rescue_request(shard, &units[shard_range(units.len(), shards, shard)]);
            let request = Frame::new(FrameKind::RescueRequest, request);
            let reply = exchange(reader, writer, &what, &request, FrameKind::RescueResult)?;
            decode_rescue_result(&reply).map(|(id, delta)| (id, delta, Vec::new()))
        }
    }
    .map_err(|e| format!("bad {label} result: {e}"))?;
    if id != shard {
        return Err(format!("{label} id mismatch: asked {shard}, got {id}").into());
    }
    Ok((delta, book))
}

/// Runs one task over a worker connection and files its delta (and, in
/// the main phase, the shard's fault book) in the current phase. On any
/// failure the task is back at the *front* of the queue before the
/// error returns, so survivors can pick it up the moment the caller
/// reports the worker lost.
fn run_task(
    reader: &mut impl Read,
    writer: &mut impl Write,
    task: Task,
    shared: &Shared,
    addr: &str,
) -> Result<(), Failure> {
    let result = request_task(reader, writer, task, shared);
    let (label, shard) = (task.phase.label(), task.shard);
    let mut st = shared.state.lock().expect("state lock");
    let filed = result.map(|(delta, book)| {
        st.phase.slots[shard as usize] = Some(delta);
        st.books.extend(book);
        let done = st.phase.slots.iter().flatten().count();
        format!(
            "{label} {shard} done on {addr} ({done}/{})",
            st.phase.slots.len()
        )
    });
    if filed.is_err() {
        st.queue.push_front(task);
    }
    drop(st);
    shared.cond.notify_all();
    match &filed {
        Ok(line) => eprintln!("driver: {line}"),
        Err(_) => eprintln!("driver: re-queued {label} {shard} after losing {addr}"),
    }
    filed.map(drop)
}

/// Connects within `budget`, sleeping between attempts under the same
/// seeded exponential-backoff discipline the probe retries use — the
/// address seeds the jitter, so a fleet of drivers hammering one
/// recovering worker spreads its retries deterministically.
fn connect_with_retry(addr: &str, budget: Duration) -> Result<TcpStream, String> {
    let start = Instant::now();
    let deadline = start + budget;
    let attempt_timeout = Duration::from_secs(2)
        .min(budget)
        .max(Duration::from_millis(100));
    let seed = checksum(addr.as_bytes());
    let mut retry: u32 = 0;
    loop {
        let addrs: Vec<_> = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?
            .collect();
        let mut last: Option<std::io::Error> = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, attempt_timeout) {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "cannot connect to {addr}: {}",
                last.map(|e| e.to_string())
                    .unwrap_or_else(|| "no addresses resolved".into())
            ));
        }
        retry += 1;
        let delay =
            backoff_delay_ms(seed, start.elapsed().as_millis() as u64, retry.min(6), 25).min(2_000);
        std::thread::sleep(Duration::from_millis(delay));
    }
}

#[cfg(test)]
mod tests;
