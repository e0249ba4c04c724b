//! The resident sweep service: cadenced warm re-sweeps on one thread,
//! lock-free query answering on the rest.
//!
//! `serve` owns the sweep store for its lifetime. A dedicated sweep
//! thread holds one [`SweepSession`] and sweeps it in a plain loop
//! (`run_sweeps`); after each sweep it diffs the new verdict table
//! against the published generation's, appends the delta to the
//! append-only event log
//! ([`clientmap_store::eventlog`]), moves the table into an immutable
//! [`Generation`], and publishes it into a
//! [`GenerationCell`] with one atomic store. Query connections never
//! take a lock: each request clones the `Arc` of whatever generation
//! is current (or the specific generation it asked for) and answers
//! from that consistent snapshot while the next sweep is still
//! probing.
//!
//! Shutdown is cooperative: a client sends [`Query::Stop`]; the
//! service finishes its remaining sweeps, drains connections, and
//! returns a [`ServeSummary`]. Determinism: the same seed, sweep
//! count, and query trace produce a byte-identical event log,
//! byte-identical responses, and a byte-identical final snapshot —
//! regardless of thread count or query/sweep interleaving.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use clientmap_core::{PipelineConfig, PipelineError, SweepSession};
use clientmap_fleet::{read_frame_deadline, write_frame, Frame, FrameError, FrameRead};
use clientmap_store::{
    verdict_delta, EventLog, FailureEvent, GenerationCell, SweepEvent, SweepSnapshot,
};

use crate::engine::Generation;
use crate::proto::{Query, QueryKind, Reply};

/// The most sweeps one service lifetime can be asked for: every
/// generation gets its slot in the [`GenerationCell`] before the first
/// sweep runs (16 bytes each, all touched), and stays addressable
/// until the service exits.
pub const MAX_SWEEPS: u32 = 65_536;

/// Everything `clientmap serve` needs to run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// The pipeline configuration every sweep runs under.
    pub config: PipelineConfig,
    /// Warm-chained sweeps to run before the service idles (1 to
    /// [`MAX_SWEEPS`]).
    pub sweeps: u32,
    /// Snapshot to warm-start sweep 1 from (`None` = cold).
    pub prior: Option<SweepSnapshot>,
    /// Event-log path. Created fresh; an existing file is an error —
    /// the log is this run's authoritative history.
    pub log_path: PathBuf,
    /// Compact the log (write a base snapshot, rewind the tail) after
    /// every N sweeps; `0` never compacts.
    pub compact_every: u32,
    /// Where to write the final sweep snapshot, if anywhere.
    pub snapshot_out: Option<PathBuf>,
    /// Per-frame write deadline on query connections: a client that
    /// stalls mid-reply for this long is dropped, never the service.
    pub io_timeout: Duration,
    /// Chaos lever: fail sweep N with a typed `PipelineError` instead
    /// of running it — the injected death that drives the service into
    /// degraded mode.
    pub fail_sweep: Option<u32>,
    /// Told the bound address right after binding — how an in-process
    /// harness (the benchmark, tests) finds a port-0 listener without
    /// scraping stdout.
    pub ready: Option<std::sync::mpsc::Sender<std::net::SocketAddr>>,
}

/// What a completed serve run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Sweeps completed (= generations published).
    pub sweeps: u32,
    /// Final sweep epoch.
    pub final_epoch: u32,
    /// Event-log length in bytes at shutdown.
    pub log_len: u64,
    /// Event records in the log at shutdown (post-compaction tail).
    pub log_records: usize,
    /// Queries answered across all connections.
    pub queries_answered: u64,
    /// Whether the run ended degraded: the sweep chain died after at
    /// least one generation, and the service kept answering from the
    /// last one (the death is a typed failure record in the log).
    pub degraded: bool,
}

/// Why the service could not run (or finish).
#[derive(Debug)]
pub enum ServeError {
    /// Binding or accepting on the listen address failed.
    Io(std::io::Error),
    /// A sweep failed; the service shut down without a partial
    /// generation.
    Pipeline(PipelineError),
    /// The event log exists already, or refused an append or
    /// compaction.
    Log(String),
    /// The sweep count is outside `1..=`[`MAX_SWEEPS`]: a service with
    /// no sweep would never publish a generation, and every sweep gets
    /// its generation slot before the first one runs.
    SweepCount(u32),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Pipeline(e) => write!(f, "serve sweep failed: {e}"),
            ServeError::Log(e) => write!(f, "serve event log failed: {e}"),
            ServeError::SweepCount(n) => {
                write!(f, "{n} sweeps asked for, a service runs 1 to {MAX_SWEEPS}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// Cross-thread service state: the published generations and the
/// wait/stop machinery.
struct ServerState {
    generations: GenerationCell<Generation>,
    /// Guards nothing but the condvar; the published count lives in
    /// the cell itself.
    wake: Mutex<()>,
    cond: Condvar,
    sweeps_done: AtomicBool,
    stop: AtomicBool,
    /// Set (before `sweeps_done`) when the sweep chain died after
    /// publishing at least one generation; every `Info` reply carries
    /// it so clients can see they are reading stale truth.
    degraded: AtomicBool,
    queries: std::sync::atomic::AtomicU64,
}

impl ServerState {
    /// Blocks until generation `seq` exists, all sweeps ended, or the
    /// service is stopping — whichever comes first.
    fn wait_for(&self, seq: u64) -> Option<Arc<Generation>> {
        let mut guard = self.wake.lock().expect("wake lock");
        loop {
            if let Some(g) = self.generations.get(seq) {
                return Some(g);
            }
            if self.sweeps_done.load(Ordering::SeqCst) || self.stop.load(Ordering::SeqCst) {
                return None;
            }
            let (g, _) = self
                .cond
                .wait_timeout(guard, Duration::from_millis(100))
                .expect("wake lock");
            guard = g;
        }
    }

    fn notify(&self) {
        let _guard = self.wake.lock().expect("wake lock");
        self.cond.notify_all();
    }
}

/// Runs the service to completion: binds `opts.addr`, announces
/// `clientmap serve listening on <addr>` on stdout, sweeps
/// `opts.sweeps` times while answering queries, and returns once the
/// sweeps are done and a client has asked it to stop. An existing
/// event log or a sweep count outside `1..=`[`MAX_SWEEPS`] is refused
/// before any of that: a harness told "ready" is never talking to a
/// service about to return an error.
pub fn serve(opts: ServeOptions) -> Result<ServeSummary, ServeError> {
    if !(1..=MAX_SWEEPS).contains(&opts.sweeps) {
        return Err(ServeError::SweepCount(opts.sweeps));
    }
    if opts.log_path.exists() {
        return Err(ServeError::Log(format!(
            "event log {} already exists; serve writes a fresh log per run",
            opts.log_path.display()
        )));
    }

    let listener = TcpListener::bind(&opts.addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    println!("clientmap serve listening on {local}");
    std::io::stdout().flush().ok();
    if let Some(ready) = &opts.ready {
        ready.send(local).ok();
    }

    let state = Arc::new(ServerState {
        generations: GenerationCell::with_capacity(opts.sweeps as usize),
        wake: Mutex::new(()),
        cond: Condvar::new(),
        sweeps_done: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        degraded: AtomicBool::new(false),
        queries: std::sync::atomic::AtomicU64::new(0),
    });

    let mut sweep_result: Result<(EventLog, Option<SweepSnapshot>, bool), ServeError> =
        Err(ServeError::Log("sweep thread never ran".into()));

    std::thread::scope(|scope| {
        // The sweep thread: the only writer of the event log and the
        // only publisher of generations. A chain that dies *after*
        // publishing comes back `Ok` with the degraded flag — the
        // service keeps serving the last generation instead of dying
        // with it.
        let sweep_state = Arc::clone(&state);
        let sweep_opts = &opts;
        let sweep_result = &mut sweep_result;
        scope.spawn(move || {
            *sweep_result = run_sweeps(sweep_opts, &sweep_state);
            if matches!(&*sweep_result, Ok((_, _, true))) {
                // Degraded must be visible before sweeps_done releases
                // WaitGen waiters, so no reply can claim healthy truth
                // from a dead chain.
                sweep_state.degraded.store(true, Ordering::SeqCst);
            }
            sweep_state.sweeps_done.store(true, Ordering::SeqCst);
            if sweep_result.is_err() {
                // A chain that died before any generation can never
                // satisfy a stop request; release waiting clients and
                // the accept loop.
                sweep_state.stop.store(true, Ordering::SeqCst);
            }
            sweep_state.notify();
        });

        // The accept loop: every connection gets its own scoped
        // thread; readers never block the sweep thread.
        while !(state.stop.load(Ordering::SeqCst) && state.sweeps_done.load(Ordering::SeqCst)) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn_state = Arc::clone(&state);
                    let io_timeout = opts.io_timeout;
                    scope.spawn(move || {
                        let _ = handle_connection(stream, &conn_state, io_timeout);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    });

    let (log, last, degraded) = sweep_result?;
    if let (Some(path), Some(snap)) = (&opts.snapshot_out, &last) {
        std::fs::write(path, snap.encode())?;
    }
    Ok(ServeSummary {
        sweeps: state.generations.published() as u32,
        final_epoch: last.map(|s| s.epoch).unwrap_or(0),
        log_len: log.len(),
        log_records: log.offsets().len(),
        queries_answered: state.queries.load(Ordering::SeqCst),
        degraded,
    })
}

/// The sweep cadence: one [`SweepSession`], swept `opts.sweeps` times —
/// sweep, diff, append, publish — each sweep warm-started from the
/// snapshot of the one before (sweep 1 from `opts.prior`).
///
/// The chain is supervised. A sweep that fails (`PipelineError`) or
/// panics *after* at least one generation was published does not kill
/// the service: the failure is appended to the event log as a typed
/// [`FailureEvent`] and the call returns `Ok` with the degraded flag
/// set, leaving every published generation answerable. Only a chain
/// that dies before its first generation is a hard [`ServeError`], and
/// so is a log that refuses an append or a compaction.
fn run_sweeps(
    opts: &ServeOptions,
    state: &ServerState,
) -> Result<(EventLog, Option<SweepSnapshot>, bool), ServeError> {
    let log_err = |e: std::io::Error| ServeError::Log(e.to_string());
    let mut session = SweepSession::new(opts.config.clone());
    // The newest snapshot of the chain: the prior, then each published
    // sweep's own.
    let mut last = opts.prior.clone();
    let mut log: Option<EventLog> = None;

    for sweep_no in 1..=opts.sweeps {
        let swept = if opts.fail_sweep == Some(sweep_no) {
            Err(PipelineError::Stage {
                stage: "injected-failure".into(),
                message: format!("sweep {sweep_no} failed by --fail-sweep"),
            })
        } else {
            // A panicking sweep is the same failure as a returned
            // error: typed, logged, survivable.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.sweep(last.as_ref())
            }))
            .unwrap_or_else(|payload| {
                Err(PipelineError::Stage {
                    stage: "sweep-panic".into(),
                    message: panic_message(payload),
                })
            })
        };
        let out = match swept {
            Ok(out) => out,
            Err(e) => {
                // Before the first generation there is nothing to keep
                // serving. After it: record the death in the log and
                // keep serving, degraded.
                let Some(mut log) = log else {
                    return Err(ServeError::Pipeline(e));
                };
                let failure = FailureEvent {
                    generation: u64::from(sweep_no),
                    message: e.to_string(),
                };
                log.append_failure(&failure).map_err(log_err)?;
                eprintln!(
                    "serve: sweep {sweep_no} failed ({e}); serving degraded from generation {}",
                    sweep_no - 1
                );
                return Ok((log, last, true));
            }
        };

        // The log is created on sweep 1: its header pins the (world
        // seed, config digest) pair, which only a finished sweep can
        // vouch for.
        let log = match &mut log {
            Some(log) => log,
            None => log.insert(
                EventLog::create(
                    &opts.log_path,
                    out.sweep.world_seed,
                    out.sweep.config_digest,
                )
                .map_err(log_err)?,
            ),
        };

        // The table is built once per publish: diffed against the last
        // published generation's for the log, then moved into the new
        // generation.
        let table = out.cache_probe.verdict_table();
        let previous = state.generations.current();
        let changes = verdict_delta(previous.as_deref().map(|g| &g.verdicts), &table);
        let event = SweepEvent {
            epoch: out.sweep.epoch,
            generation: u64::from(sweep_no),
            measured_slash24s: table.count_measured(),
            changes,
        };
        log.append(&event).map_err(log_err)?;
        if opts.compact_every > 0 && sweep_no % opts.compact_every == 0 {
            log.compact(&out.sweep).map_err(log_err)?;
        }

        let generation = Generation::from_table(u64::from(sweep_no), log.len(), &out, table);
        state
            .generations
            .publish(generation)
            .expect("generation capacity = sweep count");
        state.notify();
        eprintln!(
            "serve: sweep {sweep_no}/{} published (epoch {}, log {} bytes)",
            opts.sweeps,
            out.sweep.epoch,
            log.len()
        );
        last = Some(out.sweep);
    }
    let log = log.expect("serve refuses a sweep count of 0, so sweep 1 created the log");
    Ok((log, last, false))
}

/// Best-effort text of a panic payload — `&str` and `String` cover
/// everything `panic!` produces in practice.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "sweep thread panicked".to_string()
    }
}

/// One client connection: read queries until EOF, `Stop`, or service
/// shutdown. The 200ms read deadline fires *between* frames on an idle
/// connection (clients write whole frames at once), where it is the
/// chance to notice the service stopping under us; a peer that stalls
/// mid-frame or mid-reply past `io_timeout` is dropped — never the
/// service.
fn handle_connection(
    stream: TcpStream,
    state: &ServerState,
    io_timeout: Duration,
) -> Result<(), FrameError> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(FrameError::Io)?;
    stream
        .set_write_timeout(Some(io_timeout))
        .map_err(FrameError::Io)?;
    let mut reader = std::io::BufReader::new(stream.try_clone().map_err(FrameError::Io)?);
    let mut writer = stream;
    loop {
        let frame = match read_frame_deadline::<QueryKind>(&mut reader)? {
            FrameRead::Frame(frame) => frame,
            FrameRead::Eof => return Ok(()), // clean hang-up
            FrameRead::Idle => {
                if state.stop.load(Ordering::SeqCst) && state.sweeps_done.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
        };
        let mut reply = match Query::decode(frame.kind, &frame.payload) {
            Ok(Query::Stop) => {
                state.stop.store(true, Ordering::SeqCst);
                state.notify();
                state.queries.fetch_add(1, Ordering::SeqCst);
                write_frame(
                    &mut writer,
                    &Frame::new(QueryKind::RespBye, Reply::Bye.encode()),
                )?;
                return Ok(());
            }
            Ok(Query::WaitGen(seq)) => match state.wait_for(seq) {
                Some(g) => Reply::Info(g.info()),
                None => Reply::Err(format!(
                    "generation {seq} will never be published ({} of {} sweeps ran)",
                    state.generations.published(),
                    state.generations.capacity()
                )),
            },
            Ok(q) => match state.generations.current() {
                Some(g) => g.answer(&q),
                None => Reply::Err("no generation published yet".into()),
            },
            Err(e) => Reply::Err(format!("bad query: {e}")),
        };
        // A generation cannot know service health: the live flag is
        // patched into every Info reply at answer time, wherever the
        // reply came from.
        if let Reply::Info(ref mut info) = reply {
            info.degraded = state.degraded.load(Ordering::SeqCst);
        }
        state.queries.fetch_add(1, Ordering::SeqCst);
        write_frame(&mut writer, &Frame::new(reply.kind(), reply.encode()))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--sweeps` sizes an allocation made before the first sweep, and
    /// a service with no sweep never publishes: a count above the cap
    /// or of zero is a typed refusal raised before the service binds or
    /// signals readiness — not 64 GiB of generation slots, and not a
    /// listener announced only to fail.
    #[test]
    fn a_sweep_count_above_the_cap_is_refused_before_the_service_announces_itself() {
        for sweeps in [MAX_SWEEPS + 1, 0] {
            let (ready, addr) = std::sync::mpsc::channel();
            let result = serve(ServeOptions {
                addr: "127.0.0.1:0".into(),
                config: PipelineConfig::tiny(7),
                sweeps,
                prior: None,
                log_path: std::env::temp_dir().join("clientmap-serve-never-created.cmel"),
                compact_every: 0,
                snapshot_out: None,
                io_timeout: Duration::from_secs(1),
                fail_sweep: None,
                ready: Some(ready),
            });
            match result {
                Err(ServeError::SweepCount(n)) => assert_eq!(n, sweeps),
                other => panic!("expected the sweep-count refusal for {sweeps}, got {other:?}"),
            }
            assert!(
                addr.try_recv().is_err(),
                "a service refusing {sweeps} sweeps signalled ready"
            );
        }
    }
}
