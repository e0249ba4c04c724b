//! The service phase: `clientmap_serve::serve` in-process on a loopback
//! port, a watcher connection timing generation publishes, and one
//! closed-loop client replaying the seeded query mix.
//!
//! Closed loop, one client, one connection: the service's callers are
//! synchronous `clientmap query` clients that wait for each reply, so
//! a slow service receives less load rather than a growing queue.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use clientmap_core::PipelineConfig;
use clientmap_serve::{serve, Query, QueryClient, Reply, ServeOptions, ServeSummary};
use clientmap_store::SweepSnapshot;

use crate::calib::{HostSpeed, VcpuSamplers, SAMPLES_BETWEEN_QUERIES};
use crate::mix::{Kind, QueryMix};
use crate::workload::{Plan, Workload};

/// Sentinel the watcher stores when the sweep chain can publish no
/// further generation, releasing the client loop.
const CHAIN_ENDED: u64 = u64::MAX;

/// Queries between two samples of the calibration kernel on the client
/// thread: every ~0.15 s, costing the loop ~2 % of its time and no
/// round trip anything.
const CALIBRATE_EVERY: u64 = 4096;

/// Socket deadline of the harness's own connections: a generation wait
/// legitimately blocks for a whole sweep.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// What the service phase measured.
#[derive(Debug)]
pub struct ServicePhase {
    /// Seconds between successive generations W…S becoming visible to
    /// the watcher connection (S − W samples).
    pub publish_intervals: Vec<f64>,
    /// Slowdown factor of each interval: the kernel samples every vCPU
    /// took inside it (the sweep thread runs on one the harness cannot
    /// name, and not on the client's).
    pub publish_factors: Vec<f64>,
    /// Round-trip ns of every query in the timed window.
    pub latencies_ns: Vec<u32>,
    /// `Kind as u8` of the same queries.
    pub kinds: Vec<u8>,
    /// Length of the timed window (generation W visible → S visible).
    pub window_seconds: f64,
    /// Service start → generation W visible.
    pub warmup_seconds: f64,
    /// Round-trip ns of `Info` on the idle service after the last
    /// sweep (empty unless asked for).
    pub idle_rtt_ns: Vec<u32>,
    /// Mix queries sent in the timed window.
    pub queries: u64,
    /// Of those, replies that failed a check.
    pub failed: u64,
    /// Replies that were `Reply::Err` (correct for unknown keys).
    pub err_replies: u64,
    /// `ServeSummary.log_len` at shutdown.
    pub log_bytes: u64,
    /// Size of the `snapshot_out` file.
    pub snapshot_out_bytes: u64,
    /// Whole-phase checks that failed (summary, watcher, shutdown).
    pub failures: Vec<String>,
    /// The calibration kernel, sampled on the client thread between
    /// queries throughout the window.
    pub host: HostSpeed,
}

/// Runs the service for `plan.service_sweeps` generations under `cfg`.
/// `scratch` is an empty directory for the event log and the final
/// snapshot.
pub fn service_phase(
    w: Workload,
    cfg: &PipelineConfig,
    reference: &[u8],
    plan: Plan,
    mix: &QueryMix,
    scratch: &Path,
    idle_rtt_samples: usize,
) -> Result<ServicePhase, String> {
    let prior = if w.service_uses_prior() {
        Some(SweepSnapshot::decode(reference).map_err(|e| format!("prior unusable: {e}"))?)
    } else {
        None
    };
    let sweeps = plan.service_sweeps;
    let first_timed = u64::from(plan.warm_generations);
    let last = u64::from(sweeps);
    let snapshot_out = scratch.join("final.cmss");
    let (ready_tx, ready_rx) = mpsc::channel();
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        config: cfg.clone(),
        sweeps,
        prior,
        log_path: scratch.join("events.cmel"),
        compact_every: w.compact_every(),
        snapshot_out: Some(snapshot_out.clone()),
        io_timeout: IO_TIMEOUT,
        fail_sweep: None,
        ready: Some(ready_tx),
    };

    let samplers = VcpuSamplers::start();
    let started = Instant::now();
    let seen = AtomicU64::new(0);
    let mut failures = Vec::new();
    let mut phase = None;
    let mut stamps = None;
    let summary: Result<ServeSummary, String> = std::thread::scope(|scope| {
        let server = scope.spawn(move || serve(opts).map_err(|e| e.to_string()));
        let Ok(addr) = ready_rx.recv_timeout(Duration::from_secs(30)) else {
            return server
                .join()
                .expect("serve thread")
                .and(Err("service never announced its address".into()));
        };
        let addr = addr.to_string();

        // The watcher: blocks on each generation in turn and stamps
        // the moment its publication is visible to a client.
        let watcher = scope.spawn({
            let (addr, seen) = (addr.clone(), &seen);
            move || -> Result<Vec<Instant>, String> {
                let out = (|| {
                    let mut conn =
                        QueryClient::connect(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
                    let mut stamps = Vec::with_capacity(last as usize);
                    for generation in 1..=last {
                        match conn.request(&Query::WaitGen(generation)) {
                            Ok(Reply::Info(i)) if i.generation == generation && !i.degraded => {
                                stamps.push(Instant::now());
                                seen.store(generation, Ordering::SeqCst);
                            }
                            other => {
                                return Err(format!(
                                    "waiting for generation {generation}: {other:?}"
                                ))
                            }
                        }
                    }
                    Ok(stamps)
                })();
                if out.is_err() {
                    seen.store(CHAIN_ENDED, Ordering::SeqCst);
                }
                out
            }
        });

        match client_loop(&addr, mix, &seen, first_timed, last, idle_rtt_samples) {
            Ok(p) => phase = Some(p),
            Err(e) => failures.push(format!("query client: {e}")),
        }
        // Whatever happened above, ask the service to finish so the
        // scope can join it.
        match QueryClient::connect(&addr, IO_TIMEOUT).and_then(|mut c| c.request(&Query::Stop)) {
            Ok(Reply::Bye) => {}
            other => failures.push(format!("stop request: {other:?}")),
        }
        match watcher.join().expect("watcher thread") {
            Ok(s) => stamps = Some(s),
            Err(e) => failures.push(format!("generation watcher: {e}")),
        }
        server.join().expect("serve thread")
    });
    let speeds = samplers.finish();

    let summary = summary?;
    let mut phase = phase.ok_or_else(|| failures.join("; "))?;
    if let Some(stamps) = stamps {
        let timed = &stamps[first_timed as usize - 1..];
        phase.warmup_seconds = timed[0].duration_since(started).as_secs_f64();
        for w in timed.windows(2) {
            phase
                .publish_intervals
                .push(w[1].duration_since(w[0]).as_secs_f64());
            phase
                .publish_factors
                .push(speeds.factor_between(w[0], w[1]));
        }
    }
    // The harness's own requests: S generation waits, the client's one
    // wait, the idle probes, and the stop.
    let sent = phase.queries + last + 1 + phase.idle_rtt_ns.len() as u64 + 1;
    if summary.sweeps != sweeps {
        failures.push(format!("service ran {} of {sweeps} sweeps", summary.sweeps));
    }
    if summary.degraded {
        failures.push("service ended degraded".into());
    }
    if summary.queries_answered != sent {
        failures.push(format!(
            "service answered {} queries, harness sent {sent}",
            summary.queries_answered
        ));
    }
    phase.log_bytes = summary.log_len;
    match std::fs::read(&snapshot_out) {
        Ok(bytes) => match SweepSnapshot::decode(&bytes) {
            Ok(_) => phase.snapshot_out_bytes = bytes.len() as u64,
            Err(e) => failures.push(format!("final snapshot does not decode: {e}")),
        },
        Err(e) => failures.push(format!("final snapshot unreadable: {e}")),
    }
    phase.failures = failures;
    Ok(phase)
}

/// The closed-loop client: waits for generation `first_timed`, then
/// sends the mix one query at a time until generation `last` is
/// visible, checking every reply against its kind.
fn client_loop(
    addr: &str,
    mix: &QueryMix,
    seen: &AtomicU64,
    first_timed: u64,
    last: u64,
    idle_rtt_samples: usize,
) -> Result<ServicePhase, String> {
    let mut conn = QueryClient::connect(addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    match conn.request(&Query::WaitGen(first_timed)) {
        Ok(Reply::Info(_)) => {}
        other => return Err(format!("waiting for generation {first_timed}: {other:?}")),
    }
    // Sized for several seconds per generation at loopback speed;
    // untouched capacity is never resident.
    let capacity = 1 << 22;
    let mut latencies_ns: Vec<u32> = Vec::with_capacity(capacity);
    let mut kinds: Vec<u8> = Vec::with_capacity(capacity);
    let (mut failed, mut err_replies) = (0u64, 0u64);
    let mut host = HostSpeed::new();
    let window = Instant::now();
    let mut i = 0u64;
    while seen.load(Ordering::SeqCst) < last {
        if i.is_multiple_of(CALIBRATE_EVERY) {
            host.sample(SAMPLES_BETWEEN_QUERIES);
        }
        let (kind, query) = mix.get(i);
        i += 1;
        let sent = Instant::now();
        let reply = conn.request(query);
        let rtt = sent.elapsed();
        latencies_ns.push(u32::try_from(rtt.as_nanos()).unwrap_or(u32::MAX));
        kinds.push(*kind as u8);
        match reply {
            Ok(reply) => {
                err_replies += u64::from(matches!(reply, Reply::Err(_)));
                failed += u64::from(!kind.accepts(&reply));
            }
            // A transport or codec error poisons the connection.
            Err(e) => return Err(format!("query {i} ({query:?}): {e}")),
        }
    }
    let window_seconds = window.elapsed().as_secs_f64();

    let mut idle_rtt_ns = Vec::with_capacity(idle_rtt_samples);
    if seen.load(Ordering::SeqCst) == last {
        for _ in 0..idle_rtt_samples {
            let sent = Instant::now();
            match conn.request(&Query::Info) {
                Ok(Reply::Info(_)) => {}
                other => return Err(format!("idle info: {other:?}")),
            }
            idle_rtt_ns.push(u32::try_from(sent.elapsed().as_nanos()).unwrap_or(u32::MAX));
        }
    }
    Ok(ServicePhase {
        publish_intervals: Vec::new(),
        publish_factors: Vec::new(),
        latencies_ns,
        kinds,
        window_seconds,
        warmup_seconds: 0.0,
        idle_rtt_ns,
        queries: i,
        failed,
        err_replies,
        log_bytes: 0,
        snapshot_out_bytes: 0,
        failures: Vec::new(),
        host,
    })
}

/// Latencies (µs, ascending) of the window's queries of one kind, or
/// of all kinds.
pub fn latencies_us(phase: &ServicePhase, kind: Option<Kind>) -> Vec<f64> {
    let mut v: Vec<f64> = phase
        .latencies_ns
        .iter()
        .zip(&phase.kinds)
        .filter(|(_, k)| kind.is_none_or(|want| **k == want as u8))
        .map(|(ns, _)| f64::from(*ns) / 1e3)
        .collect();
    crate::stats::sort(&mut v);
    v
}
