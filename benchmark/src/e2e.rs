//! The untraced run: set-up rounds, the direct-sweep phase, the
//! service phase, and the nine end-to-end metrics.

use std::path::{Path, PathBuf};

use crate::calib::{HostSpeed, SAMPLES_BETWEEN_SWEEPS};
use crate::mix::Kind;
use crate::output::{Metric, RunResult};
use crate::service::{latencies_us, service_phase, ServicePhase};
use crate::spec::{EndToEnd, END_TO_END};
use crate::stats::{median, percentile};
use crate::sweep::{setup_round, sweep_phase, Setup, SweepPhase};
use crate::workload::{Inputs, Plan, Workload};

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// What its inputs are generated from.
    pub inputs: Inputs,
    /// Scales the fixed iteration counts.
    pub seconds: u32,
}

/// A directory inside the build tree (so inside the checkout, and
/// git-ignored) that is removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<dir of this executable>/bench-scratch-<pid>/<label>`.
    pub fn create(label: &str) -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join(format!("bench-scratch-{}", std::process::id()))
            .join(label);
        // A killed earlier run with a recycled pid may have left one.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Removes `<label>`, then the per-pid parent if now empty.
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything the phases produced, kept for the report.
#[derive(Debug)]
pub struct Phases {
    /// The plan the counts came from.
    pub plan: Plan,
    /// Seconds of each set-up round.
    pub setup_seconds: Vec<f64>,
    /// The calibration kernel, sampled around every round.
    pub setup_host: HostSpeed,
    /// Slowdown factor of each round (the samples on either side).
    pub setup_factors: Vec<f64>,
    /// The last round's products.
    pub setup: Setup,
    /// Direct sweeps.
    pub sweeps: SweepPhase,
    /// The service.
    pub service: ServicePhase,
}

/// Runs set-up, the direct sweeps and the service.
pub fn run_phases(args: RunArgs) -> Result<Phases, String> {
    let w = args.workload;
    let plan = w.plan(args.seconds, args.inputs.smoke);
    let mut setup_seconds = Vec::new();
    let mut setup = None;
    let mut setup_factors = Vec::new();
    let mut setup_host = HostSpeed::new();
    setup_host.sample(SAMPLES_BETWEEN_SWEEPS);
    for _ in 0..plan.setup_rounds {
        // The previous round's products are dropped first, so every
        // round starts from the same heap.
        drop(setup.take());
        let before = setup_host.len() - SAMPLES_BETWEEN_SWEEPS;
        let round = setup_round(w, args.inputs)?;
        setup_seconds.push(round.seconds);
        setup = Some(round);
        setup_host.sample(SAMPLES_BETWEEN_SWEEPS);
        setup_factors.push(setup_host.factor_since(before));
    }
    let setup = setup.ok_or("no set-up round ran")?;
    let cfg = w.sweep_config(args.inputs);
    let sweeps = sweep_phase(w, &cfg, &setup.reference, plan.sweep_iters);
    let scratch = Scratch::create("service")?;
    let service = service_phase(
        w,
        &cfg,
        &setup.reference,
        plan,
        &setup.mix,
        scratch.path(),
        0,
    )?;
    Ok(Phases {
        plan,
        setup_seconds,
        setup_host,
        setup_factors,
        setup,
        sweeps,
        service,
    })
}

/// One end-to-end reading before and after the host-speed correction.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// As measured.
    pub raw: f64,
    /// At reference host speed (equal to `raw` for bytes and memory,
    /// which no host speed moves).
    pub value: f64,
    /// Samples behind the value.
    pub samples: u64,
}

/// A reading per end-to-end metric, in spec order.
pub type Readings = Vec<(&'static EndToEnd, Reading)>;

/// Median of timed operations, as measured and with each operation
/// divided by the slowdown factor of its own neighbourhood.
fn median_at_reference_speed(seconds: &[f64], factors: &[f64]) -> Reading {
    let corrected: Vec<f64> = seconds.iter().zip(factors).map(|(s, f)| s / f).collect();
    Reading {
        raw: median(seconds),
        value: median(&corrected),
        samples: seconds.len() as u64,
    }
}

/// The nine end-to-end readings of a finished run.
pub fn readings(p: &Phases) -> Readings {
    let all = latencies_us(&p.service, None);
    let window = p.service.host.factor();
    let exact = |v: f64| Reading {
        raw: v,
        value: v,
        samples: 1,
    };
    // Queries are too short to correct one by one: the whole window's
    // percentile over the whole window's factor.
    let latency = |p: f64| {
        let raw = percentile(&all, p);
        Reading {
            raw,
            value: raw / window,
            samples: all.len() as u64,
        }
    };
    END_TO_END
        .iter()
        .map(|m| {
            let reading = match m.name {
                "setup_s" => median_at_reference_speed(&p.setup_seconds, &p.setup_factors),
                "sweep_s" => median_at_reference_speed(&p.sweeps.seconds, &p.sweeps.factors),
                "sweep_cpu_s" => {
                    median_at_reference_speed(&p.sweeps.cpu_seconds, &p.sweeps.factors)
                }
                "snapshot_bytes" => exact(p.sweeps.snapshot_bytes as f64),
                "peak_rss_mib" => exact(crate::proc::peak_rss_mib()),
                "publish_interval_s" => median_at_reference_speed(
                    &p.service.publish_intervals,
                    &p.service.publish_factors,
                ),
                "query_p50_us" => latency(0.50),
                "query_p99_us" => latency(0.99),
                "log_bytes" => exact(p.service.log_bytes as f64),
                other => unreachable!("end-to-end metric {other} has no reading"),
            };
            (m, reading)
        })
        .collect()
}

/// The result of a finished run: every time metric at reference host
/// speed (see [`crate::calib`]), plus the operation counts.
pub fn end_to_end_result(p: &Phases, readings: &Readings) -> RunResult {
    let metrics = readings
        .iter()
        .map(|(m, r)| Metric {
            name: m.name,
            unit: m.unit,
            value: r.value,
            samples: r.samples,
        })
        .collect();
    let attempted = p.sweeps.attempted + p.service.queries;
    let failed = p.sweeps.failed + p.service.failed;
    RunResult {
        correct: failed == 0 && p.service.failures.is_empty(),
        attempted,
        failed,
        metrics,
    }
}

/// The context block printed above the metric table: everything a
/// reader needs to compare two runs (host, threads, counts, digests).
pub fn render_context(args: RunArgs, p: &Phases, readings: &Readings) -> String {
    let w = args.workload;
    let mut out = format!(
        "workload {} seed {} world_seed {} seconds {}{}\n\
         host_cores {} sweep_threads {} service_sweep_threads 1 client_connections 1 (closed loop)\n\
         setup_rounds {} sweep_iters K={} service_sweeps S={} timed_generations {}..{}\n\
         result_digest {:#018x}\n",
        w.name(),
        args.inputs.seed,
        args.inputs.world_seed,
        args.seconds,
        if args.inputs.smoke { " (smoke)" } else { "" },
        crate::proc::host_cores(),
        w.sweep_threads(),
        p.plan.setup_rounds,
        p.plan.sweep_iters,
        p.plan.service_sweeps,
        p.plan.warm_generations,
        p.plan.service_sweeps,
        p.setup.result_digest,
    );
    let s = &p.service;
    let share = |k: Kind| {
        let n = s.kinds.iter().filter(|x| **x == k as u8).count();
        100.0 * n as f64 / s.kinds.len().max(1) as f64
    };
    out.push_str(&format!(
        "service warmup_s {:.3} window_s {:.3} queries {} qps {:.0} err_replies {} snapshot_out_bytes {}\n",
        s.warmup_seconds,
        s.window_seconds,
        s.queries,
        s.queries as f64 / s.window_seconds.max(1e-9),
        s.err_replies,
        s.snapshot_out_bytes,
    ));
    out.push_str(&format!(
        "setup rounds (s): {:.3?}\nsweep iterations (s): {:.3?}\npublish intervals (s): {:.3?}\n",
        p.setup_seconds, p.sweeps.seconds, s.publish_intervals
    ));
    out.push_str(&format!(
        "host speed (calibration kernel / {:.2} ms reference; above 1 = slower), one factor per operation:\n\
         setup rounds (this thread) {:.3?}\n\
         sweep iterations ({}) {:.3?}\n\
         publish intervals (every vCPU) {:.3?}\n\
         query window (client thread, n={}) x{:.3}\nas measured:",
        crate::calib::REFERENCE_KERNEL_S * 1e3,
        p.setup_factors,
        if w.sweep_threads() > 1 {
            "every vCPU"
        } else {
            "this thread"
        },
        p.sweeps.factors,
        s.publish_factors,
        s.host.len(),
        s.host.factor(),
    ));
    for (m, r) in readings {
        out.push_str(&format!(" {}={:.6}", m.name, r.raw));
    }
    out.push_str("\nquery mix");
    for k in Kind::ALL {
        out.push_str(&format!(" {}={:.1}%", k.label(), share(k)));
    }
    out.push('\n');
    for f in p.sweeps.failures.iter().chain(&s.failures) {
        out.push_str(&format!("FAILED CHECK: {f}\n"));
    }
    out
}
