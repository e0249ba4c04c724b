//! Set-up rounds and timed direct sweeps.

use std::time::Instant;

use clientmap_cacheprobe::FaultSummary;
use clientmap_core::{Pipeline, PipelineConfig, PipelineOutput};
use clientmap_net::SeedMixer;
use clientmap_store::SweepSnapshot;
use clientmap_world::World;

use crate::calib::{HostSpeed, VcpuSamplers, SAMPLES_BETWEEN_SWEEPS};
use crate::mix::QueryMix;
use crate::workload::{Inputs, Workload};

/// What one set-up round leaves behind.
#[derive(Debug)]
pub struct Setup {
    /// Wall seconds of the round.
    pub seconds: f64,
    /// Encoded snapshot of the reference sweep (exhaustive, cold, 1
    /// thread): the oracle of cold workloads, the prior of warm ones.
    pub reference: Vec<u8>,
    /// The seeded query trace.
    pub mix: QueryMix,
    /// Hash of the reference sweep's verdict table — printed for
    /// humans to diff, pinned nowhere.
    pub result_digest: u64,
}

/// One set-up round: generate the inputs from the seed (world → query
/// trace), make the reference sweep, encode it, and prove the bytes
/// load as a prior. The clock stops before the output is hashed.
pub fn setup_round(w: Workload, inputs: Inputs) -> Result<Setup, String> {
    let start = Instant::now();
    let base = w.base_config(inputs);
    let world = World::generate(base.world.clone());
    let mix = QueryMix::generate(&world, inputs.seed);
    drop(world);
    let out = clientmap_par::with_threads(1, || Pipeline::run(base))
        .map_err(|e| format!("reference sweep failed: {e}"))?;
    let reference = out.sweep.encode();
    SweepSnapshot::decode(&reference).map_err(|e| format!("reference snapshot unusable: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    check_faults(w, out.cache_probe.fault.as_ref())?;
    Ok(Setup {
        seconds,
        result_digest: verdict_digest(&out),
        reference,
        mix,
    })
}

/// A stable hash of the per-/24 verdict table.
pub fn verdict_digest(out: &PipelineOutput) -> u64 {
    out.cache_probe
        .verdict_table()
        .iter_measured()
        .fold(SeedMixer::new(0xD16E57), |h, (idx, v)| {
            h.mix(u64::from(idx) << 8 | v as u64)
        })
        .finish()
}

/// One timed direct sweep.
#[derive(Debug)]
pub struct Iteration {
    /// Wall seconds: prior decode → sweep → encode → output drop.
    pub seconds: f64,
    /// The encoded snapshot.
    pub bytes: Vec<u8>,
    /// Fault accounting, under fault injection.
    pub fault: Option<FaultSummary>,
    /// The pipeline's `(stage, wall seconds)` side channel.
    pub timings: Vec<(String, f64)>,
}

/// Runs one sweep the way a caller of the library would: decode the
/// prior bytes, `Pipeline::run_warm_timed`, encode the snapshot, drop
/// the output — all inside the clock, because a re-sweeping deployment
/// pays for all of it.
pub fn iteration(
    cfg: &PipelineConfig,
    prior: Option<&[u8]>,
    threads: usize,
) -> Result<Iteration, String> {
    let start = Instant::now();
    let prior = prior
        .map(SweepSnapshot::decode)
        .transpose()
        .map_err(|e| format!("prior snapshot unusable: {e}"))?;
    let mut timings = Vec::new();
    let out = clientmap_par::with_threads(threads, || {
        Pipeline::run_warm_timed(cfg.clone(), prior, &mut timings)
    })
    .map_err(|e| e.to_string())?;
    let bytes = out.sweep.encode();
    let fault = out.cache_probe.fault.clone();
    drop(out);
    Ok(Iteration {
        seconds: start.elapsed().as_secs_f64(),
        bytes,
        fault,
        timings,
    })
}

/// Fault conservation: every failure the prober observed was
/// recovered, degraded to TCP, or lost — and only `lossy_sweep` may
/// see faults at all.
pub fn check_faults(w: Workload, fault: Option<&FaultSummary>) -> Result<(), String> {
    match (w, fault) {
        (Workload::LossySweep, Some(f)) if f.observed == f.recovered + f.degraded + f.lost => {
            if f.observed == 0 {
                return Err("lossy profile injected nothing".into());
            }
            Ok(())
        }
        (Workload::LossySweep, Some(f)) => Err(format!(
            "fault conservation broken: observed {} != recovered {} + degraded {} + lost {}",
            f.observed, f.recovered, f.degraded, f.lost
        )),
        (Workload::LossySweep, None) => Err("lossy sweep carries no fault summary".into()),
        (_, None) => Ok(()),
        (_, Some(f)) => Err(format!(
            "fault-free workload observed {} faults",
            f.observed
        )),
    }
}

/// The timed direct-sweep phase.
#[derive(Debug)]
pub struct SweepPhase {
    workload: Workload,
    /// The bytes every iteration must reproduce: the 1-thread
    /// reference where the workload sweeps cold, else iteration 1's.
    expected: Option<Vec<u8>>,
    /// Wall seconds of each iteration.
    pub seconds: Vec<f64>,
    /// Process CPU seconds (user + system) of each iteration.
    pub cpu_seconds: Vec<f64>,
    /// The calibration kernel, sampled around every iteration.
    pub host: HostSpeed,
    /// Slowdown factor of each iteration: the kernel samples this
    /// thread took right before and right after it — or, where the
    /// sweep runs on several threads, those every vCPU took during it.
    pub factors: Vec<f64>,
    /// When each iteration started and ended.
    spans: Vec<(Instant, Instant)>,
    /// `encode().len()` of the last iteration.
    pub snapshot_bytes: u64,
    /// Iterations run.
    pub attempted: u64,
    /// Iterations that errored or whose bytes differed.
    pub failed: u64,
    /// What went wrong, for the report.
    pub failures: Vec<String>,
    /// `(allocation events, bytes requested)` of each iteration — all
    /// zero unless the binary installed the counting allocator.
    pub allocs: Vec<(u64, u64)>,
    /// The last iteration that ran to completion.
    pub last: Option<Iteration>,
}

impl SweepPhase {
    /// A phase of `w` over the reference snapshot made in set-up.
    pub fn new(w: Workload, reference: &[u8]) -> SweepPhase {
        SweepPhase {
            workload: w,
            expected: (!w.direct_uses_prior()).then(|| reference.to_vec()),
            seconds: Vec::new(),
            cpu_seconds: Vec::new(),
            host: HostSpeed::new(),
            factors: Vec::new(),
            spans: Vec::new(),
            snapshot_bytes: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            allocs: Vec::new(),
            last: None,
        }
    }

    /// The bytes every iteration must reproduce, once known.
    pub fn expected(&self) -> Option<&[u8]> {
        self.expected.as_deref()
    }

    /// Runs one iteration (warm-started from `reference` where the
    /// workload says so) and checks it: it must produce the same bytes
    /// as the first; where the workload sweeps cold, the first must
    /// equal the 1-thread reference.
    pub fn iterate(&mut self, cfg: &PipelineConfig, reference: &[u8]) {
        let w = self.workload;
        let prior = w.direct_uses_prior().then_some(reference);
        self.attempted += 1;
        if self.host.is_empty() {
            self.host.sample(SAMPLES_BETWEEN_SWEEPS);
        }
        let before = self.host.len() - SAMPLES_BETWEEN_SWEEPS;
        let (events0, bytes0) = crate::alloc::counts();
        let cpu0 = crate::proc::cpu_seconds();
        let started = Instant::now();
        let outcome = iteration(cfg, prior, w.sweep_threads());
        let ended = Instant::now();
        let cpu = crate::proc::cpu_seconds() - cpu0;
        let (events1, bytes1) = crate::alloc::counts();
        self.host.sample(SAMPLES_BETWEEN_SWEEPS);
        let problem = match outcome {
            Ok(it) => {
                self.seconds.push(it.seconds);
                self.cpu_seconds.push(cpu);
                self.factors.push(self.host.factor_since(before));
                self.spans.push((started, ended));
                self.allocs.push((events1 - events0, bytes1 - bytes0));
                self.snapshot_bytes = it.bytes.len() as u64;
                let mut problem = check_faults(w, it.fault.as_ref()).err();
                match &self.expected {
                    Some(e) if *e != it.bytes => {
                        problem = Some(format!(
                            "snapshot bytes differ from {}",
                            if w.direct_uses_prior() {
                                "iteration 1"
                            } else {
                                "the 1-thread reference"
                            }
                        ));
                    }
                    Some(_) => {}
                    None => self.expected = Some(it.bytes.clone()),
                }
                self.last = Some(it);
                problem
            }
            Err(e) => Some(e),
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.failures
                .push(format!("sweep iteration {}: {p}", self.attempted));
        }
    }
}

/// Runs `k` back-to-back iterations. A sweep on several threads runs
/// on every vCPU, so it is corrected by samplers on every vCPU.
pub fn sweep_phase(w: Workload, cfg: &PipelineConfig, reference: &[u8], k: u32) -> SweepPhase {
    let mut phase = SweepPhase::new(w, reference);
    let samplers = (w.sweep_threads() > 1).then(VcpuSamplers::start);
    for _ in 0..k {
        phase.iterate(cfg, reference);
    }
    if let Some(samplers) = samplers {
        let speeds = samplers.finish();
        phase.factors = phase
            .spans
            .iter()
            .map(|(from, to)| speeds.factor_between(*from, *to))
            .collect();
    }
    phase
}
