//! Host-speed calibration: a fixed kernel of the harness's own, sampled
//! beside the timed operations of every phase.
//!
//! The reference host (2 shared vCPUs) drifts between faster and slower
//! periods lasting from seconds to minutes — neighbours on the same
//! physical cores — that move *every* time metric together by 10–45 %.
//! No in-run statistic removes a slowdown that outlasts the run, but a
//! throughput-bound kernel sampled in the same window tracks it: over
//! 10 s blocks its median correlates 0.93 with the median of a tiny
//! sweep, and dividing by it cuts the block-to-block spread from 8.1 %
//! to 3.6 % (range 48 % → 16 %). So every phase records the kernel, and
//! each time metric is reported at reference speed: the measured time
//! divided by `kernel median ÷ REFERENCE_KERNEL_S`. The kernel is the
//! harness's, not the repo's, so no change to the measured code can
//! move the yardstick; the raw times and the factor are printed beside
//! the result for anyone to undo it.
//!
//! The slowdown is **per vCPU** — each has its own neighbours — and it
//! changes within a phase, so the kernel is sampled where and when the
//! work runs. Work on the measuring thread itself (set-up rounds,
//! 1-thread sweeps, the query client) is corrected by [`HostSpeed`]
//! samples that thread takes right before and after each operation:
//! against a 1-thread sweep they regress with slope 0.9, while samples
//! from the other vCPU regress with slope 0. Work that other threads do
//! (2-thread sweeps, the service's sweep thread) is corrected by
//! [`VcpuSamplers`], one low-duty sampler pinned to each vCPU, averaged:
//! over five runs that cut the range of `publish_interval_s` from
//! 10–30 % (client-thread samples) to 8–12 %.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Median kernel time inside the harness on the quiet reference host.
/// A constant, so that a run wholly inside a slow period is corrected
/// too.
pub const REFERENCE_KERNEL_S: f64 = 1.27e-3;

/// Kernel runs between two sweeps or set-up rounds (≈ 10 ms, < 1 % of
/// the shortest of them): enough that the factor's own noise stays
/// near 1 %.
pub const SAMPLES_BETWEEN_SWEEPS: usize = 8;

/// Kernel runs at each of the service client's frequent pauses.
pub const SAMPLES_BETWEEN_QUERIES: usize = 3;

/// One run of the kernel: sort, hash-count and four independent integer
/// lanes — throughput-bound like the pipeline (a latency-bound chain
/// does not notice a busy sibling thread), about a millisecond.
fn kernel(scratch: &mut Vec<u64>) -> f64 {
    let start = Instant::now();
    scratch.clear();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..40_000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        scratch.push(x >> 7);
    }
    scratch.sort_unstable();
    let mut counts: HashMap<u64, u32> = HashMap::with_capacity(8192);
    for (i, v) in scratch.iter().enumerate().take(20_000) {
        *counts.entry(v % 6000).or_default() += i as u32;
    }
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..300_000u64 {
        a = a.wrapping_mul(31).wrapping_add(i);
        b ^= b << 7 ^ i;
        c = c.wrapping_add(a ^ i);
        d = d.rotate_left(5) ^ c;
    }
    black_box((counts.len(), a, b, c, d));
    start.elapsed().as_secs_f64()
}

/// Fewest kernel samples a local factor is taken from; a window holding
/// fewer falls back to the whole phase.
const MIN_LOCAL_SAMPLES: usize = 3;

/// The kernel samples of one phase, each stamped with when it ended.
#[derive(Debug, Default)]
pub struct HostSpeed {
    scratch: Vec<u64>,
    samples: Vec<f64>,
    ended: Vec<Instant>,
}

impl HostSpeed {
    /// No samples yet.
    pub fn new() -> HostSpeed {
        HostSpeed::default()
    }

    /// Runs the kernel `times` times (about 1.3 ms each). On the
    /// measuring thread, call between timed operations, never inside one.
    pub fn sample(&mut self, times: usize) {
        for _ in 0..times {
            let t = kernel(&mut self.scratch);
            self.samples.push(t);
            self.ended.push(Instant::now());
        }
    }

    /// Kernel samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// How much slower than the quiet reference host this phase ran:
    /// median kernel time ÷ [`REFERENCE_KERNEL_S`]; 1 without samples.
    pub fn factor(&self) -> f64 {
        Self::factor_of(&self.samples).unwrap_or(1.0)
    }

    /// The factor of the samples taken since the phase held `mark`
    /// samples ([`HostSpeed::len`] then): the ones around one timed
    /// operation. The host drifts within a phase too, so each operation
    /// is corrected by its own neighbours.
    pub fn factor_since(&self, mark: usize) -> f64 {
        self.samples
            .get(mark..)
            .and_then(Self::factor_of)
            .unwrap_or_else(|| self.factor())
    }

    /// The factor of the samples that ended inside `from..=to`; the
    /// phase's factor if there are fewer than three.
    pub fn factor_between(&self, from: Instant, to: Instant) -> f64 {
        let lo = self.ended.partition_point(|t| *t < from);
        let hi = self.ended.partition_point(|t| *t <= to);
        Some(&self.samples[lo..hi.max(lo)])
            .filter(|s| s.len() >= MIN_LOCAL_SAMPLES)
            .and_then(Self::factor_of)
            .unwrap_or_else(|| self.factor())
    }

    fn factor_of(samples: &[f64]) -> Option<f64> {
        (!samples.is_empty()).then(|| median(samples) / REFERENCE_KERNEL_S)
    }
}

/// Pause of a pinned sampler between two kernel runs: a 3 % duty cycle,
/// a dozen samples per vCPU inside the shortest publish interval.
const SAMPLER_PERIOD: Duration = Duration::from_millis(40);

/// Samplers started at most; a host with more vCPUs than this is not
/// the shared few-core host the correction exists for.
const MAX_SAMPLERS: usize = 4;

/// Restricts the calling thread to one CPU. Returns whether it took:
/// the CPU may be outside the process's own mask.
fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        // `std` links libc; 0 is the calling thread.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask = [1u64 << (cpu % 64)];
    // SAFETY: `mask` outlives the call and `cpusetsize` is its size.
    cpu < 64 && unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0
}

/// One background sampler per vCPU, each pinned to its own (floating
/// where pinning is refused), running the kernel every
/// [`SAMPLER_PERIOD`] until finished or dropped.
#[derive(Debug)]
pub struct VcpuSamplers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<HostSpeed>>,
}

impl VcpuSamplers {
    /// Starts a sampler on each of the host's first few vCPUs.
    pub fn start() -> VcpuSamplers {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..crate::proc::host_cores().clamp(1, MAX_SAMPLERS))
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    pin_to_cpu(cpu);
                    let mut speed = HostSpeed::new();
                    while !stop.load(Ordering::Relaxed) {
                        speed.sample(1);
                        std::thread::sleep(SAMPLER_PERIOD);
                    }
                    speed
                })
            })
            .collect();
        VcpuSamplers { stop, threads }
    }

    /// Stops the samplers and waits for each.
    pub fn finish(mut self) -> VcpuSpeeds {
        VcpuSpeeds(self.join())
    }

    fn join(&mut self) -> Vec<HostSpeed> {
        self.stop.store(true, Ordering::Relaxed);
        self.threads
            .drain(..)
            .map(|t| t.join().expect("sampler thread"))
            .collect()
    }
}

impl Drop for VcpuSamplers {
    fn drop(&mut self) {
        self.join();
    }
}

/// What [`VcpuSamplers`] recorded: the kernel samples of each vCPU.
#[derive(Debug)]
pub struct VcpuSpeeds(Vec<HostSpeed>);

impl VcpuSpeeds {
    /// The slowdown factor of `from..=to`: the mean over vCPUs of each
    /// one's factor in that window. Work spread over the vCPUs, or
    /// sitting on one the harness cannot name, runs at their average.
    pub fn factor_between(&self, from: Instant, to: Instant) -> f64 {
        let n = self.0.len().max(1) as f64;
        self.0
            .iter()
            .map(|h| h.factor_between(from, to))
            .sum::<f64>()
            / n
    }

    /// Kernel samples taken, all vCPUs together.
    pub fn len(&self) -> usize {
        self.0.iter().map(HostSpeed::len).sum()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_median_over_reference() {
        let mut h = HostSpeed::new();
        assert_eq!(h.factor(), 1.0);
        h.samples = vec![
            REFERENCE_KERNEL_S * 1.5,
            REFERENCE_KERNEL_S * 9.0,
            REFERENCE_KERNEL_S,
        ];
        assert!((h.factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn local_factors_use_their_own_samples() {
        let mut h = HostSpeed::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        for (i, x) in [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0].into_iter().enumerate() {
            h.samples.push(REFERENCE_KERNEL_S * x);
            h.ended.push(at(10 * i as u64));
        }
        assert!((h.factor() - 2.0).abs() < 1e-12);
        assert!((h.factor_since(0) - 2.0).abs() < 1e-12);
        assert!((h.factor_since(4) - 2.0).abs() < 1e-12);
        assert!((h.factor_between(at(0), at(20)) - 1.0).abs() < 1e-12);
        assert!((h.factor_between(at(25), at(60)) - 2.0).abs() < 1e-12);
        // Too few samples in the window: the phase's factor.
        assert!((h.factor_between(at(0), at(10)) - 2.0).abs() < 1e-12);
        assert!((h.factor_between(at(100), at(200)) - 2.0).abs() < 1e-12);
        assert!((h.factor_since(7) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vcpu_samplers_sample_until_finished() {
        let from = Instant::now();
        let samplers = VcpuSamplers::start();
        std::thread::sleep(SAMPLER_PERIOD * 5);
        let speeds = samplers.finish();
        assert!(speeds.len() >= 3, "{} samples", speeds.len());
        let f = speeds.factor_between(from, Instant::now());
        assert!(f > 0.01 && f < 1_000.0, "{f}");
        // Dropping without finishing stops the threads too.
        drop(VcpuSamplers::start());
    }

    #[test]
    fn sampling_takes_real_time() {
        let mut h = HostSpeed::new();
        h.sample(SAMPLES_BETWEEN_QUERIES);
        assert_eq!(h.len(), SAMPLES_BETWEEN_QUERIES);
        assert!(h.factor() > 0.01 && h.factor() < 1_000.0);
    }
}
