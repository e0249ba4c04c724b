//! The traced sweep: the pipeline replayed by hand through the public
//! seam, one span per call into a layer.
//!
//! [`replay_iteration`] mirrors `Pipeline::run_warm_timed` with the
//! in-process executor statement for statement — `World::generate` →
//! `Sim::with_faults` → `prepare_sweep` → `execute_sweep` →
//! `capture_root_traces` → `crawl_with_metrics` → `collect_cdn_logs` →
//! `ApnicDataset::estimate` → `DatasetBundle::build` → invariant check
//! → `encode` → drop — and the caller asserts its snapshot bytes equal
//! the pipeline's own. [`shard_seam`] replays the probing window the
//! way the fleet does (`probe_shard` on a worker twin, `merge_shards`
//! on the driver), which is the only way to reach those two functions
//! without double-counting one simulation's telemetry.

use std::sync::Arc;
use std::time::Instant;

use clientmap_cacheprobe::{
    execute_sweep, merge_shards, prepare_sweep, probe_rescue_shard, probe_shard, sweep, SweepPrep,
};
use clientmap_chromium::crawl_with_metrics;
use clientmap_core::{PipelineConfig, PipelineOutput};
use clientmap_datasets::{ApnicDataset, DatasetBundle};
use clientmap_net::Prefix;
use clientmap_sim::{Sim, SimTime};
use clientmap_store::SweepSnapshot;
use clientmap_telemetry::{MetricsRegistry, ScopedTimer};
use clientmap_world::World;

use crate::span::Tracer;

/// Name of the span that encloses one replayed iteration.
pub const ITERATION: &str = "harness.sweep_iteration";
/// Name of the span the harness's own fact extraction runs in; it is
/// subtracted from the iteration wherever the two are compared.
pub const EXTRACT: &str = "harness.extract";

/// What one replayed iteration yields besides its spans.
#[derive(Debug)]
pub struct Replayed<T> {
    /// Index of the iteration's span.
    pub span: usize,
    /// The encoded snapshot — must equal the pipeline's bytes.
    pub bytes: Vec<u8>,
    /// The pipeline's `(stage, seconds)` side channel, as the seam's
    /// functions filled it.
    pub timings: Vec<(String, f64)>,
    /// Whatever `extract` computed from the assembled output.
    pub extracted: T,
}

fn build_sim(cfg: &PipelineConfig, tr: &mut Tracer) -> Result<(Sim, Vec<Prefix>), String> {
    let world = tr.span("world.generate", || World::generate(cfg.world.clone()));
    let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
    if universe.is_empty() {
        return Err("generated world has no announced blocks to probe".into());
    }
    let metrics = Arc::new(MetricsRegistry::new());
    let sim = tr.span("sim.build", || {
        Sim::with_faults(world, Arc::clone(&metrics), &cfg.faults)
    });
    Ok((sim, universe))
}

/// Replays one sweep under `cfg` on the calling thread's worker count.
/// `extract` sees the assembled [`PipelineOutput`] before it is
/// dropped; its time is recorded under [`EXTRACT`], not charged to any
/// layer.
pub fn replay_iteration<T>(
    tr: &mut Tracer,
    cfg: &PipelineConfig,
    prior: Option<&[u8]>,
    extract: impl FnOnce(&PipelineOutput) -> T,
) -> Result<Replayed<T>, String> {
    let iteration = tr.enter(ITERATION);
    let prior = match prior {
        Some(bytes) => Some(
            tr.span("store.snapshot_decode", || SweepSnapshot::decode(bytes))
                .map_err(|e| format!("prior snapshot unusable: {e}"))?,
        ),
        None => None,
    };
    let (mut sim, universe) = build_sim(cfg, tr)?;
    let metrics = Arc::clone(sim.metrics());
    metrics.counter("pipeline.runs").inc();
    if let Some(prior) = prior.as_ref() {
        let digest = tr.span("cacheprobe.config_digest", || {
            sweep::config_digest(&sim, &cfg.probe, &universe)
        });
        if prior.world_seed != cfg.world.seed || prior.config_digest != digest {
            return Err("prior snapshot is from another world or configuration".into());
        }
    }

    let mut timings: Vec<(String, f64)> = Vec::new();
    let probe_span = ScopedTimer::start(
        metrics.histogram("pipeline.stage_ms.cache_probe"),
        SimTime::ZERO.as_millis(),
    );
    let span = tr.enter("cacheprobe.prepare");
    let prep = prepare_sweep(
        &mut sim,
        &cfg.probe,
        &universe,
        &mut timings,
        prior.as_ref(),
    );
    tr.exit(span);
    // Discovery, scope scan and calibration open `prepare_sweep` back
    // to back, so end-to-end placement from its start is their true
    // position.
    tr.add_stage_children(span, "cacheprobe.", &timings);
    let (cache_probe, sweep) = tr.span("cacheprobe.execute", || {
        execute_sweep(&mut sim, &cfg.probe, prep, &mut timings)
    });
    probe_span.stop(
        (SimTime::from_hours(8) + SimTime::from_secs_f64(cfg.probe.duration_hours * 3600.0))
            .as_millis(),
    );

    let stage = Instant::now();
    let trace_span = ScopedTimer::start(
        metrics.histogram("pipeline.stage_ms.dns_logs"),
        SimTime::ZERO.as_millis(),
    );
    let traces = tr.span("sim.capture_root_traces", || {
        sim.capture_root_traces(
            SimTime::ZERO,
            cfg.root_trace_days,
            cfg.root_trace_sample_rate,
        )
    });
    let dns_logs = tr.span("chromium.crawl", || {
        crawl_with_metrics(&traces, &cfg.classifier, &metrics)
    });
    trace_span.stop(SimTime::from_hours(u64::from(cfg.root_trace_days) * 24).as_millis());
    timings.push(("crawl".into(), stage.elapsed().as_secs_f64()));

    let stage = Instant::now();
    let cdn_span = ScopedTimer::start(
        metrics.histogram("pipeline.stage_ms.cdn_logs"),
        SimTime::ZERO.as_millis(),
    );
    let cdn_logs = tr.span("sim.collect_cdn_logs", || {
        sim.collect_cdn_logs(SimTime::ZERO, SimTime::from_hours(cfg.cdn_window_hours))
    });
    cdn_span.stop(SimTime::from_hours(cfg.cdn_window_hours).as_millis());
    let apnic = tr.span("datasets.apnic_estimate", || {
        ApnicDataset::estimate(sim.world(), &cfg.apnic)
    });
    let bundle = tr.span("datasets.bundle_build", || {
        let bundle =
            DatasetBundle::build(&cache_probe, &dns_logs, &cdn_logs, &apnic, &sim.world().rib);
        bundle.register_metrics(&metrics);
        bundle
    });
    let violations = tr.span("core.invariants_check", || {
        clientmap_core::invariants::check(&metrics.snapshot(), cfg.probe.redundancy)
    });
    if !violations.is_empty() {
        return Err(format!(
            "telemetry invariants violated: {}",
            violations.join("; ")
        ));
    }
    timings.push(("analysis".into(), stage.elapsed().as_secs_f64()));

    let out = PipelineOutput {
        sim,
        cache_probe,
        dns_logs,
        cdn_logs,
        apnic,
        bundle,
        metrics,
        sweep,
        config: cfg.clone(),
    };
    let bytes = tr.span("store.snapshot_encode", || out.sweep.encode());
    let extracted = tr.span(EXTRACT, || extract(&out));
    // The pipeline's locals (root traces, the decoded prior) die when
    // it returns, inside its caller's clock; here they die with the
    // output.
    tr.span("core.output_drop", || drop((out, traces, prior)));
    tr.exit(iteration);
    Ok(Replayed {
        span: iteration,
        bytes,
        timings,
        extracted,
    })
}

/// Seconds of `prepare_sweep` alone under `cfg` (the cluster planner's
/// cost when `cfg` turns clustering on).
pub fn time_prepare(cfg: &PipelineConfig, prior: Option<&SweepSnapshot>) -> Result<f64, String> {
    let (mut sim, universe) = build_sim(cfg, &mut Tracer::new())?;
    let start = Instant::now();
    let prep = prepare_sweep(&mut sim, &cfg.probe, &universe, &mut Vec::new(), prior);
    let seconds = start.elapsed().as_secs_f64();
    drop(prep);
    Ok(seconds)
}

/// What the shard-seam replay measured.
#[derive(Debug)]
pub struct ShardSeam {
    /// `probe_shard` over the whole unit list, on the worker twin.
    pub probe_shard_s: f64,
    /// `merge_shards` on the driver, rescue dispatch included.
    pub merge_shards_s: f64,
    /// The merged snapshot, encoded — must equal the pipeline's bytes.
    pub bytes: Vec<u8>,
    /// The single shard's wire payload (`encode_shard_result`).
    pub shard_payload: Vec<u8>,
}

/// Replays the probing window as a one-worker fleet in one process: a
/// driver simulation prepares and merges, a worker twin prepares and
/// probes the single shard (and any rescue units the merge plans).
pub fn shard_seam(
    cfg: &PipelineConfig,
    prior: Option<&SweepSnapshot>,
) -> Result<ShardSeam, String> {
    let mut scratch = Tracer::new();
    let prepare = |scratch: &mut Tracer| -> Result<(Sim, SweepPrep), String> {
        let (mut sim, universe) = build_sim(cfg, scratch)?;
        let prep = prepare_sweep(&mut sim, &cfg.probe, &universe, &mut Vec::new(), prior);
        Ok((sim, prep))
    };
    let (mut driver_sim, driver_prep) = prepare(&mut scratch)?;
    let (mut worker_sim, worker_prep) = prepare(&mut scratch)?;

    // A warm plan that skipped everything has nothing to shard; the
    // merge then finishes from the prior alone, as the driver does.
    let start = Instant::now();
    let shard = (!worker_prep.warm_full_skip()).then(|| {
        probe_shard(
            &mut worker_sim,
            &cfg.probe,
            &worker_prep,
            0..worker_prep.num_units(),
            0,
        )
    });
    let probe_shard_s = start.elapsed().as_secs_f64();
    let (deltas, book, shard_payload) = match shard {
        Some((delta, book)) => {
            let payload = clientmap_fleet::encode_shard_result(0, &delta, &book);
            (vec![delta], book, payload)
        }
        None => (Vec::new(), Vec::new(), Vec::new()),
    };

    let start = Instant::now();
    let (_result, snapshot) = merge_shards(
        &mut driver_sim,
        &cfg.probe,
        driver_prep,
        deltas,
        book,
        |units| {
            Ok(vec![probe_rescue_shard(
                &mut worker_sim,
                &cfg.probe,
                &worker_prep,
                &units,
                0,
            )])
        },
        &mut Vec::new(),
    )
    .map_err(|e| format!("merge_shards: {e}"))?;
    let merge_shards_s = start.elapsed().as_secs_f64();
    Ok(ShardSeam {
        probe_shard_s,
        merge_shards_s,
        bytes: snapshot.encode(),
        shard_payload,
    })
}
