//! The traced run: per-layer metrics from spans around every call into
//! a layer, kernels for what the seam does not expose, a short service
//! phase, and a one-worker fleet sweep.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use clientmap_cacheprobe::FaultSummary;
use clientmap_core::{Pipeline, PipelineConfig, PipelineOutput};
use clientmap_fleet::{run_worker, FleetOptions, FleetSweep, WorkerOptions};
use clientmap_store::{SweepSnapshot, VerdictTable};

use crate::e2e::{RunArgs, Scratch};
use crate::kernels::{frame_roundtrip_us, output_kernels, world_kernels, Readings};
use crate::mix::Kind;
use crate::output::{Metric, RunResult};
use crate::replay::{replay_iteration, shard_seam, time_prepare, Replayed, EXTRACT};
use crate::service::{latencies_us, service_phase};
use crate::span::Tracer;
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile};
use crate::sweep::{check_faults, setup_round, SweepPhase};

/// What the harness reads off an assembled output before dropping it.
struct Facts {
    probes_sent: u64,
    fault: Option<FaultSummary>,
    planned: u64,
    universe: u64,
    records_examined: u64,
    faults_injected: u64,
    table: VerdictTable,
    kernels: Option<Result<Readings, String>>,
}

/// Per-layer readings by name: `(value, samples behind it)`.
#[derive(Default)]
struct Values(BTreeMap<&'static str, (f64, u64)>);

impl Values {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, 1));
    }

    fn put_median(&mut self, name: &'static str, samples: &[f64]) {
        self.0.insert(name, (median(samples), samples.len() as u64));
    }

    fn put_counted(&mut self, name: &'static str, value: f64, samples: u64) {
        self.0.insert(name, (value, samples));
    }

    fn get(&self, name: &str) -> Result<(f64, u64), String> {
        self.0
            .get(name)
            .copied()
            .ok_or(format!("per-layer metric {name} has no reading"))
    }
}

/// Idle `Info` round trips timed after the last sweep.
const IDLE_RTT_SAMPLES: usize = 2_000;

/// Runs the traced mode and prints the per-layer result.
pub fn run(args: RunArgs, trace_out: Option<&str>) -> Result<(), String> {
    let w = args.workload;
    let smoke = args.inputs.smoke;
    let plan = w.traced_plan(args.seconds, smoke);
    let mut values = Values::default();
    let mut failures: Vec<String> = Vec::new();

    let setup = setup_round(w, args.inputs)?;
    let cfg = w.sweep_config(args.inputs);
    let prior_bytes = w.direct_uses_prior().then_some(setup.reference.as_slice());

    // Untraced and traced iterations alternate, so a slow phase of the
    // host falls on both sides of the overhead ratio. The untraced
    // ones give the pipeline's own bytes and the allocation counts.
    let scratch = Scratch::create("traced")?;
    let mut untraced = SweepPhase::new(w, &setup.reference);
    let mut tr = Tracer::new();
    let mut replays: Vec<Replayed<Facts>> = Vec::new();
    for i in 0..plan.sweep_iters {
        untraced.iterate(&cfg, &setup.reference);
        let expected = untraced
            .expected()
            .ok_or_else(|| untraced.failures.join("; "))?;
        tr.set_request(i + 1);
        let last = i + 1 == plan.sweep_iters;
        let previous = replays.first().map(|r| &r.extracted.table);
        let replayed = clientmap_par::with_threads(w.sweep_threads(), || {
            replay_iteration(&mut tr, &cfg, prior_bytes, |out| {
                extract(out, last, previous, &setup, scratch.path())
            })
        })?;
        if replayed.bytes != expected {
            failures.push(format!(
                "traced iteration {}: hand-replayed seam output differs from Pipeline::run_warm_timed",
                i + 1
            ));
        }
        if let Err(e) = check_faults(w, replayed.extracted.fault.as_ref()) {
            failures.push(format!("traced iteration {}: {e}", i + 1));
        }
        replays.push(replayed);
    }
    failures.extend(untraced.failures.iter().cloned());
    let expected = untraced
        .expected()
        .ok_or("no untraced iteration completed")?;
    let untraced_s = median(&untraced.seconds);
    let last = replays.last().ok_or("no traced iteration ran")?;

    // Span medians: per iteration, the summed duration of each name.
    let per_iteration = |name: &str, self_only: bool| -> Vec<f64> {
        replays
            .iter()
            .map(|r| {
                tr.children(r.span)
                    .into_iter()
                    .flat_map(|c| std::iter::once(c).chain(tr.children(c)))
                    .filter(|&i| tr.spans()[i].name == name)
                    .map(|i| {
                        if self_only {
                            tr.self_seconds(i)
                        } else {
                            tr.spans()[i].seconds()
                        }
                    })
                    .sum()
            })
            .collect()
    };
    for (metric, span) in [
        ("world.generate_s", "world.generate"),
        ("sim.build_s", "sim.build"),
        ("sim.capture_root_traces_s", "sim.capture_root_traces"),
        ("sim.collect_cdn_logs_s", "sim.collect_cdn_logs"),
        ("cacheprobe.prepare_s", "cacheprobe.prepare"),
        ("cacheprobe.scope_scan_s", "cacheprobe.scope_scan"),
        ("cacheprobe.calibration_s", "cacheprobe.calibration"),
        ("cacheprobe.execute_s", "cacheprobe.execute"),
        ("chromium.crawl_s", "chromium.crawl"),
        ("datasets.apnic_estimate_s", "datasets.apnic_estimate"),
        ("datasets.bundle_build_s", "datasets.bundle_build"),
        ("core.invariants_check_s", "core.invariants_check"),
        ("core.output_drop_s", "core.output_drop"),
        ("store.snapshot_encode_s", "store.snapshot_encode"),
    ] {
        values.put_median(metric, &per_iteration(span, false));
    }
    values.put_median(
        "cacheprobe.prepare_self_s",
        &per_iteration("cacheprobe.prepare", true),
    );
    // Stage times the layer measures itself and hands over the timings
    // side channel (`probing` starts inside `prepare_sweep`, so it is
    // not a child of either span).
    for (metric, stage) in [
        ("cacheprobe.probing_s", "probing"),
        ("cacheprobe.rescue_s", "rescue"),
    ] {
        let samples: Vec<f64> = replays
            .iter()
            .map(|r| {
                let of_stage = r.timings.iter().filter(|(s, _)| s == stage);
                of_stage.fold(0.0, |sum, (_, t)| sum + t)
            })
            .collect();
        values.put_median(metric, &samples);
    }
    let traced_net: Vec<f64> = replays
        .iter()
        .zip(per_iteration(EXTRACT, false))
        .map(|(r, extract)| tr.spans()[r.span].seconds() - extract)
        .collect();
    let residual: Vec<f64> = replays
        .iter()
        .zip(&traced_net)
        .map(|(r, net)| tr.self_seconds(r.span) / net)
        .collect();
    values.put_median("core.residual_ratio", &residual);
    let traced_s = median(&traced_net);
    values.put_counted(
        "harness.trace_overhead_ratio",
        traced_s / untraced_s,
        traced_net.len() as u64,
    );
    let allocs: Vec<f64> = untraced.allocs.iter().map(|(n, _)| *n as f64).collect();
    let alloc_mib: Vec<f64> = untraced
        .allocs
        .iter()
        .map(|(_, b)| *b as f64 / 1048576.0)
        .collect();
    values.put_median("harness.alloc_count_per_sweep", &allocs);
    values.put_median("harness.alloc_mib_per_sweep", &alloc_mib);

    // Counts, from the last iteration (they repeat exactly).
    let facts = &last.extracted;
    let fault = facts.fault.as_ref();
    let probing_s = values.get("cacheprobe.probing_s")?.0;
    for (metric, value) in [
        ("cacheprobe.probes_sent", facts.probes_sent as f64),
        (
            "cacheprobe.probes_per_s",
            facts.probes_sent as f64 / probing_s.max(1e-9),
        ),
        // A cold sweep registers no planner counters: it plans all of
        // its universe.
        (
            "cacheprobe.planned_ratio",
            if facts.universe == 0 {
                1.0
            } else {
                facts.planned as f64 / facts.universe as f64
            },
        ),
        ("cacheprobe.retries", fault.map_or(0, |f| f.retries) as f64),
        ("cacheprobe.lost", fault.map_or(0, |f| f.lost) as f64),
        (
            "cacheprobe.rescued_scopes",
            fault.map_or(0, |f| f.rescued_scopes) as f64,
        ),
        ("chromium.traces_crawled", facts.records_examined as f64),
        ("faults.injected", facts.faults_injected as f64),
    ] {
        values.put(metric, value);
    }
    match facts
        .kernels
        .as_ref()
        .ok_or("last iteration ran no kernels")?
    {
        Ok(readings) => readings.iter().for_each(|(k, v)| values.put(k, *v)),
        Err(e) => return Err(format!("output kernels: {e}")),
    }
    for (name, value) in world_kernels(&cfg)? {
        values.put(name, value);
    }

    // store: decoding the reference snapshot, as every warm start does.
    let mut decodes = Vec::new();
    let mut reference = None;
    for _ in 0..3 {
        let start = Instant::now();
        reference = Some(SweepSnapshot::decode(&setup.reference).map_err(|e| e.to_string())?);
        decodes.push(start.elapsed().as_secs_f64());
    }
    values.put_median("store.snapshot_decode_s", &decodes);
    let reference = reference.expect("decoded three times");

    // cacheprobe: the shard seam, as a one-worker fleet in one process;
    // and the cluster planner's prepare under the service's knobs.
    let prior = w.direct_uses_prior().then_some(&reference);
    let seam = clientmap_par::with_threads(w.sweep_threads(), || shard_seam(&cfg, prior))?;
    if seam.bytes != expected {
        failures.push("shard seam: merged snapshot differs from Pipeline::run_warm_timed".into());
    }
    values.put("cacheprobe.probe_shard_s", seam.probe_shard_s);
    values.put("cacheprobe.merge_shards_s", seam.merge_shards_s);
    let payload = if seam.shard_payload.is_empty() {
        // A fully skipped warm plan ships no shard; frame the snapshot.
        setup.reference.clone()
    } else {
        seam.shard_payload
    };
    values.put("fleet.frame_roundtrip_us", frame_roundtrip_us(payload)?);
    {
        // Clustered planning against the reference snapshot, on the
        // workload's own world (fault-free: the reference of a faulted
        // workload is keyed to its fault plan, which the digest pins).
        let mut clustered = w.base_config(args.inputs);
        clustered.probe.clustered_probing = true;
        clustered.probe.expiry_budget = 1.0;
        let seconds =
            clientmap_par::with_threads(1, || time_prepare(&clustered, Some(&reference)))?;
        values.put("cacheprobe.cluster_prepare_s", seconds);
    }

    // serve: the service phase, shorter, plus idle round trips.
    let service = service_phase(
        w,
        &cfg,
        &setup.reference,
        plan,
        &setup.mix,
        Scratch::create("service")?.path(),
        IDLE_RTT_SAMPLES,
    )?;
    failures.extend(service.failures.iter().cloned());
    let all = latencies_us(&service, None);
    let prefix = latencies_us(&service, Some(Kind::Prefix));
    let idle: Vec<f64> = service
        .idle_rtt_ns
        .iter()
        .map(|ns| f64::from(*ns) / 1e3)
        .collect();
    values.put_median("serve.tcp_rtt_us", &idle);
    values.put_counted(
        "serve.query_qps",
        service.queries as f64 / service.window_seconds.max(1e-9),
        service.queries,
    );
    values.put_counted(
        "serve.query_p999_us",
        percentile(&all, 0.999),
        all.len() as u64,
    );
    values.put_counted(
        "serve.q_prefix_p99_us",
        percentile(&prefix, 0.99),
        prefix.len() as u64,
    );
    values.put_counted(
        "serve.queries_err_ratio",
        service.err_replies as f64 / service.queries.max(1) as f64,
        service.queries,
    );

    // fleet: a tiny cold sweep through the driver and one in-process
    // worker, against the same sweep made locally.
    let (fleet_s, local_s) = fleet_sweep(args.inputs.world_seed)?;
    values.put("fleet.sweep_1w_s", fleet_s);
    values.put("fleet.overhead_ratio", fleet_s / local_s);

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let (value, samples) = values.get(m.name)?;
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value,
                samples,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let attempted = untraced.attempted + replays.len() as u64 + 1 + service.queries;
    let failed = untraced.failed + service.failed;
    let result = RunResult {
        correct: failed == 0 && failures.is_empty(),
        attempted,
        failed,
        metrics,
    };

    if let Some(path) = trace_out {
        std::fs::write(path, tr.to_chrome_trace().render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "workload {} seed {} world_seed {} seconds {}{} (traced)\n\
         host_cores {} sweep_threads {} untraced_iters {} traced_iters {} service_sweeps S={} spans {}",
        w.name(),
        args.inputs.seed,
        args.inputs.world_seed,
        args.seconds,
        if smoke { " (smoke)" } else { "" },
        crate::proc::host_cores(),
        w.sweep_threads(),
        plan.sweep_iters,
        plan.sweep_iters,
        plan.service_sweeps,
        tr.spans().len(),
    );
    // Reconciliation: do the layer spans add up to the sweep?
    let residual_ratio = values.get("core.residual_ratio")?.0;
    let layer_sum = traced_s * (1.0 - residual_ratio);
    let stage_sum: f64 = untraced
        .last
        .as_ref()
        .map_or(0.0, |it| it.timings.iter().map(|(_, t)| t).sum());
    println!(
        "reconciliation: layer spans {:.4} s of a {:.4} s traced sweep (core.residual_ratio {:.4}); \
         untraced sweep_s {:.4} (trace overhead x{:.3}); the pipeline's own stage timers cover {:.1}% of it",
        layer_sum,
        traced_s,
        residual_ratio,
        untraced_s,
        traced_s / untraced_s,
        100.0 * stage_sum / untraced.last.as_ref().map_or(1.0, |it| it.seconds),
    );
    println!(
        "per-layer values are as measured; host speed during the sweeps x{:.3} \
         (calibration kernel, see calib.rs)",
        untraced.host.factor()
    );
    println!("untraced iterations (s): {:.4?}", untraced.seconds);
    println!("traced iterations (s):   {traced_net:.4?}");
    for f in &failures {
        println!("FAILED CHECK: {f}");
    }
    print!("{}", result.render_table());
    println!("{}", result.to_json().render());
    Ok(())
}

/// Reads the facts off one assembled output; on the last iteration
/// (`run_kernels`) also runs the kernels that need a finished sweep,
/// diffing against the first iteration's verdict table.
fn extract(
    out: &PipelineOutput,
    run_kernels: bool,
    previous: Option<&VerdictTable>,
    setup: &crate::sweep::Setup,
    scratch: &std::path::Path,
) -> Facts {
    let snapshot = out.metrics_snapshot();
    let table = out.cache_probe.verdict_table();
    Facts {
        probes_sent: out.cache_probe.probes_sent,
        fault: out.cache_probe.fault.clone(),
        planned: snapshot.counter("cacheprobe.planner.planned"),
        universe: snapshot.counter("cacheprobe.planner.universe"),
        records_examined: out.dns_logs.records_examined as u64,
        faults_injected: snapshot.sum_counters("faults.injected."),
        kernels: run_kernels
            .then(|| output_kernels(out, previous.unwrap_or(&table), &setup.mix, scratch)),
        table,
    }
}

/// One tiny cold sweep through `FleetSweep` and one in-process worker
/// thread, and the same sweep in-process: `(fleet seconds, local
/// seconds)`. The byte identity of the two is asserted.
fn fleet_sweep(seed: u64) -> Result<(f64, f64), String> {
    let cfg = PipelineConfig::tiny(seed);
    let start = Instant::now();
    let local = Pipeline::run(cfg.clone()).map_err(|e| e.to_string())?;
    let local_bytes = local.sweep.encode();
    drop(local);
    let local_s = start.elapsed().as_secs_f64();

    // The worker announces its port only on stdout, so find a free one
    // by binding and dropping.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| e.to_string())?
        .to_string();
    let opts = WorkerOptions {
        listen: addr.clone(),
        once: true,
        ..WorkerOptions::default()
    };
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_worker(&opts).map_err(|e| e.to_string()));
        let mut executor = FleetSweep::new(
            FleetOptions {
                workers: vec![addr.clone()],
                num_shards: 1,
                connect_timeout: Duration::from_secs(10),
                io_timeout: Duration::from_secs(60),
            },
            "tiny",
        );
        let start = Instant::now();
        let outcome = Pipeline::run_warm_timed_with(cfg, None, &mut Vec::new(), &mut executor)
            .map_err(|e| e.to_string())
            .map(|out| {
                let bytes = out.sweep.encode();
                drop(out);
                bytes
            });
        let fleet_s = start.elapsed().as_secs_f64();
        if outcome.is_err() {
            // The driver never reached the worker: unblock its accept so
            // the scope can join it.
            let _ = std::net::TcpStream::connect(&addr);
        }
        worker.join().expect("worker thread")?;
        if outcome? != local_bytes {
            return Err("fleet sweep differs from the local sweep".into());
        }
        Ok((fleet_s, local_s))
    })
}
