//! Batched-vs-wire differential suite. The byte-free batched probe
//! lane (`open_conn` + `serve_event`; under faults, `serve_attempt`
//! inside the prober's retry loop) and the scalar wire oracle
//! (`batched_probing = false`: render, serve, parse, verify) are two
//! different lanes. Every observable — reports, probe counts, telemetry
//! snapshots, sweep records, fault books — must land byte-identical on
//! both, across seeds, thread counts, transports and fault profiles.
//! This suite is what lets the lane switch stay out of the sweep config
//! digest.

use clientmap::core::{Pipeline, PipelineConfig, PipelineOutput, SweepSession};
use clientmap::faults::{FaultConfig, FaultProfile};
use clientmap::sim::Transport;

/// A tiny pipeline config with the probe lane chosen explicitly.
fn config(seed: u64, batched: bool) -> PipelineConfig {
    let mut c = PipelineConfig::tiny(seed);
    c.probe.batched_probing = batched;
    c
}

fn run(c: PipelineConfig) -> PipelineOutput {
    Pipeline::run(c).expect("pipeline run completes")
}

/// Everything the two lanes must agree on, byte for byte — the stored
/// snapshot whole, calibration included.
fn assert_outputs_match(a: &PipelineOutput, b: &PipelineOutput, ctx: &str) {
    assert_eq!(
        a.cache_probe.probes_sent, b.cache_probe.probes_sent,
        "{ctx}: probe volume diverged"
    );
    assert_eq!(
        a.cache_probe.probe_counts, b.cache_probe.probe_counts,
        "{ctx}: per-scope probe counts diverged"
    );
    assert_eq!(
        a.cache_probe.fault, b.cache_probe.fault,
        "{ctx}: fault accounting diverged"
    );
    assert_eq!(
        a.cache_probe.active_set().num_slash24s(),
        b.cache_probe.active_set().num_slash24s(),
        "{ctx}: active-set size diverged"
    );
    assert!(
        a.sweep.encode() == b.sweep.encode(),
        "{ctx}: snapshot bytes (records, metric deltas, calibration, fault record) diverged"
    );
    assert_eq!(
        a.report().render_all(),
        b.report().render_all(),
        "{ctx}: report diverged"
    );
    assert_eq!(
        a.metrics_snapshot().to_json(),
        b.metrics_snapshot().to_json(),
        "{ctx}: telemetry snapshot diverged"
    );
}

/// One shared batched run and its scalar oracle (seed 2021), reused by
/// every read-only comparison below.
fn shared() -> &'static (PipelineOutput, PipelineOutput) {
    static RUNS: std::sync::OnceLock<(PipelineOutput, PipelineOutput)> = std::sync::OnceLock::new();
    RUNS.get_or_init(|| (run(config(2021, true)), run(config(2021, false))))
}

#[test]
fn batched_lane_matches_the_scalar_oracle_end_to_end() {
    let (batched, scalar) = shared();
    assert_outputs_match(batched, scalar, "seed 2021");
    // Both lanes capture the same calibration for the next warm sweep:
    // per-PoP radii and the stage's resolver counters.
    assert!(
        !batched.sweep.calibration.is_empty(),
        "batched sweep must persist calibration records"
    );
    assert!(!batched.sweep.calibration_metrics.is_empty());
    assert_eq!(batched.sweep.calibration, scalar.sweep.calibration);
    assert_eq!(
        batched.sweep.calibration_metrics,
        scalar.sweep.calibration_metrics
    );

    // A second world, so agreement is not a fixed-point accident.
    let batched2 = run(config(3, true));
    let scalar2 = run(config(3, false));
    assert_outputs_match(&batched2, &scalar2, "seed 3");
    assert_ne!(
        batched.cache_probe.probes_sent, batched2.cache_probe.probes_sent,
        "seeds 2021 and 3 unexpectedly probed identically"
    );
}

#[test]
fn equivalence_holds_at_one_and_four_threads() {
    for threads in [1usize, 4] {
        let batched = clientmap::par::with_threads(threads, || run(config(2021, true)));
        let scalar = clientmap::par::with_threads(threads, || run(config(2021, false)));
        assert_outputs_match(&batched, &scalar, &format!("{threads} threads"));
        // And the batched lane itself is thread-count independent,
        // snapshot bytes included.
        let (reference, _) = shared();
        assert_outputs_match(&batched, reference, &format!("{threads} vs shared threads"));
        assert_eq!(
            batched.sweep.encode(),
            reference.sweep.encode(),
            "{threads}-thread batched snapshot bytes drifted"
        );
    }
}

/// [`config`] under `profile` faults (fault seed 5).
fn faulted(seed: u64, profile: FaultProfile, batched: bool) -> PipelineConfig {
    let mut c = config(seed, batched);
    c.faults = FaultConfig::profile(profile, 5);
    c
}

#[test]
fn faulted_runs_agree_across_the_batched_lane_and_the_wire_oracle() {
    // Under faults the lanes really differ: the batched lane serves
    // every query — main window, rescue and calibration — through its
    // connection's byte-free door, the oracle renders, serves, parses
    // and verifies it. Both must land the same bytes, fault books
    // included, at any thread count.
    for profile in [
        FaultProfile::Light,
        FaultProfile::Lossy,
        FaultProfile::PopChurn,
    ] {
        let mut one_thread: Option<PipelineOutput> = None;
        for threads in [1usize, 4] {
            let a = clientmap::par::with_threads(threads, || run(faulted(2021, profile, true)));
            let b = clientmap::par::with_threads(threads, || run(faulted(2021, profile, false)));
            let ctx = format!("{profile:?} faults, {threads} threads");
            assert_outputs_match(&a, &b, &ctx);
            let fa = a.cache_probe.fault.as_ref().expect("fault summary");
            assert!(fa.observed > 0, "{ctx}: no faults observed");
            // Neither lane captured calibration: a faulted pass must not
            // seed the next warm sweep's radii.
            for sweep in [&a.sweep, &b.sweep] {
                assert!(
                    sweep.calibration.is_empty() && sweep.calibration_metrics.is_empty(),
                    "{ctx}: faulted run captured calibration"
                );
            }
            match &one_thread {
                Some(reference) => assert_outputs_match(&a, reference, &format!("{ctx} vs 1")),
                None => one_thread = Some(a),
            }
        }
    }
}

#[test]
fn udp_probing_agrees_across_the_lanes_with_and_without_faults() {
    // The default TCP transport never truncates and never runs a bucket
    // dry. Over UDP the rate limiter bites, and under faults a truncated
    // answer upgrades its retry to TCP, so each connection fills its UDP
    // and its TCP bucket.
    for profile in [FaultProfile::Off, FaultProfile::Lossy] {
        let udp = |batched: bool| {
            let mut c = faulted(2021, profile, batched);
            c.probe.transport = Transport::Udp;
            run(c)
        };
        let (a, b) = (udp(true), udp(false));
        let ctx = format!("UDP, {profile:?} faults");
        assert_outputs_match(&a, &b, &ctx);
        let snap = a.metrics_snapshot();
        assert!(
            snap.counter("gpdns.rate_limited.udp") > 0,
            "{ctx}: the UDP limit never bit"
        );
        if profile != FaultProfile::Off {
            let f = a.cache_probe.fault.as_ref().expect("fault summary");
            assert!(f.degraded > 0, "{ctx}: no TC → TCP upgrade recovered");
            assert!(snap.counter("gpdns.queries.tcp") > 0, "{ctx}");
            assert!(snap.counter("faults.injected.truncate") > 0, "{ctx}");
        }
    }
}

#[test]
fn warm_restart_from_a_scalar_snapshot_matches_the_scalar_warm_run() {
    // Capture is lane-independent: a batched warm restart replays the
    // scalar cold sweep's calibration and lands on the scalar warm
    // run's bytes.
    let (_, scalar_cold) = shared();
    let warm_batched = SweepSession::new(config(2021, true))
        .sweep(Some(&scalar_cold.sweep))
        .expect("batched warm run completes");
    let warm_scalar = SweepSession::new(config(2021, false))
        .sweep(Some(&scalar_cold.sweep))
        .expect("scalar warm run completes");
    assert_outputs_match(&warm_batched, &warm_scalar, "warm over scalar snapshot");
    assert_eq!(
        warm_batched.sweep.calibration,
        scalar_cold.sweep.calibration
    );
    assert_eq!(
        warm_batched.sweep.calibration_metrics,
        scalar_cold.sweep.calibration_metrics
    );
}

#[test]
fn warm_restart_replays_the_stored_calibration() {
    let (batched_cold, _) = shared();
    let warm = SweepSession::new(config(2021, true))
        .sweep(Some(&batched_cold.sweep))
        .expect("warm run completes");
    // The records cover every bound PoP, so calibration replays whole:
    // the records and the stage delta ride forward unchanged and the
    // replayed pass reproduces the cold bytes.
    assert_eq!(warm.sweep.calibration, batched_cold.sweep.calibration);
    assert_eq!(
        warm.sweep.calibration_metrics,
        batched_cold.sweep.calibration_metrics
    );
    assert_eq!(
        warm.cache_probe.service_radii.radius_km, batched_cold.cache_probe.service_radii.radius_km,
        "replayed radii diverged from the calibrated ones"
    );
    assert_eq!(
        warm.report().render_all(),
        batched_cold.report().render_all()
    );
}

/// Replay is all or nothing: a prior whose records miss one bound PoP
/// recalibrates every PoP live. The surviving records and the stored
/// stage delta are tampered with, so any of them leaking into the warm
/// run would move its radii or its registry off the cold run's.
#[test]
fn a_prior_missing_one_pop_recalibrates_every_pop_live() {
    let (batched_cold, _) = shared();
    let mut prior = batched_cold.sweep.clone();
    assert!(
        prior.calibration.len() >= 2,
        "need PoPs left to tamper with"
    );
    prior.calibration.remove(prior.calibration.len() / 2);
    for rec in &mut prior.calibration {
        rec.radius_km = Some(1.0);
    }
    prior
        .calibration_metrics
        .counters
        .insert("gpdns.queries.tcp".into(), 1);
    let warm = SweepSession::new(config(2021, true))
        .sweep(Some(&prior))
        .expect("warm run completes");
    assert_eq!(warm.sweep.calibration, batched_cold.sweep.calibration);
    assert_eq!(
        warm.sweep.calibration_metrics,
        batched_cold.sweep.calibration_metrics
    );
    assert_eq!(
        warm.report().render_all(),
        batched_cold.report().render_all()
    );
    let without_planner_lines = |json: String| -> Vec<String> {
        json.lines()
            .filter(|l| !l.contains("cacheprobe.planner."))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(
        without_planner_lines(warm.metrics_snapshot().to_json()),
        without_planner_lines(batched_cold.metrics_snapshot().to_json())
    );
}
