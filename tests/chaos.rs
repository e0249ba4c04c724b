//! Chaos end-to-end: the full pipeline under deterministic fault
//! injection. The fault plan is derived from `(world_seed, fault_seed)`
//! and consulted at fixed logical points, so a faulted run is exactly
//! as reproducible as a fault-free one — including across thread
//! counts — while the resilient prober keeps the campaign alive and
//! accounts for what it could not measure.

use clientmap::core::{Pipeline, PipelineConfig, PipelineOutput, SweepSession};
use clientmap::faults::{FaultConfig, FaultProfile};
use clientmap::store::SweepSnapshot;

fn config(profile: FaultProfile, fault_seed: u64) -> PipelineConfig {
    let mut c = PipelineConfig::tiny(2021);
    c.faults = FaultConfig::profile(profile, fault_seed);
    c
}

/// One shared lossy run for the assertions below.
fn lossy() -> &'static PipelineOutput {
    static OUT: std::sync::OnceLock<PipelineOutput> = std::sync::OnceLock::new();
    OUT.get_or_init(|| Pipeline::run(config(FaultProfile::Lossy, 5)).expect("lossy run completes"))
}

#[test]
fn lossy_run_completes_with_partial_result_accounting() {
    let o = lossy();
    // The run finished and still produced an activity map.
    assert!(o.cache_probe.probes_sent > 0);
    assert!(o.cache_probe.active_set().num_slash24s() > 0);
    // Faults were genuinely injected and absorbed.
    let f = o.cache_probe.fault.as_ref().expect("fault summary");
    assert_eq!(f.profile, "lossy");
    assert!(f.observed > 0, "lossy run saw no failures");
    assert!(f.retries > 0, "no retries under ~11% failure rate");
    assert!(f.recovered > 0, "retries never succeeded");
    // Every observed failure settled into exactly one terminal bucket.
    assert_eq!(f.observed, f.recovered + f.degraded + f.lost);
}

#[test]
fn lossy_report_states_what_was_not_measured() {
    let o = lossy();
    let section = o.report().robustness().expect("robustness section");
    for needle in ["lossy", "unmeasured", "retried"] {
        assert!(section.contains(needle), "robustness missing {needle:?}");
    }
    let all = o.report().render_all();
    assert!(all.contains("Robustness"), "render_all omits the section");
}

#[test]
fn fault_free_runs_carry_no_fault_surface() {
    let o = Pipeline::run(config(FaultProfile::Off, 5)).expect("fault-free run");
    assert!(o.cache_probe.fault.is_none());
    assert!(!o.report().render_all().contains("Robustness"));
    let snap = o.metrics_snapshot();
    assert!(!snap
        .counters
        .keys()
        .any(|k| k.starts_with("faults.") || k.starts_with("cacheprobe.fault.")));
}

#[test]
fn faulted_pipeline_is_byte_identical_across_thread_counts() {
    let base = clientmap::par::with_threads(1, || Pipeline::run(config(FaultProfile::Lossy, 9)))
        .expect("1-thread lossy run");
    let base_report = base.report().render_all();
    let base_snapshot = base.metrics_snapshot().to_json();
    for threads in [4usize, 8] {
        let run =
            clientmap::par::with_threads(threads, || Pipeline::run(config(FaultProfile::Lossy, 9)))
                .unwrap_or_else(|e| panic!("{threads}-thread lossy run failed: {e}"));
        assert_eq!(
            run.cache_probe.probes_sent, base.cache_probe.probes_sent,
            "probe volume drift at {threads} threads"
        );
        assert_eq!(
            run.cache_probe.fault, base.cache_probe.fault,
            "fault accounting drift at {threads} threads"
        );
        assert_eq!(
            run.report().render_all(),
            base_report,
            "report drift at {threads} threads"
        );
        assert_eq!(
            run.metrics_snapshot().to_json(),
            base_snapshot,
            "telemetry snapshot drift at {threads} threads"
        );
    }
}

#[test]
fn fault_seed_changes_the_weather_but_not_the_climate() {
    let a = lossy();
    let b = Pipeline::run(config(FaultProfile::Lossy, 6)).expect("other fault seed");
    // Different fault seeds see different faults…
    let fa = a.cache_probe.fault.as_ref().unwrap();
    let fb = b.cache_probe.fault.as_ref().unwrap();
    assert_ne!(
        (fa.observed, fa.retries),
        (fb.observed, fb.retries),
        "fault seed had no effect"
    );
    // …but the same world underneath: headline coverage stays close.
    let clean = Pipeline::run(config(FaultProfile::Off, 0)).expect("clean run");
    let clean_active = clean.cache_probe.active_set().num_slash24s() as f64;
    for faulted in [a.cache_probe.active_set(), b.cache_probe.active_set()] {
        let ratio = faulted.num_slash24s() as f64 / clean_active.max(1.0);
        assert!(
            (0.6..=1.4).contains(&ratio),
            "lossy active set diverged from fault-free: ratio {ratio:.2}"
        );
    }
}

#[test]
fn pop_churn_run_quarantines_and_reconciles_coverage() {
    let mut c = PipelineConfig::tiny(7);
    c.faults = FaultConfig::profile(FaultProfile::PopChurn, 3);
    let o = Pipeline::run(c).expect("pop-churn run completes");
    let f = o.cache_probe.fault.as_ref().expect("fault summary");
    assert_eq!(f.profile, "pop-churn");
    // Outage windows make whole vantages go dark; the breaker must
    // notice and the unmeasured accounting must close the books:
    // probed + unmeasured == assigned.
    assert_eq!(
        o.cache_probe.probe_counts().len() as u64 + f.unmeasured_scopes,
        f.assigned_scopes,
        "coverage accounting does not reconcile"
    );
    let snap = o.metrics_snapshot();
    assert_eq!(
        snap.counter("cacheprobe.quarantine.pops"),
        f.quarantined_pops.len() as u64
    );
    assert_eq!(
        snap.counter("cacheprobe.quarantine.rescued"),
        f.rescued_scopes
    );
}

/// Planner counters exist only on warm runs; cold/warm comparisons
/// set them aside.
fn without_planner_lines(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("cacheprobe.planner."))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn warm_restart_is_byte_identical_at_any_thread_count() {
    let cold = clientmap::par::with_threads(1, || Pipeline::run(config(FaultProfile::Off, 0)))
        .expect("cold run");
    let cold_report = cold.report().render_all();
    let cold_metrics = without_planner_lines(&cold.metrics_snapshot().to_json());
    let snapshot_bytes = cold.sweep.encode();

    let mut warm_snapshots: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 4, 8] {
        let prior = SweepSnapshot::decode(&snapshot_bytes).expect("snapshot round-trips");
        let warm = clientmap::par::with_threads(threads, || {
            SweepSession::new(config(FaultProfile::Off, 0)).sweep(Some(&prior))
        })
        .unwrap_or_else(|e| panic!("{threads}-thread warm run failed: {e}"));
        // Nothing expired ⇒ the planner replays everything…
        let snap = warm.metrics_snapshot();
        assert_eq!(snap.counter("cacheprobe.planner.planned"), 0);
        assert_eq!(snap.counter("cacheprobe.planner.units"), 0);
        // …and the output is the cold run's, byte for byte.
        assert_eq!(
            warm.report().render_all(),
            cold_report,
            "warm report drift at {threads} threads"
        );
        assert_eq!(
            without_planner_lines(&snap.to_json()),
            cold_metrics,
            "warm telemetry drift at {threads} threads"
        );
        assert_eq!(warm.sweep.records, cold.sweep.records);
        assert_eq!(warm.sweep.epoch, cold.sweep.epoch + 1);
        warm_snapshots.push(warm.sweep.encode());
    }
    // The re-emitted snapshot itself is thread-count independent.
    assert!(
        warm_snapshots.windows(2).all(|w| w[0] == w[1]),
        "warm snapshot bytes drift across thread counts"
    );
}

#[test]
fn pop_churn_quarantine_dirties_the_next_warm_sweep() {
    let mut c = PipelineConfig::tiny(7);
    c.faults = FaultConfig::profile(FaultProfile::PopChurn, 3);
    let cold = Pipeline::run(c.clone()).expect("pop-churn cold run");
    let f = cold.cache_probe.fault.as_ref().expect("fault summary");
    assert!(
        !f.quarantined_pops.is_empty(),
        "this profile/seed is expected to trip the breaker"
    );
    let quarantined = f.quarantined_pops.len() as u64;
    assert_eq!(
        cold.sweep
            .fault
            .as_ref()
            .map(|fr| fr.quarantined_pops.len() as u64),
        Some(quarantined),
        "snapshot must carry the quarantine list"
    );

    // Warm restart under the same weather: everything a quarantined
    // vantage measured is dirty and gets re-probed live; reaching Ok
    // means the planner conservation laws reconciled too.
    let warm = SweepSession::new(c)
        .sweep(Some(&cold.sweep))
        .expect("warm run completes");
    let snap = warm.metrics_snapshot();
    assert!(
        snap.counter("cacheprobe.planner.dirty") > 0,
        "quarantined-PoP slots must be replanned"
    );
    assert!(snap.counter("cacheprobe.planner.planned") > 0);
    assert_eq!(
        snap.counter("cacheprobe.planner.planned")
            + snap.counter("cacheprobe.planner.skipped_warm"),
        snap.counter("cacheprobe.planner.universe"),
    );
    assert!(warm.cache_probe.active_set().num_slash24s() > 0);
}

#[test]
fn lossy_warm_restart_replans_only_the_stale_slice() {
    let cold = lossy();
    // Same config, nothing expired: only rescue/dirty signals replan,
    // and the run still passes every invariant (checked inside run).
    let warm = SweepSession::new(config(FaultProfile::Lossy, 5))
        .sweep(Some(&cold.sweep))
        .expect("lossy warm run completes");
    let snap = warm.metrics_snapshot();
    let universe = snap.counter("cacheprobe.planner.universe");
    let planned = snap.counter("cacheprobe.planner.planned");
    assert!(universe > 0);
    assert!(
        planned * 5 <= universe,
        "warm lossy restart replanned {planned} of {universe} slots"
    );
    assert_eq!(
        planned + snap.counter("cacheprobe.planner.skipped_warm"),
        universe
    );
    // The warm run keeps a usable activity map and its own closed
    // fault books.
    assert!(warm.cache_probe.active_set().num_slash24s() > 0);
    if let Some(f) = warm.cache_probe.fault.as_ref() {
        assert_eq!(f.observed, f.recovered + f.degraded + f.lost);
    }
}

#[test]
fn the_batched_fault_lane_keeps_the_wire_oracles_books() {
    // Two different lanes under faults: the batched lane serves each
    // query byte-free through its connection's door, the wire oracle
    // (`batched_probing = false`) renders, parses and verifies it. Fault
    // conservation and every byte must agree, at 1 and 4 threads, and
    // down a lossy warm-restart chain. Pop-churn is the nastiest
    // profile — outages, flaps, breaker trips, rescues.
    for (profile, fault_seed, world_seed) in [
        (FaultProfile::Light, 1, 2021),
        (FaultProfile::Lossy, 5, 2021),
        (FaultProfile::PopChurn, 3, 7),
    ] {
        let mut batched = PipelineConfig::tiny(world_seed);
        batched.faults = FaultConfig::profile(profile, fault_seed);
        batched.probe.batched_probing = true;
        let mut scalar = batched.clone();
        scalar.probe.batched_probing = false;
        for threads in [1usize, 4] {
            let ctx = format!("{profile:?}, {threads} threads");
            let lanes = [&batched, &scalar].map(|c| {
                clientmap::par::with_threads(threads, || Pipeline::run(c.clone()))
                    .unwrap_or_else(|e| panic!("{ctx}: faulted run failed: {e}"))
            });
            assert_fault_books_match(&lanes[0], &lanes[1], &ctx);
            if profile == FaultProfile::PopChurn {
                let f = lanes[0].cache_probe.fault.as_ref().unwrap();
                assert!(f.rescued_scopes > 0, "{ctx}: the rescue phase never ran");
            }
            if profile != FaultProfile::Lossy {
                continue;
            }
            // The chain: each lane re-sweeps twice from its own last
            // snapshot, under the same faults.
            let mut priors = lanes.map(|o| o.sweep);
            for step in 1..=2 {
                let [a, b] = [(&batched, &priors[0]), (&scalar, &priors[1])].map(|(c, prior)| {
                    clientmap::par::with_threads(threads, || {
                        SweepSession::new(c.clone()).sweep(Some(prior))
                    })
                    .unwrap_or_else(|e| panic!("{ctx}: warm step {step} failed: {e}"))
                });
                assert_fault_books_match(&a, &b, &format!("{ctx}, warm step {step}"));
                priors = [a.sweep, b.sweep];
            }
        }
    }
}

/// The fault books, their conservation laws and every byte of two runs
/// of one faulted config on the two lanes.
fn assert_fault_books_match(a: &PipelineOutput, b: &PipelineOutput, ctx: &str) {
    let fa = a.cache_probe.fault.as_ref().expect("fault summary");
    let fb = b.cache_probe.fault.as_ref().expect("fault summary");
    assert_eq!(fa, fb, "{ctx}: fault accounting diverged across the lanes");
    // The conservation laws hold on the batched lane…
    assert_eq!(fa.observed, fa.recovered + fa.degraded + fa.lost, "{ctx}");
    assert_eq!(
        a.cache_probe.probe_counts().len() as u64 + fa.unmeasured_scopes,
        fa.assigned_scopes,
        "{ctx}: coverage books do not reconcile on the batched lane"
    );
    // …and everything else is byte-identical to the wire oracle.
    assert_eq!(a.report().render_all(), b.report().render_all(), "{ctx}");
    assert_eq!(
        a.metrics_snapshot().to_json(),
        b.metrics_snapshot().to_json(),
        "{ctx}"
    );
    assert!(
        a.sweep.encode() == b.sweep.encode(),
        "{ctx}: snapshot bytes"
    );
}

#[test]
fn light_profile_is_a_gentle_breeze() {
    let o = Pipeline::run(config(FaultProfile::Light, 1)).expect("light run completes");
    let f = o.cache_probe.fault.as_ref().expect("fault summary");
    assert_eq!(f.profile, "light");
    // Sub-percent fault rates: almost everything recovers, and the
    // active set is essentially unaffected.
    assert!(f.observed > 0, "light still injects something");
    assert_eq!(f.observed, f.recovered + f.degraded + f.lost);
    let clean = Pipeline::run(config(FaultProfile::Off, 0)).expect("clean run");
    let ratio = o.cache_probe.active_set().num_slash24s() as f64
        / clean.cache_probe.active_set().num_slash24s().max(1) as f64;
    assert!(
        ratio > 0.9,
        "light profile dented coverage: ratio {ratio:.2}"
    );
}
