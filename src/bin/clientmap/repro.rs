//! `clientmap repro` — regenerates every table and figure of the paper,
//! plus the ablation reports: one pipeline run, then each section named
//! on the command line ([`SECTIONS`], default `all`). Section words are
//! checked with the flags, before the pipeline runs.
//!
//! `--metrics FILE` writes the run's full telemetry snapshot as JSON.
//! The snapshot is deterministic: two runs with the same scale and seed
//! produce byte-identical files.
//!
//! `--faults PROFILE` (`off|light|lossy|pop-churn`) runs the whole
//! pipeline under the named deterministic fault plan; the report grows
//! a Robustness section with the partial-result accounting.
//!
//! `--scalar-probing` forces the per-probe scalar lane instead of the
//! default batched kernels. Both lanes are byte-identical in every
//! report and metric (CI diffs them); the flag exists to prove exactly
//! that, and `repro` is the only subcommand that reads it.

use clientmap_cacheprobe::scopescan::scan_domain;
use clientmap_cacheprobe::vantage::discover;
use clientmap_cacheprobe::{probe, ProbeConfig};
use clientmap_chromium::collisions;
use clientmap_core::PipelineOutput;
use clientmap_faults::FaultConfig;
use clientmap_net::Prefix;
use clientmap_sim::{SimTime, Transport};

use super::{run_or_exit, write_run_outputs, Args};

/// Every section name `repro` prints.
pub(super) const SECTIONS: [&str; 23] = [
    "all",
    "headline",
    "robustness",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "collisions",
    "ranking",
    "baseline",
    "diurnal",
    "microsim",
    "combine",
    "ablations",
    "metrics",
];

/// `repro`: one pipeline run, its `--metrics` file, then every
/// requested section (default `all`) on stdout.
pub(super) fn cmd_repro(args: &Args) {
    let common = &args.common;
    let mut config = common.config();
    if args.scalar_probing {
        config.probe.batched_probing = false;
    }
    eprintln!(
        "repro: scale={} seed={} faults={} — running pipeline…",
        common.scale,
        common.seed,
        common.faults.as_str()
    );
    let out = run_or_exit(config, None);
    eprintln!("repro: pipeline done");
    write_run_outputs(&out, common);

    let report = out.report();
    let sections = &args.positional;
    let all = sections.is_empty() || sections.iter().any(|s| s == "all");
    let want = |name: &str| all || sections.iter().any(|s| s == name);

    if want("headline") {
        println!("{}", report.headlines());
    }
    if let Some(robustness) = report.robustness() {
        if want("robustness") {
            println!("{robustness}");
        }
    }
    if want("table1") {
        println!("{}", report.table1());
    }
    if want("table2") {
        println!("{}", report.table2());
    }
    if want("table3") {
        println!("{}", report.table3());
    }
    if want("table4") {
        println!("{}", report.table4());
    }
    if want("table5") {
        println!("{}", report.table5());
    }
    if want("fig1") {
        println!("{}", report.figure1());
    }
    if want("fig2") {
        println!("{}", report.figure2());
    }
    if want("fig3") {
        println!("{}", report.figure3());
    }
    if want("fig4") {
        println!("{}", report.figure4());
    }
    if want("fig5") {
        println!("{}", report.figure5());
    }
    if want("fig6") {
        println!("{}", report.figure6());
    }
    if want("fig7") {
        println!("{}", report.figure7());
    }
    if want("collisions") {
        println!("{}", collisions_section());
    }
    if want("ranking") {
        println!("{}", ranking_section(&out));
    }
    if want("baseline") {
        println!("{}", baseline_section(&out));
    }
    if want("diurnal") {
        println!("{}", diurnal_section(&out));
    }
    if want("microsim") {
        println!("{}", microsim_section(&out));
    }
    if want("combine") {
        println!("{}", combine_section(&out));
    }
    if want("ablations") {
        println!("{}", ablations_section(&out));
    }
    if want("metrics") {
        println!(
            "{}",
            clientmap_analysis::telemetry::render_summary(&out.metrics_snapshot())
        );
    }
}

/// §6 future work, implemented: relative activity ranking from cache
/// hit rates, validated against the simulation's ground-truth rates.
fn ranking_section(out: &PipelineOutput) -> String {
    use clientmap_analysis::ranking::{activity_estimates, rank_agreement};
    use std::collections::HashMap;

    let mut s = String::from(
        "Relative activity ranking (§6 future work)\n------------------------------------------------------------\n",
    );
    let world = out.sim.world();
    let pools = clientmap_sim::POOLS_PER_POP as u32;
    for (d, name) in out.cache_probe.domains.iter().enumerate() {
        let Some(spec) = world.domains.get(name) else {
            continue;
        };
        let estimates = activity_estimates(
            &out.cache_probe,
            d,
            pools,
            out.config.probe.redundancy,
            spec.ttl_secs,
        );
        if estimates.len() < 10 {
            continue;
        }
        // Ground truth: each scope's Google-bound query rate for this
        // domain at the diurnal mean.
        let mut truth: HashMap<Prefix, f64> = HashMap::new();
        for s24 in &world.slash24s {
            if !s24.is_active() || s24.resolver_mix.google <= 0.0 {
                continue;
            }
            let rate = (s24.users + s24.machines)
                * world.config.dns_queries_per_user_per_day
                * spec.popularity_weight
                / 86_400.0
                * s24.resolver_mix.google;
            for e in &estimates {
                if e.scope.contains(s24.prefix) {
                    *truth.entry(e.scope).or_insert(0.0) += rate;
                    break;
                }
            }
        }
        // Missing scopes truly have zero activity.
        for e in &estimates {
            truth.entry(e.scope).or_insert(0.0);
        }
        let rho = rank_agreement(&estimates, &truth);
        let probed = estimates.len();
        let nonzero = estimates.iter().filter(|e| e.lambda_hat > 0.0).count();
        s.push_str(&format!(
            "{name}: {probed} scopes probed, {nonzero} with activity; \
             Spearman ρ(λ̂, truth) = {}\n",
            rho.map(|r| format!("{r:.3}"))
                .unwrap_or_else(|| "n/a".into()),
        ));
    }
    s.push_str(
        "(λ̂ inverts the Poisson cache-liveness model from observed hit rates;\n\
         the paper sketches exactly this in §6 / the HotNets companion [20])\n",
    );
    s
}

/// The §6 ⟨region, AS⟩ technique combination, summarised.
fn combine_section(out: &PipelineOutput) -> String {
    use clientmap_analysis::combine::{combine_region_as, summarize};
    let world = out.sim.world();
    let cells = combine_region_as(&out.cache_probe, &out.dns_logs, &world.geodb, &world.rib);
    let s5 = summarize(&cells);
    let mut s = String::from(
        "⟨region, AS⟩ combination of the two techniques (§6)
------------------------------------------------------------
",
    );
    s.push_str(&format!(
        "cells: {} joined (both signals), {} resolver-only, {} prefix-only;          {:.0}% of resolver activity joined to active prefixes
",
        s5.joined_cells,
        s5.resolver_only,
        s5.prefix_only,
        100.0 * s5.joined_activity_fraction,
    ));
    s.push_str(
        "top cells by Chromium activity:
",
    );
    for c in cells.iter().filter(|c| c.resolver_probes > 0.0).take(8) {
        match c.per_slash24_activity() {
            Some(per24) => s.push_str(&format!(
                "  {} {}: {:.0} probes over {} active /24s → {:.2} per /24
",
                c.country, c.asn, c.resolver_probes, c.active_24s, per24,
            )),
            None => s.push_str(&format!(
                "  {} {}: {:.0} probes, no located active prefixes (residual)
",
                c.country, c.asn, c.resolver_probes,
            )),
        }
    }
    s
}

/// Event-level validation of the analytic cache model (DESIGN.md's
/// faithfulness claim, demonstrated).
fn microsim_section(out: &PipelineOutput) -> String {
    use clientmap_sim::microsim::validate_liveness_model;
    let sim = out.sim.fresh();
    let domain: clientmap_dns::DomainName = "www.google.com".parse().unwrap();
    let pop = clientmap_sim::pop_catalog()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.status == clientmap_sim::PopStatus::ProbedVerified)
        .map(|(i, _)| i)
        .max_by(|a, b| {
            sim.gpdns()
                .pop_load(*a)
                .total_cmp(&sim.gpdns().pop_load(*b))
        })
        .unwrap_or(0);
    let report = validate_liveness_model(&sim, pop, &domain, 30, 36.0, 5, 7);
    let mut s = String::from(
        "Micro-simulation: event-level caches vs the analytic model
------------------------------------------------------------
",
    );
    s.push_str(&format!(
        "{} scopes × {} probes each at {}: mean |event − analytic| = {:.3}, worst {:.3}
",
        report.scopes.len(),
        report.probes_per_scope,
        clientmap_sim::pop_catalog()[pop].code,
        report.mean_abs_diff,
        report.max_abs_diff,
    ));
    for c in report.scopes.iter().take(8) {
        s.push_str(&format!(
            "  {:<18} rate {:>9.5}/s  event {:>5.3}  analytic {:>5.3}
",
            c.scope.to_string(),
            c.rate,
            c.event_hit_rate,
            c.analytic_hit_rate,
        ));
    }
    s.push_str(
        "(real EcsCache instances fed by Poisson arrival events through the
 event queue, probed like the real prober — the fast path's closed form
 is statistically indistinguishable)
",
    );
    s
}

/// Time-of-day analysis (§2): hourly hit-rate profiles recover each
/// prefix's local-time activity phase, hence its longitude band.
fn diurnal_section(out: &PipelineOutput) -> String {
    use clientmap_cacheprobe::diurnal::{hour_distance, probe_diurnal};
    use clientmap_cacheprobe::vantage::discover;

    let mut s = String::from(
        "Time-of-day analysis (§2 use case)\n------------------------------------------------------------\n",
    );
    let mut sim = out.sim.fresh();
    let bound = discover(&mut sim, SimTime::ZERO);
    let domain: clientmap_dns::DomainName = "www.google.com".parse().unwrap();
    let cfg = out.config.probe.clone();

    // Pick up to 6 scopes whose main-run hit rate was neither saturated
    // nor dead (a flat profile carries no phase information), preferring
    // one per PoP.
    let mut marginal: Vec<Prefix> = out
        .cache_probe
        .probe_counts
        .iter()
        .filter(|((d, _), c)| *d == 0 && c.attempts >= 2)
        .filter(|(_, c)| {
            let r = c.hit_rate();
            (0.15..=0.9).contains(&r)
        })
        .map(|((_, sc), _)| *sc)
        .collect();
    marginal.sort();
    let mut targets: Vec<(clientmap_cacheprobe::vantage::BoundVantage, Prefix)> = Vec::new();
    for b in &bound {
        if targets.len() >= 6 {
            break;
        }
        if let Some(set) = out.cache_probe.pop_hit_prefixes.get(&b.pop) {
            if let Some(scope) = marginal.iter().find(|sc| {
                set.contains_slash24(sc.supernet(24.min(sc.len())).unwrap_or(**sc))
                    || set.intersects(**sc)
            }) {
                targets.push((*b, *scope));
                continue;
            }
            if let Some(scope) = set.prefixes().first().copied() {
                targets.push((*b, scope));
            }
        }
    }
    let mut errors: Vec<f64> = Vec::new();
    let mut session = clientmap_sim::GpdnsSession::new();
    for (b, scope) in targets {
        let profile = probe_diurnal(
            &sim,
            &mut session,
            &b,
            &domain,
            scope,
            &cfg,
            SimTime::from_hours(24),
            2,
            4,
        );
        let world = sim.world();
        let truth_lon = world.geodb.locate(scope).map(|e| e.coord.lon);
        match (profile.inferred_longitude(16.0), truth_lon) {
            (Some(lon), Some(truth)) => {
                let err_hours = hour_distance(lon / 15.0, truth / 15.0);
                errors.push(err_hours);
                s.push_str(&format!(
                    "scope {scope}: inferred lon {lon:>7.1}°, geo DB lon {truth:>7.1}° \
                     (Δ {err_hours:.1} h; {} hits)\n",
                    profile.total_hits(),
                ));
            }
            _ => s.push_str(&format!("scope {scope}: profile too flat to phase-lock\n")),
        }
    }
    if !errors.is_empty() {
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        s.push_str(&format!(
            "mean timezone error: {mean:.1} h over {} prefixes — diurnal phase alone \
             localises activity to a longitude band\n",
            errors.len()
        ));
    }
    s
}

/// The §3.1 baseline: open-resolver cache snooping, quantified against
/// the Google-ECS technique.
fn baseline_section(out: &PipelineOutput) -> String {
    use clientmap_cacheprobe::openresolver::run_baseline;
    let sim = out.sim.fresh();
    let domains: Vec<clientmap_dns::DomainName> = sim
        .world()
        .domains
        .top_probeable(4)
        .iter()
        .map(|s| s.name.clone())
        .collect();
    let baseline = run_baseline(&sim, &domains, 9, 3600, SimTime::from_hours(8));
    let ecs_ases = out.cache_probe.active_ases(&out.sim.world().rib).len();
    let total_resolvers = sim.world().resolvers.len();
    format!(
        concat!(
            "Baseline: open-resolver cache snooping (§3.1's rejected alternative)\n",
            "------------------------------------------------------------\n",
            "open resolvers found by scanning: {} of {}\n",
            "resolvers with cache hits: {}\n",
            "ASes detected: {} (Google-ECS technique: {}) — {:.0}% of the technique's coverage\n",
            "(paper: prior work found open forwarders in only 4,905 ASes,\n",
            "\"far below our goal of global coverage\")\n",
        ),
        baseline.open_resolvers.len(),
        total_resolvers,
        baseline.resolvers_with_hits.len(),
        baseline.num_ases(),
        ecs_ases,
        100.0 * baseline.num_ases() as f64 / ecs_ases.max(1) as f64,
    )
}

/// §3.2's collision-threshold experiment.
fn collisions_section() -> String {
    let mut s = String::from(
        "Chromium collision analysis (§3.2)\n------------------------------------------------------------\n",
    );
    for n in [1.0e6f64, 1.0e8, 1.0e9, 1.0e10] {
        let m = collisions::expected_max_multiplicity(n, 0.99);
        s.push_str(&format!(
            "{n:>9.0e} probes/day → max per-name multiplicity < {m} with 99% probability\n"
        ));
    }
    let sim_max = collisions::simulate_max_multiplicity(2_000_000, 7);
    s.push_str(&format!(
        "empirical simulation at 2e6/day: observed max multiplicity {sim_max}\n\
         paper: \"collide fewer than 7 times per day across all roots with 99% probability\"\n",
    ));
    s
}

/// The ablations, by what each design choice buys in probes and recall.
fn ablations_section(out: &PipelineOutput) -> String {
    let mut s = String::from(
        "Ablations (design choices, §3.1.1)\n------------------------------------------------------------\n",
    );

    // A fresh sim over the run's world, so probing state is untouched
    // by the main run.
    let mut sim = out.sim.fresh();
    let universe = out.sim.substrate().universe();

    // 1. Scope-reduction: authoritative queries spent.
    let domain: clientmap_dns::DomainName = "www.google.com".parse().unwrap();
    let plan = scan_domain(&sim, &domain, universe, SimTime::ZERO);
    let naive: u64 = universe.iter().map(|b| b.num_slash24s()).sum();
    s.push_str(&format!(
        "scope pre-scan: {} authoritative queries vs {} naive per-/24 \
         ({}x reduction), {} Google-probe scopes instead of {} /24s\n",
        plan.queries_spent,
        naive,
        naive / plan.queries_spent.max(1),
        plan.scopes.len(),
        naive,
    ));

    // 2. Service radii: assignment sizes under three policies.
    let radii = &out.cache_probe.service_radii;
    let assigned_per_pop: f64 = out
        .cache_probe
        .assigned_per_pop
        .values()
        .map(|v| *v as f64)
        .sum::<f64>()
        / out.cache_probe.assigned_per_pop.len().max(1) as f64;
    let max_radius = radii.max_radius().unwrap_or(0.0);
    s.push_str(&format!(
        "service radii: avg {assigned_per_pop:.0} scopes/PoP with per-PoP radii; \
         max calibrated radius {max_radius:.0} km (paper: per-PoP radii cut \
         2.4M vs 4.4M prefixes per PoP)\n",
    ));

    // 3. Redundancy: hit recall with 1..5 queries per probe, using the
    //    PoP with the most assigned work and scopes plausibly near it
    //    (probing far-away scopes at the wrong PoP never hits).
    let bound = discover(&mut sim, SimTime::ZERO);
    let b0 = *out
        .cache_probe
        .assigned_per_pop
        .iter()
        .max_by_key(|(_, n)| **n)
        .and_then(|(pop, _)| bound.iter().find(|b| b.pop == *pop))
        .unwrap_or(&bound[0]);
    let pop_coord = clientmap_sim::pop_catalog()[b0.pop].coord;
    let radius = out.cache_probe.service_radii.radius(b0.pop);
    let geodb = &sim.world().geodb;
    let near_pop = |s: &Prefix| {
        geodb
            .locate(*s)
            .map(|e| e.coord.distance_km(&pop_coord) <= radius + e.error_radius_km)
            .unwrap_or(false)
    };
    // Redundancy only matters for *marginal* scopes (cache entries that
    // are sometimes live in some pools); saturated and dead scopes are
    // insensitive to it. Select scopes whose main-run hit rate was
    // strictly between 0 and 1.
    let mut scopes: Vec<Prefix> = out
        .cache_probe
        .probe_counts
        .iter()
        .filter(|((d, _), c)| *d == 0 && c.hits > 0 && c.hits < c.attempts)
        .map(|((_, s), _)| *s)
        .filter(near_pop)
        .collect();
    scopes.sort();
    scopes.truncate(400);
    if scopes.len() < 50 {
        // Fall back to any near-PoP scopes if few marginal ones exist.
        scopes = plan
            .scopes
            .iter()
            .filter(|s| near_pop(s))
            .take(400)
            .copied()
            .collect();
    }
    // One prober connection for every ablation probe below:
    // rate-limiter state must persist across calls for UDP throttling
    // to be observable.
    let view = sim.view();
    let template = clientmap_dns::wire::ProbeQueryTemplate::new(&domain);
    let mut session = clientmap_sim::GpdnsSession::new();
    let mut bufs = probe::ProbeBufs::default();
    let route = b0.route(view.catchments);
    let mut probe_at = |sc: Prefix, cfg: &ProbeConfig, t: SimTime| {
        probe::probe_scope(
            &view,
            &mut session,
            &route,
            &template,
            sc,
            cfg,
            t,
            None,
            &mut bufs,
        )
    };
    // Probe each scope at several local times of day (including the
    // diurnal trough, where cache entries are scarce and pool coverage
    // matters most).
    for redundancy in [1u32, 2, 5] {
        let mut cfg = ProbeConfig::test_scale();
        cfg.redundancy = redundancy;
        let mut hit_events = 0u32;
        let mut attempts = 0u32;
        for hour in [4u64, 10, 16, 22] {
            for (i, sc) in scopes.iter().enumerate() {
                let t = SimTime::from_hours(24 + hour) + SimTime::from_millis(i as u64 * 25);
                attempts += 1;
                if matches!(
                    probe_at(*sc, &cfg, t),
                    clientmap_sim::ProbeOutcome::Hit { .. }
                ) {
                    hit_events += 1;
                }
            }
        }
        s.push_str(&format!(
            "redundancy {redundancy}: {hit_events}/{attempts} probe events hit at one PoP\n"
        ));
    }

    // 4. Geo-distribution: the full deployment vs a single vantage
    //    point (the paper's reason for probing from many clouds: Google
    //    only caches at the PoP a client's anycast reaches).
    //    Measured on the fault-free world whatever the main run's
    //    fault plan, like every other ablation here.
    {
        let mut config = out.config.clone();
        config.probe.max_pops = Some(1);
        config.faults = FaultConfig::default();
        let single = run_or_exit(config, None).cache_probe;
        let full = out.cache_probe.active_set().num_slash24s();
        let one = single.active_set().num_slash24s();
        s.push_str(&format!(
            "geo-distribution: 1 vantage point finds {one} active /24s vs {full} \
             with the full deployment ({:.0}%)\n",
            100.0 * one as f64 / full.max(1) as f64,
        ));
    }

    // 5. Transport: answered probes under a paper-rate burst.
    for (label, transport) in [("TCP", Transport::Tcp), ("UDP", Transport::Udp)] {
        let mut cfg = ProbeConfig::test_scale();
        cfg.transport = transport;
        let mut answered = 0u32;
        for (i, sc) in scopes.iter().take(200).enumerate() {
            let t = SimTime::from_hours(12) + SimTime::from_millis(i as u64 * 20);
            if !matches!(probe_at(*sc, &cfg, t), clientmap_sim::ProbeOutcome::Dropped) {
                answered += 1;
            }
        }
        s.push_str(&format!(
            "{label}: {answered}/200 probes answered at 50/s\n"
        ));
    }
    s
}
