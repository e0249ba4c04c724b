//! Per-PoP service-radius calibration (§3.1.1, Figure 2).
//!
//! Anycast mostly routes clients to nearby PoPs, so probing every
//! prefix at every PoP is wasteful. The paper samples 78,637 random
//! prefixes whose MaxMind error radius is under 200 km, probes each at
//! every PoP for the four Alexa domains, and takes the 90th percentile
//! of hit distances as each PoP's **service radius** — then probes a
//! prefix at a PoP only if MaxMind places it possibly within the
//! radius. This cut the per-PoP probe list from 4.4M to 2.4M prefixes.

use std::collections::HashMap;

use clientmap_dns::{wire, DomainName};
use clientmap_net::{Prefix, SeedMixer};
use clientmap_sim::{
    pop_catalog, BatchStats, GpdnsSession, PopId, ProbeOutcome, Sim, SimTime, Transport,
};
use clientmap_store::CalibrationRecord;

use crate::probe::{probe_scope, ProbeBufs};
use crate::vantage::BoundVantage;
use crate::ProbeConfig;

/// Calibrated radii and the raw distance samples behind them.
#[derive(Debug, Clone, Default)]
pub struct ServiceRadii {
    /// 90th-percentile hit distance per PoP, km.
    pub radius_km: HashMap<PopId, f64>,
    /// All hit distances per PoP (for Figure 2's CDFs).
    pub hit_distances_km: HashMap<PopId, Vec<f64>>,
    /// Sampled prefixes that passed the error-radius filter.
    pub sample_size: usize,
}

impl ServiceRadii {
    /// The radius for a PoP (falls back to `fallback` if uncalibrated).
    pub fn radius(&self, pop: PopId, fallback: f64) -> f64 {
        self.radius_km.get(&pop).copied().unwrap_or(fallback)
    }

    /// The largest calibrated radius (the paper's Zurich anecdote:
    /// 5,524 km — using it everywhere nearly doubles probing).
    pub fn max_radius(&self) -> Option<f64> {
        self.radius_km.values().copied().max_by(f64::total_cmp)
    }
}

/// Draws `n` distinct random /24s from the universe blocks, weighted by
/// block size, keeping only prefixes whose (public) geolocation entry
/// reports an error radius under the filter.
pub fn sample_prefixes(
    sim: &Sim,
    universe: &[Prefix],
    n: usize,
    max_error_km: f64,
    seed: u64,
) -> Vec<Prefix> {
    let total_24s: u64 = universe.iter().map(|b| b.num_slash24s()).sum();
    if total_24s == 0 {
        return Vec::new();
    }
    // Cumulative index for weighted block selection.
    let mut cum: Vec<(u64, usize)> = Vec::with_capacity(universe.len());
    let mut acc = 0u64;
    for (i, b) in universe.iter().enumerate() {
        cum.push((acc, i));
        acc += b.num_slash24s();
    }
    let geodb = &sim.world().geodb;
    let mut out = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::new();
    let mut state = SeedMixer::new(seed).mix_str("calibration-sample").finish();
    let mut attempts = 0usize;
    while out.len() < n && attempts < n * 50 {
        attempts += 1;
        state = clientmap_net::splitmix64(state);
        let pick = state % total_24s;
        let block_idx = match cum.binary_search_by(|(start, _)| start.cmp(&pick)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let block = universe[cum[block_idx].1];
        let offset = pick - cum[block_idx].0;
        let addr = block.first_addr().wrapping_add((offset as u32) << 8);
        let p = Prefix::new(addr, 24).expect("24 valid");
        if !seen.insert(p) {
            continue;
        }
        let entry = geodb.locate(p);
        if entry
            .map(|e| e.error_radius_km < max_error_km)
            .unwrap_or(false)
        {
            out.push(p);
        }
    }
    out.sort();
    out
}

/// Runs the calibration: probes the sample at every bound PoP for the
/// given domains and derives per-PoP radii. Each PoP is one work unit
/// on the deterministic executor, with its own connection session (like
/// independent VMs); results merge in PoP order, so the radii are
/// identical at any thread count.
pub fn calibrate(
    sim: &Sim,
    bound: &[BoundVantage],
    domains: &[DomainName],
    sample: &[Prefix],
    cfg: &ProbeConfig,
    t: SimTime,
) -> ServiceRadii {
    let pops = pop_catalog();
    let mut radii = ServiceRadii {
        sample_size: sample.len(),
        ..ServiceRadii::default()
    };
    // Under fault injection, calibration probes ride the resilient
    // path too — a lost calibration probe must be observed, retried,
    // and accounted like any other, or the radii skew dark.
    let fc = sim
        .fault_plan()
        .enabled()
        .then(|| crate::resilience::FaultCounters::resolve(sim.metrics()));
    let templates: Vec<wire::ProbeQueryTemplate> =
        domains.iter().map(wire::ProbeQueryTemplate::new).collect();
    let view = sim.view();
    let mut per_pop: Vec<(usize, Vec<f64>)> = clientmap_par::par_map(bound, |_, b| {
        let mut session = GpdnsSession::new();
        let mut bufs = ProbeBufs::default();
        let mut distances: Vec<f64> = Vec::new();
        for (i, prefix) in sample.iter().enumerate() {
            // Stagger probe times so the rate limiter behaves.
            let pt = t + SimTime::from_millis(i as u64 * 20);
            let hit = templates.iter().any(|template| {
                let outcome = probe_scope(
                    &view,
                    &mut session,
                    b,
                    template,
                    *prefix,
                    cfg,
                    pt,
                    fc.as_ref(),
                    &mut bufs,
                );
                matches!(outcome, ProbeOutcome::Hit { .. })
            });
            if hit {
                let geodb = &view.world.geodb;
                let geo = geodb.locate(*prefix).map(|e| e.coord);
                if let Some(coord) = geo {
                    distances.push(coord.distance_km(&pops[b.pop].coord));
                }
            }
        }
        (b.pop, distances)
    });

    per_pop.sort_by_key(|(pop, _)| *pop);
    for (pop, mut distances) in per_pop {
        if let Some(r) = percentile_radius(&mut distances, cfg.radius_percentile) {
            radii.radius_km.insert(pop, r);
        }
        radii.hit_distances_km.insert(pop, distances);
    }
    radii
}

/// Everything one calibration pass produced: the derived radii plus the
/// per-PoP storable records that let a warm re-sweep replay the pass
/// instead of re-probing the whole sample.
#[derive(Debug, Clone, Default)]
pub(crate) struct CalibrationOutcome {
    pub radii: ServiceRadii,
    /// Per-PoP records, sorted by PoP id (the snapshot codec's order).
    pub records: Vec<CalibrationRecord>,
}

/// Derives the percentile radius from a PoP's hit distances, sorting
/// them in place (the order [`ServiceRadii`] stores). `None` when the
/// PoP saw no hits.
fn percentile_radius(distances: &mut [f64], percentile: f64) -> Option<f64> {
    if distances.is_empty() {
        return None;
    }
    distances.sort_by(f64::total_cmp);
    let idx = ((distances.len() as f64 - 1.0) * percentile).round() as usize;
    Some(distances[idx.min(distances.len() - 1)])
}

/// Batched sibling of [`calibrate`]: each PoP worker opens one batch
/// connection, hoists routing and per-domain scope tables out of the
/// probe loop, and serves every sample probe through the batch kernel —
/// capturing the per-PoP [`CalibrationRecord`]s a later warm sweep can
/// replay. Byte-identical to the scalar lane in radii and resolver
/// telemetry. Returns `None` under fault injection (the
/// core refuses batch connections), where the scalar resilient lane
/// must run instead.
pub(crate) fn calibrate_batched(
    sim: &Sim,
    bound: &[BoundVantage],
    domains: &[DomainName],
    sample: &[Prefix],
    cfg: &ProbeConfig,
    t: SimTime,
) -> Option<CalibrationOutcome> {
    if sim.fault_plan().enabled() {
        return None;
    }
    let pops = pop_catalog();
    let templates: Vec<wire::ProbeQueryTemplate> =
        domains.iter().map(wire::ProbeQueryTemplate::new).collect();
    let view = sim.view();
    let mut per_pop: Vec<(PopId, Vec<f64>, BatchStats)> = clientmap_par::par_map(bound, |_, b| {
        let mut session = GpdnsSession::new();
        let mut conn = view
            .gpdns
            .open_batch(
                view.catchments,
                &session,
                b.prober_key(),
                b.coord(),
                cfg.transport,
            )
            .expect("fault-free cores always open batch connections");
        let doms: Vec<_> = templates
            .iter()
            .map(|tm| {
                view.gpdns
                    .batch_domain(&conn, tm.qname_wire())
                    .expect("selected domains are probeable")
            })
            .collect();
        let mut batch = wire::ProbeBatch::new();
        let mut out: Vec<ProbeOutcome> = Vec::with_capacity(1);
        let mut distances: Vec<f64> = Vec::new();
        for (i, prefix) in sample.iter().enumerate() {
            // Stagger probe times so the rate limiter behaves.
            let pt = t + SimTime::from_millis(i as u64 * 20);
            // Same short-circuit as the scalar lane: stop at the
            // first domain whose caches hold the prefix. The
            // outcome gates the next serve, so probes go one event
            // at a time — the win here is the hoisted connection
            // and scope-table state, not arena size.
            let mut hit = false;
            for (d, dom) in doms.iter().enumerate() {
                let lane = view.gpdns.scope_lane(view.auth, dom, *prefix);
                batch.clear();
                batch.push(
                    &templates[d],
                    crate::resilience::attempt_id(pt, *prefix, 0, 0),
                    *prefix,
                );
                out.clear();
                let ok = view.gpdns.serve_batch(
                    &mut conn,
                    dom,
                    view.auth,
                    std::slice::from_ref(&lane),
                    &batch,
                    &[(0, pt)],
                    cfg.redundancy,
                    &mut out,
                );
                debug_assert!(ok, "template-rendered batches always validate");
                if ok && matches!(out.first(), Some(ProbeOutcome::Hit { .. })) {
                    hit = true;
                    break;
                }
            }
            if hit {
                let geodb = &view.world.geodb;
                let geo = geodb.locate(*prefix).map(|e| e.coord);
                if let Some(coord) = geo {
                    distances.push(coord.distance_km(&pops[b.pop].coord));
                }
            }
        }
        let stats = view.gpdns.close_batch(conn, &mut session);
        (b.pop, distances, stats)
    });

    per_pop.sort_by_key(|(pop, ..)| *pop);
    let mut outcome = CalibrationOutcome {
        radii: ServiceRadii {
            sample_size: sample.len(),
            ..ServiceRadii::default()
        },
        records: Vec::with_capacity(per_pop.len()),
    };
    for (pop, mut distances, stats) in per_pop {
        let radius = percentile_radius(&mut distances, cfg.radius_percentile);
        if let Some(r) = radius {
            outcome.radii.radius_km.insert(pop, r);
        }
        outcome
            .radii
            .hit_distances_km
            .insert(pop, distances.clone());
        // Duplicate-bound PoPs (not expected from discovery, but the
        // codec requires strictly ascending records): stats accumulate,
        // the later worker's distances win — matching the map inserts.
        match outcome.records.last_mut() {
            Some(last) if last.pop == pop as u64 => {
                last.radius_km = radius;
                last.hit_distances_km = distances;
                last.queries += stats.queries;
                last.rate_limited += stats.rate_limited;
                for p in 0..4 {
                    last.pool_hits[p] += stats.pool_hits[p];
                    last.pool_scope0[p] += stats.pool_scope0[p];
                    last.pool_misses[p] += stats.pool_misses[p];
                }
            }
            _ => outcome.records.push(CalibrationRecord {
                pop: pop as u64,
                radius_km: radius,
                hit_distances_km: distances,
                queries: stats.queries,
                rate_limited: stats.rate_limited,
                pool_hits: stats.pool_hits,
                pool_scope0: stats.pool_scope0,
                pool_misses: stats.pool_misses,
            }),
        }
    }
    Some(outcome)
}

/// Replays stored [`CalibrationRecord`]s as if their probes had run
/// this sweep: rebuilds the [`ServiceRadii`] and re-applies each PoP's
/// captured resolver tallies to the metrics registry — leaving it
/// exactly where a live calibration pass would have, without serving a
/// single probe.
pub(crate) fn replay_calibration(
    sim: &Sim,
    records: &[CalibrationRecord],
    sample_size: u64,
    transport: Transport,
) -> ServiceRadii {
    let mut radii = ServiceRadii {
        sample_size: sample_size as usize,
        ..ServiceRadii::default()
    };
    for rec in records {
        let stats = BatchStats {
            queries: rec.queries,
            rate_limited: rec.rate_limited,
            pool_hits: rec.pool_hits,
            pool_scope0: rec.pool_scope0,
            pool_misses: rec.pool_misses,
        };
        sim.gpdns().replay_batch_stats(&stats, transport);
        let pop = rec.pop as PopId;
        if let Some(r) = rec.radius_km {
            radii.radius_km.insert(pop, r);
        }
        radii
            .hit_distances_km
            .insert(pop, rec.hit_distances_km.clone());
    }
    radii
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vantage::discover;
    use clientmap_world::{World, WorldConfig};

    fn setup() -> (Sim, Vec<Prefix>) {
        let world = World::generate(WorldConfig::tiny(91));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        (Sim::new(world), universe)
    }

    #[test]
    fn sampling_respects_filter_and_universe() {
        let (sim, universe) = setup();
        let sample = sample_prefixes(&sim, &universe, 200, 200.0, 5);
        assert!(sample.len() >= 100, "sample too small: {}", sample.len());
        for p in &sample {
            assert!(
                universe.iter().any(|b| b.contains(*p)),
                "{p} outside universe"
            );
            let geodb = &sim.world().geodb;
            let e = geodb.locate(*p).unwrap();
            assert!(e.error_radius_km < 200.0);
        }
        // No duplicates.
        let mut dedup = sample.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), sample.len());
    }

    #[test]
    fn sampling_deterministic() {
        let (sim, universe) = setup();
        let a = sample_prefixes(&sim, &universe, 100, 200.0, 5);
        let b = sample_prefixes(&sim, &universe, 100, 200.0, 5);
        assert_eq!(a, b);
        let c = sample_prefixes(&sim, &universe, 100, 200.0, 6);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn calibration_yields_finite_radii() {
        let (mut sim, universe) = setup();
        let bound = discover(&mut sim, SimTime::ZERO);
        // Limit to a handful of PoPs for test speed.
        let bound = &bound[..bound.len().min(4)];
        let domains: Vec<DomainName> = sim
            .world()
            .domains
            .top_probeable(4)
            .iter()
            .map(|s| s.name.clone())
            .collect();
        let cfg = ProbeConfig::test_scale();
        let sample = sample_prefixes(&sim, &universe, 400, 200.0, 7);
        let radii = calibrate(&sim, bound, &domains, &sample, &cfg, SimTime::from_hours(6));
        assert_eq!(radii.sample_size, sample.len());
        let mut calibrated = 0;
        for b in bound {
            if let Some(r) = radii.radius_km.get(&b.pop) {
                assert!(r.is_finite() && *r >= 0.0);
                calibrated += 1;
                // Distances list is consistent with the radius.
                let d = &radii.hit_distances_km[&b.pop];
                assert!(!d.is_empty());
                assert!(d.iter().all(|x| *x >= 0.0));
            }
        }
        assert!(calibrated >= 1, "no PoP calibrated");
        assert!(radii.max_radius().is_some());
        assert_eq!(radii.radius(9999, 1234.5), 1234.5, "fallback radius");
    }
}
