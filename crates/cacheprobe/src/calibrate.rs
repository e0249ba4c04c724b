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
use clientmap_sim::{pop_catalog, GpdnsSession, PopId, ProbeOutcome, Sim, SimTime};
use clientmap_store::CalibrationRecord;

use crate::probe::{probe_scope, serve_batched, ProbeBufs};
use crate::resilience::FaultCounters;
use crate::vantage::BoundVantage;
use crate::ProbeConfig;

/// MaxMind error-radius filter for the calibration sample, km (paper:
/// 200).
pub(crate) const CALIBRATION_MAX_ERROR_KM: f64 = 200.0;

/// Percentile of hit distances defining a PoP's service radius (paper:
/// the 90th).
pub(crate) const RADIUS_PERCENTILE: f64 = 0.90;

/// Service radius of a PoP that saw no calibration hits, km.
pub(crate) const FALLBACK_RADIUS_KM: f64 = 2_000.0;

/// Calibrated radii and the raw distance samples behind them.
#[derive(Debug, Clone, Default)]
pub struct ServiceRadii {
    /// 90th-percentile hit distance per PoP, km.
    pub radius_km: HashMap<PopId, f64>,
    /// All hit distances per PoP, ascending (for Figure 2's CDFs).
    pub hit_distances_km: HashMap<PopId, Vec<f64>>,
}

impl ServiceRadii {
    /// The radius for a PoP (`FALLBACK_RADIUS_KM`, 2 000 km, if
    /// uncalibrated).
    pub fn radius(&self, pop: PopId) -> f64 {
        self.radius_km
            .get(&pop)
            .copied()
            .unwrap_or(FALLBACK_RADIUS_KM)
    }

    /// The largest calibrated radius (the paper's Zurich anecdote:
    /// 5,524 km — using it everywhere nearly doubles probing).
    pub fn max_radius(&self) -> Option<f64> {
        self.radius_km.values().copied().max_by(f64::total_cmp)
    }

    /// One storable record per calibrated PoP, sorted by PoP id (the
    /// snapshot codec's order) — exactly what these radii hold.
    pub(crate) fn records(&self) -> Vec<CalibrationRecord> {
        let mut records: Vec<CalibrationRecord> = self
            .hit_distances_km
            .iter()
            .map(|(&pop, distances)| CalibrationRecord {
                pop: pop as u64,
                radius_km: self.radius_km.get(&pop).copied(),
                hit_distances_km: distances.clone(),
            })
            .collect();
        records.sort_by_key(|r| r.pop);
        records
    }

    /// The radii a set of stored records describes — the inverse of
    /// [`ServiceRadii::records`].
    pub(crate) fn from_records(records: &[CalibrationRecord]) -> ServiceRadii {
        let mut radii = ServiceRadii::default();
        for rec in records {
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
}

/// Draws `n` distinct random /24s from the universe blocks, weighted by
/// block size, keeping only prefixes whose (public) geolocation entry
/// reports an error radius under `CALIBRATION_MAX_ERROR_KM` (200 km).
pub fn sample_prefixes(sim: &Sim, universe: &[Prefix], n: usize, seed: u64) -> Vec<Prefix> {
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
            .map(|e| e.error_radius_km < CALIBRATION_MAX_ERROR_KM)
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
///
/// A PoP's probes go out one at a time — each sample prefix stops at
/// the first domain that hits, so an outcome gates the next probe. The
/// two lanes differ only in how one probe is served: with
/// `batched_probing` on, each PoP opens one batch connection and
/// hoists routing and the per-domain scope tables out of the loop
/// ([`serve_batched`]); with it off, probes go through the wire oracle
/// [`probe_scope`]. Both are resilient under faults — a lost
/// calibration probe must be observed, retried and accounted like any
/// other, or the radii skew dark — and both land the same radii and
/// the same resolver counters.
pub fn calibrate(
    sim: &Sim,
    bound: &[BoundVantage],
    domains: &[DomainName],
    sample: &[Prefix],
    cfg: &ProbeConfig,
    t: SimTime,
) -> ServiceRadii {
    let pops = pop_catalog();
    let fc = sim
        .fault_plan()
        .enabled()
        .then(|| FaultCounters::resolve(sim.metrics()));
    let templates: Vec<wire::ProbeQueryTemplate> =
        domains.iter().map(wire::ProbeQueryTemplate::new).collect();
    let view = sim.view();
    let mut per_pop: Vec<(PopId, Vec<f64>)> = clientmap_par::par_map(bound, |_, b| {
        let mut session = GpdnsSession::new();
        let mut bufs = ProbeBufs::default();
        let route = b.route(view.catchments);
        let mut batch_lane = cfg.batched_probing.then(|| {
            let conn = view.gpdns.open_conn(&route, &session, cfg.transport);
            let doms: Vec<_> = templates
                .iter()
                .map(|tm| {
                    view.gpdns
                        .batch_domain(&conn, tm.qname_wire())
                        .expect("selected domains are probeable")
                })
                .collect();
            (conn, doms)
        });
        let mut distances: Vec<f64> = Vec::new();
        for (i, &prefix) in sample.iter().enumerate() {
            // Stagger probe times so the rate limiter behaves.
            let pt = t + SimTime::from_millis(i as u64 * 20);
            let hit = templates.iter().enumerate().any(|(d, template)| {
                let outcome = match &mut batch_lane {
                    Some((conn, doms)) => {
                        let lane = view.gpdns.scope_lane(view.auth, &doms[d], prefix);
                        serve_batched(&view, conn, &doms[d], &lane, cfg, pt, fc.as_ref())
                    }
                    None => probe_scope(
                        &view,
                        &mut session,
                        &route,
                        template,
                        prefix,
                        cfg,
                        pt,
                        fc.as_ref(),
                        &mut bufs,
                    ),
                };
                matches!(outcome, ProbeOutcome::Hit { .. })
            });
            if hit {
                if let Some(e) = view.world.geodb.locate(prefix) {
                    distances.push(e.coord.distance_km(&pops[b.pop].coord));
                }
            }
        }
        if let Some((conn, _)) = batch_lane {
            view.gpdns.close_batch(conn, &mut session);
        }
        (b.pop, distances)
    });

    per_pop.sort_by_key(|(pop, _)| *pop);
    let mut radii = ServiceRadii::default();
    for (pop, mut distances) in per_pop {
        if let Some(r) = percentile_radius(&mut distances) {
            radii.radius_km.insert(pop, r);
        }
        radii.hit_distances_km.insert(pop, distances);
    }
    radii
}

/// Derives the [`RADIUS_PERCENTILE`] radius from a PoP's hit
/// distances, sorting them in place (the order [`ServiceRadii`]
/// stores). `None` when the PoP saw no hits.
fn percentile_radius(distances: &mut [f64]) -> Option<f64> {
    if distances.is_empty() {
        return None;
    }
    distances.sort_by(f64::total_cmp);
    let idx = ((distances.len() as f64 - 1.0) * RADIUS_PERCENTILE).round() as usize;
    Some(distances[idx.min(distances.len() - 1)])
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
        let sample = sample_prefixes(&sim, &universe, 200, 5);
        assert!(sample.len() >= 100, "sample too small: {}", sample.len());
        for p in &sample {
            assert!(
                universe.iter().any(|b| b.contains(*p)),
                "{p} outside universe"
            );
            let geodb = &sim.world().geodb;
            let e = geodb.locate(*p).unwrap();
            assert!(e.error_radius_km < CALIBRATION_MAX_ERROR_KM);
        }
        // No duplicates.
        let mut dedup = sample.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), sample.len());
    }

    #[test]
    fn sampling_deterministic() {
        let (sim, universe) = setup();
        let a = sample_prefixes(&sim, &universe, 100, 5);
        let b = sample_prefixes(&sim, &universe, 100, 5);
        assert_eq!(a, b);
        let c = sample_prefixes(&sim, &universe, 100, 6);
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
        let sample = sample_prefixes(&sim, &universe, 400, 7);
        let radii = calibrate(&sim, bound, &domains, &sample, &cfg, SimTime::from_hours(6));
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
        assert_eq!(radii.radius(9999), FALLBACK_RADIUS_KM, "fallback radius");
    }
}
