//! Warm-start sweep support: the config digest that scopes a
//! [`SweepSnapshot`](clientmap_store::SweepSnapshot)'s validity, and the
//! stable expiry hash the re-sweep planner draws from.
//!
//! A snapshot may only warm-start a run whose world seed **and** config
//! digest both match — any probing-relevant dial (window, redundancy,
//! transport, calibration sample, PoP cap, fault plan), a build that
//! changes one of the paper constants mixed in beside them (rate,
//! domain selection, calibration filter, percentile, fallback radius,
//! retry policy), or a different probe universe invalidates it.
//! The deliberate exceptions are [`ProbeConfig::expiry_budget`] —
//! re-sweeping the same world under a different freshness budget is the
//! point of warm starts — the batched-lane switch
//! ([`ProbeConfig::batched_probing`]), whose scalar/batched
//! equivalence the differential suite proves, and
//! the clustered-planner knobs ([`ProbeConfig::clustered_probing`],
//! [`ProbeConfig::cluster_epsilon`],
//! [`ProbeConfig::cluster_escalate_below`]) — the precision/recall
//! ablation warm-starts a clustered sweep from an exhaustive snapshot
//! and vice versa, which a digest-included knob would forbid.

use clientmap_net::{Prefix, SeedMixer};
use clientmap_sim::{Sim, Transport};

use crate::calibrate::{CALIBRATION_MAX_ERROR_KM, FALLBACK_RADIUS_KM, RADIUS_PERCENTILE};
use crate::probe::{NUM_ALEXA_DOMAINS, RATE_PER_DOMAIN};
use crate::resilience::{BACKOFF_BASE_MS, BREAKER_THRESHOLD, DEADLINE_MS, MAX_RETRIES};
use crate::ProbeConfig;

/// Digest of every probing-relevant configuration field plus the probe
/// universe, rooted at the world seed. Stable across runs, platforms,
/// and thread counts.
pub fn config_digest(sim: &Sim, cfg: &ProbeConfig, universe: &[Prefix]) -> u64 {
    let plan = sim.fault_plan();
    let mut mixer = SeedMixer::new(sim.world().config.seed)
        .mix_str("sweep-config")
        .mix(RATE_PER_DOMAIN.to_bits())
        .mix(cfg.duration_hours.to_bits())
        .mix(u64::from(cfg.redundancy))
        .mix(match cfg.transport {
            Transport::Udp => 0,
            Transport::Tcp => 1,
        })
        // The paper constants stay in the mix at fixed positions:
        // moving or dropping one would change every digest and strand
        // every stored snapshot and log. `1`: the Microsoft validation
        // domain is always selected.
        .mix(NUM_ALEXA_DOMAINS as u64)
        .mix(1)
        .mix(cfg.calibration_sample as u64)
        .mix(CALIBRATION_MAX_ERROR_KM.to_bits())
        .mix(RADIUS_PERCENTILE.to_bits())
        .mix(FALLBACK_RADIUS_KM.to_bits())
        .mix(cfg.max_pops.map_or(u64::MAX, |cap| cap as u64))
        // The retry constants: part of what a snapshot's records mean
        // under faults, so a build that changes one invalidates them.
        .mix(u64::from(MAX_RETRIES))
        .mix(BACKOFF_BASE_MS)
        .mix(DEADLINE_MS)
        .mix(u64::from(BREAKER_THRESHOLD))
        .mix_str(plan.profile().as_str());
    if plan.enabled() {
        // Off-profile plans carry whatever seed they were built with;
        // only an *active* plan's seed shapes the sweep.
        mixer = mixer.mix(plan.plan_seed());
    }
    mixer = mixer.mix(universe.len() as u64);
    for p in universe {
        mixer = mixer.mix(u64::from(p.addr()) << 8 | u64::from(p.len()));
    }
    mixer.finish()
}

/// The stable per-scope hash the planner's rotating expiry draw uses.
/// A function of the scope's *identity* (domain + prefix), never of
/// which vantage probes it or when — so the same scope expires in the
/// same epoch everywhere.
pub fn expiry_hash(world_seed: u64, domain: usize, scope: Prefix) -> u64 {
    SeedMixer::new(world_seed)
        .mix_str("resweep-expiry")
        .mix(domain as u64)
        .mix(u64::from(scope.addr()))
        .mix(u64::from(scope.len()))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_world::{World, WorldConfig};

    fn tiny_sim(seed: u64) -> (Sim, Vec<Prefix>) {
        let world = World::generate(WorldConfig::tiny(seed));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        (Sim::new(world), universe)
    }

    #[test]
    fn digest_is_stable_and_config_sensitive() {
        let (sim, universe) = tiny_sim(41);
        let cfg = ProbeConfig::test_scale();
        let base = config_digest(&sim, &cfg, &universe);
        assert_eq!(base, config_digest(&sim, &cfg, &universe));

        let mut redundancy = cfg.clone();
        redundancy.redundancy += 1;
        assert_ne!(base, config_digest(&sim, &redundancy, &universe));

        let mut capped = cfg.clone();
        capped.max_pops = Some(3);
        assert_ne!(base, config_digest(&sim, &capped, &universe));

        assert_ne!(
            base,
            config_digest(&sim, &cfg, &universe[..universe.len() - 1]),
            "universe is part of the digest"
        );

        // The freshness budget is deliberately NOT in the digest.
        let mut budgeted = cfg.clone();
        budgeted.expiry_budget = 0.1;
        assert_eq!(base, config_digest(&sim, &budgeted, &universe));

        // Neither is the batched-lane switch: the differential suite
        // proves scalar and batched sweeps byte-identical, so flipping
        // it must not invalidate a snapshot.
        let mut scalar = cfg.clone();
        scalar.batched_probing = !scalar.batched_probing;
        assert_eq!(base, config_digest(&sim, &scalar, &universe));

        // Nor the clustered-planner knobs: exhaustive and clustered
        // sweeps must be able to warm-start each other (the ablation's
        // whole premise), so flipping them keeps snapshots valid.
        let mut clustered = cfg.clone();
        clustered.clustered_probing = true;
        assert_eq!(base, config_digest(&sim, &clustered, &universe));
        let mut wide = cfg.clone();
        wide.cluster_epsilon = 0.6;
        assert_eq!(base, config_digest(&sim, &wide, &universe));
        let mut strict = cfg.clone();
        strict.cluster_escalate_below = 0.9;
        assert_eq!(base, config_digest(&sim, &strict, &universe));
    }

    #[test]
    fn expiry_hash_depends_on_identity_only() {
        let scope: Prefix = "10.1.0.0/20".parse().unwrap();
        let other: Prefix = "10.2.0.0/20".parse().unwrap();
        assert_eq!(expiry_hash(7, 0, scope), expiry_hash(7, 0, scope));
        assert_ne!(expiry_hash(7, 0, scope), expiry_hash(7, 1, scope));
        assert_ne!(expiry_hash(7, 0, scope), expiry_hash(7, 0, other));
        assert_ne!(expiry_hash(7, 0, scope), expiry_hash(8, 0, scope));
    }
}
