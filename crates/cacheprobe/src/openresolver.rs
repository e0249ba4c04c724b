//! The open-resolver cache-snooping **baseline** (§3.1's rejected
//! alternative), implemented for comparison.
//!
//! Method: scan the address space for resolvers that answer off-net
//! queries, then cache-snoop each open one with non-recursive queries
//! for the popular domains, marking the resolver's network active on a
//! hit. The paper rejects this approach because closed resolvers cap
//! coverage far below "global" — running the baseline quantifies that
//! gap against the Google-ECS technique (`repro baseline`).

use std::collections::HashSet;

use clientmap_dns::DomainName;
use clientmap_net::Asn;
use clientmap_sim::resolvers::SnoopOutcome;
use clientmap_sim::{Sim, SimTime};

/// Result of the baseline run.
#[derive(Debug, Default)]
pub struct OpenResolverResult {
    /// Resolver addresses that answered off-net queries at all.
    pub open_resolvers: Vec<u32>,
    /// Resolvers (addresses) with at least one cache hit.
    pub resolvers_with_hits: Vec<u32>,
    /// ASes inferred active (origin of a hit resolver's address).
    pub active_ases: Vec<Asn>,
    /// Snoop queries sent.
    pub queries_sent: u64,
}

impl OpenResolverResult {
    /// AS coverage of the baseline.
    pub fn num_ases(&self) -> usize {
        self.active_ases.len()
    }
}

/// Runs the baseline: `rounds` snoop passes over every open resolver,
/// spaced `spacing_secs` apart, for the given domains.
pub fn run_baseline(
    sim: &Sim,
    domains: &[DomainName],
    rounds: u32,
    spacing_secs: u64,
    t0: SimTime,
) -> OpenResolverResult {
    let world = sim.world();
    let mut result = OpenResolverResult::default();
    let mut hit_ases: HashSet<Asn> = HashSet::new();

    for rid in 0..world.resolvers.len() {
        // The port-53 scan: closed resolvers answer nothing.
        if !sim.resolver_is_open(rid) {
            continue;
        }
        let addr = world.resolvers[rid].addr;
        result.open_resolvers.push(addr);
        let mut any_hit = false;
        for round in 0..rounds {
            let t = t0 + SimTime::from_secs(u64::from(round) * spacing_secs);
            for domain in domains {
                result.queries_sent += 1;
                if let Some(SnoopOutcome::Hit { .. }) = sim.snoop_resolver(rid, domain, t) {
                    any_hit = true;
                }
            }
        }
        if any_hit {
            result.resolvers_with_hits.push(addr);
            if let Some(asn) = world.rib.origin_of_addr(addr) {
                hit_ases.insert(asn);
            }
        }
    }
    result.active_ases = hit_ases.into_iter().collect();
    result.active_ases.sort_unstable();
    result.open_resolvers.sort_unstable();
    result.resolvers_with_hits.sort_unstable();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::sweep_in_process;
    use crate::ProbeConfig;
    use clientmap_net::Prefix;
    use clientmap_world::{World, WorldConfig};

    fn setup() -> Sim {
        Sim::new(World::generate(WorldConfig::tiny(71)))
    }

    fn paper_domains(sim: &Sim) -> Vec<DomainName> {
        sim.world()
            .domains
            .top_probeable(4)
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }

    #[test]
    fn baseline_finds_some_but_few_ases() {
        let sim = setup();
        let domains = paper_domains(&sim);
        let result = run_baseline(&sim, &domains, 5, 600, SimTime::from_hours(10));
        // Some open resolvers exist and some hit…
        assert!(
            !result.open_resolvers.is_empty(),
            "no open resolvers at all"
        );
        assert!(result.queries_sent > 0);
        // …but coverage is a small fraction of the world's user ASes —
        // the paper's reason to reject the approach.
        let user_ases = sim.world().ases.iter().filter(|a| a.users > 0.0).count();
        assert!(
            result.num_ases() * 3 < user_ases,
            "baseline covered {}/{} ASes — implausibly global",
            result.num_ases(),
            user_ases
        );
    }

    #[test]
    fn baseline_far_below_google_ecs_technique() {
        let world = World::generate(WorldConfig::tiny(72));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        let mut sim = Sim::new(world);
        let mut cfg = ProbeConfig::test_scale();
        cfg.duration_hours = 2.0;
        cfg.calibration_sample = 200;
        let ecs = sweep_in_process(&mut sim, &cfg, &universe, None).0;
        let domains = paper_domains(&sim);
        let baseline = run_baseline(&sim, &domains, 5, 600, SimTime::from_hours(10));
        let ecs_ases = ecs.active_ases(&sim.world().rib).len();
        assert!(
            baseline.num_ases() * 2 < ecs_ases.max(1),
            "baseline {} vs ECS technique {}",
            baseline.num_ases(),
            ecs_ases
        );
    }

    #[test]
    fn hits_subset_of_open() {
        let sim = setup();
        let domains = paper_domains(&sim);
        let result = run_baseline(&sim, &domains, 3, 600, SimTime::from_hours(9));
        for addr in &result.resolvers_with_hits {
            assert!(result.open_resolvers.contains(addr));
        }
    }

    #[test]
    fn deterministic() {
        let sim = setup();
        let domains = paper_domains(&sim);
        let a = run_baseline(&sim, &domains, 3, 600, SimTime::from_hours(9));
        let b = run_baseline(&sim, &domains, 3, 600, SimTime::from_hours(9));
        assert_eq!(a.open_resolvers, b.open_resolvers);
        assert_eq!(a.active_ases, b.active_ases);
        assert_eq!(a.queries_sent, b.queries_sent);
    }
}
