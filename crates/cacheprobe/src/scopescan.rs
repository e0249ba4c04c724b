//! The authoritative scope pre-scan (§3.1.1, "identifying candidate
//! prefixes for ECS queries").
//!
//! Authoritatives often answer with a scope *less specific* than the
//! /24 in the query; Google then caches (and answers) for the whole
//! scope. So instead of probing Google for every /24, the prober first
//! queries each domain's authoritative across the address space,
//! skipping ahead by each returned scope, and later probes Google once
//! per learned scope. The paper saves ~an order of magnitude of probes
//! this way; Table 2 validates that scopes are stable enough for the
//! reduction to be safe.
//!
//! The scan universe is built from public data — RIR allocation files /
//! Routeviews dumps — passed in by the caller as a list of blocks.

use clientmap_dns::DomainName;
use clientmap_net::Prefix;
use clientmap_sim::{Sim, SimTime};
use clientmap_store::{slash24_index, Slash24Table};

/// The learned query plan for one domain: the distinct scopes to probe
/// Google with, each covering one or more universe /24s.
#[derive(Debug, Clone)]
pub struct DomainScopes {
    /// The domain.
    pub domain: DomainName,
    /// Learned scopes, disjoint within a block walk, address order.
    pub scopes: Vec<Prefix>,
    /// Authoritative queries the scan spent.
    pub queries_spent: u64,
}

/// The result of scanning all probing domains.
#[derive(Debug, Clone, Default)]
pub struct ScopeScan {
    /// Per-domain plans.
    pub domains: Vec<DomainScopes>,
}

impl ScopeScan {
    /// The plan for a domain.
    pub fn for_domain(&self, domain: &DomainName) -> Option<&DomainScopes> {
        self.domains.iter().find(|d| &d.domain == domain)
    }
}

/// Scope dedup over the full /24 space: a dense [`Slash24Table`] tags
/// the /24 holding each scope's network address with `scope length +
/// 1` (0 = unseen), so membership is one page-indexed byte load
/// instead of a hash probe. Scopes longer than /24 or colliding inside
/// one /24 slot — both rare, since authoritatives answer at /24 or
/// coarser — fall back to a small linear spill list, preserving exact
/// set semantics.
#[derive(Debug, Default)]
struct SeenScopes {
    dense: Slash24Table,
    spill: Vec<Prefix>,
}

impl SeenScopes {
    /// Records `s`; returns `true` the first time it is seen.
    fn insert(&mut self, s: Prefix) -> bool {
        if s.len() <= 24 {
            let idx = slash24_index(s.addr());
            let tag = s.len() + 1;
            match self.dense.get(idx) {
                0 => {
                    self.dense.set(idx, tag);
                    return true;
                }
                t if t == tag => return false,
                _ => {} // different-length scope shares the /24 slot
            }
        }
        if self.spill.contains(&s) {
            false
        } else {
            self.spill.push(s);
            true
        }
    }
}

/// Scans one domain's authoritative over `universe` blocks, walking
/// each block /24-by-/24 but skipping ahead over each returned scope.
pub fn scan_domain(
    sim: &Sim,
    domain: &DomainName,
    universe: &[Prefix],
    t: SimTime,
) -> DomainScopes {
    let mut scopes: Vec<Prefix> = Vec::new();
    let mut seen = SeenScopes::default();
    let mut queries = 0u64;
    for block in universe {
        let mut addr = u64::from(block.first_addr());
        let end = u64::from(block.last_addr());
        while addr <= end {
            let query = Prefix::new(addr as u32, 24).expect("24 is valid");
            queries += 1;
            let answer = sim.authoritative_scan(domain, query, t);
            let scope = answer.and_then(|a| a.scope);
            match scope {
                Some(s) if !s.is_default() => {
                    // Record the scope once; skip the rest of it.
                    if seen.insert(s) {
                        scopes.push(s);
                    }
                    addr = u64::from(s.last_addr()) + 1;
                }
                Some(_) | None => {
                    // Scope 0 (global) or no ECS: nothing cacheable per
                    // prefix here; move to the next /24.
                    addr += 256;
                }
            }
        }
    }
    scopes.sort();
    DomainScopes {
        domain: domain.clone(),
        scopes,
        queries_spent: queries,
    }
}

/// Scans all `domains` over the universe.
pub fn scan(sim: &Sim, domains: &[DomainName], universe: &[Prefix], t: SimTime) -> ScopeScan {
    ScopeScan {
        domains: domains
            .iter()
            .map(|d| scan_domain(sim, d, universe, t))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_world::{World, WorldConfig};

    fn setup() -> (Sim, Vec<Prefix>) {
        let world = World::generate(WorldConfig::tiny(81));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        (Sim::new(world), universe)
    }

    #[test]
    fn scopes_cover_universe_and_save_probes() {
        let (sim, universe) = setup();
        let domain: DomainName = "www.google.com".parse().unwrap();
        let plan = scan_domain(&sim, &domain, &universe, SimTime::ZERO);
        assert!(!plan.scopes.is_empty());
        // Every universe /24 is inside some scope or a scope-0 region.
        let total_24s: u64 = universe.iter().map(|b| b.num_slash24s()).sum();
        let covered: u64 = plan.scopes.iter().map(|s| s.num_slash24s()).sum();
        assert!(
            covered as f64 > 0.8 * total_24s as f64,
            "{covered}/{total_24s}"
        );
        // The scan spends far fewer queries than one per /24 would.
        assert!(plan.queries_spent < total_24s, "no skipping happened");
        assert!((plan.scopes.len() as u64) < total_24s, "no probes saved");
    }

    #[test]
    fn wikipedia_scopes_coarser_than_google() {
        let (sim, universe) = setup();
        let g = scan_domain(
            &sim,
            &"www.google.com".parse().unwrap(),
            &universe,
            SimTime::ZERO,
        );
        let w = scan_domain(
            &sim,
            &"www.wikipedia.org".parse().unwrap(),
            &universe,
            SimTime::ZERO,
        );
        // Wikipedia's /16–/18 scopes ⇒ far fewer scopes than Google's /20–/24.
        assert!(
            w.scopes.len() * 2 < g.scopes.len(),
            "wikipedia {} vs google {}",
            w.scopes.len(),
            g.scopes.len()
        );
        let avg_len = |p: &DomainScopes| {
            p.scopes.iter().map(|s| f64::from(s.len())).sum::<f64>() / p.scopes.len() as f64
        };
        assert!(avg_len(&w) < avg_len(&g));
    }

    #[test]
    fn non_ecs_domain_yields_no_scopes() {
        let (sim, universe) = setup();
        let plan = scan_domain(
            &sim,
            &"www.amazon.com".parse().unwrap(),
            &universe,
            SimTime::ZERO,
        );
        assert!(plan.scopes.is_empty());
    }

    #[test]
    fn scan_multi_domain() {
        let (sim, universe) = setup();
        let domains: Vec<DomainName> = vec![
            "www.google.com".parse().unwrap(),
            "www.wikipedia.org".parse().unwrap(),
        ];
        let s = scan(&sim, &domains, &universe, SimTime::ZERO);
        assert_eq!(s.domains.len(), 2);
        for d in &s.domains {
            assert!(!d.scopes.is_empty() && d.queries_spent > 0, "{d:?}");
        }
        assert!(s.for_domain(&domains[0]).is_some());
        assert!(s.for_domain(&"missing.example".parse().unwrap()).is_none());
    }

    #[test]
    fn seen_scopes_match_a_set_even_under_slot_collisions() {
        use std::collections::HashSet;
        let mut seen = SeenScopes::default();
        let mut reference: HashSet<Prefix> = HashSet::new();
        // Same /24 slot under three different lengths, a /25 (spill),
        // and a distinct /24 — inserted twice each.
        let scopes = [
            Prefix::new(0x0A000000, 24).unwrap(),
            Prefix::new(0x0A000000, 20).unwrap(),
            Prefix::new(0x0A000000, 16).unwrap(),
            Prefix::new(0x0A000000, 25).unwrap(),
            Prefix::new(0x0A000100, 24).unwrap(),
        ];
        for _ in 0..2 {
            for s in scopes {
                assert_eq!(seen.insert(s), reference.insert(s), "{s}");
            }
        }
    }

    #[test]
    fn scopes_deterministic_and_sorted() {
        let (sim, universe) = setup();
        let domain: DomainName = "facebook.com".parse().unwrap();
        let a = scan_domain(&sim, &domain, &universe, SimTime::ZERO);
        let b = scan_domain(&sim, &domain, &universe, SimTime::ZERO);
        assert_eq!(a.scopes, b.scopes);
        let mut sorted = a.scopes.clone();
        sorted.sort();
        assert_eq!(sorted, a.scopes);
    }
}
