//! Anycast catchment simulation.
//!
//! Google Public DNS directs clients to PoPs with BGP anycast. Anycast
//! routing correlates with distance but is *not* nearest-PoP (the paper
//! cites [8, 21, 24]); we model a per-/24 deterministic "routing
//! inflation" factor so most prefixes land at a nearby PoP and a tail
//! lands further away — exactly the effect the per-PoP service-radius
//! calibration (Fig. 2) has to absorb.
//!
//! Cloud vantage points see a *restricted* anycast horizon: the five
//! active-but-unprobed PoPs attract no route from any tried cloud
//! region (paper Appendix A.1), which we model by excluding them from
//! VM catchment computation.

use clientmap_net::{GeoCoord, SeedMixer};
use clientmap_world::par::par_map;
use clientmap_world::World;

use crate::pops::{active_pops, pop_catalog, probeable_pops, PopId};

/// Per-world catchment table: which PoP each routed /24 is served by,
/// plus helpers for vantage-point routing.
#[derive(Debug)]
pub struct Catchments {
    /// Index parallel to `world.slash24s`.
    by_slash24: Vec<PopId>,
    /// The routing-inflation chain, seeded and tagged.
    inflation: SeedMixer,
    /// The PoPs clients can reach (every active one).
    client_pops: Vec<Candidate>,
    /// The PoPs cloud VMs can reach (the probeable set).
    vantage_pops: Vec<Candidate>,
}

/// One PoP as routing sees it, measured once per table: its id and
/// coordinates, the cosine of its latitude, and its routing penalty.
///
/// Active-but-cloud-unreachable PoPs (the paper's "unprobed and
/// verified" five) carry a penalty: they announce the anycast prefix
/// to fewer peers, so even nearby clients often route past them —
/// which is why they carry only ~5% of Google's query volume
/// (Appendix A.1).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    id: PopId,
    coord: GeoCoord,
    cos_lat: f64,
    penalty: f64,
}

fn candidates(ids: impl Iterator<Item = PopId>) -> Vec<Candidate> {
    let pops = pop_catalog();
    ids.map(|id| Candidate {
        id,
        coord: pops[id].coord,
        cos_lat: pops[id].coord.cos_lat(),
        penalty: if pops[id].status == crate::pops::PopStatus::UnprobedVerified {
            2.2
        } else {
            1.0
        },
    })
    .collect()
}

/// Chooses the PoP with minimal inflated distance among `candidates`
/// (the first such, in candidate order). `by_key` is the inflation
/// chain already mixed with the routed entity's key; each candidate's
/// deterministic inflation factor, in `[1, 1+spread)`, continues it with
/// the PoP id.
fn route<'c>(
    by_key: SeedMixer,
    from: GeoCoord,
    candidates: impl Iterator<Item = &'c Candidate>,
    spread: f64,
) -> PopId {
    let cos_from = from.cos_lat();
    candidates
        .map(|c| {
            let d = from.distance_km_cos(cos_from, &c.coord, c.cos_lat).max(1.0);
            let h = by_key.mix(c.id as u64).finish();
            // Map to [0,1) then to [1, 1+spread).
            let inflation = 1.0 + (h >> 11) as f64 / (1u64 << 53) as f64 * spread;
            (d * c.penalty * inflation, c.id)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, id)| id)
        .expect("candidate set is never empty")
}

/// A cloud vantage's resolved anycast route: the PoP its traffic
/// reaches, and where it lands while a flap withdraws that PoP. Both
/// are pure functions of ⟨catchment seed, prober key, coordinate⟩, so a
/// probe stream resolves its route once
/// ([`Catchments::vantage_route`]) and every query only decides whether
/// it flaps ([`crate::GooglePublicDns::route`]) — as a prober learns
/// its VM's PoP once with the `o-o.myaddr` dance and then sends its
/// whole stream from that VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VantageRoute {
    /// The prober key: flap decisions and rate limiting are keyed by it.
    pub prober: u64,
    /// The home catchment ([`Catchments::of_vantage`]).
    pub home: PopId,
    /// The flapped route: the best-scoring other cloud-reachable PoP
    /// ([`Catchments::of_vantage_excluding`] `home`), or `home` when
    /// there is no other.
    pub alternate: PopId,
}

/// Routing-inflation spread for clients (0.9 ⇒ up to ~90% detour).
const CLIENT_SPREAD: f64 = 0.9;
/// Cloud VMs have cleaner routing toward Google.
const VM_SPREAD: f64 = 0.4;

impl Catchments {
    /// Computes the client catchment of every routed /24 in the world.
    pub fn compute(world: &World) -> Catchments {
        let seed = SeedMixer::new(world.config.seed)
            .mix_str("catchments")
            .finish();
        let inflation = SeedMixer::new(seed).mix_str("anycast-inflation");
        let client_pops = candidates(active_pops());
        // A pure per-/24 map; the ordered reduction keeps the table
        // identical at any thread count.
        let by_slash24 = par_map(&world.slash24s, |_, s| {
            let by_key = inflation.mix(u64::from(s.prefix.addr()));
            route(by_key, s.coord, client_pops.iter(), CLIENT_SPREAD)
        });
        Catchments {
            by_slash24,
            inflation,
            client_pops,
            vantage_pops: candidates(probeable_pops()),
        }
    }

    /// The PoP serving the world's `i`-th routed /24.
    pub fn of_slash24(&self, i: usize) -> PopId {
        self.by_slash24[i]
    }

    /// The PoP an arbitrary coordinate's clients would be served by
    /// (used for resolvers and for ad-hoc queries; keyed by a caller-
    /// chosen stable id so the same entity always routes the same way).
    pub fn of_client_coord(&self, key: u64, coord: GeoCoord) -> PopId {
        route(
            self.inflation.mix(key),
            coord,
            self.client_pops.iter(),
            CLIENT_SPREAD,
        )
    }

    /// The PoP a cloud VM at `coord` reaches — restricted to the
    /// probeable set (the 5 active-unprobed PoPs attract no cloud route).
    pub fn of_vantage(&self, key: u64, coord: GeoCoord) -> PopId {
        route(
            self.inflation.mix(key),
            coord,
            self.vantage_pops.iter(),
            VM_SPREAD,
        )
    }

    /// [`Catchments::of_vantage`] with one PoP withdrawn — where a
    /// vantage's traffic lands while an anycast flap (fault injection)
    /// suppresses its home catchment for a routing window.
    pub fn of_vantage_excluding(&self, key: u64, coord: GeoCoord, exclude: PopId) -> PopId {
        let mut candidates = self
            .vantage_pops
            .iter()
            .filter(|c| c.id != exclude)
            .peekable();
        if candidates.peek().is_none() {
            return exclude;
        }
        route(self.inflation.mix(key), coord, candidates, VM_SPREAD)
    }

    /// The route of the cloud VM keyed `key` at `coord`: its home
    /// catchment and, resolved eagerly, its flap alternate.
    pub fn vantage_route(&self, key: u64, coord: GeoCoord) -> VantageRoute {
        let home = self.of_vantage(key, coord);
        VantageRoute {
            prober: key,
            home,
            alternate: self.of_vantage_excluding(key, coord, home),
        }
    }

    /// Number of /24 entries.
    pub fn len(&self) -> usize {
        self.by_slash24.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_slash24.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pops::PopStatus;
    use clientmap_world::WorldConfig;

    fn world() -> World {
        World::generate(WorldConfig::tiny(11))
    }

    #[test]
    fn every_slash24_has_an_active_catchment() {
        let w = world();
        let c = Catchments::compute(&w);
        assert_eq!(c.len(), w.slash24s.len());
        let pops = pop_catalog();
        for i in 0..c.len() {
            assert_ne!(pops[c.of_slash24(i)].status, PopStatus::UnprobedInactive);
        }
    }

    #[test]
    fn catchment_is_deterministic() {
        let w = world();
        let c1 = Catchments::compute(&w);
        let c2 = Catchments::compute(&w);
        for i in (0..c1.len()).step_by(7) {
            assert_eq!(c1.of_slash24(i), c2.of_slash24(i));
        }
    }

    #[test]
    fn catchment_table_is_equal_at_one_and_four_threads() {
        use clientmap_world::par::with_threads;
        let w = world();
        let one = with_threads(1, || Catchments::compute(&w));
        let four = with_threads(4, || Catchments::compute(&w));
        assert!(one.len() > 4, "enough /24s for four workers to share");
        assert_eq!(one.by_slash24, four.by_slash24);
    }

    // The routing loop as it was before the PoP table and the
    // per-key inflation head: the oracle the table must match.

    fn oracle_inflation(seed: u64, key: u64, pop: PopId, spread: f64) -> f64 {
        let h = SeedMixer::new(seed)
            .mix_str("anycast-inflation")
            .mix(key)
            .mix(pop as u64)
            .finish();
        1.0 + (h >> 11) as f64 / (1u64 << 53) as f64 * spread
    }

    fn oracle_route(
        seed: u64,
        key: u64,
        from: GeoCoord,
        candidates: impl Iterator<Item = PopId>,
        spread: f64,
    ) -> PopId {
        let pops = pop_catalog();
        candidates
            .map(|id| {
                let d = from.distance_km(&pops[id].coord).max(1.0);
                let penalty = if pops[id].status == PopStatus::UnprobedVerified {
                    2.2
                } else {
                    1.0
                };
                (d * penalty * oracle_inflation(seed, key, id, spread), id)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, id)| id)
            .unwrap()
    }

    fn catchment_seed(w: &World) -> u64 {
        SeedMixer::new(w.config.seed).mix_str("catchments").finish()
    }

    #[test]
    fn catchment_table_matches_the_full_routing_loop() {
        use clientmap_world::par::with_threads;
        for w in [world(), World::generate(WorldConfig::small(11))] {
            let seed = catchment_seed(&w);
            let want: Vec<PopId> = w
                .slash24s
                .iter()
                .map(|s| {
                    let key = u64::from(s.prefix.addr());
                    oracle_route(seed, key, s.coord, active_pops(), CLIENT_SPREAD)
                })
                .collect();
            for threads in [1, 4] {
                let c = with_threads(threads, || Catchments::compute(&w));
                assert!(c.by_slash24 == want, "{threads} threads");
            }
        }
    }

    #[test]
    fn per_call_routes_match_the_full_routing_loop() {
        let w = world();
        let (c, seed) = (Catchments::compute(&w), catchment_seed(&w));
        let mut state = 0xCA7C_u64;
        for _ in 0..4_000 {
            state = clientmap_net::splitmix64(state);
            let key = state % 1_000;
            let coord = GeoCoord::new(
                (state >> 8) as f64 / (1u64 << 56) as f64 * 160.0 - 80.0,
                (state >> 20) as f64 / (1u64 << 44) as f64 * 360.0 - 180.0,
            )
            .unwrap();
            let client = oracle_route(seed, key, coord, active_pops(), CLIENT_SPREAD);
            assert_eq!(c.of_client_coord(key, coord), client);
            let home = oracle_route(seed, key, coord, probeable_pops(), VM_SPREAD);
            assert_eq!(c.of_vantage(key, coord), home);
            let others = probeable_pops().filter(|&p| p != home);
            let alternate = oracle_route(seed, key, coord, others, VM_SPREAD);
            assert_eq!(c.of_vantage_excluding(key, coord, home), alternate);
        }
    }

    #[test]
    fn most_prefixes_route_near() {
        let w = world();
        let c = Catchments::compute(&w);
        let pops = pop_catalog();
        // For each prefix, its assigned PoP should usually be within 2×
        // the distance of the true nearest active PoP.
        let mut near = 0;
        let mut total = 0;
        for (i, s) in w.slash24s.iter().enumerate() {
            let assigned = pops[c.of_slash24(i)].coord;
            let d_assigned = s.coord.distance_km(&assigned);
            let d_nearest = active_pops()
                .map(|id| s.coord.distance_km(&pops[id].coord))
                .fold(f64::INFINITY, f64::min);
            total += 1;
            if d_assigned <= 2.0 * d_nearest.max(50.0) {
                near += 1;
            }
        }
        assert!(
            near as f64 > 0.85 * total as f64,
            "only {near}/{total} near their PoP"
        );
    }

    #[test]
    fn vantage_points_never_reach_unprobed_pops() {
        let w = world();
        let c = Catchments::compute(&w);
        let pops = pop_catalog();
        // A VM in Lima still cannot reach the Lima PoP.
        let lima = GeoCoord::new(-12.05, -77.04).unwrap();
        let reached = c.of_vantage(1, lima);
        assert_eq!(pops[reached].status, PopStatus::ProbedVerified);
        // But clients in Lima can.
        let client_pop = c.of_client_coord(1, lima);
        assert_ne!(pops[client_pop].status, PopStatus::UnprobedInactive);
    }

    #[test]
    fn andean_clients_often_land_on_unreachable_pops() {
        // Clients scattered around Lima/Quito/La Paz should frequently be
        // served by the UnprobedVerified PoPs — the mechanism behind the
        // paper's South America coverage gap.
        let w = world();
        let c = Catchments::compute(&w);
        let pops = pop_catalog();
        let lima = GeoCoord::new(-12.05, -77.04).unwrap();
        let mut unreachable = 0;
        let n = 200;
        for key in 0..n {
            let coord = lima.destination((key * 17 % 360) as f64, (key % 40) as f64 * 10.0);
            let pop = c.of_client_coord(key, coord);
            if pops[pop].status == PopStatus::UnprobedVerified {
                unreachable += 1;
            }
        }
        assert!(
            unreachable > n / 4,
            "only {unreachable}/{n} Andean clients on unreachable PoPs"
        );
    }
}
