//! Cloud vantage points and PoP discovery.
//!
//! The paper runs probers from AWS and Vultr VMs around the world and
//! uses `dig @8.8.8.8 o-o.myaddr.l.google.com TXT` to learn which PoP
//! each VM's anycast path reaches — 16 PoPs via AWS regions plus 6 more
//! via Vultr, for 22 of Google's 45.

use clientmap_net::GeoCoord;
use clientmap_sim::{Catchments, PopId, Sim, SimTime, VantageRoute};

use crate::resilience::{
    backoff_delay_ms, FaultCounters, BACKOFF_BASE_MS, DEADLINE_MS, MAX_RETRIES,
};

/// Cloud provider of a vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// Amazon Web Services region.
    Aws,
    /// Vultr location.
    Vultr,
}

/// One vantage point (a cloud VM).
#[derive(Debug, Clone, Copy)]
pub struct VantagePoint {
    /// Region name.
    pub name: &'static str,
    /// Provider.
    pub provider: Provider,
    /// Location.
    pub coord: GeoCoord,
}

macro_rules! vp {
    ($name:literal, $prov:ident, $lat:literal, $lon:literal) => {
        VantagePoint {
            name: $name,
            provider: Provider::$prov,
            coord: GeoCoord {
                lat: $lat,
                lon: $lon,
            },
        }
    };
}

/// The vantage-point catalog: AWS regions plus Vultr locations chosen
/// to extend coverage (as the paper did).
pub static VANTAGE_POINTS: &[VantagePoint] = &[
    // AWS regions.
    vp!("us-east-1 (N. Virginia)", Aws, 38.9, -77.4),
    vp!("us-east-2 (Ohio)", Aws, 40.0, -83.0),
    vp!("us-west-1 (N. California)", Aws, 37.4, -122.0),
    vp!("us-west-2 (Oregon)", Aws, 45.8, -119.7),
    vp!("ca-central-1 (Montreal)", Aws, 45.5, -73.6),
    vp!("sa-east-1 (Sao Paulo)", Aws, -23.5, -46.6),
    vp!("eu-west-1 (Ireland)", Aws, 53.3, -6.3),
    vp!("eu-west-2 (London)", Aws, 51.5, -0.1),
    vp!("eu-west-3 (Paris)", Aws, 48.9, 2.4),
    vp!("eu-central-1 (Frankfurt)", Aws, 50.1, 8.7),
    vp!("eu-north-1 (Stockholm)", Aws, 59.3, 18.1),
    vp!("ap-northeast-1 (Tokyo)", Aws, 35.7, 139.7),
    vp!("ap-northeast-2 (Seoul)", Aws, 37.6, 127.0),
    vp!("ap-northeast-3 (Osaka)", Aws, 34.7, 135.5),
    vp!("ap-southeast-1 (Singapore)", Aws, 1.4, 103.8),
    vp!("ap-southeast-2 (Sydney)", Aws, -33.9, 151.2),
    vp!("ap-east-1 (Hong Kong)", Aws, 22.3, 114.2),
    vp!("ap-south-1 (Mumbai)", Aws, 19.1, 72.9),
    // Vultr extensions.
    vp!("vultr-atlanta", Vultr, 33.7, -84.4),
    vp!("vultr-dallas", Vultr, 32.8, -96.8),
    vp!("vultr-seattle", Vultr, 47.6, -122.3),
    vp!("vultr-toronto", Vultr, 43.7, -79.4),
    vp!("vultr-amsterdam", Vultr, 52.4, 4.9),
    vp!("vultr-warsaw", Vultr, 52.2, 21.0),
    vp!("vultr-santiago", Vultr, -33.4, -70.7),
    vp!("vultr-taipei", Vultr, 25.0, 121.6),
    vp!("vultr-johannesburg", Vultr, -26.2, 28.0),
    vp!("vultr-helsinki", Vultr, 60.2, 24.9),
    vp!("vultr-zurich", Vultr, 47.4, 8.5),
    vp!("vultr-okinawa", Vultr, 26.3, 127.8),
];

/// A vantage point bound to the PoP it discovered.
#[derive(Debug, Clone, Copy)]
pub struct BoundVantage {
    /// Index into [`VANTAGE_POINTS`].
    pub vp: usize,
    /// The PoP this VM reaches.
    pub pop: PopId,
}

impl BoundVantage {
    /// Stable prober key used for anycast routing and rate limiting.
    pub fn prober_key(&self) -> u64 {
        self.vp as u64 + 1
    }

    /// The vantage point's coordinates.
    pub fn coord(&self) -> GeoCoord {
        VANTAGE_POINTS[self.vp].coord
    }

    /// The VM's anycast route, resolved once for a probe stream.
    pub fn route(&self, catchments: &Catchments) -> VantageRoute {
        catchments.vantage_route(self.prober_key(), self.coord())
    }
}

/// Discovers the PoPs reachable from the catalog: one bound vantage per
/// distinct PoP (first VM to reach it wins, as the paper keeps one VM
/// per covered PoP).
pub fn discover(sim: &mut Sim, t: SimTime) -> Vec<BoundVantage> {
    discover_with(sim, t, None)
}

/// [`discover`] with bounded retries per vantage point. Under fault
/// injection a discovery exchange can be lost or answered with an
/// error, and an undiscovered vantage silently shrinks PoP coverage —
/// so each VM retries its `o-o.myaddr` dance with seeded backoff up to
/// the retry budget. With `fc = None` (fault-free) this is the
/// single-attempt path, byte-identical to the pre-fault [`discover`].
pub fn discover_with(sim: &mut Sim, t: SimTime, fc: Option<&FaultCounters>) -> Vec<BoundVantage> {
    let mut bound: Vec<BoundVantage> = Vec::new();
    for (i, vp) in VANTAGE_POINTS.iter().enumerate() {
        let key = i as u64 + 1;
        let mut delay = 0u64;
        let mut failures = 0u64;
        let mut pop = None;
        for retry in 0..=MAX_RETRIES {
            if retry > 0 {
                let Some(fc) = fc else { break };
                delay += backoff_delay_ms(key, t.as_millis(), retry, BACKOFF_BASE_MS);
                if delay > DEADLINE_MS {
                    break;
                }
                fc.retries.inc();
            }
            match sim.discover_pop(key, vp.coord, t + SimTime::from_millis(delay)) {
                Some(p) => {
                    pop = Some(p);
                    break;
                }
                None => {
                    if let Some(fc) = fc {
                        fc.observed_discovery.inc();
                        failures += 1;
                    }
                }
            }
        }
        if let Some(fc) = fc {
            if pop.is_none() {
                fc.lost.add(failures);
            } else if failures > 0 {
                fc.recovered.add(failures);
            }
        }
        if let Some(pop) = pop {
            if !bound.iter().any(|b| b.pop == pop) {
                bound.push(BoundVantage { vp: i, pop });
            }
        }
    }
    bound.sort_by_key(|b| b.pop);
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_sim::{pop_catalog, PopStatus};
    use clientmap_world::{World, WorldConfig};

    /// Fault-free and under the lossy profile (retried discovery), the
    /// bound vantages are probeable PoPs, one per PoP, strictly
    /// ascending by PoP — what `prepare_sweep` asserts.
    #[test]
    fn discovery_covers_many_probeable_pops() {
        use clientmap_faults::{FaultConfig, FaultProfile};
        use clientmap_telemetry::MetricsRegistry;
        use std::sync::Arc;

        let mut sim = Sim::new(World::generate(WorldConfig::tiny(71)));
        let clean = discover(&mut sim, SimTime::ZERO);
        let mut lossy = Sim::with_faults(
            World::generate(WorldConfig::tiny(71)),
            Arc::new(MetricsRegistry::new()),
            &FaultConfig::profile(FaultProfile::Lossy, 5),
        );
        let fc = FaultCounters::resolve(lossy.metrics());
        let retried = discover_with(&mut lossy, SimTime::ZERO, Some(&fc));
        assert!(fc.retries.get() > 0, "lossy discovery must retry something");
        for bound in [clean, retried] {
            assert!(
                bound.len() >= 10,
                "only {} PoPs discovered from {} VPs",
                bound.len(),
                VANTAGE_POINTS.len()
            );
            for b in &bound {
                assert_eq!(pop_catalog()[b.pop].status, PopStatus::ProbedVerified);
            }
            assert!(
                bound.windows(2).all(|w| w[0].pop < w[1].pop),
                "bound vantages not strictly ascending by PoP"
            );
        }
    }

    #[test]
    fn discovery_is_deterministic() {
        let mut sim = Sim::new(World::generate(WorldConfig::tiny(71)));
        let a = discover(&mut sim, SimTime::ZERO);
        let b = discover(&mut sim, SimTime::from_secs(60));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pop, y.pop);
            assert_eq!(x.vp, y.vp);
        }
    }

    #[test]
    fn catalog_has_both_providers() {
        assert!(VANTAGE_POINTS.iter().any(|v| v.provider == Provider::Aws));
        assert!(VANTAGE_POINTS.iter().any(|v| v.provider == Provider::Vultr));
        assert!(VANTAGE_POINTS.len() >= 25);
    }
}
