//! The geolocation database simulator.
//!
//! [`GeoDbBuilder`] consumes ground-truth prefix locations from the
//! synthetic world and produces a [`GeoDb`] whose entries are perturbed
//! according to a [`GeoAccuracyModel`]: eyeball prefixes get small
//! errors and small reported error radii; infrastructure prefixes get
//! large errors, large radii, and occasionally the wrong country —
//! reproducing the documented asymmetry of commercial geolocation
//! databases that the paper's techniques both exploit (service-radius
//! calibration keeps only error radius < 200 km) and help diagnose
//! (knowing which prefixes host users tells you which geolocations to
//! trust).

use clientmap_net::{GeoCoord, Prefix, PrefixTrie};
use rand::Rng;

use crate::CountryCode;

/// What kind of network a prefix belongs to, for accuracy modelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixKind {
    /// End-user (eyeball) space: located well.
    Eyeball,
    /// Servers, CDN caches, routers, cloud: located poorly.
    Infrastructure,
}

/// One database entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoEntry {
    /// The database's belief about the prefix location.
    pub coord: GeoCoord,
    /// The database's self-reported error radius, km.
    pub error_radius_km: f64,
    /// The database's belief about the country.
    pub country: CountryCode,
}

/// Perturbation parameters for building a [`GeoDb`] from ground truth.
#[derive(Debug, Clone, Copy)]
pub struct GeoAccuracyModel {
    /// Maximum true placement error for eyeball prefixes, km.
    pub eyeball_max_err_km: f64,
    /// Maximum reported error radius for eyeball prefixes, km.
    pub eyeball_max_radius_km: f64,
    /// Maximum true placement error for infrastructure prefixes, km.
    pub infra_max_err_km: f64,
    /// Maximum reported error radius for infrastructure prefixes, km.
    pub infra_max_radius_km: f64,
    /// Probability an infrastructure prefix is assigned a *far* location
    /// (thousands of km off, typically a different country).
    pub infra_gross_error_prob: f64,
    /// Probability an eyeball entry reports a radius that *understates*
    /// the true error (databases are not honest about uncertainty).
    pub radius_understate_prob: f64,
}

impl Default for GeoAccuracyModel {
    fn default() -> Self {
        GeoAccuracyModel {
            eyeball_max_err_km: 60.0,
            eyeball_max_radius_km: 180.0,
            infra_max_err_km: 800.0,
            infra_max_radius_km: 1000.0,
            infra_gross_error_prob: 0.15,
            radius_understate_prob: 0.05,
        }
    }
}

/// Builder accumulating ground-truth locations.
#[derive(Debug, Default)]
pub struct GeoDbBuilder {
    entries: Vec<(Prefix, GeoCoord, CountryCode, PrefixKind)>,
}

impl GeoDbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GeoDbBuilder::default()
    }

    /// Registers the ground truth for a prefix.
    pub fn add(
        &mut self,
        prefix: Prefix,
        true_coord: GeoCoord,
        country: CountryCode,
        kind: PrefixKind,
    ) {
        self.entries.push((prefix, true_coord, country, kind));
    }

    /// Builds the database, perturbing each entry through `model` using
    /// the caller's RNG (deterministic under a seeded RNG).
    pub fn build<R: Rng>(self, model: &GeoAccuracyModel, rng: &mut R) -> GeoDb {
        let mut trie = PrefixTrie::new();
        for (prefix, truth, country, kind) in self.entries {
            let (max_err, max_radius) = match kind {
                PrefixKind::Eyeball => (model.eyeball_max_err_km, model.eyeball_max_radius_km),
                PrefixKind::Infrastructure => (model.infra_max_err_km, model.infra_max_radius_km),
            };
            let gross = kind == PrefixKind::Infrastructure
                && rng.gen_bool(model.infra_gross_error_prob.clamp(0.0, 1.0));
            let err_km = if gross {
                rng.gen_range(2000.0..8000.0)
            } else {
                rng.gen_range(0.0..max_err.max(f64::MIN_POSITIVE))
            };
            let bearing = rng.gen_range(0.0..360.0);
            let coord = truth.destination(bearing, err_km);
            // Reported radius: usually ≥ the actual displacement, with a
            // chance of understating it; gross errors report huge radii.
            let radius = if gross {
                rng.gen_range(1000.0..3000.0)
            } else if rng.gen_bool(model.radius_understate_prob.clamp(0.0, 1.0)) {
                rng.gen_range(1.0..(err_km.max(2.0)))
            } else {
                rng.gen_range(err_km..(err_km + max_radius).max(err_km + 1.0))
            };
            trie.insert(
                prefix,
                GeoEntry {
                    coord,
                    error_radius_km: radius,
                    country,
                },
            );
        }
        GeoDb { trie }
    }
}

/// The built database: longest-prefix-match lookups over entries.
#[derive(Debug)]
pub struct GeoDb {
    trie: PrefixTrie<GeoEntry>,
}

impl GeoDb {
    /// Looks up the entry covering `prefix` (most specific).
    pub fn lookup(&self, prefix: Prefix) -> Option<&GeoEntry> {
        self.trie.longest_match(prefix).map(|(_, e)| e)
    }

    /// Looks up the entry covering an address.
    pub fn lookup_addr(&self, addr: u32) -> Option<&GeoEntry> {
        self.trie.longest_match_addr(addr).map(|(_, e)| e)
    }

    /// Where a measured scope is: the entry covering `prefix`, else —
    /// for a scope coarser than every entry under it — the entry
    /// covering its network address.
    pub fn locate(&self, prefix: Prefix) -> Option<&GeoEntry> {
        self.lookup(prefix)
            .or_else(|| self.lookup_addr(prefix.addr()))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Whether a prefix's entry reports an error radius below `km` —
    /// the paper's < 200 km filter for service-radius calibration.
    pub fn radius_below(&self, prefix: Prefix, km: f64) -> bool {
        self.lookup(prefix)
            .map(|e| e.error_radius_km < km)
            .unwrap_or(false)
    }

    /// Registers the database shape under `geodb.` in `m`: entry count
    /// plus a histogram of self-reported error radii (whole km) — the
    /// quantity that gates scope→PoP assignment downstream.
    pub fn register_metrics(&self, m: &clientmap_telemetry::MetricsRegistry) {
        m.counter("geodb.entries").add(self.len() as u64);
        let radii = m.histogram("geodb.error_radius_km");
        for (_, e) in self.trie.iter() {
            radii.record(e.error_radius_km.max(0.0).round() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn us() -> CountryCode {
        "US".parse().unwrap()
    }

    fn build_one(kind: PrefixKind, seed: u64) -> GeoEntry {
        let mut b = GeoDbBuilder::new();
        let truth = GeoCoord::new(40.0, -74.0).unwrap();
        b.add(p("10.1.2.0/24"), truth, us(), kind);
        let mut rng = StdRng::seed_from_u64(seed);
        let db = b.build(&GeoAccuracyModel::default(), &mut rng);
        *db.lookup(p("10.1.2.0/24")).unwrap()
    }

    #[test]
    fn eyeball_entries_stay_close() {
        let truth = GeoCoord::new(40.0, -74.0).unwrap();
        for seed in 0..50 {
            let e = build_one(PrefixKind::Eyeball, seed);
            let d = truth.distance_km(&e.coord);
            assert!(d <= 60.0 + 1e-6, "seed {seed}: eyeball displaced {d} km");
            assert_eq!(e.country, us());
        }
    }

    #[test]
    fn infrastructure_sometimes_grossly_wrong() {
        let truth = GeoCoord::new(40.0, -74.0).unwrap();
        let mut gross = 0;
        for seed in 0..200 {
            let e = build_one(PrefixKind::Infrastructure, seed);
            if truth.distance_km(&e.coord) > 1500.0 {
                gross += 1;
            }
        }
        // ~15% gross error rate; allow a wide band.
        assert!((10..80).contains(&gross), "gross count {gross}");
    }

    #[test]
    fn reported_radius_mostly_covers_truth() {
        let truth = GeoCoord::new(40.0, -74.0).unwrap();
        let mut covered = 0;
        let n = 200;
        for seed in 0..n {
            let e = build_one(PrefixKind::Eyeball, seed);
            if truth.distance_km(&e.coord) <= e.error_radius_km {
                covered += 1;
            }
        }
        assert!(covered as f64 >= 0.85 * n as f64, "covered {covered}/{n}");
    }

    #[test]
    fn lookup_uses_lpm() {
        let mut b = GeoDbBuilder::new();
        let c1 = GeoCoord::new(0.0, 0.0).unwrap();
        let c2 = GeoCoord::new(50.0, 50.0).unwrap();
        b.add(p("10.0.0.0/8"), c1, us(), PrefixKind::Eyeball);
        b.add(
            p("10.1.0.0/16"),
            c2,
            "BR".parse().unwrap(),
            PrefixKind::Eyeball,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let model = GeoAccuracyModel {
            eyeball_max_err_km: 0.001,
            ..GeoAccuracyModel::default()
        };
        let db = b.build(&model, &mut rng);
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.lookup(p("10.1.2.0/24")).unwrap().country,
            "BR".parse().unwrap()
        );
        assert_eq!(db.lookup(p("10.2.2.0/24")).unwrap().country, us());
        assert!(db.lookup(p("11.0.0.0/24")).is_none());
        assert!(db.lookup_addr(0x0A010203).is_some());
    }

    #[test]
    fn locate_prefers_a_covering_entry_then_falls_back_to_the_address() {
        let mut b = GeoDbBuilder::new();
        let origin = GeoCoord::new(0.0, 0.0).unwrap();
        let br = "BR".parse().unwrap();
        b.add(p("10.0.0.0/8"), origin, us(), PrefixKind::Eyeball);
        b.add(p("10.1.0.0/24"), origin, br, PrefixKind::Eyeball);
        b.add(p("20.0.0.0/16"), origin, br, PrefixKind::Eyeball);
        let mut rng = StdRng::seed_from_u64(2);
        let db = b.build(&GeoAccuracyModel::default(), &mut rng);
        // A covering entry wins, even where the network address alone
        // would match something more specific.
        assert_eq!(db.lookup_addr(p("10.1.0.0/16").addr()).unwrap().country, br);
        assert_eq!(db.locate(p("10.1.0.0/16")).unwrap().country, us());
        // No covering entry: the address decides.
        assert!(db.lookup(p("20.0.0.0/8")).is_none());
        assert_eq!(db.locate(p("20.0.0.0/8")).unwrap().country, br);
        assert!(db.locate(p("30.0.0.0/8")).is_none());
    }

    #[test]
    fn radius_filter() {
        let mut b = GeoDbBuilder::new();
        b.add(
            p("10.1.2.0/24"),
            GeoCoord::new(1.0, 1.0).unwrap(),
            us(),
            PrefixKind::Eyeball,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let db = b.build(&GeoAccuracyModel::default(), &mut rng);
        let e = db.lookup(p("10.1.2.0/24")).unwrap();
        assert!(db.radius_below(p("10.1.2.0/24"), e.error_radius_km + 1.0));
        assert!(!db.radius_below(p("10.1.2.0/24"), e.error_radius_km - 1.0));
        assert!(
            !db.radius_below(p("99.0.0.0/24"), 1e9),
            "missing prefix is never below"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let e1 = build_one(PrefixKind::Infrastructure, 42);
        let e2 = build_one(PrefixKind::Infrastructure, 42);
        assert_eq!(e1, e2);
    }

    #[test]
    fn register_metrics_reports_entry_shape() {
        let mut b = GeoDbBuilder::new();
        let c = GeoCoord::new(10.0, 20.0).unwrap();
        b.add(p("10.0.0.0/24"), c, us(), PrefixKind::Eyeball);
        b.add(p("10.0.1.0/24"), c, us(), PrefixKind::Infrastructure);
        let db = b.build(&GeoAccuracyModel::default(), &mut StdRng::seed_from_u64(9));
        let m = clientmap_telemetry::MetricsRegistry::new();
        db.register_metrics(&m);
        let snap = m.snapshot();
        assert_eq!(snap.counter("geodb.entries"), 2);
        assert_eq!(snap.histogram("geodb.error_radius_km").unwrap().count, 2);
    }
}
