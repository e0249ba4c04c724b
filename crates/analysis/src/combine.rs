//! Combining the two techniques at ⟨region, AS⟩ granularity — the
//! paper's §6 first future-work direction, implemented.
//!
//! The difficulty the paper names: cache probing measures **client
//! prefix** activity while DNS logs measures **recursive resolver**
//! activity. Its proposed join: "since users are often physically
//! close to and in the same AS as their recursive resolver, we can
//! estimate activity at the ⟨region, AS⟩ granularity and associate
//! that activity with active prefixes in that ⟨region, AS⟩."
//!
//! [`combine_region_as`] does exactly that: each resolver's Chromium
//! count lands in the ⟨country, AS⟩ cell given by public data (the
//! geolocation database and the RIB), and the cell's activity is
//! spread over the cache-probing-active prefixes mapped to the same
//! cell, yielding a per-prefix activity estimate neither technique
//! could produce alone.

use std::collections::HashMap;

use clientmap_cacheprobe::CacheProbeResult;
use clientmap_chromium::DnsLogsResult;
use clientmap_geo::{CountryCode, GeoDb};
use clientmap_net::{Asn, Prefix, Rib};

/// One ⟨country, AS⟩ cell of the combined estimate.
#[derive(Debug, Clone)]
pub struct RegionAsCell {
    /// Country (from the resolver's / prefixes' geolocation entries).
    pub country: CountryCode,
    /// The AS.
    pub asn: Asn,
    /// Chromium probes attributed to this cell's resolvers.
    pub resolver_probes: f64,
    /// Cache-probing-active prefixes mapped into the cell.
    pub active_prefixes: Vec<Prefix>,
    /// Active /24 count across those prefixes.
    pub active_24s: u64,
}

impl RegionAsCell {
    /// The combined per-/24 activity estimate: the cell's resolver
    /// activity spread uniformly over its active /24s (`None` if the
    /// cell has resolver signal but no located active prefixes — the
    /// join's residual, which the paper anticipates).
    pub fn per_slash24_activity(&self) -> Option<f64> {
        if self.active_24s == 0 {
            None
        } else {
            Some(self.resolver_probes / self.active_24s as f64)
        }
    }
}

fn empty_cell(country: CountryCode, asn: Asn) -> RegionAsCell {
    RegionAsCell {
        country,
        asn,
        resolver_probes: 0.0,
        active_prefixes: Vec::new(),
        active_24s: 0,
    }
}

/// Joins the two techniques on ⟨country, AS⟩ through public data only
/// (geolocation DB + RIB).
pub fn combine_region_as(
    cache_probe: &CacheProbeResult,
    dns_logs: &DnsLogsResult,
    geodb: &GeoDb,
    rib: &Rib,
) -> Vec<RegionAsCell> {
    let mut cells: HashMap<(CountryCode, Asn), RegionAsCell> = HashMap::new();

    // Resolver side: country from the geo DB, AS from the RIB.
    for r in &dns_logs.resolvers {
        let Some(asn) = rib.origin_of_addr(r.resolver_addr) else {
            continue;
        };
        let Some(country) = geodb.lookup_addr(r.resolver_addr).map(|e| e.country) else {
            continue;
        };
        let cell = cells
            .entry((country, asn))
            .or_insert_with(|| empty_cell(country, asn));
        cell.resolver_probes += r.probes;
    }

    // Prefix side: every active scope mapped to its ⟨country, AS⟩.
    for scope in cache_probe.hit_prefixes() {
        let Some(asn) = rib.origin_of_prefix(scope) else {
            continue;
        };
        let Some(country) = geodb.locate(scope).map(|e| e.country) else {
            continue;
        };
        let cell = cells
            .entry((country, asn))
            .or_insert_with(|| empty_cell(country, asn));
        cell.active_24s += scope.num_slash24s();
        cell.active_prefixes.push(scope);
    }

    let mut out: Vec<RegionAsCell> = cells.into_values().collect();
    out.sort_by(|a, b| {
        b.resolver_probes
            .total_cmp(&a.resolver_probes)
            .then_with(|| a.asn.cmp(&b.asn))
            .then_with(|| a.country.cmp(&b.country))
    });
    out
}

/// Summary statistics of a combined estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CombineSummary {
    /// Cells with both resolver signal and active prefixes (joined).
    pub joined_cells: usize,
    /// Cells with resolver signal only.
    pub resolver_only: usize,
    /// Cells with active prefixes only.
    pub prefix_only: usize,
    /// Fraction of resolver activity that landed in joined cells.
    pub joined_activity_fraction: f64,
}

/// Summarises how well the join worked.
pub fn summarize(cells: &[RegionAsCell]) -> CombineSummary {
    let mut joined = 0;
    let mut resolver_only = 0;
    let mut prefix_only = 0;
    let mut joined_activity = 0.0;
    let mut total_activity = 0.0;
    for c in cells {
        total_activity += c.resolver_probes;
        match (c.resolver_probes > 0.0, c.active_24s > 0) {
            (true, true) => {
                joined += 1;
                joined_activity += c.resolver_probes;
            }
            (true, false) => resolver_only += 1,
            (false, true) => prefix_only += 1,
            (false, false) => {}
        }
    }
    CombineSummary {
        joined_cells: joined,
        resolver_only,
        prefix_only,
        joined_activity_fraction: if total_activity > 0.0 {
            joined_activity / total_activity
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_chromium::ResolverActivity;
    use clientmap_geo::{GeoAccuracyModel, GeoDbBuilder, PrefixKind};
    use clientmap_net::GeoCoord;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn fixture() -> (CacheProbeResult, DnsLogsResult, GeoDb, Rib) {
        let mut rib = Rib::new();
        rib.announce(p("10.1.0.0/16"), Asn(100));
        rib.announce(p("10.2.0.0/16"), Asn(200));

        let mut gb = GeoDbBuilder::new();
        let us = "US".parse().unwrap();
        let br = "BR".parse().unwrap();
        let nyc = GeoCoord::new(40.7, -74.0).unwrap();
        let sao = GeoCoord::new(-23.5, -46.6).unwrap();
        gb.add(p("10.1.0.0/16"), nyc, us, PrefixKind::Eyeball);
        gb.add(p("10.2.0.0/16"), sao, br, PrefixKind::Eyeball);
        let model = GeoAccuracyModel {
            eyeball_max_err_km: 0.001,
            ..GeoAccuracyModel::default()
        };
        let geodb = gb.build(&model, &mut StdRng::seed_from_u64(1));

        let mut probe = CacheProbeResult::new(
            vec!["www.google.com".parse().unwrap()],
            Vec::new(),
            Default::default(),
        );
        probe.records = crate::hit_table(&[
            (0, p("10.1.0.0/22"), p("10.1.0.0/22")),
            (0, p("10.1.4.0/24"), p("10.1.4.0/24")),
        ]);

        let dns = DnsLogsResult {
            resolvers: vec![
                ResolverActivity {
                    resolver_addr: p("10.1.0.0/24").addr() | 53,
                    probes: 90.0,
                },
                ResolverActivity {
                    resolver_addr: p("10.2.0.0/24").addr() | 53,
                    probes: 10.0,
                },
            ],
            rejected_noise_records: 0,
            records_examined: 2,
        };
        (probe, dns, geodb, rib)
    }

    #[test]
    fn join_produces_cells_and_spreads_activity() {
        let (probe, dns, geodb, rib) = fixture();
        let cells = combine_region_as(&probe, &dns, &geodb, &rib);
        assert_eq!(cells.len(), 2);
        // AS100/US: 90 probes over 5 active /24s.
        let us_cell = cells.iter().find(|c| c.asn == Asn(100)).unwrap();
        assert_eq!(us_cell.country.as_str(), "US");
        assert_eq!(us_cell.active_24s, 5);
        assert!((us_cell.per_slash24_activity().unwrap() - 18.0).abs() < 1e-9);
        // AS200/BR: resolver signal but no active prefix located.
        let br_cell = cells.iter().find(|c| c.asn == Asn(200)).unwrap();
        assert_eq!(br_cell.active_24s, 0);
        assert!(br_cell.per_slash24_activity().is_none());
        // Sorted by activity.
        assert_eq!(cells[0].asn, Asn(100));
    }

    #[test]
    fn summary_accounting() {
        let (probe, dns, geodb, rib) = fixture();
        let cells = combine_region_as(&probe, &dns, &geodb, &rib);
        let s = summarize(&cells);
        assert_eq!(s.joined_cells, 1);
        assert_eq!(s.resolver_only, 1);
        assert_eq!(s.prefix_only, 0);
        assert!((s.joined_activity_fraction - 0.9).abs() < 1e-9);
    }

    #[test]
    fn unrouted_resolvers_dropped() {
        let (probe, mut dns, geodb, rib) = fixture();
        dns.resolvers.push(ResolverActivity {
            resolver_addr: 0xDEAD_BEEF,
            probes: 999.0,
        });
        let cells = combine_region_as(&probe, &dns, &geodb, &rib);
        let total: f64 = cells.iter().map(|c| c.resolver_probes).sum();
        assert!((total - 100.0).abs() < 1e-9, "phantom resolver leaked in");
    }
}
