//! Figure-level analyses: PoP densities (Fig. 1), service-radius CDFs
//! (Fig. 2), per-AS fraction-active bounds (Fig. 4), and relative
//! volume distributions (Figs. 6 & 7).

use std::collections::HashMap;

use clientmap_cacheprobe::CacheProbeResult;
use clientmap_datasets::AsView;
use clientmap_net::{Asn, Rib};

use crate::stats::Ecdf;

/// One PoP's probing yield (Figure 1's per-site density).
#[derive(Debug, Clone)]
pub struct PopDensity {
    /// PoP index in the catalog.
    pub pop: usize,
    /// Site code.
    pub code: &'static str,
    /// Location.
    pub location: &'static str,
    /// Active /24 prefixes discovered at this PoP.
    pub active_slash24s: u64,
    /// Scopes that were assigned to this PoP.
    pub assigned_scopes: usize,
}

/// Figure 1: active-prefix density per probed PoP.
pub fn pop_density(result: &CacheProbeResult) -> Vec<PopDensity> {
    let pops = clientmap_sim::pop_catalog();
    let mut out: Vec<PopDensity> = result
        .bound_vantages
        .iter()
        .map(|b| PopDensity {
            pop: b.pop,
            code: pops[b.pop].code,
            location: pops[b.pop].location,
            active_slash24s: result
                .pop_hit_prefixes
                .get(&b.pop)
                .map(|s| s.num_slash24s())
                .unwrap_or(0),
            assigned_scopes: result.assigned_per_pop.get(&b.pop).copied().unwrap_or(0),
        })
        .collect();
    out.sort_by_key(|d| std::cmp::Reverse(d.active_slash24s));
    out
}

/// Figure 2: the hit-distance CDF for a PoP (km), from calibration.
pub fn service_radius_cdfs(result: &CacheProbeResult) -> HashMap<usize, Ecdf> {
    result
        .service_radii
        .hit_distances_km
        .iter()
        .map(|(pop, d)| (*pop, Ecdf::new(d.clone())))
        .collect()
}

/// One AS's point in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FractionActivePoint {
    /// The AS.
    pub asn: Asn,
    /// Lower-bound fraction of announced /24s active.
    pub lower: f64,
    /// Upper-bound fraction.
    pub upper: f64,
}

/// Figure 4: per-AS fraction-of-/24s-active under both bound
/// interpretations, plus the two ECDFs the figure plots.
pub fn fraction_active_cdf(
    result: &CacheProbeResult,
    rib: &Rib,
) -> (Vec<FractionActivePoint>, Ecdf, Ecdf) {
    let bounds = result.as_bounds(rib);
    let mut points: Vec<FractionActivePoint> = bounds
        .iter()
        .filter(|(_, b)| b.announced_24s > 0)
        .map(|(asn, b)| FractionActivePoint {
            asn: *asn,
            lower: b.lower_active_24s as f64 / b.announced_24s as f64,
            upper: b.upper_active_24s as f64 / b.announced_24s as f64,
        })
        .collect();
    points.sort_by_key(|p| p.asn);
    let lower = Ecdf::new(points.iter().map(|p| p.lower.min(1.0)).collect());
    let upper = Ecdf::new(points.iter().map(|p| p.upper.min(1.0)).collect());
    (points, lower, upper)
}

/// Figure 6: the ECDF of per-AS **relative volume** for a dataset
/// (each AS's share of the dataset's total activity).
pub fn relative_volume_cdf(view: &AsView) -> Ecdf {
    let total = view.total_volume();
    if total <= 0.0 {
        return Ecdf::new(Vec::new());
    }
    Ecdf::new(view.volume.values().map(|v| v / total).collect())
}

/// Figure 7: per-AS differences in relative volume between two
/// datasets, over the union of their ASes.
pub fn relative_volume_differences(a: &AsView, b: &AsView) -> Ecdf {
    let mut ases: Vec<Asn> = a.volume.keys().chain(b.volume.keys()).copied().collect();
    ases.sort_unstable();
    ases.dedup();
    Ecdf::new(
        ases.iter()
            .map(|asn| a.relative_volume(*asn) - b.relative_volume(*asn))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> clientmap_net::Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn fraction_active_bounds_ordered() {
        let mut rib = Rib::new();
        rib.announce(p("10.1.0.0/16"), Asn(1));
        rib.announce(p("10.2.0.0/20"), Asn(2));
        let mut r = clientmap_cacheprobe::CacheProbeResult::new(
            vec!["www.google.com".parse().unwrap()],
            Vec::new(),
            Default::default(),
        );
        r.record_hit(0, 0, p("10.1.0.0/20"), p("10.1.0.0/20"), 1);
        r.record_hit(0, 0, p("10.1.16.0/20"), p("10.1.16.0/20"), 1);
        r.record_hit(0, 0, p("10.2.0.0/24"), p("10.2.0.0/24"), 1);
        let (points, lower, upper) = fraction_active_cdf(&r, &rib);
        assert_eq!(points.len(), 2);
        for pt in &points {
            assert!(pt.lower <= pt.upper, "{pt:?}");
            assert!(pt.upper <= 1.0);
            assert!(pt.lower > 0.0);
        }
        // AS1: lower 2/256, upper 32/256. AS2: 1/16 both.
        let a1 = points.iter().find(|p| p.asn == Asn(1)).unwrap();
        assert!((a1.lower - 2.0 / 256.0).abs() < 1e-12);
        assert!((a1.upper - 32.0 / 256.0).abs() < 1e-12);
        // ECDF of lower dominates (lower values are smaller).
        assert!(lower.quantile(0.5).unwrap() <= upper.quantile(0.5).unwrap());
    }

    #[test]
    fn relative_volume_sums_to_one() {
        let v = AsView::from_volumes([(Asn(1), 10.0), (Asn(2), 30.0), (Asn(3), 60.0)]);
        let cdf = relative_volume_cdf(&v);
        let sum: f64 = cdf.samples().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(cdf.len(), 3);
    }

    #[test]
    fn volume_differences_center_when_identical() {
        let v = AsView::from_volumes([(Asn(1), 10.0), (Asn(2), 30.0)]);
        let d = relative_volume_differences(&v, &v);
        assert!(d.samples().iter().all(|x| x.abs() < 1e-15));
        // Disjoint datasets → extreme differences.
        let w = AsView::from_volumes([(Asn(3), 5.0)]);
        let d2 = relative_volume_differences(&v, &w);
        assert!(d2.samples().iter().any(|x| *x > 0.0));
        assert!(d2.samples().iter().any(|x| *x < 0.0));
    }

    #[test]
    fn empty_volume_view_gives_empty_cdf() {
        let v = AsView::from_set([Asn(1)]);
        assert!(relative_volume_cdf(&v).is_empty());
    }
}
