//! The §4 headline validations and Table 2.

use clientmap_cacheprobe::CacheProbeResult;
use clientmap_datasets::{DatasetBundle, PrefixView};

use crate::stats::pct;

/// "DNS activity is a good proxy for web client activity" (§4):
/// cross-coverage of the CDN HTTP log and the Traffic Manager ECS log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnsHttpProxy {
    /// Percent of ECS-DNS query volume from prefixes that also sent
    /// HTTP to the CDN (paper: 97.2%).
    pub dns_volume_in_http_prefixes_pct: f64,
    /// Percent of HTTP volume from prefixes seen in ECS queries
    /// (paper: 92%).
    pub http_volume_in_ecs_prefixes_pct: f64,
}

/// Computes the proxy-validation headline.
pub fn dns_http_proxy(bundle: &DatasetBundle) -> DnsHttpProxy {
    DnsHttpProxy {
        dns_volume_in_http_prefixes_pct: pct(
            bundle.cloud_ecs.volume_in(&bundle.ms_clients),
            bundle.cloud_ecs.total_volume(),
        ),
        http_volume_in_ecs_prefixes_pct: pct(
            bundle.ms_clients.volume_in(&bundle.cloud_ecs),
            bundle.ms_clients.total_volume(),
        ),
    }
}

/// "Cache probing recovers most DNS activity" (§4): the fraction of
/// ground-truth ECS /24s (Traffic Manager log for the Microsoft
/// domain) that cache probing of that same domain uncovered
/// (paper: 91%).
pub fn groundtruth_recall(result: &CacheProbeResult, cloud_ecs: &PrefixView) -> f64 {
    let Some(ms_idx) = result
        .domains
        .iter()
        .position(|d| d.to_string().contains("msvalidation"))
    else {
        return 0.0;
    };
    let probed = PrefixView::from_set(result.active_set_for_domain(ms_idx));
    let covered = cloud_ecs.intersection_slash24s(&probed);
    covered as f64 / cloud_ecs.num_slash24s().max(1) as f64
}

/// "Few false positives" (§4): the fraction of cache-probing hit
/// scopes containing at least one /24 the CDN saw clients in
/// (paper: 99.1%).
pub fn scope_precision(result: &CacheProbeResult, ms_clients: &PrefixView) -> f64 {
    let scopes = result.hit_prefixes();
    if scopes.is_empty() {
        return 0.0;
    }
    let confirmed = scopes
        .iter()
        .filter(|s| ms_clients.set.intersects(**s))
        .count();
    confirmed as f64 / scopes.len() as f64
}

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct ScopeStabilityRow {
    /// Domain label.
    pub domain: String,
    /// Hits whose response scope equals the query scope.
    pub exact: u64,
    /// Hits within 2 bits.
    pub within2: u64,
    /// Hits within 4 bits.
    pub within4: u64,
    /// All hits for the domain.
    pub total: u64,
}

impl ScopeStabilityRow {
    /// Percent columns as the paper prints them.
    pub fn pcts(&self) -> (f64, f64, f64) {
        let t = self.total as f64;
        (
            pct(self.exact as f64, t),
            pct(self.within2 as f64, t),
            pct(self.within4 as f64, t),
        )
    }
}

/// Table 2: per-domain and overall response-scope stability.
pub fn scope_stability_table(result: &CacheProbeResult) -> Vec<ScopeStabilityRow> {
    let mut rows: Vec<ScopeStabilityRow> = result
        .domains
        .iter()
        .zip(result.scope_stability())
        .map(
            |(name, (exact, within2, within4, total))| ScopeStabilityRow {
                domain: name.to_string(),
                exact,
                within2,
                within4,
                total,
            },
        )
        .collect();
    let overall = ScopeStabilityRow {
        domain: "Overall".to_string(),
        exact: rows.iter().map(|r| r.exact).sum(),
        within2: rows.iter().map(|r| r.within2).sum(),
        within4: rows.iter().map(|r| r.within4).sum(),
        total: rows.iter().map(|r| r.total).sum(),
    };
    rows.push(overall);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_net::{Prefix, PrefixSet};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn proxy_headline_math() {
        let ms_clients =
            PrefixView::from_volumes([(p("10.1.0.0/24"), 92.0), (p("10.2.0.0/24"), 8.0)]);
        let cloud_ecs =
            PrefixView::from_volumes([(p("10.1.0.0/24"), 50.0), (p("10.3.0.0/24"), 50.0)]);
        let bundle = fake_bundle(ms_clients, cloud_ecs);
        let proxy = dns_http_proxy(&bundle);
        assert!((proxy.dns_volume_in_http_prefixes_pct - 50.0).abs() < 1e-9);
        assert!((proxy.http_volume_in_ecs_prefixes_pct - 92.0).abs() < 1e-9);
    }

    /// A bundle with only the fields the headline functions read.
    fn fake_bundle(ms_clients: PrefixView, cloud_ecs: PrefixView) -> DatasetBundle {
        DatasetBundle {
            cache_probing: PrefixView::default(),
            dns_logs: PrefixView::default(),
            ms_clients,
            ms_resolvers: PrefixView::default(),
            cloud_ecs,
            apnic: Default::default(),
            cache_probing_as: Default::default(),
            dns_logs_as: Default::default(),
            ms_clients_as: Default::default(),
            ms_resolvers_as: Default::default(),
            cloud_ecs_as: Default::default(),
        }
    }

    /// Hits at 10.9.0.0/24 (domain 0) and 10.1.0.0/23 (the MS domain).
    const MS_HITS: [(u16, &str, &str); 2] = [
        (0, "10.9.0.0/24", "10.9.0.0/24"),
        (1, "10.1.0.0/23", "10.1.0.0/23"),
    ];

    fn probe_with_hits(hits: &[(u16, &str, &str)]) -> CacheProbeResult {
        let mut r = clientmap_cacheprobe::CacheProbeResult::new(
            vec![
                "www.google.com".parse().unwrap(),
                "cdn.msvalidation.example".parse().unwrap(),
            ],
            Vec::new(),
            Default::default(),
        );
        let hits: Vec<_> = hits.iter().map(|&(d, q, r)| (d, p(q), p(r))).collect();
        r.records = crate::hit_table(&hits);
        r
    }

    fn probe_with_ms_hits() -> CacheProbeResult {
        probe_with_hits(&MS_HITS)
    }

    #[test]
    fn recall_uses_ms_domain_only() {
        let r = probe_with_ms_hits();
        // Ground truth: 3 ECS /24s, two inside the probed /23.
        let ecs = PrefixView::from_volumes([
            (p("10.1.0.0/24"), 1.0),
            (p("10.1.1.0/24"), 1.0),
            (p("10.5.0.0/24"), 1.0),
        ]);
        let recall = groundtruth_recall(&r, &ecs);
        assert!((recall - 2.0 / 3.0).abs() < 1e-12, "{recall}");
        // Without the MS domain in the run: 0.
        let other = clientmap_cacheprobe::CacheProbeResult::new(
            vec!["www.google.com".parse().unwrap()],
            Vec::new(),
            Default::default(),
        );
        assert_eq!(groundtruth_recall(&other, &ecs), 0.0);
    }

    #[test]
    fn precision_counts_confirmed_scopes() {
        let r = probe_with_ms_hits();
        let ms = PrefixView::from_set(PrefixSet::from_prefixes([p("10.1.0.0/24")]));
        // Two hit scopes; only the /23 intersects the CDN log.
        let precision = scope_precision(&r, &ms);
        assert!((precision - 0.5).abs() < 1e-12, "{precision}");
    }

    #[test]
    fn stability_table_has_overall_row() {
        let r = probe_with_hits(&[(0, "10.8.0.0/20", "10.8.0.0/22"), MS_HITS[0], MS_HITS[1]]);
        let rows = scope_stability_table(&r);
        assert_eq!(rows.len(), 3);
        let overall = rows.last().unwrap();
        assert_eq!(overall.domain, "Overall");
        assert_eq!(overall.total, 3);
        assert_eq!(overall.exact, 2);
        assert_eq!(overall.within2, 3);
        let (e, w2, w4) = overall.pcts();
        assert!(e < w2 && (w2 - w4).abs() < 1e-9);
    }
}
