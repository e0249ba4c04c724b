//! Assembling all six datasets into one comparable bundle.

use clientmap_cacheprobe::CacheProbeResult;
use clientmap_chromium::DnsLogsResult;
use clientmap_net::{Prefix, Rib};
use clientmap_sim::cdn::CdnLogs;

use crate::{ApnicDataset, AsView, PrefixView};

/// Identifies one of the comparable datasets (row/column labels of
/// Tables 1, 3 and 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DatasetId {
    /// The cache-probing technique.
    CacheProbing,
    /// The DNS-logs (Chromium) technique.
    DnsLogs,
    /// cache probing ∪ DNS logs.
    Union,
    /// APNIC per-AS user estimates.
    Apnic,
    /// Microsoft CDN client log.
    MicrosoftClients,
    /// Microsoft resolver observations.
    MicrosoftResolvers,
    /// Traffic Manager ECS prefixes.
    CloudEcs,
}

impl DatasetId {
    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            DatasetId::CacheProbing => "cache probing",
            DatasetId::DnsLogs => "DNS logs",
            DatasetId::Union => "cache probing ∪ DNS logs",
            DatasetId::Apnic => "APNIC",
            DatasetId::MicrosoftClients => "Microsoft clients",
            DatasetId::MicrosoftResolvers => "Microsoft resolvers",
            DatasetId::CloudEcs => "cloud ECS prefixes",
        }
    }
}

/// All datasets in both granularities, ready for cross-comparison.
#[derive(Debug)]
pub struct DatasetBundle {
    /// Cache probing (/24 upper-bound set; no volume).
    pub cache_probing: PrefixView,
    /// DNS logs (resolver /24s; volume = probes).
    pub dns_logs: PrefixView,
    /// Microsoft clients (/24; volume = HTTP requests).
    pub ms_clients: PrefixView,
    /// Microsoft resolvers (resolver /24s; volume = client IPs).
    pub ms_resolvers: PrefixView,
    /// Cloud ECS prefixes (/24; volume = TM queries).
    pub cloud_ecs: PrefixView,
    /// APNIC (AS only; volume = estimated users).
    pub apnic: AsView,

    /// AS projections of the prefix datasets.
    pub cache_probing_as: AsView,
    /// DNS logs by AS (resolver → AS; volume = probes).
    pub dns_logs_as: AsView,
    /// Microsoft clients by AS.
    pub ms_clients_as: AsView,
    /// Microsoft resolvers by AS.
    pub ms_resolvers_as: AsView,
    /// Cloud ECS by AS.
    pub cloud_ecs_as: AsView,
}

impl DatasetBundle {
    /// Builds the bundle from technique outputs and service logs.
    pub fn build(
        cache_probe: &CacheProbeResult,
        dns_logs: &DnsLogsResult,
        cdn_logs: &CdnLogs,
        apnic: &ApnicDataset,
        rib: &Rib,
    ) -> DatasetBundle {
        let cache_probing = PrefixView::from_set(cache_probe.active_set());
        let dns_logs_view = PrefixView::from_volumes(
            dns_logs
                .resolvers
                .iter()
                .map(|r| (Prefix::slash24_of(r.resolver_addr), r.probes)),
        );
        let ms_clients =
            PrefixView::from_volumes(cdn_logs.clients.iter().map(|(p, c)| (*p, *c as f64)));
        let ms_resolvers = PrefixView::from_volumes(
            cdn_logs
                .resolvers
                .iter()
                .map(|(addr, c)| (Prefix::slash24_of(*addr), *c as f64)),
        );
        let cloud_ecs =
            PrefixView::from_volumes(cdn_logs.ecs_prefixes.iter().map(|(p, c)| (*p, *c as f64)));

        let cache_probing_as = AsView::from_set(cache_probe.active_ases(rib));
        let dns_logs_as = AsView::from_volumes(dns_logs.by_as(rib));
        let ms_clients_as = ms_clients.to_as_view(rib);
        let ms_resolvers_as = ms_resolvers.to_as_view(rib);
        let cloud_ecs_as = cloud_ecs.to_as_view(rib);

        DatasetBundle {
            cache_probing,
            dns_logs: dns_logs_view,
            ms_clients,
            ms_resolvers,
            cloud_ecs,
            apnic: apnic.as_view(),
            cache_probing_as,
            dns_logs_as,
            ms_clients_as,
            ms_resolvers_as,
            cloud_ecs_as,
        }
    }

    /// Registers per-dataset sizes under `datasets.` in `m` — the
    /// headline scale of Tables 1 and 3 as machine-readable gauges, so
    /// a snapshot diff shows at a glance which dataset grew or shrank.
    pub fn register_metrics(&self, m: &clientmap_telemetry::MetricsRegistry) {
        let prefix_views: [(&str, &PrefixView); 5] = [
            ("cache_probing", &self.cache_probing),
            ("dns_logs", &self.dns_logs),
            ("ms_clients", &self.ms_clients),
            ("ms_resolvers", &self.ms_resolvers),
            ("cloud_ecs", &self.cloud_ecs),
        ];
        for (name, v) in prefix_views {
            m.counter(&format!("datasets.{name}.slash24s"))
                .add(v.num_slash24s());
        }
        let as_views: [(&str, &AsView); 6] = [
            ("cache_probing", &self.cache_probing_as),
            ("dns_logs", &self.dns_logs_as),
            ("ms_clients", &self.ms_clients_as),
            ("ms_resolvers", &self.ms_resolvers_as),
            ("cloud_ecs", &self.cloud_ecs_as),
            ("apnic", &self.apnic),
        ];
        for (name, v) in as_views {
            m.counter(&format!("datasets.{name}.ases"))
                .add(v.len() as u64);
        }
    }

    /// The prefix-granularity view of a dataset (`None` for APNIC,
    /// which is AS-only — one of the paper's points).
    pub fn prefix_view(&self, id: DatasetId) -> Option<PrefixView> {
        match id {
            DatasetId::CacheProbing => Some(self.cache_probing.clone()),
            DatasetId::DnsLogs => Some(self.dns_logs.clone()),
            DatasetId::Union => Some(self.cache_probing.union(&self.dns_logs)),
            DatasetId::MicrosoftClients => Some(self.ms_clients.clone()),
            DatasetId::MicrosoftResolvers => Some(self.ms_resolvers.clone()),
            DatasetId::CloudEcs => Some(self.cloud_ecs.clone()),
            DatasetId::Apnic => None,
        }
    }

    /// The AS-granularity view of a dataset.
    pub fn as_view(&self, id: DatasetId) -> AsView {
        match id {
            DatasetId::CacheProbing => self.cache_probing_as.clone(),
            DatasetId::DnsLogs => self.dns_logs_as.clone(),
            DatasetId::Union => self.cache_probing_as.union(&self.dns_logs_as),
            DatasetId::MicrosoftClients => self.ms_clients_as.clone(),
            DatasetId::MicrosoftResolvers => self.ms_resolvers_as.clone(),
            DatasetId::CloudEcs => self.cloud_ecs_as.clone(),
            DatasetId::Apnic => self.apnic.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_net::Asn;

    /// A hand-built bundle (end-to-end construction is covered by the
    /// integration tests; here we check the wiring logic).
    fn mini_bundle() -> (DatasetBundle, Rib) {
        let mut rib = Rib::new();
        rib.announce("10.1.0.0/16".parse().unwrap(), Asn(100));
        rib.announce("10.2.0.0/16".parse().unwrap(), Asn(200));

        let cache_probe = {
            let mut r = clientmap_cacheprobe::CacheProbeResult::new(
                vec!["www.google.com".parse().unwrap()],
                Vec::new(),
                Default::default(),
            );
            r.record_hit(
                0,
                0,
                "10.1.0.0/20".parse().unwrap(),
                "10.1.0.0/20".parse().unwrap(),
                9,
            );
            r
        };
        let dns_logs = clientmap_chromium::DnsLogsResult {
            resolvers: vec![clientmap_chromium::ResolverActivity {
                resolver_addr: 0x0A020035, // 10.2.0.53
                probes: 40.0,
            }],
            rejected_noise_records: 0,
            records_examined: 1,
        };
        let mut cdn_logs = CdnLogs::default();
        cdn_logs.clients.insert("10.1.2.0/24".parse().unwrap(), 100);
        cdn_logs.clients.insert("10.2.9.0/24".parse().unwrap(), 50);
        cdn_logs.resolvers.insert(0x0A020035, 77);
        cdn_logs
            .ecs_prefixes
            .insert("10.1.2.0/24".parse().unwrap(), 8);
        let apnic = ApnicDataset {
            estimates: [(Asn(100), 5000.0)].into_iter().collect(),
        };
        let bundle = DatasetBundle::build(&cache_probe, &dns_logs, &cdn_logs, &apnic, &rib);
        (bundle, rib)
    }

    #[test]
    fn views_wired_correctly() {
        let (b, _) = mini_bundle();
        assert_eq!(b.cache_probing.num_slash24s(), 16);
        assert_eq!(b.dns_logs.num_slash24s(), 1);
        assert_eq!(b.ms_clients.num_slash24s(), 2);
        assert_eq!(b.ms_clients.total_volume(), 150.0);
        assert_eq!(b.cloud_ecs.num_slash24s(), 1);
        assert_eq!(b.apnic.len(), 1);
        // AS projections.
        assert!(b.cache_probing_as.contains(Asn(100)));
        assert!(!b.cache_probing_as.contains(Asn(200)));
        assert!(b.dns_logs_as.contains(Asn(200)));
        assert_eq!(b.ms_clients_as.volume[&Asn(100)], 100.0);
    }

    #[test]
    fn union_views() {
        let (b, _) = mini_bundle();
        let u = b.prefix_view(DatasetId::Union).unwrap();
        assert_eq!(u.num_slash24s(), 16 + 1);
        let ua = b.as_view(DatasetId::Union);
        assert!(ua.contains(Asn(100)) && ua.contains(Asn(200)));
        assert!(
            b.prefix_view(DatasetId::Apnic).is_none(),
            "APNIC is AS-only"
        );
    }

    #[test]
    fn headline_volume_coverage() {
        let (b, _) = mini_bundle();
        // "prefixes identified as active are responsible for X% of
        // Microsoft clients volume":
        let covered = b.ms_clients.volume_in(&b.cache_probing);
        assert_eq!(covered, 100.0);
        let frac = covered / b.ms_clients.total_volume();
        assert!((frac - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn register_metrics_mirrors_view_sizes() {
        let (b, _) = mini_bundle();
        let m = clientmap_telemetry::MetricsRegistry::new();
        b.register_metrics(&m);
        let snap = m.snapshot();
        assert_eq!(snap.counter("datasets.cache_probing.slash24s"), 16);
        assert_eq!(snap.counter("datasets.dns_logs.slash24s"), 1);
        assert_eq!(snap.counter("datasets.ms_clients.slash24s"), 2);
        assert_eq!(snap.counter("datasets.apnic.ases"), 1);
        assert_eq!(snap.counter("datasets.dns_logs.ases"), 1);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(DatasetId::MicrosoftClients.label(), "Microsoft clients");
        assert_eq!(DatasetId::Union.label(), "cache probing ∪ DNS logs");
    }
}
