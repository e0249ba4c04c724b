//! Pairwise dataset overlap matrices (Tables 1, 3 and 4).

use clientmap_datasets::{AsView, DatasetBundle, DatasetId, PrefixView};

use crate::stats::pct;

/// A generic overlap matrix: `cells[i][j]` is the intersection of row
/// `i` with column `j`, and `pct[i][j]` the percent of row `i` also in
/// column `j`. The diagonal carries each dataset's own size.
#[derive(Debug, Clone)]
pub struct OverlapMatrix {
    /// Row/column datasets, in order.
    pub datasets: Vec<DatasetId>,
    /// Intersection sizes.
    pub cells: Vec<Vec<u64>>,
    /// Percent of row in column.
    pub pct: Vec<Vec<f64>>,
}

impl OverlapMatrix {
    /// Cell lookup by dataset pair.
    pub fn cell(&self, row: DatasetId, col: DatasetId) -> Option<(u64, f64)> {
        let i = self.datasets.iter().position(|d| *d == row)?;
        let j = self.datasets.iter().position(|d| *d == col)?;
        Some((self.cells[i][j], self.pct[i][j]))
    }

    /// Size of a dataset (its diagonal cell).
    pub fn size(&self, id: DatasetId) -> Option<u64> {
        let i = self.datasets.iter().position(|d| *d == id)?;
        Some(self.cells[i][i])
    }
}

/// Table 1: /24-prefix overlap across the datasets that have a prefix
/// view (APNIC is excluded — AS-only, which is one of the paper's
/// points).
///
/// Each dataset's dense /24 bitset is materialised once; every
/// pairwise cell is then a word-wise AND + popcount, so the matrix
/// stays cheap even over full-universe prefix views.
pub fn prefix_matrix(bundle: &DatasetBundle, datasets: &[DatasetId]) -> OverlapMatrix {
    let views: Vec<(DatasetId, PrefixView)> = datasets
        .iter()
        .filter_map(|id| bundle.prefix_view(*id).map(|v| (*id, v)))
        .collect();
    let bits: Vec<clientmap_store::Slash24Bitset> =
        views.iter().map(|(_, v)| v.slash24_bitset()).collect();
    let n = views.len();
    let mut cells = vec![vec![0u64; n]; n];
    let mut pcts = vec![vec![0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            let inter = if i == j {
                bits[i].count()
            } else {
                bits[i].and_count(&bits[j])
            };
            cells[i][j] = inter;
            pcts[i][j] = pct(inter as f64, bits[i].count() as f64);
        }
    }
    OverlapMatrix {
        datasets: views.iter().map(|(id, _)| *id).collect(),
        cells,
        pct: pcts,
    }
}

/// Table 3: AS-level overlap across all datasets.
pub fn as_matrix(bundle: &DatasetBundle, datasets: &[DatasetId]) -> OverlapMatrix {
    let views: Vec<(DatasetId, AsView)> = datasets
        .iter()
        .map(|id| (*id, bundle.as_view(*id)))
        .collect();
    let n = views.len();
    let mut cells = vec![vec![0u64; n]; n];
    let mut pcts = vec![vec![0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            let inter = if i == j {
                views[i].1.len()
            } else {
                views[i].1.intersection_len(&views[j].1)
            } as u64;
            cells[i][j] = inter;
            pcts[i][j] = pct(inter as f64, views[i].1.len() as f64);
        }
    }
    OverlapMatrix {
        datasets: views.iter().map(|(id, _)| *id).collect(),
        cells,
        pct: pcts,
    }
}

/// Table 4: percent of each row dataset's *activity volume* carried by
/// ASes also present in the column dataset. Rows without a volume
/// measure (cache probing, the union) are skipped, as in the paper.
#[derive(Debug, Clone)]
pub struct VolumeMatrix {
    /// Row datasets (those with volumes).
    pub rows: Vec<DatasetId>,
    /// Column datasets.
    pub cols: Vec<DatasetId>,
    /// Percent of row volume within column AS set.
    pub pct: Vec<Vec<f64>>,
}

impl VolumeMatrix {
    /// Lookup.
    pub fn cell(&self, row: DatasetId, col: DatasetId) -> Option<f64> {
        let i = self.rows.iter().position(|d| *d == row)?;
        let j = self.cols.iter().position(|d| *d == col)?;
        Some(self.pct[i][j])
    }
}

/// Builds Table 4.
pub fn volume_matrix(
    bundle: &DatasetBundle,
    rows: &[DatasetId],
    cols: &[DatasetId],
) -> VolumeMatrix {
    let row_views: Vec<(DatasetId, AsView)> = rows
        .iter()
        .map(|id| (*id, bundle.as_view(*id)))
        .filter(|(_, v)| v.total_volume() > 0.0)
        .collect();
    let col_views: Vec<(DatasetId, AsView)> =
        cols.iter().map(|id| (*id, bundle.as_view(*id))).collect();
    let pcts = row_views
        .iter()
        .map(|(_, rv)| {
            col_views
                .iter()
                .map(|(_, cv)| pct(rv.volume_in(cv), rv.total_volume()))
                .collect()
        })
        .collect();
    VolumeMatrix {
        rows: row_views.iter().map(|(id, _)| *id).collect(),
        cols: col_views.iter().map(|(id, _)| *id).collect(),
        pct: pcts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_datasets::ApnicDataset;
    use clientmap_net::{Asn, Rib};
    use clientmap_sim::cdn::CdnLogs;

    fn bundle() -> DatasetBundle {
        let mut rib = Rib::new();
        rib.announce("10.1.0.0/16".parse().unwrap(), Asn(1));
        rib.announce("10.2.0.0/16".parse().unwrap(), Asn(2));
        rib.announce("10.3.0.0/16".parse().unwrap(), Asn(3));
        let mut probe = clientmap_cacheprobe::CacheProbeResult::new(
            vec!["www.google.com".parse().unwrap()],
            Vec::new(),
            Default::default(),
        );
        let (a, b) = (
            "10.1.0.0/22".parse().unwrap(),
            "10.2.0.0/24".parse().unwrap(),
        );
        probe.records = crate::hit_table(&[(0, a, a), (0, b, b)]);
        let dns = clientmap_chromium::DnsLogsResult {
            resolvers: vec![clientmap_chromium::ResolverActivity {
                resolver_addr: 0x0A030035,
                probes: 12.0,
            }],
            rejected_noise_records: 0,
            records_examined: 1,
        };
        let mut logs = CdnLogs::default();
        logs.clients.insert("10.1.0.0/24".parse().unwrap(), 70);
        logs.clients.insert("10.3.0.0/24".parse().unwrap(), 30);
        logs.resolvers.insert(0x0A030035, 44);
        logs.ecs_prefixes.insert("10.1.0.0/24".parse().unwrap(), 9);
        let apnic = ApnicDataset {
            estimates: [(Asn(1), 900.0), (Asn(3), 100.0)].into_iter().collect(),
        };
        DatasetBundle::build(&probe, &dns, &logs, &apnic, &rib)
    }

    const ALL: [DatasetId; 5] = [
        DatasetId::CacheProbing,
        DatasetId::DnsLogs,
        DatasetId::Union,
        DatasetId::MicrosoftClients,
        DatasetId::MicrosoftResolvers,
    ];

    #[test]
    fn prefix_matrix_diagonal_and_symmetric_cells() {
        let b = bundle();
        let m = prefix_matrix(&b, &ALL);
        assert_eq!(m.size(DatasetId::CacheProbing), Some(5)); // 4 + 1
        assert_eq!(m.size(DatasetId::MicrosoftClients), Some(2));
        let (i1, p1) = m
            .cell(DatasetId::CacheProbing, DatasetId::MicrosoftClients)
            .unwrap();
        let (i2, _) = m
            .cell(DatasetId::MicrosoftClients, DatasetId::CacheProbing)
            .unwrap();
        assert_eq!(i1, i2, "intersection must be symmetric in count");
        assert_eq!(i1, 1);
        assert!((p1 - 20.0).abs() < 1e-9, "1/5 = 20%, got {p1}");
    }

    #[test]
    fn union_row_covers_both() {
        let b = bundle();
        let m = prefix_matrix(&b, &ALL);
        let u = m.size(DatasetId::Union).unwrap();
        assert_eq!(u, 5 + 1); // cache 5 /24s + resolver /24
    }

    #[test]
    fn as_matrix_includes_apnic() {
        let b = bundle();
        let ids = [
            DatasetId::CacheProbing,
            DatasetId::DnsLogs,
            DatasetId::Apnic,
            DatasetId::MicrosoftClients,
        ];
        let m = as_matrix(&b, &ids);
        assert_eq!(m.size(DatasetId::Apnic), Some(2));
        assert_eq!(m.size(DatasetId::CacheProbing), Some(2)); // AS 1, 2
        let (inter, p) = m.cell(DatasetId::Apnic, DatasetId::CacheProbing).unwrap();
        assert_eq!(inter, 1); // AS1 only
        assert!((p - 50.0).abs() < 1e-9);
    }

    #[test]
    fn volume_matrix_rows_have_volumes() {
        let b = bundle();
        let ids = [
            DatasetId::CacheProbing,
            DatasetId::DnsLogs,
            DatasetId::Apnic,
            DatasetId::MicrosoftClients,
        ];
        let m = volume_matrix(&b, &ids, &ids);
        // cache probing has no volume ⇒ not a row.
        assert!(!m.rows.contains(&DatasetId::CacheProbing));
        assert!(m.rows.contains(&DatasetId::MicrosoftClients));
        // MS clients volume: AS1=70, AS3=30; cache probing covers AS1,AS2
        // ⇒ 70%.
        let p = m
            .cell(DatasetId::MicrosoftClients, DatasetId::CacheProbing)
            .unwrap();
        assert!((p - 70.0).abs() < 1e-9, "{p}");
        // Every dataset's volume is 100% inside itself.
        let self_p = m
            .cell(DatasetId::MicrosoftClients, DatasetId::MicrosoftClients)
            .unwrap();
        assert!((self_p - 100.0).abs() < 1e-9);
    }
}
