//! Property tests pinning the analysis statistics layer: `Ecdf` and
//! `pct` edge cases against their mathematical definitions, and the
//! overlap-matrix invariants (symmetric intersection cells, diagonal =
//! dataset size, percentages within 0..=100) over randomized dataset
//! bundles. The shim proptest runner derives its RNG seed from each
//! test's name, so every run replays the same cases.

use std::collections::BTreeSet;

use clientmap_analysis::overlap::{as_matrix, prefix_matrix, volume_matrix};
use clientmap_analysis::stats::{pct, Ecdf};
use clientmap_datasets::{ApnicDataset, DatasetBundle, DatasetId};
use clientmap_net::{Asn, Prefix, Rib};
use clientmap_sim::cdn::CdnLogs;
use clientmap_store::{HitEvent, RecordTable, ScopeRecord};
use proptest::prelude::*;

fn sample_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e6..1.0e6,
        -1.0e6..1.0e6,
        -1.0e6..1.0e6,
        Just(f64::NAN),
        Just(0.0),
    ]
}

fn slash24_strategy() -> impl Strategy<Value = Prefix> {
    // Network addresses inside 10.0.0.0/8 so every prefix can be
    // routed by the tiny RIB below.
    (0u32..0x0000FFFF).prop_map(|i| Prefix::new(0x0A000000 | (i << 8), 24).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Ecdf::new` drops NaNs and nothing else; the CDF is monotone,
    /// hits 1 at the maximum sample, and `quantile` stays inside the
    /// sample range for any `q` (even outside 0..=1, which clamps).
    #[test]
    fn ecdf_matches_its_definition(
        samples in proptest::collection::vec(sample_strategy(), 0..50),
        x1 in -2.0e6..2.0e6f64,
        x2 in -2.0e6..2.0e6f64,
        q in -0.5..1.5f64,
    ) {
        let finite: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
        let e = Ecdf::new(samples);
        prop_assert_eq!(e.len(), finite.len());
        prop_assert_eq!(e.is_empty(), finite.is_empty());

        if finite.is_empty() {
            // Empty (or all-NaN) input: a well-defined degenerate CDF.
            prop_assert_eq!(e.fraction_leq(x1), 0.0);
            prop_assert_eq!(e.quantile(q), None);
            prop_assert!(e.series(7).is_empty());
            return Ok(());
        }

        // fraction_leq is the literal counting definition…
        let expect = finite.iter().filter(|v| **v <= x1).count() as f64 / finite.len() as f64;
        prop_assert_eq!(e.fraction_leq(x1), expect);
        // …monotone in x, 0 below the minimum, 1 at and above the max.
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        prop_assert!(e.fraction_leq(lo) <= e.fraction_leq(hi));
        let max = finite.iter().copied().fold(f64::MIN, f64::max);
        let min = finite.iter().copied().fold(f64::MAX, f64::min);
        prop_assert_eq!(e.fraction_leq(max), 1.0);
        prop_assert_eq!(e.fraction_leq(min - 1.0), 0.0);

        // Quantiles clamp q and always return an actual sample.
        let v = e.quantile(q).unwrap();
        prop_assert!(v >= min && v <= max, "quantile {v} outside [{min}, {max}]");
        prop_assert!(finite.contains(&v));
        prop_assert_eq!(e.quantile(0.0), Some(min));
        prop_assert_eq!(e.quantile(1.0), Some(max));
    }

    /// A duplicated sample weighs as many times as it appears.
    #[test]
    fn ecdf_counts_duplicates(v in -100.0..100.0f64, dups in 1usize..10, extra in 0usize..10) {
        let mut samples = vec![v; dups];
        samples.extend((0..extra).map(|i| v + 1.0 + i as f64));
        let e = Ecdf::new(samples);
        let total = (dups + extra) as f64;
        prop_assert_eq!(e.fraction_leq(v), dups as f64 / total);
        // A single distinct value is every quantile.
        if extra == 0 {
            prop_assert_eq!(e.quantile(0.37), Some(v));
        }
    }

    /// `pct` stays in 0..=100 for any 0 ≤ num ≤ den and is 0 whenever
    /// the denominator is not positive.
    #[test]
    fn pct_bounds(num in 0.0..1.0e9f64, den in 0.0..1.0e9f64, bad_den in -1.0e9..0.0f64) {
        let (num, den) = if num <= den { (num, den) } else { (den, num) };
        if den > 0.0 {
            let p = pct(num, den);
            prop_assert!((0.0..=100.0).contains(&p), "{p}");
        }
        prop_assert_eq!(pct(num, bad_den), 0.0);
        prop_assert_eq!(pct(num, 0.0), 0.0);
    }

    /// Overlap matrices over a randomized bundle: intersection cells
    /// are symmetric, the diagonal carries each dataset's own size,
    /// cells never exceed either dataset's size, and every percentage
    /// is within 0..=100 (diagonal: exactly 100 for non-empty sets).
    #[test]
    fn overlap_matrices_hold_their_invariants(
        hits in proptest::collection::vec(slash24_strategy(), 1..30),
        clients in proptest::collection::vec((slash24_strategy(), 1u64..1000), 1..30),
        estimates in proptest::collection::vec((1u32..40, 1.0..1.0e6f64), 1..10),
    ) {
        let mut rib = Rib::new();
        for i in 0u32..64 {
            rib.announce(
                Prefix::new(0x0A000000 | (i << 18), 14).unwrap(),
                Asn(i + 1),
            );
        }
        let mut probe = clientmap_cacheprobe::CacheProbeResult::new(
            vec!["www.google.com".parse().unwrap()],
            Vec::new(),
            Default::default(),
        );
        // One hit per distinct /24, answered at its own scope.
        let scopes: BTreeSet<Prefix> = hits.iter().copied().collect();
        probe.records = RecordTable::from_ascending(scopes.into_iter().map(|p| {
            let hit = HitEvent {
                resp_addr: p.addr(),
                resp_len: p.len(),
                remaining_ttl: 1,
            };
            let rec = ScopeRecord {
                attempts: 1,
                hit_events: vec![hit],
                ..ScopeRecord::default()
            };
            ((0, 0, p.addr(), p.len()), rec)
        }));
        let dns = clientmap_chromium::DnsLogsResult {
            resolvers: vec![clientmap_chromium::ResolverActivity {
                resolver_addr: 0x0A030035,
                probes: 12.0,
            }],
            rejected_noise_records: 0,
            records_examined: 1,
        };
        let mut logs = CdnLogs::default();
        for (p, v) in &clients {
            *logs.clients.entry(*p).or_insert(0) += v;
        }
        let apnic = ApnicDataset {
            estimates: estimates.iter().map(|(a, v)| (Asn(*a), *v)).collect(),
        };
        let bundle = DatasetBundle::build(&probe, &dns, &logs, &apnic, &rib);

        let ids = [
            DatasetId::CacheProbing,
            DatasetId::DnsLogs,
            DatasetId::Union,
            DatasetId::MicrosoftClients,
            DatasetId::Apnic,
        ];
        for m in [prefix_matrix(&bundle, &ids), as_matrix(&bundle, &ids)] {
            let n = m.datasets.len();
            for i in 0..n {
                for j in 0..n {
                    prop_assert_eq!(m.cells[i][j], m.cells[j][i], "cell symmetry at ({}, {})", i, j);
                    prop_assert!(m.cells[i][j] <= m.cells[i][i], "cell exceeds row size");
                    prop_assert!(m.cells[i][j] <= m.cells[j][j], "cell exceeds column size");
                    prop_assert!(
                        (0.0..=100.0).contains(&m.pct[i][j]),
                        "pct out of range: {}", m.pct[i][j]
                    );
                }
                let size = m.size(m.datasets[i]).unwrap();
                prop_assert_eq!(m.cells[i][i], size);
                if size > 0 {
                    prop_assert_eq!(m.pct[i][i], 100.0);
                }
            }
        }

        // Table 4: rows are exactly the datasets with volume, every
        // cell a valid percentage, and each row is 100% inside itself.
        // Volumes are float sums accumulated in different orders, so
        // the bounds carry an ulp-scale tolerance.
        let vm = volume_matrix(&bundle, &ids, &ids);
        for (i, row) in vm.rows.iter().enumerate() {
            for j in 0..vm.cols.len() {
                prop_assert!(
                    (-1e-9..=100.0 + 1e-9).contains(&vm.pct[i][j]),
                    "{}", vm.pct[i][j]
                );
            }
            let self_pct = vm.cell(*row, *row).unwrap();
            prop_assert!((self_pct - 100.0).abs() < 1e-9, "{self_pct}");
        }
    }
}
