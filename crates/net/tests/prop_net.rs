//! Property-based tests for clientmap-net invariants (DESIGN.md §6).

use std::collections::BTreeMap;

use clientmap_net::{Asn, GeoCoord, Prefix, PrefixSet, PrefixTrie, Rib};
use proptest::prelude::*;

/// Arbitrary canonical prefix.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(addr, len).unwrap())
}

/// Arbitrary prefix with length ≤ 24 (the PrefixSet domain).
fn arb_coarse_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 8u8..=24).prop_map(|(addr, len)| Prefix::new(addr, len).unwrap())
}

proptest! {
    /// Display/FromStr round-trip is the identity on canonical prefixes.
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let q: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    /// A prefix contains exactly its own address range.
    #[test]
    fn prefix_contains_addr_matches_range(p in arb_prefix(), addr in any::<u32>()) {
        let expected = (p.first_addr()..=p.last_addr()).contains(&addr);
        prop_assert_eq!(p.contains_addr(addr), expected);
    }

    /// Containment is antisymmetric except for equality, and transitive
    /// through the parent chain.
    #[test]
    fn prefix_containment_laws(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.contains(p));
            prop_assert!(p == parent || !p.contains(parent));
        }
        if let Some((l, r)) = p.children() {
            prop_assert!(p.contains(l) && p.contains(r));
            prop_assert!(!l.overlaps(r));
        }
    }

    /// slash24s() yields exactly num_slash24s() distinct /24s inside p.
    #[test]
    fn slash24_enumeration_consistent(p in arb_prefix()) {
        // Keep the enumeration small.
        prop_assume!(p.len() >= 16);
        let subs: Vec<Prefix> = p.slash24s().collect();
        prop_assert_eq!(subs.len() as u64, p.num_slash24s());
        for s in &subs {
            prop_assert_eq!(s.len(), 24);
            if p.len() <= 24 {
                prop_assert!(p.contains(*s));
            } else {
                prop_assert!(s.contains(p));
            }
        }
        let mut dedup = subs.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), subs.len());
    }

    /// Trie insert/get/remove agrees with a BTreeMap model, and
    /// longest_match_addr agrees with a linear scan.
    #[test]
    fn trie_agrees_with_model(
        entries in prop::collection::vec((arb_prefix(), any::<u16>()), 0..40),
        probes in prop::collection::vec(any::<u32>(), 0..20),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model: BTreeMap<Prefix, u16> = BTreeMap::new();
        for (p, v) in &entries {
            prop_assert_eq!(trie.insert(*p, *v), model.insert(*p, *v));
        }
        prop_assert_eq!(trie.len(), model.len());

        if !entries.is_empty() {
            for idx in removals {
                let (p, _) = entries[idx.index(entries.len())];
                prop_assert_eq!(trie.remove(p), model.remove(&p));
            }
        }
        prop_assert_eq!(trie.len(), model.len());

        for (p, v) in &model {
            prop_assert_eq!(trie.get(*p), Some(v));
        }
        for addr in probes {
            let expect = model
                .iter()
                .filter(|(p, _)| p.contains_addr(addr))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, *v));
            let got = trie.longest_match_addr(addr).map(|(p, v)| (p, *v));
            // Tie-break: equal length can only be the same prefix.
            prop_assert_eq!(got, expect);
        }

        // iter() is sorted and complete.
        let listed: Vec<Prefix> = trie.iter().into_iter().map(|(p, _)| p).collect();
        let expect: Vec<Prefix> = model.keys().copied().collect();
        let mut sorted = listed.clone();
        sorted.sort();
        prop_assert_eq!(&sorted, &expect);
    }

    /// PrefixSet /24 cardinality equals the size of the naive set of
    /// covered /24s, and membership agrees with the naive model.
    #[test]
    fn prefix_set_counts_match_naive(
        prefixes in prop::collection::vec(arb_coarse_prefix(), 0..20),
        probe in arb_coarse_prefix(),
    ) {
        // Keep the naive expansion bounded.
        let prefixes: Vec<Prefix> = prefixes
            .into_iter()
            .map(|p| if p.len() < 16 { p.supernet(p.len()).unwrap() } else { p })
            .filter(|p| p.len() >= 16)
            .collect();
        let set = PrefixSet::from_prefixes(prefixes.iter().copied());
        let mut naive: Vec<Prefix> = prefixes.iter().flat_map(|p| p.slash24s()).collect();
        naive.sort();
        naive.dedup();
        prop_assert_eq!(set.num_slash24s(), naive.len() as u64);

        let expected = naive.binary_search(&probe.supernet(24).unwrap_or(probe)).is_ok()
            || naive.iter().any(|q| q.contains(probe) || probe.contains(*q));
        // contains_slash24 asks whether probe's covering /24 is inside the
        // set; compare against the naive /24 list directly when len>=24.
        if probe.len() >= 24 {
            let p24 = probe.supernet(24).unwrap();
            prop_assert_eq!(set.contains_slash24(probe), naive.contains(&p24));
        } else {
            // For shorter probes, intersects() is the meaningful question.
            prop_assert_eq!(set.intersects(probe), expected);
        }
    }

    /// Set algebra: |A∩B| counted symmetrically and bounded by min(|A|,|B|);
    /// |A∪B| = |A| + |B| − |A∩B|.
    #[test]
    fn prefix_set_algebra(
        a in prop::collection::vec(arb_coarse_prefix(), 0..15),
        b in prop::collection::vec(arb_coarse_prefix(), 0..15),
    ) {
        let a: Vec<Prefix> = a.into_iter().filter(|p| p.len() >= 16).collect();
        let b: Vec<Prefix> = b.into_iter().filter(|p| p.len() >= 16).collect();
        let sa = PrefixSet::from_prefixes(a.iter().copied());
        let sb = PrefixSet::from_prefixes(b.iter().copied());
        let i1 = sa.intersection_slash24s(&sb);
        let i2 = sb.intersection_slash24s(&sa);
        prop_assert_eq!(i1, i2);
        prop_assert!(i1 <= sa.num_slash24s().min(sb.num_slash24s()));
        let u = sa.union(&sb);
        prop_assert_eq!(u.num_slash24s(), sa.num_slash24s() + sb.num_slash24s() - i1);
        let inter = sa.intersection(&sb);
        prop_assert_eq!(inter.num_slash24s(), i1);
    }

    /// RIB per-AS /24 accounting equals the sum over announced routes.
    #[test]
    fn rib_accounting_matches_routes(
        routes in prop::collection::vec((arb_coarse_prefix(), 1u32..5), 0..25),
    ) {
        let mut rib = Rib::new();
        for (p, asn) in &routes {
            rib.announce(*p, Asn(*asn));
        }
        for asn in rib.origins() {
            let expect: u64 = rib
                .routes()
                .iter()
                .filter(|(_, e)| e.origin == asn)
                .map(|(p, _)| p.num_slash24s())
                .sum();
            prop_assert_eq!(rib.announced_slash24s(asn), expect);
        }
    }

    /// The meridian gap is a safe prefilter for a reach test: wherever
    /// it exceeds the reach by more than 1 km, so does the great-circle
    /// distance — a pair it skips could never have passed.
    #[test]
    fn meridian_gap_prefilter_never_skips_a_pair_in_reach(
        lat1 in -90.0f64..=90.0,
        lon1 in -180.0f64..=180.0,
        lat2 in -90.0f64..=90.0,
        lon2 in -180.0f64..=180.0,
        reach in 0.0f64..=20_040.0,
    ) {
        let a = GeoCoord::new(lat1, lon1).unwrap();
        let b = GeoCoord::new(lat2, lon2).unwrap();
        let gap = a.meridian_gap_km(&b);
        if gap > reach + 1.0 {
            prop_assert!(a.distance_km(&b) > reach, "gap {gap} km, reach {reach} km");
        }
        // The bound itself, without the margin's help.
        prop_assert!(gap <= a.distance_km(&b) + 1e-6);
    }
}
