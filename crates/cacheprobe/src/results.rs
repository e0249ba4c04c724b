//! Results of a cache-probing run and derived views.

use std::collections::{BTreeMap, HashMap};

use clientmap_dns::DomainName;
use clientmap_net::{Asn, Prefix, PrefixSet, Rib};
use clientmap_sim::PopId;
use clientmap_store::{RecordTable, Verdict, VerdictTable};

use crate::calibrate::ServiceRadii;
use crate::vantage::BoundVantage;

/// The sorted views' row types — one type with the record table's own.
pub use clientmap_store::{HitStats, ProbeCount};

/// Per-AS active-space bounds (Figure 4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AsBounds {
    /// Minimum activity consistent with the hits: one active /24 per
    /// disjoint hit prefix.
    pub lower_active_24s: u64,
    /// Maximum: every /24 inside every hit prefix is active.
    pub upper_active_24s: u64,
    /// The AS's announced /24 count (denominator).
    pub announced_24s: u64,
}

/// Partial-result accounting for a fault-injected run — one type
/// with the record the snapshot stores. `None` on
/// [`CacheProbeResult::fault`] when fault injection is off.
pub use clientmap_store::FaultRecord as FaultSummary;

/// The full output of a cache-probing sweep ([`crate::execute_sweep`]).
///
/// The result is the sweep's record table: `records` is the very
/// [`RecordTable`] the sweep snapshot holds (one `Arc`), and every
/// aggregate is a view of it. [`CacheProbeResult::probe_counts`] and
/// [`CacheProbeResult::hits`] are sorted by ⟨domain, scope⟩, built once
/// per table and cached on it — so a warm full skip, which shares its
/// prior's table, shares them too and folds nothing.
/// [`CacheProbeResult::pop_hit_prefixes`] and
/// [`CacheProbeResult::scope_pairs`], which only Figure 1 and Table 2
/// read, are computed on demand. `fault` is the snapshot's own.
/// Counters live in the telemetry registry (`cacheprobe.outcome.*` and
/// the rest), the one counter ledger; `probes_sent` is the single copy
/// kept as a field, because the benchmark harness (`benchmark/`) reads
/// it.
#[derive(Debug)]
pub struct CacheProbeResult {
    /// Probing domains, index-aligned with hit records.
    pub domains: Vec<DomainName>,
    /// The vantage points that were bound to PoPs.
    pub bound_vantages: Vec<BoundVantage>,
    /// Calibrated service radii.
    pub service_radii: ServiceRadii,
    /// The sweep's record table, shared with its snapshot.
    pub records: RecordTable,
    /// Scopes assigned per PoP after the service-radius cut.
    pub assigned_per_pop: HashMap<PopId, usize>,
    /// Probe queries sent (including redundancy).
    pub probes_sent: u64,
    /// Partial-result accounting under fault injection (`None` when
    /// faults are off).
    pub fault: Option<FaultSummary>,
}

impl CacheProbeResult {
    /// A result shell over an empty record table.
    pub fn new(
        domains: Vec<DomainName>,
        bound_vantages: Vec<BoundVantage>,
        service_radii: ServiceRadii,
    ) -> Self {
        CacheProbeResult {
            domains,
            bound_vantages,
            service_radii,
            records: RecordTable::default(),
            assigned_per_pop: HashMap::new(),
            probes_sent: 0,
            fault: None,
        }
    }

    /// Hits: ⟨domain index, response scope⟩ → stats, ascending.
    pub fn hits(&self) -> &[((usize, Prefix), HitStats)] {
        self.records.hit_families()
    }

    /// ⟨domain index, query scope⟩ → attempts/hits (activity ranking),
    /// summed over vantages, ascending. Scopes no probe event reached
    /// are absent.
    pub fn probe_counts(&self) -> &[((usize, Prefix), ProbeCount)] {
        self.records.probe_counts()
    }

    /// Active prefixes per PoP (Figure 1's density map): every response
    /// scope that hit through the PoP's vantage.
    pub fn pop_hit_prefixes(&self) -> BTreeMap<PopId, PrefixSet> {
        let mut out: BTreeMap<PopId, PrefixSet> = BTreeMap::new();
        for ((bi, ..), rec) in self.records.iter() {
            let Some(b) = self.bound_vantages.get(usize::from(bi)) else {
                continue;
            };
            if rec.attempts == 0 || rec.hit_events.is_empty() {
                continue;
            }
            let set = out.entry(b.pop).or_default();
            for e in rec.hit_events {
                set.insert(hit_scope(e.resp_addr, e.resp_len));
            }
        }
        out
    }

    /// ⟨domain index, query scope len, response scope len⟩ → hit count
    /// (Table 2's stability data).
    pub fn scope_pairs(&self) -> BTreeMap<(usize, u8, u8), u64> {
        let mut out = BTreeMap::new();
        for ((_, d, _, len), rec) in self.records.iter() {
            if rec.attempts == 0 {
                continue;
            }
            for e in rec.hit_events {
                *out.entry((usize::from(d), len, e.resp_len)).or_insert(0) += 1;
            }
        }
        out
    }

    /// The combined active-prefix set: every /24 inside any hit scope
    /// (the paper's upper-bound interpretation used for Table 1).
    pub fn active_set(&self) -> PrefixSet {
        PrefixSet::from_prefixes(self.hits().iter().map(|((_, p), _)| *p))
    }

    /// The active set detected via one domain only (Table 5).
    pub fn active_set_for_domain(&self, domain: usize) -> PrefixSet {
        let hits = self.hits();
        let lo = hits.partition_point(|((d, _), _)| *d < domain);
        let hi = hits.partition_point(|((d, _), _)| *d <= domain);
        PrefixSet::from_prefixes(hits[lo..hi].iter().map(|((_, p), _)| *p))
    }

    /// The distinct hit scopes (disjoint after set-normalisation) —
    /// the lower-bound unit (each contains ≥ 1 active /24).
    pub fn hit_prefixes(&self) -> Vec<Prefix> {
        self.active_set().prefixes()
    }

    /// ASes with at least one hit prefix, resolved through the RIB.
    pub fn active_ases(&self, rib: &Rib) -> Vec<Asn> {
        let mut out: Vec<Asn> = self
            .hit_prefixes()
            .iter()
            .flat_map(|p| rib.origins_within(*p))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Per-AS lower/upper active-/24 bounds (Figure 4). Hit prefixes
    /// spanning several ASes contribute to each AS they overlap.
    pub fn as_bounds(&self, rib: &Rib) -> HashMap<Asn, AsBounds> {
        let mut per_as_sets: HashMap<Asn, PrefixSet> = HashMap::new();
        for p in self.hit_prefixes() {
            for asn in rib.origins_within(p) {
                per_as_sets.entry(asn).or_default().insert(p);
            }
        }
        per_as_sets
            .into_iter()
            .map(|(asn, set)| {
                let announced = rib.announced_slash24s(asn);
                (
                    asn,
                    AsBounds {
                        lower_active_24s: set.num_prefixes() as u64,
                        upper_active_24s: set.num_slash24s().min(announced.max(1)),
                        announced_24s: announced,
                    },
                )
            })
            .collect()
    }

    /// Projects the per-scope probe accounting onto a dense per-/24
    /// [`VerdictTable`]: each query scope contributes its best evidence
    /// (`Hit > HitScopeZero > Miss > Dropped`) to every /24 it covers,
    /// merged by max rank — the store-backed view the set algebra and
    /// warm-start layers consume.
    pub fn verdict_table(&self) -> VerdictTable {
        verdict_table_of(
            self.probe_counts().iter().map(|(k, c)| (k, c)),
            self.hits().iter().map(|(k, _)| k),
        )
    }

    /// Table 2 rows, index-aligned with `domains`: per domain, hits
    /// with |query − response| scope difference of exactly 0, ≤ 2, ≤ 4,
    /// and the total. One pass over [`CacheProbeResult::scope_pairs`].
    pub fn scope_stability(&self) -> Vec<(u64, u64, u64, u64)> {
        let mut rows = vec![(0, 0, 0, 0); self.domains.len()];
        for ((d, q, r), c) in self.scope_pairs() {
            let Some((exact, within2, within4, total)) = rows.get_mut(d) else {
                continue;
            };
            let diff = (i16::from(q) - i16::from(r)).unsigned_abs();
            *total += c;
            if diff == 0 {
                *exact += c;
            }
            if diff <= 2 {
                *within2 += c;
            }
            if diff <= 4 {
                *within4 += c;
            }
        }
        rows
    }
}

/// A hit's response scope: probed as a prefix, and refused otherwise on
/// decode.
pub(crate) fn hit_scope(addr: u32, len: u8) -> Prefix {
    Prefix::new(addr, len)
        .expect("hit scopes are prefixes: probed as such, and refused otherwise on decode")
}

/// The verdict projection over ⟨domain, query scope⟩ counts and the
/// hit families' response scopes, in any order (the merge is by max
/// rank).
pub(crate) fn verdict_table_of<'a>(
    counts: impl Iterator<Item = (&'a (usize, Prefix), &'a ProbeCount)>,
    hit_scopes: impl Iterator<Item = &'a (usize, Prefix)>,
) -> VerdictTable {
    let mut table = VerdictTable::new();
    let mut spread = |scope: &Prefix, v: Verdict| {
        let first = scope.first_addr() >> 8;
        for idx in first..first + scope.num_slash24s() as u32 {
            table.record(idx, v);
        }
    };
    for ((_, scope), c) in counts {
        match c.verdict() {
            Verdict::Unmeasured => {}
            verdict => spread(scope, verdict),
        }
    }
    // Response scopes can be wider than the query scope; they are
    // hit evidence for every /24 they cover.
    for (_, scope) in hit_scopes {
        spread(scope, Verdict::Hit);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_store::{HitEvent, RecordKey, ScopeRecord};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A result whose records are `slots`: ⟨bound index, domain, query
    /// scope, record⟩, in any order.
    fn result(slots: Vec<(u16, u16, &str, ScopeRecord)>) -> CacheProbeResult {
        let mut r = CacheProbeResult::new(
            vec![
                "www.google.com".parse().unwrap(),
                "facebook.com".parse().unwrap(),
            ],
            Vec::new(),
            ServiceRadii::default(),
        );
        let table: BTreeMap<RecordKey, ScopeRecord> = slots
            .into_iter()
            .map(|(b, d, scope, rec)| ((b, d, p(scope).addr(), p(scope).len()), rec))
            .collect();
        r.records = RecordTable::from_ascending(table);
        r
    }

    /// A record of one probe event per hit, each answered from `resps`.
    fn hits(resps: &[(&str, u32)]) -> ScopeRecord {
        ScopeRecord {
            attempts: resps.len() as u64,
            hit_events: resps
                .iter()
                .map(|(scope, ttl)| HitEvent {
                    resp_addr: p(scope).addr(),
                    resp_len: p(scope).len(),
                    remaining_ttl: *ttl,
                })
                .collect(),
            ..ScopeRecord::default()
        }
    }

    /// A record with these outcome counts; its hits answer with `scope`.
    fn counts(scope: &str, attempts: u64, hits: u64, scope0: u64, drops: u64) -> ScopeRecord {
        let hit = HitEvent {
            resp_addr: p(scope).addr(),
            resp_len: p(scope).len(),
            remaining_ttl: 1,
        };
        ScopeRecord {
            attempts,
            scope0,
            drops,
            hit_events: vec![hit; hits as usize],
        }
    }

    fn stats(r: &CacheProbeResult, domain: usize, scope: &str) -> HitStats {
        r.hits()
            .iter()
            .find(|(k, _)| *k == (domain, p(scope)))
            .expect("hit family present")
            .1
    }

    #[test]
    fn record_and_sets() {
        let r = result(vec![
            (
                0,
                0,
                "10.1.0.0/20",
                hits(&[("10.1.0.0/20", 100), ("10.1.0.0/20", 50)]),
            ),
            (1, 1, "10.2.0.0/24", hits(&[("10.2.0.0/22", 10)])),
        ]);
        assert_eq!(r.hits().len(), 2);
        assert_eq!(stats(&r, 0, "10.1.0.0/20").hits, 2);
        assert_eq!(stats(&r, 0, "10.1.0.0/20").min_remaining_ttl, 50);
        assert_eq!(r.active_set().num_slash24s(), 16 + 4);
        assert_eq!(r.active_set_for_domain(0).num_slash24s(), 16);
        assert_eq!(r.active_set_for_domain(1).num_slash24s(), 4);
        assert_eq!(r.probe_counts().len(), 2);
    }

    #[test]
    fn pop_hit_prefixes_follow_the_bound_vantage() {
        let mut r = result(vec![
            (0, 0, "10.1.0.0/20", hits(&[("10.1.0.0/20", 1)])),
            (1, 0, "10.2.0.0/24", hits(&[("10.2.0.0/22", 1)])),
            (1, 1, "10.3.0.0/24", counts("10.3.0.0/24", 2, 0, 1, 0)),
        ]);
        r.bound_vantages = [3, 7]
            .into_iter()
            .map(|pop| BoundVantage { vp: 0, pop })
            .collect();
        let pops = r.pop_hit_prefixes();
        assert_eq!(pops.keys().copied().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(pops[&3].num_slash24s(), 16);
        assert_eq!(pops[&7].num_slash24s(), 4);
    }

    #[test]
    fn scope_stability_buckets() {
        let r = result(vec![
            (0, 0, "10.0.0.0/20", hits(&[("10.0.0.0/20", 1)])), // diff 0
            (0, 0, "10.1.0.0/20", hits(&[("10.1.0.0/22", 1)])), // diff 2
            (0, 0, "10.2.0.0/20", hits(&[("10.2.0.0/24", 1)])), // diff 4
            (0, 0, "10.3.0.0/20", hits(&[("10.0.0.0/14", 1)])), // diff 6
        ]);
        assert_eq!(r.scope_stability(), vec![(1, 2, 3, 4), (0, 0, 0, 0)]);
        assert_eq!(r.scope_pairs().values().sum::<u64>(), 4);
        assert_eq!(r.scope_pairs()[&(0, 20, 14)], 1);
    }

    #[test]
    fn as_bounds_respect_rib() {
        let mut rib = Rib::new();
        rib.announce(p("10.1.0.0/16"), Asn(100));
        rib.announce(p("10.2.0.0/24"), Asn(200));
        let r = result(vec![
            (0, 0, "10.1.0.0/20", hits(&[("10.1.0.0/20", 1)])),
            (0, 0, "10.1.16.0/20", hits(&[("10.1.16.0/20", 1)])),
            (0, 0, "10.2.0.0/24", hits(&[("10.2.0.0/24", 1)])),
        ]);
        let bounds = r.as_bounds(&rib);
        let b100 = bounds[&Asn(100)];
        assert_eq!(b100.lower_active_24s, 2);
        assert_eq!(b100.upper_active_24s, 32);
        assert_eq!(b100.announced_24s, 256);
        let b200 = bounds[&Asn(200)];
        assert_eq!(b200.lower_active_24s, 1);
        assert_eq!(b200.upper_active_24s, 1);
        assert_eq!(b200.announced_24s, 1);
        assert_eq!(r.active_ases(&rib).len(), 2);
    }

    #[test]
    fn verdict_table_ranks_probe_evidence() {
        let slots = || {
            vec![
                (0, 0, "10.0.0.0/24", counts("10.0.0.0/24", 4, 1, 1, 1)),
                (0, 0, "10.0.1.0/24", counts("10.0.1.0/24", 3, 0, 2, 0)),
                (0, 0, "10.0.2.0/23", counts("10.0.2.0/23", 3, 0, 0, 1)),
                (0, 0, "10.0.4.0/24", counts("10.0.4.0/24", 2, 0, 0, 2)),
            ]
        };
        let t = result(slots()).verdict_table();
        assert_eq!(t.get(0x0A0000), Verdict::Hit);
        assert_eq!(t.get(0x0A0001), Verdict::HitScopeZero);
        assert_eq!(t.get(0x0A0002), Verdict::Miss);
        assert_eq!(t.get(0x0A0003), Verdict::Miss);
        assert_eq!(t.get(0x0A0004), Verdict::Dropped);
        assert_eq!(t.get(0x0A0005), Verdict::Unmeasured);
        assert_eq!(t.count_measured(), 5);
        // A wide response scope upgrades everything it covers to Hit.
        let mut wide = slots();
        wide.push((1, 0, "10.0.4.0/24", hits(&[("10.0.4.0/23", 60)])));
        let t = result(wide).verdict_table();
        assert_eq!(t.get(0x0A0004), Verdict::Hit);
        assert_eq!(t.get(0x0A0005), Verdict::Hit);
    }

    #[test]
    fn upper_bound_capped_by_announced_space() {
        let mut rib = Rib::new();
        rib.announce(p("10.1.0.0/24"), Asn(300));
        // A /16 hit scope overlapping a tiny AS must not claim 256 /24s
        // for it.
        let r = result(vec![(0, 0, "10.1.0.0/16", hits(&[("10.1.0.0/16", 1)]))]);
        let bounds = r.as_bounds(&rib);
        assert_eq!(bounds[&Asn(300)].upper_active_24s, 1);
    }
}
