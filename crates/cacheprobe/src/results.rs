//! Results of a cache-probing run and derived views.

use std::collections::HashMap;

use clientmap_dns::DomainName;
use clientmap_net::{Asn, Prefix, PrefixSet, Rib};
use clientmap_sim::PopId;
use clientmap_store::{Verdict, VerdictTable};

use crate::calibrate::ServiceRadii;
use crate::vantage::BoundVantage;

/// Aggregated statistics for one ⟨domain, response-scope⟩ hit family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitStats {
    /// Number of probe events that hit.
    pub hits: u64,
    /// Smallest remaining TTL observed.
    pub min_remaining_ttl: u32,
}

/// Per-⟨domain, query-scope⟩ probe accounting: how often the scope was
/// probed and how often it hit. The hit *rate* is the paper's §6
/// future-work signal for relative activity levels ("we are developing
/// techniques to estimate a prefix's cache hit rates over time and
/// across domains, as a step towards a relative ranking").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCount {
    /// Probe events sent for this scope (each = `redundancy` queries).
    pub attempts: u64,
    /// Probe events that produced a scoped cache hit.
    pub hits: u64,
    /// Probe events answered only with a /0 scope.
    pub scope0: u64,
    /// Probe events lost entirely.
    pub drops: u64,
}

impl ProbeCount {
    /// The observed hit rate, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.hits as f64 / self.attempts as f64
        }
    }

    /// The scope's verdict ([`Verdict::from_counts`]).
    pub fn verdict(&self) -> Verdict {
        Verdict::from_counts(self.attempts, self.hits, self.scope0, self.drops)
    }
}

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
/// Its aggregates — `hits`, `pop_hit_prefixes`, `scope_pairs`,
/// `probe_counts`, `probes_sent` — are one fold of the sweep snapshot's
/// `records`, and `fault` is the snapshot's own. Counters live in the
/// telemetry registry (`cacheprobe.outcome.*` and the rest), the one
/// counter ledger; `probes_sent` is the single copy kept as a field,
/// because the benchmark harness (`benchmark/`) reads it.
#[derive(Debug)]
pub struct CacheProbeResult {
    /// Probing domains, index-aligned with hit records.
    pub domains: Vec<DomainName>,
    /// The vantage points that were bound to PoPs.
    pub bound_vantages: Vec<BoundVantage>,
    /// Calibrated service radii.
    pub service_radii: ServiceRadii,
    /// Hits: ⟨domain index, response scope⟩ → stats.
    pub hits: HashMap<(usize, Prefix), HitStats>,
    /// Active prefixes per PoP (Figure 1's density map).
    pub pop_hit_prefixes: HashMap<PopId, PrefixSet>,
    /// ⟨domain index, query scope len, response scope len⟩ → hit count
    /// (Table 2's stability data).
    pub scope_pairs: HashMap<(usize, u8, u8), u64>,
    /// ⟨domain index, query scope⟩ → attempts/hits (activity ranking).
    pub probe_counts: HashMap<(usize, Prefix), ProbeCount>,
    /// Scopes assigned per PoP after the service-radius cut.
    pub assigned_per_pop: HashMap<PopId, usize>,
    /// Probe queries sent (including redundancy).
    pub probes_sent: u64,
    /// Partial-result accounting under fault injection (`None` when
    /// faults are off).
    pub fault: Option<FaultSummary>,
}

impl CacheProbeResult {
    /// Creates an empty result shell.
    pub fn new(
        domains: Vec<DomainName>,
        bound_vantages: Vec<BoundVantage>,
        service_radii: ServiceRadii,
    ) -> Self {
        CacheProbeResult {
            domains,
            bound_vantages,
            service_radii,
            hits: HashMap::new(),
            pop_hit_prefixes: HashMap::new(),
            scope_pairs: HashMap::new(),
            probe_counts: HashMap::new(),
            assigned_per_pop: HashMap::new(),
            probes_sent: 0,
            fault: None,
        }
    }

    /// Records one cache hit.
    pub fn record_hit(
        &mut self,
        domain: usize,
        pop: PopId,
        query_scope: Prefix,
        response_scope: Prefix,
        remaining_ttl: u32,
    ) {
        let stats = self.hits.entry((domain, response_scope)).or_default();
        stats.hits += 1;
        stats.min_remaining_ttl = if stats.hits == 1 {
            remaining_ttl
        } else {
            stats.min_remaining_ttl.min(remaining_ttl)
        };
        self.pop_hit_prefixes
            .entry(pop)
            .or_default()
            .insert(response_scope);
        *self
            .scope_pairs
            .entry((domain, query_scope.len(), response_scope.len()))
            .or_insert(0) += 1;
    }

    /// The combined active-prefix set: every /24 inside any hit scope
    /// (the paper's upper-bound interpretation used for Table 1).
    pub fn active_set(&self) -> PrefixSet {
        PrefixSet::from_prefixes(self.hits.keys().map(|(_, p)| *p))
    }

    /// The active set detected via one domain only (Table 5).
    pub fn active_set_for_domain(&self, domain: usize) -> PrefixSet {
        PrefixSet::from_prefixes(
            self.hits
                .keys()
                .filter(|(d, _)| *d == domain)
                .map(|(_, p)| *p),
        )
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
        let mut table = VerdictTable::new();
        let mut spread = |scope: &Prefix, v: Verdict| {
            let first = scope.first_addr() >> 8;
            for idx in first..first + scope.num_slash24s() as u32 {
                table.record(idx, v);
            }
        };
        for ((_, scope), c) in &self.probe_counts {
            match c.verdict() {
                Verdict::Unmeasured => {}
                verdict => spread(scope, verdict),
            }
        }
        // Response scopes can be wider than the query scope; they are
        // hit evidence for every /24 they cover.
        for (_, scope) in self.hits.keys() {
            spread(scope, Verdict::Hit);
        }
        table
    }

    /// Table 2 rows: per domain, hits with |query − response| scope
    /// difference of exactly 0, ≤ 2, ≤ 4, and the total.
    pub fn scope_stability(&self, domain: usize) -> (u64, u64, u64, u64) {
        let mut exact = 0;
        let mut within2 = 0;
        let mut within4 = 0;
        let mut total = 0;
        for ((d, q, r), c) in &self.scope_pairs {
            if *d != domain {
                continue;
            }
            let diff = (i16::from(*q) - i16::from(*r)).unsigned_abs();
            total += c;
            if diff == 0 {
                exact += c;
            }
            if diff <= 2 {
                within2 += c;
            }
            if diff <= 4 {
                within4 += c;
            }
        }
        (exact, within2, within4, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn shell() -> CacheProbeResult {
        CacheProbeResult::new(
            vec![
                "www.google.com".parse().unwrap(),
                "facebook.com".parse().unwrap(),
            ],
            Vec::new(),
            ServiceRadii::default(),
        )
    }

    #[test]
    fn record_and_sets() {
        let mut r = shell();
        r.record_hit(0, 3, p("10.1.0.0/20"), p("10.1.0.0/20"), 100);
        r.record_hit(0, 3, p("10.1.0.0/20"), p("10.1.0.0/20"), 50);
        r.record_hit(1, 4, p("10.2.0.0/24"), p("10.2.0.0/22"), 10);
        assert_eq!(r.hits.len(), 2);
        assert_eq!(r.hits[&(0, p("10.1.0.0/20"))].hits, 2);
        assert_eq!(r.hits[&(0, p("10.1.0.0/20"))].min_remaining_ttl, 50);
        assert_eq!(r.active_set().num_slash24s(), 16 + 4);
        assert_eq!(r.active_set_for_domain(0).num_slash24s(), 16);
        assert_eq!(r.active_set_for_domain(1).num_slash24s(), 4);
        assert_eq!(r.pop_hit_prefixes[&3].num_slash24s(), 16);
    }

    #[test]
    fn scope_stability_buckets() {
        let mut r = shell();
        r.record_hit(0, 0, p("10.0.0.0/20"), p("10.0.0.0/20"), 1); // diff 0
        r.record_hit(0, 0, p("10.1.0.0/20"), p("10.1.0.0/22"), 1); // diff 2
        r.record_hit(0, 0, p("10.2.0.0/20"), p("10.2.0.0/24"), 1); // diff 4
        r.record_hit(0, 0, p("10.3.0.0/20"), p("10.3.0.0/14"), 1); // diff 6
        let (exact, w2, w4, total) = r.scope_stability(0);
        assert_eq!((exact, w2, w4, total), (1, 2, 3, 4));
        assert_eq!(r.scope_stability(1), (0, 0, 0, 0));
    }

    #[test]
    fn as_bounds_respect_rib() {
        let mut rib = Rib::new();
        rib.announce(p("10.1.0.0/16"), Asn(100));
        rib.announce(p("10.2.0.0/24"), Asn(200));
        let mut r = shell();
        r.record_hit(0, 0, p("10.1.0.0/20"), p("10.1.0.0/20"), 1);
        r.record_hit(0, 0, p("10.1.16.0/20"), p("10.1.16.0/20"), 1);
        r.record_hit(0, 0, p("10.2.0.0/24"), p("10.2.0.0/24"), 1);
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
        let mut r = shell();
        r.probe_counts.insert(
            (0, p("10.0.0.0/24")),
            ProbeCount {
                attempts: 4,
                hits: 1,
                scope0: 1,
                drops: 1,
            },
        );
        r.probe_counts.insert(
            (0, p("10.0.1.0/24")),
            ProbeCount {
                attempts: 3,
                hits: 0,
                scope0: 2,
                drops: 0,
            },
        );
        r.probe_counts.insert(
            (0, p("10.0.2.0/23")),
            ProbeCount {
                attempts: 3,
                hits: 0,
                scope0: 0,
                drops: 1,
            },
        );
        r.probe_counts.insert(
            (0, p("10.0.4.0/24")),
            ProbeCount {
                attempts: 2,
                hits: 0,
                scope0: 0,
                drops: 2,
            },
        );
        let t = r.verdict_table();
        assert_eq!(t.get(0x0A0000), Verdict::Hit);
        assert_eq!(t.get(0x0A0001), Verdict::HitScopeZero);
        assert_eq!(t.get(0x0A0002), Verdict::Miss);
        assert_eq!(t.get(0x0A0003), Verdict::Miss);
        assert_eq!(t.get(0x0A0004), Verdict::Dropped);
        assert_eq!(t.get(0x0A0005), Verdict::Unmeasured);
        assert_eq!(t.count_measured(), 5);
        // A wide response scope upgrades everything it covers to Hit.
        r.record_hit(0, 3, p("10.0.4.0/24"), p("10.0.4.0/23"), 60);
        let t = r.verdict_table();
        assert_eq!(t.get(0x0A0004), Verdict::Hit);
        assert_eq!(t.get(0x0A0005), Verdict::Hit);
    }

    #[test]
    fn upper_bound_capped_by_announced_space() {
        let mut rib = Rib::new();
        rib.announce(p("10.1.0.0/24"), Asn(300));
        let mut r = shell();
        // A /16 hit scope overlapping a tiny AS must not claim 256 /24s
        // for it.
        r.record_hit(0, 0, p("10.1.0.0/16"), p("10.1.0.0/16"), 1);
        let bounds = r.as_bounds(&rib);
        assert_eq!(bounds[&Asn(300)].upper_active_24s, 1);
    }
}
