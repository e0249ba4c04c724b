//! Crawling root traces for Chromium probes.

use std::collections::HashMap;

use clientmap_net::{Asn, Rib};
use clientmap_sim::roots::RootTraceSet;
use clientmap_telemetry::MetricsRegistry;

use crate::ChromiumClassifier;

/// Per-resolver Chromium activity.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverActivity {
    /// Resolver source address.
    pub resolver_addr: u32,
    /// Estimated Chromium probe queries over the capture window
    /// (sample-rate corrected).
    pub probes: f64,
}

/// The output of the DNS-logs technique.
#[derive(Debug, Clone, Default)]
pub struct DnsLogsResult {
    /// Per-resolver activity, sorted descending by probe count.
    pub resolvers: Vec<ResolverActivity>,
    /// Shape-matching records rejected by the collision threshold.
    pub rejected_noise_records: usize,
    /// Total records examined in public traces.
    pub records_examined: usize,
}

impl DnsLogsResult {
    /// Activity lookup by resolver address.
    pub fn probes_for(&self, addr: u32) -> f64 {
        self.resolvers
            .iter()
            .find(|r| r.resolver_addr == addr)
            .map(|r| r.probes)
            .unwrap_or(0.0)
    }

    /// Aggregates per-resolver activity to ASes through a RIB (the
    /// public Routeviews-style mapping). Resolvers outside any
    /// announced prefix are dropped, as in the paper.
    pub fn by_as(&self, rib: &Rib) -> HashMap<Asn, f64> {
        let mut out: HashMap<Asn, f64> = HashMap::new();
        for r in &self.resolvers {
            if let Some(asn) = rib.origin_of_addr(r.resolver_addr) {
                *out.entry(asn).or_insert(0.0) += r.probes;
            }
        }
        out
    }

    /// Total estimated probes.
    pub fn total_probes(&self) -> f64 {
        self.resolvers.iter().map(|r| r.probes).sum()
    }
}

/// Runs the DNS-logs technique over a trace set.
///
/// Two passes, matching the paper's method: (1) aggregate per-name
/// daily counts **across all public roots** — the collision threshold
/// is a property of the name, not of one (resolver, root) pair; (2)
/// attribute the surviving shape-matching queries to their source
/// resolvers, scaled by the capture's sampling rate.
///
/// Both passes fan each root's trace out as one work unit on
/// [`clientmap_par::par_map`] and merge the per-trace partials in trace
/// order — the ordered reduction keeps the floating-point attribution
/// sums (and therefore the resolver ranking) byte-identical at any
/// thread count.
pub fn crawl(traces: &RootTraceSet, classifier: &ChromiumClassifier) -> DnsLogsResult {
    crawl_with_metrics(traces, classifier, &MetricsRegistry::new())
}

/// [`crawl`], reporting its funnel under `dnslogs.` in `metrics`.
///
/// The counters form their own conservation law, checked end to end:
/// `records_examined == shape_mismatch + rejected_noise + attributed`.
pub fn crawl_with_metrics(
    traces: &RootTraceSet,
    classifier: &ChromiumClassifier,
    metrics: &MetricsRegistry,
) -> DnsLogsResult {
    let rate = traces.sample_rate.clamp(f64::MIN_POSITIVE, 1.0);
    let threshold = classifier.effective_threshold(rate);
    let public: Vec<&clientmap_sim::roots::RootTrace> = traces.public_traces().collect();

    // Pass 1: global per-name daily counts (shape-matching names only),
    // one partial map per root trace, merged in trace order.
    let partials: Vec<HashMap<&clientmap_dns::DomainName, Vec<u64>>> =
        clientmap_par::par_map(&public, |_, trace| {
            let mut local: HashMap<&clientmap_dns::DomainName, Vec<u64>> = HashMap::new();
            for record in &trace.records {
                if !classifier.matches_shape(&record.qname) {
                    continue;
                }
                let days = local
                    .entry(&record.qname)
                    .or_insert_with(|| vec![0; traces.days as usize]);
                for (d, c) in record.count_by_day.iter().enumerate() {
                    if d < days.len() {
                        days[d] += u64::from(*c);
                    }
                }
            }
            local
        });
    let mut global: HashMap<&clientmap_dns::DomainName, Vec<u64>> = HashMap::new();
    for partial in partials {
        for (name, days) in partial {
            match global.entry(name) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(days);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (acc, d) in e.get_mut().iter_mut().zip(days) {
                        *acc += d;
                    }
                }
            }
        }
    }
    let noisy: std::collections::HashSet<&clientmap_dns::DomainName> = global
        .iter()
        .filter(|(_, days)| days.iter().any(|c| *c >= u64::from(threshold)))
        .map(|(name, _)| *name)
        .collect();

    // Pass 2: per-resolver attribution of surviving probes. Partial
    // attribution sums are f64, so the trace-order merge below is what
    // pins the result down (float addition does not commute with
    // reordering).
    struct TraceTally {
        per_resolver: HashMap<u32, f64>,
        rejected: usize,
        examined: usize,
        shape_mismatch: u64,
        attributed: u64,
    }
    let tallies: Vec<TraceTally> = clientmap_par::par_map(&public, |_, trace| {
        let mut tally = TraceTally {
            per_resolver: HashMap::new(),
            rejected: 0,
            examined: 0,
            shape_mismatch: 0,
            attributed: 0,
        };
        for record in &trace.records {
            tally.examined += 1;
            if !classifier.matches_shape(&record.qname) {
                tally.shape_mismatch += 1;
                continue;
            }
            if noisy.contains(&record.qname) {
                tally.rejected += 1;
                continue;
            }
            tally.attributed += 1;
            *tally
                .per_resolver
                .entry(record.resolver_addr)
                .or_insert(0.0) += record.total() as f64 / rate;
        }
        tally
    });
    let mut per_resolver: HashMap<u32, f64> = HashMap::new();
    let mut rejected = 0usize;
    let mut examined = 0usize;
    let mut shape_mismatch = 0u64;
    let mut attributed = 0u64;
    for tally in tallies {
        rejected += tally.rejected;
        examined += tally.examined;
        shape_mismatch += tally.shape_mismatch;
        attributed += tally.attributed;
        for (addr, probes) in tally.per_resolver {
            *per_resolver.entry(addr).or_insert(0.0) += probes;
        }
    }
    let mut resolvers: Vec<ResolverActivity> = per_resolver
        .into_iter()
        .map(|(resolver_addr, probes)| ResolverActivity {
            resolver_addr,
            probes,
        })
        .collect();
    resolvers.sort_by(|a, b| {
        b.probes
            .total_cmp(&a.probes)
            .then(a.resolver_addr.cmp(&b.resolver_addr))
    });
    metrics
        .counter("dnslogs.records_examined")
        .add(examined as u64);
    metrics
        .counter("dnslogs.shape_mismatch")
        .add(shape_mismatch);
    metrics
        .counter("dnslogs.rejected_noise")
        .add(rejected as u64);
    metrics.counter("dnslogs.attributed").add(attributed);
    metrics
        .counter("dnslogs.noisy_names")
        .add(noisy.len() as u64);
    metrics
        .counter("dnslogs.resolvers_detected")
        .add(resolvers.len() as u64);
    DnsLogsResult {
        resolvers,
        rejected_noise_records: rejected,
        records_examined: examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_sim::{Sim, SimTime};
    use clientmap_world::{World, WorldConfig};

    fn run(seed: u64, sample_rate: f64) -> (Sim, DnsLogsResult) {
        let sim = Sim::new(World::generate(WorldConfig::tiny(seed)));
        let traces = sim.capture_root_traces(SimTime::ZERO, 2, sample_rate);
        let result = crawl(&traces, &ChromiumClassifier::default());
        (sim, result)
    }

    #[test]
    fn finds_resolvers_and_rejects_noise() {
        let (_, result) = run(61, 0.01);
        assert!(!result.resolvers.is_empty(), "no resolvers detected");
        assert!(
            result.rejected_noise_records > 0,
            "noise population must trip the threshold"
        );
        assert!(result.records_examined > result.resolvers.len());
    }

    #[test]
    fn detected_resolvers_serve_users() {
        let (sim, result) = run(62, 0.01);
        let w = sim.world();
        // Every detected resolver must be a real resolver (or Google
        // egress) that some user population points at.
        for r in result.resolvers.iter().take(50) {
            let known = w.resolvers.iter().any(|x| x.addr == r.resolver_addr)
                || sim.gpdns().pop_of_egress(r.resolver_addr).is_some();
            assert!(known, "phantom resolver {:#x}", r.resolver_addr);
            assert!(r.probes > 0.0);
        }
    }

    #[test]
    fn counts_scale_with_users() {
        let (sim, result) = run(63, 0.02);
        let w = sim.world();
        // Google egress resolvers aggregate many ASes ⇒ should rank
        // high; compare total google-egress probes vs the smallest
        // detected ISP resolver.
        let google_total: f64 = result
            .resolvers
            .iter()
            .filter(|r| sim.gpdns().pop_of_egress(r.resolver_addr).is_some())
            .map(|r| r.probes)
            .sum();
        assert!(google_total > 0.0, "google egress absent from roots");
        // Per-AS aggregation attributes google probes to the Google AS.
        let by_as = result.by_as(&w.rib);
        let google_asn = w.ases[w.google_as].asn;
        assert!(by_as.get(&google_asn).copied().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn sample_rate_correction_roughly_invariant() {
        let (_, lo) = run(64, 0.005);
        let (_, hi) = run(64, 0.05);
        let lo_total = lo.total_probes();
        let hi_total = hi.total_probes();
        let ratio = lo_total / hi_total.max(1e-9);
        assert!(
            (0.5..2.0).contains(&ratio),
            "correction broken: {lo_total} vs {hi_total}"
        );
    }

    #[test]
    fn metrics_funnel_conserves_records() {
        let sim = Sim::new(World::generate(WorldConfig::tiny(65)));
        let traces = sim.capture_root_traces(SimTime::ZERO, 2, 0.01);
        let m = clientmap_telemetry::MetricsRegistry::new();
        let result = crawl_with_metrics(&traces, &ChromiumClassifier::default(), &m);
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("dnslogs.records_examined"),
            result.records_examined as u64
        );
        assert_eq!(
            snap.counter("dnslogs.shape_mismatch")
                + snap.counter("dnslogs.rejected_noise")
                + snap.counter("dnslogs.attributed"),
            snap.counter("dnslogs.records_examined")
        );
        assert_eq!(
            snap.counter("dnslogs.resolvers_detected"),
            result.resolvers.len() as u64
        );
    }

    #[test]
    fn by_as_drops_unrouted() {
        let result = DnsLogsResult {
            resolvers: vec![ResolverActivity {
                resolver_addr: 0xDEAD_BEEF,
                probes: 5.0,
            }],
            rejected_noise_records: 0,
            records_examined: 1,
        };
        let rib = Rib::new();
        assert!(result.by_as(&rib).is_empty());
        assert_eq!(result.probes_for(0xDEAD_BEEF), 5.0);
        assert_eq!(result.probes_for(1), 0.0);
    }
}
