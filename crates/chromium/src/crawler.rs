//! Crawling root traces for Chromium probes.

use std::collections::HashMap;

use clientmap_net::{Asn, Rib};
use clientmap_sim::roots::{RootTraceSet, TraceTable};
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
/// The crawl reads the traces' columns in place. Pass 1 is one sort of
/// every shape-matching record by its name bytes, so each name's records
/// across the public roots form one run. Pass 2 fans each root's trace
/// out as one work unit on [`clientmap_par::par_map`], summing in record
/// order, and merges the per-trace partials in trace order — the ordered
/// reduction keeps the floating-point attribution sums (and therefore the
/// resolver ranking) byte-identical at any thread count.
pub fn crawl(traces: &RootTraceSet, classifier: &ChromiumClassifier) -> DnsLogsResult {
    crawl_with_metrics(traces, classifier, &MetricsRegistry::new())
}

/// What the crawl makes of one public trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Not a single 7–15 letter label.
    ShapeMismatch,
    /// Shape-matching, and its name stays under the threshold.
    Probe,
    /// Shape-matching, but its name crosses the threshold on some day.
    Noise,
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
    let threshold = u64::from(classifier.effective_threshold(rate));
    let public: Vec<&TraceTable> = traces.public_traces().map(|t| &t.records).collect();

    // Shape flags, one task per public trace.
    let mut verdicts: Vec<Vec<Verdict>> = clientmap_par::par_map(&public, |_, table| {
        (0..table.len())
            .map(|r| {
                if classifier.matches_shape(table.name(r)) {
                    Verdict::Probe
                } else {
                    Verdict::ShapeMismatch
                }
            })
            .collect()
    });

    // Pass 1: global per-name daily counts. One sort of the
    // shape-matching (name, trace, record) triples puts each name's
    // records from every public root into one run; a run that reaches
    // the threshold on any day flags all its records as noise. Only
    // single labels reach the sort, and their byte order is the
    // names' order.
    let shaped = verdicts.iter().flatten().filter(|v| **v == Verdict::Probe);
    let mut named: Vec<(&[u8], u32, u32)> = Vec::with_capacity(shaped.count());
    for (t, (table, flags)) in public.iter().zip(&verdicts).enumerate() {
        for (r, flag) in flags.iter().enumerate() {
            if *flag == Verdict::Probe {
                named.push((table.name(r).as_bytes(), t as u32, r as u32));
            }
        }
    }
    named.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut noisy_names = 0u64;
    for run in named.chunk_by(|a, b| a.0 == b.0) {
        let day_total = |d: usize| -> u64 {
            run.iter()
                .map(|&(_, t, r)| {
                    let counts = public[t as usize].counts(r as usize);
                    counts.get(d).map_or(0, |&c| u64::from(c))
                })
                .sum()
        };
        if (0..traces.days as usize).any(|d| day_total(d) >= threshold) {
            noisy_names += 1;
            for &(_, t, r) in run {
                verdicts[t as usize][r as usize] = Verdict::Noise;
            }
        }
    }

    // Pass 2: per-resolver attribution of surviving probes. Partial
    // attribution sums are f64, so the trace-order merge below is what
    // pins the result down (float addition does not commute with
    // reordering).
    struct TraceTally {
        per_resolver: HashMap<u32, f64>,
        rejected: usize,
        shape_mismatch: u64,
        attributed: u64,
    }
    let tallies: Vec<TraceTally> = clientmap_par::par_map(&public, |t, table| {
        let mut tally = TraceTally {
            per_resolver: HashMap::new(),
            rejected: 0,
            shape_mismatch: 0,
            attributed: 0,
        };
        for (r, verdict) in verdicts[t].iter().enumerate() {
            match verdict {
                Verdict::ShapeMismatch => tally.shape_mismatch += 1,
                Verdict::Noise => tally.rejected += 1,
                Verdict::Probe => {
                    tally.attributed += 1;
                    *tally.per_resolver.entry(table.resolver(r)).or_insert(0.0) +=
                        table.total(r) as f64 / rate;
                }
            }
        }
        tally
    });
    let examined: usize = public.iter().map(|table| table.len()).sum();
    let mut per_resolver: HashMap<u32, f64> = HashMap::new();
    let mut rejected = 0usize;
    let mut shape_mismatch = 0u64;
    let mut attributed = 0u64;
    for tally in tallies {
        rejected += tally.rejected;
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
    metrics.counter("dnslogs.noisy_names").add(noisy_names);
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
    use clientmap_dns::DomainName;
    use clientmap_sim::roots::RootTrace;
    use clientmap_sim::{Sim, SimTime};
    use clientmap_world::{World, WorldConfig};

    /// The crawl as per-name hash maps: every record's name parsed back
    /// into a `DomainName` and shape-tested on its labels, one
    /// `DomainName`-keyed map of day vectors per trace, merged into a
    /// global map, and a hash set of the noisy names that pass 2 looks
    /// every record up in. The oracle [`crawl_with_metrics`] must equal
    /// bit for bit.
    fn crawl_oracle(
        traces: &RootTraceSet,
        classifier: &ChromiumClassifier,
        metrics: &MetricsRegistry,
    ) -> DnsLogsResult {
        use std::collections::HashSet;

        /// One record, owned: resolver, name, counts per day.
        struct Record {
            resolver_addr: u32,
            qname: DomainName,
            count_by_day: Vec<u32>,
        }
        impl Record {
            fn total(&self) -> u64 {
                self.count_by_day.iter().map(|c| u64::from(*c)).sum()
            }
        }
        /// The Chromium shape on the name's labels.
        fn shaped(c: &ChromiumClassifier, name: &DomainName) -> bool {
            name.is_single_label()
                && name.first_label().is_some_and(|label| {
                    (c.min_len..=c.max_len).contains(&label.len()) && label.is_all_lowercase_alpha()
                })
        }

        let rate = traces.sample_rate.clamp(f64::MIN_POSITIVE, 1.0);
        let threshold = classifier.effective_threshold(rate);
        let owned: Vec<Vec<Record>> = traces
            .public_traces()
            .map(|trace| {
                trace
                    .records
                    .iter()
                    .map(|(resolver_addr, name, counts)| Record {
                        resolver_addr,
                        qname: name.parse().expect("a trace name parses"),
                        count_by_day: counts.to_vec(),
                    })
                    .collect()
            })
            .collect();
        let public: Vec<&[Record]> = owned.iter().map(Vec::as_slice).collect();
        let partials: Vec<HashMap<&DomainName, Vec<u64>>> =
            clientmap_par::par_map(&public, |_, trace| {
                let mut local: HashMap<&DomainName, Vec<u64>> = HashMap::new();
                for record in *trace {
                    if !shaped(classifier, &record.qname) {
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
        let mut global: HashMap<&DomainName, Vec<u64>> = HashMap::new();
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
        let noisy: HashSet<&DomainName> = global
            .iter()
            .filter(|(_, days)| days.iter().any(|c| *c >= u64::from(threshold)))
            .map(|(name, _)| *name)
            .collect();
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
            for record in *trace {
                tally.examined += 1;
                if !shaped(classifier, &record.qname) {
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

    /// Crawls `traces` at 1 and 4 threads and checks both against the
    /// oracle: every resolver, every `f64` bit, every `dnslogs.` counter.
    /// Returns the crawl's counters.
    fn assert_crawl_matches_oracle(traces: &RootTraceSet) -> clientmap_telemetry::MetricsSnapshot {
        let classifier = ChromiumClassifier::default();
        let want_metrics = MetricsRegistry::new();
        let want = crawl_oracle(traces, &classifier, &want_metrics);
        let bits = |r: &DnsLogsResult| -> Vec<(u32, u64)> {
            r.resolvers
                .iter()
                .map(|a| (a.resolver_addr, a.probes.to_bits()))
                .collect()
        };
        let mut snaps = Vec::new();
        for threads in [1, 4] {
            let metrics = MetricsRegistry::new();
            let got = clientmap_par::with_threads(threads, || {
                crawl_with_metrics(traces, &classifier, &metrics)
            });
            assert_eq!(bits(&got), bits(&want), "threads {threads}");
            assert_eq!(got.rejected_noise_records, want.rejected_noise_records);
            assert_eq!(got.records_examined, want.records_examined);
            assert_eq!(
                metrics.snapshot(),
                want_metrics.snapshot(),
                "threads {threads}"
            );
            snaps.push(metrics.snapshot());
        }
        snaps.pop().unwrap()
    }

    #[test]
    fn crawl_equals_the_hash_map_oracle_on_captured_traces() {
        for (seed, rate) in [(61, 0.01), (66, 0.05), (2021, 0.005)] {
            let sim = Sim::new(World::generate(WorldConfig::tiny(seed)));
            let traces = sim.capture_root_traces(SimTime::ZERO, 2, rate);
            let snap = assert_crawl_matches_oracle(&traces);
            assert!(snap.counter("dnslogs.noisy_names") > 0, "seed {seed}");
        }
    }

    /// One hand-built record: root letter, resolver, name, counts per
    /// day.
    type Rec<'a> = (char, u32, &'a str, &'a [u32]);

    /// A trace set over `days` days holding `records`, each pushed onto
    /// its letter's table through its parsed name.
    fn trace_set(sample_rate: f64, days: u32, records: &[Rec]) -> RootTraceSet {
        use clientmap_sim::roots::{PUBLIC_TRACE_LETTERS, ROOT_LETTERS};
        let trace = |letter: char| {
            let mut table = TraceTable::default();
            for &(_, resolver, name, counts) in records.iter().filter(|r| r.0 == letter) {
                let name: DomainName = name.parse().unwrap();
                table.push(resolver, &name, counts);
            }
            RootTrace {
                letter,
                public: PUBLIC_TRACE_LETTERS.contains(&letter),
                records: table,
            }
        };
        RootTraceSet {
            traces: ROOT_LETTERS.iter().map(|&letter| trace(letter)).collect(),
            sample_rate,
            days,
        }
    }

    /// A hand-built capture over two days with every edge the crawl
    /// has: `t` is the sample-adjusted threshold.
    fn hand_built(sample_rate: f64) -> RootTraceSet {
        let t = ChromiumClassifier::default().effective_threshold(sample_rate);
        trace_set(
            sample_rate,
            2,
            &[
                // Public letters.
                ('J', 1, "www.example.com", &[50, 50]), // multi-label
                ('J', 1, "abc", &[1, 0]),               // too short
                ('J', 2, "ab3defgh", &[1, 0]),          // digit
                ('J', 2, "crosstwoletters", &[t - 1, 0]), // noisy only summed
                ('J', 3, "toolongforaprobe", &[1, 0]),  // 16 letters
                ('J', 3, "loudelsewhere", &[1, 1]),
                ('J', 4, "pastthewindow", &[0, 0, 10 * t]), // day 3 of 2
                ('J', 5, "quietprobe", &[1, 0]),
                ('H', 2, "crosstwoletters", &[1, 0]),
                ('H', 5, "quietprobe", &[0, 1]),
                ('H', 6, "anotherprobe", &[2, 1]),
                ('A', 7, "loudsingle", &[0, t]),
                // Non-public: never read.
                ('B', 8, "loudelsewhere", &[10 * t, 10 * t]),
            ],
        )
    }

    #[test]
    fn crawl_equals_the_hash_map_oracle_on_hand_built_traces() {
        for rate in [1.0, 0.3] {
            let traces = hand_built(rate);
            let snap = assert_crawl_matches_oracle(&traces);
            assert_eq!(snap.counter("dnslogs.records_examined"), 12);
            assert_eq!(snap.counter("dnslogs.shape_mismatch"), 4);
            // `crosstwoletters` (both records) and `loudsingle`.
            assert_eq!(snap.counter("dnslogs.noisy_names"), 2);
            assert_eq!(snap.counter("dnslogs.rejected_noise"), 3);
            assert_eq!(snap.counter("dnslogs.attributed"), 5);
            let result = crawl(&traces, &ChromiumClassifier::default());
            assert_eq!(
                result.probes_for(3),
                2.0 / rate,
                "loud only off the public roots"
            );
            assert_eq!(
                result.probes_for(4),
                10.0 * f64::from(ChromiumClassifier::default().effective_threshold(rate)) / rate
            );
            assert_eq!(result.probes_for(2), 0.0);
            assert_eq!(result.probes_for(7), 0.0);
        }
    }

    /// The per-day threshold at its boundaries, one record per name on
    /// one public letter: at rate 1, `[6, 6]` is a probe while `[7, 0]`
    /// and `[0, 7]` are noise; at rate 0.01 (threshold 2) over one day,
    /// `[1]` is a probe and `[2]` noise.
    #[test]
    fn threshold_boundaries_on_hand_built_records() {
        let per_day: [(f64, u32, &[Rec]); 2] = [
            (
                1.0,
                2,
                &[
                    ('J', 1, "abcdefgh", &[6, 6]),
                    ('J', 2, "bcdefghi", &[7, 0]),
                    ('J', 3, "cdefghij", &[0, 7]),
                ],
            ),
            // Threshold 2.
            (
                0.01,
                1,
                &[('J', 1, "abcdefgh", &[1]), ('J', 2, "bcdefghi", &[2])],
            ),
        ];
        for (rate, days, records) in per_day {
            let traces = trace_set(rate, days, records);
            let snap = assert_crawl_matches_oracle(&traces);
            let result = crawl(&traces, &ChromiumClassifier::default());
            // The first record alone stays under the threshold every day.
            let total: u32 = records[0].3.iter().sum();
            assert_eq!(result.probes_for(1), f64::from(total) / rate, "rate {rate}");
            for &(_, resolver, name, _) in &records[1..] {
                assert_eq!(result.probes_for(resolver), 0.0, "{name} at rate {rate}");
            }
            assert_eq!(snap.counter("dnslogs.attributed"), 1, "rate {rate}");
            assert_eq!(
                snap.counter("dnslogs.rejected_noise"),
                records.len() as u64 - 1,
                "rate {rate}"
            );
        }
    }

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
