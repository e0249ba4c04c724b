//! End-to-end integration: one pipeline run, checked against the
//! paper's *qualitative* evaluation structure (who covers whom, by
//! roughly what ordering — DESIGN.md's "shape" criterion).

use clientmap::analysis::overlap::{as_matrix, prefix_matrix, volume_matrix};
use clientmap::analysis::{
    dns_http_proxy, groundtruth_recall, scope_precision, scope_stability_table,
};
use clientmap::core::{Pipeline, PipelineConfig, PipelineOutput};
use clientmap::datasets::DatasetId;

fn output() -> &'static PipelineOutput {
    static OUT: std::sync::OnceLock<PipelineOutput> = std::sync::OnceLock::new();
    OUT.get_or_init(|| Pipeline::run(PipelineConfig::tiny(2021)).expect("tiny run is healthy"))
}

const AS_IDS: [DatasetId; 6] = [
    DatasetId::CacheProbing,
    DatasetId::DnsLogs,
    DatasetId::Union,
    DatasetId::Apnic,
    DatasetId::MicrosoftClients,
    DatasetId::MicrosoftResolvers,
];

#[test]
fn table3_shape_cdn_broadest_apnic_narrowest() {
    let m = as_matrix(&output().bundle, &AS_IDS);
    let ms = m.size(DatasetId::MicrosoftClients).unwrap();
    let apnic = m.size(DatasetId::Apnic).unwrap();
    let cache = m.size(DatasetId::CacheProbing).unwrap();
    let dns = m.size(DatasetId::DnsLogs).unwrap();
    let union = m.size(DatasetId::Union).unwrap();
    // Paper: MS 64.8K > union 51.9K > DNS 39.7K ≈ cache 37.0K > APNIC 23.3K.
    assert!(
        ms >= union,
        "CDN ({ms}) must be the broadest (union {union})"
    );
    assert!(
        union >= cache && union >= dns,
        "union covers both techniques"
    );
    assert!(
        apnic < ms,
        "APNIC ({apnic}) must miss a large share of CDN ASes ({ms})"
    );
    assert!(
        apnic < union,
        "the techniques combined ({union}) must beat APNIC ({apnic})"
    );
}

#[test]
fn table3_shape_apnic_misses_large_fraction_of_cdn() {
    let m = as_matrix(&output().bundle, &AS_IDS);
    let (_, apnic_in_ms_pct) = m
        .cell(DatasetId::MicrosoftClients, DatasetId::Apnic)
        .unwrap();
    // Paper: APNIC misses 64% of MS-client ASes. Shape: a substantial
    // miss (>25%), not near-complete coverage.
    assert!(
        apnic_in_ms_pct < 75.0,
        "APNIC covers {apnic_in_ms_pct:.1}% of CDN ASes — too complete"
    );
    // And the union does better than APNIC does.
    let (_, union_in_ms) = m
        .cell(DatasetId::MicrosoftClients, DatasetId::Union)
        .unwrap();
    assert!(union_in_ms > apnic_in_ms_pct);
}

#[test]
fn table1_shape_dns_logs_high_precision() {
    let m = prefix_matrix(
        &output().bundle,
        &[
            DatasetId::CacheProbing,
            DatasetId::DnsLogs,
            DatasetId::Union,
            DatasetId::MicrosoftClients,
        ],
    );
    // Paper: 95.5% of DNS-logs prefixes are in Microsoft clients.
    let (_, dns_in_ms) = m
        .cell(DatasetId::DnsLogs, DatasetId::MicrosoftClients)
        .unwrap();
    assert!(
        dns_in_ms > 60.0,
        "DNS-logs prefix precision {dns_in_ms:.1}% too low"
    );
}

#[test]
fn table4_shape_union_beats_apnic_on_volume() {
    let m = volume_matrix(&output().bundle, &[DatasetId::MicrosoftClients], &AS_IDS);
    let union = m
        .cell(DatasetId::MicrosoftClients, DatasetId::Union)
        .unwrap();
    let apnic = m
        .cell(DatasetId::MicrosoftClients, DatasetId::Apnic)
        .unwrap();
    // Paper: 98.8% vs 92%. Shape: union ≥ APNIC and both high.
    assert!(union >= apnic, "union {union:.1}% < APNIC {apnic:.1}%");
    assert!(union > 80.0, "union volume coverage {union:.1}%");
    // The ASes each misses are small: missing-AS volume ≤ 25%.
    assert!(apnic > 75.0, "APNIC volume coverage {apnic:.1}%");
}

#[test]
fn table2_shape_scopes_mostly_stable() {
    let rows = scope_stability_table(&output().cache_probe);
    let overall = rows.last().expect("overall row");
    assert!(overall.total > 0);
    let (exact, within2, within4) = overall.pcts();
    // Paper: 90% / 97% / 99%.
    assert!(exact > 75.0, "exact {exact:.1}%");
    assert!(within2 > exact && within2 > 88.0, "within2 {within2:.1}%");
    assert!(
        within4 >= within2 && within4 > 93.0,
        "within4 {within4:.1}%"
    );
}

#[test]
fn headline_shapes() {
    let o = output();
    let proxy = dns_http_proxy(&o.bundle);
    // Paper: 97.2% and 92%.
    assert!(
        proxy.dns_volume_in_http_prefixes_pct > 80.0,
        "DNS-in-HTTP {:.1}%",
        proxy.dns_volume_in_http_prefixes_pct
    );
    assert!(
        proxy.http_volume_in_ecs_prefixes_pct > 60.0,
        "HTTP-in-ECS {:.1}%",
        proxy.http_volume_in_ecs_prefixes_pct
    );
    // Paper: 91% ground-truth recall.
    let recall = groundtruth_recall(&o.cache_probe, &o.bundle.cloud_ecs);
    assert!(recall > 0.5, "ground-truth ECS recall {recall:.2}");
    // Paper: 99.1% of hit scopes contain a CDN-client /24.
    let precision = scope_precision(&o.cache_probe, &o.bundle.ms_clients);
    assert!(precision > 0.9, "scope precision {precision:.3}");
}

#[test]
fn ms_clients_volume_in_probed_prefixes_high() {
    // Paper: 95.2% of Microsoft clients volume in probed-active prefixes.
    let o = output();
    let covered = o.bundle.ms_clients.volume_in(&o.bundle.cache_probing);
    let frac = covered / o.bundle.ms_clients.total_volume();
    assert!(frac > 0.7, "CDN volume coverage {frac:.3}");
}

#[test]
fn probing_is_non_recursive_and_clean() {
    let o = output();
    let metrics = o.metrics_snapshot();
    // Probes must never have triggered recursive resolution.
    assert_eq!(
        metrics.counter("gpdns.recursive"),
        0,
        "a probe polluted the cache path"
    );
    // TCP probing at paper rates suffers no drops.
    assert_eq!(
        metrics.counter("cacheprobe.outcome.dropped"),
        0,
        "TCP probes were rate-limited"
    );
}

#[test]
fn headline_matches_golden_output() {
    // The exact text `clientmap repro --scale tiny --seed 2021 headline`
    // prints, pinned under tests/golden/. Compared modulo whitespace so
    // reflowing or re-aligning the report is not a behaviour change —
    // but any number moving is.
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/headline_tiny_2021.txt"
    ))
    .expect("golden file present");
    let rendered = output().report().headlines();
    let norm = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    assert_eq!(
        norm(&rendered),
        norm(&golden),
        "headline output drifted from tests/golden/headline_tiny_2021.txt;\n\
         regenerate with: cargo run --release --bin clientmap -- repro \
         --scale tiny --seed 2021 headline > tests/golden/headline_tiny_2021.txt"
    );
}

#[test]
fn telemetry_invariants_reconcile() {
    let o = output();
    let snap = o.metrics_snapshot();
    // The pipeline already asserts these internally; re-check here so a
    // future removal of that assertion still fails a test, and pin the
    // counters to the independently-tracked result values.
    let violations = clientmap::core::invariants::check(&snap, o.config.probe.redundancy);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(
        snap.counter("cacheprobe.probes_sent"),
        o.cache_probe.probes_sent
    );
    // `hits` aggregates by (domain, scope); the counter sees every event.
    let hit_events: u64 = o.cache_probe.hits.values().map(|h| h.hits).sum();
    assert_eq!(snap.counter("cacheprobe.outcome.hit"), hit_events);
    assert_eq!(
        snap.counter("dnslogs.records_examined"),
        o.dns_logs.records_examined as u64
    );
    assert_eq!(
        snap.counter("dnslogs.rejected_noise"),
        o.dns_logs.rejected_noise_records as u64
    );
    assert_eq!(
        snap.counter("world.slash24s.routed"),
        o.sim.world().routed_slash24s()
    );
    assert_eq!(snap.counter("pipeline.runs"), 1);
    // Probing ran clean (TCP at paper rates): no drops anywhere.
    assert_eq!(snap.counter("cacheprobe.outcome.dropped"), 0);
    // Stage spans recorded in sim time.
    for stage in ["cache_probe", "dns_logs", "cdn_logs"] {
        let h = snap
            .histogram(&format!("pipeline.stage_ms.{stage}"))
            .unwrap_or_else(|| panic!("missing span for {stage}"));
        assert_eq!(h.count, 1);
        assert!(h.sum > 0);
    }
}

#[test]
fn metrics_snapshot_deterministic_across_runs() {
    let a = Pipeline::run(PipelineConfig::tiny(78)).expect("run a");
    let b = Pipeline::run(PipelineConfig::tiny(78)).expect("run b");
    assert_eq!(
        a.metrics_snapshot().to_json(),
        b.metrics_snapshot().to_json()
    );
}

#[test]
fn deterministic_end_to_end() {
    let a = Pipeline::run(PipelineConfig::tiny(77)).expect("run a");
    let b = Pipeline::run(PipelineConfig::tiny(77)).expect("run b");
    assert_eq!(a.cache_probe.probes_sent, b.cache_probe.probes_sent);
    assert_eq!(
        a.cache_probe.active_set().num_slash24s(),
        b.cache_probe.active_set().num_slash24s()
    );
    assert_eq!(a.dns_logs.resolvers.len(), b.dns_logs.resolvers.len());
    assert_eq!(a.cdn_logs.total_requests(), b.cdn_logs.total_requests());
    assert_eq!(a.apnic.len(), b.apnic.len());
}

#[test]
fn identical_output_across_thread_counts() {
    // The executor's ordered reduction promises the whole pipeline is
    // reproducible at any worker count: same headline report, same
    // result numbers, and a byte-identical telemetry snapshot.
    let base = clientmap::par::with_threads(1, || Pipeline::run(PipelineConfig::tiny(2021)))
        .expect("1-thread run");
    let base_headlines = base.report().headlines();
    let base_snapshot = base.metrics_snapshot().to_json();
    for threads in [2usize, 8] {
        let run =
            clientmap::par::with_threads(threads, || Pipeline::run(PipelineConfig::tiny(2021)))
                .unwrap_or_else(|e| panic!("{threads}-thread run failed: {e}"));
        assert_eq!(
            run.cache_probe.probes_sent, base.cache_probe.probes_sent,
            "probe volume drift at {threads} threads"
        );
        assert_eq!(
            run.cache_probe.active_set().num_slash24s(),
            base.cache_probe.active_set().num_slash24s(),
            "active set drift at {threads} threads"
        );
        assert_eq!(
            run.report().headlines(),
            base_headlines,
            "headline drift at {threads} threads"
        );
        assert_eq!(
            run.metrics_snapshot().to_json(),
            base_snapshot,
            "telemetry snapshot drift at {threads} threads"
        );
    }
}

#[test]
fn fig4_bounds_invariant_lower_leq_upper_leq_announced() {
    let o = output();
    let bounds = o.cache_probe.as_bounds(&o.sim.world().rib);
    assert!(!bounds.is_empty());
    for (asn, b) in &bounds {
        assert!(
            b.lower_active_24s <= b.upper_active_24s,
            "{asn}: lower {} > upper {}",
            b.lower_active_24s,
            b.upper_active_24s
        );
        assert!(
            b.upper_active_24s <= b.announced_24s.max(1),
            "{asn}: upper {} > announced {}",
            b.upper_active_24s,
            b.announced_24s
        );
    }
}

#[test]
fn active_set_stays_inside_allocated_space() {
    let o = output();
    let world = o.sim.world();
    for scope in o.cache_probe.hit_prefixes() {
        let inside = world
            .blocks
            .iter()
            .any(|b| b.prefix.contains(scope) || scope.contains(b.prefix));
        assert!(inside, "hit scope {scope} outside every allocation");
    }
}

#[test]
fn cache_probing_misses_exist_and_are_mostly_google_free_or_small() {
    // The paper's central coverage gap: the CDN sees ASes the probing
    // cannot (no Google DNS users, or too little activity).
    let o = output();
    let world = o.sim.world();
    let probed = &o.bundle.cache_probing_as;
    let mut missed = 0usize;
    let mut explained = 0usize;
    for asn in o.bundle.ms_clients_as.set() {
        if probed.contains(asn) {
            continue;
        }
        missed += 1;
        if let Some(id) = world.as_id(asn) {
            let info = &world.ases[id];
            // Explained misses: tiny population, Google-free mix, or all
            // the AS's Google traffic landing on cloud-unreachable PoPs.
            let google_rate: f64 = world
                .slash24s
                .iter()
                .filter(|s| s.as_id == id)
                .map(|s| s.clients() * s.resolver_mix.google)
                .sum();
            let pops = clientmap::sim::pop_catalog();
            let all_unreachable = world
                .slash24s
                .iter()
                .enumerate()
                .filter(|(_, s)| s.as_id == id && s.is_active())
                .all(|(i, _)| {
                    pops[o.sim.catchments().of_slash24(i)].status
                        != clientmap::sim::PopStatus::ProbedVerified
                });
            if info.users + info.machines < 200.0 || google_rate < 30.0 || all_unreachable {
                explained += 1;
            }
        }
    }
    assert!(missed > 0, "cache probing implausibly saw every CDN AS");
    // The remainder are temporal misses (activity never inside a TTL
    // window a probe sampled) — real but not cheaply attributable;
    // require a majority of misses to be structurally explained.
    assert!(
        explained * 10 >= missed * 6,
        "only {explained}/{missed} misses explained by the known mechanisms"
    );
}

#[test]
fn dns_logs_and_cache_probing_have_imperfect_overlap() {
    // Paper: "the overlap between them is fairly low … combining our
    // datasets yields more overlap with others".
    let o = output();
    let cache = o.bundle.cache_probing_as.set();
    let dns = o.bundle.dns_logs_as.set();
    let only_dns = dns.difference(&cache).count();
    let only_cache = cache.difference(&dns).count();
    assert!(
        only_dns > 0,
        "DNS logs must add ASes cache probing misses (resolver-only ASes)"
    );
    assert!(
        only_cache > 0,
        "cache probing must add ASes DNS logs misses"
    );
}
