//! Human-readable rendering of a run's telemetry snapshot.
//!
//! The raw snapshot (``clientmap repro --metrics out.json``) is
//! exhaustive but flat; [`render_summary`] groups it into the story of
//! a run — query funnel at the Google front end, probe outcome mix,
//! DNS-logs funnel, dataset sizes — in the same fixed-width style as
//! the paper tables.

use clientmap_telemetry::MetricsSnapshot;

/// Renders the interesting cross-sections of `snap` as a fixed-width
/// text section. Counters that never fired are omitted, so tiny runs
/// produce tiny summaries.
pub fn render_summary(snap: &MetricsSnapshot) -> String {
    let mut s = String::from(
        "Run telemetry\n------------------------------------------------------------\n",
    );

    let gpdns_queries = snap.counter("gpdns.queries.udp") + snap.counter("gpdns.queries.tcp");
    if gpdns_queries > 0 {
        s.push_str(&format!(
            "Google front end: {gpdns_queries} queries ({} udp, {} tcp); \
             {} rate-limited, {} refused recursive\n",
            snap.counter("gpdns.queries.udp"),
            snap.counter("gpdns.queries.tcp"),
            snap.counter("gpdns.rate_limited.udp") + snap.counter("gpdns.rate_limited.tcp"),
            snap.counter("gpdns.recursive"),
        ));
        s.push_str(&format!(
            "  cache: {} hits, {} scope-zero, {} misses across pools\n",
            snap.sum_counters("gpdns.cache.hit."),
            snap.sum_counters("gpdns.cache.scope0."),
            snap.sum_counters("gpdns.cache.miss."),
        ));
    }

    let attempts = snap.counter("cacheprobe.attempts");
    if attempts > 0 {
        s.push_str(&format!(
            "cache probing: {} probes over {} attempts at {} PoPs; \
             outcomes {} hit / {} scope0 / {} miss / {} dropped\n",
            snap.counter("cacheprobe.probes_sent"),
            attempts,
            snap.counter("cacheprobe.pops_bound"),
            snap.counter("cacheprobe.outcome.hit"),
            snap.counter("cacheprobe.outcome.scope0"),
            snap.counter("cacheprobe.outcome.miss"),
            snap.counter("cacheprobe.outcome.dropped"),
        ));
        if let Some(h) = snap.histogram("cacheprobe.assignment_size") {
            s.push_str(&format!(
                "  assignments: {} PoP lists, mean {:.0} scopes (max {})\n",
                h.count,
                h.mean(),
                h.max,
            ));
        }
        if let Some(h) = snap.histogram("cacheprobe.hit.remaining_ttl_secs") {
            s.push_str(&format!(
                "  hit freshness: mean remaining TTL {:.0}s (min {}s, max {}s)\n",
                h.mean(),
                h.min,
                h.max,
            ));
        }
    }

    let examined = snap.counter("dnslogs.records_examined");
    if examined > 0 {
        s.push_str(&format!(
            "DNS logs: {examined} records examined → {} shape-rejected, \
             {} noise-rejected, {} attributed to {} resolvers\n",
            snap.counter("dnslogs.shape_mismatch"),
            snap.counter("dnslogs.rejected_noise"),
            snap.counter("dnslogs.attributed"),
            snap.counter("dnslogs.resolvers_detected"),
        ));
    }

    if snap.counter("world.ases") > 0 {
        s.push_str(&format!(
            "world: {} ASes, {} routed /24s ({} active), {} resolvers, {} geo entries\n",
            snap.counter("world.ases"),
            snap.counter("world.slash24s.routed"),
            snap.counter("world.slash24s.active"),
            snap.counter("world.resolvers"),
            snap.counter("geodb.entries"),
        ));
    }

    let dataset_sizes: Vec<String> = snap
        .counters
        .range("datasets.".to_string()..)
        .take_while(|(k, _)| k.starts_with("datasets."))
        .filter(|(k, _)| k.ends_with(".slash24s"))
        .map(|(k, v)| {
            let name = &k["datasets.".len()..k.len() - ".slash24s".len()];
            format!("{name} {v}")
        })
        .collect();
    if !dataset_sizes.is_empty() {
        s.push_str(&format!("datasets (/24s): {}\n", dataset_sizes.join(", ")));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_telemetry::MetricsRegistry;

    #[test]
    fn empty_snapshot_renders_header_only() {
        let m = MetricsRegistry::new();
        let s = render_summary(&m.snapshot());
        assert!(s.starts_with("Run telemetry"));
        assert_eq!(s.lines().count(), 2, "{s}");
    }

    #[test]
    fn sections_appear_when_counters_fire() {
        let m = MetricsRegistry::new();
        m.counter("gpdns.queries.tcp").add(7);
        m.counter("gpdns.cache.hit.pool0").add(7);
        m.counter("cacheprobe.attempts").add(3);
        m.counter("cacheprobe.probes_sent").add(9);
        m.counter("dnslogs.records_examined").add(4);
        m.counter("datasets.cache_probing.slash24s").add(16);
        let s = render_summary(&m.snapshot());
        assert!(s.contains("Google front end: 7 queries"), "{s}");
        assert!(s.contains("cache probing: 9 probes over 3 attempts"), "{s}");
        assert!(s.contains("DNS logs: 4 records"), "{s}");
        assert!(s.contains("cache_probing 16"), "{s}");
    }
}
