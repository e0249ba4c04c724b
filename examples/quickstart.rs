//! Quickstart: run the whole pipeline at test scale and print the
//! headline validations plus the AS-level overlap table.
//!
//! ```sh
//! cargo run --release --example quickstart [seed]
//! ```

use clientmap::{Pipeline, PipelineConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);

    eprintln!("generating world + running both techniques (seed {seed})…");
    let out = Pipeline::run(PipelineConfig::tiny(seed)).expect("pipeline run is healthy");

    let report = out.report();
    println!("{}", report.headlines());
    println!("{}", report.table3());

    let metrics = out.metrics_snapshot();
    println!(
        "cache probing: {} probes, {} active /24s across {} hit scopes \
         ({} scope-0 hits discarded, {} drops)",
        out.cache_probe.probes_sent,
        out.cache_probe.active_set().num_slash24s(),
        out.cache_probe.hit_prefixes().len(),
        metrics.counter("cacheprobe.outcome.scope0"),
        metrics.counter("cacheprobe.outcome.dropped"),
    );
    println!(
        "DNS logs: {} resolvers with Chromium activity ({} noise records rejected)",
        out.dns_logs.resolvers.len(),
        out.dns_logs.rejected_noise_records,
    );
}
