//! # clientmap-bench
//!
//! Shared fixtures for the criterion benches and the `repro` binary.
//!
//! The benches regenerate every table and figure of the paper from one
//! cached pipeline run (building the run itself is benchmarked in
//! `benches/techniques.rs`), plus ablation benches for the design
//! choices DESIGN.md calls out and microbenches for the substrate hot
//! paths.

#![warn(missing_docs)]

use std::sync::OnceLock;

use clientmap_core::{Pipeline, PipelineConfig, PipelineOutput};

/// The shared tiny pipeline run used by table/figure benches (cached:
/// the benches measure the *analysis*, not the run).
pub fn tiny_run() -> &'static PipelineOutput {
    static OUT: OnceLock<PipelineOutput> = OnceLock::new();
    OUT.get_or_init(|| Pipeline::run(PipelineConfig::tiny(0xC11E)).expect("tiny run is healthy"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn fixtures_build() {
        let out = super::tiny_run();
        assert!(out.cache_probe.probes_sent > 0);
    }
}
