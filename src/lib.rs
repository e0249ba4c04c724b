//! # clientmap
//!
//! A production-quality Rust reproduction of *Towards Identifying
//! Networks with Internet Clients Using Public Data* (Jiang, Luo,
//! Koch, Zhang, Katz-Bassett, Calder — ACM IMC 2021).
//!
//! This is the curated facade: everything a library consumer needs is
//! re-exported at the top level, and the `examples/` directory
//! compiles against *only* these items. See the README for the
//! architecture and DESIGN.md for the system inventory.
//!
//! ```no_run
//! use clientmap::{Pipeline, PipelineConfig};
//!
//! let out = Pipeline::run(PipelineConfig::tiny(42)).expect("healthy run");
//! println!("{}", out.report().headlines());
//! ```
//!
//! The workspace crates behind the facade remain reachable as modules
//! (`clientmap::cacheprobe`, `clientmap::store`, …) for the CLI, the
//! evaluation harness, and anyone who needs the deeper surface — but
//! the top level is the supported API.

// ---------------------------------------------------------------------
// The curated surface. Start here.
// ---------------------------------------------------------------------

/// The end-to-end measurement pipeline and its reports. A
/// [`SweepSession`] is the one way to run a sweep, cold or warm-started
/// from a [`SweepSnapshot`].
pub use clientmap_core::{
    Pipeline, PipelineConfig, PipelineError, PipelineOutput, Report, SweepSession,
};

/// The warm-start snapshot a sweep leaves behind (and consumes).
pub use clientmap_store::SweepSnapshot;

/// The synthetic Internet the simulation measures.
pub use clientmap_world::{World, WorldConfig};

/// The deterministic simulator and its clock.
pub use clientmap_sim::{Sim, SimTime};

/// Addressing vocabulary shared by every layer.
pub use clientmap_net::{splitmix64, Asn, Prefix, SeedMixer};

/// Two-letter country codes (ISO 3166-1 alpha-2 shaped).
pub use clientmap_geo::CountryCode;

/// The dials of the paper's primary technique (`PipelineConfig::probe`).
pub use clientmap_cacheprobe::ProbeConfig;

/// The Chromium-resolver side channel, runnable standalone.
pub use clientmap_chromium::{crawl, ChromiumClassifier};

/// Cross-dataset agreement and per-country coverage analysis.
pub use clientmap_analysis::country_coverage;

/// Identifiers for the shareable derived datasets.
pub use clientmap_datasets::DatasetId;

/// The resident sweep service and its query client.
pub use clientmap_serve::{QueryClient, ServeOptions, ServeSummary};

// ---------------------------------------------------------------------
// The full workspace, for the CLI and power users.
// ---------------------------------------------------------------------

pub use clientmap_analysis as analysis;
pub use clientmap_cacheprobe as cacheprobe;
pub use clientmap_chromium as chromium;
pub use clientmap_core as core;
pub use clientmap_datasets as datasets;
pub use clientmap_dns as dns;
pub use clientmap_faults as faults;
pub use clientmap_fleet as fleet;
pub use clientmap_geo as geo;
pub use clientmap_net as net;
pub use clientmap_par as par;
pub use clientmap_serve as serve;
pub use clientmap_sim as sim;
pub use clientmap_store as store;
pub use clientmap_telemetry as telemetry;
pub use clientmap_world as world;
