//! # clientmap-core
//!
//! The end-to-end pipeline of *Towards Identifying Networks with
//! Internet Clients Using Public Data* (IMC '21): generate a synthetic
//! Internet, run both measurement techniques against its simulated
//! services, extract the comparison datasets, and produce every table
//! and figure of the paper's evaluation.
//!
//! ```no_run
//! use clientmap_core::{Pipeline, PipelineConfig};
//!
//! let out = Pipeline::run(PipelineConfig::tiny(42)).expect("healthy run");
//! println!("{}", out.report().render_all());
//! ```
//!
//! The crate deliberately keeps a thin surface: [`PipelineConfig`]
//! (all dials), [`SweepSession`] (the orchestration: one config swept
//! any number of times, returning [`PipelineError`] instead of
//! panicking; [`Pipeline::run`] is a session of one sweep), and
//! [`PipelineOutput`]/[`Report`] (results + rendering). Each stage is
//! individually usable through the underlying crates.

#![warn(missing_docs)]

pub mod invariants;
mod pipeline;
mod report;

pub use pipeline::{
    LocalSweep, Pipeline, PipelineConfig, PipelineError, PipelineOutput, SweepExecutor,
    SweepSession,
};
pub use report::Report;
