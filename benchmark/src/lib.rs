//! # clientmap-benchmark
//!
//! The repo's benchmark: three workloads, nine end-to-end metrics, and
//! a traced run that yields per-layer numbers — every layer measured
//! from outside, through its public functions. See `README.md` for the
//! metric definitions and the noise protocol.

#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod e2e;
pub mod json;
pub mod kernels;
pub mod mix;
pub mod output;
pub mod proc;
pub mod replay;
pub mod service;
pub mod span;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod traced;
pub mod workload;
