//! # clientmap-cacheprobe
//!
//! The paper's first technique, **cache probing** (§3.1): non-recursive
//! ECS queries to Google Public DNS reveal which client prefixes
//! recently resolved popular domains. The full measurement pipeline:
//!
//! 1. **Vantage discovery** ([`vantage`]) — spin up cloud VMs, ask each
//!    `o-o.myaddr.l.google.com TXT` which PoP its anycast reaches; the
//!    paper covers 22 of 45 PoPs from AWS + Vultr.
//! 2. **Scope pre-scan** ([`scopescan`]) — query the authoritatives
//!    directly across the address space to learn ECS response scopes;
//!    querying Google once per *scope* instead of per /24 cuts probing
//!    several-fold (validated in Table 2).
//! 3. **Service-radius calibration** ([`calibrate`]) — probe a random
//!    prefix sample at every PoP; the 90th-percentile hit distance is
//!    that PoP's service radius (Fig. 2), so each prefix is later probed
//!    only at plausible PoPs (2.4M vs 4.4M prefixes per PoP in the
//!    paper).
//! 4. **Probing** ([`probe`]) — loop the assigned scopes at a fixed
//!    rate per domain over the measurement window, 5 redundant TCP
//!    queries per ⟨PoP, prefix, domain⟩ to cover the independent cache
//!    pools; a cache hit with return scope > 0 marks the prefix active.
//! 5. **Results** ([`results`]) — active-prefix sets per domain, per-PoP
//!    densities (Fig. 1), query-vs-response scope stability (Table 2),
//!    and per-AS lower/upper activity bounds (Fig. 4).
//!
//! The technique consumes **only public interfaces**: the wire-level
//! query API of the simulated Google Public DNS, the authoritatives,
//! the (MaxMind-style) geolocation database, and RIR allocation /
//! Routeviews data for the probe universe. It never reads the world's
//! ground truth — that is reserved for the validation layer.

#![warn(missing_docs)]

pub mod calibrate;
pub mod cluster;
pub mod diurnal;
pub mod openresolver;
pub mod plan;
mod preamble;
pub mod probe;
pub mod resilience;
pub mod results;
pub mod scopescan;
pub mod sweep;
pub mod vantage;

mod config;

pub use cluster::{feature_distance, ClusterFeatures, ClusterStats, ClusteredPlan};
pub use config::ProbeConfig;
pub use plan::{
    plan_units, ExhaustivePlan, ExtrapolatedSlot, PlanDecision, PlanOutcome, ProbePlan,
    WarmStartPlan,
};
pub use preamble::Preamble;
pub use probe::{
    execute_sweep, merge_fault_books, merge_shards, prepare_sweep, prepare_sweep_in,
    probe_rescue_shard, probe_shard, PopHealth, ProbeUnit, ShardMergeError, SweepPrep,
};
pub use results::{CacheProbeResult, FaultSummary, ProbeCount};
