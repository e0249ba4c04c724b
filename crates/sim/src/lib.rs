//! # clientmap-sim
//!
//! The simulated Internet services the measurement techniques run
//! against — every proprietary or external system the paper touches,
//! rebuilt from its public description (DESIGN.md §2):
//!
//! - **Google Public DNS** ([`GooglePublicDns`]): 45 anycast PoPs (22
//!   reachable from cloud VMs, 5 active but unreachable, 18 inactive),
//!   multiple independent cache pools per PoP, ECS-scoped cache entries,
//!   client-supplied-ECS handling, non-recursive query semantics, and a
//!   UDP rate limit that TCP bypasses (paper §3.1.1).
//! - **Authoritative servers** ([`Authoritatives`]): per-domain ECS
//!   scope policies (Wikipedia /16–/18, Google-style /20–/24), TTLs, and
//!   the mostly-stable response scopes Table 2 measures.
//! - **Anycast catchments** ([`Catchments`]): noisy-nearest routing of
//!   client prefixes and cloud vantage points to PoPs.
//! - **The Microsoft CDN + Traffic Manager** ([`cdn`]): HTTP access
//!   logs by client /24, recursive-resolver observations, and the ECS
//!   prefixes seen at the Traffic Manager authoritative — the three
//!   private validation datasets of §4.
//! - **Root DNS servers** ([`roots`]): DITL-style two-day traces mixing
//!   Chromium interception probes with NXDOMAIN background noise.
//!
//! ## Faithfulness model
//!
//! Client query *arrivals* are Poisson with rates from
//! [`clientmap_world::activity`]. Rather than materialising billions of
//! events, cache-entry liveness is sampled from the closed form
//! `P(live at t) = 1 − exp(−λ(t)·min(TTL, t))`, deterministically keyed
//! by (seed, PoP, pool, scope, domain, TTL-window) — statistically
//! exactly what an event-driven run would produce for probes spaced
//! beyond a TTL, at a millionth of the cost. The probing side (what the
//! measurement tool itself does) *is* simulated query by query, through
//! the real wire codec.

#![warn(missing_docs)]

pub mod cdn;
pub mod microsim;
pub mod resolvers;
pub mod roots;

mod anycast;
mod authoritative;
mod events;
mod gpdns;
mod pops;
mod sim;
mod time;

pub use anycast::{Catchments, VantageRoute};
pub use authoritative::Authoritatives;
pub use events::{EventQueue, Scheduled};
pub use gpdns::{
    AttemptReply, BatchConn, BatchDomain, GooglePublicDns, GpdnsMetrics, GpdnsSession,
    ProbeOutcome, ScopeLane, Transport, POOLS_PER_POP,
};
pub use pops::{pop_catalog, PopId, PopSite, PopStatus};
pub use sim::{Sim, SimView, Substrate};
pub use time::SimTime;
