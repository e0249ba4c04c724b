//! # clientmap-world
//!
//! A seeded, synthetic model of the Internet's *structure* and
//! *client activity*, standing in for the real Internet the paper
//! measures (its ground truth is proprietary — see DESIGN.md §2).
//!
//! [`World::generate`] builds, from a single seed:
//!
//! - **ASes** with ASdb-style categories (ISP, hosting/cloud,
//!   education, …), countries, and heavy-tailed user populations;
//! - **address allocations** (a Routeviews-style [`clientmap_net::Rib`]
//!   plus allocated-but-unrouted space), with per-AS utilisation drawn
//!   from a mixture so that some ASes use most of their space and some
//!   barely any (the spread behind the paper's Figure 4);
//! - a **geolocation database** ([`clientmap_geo::GeoDb`]) derived from
//!   the ground-truth locations through an explicit error model;
//! - **recursive resolvers** and a resolver market (ISP-local
//!   resolvers, Google Public DNS, other public anycast resolvers);
//! - a **domain catalog** with Alexa-style ranks, ECS support flags,
//!   TTLs, and authoritative scope policies;
//! - an **activity model** giving per-/24, per-domain DNS and HTTP
//!   rates with a longitude-aware diurnal cycle.
//!
//! Everything downstream — the simulated Google Public DNS, the CDN
//! logs used as validation ground truth, the root-server traces — is a
//! *view* of this one world, which is what lets the reproduction
//! compare techniques against a consistent truth.

#![warn(missing_docs)]

pub mod activity;
mod alloc;
mod category;
mod config;
mod domains;
mod gen;
mod types;
mod world;

pub use category::AsCategory;
pub use config::WorldConfig;
pub use domains::{DomainCatalog, DomainSpec, Provider};
pub use types::{
    AsId, AsInfo, PrefixId, ResolverId, ResolverInfo, ResolverKind, ResolverMix, Slash24Info,
};
pub use world::World;

/// The workspace's deterministic fan-out, re-exported for crates that
/// map over a [`World`]'s tables (per-/24 catchments in the simulator)
/// and must run on the same worker count generation itself used.
pub use clientmap_par as par;
