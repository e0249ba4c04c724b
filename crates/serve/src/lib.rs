//! # clientmap-serve
//!
//! The long-running sweep service: `clientmap serve` owns the sweep
//! store as a resident process, re-sweeping on a warm cadence and
//! answering client-activity queries over TCP while it works.
//!
//! Three moving parts:
//!
//! - **The sweep thread** holds one `clientmap_core::SweepSession`
//!   and sweeps it in a plain loop: each sweep
//!   warm-starts from its predecessor's snapshot, so only expired,
//!   new, dirty, or rescue-worthy scopes are re-probed. After each
//!   sweep the verdict-table *delta* is appended to an append-only,
//!   checksummed event log (`clientmap_store::eventlog`) — the
//!   compacted base plus the tail of deltas replays to the exact
//!   current table.
//! - **Generations** ([`engine`]): each sweep publishes an immutable,
//!   precomputed query index into a lock-free `GenerationCell` with a
//!   single atomic store. Queries clone an `Arc` and answer from a
//!   consistent snapshot; past generations stay addressable.
//! - **The query protocol** ([`proto`]): `CMFR` frames — the same
//!   framing, checksum, and error discipline as the fleet protocol,
//!   reused via the `WireKind` seam — carrying per-AS, per-country,
//!   per-prefix, top-K, and ECDF queries, plus generation/log-offset
//!   introspection and a blocking generation wait.
//!
//! Everything is deterministic: the same seed, sweep count, and query
//! trace produce a byte-identical event log, byte-identical replies,
//! and a byte-identical final snapshot at any thread count.

#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod proto;
pub mod server;

pub use client::{load_trace, parse_trace_line, render_reply, run_trace, ClientError, QueryClient};
pub use engine::{AsActivity, Generation};
pub use proto::{
    verdict_name, AsReply, CountryReply, InfoReply, PrefixReply, Query, QueryKind, Reply,
    MAX_ECDF_POINTS, QUERY_PROTOCOL_VERSION,
};
pub use server::{serve, ServeError, ServeOptions, ServeSummary, MAX_SWEEPS};
