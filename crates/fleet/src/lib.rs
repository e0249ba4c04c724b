//! # clientmap-fleet
//!
//! Distributed sweep sharding: a driver/worker fleet over TCP.
//!
//! One process (`clientmap driver`) prepares the sweep exactly as a
//! single-process run would — discovery, calibration, assignment, the
//! warm planner — then partitions the planner's live unit list into
//! deterministic contiguous shards and distributes them to N worker
//! processes (`clientmap worker`) over a length-prefixed, checksummed
//! TCP protocol ([`frame`]). Each worker prepares the *same* sweep
//! from the same `(seed, config)` — preparation is a pure function of
//! those — probes its assigned shards with the existing
//! `clientmap-par` executor and batched kernels, and streams back each
//! shard's delta encoded with the `SweepSnapshot` byte codec
//! ([`proto`]).
//!
//! The driver merges deltas in shard order
//! (`clientmap_cacheprobe::merge_shards`), making the merged report,
//! metrics snapshot, and snapshot file **byte-identical** to a
//! single-process run at any ⟨worker, thread⟩ combination. A worker
//! that disconnects or crashes mid-shard has its shard re-queued onto
//! the survivors ([`driver`]); a SIGINT on the driver drains in-flight
//! shards and tells workers to exit cleanly ([`shutdown`]).
//!
//! Fault-injected fleets run a second, driver-coordinated phase:
//! every shard result carries its per-PoP fault book, the driver's
//! merge folds the books into the *global* quarantine decision
//! (identical to a single-process sweep's, because the merged books
//! are), and the planned rescue units go back out to the surviving
//! workers as rescue shards over the same connections. Per-frame
//! socket deadlines bound every transport wait, idle gaps between
//! frames are explicitly healthy ([`frame::FrameRead::Idle`]), and a
//! fleet that loses every worker to deadline expiries reports a typed
//! timeout instead of a generic failure.

#![warn(missing_docs)]

pub mod driver;
pub mod frame;
pub mod proto;
pub mod shutdown;
pub mod worker;

pub use driver::{FleetOptions, FleetSweep};
pub use frame::{
    read_frame, read_frame_deadline, write_frame, Frame, FrameError, FrameKind, FrameRead,
    WireKind, MAX_FRAME_PAYLOAD,
};
pub use proto::{
    decode_fault_book, decode_rescue_request, decode_rescue_result, decode_shard_request,
    decode_shard_result, encode_fault_book, encode_rescue_request, encode_rescue_result,
    encode_shard_request, encode_shard_result, shard_range, JobAck, JobSpec, PROTOCOL_VERSION,
};
pub use worker::{run_worker, WorkerOptions};
