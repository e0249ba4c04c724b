//! # clientmap-store — dense /24 universe state + warm-start snapshots
//!
//! The paper's cache-probing technique (§3.1) is only tractable because
//! it *shrinks* the probe space: ECS scope discovery and per-PoP
//! service radii exist to avoid re-probing 16.7M /24s everywhere, and
//! the measurement itself is a *repeated* sweep tracking cache churn
//! over time. This crate supplies the storage substrate for both ideas:
//!
//! * **Dense /24 structures** over the full 2²⁴ prefix space — a
//!   fixed-stride radix of lazily allocated 4096-entry pages. A
//!   [`Slash24Bitset`] holds membership (set algebra is word-wise
//!   AND/OR + popcount, which makes the paper's Table 1/3/4 overlap
//!   matrices near-free), a [`Slash24Table`] holds one small integer
//!   per /24, and a [`VerdictTable`] stores per-/24 probe
//!   [`Verdict`]s with the technique's `Hit > HitScopeZero > Miss >
//!   Dropped` merge ranking. [`AsBitsets`] indexes announced space per
//!   origin AS for bitset-speed per-AS coverage queries.
//!
//! * **[`SweepSnapshot`]** — a versioned, checksummed, byte-stable
//!   serialization of everything one probing sweep learned: per-scope
//!   probe records, the telemetry delta of the probing window, the
//!   per-PoP service radii with the calibration stage's own delta,
//!   fault accounting, and the config digest that scopes its validity. A
//!   later run loads the snapshot to **warm-start**: the
//!   [`planner`] diffs it against the current work list and emits
//!   probe units only for scopes that are new, expired under the
//!   rotating TTL budget, in need of rescue, or dirtied by fault
//!   quarantine.
//!
//! Everything here is deterministic: the byte layout is fixed
//! little-endian, maps are ordered, and the planner's expiry draw is a
//! stable hash — so snapshots and the runs they feed remain
//! byte-identical at any thread count.
//!
//! ```
//! use clientmap_store::{ScopeRecord, SweepSnapshot};
//!
//! let mut snap = SweepSnapshot::new(2021, 0xD16E57);
//! snap.records.insert(
//!     (0, 0, 0x0A000000, 24),
//!     ScopeRecord { attempts: 9, ..ScopeRecord::default() },
//! );
//! let bytes = snap.encode();
//! let back = SweepSnapshot::decode(&bytes).unwrap();
//! assert_eq!(back, snap);
//! // Any flipped payload byte is caught by the trailing checksum.
//! let mut bad = bytes.clone();
//! bad[10] ^= 0xFF;
//! assert!(SweepSnapshot::decode(&bad).is_err());
//! ```

#![warn(missing_docs)]

mod bitset;
mod codec;
mod confidence;
pub mod eventlog;
mod generation;
pub mod planner;
mod snapshot;
mod table;
mod verdict;

pub use bitset::{AsBitsets, Slash24Bitset, SLASH24_SPACE};
pub use codec::{
    checksum, open_record, seal_record, ByteReader, ByteWriter, CodecError, ENVELOPE_HEAD,
    ENVELOPE_OVERHEAD,
};
pub use confidence::{ConfidenceRecord, CONFIDENCE_MAX};
pub use eventlog::{
    verdict_delta, EventLog, EventLogError, EventRecord, FailureEvent, Recovery, SweepEvent,
    VerdictChange, EVENTLOG_MAGIC, EVENTLOG_VERSION,
};
pub use generation::GenerationCell;
pub use planner::{classify, PlanReason, PlannerStats, PriorScope};
pub use snapshot::{
    CalibrationRecord, FaultRecord, HitEvent, RecordKey, ScopeRecord, SweepSnapshot,
    SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use table::Slash24Table;
pub use verdict::{Verdict, VerdictTable};

/// The dense index of the /24 containing `addr`: its top 24 bits.
#[inline]
pub fn slash24_index(addr: u32) -> u32 {
    addr >> 8
}
