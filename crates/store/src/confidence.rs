//! Extrapolation confidence: the provenance column the clustered
//! planner writes next to every verdict it copied instead of measured.
//!
//! A clustered sweep probes one representative per cluster and copies
//! its record to the members. Each copy carries a [`ConfidenceRecord`]:
//! which representative it came from, how close the member sat in
//! feature space (the confidence tag), and what verdict the member held
//! in the prior sweep — the reference the *next* planner checks to
//! detect verdict flips and escalate the member back to live probing.
//! The records live in the snapshot's confidence section
//! ([`crate::SweepSnapshot::confidence`]), keyed by the member slot.

use crate::snapshot::RecordKey;

/// Top of the confidence scale: a verdict copied across zero feature
/// distance.
pub const CONFIDENCE_MAX: u8 = 255;

/// Provenance of one extrapolated ⟨vantage, domain, scope⟩ record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfidenceRecord {
    /// The representative slot whose record this slot copies.
    pub rep: RecordKey,
    /// Planner confidence in the copy, `1..=255` — a stored record
    /// always carries *some* confidence; 0 is not storable.
    pub confidence: u8,
    /// Verdict rank this slot held in the prior sweep (0 = unmeasured).
    /// The next planner compares it against the extrapolated record to
    /// detect flips.
    pub prior_verdict: u8,
}
