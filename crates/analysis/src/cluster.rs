//! Cluster-quality metrics for the predictive-probing ablation.
//!
//! The clustered planner trades probes for extrapolated copies; this
//! module quantifies what the trade costs. Two views:
//!
//! * **End-to-end** — [`verdict_precision_recall`] compares the /24
//!   verdict table of a clustered sweep against an exhaustive reference
//!   on one target verdict (the differential suite and the CI ablation
//!   gate pin `Hit` precision/recall this way).
//! * **In-sweep** — [`extrapolation_agreement`] and
//!   [`confidence_summary`] read a clustered sweep's own
//!   [`SweepSnapshot`]: how often the copied verdicts agreed with what
//!   the member slots held in the prior sweep, and how confident the
//!   planner was in its copies. These need no reference run, so the
//!   report can print them for any clustered sweep.

use std::collections::BTreeSet;

use clientmap_store::{SweepSnapshot, Verdict, VerdictTable};

/// Binary precision/recall tallies over a target verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecisionRecall {
    /// /24s carrying the target verdict in both tables.
    pub true_positives: u64,
    /// /24s the observed table claims but the reference does not.
    pub false_positives: u64,
    /// /24s the reference carries but the observed table missed.
    pub false_negatives: u64,
}

impl PrecisionRecall {
    /// Tallies one (observed, reference) verdict pair.
    pub fn tally(&mut self, observed: bool, reference: bool) {
        match (observed, reference) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_positives += 1,
            (false, true) => self.false_negatives += 1,
            (false, false) => {}
        }
    }

    /// `TP / (TP + FP)`; 1.0 when nothing was claimed (a sweep that
    /// claims nothing tells no lies).
    pub fn precision(&self) -> f64 {
        let claimed = self.true_positives + self.false_positives;
        if claimed == 0 {
            1.0
        } else {
            self.true_positives as f64 / claimed as f64
        }
    }

    /// `TP / (TP + FN)`; 1.0 when the reference is empty.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / actual as f64
        }
    }
}

/// Precision/recall of `observed` against `reference` on `target`,
/// over every /24 either table measured.
pub fn verdict_precision_recall(
    observed: &VerdictTable,
    reference: &VerdictTable,
    target: Verdict,
) -> PrecisionRecall {
    let mut indexes: BTreeSet<u32> = observed.iter_measured().map(|(i, _)| i).collect();
    indexes.extend(reference.iter_measured().map(|(i, _)| i));
    let mut pr = PrecisionRecall::default();
    for idx in indexes {
        pr.tally(observed.get(idx) == target, reference.get(idx) == target);
    }
    pr
}

/// How a clustered sweep's extrapolated `Hit` verdicts compare against
/// what the member slots held in the *prior* sweep — the self-contained
/// agreement measure the report prints without a reference run. Only
/// tags whose member was measured last sweep participate (a copy onto a
/// never-measured slot has nothing to disagree with).
pub fn extrapolation_agreement(snapshot: &SweepSnapshot) -> PrecisionRecall {
    let mut pr = PrecisionRecall::default();
    for (key, tag) in &snapshot.confidence {
        if tag.prior_verdict == 0 {
            continue;
        }
        let extrapolated = snapshot.records.get(key).map_or(0, |r| r.verdict() as u8);
        pr.tally(
            extrapolated == Verdict::Hit as u8,
            tag.prior_verdict == Verdict::Hit as u8,
        );
    }
    pr
}

/// Distribution summary of a clustered sweep's confidence tags.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfidenceSummary {
    /// Extrapolated slots (tags in the snapshot).
    pub tagged: u64,
    /// Weakest tag (0 when nothing is tagged).
    pub min: u8,
    /// Strongest tag.
    pub max: u8,
    /// Mean tag on the raw `1..=255` scale.
    pub mean: f64,
}

/// Summarizes the confidence column of a clustered sweep's snapshot.
pub fn confidence_summary(snapshot: &SweepSnapshot) -> ConfidenceSummary {
    let mut s = ConfidenceSummary::default();
    let mut total = 0u64;
    for tag in snapshot.confidence.values() {
        s.tagged += 1;
        total += u64::from(tag.confidence);
        s.max = s.max.max(tag.confidence);
        s.min = if s.min == 0 {
            tag.confidence
        } else {
            s.min.min(tag.confidence)
        };
    }
    if s.tagged > 0 {
        s.mean = total as f64 / s.tagged as f64;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_store::{ConfidenceRecord, HitEvent, ScopeRecord};

    #[test]
    fn precision_recall_over_verdict_tables() {
        let mut reference = VerdictTable::new();
        let mut observed = VerdictTable::new();
        reference.record(1, Verdict::Hit);
        reference.record(2, Verdict::Hit);
        reference.record(3, Verdict::Miss);
        observed.record(1, Verdict::Hit); // TP
        observed.record(3, Verdict::Hit); // FP (reference says Miss)
        observed.record(4, Verdict::Miss); // no target on either side
                                           // idx 2: FN — reference Hit, observed unmeasured.
        let pr = verdict_precision_recall(&observed, &reference, Verdict::Hit);
        assert_eq!(
            pr,
            PrecisionRecall {
                true_positives: 1,
                false_positives: 1,
                false_negatives: 1,
            }
        );
        assert_eq!(pr.precision(), 0.5);
        assert_eq!(pr.recall(), 0.5);

        // Degenerate cases never divide by zero.
        let empty = PrecisionRecall::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }

    #[test]
    fn agreement_reads_the_snapshot_alone() {
        let mut snap = SweepSnapshot::new(7, 1);
        let hit_rec = ScopeRecord {
            attempts: 3,
            hit_events: vec![HitEvent {
                resp_addr: 0x0A000000,
                resp_len: 24,
                remaining_ttl: 9,
            }],
            ..ScopeRecord::default()
        };
        let miss_rec = ScopeRecord {
            attempts: 3,
            ..ScopeRecord::default()
        };
        // TP: copied Hit onto a slot that was Hit last sweep.
        snap.records.insert((0, 0, 0x0A000000, 24), hit_rec.clone());
        snap.confidence.insert(
            (0, 0, 0x0A000000, 24),
            ConfidenceRecord {
                rep: (0, 0, 0x0A000100, 24),
                confidence: 200,
                prior_verdict: 4,
            },
        );
        // FP: copied Hit onto a slot that was Miss last sweep.
        snap.records.insert((0, 0, 0x0A000200, 24), hit_rec);
        snap.confidence.insert(
            (0, 0, 0x0A000200, 24),
            ConfidenceRecord {
                rep: (0, 0, 0x0A000100, 24),
                confidence: 150,
                prior_verdict: 2,
            },
        );
        // FN: copied Miss onto a slot that was Hit last sweep.
        snap.records.insert((0, 0, 0x0A000300, 24), miss_rec);
        snap.confidence.insert(
            (0, 0, 0x0A000300, 24),
            ConfidenceRecord {
                rep: (0, 0, 0x0A000400, 24),
                confidence: 100,
                prior_verdict: 4,
            },
        );
        // Ignored: tag with no prior verdict (cold extrapolation).
        snap.confidence.insert(
            (0, 0, 0x0A000500, 24),
            ConfidenceRecord {
                rep: (0, 0, 0x0A000400, 24),
                confidence: 50,
                prior_verdict: 0,
            },
        );
        let pr = extrapolation_agreement(&snap);
        assert_eq!(
            pr,
            PrecisionRecall {
                true_positives: 1,
                false_positives: 1,
                false_negatives: 1,
            }
        );

        let s = confidence_summary(&snap);
        assert_eq!(s.tagged, 4);
        assert_eq!(s.min, 50);
        assert_eq!(s.max, 200);
        assert_eq!(s.mean, 125.0);
    }
}
