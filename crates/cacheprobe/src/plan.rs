//! The [`ProbePlan`] seam: how a sweep decides which assigned
//! ⟨vantage, domain, scope⟩ slots to probe live and which to replay
//! from a prior snapshot.
//!
//! `prepare_sweep` used to hard-code two planners — "probe everything"
//! for cold runs and an inline warm-start classification loop — which
//! coupled the planner to the runner and left no seam for the
//! cluster-based predictive planner on the roadmap. Now every planner
//! is a [`ProbePlan`]: [`plan_units`] walks the assigned unit list
//! once, in record-key order, hands the plan one unit at a time with
//! what the prior sweep stored for each of its slots, and splits the
//! work into live probe units and replayable skips, tallying
//! [`PlannerStats`] as it goes. Plans are pure functions of the unit
//! and the sweep's identity (seed, epoch, budget), so any plan is
//! byte-deterministic at any thread count by construction.

use std::collections::btree_map;
use std::collections::BTreeMap;
use std::iter::Peekable;

use clientmap_net::Prefix;
use clientmap_store::{
    classify, ConfidenceRecord, PlanReason, PlannerStats, PriorScope, RecordKey, ScopeRecord,
    SweepSnapshot,
};

use crate::cluster::ClusterStats;
use crate::probe::{record_key, ProbeUnit};
use crate::sweep::expiry_hash;
use crate::vantage::BoundVantage;

/// What a plan wants done with one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanDecision {
    /// Probe the slot live.
    Probe(PlanReason),
    /// Replay the slot's prior record (the caller guarantees the slot
    /// has a prior record before honouring a replay).
    Replay,
    /// Skip probing and copy the cluster representative's fresh record
    /// onto this slot after the probing window, tagged with the
    /// planner's confidence in the copy.
    Extrapolate {
        /// The representative slot whose record this slot inherits.
        rep: RecordKey,
        /// Feature-distance confidence, `1..=255`.
        confidence: u8,
    },
}

/// A sweep planner: decides, one ⟨vantage, domain⟩ unit at a time,
/// what to probe live.
///
/// Implementations must be pure functions of the unit, its prior
/// state and their own configuration — never of execution order — so
/// plans stay byte-identical at any thread count and across
/// driver/worker processes (the fleet handshake depends on both sides
/// planning identically).
pub trait ProbePlan {
    /// Pushes one decision per slot of `unit`, in scope order, onto
    /// `decisions` (empty on entry). `priors[i]` and `tags[i]` are the
    /// record and confidence tag the prior sweep stored for
    /// `unit.scopes[i]`; `dirty` is whether the unit's PoP was
    /// quarantined last sweep (its prior data is suspect regardless of
    /// the record).
    fn decide_unit(
        &mut self,
        unit: &ProbeUnit,
        priors: &[Option<&ScopeRecord>],
        tags: &[Option<&ConfidenceRecord>],
        dirty: bool,
        decisions: &mut Vec<PlanDecision>,
    );

    /// Whether this plan's [`PlannerStats`] belong in the run's
    /// telemetry. Cold exhaustive sweeps return `false` so their
    /// metrics stay byte-identical to the pre-warm-start era. (The
    /// clustered plan also returns `false`: its accounting rides in
    /// [`ProbePlan::cluster_stats`] instead.)
    fn records_stats(&self) -> bool {
        true
    }

    /// Cluster accounting, for planners that extrapolate. `None` for
    /// plans that probe or replay everything.
    fn cluster_stats(&self) -> Option<ClusterStats> {
        None
    }
}

/// The cold-sweep plan: probe every assigned slot, replay nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustivePlan;

impl ProbePlan for ExhaustivePlan {
    fn decide_unit(
        &mut self,
        unit: &ProbeUnit,
        _priors: &[Option<&ScopeRecord>],
        _tags: &[Option<&ConfidenceRecord>],
        _dirty: bool,
        decisions: &mut Vec<PlanDecision>,
    ) {
        decisions.resize(unit.scopes.len(), PlanDecision::Probe(PlanReason::New));
    }

    fn records_stats(&self) -> bool {
        false
    }
}

/// The warm-start plan: probe only slots that are new, quarantine-
/// dirty, in need of rescue, or expired under the rotating TTL budget;
/// replay everything else from the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct WarmStartPlan {
    /// The world seed (keys the stable expiry hash).
    pub world_seed: u64,
    /// The epoch being planned.
    pub epoch: u32,
    /// Fraction of measured slots refreshed per epoch (0 = none).
    pub expiry_budget: f64,
}

impl WarmStartPlan {
    /// The per-slot rule: what to do with `scope` of `domain` given
    /// its prior record and whether its PoP is quarantine-dirty.
    pub fn decide(
        &self,
        domain: usize,
        scope: Prefix,
        prior: Option<&ScopeRecord>,
        dirty: bool,
    ) -> PlanDecision {
        match classify(
            prior.map(|r| {
                (
                    PriorScope {
                        attempts: r.attempts,
                        drops: r.drops,
                    },
                    dirty,
                )
            }),
            self.expiry_budget,
            self.epoch,
            expiry_hash(self.world_seed, domain, scope),
        ) {
            Some(reason) => PlanDecision::Probe(reason),
            None => PlanDecision::Replay,
        }
    }
}

impl ProbePlan for WarmStartPlan {
    fn decide_unit(
        &mut self,
        unit: &ProbeUnit,
        priors: &[Option<&ScopeRecord>],
        _tags: &[Option<&ConfidenceRecord>],
        dirty: bool,
        decisions: &mut Vec<PlanDecision>,
    ) {
        decisions.extend(
            unit.scopes
                .iter()
                .zip(priors)
                .map(|(&scope, &prior)| self.decide(unit.domain, scope, prior, dirty)),
        );
    }
}

/// One slot a plan extrapolates instead of probing: after the probing
/// window, the representative's fresh record is copied onto the slot
/// under the given confidence tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtrapolatedSlot {
    /// Index into the sweep's bound-vantage list.
    pub bound_idx: usize,
    /// Index into the sweep's selected-domain list.
    pub domain: usize,
    /// The member scope.
    pub scope: Prefix,
    /// The representative slot to copy from.
    pub rep: RecordKey,
    /// Planner confidence in the copy, `1..=255`.
    pub confidence: u8,
    /// Verdict rank the member held in the prior sweep (0 = none) —
    /// stored with the confidence tag so the *next* planner can detect
    /// verdict flips.
    pub prior_verdict: u8,
}

/// What [`plan_units`] produced from one assigned unit list.
#[derive(Debug, Default)]
pub struct PlanOutcome {
    /// Units (with only their live scopes) the sweep must probe.
    pub live_units: Vec<ProbeUnit>,
    /// The slot key and prior record of every slot the plan replays
    /// instead of probing, in slot (so key) order.
    pub skipped: Vec<(RecordKey, ScopeRecord)>,
    /// Slots the plan extrapolates from a cluster representative after
    /// the probing window, in slot order.
    pub extrapolated: Vec<ExtrapolatedSlot>,
    /// The plan's accounting; conservation
    /// (`planned + skipped_warm == universe`) holds by construction
    /// (extrapolated slots count as warm skips here — their own
    /// accounting is [`ClusterStats`]).
    pub stats: PlannerStats,
}

/// A forward cursor over a key-ordered table: answers `get` for
/// ascending keys by stepping the map's iterator, never by a fresh
/// descent from the root.
pub(crate) struct Cursor<'a, V> {
    iter: Peekable<btree_map::Iter<'a, RecordKey, V>>,
}

impl<'a, V> Cursor<'a, V> {
    /// A cursor at the start of `map`.
    pub(crate) fn new(map: &'a BTreeMap<RecordKey, V>) -> Cursor<'a, V> {
        Cursor {
            iter: map.iter().peekable(),
        }
    }

    /// The value at `key`. Keys must be sought in ascending order:
    /// everything below `key` is stepped past for good.
    pub(crate) fn seek(&mut self, key: RecordKey) -> Option<&'a V> {
        while let Some((&k, v)) = self.iter.next_if(|(k, _)| **k <= key) {
            if k == key {
                return Some(v);
            }
        }
        None
    }
}

/// Runs `plan` over every slot of `units`, splitting the work into
/// live probe units and replayable skips. Unit and scope order are
/// preserved, so the same plan over the same units yields the same
/// shardable work list everywhere.
///
/// The walk is one ordered pass: each slot's prior record and
/// confidence tag come from forward cursors over the prior's tables,
/// so `units` must be ascending in [`RecordKey`] order — units by
/// `(bound_idx, domain)`, each unit's scopes strictly ascending — as
/// `prepare_sweep` builds them.
///
/// # Panics
///
/// On a unit list out of key order: the cursors would silently pair
/// slots with the wrong prior records and corrupt a warm sweep.
pub fn plan_units(
    plan: &mut dyn ProbePlan,
    units: Vec<ProbeUnit>,
    prior: Option<&SweepSnapshot>,
    bound: &[BoundVantage],
) -> PlanOutcome {
    let mut outcome = PlanOutcome::default();
    let mut last: Option<RecordKey> = None;
    let mut priors = Vec::new();
    let mut tags = Vec::new();
    let mut decisions = Vec::new();
    let mut cursors = prior.map(|p| (Cursor::new(&p.records), Cursor::new(&p.confidence)));
    for u in units {
        priors.clear();
        tags.clear();
        for &scope in &u.scopes {
            let key = record_key(u.bound_idx, u.domain, scope);
            assert!(
                last < Some(key),
                "plan_units: slot {key:?} after {last:?} — units must be ascending in record-key order"
            );
            last = Some(key);
            let (rec, tag) = cursors
                .as_mut()
                .map_or((None, None), |(r, c)| (r.seek(key), c.seek(key)));
            priors.push(rec);
            tags.push(tag);
        }
        let dirty = prior.is_some_and(|p| {
            p.quarantined_pops()
                .contains(&(bound[u.bound_idx].pop as u64))
        });
        decisions.clear();
        plan.decide_unit(&u, &priors, &tags, dirty, &mut decisions);
        assert_eq!(
            decisions.len(),
            u.scopes.len(),
            "a plan decides every slot of its unit"
        );
        let mut live_scopes = Vec::new();
        for ((&scope, &decision), &prior_rec) in u.scopes.iter().zip(&decisions).zip(&priors) {
            match decision {
                PlanDecision::Probe(reason) => {
                    outcome.stats.count(Some(reason));
                    live_scopes.push(scope);
                }
                PlanDecision::Replay => {
                    outcome.stats.count(None);
                    outcome.skipped.push((
                        record_key(u.bound_idx, u.domain, scope),
                        prior_rec
                            .expect("a replay decision implies a prior record")
                            .clone(),
                    ));
                }
                PlanDecision::Extrapolate { rep, confidence } => {
                    outcome.stats.count(None);
                    outcome.extrapolated.push(ExtrapolatedSlot {
                        bound_idx: u.bound_idx,
                        domain: u.domain,
                        scope,
                        rep,
                        confidence,
                        prior_verdict: prior_rec.map_or(0, |r| r.verdict() as u8),
                    });
                }
            }
        }
        if !live_scopes.is_empty() {
            outcome.live_units.push(ProbeUnit {
                bound_idx: u.bound_idx,
                domain: u.domain,
                scopes: live_scopes,
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(bound_idx: usize, domain: usize, scopes: &[&str]) -> ProbeUnit {
        ProbeUnit {
            bound_idx,
            domain,
            scopes: scopes.iter().map(|s| s.parse().unwrap()).collect(),
        }
    }

    #[test]
    fn exhaustive_plan_passes_everything_through() {
        let units = vec![
            unit(0, 0, &["10.0.0.0/24", "10.0.1.0/24"]),
            unit(0, 1, &["10.0.2.0/24"]),
        ];
        let out = plan_units(&mut ExhaustivePlan, units.clone(), None, &[]);
        assert_eq!(out.live_units, units);
        assert!(out.skipped.is_empty());
        assert_eq!(out.stats.universe, 3);
        assert_eq!(out.stats.planned, 3);
        assert!(out.stats.conserved());
        assert!(!ExhaustivePlan.records_stats());
    }

    #[test]
    fn warm_plan_splits_live_and_replay() {
        // A prior snapshot covering one of two scopes: the covered one
        // replays, the uncovered one is planned as New.
        let mut prior = SweepSnapshot::new(7, 1);
        prior.records.insert(
            record_key(0, 0, "10.0.0.0/24".parse().unwrap()),
            ScopeRecord {
                attempts: 5,
                ..ScopeRecord::default()
            },
        );
        let bound = vec![BoundVantage { vp: 0, pop: 0 }];
        let mut plan = WarmStartPlan {
            world_seed: 7,
            epoch: 2,
            expiry_budget: 0.0,
        };
        let out = plan_units(
            &mut plan,
            vec![unit(0, 0, &["10.0.0.0/24", "10.0.1.0/24"])],
            Some(&prior),
            &bound,
        );
        assert_eq!(out.live_units.len(), 1);
        assert_eq!(
            out.live_units[0].scopes,
            vec!["10.0.1.0/24".parse().unwrap()]
        );
        assert_eq!(out.skipped.len(), 1);
        assert_eq!(out.stats.planned, 1);
        assert_eq!(out.stats.skipped_warm, 1);
        assert_eq!(out.stats.new, 1);
        assert!(out.stats.conserved());
        assert!(plan.records_stats());
    }

    #[test]
    fn cursors_pair_every_slot_with_its_own_prior_record() {
        // Prior records interleave with the slots, sit in units the
        // list does not plan, and one slot has none: every replayed
        // record must be the one stored under the slot's own key.
        let mut prior = SweepSnapshot::new(7, 1);
        let stored = [
            (0, 0, "10.0.0.0/24", 1),
            (0, 0, "10.0.0.128/25", 2),
            (0, 0, "10.0.2.0/24", 3),
            (0, 1, "10.0.0.0/24", 4),
            (1, 0, "10.0.5.0/24", 5),
            (1, 1, "10.0.1.0/24", 6),
        ];
        for (bi, d, s, attempts) in stored {
            prior.records.insert(
                record_key(bi, d, s.parse().unwrap()),
                ScopeRecord {
                    attempts,
                    ..ScopeRecord::default()
                },
            );
        }
        let bound = vec![
            BoundVantage { vp: 0, pop: 0 },
            BoundVantage { vp: 1, pop: 1 },
        ];
        let mut plan = WarmStartPlan {
            world_seed: 7,
            epoch: 2,
            expiry_budget: 0.0,
        };
        let out = plan_units(
            &mut plan,
            vec![
                unit(0, 0, &["10.0.0.0/24", "10.0.1.0/24", "10.0.2.0/24"]),
                unit(1, 1, &["10.0.1.0/24"]),
            ],
            Some(&prior),
            &bound,
        );
        let replayed: Vec<(RecordKey, u64)> = out
            .skipped
            .iter()
            .map(|(key, rec)| (*key, rec.attempts))
            .collect();
        let key = |bi, d, s: &str| record_key(bi, d, s.parse().unwrap());
        assert_eq!(
            replayed,
            vec![
                (key(0, 0, "10.0.0.0/24"), 1),
                (key(0, 0, "10.0.2.0/24"), 3),
                (key(1, 1, "10.0.1.0/24"), 6),
            ]
        );
        assert_eq!(out.live_units, vec![unit(0, 0, &["10.0.1.0/24"])]);
    }

    #[test]
    #[should_panic(expected = "ascending in record-key order")]
    fn an_out_of_order_unit_list_is_refused() {
        let units = vec![unit(0, 1, &["10.0.0.0/24"]), unit(0, 0, &["10.0.1.0/24"])];
        plan_units(&mut ExhaustivePlan, units, None, &[]);
    }

    #[test]
    #[should_panic(expected = "ascending in record-key order")]
    fn a_repeated_scope_is_refused() {
        let units = vec![unit(0, 0, &["10.0.0.0/24", "10.0.0.0/24"])];
        plan_units(&mut ExhaustivePlan, units, None, &[]);
    }
}
