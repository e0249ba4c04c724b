//! Cluster-based predictive probing: the greedy representative planner
//! (ROADMAP item 3).
//!
//! Scope discovery already prunes the probe universe; this planner goes
//! further by not probing look-alike scopes at all. Every slot the
//! inner plan (exhaustive cold, warm-start warm) would probe live is a
//! *cluster candidate*; candidates of one ⟨vantage, domain⟩ unit are
//! greedily epsilon-clustered on a cheap feature distance (origin AS,
//! AS category, home metro, scope length, last-sweep verdict), only the
//! first candidate of each cluster — the **representative** — is probed
//! live, and after the probing window every member inherits a copy of
//! its representative's record tagged with a confidence derived from
//! the feature distance ([`clientmap_store::ConfidenceRecord`]).
//!
//! Escalation closes the loop: the *next* clustered sweep probes a
//! tagged slot live (instead of replaying or re-extrapolating it) when
//! its stored confidence falls below the configured floor or its
//! extrapolated verdict flipped away from what the slot last held —
//! so wrong copies are self-correcting within one warm sweep.
//!
//! Everything is a pure function of ⟨world seed, config, universe,
//! prior snapshot⟩: candidate visit order is a seeded stable hash and
//! clusters grow greedily in that order, so driver, workers, and any
//! thread count plan byte-identically. Conservation law, checked by
//! `clientmap-core`'s invariant layer:
//! `representatives + extrapolated + escalated == planned_universe`.

use std::collections::BTreeMap;

use clientmap_net::{Prefix, SeedMixer};
use clientmap_store::{
    HitEvent, PlanReason, RecordKey, ScopeRecord, SweepSnapshot, CONFIDENCE_MAX,
};
use clientmap_world::World;

use crate::plan::{ExhaustivePlan, PlanDecision, PlanSlot, ProbePlan, WarmStartPlan};
use crate::probe::{record_key, ProbeUnit};
use crate::vantage::BoundVantage;
use crate::ProbeConfig;

/// Verdict rank of a stored record, mirroring the derivation
/// `CacheProbeResult::verdict_table` applies to probe counts:
/// `Hit(4) > HitScopeZero(3) > Miss(2) > Dropped(1) > Unmeasured(0)`.
pub fn verdict_rank(rec: &ScopeRecord) -> u8 {
    if rec.hits() > 0 {
        4
    } else if rec.scope0 > 0 {
        3
    } else if rec.attempts > rec.drops {
        2
    } else if rec.attempts > 0 {
        1
    } else {
        0
    }
}

/// The cheap per-slot feature vector the clustering distance compares.
/// Everything here is public-data derived (RIB origin, ASdb category,
/// geolocation metro) or planner state (scope length, prior verdict) —
/// never the world's ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterFeatures {
    /// Origin AS of the scope per the RIB (`None` = unrouted).
    pub as_id: Option<usize>,
    /// ASdb category discriminant of the origin AS.
    pub category: u8,
    /// Home-metro index of the origin AS.
    pub metro: usize,
    /// Scope prefix length (scope class).
    pub scope_len: u8,
    /// Verdict rank the slot held last sweep (0 = unmeasured).
    pub prior_verdict: u8,
}

impl ClusterFeatures {
    /// Features of one scope under a prior record.
    pub fn of(world: &World, scope: Prefix, prior: Option<&ScopeRecord>) -> ClusterFeatures {
        let as_id = world
            .as_of_prefix(scope)
            .or_else(|| world.as_of_addr(scope.addr()));
        let (category, metro) = as_id.map_or((u8::MAX, usize::MAX), |id| {
            let info = &world.ases[id];
            (info.category as u8, info.home_metro)
        });
        ClusterFeatures {
            as_id,
            category,
            metro,
            scope_len: scope.len(),
            prior_verdict: prior.map_or(0, verdict_rank),
        }
    }
}

/// Weighted feature distance in `[0, 1.1]`. The AS and prior-verdict
/// terms dominate by design: at the default epsilon (0.25) a cluster
/// never spans two ASes or two different verdict histories, while
/// same-AS scopes of different lengths still merge (the length term
/// tops out at 0.10).
pub fn feature_distance(a: &ClusterFeatures, b: &ClusterFeatures) -> f64 {
    let mut d = 0.0;
    if a.as_id != b.as_id {
        d += 0.40;
    }
    if a.category != b.category {
        d += 0.15;
    }
    if a.metro != b.metro {
        d += 0.15;
    }
    d += 0.10 * f64::from(a.scope_len.abs_diff(b.scope_len)) / 32.0;
    if a.prior_verdict != b.prior_verdict {
        d += 0.30;
    }
    d
}

/// Confidence tag for a member joined at feature distance `d`: linear
/// in closeness, clamped into `1..=255` (0 is not a storable tag).
fn confidence_of(d: f64) -> u8 {
    1 + ((1.0 - d).clamp(0.0, 1.0) * f64::from(CONFIDENCE_MAX - 1)).round() as u8
}

/// The clustered plan's accounting. Registered as
/// `cacheprobe.cluster.*` counters and pinned by the invariant layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Slots the inner plan wanted probed live (the clustering input),
    /// plus prior-tag escalations.
    pub planned_universe: u64,
    /// Cluster representatives probed live.
    pub representatives: u64,
    /// Members skipped and copied from their representative.
    pub extrapolated: u64,
    /// Slots escalated to live probing: low or flipped prior tags, and
    /// members whose would-be confidence fell below the floor.
    pub escalated: u64,
    /// Clusters formed (== representatives; kept for the report).
    pub clusters: u64,
}

impl ClusterStats {
    /// The conservation law the invariant layer re-checks.
    pub fn conserved(&self) -> bool {
        self.representatives + self.extrapolated + self.escalated == self.planned_universe
    }
}

/// The cluster-based predictive plan. Built once per sweep by a
/// deterministic greedy pass over the assigned units; [`ProbePlan`]
/// decisions are then pure map lookups, so the plan composes with
/// `plan_units` exactly like the exhaustive and warm-start planners.
#[derive(Debug)]
pub struct ClusteredPlan {
    decisions: BTreeMap<RecordKey, PlanDecision>,
    stats: ClusterStats,
}

impl ClusteredPlan {
    /// Plans a clustered sweep over `units`. Cold runs (`prior` =
    /// `None`) cluster everything; warm runs cluster only the slots the
    /// warm-start plan would re-probe, escalate low-confidence or
    /// verdict-flipped prior extrapolations, and replay the rest.
    pub fn build(
        world: &World,
        cfg: &ProbeConfig,
        world_seed: u64,
        epoch: u32,
        units: &[ProbeUnit],
        prior: Option<&SweepSnapshot>,
        bound: &[BoundVantage],
    ) -> ClusteredPlan {
        let inner_warm = prior.map(|_| WarmStartPlan {
            world_seed,
            epoch,
            expiry_budget: cfg.expiry_budget,
        });
        let mut decisions = BTreeMap::new();
        let mut stats = ClusterStats::default();
        for u in units {
            let dirty = prior.is_some_and(|p| {
                p.quarantined_pops()
                    .contains(&(bound[u.bound_idx].pop as u64))
            });
            // Collect this unit's cluster candidates (records are keyed
            // per ⟨vantage, domain⟩, so copies never cross units).
            let mut candidates: Vec<(u64, RecordKey, ClusterFeatures, PlanReason)> = Vec::new();
            for &scope in &u.scopes {
                let key = record_key(u.bound_idx, u.domain, scope);
                let prior_rec = prior.and_then(|p| p.records.get(&key));
                // Escalation: a slot whose record was extrapolated last
                // sweep is probed live — inner plan regardless — when
                // the copy was weak or its verdict flipped away from
                // what the slot last held.
                if let Some(tag) = prior.and_then(|p| p.confidence.get(&key)) {
                    let flipped = tag.prior_verdict != 0
                        && prior_rec.map_or(0, verdict_rank) != tag.prior_verdict;
                    let weak = f64::from(tag.confidence) / f64::from(CONFIDENCE_MAX)
                        < cfg.cluster_escalate_below;
                    if flipped || weak {
                        decisions.insert(key, PlanDecision::Probe(PlanReason::Dirty));
                        stats.planned_universe += 1;
                        stats.escalated += 1;
                        continue;
                    }
                }
                let slot = PlanSlot {
                    bound_idx: u.bound_idx,
                    domain: u.domain,
                    scope,
                    prior: prior_rec,
                    dirty,
                };
                let reason = match inner_warm
                    .as_ref()
                    .map_or_else(|| ExhaustivePlan.decide(&slot), |w| w.decide(&slot))
                {
                    PlanDecision::Probe(reason) => reason,
                    PlanDecision::Replay => {
                        decisions.insert(key, PlanDecision::Replay);
                        continue;
                    }
                    PlanDecision::Extrapolate { .. } => {
                        unreachable!("inner plans never extrapolate")
                    }
                };
                let order = SeedMixer::new(world_seed)
                    .mix_str("cluster-order")
                    .mix(key.0 as u64)
                    .mix(key.1 as u64)
                    .mix(u64::from(key.2))
                    .mix(u64::from(key.3))
                    .finish();
                candidates.push((
                    order,
                    key,
                    ClusterFeatures::of(world, scope, prior_rec),
                    reason,
                ));
                stats.planned_universe += 1;
            }
            // Seeded greedy epsilon-clustering: visit candidates in
            // stable hashed order; each joins the first existing
            // cluster (creation order) whose representative sits within
            // epsilon, else opens its own.
            candidates.sort_by_key(|c| (c.0, c.1));
            let mut reps: Vec<(RecordKey, ClusterFeatures)> = Vec::new();
            for (_, key, feats, reason) in candidates {
                let joined = (cfg.cluster_epsilon > 0.0)
                    .then(|| {
                        reps.iter().find_map(|(rep_key, rep_feats)| {
                            let d = feature_distance(&feats, rep_feats);
                            (d <= cfg.cluster_epsilon).then_some((*rep_key, d))
                        })
                    })
                    .flatten();
                match joined {
                    Some((rep, d)) => {
                        let confidence = confidence_of(d);
                        if f64::from(confidence) / f64::from(CONFIDENCE_MAX)
                            < cfg.cluster_escalate_below
                        {
                            // Too far to trust the copy: probe it live.
                            decisions.insert(key, PlanDecision::Probe(reason));
                            stats.escalated += 1;
                        } else {
                            decisions.insert(key, PlanDecision::Extrapolate { rep, confidence });
                            stats.extrapolated += 1;
                        }
                    }
                    None => {
                        reps.push((key, feats));
                        decisions.insert(key, PlanDecision::Probe(reason));
                        stats.representatives += 1;
                        stats.clusters += 1;
                    }
                }
            }
        }
        ClusteredPlan { decisions, stats }
    }
}

impl ProbePlan for ClusteredPlan {
    fn decide(&self, slot: &PlanSlot<'_>) -> PlanDecision {
        self.decisions
            .get(&record_key(slot.bound_idx, slot.domain, slot.scope))
            .copied()
            // A slot the build pass never saw (impossible through
            // `prepare_sweep`, which plans the same unit list) is
            // probed live — the conservative answer.
            .unwrap_or(PlanDecision::Probe(PlanReason::New))
    }

    fn records_stats(&self) -> bool {
        false
    }

    fn cluster_stats(&self) -> Option<ClusterStats> {
        Some(self.stats)
    }
}

/// The member's synthetic record under extrapolation: the
/// representative's outcome counts with every hit rewritten to the
/// member's own scope (a copied hit is evidence about the *member's*
/// address space, and downstream response-scope accounting must not
/// credit the representative's /24 twice).
pub fn synthesize_member_record(rep: &ScopeRecord, member: Prefix) -> ScopeRecord {
    ScopeRecord {
        attempts: rep.attempts,
        scope0: rep.scope0,
        drops: rep.drops,
        hit_events: rep
            .hit_events
            .iter()
            .map(|e| HitEvent {
                resp_addr: member.addr(),
                resp_len: member.len(),
                remaining_ttl: e.remaining_ttl,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_units;
    use crate::probe::ProbeUnit;
    use clientmap_store::ConfidenceRecord;
    use clientmap_world::WorldConfig;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static W: OnceLock<World> = OnceLock::new();
        W.get_or_init(|| World::generate(WorldConfig::tiny(11)))
    }

    fn cfg(epsilon: f64, escalate_below: f64) -> ProbeConfig {
        ProbeConfig {
            clustered_probing: true,
            cluster_epsilon: epsilon,
            cluster_escalate_below: escalate_below,
            // Everything measured expires each epoch, so warm inner
            // plans feed every slot back through the clustering.
            expiry_budget: 1.0,
            ..ProbeConfig::test_scale()
        }
    }

    fn block_units(n: usize) -> (Vec<ProbeUnit>, Vec<BoundVantage>) {
        let scopes: Vec<Prefix> = world().blocks.iter().map(|b| b.prefix).take(n).collect();
        assert_eq!(
            scopes.len(),
            n,
            "tiny world has fewer blocks than the test wants"
        );
        (
            vec![ProbeUnit {
                bound_idx: 0,
                domain: 0,
                scopes,
            }],
            vec![BoundVantage { vp: 0, pop: 0 }],
        )
    }

    #[test]
    fn epsilon_zero_degenerates_to_the_exhaustive_plan() {
        let (units, bound) = block_units(40);
        let plan = ClusteredPlan::build(world(), &cfg(0.0, 0.5), 7, 1, &units, None, &bound);
        let stats = plan.cluster_stats().unwrap();
        assert_eq!(stats.planned_universe, 40);
        assert_eq!(stats.representatives, 40);
        assert_eq!(stats.extrapolated, 0);
        assert_eq!(stats.escalated, 0);
        assert!(stats.conserved());
        let out = plan_units(&plan, units.clone(), None, &bound);
        let exhaustive = plan_units(&ExhaustivePlan, units, None, &bound);
        assert_eq!(out.live_units, exhaustive.live_units);
        assert!(out.extrapolated.is_empty());
        assert!(!plan.records_stats());
    }

    #[test]
    fn default_epsilon_merges_lookalike_scopes() {
        let (units, bound) = block_units(40);
        let plan = ClusteredPlan::build(world(), &cfg(0.25, 0.5), 7, 1, &units, None, &bound);
        let stats = plan.cluster_stats().unwrap();
        assert!(stats.conserved());
        assert!(
            stats.extrapolated > 0,
            "no clusters formed over {} routed blocks: {stats:?}",
            40
        );
        assert_eq!(stats.representatives, stats.clusters);
        // Every extrapolated member points at a slot the plan probes
        // live, and the member's own slot is not probed.
        let out = plan_units(&plan, units, None, &bound);
        let live: std::collections::BTreeSet<RecordKey> = out
            .live_units
            .iter()
            .flat_map(|u| {
                u.scopes
                    .iter()
                    .map(move |s| crate::probe::record_key(u.bound_idx, u.domain, *s))
            })
            .collect();
        assert_eq!(out.extrapolated.len() as u64, stats.extrapolated);
        for e in &out.extrapolated {
            assert!(live.contains(&e.rep), "rep of {e:?} is not probed live");
            let member = crate::probe::record_key(e.bound_idx, e.domain, e.scope);
            assert!(
                !live.contains(&member),
                "member {e:?} probed despite extrapolation"
            );
            assert!((1..=CONFIDENCE_MAX).contains(&e.confidence));
        }
    }

    #[test]
    fn weak_or_flipped_prior_tags_escalate_to_live_probing() {
        let (units, bound) = block_units(3);
        let scopes = units[0].scopes.clone();
        let mut prior = SweepSnapshot::new(7, 1);
        prior.epoch = 1;
        for &s in &scopes {
            let key = crate::probe::record_key(0, 0, s);
            prior.records.insert(
                key,
                ScopeRecord {
                    attempts: 4,
                    ..ScopeRecord::default()
                },
            );
        }
        let keys: Vec<RecordKey> = scopes
            .iter()
            .map(|&s| crate::probe::record_key(0, 0, s))
            .collect();
        // keys[0]: verdict flip — tagged as Hit(4) last sweep, but the
        // stored record now ranks Miss(2). keys[1]: weak confidence.
        // keys[2]: strong, consistent tag — no escalation.
        prior.confidence.insert(
            keys[0],
            ConfidenceRecord {
                rep: keys[2],
                confidence: 250,
                prior_verdict: 4,
            },
        );
        prior.confidence.insert(
            keys[1],
            ConfidenceRecord {
                rep: keys[2],
                confidence: 10,
                prior_verdict: 2,
            },
        );
        prior.confidence.insert(
            keys[2],
            ConfidenceRecord {
                rep: keys[0],
                confidence: 250,
                prior_verdict: 2,
            },
        );
        let plan =
            ClusteredPlan::build(world(), &cfg(0.25, 0.5), 7, 2, &units, Some(&prior), &bound);
        let stats = plan.cluster_stats().unwrap();
        assert!(stats.conserved());
        assert_eq!(stats.escalated, 2);
        let out = plan_units(&plan, units, Some(&prior), &bound);
        let live: Vec<Prefix> = out
            .live_units
            .iter()
            .flat_map(|u| u.scopes.clone())
            .collect();
        assert!(live.contains(&scopes[0]), "flipped tag must re-probe");
        assert!(live.contains(&scopes[1]), "weak tag must re-probe");
    }

    #[test]
    fn confidence_spans_the_full_scale() {
        assert_eq!(confidence_of(0.0), CONFIDENCE_MAX);
        assert_eq!(confidence_of(1.0), 1);
        assert_eq!(confidence_of(2.0), 1); // clamped, never wraps to 0
        let mid = confidence_of(0.5);
        assert!(mid > confidence_of(0.75) && mid < confidence_of(0.25));
    }

    #[test]
    fn synthesized_member_records_rewrite_hits_to_the_member_scope() {
        let rep = ScopeRecord {
            attempts: 6,
            scope0: 1,
            drops: 2,
            hit_events: vec![HitEvent {
                resp_addr: 0x01020300,
                resp_len: 24,
                remaining_ttl: 99,
            }],
        };
        let member: Prefix = "10.0.0.0/20".parse().unwrap();
        let synth = synthesize_member_record(&rep, member);
        assert_eq!(synth.attempts, 6);
        assert_eq!(synth.scope0, 1);
        assert_eq!(synth.drops, 2);
        assert_eq!(
            synth.hit_events,
            vec![HitEvent {
                resp_addr: 0x0A000000,
                resp_len: 20,
                remaining_ttl: 99,
            }]
        );
    }

    /// A scope plus optional prior record / confidence tag.
    type SlotState = (Prefix, Option<(u64, bool)>, Option<(u8, u8)>);

    /// Arbitrary slot state for the planner properties.
    fn slot_strategy() -> impl Strategy<Value = SlotState> {
        (
            (any::<u32>(), 12u8..=24).prop_map(|(addr, len)| {
                let mask = u32::MAX << (32 - len);
                Prefix::new(addr & mask, len).unwrap()
            }),
            proptest::option::of((0u64..6, any::<bool>())),
            proptest::option::of((1u8..=255, 0u8..=4)),
        )
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The clustered plan is a partition with a conservation law:
        /// every slot gets exactly one decision, extrapolated members
        /// reference a live representative, and `representatives +
        /// extrapolated + escalated == planned_universe` — for
        /// arbitrary scopes, prior records, confidence tags, epsilons,
        /// and thresholds.
        #[test]
        fn clustering_partitions_and_conserves(
            slots in proptest::collection::vec(slot_strategy(), 1..24),
            epsilon in 0.0f64..0.7,
            escalate_below in 0.0f64..1.0,
            seed in any::<u64>(),
            warm in any::<bool>(),
        ) {
            // Dedup scopes (prepare_sweep never repeats a scope within
            // a unit) and split them across two units.
            let mut seen = std::collections::BTreeSet::new();
            let slots: Vec<_> = slots
                .into_iter()
                .filter(|(s, _, _)| seen.insert(*s))
                .collect();
            let bound = vec![
                BoundVantage { vp: 0, pop: 0 },
                BoundVantage { vp: 1, pop: 1 },
            ];
            let mut units = vec![
                ProbeUnit { bound_idx: 0, domain: 0, scopes: Vec::new() },
                ProbeUnit { bound_idx: 1, domain: 0, scopes: Vec::new() },
            ];
            let mut prior = SweepSnapshot::new(seed, 1);
            prior.epoch = 1;
            for (i, (scope, rec, tag)) in slots.iter().enumerate() {
                let bi = i % 2;
                units[bi].scopes.push(*scope);
                let key = crate::probe::record_key(bi, 0, *scope);
                if let Some((attempts, with_hit)) = rec {
                    let mut r = ScopeRecord { attempts: *attempts, ..ScopeRecord::default() };
                    if *with_hit && *attempts > 0 {
                        r.hit_events.push(HitEvent {
                            resp_addr: scope.addr(),
                            resp_len: scope.len(),
                            remaining_ttl: 30,
                        });
                    }
                    prior.records.insert(key, r);
                }
                if let Some((confidence, prior_verdict)) = tag {
                    prior.confidence.insert(key, ConfidenceRecord {
                        rep: key,
                        confidence: *confidence,
                        prior_verdict: *prior_verdict,
                    });
                }
            }
            let units: Vec<ProbeUnit> =
                units.into_iter().filter(|u| !u.scopes.is_empty()).collect();
            let prior_opt = warm.then_some(&prior);
            let c = cfg(epsilon, escalate_below);
            let plan = ClusteredPlan::build(
                world(), &c, seed, 2, &units, prior_opt, &bound,
            );
            let stats = plan.cluster_stats().unwrap();
            prop_assert!(stats.conserved(), "not conserved: {stats:?}");
            let out = plan_units(&plan, units.clone(), prior_opt, &bound);
            let live: std::collections::BTreeSet<RecordKey> = out
                .live_units
                .iter()
                .flat_map(|u| {
                    u.scopes
                        .iter()
                        .map(move |s| crate::probe::record_key(u.bound_idx, u.domain, *s))
                })
                .collect();
            // Partition: live + replayed + extrapolated covers every
            // slot exactly once.
            let total: usize = units.iter().map(|u| u.scopes.len()).sum();
            prop_assert_eq!(
                live.len() + out.skipped.len() + out.extrapolated.len(),
                total
            );
            prop_assert_eq!(
                stats.planned_universe,
                (live.len() + out.extrapolated.len()) as u64
            );
            prop_assert_eq!(out.extrapolated.len() as u64, stats.extrapolated);
            for e in &out.extrapolated {
                prop_assert!(live.contains(&e.rep));
                prop_assert!((1..=CONFIDENCE_MAX).contains(&e.confidence));
            }
            if epsilon == 0.0 {
                prop_assert_eq!(stats.extrapolated, 0);
            }
            // Determinism: rebuilding the plan yields identical stats
            // and identical planning output.
            let again = ClusteredPlan::build(
                world(), &c, seed, 2, &units, prior_opt, &bound,
            );
            prop_assert_eq!(again.cluster_stats().unwrap(), stats);
            let out2 = plan_units(&again, units, prior_opt, &bound);
            prop_assert_eq!(out2.live_units, out.live_units);
            prop_assert_eq!(out2.extrapolated, out.extrapolated);
        }
    }
}
