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

use std::collections::HashMap;

use clientmap_net::{Prefix, SeedMixer};
use clientmap_store::{
    ConfidenceRecord, HitEvent, PlanReason, RecordKey, RecordView, ScopeRecord, CONFIDENCE_MAX,
};
use clientmap_world::World;

use crate::plan::{PlanDecision, ProbePlan, WarmStartPlan};
use crate::probe::{record_key, ProbeUnit};
use crate::ProbeConfig;

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
    pub fn of(world: &World, scope: Prefix, prior: Option<RecordView<'_>>) -> ClusterFeatures {
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
            prior_verdict: prior.map_or(0, |r| r.verdict() as u8),
        }
    }

    /// The features whose mismatch alone costs at least [`JOIN_GAP`]:
    /// origin AS and prior verdict.
    pub fn join_key(&self) -> (Option<usize>, u8) {
        (self.as_id, self.prior_verdict)
    }
}

/// Weight of the origin-AS term of [`feature_distance`].
pub const AS_WEIGHT: f64 = 0.40;
/// Weight of the AS-category term of [`feature_distance`].
pub const CATEGORY_WEIGHT: f64 = 0.15;
/// Weight of the home-metro term of [`feature_distance`].
pub const METRO_WEIGHT: f64 = 0.15;
/// Weight of the scope-length term of [`feature_distance`], reached at
/// a length gap of 32.
pub const LEN_WEIGHT: f64 = 0.10;
/// Weight of the prior-verdict term of [`feature_distance`].
pub const VERDICT_WEIGHT: f64 = 0.30;

/// The least [`feature_distance`] between two candidates that differ in
/// origin AS or prior verdict, whatever their other features: every
/// term is non-negative, so either mismatch alone puts them this far
/// apart. Below it, a candidate can only join a representative of its
/// own [`ClusterFeatures::join_key`] — what makes the planner's keyed
/// join exact.
pub const JOIN_GAP: f64 = AS_WEIGHT.min(VERDICT_WEIGHT);

/// Weighted feature distance in `[0, 1.1]`. The AS and prior-verdict
/// terms dominate by design: at the default epsilon (0.25) a cluster
/// never spans two ASes or two different verdict histories, while
/// same-AS scopes of different lengths still merge (the length term
/// tops out at 0.10).
pub fn feature_distance(a: &ClusterFeatures, b: &ClusterFeatures) -> f64 {
    let mut d = 0.0;
    if a.as_id != b.as_id {
        d += AS_WEIGHT;
    }
    if a.category != b.category {
        d += CATEGORY_WEIGHT;
    }
    if a.metro != b.metro {
        d += METRO_WEIGHT;
    }
    d += LEN_WEIGHT * f64::from(a.scope_len.abs_diff(b.scope_len)) / 32.0;
    if a.prior_verdict != b.prior_verdict {
        d += VERDICT_WEIGHT;
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

/// The cluster-based predictive plan. Decides a ⟨vantage, domain⟩
/// unit at a time inside `plan_units`' one ordered walk: escalation,
/// the inner warm (or exhaustive) rule, then the seeded greedy join,
/// accumulating [`ClusterStats`] as it goes.
#[derive(Debug)]
pub struct ClusteredPlan<'w> {
    world: &'w World,
    world_seed: u64,
    epsilon: f64,
    escalate_below: f64,
    /// The warm rule for warm sweeps; `None` plans cold (every slot a
    /// candidate).
    inner_warm: Option<WarmStartPlan>,
    stats: ClusterStats,
    /// Scratch reused across units: the unit's candidates, and its
    /// representatives so far.
    candidates: Vec<Candidate>,
    reps: RepIndex,
}

/// One cluster candidate of the unit being planned.
#[derive(Debug)]
struct Candidate {
    /// Seeded stable visit order.
    order: u64,
    key: RecordKey,
    /// Index of the slot in its unit (and in the decision list).
    slot: usize,
    feats: ClusterFeatures,
}

impl<'w> ClusteredPlan<'w> {
    /// A clustered plan for one sweep. Cold runs (`inner_warm` =
    /// `None`) cluster everything; warm runs cluster only the slots the
    /// warm-start plan would re-probe, escalate low-confidence or
    /// verdict-flipped prior extrapolations, and replay the rest.
    pub fn new(
        world: &'w World,
        cfg: &ProbeConfig,
        world_seed: u64,
        inner_warm: Option<WarmStartPlan>,
    ) -> ClusteredPlan<'w> {
        ClusteredPlan {
            world,
            world_seed,
            epsilon: cfg.cluster_epsilon,
            escalate_below: cfg.cluster_escalate_below,
            inner_warm,
            stats: ClusterStats::default(),
            candidates: Vec::new(),
            reps: RepIndex::default(),
        }
    }

    /// Whether a copy at this confidence is too weak to trust.
    fn weak(&self, confidence: u8) -> bool {
        f64::from(confidence) / f64::from(CONFIDENCE_MAX) < self.escalate_below
    }
}

impl ProbePlan for ClusteredPlan<'_> {
    fn decide_unit(
        &mut self,
        unit: &ProbeUnit,
        priors: &[Option<RecordView<'_>>],
        tags: &[Option<&ConfidenceRecord>],
        dirty: bool,
        decisions: &mut Vec<PlanDecision>,
    ) {
        // Collect this unit's cluster candidates (records are keyed
        // per ⟨vantage, domain⟩, so copies never cross units). Each
        // candidate's decision starts as a live probe and the join
        // below rewrites it.
        self.candidates.clear();
        for (slot, ((&scope, &prior_rec), &tag)) in
            unit.scopes.iter().zip(priors).zip(tags).enumerate()
        {
            let key = record_key(unit.bound_idx, unit.domain, scope);
            // Escalation: a slot whose record was extrapolated last
            // sweep is probed live — inner plan regardless — when the
            // copy was weak or its verdict flipped away from what the
            // slot last held.
            if let Some(tag) = tag {
                let flipped = tag.prior_verdict != 0
                    && prior_rec.map_or(0, |r| r.verdict() as u8) != tag.prior_verdict;
                if flipped || self.weak(tag.confidence) {
                    decisions.push(PlanDecision::Probe(PlanReason::Dirty));
                    self.stats.planned_universe += 1;
                    self.stats.escalated += 1;
                    continue;
                }
            }
            let decision = self
                .inner_warm
                .map_or(PlanDecision::Probe(PlanReason::New), |w| {
                    w.decide(unit.domain, scope, prior_rec, dirty)
                });
            decisions.push(decision);
            match decision {
                PlanDecision::Probe(_) => {}
                PlanDecision::Replay => continue,
                PlanDecision::Extrapolate { .. } => unreachable!("inner plans never extrapolate"),
            }
            let order = SeedMixer::new(self.world_seed)
                .mix_str("cluster-order")
                .mix(key.0 as u64)
                .mix(key.1 as u64)
                .mix(u64::from(key.2))
                .mix(u64::from(key.3))
                .finish();
            self.candidates.push(Candidate {
                order,
                key,
                slot,
                feats: ClusterFeatures::of(self.world, scope, prior_rec),
            });
            self.stats.planned_universe += 1;
        }
        // Seeded greedy epsilon-clustering: visit candidates in stable
        // hashed order; each joins the first existing cluster
        // (creation order) whose representative sits within epsilon,
        // else opens its own.
        self.candidates.sort_by_key(|c| (c.order, c.key));
        self.reps.clear();
        for c in &self.candidates {
            let joined = (self.epsilon > 0.0)
                .then(|| self.reps.join(&c.feats, self.epsilon))
                .flatten();
            match joined {
                Some((rep, d)) => {
                    let confidence = confidence_of(d);
                    if self.weak(confidence) {
                        // Too far to trust the copy: probe it live.
                        self.stats.escalated += 1;
                    } else {
                        decisions[c.slot] = PlanDecision::Extrapolate { rep, confidence };
                        self.stats.extrapolated += 1;
                    }
                }
                None => {
                    self.reps.push(c.key, c.feats);
                    self.stats.representatives += 1;
                    self.stats.clusters += 1;
                }
            }
        }
    }

    fn records_stats(&self) -> bool {
        false
    }

    fn cluster_stats(&self) -> Option<ClusterStats> {
        Some(self.stats)
    }
}

/// One unit's cluster representatives in creation order, indexed by
/// [`ClusterFeatures::join_key`].
///
/// The greedy join asks for the first representative in creation order
/// within epsilon. Below [`JOIN_GAP`] only representatives of the
/// candidate's own join key can be that close, so the join scans that
/// key's list alone — in creation order and with the full distance,
/// since the length term can still put a same-key pair out of reach.
/// At wider epsilons it scans every representative, the plain greedy
/// rule. Either way it answers exactly what a creation-order scan over
/// all representatives does.
#[derive(Debug, Default)]
struct RepIndex {
    reps: Vec<(RecordKey, ClusterFeatures)>,
    by_key: HashMap<(Option<usize>, u8), Vec<usize>>,
}

impl RepIndex {
    fn clear(&mut self) {
        self.reps.clear();
        self.by_key.clear();
    }

    fn push(&mut self, key: RecordKey, feats: ClusterFeatures) {
        self.by_key
            .entry(feats.join_key())
            .or_default()
            .push(self.reps.len());
        self.reps.push((key, feats));
    }

    /// The first representative in creation order within `epsilon` of
    /// `feats`, with its distance.
    fn join(&self, feats: &ClusterFeatures, epsilon: f64) -> Option<(RecordKey, f64)> {
        let within = |(key, rep): &(RecordKey, ClusterFeatures)| {
            let d = feature_distance(feats, rep);
            (d <= epsilon).then_some((*key, d))
        };
        if epsilon < JOIN_GAP {
            self.by_key
                .get(&feats.join_key())?
                .iter()
                .find_map(|&i| within(&self.reps[i]))
        } else {
            self.reps.iter().find_map(within)
        }
    }
}

/// The member's synthetic record under extrapolation: the
/// representative's outcome counts with every hit rewritten to the
/// member's own scope (a copied hit is evidence about the *member's*
/// address space, and downstream response-scope accounting must not
/// credit the representative's /24 twice).
pub fn synthesize_member_record(rep: RecordView<'_>, member: Prefix) -> ScopeRecord {
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
    use crate::plan::{plan_units, ExhaustivePlan, PlanOutcome};
    use crate::probe::ProbeUnit;
    use crate::vantage::BoundVantage;
    use clientmap_store::{RecordTable, SweepSnapshot};
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

    /// Plans `units` clustered, the way `prepare_sweep` does: warm when
    /// there is a prior, cold otherwise.
    fn plan(
        c: &ProbeConfig,
        seed: u64,
        epoch: u32,
        units: &[ProbeUnit],
        prior: Option<&SweepSnapshot>,
        bound: &[BoundVantage],
    ) -> (ClusterStats, PlanOutcome) {
        let inner = prior.map(|_| WarmStartPlan {
            world_seed: seed,
            epoch,
            expiry_budget: c.expiry_budget,
        });
        let mut plan = ClusteredPlan::new(world(), c, seed, inner);
        assert!(!plan.records_stats());
        let out = plan_units(&mut plan, units.to_vec(), prior, bound);
        (plan.cluster_stats().unwrap(), out)
    }

    fn block_units(n: usize) -> (Vec<ProbeUnit>, Vec<BoundVantage>) {
        let mut scopes: Vec<Prefix> = world().blocks.iter().map(|b| b.prefix).take(n).collect();
        assert_eq!(
            scopes.len(),
            n,
            "tiny world has fewer blocks than the test wants"
        );
        scopes.sort();
        (
            vec![ProbeUnit {
                bound_idx: 0,
                domain: 0,
                scopes,
            }],
            vec![BoundVantage { vp: 0, pop: 0 }],
        )
    }

    /// The slots `out` probes live.
    fn live_keys(out: &PlanOutcome) -> std::collections::BTreeSet<RecordKey> {
        out.live_units
            .iter()
            .flat_map(|u| {
                u.scopes
                    .iter()
                    .map(move |s| record_key(u.bound_idx, u.domain, *s))
            })
            .collect()
    }

    #[test]
    fn epsilon_zero_degenerates_to_the_exhaustive_plan() {
        let (units, bound) = block_units(40);
        let (stats, out) = plan(&cfg(0.0, 0.5), 7, 1, &units, None, &bound);
        assert_eq!(stats.planned_universe, 40);
        assert_eq!(stats.representatives, 40);
        assert_eq!(stats.extrapolated, 0);
        assert_eq!(stats.escalated, 0);
        assert!(stats.conserved());
        let exhaustive = plan_units(&mut ExhaustivePlan, units, None, &bound);
        assert_eq!(out.live_units, exhaustive.live_units);
        assert!(out.extrapolated.is_empty());
    }

    #[test]
    fn default_epsilon_merges_lookalike_scopes() {
        let (units, bound) = block_units(40);
        let (stats, out) = plan(&cfg(0.25, 0.5), 7, 1, &units, None, &bound);
        assert!(stats.conserved());
        assert!(
            stats.extrapolated > 0,
            "no clusters formed over {} routed blocks: {stats:?}",
            40
        );
        assert_eq!(stats.representatives, stats.clusters);
        // Every extrapolated member points at a slot the plan probes
        // live, and the member's own slot is not probed.
        let live = live_keys(&out);
        assert_eq!(out.extrapolated.len() as u64, stats.extrapolated);
        for e in &out.extrapolated {
            assert!(live.contains(&e.rep), "rep of {e:?} is not probed live");
            let member = record_key(e.bound_idx, e.domain, e.scope);
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
        prior.records = RecordTable::from_ascending(scopes.iter().map(|&s| {
            let rec = ScopeRecord {
                attempts: 4,
                ..ScopeRecord::default()
            };
            (record_key(0, 0, s), rec)
        }));
        let keys: Vec<RecordKey> = scopes.iter().map(|&s| record_key(0, 0, s)).collect();
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
        let (stats, out) = plan(&cfg(0.25, 0.5), 7, 2, &units, Some(&prior), &bound);
        assert!(stats.conserved());
        assert_eq!(stats.escalated, 2);
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
        let synth = synthesize_member_record(rep.view(), member);
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

    /// The join oracle: the first representative in creation order
    /// within `epsilon`, found by scanning all of them.
    fn join_by_scan(
        reps: &[(RecordKey, ClusterFeatures)],
        feats: &ClusterFeatures,
        epsilon: f64,
    ) -> Option<(RecordKey, f64)> {
        reps.iter().find_map(|(key, rep)| {
            let d = feature_distance(feats, rep);
            (d <= epsilon).then_some((*key, d))
        })
    }

    fn feats(as_id: usize, scope_len: u8, prior_verdict: u8) -> ClusterFeatures {
        ClusterFeatures {
            as_id: Some(as_id),
            category: 0,
            metro: 0,
            scope_len,
            prior_verdict,
        }
    }

    #[test]
    fn the_weights_leave_a_gap_between_join_keys() {
        assert_eq!(JOIN_GAP, 0.30);
        // The most alike pair that differs in a join-key feature.
        let a = feats(1, 24, 2);
        assert!(feature_distance(&a, &feats(2, 24, 2)) >= JOIN_GAP);
        assert!(feature_distance(&a, &feats(1, 24, 3)) >= JOIN_GAP);
    }

    #[test]
    fn the_keyed_join_scans_past_a_same_key_head_out_of_reach() {
        // Two same-key representatives: the head is 12 lengths away
        // (0.0375 > 0.02), the second an exact match.
        let mut index = RepIndex::default();
        index.push((0, 0, 1, 12), feats(1, 12, 2));
        index.push((0, 0, 2, 24), feats(1, 24, 2));
        let candidate = feats(1, 24, 2);
        assert_eq!(index.join(&candidate, 0.02), Some(((0, 0, 2, 24), 0.0)));
        // Wide enough for the head, it wins by creation order.
        assert_eq!(index.join(&candidate, 0.05).unwrap().0, (0, 0, 1, 12));
    }

    fn features_strategy() -> impl Strategy<Value = ClusterFeatures> {
        (
            proptest::option::of(0usize..3),
            0u8..3,
            0usize..3,
            8u8..=32,
            0u8..=4,
        )
            .prop_map(|(as_id, category, metro, scope_len, prior_verdict)| {
                ClusterFeatures {
                    as_id,
                    category,
                    metro,
                    scope_len,
                    prior_verdict,
                }
            })
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
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The keyed join picks exactly what a creation-order scan over
        /// every representative picks — below the gap, at it, and above
        /// it, for representative lists with repeated join keys and
        /// arbitrary length gaps.
        #[test]
        fn keyed_join_matches_the_creation_order_scan(
            reps in proptest::collection::vec(features_strategy(), 0..40),
            candidates in proptest::collection::vec(features_strategy(), 1..16),
            epsilon in 0.0f64..0.7,
        ) {
            let mut index = RepIndex::default();
            for (i, f) in reps.iter().enumerate() {
                index.push((0, 0, i as u32, f.scope_len), *f);
            }
            for c in &candidates {
                prop_assert_eq!(
                    index.join(c, epsilon),
                    join_by_scan(&index.reps, c, epsilon),
                    "candidate {:?} at epsilon {}", c, epsilon
                );
            }
        }
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
            // Sort and dedup scopes (prepare_sweep feeds each unit its
            // scopes strictly ascending) and split them across two
            // units.
            let mut slots = slots;
            slots.sort_by_key(|(s, _, _)| *s);
            slots.dedup_by_key(|(s, _, _)| *s);
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
            let mut records = std::collections::BTreeMap::new();
            for (i, (scope, rec, tag)) in slots.iter().enumerate() {
                let bi = i % 2;
                units[bi].scopes.push(*scope);
                let key = record_key(bi, 0, *scope);
                if let Some((attempts, with_hit)) = rec {
                    let mut r = ScopeRecord { attempts: *attempts, ..ScopeRecord::default() };
                    if *with_hit && *attempts > 0 {
                        r.hit_events.push(HitEvent {
                            resp_addr: scope.addr(),
                            resp_len: scope.len(),
                            remaining_ttl: 30,
                        });
                    }
                    records.insert(key, r);
                }
                if let Some((confidence, prior_verdict)) = tag {
                    prior.confidence.insert(key, ConfidenceRecord {
                        rep: key,
                        confidence: *confidence,
                        prior_verdict: *prior_verdict,
                    });
                }
            }
            prior.records = RecordTable::from_ascending(records);
            let units: Vec<ProbeUnit> =
                units.into_iter().filter(|u| !u.scopes.is_empty()).collect();
            let prior_opt = warm.then_some(&prior);
            let c = cfg(epsilon, escalate_below);
            let (stats, out) = plan(&c, seed, 2, &units, prior_opt, &bound);
            prop_assert!(stats.conserved(), "not conserved: {stats:?}");
            let live = live_keys(&out);
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
            // Determinism: replanning yields identical stats and
            // identical planning output.
            let (again, out2) = plan(&c, seed, 2, &units, prior_opt, &bound);
            prop_assert_eq!(again, stats);
            prop_assert_eq!(out2.live_units, out.live_units);
            prop_assert_eq!(out2.extrapolated, out.extrapolated);
        }
    }
}
