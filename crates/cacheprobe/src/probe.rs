//! The probing loop (§3.1.1, "probing details") and the end-to-end
//! technique runner.
//!
//! Probing is embarrassingly parallel — each ⟨PoP, domain⟩ probe stream
//! is an independent connection with its own session state — so the
//! runner fans the streams out as work units over
//! [`clientmap_par::par_map`], sharing the immutable simulation core.
//! Each unit tallies into one record per slot; the units' records
//! reduce in work-unit order (bound-PoP order × domain order) into the
//! sweep's record table, and the result is that table, shared with the
//! snapshot, with its views. That ordered reduction makes the output —
//! reports and telemetry snapshots alike — byte-identical at any thread
//! count.
//!
//! The product's inner loop is the byte-free batched lane: each probe
//! event is served through one connection per unit
//! ([`serve_batched`]), and telemetry handles are resolved once per
//! unit, so steady-state probing never touches the allocator or the
//! registry lock. The wire lane ([`probe_scope`]) is its oracle.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use clientmap_dns::{wire, DomainName};
use clientmap_net::Prefix;
use clientmap_par::par_map;
use clientmap_sim::{
    BatchConn, BatchDomain, GpdnsSession, PopId, ProbeOutcome, ScopeLane, Sim, SimTime, SimView,
    Transport, VantageRoute,
};
use clientmap_store::{
    ConfidenceRecord, HitEvent, RecordKey, RecordTable, RecordTableBuilder, RecordView,
    ScopeRecord, SweepSnapshot,
};
use clientmap_telemetry::{Counter, Histogram, MetricsDelta, MetricsRegistry};

use crate::calibrate::{calibrate, sample_prefixes, ServiceRadii};
use crate::cluster::{synthesize_member_record, ClusteredPlan};
use crate::plan::{
    plan_units, ExhaustivePlan, ExtrapolatedSlot, PlanOutcome, ProbePlan, TableCursor,
    WarmStartPlan,
};
use crate::preamble::{pairs, Assignment, Preamble};
use crate::resilience::{
    attempt_id, observe_reply, observe_response, resilient_attempt, FaultCounters, WireObservation,
    BREAKER_THRESHOLD,
};
use crate::results::{CacheProbeResult, FaultSummary};
use crate::sweep;
use crate::vantage::{discover_with, BoundVantage};
use crate::ProbeConfig;

/// Merges the outcome of one redundant query into the running best:
/// `Hit > HitScopeZero > Miss > Dropped`, first occurrence of the
/// highest rank winning.
pub fn merge_outcome(best: ProbeOutcome, next: ProbeOutcome) -> ProbeOutcome {
    fn rank(o: &ProbeOutcome) -> u8 {
        match o {
            ProbeOutcome::Dropped => 0,
            ProbeOutcome::Miss => 1,
            ProbeOutcome::HitScopeZero => 2,
            ProbeOutcome::Hit { .. } => 3,
        }
    }
    if rank(&next) > rank(&best) {
        next
    } else {
        best
    }
}

/// Caller-reused wire buffers for [`probe_scope`]: the rendered query
/// and the response it drew.
#[derive(Debug, Default)]
pub struct ProbeBufs {
    query: Vec<u8>,
    resp: Vec<u8>,
}

/// Sends `cfg.redundancy` non-recursive ECS queries for
/// ⟨PoP, prefix, domain⟩ (covering multiple cache pools), each with a
/// distinct transaction ID, and returns the best verified outcome.
/// Hit > HitScopeZero > Miss > Dropped.
///
/// This is the scalar wire probe — the oracle the byte-free batched
/// lane is tested against, and the whole sweep's lane when
/// `batched_probing` is off. Queries render from a pre-built
/// [`wire::ProbeQueryTemplate`], and every response is decoded and
/// verified against its query ([`observe_response`]). The redundant
/// queries, retries and backoff are [`probe_event`]'s. `route` is the
/// vantage's anycast route, resolved once per stream
/// ([`BoundVantage::route`]), so a query only decides whether it flaps.
#[allow(clippy::too_many_arguments)]
pub fn probe_scope(
    view: &SimView<'_>,
    session: &mut GpdnsSession,
    route: &VantageRoute,
    template: &wire::ProbeQueryTemplate,
    scope: Prefix,
    cfg: &ProbeConfig,
    t: SimTime,
    fc: Option<&FaultCounters>,
    bufs: &mut ProbeBufs,
) -> ProbeOutcome {
    probe_event(route.prober, scope, cfg, t, fc, |id, at, transport| {
        template.render(id, scope, &mut bufs.query);
        let got = view.gpdns_query_routed_into(
            session,
            route,
            &bufs.query,
            transport,
            at,
            &mut bufs.resp,
        );
        observe_response(&bufs.query, id, got.then_some(bufs.resp.as_slice()))
    })
}

/// One probe event of `scope` at `t`: `cfg.redundancy` redundant
/// queries, each with its own transaction ID ([`attempt_id`]), merged
/// best-first with a Hit early exit. `exchange` performs one query —
/// transaction ID, send time, transport — and reports what came back.
/// With `fc` set (fault injection on) each redundant query gets bounded
/// retries with seeded exponential backoff under the per-probe deadline
/// budget, and a TC-truncated UDP response upgrades the retry to TCP
/// ([`resilient_attempt`]). Without it each query is a single exchange,
/// and anything unverifiable — including error rcodes, which the plain
/// lane does not retry — counts as [`ProbeOutcome::Dropped`].
fn probe_event(
    prober: u64,
    scope: Prefix,
    cfg: &ProbeConfig,
    t: SimTime,
    fc: Option<&FaultCounters>,
    mut exchange: impl FnMut(u16, SimTime, Transport) -> WireObservation,
) -> ProbeOutcome {
    let mut best = ProbeOutcome::Dropped;
    for r in 0..cfg.redundancy {
        let rt = t + SimTime::from_millis(u64::from(r));
        let mut send = |retry: u32, at: SimTime, transport: Transport| {
            exchange(attempt_id(t, scope, r, retry), at, transport)
        };
        let outcome = match fc {
            Some(fc) => resilient_attempt(prober, rt, cfg.transport, fc, send),
            None => match send(0, rt, cfg.transport) {
                WireObservation::Ok(outcome) => outcome,
                _ => ProbeOutcome::Dropped,
            },
        };
        best = merge_outcome(best, outcome);
        if matches!(best, ProbeOutcome::Hit { .. }) {
            return best;
        }
    }
    best
}

/// One probe event on the byte-free batched lane: fault-free cores
/// serve it whole ([`clientmap_sim::GooglePublicDns::serve_event`]);
/// under fault injection each redundant query goes through the
/// connection's per-query door
/// ([`clientmap_sim::GooglePublicDns::serve_attempt`]) inside the same
/// [`probe_event`] loop the wire probe runs — same transaction IDs,
/// retries, backoff and transport upgrade, no bytes.
pub fn serve_batched(
    view: &SimView<'_>,
    conn: &mut BatchConn,
    dom: &BatchDomain<'_>,
    lane: &ScopeLane,
    cfg: &ProbeConfig,
    t: SimTime,
    fc: Option<&FaultCounters>,
) -> ProbeOutcome {
    let Some(fc) = fc else {
        return view
            .gpdns
            .serve_event(conn, dom, view.auth, lane, t, cfg.redundancy);
    };
    probe_event(
        conn.prober(),
        lane.scope(),
        cfg,
        t,
        Some(fc),
        |id, at, transport| {
            observe_reply(
                view.gpdns
                    .serve_attempt(conn, dom, view.auth, lane, transport, at, id),
            )
        },
    )
}

/// Popular domains probed (paper: the top 4 ECS+TTL-qualified Alexa
/// domains).
pub(crate) const NUM_ALEXA_DOMAINS: usize = 4;

/// Selects the probing domains: the `NUM_ALEXA_DOMAINS` (4) most popular
/// ECS+TTL-qualified catalog domains, plus the Microsoft validation
/// domain (paper: always probed, to validate against the CDN's logs).
/// The selection is fixed by the paper, so no field of `_cfg` moves it.
pub fn select_domains(sim: &Sim, _cfg: &ProbeConfig) -> Vec<DomainName> {
    let catalog = &sim.world().domains;
    let mut domains: Vec<DomainName> = catalog
        .top_probeable(NUM_ALEXA_DOMAINS)
        .iter()
        .map(|s| s.name.clone())
        .collect();
    let ms = catalog.microsoft_cdn().name.clone();
    if !domains.contains(&ms) {
        domains.push(ms);
    }
    domains
}

/// Telemetry handles for one PoP worker: the workspace-wide probe
/// counters (shared `Arc`s — concurrent workers bump the same atomics)
/// plus this worker's per-PoP family. Resolved once per worker so the
/// probing loop itself never touches the registry lock.
///
/// The outcome counters satisfy two reconciliation invariants checked
/// after every end-to-end run: `probes_sent == redundancy × attempts`
/// and `hit + scope0 + miss + dropped == attempts`.
struct ProbeMetrics {
    attempts: Arc<Counter>,
    probes_sent: Arc<Counter>,
    hit: Arc<Counter>,
    scope0: Arc<Counter>,
    miss: Arc<Counter>,
    dropped: Arc<Counter>,
    hit_ttl_secs: Arc<Histogram>,
    pop_attempts: Arc<Counter>,
    pop_hits: Arc<Counter>,
    /// `cacheprobe.pop.<code>.assigned` — resolved here with the rest
    /// so assignment accounting never formats a metric name inline.
    assigned: Arc<Counter>,
}

impl ProbeMetrics {
    fn resolve(m: &MetricsRegistry, pop_code: &str) -> ProbeMetrics {
        ProbeMetrics {
            attempts: m.counter("cacheprobe.attempts"),
            probes_sent: m.counter("cacheprobe.probes_sent"),
            hit: m.counter("cacheprobe.outcome.hit"),
            scope0: m.counter("cacheprobe.outcome.scope0"),
            miss: m.counter("cacheprobe.outcome.miss"),
            dropped: m.counter("cacheprobe.outcome.dropped"),
            hit_ttl_secs: m.histogram("cacheprobe.hit.remaining_ttl_secs"),
            pop_attempts: m.counter(&format!("cacheprobe.pop.{pop_code}.attempts")),
            pop_hits: m.counter(&format!("cacheprobe.pop.{pop_code}.hits")),
            assigned: m.counter(&format!("cacheprobe.pop.{pop_code}.assigned")),
        }
    }
}

/// One shardable probe work unit: a single domain's probe stream at
/// one bound PoP and its assigned scopes. Units are built in bound-PoP
/// × domain order, and the reduction consumes them in exactly that
/// order. Public so [`crate::plan::ProbePlan`] implementors can build
/// and split unit lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeUnit {
    /// Index into the bound-vantage list (and its telemetry table).
    pub bound_idx: usize,
    /// Index into the selected-domain list.
    pub domain: usize,
    /// Assigned query scopes, strictly ascending ([`plan_units`]
    /// asserts it), so a unit's slots run in [`RecordKey`] order.
    pub scopes: Vec<Prefix>,
}

/// What one unit's stream produced: one record per slot, aligned with
/// the unit's scopes, and whether its circuit breaker tripped —
/// [`BREAKER_THRESHOLD`] consecutive probes lost and the rest of the
/// stream abandoned (fault injection only).
type UnitRecords = (Vec<ScopeRecord>, bool);

/// Books one probe event's outcome on its slot's record — the per-slot
/// accounting both lanes share. Hits land in slot order.
fn tally(rec: &mut ScopeRecord, outcome: &ProbeOutcome) {
    rec.attempts += 1;
    match *outcome {
        ProbeOutcome::Hit {
            scope,
            remaining_ttl,
        } => rec.hit_events.push(HitEvent {
            resp_addr: scope.addr(),
            resp_len: scope.len(),
            remaining_ttl,
        }),
        ProbeOutcome::HitScopeZero => rec.scope0 += 1,
        ProbeOutcome::Miss => {}
        ProbeOutcome::Dropped => rec.drops += 1,
    }
}

/// Lands slot records on their vantage's probe counters, one `add` per
/// counter per call: a live unit's records as its stream ends, and the
/// records a sweep holds without probing them — warm-skipped carries
/// and extrapolated members — as if their probes had run, so this
/// run's telemetry describes the whole sweep. The counters are
/// commutative atomics, so the registry is byte-identical whichever
/// lane, thread interleaving or grouping of records booked them.
fn book<'a>(m: &ProbeMetrics, records: impl IntoIterator<Item = RecordView<'a>>, redundancy: u32) {
    let (mut attempts, mut hits, mut scope0, mut drops) = (0, 0, 0, 0);
    for rec in records {
        attempts += rec.attempts;
        hits += rec.hits();
        scope0 += rec.scope0;
        drops += rec.drops;
        for e in rec.hit_events {
            m.hit_ttl_secs.record(u64::from(e.remaining_ttl));
        }
    }
    m.attempts.add(attempts);
    m.pop_attempts.add(attempts);
    m.probes_sent.add(attempts * u64::from(redundancy));
    m.hit.add(hits);
    m.pop_hits.add(hits);
    m.scope0.add(scope0);
    m.miss.add(attempts - hits - scope0 - drops);
    m.dropped.add(drops);
}

/// Queries per second per domain per PoP (paper: 50).
pub(crate) const RATE_PER_DOMAIN: f64 = 50.0;

/// The slots of one ⟨PoP, domain⟩ stream's window, in firing order, as
/// `(index into the scope list, fire time)`.
///
/// Slot `k` of the stream fires at `t0 + k·slot_secs`; the stream makes
/// up to nine passes over its scope list and stops at the window edge
/// (the paper's 120 h at 50 q/s over ~2.4M prefixes ≈ 9 passes). The
/// first slot always fires; later ones only inside the probing window.
/// An empty scope list has no slots.
fn window_slots(
    cfg: &ProbeConfig,
    num_scopes: usize,
    t0: SimTime,
) -> impl Iterator<Item = (usize, SimTime)> {
    let window_secs = cfg.duration_hours * 3600.0;
    let slot_secs = 1.0 / RATE_PER_DOMAIN;
    let total_slots = (window_secs * RATE_PER_DOMAIN) as u64;
    let loops = total_slots
        .checked_div(num_scopes as u64)
        .map_or(0, |passes| passes.clamp(1, 9));
    (0..loops)
        .flat_map(move |_pass| 0..num_scopes)
        .enumerate()
        .map(move |(slot, li)| (slot, li, slot as f64 * slot_secs))
        .take_while(move |&(slot, _, offset_secs)| slot == 0 || offset_secs < window_secs)
        .map(move |(_, li, offset_secs)| (li, t0 + SimTime::from_secs_f64(offset_secs)))
}

/// Probes one ⟨PoP, domain⟩ stream for the whole window on the lane
/// `cfg.batched_probing` picks. Each stream is its own connection with
/// its own session, so units are fully independent — the executor may
/// run them in any order.
///
/// The batched lane hoists routing, admission state, the per-scope
/// cache lanes and the constant heads of the hash chains out of the
/// per-probe loop and renders nothing ([`serve_batched`]); the lanes and
/// the records are the unit's only buffers. The wire lane
/// ([`probe_scope`]) is its oracle.
#[allow(clippy::too_many_arguments)]
fn probe_unit(
    view: &SimView<'_>,
    bound: &BoundVantage,
    template: &wire::ProbeQueryTemplate,
    scopes: &[Prefix],
    cfg: &ProbeConfig,
    t0: SimTime,
    metrics: &ProbeMetrics,
    fc: Option<&FaultCounters>,
) -> UnitRecords {
    let mut session = GpdnsSession::new();
    let route = bound.route(view.catchments);
    if !cfg.batched_probing {
        let mut bufs = ProbeBufs::default();
        return probe_stream(cfg, scopes.len(), t0, metrics, fc, |li, t| {
            probe_scope(
                view,
                &mut session,
                &route,
                template,
                scopes[li],
                cfg,
                t,
                fc,
                &mut bufs,
            )
        });
    }
    let mut conn = view.gpdns.open_conn(&route, &session, cfg.transport);
    let dom = view
        .gpdns
        .batch_domain(&conn, template.qname_wire())
        .expect("selected domains are probeable");
    let lanes: Vec<ScopeLane> = scopes
        .iter()
        .map(|&s| view.gpdns.scope_lane(view.auth, &dom, s))
        .collect();
    let records = probe_stream(cfg, scopes.len(), t0, metrics, fc, |li, t| {
        serve_batched(view, &mut conn, &dom, &lanes[li], cfg, t, fc)
    });
    view.gpdns.close_batch(conn, &mut session);
    records
}

/// The stream loop, one for every lane: walks the window's slots, has
/// `serve` probe each, tallies each outcome into its slot's record in
/// slot order, runs the circuit breaker under fault injection, and
/// books the records as the stream ends.
fn probe_stream(
    cfg: &ProbeConfig,
    num_scopes: usize,
    t0: SimTime,
    metrics: &ProbeMetrics,
    fc: Option<&FaultCounters>,
    mut serve: impl FnMut(usize, SimTime) -> ProbeOutcome,
) -> UnitRecords {
    let mut records = vec![ScopeRecord::default(); num_scopes];
    let mut tripped = false;
    let mut consecutive_drops = 0u32;
    for (li, t) in window_slots(cfg, num_scopes, t0) {
        let outcome = serve(li, t);
        tally(&mut records[li], &outcome);
        // Circuit breaker: a PoP that eats everything we send — even
        // after retries — is almost certainly dark; abandon the stream
        // rather than burn the window into it.
        if fc.is_some() {
            if matches!(outcome, ProbeOutcome::Dropped) {
                consecutive_drops += 1;
                if consecutive_drops >= BREAKER_THRESHOLD {
                    tripped = true;
                    break;
                }
            } else {
                consecutive_drops = 0;
            }
        }
    }
    book(
        metrics,
        records.iter().map(ScopeRecord::view),
        cfg.redundancy,
    );
    (records, tripped)
}

/// The snapshot key of one ⟨vantage, domain, scope⟩ stream slot.
pub(crate) fn record_key(bound_idx: usize, domain: usize, scope: Prefix) -> RecordKey {
    (bound_idx as u16, domain as u16, scope.addr(), scope.len())
}

/// A clustered plan's extrapolated members, built after the ordered
/// reduction: each member's record is synthesized from a borrow of its
/// representative's live record and booked as it is built
/// ([`book`]), and its [`ConfidenceRecord`] goes to the
/// snapshot's provenance column. `extrapolated` is in key order (plan
/// order), so both outputs are too, and the fold is byte-identical at
/// any thread or shard count. Representatives are found by binary
/// search over the live table's keys. A representative whose stream
/// never produced a probe event copies as an empty record — the next
/// planner's escalation signal, exactly like a breaker-aborted live
/// slot.
fn synthesize_members(
    live: &RecordTable,
    extrapolated: &[ExtrapolatedSlot],
    pop_metrics: &[ProbeMetrics],
    redundancy: u32,
) -> (
    Vec<(RecordKey, ScopeRecord)>,
    BTreeMap<RecordKey, ConfidenceRecord>,
) {
    let empty = ScopeRecord::default();
    let members: Vec<(RecordKey, ScopeRecord)> = extrapolated
        .iter()
        .map(|e| {
            let rep = live.get(&e.rep).unwrap_or(empty.view());
            let synth = synthesize_member_record(rep, e.scope);
            book(&pop_metrics[e.bound_idx], [synth.view()], redundancy);
            (record_key(e.bound_idx, e.domain, e.scope), synth)
        })
        .collect();
    let tags = extrapolated
        .iter()
        .map(|e| {
            let tag = ConfidenceRecord {
                rep: e.rep,
                confidence: e.confidence,
                prior_verdict: e.prior_verdict,
            };
            (record_key(e.bound_idx, e.domain, e.scope), tag)
        })
        .collect();
    (members, tags)
}

/// Merges two key-ordered runs of records into one key-ordered run.
/// Where both hold a key, `first`'s record comes with `second`'s
/// beside it, for the caller's equal-key rule.
fn merge_ordered<'a>(
    first: impl Iterator<Item = (RecordKey, RecordView<'a>)>,
    second: impl Iterator<Item = (RecordKey, RecordView<'a>)>,
) -> impl Iterator<Item = (RecordKey, RecordView<'a>, Option<RecordView<'a>>)> {
    let (mut a, mut b) = (first.peekable(), second.peekable());
    std::iter::from_fn(move || {
        let (key, rec) = match (a.peek(), b.peek()) {
            (Some((ka, _)), Some((kb, _))) => match ka.cmp(kb) {
                std::cmp::Ordering::Less => a.next()?,
                std::cmp::Ordering::Greater => b.next()?,
                std::cmp::Ordering::Equal => {
                    let (key, rec) = a.next()?;
                    return Some((key, rec, b.next().map(|(_, other)| other)));
                }
            },
            (Some(_), None) => a.next()?,
            (None, _) => b.next()?,
        };
        Some((key, rec, None))
    })
}

/// One whole in-process sweep for this crate's tests:
/// [`prepare_sweep`] + [`execute_sweep`], cold when `prior` is `None`.
#[cfg(test)]
pub(crate) fn sweep_in_process(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    universe: &[Prefix],
    prior: Option<&SweepSnapshot>,
) -> (CacheProbeResult, SweepSnapshot) {
    let mut timings = Vec::new();
    let prep = prepare_sweep(sim, cfg, universe, &mut timings, prior);
    execute_sweep(sim, cfg, prep, &mut timings)
}

/// Registry state at the start of a stage. [`Window::close`] returns
/// everything that landed on this process since — probe counters, fault
/// counters, the resolver's `gpdns.*` ledger — as a replayable delta:
/// the calibration stage's, the sweep's probing window, or the part of
/// a shard's work a remote driver cannot see unless the delta carries
/// it.
struct Window {
    pre: clientmap_telemetry::MetricsSnapshot,
}

impl Window {
    fn open(sim: &Sim) -> Window {
        Window {
            pre: sim.metrics().snapshot(),
        }
    }

    fn close(self, sim: &Sim) -> MetricsDelta {
        sim.metrics().snapshot().delta_from(&self.pre)
    }
}

/// What probing any unit of a prepared sweep reads: the bound vantages,
/// their telemetry handles, the per-domain query templates, the window
/// start and the sweep's identity. Identical in every process that
/// prepared the same sweep, and never consumed — the merge lends it to
/// its rescue dispatch while it owns everything else in the prep.
struct ProbeCtx {
    fc: Option<FaultCounters>,
    bound: Vec<BoundVantage>,
    templates: Vec<wire::ProbeQueryTemplate>,
    pop_metrics: Vec<ProbeMetrics>,
    t0: SimTime,
    world_seed: u64,
    config_digest: u64,
}

/// The sweep's preamble, paused at the start of the probing window:
/// bound vantages, calibration, scope→PoP assignment, the (warm)
/// planner's live unit list, the skipped records it carries forward,
/// and the result shell the finished record table completes.
///
/// Everything in here is a pure function of ⟨world seed, probing
/// config, universe, prior snapshot⟩, so two processes that prepare the
/// same sweep hold identical prep state. That is the property the
/// distributed driver/worker split builds on: a worker can probe any
/// unit shard ([`probe_shard`]) and ship back a delta that the driver
/// merges ([`merge_shards`]) — and the single-process [`execute_sweep`]
/// is that same seam with one local shard.
pub struct SweepPrep {
    ctx: ProbeCtx,
    /// Scopes assigned to each bound vantage, per domain, indexed like
    /// `ctx.bound` — the [`Preamble`]'s kept lists, borrowed.
    assigned: Assignment,
    units: Vec<ProbeUnit>,
    /// The prior's record table (shared; empty without a prior), and
    /// the ascending indexes of the records the plan carries from it.
    prior_records: RecordTable,
    skipped: Vec<usize>,
    extrapolated: Vec<ExtrapolatedSlot>,
    /// The planner emitted zero probe work: `snapshot` already holds
    /// the prior's records, fault accounting, window delta and
    /// confidence tags, and the merge only replays the delta.
    full_skip: bool,
    /// Domains, bound vantages, radii and assignment sizes; the record
    /// table and its totals are the merge's.
    shell: CacheProbeResult,
    snapshot: SweepSnapshot,
    /// When the probing window opened: the `probing` stage's start.
    stage: Instant,
    /// Opened at the probing-window start; the sweep's stored metrics
    /// delta is measured from here.
    window: Window,
}

impl SweepPrep {
    /// Live probe units the planner emitted (the shardable work list).
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// True when a warm plan skipped everything — nothing to shard.
    pub fn warm_full_skip(&self) -> bool {
        self.full_skip
    }

    /// Seed of the world this sweep measures.
    pub fn world_seed(&self) -> u64 {
        self.ctx.world_seed
    }

    /// Digest of the probing-relevant configuration.
    pub fn config_digest(&self) -> u64 {
        self.ctx.config_digest
    }

    /// True when the sweep runs under fault injection. Faulted shards
    /// ship per-PoP fault books alongside their deltas so the driver
    /// can quarantine globally and plan the rescue phase.
    pub fn faulted(&self) -> bool {
        self.ctx.fc.is_some()
    }

    /// Bound vantages in this prep — the valid `bound_idx` range for
    /// wire-decoded rescue units.
    pub fn num_bound(&self) -> usize {
        self.ctx.bound.len()
    }

    /// Selected domains in this prep — the valid `domain` range for
    /// wire-decoded rescue units.
    pub fn num_domains(&self) -> usize {
        self.ctx.templates.len()
    }
}

/// Runs discovery, domain selection, the scope pre-scan, calibration,
/// PoP assignment, unit building, and warm planning — everything up to
/// (but not including) the probing window — and returns the paused
/// [`SweepPrep`]. A whole in-process sweep is [`prepare_sweep_in`] +
/// [`execute_sweep`] (`clientmap_core::LocalSweep`). This one lends a
/// fresh [`Preamble`], so it scans and assigns as a session of one
/// sweep would: one-shot runs and fleet worker jobs.
///
/// Each step pushes its wall time onto `timings`: `vantage_discovery`,
/// `scope_scan`, `calibration`, `assignment` and `planning`.
/// [`execute_sweep`] (or [`merge_shards`]) then pushes `probing`,
/// `rescue` under faults, and `fold`, so the stages tile the sweep.
///
/// With a `prior`, the planner probes only what is new, dirty, in need
/// of rescue or expired, and the rest is replayed from the snapshot.
/// The caller validates `prior` against the current world seed and
/// config digest (the pipeline layer does); this function trusts its
/// key space.
pub fn prepare_sweep(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    universe: &[Prefix],
    timings: &mut Vec<(String, f64)>,
    prior: Option<&SweepSnapshot>,
) -> SweepPrep {
    prepare_sweep_in(sim, cfg, universe, &mut Preamble::default(), timings, prior)
}

/// [`prepare_sweep`] with a [`Preamble`] lent by the caller: the scope
/// scan and the PoP assignment are taken from it when its keys match
/// this sweep's, and kept in it otherwise. Everything else — and all
/// per-sweep bookkeeping of the assignment (the result shell's
/// `assigned_per_pop`, the `assignment_size` histogram, the per-PoP
/// `assigned` counters, the unit lists) — runs every sweep, so a kept
/// preamble moves no byte.
pub fn prepare_sweep_in(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    universe: &[Prefix],
    preamble: &mut Preamble,
    timings: &mut Vec<(String, f64)>,
    prior: Option<&SweepSnapshot>,
) -> SweepPrep {
    let seed = sim.world().config.seed;

    // Fault-injection bookkeeping: counters resolve only when the
    // sim's plan is enabled, so fault-free runs register nothing new
    // and stay byte-identical to the pre-fault pipeline.
    let fc = sim
        .fault_plan()
        .enabled()
        .then(|| FaultCounters::resolve(sim.metrics()));

    // 1. Vantage discovery (optionally capped for ablations). Under
    //    fault injection each VM retries its myaddr exchange.
    let stage = Instant::now();
    let mut bound = discover_with(sim, SimTime::ZERO, fc.as_ref());
    if let Some(cap) = cfg.max_pops {
        bound.truncate(cap);
    }
    // One vantage per PoP, in PoP order: calibration replay, assignment
    // and quarantine all index PoPs by bound position.
    assert!(
        bound.windows(2).all(|w| w[0].pop < w[1].pop),
        "bound vantages must be strictly ascending by PoP"
    );
    timings.push(("vantage_discovery".into(), stage.elapsed().as_secs_f64()));

    // 2. Domain selection + authoritative scope pre-scan.
    let stage = Instant::now();
    let domains = select_domains(sim, cfg);
    preamble.scan_for(sim, &domains, universe);
    timings.push(("scope_scan".into(), stage.elapsed().as_secs_f64()));

    // 3. Service-radius calibration (start a few hours in, so caches
    //    reflect steady-state client activity), as one stage whose
    //    registry delta is measured. A fault-free warm re-sweep whose
    //    prior calibrated exactly these PoPs replays it — radii from the
    //    records, resolver counters from the stored delta — without
    //    drawing the sample; anything else calibrates every bound PoP
    //    live.
    let stage = Instant::now();
    let cal_window = Window::open(sim);
    let replay = prior.filter(|_| fc.is_none()).filter(|p| {
        p.calibration
            .iter()
            .map(|r| r.pop)
            .eq(bound.iter().map(|b| b.pop as u64))
    });
    let radii = match replay {
        Some(prior) => {
            sim.metrics().absorb_delta(&prior.calibration_metrics);
            ServiceRadii::from_records(&prior.calibration)
        }
        None => {
            let sample = sample_prefixes(sim, universe, cfg.calibration_sample, seed ^ 0xCA11);
            calibrate(sim, &bound, &domains, &sample, cfg, SimTime::from_hours(6))
        }
    };
    // Only fault-free sweeps capture calibration: a faulted pass must
    // not seed the next sweep's radii.
    let captured = fc
        .is_none()
        .then(|| (radii.records(), cal_window.close(sim)));
    timings.push(("calibration".into(), stage.elapsed().as_secs_f64()));

    // 4. Scope → PoP assignment by service radius.
    let stage = Instant::now();
    let assigned = preamble.assignment(sim, &bound, &radii);
    timings.push(("assignment".into(), stage.elapsed().as_secs_f64()));

    // 5. The probing loops: one work unit per ⟨PoP, domain⟩ stream,
    //    fanned out over the deterministic executor, built and planned
    //    here from the assignment.
    let stage = Instant::now();
    let t0 = SimTime::from_hours(8);
    let metrics = Arc::clone(sim.metrics());
    metrics.counter("cacheprobe.runs").inc();
    metrics
        .counter("cacheprobe.pops_bound")
        .add(bound.len() as u64);
    metrics
        .counter("cacheprobe.domains_selected")
        .add(domains.len() as u64);
    let assignment_sizes = metrics.histogram("cacheprobe.assignment_size");
    let mut shell = CacheProbeResult::new(domains.clone(), bound.clone(), radii);

    // Telemetry handles (one table per bound PoP) and query templates
    // (one per domain), resolved/rendered once — nothing in the fan-out
    // formats a metric name or encodes a domain name again.
    let pops = clientmap_sim::pop_catalog();
    let pop_metrics: Vec<ProbeMetrics> = bound
        .iter()
        .map(|b| ProbeMetrics::resolve(&metrics, pops[b.pop].code))
        .collect();
    let templates: Vec<wire::ProbeQueryTemplate> =
        domains.iter().map(wire::ProbeQueryTemplate::new).collect();
    let mut units: Vec<ProbeUnit> = Vec::new();
    for (bi, (b, per_domain)) in bound.iter().zip(assigned.iter()).enumerate() {
        let size = per_domain.iter().map(Vec::len).sum::<usize>();
        shell.assigned_per_pop.insert(b.pop, size);
        assignment_sizes.record(size as u64);
        pop_metrics[bi].assigned.add(size as u64);
        for (d, scopes) in per_domain.iter().enumerate() {
            if !scopes.is_empty() {
                units.push(ProbeUnit {
                    bound_idx: bi,
                    domain: d,
                    scopes: scopes.clone(),
                });
            }
        }
    }

    // Planning: pick the [`ProbePlan`] for this sweep — warm starts
    // classify every assigned ⟨vantage, domain, scope⟩ instance against
    // the prior snapshot (probe again only when new, quarantine-dirty,
    // rescue-worthy, or expired under the rotating freshness budget);
    // cold runs take the exhaustive pass-through; `clustered_probing`
    // swaps in the clustered planner. All three ride the same
    // `plan_units` seam.
    let digest = sweep::config_digest(sim, cfg, universe);
    let epoch = prior.map_or(1, |p| p.epoch + 1);
    let mut snapshot = SweepSnapshot::new(seed, digest);
    snapshot.epoch = epoch;
    // This sweep's calibration (captured live or replayed forward)
    // persists with the snapshot, so the next warm run can skip the
    // sample draw and the probing behind it.
    if let Some((records, metrics)) = captured {
        snapshot.calibration = records;
        snapshot.calibration_metrics = metrics;
    }
    let mut warm_plan = WarmStartPlan {
        world_seed: seed,
        epoch,
        expiry_budget: cfg.expiry_budget,
    };
    let mut clustered = cfg
        .clustered_probing
        .then(|| ClusteredPlan::new(sim.world(), cfg, seed, prior.is_some().then_some(warm_plan)));
    let plan: &mut dyn ProbePlan = match &mut clustered {
        Some(c) => c,
        None if prior.is_some() => &mut warm_plan,
        None => &mut ExhaustivePlan,
    };
    let PlanOutcome {
        live_units: units,
        skipped,
        extrapolated,
        stats,
    } = plan_units(plan, units, prior, &bound);
    let mut warm_full_skip = false;
    if plan.records_stats() {
        // Planner accounting, warm runs only (cold runs register none
        // of these, keeping cold telemetry byte-identical to before
        // warm starts existed). The conservation laws — planned +
        // skipped_warm == universe, and the reasons sum to planned —
        // are re-checked by `clientmap-core`'s invariant layer.
        metrics
            .counter("cacheprobe.planner.universe")
            .add(stats.universe);
        metrics
            .counter("cacheprobe.planner.planned")
            .add(stats.planned);
        metrics
            .counter("cacheprobe.planner.skipped_warm")
            .add(stats.skipped_warm);
        metrics.counter("cacheprobe.planner.new").add(stats.new);
        metrics.counter("cacheprobe.planner.dirty").add(stats.dirty);
        metrics
            .counter("cacheprobe.planner.rescued")
            .add(stats.rescued);
        metrics
            .counter("cacheprobe.planner.expired")
            .add(stats.expired);
        metrics
            .counter("cacheprobe.planner.units")
            .add(units.len() as u64);
        warm_full_skip = stats.planned == 0;
    }
    if let Some(cs) = plan.cluster_stats() {
        // Cluster accounting, clustered sweeps only (exhaustive and
        // warm runs register none of these, keeping their telemetry
        // byte-identical). Like the planner counters this sits outside
        // the probing-window delta below: plan accounting describes
        // this run, never the window a snapshot replays. The
        // conservation law — representatives + extrapolated +
        // escalated == planned_universe — is re-checked by
        // `clientmap-core`'s invariant layer.
        metrics
            .counter("cacheprobe.cluster.planned_universe")
            .add(cs.planned_universe);
        metrics
            .counter("cacheprobe.cluster.representatives")
            .add(cs.representatives);
        metrics
            .counter("cacheprobe.cluster.extrapolated")
            .add(cs.extrapolated);
        metrics
            .counter("cacheprobe.cluster.escalated")
            .add(cs.escalated);
        metrics
            .counter("cacheprobe.cluster.clusters")
            .add(cs.clusters);
    }

    // A full skip carries the prior forward under the new epoch: its
    // record table shared, not copied, with the views its own sweep
    // built; its fault accounting, window delta and confidence tags
    // (the provenance of a copied verdict, and its escalation trigger,
    // must survive however many all-replay epochs sit between clustered
    // sweeps).
    let prior_records = prior.map(|p| p.records.clone()).unwrap_or_default();
    if warm_full_skip {
        let prior = prior.expect("full skip implies a prior snapshot");
        snapshot.records = prior_records.clone();
        snapshot.fault = prior.fault.clone();
        snapshot.metrics = prior.metrics.clone();
        snapshot.confidence = prior.confidence.clone();
    }
    timings.push(("planning".into(), stage.elapsed().as_secs_f64()));

    // The probing-window telemetry delta starts here. The preamble
    // (discovery through assignment) and the planner counters sit
    // outside the window — a warm run re-records them live — while
    // carried and extrapolated records, live probing, and the rescue
    // sweep all land inside it, so absorbing a snapshot's delta
    // reproduces exactly the window a full skip elides. The `probing`
    // wall-clock stage starts with it, so no planner time is counted
    // there as well as in `planning`.
    let stage = Instant::now();
    let window = Window::open(sim);

    SweepPrep {
        ctx: ProbeCtx {
            fc,
            bound,
            templates,
            pop_metrics,
            t0,
            world_seed: seed,
            config_digest: digest,
        },
        assigned,
        units,
        prior_records,
        skipped,
        extrapolated,
        full_skip: warm_full_skip,
        shell,
        snapshot,
        stage,
        window,
    }
}

/// Runs the probing window (and, under fault injection, the rescue
/// sweep) for a prepared sweep in this process — the tail of an
/// in-process sweep, and literally the fleet seam with one local
/// shard: the whole unit list probes as shard 0 and finishes through
/// the merge a fleet driver runs.
///
/// The local-delta rule: a shard probed on the merging `Sim` has
/// already landed its probe and resolver counters on this registry, so
/// its delta reaches the merge with an empty `metrics` block
/// ([`main_delta`] and [`rescue_delta`] never fill it; only the
/// public, shipping [`probe_shard`]/[`probe_rescue_shard`] open a
/// [`Window`]). The merge's absorb step is then a no-op for it instead
/// of a double count, and everything else — staging, quarantine,
/// rescue, table assembly, the views — is the one code path.
pub fn execute_sweep(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    prep: SweepPrep,
    timings: &mut Vec<(String, f64)>,
) -> (CacheProbeResult, SweepSnapshot) {
    // A warm full skip planned no units: the local shard is empty and
    // the merge carries the prior snapshot forward wholesale.
    let (delta, book) = main_delta(sim, cfg, &prep.ctx, &prep.units, 0);
    merge_inner(
        sim,
        cfg,
        prep,
        vec![delta],
        book,
        |sim, ctx, units| Ok(vec![rescue_delta(sim, cfg, ctx, &units, 0)]),
        timings,
    )
    .expect("one local shard over the prep's own unit list is a complete, disjoint cover")
}

/// The scope of a record key: keys are built from probed prefixes, and
/// the decoder refuses any key that is not one.
fn key_scope(addr: u32, len: u8) -> Prefix {
    Prefix::new(addr, len).expect("record keys hold prefixes")
}

/// The ⟨domain, scope⟩ pairs a record table measured: those with a
/// record that saw at least one probe event, at any vantage.
fn measured_pairs(records: &RecordTable) -> impl Iterator<Item = (usize, Prefix)> + '_ {
    records
        .iter()
        .filter(|(_, rec)| rec.attempts > 0)
        .map(|((_, d, addr, len), _)| (d as usize, key_scope(addr, len)))
}

/// The deterministic quarantine rule over the sweep's canonical fault
/// book ([`merge_fault_books`]): a PoP is quarantined when any stream
/// through it tripped the circuit breaker, or when it lost most of a
/// meaningful probe volume. Returns the quarantined bound positions,
/// ascending — so in PoP order, as `bound` is.
fn quarantine(bound: &[BoundVantage], book: &[PopHealth]) -> Vec<usize> {
    (0..bound.len())
        .filter(|&bi| {
            book.iter().any(|h| {
                h.pop == bound[bi].pop
                    && (h.tripped || (h.attempts >= 20 && h.drops * 2 > h.attempts))
            })
        })
        .collect()
}

/// Plans the rescue phase for a quarantine set (bound positions):
/// scopes assigned to a quarantined PoP and never measured anywhere are
/// re-probed once at the nearest healthy bound PoP whose doubled
/// service radius (plus the scope's geolocation error) still covers
/// them. A pure function of the record table's measured set and the
/// quarantine set, so the driver and a single-process sweep plan
/// byte-identical rescues.
fn plan_rescue_units(
    sim: &Sim,
    bound: &[BoundVantage],
    assigned: &[Vec<Vec<Prefix>>],
    radii: &ServiceRadii,
    measured: &HashSet<(usize, Prefix)>,
    quarantined: &[usize],
) -> Vec<ProbeUnit> {
    let pops = clientmap_sim::pop_catalog();

    // Scopes needing rescue: assigned to at least one quarantined
    // PoP and never measured anywhere.
    let mut need: Vec<(usize, Prefix)> = Vec::new();
    let mut seen = HashSet::new();
    for &bi in quarantined {
        for key in pairs(&assigned[bi]) {
            if !measured.contains(&key) && seen.insert(key) {
                need.push(key);
            }
        }
    }
    need.sort();

    // Fallback: the nearest healthy bound PoP whose doubled service
    // radius (plus the scope's geolocation error) still covers it.
    let mut rescue: BTreeMap<(usize, usize), Vec<Prefix>> = BTreeMap::new();
    for (d, scope) in &need {
        let geo = {
            let geodb = &sim.world().geodb;
            geodb.locate(*scope).map(|e| (e.coord, e.error_radius_km))
        };
        let Some((coord, err_km)) = geo else { continue };
        let mut fallback: Option<(f64, usize)> = None;
        for (bi, b) in bound.iter().enumerate() {
            if quarantined.contains(&bi) {
                continue;
            }
            let dist = coord.distance_km(&pops[b.pop].coord);
            let radius = radii.radius(b.pop);
            if dist <= 2.0 * radius + err_km && fallback.is_none_or(|(best, _)| dist < best) {
                fallback = Some((dist, bi));
            }
        }
        if let Some((_, bi)) = fallback {
            rescue.entry((bi, *d)).or_default().push(*scope);
        }
    }
    rescue
        .into_iter()
        .map(|((bi, d), scopes)| ProbeUnit {
            bound_idx: bi,
            domain: d,
            scopes,
        })
        .collect()
}

/// One PoP's entry in a shard's fault book — the per-PoP stream
/// accounting a faulted shard ships back to its driver so quarantine
/// can be decided globally. Canonical form is one entry per PoP,
/// sorted by PoP id (see [`merge_fault_books`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopHealth {
    /// PoP the entry describes.
    pub pop: PopId,
    /// Probe slots attempted through this PoP's streams.
    pub attempts: u64,
    /// Probe slots lost after all retries — the quarantine loss signal.
    pub drops: u64,
    /// Whether any stream through this PoP tripped its circuit breaker.
    pub tripped: bool,
}

/// Folds any number of (possibly partial, possibly unsorted) fault
/// books into canonical form: one entry per PoP sorted by PoP id,
/// attempts and drops summed, breaker trips OR-ed. The fold is
/// associative and order-invariant, so merging per-shard books in any
/// grouping yields the same global book — the driver's quarantine
/// decision cannot depend on delta arrival order.
pub fn merge_fault_books(books: &[PopHealth]) -> Vec<PopHealth> {
    let mut merged: BTreeMap<PopId, (u64, u64, bool)> = BTreeMap::new();
    for h in books {
        let e = merged.entry(h.pop).or_default();
        e.0 += h.attempts;
        e.1 += h.drops;
        e.2 |= h.tripped;
    }
    merged
        .into_iter()
        .map(|(pop, (attempts, drops, tripped))| PopHealth {
            pop,
            attempts,
            drops,
            tripped,
        })
        .collect()
}

/// The ordered reduction: each unit's scopes zipped with its slot
/// records, in unit order — a pure function of the work list, never of
/// the thread interleaving — keeping the records `keep` accepts. Units
/// partition the key space and each runs in key order, so the table
/// builds from one ascending run. Per-PoP health (attempts, lost
/// events, breaker trips) is summed from each unit's records as the
/// shard's canonical fault book.
fn fold_tallies(
    bound: &[BoundVantage],
    units: &[ProbeUnit],
    tallies: Vec<UnitRecords>,
    keep: impl Fn(&ScopeRecord) -> bool,
) -> (RecordTable, Vec<PopHealth>) {
    let book: Vec<PopHealth> = units
        .iter()
        .zip(&tallies)
        .map(|(u, (records, tripped))| PopHealth {
            pop: bound[u.bound_idx].pop,
            attempts: records.iter().map(|r| r.attempts).sum(),
            drops: records.iter().map(|r| r.drops).sum(),
            tripped: *tripped,
        })
        .collect();
    let slots = || tallies.iter().flat_map(|(records, _)| records);
    let mut table = RecordTableBuilder::with_capacity(
        slots().count(),
        slots().map(|r| r.hit_events.len()).sum(),
    );
    for (u, (records, _)) in units.iter().zip(&tallies) {
        for (&scope, rec) in u.scopes.iter().zip(records) {
            if keep(rec) {
                table.push(record_key(u.bound_idx, u.domain, scope), rec.view());
            }
        }
    }
    (table.finish(), merge_fault_books(&book))
}

/// A shard delta carrying `records`, shard id in `epoch`, with an
/// empty `metrics` block — a [`Window`] fills it for deltas that leave
/// the process.
fn shard_delta(ctx: &ProbeCtx, shard_id: u32, records: RecordTable) -> SweepSnapshot {
    let mut delta = SweepSnapshot::new(ctx.world_seed, ctx.config_digest);
    delta.epoch = shard_id;
    delta.records = records;
    delta
}

/// Probes main-window units and reduces them to a delta plus the
/// shard's fault book (empty when fault-free). Every planned scope
/// keeps its slot record, so one with no probe event — a
/// breaker-aborted stream — is an explicit empty record: the merge's
/// completeness check (and the next warm planner, for which it is the
/// rescue signal) must see it as measured-but-empty, not missing.
fn main_delta(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    ctx: &ProbeCtx,
    units: &[ProbeUnit],
    shard_id: u32,
) -> (SweepSnapshot, Vec<PopHealth>) {
    let view = sim.view();
    let tallies: Vec<UnitRecords> = par_map(units, |_, u| {
        probe_unit(
            &view,
            &ctx.bound[u.bound_idx],
            &ctx.templates[u.domain],
            &u.scopes,
            cfg,
            ctx.t0,
            &ctx.pop_metrics[u.bound_idx],
            ctx.fc.as_ref(),
        )
    });
    let (records, book) = fold_tallies(&ctx.bound, units, tallies, |_| true);
    let book = if ctx.fc.is_some() { book } else { Vec::new() };
    (shard_delta(ctx, shard_id, records), book)
}

/// Probes rescue units, resilient, and reduces them to a delta. Each unit gets a one-pass window — its slot budget covers
/// the scope list exactly once — starting one minute after the main
/// probing window closes. Unlike the main phase, unprobed rescue scopes
/// keep no record: a rescue record means "this scope was re-probed",
/// and the merge counts them.
fn rescue_delta(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    ctx: &ProbeCtx,
    units: &[ProbeUnit],
    shard_id: u32,
) -> SweepSnapshot {
    let fc = ctx
        .fc
        .as_ref()
        .expect("rescue shards only exist under fault injection");
    let t_rescue =
        ctx.t0 + SimTime::from_secs_f64(cfg.duration_hours * 3600.0) + SimTime::from_secs(60);
    let view = sim.view();
    let tallies: Vec<UnitRecords> = par_map(units, |_, u| {
        let mut one_pass = cfg.clone();
        one_pass.duration_hours = (u.scopes.len() as f64 / RATE_PER_DOMAIN) / 3600.0;
        probe_unit(
            &view,
            &ctx.bound[u.bound_idx],
            &ctx.templates[u.domain],
            &u.scopes,
            &one_pass,
            t_rescue,
            &ctx.pop_metrics[u.bound_idx],
            Some(fc),
        )
    });
    let records = fold_tallies(&ctx.bound, units, tallies, |rec| rec.attempts > 0).0;
    shard_delta(ctx, shard_id, records)
}

/// Probes one contiguous shard of a prepared sweep's unit list and
/// returns the shard's delta as a [`SweepSnapshot`] — the payload a
/// fleet worker streams back to its driver, riding the snapshot byte
/// codec as the wire format. The shard id travels in the snapshot's
/// `epoch` field.
///
/// Record keys are disjoint across disjoint shards (units partition
/// the key space by ⟨vantage, domain⟩ and scopes never repeat within a
/// unit list), so a driver can merge any cover of the unit list with
/// no key conflicts. Under fault injection the shard also returns its
/// fault book — the per-PoP health its own units observed — which the
/// driver folds across shards ([`merge_fault_books`]) to take the
/// global quarantine decision; fault-free shards return an empty book.
pub fn probe_shard(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    prep: &SweepPrep,
    shard: std::ops::Range<usize>,
    shard_id: u32,
) -> (SweepSnapshot, Vec<PopHealth>) {
    let hi = prep.units.len();
    let units = &prep.units[shard.start.min(hi)..shard.end.min(hi)];
    let window = Window::open(sim);
    let (mut delta, book) = main_delta(sim, cfg, &prep.ctx, units, shard_id);
    delta.metrics = window.close(sim);
    (delta, book)
}

/// Probes a driver-planned rescue shard — a slice of the global rescue
/// unit list — and returns its delta in the same snapshot codec as
/// [`probe_shard`], shard id in `epoch`. Rescue units target the
/// *fallback* vantage of scopes nothing measured, so their record keys
/// only ever collide with all-zero main-phase records and the driver
/// can fold rescue deltas additively.
pub fn probe_rescue_shard(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    prep: &SweepPrep,
    units: &[ProbeUnit],
    shard_id: u32,
) -> SweepSnapshot {
    let window = Window::open(sim);
    let mut delta = rescue_delta(sim, cfg, &prep.ctx, units, shard_id);
    delta.metrics = window.close(sim);
    delta
}

/// Why a set of shard deltas could not be merged into a sweep. The
/// merge validates every delta before committing anything, so an `Err`
/// leaves no partial-merge corruption behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMergeError {
    /// A delta was produced against a different world seed or config
    /// digest than this driver's prep.
    ForeignDelta {
        /// Shard id the offending delta carried.
        shard: u32,
        /// World seed the delta was produced against.
        world_seed: u64,
        /// Config digest the delta was produced against.
        config_digest: u64,
    },
    /// Two deltas claimed the same record slot — shards overlapped, or
    /// one shard's delta was merged twice.
    OverlappingShards {
        /// Shard id of the second delta to claim the slot.
        shard: u32,
    },
    /// After staging every delta, this many planned scopes still had
    /// no record — a shard was never probed or its delta never arrived.
    MissingScopes {
        /// Number of planned scopes with no record.
        missing: u64,
    },
    /// The rescue dispatch failed: the driver could not get the
    /// planned rescue units probed (worker loss, transport failure).
    Rescue(String),
}

impl std::fmt::Display for ShardMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ForeignDelta {
                shard,
                world_seed,
                config_digest,
            } => write!(
                f,
                "shard {shard} delta was produced for a different sweep \
                 (world seed {world_seed:#x}, config digest {config_digest:#x})"
            ),
            Self::OverlappingShards { shard } => {
                write!(f, "shard {shard} delta overlaps records already staged")
            }
            Self::MissingScopes { missing } => {
                write!(f, "{missing} planned scopes missing from shard deltas")
            }
            Self::Rescue(msg) => write!(f, "rescue phase failed: {msg}"),
        }
    }
}

impl std::error::Error for ShardMergeError {}

/// One phase's shard deltas, staged: records gathered into one table,
/// each delta's telemetry block set aside. Staging touches neither the
/// sim nor the snapshot, so an `Err` anywhere before [`Staged::commit`]
/// leaves no partial-merge corruption behind.
struct Staged {
    records: RecordTable,
    effects: Vec<MetricsDelta>,
}

impl Staged {
    /// Stages and validates (provenance, disjointness) a phase's
    /// deltas. Shard order is canonical: sort by shard id so the merge
    /// is a pure function of the delta *set*, not the arrival order
    /// over the wire. The first delta, in shard order, that is foreign
    /// or claims a slot an earlier one holds is the error. A lone
    /// non-empty delta's table is taken whole — a local sweep must not
    /// pay for a second record table.
    fn stage(ctx: &ProbeCtx, mut deltas: Vec<SweepSnapshot>) -> Result<Staged, ShardMergeError> {
        deltas.sort_by_key(|d| d.epoch);
        let foreign = deltas
            .iter()
            .position(|d| d.world_seed != ctx.world_seed || d.config_digest != ctx.config_digest);
        let records = Staged::gather(&deltas);
        let overlap = records.as_ref().err().copied();
        if let Some(d) = foreign
            .filter(|&f| overlap.is_none_or(|o| f <= o))
            .map(|f| &deltas[f])
        {
            return Err(ShardMergeError::ForeignDelta {
                shard: d.epoch,
                world_seed: d.world_seed,
                config_digest: d.config_digest,
            });
        }
        let records = records.map_err(|o| ShardMergeError::OverlappingShards {
            shard: deltas[o].epoch,
        })?;
        Ok(Staged {
            records,
            effects: deltas.into_iter().map(|d| d.metrics).collect(),
        })
    }

    /// The union of the deltas' tables, or as `Err` the position of the
    /// first delta holding a key an earlier one holds: one stable sort
    /// of every key, in whatever order the shards' key ranges come.
    fn gather(deltas: &[SweepSnapshot]) -> Result<RecordTable, usize> {
        let tables: Vec<&RecordTable> = deltas
            .iter()
            .map(|d| &d.records)
            .filter(|t| !t.is_empty())
            .collect();
        if let [one] = tables[..] {
            return Ok(one.clone());
        }
        let total = tables.iter().map(|t| t.len()).sum();
        let hits = tables.iter().map(|t| t.num_hit_events()).sum();
        // (key, delta position, record index), stable-sorted by key so
        // equal keys stay in shard order.
        let mut all: Vec<(RecordKey, usize, usize)> = Vec::with_capacity(total);
        for (pos, d) in deltas.iter().enumerate() {
            all.extend(
                d.records
                    .keys()
                    .iter()
                    .enumerate()
                    .map(|(i, &k)| (k, pos, i)),
            );
        }
        all.sort_by_key(|&(k, ..)| k);
        let overlap = all
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1)
            .min();
        if let Some(pos) = overlap {
            return Err(pos);
        }
        let mut table = RecordTableBuilder::with_capacity(total, hits);
        for (key, pos, i) in all {
            table.push(key, deltas[pos].records.record(i));
        }
        Ok(table.finish())
    }

    /// Commits the phase: telemetry blocks absorb additively into the
    /// registry (an empty block — a local shard's — absorbs as
    /// nothing). Returns the record table.
    fn commit(self, sim: &Sim) -> RecordTable {
        for delta in &self.effects {
            sim.metrics().absorb_delta(delta);
        }
        self.records
    }
}

/// Driver-side merge: folds checksummed per-shard deltas into the
/// prepared sweep, producing the same `(result, snapshot)` pair —
/// byte-for-byte — at any (worker, thread) combination, the
/// single-process [`execute_sweep`] (one local shard) included.
///
/// Deltas are staged and fully validated (provenance, disjointness,
/// completeness) before anything commits. The merge then assembles the
/// sweep's record table, and the result is that table, shared with the
/// snapshot, with its views built once in the `fold` stage.
///
/// Under fault injection the workers' fault books fold into a global
/// book ([`merge_fault_books`]), the driver takes the quarantine
/// decision from it, and — when any scope needs rescuing — the `rescue`
/// callback dispatches the planned rescue units back to the fleet
/// (returning one delta per rescue shard, typically from
/// [`probe_rescue_shard`]). Rescue records merge into the table after
/// the main ones, and the fault-accounting conservation laws hold on
/// the result.
pub fn merge_shards(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    prep: SweepPrep,
    deltas: Vec<SweepSnapshot>,
    books: Vec<PopHealth>,
    mut rescue: impl FnMut(Vec<ProbeUnit>) -> Result<Vec<SweepSnapshot>, String>,
    timings: &mut Vec<(String, f64)>,
) -> Result<(CacheProbeResult, SweepSnapshot), ShardMergeError> {
    merge_inner(
        sim,
        cfg,
        prep,
        deltas,
        books,
        |_, _, units| rescue(units),
        timings,
    )
}

/// [`merge_shards`] with a rescue callback that is lent the merging
/// `Sim` and the prep's [`ProbeCtx`] — what a local rescue shard probes
/// with, and what a by-value `prep` plus an outer `&mut Sim` could not
/// otherwise reach from inside the merge.
fn merge_inner(
    sim: &mut Sim,
    cfg: &ProbeConfig,
    prep: SweepPrep,
    deltas: Vec<SweepSnapshot>,
    books: Vec<PopHealth>,
    mut rescue: impl FnMut(&mut Sim, &ProbeCtx, Vec<ProbeUnit>) -> Result<Vec<SweepSnapshot>, String>,
    timings: &mut Vec<(String, f64)>,
) -> Result<(CacheProbeResult, SweepSnapshot), ShardMergeError> {
    let SweepPrep {
        ctx,
        assigned,
        units,
        prior_records,
        skipped,
        extrapolated,
        full_skip,
        shell,
        mut snapshot,
        stage,
        window,
    } = prep;

    if full_skip {
        // Nothing to probe: the snapshot already carries the prior
        // forward, and its stored window delta replays into the
        // registry.
        sim.metrics().absorb_delta(&snapshot.metrics);
        timings.push(("probing".into(), stage.elapsed().as_secs_f64()));
    } else {
        let staged = Staged::stage(&ctx, deltas)?;
        // The live units are in key order, so one cursor walks the
        // staged table once.
        let mut cursor = TableCursor::new(&staged.records);
        let missing = units
            .iter()
            .flat_map(|u| {
                u.scopes
                    .iter()
                    .map(move |s| record_key(u.bound_idx, u.domain, *s))
            })
            .filter(|&k| cursor.seek(k).is_none())
            .count() as u64;
        if missing > 0 {
            return Err(ShardMergeError::MissingScopes { missing });
        }

        // The record table: the live records, the extrapolated members
        // synthesized from them, and the warm-skipped carries (so the
        // next planner still sees them as measured) — three disjoint
        // key-ordered runs, merged once into one ascending build. A
        // member wins a slot over a live record, and either over a
        // carry. A sweep with nothing planned around its probes (cold,
        // or a warm one that re-probes everything) keeps its live table
        // as is.
        let live = staged.commit(sim);
        let mut table = if skipped.is_empty() && extrapolated.is_empty() {
            live
        } else {
            let (members, tags) =
                synthesize_members(&live, &extrapolated, &ctx.pop_metrics, cfg.redundancy);
            snapshot.confidence = tags;
            let carry = |i: usize| (prior_records.keys()[i], prior_records.record(i));
            // Carries are in key order, so each vantage's are one run.
            for run in skipped.chunk_by(|&a, &b| carry(a).0 .0 == carry(b).0 .0) {
                let m = &ctx.pop_metrics[usize::from(carry(run[0]).0 .0)];
                book(m, run.iter().map(|&i| carry(i).1), cfg.redundancy);
            }
            let runs = merge_ordered(
                merge_ordered(
                    members.iter().map(|(key, rec)| (*key, rec.view())),
                    live.iter(),
                )
                .map(|(key, rec, _)| (key, rec)),
                skipped.iter().map(|&i| carry(i)),
            );
            let member_hits: usize = members.iter().map(|(_, r)| r.hit_events.len()).sum();
            let carry_hits: usize = skipped.iter().map(|&i| carry(i).1.hit_events.len()).sum();
            let mut table = RecordTableBuilder::with_capacity(
                members.len() + live.len() + skipped.len(),
                member_hits + live.num_hit_events() + carry_hits,
            );
            for (key, rec, _) in runs {
                table.push(key, rec);
            }
            table.finish()
        };
        timings.push(("probing".into(), stage.elapsed().as_secs_f64()));

        // PoP quarantine + rescue sweep (fault injection only): PoPs
        // whose streams tripped the circuit breaker or lost most probes
        // are quarantined, and scopes they alone were meant to cover are
        // re-probed once at the nearest healthy PoP within a relaxed
        // (doubled) service radius. The rescue plan is a pure function
        // of the table's measured set, and rescue records merge into the
        // table *after* it is planned. Whatever still has no probe event
        // afterwards is reported as lost coverage, not silently absent.
        if let Some(fc) = &ctx.fc {
            let stage = Instant::now();
            let quarantined = quarantine(&ctx.bound, &merge_fault_books(&books));
            fc.quarantined_pops.add(quarantined.len() as u64);
            let mut measured: HashSet<(usize, Prefix)> = measured_pairs(&table).collect();
            let rescue_units = plan_rescue_units(
                sim,
                &ctx.bound,
                &assigned,
                &shell.service_radii,
                &measured,
                &quarantined,
            );
            let rescue_deltas = if rescue_units.is_empty() {
                Vec::new()
            } else {
                rescue(sim, &ctx, rescue_units).map_err(ShardMergeError::Rescue)?
            };
            let rescued = Staged::stage(&ctx, rescue_deltas)?.commit(sim);
            // Every rescue record is one rescued scope: rescue shards
            // record exactly the scopes their tallies touched, keyed by a
            // fallback vantage unique within the rescue plan.
            let rescued_scopes = rescued.len() as u64;
            fc.rescued.add(rescued_scopes);
            measured.extend(measured_pairs(&rescued));

            // Partial-result accounting: assigned pairs that never
            // produced a probe event are coverage the faults cost us.
            let all_assigned: HashSet<(usize, Prefix)> =
                assigned.iter().flat_map(|lists| pairs(lists)).collect();
            let unmeasured = all_assigned.difference(&measured).count() as u64;
            snapshot.fault = Some(FaultSummary {
                profile: sim.fault_plan().profile().as_str().to_string(),
                observed: fc.observed_total(),
                retries: fc.retries.get(),
                recovered: fc.recovered.get(),
                degraded: fc.degraded.get(),
                lost: fc.lost.get(),
                quarantined_pops: quarantined
                    .iter()
                    .map(|&bi| ctx.bound[bi].pop as u64)
                    .collect(),
                rescued_scopes,
                unmeasured_scopes: unmeasured,
                assigned_scopes: all_assigned.len() as u64,
            });

            // Rescue records merge additively: rescue keys only ever
            // collide with all-zero records (a rescued scope was measured
            // nowhere, so any record at its fallback vantage is empty).
            if !rescued.is_empty() {
                let mut out = RecordTableBuilder::with_capacity(
                    table.len() + rescued.len(),
                    table.num_hit_events() + rescued.num_hit_events(),
                );
                for (key, x, y) in merge_ordered(table.iter(), rescued.iter()) {
                    let Some(y) = y else {
                        out.push(key, x);
                        continue;
                    };
                    for &e in x.hit_events.iter().chain(y.hit_events) {
                        out.push_hit(e);
                    }
                    let (attempts, scope0) = (x.attempts + y.attempts, x.scope0 + y.scope0);
                    out.close(key, attempts, scope0, x.drops + y.drops);
                }
                table = out.finish();
            }
            timings.push(("rescue".into(), stage.elapsed().as_secs_f64()));
        }
        snapshot.records = table;
        snapshot.metrics = window.close(sim);
    }

    // The result is the snapshot's table itself, with its views: built
    // here for a table this sweep made (or decoded), already built for
    // one a full skip shares with its own sweep's prior.
    let stage = Instant::now();
    let result = CacheProbeResult {
        records: snapshot.records.clone(),
        probes_sent: snapshot.records.attempts_total() * u64::from(cfg.redundancy),
        fault: snapshot.fault.clone(),
        ..shell
    };
    timings.push(("fold".into(), stage.elapsed().as_secs_f64()));
    Ok((result, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use clientmap_world::{World, WorldConfig};

    fn run_tiny(seed: u64) -> (Sim, CacheProbeResult) {
        let world = World::generate(WorldConfig::tiny(seed));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        let mut sim = Sim::new(world);
        let mut cfg = ProbeConfig::test_scale();
        cfg.duration_hours = 2.0; // ≈ one pass over each list
        cfg.calibration_sample = 250;
        let result = sweep_in_process(&mut sim, &cfg, &universe, None).0;
        (sim, result)
    }

    /// One shared end-to-end run — the expensive part of this module's
    /// tests — reused by every read-only assertion below.
    fn shared_run() -> &'static (Sim, CacheProbeResult) {
        static RUN: std::sync::OnceLock<(Sim, CacheProbeResult)> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run_tiny(101))
    }

    #[test]
    fn technique_end_to_end_detects_activity() {
        let (sim, result) = shared_run();
        assert!(result.probes_sent > 0);
        let active = result.active_set();
        assert!(
            active.num_slash24s() > 0,
            "no active prefixes found ({} probes)",
            result.probes_sent
        );
        // Active space is a subset of the (routed) universe and every
        // detected /24 belongs to a prefix with real activity nearby —
        // precision is checked properly in the analysis crate.
        assert!(active.num_slash24s() <= sim.world().routed_slash24s() * 2);
    }

    #[test]
    fn probing_selects_paper_domains() {
        let world = World::generate(WorldConfig::tiny(102));
        let sim = Sim::new(world);
        let domains = select_domains(&sim, &ProbeConfig::default());
        let names: Vec<String> = domains.iter().map(|d| d.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "www.google.com",
                "www.youtube.com",
                "facebook.com",
                "www.wikipedia.org",
                "cdn.msvalidation.example",
            ]
        );
    }

    #[test]
    fn hits_record_scope_pairs_for_table2() {
        let (_, result) = shared_run();
        let total: u64 = result.scope_pairs().values().sum();
        assert!(total > 0, "no scope pairs recorded");
        // Most response scopes equal the query scope (Table 2: ~90%).
        let exact: u64 = result
            .scope_pairs()
            .iter()
            .filter(|((_, q, r), _)| q == r)
            .map(|(_, c)| *c)
            .sum();
        let frac = exact as f64 / total as f64;
        assert!(frac > 0.75, "exact-scope fraction {frac}");
    }

    #[test]
    fn per_pop_density_populated() {
        let (_, result) = shared_run();
        let with_hits = result
            .pop_hit_prefixes()
            .values()
            .filter(|s| s.num_slash24s() > 0)
            .count();
        assert!(with_hits >= 2, "only {with_hits} PoPs saw hits");
    }

    #[test]
    fn deterministic_run_even_across_thread_interleavings() {
        let (sim_a, a) = run_tiny(105);
        let (sim_b, b) = run_tiny(105);
        assert_eq!(a.probes_sent, b.probes_sent);
        assert_eq!(a.active_set().num_slash24s(), b.active_set().num_slash24s());
        assert_eq!(a.hits().len(), b.hits().len());
        // The telemetry snapshot — every counter and histogram in the
        // registry, gpdns and probe side alike — must also agree
        // byte-for-byte: all updates are commutative atomics, so thread
        // scheduling must not leak into totals.
        assert_eq!(
            sim_a.metrics().snapshot().to_json(),
            sim_b.metrics().snapshot().to_json()
        );
    }

    #[test]
    fn identical_results_at_one_two_and_eight_threads() {
        // The executor contract: worker count changes wall time only.
        // Results AND telemetry snapshots are byte-identical at 1, 2,
        // and 8 threads.
        let (sim_1, r_1) = clientmap_par::with_threads(1, || run_tiny(107));
        let snap_1 = sim_1.metrics().snapshot().to_json();
        for threads in [2usize, 8] {
            let (sim_n, r_n) = clientmap_par::with_threads(threads, || run_tiny(107));
            assert_eq!(r_1.probes_sent, r_n.probes_sent, "{threads} threads");
            assert_eq!(r_1.hits(), r_n.hits(), "{threads} threads");
            assert_eq!(r_1.probe_counts(), r_n.probe_counts(), "{threads} threads");
            assert_eq!(r_1.scope_pairs(), r_n.scope_pairs(), "{threads} threads");
            assert_eq!(
                r_1.active_set().num_slash24s(),
                r_n.active_set().num_slash24s(),
                "{threads} threads"
            );
            assert_eq!(
                snap_1,
                sim_n.metrics().snapshot().to_json(),
                "telemetry diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn probe_counters_reconcile_with_result() {
        let (sim, result) = shared_run();
        let snap = sim.metrics().snapshot();
        let attempts = snap.counter("cacheprobe.attempts");
        let redundancy = u64::from(ProbeConfig::test_scale().redundancy);
        assert_eq!(
            snap.counter("cacheprobe.probes_sent"),
            redundancy * attempts
        );
        assert_eq!(snap.counter("cacheprobe.probes_sent"), result.probes_sent);
        assert_eq!(
            snap.counter("cacheprobe.outcome.hit")
                + snap.counter("cacheprobe.outcome.scope0")
                + snap.counter("cacheprobe.outcome.miss")
                + snap.counter("cacheprobe.outcome.dropped"),
            attempts
        );
        // The fold's per-scope counts sum back to the outcome counters.
        let counts = result.probe_counts().iter().map(|(_, c)| c);
        assert_eq!(
            snap.counter("cacheprobe.outcome.scope0"),
            counts.clone().map(|c| c.scope0).sum::<u64>()
        );
        assert_eq!(
            snap.counter("cacheprobe.outcome.dropped"),
            counts.map(|c| c.drops).sum::<u64>()
        );
        // `result.hits()` aggregates by (domain, scope); sum the per-key
        // event counts to compare against the per-event counter.
        let hit_events: u64 = result.hits().iter().map(|(_, h)| h).map(|h| h.hits).sum();
        assert_eq!(snap.counter("cacheprobe.outcome.hit"), hit_events);
        // Per-PoP families sum back to the global counters.
        let pops = clientmap_sim::pop_catalog();
        let pop_attempts: u64 = pops
            .iter()
            .map(|p| snap.counter(&format!("cacheprobe.pop.{}.attempts", p.code)))
            .sum();
        let pop_hits: u64 = pops
            .iter()
            .map(|p| snap.counter(&format!("cacheprobe.pop.{}.hits", p.code)))
            .sum();
        assert_eq!(pop_attempts, attempts);
        assert_eq!(pop_hits, snap.counter("cacheprobe.outcome.hit"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

        /// Same seed ⇒ byte-identical metrics snapshots, for arbitrary
        /// seeds: the end-to-end determinism claim, stated as a property.
        #[test]
        fn metrics_snapshot_reproduces_for_any_seed(seed in 200u64..240) {
            let (sim_a, _) = run_tiny(seed);
            let (sim_b, _) = run_tiny(seed);
            proptest::prop_assert_eq!(
                sim_a.metrics().snapshot().to_json(),
                sim_b.metrics().snapshot().to_json()
            );
        }
    }

    /// A caller-built rescue unit may carry no scopes
    /// ([`probe_rescue_shard`] is public): its stream has no slots to
    /// fire, rather than a slot budget divided by zero.
    #[test]
    fn an_empty_scope_list_has_no_window_slots() {
        let cfg = ProbeConfig::test_scale();
        assert_eq!(window_slots(&cfg, 0, SimTime::ZERO).count(), 0);
        assert_eq!(
            window_slots(&cfg, 1, SimTime::ZERO).next(),
            Some((0, SimTime::ZERO))
        );
    }

    fn outcome_strategy() -> impl proptest::strategy::Strategy<Value = ProbeOutcome> {
        use proptest::prelude::*;
        prop_oneof![
            Just(ProbeOutcome::Dropped),
            Just(ProbeOutcome::Miss),
            Just(ProbeOutcome::HitScopeZero),
            Just(ProbeOutcome::Hit {
                scope: "10.0.0.0/24".parse().unwrap(),
                remaining_ttl: 11,
            }),
            Just(ProbeOutcome::Hit {
                scope: "10.9.0.0/20".parse().unwrap(),
                remaining_ttl: 77,
            }),
        ]
    }

    proptest::proptest! {
        /// Best-of-redundancy merging respects
        /// `Hit > HitScopeZero > Miss > Dropped` for every sequence of
        /// outcomes, and the winning payload is the first occurrence of
        /// the winning rank — exactly what the probe loops implement.
        #[test]
        fn merge_respects_outcome_ranking(
            seq in proptest::collection::vec(outcome_strategy(), 1..12)
        ) {
            use proptest::prelude::*;
            fn rank(o: &ProbeOutcome) -> u8 {
                match o {
                    ProbeOutcome::Dropped => 0,
                    ProbeOutcome::Miss => 1,
                    ProbeOutcome::HitScopeZero => 2,
                    ProbeOutcome::Hit { .. } => 3,
                }
            }
            // Fold exactly as the probe loops do, early Hit return and
            // all.
            let mut best = ProbeOutcome::Dropped;
            for o in &seq {
                best = merge_outcome(best, o.clone());
                if matches!(best, ProbeOutcome::Hit { .. }) {
                    break;
                }
            }
            let max_rank = seq.iter().map(rank).max().unwrap();
            prop_assert_eq!(rank(&best), max_rank);
            let first = seq.iter().find(|o| rank(o) == max_rank).unwrap();
            prop_assert_eq!(&best, first);
        }
    }

    /// A unit's scope list: distinct and ascending.
    fn scopes_strategy() -> impl proptest::strategy::Strategy<Value = Vec<Prefix>> {
        use proptest::prelude::*;
        proptest::collection::vec((0u32..=u32::MAX, 8u8..=24), 1..8).prop_map(|raw| {
            let mut scopes: Vec<Prefix> = raw
                .into_iter()
                .map(|(addr, len)| Prefix::new(addr, len).unwrap())
                .collect();
            scopes.sort();
            scopes.dedup();
            scopes
        })
    }

    /// The reference for slot records: each probe event bumps the
    /// probe counters one `inc()` at a time and lands on its slot
    /// through a per-event `entry()` into a key-ordered table. Returns
    /// the table and each unit's fault-book entry.
    fn per_event_oracle(
        m: &ProbeMetrics,
        bound: &[BoundVantage],
        streams: &[(ProbeUnit, Vec<(usize, ProbeOutcome)>)],
        redundancy: u32,
    ) -> (BTreeMap<RecordKey, ScopeRecord>, Vec<PopHealth>) {
        let mut table: BTreeMap<RecordKey, ScopeRecord> = BTreeMap::new();
        let mut health = Vec::new();
        for (u, events) in streams {
            let (mut attempts, mut drops) = (0, 0);
            for (li, outcome) in events {
                m.attempts.inc();
                m.pop_attempts.inc();
                m.probes_sent.add(u64::from(redundancy));
                attempts += 1;
                let rec = table
                    .entry(record_key(u.bound_idx, u.domain, u.scopes[*li]))
                    .or_default();
                rec.attempts += 1;
                match *outcome {
                    ProbeOutcome::Hit {
                        scope,
                        remaining_ttl,
                    } => {
                        m.hit.inc();
                        m.pop_hits.inc();
                        m.hit_ttl_secs.record(u64::from(remaining_ttl));
                        rec.hit_events.push(HitEvent {
                            resp_addr: scope.addr(),
                            resp_len: scope.len(),
                            remaining_ttl,
                        });
                    }
                    ProbeOutcome::HitScopeZero => {
                        m.scope0.inc();
                        rec.scope0 += 1;
                    }
                    ProbeOutcome::Miss => m.miss.inc(),
                    ProbeOutcome::Dropped => {
                        m.dropped.inc();
                        rec.drops += 1;
                        drops += 1;
                    }
                }
            }
            health.push(PopHealth {
                pop: bound[u.bound_idx].pop,
                attempts,
                drops,
                tripped: false,
            });
        }
        (table, health)
    }

    proptest::proptest! {
        /// Slot records are the per-event rule, restated. Streams over
        /// random ascending scope lists draw random outcomes in
        /// `window_slots` order — fewer outcomes than slots is a stream
        /// cut short, leaving scopes it never reached. Tallying into
        /// slot records and booking them lands exactly the per-event
        /// counters and TTL histogram; the zip-fold equals the
        /// per-event `entry()` table, plus an empty record per unprobed
        /// scope in the main phase and without them in a rescue phase;
        /// and the fault book is the per-event one.
        #[test]
        fn slot_records_book_and_fold_as_the_per_event_oracle(
            streams in proptest::collection::vec(
                (
                    scopes_strategy(),
                    1u32..40,
                    proptest::collection::vec(outcome_strategy(), 0..60),
                ),
                1..5,
            ),
            redundancy in 1u32..6,
        ) {
            use proptest::prelude::*;
            let bound = [BoundVantage { vp: 0, pop: 3 }, BoundVantage { vp: 1, pop: 7 }];
            let streams: Vec<(ProbeUnit, Vec<(usize, ProbeOutcome)>)> = streams
                .into_iter()
                .enumerate()
                .map(|(i, (scopes, slots, outcomes))| {
                    let mut cfg = ProbeConfig::test_scale();
                    cfg.duration_hours = f64::from(slots) / RATE_PER_DOMAIN / 3600.0;
                    let events = window_slots(&cfg, scopes.len(), SimTime::ZERO)
                        .map(|(li, _)| li)
                        .zip(outcomes)
                        .collect();
                    let unit = ProbeUnit {
                        bound_idx: i / 2,
                        domain: i % 2,
                        scopes,
                    };
                    (unit, events)
                })
                .collect();
            let units: Vec<ProbeUnit> = streams.iter().map(|(u, _)| u.clone()).collect();

            let booked = MetricsRegistry::new();
            let m = ProbeMetrics::resolve(&booked, "zz");
            let tallies: Vec<UnitRecords> = streams
                .iter()
                .map(|(u, events)| {
                    let mut records = vec![ScopeRecord::default(); u.scopes.len()];
                    for (li, outcome) in events {
                        tally(&mut records[*li], outcome);
                    }
                    book(&m, records.iter().map(ScopeRecord::view), redundancy);
                    (records, false)
                })
                .collect();

            let per_event = MetricsRegistry::new();
            let oracle_m = ProbeMetrics::resolve(&per_event, "zz");
            let (table, health) = per_event_oracle(&oracle_m, &bound, &streams, redundancy);
            let snap = booked.snapshot();
            let events: usize = streams.iter().map(|(_, e)| e.len()).sum();
            prop_assert_eq!(snap.counter("cacheprobe.attempts"), events as u64);
            prop_assert_eq!(
                snap.counter("cacheprobe.probes_sent"),
                u64::from(redundancy) * events as u64
            );
            prop_assert_eq!(snap.to_json(), per_event.snapshot().to_json());

            let (rescued, _) = fold_tallies(&bound, &units, tallies.clone(), |r| r.attempts > 0);
            prop_assert_eq!(&rescued, &RecordTable::from_ascending(table.clone()));
            let mut filled = table;
            for u in &units {
                for &scope in &u.scopes {
                    filled.entry(record_key(u.bound_idx, u.domain, scope)).or_default();
                }
            }
            let (main, fault_book) = fold_tallies(&bound, &units, tallies, |_| true);
            prop_assert_eq!(main, RecordTable::from_ascending(filled));
            prop_assert_eq!(fault_book, merge_fault_books(&health));
        }
    }

    // ---- warm starts ---------------------------------------------

    fn run_tiny_full(
        seed: u64,
        prior: Option<&SweepSnapshot>,
    ) -> (Sim, CacheProbeResult, SweepSnapshot) {
        let world = World::generate(WorldConfig::tiny(seed));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        let mut sim = Sim::new(world);
        let mut cfg = ProbeConfig::test_scale();
        cfg.duration_hours = 2.0;
        cfg.calibration_sample = 250;
        let (result, snap) = sweep_in_process(&mut sim, &cfg, &universe, prior);
        (sim, result, snap)
    }

    /// Drops the warm-only `cacheprobe.planner.*` lines so cold and
    /// warm registries can be compared byte-for-byte.
    fn without_planner_lines(json: &str) -> String {
        json.lines()
            .filter(|l| !l.contains("cacheprobe.planner."))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn warm_full_skip_reproduces_the_cold_run() {
        let (cold_sim, cold, snap) = run_tiny_full(103, None);
        assert_eq!(snap.epoch, 1);
        assert!(!snap.records.is_empty());
        assert!(snap.fault.is_none());

        let (warm_sim, warm, snap2) = run_tiny_full(103, Some(&snap));
        let warm_metrics = warm_sim.metrics().snapshot();
        // Nothing expired, nothing new, nothing dirty: zero probe work.
        assert_eq!(warm_metrics.counter("cacheprobe.planner.planned"), 0);
        assert_eq!(warm_metrics.counter("cacheprobe.planner.units"), 0);
        assert_eq!(
            warm_metrics.counter("cacheprobe.planner.skipped_warm"),
            warm_metrics.counter("cacheprobe.planner.universe")
        );

        // The replayed result is identical to the cold one.
        assert_eq!(warm.probes_sent, cold.probes_sent);
        assert_eq!(warm.hits(), cold.hits());
        assert_eq!(warm.probe_counts(), cold.probe_counts());
        assert_eq!(warm.scope_pairs(), cold.scope_pairs());
        assert_eq!(warm.pop_hit_prefixes().len(), cold.pop_hit_prefixes().len());

        // So is the telemetry — the resolver's `gpdns.*` ledger
        // included — modulo the warm-only planner family.
        assert_eq!(
            without_planner_lines(&warm_sim.metrics().snapshot().to_json()),
            without_planner_lines(&cold_sim.metrics().snapshot().to_json())
        );

        // The carried snapshot is the prior one under the next epoch.
        assert_eq!(snap2.epoch, 2);
        assert_eq!(snap2.records, snap.records);
        assert_eq!(snap2.metrics, snap.metrics);
    }

    #[test]
    fn expiry_budget_replans_a_bounded_slice() {
        let (_, _, snap) = run_tiny_full(103, None);
        let world = World::generate(WorldConfig::tiny(103));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        let mut sim = Sim::new(world);
        let mut cfg = ProbeConfig::test_scale();
        cfg.duration_hours = 2.0;
        cfg.calibration_sample = 250;
        cfg.expiry_budget = 0.1;
        let (result, snap2) = sweep_in_process(&mut sim, &cfg, &universe, Some(&snap));
        let m = sim.metrics().snapshot();
        let universe_count = m.counter("cacheprobe.planner.universe");
        let planned = m.counter("cacheprobe.planner.planned");
        let expired = m.counter("cacheprobe.planner.expired");
        assert!(planned > 0, "10% budget must expire something");
        assert_eq!(planned, expired, "only expiry replans here");
        assert!(
            planned * 5 <= universe_count,
            "10% budget must replan ≤ 20% of the universe (got {planned}/{universe_count})"
        );
        // Conservation, as the invariant layer states it.
        assert_eq!(
            m.counter("cacheprobe.planner.skipped_warm") + planned,
            universe_count
        );
        // The re-swept result still measures the full universe: every
        // measured record in the new snapshot has a probe count.
        let measured: std::collections::HashSet<(usize, Prefix)> = snap2
            .records
            .iter()
            .filter(|(_, r)| r.attempts > 0)
            .map(|((_, d, addr, len), _)| (d as usize, Prefix::new(addr, len).unwrap()))
            .collect();
        assert_eq!(result.probe_counts().len(), measured.len());
    }

    /// `plan_units`' cursors and the merge's one ordered table assembly
    /// rely on it: a prep's live units, carries and extrapolated
    /// members each run strictly ascending in record-key order.
    #[test]
    fn prepared_work_lists_are_strictly_ascending_in_record_key_order() {
        fn ascending(name: &str, keys: &[RecordKey]) {
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "{name} out of record-key order"
            );
        }
        let (_, _, cold_snap) = run_tiny_full(103, None);
        let world = World::generate(WorldConfig::tiny(103));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        let mut sim = Sim::new(world);
        let mut cfg = ProbeConfig::test_scale();
        cfg.duration_hours = 2.0;
        cfg.calibration_sample = 250;
        let mut timings = Vec::new();
        let cold = prepare_sweep(&mut sim, &cfg, &universe, &mut timings, None);
        cfg.clustered_probing = true;
        cfg.expiry_budget = 0.5;
        let warm = prepare_sweep(&mut sim, &cfg, &universe, &mut timings, Some(&cold_snap));
        for (name, prep) in [("cold", &cold), ("clustered warm", &warm)] {
            let keys: Vec<RecordKey> = prep
                .units
                .iter()
                .flat_map(|u| {
                    u.scopes
                        .iter()
                        .map(|&s| record_key(u.bound_idx, u.domain, s))
                })
                .collect();
            assert!(!keys.is_empty(), "{name}: no live slots");
            ascending(&format!("{name} live units"), &keys);
        }
        assert!(!warm.skipped.is_empty() && !warm.extrapolated.is_empty());
        let carries: Vec<RecordKey> = warm
            .skipped
            .iter()
            .map(|&i| warm.prior_records.keys()[i])
            .collect();
        ascending("carries", &carries);
        let members: Vec<RecordKey> = warm
            .extrapolated
            .iter()
            .map(|e| record_key(e.bound_idx, e.domain, e.scope))
            .collect();
        ascending("extrapolated members", &members);
    }

    // ---- fault-injected runs -------------------------------------

    use clientmap_faults::{FaultConfig, FaultProfile};

    fn run_tiny_faulted(
        seed: u64,
        profile: FaultProfile,
        fault_seed: u64,
    ) -> (Sim, CacheProbeResult) {
        let world = World::generate(WorldConfig::tiny(seed));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        let mut sim = Sim::with_faults(
            world,
            Arc::new(MetricsRegistry::new()),
            &FaultConfig::profile(profile, fault_seed),
        );
        let mut cfg = ProbeConfig::test_scale();
        cfg.duration_hours = 2.0;
        cfg.calibration_sample = 250;
        let result = sweep_in_process(&mut sim, &cfg, &universe, None).0;
        (sim, result)
    }

    fn shared_lossy_run() -> &'static (Sim, CacheProbeResult) {
        static RUN: std::sync::OnceLock<(Sim, CacheProbeResult)> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run_tiny_faulted(101, FaultProfile::Lossy, 5))
    }

    #[test]
    fn faulted_run_reconciles_client_and_server_counters() {
        let (sim, result) = shared_lossy_run();
        let summary = result.fault.as_ref().expect("fault summary present");
        assert_eq!(summary.profile, "lossy");
        assert!(summary.observed > 0, "lossy must inject something");
        assert!(summary.retries > 0, "failures must be retried");
        assert!(summary.recovered > 0, "retries must recover something");
        // Client conservation: every observed failure settles exactly
        // once.
        assert_eq!(
            summary.observed,
            summary.recovered + summary.degraded + summary.lost
        );
        let snap = sim.metrics().snapshot();
        assert_eq!(
            snap.sum_counters("cacheprobe.fault.observed."),
            summary.observed
        );
        // Client/server reconciliation: every server-injected fault is
        // observed exactly once client-side (plus any rate-limiter
        // drops — none over TCP).
        assert_eq!(
            summary.observed,
            snap.sum_counters("faults.injected.") + snap.sum_counters("gpdns.rate_limited.")
        );
        // The run still produces a usable headline.
        assert!(result.probes_sent > 0);
        assert!(result.active_set().num_slash24s() > 0);
    }

    #[test]
    fn faulted_headline_within_tolerance_of_fault_free() {
        let (_, clean) = shared_run();
        let (_, faulted) = shared_lossy_run();
        let clean_active = clean.active_set().num_slash24s() as f64;
        let faulted_active = faulted.active_set().num_slash24s() as f64;
        let ratio = faulted_active / clean_active;
        assert!(
            (0.6..=1.4).contains(&ratio),
            "lossy active-set {faulted_active} vs clean {clean_active} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn faulted_runs_are_byte_identical_across_threads() {
        let (sim_1, r_1) =
            clientmap_par::with_threads(1, || run_tiny_faulted(107, FaultProfile::Lossy, 9));
        let snap_1 = sim_1.metrics().snapshot().to_json();
        let (sim_4, r_4) =
            clientmap_par::with_threads(4, || run_tiny_faulted(107, FaultProfile::Lossy, 9));
        assert_eq!(r_1.probes_sent, r_4.probes_sent);
        assert_eq!(r_1.hits(), r_4.hits());
        assert_eq!(r_1.probe_counts(), r_4.probe_counts());
        assert_eq!(r_1.fault, r_4.fault, "fault summaries must agree");
        assert_eq!(
            snap_1,
            sim_4.metrics().snapshot().to_json(),
            "faulted telemetry diverged across thread counts"
        );
    }

    #[test]
    fn pop_churn_quarantines_and_accounts_for_coverage() {
        let (sim, result) = run_tiny_faulted(101, FaultProfile::PopChurn, 3);
        let summary = result.fault.as_ref().expect("fault summary present");
        assert_eq!(summary.profile, "pop-churn");
        assert!(
            !summary.quarantined_pops.is_empty(),
            "pop-churn at this seed must trip the breaker somewhere"
        );
        assert_eq!(
            summary.observed,
            summary.recovered + summary.degraded + summary.lost
        );
        let snap = sim.metrics().snapshot();
        assert_eq!(
            snap.counter("cacheprobe.quarantine.pops"),
            summary.quarantined_pops.len() as u64
        );
        assert_eq!(
            snap.counter("cacheprobe.quarantine.rescued"),
            summary.rescued_scopes
        );
        // Accounting closes: every assigned ⟨domain, scope⟩ pair is
        // either measured (has a probe count) or reported unmeasured.
        assert!(summary.assigned_scopes > 0);
        assert_eq!(
            result.probe_counts().len() as u64 + summary.unmeasured_scopes,
            summary.assigned_scopes
        );
    }

    /// Shared config for the sharded-equivalence tests.
    fn fleet_cfg() -> ProbeConfig {
        let mut cfg = ProbeConfig::test_scale();
        cfg.duration_hours = 2.0;
        cfg.calibration_sample = 250;
        cfg
    }

    fn fleet_sim(seed: u64) -> (Sim, Vec<Prefix>) {
        let world = World::generate(WorldConfig::tiny(seed));
        let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
        (Sim::new(world), universe)
    }

    /// One input of the seam table: which sweep to run through both
    /// executors.
    struct SeamCase {
        name: &'static str,
        faults: Option<(FaultProfile, u64)>,
        /// Warm-start from a cold sweep's snapshot at this expiry
        /// budget (`None` = cold sweep).
        warm_expiry: Option<f64>,
        clustered: bool,
        /// The case is only worth its name if the rescue phase runs.
        expect_rescue: bool,
    }

    const FAULT_FREE_CASES: [SeamCase; 4] = [
        SeamCase {
            name: "cold",
            faults: None,
            warm_expiry: None,
            clustered: false,
            expect_rescue: false,
        },
        SeamCase {
            name: "warm-partial",
            faults: None,
            warm_expiry: Some(0.3),
            clustered: false,
            expect_rescue: false,
        },
        SeamCase {
            name: "warm full-skip",
            faults: None,
            warm_expiry: Some(0.0),
            clustered: false,
            expect_rescue: false,
        },
        SeamCase {
            name: "clustered",
            faults: None,
            warm_expiry: Some(1.0),
            clustered: true,
            expect_rescue: false,
        },
    ];

    const FAULTED_CASES: [SeamCase; 2] = [
        SeamCase {
            name: "lossy",
            faults: Some((FaultProfile::Lossy, 5)),
            warm_expiry: None,
            clustered: false,
            expect_rescue: false,
        },
        SeamCase {
            name: "pop-churn",
            faults: Some((FaultProfile::PopChurn, 3)),
            warm_expiry: None,
            clustered: false,
            expect_rescue: true,
        },
    ];

    /// The seam contract in miniature, no sockets. The reference is
    /// `execute_sweep` on one `Sim` — the local-shard route. The twin
    /// is the fleet route driven by hand: the same sweep prepared in
    /// three sims (one driver, two workers), half the unit list probed
    /// in each worker, fault books folded and the rescue phase
    /// dispatched to a surviving worker, deltas merged on the driver.
    /// Both must agree exactly — result aggregates, fault summary, the
    /// stored snapshot, and the registry (resolver ledger included).
    /// The registry comparison is the double-count guard: a local shard
    /// whose delta reached the merge with its `metrics` block filled
    /// would land every probe counter twice. Both results' views must
    /// equal the record-by-record fold of their snapshot, and a full
    /// skip must share its prior's table rather than copy it.
    fn check_seam(case: &SeamCase) {
        let name = case.name;
        let fresh_sim = || {
            let world = World::generate(WorldConfig::tiny(101));
            let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
            let sim = match case.faults {
                Some((profile, fault_seed)) => Sim::with_faults(
                    world,
                    Arc::new(MetricsRegistry::new()),
                    &FaultConfig::profile(profile, fault_seed),
                ),
                None => Sim::new(world),
            };
            (sim, universe)
        };
        let prior = case.warm_expiry.map(|_| {
            let (mut sim, universe) = fresh_sim();
            sweep_in_process(&mut sim, &fleet_cfg(), &universe, None).1
        });
        let prior = prior.as_ref();
        let mut cfg = fleet_cfg();
        cfg.expiry_budget = case.warm_expiry.unwrap_or(cfg.expiry_budget);
        cfg.clustered_probing = case.clustered;

        let (mut sim_ref, universe) = fresh_sim();
        let (res_ref, snap_ref) = sweep_in_process(&mut sim_ref, &cfg, &universe, prior);

        let (mut driver, _) = fresh_sim();
        let prep = prepare_sweep(&mut driver, &cfg, &universe, &mut Vec::new(), prior);
        assert_eq!(prep.faulted(), case.faults.is_some(), "{name}");
        let n = prep.num_units();
        assert_eq!(
            prep.warm_full_skip(),
            case.warm_expiry == Some(0.0),
            "{name}"
        );
        assert!(
            n >= 2 || prep.warm_full_skip(),
            "{name}: need at least two units to shard"
        );
        let mid = n / 2;
        let mut workers = Vec::new();
        let mut deltas = Vec::new();
        let mut books = Vec::new();
        for (id, range) in [(0u32, 0..mid), (1u32, mid..n)] {
            let (mut worker, w_universe) = fresh_sim();
            let w_prep = prepare_sweep(&mut worker, &cfg, &w_universe, &mut Vec::new(), prior);
            assert_eq!(w_prep.num_units(), n, "{name}: worker prep diverged");
            assert_eq!(w_prep.config_digest(), prep.config_digest(), "{name}");
            let (delta, book) = probe_shard(&mut worker, &cfg, &w_prep, range, id);
            assert_eq!(
                book.is_empty(),
                case.faults.is_none(),
                "{name}: only faulted shards carry a fault book"
            );
            deltas.push(delta);
            books.extend(book);
            workers.push((worker, w_prep));
        }
        // Merge in reverse arrival order on purpose: neither the delta
        // set nor the fault-book fold may depend on wire order.
        deltas.reverse();
        books.reverse();
        let mut rescue_dispatches = 0;
        let (res, snap) = merge_shards(
            &mut driver,
            &cfg,
            prep,
            deltas,
            books,
            |units| {
                // The whole rescue phase lands on one surviving worker,
                // exactly as a driver with one live peer would dispatch
                // it.
                rescue_dispatches += 1;
                let (worker, w_prep) = &mut workers[0];
                Ok(vec![probe_rescue_shard(worker, &cfg, w_prep, &units, 0)])
            },
            &mut Vec::new(),
        )
        .unwrap_or_else(|e| panic!("{name}: merge failed: {e}"));
        assert_eq!(
            rescue_dispatches > 0,
            case.expect_rescue,
            "{name}: rescue phase"
        );

        assert_eq!(snap, snap_ref, "{name}: snapshot diverged");
        assert_eq!(
            snap.confidence.is_empty(),
            !case.clustered,
            "{name}: only clustered sweeps extrapolate"
        );
        assert_eq!(res.fault, res_ref.fault, "{name}: fault summaries diverged");
        if let Some(f) = &res_ref.fault {
            assert_eq!(f.observed, f.recovered + f.degraded + f.lost, "{name}");
        }
        assert_eq!(res.probes_sent, res_ref.probes_sent, "{name}");
        assert_eq!(res.hits(), res_ref.hits(), "{name}");
        assert_eq!(res.probe_counts(), res_ref.probe_counts(), "{name}");
        assert_eq!(res.scope_pairs(), res_ref.scope_pairs(), "{name}");
        let pop_sets = |r: &CacheProbeResult| -> BTreeMap<PopId, Vec<Prefix>> {
            r.pop_hit_prefixes()
                .iter()
                .map(|(pop, set)| (*pop, set.prefixes()))
                .collect()
        };
        assert_eq!(pop_sets(&res), pop_sets(&res_ref), "{name}");
        assert_eq!(
            driver.metrics().snapshot().to_json(),
            sim_ref.metrics().snapshot().to_json(),
            "{name}: registry diverged — a double-counted local delta?"
        );
        oracle::assert_views_match(&res_ref, &snap_ref, cfg.redundancy, name);
        oracle::assert_views_match(&res, &snap, cfg.redundancy, name);
        if let Some(prior) = prior.filter(|_| case.warm_expiry == Some(0.0)) {
            assert!(snap_ref.records.shares(&prior.records), "{name}: copied");
            assert!(snap.records.shares(&prior.records), "{name}: copied");
        }
    }

    /// Every seam case, at one and at four threads.
    fn check_seams(cases: &[SeamCase]) {
        for threads in [1, 4] {
            clientmap_par::with_threads(threads, || cases.iter().for_each(check_seam));
        }
    }

    #[test]
    fn sharded_sweep_matches_single_process() {
        check_seams(&FAULT_FREE_CASES);
    }

    /// Two key-ordered runs merge into one; a key both hold comes once,
    /// with the second run's record beside the first's.
    #[test]
    fn merge_ordered_pairs_the_records_of_an_equal_key() {
        let rec = |attempts| ScopeRecord {
            attempts,
            ..ScopeRecord::default()
        };
        let first = RecordTable::from_ascending([((0, 0, 1, 24), rec(1)), ((0, 0, 3, 24), rec(3))]);
        let second = RecordTable::from_ascending([
            ((0, 0, 2, 24), rec(20)),
            ((0, 0, 3, 24), rec(30)),
            ((0, 0, 4, 24), rec(40)),
        ]);
        let merged: Vec<_> = merge_ordered(first.iter(), second.iter())
            .map(|(key, rec, other)| (key.2, rec.attempts, other.map(|o| o.attempts)))
            .collect();
        assert_eq!(
            merged,
            vec![(1, 1, None), (2, 20, None), (3, 3, Some(30)), (4, 40, None)]
        );
    }

    /// A duplicated shard delta or a hole in the cover must be rejected
    /// before anything commits — no partial-merge corruption.
    #[test]
    fn merge_rejects_overlapping_and_incomplete_covers() {
        let cfg = fleet_cfg();
        let (_, universe) = fleet_sim(77);

        let shard_delta = |range: std::ops::Range<usize>, id: u32| {
            let (mut worker, w_universe) = fleet_sim(77);
            let w_prep = prepare_sweep(&mut worker, &cfg, &w_universe, &mut Vec::new(), None);
            probe_shard(&mut worker, &cfg, &w_prep, range, id).0
        };

        let (mut driver, _) = fleet_sim(77);
        let prep = prepare_sweep(&mut driver, &cfg, &universe, &mut Vec::new(), None);
        let n = prep.num_units();
        let d0 = shard_delta(0..n, 0);
        let mut dup = d0.clone();
        dup.epoch = 1;
        let no_rescue = |_: Vec<ProbeUnit>| Ok(Vec::new());
        assert_eq!(
            merge_shards(
                &mut driver,
                &cfg,
                prep,
                vec![d0.clone(), dup],
                Vec::new(),
                no_rescue,
                &mut Vec::new()
            )
            .err(),
            Some(ShardMergeError::OverlappingShards { shard: 1 })
        );

        let (mut driver, _) = fleet_sim(77);
        let prep = prepare_sweep(&mut driver, &cfg, &universe, &mut Vec::new(), None);
        let err = merge_shards(
            &mut driver,
            &cfg,
            prep,
            vec![shard_delta(0..n / 2, 0)],
            Vec::new(),
            no_rescue,
            &mut Vec::new(),
        )
        .err();
        assert!(
            matches!(err, Some(ShardMergeError::MissingScopes { missing }) if missing > 0),
            "incomplete cover accepted: {err:?}"
        );

        // Shards delivered in reverse merge as delivered in order; a
        // shard delivered twice is refused whatever the arrival order,
        // under a new id or under one that sorts before the original.
        let (a, b) = (n / 3, 2 * n / 3);
        let shards = [
            shard_delta(0..a, 0),
            shard_delta(a..b, 2),
            shard_delta(b..n, 4),
        ];
        let merge = |deltas: Vec<SweepSnapshot>| {
            let (mut driver, _) = fleet_sim(77);
            let prep = prepare_sweep(&mut driver, &cfg, &universe, &mut Vec::new(), None);
            merge_shards(
                &mut driver,
                &cfg,
                prep,
                deltas,
                Vec::new(),
                no_rescue,
                &mut Vec::new(),
            )
        };
        let in_order = merge(shards.to_vec()).expect("in-order cover merges").1;
        let reversed =
            merge(shards.iter().rev().cloned().collect()).expect("reversed cover merges");
        assert_eq!(reversed.1, in_order);
        for (dup_of, dup_id, shard) in [(1, 5, 5), (2, 1, 4), (0, 3, 3)] {
            let mut deltas: Vec<SweepSnapshot> = shards.iter().rev().cloned().collect();
            let mut dup = shards[dup_of].clone();
            dup.epoch = dup_id;
            deltas.push(dup);
            assert_eq!(
                merge(deltas).err(),
                Some(ShardMergeError::OverlappingShards { shard }),
                "shard {dup_of} again as {dup_id}"
            );
        }

        let (mut driver, _) = fleet_sim(77);
        let prep = prepare_sweep(&mut driver, &cfg, &universe, &mut Vec::new(), None);
        let mut foreign = d0;
        foreign.world_seed ^= 1;
        assert!(matches!(
            merge_shards(
                &mut driver,
                &cfg,
                prep,
                vec![foreign],
                Vec::new(),
                no_rescue,
                &mut Vec::new()
            )
            .err(),
            Some(ShardMergeError::ForeignDelta { shard: 0, .. })
        ));
    }

    #[test]
    fn faulted_sharded_sweep_matches_single_process() {
        check_seams(&FAULTED_CASES);
    }

    /// Fault-book folding is associative and order-invariant: any
    /// grouping of any permutation reaches the same canonical book.
    #[test]
    fn fault_book_merge_is_order_invariant() {
        let books = [
            PopHealth {
                pop: 3,
                attempts: 40,
                drops: 25,
                tripped: false,
            },
            PopHealth {
                pop: 1,
                attempts: 10,
                drops: 0,
                tripped: true,
            },
            PopHealth {
                pop: 3,
                attempts: 5,
                drops: 1,
                tripped: true,
            },
            PopHealth {
                pop: 1,
                attempts: 7,
                drops: 2,
                tripped: false,
            },
        ];
        let canonical = merge_fault_books(&books);
        assert_eq!(
            canonical,
            vec![
                PopHealth {
                    pop: 1,
                    attempts: 17,
                    drops: 2,
                    tripped: true,
                },
                PopHealth {
                    pop: 3,
                    attempts: 45,
                    drops: 26,
                    tripped: true,
                },
            ]
        );
        // Reversed input, and a fold of partial folds, agree.
        let mut rev = books;
        rev.reverse();
        assert_eq!(merge_fault_books(&rev), canonical);
        let left = merge_fault_books(&books[..2]);
        let right = merge_fault_books(&books[2..]);
        let refold: Vec<PopHealth> = left.into_iter().chain(right).collect();
        assert_eq!(merge_fault_books(&refold), canonical);
        // Canonical form is a fixed point.
        assert_eq!(merge_fault_books(&canonical), canonical);
    }
}
