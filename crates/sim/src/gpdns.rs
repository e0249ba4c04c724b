//! The Google Public DNS model.
//!
//! Reproduces every mechanism the cache-probing technique depends on
//! (paper §3.1):
//!
//! - **anycast PoPs with independent caches** — cache state is per-PoP;
//! - **multiple independent cache pools per PoP** — a query lands in
//!   one pool at random, which is why the prober sends 5 redundant
//!   queries (Trufflehunter documented the pool structure);
//! - **ECS-scoped cache entries** — one entry per authoritative
//!   response scope, so a crafted-ECS probe reveals whether any client
//!   in that scope resolved the domain within the TTL;
//! - **client-supplied ECS** — a query carrying an ECS option uses that
//!   prefix rather than the querier's address;
//! - **non-recursive semantics** — `RD=0` queries never resolve
//!   upstream and never populate the cache;
//! - **the UDP rate limit** — repeated probing over UDP is throttled
//!   far below the normal 1,500 QPS, which is why the paper probes over
//!   TCP.
//!
//! Cache-entry liveness is *sampled analytically*: client queries are
//! Poisson, so an entry for scope `G` in pool `k` is live at `t` with
//! probability `1 − exp(−(λ_G/K)·min(TTL, t))`. The sample is keyed by
//! `(seed, PoP, pool, domain, scope, ⌊t/TTL⌋)`, making repeated queries
//! within a TTL window consistent and the whole simulation reproducible
//! (see the crate docs for why this is statistically faithful).

use std::collections::HashMap;
use std::sync::Arc;

use clientmap_dns::{wire, DomainName, Message, Rcode, Record, RrType};
use clientmap_faults::{FaultMetrics, FaultPlan, PopFaults, QueryFault};
use clientmap_net::{Prefix, SeedMixer};
use clientmap_store::Slash24Bitset;
use clientmap_telemetry::{Counter, MetricsRegistry};
use clientmap_world::World;

use crate::anycast::{Catchments, VantageRoute};
use crate::authoritative::{Authoritatives, DomainScopeKey};
use crate::pops::{pop_catalog, PopId};
use crate::SimTime;

/// Independent cache pools per PoP (Trufflehunter-style).
pub const POOLS_PER_POP: usize = 4;

/// The special TXT name revealing which PoP answered.
pub const MYADDR_NAME: &str = "o-o.myaddr.l.google.com";

/// UDP tokens per second when probing repeatedly (the paper's "much
/// lower than the normal 1,500 QPS").
const UDP_RATE: f64 = 20.0;
const UDP_BURST: f64 = 60.0;
/// TCP sustained limit.
const TCP_RATE: f64 = 1500.0;
const TCP_BURST: f64 = 3000.0;

/// Transport for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// UDP — fast but rate limited under repeated probing.
    Udp,
    /// TCP — what the paper uses; effectively unthrottled at probe rates.
    Tcp,
}

/// High-level outcome of one probe, decoded for convenience.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeOutcome {
    /// Cache hit: the returned ECS scope (length > 0) and remaining TTL.
    Hit {
        /// The scope prefix attached to the answer.
        scope: Prefix,
        /// Remaining TTL, seconds.
        remaining_ttl: u32,
    },
    /// Cache hit whose entry was cached for the whole address space
    /// (scope 0) — the paper does *not* count these as prefix activity.
    HitScopeZero,
    /// No live entry covered the prefix.
    Miss,
    /// The query was dropped (rate limit).
    Dropped,
}

/// What one query on the batched lane got back, without the bytes:
/// what the prober would have read off the response — nothing, an
/// answerless error response, or an answer. Returned by
/// [`GooglePublicDns::serve_attempt`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptReply {
    /// No response (a rate-limiter drop, or an injected loss, latency
    /// blow-out, reset or outage).
    Dropped,
    /// An answerless response with an error rcode and/or the TC bit.
    Error {
        /// The response code.
        rcode: u8,
        /// Whether the TC (truncated) bit is set.
        tc: bool,
    },
    /// A well-formed answer, classified ([`ProbeOutcome::Hit`],
    /// [`ProbeOutcome::HitScopeZero`] or [`ProbeOutcome::Miss`]).
    Answer(ProbeOutcome),
}

/// Aggregated client load for one cached scope at one PoP.
#[derive(Debug, Clone, Copy, Default)]
struct ScopeLoad {
    /// Mean queries/second into this PoP for this scope (all pools).
    rate: f64,
    /// Rate-weighted mean longitude (for the diurnal factor).
    lon_weighted: f64,
}

impl ScopeLoad {
    fn add(&mut self, rate: f64, lon: f64) {
        self.rate += rate;
        self.lon_weighted += rate * lon;
    }

    fn lon(&self) -> f64 {
        if self.rate > 0.0 {
            self.lon_weighted / self.rate
        } else {
            0.0
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: SimTime,
}

/// Per-caller connection state: token buckets and the pool-draw
/// sequence — what decides whether this caller's next query is
/// admitted and which pool it lands in. A session counts nothing:
/// the resolver's one ledger is [`GpdnsMetrics`].
///
/// The service core ([`GooglePublicDns`]) is immutable after build, so
/// independent probers (threads) each hold their own session and query
/// the shared core concurrently — exactly like independent VMs hitting
/// the real anycast service.
#[derive(Debug, Default)]
pub struct GpdnsSession {
    /// Per-(prober, PoP, transport) token buckets.
    buckets: HashMap<(u64, PopId, Transport), Bucket>,
    /// Session-local sequence for pool randomisation.
    seq: u64,
}

impl GpdnsSession {
    /// A fresh session.
    pub fn new() -> GpdnsSession {
        GpdnsSession::default()
    }
}

/// Shared atomic telemetry for the service core — the resolver's only
/// ledger: per transport, per cache pool, the `gpdns.*` registry family.
///
/// The counters live on the immutable [`GooglePublicDns`] and are
/// bumped directly from every concurrent prober. All updates are
/// commutative atomic adds, so the totals — and any [`MetricsRegistry`]
/// snapshot of them — are identical across thread interleavings.
///
/// Every exit path of [`GooglePublicDns::handle_query_at_pop`] hits
/// exactly one terminal counter, so the conservation law
/// `queries == rate_limited + decode_errors + formerr + myaddr +
/// recursive + hits + scope0 + misses` holds by construction (the
/// invariant `clientmap-core` re-checks after every end-to-end run).
#[derive(Debug)]
pub struct GpdnsMetrics {
    queries_udp: Arc<Counter>,
    queries_tcp: Arc<Counter>,
    rate_limited_udp: Arc<Counter>,
    rate_limited_tcp: Arc<Counter>,
    decode_errors: Arc<Counter>,
    formerr: Arc<Counter>,
    myaddr: Arc<Counter>,
    recursive: Arc<Counter>,
    /// Scoped cache hits, per pool.
    pool_hits: [Arc<Counter>; POOLS_PER_POP],
    /// Scope-0 cache hits, per pool.
    pool_scope0: [Arc<Counter>; POOLS_PER_POP],
    /// Cache misses, per pool.
    pool_misses: [Arc<Counter>; POOLS_PER_POP],
    /// Misses on domains Google keeps no ECS-scoped entries for (no
    /// pool is drawn on that path).
    miss_non_ecs: Arc<Counter>,
}

impl GpdnsMetrics {
    /// Registers the full counter family under `gpdns.` in `m`.
    pub fn register(m: &MetricsRegistry) -> Self {
        let pool_family =
            |kind: &str| std::array::from_fn(|p| m.counter(&format!("gpdns.cache.{kind}.pool{p}")));
        GpdnsMetrics {
            queries_udp: m.counter("gpdns.queries.udp"),
            queries_tcp: m.counter("gpdns.queries.tcp"),
            rate_limited_udp: m.counter("gpdns.rate_limited.udp"),
            rate_limited_tcp: m.counter("gpdns.rate_limited.tcp"),
            decode_errors: m.counter("gpdns.decode_errors"),
            formerr: m.counter("gpdns.formerr"),
            myaddr: m.counter("gpdns.myaddr"),
            recursive: m.counter("gpdns.recursive"),
            pool_hits: pool_family("hit"),
            pool_scope0: pool_family("scope0"),
            pool_misses: pool_family("miss"),
            miss_non_ecs: m.counter("gpdns.cache.miss.non_ecs"),
        }
    }

    /// Counters bound to a private registry — for standalone service
    /// cores built outside a [`crate::Sim`] (tests, microbenches).
    fn detached() -> Self {
        GpdnsMetrics::register(&MetricsRegistry::new())
    }

    fn queries(&self, transport: Transport) -> &Counter {
        match transport {
            Transport::Udp => &self.queries_udp,
            Transport::Tcp => &self.queries_tcp,
        }
    }

    fn rate_limited(&self, transport: Transport) -> &Counter {
        match transport {
            Transport::Udp => &self.rate_limited_udp,
            Transport::Tcp => &self.rate_limited_tcp,
        }
    }
}

/// The simulated Google Public DNS service (immutable after build): the
/// shared load tables, plus the counters and fault plan of the run
/// that queries them.
#[derive(Debug)]
pub struct GooglePublicDns {
    /// Built once per world and shared by every run over it.
    tables: Arc<GpdnsTables>,
    /// Shared atomic telemetry (hit/miss per pool, drops by transport).
    metrics: GpdnsMetrics,
    /// Fault-injection plan consulted on every admitted query (the
    /// inert [`FaultPlan::off`] by default, which short-circuits).
    faults: Arc<FaultPlan>,
    /// Injection counters — `None` when the plan is off, so fault-free
    /// metrics snapshots stay byte-identical to the pre-fault service.
    fault_metrics: Option<FaultMetrics>,
}

/// What Google Public DNS knows about a world: per-(PoP, domain, scope)
/// client load and the per-domain query keys — a pure function of the
/// world, its catchments and its authoritatives.
#[derive(Debug)]
pub(crate) struct GpdnsTables {
    /// The pool-draw hash chain, seeded and tagged. A [`SeedMixer`] is
    /// a pure fold, so every draw continues this stored head with its
    /// own coordinates instead of re-mixing it.
    pool: SeedMixer,
    /// The entry-liveness chain, seeded and tagged.
    live: SeedMixer,
    /// The remaining-TTL chain, seeded and tagged.
    ttl: SeedMixer,
    /// ECS-capable domains (index = domain slot used in hashing).
    ecs_domains: Vec<DomainName>,
    /// Uncompressed QNAME wire bytes per slot — a batched connection
    /// finds its domain by raw QNAME bytes instead of decoding names.
    domain_wires: Vec<Vec<u8>>,
    /// Pre-mixed scope-policy hash states per slot, so the batched lane
    /// never stringifies a domain name.
    scope_keys: Vec<DomainScopeKey>,
    ttls: Vec<u32>,
    /// `[pop][domain] → scope → load` for scoped entries.
    scoped: Vec<Vec<HashMap<Prefix, ScopeLoad>>>,
    /// `[pop][domain]` load for scope-0 entries.
    global: Vec<Vec<ScopeLoad>>,
    /// Diurnal amplitude copied from the world config.
    diurnal_amplitude: f64,
    /// Base address for per-PoP egress (the Google /16).
    egress_base: u32,
}

/// What an injected [`QueryFault`] looks like on the wire.
enum Injected {
    /// No response at all (loss, latency blow-out, reset, outage).
    Drop,
    /// An answerless response with an error rcode and/or the TC bit.
    Error { rcode: u8, tc: bool },
}

impl Injected {
    /// How `fault` shows on the wire.
    fn of(fault: QueryFault) -> Injected {
        match fault {
            QueryFault::ServFail => Injected::Error {
                rcode: Rcode::ServFail.to_u8(),
                tc: false,
            },
            QueryFault::Refused => Injected::Error {
                rcode: Rcode::Refused.to_u8(),
                tc: false,
            },
            QueryFault::Truncate => Injected::Error { rcode: 0, tc: true },
            QueryFault::Loss | QueryFault::Latency | QueryFault::TcpReset | QueryFault::Outage => {
                Injected::Drop
            }
        }
    }
}

/// Maps a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Uncompressed QNAME wire bytes (labels + terminal root byte).
fn qname_wire(name: &DomainName) -> Vec<u8> {
    let mut v = Vec::with_capacity(32);
    for label in name.labels() {
        v.push(label.as_str().len() as u8);
        v.extend_from_slice(label.as_str().as_bytes());
    }
    v.push(0);
    v
}

impl GpdnsTables {
    /// Aggregates every active /24's Google-bound query rate into
    /// per-(PoP, domain, scope) loads.
    pub(crate) fn build(world: &World, catchments: &Catchments, auth: &Authoritatives) -> Self {
        let seed = SeedMixer::new(world.config.seed).mix_str("gpdns").finish();
        let npops = pop_catalog().len();
        let specs: Vec<&clientmap_world::DomainSpec> = world
            .domains
            .specs()
            .iter()
            .filter(|s| s.supports_ecs)
            .collect();
        let ecs_domains: Vec<DomainName> = specs.iter().map(|s| s.name.clone()).collect();
        let domain_wires: Vec<Vec<u8>> = ecs_domains.iter().map(qname_wire).collect();
        let scope_keys: Vec<DomainScopeKey> = specs.iter().map(|s| auth.scope_key(s)).collect();
        let ttls: Vec<u32> = specs.iter().map(|s| s.ttl_secs).collect();

        let mut scoped: Vec<Vec<HashMap<Prefix, ScopeLoad>>> = (0..npops)
            .map(|_| vec![HashMap::new(); specs.len()])
            .collect();
        let mut global: Vec<Vec<ScopeLoad>> = (0..npops)
            .map(|_| vec![ScopeLoad::default(); specs.len()])
            .collect();

        for (i, s) in world.slash24s.iter().enumerate() {
            if !s.is_active() || s.resolver_mix.google <= 0.0 {
                continue;
            }
            let pop = catchments.of_slash24(i);
            for (d, spec) in specs.iter().enumerate() {
                // Base rate into Google for this domain at the diurnal
                // mean (multiplier 1); the diurnal factor is re-applied
                // at query time from the stored longitude.
                let clients = s.users + s.machines;
                let rate =
                    clients * world.config.dns_queries_per_user_per_day * spec.popularity_weight
                        / 86_400.0
                        * s.resolver_mix.google;
                if rate <= 0.0 {
                    continue;
                }
                match auth.base_scope(spec, s.prefix.addr()) {
                    Some(scope) if scope.is_default() => {
                        global[pop][d].add(rate, s.coord.lon);
                    }
                    Some(scope) => {
                        scoped[pop][d]
                            .entry(scope)
                            .or_default()
                            .add(rate, s.coord.lon);
                    }
                    None => {}
                }
            }
        }

        GpdnsTables {
            pool: SeedMixer::new(seed).mix_str("pool"),
            live: SeedMixer::new(seed).mix_str("live"),
            ttl: SeedMixer::new(seed).mix_str("ttl"),
            ecs_domains,
            domain_wires,
            scope_keys,
            ttls,
            scoped,
            global,
            diurnal_amplitude: world.config.diurnal_amplitude,
            egress_base: world.blocks[world.ases[world.google_as].blocks[0]]
                .prefix
                .addr(),
        }
    }

    /// The liveness chain through ⟨pop, pool, slot⟩ — constant for one
    /// domain's stream at one PoP.
    fn live_by_slot(&self, pop: PopId, pool: usize, slot: usize) -> SeedMixer {
        self.live.mix(pop as u64).mix(pool as u64).mix(slot as u64)
    }

    /// The remaining-TTL chain through ⟨pop, pool⟩.
    fn ttl_by_pool(&self, pop: PopId, pool: usize) -> SeedMixer {
        self.ttl.mix(pop as u64).mix(pool as u64)
    }
}

/// The pool a query lands in, continued from the pool chain already
/// mixed with its prober: the query's own time and ECS source plus the
/// caller's draw sequence, so it is deterministic per prober whatever
/// other probers do in parallel.
fn draw_pool(by_prober: SeedMixer, t: SimTime, source: Prefix, seq: u64) -> usize {
    (pool_hash(by_prober, t, source, seq) % POOLS_PER_POP as u64) as usize
}

fn pool_hash(by_prober: SeedMixer, t: SimTime, source: Prefix, seq: u64) -> u64 {
    by_prober
        .mix(t.as_millis())
        .mix(u64::from(source.addr()))
        .mix(seq)
        .finish()
}

/// The liveness coin of entry `scope` in TTL window `window`, continued
/// from [`GpdnsTables::live_by_slot`].
fn live_hash(by_slot: SeedMixer, scope: Prefix, window: u64) -> u64 {
    by_slot
        .mix(u64::from(scope.addr()))
        .mix(u64::from(scope.len()))
        .mix(window)
        .finish()
}

/// The age coin of a hit on entry `scope` at `t`, continued from
/// [`GpdnsTables::ttl_by_pool`].
fn ttl_hash(by_pool: SeedMixer, scope: Prefix, t: SimTime, ttl: u32) -> u64 {
    by_pool
        .mix(u64::from(scope.addr()))
        .mix(t.as_millis() / (u64::from(ttl) * 1000))
        .finish()
}

impl GooglePublicDns {
    /// Builds the service with counters on a private registry (for
    /// standalone use; [`crate::Sim`] uses
    /// [`GooglePublicDns::build_with_metrics`]).
    pub fn build(world: &World, catchments: &Catchments, auth: &Authoritatives) -> Self {
        Self::build_with_metrics(world, catchments, auth, GpdnsMetrics::detached())
    }

    /// Builds the service: aggregates every active /24's Google-bound
    /// query rate into per-(PoP, domain, scope) loads. Service-side
    /// telemetry lands on the supplied counter family.
    pub fn build_with_metrics(
        world: &World,
        catchments: &Catchments,
        auth: &Authoritatives,
        metrics: GpdnsMetrics,
    ) -> Self {
        Self::over(
            Arc::new(GpdnsTables::build(world, catchments, auth)),
            metrics,
        )
    }

    /// The fault-free service over already-built tables, counting on
    /// `metrics`.
    pub(crate) fn over(tables: Arc<GpdnsTables>, metrics: GpdnsMetrics) -> Self {
        GooglePublicDns {
            tables,
            metrics,
            faults: Arc::new(FaultPlan::off()),
            fault_metrics: None,
        }
    }

    /// Attaches a fault-injection plan (builder style). Injection
    /// counters are only registered for enabled plans.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>, metrics: Option<FaultMetrics>) -> Self {
        self.fault_metrics = if plan.enabled() { metrics } else { None };
        self.faults = plan;
        self
    }

    /// The fault plan this service consults.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Consults the plan for one admitted query and counts the
    /// injection. Both serve lanes call this at the same logical point
    /// (after admission, before the pool-sequence draw) with the same
    /// coordinates, so they make identical decisions.
    fn fault_for(
        &self,
        prober: u64,
        pop: PopId,
        transport: Transport,
        t: SimTime,
        id: u16,
    ) -> Option<Injected> {
        let fault =
            self.faults
                .query_fault(prober, pop, transport == Transport::Udp, t.as_millis(), id)?;
        if let Some(fm) = &self.fault_metrics {
            fm.count_injected(fault);
        }
        Some(Injected::of(fault))
    }

    /// The egress address authoritatives/roots see for queries issued
    /// by this PoP's resolver fleet.
    pub fn egress_addr(&self, pop: PopId) -> u32 {
        self.tables.egress_base | 0x0100 | (pop as u32)
    }

    /// The PoP owning an egress address, if it is one.
    pub fn pop_of_egress(&self, addr: u32) -> Option<PopId> {
        let npops = pop_catalog().len();
        if addr & 0xFFFF_0000 == self.tables.egress_base && addr & 0xFF00 == 0x0100 {
            let pop = (addr & 0xFF) as usize;
            (pop < npops).then_some(pop)
        } else {
            None
        }
    }

    /// Domain slot for a name, if Google keeps ECS-scoped entries for it.
    fn domain_slot(&self, name: &DomainName) -> Option<usize> {
        self.tables.ecs_domains.iter().position(|d| d == name)
    }

    /// Token-bucket admission control (state lives in the session).
    fn admit(
        &self,
        session: &mut GpdnsSession,
        prober: u64,
        pop: PopId,
        transport: Transport,
        t: SimTime,
    ) -> bool {
        let (rate, burst) = match transport {
            Transport::Udp => (UDP_RATE, UDP_BURST),
            Transport::Tcp => (TCP_RATE, TCP_BURST),
        };
        let b = session
            .buckets
            .entry((prober, pop, transport))
            .or_insert(Bucket {
                tokens: burst,
                last: t,
            });
        let dt = (t - b.last).as_secs_f64();
        b.tokens = (b.tokens + dt * rate).min(burst);
        b.last = t;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Whether the scoped entry `(pop, slot, scope)` is live in `pool`
    /// at `t`.
    fn entry_live(
        &self,
        pop: PopId,
        pool: usize,
        slot: usize,
        scope: Prefix,
        load: &ScopeLoad,
        t: SimTime,
    ) -> bool {
        let by_slot = self.tables.live_by_slot(pop, pool, slot);
        self.entry_live_from(by_slot, slot, scope, load, t)
    }

    /// [`GooglePublicDns::entry_live`] from the liveness chain through
    /// ⟨pop, pool, slot⟩: the probability that the entry is live at
    /// `t`, and the deterministic per-window coin for it.
    fn entry_live_from(
        &self,
        by_slot: SeedMixer,
        slot: usize,
        scope: Prefix,
        load: &ScopeLoad,
        t: SimTime,
    ) -> bool {
        let ttl = f64::from(self.tables.ttls[slot]);
        let window = (t.as_secs_f64() / ttl) as u64;
        let diurnal = clientmap_world::activity::diurnal_multiplier(
            t.as_secs_f64(),
            load.lon(),
            self.tables.diurnal_amplitude,
        );
        let lambda_pool = load.rate * diurnal / POOLS_PER_POP as f64;
        let horizon = ttl.min(t.as_secs_f64().max(0.0));
        let p_live = 1.0 - (-lambda_pool * horizon).exp();
        unit(live_hash(by_slot, scope, window)) < p_live
    }

    /// Remaining TTL for a hit on entry `scope` (age uniform within the
    /// window), from the TTL chain through ⟨pop, pool⟩.
    fn remaining_ttl(&self, by_pool: SeedMixer, slot: usize, scope: Prefix, t: SimTime) -> u32 {
        let h_entropy = ttl_hash(by_pool, scope, t, self.tables.ttls[slot]);
        let ttl = f64::from(self.tables.ttls[slot]);
        let age = unit(SeedMixer::new(h_entropy).mix(99).finish()) * ttl.min(t.as_secs_f64());
        (ttl - age).max(1.0) as u32
    }

    /// Handles one wire-format query arriving at `pop`: decodes it,
    /// answers it once (`respond`) and encodes the reply.
    /// Returns the wire-format response, or `None` if the query was
    /// dropped.
    ///
    /// `prober` identifies the source for rate limiting; `auth` and
    /// `world` provide the authoritative layer for recursive queries.
    /// The caller's [`GpdnsSession`] carries the buckets and the pool
    /// sequence, so independent probers can query the shared core
    /// concurrently.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_query_at_pop(
        &self,
        session: &mut GpdnsSession,
        world: &World,
        auth: &Authoritatives,
        prober: u64,
        pop: PopId,
        packet: &[u8],
        transport: Transport,
        t: SimTime,
    ) -> Option<Vec<u8>> {
        self.metrics.queries(transport).inc();
        if !self.admit(session, prober, pop, transport, t) {
            self.metrics.rate_limited(transport).inc();
            return None;
        }
        let Ok(query) = wire::decode(packet) else {
            self.metrics.decode_errors.inc();
            return None; // garbage in, silence out (like a drop)
        };
        let resp = self.respond(session, world, auth, prober, pop, &query, transport, t)?;
        wire::encode(&resp).ok()
    }

    /// The reply to one admitted, decoded query, or `None` when an
    /// injected fault drops it.
    #[allow(clippy::too_many_arguments)]
    fn respond(
        &self,
        session: &mut GpdnsSession,
        world: &World,
        auth: &Authoritatives,
        prober: u64,
        pop: PopId,
        query: &Message,
        transport: Transport,
        t: SimTime,
    ) -> Option<Message> {
        let Some(q) = &query.question else {
            self.metrics.formerr.inc();
            return Some(Message::response_for(query).with_rcode(Rcode::FormErr));
        };

        // Fault-injection point: the query is admitted and parsed; the
        // plan decides whether the exchange fails before any service
        // logic (including the pool-sequence draw) sees it.
        if let Some(injected) = self.fault_for(prober, pop, transport, t, query.id) {
            return match injected {
                Injected::Drop => None,
                Injected::Error { rcode, tc } => {
                    // Answerless and without OPT; RD is clear whatever
                    // the query asked.
                    let mut resp = Message::response_for(query).with_rcode(Rcode::from_u8(rcode));
                    resp.truncated = tc;
                    resp.recursion_desired = false;
                    Some(resp)
                }
            };
        }

        // PoP self-identification.
        if q.rtype == RrType::Txt && q.name.to_string() == MYADDR_NAME {
            self.metrics.myaddr.inc();
            let pops = pop_catalog();
            return Some(Message::response_for(query).with_answers(vec![Record::txt(
                q.name.clone(),
                60,
                format!("pop={}", pops[pop].code),
            )]));
        }

        let ecs_source = query.ecs().map(|e| e.source);

        if query.recursion_desired {
            // Recursive path: resolve at the authoritative.
            self.metrics.recursive.inc();
            // Google forwards the client's /24 as ECS (or the supplied one).
            let fwd_ecs = ecs_source.or(Some(Prefix::DEFAULT));
            return Some(match auth.answer(&world.domains, &q.name, fwd_ecs, t) {
                Some(ans) => {
                    let mut resp = Message::response_for(query).with_answers(ans.records);
                    if let (Some(scope), Some(src)) = (ans.scope, ecs_source) {
                        resp = resp.with_response_ecs(src, scope.len());
                    }
                    resp
                }
                None => Message::response_for(query).with_rcode(Rcode::NxDomain),
            });
        }

        // Non-recursive path: pure cache lookup; never resolves upstream.
        let Some(slot) = self.domain_slot(&q.name) else {
            // Not an ECS-cached domain: we model no global non-ECS cache
            // visibility (probing such domains is not meaningful).
            self.metrics.miss_non_ecs.inc();
            return Some(Message::response_for(query));
        };
        let source = ecs_source.unwrap_or(Prefix::DEFAULT);

        // Pick the pool this query lands in.
        session.seq += 1;
        let pool = draw_pool(self.tables.pool.mix(prober), t, source, session.seq);

        // The cached entry that could answer: the scope the authoritative
        // assigns to this address region. A slot without a catalog entry
        // cannot happen for a well-formed build; degrade to a plain miss
        // rather than panicking inside the library.
        let Some(spec) = world.domains.get(&q.name) else {
            self.metrics.miss_non_ecs.inc();
            return Some(Message::response_for(query));
        };
        let candidate = auth.base_scope(spec, source.addr());

        // 1. Scoped entry.
        if let Some(scope) = candidate.filter(|s| !s.is_default()) {
            if let Some(load) = self.tables.scoped[pop][slot].get(&scope).copied() {
                if self.entry_live(pop, pool, slot, scope, &load, t) {
                    self.metrics.pool_hits[pool].inc();
                    let remaining =
                        self.remaining_ttl(self.tables.ttl_by_pool(pop, pool), slot, scope, t);
                    // The scope attached to the cached answer reflects the
                    // authoritative's (possibly churned) response scope.
                    let resp_scope = auth.response_scope(spec, source.addr(), t).unwrap_or(scope);
                    return Some(
                        Message::response_for(query)
                            .with_answers(vec![Record::a(
                                q.name.clone(),
                                remaining,
                                0x60F0_0000 | slot as u32,
                            )])
                            .with_response_ecs(source, resp_scope.len()),
                    );
                }
            }
        }

        // 2. Scope-0 entry (cached for everyone).
        let gload = self.tables.global[pop][slot];
        if gload.rate > 0.0 && self.entry_live(pop, pool, slot, Prefix::DEFAULT, &gload, t) {
            self.metrics.pool_scope0[pool].inc();
            return Some(
                Message::response_for(query)
                    .with_answers(vec![Record::a(
                        q.name.clone(),
                        self.tables.ttls[slot].max(1),
                        0x60F0_0000 | slot as u32,
                    )])
                    .with_response_ecs(source, 0),
            );
        }

        // 3. Miss.
        self.metrics.pool_misses[pool].inc();
        Some(Message::response_for(query).with_response_ecs(source, 0))
    }

    /// The PoP a vantage's query sent at `t` lands on — the one flap
    /// rule. During a seeded flap window (keyed by ⟨prober, window⟩)
    /// the home catchment is withdrawn and the query lands on the
    /// route's alternate; every flapped query counts once on
    /// `faults.flaps`.
    pub fn route(&self, route: &VantageRoute, t: SimTime) -> PopId {
        if self.faults.flap(route.prober, t.as_millis()) {
            if let Some(fm) = &self.fault_metrics {
                fm.flaps.inc();
            }
            return route.alternate;
        }
        route.home
    }

    /// Convenience wrapper: routes by vantage-point anycast, then
    /// handles the query.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_query(
        &self,
        session: &mut GpdnsSession,
        world: &World,
        catchments: &Catchments,
        auth: &Authoritatives,
        prober: u64,
        vp_coord: clientmap_net::GeoCoord,
        packet: &[u8],
        transport: Transport,
        t: SimTime,
    ) -> Option<Vec<u8>> {
        let pop = self.route(&catchments.vantage_route(prober, vp_coord), t);
        self.handle_query_at_pop(session, world, auth, prober, pop, packet, transport, t)
    }

    /// Reads a probe's outcome off a decoded response: no answer is a
    /// miss; an answer is a hit, scoped when the response's ECS scope is
    /// non-zero, with the first answer's TTL as the entry's remaining
    /// life.
    pub fn classify(resp: &Message) -> ProbeOutcome {
        let Some(answer) = resp.answers.first() else {
            return ProbeOutcome::Miss;
        };
        match resp.ecs() {
            Some(e) if e.scope_len > 0 => ProbeOutcome::Hit {
                scope: e.scope_prefix(),
                remaining_ttl: answer.ttl,
            },
            _ => ProbeOutcome::HitScopeZero,
        }
    }

    /// The load (mean qps and rate-weighted longitude) behind one
    /// scoped cache entry, if any — exposed so the micro-simulation
    /// validator can drive event-level arrivals from the same inputs.
    pub fn scope_load(&self, pop: PopId, domain: &DomainName, scope: Prefix) -> Option<(f64, f64)> {
        let slot = self.domain_slot(domain)?;
        self.tables.scoped[pop][slot]
            .get(&scope)
            .map(|l| (l.rate, l.lon()))
    }

    /// The record TTL Google caches for a domain, if ECS-cached.
    pub fn domain_ttl(&self, domain: &DomainName) -> Option<u32> {
        let slot = self.domain_slot(domain)?;
        Some(self.tables.ttls[slot])
    }

    /// All scopes with load at a PoP for a domain, heaviest first.
    pub fn scopes_at(&self, pop: PopId, domain: &DomainName) -> Vec<(Prefix, f64)> {
        let Some(slot) = self.domain_slot(domain) else {
            return Vec::new();
        };
        let mut v: Vec<(Prefix, f64)> = self.tables.scoped[pop][slot]
            .iter()
            .map(|(p, l)| (*p, l.rate))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Total Google-bound load (qps at diurnal mean) at a PoP, across
    /// ECS domains — used to verify the unreachable-PoP share (~5%).
    pub fn pop_load(&self, pop: PopId) -> f64 {
        let scoped: f64 = self.tables.scoped[pop]
            .iter()
            .flat_map(|m| m.values())
            .map(|l| l.rate)
            .sum();
        let global: f64 = self.tables.global[pop].iter().map(|l| l.rate).sum();
        scoped + global
    }
}

// ---------------------------------------------------------------------------
// Batched serve lane
// ---------------------------------------------------------------------------

/// Counter deltas accumulated by one [`BatchConn`], flushed wholesale
/// into the registry at [`GooglePublicDns::close_batch`].
#[derive(Debug, Clone, Copy, Default)]
struct BatchStats {
    /// Queries that reached a PoP (one per attempt), per transport
    /// (indexed like [`TRANSPORTS`]).
    queries: [u64; 2],
    /// Queries dropped by the rate limiter, per transport.
    rate_limited: [u64; 2],
    /// Scoped cache hits, per pool.
    pool_hits: [u64; POOLS_PER_POP],
    /// Scope-0 cache hits, per pool.
    pool_scope0: [u64; POOLS_PER_POP],
    /// Cache misses, per pool.
    pool_misses: [u64; POOLS_PER_POP],
    /// Injected faults, per class (indexed like [`QueryFault::ALL`]).
    injected: [u64; QueryFault::ALL.len()],
    /// Attempts a catchment flap sent to the alternate PoP.
    flaps: u64,
}

/// The two transports, in the order a connection indexes its buckets
/// and counters by.
const TRANSPORTS: [Transport; 2] = [Transport::Udp, Transport::Tcp];

fn transport_idx(transport: Transport) -> usize {
    match transport {
        Transport::Udp => 0,
        Transport::Tcp => 1,
    }
}

/// One batched probing connection: the per-prober state a whole probe
/// stream shares.
///
/// Opened from a [`GpdnsSession`] over a resolved [`VantageRoute`]
/// (token buckets and pool sequence are read once), driven one probe
/// event ([`GooglePublicDns::serve_event`]) or one query
/// ([`GooglePublicDns::serve_attempt`]) at a time, and closed back into
/// the session — at which point the session state and the shared
/// telemetry are exactly what the scalar lane would have produced for
/// the same probe stream. Between open and close, nothing touches the
/// session's hash map, the registry atomics, or the allocator.
#[derive(Debug)]
pub struct BatchConn {
    prober: u64,
    /// The home catchment: where every unflapped query lands, and the
    /// PoP [`GooglePublicDns::batch_domain`] resolves against.
    pop: PopId,
    /// Where a query lands while a catchment flap withdraws `pop`.
    alternate: PopId,
    /// The stream's transport — every query of
    /// [`GooglePublicDns::serve_event`] uses it.
    transport: Transport,
    /// The pool-draw chain already mixed with `prober`.
    pool_by_prober: SeedMixer,
    /// Local copies of the session's token buckets, per
    /// ⟨home | alternate PoP, transport⟩ (created lazily at the first
    /// admission, exactly like the scalar `admit`).
    buckets: [[Option<Bucket>; 2]; 2],
    /// Local copy of the session's pool-draw sequence.
    seq: u64,
    /// The fault plan at the home and at the alternate PoP.
    faults: [PopFaults; 2],
    stats: BatchStats,
}

impl BatchConn {
    /// The PoP this connection's unflapped probes land at.
    pub fn pop(&self) -> PopId {
        self.pop
    }

    /// The prober key the connection was opened for.
    pub fn prober(&self) -> u64 {
        self.prober
    }

    /// Which side of the route a query lands on: 0 for the home PoP, 1
    /// for a flap to a distinct alternate. A route whose alternate is
    /// its home has one side, as the scalar lane keys one bucket.
    fn side(&self, flapped: bool) -> usize {
        usize::from(flapped && self.alternate != self.pop)
    }

    /// Token-bucket admission on the local bucket copy — the same
    /// arithmetic as the scalar `admit`, without the hash-map probe.
    fn admit(&mut self, side: usize, transport: Transport, t: SimTime) -> bool {
        let (rate, burst) = match transport {
            Transport::Udp => (UDP_RATE, UDP_BURST),
            Transport::Tcp => (TCP_RATE, TCP_BURST),
        };
        let b = self.buckets[side][transport_idx(transport)].get_or_insert(Bucket {
            tokens: burst,
            last: t,
        });
        let dt = (t - b.last).as_secs_f64();
        b.tokens = (b.tokens + dt * rate).min(burst);
        b.last = t;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One probed domain's slice of the service, resolved once per
/// connection: domain slot, pre-mixed scope-policy keys, cache-load
/// tables, the per-pool heads of the liveness and remaining-TTL hash
/// chains, and a [`Slash24Bitset`] prefilter over the /24s that hold
/// scoped entries at this PoP — so per-scope lane setup rejects cold
/// scopes with a word-indexed bit probe instead of a hash-map lookup.
#[derive(Debug)]
pub struct BatchDomain<'a> {
    slot: usize,
    key: DomainScopeKey,
    scoped: &'a HashMap<Prefix, ScopeLoad>,
    global: ScopeLoad,
    prefilter: Slash24Bitset,
    /// Ancestor depth for the admission prefilter: a candidate entry is
    /// never shorter than the domain's minimum scope length, so its
    /// base /24 index is the probed /24's index with at most this many
    /// low bits cleared.
    anc_clear: u8,
    /// Per pool, the liveness chain through ⟨pop, pool, slot⟩.
    live_by_slot: [SeedMixer; POOLS_PER_POP],
    /// Per pool, the remaining-TTL chain through ⟨pop, pool⟩.
    ttl_by_pool: [SeedMixer; POOLS_PER_POP],
}

/// The time-independent part of serving one query scope, hoisted out
/// of the per-attempt loop: the scope-policy candidate entry and its
/// cached load. Scalar serving recomputes this (a RIB walk plus a
/// hash-map probe) for every redundant attempt; the batched lane pays
/// it once per scope per stream.
#[derive(Debug, Clone, Copy)]
pub struct ScopeLane {
    /// The probed (ECS source) scope.
    scope: Prefix,
    /// `(candidate entry scope, its load)` when this PoP holds a scoped
    /// entry that could answer; `None` means only scope-0/miss paths
    /// remain possible.
    hit_path: Option<(Prefix, ScopeLoad)>,
}

impl ScopeLane {
    /// The probed scope this lane serves.
    pub fn scope(&self) -> Prefix {
        self.scope
    }
}

/// The cache state one admitted query reads at the PoP it landed on,
/// for the pool it drew: the candidate scoped entry and its load, the
/// scope-0 load, and the pool's liveness and remaining-TTL chain heads.
#[derive(Debug, Clone, Copy)]
struct PoolEntry {
    hit_path: Option<(Prefix, ScopeLoad)>,
    global: ScopeLoad,
    live: SeedMixer,
    ttl: SeedMixer,
}

impl GooglePublicDns {
    /// Opens a batched probing connection for the vantage whose route
    /// is `route`, sending over `transport`, from `session`'s state.
    /// Fault-free and faulted cores alike: the connection carries the
    /// fault plan at both PoPs the route can land on.
    pub fn open_conn(
        &self,
        route: &VantageRoute,
        session: &GpdnsSession,
        transport: Transport,
    ) -> BatchConn {
        let pops = [route.home, route.alternate];
        BatchConn {
            prober: route.prober,
            pop: route.home,
            alternate: route.alternate,
            transport,
            pool_by_prober: self.tables.pool.mix(route.prober),
            buckets: pops.map(|pop| {
                TRANSPORTS.map(|tr| session.buckets.get(&(route.prober, pop, tr)).copied())
            }),
            seq: session.seq,
            faults: pops.map(|pop| self.faults.at(route.prober, pop)),
            stats: BatchStats::default(),
        }
    }

    /// [`GooglePublicDns::open_conn`] for `prober` at `coord`, resolving
    /// its route here. Always `Some`: the `Option` is the shape the
    /// benchmark harness calls; ROADMAP 2(d) moves it to `open_conn`.
    pub fn open_batch(
        &self,
        catchments: &Catchments,
        session: &GpdnsSession,
        prober: u64,
        coord: clientmap_net::GeoCoord,
        transport: Transport,
    ) -> Option<BatchConn> {
        let route = catchments.vantage_route(prober, coord);
        Some(self.open_conn(&route, session, transport))
    }

    /// Resolves one probed domain (by uncompressed QNAME wire bytes)
    /// against the connection's PoP. `None` means Google keeps no
    /// ECS-scoped entries for the name — a case only the scalar lane
    /// models, and one the prober's domain selection never produces.
    pub fn batch_domain(&self, conn: &BatchConn, qname_wire: &[u8]) -> Option<BatchDomain<'_>> {
        let slot = self
            .tables
            .domain_wires
            .iter()
            .position(|w| w[..] == *qname_wire)?;
        let scoped = &self.tables.scoped[conn.pop][slot];
        let mut prefilter = Slash24Bitset::new();
        for scope in scoped.keys() {
            prefilter.insert(scope.addr() >> 8);
        }
        let (lo, _) = self.tables.scope_keys[slot].scope_len_range();
        Some(BatchDomain {
            slot,
            key: self.tables.scope_keys[slot],
            scoped,
            global: self.tables.global[conn.pop][slot],
            prefilter,
            anc_clear: 24u8.saturating_sub(lo.min(24)),
            live_by_slot: std::array::from_fn(|pool| {
                self.tables.live_by_slot(conn.pop, pool, slot)
            }),
            ttl_by_pool: std::array::from_fn(|pool| self.tables.ttl_by_pool(conn.pop, pool)),
        })
    }

    /// Precomputes the serve lane for one query scope: the scope-policy
    /// candidate (a RIB-backed computation) and, when the prefilter
    /// shows its /24 can hold an entry at this PoP, the entry's load.
    pub fn scope_lane(
        &self,
        auth: &Authoritatives,
        dom: &BatchDomain<'_>,
        scope: Prefix,
    ) -> ScopeLane {
        // Admission pass: any candidate the scope policy could assign
        // is at least the domain's minimum length, so its base /24 is
        // an aligned ancestor of the probed /24. If none of those /24s
        // holds a scoped entry at this PoP, the lane cannot hit — skip
        // the per-probe scope-policy walk (a hash chain plus RIB
        // lookup) entirely. Whole admission-empty pages reduce to one
        // word probe per lane.
        if !dom.prefilter.ancestor_hit(scope.addr() >> 8, dom.anc_clear) {
            return ScopeLane {
                scope,
                hit_path: None,
            };
        }
        let hit_path = auth
            .base_scope_keyed(&dom.key, scope.addr())
            .filter(|s| !s.is_default())
            .and_then(|cand| {
                if !dom.prefilter.contains_addr(cand.addr()) {
                    return None;
                }
                dom.scoped.get(&cand).map(|load| (cand, *load))
            });
        ScopeLane { scope, hit_path }
    }

    /// Serves a rendered probe batch: validates every packet, then
    /// serves one [`GooglePublicDns::serve_event`] per event, appending
    /// its outcome to `out`. Kept for the frozen benchmark harness;
    /// ROADMAP 2(d) deletes it — the product serves events directly.
    ///
    /// `batch` holds one rendered query per event; `events` pairs each
    /// with `(lane index, event time)`. Every packet is validated
    /// (pure, before any state moves) to be a probe-shaped query for
    /// `dom`'s name carrying its lane's scope; any mismatch returns
    /// `false` with the connection untouched. A batch rendered from
    /// the lanes' own template and scopes always validates.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_batch(
        &self,
        conn: &mut BatchConn,
        dom: &BatchDomain<'_>,
        auth: &Authoritatives,
        lanes: &[ScopeLane],
        batch: &wire::ProbeBatch,
        events: &[(u32, SimTime)],
        redundancy: u32,
        out: &mut Vec<ProbeOutcome>,
    ) -> bool {
        if batch.len() != events.len() {
            return false;
        }
        for (i, &(lane, _)) in events.iter().enumerate() {
            let Some(lane) = lanes.get(lane as usize) else {
                return false;
            };
            let Some(view) = wire::query_view(batch.query(i)) else {
                return false;
            };
            if view.is_response()
                || view.opcode() != 0
                || view.recursion_desired()
                || view.rtype != RrType::A.to_u16()
                || view.qclass != clientmap_dns::RrClass::In.to_u16()
                || view.qname_wire != &self.tables.domain_wires[dom.slot][..]
                || view.ecs.map_or(Prefix::DEFAULT, |e| e.source) != lane.scope
            {
                return false;
            }
        }
        for &(lane, t) in events {
            out.push(self.serve_event(conn, dom, auth, &lanes[lane as usize], t, redundancy));
        }
        true
    }

    /// Serves one probe event on the batched lane — `redundancy` pool
    /// draws with Hit-early-exit, folded to the best outcome (`Hit >
    /// HitScopeZero > Miss > Dropped`, the prober's merge order). It is
    /// the exact scalar attempt sequence (admission → pool draw →
    /// scoped entry → scope-0 → miss) minus everything
    /// attempt-invariant, classified in place: no query is rendered and
    /// no response written. `lane` must come from
    /// [`GooglePublicDns::scope_lane`] on `dom`, and `dom` from
    /// [`GooglePublicDns::batch_domain`] on `conn`.
    ///
    /// Fault-free cores only: nothing here flaps, injects or retries,
    /// which is also why transaction IDs play no part (they only ever
    /// feed fault decisions and the response echo). A faulted stream
    /// sends each query through [`GooglePublicDns::serve_attempt`].
    pub fn serve_event(
        &self,
        conn: &mut BatchConn,
        dom: &BatchDomain<'_>,
        auth: &Authoritatives,
        lane: &ScopeLane,
        t: SimTime,
        redundancy: u32,
    ) -> ProbeOutcome {
        // Outcome rank mirrors the prober's merge order; `Hit` is an
        // early exit, so the fold needs only the other three.
        const RANK_DROPPED: u8 = 0;
        const RANK_MISS: u8 = 1;
        const RANK_SCOPE0: u8 = 2;
        let ti = transport_idx(conn.transport);
        let mut best = RANK_DROPPED;
        for r in 0..redundancy {
            let rt = t + SimTime::from_millis(u64::from(r));
            conn.stats.queries[ti] += 1;
            if !conn.admit(0, conn.transport, rt) {
                conn.stats.rate_limited[ti] += 1;
                continue; // Dropped: never upgrades `best`.
            }
            conn.seq += 1;
            let pool = draw_pool(conn.pool_by_prober, rt, lane.scope, conn.seq);
            let entry = PoolEntry {
                hit_path: lane.hit_path,
                global: dom.global,
                live: dom.live_by_slot[pool],
                ttl: dom.ttl_by_pool[pool],
            };
            match self.answer(&mut conn.stats, dom, auth, lane.scope, &entry, pool, rt) {
                hit @ ProbeOutcome::Hit { .. } => return hit,
                ProbeOutcome::HitScopeZero => best = best.max(RANK_SCOPE0),
                _ => best = best.max(RANK_MISS),
            }
        }
        match best {
            RANK_SCOPE0 => ProbeOutcome::HitScopeZero,
            RANK_MISS => ProbeOutcome::Miss,
            _ => ProbeOutcome::Dropped,
        }
    }

    /// Serves one query of a probe event on the batched lane, on
    /// faulted cores too. It makes the scalar lane's decisions in the
    /// scalar order — the flap rule ([`GooglePublicDns::route`]),
    /// admission, the fault plan (after admission, before the pool
    /// draw, so an injected fault never advances the pool sequence),
    /// the pool draw, then scoped entry, scope 0 or miss — and returns
    /// what the response would have said ([`AttemptReply`]) instead of
    /// its bytes. `id` is the query's transaction ID, which only the
    /// fault plan reads; retries, backoff and the TC → TCP upgrade stay
    /// the prober's.
    ///
    /// `lane` and `dom` describe the home PoP. A flapped query lands on
    /// the route's alternate and resolves that PoP's candidate entry
    /// and chain heads itself — flaps are rare.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_attempt(
        &self,
        conn: &mut BatchConn,
        dom: &BatchDomain<'_>,
        auth: &Authoritatives,
        lane: &ScopeLane,
        transport: Transport,
        t: SimTime,
        id: u16,
    ) -> AttemptReply {
        let flapped = self.faults.flap(conn.prober, t.as_millis());
        conn.stats.flaps += u64::from(flapped);
        let side = conn.side(flapped);
        let ti = transport_idx(transport);
        conn.stats.queries[ti] += 1;
        if !conn.admit(side, transport, t) {
            conn.stats.rate_limited[ti] += 1;
            return AttemptReply::Dropped;
        }
        let udp = transport == Transport::Udp;
        if let Some(fault) = conn.faults[side].query_fault(udp, t.as_millis(), id) {
            conn.stats.injected[fault as usize] += 1;
            return match Injected::of(fault) {
                Injected::Drop => AttemptReply::Dropped,
                Injected::Error { rcode, tc } => AttemptReply::Error { rcode, tc },
            };
        }
        conn.seq += 1;
        let pool = draw_pool(conn.pool_by_prober, t, lane.scope, conn.seq);
        let entry = if side == 0 {
            PoolEntry {
                hit_path: lane.hit_path,
                global: dom.global,
                live: dom.live_by_slot[pool],
                ttl: dom.ttl_by_pool[pool],
            }
        } else {
            let pop = conn.alternate;
            let scoped = &self.tables.scoped[pop][dom.slot];
            PoolEntry {
                hit_path: auth
                    .base_scope_keyed(&dom.key, lane.scope.addr())
                    .filter(|s| !s.is_default())
                    .and_then(|cand| scoped.get(&cand).map(|load| (cand, *load))),
                global: self.tables.global[pop][dom.slot],
                live: self.tables.live_by_slot(pop, pool, dom.slot),
                ttl: self.tables.ttl_by_pool(pop, pool),
            }
        };
        AttemptReply::Answer(self.answer(&mut conn.stats, dom, auth, lane.scope, &entry, pool, t))
    }

    /// The cache's answer to one admitted, unfaulted query for `scope`
    /// that drew `pool`: the scalar lane's scoped entry → scope 0 →
    /// miss over `entry`, counted on `stats` and classified as the
    /// prober reads the response.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn answer(
        &self,
        stats: &mut BatchStats,
        dom: &BatchDomain<'_>,
        auth: &Authoritatives,
        scope: Prefix,
        entry: &PoolEntry,
        pool: usize,
        t: SimTime,
    ) -> ProbeOutcome {
        // 1. Scoped entry.
        if let Some((cand, load)) = &entry.hit_path {
            if self.entry_live_from(entry.live, dom.slot, *cand, load, t) {
                stats.pool_hits[pool] += 1;
                let remaining = self.remaining_ttl(entry.ttl, dom.slot, *cand, t);
                let resp_scope = auth
                    .response_scope_keyed(&dom.key, scope.addr(), t)
                    .unwrap_or(*cand);
                if resp_scope.len() == 0 {
                    return ProbeOutcome::HitScopeZero;
                }
                return ProbeOutcome::Hit {
                    // The classifier reads the scope off the response
                    // ECS: source address masked to the response scope
                    // length.
                    scope: Prefix::new(scope.addr(), resp_scope.len())
                        .expect("scope length validated <= 32"),
                    remaining_ttl: remaining,
                };
            }
        }

        // 2. Scope-0 entry.
        if entry.global.rate > 0.0
            && self.entry_live_from(entry.live, dom.slot, Prefix::DEFAULT, &entry.global, t)
        {
            stats.pool_scope0[pool] += 1;
            return ProbeOutcome::HitScopeZero;
        }

        // 3. Miss.
        stats.pool_misses[pool] += 1;
        ProbeOutcome::Miss
    }

    /// Closes a batched connection: writes the buckets and sequence
    /// back into the session and flushes the connection's resolver and
    /// fault counters into the registry in one atomic add per counter —
    /// the registry is the only place a connection's telemetry lands.
    pub fn close_batch(&self, conn: BatchConn, session: &mut GpdnsSession) {
        let s = conn.stats;
        let sides = if conn.alternate == conn.pop { 1 } else { 2 };
        for (side, pop) in [conn.pop, conn.alternate]
            .into_iter()
            .enumerate()
            .take(sides)
        {
            for (ti, transport) in TRANSPORTS.into_iter().enumerate() {
                if let Some(b) = conn.buckets[side][ti] {
                    session.buckets.insert((conn.prober, pop, transport), b);
                }
            }
        }
        session.seq = conn.seq;
        for (ti, transport) in TRANSPORTS.into_iter().enumerate() {
            self.metrics.queries(transport).add(s.queries[ti]);
            self.metrics.rate_limited(transport).add(s.rate_limited[ti]);
        }
        for p in 0..POOLS_PER_POP {
            self.metrics.pool_hits[p].add(s.pool_hits[p]);
            self.metrics.pool_scope0[p].add(s.pool_scope0[p]);
            self.metrics.pool_misses[p].add(s.pool_misses[p]);
        }
        if let Some(fm) = &self.fault_metrics {
            for (fault, n) in QueryFault::ALL.into_iter().zip(s.injected) {
                fm.add_injected(fault, n);
            }
            fm.flaps.add(s.flaps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_dns::Question;
    use clientmap_world::WorldConfig;

    struct Setup {
        world: World,
        catchments: Catchments,
        auth: Authoritatives,
        gpdns: GooglePublicDns,
        session: GpdnsSession,
        /// The registry holding this core's `gpdns.*` ledger.
        registry: MetricsRegistry,
    }

    fn setup() -> Setup {
        let world = World::generate(WorldConfig::tiny(21));
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let registry = MetricsRegistry::new();
        let gpdns = GooglePublicDns::build_with_metrics(
            &world,
            &catchments,
            &auth,
            GpdnsMetrics::register(&registry),
        );
        Setup {
            world,
            catchments,
            auth,
            gpdns,
            session: GpdnsSession::new(),
            registry,
        }
    }

    /// What the prober reads off a response, decoded: a dropped query
    /// reads as dropped.
    fn outcome_of(resp: Option<&[u8]>) -> ProbeOutcome {
        resp.map_or(ProbeOutcome::Dropped, |bytes| {
            GooglePublicDns::classify(
                &wire::decode(bytes).expect("the resolver writes parsable responses"),
            )
        })
    }

    fn probe_packet(domain: &str, ecs: Prefix, id: u16) -> Vec<u8> {
        let m = Message::query(id, Question::a(domain).unwrap())
            .with_recursion_desired(false)
            .with_ecs(ecs);
        wire::encode(&m).unwrap()
    }

    /// A /24 with a decent Google-bound rate and its catchment PoP.
    fn busy_prefix(s: &Setup) -> (usize, Prefix, PopId) {
        let (i, s24) = s
            .world
            .slash24s
            .iter()
            .enumerate()
            .filter(|(_, p)| p.users > 0.0 && p.resolver_mix.google > 0.1)
            .max_by(|a, b| a.1.users.total_cmp(&b.1.users))
            .expect("active prefix exists");
        (i, s24.prefix, s.catchments.of_slash24(i))
    }

    #[test]
    fn busy_prefix_hits_at_its_pop() {
        let mut s = setup();
        let (_, prefix, pop) = busy_prefix(&s);
        // Probe late in the window so caches are warm, 5 redundant tries
        // over several TTL windows to beat pool selection.
        let mut hits = 0;
        let mut attempts = 0;
        for w in 0..20u64 {
            let t = SimTime::from_secs(3600 * 12 + w * 600);
            for r in 0..5 {
                let pkt = probe_packet("www.google.com", prefix, (w * 5 + r) as u16);
                let resp = s.gpdns.handle_query_at_pop(
                    &mut s.session,
                    &s.world,
                    &s.auth,
                    1,
                    pop,
                    &pkt,
                    Transport::Tcp,
                    t,
                );
                attempts += 1;
                if matches!(outcome_of(resp.as_deref()), ProbeOutcome::Hit { .. }) {
                    hits += 1;
                }
            }
        }
        assert!(
            hits > 0,
            "no hits in {attempts} probes of the busiest prefix"
        );
    }

    #[test]
    fn dark_prefix_never_hits() {
        let mut s = setup();
        let dark = s
            .world
            .slash24s
            .iter()
            .enumerate()
            .find(|(_, p)| !p.is_active())
            .map(|(i, p)| (i, p.prefix))
            .expect("dark prefix exists");
        let pop = s.catchments.of_slash24(dark.0);
        for w in 0..10u64 {
            let t = SimTime::from_secs(3600 * 10 + w * 700);
            let pkt = probe_packet("www.google.com", dark.1, w as u16);
            let resp = s.gpdns.handle_query_at_pop(
                &mut s.session,
                &s.world,
                &s.auth,
                2,
                pop,
                &pkt,
                Transport::Tcp,
                t,
            );
            let outcome = outcome_of(resp.as_deref());
            assert!(
                matches!(outcome, ProbeOutcome::Miss | ProbeOutcome::HitScopeZero),
                "dark prefix produced {outcome:?}"
            );
        }
    }

    #[test]
    fn wrong_pop_misses() {
        let mut s = setup();
        let (_, prefix, pop) = busy_prefix(&s);
        let other_pop = (0..pop_catalog().len())
            .find(|p| {
                *p != pop
                    && pop_catalog()[pop]
                        .coord
                        .distance_km(&pop_catalog()[*p].coord)
                        > 6000.0
            })
            .expect("a distant PoP exists");
        let mut scoped_hits = 0;
        for w in 0..10u64 {
            let t = SimTime::from_secs(3600 * 12 + w * 600);
            let pkt = probe_packet("www.google.com", prefix, w as u16);
            let resp = s.gpdns.handle_query_at_pop(
                &mut s.session,
                &s.world,
                &s.auth,
                3,
                other_pop,
                &pkt,
                Transport::Tcp,
                t,
            );
            if matches!(outcome_of(resp.as_deref()), ProbeOutcome::Hit { .. }) {
                scoped_hits += 1;
            }
        }
        // A distant PoP may share *some* catchment but the busy prefix's
        // own queries land elsewhere; allow zero-or-rare hits.
        assert!(scoped_hits <= 2, "distant PoP hit {scoped_hits}/10");
    }

    #[test]
    fn udp_rate_limit_kicks_in_tcp_does_not() {
        let mut s = setup();
        let (_, prefix, pop) = busy_prefix(&s);
        let t = SimTime::from_secs(1000);
        let mut udp_drops = 0;
        for i in 0..200u16 {
            let pkt = probe_packet("www.google.com", prefix, i);
            // All at the same instant: exhausts the UDP burst.
            if s.gpdns
                .handle_query_at_pop(
                    &mut s.session,
                    &s.world,
                    &s.auth,
                    7,
                    pop,
                    &pkt,
                    Transport::Udp,
                    t,
                )
                .is_none()
            {
                udp_drops += 1;
            }
        }
        assert!(udp_drops > 100, "UDP drops {udp_drops}");
        let mut tcp_drops = 0;
        for i in 0..200u16 {
            let pkt = probe_packet("www.google.com", prefix, i);
            if s.gpdns
                .handle_query_at_pop(
                    &mut s.session,
                    &s.world,
                    &s.auth,
                    8,
                    pop,
                    &pkt,
                    Transport::Tcp,
                    t,
                )
                .is_none()
            {
                tcp_drops += 1;
            }
        }
        assert_eq!(tcp_drops, 0, "TCP should absorb 200 instant queries");
    }

    #[test]
    fn myaddr_reports_pop_code() {
        let mut s = setup();
        let q = Message::query(1, Question::txt(MYADDR_NAME).unwrap());
        let pkt = wire::encode(&q).unwrap();
        let resp = s
            .gpdns
            .handle_query_at_pop(
                &mut s.session,
                &s.world,
                &s.auth,
                9,
                3,
                &pkt,
                Transport::Udp,
                SimTime::ZERO,
            )
            .expect("myaddr always answers");
        let msg = wire::decode(&resp).unwrap();
        match &msg.answers[0].rdata {
            clientmap_dns::RData::Txt(s) => {
                assert_eq!(s, &format!("pop={}", pop_catalog()[3].code));
            }
            other => panic!("wrong rdata {other:?}"),
        }
    }

    #[test]
    fn recursive_queries_resolve_and_echo_scope() {
        let mut s = setup();
        let prefix: Prefix = {
            let (_, p, _) = busy_prefix(&s);
            p
        };
        let m = Message::query(5, Question::a("www.google.com").unwrap()).with_ecs(prefix);
        let pkt = wire::encode(&m).unwrap();
        let resp = s
            .gpdns
            .handle_query_at_pop(
                &mut s.session,
                &s.world,
                &s.auth,
                10,
                0,
                &pkt,
                Transport::Udp,
                SimTime::ZERO,
            )
            .expect("recursive answers");
        let msg = wire::decode(&resp).unwrap();
        assert!(msg.has_answers());
        assert!(msg.ecs().is_some());
        assert_eq!(s.registry.snapshot().counter("gpdns.recursive"), 1);
    }

    #[test]
    fn non_recursive_does_not_resolve_unknown() {
        let mut s = setup();
        let m = Message::query(6, Question::a("www.amazon.com").unwrap())
            .with_recursion_desired(false)
            .with_ecs("5.5.5.0/24".parse().unwrap());
        let pkt = wire::encode(&m).unwrap();
        let resp = s
            .gpdns
            .handle_query_at_pop(
                &mut s.session,
                &s.world,
                &s.auth,
                11,
                0,
                &pkt,
                Transport::Tcp,
                SimTime::ZERO,
            )
            .expect("responds");
        let msg = wire::decode(&resp).unwrap();
        assert!(!msg.has_answers(), "non-ECS domain must not be snoopable");
    }

    #[test]
    fn liveness_consistent_within_ttl_window() {
        let mut s = setup();
        let (_, prefix, pop) = busy_prefix(&s);
        // Two identical probes close in time must agree per pool; since
        // pools are random, compare the multiset over many tries at two
        // times in the same window.
        let t1 = SimTime::from_secs(36_000);
        let t2 = SimTime::from_secs(36_020); // same 300s window
        let count_hits = |g: &GooglePublicDns,
                          session: &mut GpdnsSession,
                          world: &World,
                          auth: &Authoritatives,
                          t: SimTime| {
            let mut hits = 0;
            for i in 0..40u16 {
                let pkt = probe_packet("www.google.com", prefix, i);
                let resp =
                    g.handle_query_at_pop(session, world, auth, 20, pop, &pkt, Transport::Tcp, t);
                if matches!(outcome_of(resp.as_deref()), ProbeOutcome::Hit { .. }) {
                    hits += 1;
                }
            }
            hits
        };
        let h1: i32 = count_hits(&s.gpdns, &mut s.session, &s.world, &s.auth, t1);
        let h2: i32 = count_hits(&s.gpdns, &mut s.session, &s.world, &s.auth, t2);
        // Same window ⇒ same per-pool liveness ⇒ similar hit counts
        // (pool draws differ, so allow sampling noise).
        assert!((h1 - h2).abs() <= 12, "inconsistent liveness: {h1} vs {h2}");
    }

    /// Replays one probe event (redundant attempts, Hit-early-exit,
    /// merge by rank) through the scalar lane — the oracle the batched
    /// lane must reproduce exactly.
    #[allow(clippy::too_many_arguments)]
    fn scalar_probe_event(
        gpdns: &GooglePublicDns,
        session: &mut GpdnsSession,
        world: &World,
        catchments: &Catchments,
        auth: &Authoritatives,
        template: &wire::ProbeQueryTemplate,
        prober: u64,
        coord: clientmap_net::GeoCoord,
        scope: Prefix,
        transport: Transport,
        t: SimTime,
        redundancy: u32,
        query_buf: &mut Vec<u8>,
    ) -> ProbeOutcome {
        fn rank(o: &ProbeOutcome) -> u8 {
            match o {
                ProbeOutcome::Dropped => 0,
                ProbeOutcome::Miss => 1,
                ProbeOutcome::HitScopeZero => 2,
                ProbeOutcome::Hit { .. } => 3,
            }
        }
        let mut best = ProbeOutcome::Dropped;
        for r in 0..redundancy {
            let rt = t + SimTime::from_millis(u64::from(r));
            template.render(0x5151, scope, query_buf);
            let resp = gpdns.handle_query(
                session, world, catchments, auth, prober, coord, query_buf, transport, rt,
            );
            let outcome = outcome_of(resp.as_deref());
            if rank(&outcome) > rank(&best) {
                best = outcome;
            }
            if matches!(best, ProbeOutcome::Hit { .. }) {
                break;
            }
        }
        best
    }

    #[test]
    fn batched_lane_matches_the_scalar_lane_exactly() {
        let world = World::generate(WorldConfig::tiny(21));
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let reg_scalar = MetricsRegistry::new();
        let gp_scalar = GooglePublicDns::build_with_metrics(
            &world,
            &catchments,
            &auth,
            GpdnsMetrics::register(&reg_scalar),
        );
        let reg_batch = MetricsRegistry::new();
        let gp_batch = GooglePublicDns::build_with_metrics(
            &world,
            &catchments,
            &auth,
            GpdnsMetrics::register(&reg_batch),
        );

        let template = wire::ProbeQueryTemplate::new(&"www.google.com".parse().unwrap());
        let prober = 11u64;
        let coord = pop_catalog()[3].coord;
        let redundancy = 5u32;
        // Busy prefixes homed at the prober's own PoP (hit candidates)
        // plus a spread of others (scope-0/miss candidates).
        let home = catchments.of_vantage(prober, coord);
        let mut scopes: Vec<Prefix> = {
            let mut busiest: Vec<(f64, Prefix)> = world
                .slash24s
                .iter()
                .enumerate()
                .filter(|(i, p)| p.is_active() && catchments.of_slash24(*i) == home)
                .map(|(_, p)| (p.users + p.machines, p.prefix))
                .collect();
            busiest.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            busiest.into_iter().take(16).map(|(_, p)| p).collect()
        };
        scopes.extend(world.slash24s.iter().step_by(11).take(8).map(|s| s.prefix));

        // Three passes over the scopes; TCP paces events out and
        // exercises the hit/scope-0/miss paths, UDP packs them tight so
        // the token bucket runs dry and admission-drop parity is
        // covered too.
        let stream = |event_gap_ms: u64, pass_gap_ms: u64| -> Vec<(u32, SimTime)> {
            let mut events = Vec::new();
            for pass in 0..3u64 {
                for i in 0..scopes.len() as u64 {
                    let t = SimTime::from_secs(3600 * 9)
                        + SimTime::from_millis(pass * pass_gap_ms + i * event_gap_ms);
                    events.push((i as u32, t));
                }
            }
            events
        };

        for transport in [Transport::Tcp, Transport::Udp] {
            let events = match transport {
                Transport::Tcp => stream(250, 40_000),
                Transport::Udp => stream(5, 125),
            };
            let mut scalar_session = GpdnsSession::new();
            let mut batch_session = GpdnsSession::new();
            let mut query_buf = Vec::new();
            let scalar_outcomes: Vec<ProbeOutcome> = events
                .iter()
                .map(|&(lane, t)| {
                    scalar_probe_event(
                        &gp_scalar,
                        &mut scalar_session,
                        &world,
                        &catchments,
                        &auth,
                        &template,
                        prober,
                        coord,
                        scopes[lane as usize],
                        transport,
                        t,
                        redundancy,
                        &mut query_buf,
                    )
                })
                .collect();

            let mut conn = gp_batch
                .open_batch(&catchments, &batch_session, prober, coord, transport)
                .expect("fault-free core opens a batch");
            let dom = gp_batch
                .batch_domain(&conn, template.qname_wire())
                .expect("probed domain is ECS-cached");
            let lanes: Vec<ScopeLane> = scopes
                .iter()
                .map(|&s| gp_batch.scope_lane(&auth, &dom, s))
                .collect();
            let batch_outcomes: Vec<ProbeOutcome> = events
                .iter()
                .map(|&(lane, t)| {
                    gp_batch.serve_event(
                        &mut conn,
                        &dom,
                        &auth,
                        &lanes[lane as usize],
                        t,
                        redundancy,
                    )
                })
                .collect();
            gp_batch.close_batch(conn, &mut batch_session);

            assert_eq!(
                batch_outcomes, scalar_outcomes,
                "{transport:?} outcome drift"
            );
            // The ledger is identical counter for counter.
            let ledger = reg_batch.snapshot();
            assert_eq!(ledger, reg_scalar.snapshot(), "{transport:?} ledger drift");
            // TCP runs first, so its cache exits are this connection's
            // alone; only UDP can be rate limited.
            if transport == Transport::Tcp {
                assert!(
                    ledger.sum_counters("gpdns.cache.hit.") > 0
                        && ledger.sum_counters("gpdns.cache.miss.") > 0,
                    "test did not exercise both hit and miss paths"
                );
            } else {
                assert!(
                    ledger.counter("gpdns.rate_limited.udp") > 0,
                    "UDP stream never hit the rate limit"
                );
            }
        }
    }

    /// What the prober reads off a response, as the batched door's
    /// typed stand-in: nothing, an error rcode and/or TC, or an answer.
    fn reply_of(resp: Option<&[u8]>) -> AttemptReply {
        let Some(bytes) = resp else {
            return AttemptReply::Dropped;
        };
        let resp = wire::decode(bytes).expect("the resolver writes parsable responses");
        let (rcode, tc) = (resp.rcode.to_u8(), resp.truncated);
        if rcode != 0 || tc {
            AttemptReply::Error { rcode, tc }
        } else {
            AttemptReply::Answer(GooglePublicDns::classify(&resp))
        }
    }

    #[test]
    fn batch_opens_faulted_cores_and_rejects_mismatched_packets() {
        use clientmap_faults::{FaultConfig, FaultProfile};

        let world = World::generate(WorldConfig::tiny(21));
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let template = wire::ProbeQueryTemplate::new(&"www.google.com".parse().unwrap());
        let coord = pop_catalog()[0].coord;

        // A faulted core opens a connection, and its per-query door
        // agrees with the scalar lane query for query — every reply and
        // the whole registry, flaps, outages and rate limits included.
        for profile in [FaultProfile::Lossy, FaultProfile::PopChurn] {
            let plan = Arc::new(FaultPlan::new(
                world.config.seed,
                &FaultConfig::profile(profile, 7),
            ));
            // A vantage whose home PoP takes a maintenance window, when
            // the profile schedules any.
            let (prober, coord) = pop_catalog()
                .iter()
                .enumerate()
                .map(|(i, site)| (i as u64 + 1, site.coord))
                .find(|&(p, c)| {
                    plan.outage_window(catchments.vantage_route(p, c).home)
                        .is_some()
                })
                .unwrap_or((3, coord));
            let core = |m: &MetricsRegistry| {
                GooglePublicDns::build_with_metrics(
                    &world,
                    &catchments,
                    &auth,
                    GpdnsMetrics::register(m),
                )
                .with_faults(Arc::clone(&plan), Some(FaultMetrics::register(m)))
            };
            let (m_scalar, m_batch) = (MetricsRegistry::new(), MetricsRegistry::new());
            let (scalar, batch) = (core(&m_scalar), core(&m_batch));
            let route = catchments.vantage_route(prober, coord);
            assert_ne!(route.home, route.alternate, "the flap has somewhere to go");
            // The busiest /24s homed at either PoP of the route (hit
            // candidates whether or not the query flaps), plus a spread.
            let mut scopes: Vec<Prefix> = world
                .slash24s
                .iter()
                .enumerate()
                .filter(|(i, p)| {
                    p.users > 0.0
                        && [route.home, route.alternate].contains(&catchments.of_slash24(*i))
                })
                .map(|(_, p)| p.prefix)
                .take(24)
                .collect();
            scopes.extend(world.slash24s.iter().step_by(13).take(8).map(|p| p.prefix));

            let mut scalar_session = GpdnsSession::new();
            let mut batch_session = GpdnsSession::new();
            let mut conn = batch
                .open_batch(&catchments, &batch_session, prober, coord, Transport::Tcp)
                .expect("faulted cores open batch connections");
            let dom = batch.batch_domain(&conn, template.qname_wire()).unwrap();
            let mut packet = Vec::new();
            let mut kinds = std::collections::BTreeSet::new();
            let mut t = SimTime::from_hours(6);
            let mut burst_left = 0u32;
            for q in 0..3_000u64 {
                // Queries pace out 24 s apart over ~20 h, across outage
                // and flap windows. Every five hundredth query, and the
                // last one before each flap edge, opens an 80-query UDP
                // burst 1 ms apart that runs a bucket dry. A burst across
                // a flap edge drains the home and the alternate PoP's
                // buckets in turn, which only agrees with the scalar
                // lane if each keeps its own.
                if burst_left == 0 {
                    let next = t + SimTime::from_millis(24_000);
                    if plan.flap(prober, t.as_millis()) != plan.flap(prober, next.as_millis()) {
                        // The plan's flap windows are 10 minutes long.
                        let edge = next.as_millis() / 600_000 * 600_000;
                        t = SimTime::from_millis((edge - 40).max(t.as_millis()));
                        burst_left = 80;
                    } else if q % 500 == 0 {
                        burst_left = 80;
                    } else {
                        t = next;
                    }
                }
                let burst = burst_left > 0;
                if burst {
                    burst_left -= 1;
                    t = t + SimTime::from_millis(1);
                }
                let transport = if burst || q % 3 == 0 {
                    Transport::Udp
                } else {
                    Transport::Tcp
                };
                let scope = scopes[(q as usize * 7) % scopes.len()];
                let id = (q as u16).wrapping_mul(0x9E37);
                template.render(id, scope, &mut packet);
                let resp = scalar.handle_query_at_pop(
                    &mut scalar_session,
                    &world,
                    &auth,
                    route.prober,
                    scalar.route(&route, t),
                    &packet,
                    transport,
                    t,
                );
                let want = reply_of(resp.as_deref());
                let lane = batch.scope_lane(&auth, &dom, scope);
                let reply = batch.serve_attempt(&mut conn, &dom, &auth, &lane, transport, t, id);
                assert_eq!(reply, want, "{profile:?}: query {q} at {t:?}");
                kinds.insert(match want {
                    AttemptReply::Dropped => "dropped",
                    AttemptReply::Error { tc: true, .. } => "truncated",
                    AttemptReply::Error { .. } => "error",
                    AttemptReply::Answer(ProbeOutcome::Hit { .. }) => "hit",
                    AttemptReply::Answer(_) => "scope0 or miss",
                });
            }
            batch.close_batch(conn, &mut batch_session);
            let ledger = m_scalar.snapshot();
            assert_eq!(m_batch.snapshot(), ledger, "{profile:?} ledger drift");
            assert_eq!(kinds.len(), 5, "{profile:?}: every reply kind: {kinds:?}");
            assert!(
                ledger.counter("faults.flaps") > 0,
                "{profile:?} never flapped"
            );
            assert!(ledger.counter("gpdns.rate_limited.udp") > 0, "{profile:?}");
            if profile == FaultProfile::PopChurn {
                assert!(
                    ledger.counter("faults.injected.outage") > 0,
                    "no outage crossed"
                );
            }
        }

        // A clean core rejects a batch whose packets do not carry the
        // lane's scope — with no state moved.
        let reg = MetricsRegistry::new();
        let gpdns = GooglePublicDns::build_with_metrics(
            &world,
            &catchments,
            &auth,
            GpdnsMetrics::register(&reg),
        );
        let before = reg.snapshot().to_json();
        let mut batch_session = GpdnsSession::new();
        let mut conn = gpdns
            .open_batch(&catchments, &batch_session, 1, coord, Transport::Tcp)
            .unwrap();
        let template = wire::ProbeQueryTemplate::new(&"www.google.com".parse().unwrap());
        let dom = gpdns.batch_domain(&conn, template.qname_wire()).unwrap();
        let scope: Prefix = world.slash24s[0].prefix;
        let other: Prefix = world.slash24s[1].prefix;
        let lanes = [gpdns.scope_lane(&auth, &dom, scope)];
        let mut arena = wire::ProbeBatch::new();
        arena.push(&template, 1, other); // wrong scope for lane 0
        let mut out = Vec::new();
        let events = [(0u32, SimTime::from_secs(3600))];
        assert!(!gpdns.serve_batch(&mut conn, &dom, &auth, &lanes, &arena, &events, 5, &mut out));
        assert!(out.is_empty());
        gpdns.close_batch(conn, &mut batch_session);
        assert_eq!(
            reg.snapshot().to_json(),
            before,
            "rejected batch moved telemetry"
        );

        // A packet carrying the lane's scope validates and is served as
        // the same event through `serve_event` would be.
        let mut conn = gpdns
            .open_batch(&catchments, &batch_session, 1, coord, Transport::Tcp)
            .unwrap();
        arena.clear();
        arena.push(&template, 1, scope);
        assert!(gpdns.serve_batch(&mut conn, &dom, &auth, &lanes, &arena, &events, 5, &mut out));
        let mut twin = gpdns
            .open_batch(&catchments, &batch_session, 1, coord, Transport::Tcp)
            .unwrap();
        let (_, t) = events[0];
        assert_eq!(
            out,
            [gpdns.serve_event(&mut twin, &dom, &auth, &lanes[0], t, 5)]
        );
    }

    #[test]
    fn injected_faults_show_on_the_wire_and_are_counted() {
        use clientmap_faults::{FaultConfig, FaultProfile};

        let world = World::generate(WorldConfig::tiny(21));
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let plan = Arc::new(FaultPlan::new(
            world.config.seed,
            &FaultConfig::profile(FaultProfile::Lossy, 7),
        ));
        let m = MetricsRegistry::new();
        let gpdns = GooglePublicDns::build_with_metrics(
            &world,
            &catchments,
            &auth,
            GpdnsMetrics::register(&m),
        )
        .with_faults(Arc::clone(&plan), Some(FaultMetrics::register(&m)));
        assert!(gpdns.fault_plan().enabled());

        let busy = world
            .slash24s
            .iter()
            .find(|p| p.is_active())
            .map(|p| p.prefix)
            .expect("active prefix exists");
        let mut session = GpdnsSession::new();
        let (mut dropped, mut errored, mut truncated_udp, mut tc_on_tcp) = (0u64, 0u64, 0u64, 0u64);
        // One query per second per transport keeps even UDP inside its
        // token budget, so every lost response is an injected fault.
        for q in 0..600u64 {
            let t = SimTime::from_secs(3600 * 6 + q);
            let transport = if q % 2 == 0 {
                Transport::Udp
            } else {
                Transport::Tcp
            };
            let pkt = probe_packet("www.google.com", busy, q as u16);
            let resp =
                gpdns.handle_query_at_pop(&mut session, &world, &auth, 42, 1, &pkt, transport, t);
            let Some(bytes) = resp else {
                dropped += 1;
                continue;
            };
            let resp = wire::decode(&bytes).unwrap();
            assert_eq!(resp.id, q as u16);
            if resp.rcode != Rcode::NoError {
                errored += 1;
            }
            if resp.truncated {
                match transport {
                    Transport::Udp => truncated_udp += 1,
                    Transport::Tcp => tc_on_tcp += 1,
                }
            }
        }
        let snap = m.snapshot();
        assert_eq!(snap.sum_counters("gpdns.rate_limited."), 0);
        // The core counted every injection it put on the wire.
        assert_eq!(
            snap.sum_counters("faults.injected."),
            dropped + errored + truncated_udp + tc_on_tcp
        );
        assert!(
            dropped > 0,
            "lossy profile must drop something in 600 queries"
        );
        assert!(errored > 0, "lossy profile must inject an error rcode");
        assert!(truncated_udp > 0, "lossy profile must truncate some UDP");
        assert_eq!(tc_on_tcp, 0, "TC must never be set on TCP responses");
        // gpdns exit-path conservation with the injected classes included:
        // every query either rate-limits, faults, or reaches the cache.
        let cache_exits = snap.sum_counters("gpdns.cache.hit.")
            + snap.sum_counters("gpdns.cache.scope0.")
            + snap.sum_counters("gpdns.cache.miss.");
        assert_eq!(
            snap.sum_counters("gpdns.queries."),
            snap.sum_counters("faults.injected.") + cache_exits
        );
    }

    #[test]
    fn outage_window_drops_every_query_at_pop() {
        use clientmap_faults::{FaultConfig, FaultProfile};

        let world = World::generate(WorldConfig::tiny(21));
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let plan = Arc::new(FaultPlan::new(
            world.config.seed,
            &FaultConfig::profile(FaultProfile::PopChurn, 3),
        ));
        let pop = (0..pop_catalog().len())
            .find(|p| plan.outage_window(*p).is_some())
            .expect("pop-churn schedules at least one outage");
        let (start, end) = plan.outage_window(pop).unwrap();
        let gpdns =
            GooglePublicDns::build(&world, &catchments, &auth).with_faults(Arc::clone(&plan), None);
        let busy = world
            .slash24s
            .iter()
            .find(|p| p.is_active())
            .map(|p| p.prefix)
            .unwrap();
        let mut session = GpdnsSession::new();
        for q in 0..50u64 {
            let t = SimTime::from_millis(start + q * (end - start - 1) / 50);
            let pkt = probe_packet("www.google.com", busy, q as u16);
            let resp = gpdns.handle_query_at_pop(
                &mut session,
                &world,
                &auth,
                7,
                pop,
                &pkt,
                Transport::Tcp,
                t,
            );
            assert!(resp.is_none(), "query {q} inside the outage must drop");
        }
        // Before the window opens, the PoP answers again.
        let pkt = probe_packet("www.google.com", busy, 999);
        let resp = gpdns.handle_query_at_pop(
            &mut session,
            &world,
            &auth,
            7,
            pop,
            &pkt,
            Transport::Tcp,
            SimTime::from_millis(start - 10_000),
        );
        assert!(
            resp.is_some()
                || plan
                    .query_fault(7, pop, false, start - 10_000, 999)
                    .is_some()
        );
    }

    // The full hash chains as they were before their constant heads
    // were hoisted into the tables, the connection and the domain:
    // oracles the hoisted forms must match bit for bit.

    /// The service seed every chain starts from.
    fn chain_seed(world: &World) -> u64 {
        SeedMixer::new(world.config.seed).mix_str("gpdns").finish()
    }

    fn oracle_pool_hash(seed: u64, prober: u64, t: SimTime, source: Prefix, seq: u64) -> u64 {
        SeedMixer::new(seed)
            .mix_str("pool")
            .mix(prober)
            .mix(t.as_millis())
            .mix(u64::from(source.addr()))
            .mix(seq)
            .finish()
    }

    /// The whole `entry_live`: its coin and its verdict.
    #[allow(clippy::too_many_arguments)]
    fn oracle_entry_live(
        g: &GooglePublicDns,
        seed: u64,
        pop: PopId,
        pool: usize,
        slot: usize,
        scope: Prefix,
        load: &ScopeLoad,
        t: SimTime,
    ) -> (u64, bool) {
        let ttl = f64::from(g.tables.ttls[slot]);
        let window = (t.as_secs_f64() / ttl) as u64;
        let diurnal = clientmap_world::activity::diurnal_multiplier(
            t.as_secs_f64(),
            load.lon(),
            g.tables.diurnal_amplitude,
        );
        let lambda_pool = load.rate * diurnal / POOLS_PER_POP as f64;
        let horizon = ttl.min(t.as_secs_f64().max(0.0));
        let p_live = 1.0 - (-lambda_pool * horizon).exp();
        let h = SeedMixer::new(seed)
            .mix_str("live")
            .mix(pop as u64)
            .mix(pool as u64)
            .mix(slot as u64)
            .mix(u64::from(scope.addr()))
            .mix(u64::from(scope.len()))
            .mix(window)
            .finish();
        (h, unit(h) < p_live)
    }

    /// The whole remaining-TTL draw: its hash and the TTL it yields.
    fn oracle_remaining_ttl(
        g: &GooglePublicDns,
        seed: u64,
        pop: PopId,
        pool: usize,
        slot: usize,
        scope: Prefix,
        t: SimTime,
    ) -> (u64, u32) {
        let h = SeedMixer::new(seed)
            .mix_str("ttl")
            .mix(pop as u64)
            .mix(pool as u64)
            .mix(u64::from(scope.addr()))
            .mix(t.as_millis() / (u64::from(g.tables.ttls[slot]) * 1000))
            .finish();
        let ttl = f64::from(g.tables.ttls[slot]);
        let age = unit(SeedMixer::new(h).mix(99).finish()) * ttl.min(t.as_secs_f64());
        (h, (ttl - age).max(1.0) as u32)
    }

    /// A seeded stream of random draws for the oracle comparisons.
    fn draws(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = clientmap_net::splitmix64(state);
            state
        }
    }

    /// A random ⟨scope, t, load⟩: any prefix length, up to five days
    /// in, and rates spanning near-certain misses to near-certain hits.
    fn random_entry(next: &mut impl FnMut() -> u64) -> (Prefix, SimTime, ScopeLoad) {
        let scope = Prefix::new(next() as u32, (next() % 33) as u8).unwrap();
        let t = SimTime::from_millis(next() % (5 * 86_400_000));
        let mut load = ScopeLoad::default();
        load.add(unit(next()) * 0.05, unit(next()) * 360.0 - 180.0);
        (scope, t, load)
    }

    #[test]
    fn hoisted_chains_match_the_full_chains() {
        let s = setup();
        let (g, seed) = (&s.gpdns, chain_seed(&s.world));
        let mut next = draws(0x5EED);
        let mut verdicts = [0u32; 2];
        for _ in 0..5_000 {
            let pop = (next() % pop_catalog().len() as u64) as usize;
            let pool = (next() % POOLS_PER_POP as u64) as usize;
            let slot = (next() % g.tables.ttls.len() as u64) as usize;
            let (prober, seq) = (next(), next() % 1_000_000);
            let (scope, t, load) = random_entry(&mut next);

            let pool_h = oracle_pool_hash(seed, prober, t, scope, seq);
            let by_prober = g.tables.pool.mix(prober);
            assert_eq!(pool_hash(by_prober, t, scope, seq), pool_h);
            assert_eq!(
                draw_pool(by_prober, t, scope, seq),
                (pool_h % POOLS_PER_POP as u64) as usize
            );

            let (live_h, live) = oracle_entry_live(g, seed, pop, pool, slot, scope, &load, t);
            let window = (t.as_secs_f64() / f64::from(g.tables.ttls[slot])) as u64;
            let by_slot = g.tables.live_by_slot(pop, pool, slot);
            assert_eq!(live_hash(by_slot, scope, window), live_h);
            assert_eq!(g.entry_live(pop, pool, slot, scope, &load, t), live);
            assert_eq!(g.entry_live_from(by_slot, slot, scope, &load, t), live);
            verdicts[usize::from(live)] += 1;

            let (ttl_h, remaining) = oracle_remaining_ttl(g, seed, pop, pool, slot, scope, t);
            let by_pool = g.tables.ttl_by_pool(pop, pool);
            assert_eq!(ttl_hash(by_pool, scope, t, g.tables.ttls[slot]), ttl_h);
            assert_eq!(g.remaining_ttl(by_pool, slot, scope, t), remaining);
        }
        assert!(
            verdicts.iter().all(|&n| n > 500),
            "both verdicts exercised: {verdicts:?}"
        );
    }

    #[test]
    fn batch_chain_heads_match_the_full_chains() {
        let s = setup();
        let (g, seed) = (&s.gpdns, chain_seed(&s.world));
        let mut next = draws(0xBA7C);
        let mut pops = std::collections::BTreeSet::new();
        for (prober, site) in pop_catalog().iter().enumerate() {
            let conn = g
                .open_batch(
                    &s.catchments,
                    &s.session,
                    prober as u64,
                    site.coord,
                    Transport::Tcp,
                )
                .expect("fault-free core opens a batch");
            pops.insert(conn.pop);
            for wire in &g.tables.domain_wires {
                let dom = g.batch_domain(&conn, wire).expect("an ECS-cached slot");
                for _ in 0..40 {
                    let pool = (next() % POOLS_PER_POP as u64) as usize;
                    let seq = next() % 1_000_000;
                    let (scope, t, load) = random_entry(&mut next);
                    assert_eq!(
                        pool_hash(conn.pool_by_prober, t, scope, seq),
                        oracle_pool_hash(seed, conn.prober, t, scope, seq)
                    );
                    let (live_h, live) =
                        oracle_entry_live(g, seed, conn.pop, pool, dom.slot, scope, &load, t);
                    let window = (t.as_secs_f64() / f64::from(g.tables.ttls[dom.slot])) as u64;
                    assert_eq!(live_hash(dom.live_by_slot[pool], scope, window), live_h);
                    assert_eq!(
                        g.entry_live_from(dom.live_by_slot[pool], dom.slot, scope, &load, t),
                        live
                    );
                    let (ttl_h, remaining) =
                        oracle_remaining_ttl(g, seed, conn.pop, pool, dom.slot, scope, t);
                    let ttl = g.tables.ttls[dom.slot];
                    assert_eq!(ttl_hash(dom.ttl_by_pool[pool], scope, t, ttl), ttl_h);
                    assert_eq!(
                        g.remaining_ttl(dom.ttl_by_pool[pool], dom.slot, scope, t),
                        remaining
                    );
                }
            }
        }
        assert!(pops.len() > 1, "connections cover several PoPs: {pops:?}");
    }

    #[test]
    fn egress_addrs_roundtrip() {
        let s = setup();
        for pop in [0usize, 5, 21, 26] {
            let addr = s.gpdns.egress_addr(pop);
            assert_eq!(s.gpdns.pop_of_egress(addr), Some(pop));
        }
        assert_eq!(s.gpdns.pop_of_egress(0x0101_0101), None);
    }

    #[test]
    fn unreachable_pops_carry_small_share_of_load() {
        let s = setup();
        use crate::pops::PopStatus;
        let pops = pop_catalog();
        let mut probed = 0.0;
        let mut unreachable = 0.0;
        for (i, p) in pops.iter().enumerate() {
            match p.status {
                PopStatus::ProbedVerified => probed += s.gpdns.pop_load(i),
                PopStatus::UnprobedVerified => unreachable += s.gpdns.pop_load(i),
                PopStatus::UnprobedInactive => {
                    assert_eq!(s.gpdns.pop_load(i), 0.0, "inactive PoP {} has load", p.code)
                }
            }
        }
        let share = unreachable / (probed + unreachable);
        // Paper: ~5%. Accept a band (tiny worlds are noisy).
        assert!(share < 0.25, "unreachable share {share}");
        assert!(probed > 0.0);
    }
}
