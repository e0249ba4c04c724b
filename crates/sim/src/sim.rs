//! The [`Sim`] façade tying world + services together.

use std::sync::Arc;

use clientmap_dns::{wire, DomainName, Message, Question, RData, ScopedAnswer};
use clientmap_faults::{FaultConfig, FaultMetrics, FaultPlan};
use clientmap_net::{GeoCoord, Prefix};
use clientmap_telemetry::MetricsRegistry;
use clientmap_world::World;

use crate::anycast::{Catchments, VantageRoute};
use crate::authoritative::Authoritatives;
use crate::cdn::{collect_logs, CdnLogs};
use crate::gpdns::{
    GooglePublicDns, GpdnsMetrics, GpdnsSession, GpdnsTables, Transport, MYADDR_NAME,
};
use crate::pops::{pop_catalog, PopId};
use crate::resolvers::{ResolverSnooping, SnoopOutcome};
use crate::roots::{capture_traces, RootTraceSet};
use crate::SimTime;

/// The assembled simulation: one [`World`] plus every service the
/// measurement techniques interact with.
///
/// Two parts: the immutable [`Substrate`] (the world and everything
/// derived from it), shared behind an `Arc` by every `Sim` over the same
/// world, and the state of one run over it — the metrics registry, the
/// resolver's counters and fault plan, and the prober's session.
///
/// ```
/// use clientmap_sim::Sim;
/// use clientmap_world::{World, WorldConfig};
///
/// let sim = Sim::new(World::generate(WorldConfig::tiny(1)));
/// assert!(sim.world().routed_slash24s() > 1000);
/// // A second, cold run over the same world shares its substrate.
/// let again = sim.fresh();
/// assert!(std::ptr::eq(sim.world(), again.world()));
/// ```
#[derive(Debug)]
pub struct Sim {
    substrate: Arc<Substrate>,
    gpdns: GooglePublicDns,
    session: GpdnsSession,
    metrics: Arc<MetricsRegistry>,
}

/// Everything in a [`Sim`] that is a pure function of its [`World`]:
/// the world, anycast catchments, the authoritative layer, Google's
/// per-PoP load tables, resolver snooping and the probe universe. Built
/// once ([`Substrate::build`]) and shared by every run over the world.
#[derive(Debug)]
pub struct Substrate {
    world: World,
    catchments: Catchments,
    auth: Authoritatives,
    gpdns: Arc<GpdnsTables>,
    snooping: ResolverSnooping,
    universe: Vec<Prefix>,
}

impl Substrate {
    /// Derives every service table from `world`.
    pub fn build(world: World) -> Substrate {
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let gpdns = Arc::new(GpdnsTables::build(&world, &catchments, &auth));
        let snooping = ResolverSnooping::new(world.config.seed);
        let universe = world.blocks.iter().map(|b| b.prefix).collect();
        Substrate {
            world,
            catchments,
            auth,
            gpdns,
            snooping,
            universe,
        }
    }

    /// The probe universe: every announced block — public allocation
    /// data (the RIR files stand-in).
    pub fn universe(&self) -> &[Prefix] {
        &self.universe
    }
}

/// A read-only view over the simulation shared by concurrent probers;
/// obtained from [`Sim::view`]. Each prober pairs it with its own
/// [`GpdnsSession`].
#[derive(Debug, Clone, Copy)]
pub struct SimView<'a> {
    /// The world (public data only, by convention).
    pub world: &'a World,
    /// Anycast catchments.
    pub catchments: &'a Catchments,
    /// Authoritative layer.
    pub auth: &'a Authoritatives,
    /// The Google Public DNS core.
    pub gpdns: &'a GooglePublicDns,
}

impl<'a> SimView<'a> {
    /// Sends one wire-format query from the vantage `prober` at `coord`
    /// through a caller-owned session, writing the response into a
    /// caller-reused buffer. Returns whether a response was produced
    /// (`false` = dropped). Resolves the vantage's route for this one
    /// query; a probe stream resolves it once and calls
    /// [`SimView::gpdns_query_routed_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn gpdns_query_into(
        &self,
        session: &mut GpdnsSession,
        prober: u64,
        coord: GeoCoord,
        packet: &[u8],
        transport: Transport,
        t: SimTime,
        out: &mut Vec<u8>,
    ) -> bool {
        self.gpdns.handle_query_into(
            session,
            self.world,
            self.catchments,
            self.auth,
            prober,
            coord,
            packet,
            transport,
            t,
            out,
        )
    }

    /// [`SimView::gpdns_query_into`] over a route resolved once per
    /// stream ([`Catchments::vantage_route`]) — the zero-allocation
    /// probe call.
    pub fn gpdns_query_routed_into(
        &self,
        session: &mut GpdnsSession,
        route: &VantageRoute,
        packet: &[u8],
        transport: Transport,
        t: SimTime,
        out: &mut Vec<u8>,
    ) -> bool {
        self.gpdns.handle_query_routed_into(
            session, self.world, self.auth, route, packet, transport, t, out,
        )
    }
}

impl Sim {
    /// Builds the simulation for a world, with telemetry on a fresh
    /// registry (see [`Sim::with_metrics`]).
    pub fn new(world: World) -> Sim {
        Sim::with_metrics(world, Arc::new(MetricsRegistry::new()))
    }

    /// Builds the simulation for a world, registering all service-side
    /// instruments (and the world-shape gauges) on `metrics`.
    pub fn with_metrics(world: World, metrics: Arc<MetricsRegistry>) -> Sim {
        Sim::with_faults(world, metrics, &FaultConfig::default())
    }

    /// [`Sim::with_metrics`] plus a fault-injection plan derived from
    /// `(world seed, fault seed)`. With the default (off) config this
    /// is exactly the fault-free simulation: no fault counters are
    /// registered and every injection point short-circuits.
    pub fn with_faults(world: World, metrics: Arc<MetricsRegistry>, faults: &FaultConfig) -> Sim {
        Sim::over(Arc::new(Substrate::build(world)), metrics, faults)
    }

    /// [`Sim::with_faults`] over an already-built substrate: a cold run
    /// (fresh session, counters on `metrics`) that derives nothing from
    /// the world again.
    pub fn over(
        substrate: Arc<Substrate>,
        metrics: Arc<MetricsRegistry>,
        faults: &FaultConfig,
    ) -> Sim {
        let world = &substrate.world;
        world.register_metrics(&metrics);
        let plan = Arc::new(FaultPlan::new(world.config.seed, faults));
        let fault_metrics = plan.enabled().then(|| FaultMetrics::register(&metrics));
        let gpdns = GooglePublicDns::over(
            Arc::clone(&substrate.gpdns),
            GpdnsMetrics::register(&metrics),
        )
        .with_faults(plan, fault_metrics);
        Sim {
            substrate,
            gpdns,
            session: GpdnsSession::new(),
            metrics,
        }
    }

    /// A cold, fault-free simulation over this one's substrate, on a
    /// fresh registry — [`Sim::new`] of the same world, without deriving
    /// it again.
    pub fn fresh(&self) -> Sim {
        Sim::over(
            Arc::clone(&self.substrate),
            Arc::new(MetricsRegistry::new()),
            &FaultConfig::default(),
        )
    }

    /// The immutable part of this simulation, shared with every other
    /// run over the same world.
    pub fn substrate(&self) -> &Substrate {
        &self.substrate
    }

    /// The fault plan threaded through the services.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.gpdns.fault_plan()
    }

    /// The registry every service-side instrument reports to.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// A shareable read-only view for concurrent probers.
    pub fn view(&self) -> SimView<'_> {
        SimView {
            world: &self.substrate.world,
            catchments: &self.substrate.catchments,
            auth: &self.substrate.auth,
            gpdns: &self.gpdns,
        }
    }

    /// The underlying world (ground truth; techniques must not peek —
    /// only the validation/analysis layer does).
    pub fn world(&self) -> &World {
        &self.substrate.world
    }

    /// Anycast catchments.
    pub fn catchments(&self) -> &Catchments {
        &self.substrate.catchments
    }

    /// The authoritative layer.
    pub fn authoritatives(&self) -> &Authoritatives {
        &self.substrate.auth
    }

    /// The Google Public DNS service (read-only view).
    pub fn gpdns(&self) -> &GooglePublicDns {
        &self.gpdns
    }

    /// Sends one wire-format query to Google Public DNS from a vantage
    /// point at `coord` (anycast decides the PoP). Returns the raw
    /// response bytes, or `None` if dropped.
    pub fn gpdns_query(
        &mut self,
        prober: u64,
        coord: GeoCoord,
        packet: &[u8],
        transport: Transport,
        t: SimTime,
    ) -> Option<Vec<u8>> {
        self.gpdns.handle_query(
            &mut self.session,
            &self.substrate.world,
            &self.substrate.catchments,
            &self.substrate.auth,
            prober,
            coord,
            packet,
            transport,
            t,
        )
    }

    /// The `dig @8.8.8.8 o-o.myaddr.l.google.com TXT` dance: discovers
    /// which PoP a vantage point reaches.
    pub fn discover_pop(&mut self, prober: u64, coord: GeoCoord, t: SimTime) -> Option<PopId> {
        let q = Message::query(1, Question::txt(MYADDR_NAME).ok()?);
        let pkt = wire::encode(&q).ok()?;
        let resp = self.gpdns_query(prober, coord, &pkt, Transport::Tcp, t)?;
        let msg = wire::decode(&resp).ok()?;
        let txt = msg.answers.first()?;
        if let RData::Txt(body) = &txt.rdata {
            let code = body.strip_prefix("pop=")?;
            pop_catalog().iter().position(|p| p.code == code)
        } else {
            None
        }
    }

    /// Queries a domain's authoritative directly with an ECS prefix
    /// (the pre-scan that learns response scopes, §3.1.1).
    pub fn authoritative_scan(
        &self,
        name: &DomainName,
        ecs: Prefix,
        t: SimTime,
    ) -> Option<ScopedAnswer> {
        let sub = &self.substrate;
        sub.auth.answer(&sub.world.domains, name, Some(ecs), t)
    }

    /// Collects a window of Microsoft CDN + Traffic Manager logs.
    pub fn collect_cdn_logs(&self, t0: SimTime, t1: SimTime) -> CdnLogs {
        let sub = &self.substrate;
        collect_logs(&sub.world, &sub.catchments, &sub.auth, &self.gpdns, t0, t1)
    }

    /// Whether a resolver (by id) answers off-net queries — what an
    /// Internet-wide port-53 scan discovers.
    pub fn resolver_is_open(&self, resolver_id: usize) -> bool {
        let sub = &self.substrate;
        sub.snooping.is_open(&sub.world, resolver_id)
    }

    /// One cache-snoop query against a recursive resolver (the §3.1
    /// baseline approach).
    pub fn snoop_resolver(
        &self,
        resolver_id: usize,
        domain: &DomainName,
        t: SimTime,
    ) -> Option<SnoopOutcome> {
        let sub = &self.substrate;
        let spec = sub.world.domains.get(domain)?;
        Some(sub.snooping.snoop(&sub.world, resolver_id, spec, t))
    }

    /// Captures a DITL-style root-trace window.
    pub fn capture_root_traces(&self, start: SimTime, days: u32, sample_rate: f64) -> RootTraceSet {
        capture_traces(
            &self.substrate.world,
            &self.substrate.catchments,
            &self.gpdns,
            start,
            days,
            sample_rate,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_world::WorldConfig;

    #[test]
    fn discover_pop_returns_probeable_site() {
        let mut sim = Sim::new(World::generate(WorldConfig::tiny(51)));
        let nyc = GeoCoord::new(40.7, -74.0).unwrap();
        let pop = sim
            .discover_pop(77, nyc, SimTime::ZERO)
            .expect("pop discovered");
        use crate::pops::PopStatus;
        assert_eq!(pop_catalog()[pop].status, PopStatus::ProbedVerified);
        // Deterministic per prober key.
        let again = sim.discover_pop(77, nyc, SimTime::from_secs(60)).unwrap();
        assert_eq!(pop, again);
    }

    #[test]
    fn authoritative_scan_returns_scopes() {
        let sim = Sim::new(World::generate(WorldConfig::tiny(52)));
        let name: DomainName = "www.google.com".parse().unwrap();
        let ecs: Prefix = "100.100.100.0/24".parse().unwrap();
        let ans = sim.authoritative_scan(&name, ecs, SimTime::ZERO).unwrap();
        assert!(ans.scope.is_some());
        // Non-ECS domain scans yield no scope.
        let amazon: DomainName = "www.amazon.com".parse().unwrap();
        let plain = sim.authoritative_scan(&amazon, ecs, SimTime::ZERO).unwrap();
        assert!(plain.scope.is_none());
    }

    #[test]
    fn facade_logs_and_traces() {
        let sim = Sim::new(World::generate(WorldConfig::tiny(53)));
        let logs = sim.collect_cdn_logs(SimTime::ZERO, SimTime::from_hours(24));
        assert!(logs.total_requests() > 0);
        let traces = sim.capture_root_traces(SimTime::ZERO, 2, 0.001);
        assert_eq!(traces.traces.len(), 13);
    }
}
