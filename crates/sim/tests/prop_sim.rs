//! Cross-module properties of the simulator (DESIGN.md §6).

use std::sync::Arc;

use clientmap_dns::wire;
use clientmap_faults::{FaultConfig, FaultProfile};
use clientmap_net::{GeoCoord, Prefix};
use clientmap_sim::{
    AttemptReply, GooglePublicDns, GpdnsSession, Sim, SimTime, Substrate, Transport,
};
use clientmap_telemetry::MetricsRegistry;
use clientmap_world::{World, WorldConfig};
use proptest::prelude::*;

fn sim() -> &'static Sim {
    static SIM: std::sync::OnceLock<Sim> = std::sync::OnceLock::new();
    SIM.get_or_init(|| Sim::new(World::generate(WorldConfig::tiny(303))))
}

/// Scope alignment: an authoritative's ECS response scope never spans
/// announced prefixes of different origin ASes (CDN mapping follows
/// BGP aggregates). This is what keeps AS-level attribution of cache
/// hits sound.
#[test]
fn scopes_never_cross_origin_boundaries() {
    let s = sim();
    let world = s.world();
    let domains = ["www.google.com", "www.wikipedia.org", "facebook.com"];
    for (i, s24) in world.slash24s.iter().enumerate().step_by(7) {
        for d in &domains {
            let name = d.parse().unwrap();
            let Some(ans) = s.authoritative_scan(&name, s24.prefix, SimTime::ZERO) else {
                continue;
            };
            let Some(scope) = ans.scope else { continue };
            if scope.is_default() {
                continue;
            }
            let origins = world.rib.origins_within(scope);
            assert!(
                origins.len() <= 1,
                "scope {scope} for {d} spans origins {origins:?} (prefix #{i})"
            );
        }
    }
}

/// The same query at the same time always gets the same answer
/// (end-to-end determinism of the wire path).
#[test]
fn gpdns_wire_path_deterministic() {
    use clientmap_dns::{wire, Message, Question};
    let world1 = World::generate(WorldConfig::tiny(304));
    let world2 = World::generate(WorldConfig::tiny(304));
    let mut sim1 = Sim::new(world1);
    let mut sim2 = Sim::new(world2);
    let coord = clientmap_net::GeoCoord::new(48.0, 10.0).unwrap();
    for i in 0..50u16 {
        let prefix = Prefix::new(u32::from(i) << 20, 20).unwrap();
        let q = Message::query(i, Question::a("www.google.com").unwrap())
            .with_recursion_desired(false)
            .with_ecs(prefix);
        let pkt = wire::encode(&q).unwrap();
        let t = SimTime::from_hours(9) + SimTime::from_millis(u64::from(i) * 40);
        let r1 = sim1.gpdns_query(5, coord, &pkt, clientmap_sim::Transport::Tcp, t);
        let r2 = sim2.gpdns_query(5, coord, &pkt, clientmap_sim::Transport::Tcp, t);
        assert_eq!(r1, r2, "query {i} diverged");
    }
}

/// One tiny world's substrate, shared by every routed-lane case below.
fn substrate() -> Arc<Substrate> {
    static SUB: std::sync::OnceLock<Arc<Substrate>> = std::sync::OnceLock::new();
    Arc::clone(
        SUB.get_or_init(|| Arc::new(Substrate::build(World::generate(WorldConfig::tiny(305))))),
    )
}

/// A vantage's query sequence sent three times, each on a fresh session
/// and registry over the same substrate and fault plan:
/// - through one route resolved up front
///   ([`SimView::gpdns_query_routed_into`]);
/// - through the per-call door, which resolves the route on every
///   query ([`SimView::gpdns_query_into`]);
/// - through the per-query election spelled out here: the home
///   catchment, or — while the plan flaps the vantage — the best other
///   cloud-reachable PoP, each flap counted on `faults.flaps`.
///
/// Every query's outcome and bytes must agree — which also pins the
/// session's buckets and pool sequence — and so must the registries,
/// `faults.flaps` and `gpdns.*` included.
fn routed_matches_per_call(
    faults: &FaultConfig,
    prober: u64,
    coord: GeoCoord,
    queries: &[(u32, u8, u64, bool)],
) -> Result<(), TestCaseError> {
    let fresh = || Sim::over(substrate(), Arc::new(MetricsRegistry::new()), faults);
    let (routed, per_call, elected) = (fresh(), fresh(), fresh());
    let (rv, pv, ev) = (routed.view(), per_call.view(), elected.view());
    let route = rv.catchments.vantage_route(prober, coord);
    let template = wire::ProbeQueryTemplate::new(&"www.google.com".parse().unwrap());
    let mut sessions = [(); 3].map(|_| GpdnsSession::new());
    let mut outs = [(); 3].map(|_| Vec::new());
    let mut packet = Vec::new();
    let mut t = SimTime::from_hours(6);
    for (i, &(addr, len, gap_ms, udp)) in queries.iter().enumerate() {
        t = t + SimTime::from_millis(gap_ms);
        let scope = Prefix::new(addr, len).unwrap();
        template.render(i as u16, scope, &mut packet);
        let transport = if udp { Transport::Udp } else { Transport::Tcp };
        let [rs, ps, es] = &mut sessions;
        let [ro, po, eo] = &mut outs;
        let r = rv.gpdns_query_routed_into(rs, &route, &packet, transport, t, ro);
        let p = pv.gpdns_query_into(ps, prober, coord, &packet, transport, t, po);
        let home = ev.catchments.of_vantage(prober, coord);
        let pop = if elected.fault_plan().flap(prober, t.as_millis()) {
            elected.metrics().counter("faults.flaps").inc();
            ev.catchments.of_vantage_excluding(prober, coord, home)
        } else {
            home
        };
        let e = match ev
            .gpdns
            .handle_query_at_pop(es, ev.world, ev.auth, prober, pop, &packet, transport, t)
        {
            Some(resp) => {
                *eo = resp;
                true
            }
            None => false,
        };
        prop_assert_eq!((r, p), (e, e), "query {} served differently", i);
        if e {
            prop_assert_eq!(
                (&*ro, &*po),
                (&*eo, &*eo),
                "query {} answered differently",
                i
            );
        }
    }
    let snapshot = elected.metrics().snapshot();
    prop_assert_eq!(&routed.metrics().snapshot(), &snapshot);
    prop_assert_eq!(&per_call.metrics().snapshot(), &snapshot);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A stream's route resolved once serves every query exactly as the
    /// per-query election does, with and without catchment flaps.
    #[test]
    fn routed_lane_equals_per_call_election(
        prober in 1u64..10_000,
        lat in -60.0f64..70.0,
        lon in -180.0f64..180.0,
        queries in prop::collection::vec(
            (any::<u32>(), 16u8..=24, 0u64..1_800_000, any::<bool>()),
            1..48,
        ),
    ) {
        let coord = GeoCoord::new(lat, lon).unwrap();
        for profile in [FaultProfile::PopChurn, FaultProfile::Off] {
            let faults = FaultConfig::profile(profile, prober);
            routed_matches_per_call(&faults, prober, coord, &queries)?;
        }
    }
}

/// What the prober reads off one response, as the batched door's
/// typed stand-in: nothing, an error rcode and/or TC, or an answer —
/// after checking the response echoes the query's transaction ID.
fn read_reply(resp: Option<&[u8]>, id: u16) -> Result<AttemptReply, TestCaseError> {
    let Some(bytes) = resp else {
        return Ok(AttemptReply::Dropped);
    };
    let resp = wire::decode(bytes).map_err(|e| TestCaseError::fail(format!("{e:?}")))?;
    prop_assert_eq!(resp.id, id);
    let (rcode, tc) = (resp.rcode.to_u8(), resp.truncated);
    Ok(if rcode != 0 || tc {
        AttemptReply::Error { rcode, tc }
    } else {
        AttemptReply::Answer(GooglePublicDns::classify(&resp))
    })
}

/// One vantage's queries sent twice, each on a fresh session and
/// registry over the same substrate and fault plan: rendered and served
/// through the routed wire door ([`SimView::gpdns_query_routed_into`])
/// and read back, and served byte-free through one batched connection's
/// per-query door ([`GooglePublicDns::serve_attempt`]). Each query
/// carries the prober's coordinates — scope, send time (event time plus
/// its redundancy index and retry backoff), transaction ID and
/// transport. Every reply must agree, and so must the registries once
/// the connection closes.
fn batched_door_matches_wire(
    faults: &FaultConfig,
    prober: u64,
    coord: GeoCoord,
    queries: &[(u32, u8, u64, u32, u32, u8)],
) -> Result<(), TestCaseError> {
    let fresh = || Sim::over(substrate(), Arc::new(MetricsRegistry::new()), faults);
    let (wired, batched) = (fresh(), fresh());
    let (wv, bv) = (wired.view(), batched.view());
    let route = wv.catchments.vantage_route(prober, coord);
    let template = wire::ProbeQueryTemplate::new(&"www.google.com".parse().unwrap());
    let mut wire_session = GpdnsSession::new();
    let mut batch_session = GpdnsSession::new();
    let mut conn = bv
        .gpdns
        .open_batch(bv.catchments, &batch_session, prober, coord, Transport::Tcp)
        .expect("open_batch opens every core");
    let dom = bv
        .gpdns
        .batch_domain(&conn, template.qname_wire())
        .expect("www.google.com is ECS-cached");
    // Client-active /24s either PoP of the route serves: the scopes
    // that can hit, whether or not a query flaps.
    let hot: Vec<Prefix> = (0..wv.world.slash24s.len())
        .filter(|&i| {
            wv.world.slash24s[i].is_active()
                && [route.home, route.alternate].contains(&wv.catchments.of_slash24(i))
        })
        .map(|i| wv.world.slash24s[i].prefix)
        .collect();
    let (mut packet, mut out) = (Vec::new(), Vec::new());
    let mut t = SimTime::from_hours(6);
    for (i, &(addr, len, gap_ms, r, retry, proto)) in queries.iter().enumerate() {
        // Most gaps are a millisecond or none, so runs of queries —
        // three in four over UDP — drain a UDP bucket; one gap in 64
        // spans flap and outage windows.
        let gap = if gap_ms % 64 == 0 { gap_ms } else { gap_ms % 2 };
        t = t + SimTime::from_millis(gap);
        let at = t + SimTime::from_millis(u64::from(r) + 40 * u64::from(retry));
        // Three scopes in four are hot, the rest anywhere.
        let scope = match hot.len() {
            n if n > 0 && addr % 4 != 0 => hot[(addr / 4) as usize % n],
            _ => Prefix::new(addr, len).unwrap(),
        };
        let id = (addr as u16) ^ ((r << 4) | retry) as u16;
        let transport = if proto % 4 != 0 {
            Transport::Udp
        } else {
            Transport::Tcp
        };
        template.render(id, scope, &mut packet);
        let got =
            wv.gpdns_query_routed_into(&mut wire_session, &route, &packet, transport, at, &mut out);
        let want = read_reply(got.then_some(out.as_slice()), id)?;
        let lane = bv.gpdns.scope_lane(bv.auth, &dom, scope);
        let reply = bv
            .gpdns
            .serve_attempt(&mut conn, &dom, bv.auth, &lane, transport, at, id);
        prop_assert_eq!(reply, want, "query {} at {:?}", i, at);
    }
    bv.gpdns.close_batch(conn, &mut batch_session);
    prop_assert_eq!(batched.metrics().snapshot(), wired.metrics().snapshot());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched connection's per-query door serves a faulted stream
    /// exactly as the wire lane does — outages, flaps, injected errors
    /// and rate limits included.
    #[test]
    fn faulted_batched_door_equals_the_wire_lane(
        prober in 1u64..10_000,
        lat in -60.0f64..70.0,
        lon in -180.0f64..180.0,
        queries in prop::collection::vec(
            (any::<u32>(), 16u8..=24, 0u64..7_200_000, 0u32..5, 0u32..4, any::<u8>()),
            1..400,
        ),
    ) {
        let coord = GeoCoord::new(lat, lon).unwrap();
        for profile in [FaultProfile::Lossy, FaultProfile::PopChurn] {
            let faults = FaultConfig::profile(profile, prober);
            batched_door_matches_wire(&faults, prober, coord, &queries)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any ECS prefix (routed or not) gets a well-formed authoritative
    /// answer for ECS domains: scope ⊆/⊇ relationship with the query and
    /// TTL matching the catalog.
    #[test]
    fn authoritative_answers_well_formed(addr in any::<u32>(), len in 8u8..=24) {
        let s = sim();
        let ecs = Prefix::new(addr, len).unwrap();
        let name: clientmap_dns::DomainName = "www.google.com".parse().unwrap();
        let ans = s
            .authoritative_scan(&name, ecs, SimTime::ZERO)
            .expect("catalog domain answers");
        prop_assert_eq!(ans.records[0].ttl, 300);
        if let Some(scope) = ans.scope {
            prop_assert!(
                scope.is_default()
                    || scope.contains(ecs)
                    || ecs.contains(scope)
                    || scope.addr() == ecs.addr(),
                "scope {} unrelated to query {}", scope, ecs
            );
        }
    }
}
