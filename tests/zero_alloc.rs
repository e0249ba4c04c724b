//! Proves both probe lanes perform **zero heap allocations** in steady
//! state: a counting global allocator tracks every allocation on the
//! test thread. The scalar lane, after one warm-up pass (which sizes
//! the reusable buffers and creates the session's token bucket), must
//! allocate nothing across a measured pass of several hundred probes;
//! the batched lane, once its connection, domain tables and lanes are
//! set up, must allocate nothing across a whole stream of events —
//! fault-free, and under fault injection, where each event's redundant
//! queries retry through the connection's per-query door.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use clientmap_cacheprobe::probe::{probe_scope, select_domains, serve_batched, ProbeBufs};
use clientmap_cacheprobe::resilience::FaultCounters;
use clientmap_cacheprobe::vantage::discover;
use clientmap_cacheprobe::ProbeConfig;
use clientmap_dns::wire;
use clientmap_faults::{FaultConfig, FaultProfile};
use clientmap_net::Prefix;
use clientmap_sim::{GpdnsSession, ProbeOutcome, ScopeLane, Sim, SimTime};
use clientmap_telemetry::MetricsRegistry;
use clientmap_world::{World, WorldConfig};

thread_local! {
    // Const-init + non-Drop payload: reading the counter from inside
    // the allocator is a plain TLS access and can never itself
    // allocate or recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting every allocation event
/// (alloc, alloc_zeroed, realloc) made by the current thread.
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn scalar_probe_is_allocation_free_after_warmup() {
    let mut sim = Sim::new(World::generate(WorldConfig::tiny(17)));
    let bound = discover(&mut sim, SimTime::ZERO)[0];
    let cfg = ProbeConfig::test_scale();
    let domain = select_domains(&sim, &cfg)
        .into_iter()
        .next()
        .expect("catalog has probeable domains");
    let template = wire::ProbeQueryTemplate::new(&domain);
    let scopes: Vec<Prefix> = sim
        .world()
        .blocks
        .iter()
        .map(|b| b.prefix)
        .take(32)
        .collect();
    assert!(!scopes.is_empty(), "tiny world has routed blocks");
    let view = sim.view();
    let t0 = SimTime::from_hours(8);

    let mut session = GpdnsSession::new();
    // Response sizes vary by outcome (a hit carries an answer record,
    // a miss does not); `ProbeBufs` pre-reserves past the largest
    // possible probe response, so buffer growth cannot masquerade as a
    // hot-path allocation that warm-up merely happened to hide.
    let mut bufs = ProbeBufs::default();
    // The stream's route, resolved once before any probe is sent.
    let route = bound.route(view.catchments);

    // Warm-up: creates the session's (prober, PoP, transport) token
    // bucket and touches every lookup table once.
    for (i, &scope) in scopes.iter().enumerate() {
        probe_scope(
            &view,
            &mut session,
            &route,
            &template,
            scope,
            &cfg,
            t0 + SimTime::from_millis(i as u64 * 10),
            None,
            &mut bufs,
        );
    }

    let before = allocations();
    let mut outcomes = 0u64;
    for round in 1..=8u64 {
        for (i, &scope) in scopes.iter().enumerate() {
            let t = t0 + SimTime::from_millis(round * 60_000 + i as u64 * 10);
            probe_scope(
                &view,
                &mut session,
                &route,
                &template,
                scope,
                &cfg,
                t,
                None,
                &mut bufs,
            );
            outcomes += 1;
        }
    }
    let allocated = allocations() - before;

    assert!(outcomes >= 256, "measured pass actually probed");
    assert_eq!(
        allocated, 0,
        "scalar probe allocated {allocated} time(s) across {outcomes} probes after warm-up"
    );
}

#[test]
fn batched_lane_is_allocation_free_after_warmup() {
    let mut sim = Sim::new(World::generate(WorldConfig::tiny(17)));
    let bound = discover(&mut sim, SimTime::ZERO)[0];
    let cfg = ProbeConfig::test_scale();
    let domain = select_domains(&sim, &cfg)
        .into_iter()
        .next()
        .expect("catalog has probeable domains");
    let template = wire::ProbeQueryTemplate::new(&domain);
    let scopes: Vec<Prefix> = sim
        .world()
        .blocks
        .iter()
        .map(|b| b.prefix)
        .take(32)
        .collect();
    assert!(!scopes.is_empty(), "tiny world has routed blocks");
    let view = sim.view();
    let t0 = SimTime::from_hours(8);

    // Lane setup, the only allocating part of a stream: connection,
    // domain tables, lanes.
    let mut session = GpdnsSession::new();
    let mut conn = view
        .gpdns
        .open_batch(
            view.catchments,
            &session,
            bound.prober_key(),
            bound.coord(),
            cfg.transport,
        )
        .expect("fault-free core opens a batch connection");
    let dom = view
        .gpdns
        .batch_domain(&conn, template.qname_wire())
        .expect("selected domain is probeable");
    let lanes: Vec<ScopeLane> = scopes
        .iter()
        .map(|&s| view.gpdns.scope_lane(view.auth, &dom, s))
        .collect();

    // The whole stream, from its first event: nine passes over the
    // scope list, each event served through the product's one door.
    let before = allocations();
    let mut events = 0u64;
    let mut hits = 0u64;
    for pass in 0..9u64 {
        for (i, lane) in lanes.iter().enumerate() {
            let t = t0 + SimTime::from_millis(pass * 60_000 + i as u64 * 20);
            let outcome =
                view.gpdns
                    .serve_event(&mut conn, &dom, view.auth, lane, t, cfg.redundancy);
            hits += u64::from(matches!(outcome, ProbeOutcome::Hit { .. }));
            events += 1;
        }
    }
    let allocated = allocations() - before;
    view.gpdns.close_batch(conn, &mut session);

    assert!(events >= 256, "measured pass actually probed");
    assert_eq!(
        allocated, 0,
        "batched lane allocated {allocated} time(s) across {events} events ({hits} hits)"
    );
}

#[test]
fn faulted_batched_stream_is_allocation_free_after_warmup() {
    let world = World::generate(WorldConfig::tiny(17));
    let faults = FaultConfig::profile(FaultProfile::Lossy, 5);
    let mut sim = Sim::with_faults(world, Arc::new(MetricsRegistry::new()), &faults);
    let fc = FaultCounters::resolve(sim.metrics());
    let bound = discover(&mut sim, SimTime::ZERO)[0];
    let cfg = ProbeConfig::test_scale();
    let domain = select_domains(&sim, &cfg)
        .into_iter()
        .next()
        .expect("catalog has probeable domains");
    let template = wire::ProbeQueryTemplate::new(&domain);
    let scopes: Vec<Prefix> = sim
        .world()
        .blocks
        .iter()
        .map(|b| b.prefix)
        .take(32)
        .collect();
    assert!(!scopes.is_empty(), "tiny world has routed blocks");
    let view = sim.view();
    let t0 = SimTime::from_hours(8);

    // Lane setup: route, connection, domain tables, lanes.
    let mut session = GpdnsSession::new();
    let route = bound.route(view.catchments);
    let mut conn = view.gpdns.open_conn(&route, &session, cfg.transport);
    let dom = view
        .gpdns
        .batch_domain(&conn, template.qname_wire())
        .expect("selected domain is probeable");
    let lanes: Vec<ScopeLane> = scopes
        .iter()
        .map(|&s| view.gpdns.scope_lane(view.auth, &dom, s))
        .collect();
    let mut serve = |pass: u64| {
        for (i, lane) in lanes.iter().enumerate() {
            // Passes half an hour apart cross flap and outage windows.
            let t = t0 + SimTime::from_millis(pass * 1_800_000 + i as u64 * 20);
            serve_batched(&view, &mut conn, &dom, lane, &cfg, t, Some(&fc));
        }
    };

    // Warm-up: one pass.
    serve(0);
    let before = allocations();
    let observed_before = fc.observed_total();
    for pass in 1..=9u64 {
        serve(pass);
    }
    let allocated = allocations() - before;
    let events = 9 * lanes.len() as u64;
    let observed = fc.observed_total() - observed_before;
    view.gpdns.close_batch(conn, &mut session);

    assert!(events >= 256, "measured pass actually probed");
    assert!(
        observed > 0,
        "the lossy plan injected nothing into the stream"
    );
    assert_eq!(
        allocated, 0,
        "faulted batched lane allocated {allocated} time(s) across {events} events \
         ({observed} failed exchanges)"
    );
}
