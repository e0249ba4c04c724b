//! Proves the product's batched probe lane performs **zero heap
//! allocations** in steady state: a counting global allocator tracks
//! every allocation on the test thread. Once its connection, domain
//! tables and lanes are set up, the batched lane must allocate nothing
//! across a whole stream of events — fault-free, and under fault
//! injection, where each event's redundant queries retry through the
//! connection's per-query door. A warm sweep whose plan skips
//! everything allocates a fixed amount, however many records it
//! carries forward, and the DNS-logs stage (root-trace capture and
//! crawl) allocates nothing per trace record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use clientmap_cacheprobe::probe::{select_domains, serve_batched};
use clientmap_cacheprobe::resilience::FaultCounters;
use clientmap_cacheprobe::vantage::discover;
use clientmap_cacheprobe::ProbeConfig;
use clientmap_cacheprobe::{execute_sweep, prepare_sweep};
use clientmap_chromium::{crawl, ChromiumClassifier};
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

/// The allocations a full-skip `execute_sweep` makes on `world`, warm
/// from a cold sweep of it, and the number of records it carries.
fn full_skip_allocations(world: WorldConfig) -> (u64, usize) {
    let world = World::generate(world);
    let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
    let mut cfg = ProbeConfig::test_scale();
    cfg.duration_hours = 2.0;
    cfg.calibration_sample = 250;
    let mut sim = Sim::new(world);
    let prep = prepare_sweep(&mut sim, &cfg, &universe, &mut Vec::new(), None);
    let (_, cold) = execute_sweep(&mut sim, &cfg, prep, &mut Vec::new());

    let mut warm = sim.fresh();
    let prep = prepare_sweep(&mut warm, &cfg, &universe, &mut Vec::new(), Some(&cold));
    assert!(prep.warm_full_skip(), "an unchanged world re-plans nothing");
    let mut timings = Vec::with_capacity(8);
    let before = allocations();
    let out = execute_sweep(&mut warm, &cfg, prep, &mut timings);
    let allocated = allocations() - before;
    assert!(out.1.records.shares(&cold.records));
    (allocated, cold.records.len())
}

#[test]
fn a_full_skip_allocates_nothing_per_record() {
    let large = WorldConfig::tiny(17);
    let small = WorldConfig {
        num_ases: large.num_ases / 6,
        total_users: large.total_users / 6.0,
        target_routed_slash24s: large.target_routed_slash24s / 6,
        ..large.clone()
    };
    let (small_allocs, small_records) = full_skip_allocations(small);
    let (large_allocs, large_records) = full_skip_allocations(large);
    assert!(
        large_records >= 4 * small_records,
        "worlds too alike: {small_records} vs {large_records} records"
    );
    assert_eq!(
        small_allocs, large_allocs,
        "a full skip over {small_records} records allocated {small_allocs} times, \
         over {large_records} records {large_allocs} times"
    );
}

/// The allocations one capture-and-crawl of `sim`'s world makes at
/// `rate` on one thread, and the records the capture holds.
fn dns_logs_allocations(sim: &Sim, rate: f64) -> (u64, usize) {
    clientmap_par::with_threads(1, || {
        let before = allocations();
        let traces = sim.capture_root_traces(SimTime::ZERO, 2, rate);
        let result = crawl(&traces, &ChromiumClassifier::default());
        let allocated = allocations() - before;
        assert!(!result.resolvers.is_empty(), "rate {rate} detected nothing");
        let records = traces.traces.iter().map(|t| t.records.len()).sum();
        (allocated, records)
    })
}

#[test]
fn the_dns_logs_stage_allocates_nothing_per_record() {
    let sim = Sim::new(World::generate(WorldConfig::tiny(17)));
    let (small_allocs, small_records) = dns_logs_allocations(&sim, 0.005);
    let (large_allocs, large_records) = dns_logs_allocations(&sim, 0.05);
    assert!(
        large_records >= 8 * small_records,
        "rates too alike: {small_records} vs {large_records} records"
    );
    // What may grow: each generation chunk's per-letter buckets double
    // a few more times, and the crawl's per-resolver maps with the
    // resolvers seen — never a heap object per record.
    let added = (large_records - small_records) as u64;
    assert!(
        large_allocs.saturating_sub(small_allocs) * 100 < added,
        "{small_records} records took {small_allocs} allocations, \
         {large_records} records {large_allocs}"
    );
}
