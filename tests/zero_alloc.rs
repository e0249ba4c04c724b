//! Proves both probe lanes perform **zero heap allocations** in steady
//! state: a counting global allocator tracks every allocation
//! on the test thread, and after one warm-up pass (which sizes the
//! reusable buffers and creates the session's token bucket) a measured
//! pass of several hundred probes must allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use clientmap_cacheprobe::probe::{probe_scope, select_domains, ProbeBufs};
use clientmap_cacheprobe::vantage::discover;
use clientmap_cacheprobe::ProbeConfig;
use clientmap_dns::wire;
use clientmap_net::Prefix;
use clientmap_sim::{GpdnsSession, ProbeOutcome, ScopeLane, Sim, SimTime};
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

    // Per-unit state, built once: connection, domain tables, lanes.
    let session = GpdnsSession::new();
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
    let mut batch = wire::ProbeBatch::new();
    let mut events: Vec<(u32, SimTime)> = Vec::with_capacity(scopes.len());
    let mut out: Vec<ProbeOutcome> = Vec::with_capacity(scopes.len());

    // Warm-up pass: sizes the arena and the event/outcome vectors and
    // creates the connection's token bucket.
    for (i, &scope) in scopes.iter().enumerate() {
        batch.push(&template, 0x1234, scope);
        events.push((i as u32, t0 + SimTime::from_millis(i as u64 * 10)));
    }
    assert!(view.gpdns.serve_batch(
        &mut conn,
        &dom,
        view.auth,
        &lanes,
        &batch,
        &events,
        cfg.redundancy,
        &mut out
    ));

    let before = allocations();
    let mut outcomes = 0u64;
    for round in 1..=8u64 {
        batch.clear();
        events.clear();
        out.clear();
        for (i, &scope) in scopes.iter().enumerate() {
            let t = t0 + SimTime::from_millis(round * 60_000 + i as u64 * 10);
            batch.push(&template, 0x1234, scope);
            events.push((i as u32, t));
        }
        let served = view.gpdns.serve_batch(
            &mut conn,
            &dom,
            view.auth,
            &lanes,
            &batch,
            &events,
            cfg.redundancy,
            &mut out,
        );
        assert!(served, "steady-state batch failed validation");
        outcomes += out.len() as u64;
    }
    let allocated = allocations() - before;

    assert!(outcomes >= 256, "measured pass actually probed");
    assert_eq!(
        allocated, 0,
        "batched lane allocated {allocated} time(s) across {outcomes} probes after warm-up"
    );
}
