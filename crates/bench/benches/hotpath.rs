//! Hot-path microbenches for the two probe lanes: the zero-allocation
//! scalar probe vs the batched serve kernel, and the borrowed wire
//! views vs full encode/decode. The paired benches share inputs so the
//! reported deltas are the cost of parsing + per-probe routing alone.
//!
//! `generation_answer/*` times the serve query engine per query kind —
//! the in-repo counterpart of the benchmark's `serve.answer_*` layers.
//!
//! The batched bench doubles as an allocation regression gate: before
//! timing, a counted steady-state pass through the kernel must perform
//! zero heap allocations, or the harness aborts.

use clientmap_cacheprobe::probe::{probe_scope, select_domains, ProbeBufs};
use clientmap_cacheprobe::vantage::discover;
use clientmap_cacheprobe::ProbeConfig;
use clientmap_core::{Pipeline, PipelineConfig};
use clientmap_dns::{wire, Message, Question};
use clientmap_net::Prefix;
use clientmap_serve::{Generation, Query};
use clientmap_sim::{GpdnsSession, ProbeOutcome, ScopeLane, Sim, SimTime};
use clientmap_world::{World, WorldConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting allocation events — the
/// regression gate for the batched kernel's steady state.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// End-to-end scalar probe: template render → simulated Google front
/// end → response classification. Scopes cycle through the world's
/// routed blocks and timestamps advance monotonically.
fn bench_probe_hot_path(c: &mut Criterion) {
    let mut sim = Sim::new(World::generate(WorldConfig::tiny(11)));
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
        .take(64)
        .collect();
    let view = sim.view();
    let t0 = SimTime::from_hours(8);

    let mut session = GpdnsSession::new();
    let mut bufs = ProbeBufs::default();
    let mut i = 0u64;
    c.bench_function("probe_hot_path", |b| {
        b.iter(|| {
            let scope = scopes[i as usize % scopes.len()];
            i += 1;
            black_box(probe_scope(
                &view,
                &mut session,
                &bound,
                &template,
                scope,
                &cfg,
                t0 + SimTime::from_millis(i * 10),
                None,
                &mut bufs,
            ))
        })
    });
}

/// The batched serve kernel over the same world: routing, admission,
/// and cache lanes hoisted once, then whole 64-probe arenas served per
/// iteration. Divide the per-iteration time by 64 to compare with the
/// per-probe lanes above. Gated: a counted steady-state pass must not
/// allocate before the timed bench may run.
fn bench_probe_hot_path_batched(c: &mut Criterion) {
    let mut sim = Sim::new(World::generate(WorldConfig::tiny(11)));
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
        .take(64)
        .collect();
    let view = sim.view();
    let t0 = SimTime::from_hours(8);

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

    let fill = |batch: &mut wire::ProbeBatch, events: &mut Vec<(u32, SimTime)>, round: u64| {
        batch.clear();
        events.clear();
        for (i, &scope) in scopes.iter().enumerate() {
            batch.push(&template, 0x1234, scope);
            events.push((
                i as u32,
                t0 + SimTime::from_millis(round * 60_000 + i as u64 * 10),
            ));
        }
    };

    // Warm-up (sizes the arena, creates the token bucket), then the
    // allocation regression gate over a counted steady-state pass.
    fill(&mut batch, &mut events, 0);
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 1..=4u64 {
        fill(&mut batch, &mut events, round);
        out.clear();
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
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "batched kernel allocated {allocated} time(s) in steady state — regression"
    );

    let mut round = 4u64;
    c.bench_function("probe_hot_path_batched_64", |b| {
        b.iter(|| {
            round += 1;
            fill(&mut batch, &mut events, round);
            out.clear();
            view.gpdns.serve_batch(
                &mut conn,
                &dom,
                view.auth,
                &lanes,
                &batch,
                &events,
                cfg.redundancy,
                &mut out,
            );
            black_box(out.len())
        })
    });
}

/// Query + response handling at the wire layer: allocation-free
/// template render + borrowed views vs allocating encode/decode of the
/// same packets.
fn bench_wire_roundtrip(c: &mut Criterion) {
    let domain: clientmap_dns::DomainName = "www.google.com".parse().unwrap();
    let scope: Prefix = "203.0.113.0/24".parse().unwrap();
    let probe = Message::query(0x1234, Question::a("www.google.com").unwrap())
        .with_recursion_desired(false)
        .with_ecs(scope);
    let template = wire::ProbeQueryTemplate::new(&domain);

    let mut buf = Vec::with_capacity(128);
    c.bench_function("wire_roundtrip_views", |b| {
        b.iter(|| {
            template.render(black_box(0x1234), black_box(scope), &mut buf);
            let v = wire::query_view(black_box(&buf)).expect("template renders valid query");
            black_box((v.id, v.ecs.map(|e| e.source)))
        })
    });

    c.bench_function("wire_roundtrip_alloc", |b| {
        b.iter(|| {
            let bytes = wire::encode(black_box(&probe)).unwrap();
            let m = wire::decode(black_box(&bytes)).unwrap();
            black_box((m.id, m.ecs().map(|e| e.source)))
        })
    });
}

/// The serve query engine, one kernel per query kind whose cost used
/// to scale with the world: a /8 over the whole tiny world (whole
/// table pages + every origin), a routed /24 (one tag + one block),
/// a top-10 ranking and the introspection row.
fn bench_generation_answer(c: &mut Criterion) {
    let out = Pipeline::run(PipelineConfig::tiny(11)).expect("tiny run is healthy");
    let generation = Generation::build(1, 0, &out);
    let (block, _) = generation.blocks[generation.blocks.len() / 2];
    let slash24 = Prefix::slash24_of(block.addr());
    let slash8 = block.supernet(8).expect("routed blocks are longer than /8");
    for (name, query) in [
        ("generation_answer/prefix8", Query::Prefix(slash8)),
        ("generation_answer/prefix24", Query::Prefix(slash24)),
        ("generation_answer/topk", Query::TopK(10)),
        ("generation_answer/info", Query::Info),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| black_box(generation.answer(black_box(&query))))
        });
    }
}

criterion_group!(
    hotpath,
    bench_probe_hot_path,
    bench_probe_hot_path_batched,
    bench_wire_roundtrip,
    bench_generation_answer
);
criterion_main!(hotpath);
