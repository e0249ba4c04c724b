//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Timing captures the *cost* side of each ablation; the effect on
//! recall/coverage is reported by `repro ablations` (costs here, quality
//! there — both sides of each paper design decision).

use clientmap_cacheprobe::scopescan::scan_domain;
use clientmap_cacheprobe::vantage::discover;
use clientmap_cacheprobe::{probe, ProbeConfig};
use clientmap_dns::{wire, DomainName};
use clientmap_net::Prefix;
use clientmap_sim::{GpdnsSession, Sim, SimTime, Transport};
use clientmap_world::{World, WorldConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn setup() -> (Sim, Vec<Prefix>) {
    let world = World::generate(WorldConfig::tiny(0xAB1A));
    let universe: Vec<Prefix> = world.blocks.iter().map(|b| b.prefix).collect();
    (Sim::new(world), universe)
}

/// §3.1.1 "identifying candidate prefixes": authoritative pre-scan with
/// scope skipping vs the naive per-/24 walk.
fn bench_scope_reduction(c: &mut Criterion) {
    let (sim, universe) = setup();
    let domain: DomainName = "www.google.com".parse().unwrap();

    let mut g = c.benchmark_group("ablation_scope_reduction");
    g.bench_function("with_scope_skipping", |b| {
        b.iter(|| black_box(scan_domain(&sim, &domain, &universe, SimTime::ZERO).queries_spent))
    });
    g.bench_function("naive_per_slash24", |b| {
        b.iter(|| {
            // The unoptimised scan: one authoritative query per /24.
            let mut queries = 0u64;
            for block in &universe {
                for sub in block.slash24s() {
                    let _ = black_box(sim.authoritative_scan(&domain, sub, SimTime::ZERO));
                    queries += 1;
                }
            }
            black_box(queries)
        })
    });
    g.finish();
}

/// §3.1.1 redundancy: 1 vs 5 queries per ⟨PoP, prefix, domain⟩.
fn bench_redundancy(c: &mut Criterion) {
    let (mut sim, universe) = setup();
    let bound = discover(&mut sim, SimTime::ZERO);
    let b0 = bound[0];
    let domain: DomainName = "www.google.com".parse().unwrap();
    let scopes: Vec<Prefix> = universe
        .iter()
        .take(200)
        .map(|b| b.supernet(20).unwrap_or(*b))
        .collect();

    let view = sim.view();
    let template = wire::ProbeQueryTemplate::new(&domain);
    let mut session = GpdnsSession::new();
    let mut bufs = probe::ProbeBufs::default();
    let mut g = c.benchmark_group("ablation_redundancy");
    for redundancy in [1u32, 5] {
        let mut cfg = ProbeConfig::test_scale();
        cfg.redundancy = redundancy;
        g.bench_function(format!("redundancy_{redundancy}"), |bch| {
            bch.iter(|| {
                let mut hits = 0u32;
                for (i, s) in scopes.iter().enumerate() {
                    let t = SimTime::from_hours(10) + SimTime::from_millis(i as u64 * 25);
                    if matches!(
                        probe::probe_scope(
                            &view,
                            &mut session,
                            &b0,
                            &template,
                            *s,
                            &cfg,
                            t,
                            None,
                            &mut bufs
                        ),
                        clientmap_sim::ProbeOutcome::Hit { .. }
                    ) {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
    }
    g.finish();
}

/// §3.1.1 transport: TCP (the paper's choice) vs UDP under the rate
/// limit. UDP drops show up as wasted work.
fn bench_transport(c: &mut Criterion) {
    let (mut sim, universe) = setup();
    let bound = discover(&mut sim, SimTime::ZERO);
    let b0 = bound[0];
    let domain: DomainName = "www.google.com".parse().unwrap();
    let scopes: Vec<Prefix> = universe
        .iter()
        .take(200)
        .map(|b| b.supernet(20).unwrap_or(*b))
        .collect();

    let view = sim.view();
    let template = wire::ProbeQueryTemplate::new(&domain);
    let mut session = GpdnsSession::new();
    let mut bufs = probe::ProbeBufs::default();
    let mut g = c.benchmark_group("ablation_tcp_udp");
    for (label, transport) in [("tcp", Transport::Tcp), ("udp", Transport::Udp)] {
        let mut cfg = ProbeConfig::test_scale();
        cfg.transport = transport;
        g.bench_function(label, |bch| {
            bch.iter(|| {
                let mut answered = 0u32;
                for (i, s) in scopes.iter().enumerate() {
                    // Paper-rate burst: 50/s → one every 20 ms.
                    let t = SimTime::from_hours(11) + SimTime::from_millis(i as u64 * 20);
                    if !matches!(
                        probe::probe_scope(
                            &view,
                            &mut session,
                            &b0,
                            &template,
                            *s,
                            &cfg,
                            t,
                            None,
                            &mut bufs
                        ),
                        clientmap_sim::ProbeOutcome::Dropped
                    ) {
                        answered += 1;
                    }
                }
                black_box(answered)
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_scope_reduction,
    bench_redundancy,
    bench_transport
);
criterion_main!(ablations);
