//! Per-layer kernels the sweep seam does not expose as a call of their
//! own: each is timed over many calls on inputs taken from the
//! workload's own generated world.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use clientmap_cacheprobe::probe::select_domains;
use clientmap_cacheprobe::vantage::discover;
use clientmap_core::{PipelineConfig, PipelineOutput};
use clientmap_dns::{wire, Message, Question};
use clientmap_fleet::{read_frame, write_frame, Frame, FrameKind};
use clientmap_net::{Prefix, PrefixSet, PrefixTrie};
use clientmap_serve::{Generation, Query, QueryKind, Reply};
use clientmap_sim::{GpdnsSession, ProbeOutcome, ScopeLane, Sim, SimTime};
use clientmap_store::{verdict_delta, EventLog, Slash24Bitset, SweepEvent, Verdict, VerdictTable};
use clientmap_telemetry::Counter;
use clientmap_world::World;

use crate::mix::{Kind, QueryMix};
use crate::stats::median;

/// Named kernel readings, in the unit their spec entry states.
pub type Readings = Vec<(&'static str, f64)>;

/// Median over `rounds` of the mean seconds per call across `calls`
/// back-to-back calls of `f(i)`.
fn per_call(rounds: usize, calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f(i);
                i += 1;
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

/// Probes per batch on the batched lane kernel.
const BATCH: usize = 64;

/// Kernels that need only the generated world: the simulated Google
/// front end on both lanes, the DNS wire codec, prefix structures, the
/// telemetry counter and the parallel map.
pub fn world_kernels(cfg: &PipelineConfig) -> Result<Readings, String> {
    let mut out = Readings::new();
    // Always fault-free: the batch kernel refuses a faulted core, and
    // both lanes must see the same simulation to be comparable.
    let mut sim = Sim::new(World::generate(cfg.world.clone()));
    let bound = *discover(&mut sim, SimTime::ZERO)
        .first()
        .ok_or("no vantage reaches a PoP")?;
    let domain = select_domains(&sim, &cfg.probe)
        .into_iter()
        .next()
        .ok_or("catalog has no probeable domain")?;
    let template = wire::ProbeQueryTemplate::new(&domain);
    let scopes: Vec<Prefix> = sim
        .world()
        .blocks
        .iter()
        .map(|b| b.prefix)
        .take(BATCH)
        .collect();
    let view = sim.view();
    let t0 = SimTime::from_hours(8);

    // sim: the batched serve kernel, 64-probe arenas.
    {
        let session = GpdnsSession::new();
        let mut conn = view
            .gpdns
            .open_batch(
                view.catchments,
                &session,
                bound.prober_key(),
                bound.coord(),
                cfg.probe.transport,
            )
            .ok_or("fault-free core refused a batch connection")?;
        let dom = view
            .gpdns
            .batch_domain(&conn, template.qname_wire())
            .ok_or("selected domain is not probeable")?;
        let lanes: Vec<ScopeLane> = scopes
            .iter()
            .map(|&s| view.gpdns.scope_lane(view.auth, &dom, s))
            .collect();
        let mut batch = wire::ProbeBatch::new();
        let mut events: Vec<(u32, SimTime)> = Vec::with_capacity(scopes.len());
        let mut outcomes: Vec<ProbeOutcome> = Vec::with_capacity(scopes.len());
        let seconds = per_call(5, 400, |round| {
            batch.clear();
            events.clear();
            for (i, &scope) in scopes.iter().enumerate() {
                batch.push(&template, 0x1234, scope);
                events.push((
                    i as u32,
                    t0 + SimTime::from_millis(round * 60_000 + i as u64 * 10),
                ));
            }
            outcomes.clear();
            view.gpdns.serve_batch(
                &mut conn,
                &dom,
                view.auth,
                &lanes,
                &batch,
                &events,
                cfg.probe.redundancy,
                &mut outcomes,
            );
            black_box(outcomes.len());
        });
        out.push((
            "sim.gpdns_batch_ns_per_probe",
            seconds * 1e9 / scopes.len() as f64,
        ));

        // dns: rendering the same arena alone.
        let seconds = per_call(5, 2_000, |_| {
            batch.clear();
            for &scope in &scopes {
                batch.push(&template, 0x1234, scope);
            }
            black_box(batch.len());
        });
        out.push((
            "dns.probe_render_ns_per_probe",
            seconds * 1e9 / scopes.len() as f64,
        ));
    }

    // sim: the scalar lane, one pre-rendered packet per call.
    {
        let packets: Vec<Vec<u8>> = scopes
            .iter()
            .map(|&s| {
                let mut buf = Vec::new();
                template.render(0x1234, s, &mut buf);
                buf
            })
            .collect();
        let mut session = GpdnsSession::new();
        let mut resp = Vec::with_capacity(512);
        let seconds = per_call(5, 20_000, |i| {
            let packet = &packets[i as usize % packets.len()];
            black_box(view.gpdns_query_into(
                &mut session,
                bound.prober_key(),
                bound.coord(),
                packet,
                cfg.probe.transport,
                t0 + SimTime::from_millis(i * 10),
                &mut resp,
            ));
        });
        out.push(("sim.gpdns_scalar_ns_per_probe", seconds * 1e9));
    }

    // dns: allocating encode / decode of the packet shape a probe sends.
    {
        let probe = Message::query(
            0x1234,
            Question::a(&domain.to_string()).map_err(|e| e.to_string())?,
        )
        .with_recursion_desired(false)
        .with_ecs(scopes[0]);
        let encoded = wire::encode(&probe).map_err(|e| e.to_string())?;
        let seconds = per_call(5, 20_000, |_| {
            black_box(wire::encode(black_box(&probe)).map(|b| b.len()).ok());
        });
        out.push(("dns.wire_encode_ns", seconds * 1e9));
        let seconds = per_call(5, 20_000, |_| {
            black_box(wire::decode(black_box(&encoded)).is_ok());
        });
        out.push(("dns.wire_decode_ns", seconds * 1e9));
    }

    // net: longest-prefix match over the world's routes, and the
    // Table 1 set intersection over two overlapping halves of them.
    {
        let world = sim.world();
        let routes: Vec<Prefix> = world.rib.routes().into_iter().map(|(p, _)| p).collect();
        let mut trie = PrefixTrie::new();
        for (i, p) in routes.iter().enumerate() {
            trie.insert(*p, i as u32);
        }
        let addrs: Vec<u32> = world.slash24s.iter().map(|s| s.prefix.addr() | 1).collect();
        let seconds = per_call(5, 50_000, |i| {
            black_box(trie.longest_match_addr(black_box(addrs[i as usize % addrs.len()])));
        });
        out.push(("net.trie_lpm_ns", seconds * 1e9));

        let third = routes.len() / 3;
        let a = PrefixSet::from_prefixes(routes.iter().take(2 * third).copied());
        let b = PrefixSet::from_prefixes(routes.iter().skip(third).copied());
        let seconds = per_call(5, 200, |_| {
            black_box(a.intersection_slash24s(black_box(&b)));
        });
        out.push(("net.prefixset_intersection_us", seconds * 1e6));
    }

    // telemetry: one relaxed increment.
    {
        let counter = Counter::new();
        let seconds = per_call(5, 1_000_000, |_| black_box(&counter).inc());
        black_box(counter.get());
        out.push(("telemetry.counter_inc_ns", seconds * 1e9));
    }

    // par: fan-out and ordered gather of 256 trivial items on 2 workers.
    {
        let items: Vec<u64> = (0..256).collect();
        let seconds = clientmap_par::with_threads(2, || {
            per_call(5, 200, |_| {
                black_box(clientmap_par::par_map(&items, |i, x| x + i as u64));
            })
        });
        out.push(("par.par_map_overhead_us", seconds * 1e6));
    }
    Ok(out)
}

/// Kernels that need a finished sweep: the query engine, the store's
/// diff / log / bitset paths, and the telemetry snapshot. `previous`
/// is the verdict table of the generation before `out` (the reference
/// sweep's); `scratch` an empty directory for the event log.
pub fn output_kernels(
    out: &PipelineOutput,
    previous: &VerdictTable,
    mix: &QueryMix,
    scratch: &Path,
) -> Result<Readings, String> {
    let mut readings = Readings::new();

    // serve: building the immutable query index, then answering from it
    // in-process, per kind.
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(Generation::build(1, 0, out));
            start.elapsed().as_secs_f64()
        })
        .collect();
    readings.push(("serve.generation_build_s", median(&builds)));
    let generation = Generation::build(1, 0, out);
    let of_kind = |kind: Kind| -> Vec<&Query> {
        mix.entries()
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, q)| q)
            .collect()
    };
    for (name, kind, calls, scale) in [
        ("serve.answer_info_ns", Kind::Info, 20_000, 1e9),
        ("serve.answer_as_ns", Kind::As, 20_000, 1e9),
        ("serve.answer_country_ns", Kind::Country, 20_000, 1e9),
        ("serve.answer_prefix_us", Kind::Prefix, 2_000, 1e6),
        ("serve.answer_topk_us", Kind::TopK, 2_000, 1e6),
        ("serve.answer_ecdf_us", Kind::Ecdf, 2_000, 1e6),
    ] {
        let queries = of_kind(kind);
        let seconds = per_call(5, calls, |i| {
            black_box(generation.answer(queries[i as usize % queries.len()]));
        });
        readings.push((name, seconds * scale));
    }

    // serve: one query and its reply through the codecs and the frame
    // layer, in memory — the protocol's share of a round trip.
    {
        let queries = of_kind(Kind::As);
        let mut wire_buf: Vec<u8> = Vec::with_capacity(256);
        let mut failed = false;
        let seconds = per_call(5, 20_000, |i| {
            let query = queries[i as usize % queries.len()];
            let round_trip = (|| -> Option<Reply> {
                wire_buf.clear();
                write_frame(&mut wire_buf, &Frame::new(query.kind(), query.encode())).ok()?;
                let frame: Frame<QueryKind> = read_frame(&mut wire_buf.as_slice()).ok()?;
                let reply = generation.answer(&Query::decode(frame.kind, &frame.payload).ok()?);
                wire_buf.clear();
                write_frame(&mut wire_buf, &Frame::new(reply.kind(), reply.encode())).ok()?;
                let frame: Frame<QueryKind> = read_frame(&mut wire_buf.as_slice()).ok()?;
                Reply::decode(frame.kind, &frame.payload).ok()
            })();
            failed |= !round_trip.is_some_and(|r| Kind::As.accepts(&r));
        });
        if failed {
            return Err("query protocol round trip lost a reply".into());
        }
        // The engine's own share is reported separately; subtract it.
        let answer = per_call(5, 20_000, |i| {
            black_box(generation.answer(queries[i as usize % queries.len()]));
        });
        readings.push((
            "serve.proto_roundtrip_ns",
            (seconds - answer).max(0.0) * 1e9,
        ));
    }

    // store: the per-publish diff, then the event log's three paths.
    let table = out.cache_probe.verdict_table();
    let deltas: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(verdict_delta(Some(previous), &table));
            start.elapsed().as_secs_f64()
        })
        .collect();
    readings.push(("store.verdict_delta_s", median(&deltas)));
    {
        let path = scratch.join("kernel.cmel");
        let io = |e: std::io::Error| format!("event log kernel: {e}");
        let mut log =
            EventLog::create(&path, out.sweep.world_seed, out.sweep.config_digest).map_err(io)?;
        // Generation 1 carries the whole table, as in the service; the
        // steady-state events after it carry this sweep's real delta.
        let mut event = SweepEvent {
            epoch: out.sweep.epoch,
            generation: 1,
            measured_slash24s: table.count_measured(),
            changes: verdict_delta(None, &table),
        };
        log.append(&event).map_err(io)?;
        event.changes = verdict_delta(Some(previous), &table);
        let mut appends = Vec::with_capacity(64);
        for generation in 2..=65 {
            event.generation = generation;
            let start = Instant::now();
            log.append(&event).map_err(io)?;
            appends.push(start.elapsed().as_secs_f64());
        }
        readings.push(("store.eventlog_append_us", median(&appends) * 1e6));
        drop(log);
        let start = Instant::now();
        let (mut log, recovery) = EventLog::open(&path).map_err(|e| e.to_string())?;
        let events = log.events().map_err(|e| e.to_string())?;
        readings.push(("store.eventlog_replay_s", start.elapsed().as_secs_f64()));
        if events.len() != 65 {
            return Err(format!(
                "event log replayed {} of 65 events ({recovery:?})",
                events.len()
            ));
        }
        let start = Instant::now();
        log.compact(&out.sweep).map_err(io)?;
        readings.push(("store.eventlog_compact_s", start.elapsed().as_secs_f64()));
    }
    {
        let world = out.sim.world();
        let routed = Slash24Bitset::from_prefixes(
            world.blocks.iter().filter(|b| b.routed).map(|b| &b.prefix),
        );
        let mut active = Slash24Bitset::new();
        for (idx, v) in table.iter_measured() {
            if v == Verdict::Hit {
                active.insert(idx);
            }
        }
        let seconds = per_call(5, 200, |_| {
            black_box(routed.and_count(black_box(&active)));
        });
        readings.push(("store.bitset_and_count_us", seconds * 1e6));
    }

    // telemetry: freezing the run's registry, as every sweep does for
    // its invariant check.
    let snapshots: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            black_box(out.metrics.snapshot());
            start.elapsed().as_secs_f64()
        })
        .collect();
    readings.push(("telemetry.snapshot_s", median(&snapshots)));
    Ok(readings)
}

/// `write_frame` + `read_frame` of one shard-result-sized payload, µs.
pub fn frame_roundtrip_us(payload: Vec<u8>) -> Result<f64, String> {
    let frame = Frame::new(FrameKind::ShardResult, payload);
    let mut wire_buf: Vec<u8> = Vec::with_capacity(frame.payload.len() + 32);
    let mut failed = false;
    let seconds = per_call(5, 8, |_| {
        wire_buf.clear();
        failed |= write_frame(&mut wire_buf, &frame).is_err();
        let back: Result<Frame, _> = read_frame(&mut wire_buf.as_slice());
        failed |= !back.is_ok_and(|b| b.payload.len() == frame.payload.len());
    });
    if failed {
        return Err("fleet frame round trip failed".into());
    }
    Ok(seconds * 1e6)
}
