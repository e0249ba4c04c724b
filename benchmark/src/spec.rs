//! The benchmark's contract in one place: workload and metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repo root is
//! this table printed (`--print-spec`); a unit test keeps them equal.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// One per-layer metric (traced run only; no bound).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, as printed: `<layer>.<what>`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// Seconds one run measures at the default scale (`run_seconds`).
pub const RUN_SECONDS: u32 = 30;

/// Seed of the generated world every run measures (see
/// [`crate::workload::Inputs`] for why it is not `--seed`).
pub const WORLD_SEED: u64 = 2021;

/// Fault-plan seed of `lossy_sweep`, a constant for the same reason.
pub const FAULT_SEED: u64 = 7;

/// The nine end-to-end metrics. Every workload reports every one: each
/// run makes direct sweeps under the workload's configuration and then
/// serves the result while re-sweeping, so none is ever absent or 0.
/// Times are at reference host speed (see [`crate::calib`]). Every time
/// bound is the widest the contract allows: the host that accepts the
/// benchmark spread identical code by up to 27 % (README, "Noise").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sweep_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sweep_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "snapshot_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "publish_interval_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "log_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

const L: Better = Better::Lower;
const H: Better = Better::Higher;

/// The per-layer metrics, layer = crate. Counts carry `Lower` when
/// they are work done on the system's behalf (fewer probes, retries or
/// allocations for the same bytes is a win) and `Higher` when they are
/// throughput or useful outcomes.
pub const PER_LAYER: &[PerLayer] = &[
    layer("world.generate_s", "s", L),
    layer("sim.build_s", "s", L),
    layer("sim.capture_root_traces_s", "s", L),
    layer("sim.collect_cdn_logs_s", "s", L),
    layer("sim.gpdns_batch_ns_per_probe", "ns", L),
    layer("sim.gpdns_scalar_ns_per_probe", "ns", L),
    layer("dns.wire_encode_ns", "ns", L),
    layer("dns.wire_decode_ns", "ns", L),
    layer("dns.probe_render_ns_per_probe", "ns", L),
    layer("cacheprobe.prepare_s", "s", L),
    layer("cacheprobe.scope_scan_s", "s", L),
    layer("cacheprobe.calibration_s", "s", L),
    layer("cacheprobe.prepare_self_s", "s", L),
    layer("cacheprobe.cluster_prepare_s", "s", L),
    layer("cacheprobe.execute_s", "s", L),
    layer("cacheprobe.probing_s", "s", L),
    layer("cacheprobe.rescue_s", "s", L),
    layer("cacheprobe.probe_shard_s", "s", L),
    layer("cacheprobe.merge_shards_s", "s", L),
    layer("cacheprobe.probes_sent", "count", L),
    layer("cacheprobe.probes_per_s", "1/s", H),
    layer("cacheprobe.planned_ratio", "ratio", L),
    layer("cacheprobe.retries", "count", L),
    layer("cacheprobe.lost", "count", L),
    layer("cacheprobe.rescued_scopes", "count", H),
    layer("chromium.crawl_s", "s", L),
    layer("chromium.traces_crawled", "count", H),
    layer("datasets.apnic_estimate_s", "s", L),
    layer("datasets.bundle_build_s", "s", L),
    layer("core.invariants_check_s", "s", L),
    layer("core.output_drop_s", "s", L),
    layer("core.residual_ratio", "ratio", L),
    layer("store.snapshot_encode_s", "s", L),
    layer("store.snapshot_decode_s", "s", L),
    layer("store.verdict_delta_s", "s", L),
    layer("store.eventlog_append_us", "us", L),
    layer("store.eventlog_compact_s", "s", L),
    layer("store.eventlog_replay_s", "s", L),
    layer("store.bitset_and_count_us", "us", L),
    layer("net.trie_lpm_ns", "ns", L),
    layer("net.prefixset_intersection_us", "us", L),
    layer("serve.generation_build_s", "s", L),
    layer("serve.answer_info_ns", "ns", L),
    layer("serve.answer_as_ns", "ns", L),
    layer("serve.answer_country_ns", "ns", L),
    layer("serve.answer_prefix_us", "us", L),
    layer("serve.answer_topk_us", "us", L),
    layer("serve.answer_ecdf_us", "us", L),
    layer("serve.proto_roundtrip_ns", "ns", L),
    layer("serve.tcp_rtt_us", "us", L),
    layer("serve.query_qps", "1/s", H),
    layer("serve.query_p999_us", "us", L),
    layer("serve.q_prefix_p99_us", "us", L),
    layer("serve.queries_err_ratio", "ratio", L),
    layer("fleet.frame_roundtrip_us", "us", L),
    layer("fleet.sweep_1w_s", "s", L),
    layer("fleet.overhead_ratio", "ratio", L),
    layer("par.par_map_overhead_us", "us", L),
    layer("faults.injected", "count", L),
    layer("telemetry.counter_inc_ns", "ns", L),
    layer("telemetry.snapshot_s", "s", L),
    layer("harness.alloc_count_per_sweep", "count", L),
    layer("harness.alloc_mib_per_sweep", "MiB", L),
    layer("harness.trace_overhead_ratio", "ratio", L),
];

/// The three workloads, in the order the set runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_sweep",
        "Probing-bound: exhaustive small-world sweeps with no prior at 2 threads ride the batched probe lane; the service then re-sweeps with a zero plan, so its publish interval bypasses probing",
    ),
    (
        "lossy_sweep",
        "Fault lane: tiny world under the lossy profile sends every probe down the scalar resilient path with retries, breaker, quarantine and rescue",
    ),
    (
        "serve_mixed",
        "Reads beside writes, warm: a closed-loop seeded query mix against the service while clustered sweeps from a decoded prior diff, append, compact and publish generations",
    ),
];

/// `BENCHMARK.json`, generated.
pub fn benchmark_json() -> Json {
    let s = |v: &str| Json::Str(v.to_string());
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(names.insert(*name), "{name} used twice");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!(benchmark_json().render_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `bash benchmark/run.sh --print-spec > BENCHMARK.json`"
        );
    }
}
