//! Pipeline orchestration.

use std::sync::Arc;
use std::time::Instant;

use clientmap_cacheprobe::{
    execute_sweep, prepare_sweep_in, sweep, CacheProbeResult, Preamble, ProbeConfig,
};
use clientmap_chromium::{crawl_with_metrics, ChromiumClassifier, DnsLogsResult};
use clientmap_datasets::{ApnicConfig, ApnicDataset, DatasetBundle};
use clientmap_faults::FaultConfig;
use clientmap_net::Prefix;
use clientmap_sim::cdn::CdnLogs;
use clientmap_sim::{Sim, SimTime, Substrate};
use clientmap_store::SweepSnapshot;
use clientmap_telemetry::{MetricsRegistry, MetricsSnapshot, ScopedTimer};
use clientmap_world::{World, WorldConfig};

use crate::Report;

/// All configuration of an end-to-end run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The synthetic world.
    pub world: WorldConfig,
    /// Cache probing.
    pub probe: ProbeConfig,
    /// The Chromium classifier.
    pub classifier: ChromiumClassifier,
    /// The APNIC-style campaign.
    pub apnic: ApnicConfig,
    /// DITL capture length, days (paper: 2).
    pub root_trace_days: u32,
    /// DITL capture sampling rate (1.0 = complete traces).
    pub root_trace_sample_rate: f64,
    /// CDN/TM log window, hours (paper compares "a full day").
    pub cdn_window_hours: u64,
    /// Fault injection (default: off — the fault-free simulation).
    pub faults: FaultConfig,
}

impl PipelineConfig {
    /// Tiny run for unit tests (seconds).
    pub fn tiny(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::tiny(seed),
            probe: {
                let mut p = ProbeConfig::test_scale();
                p.duration_hours = 2.0;
                p.calibration_sample = 250;
                p
            },
            classifier: ChromiumClassifier::default(),
            apnic: ApnicConfig::default(),
            root_trace_days: 2,
            root_trace_sample_rate: 0.005,
            cdn_window_hours: 24,
            faults: FaultConfig::default(),
        }
    }

    /// Small run for integration tests and quick benches (tens of
    /// seconds).
    pub fn small(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::small(seed),
            probe: {
                let mut p = ProbeConfig::test_scale();
                p.duration_hours = 4.0;
                p.calibration_sample = 2_000;
                p
            },
            root_trace_sample_rate: 0.001,
            ..PipelineConfig::tiny(seed)
        }
    }

    /// The full evaluation scale used by the `repro` harness.
    pub fn paper_scale(seed: u64) -> Self {
        PipelineConfig {
            world: WorldConfig::paper_scale(seed),
            probe: ProbeConfig::default(),
            root_trace_sample_rate: 5.0e-4,
            ..PipelineConfig::tiny(seed)
        }
    }

    /// The preset a `--scale` name selects (`tiny`, `small`, `paper`),
    /// or `None` for any other name — the one mapping the CLIs and the
    /// fleet job handshake share, so a typo is refused everywhere
    /// instead of silently measuring the tiny world.
    pub fn from_scale(name: &str, seed: u64) -> Option<Self> {
        match name {
            "tiny" => Some(PipelineConfig::tiny(seed)),
            "small" => Some(PipelineConfig::small(seed)),
            "paper" => Some(PipelineConfig::paper_scale(seed)),
            _ => None,
        }
    }
}

/// Everything an end-to-end run produces.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The simulation (world + services), for further queries.
    pub sim: Sim,
    /// Cache-probing output.
    pub cache_probe: CacheProbeResult,
    /// DNS-logs output.
    pub dns_logs: DnsLogsResult,
    /// Microsoft-side logs.
    pub cdn_logs: CdnLogs,
    /// APNIC estimates.
    pub apnic: ApnicDataset,
    /// The comparable dataset bundle.
    pub bundle: DatasetBundle,
    /// The run's telemetry registry (shared with [`Self::sim`]): every
    /// counter and histogram the stages recorded, invariant-checked.
    pub metrics: Arc<MetricsRegistry>,
    /// This run's sweep snapshot — save it (see
    /// [`SweepSnapshot::encode`]) to warm-start a later run over the
    /// same world and probing config.
    pub sweep: SweepSnapshot,
    /// The configuration that produced this output.
    pub config: PipelineConfig,
}

impl PipelineOutput {
    /// A report renderer over this output.
    pub fn report(&self) -> Report<'_> {
        Report::new(self)
    }

    /// A frozen copy of the run's metrics. Same-seed runs produce
    /// byte-identical [`MetricsSnapshot::to_json`] output.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// Why an end-to-end run could not produce a trustworthy output.
///
/// The pipeline used to panic on these; returning them instead lets
/// callers (the CLI, the repro harness, chaos tests) decide whether to
/// print, retry, or fail the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A counter-reconciliation law from [`crate::invariants`] broke:
    /// the run finished, but its telemetry is silently miscounted and
    /// the output cannot be trusted.
    InvariantViolations(Vec<String>),
    /// A stage could not run at all (e.g. the generated world yielded
    /// an empty probe universe).
    Stage {
        /// The stage that failed (`world_gen`, `cache_probe`, …).
        stage: String,
        /// What went wrong.
        message: String,
    },
    /// A distributed sweep lost its worker fleet: every worker
    /// disconnected or crashed with shards still unprobed, so the
    /// merged output could not be assembled. Shards probed so far are
    /// discarded whole — a fleet failure never ships a partial merge.
    Fleet {
        /// The last worker (address) the driver lost, or the merge
        /// stage itself.
        worker: String,
        /// What went wrong, including per-worker failure detail.
        message: String,
    },
    /// Every live transport peer blew its per-frame i/o deadline: the
    /// fleet's sockets all stalled mid-frame past `--io-timeout`, so
    /// the sweep could not make progress. Distinct from [`Self::Fleet`]
    /// so callers can tell "peers crashed" from "peers hung".
    Timeout {
        /// The last peer whose socket stalled.
        peer: String,
        /// The expired deadline, in seconds.
        seconds: u64,
    },
    /// The run was interrupted (SIGINT on the driver) before every
    /// shard completed. In-flight shards were drained and workers told
    /// to exit cleanly; no partial output was produced.
    Interrupted {
        /// Shards fully probed and collected before the interrupt.
        completed: usize,
        /// Total shards the sweep was partitioned into.
        total: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvariantViolations(v) => {
                write!(f, "telemetry invariants violated:\n  {}", v.join("\n  "))
            }
            PipelineError::Stage { stage, message } => {
                write!(f, "pipeline stage {stage} failed: {message}")
            }
            PipelineError::Fleet { worker, message } => {
                write!(f, "fleet sweep failed ({worker}): {message}")
            }
            PipelineError::Timeout { peer, seconds } => {
                write!(f, "i/o deadline of {seconds}s expired talking to {peer}")
            }
            PipelineError::Interrupted { completed, total } => {
                write!(
                    f,
                    "interrupted with {completed}/{total} shards complete; \
                     in-flight shards drained, no output written"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// How the pipeline runs its probing window. The default
/// ([`LocalSweep`]) executes everything in-process; the fleet driver
/// substitutes an executor that prepares the sweep locally, shards the
/// unit list over TCP workers, and merges their deltas — the contract
/// being that any executor returns the same `(result, snapshot)` bytes
/// the local one would.
pub trait SweepExecutor {
    /// Runs the sweep stage: the cache-probing technique, cold when
    /// `prior` is `None`, otherwise warm-started from it. `preamble` is
    /// the session's kept scope scan and PoP assignment, lent to
    /// [`prepare_sweep_in`].
    fn run_sweep(
        &mut self,
        sim: &mut Sim,
        cfg: &ProbeConfig,
        universe: &[Prefix],
        preamble: &mut Preamble,
        timings: &mut Vec<(String, f64)>,
        prior: Option<&SweepSnapshot>,
    ) -> Result<(CacheProbeResult, SweepSnapshot), PipelineError>;
}

/// The in-process executor: [`prepare_sweep_in`] + [`execute_sweep`].
#[derive(Debug, Default)]
pub struct LocalSweep;

impl SweepExecutor for LocalSweep {
    fn run_sweep(
        &mut self,
        sim: &mut Sim,
        cfg: &ProbeConfig,
        universe: &[Prefix],
        preamble: &mut Preamble,
        timings: &mut Vec<(String, f64)>,
        prior: Option<&SweepSnapshot>,
    ) -> Result<(CacheProbeResult, SweepSnapshot), PipelineError> {
        let prep = prepare_sweep_in(sim, cfg, universe, preamble, timings, prior);
        Ok(execute_sweep(sim, cfg, prep, timings))
    }
}

/// The pipeline entry point.
#[derive(Debug)]
pub struct Pipeline;

impl Pipeline {
    /// Runs everything: world → sim → techniques → datasets.
    ///
    /// The run owns one [`MetricsRegistry`] (created with the [`Sim`],
    /// so world gauges and Google-front-end counters land in the same
    /// place) and records a **sim-time** span per stage — wall clocks
    /// never touch the registry, keeping snapshots reproducible. After
    /// assembly, every counter-reconciliation invariant is checked
    /// (see [`crate::invariants`]); a broken conservation law comes
    /// back as [`PipelineError::InvariantViolations`] rather than
    /// shipping silently miscounted telemetry.
    pub fn run(config: PipelineConfig) -> Result<PipelineOutput, PipelineError> {
        Pipeline::run_warm_timed(config, None, &mut Vec::new())
    }

    /// [`Pipeline::run`] warm-started from `prior` (see
    /// [`SweepSession::sweep`]), additionally appending `(stage, wall
    /// seconds)` pairs to `timings`: `world_gen`, the cache-probe
    /// substages (`vantage_discovery`, `scope_scan`, `calibration`,
    /// `assignment`, `planning`, `probing`, `rescue` under faults, and
    /// `fold`, which tile the probing stage), `crawl`, and `analysis`.
    /// Wall clocks stay in this side channel — the telemetry registry
    /// only ever sees sim-time spans, so metrics snapshots remain
    /// byte-reproducible.
    pub fn run_warm_timed(
        config: PipelineConfig,
        prior: Option<SweepSnapshot>,
        timings: &mut Vec<(String, f64)>,
    ) -> Result<PipelineOutput, PipelineError> {
        Pipeline::run_warm_timed_with(config, prior, timings, &mut LocalSweep)
    }

    /// [`Pipeline::run_warm_timed`] with a pluggable probing-window
    /// executor — the seam the distributed fleet driver plugs into.
    /// Every stage outside the sweep (world generation, crawl, CDN
    /// logs, APNIC, analysis, invariants) runs in-process regardless.
    ///
    /// This is a [`SweepSession`] of exactly one sweep, so nothing is
    /// reused: every stage runs live and `timings` carries its full
    /// wall time, where a later sweep of a longer session still pushes
    /// `crawl` and `analysis` but with the ≈ 0 s its replay took.
    pub fn run_warm_timed_with(
        config: PipelineConfig,
        prior: Option<SweepSnapshot>,
        timings: &mut Vec<(String, f64)>,
        executor: &mut dyn SweepExecutor,
    ) -> Result<PipelineOutput, PipelineError> {
        SweepSession::new(config).sweep_with(prior.as_ref(), timings, executor)
    }
}

/// The output of a stage that is a pure function of the session's
/// [`PipelineConfig`], kept with everything its one live run registered
/// or recorded in a scratch [`MetricsRegistry`].
#[derive(Debug)]
struct Recorded<T> {
    value: T,
    telemetry: MetricsSnapshot,
}

impl<T: Clone> Recorded<T> {
    fn run(stage: impl FnOnce(&MetricsRegistry) -> T) -> Self {
        let scratch = MetricsRegistry::new();
        let value = stage(&scratch);
        Recorded {
            value,
            telemetry: scratch.snapshot(),
        }
    }

    /// Hands a sweep its copy of the value and leaves `metrics` exactly
    /// as the live stage would have — zero-valued instruments included
    /// (a clean capture reports `dnslogs.shape_mismatch: 0`), which is
    /// why this is `absorb_snapshot` and not a delta.
    fn replay(&self, metrics: &MetricsRegistry) -> T {
        metrics.absorb_snapshot(&self.telemetry);
        self.value.clone()
    }
}

/// One immutable [`PipelineConfig`] swept any number of times — the
/// one way to run a sweep. [`Pipeline::run`] and its siblings are a
/// session of a single sweep; a resident service keeps one session and
/// chains its sweeps in a plain loop, each warm-started from the
/// snapshot of the one before:
///
/// ```no_run
/// use clientmap_core::{PipelineConfig, SweepSession};
///
/// let mut session = SweepSession::new(PipelineConfig::tiny(42));
/// let mut last = None;
/// for _ in 0..3 {
///     let out = session.sweep(last.as_ref()).expect("healthy sweep");
///     println!("{}", out.report().headlines());
///     last = Some(out.sweep);
/// }
/// ```
///
/// In the paper only cache probing (§3.1) repeats on a cadence; the
/// DITL capture technique 2 crawls (§3.2) and the validation datasets
/// (§4) are fixed inputs. **Per session**, built by the first sweep's
/// [`Self::open`] and shared by every later one: the world and the
/// [`Substrate`] derived from it (catchments, authoritatives, Google's
/// load tables, the probe universe). Also per session, computed by the
/// first sweep — after probing, from that sweep's [`Sim`], where a
/// one-shot run always has — and replayed, value and telemetry, into
/// every later one: the warm-start config digest, the DITL capture's
/// crawl result, the CDN logs and the APNIC estimates. The
/// `RootTraceSet` itself is never retained. Kept in the session's
/// [`Preamble`] and lent to each sweep's executor: the scope scan, and
/// the PoP assignment, recomputed only when the bound PoPs or their
/// radii differ from the kept one's. **Per sweep:** a cold
/// [`Sim`] over the substrate (its metrics registry, resolver counters,
/// fault plan and session — Google's caches start cold every time), the
/// probing window, the dataset bundle and the invariant check.
///
/// The chain is deterministic and equals, byte for byte at every step
/// (snapshot, report, metrics JSON), a chain of one-sweep sessions, each
/// warm-started from the one before, at any thread count. A sweep that
/// fails leaves the session as it was, up to preamble entries that are
/// pure functions of their keys: the next sweep equals the one an
/// unfailed chain would have run.
#[derive(Debug)]
pub struct SweepSession {
    config: PipelineConfig,
    /// The world and everything derived from it, built by the first
    /// [`Self::open`].
    substrate: Option<Arc<Substrate>>,
    /// The scope scan and PoP assignment of the substrate's world, each
    /// kept with the key it was computed from.
    preamble: Preamble,
    /// [`sweep::config_digest`] of `(config, universe)`, once a sweep
    /// has had a prior to check it against.
    digest: Option<u64>,
    dns_logs: Option<Recorded<DnsLogsResult>>,
    validation: Option<Recorded<(CdnLogs, ApnicDataset)>>,
}

impl SweepSession {
    /// A session over `config`. Nothing runs until the first sweep.
    pub fn new(config: PipelineConfig) -> Self {
        SweepSession {
            config,
            substrate: None,
            preamble: Preamble::default(),
            digest: None,
            dns_logs: None,
            validation: None,
        }
    }

    /// The configuration every sweep of this session runs under.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The probe universe of the session's world (empty before the
    /// first [`Self::open`] or sweep).
    pub fn universe(&self) -> &[Prefix] {
        self.substrate.as_deref().map_or(&[], Substrate::universe)
    }

    /// Opens the session's world for one sweep: generates it and builds
    /// its [`Substrate`] on the first call, refuses an empty probe
    /// universe, builds a cold [`Sim`] over the substrate with a fresh
    /// registry under the session's fault plan, and checks that `prior`
    /// may warm-start it. Every sweep begins here, and so does a fleet
    /// worker rebuilding a driver's job.
    pub fn open(&mut self, prior: Option<&SweepSnapshot>) -> Result<Sim, PipelineError> {
        let config = &self.config;
        let substrate = self.substrate.get_or_insert_with(|| {
            Arc::new(Substrate::build(World::generate(config.world.clone())))
        });
        let universe = substrate.universe();
        if universe.is_empty() {
            return Err(PipelineError::Stage {
                stage: "world_gen".into(),
                message: "generated world has no announced blocks to probe".into(),
            });
        }
        let sim = Sim::over(
            Arc::clone(substrate),
            Arc::new(MetricsRegistry::new()),
            &config.faults,
        );

        // Warm-start validity: a snapshot only speaks for runs over the
        // same world and probing configuration. Refusing a mismatched
        // snapshot here (rather than silently replaying stale records)
        // is what lets the warm path promise byte-identical output.
        if let Some(prior) = prior {
            let digest = *self
                .digest
                .get_or_insert_with(|| sweep::config_digest(&sim, &config.probe, universe));
            if prior.world_seed != config.world.seed {
                return Err(PipelineError::Stage {
                    stage: "warm-start".into(),
                    message: format!(
                        "snapshot is from world seed {} but this run uses seed {}",
                        prior.world_seed, config.world.seed
                    ),
                });
            }
            if prior.config_digest != digest {
                return Err(PipelineError::Stage {
                    stage: "warm-start".into(),
                    message: format!(
                        "snapshot config digest {:#x} does not match this run's {:#x} \
                         (world or probing configuration changed)",
                        prior.config_digest, digest
                    ),
                });
            }
        }
        Ok(sim)
    }

    /// One sweep, in-process: cold when `prior` is `None`, otherwise
    /// warm-started from it. The snapshot must come from the same world
    /// seed and probing configuration (checked via its config digest,
    /// see [`Self::open`]); the planner then re-probes only scopes that
    /// are new, expired under `probe.expiry_budget`, in need of rescue,
    /// or dirtied by fault quarantine — everything else is replayed
    /// from the snapshot, keeping the output byte-identical to a cold
    /// run when nothing changed.
    pub fn sweep(
        &mut self,
        prior: Option<&SweepSnapshot>,
    ) -> Result<PipelineOutput, PipelineError> {
        self.sweep_with(prior, &mut Vec::new(), &mut LocalSweep)
    }

    /// [`Self::sweep`] with the wall-clock side channel of
    /// [`Pipeline::run_warm_timed`] and the probing-window executor of
    /// [`Pipeline::run_warm_timed_with`]: the session's world
    /// ([`Self::open`]), the probing window through `executor`, the
    /// session's static inputs, the dataset bundle and the invariant
    /// check.
    pub fn sweep_with(
        &mut self,
        prior: Option<&SweepSnapshot>,
        timings: &mut Vec<(String, f64)>,
        executor: &mut dyn SweepExecutor,
    ) -> Result<PipelineOutput, PipelineError> {
        let stage = Instant::now();
        let mut sim = self.open(prior)?;
        let metrics = Arc::clone(sim.metrics());
        metrics.counter("pipeline.runs").inc();
        timings.push(("world_gen".into(), stage.elapsed().as_secs_f64()));
        let config = &self.config;
        let universe = self
            .substrate
            .as_deref()
            .map_or(&[][..], Substrate::universe);

        // Technique 1: cache probing (discovery at t=0, calibration at
        // t=6 h, the probing window starting at t=8 h).
        let probe_span = ScopedTimer::start(
            metrics.histogram("pipeline.stage_ms.cache_probe"),
            SimTime::ZERO.as_millis(),
        );
        let (cache_probe, sweep) = executor.run_sweep(
            &mut sim,
            &config.probe,
            universe,
            &mut self.preamble,
            timings,
            prior,
        )?;
        probe_span.stop(
            (SimTime::from_hours(8) + SimTime::from_secs_f64(config.probe.duration_hours * 3600.0))
                .as_millis(),
        );

        // Technique 2: DNS logs over a DITL capture.
        let stage = Instant::now();
        let dns_logs = self
            .dns_logs
            .get_or_insert_with(|| {
                Recorded::run(|metrics| {
                    let trace_span = ScopedTimer::start(
                        metrics.histogram("pipeline.stage_ms.dns_logs"),
                        SimTime::ZERO.as_millis(),
                    );
                    let traces = sim.capture_root_traces(
                        SimTime::ZERO,
                        config.root_trace_days,
                        config.root_trace_sample_rate,
                    );
                    let dns_logs = crawl_with_metrics(&traces, &config.classifier, metrics);
                    trace_span.stop(
                        SimTime::from_hours(u64::from(config.root_trace_days) * 24).as_millis(),
                    );
                    dns_logs
                })
            })
            .replay(&metrics);
        timings.push(("crawl".into(), stage.elapsed().as_secs_f64()));

        // Validation datasets.
        let stage = Instant::now();
        let (cdn_logs, apnic) = self
            .validation
            .get_or_insert_with(|| {
                Recorded::run(|metrics| {
                    let cdn_span = ScopedTimer::start(
                        metrics.histogram("pipeline.stage_ms.cdn_logs"),
                        SimTime::ZERO.as_millis(),
                    );
                    let cdn_logs = sim.collect_cdn_logs(
                        SimTime::ZERO,
                        SimTime::from_hours(config.cdn_window_hours),
                    );
                    cdn_span.stop(SimTime::from_hours(config.cdn_window_hours).as_millis());
                    (cdn_logs, ApnicDataset::estimate(sim.world(), &config.apnic))
                })
            })
            .replay(&metrics);

        let bundle =
            DatasetBundle::build(&cache_probe, &dns_logs, &cdn_logs, &apnic, &sim.world().rib);
        bundle.register_metrics(&metrics);

        let violations = crate::invariants::check(&metrics.snapshot(), config.probe.redundancy);
        if !violations.is_empty() {
            return Err(PipelineError::InvariantViolations(violations));
        }
        timings.push(("analysis".into(), stage.elapsed().as_secs_f64()));

        Ok(PipelineOutput {
            cache_probe,
            dns_logs,
            cdn_logs,
            apnic,
            bundle,
            metrics,
            sweep,
            config: config.clone(),
            sim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_datasets::DatasetId;

    /// One shared tiny end-to-end run for all assertions below.
    fn output() -> &'static PipelineOutput {
        static OUT: std::sync::OnceLock<PipelineOutput> = std::sync::OnceLock::new();
        OUT.get_or_init(|| Pipeline::run(PipelineConfig::tiny(7)).expect("tiny run is healthy"))
    }

    #[test]
    fn from_scale_maps_exactly_the_three_presets() {
        let same = |a: &PipelineConfig, b: &PipelineConfig| format!("{a:?}") == format!("{b:?}");
        let preset = |name| PipelineConfig::from_scale(name, 9).expect("known scale");
        assert!(same(&preset("tiny"), &PipelineConfig::tiny(9)));
        assert!(same(&preset("small"), &PipelineConfig::small(9)));
        assert!(same(&preset("paper"), &PipelineConfig::paper_scale(9)));
        assert!(!same(&preset("tiny"), &preset("small")));
        for bad in ["papr", "Tiny", "paper_scale", "", " tiny"] {
            assert!(PipelineConfig::from_scale(bad, 9).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn all_stages_produce_data() {
        let o = output();
        assert!(o.cache_probe.probes_sent > 0);
        assert!(o.cache_probe.active_set().num_slash24s() > 0);
        assert!(!o.dns_logs.resolvers.is_empty());
        assert!(o.cdn_logs.total_requests() > 0);
        assert!(!o.apnic.is_empty());
    }

    #[test]
    fn bundle_consistent_with_parts() {
        let o = output();
        assert_eq!(
            o.bundle.cache_probing.num_slash24s(),
            o.cache_probe.active_set().num_slash24s()
        );
        assert_eq!(o.bundle.apnic.len(), o.apnic.len());
        assert_eq!(
            o.bundle.ms_clients.num_slash24s() as usize,
            o.cdn_logs.clients.len()
        );
    }

    #[test]
    fn paper_shape_microsoft_sees_most_ases() {
        let o = output();
        // Table 3's key structure: the CDN has the broadest AS view;
        // APNIC the narrowest of the major datasets.
        let ms = o.bundle.as_view(DatasetId::MicrosoftClients).len();
        let apnic = o.bundle.as_view(DatasetId::Apnic).len();
        let union = o.bundle.as_view(DatasetId::Union).len();
        assert!(ms > apnic, "CDN {ms} vs APNIC {apnic}");
        assert!(union > apnic, "union {union} vs APNIC {apnic}");
    }

    #[test]
    fn techniques_beat_apnic_on_volume_coverage() {
        let o = output();
        use clientmap_analysis::overlap::volume_matrix;
        let ids = [
            DatasetId::Union,
            DatasetId::Apnic,
            DatasetId::MicrosoftClients,
        ];
        let m = volume_matrix(&o.bundle, &[DatasetId::MicrosoftClients], &ids);
        let in_union = m
            .cell(DatasetId::MicrosoftClients, DatasetId::Union)
            .unwrap();
        let in_apnic = m
            .cell(DatasetId::MicrosoftClients, DatasetId::Apnic)
            .unwrap();
        // Paper: 98.8% vs 92%.
        assert!(
            in_union > in_apnic,
            "union {in_union:.1}% vs APNIC {in_apnic:.1}%"
        );
        assert!(in_union > 70.0, "union coverage too low: {in_union:.1}%");
    }

    #[test]
    fn faulted_pipeline_completes_and_accounts_for_coverage() {
        use clientmap_faults::{FaultConfig, FaultProfile};
        let mut config = PipelineConfig::tiny(7);
        config.faults = FaultConfig::profile(FaultProfile::Lossy, 5);
        // The invariant check inside run() already enforces the fault
        // conservation laws; reaching Ok means they reconciled.
        let o = Pipeline::run(config).expect("lossy run completes");
        let f = o.cache_probe.fault.as_ref().expect("fault summary");
        assert_eq!(f.profile, "lossy");
        assert!(f.observed > 0 && f.retries > 0);
        assert_eq!(f.observed, f.recovered + f.degraded + f.lost);
        assert!(o.cache_probe.active_set().num_slash24s() > 0);
    }

    #[test]
    fn fault_free_snapshot_has_no_fault_counters() {
        let snap = output().metrics_snapshot();
        assert!(
            !snap.counters.keys().any(|k| k.starts_with("faults.")
                || k.starts_with("cacheprobe.fault.")
                || k.starts_with("cacheprobe.quarantine.")),
            "fault counters must not register on fault-free runs"
        );
        assert!(output().cache_probe.fault.is_none());
    }

    #[test]
    fn warm_run_reproduces_the_cold_run_byte_for_byte() {
        let cold = output();
        // Round-trip through the serialized form — the warm path the
        // CLI takes (`--snapshot-out` then `--snapshot-in`).
        let snap = SweepSnapshot::decode(&cold.sweep.encode()).expect("snapshot round-trips");
        let warm = SweepSession::new(PipelineConfig::tiny(7))
            .sweep(Some(&snap))
            .expect("warm run is healthy");

        // Nothing changed, so the planner must emit zero probe work …
        let ws = warm.metrics_snapshot();
        assert_eq!(ws.counter("cacheprobe.planner.planned"), 0);
        assert_eq!(ws.counter("cacheprobe.planner.units"), 0);
        assert_eq!(warm.sweep.epoch, cold.sweep.epoch + 1);

        // … and every report byte must match the cold run.
        assert_eq!(warm.report().render_all(), cold.report().render_all());
        assert_eq!(warm.sweep.records, cold.sweep.records);

        // Metrics match too, once the warm-only planner counters are
        // set aside (they do not exist on the cold run).
        let filter = |json: &str| -> String {
            json.lines()
                .filter(|l| !l.contains("cacheprobe.planner."))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            filter(&ws.to_json()),
            filter(&cold.metrics_snapshot().to_json())
        );
    }

    /// A zero-plan sweep carries its prior's record table forward shared,
    /// not copied: the new snapshot's table and the result's are the
    /// prior's own, with the views the prior's sweep built.
    #[test]
    fn a_zero_plan_sweep_shares_its_priors_record_table() {
        let cold = output();
        let warm = SweepSession::new(PipelineConfig::tiny(7))
            .sweep(Some(&cold.sweep))
            .expect("warm run is healthy");
        assert_eq!(
            warm.metrics_snapshot()
                .counter("cacheprobe.planner.planned"),
            0
        );
        assert!(warm.sweep.records.shares(&cold.sweep.records));
        assert!(warm.cache_probe.records.shares(&cold.sweep.records));
        assert!(std::ptr::eq(
            warm.cache_probe.hits(),
            cold.cache_probe.hits()
        ));
    }

    #[test]
    fn session_chains_warm_sweeps_in_order() {
        let cold = output();
        let mut session = SweepSession::new(PipelineConfig::tiny(7));
        let mut last = cold.sweep.clone();
        for step in 1..=3 {
            let out = session.sweep(Some(&last)).expect("sweep is healthy");
            assert_eq!(out.sweep.epoch, cold.sweep.epoch + step);
            // Every chained sweep replays the same stable world.
            assert_eq!(out.report().render_all(), cold.report().render_all());
            last = out.sweep;
        }
    }

    /// The three artifacts every byte-identity suite compares.
    fn artifacts(out: &PipelineOutput) -> (Vec<u8>, String, String) {
        (
            out.sweep.encode(),
            out.report().render_all(),
            out.metrics_snapshot().to_json(),
        )
    }

    /// `steps` chained, fully independent sweeps, each in a fresh
    /// session of its own — the oracle a session's sweeps must equal.
    fn independent_chain(config: &PipelineConfig, steps: usize) -> Vec<PipelineOutput> {
        let mut chain: Vec<PipelineOutput> = Vec::new();
        for _ in 0..steps {
            let prior = chain.last().map(|o| &o.sweep);
            let out = SweepSession::new(config.clone()).sweep(prior);
            chain.push(out.expect("oracle run is healthy"));
        }
        chain
    }

    #[test]
    fn cadence_matches_independent_warm_chain() {
        use clientmap_faults::{FaultConfig, FaultProfile};
        let lossy = {
            let mut c = PipelineConfig::tiny(7);
            c.faults = FaultConfig::profile(FaultProfile::Lossy, 7);
            c
        };
        let clustered = {
            let mut c = PipelineConfig::tiny(7);
            c.probe.clustered_probing = true;
            c.probe.cluster_epsilon = 0.25;
            // Later sweeps must re-probe, not only replay.
            c.probe.expiry_budget = 0.5;
            c
        };
        for (name, config) in [
            ("default", PipelineConfig::tiny(7)),
            ("lossy", lossy),
            ("clustered", clustered),
        ] {
            let oracle = independent_chain(&config, 3);
            let mut session = SweepSession::new(config);
            let mut last: Option<SweepSnapshot> = None;
            for (want, sweep_no) in oracle.iter().zip(1..) {
                let out = session.sweep(last.as_ref()).expect("sweep is healthy");
                let (snapshot, report, metrics) = artifacts(&out);
                let (want_snapshot, want_report, want_metrics) = artifacts(want);
                assert!(
                    snapshot == want_snapshot,
                    "{name} sweep {sweep_no}: snapshot"
                );
                assert!(report == want_report, "{name} sweep {sweep_no}: report");
                // Unfiltered: warm-only planner counters and every
                // replayed instrument included.
                assert_eq!(metrics, want_metrics, "{name} sweep {sweep_no}: metrics");
                last = Some(out.sweep);
            }
        }
    }

    #[test]
    fn later_session_sweeps_replay_the_static_inputs() {
        let mut session = SweepSession::new(PipelineConfig::tiny(7));
        let mut timings = Vec::new();
        let first = session
            .sweep_with(None, &mut timings, &mut LocalSweep)
            .expect("sweep 1");

        // Mark what the session retained: a sweep that re-ran the
        // capture, the crawl, the CDN logs or APNIC would not carry
        // the marks.
        session.dns_logs.as_mut().unwrap().value.records_examined = 424_242;
        let validation = &mut session.validation.as_mut().unwrap().value;
        validation.0.clients.clear();
        validation.1.estimates.clear();

        let mut replayed = Vec::new();
        let second = session
            .sweep_with(Some(&first.sweep), &mut replayed, &mut LocalSweep)
            .expect("sweep 2");
        assert_eq!(second.dns_logs.records_examined, 424_242);
        assert_eq!(second.dns_logs.resolvers, first.dns_logs.resolvers);
        assert!(second.cdn_logs.clients.is_empty());
        assert!(second.apnic.estimates.is_empty());
        // Both registries read as a live crawl's, zero-valued counters
        // included (a tiny capture has no shape mismatches) — the one
        // thing a delta replay would not reproduce.
        let live = MetricsRegistry::new();
        let config = &first.config;
        let traces = first.sim.capture_root_traces(
            SimTime::ZERO,
            config.root_trace_days,
            config.root_trace_sample_rate,
        );
        crawl_with_metrics(&traces, &config.classifier, &live);
        let live = live.snapshot();
        assert_eq!(live.counters.get("dnslogs.shape_mismatch"), Some(&0));
        let (m1, m2) = (first.metrics_snapshot(), second.metrics_snapshot());
        for (name, value) in &live.counters {
            assert_eq!(m1.counters.get(name), Some(value), "sweep 1 {name}");
            assert_eq!(m2.counters.get(name), Some(value), "sweep 2 {name}");
        }
        assert_eq!(
            m2.histogram("pipeline.stage_ms.dns_logs"),
            m1.histogram("pipeline.stage_ms.dns_logs")
        );
        assert_eq!(
            m2.histogram("pipeline.stage_ms.cdn_logs"),
            m1.histogram("pipeline.stage_ms.cdn_logs")
        );

        // The side channel keeps one shape whether a stage ran or was
        // replayed.
        let stages = |t: &[(String, f64)]| -> Vec<String> {
            t.iter()
                .map(|(stage, _)| stage.clone())
                .filter(|stage| matches!(stage.as_str(), "world_gen" | "crawl" | "analysis"))
                .collect()
        };
        assert_eq!(stages(&timings), ["world_gen", "crawl", "analysis"]);
        assert_eq!(stages(&replayed), stages(&timings));
    }

    #[test]
    fn later_session_sweeps_keep_the_scope_scan() {
        let mut session = SweepSession::new(PipelineConfig::tiny(7));
        let first = session.sweep(None).expect("sweep 1");

        // Drop one domain's scopes from the kept scan: a sweep that
        // scanned again would bring them back.
        let scan = session
            .preamble
            .kept_scan_mut()
            .expect("sweep 1 kept its scan");
        assert!(!scan.domains[0].scopes.is_empty());
        scan.domains[0].scopes.clear();

        let second = session.sweep(None).expect("sweep 2");
        let of_domain_0 = |out: &PipelineOutput| {
            out.sweep
                .records
                .keys()
                .iter()
                .filter(|&&(_, d, _, _)| d == 0)
                .count()
        };
        assert!(of_domain_0(&first) > 0);
        assert_eq!(of_domain_0(&second), 0);
        assert!(second.sweep.records.len() < first.sweep.records.len());
        let assigned =
            |out: &PipelineOutput| -> usize { out.cache_probe.assigned_per_pop.values().sum() };
        assert!(assigned(&second) < assigned(&first));
    }

    #[test]
    fn a_kept_assignment_follows_the_radii() {
        // The config digest does not cover the stored radii, so `open`
        // accepts a prior whose radii were edited, and a warm sweep
        // replays the edit.
        let scaled = |factor: f64| {
            let mut prior = output().sweep.clone();
            for cal in &mut prior.calibration {
                cal.radius_km = cal.radius_km.map(|r| r * factor);
            }
            prior
        };
        let (wide, narrow) = (scaled(2.0), scaled(0.5));
        let config = PipelineConfig::tiny(7);
        let oracle = SweepSession::new(config.clone())
            .sweep(Some(&narrow))
            .expect("one-shot sweep from the narrowed prior");

        // Sweep 1 assigns under doubled radii. Each later sweep has
        // other radii, so a keep that ignored them would hand it sweep
        // 1's lists.
        let mut session = SweepSession::new(config);
        let first = session.sweep(Some(&wide)).expect("sweep 1");
        let assigned = |out: &PipelineOutput| out.cache_probe.assigned_per_pop.clone();
        assert_ne!(assigned(&first), assigned(output()));
        assert_ne!(assigned(&first), assigned(&oracle));
        assert_ne!(assigned(&oracle), assigned(output()));

        let second = session.sweep(Some(&narrow)).expect("sweep 2");
        assert!(artifacts(&second) == artifacts(&oracle), "narrowed radii");

        // A cold sweep calibrates live, back to the one-shot cold run's
        // radii.
        let third = session.sweep(None).expect("sweep 3");
        assert!(artifacts(&third) == artifacts(output()), "live radii");
    }

    #[test]
    fn a_session_builds_its_world_once() {
        let mut session = SweepSession::new(PipelineConfig::tiny(7));
        let a = session.sweep(None).expect("sweep 1");
        let b = session.sweep(Some(&a.sweep)).expect("sweep 2");
        assert!(std::ptr::eq(a.sim.world(), b.sim.world()));
        assert!(std::ptr::eq(
            session.universe(),
            b.sim.substrate().universe()
        ));
        // Each one-shot run is a session of its own, with its own world.
        let c = Pipeline::run(PipelineConfig::tiny(7)).expect("one-shot run");
        assert!(!std::ptr::eq(c.sim.world(), output().sim.world()));
    }

    #[test]
    fn stage_timings_fit_inside_the_sweep_wall_time() {
        let mut timings = Vec::new();
        let wall = Instant::now();
        let warm = SweepSession::new(PipelineConfig::tiny(7))
            .sweep_with(Some(&output().sweep), &mut timings, &mut LocalSweep)
            .expect("warm sweep");
        let wall = wall.elapsed().as_secs_f64();
        assert_eq!(
            warm.metrics_snapshot()
                .counter("cacheprobe.planner.planned"),
            0
        );
        let stages: f64 = timings.iter().map(|(_, s)| s).sum();
        assert!(
            stages <= wall,
            "stages sum to {stages} s inside a {wall} s sweep: {timings:?}"
        );
    }

    /// Fails the probing window on its `fail_on`-th call.
    struct FlakySweep {
        calls: u32,
        fail_on: u32,
    }

    impl SweepExecutor for FlakySweep {
        fn run_sweep(
            &mut self,
            sim: &mut Sim,
            cfg: &ProbeConfig,
            universe: &[Prefix],
            preamble: &mut Preamble,
            timings: &mut Vec<(String, f64)>,
            prior: Option<&SweepSnapshot>,
        ) -> Result<(CacheProbeResult, SweepSnapshot), PipelineError> {
            self.calls += 1;
            if self.calls == self.fail_on {
                return Err(PipelineError::Stage {
                    stage: "injected-failure".into(),
                    message: format!("sweep {} failed", self.calls),
                });
            }
            LocalSweep.run_sweep(sim, cfg, universe, preamble, timings, prior)
        }
    }

    #[test]
    fn a_failure_mid_cadence_leaves_earlier_sweeps_and_the_session_intact() {
        let config = PipelineConfig::tiny(7);
        let oracle = independent_chain(&config, 2);

        // What `clientmap serve` relies on to keep answering degraded,
        // and what a restarted chain will rely on: a sweep that dies
        // inside the probing window (before the static inputs of a
        // first sweep exist, or after) poisons nothing. The sweeps
        // before it were handed over whole, and the session's next
        // sweep equals the oracle's.
        for fail_on in [1, 2] {
            let mut session = SweepSession::new(config.clone());
            let mut executor = FlakySweep { calls: 0, fail_on };
            let mut prior = None;
            let mut step = 0;
            while step < 2 {
                match session.sweep_with(prior.as_ref(), &mut Vec::new(), &mut executor) {
                    Ok(out) => {
                        assert_eq!(
                            artifacts(&out),
                            artifacts(&oracle[step]),
                            "fail_on {fail_on}, step {step}"
                        );
                        prior = Some(out.sweep);
                        step += 1;
                    }
                    Err(e) => assert!(
                        matches!(e, PipelineError::Stage { ref stage, .. } if stage == "injected-failure")
                    ),
                }
            }
            assert_eq!(executor.calls, 3, "two good sweeps around one failure");
        }
    }

    #[test]
    fn warm_run_rejects_foreign_snapshots() {
        let snap = output().sweep.clone();
        // A different world seed is refused outright …
        let err = SweepSession::new(PipelineConfig::tiny(8))
            .sweep(Some(&snap))
            .expect_err("seed mismatch must be rejected");
        assert!(matches!(err, PipelineError::Stage { ref stage, .. } if stage == "warm-start"));

        // … and so is the same world under a changed probing config.
        let mut config = PipelineConfig::tiny(7);
        config.probe.redundancy += 1;
        let err = SweepSession::new(config)
            .sweep(Some(&snap))
            .expect_err("config digest mismatch must be rejected");
        assert!(matches!(err, PipelineError::Stage { ref stage, .. } if stage == "warm-start"));
    }

    #[test]
    fn pipeline_errors_render_readably() {
        let e = PipelineError::InvariantViolations(vec!["a != b".into()]);
        assert!(e.to_string().contains("a != b"));
        let e = PipelineError::Stage {
            stage: "world_gen".into(),
            message: "empty universe".into(),
        };
        assert!(e.to_string().contains("world_gen"));
        assert!(e.to_string().contains("empty universe"));
    }

    #[test]
    fn report_renders_everything() {
        let o = output();
        let all = o.report().render_all();
        for needle in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "cache probing",
            "Microsoft clients",
        ] {
            assert!(all.contains(needle), "report missing {needle:?}");
        }
    }
}
