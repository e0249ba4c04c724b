//! `clientmap` — the user-facing CLI and the evaluation harness, on one
//! flag parser. The synopsis is [`USAGE`].
//!
//! `run` executes the full pipeline and prints the headline numbers;
//! `--snapshot-out` saves the sweep's warm-start snapshot, and a later
//! run with `--snapshot-in` replays everything the snapshot already
//! knows, probing only what `--expiry-budget` (fraction of scopes
//! refreshed per sweep, e.g. `0.1`) or fault quarantine marks stale.
//! `export` writes the *shareable* datasets (technique outputs + the
//! APNIC-style estimates) as CSV; `query` answers the paper's title
//! question for one prefix ("does this network have clients?") from
//! the public activity map; `stats` summarises the generated world and
//! the most-active networks. `repro` is the evaluation harness: it
//! regenerates every paper table and figure, plus the ablation reports
//! (see the `repro` module).
//!
//! `worker` and `driver` run the same pipeline as `run`, but with the
//! probing window sharded across worker processes over TCP: the driver
//! prepares the sweep, deals contiguous unit shards to its workers,
//! and merges their checksummed deltas in shard order, so driver
//! output is **byte-identical** to `run` at any ⟨worker, thread⟩
//! combination — `--faults` included: the driver takes the quarantine
//! decision from the workers' merged fault books and deals the rescue
//! units back out as a second round of shards.
//!
//! `serve` keeps the sweep store resident: it chains `--sweeps` warm
//! re-sweeps, appends each sweep's verdict delta to an append-only
//! checksummed event log (`--event-log`), publishes an immutable store
//! generation per sweep, and answers per-AS / per-country / per-prefix
//! activity queries, top-K rankings, ECDFs, and generation
//! introspection over TCP while sweeping. `query --connect` is the
//! matching client (one query per argument line, or a `--trace` file).
//!
//! An unknown subcommand or flag, a flag the subcommand does not read,
//! a stray positional word, a flag missing its value, an unparsable
//! value or a broken subcommand constraint is rejected with one
//! `clientmap <cmd>: …` line, the usage text and exit status 2 before
//! any pipeline runs. The binary states no timings: the repo's one
//! benchmark is `bash benchmark/run.sh` (see `benchmark/README.md`).

use std::io::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use clientmap::core::{Pipeline, PipelineConfig, PipelineError, PipelineOutput, SweepSession};
use clientmap::datasets::export;
use clientmap::faults::{FaultConfig, FaultProfile};
use clientmap::fleet::{run_worker, FleetOptions, FleetSweep, WorkerOptions};
use clientmap::net::Prefix;
use clientmap::serve::{run_trace, serve, ServeOptions, MAX_SWEEPS};
use clientmap::store::{AsBitsets, Slash24Bitset, SweepSnapshot};

mod repro;

/// One typed reason the command line could not be used. Every parse
/// failure funnels through here (and then through [`usage`]) — no
/// subcommand rolls its own `eprintln!`/`exit` pair.
#[derive(Debug)]
enum CliError {
    /// A flag was given without its value (the command line ended, or
    /// another `--flag` followed).
    MissingValue(&'static str, &'static str),
    /// A flag's value did not parse.
    BadValue(&'static str, String, &'static str),
    /// An unknown subcommand or flag, or a subcommand-level constraint
    /// that failed (missing required flag, stray positional word).
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue(flag, hint) => {
                write!(f, "{flag} needs a value, e.g. {flag} {hint}")
            }
            CliError::BadValue(flag, got, hint) => {
                write!(f, "bad {flag} {got:?}, expected e.g. {hint}")
            }
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

/// The flags shared by the pipeline-running subcommands (`run`,
/// `driver`, `serve`, `export`, `query`, `stats`, `repro`): which world,
/// which probing knobs, which outputs. [`FLAG_READERS`] says which
/// subcommand takes which.
struct CommonOpts {
    scale: String,
    seed: u64,
    faults: FaultProfile,
    fault_seed: u64,
    snapshot_in: Option<PathBuf>,
    snapshot_out: Option<PathBuf>,
    expiry_budget: f64,
    duration_hours: Option<f64>,
    metrics: Option<PathBuf>,
    clustered_probing: bool,
    cluster_epsilon: Option<f64>,
    cluster_escalate_below: Option<f64>,
}

impl CommonOpts {
    /// The pipeline configuration these flags describe.
    fn config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::from_scale(&self.scale, self.seed)
            .expect("parse_args admits only the preset scale names");
        config.faults = FaultConfig::profile(self.faults, self.fault_seed);
        config.probe.expiry_budget = self.expiry_budget;
        if let Some(hours) = self.duration_hours {
            config.probe.duration_hours = hours;
        }
        config.probe.clustered_probing = self.clustered_probing;
        if let Some(eps) = self.cluster_epsilon {
            config.probe.cluster_epsilon = eps;
        }
        if let Some(below) = self.cluster_escalate_below {
            config.probe.cluster_escalate_below = below;
        }
        config
    }
}

struct Args {
    common: CommonOpts,
    out: Option<PathBuf>,
    listen: String,
    once: bool,
    fail_after: Option<u32>,
    workers: Vec<String>,
    shards: u32,
    connect_timeout_secs: u64,
    io_timeout_secs: u64,
    fail_sweep: Option<u32>,
    sweeps: u32,
    event_log: Option<PathBuf>,
    compact_every: u32,
    connect: Option<String>,
    trace: Option<String>,
    scalar_probing: bool,
    positional: Vec<String>,
}

/// The subcommands; [`main`] has one arm for each.
const SUBCOMMANDS: [&str; 8] = [
    "run", "export", "query", "stats", "repro", "worker", "driver", "serve",
];

/// Which subcommands read each flag. The parser refuses a flag that the
/// subcommand would otherwise ignore. `query --connect` is a mode of its
/// own: it talks to a running service and builds no world.
const FLAG_READERS: [(&[&str], &[&str]); 12] = [
    (
        &["--scale", "--seed", "--faults", "--fault-seed"],
        &[
            "run", "export", "query", "stats", "repro", "driver", "serve",
        ],
    ),
    (
        &[
            "--duration-hours",
            "--clustered-probing",
            "--cluster-epsilon",
            "--cluster-escalate-below",
        ],
        &["run", "export", "query", "stats", "driver", "serve"],
    ),
    (
        &["--snapshot-in", "--expiry-budget", "--snapshot-out"],
        &["run", "driver", "serve"],
    ),
    (&["--metrics"], &["run", "repro", "driver"]),
    (&["--scalar-probing"], &["repro"]),
    (&["--out"], &["export"]),
    (&["--connect", "--trace"], &["query --connect"]),
    (&["--listen"], &["worker", "serve"]),
    (&["--once", "--fail-after"], &["worker"]),
    (&["--workers", "--shards", "--connect-timeout"], &["driver"]),
    (
        &["--sweeps", "--event-log", "--compact-every", "--fail-sweep"],
        &["serve"],
    ),
    (
        &["--io-timeout"],
        &["query --connect", "worker", "driver", "serve"],
    ),
];

/// The one flag parser every subcommand shares. Words that are not
/// flags land in `positional` (prefix/query words and `repro` sections
/// — see [`check_subcommand_constraints`]); an unknown subcommand or
/// `--flag`, a flag the subcommand does not read ([`FLAG_READERS`]), a
/// missing value and a malformed value are each a typed [`CliError`].
fn parse_args(cmd: &str, argv: &[String]) -> Result<Args, CliError> {
    if !SUBCOMMANDS.contains(&cmd) {
        return Err(CliError::Invalid("unknown subcommand".into()));
    }
    // A flag's value never starts with `--`, so this finds only the flag.
    let mode = if cmd == "query" && argv.iter().any(|a| a == "--connect") {
        "query --connect"
    } else {
        cmd
    };
    let mut args = Args {
        common: CommonOpts {
            scale: "tiny".into(),
            seed: 2021,
            faults: FaultProfile::Off,
            fault_seed: 0,
            snapshot_in: None,
            snapshot_out: None,
            expiry_budget: 0.0,
            duration_hours: None,
            metrics: None,
            clustered_probing: false,
            cluster_epsilon: None,
            cluster_escalate_below: None,
        },
        out: None,
        listen: "127.0.0.1:0".into(),
        once: false,
        fail_after: None,
        workers: Vec::new(),
        shards: 0,
        connect_timeout_secs: 10,
        io_timeout_secs: 600,
        fail_sweep: None,
        sweeps: 3,
        event_log: None,
        compact_every: 0,
        connect: None,
        trace: None,
        scalar_probing: false,
        positional: Vec::new(),
    };

    /// `argv[i + 1]` as the raw value of `flag`, or the typed error
    /// when the command line ends there or another flag follows.
    fn raw<'a>(
        argv: &'a [String],
        i: usize,
        flag: &'static str,
        hint: &'static str,
    ) -> Result<&'a str, CliError> {
        argv.get(i + 1)
            .map(String::as_str)
            .filter(|v| !v.starts_with("--"))
            .ok_or(CliError::MissingValue(flag, hint))
    }

    /// `argv[i + 1]` parsed as `T`, or the typed error.
    fn val<T: FromStr>(
        argv: &[String],
        i: usize,
        flag: &'static str,
        hint: &'static str,
    ) -> Result<T, CliError> {
        let s = raw(argv, i, flag, hint)?;
        s.parse()
            .map_err(|_| CliError::BadValue(flag, s.to_string(), hint))
    }

    let mut i = 0;
    while i < argv.len() {
        let word = argv[i].as_str();
        if word.starts_with("--") {
            match FLAG_READERS.iter().find(|(flags, _)| flags.contains(&word)) {
                None => return Err(CliError::Invalid(format!("unknown flag {word:?}"))),
                Some((_, readers)) if !readers.contains(&mode) => {
                    return Err(CliError::Invalid(format!("{word} is not a {mode} flag")));
                }
                Some(_) => {}
            }
        }
        let mut consumed = 2;
        match word {
            "--scale" => {
                let s = raw(argv, i, "--scale", "tiny")?;
                if PipelineConfig::from_scale(s, 0).is_none() {
                    return Err(CliError::BadValue(
                        "--scale",
                        s.to_string(),
                        "tiny|small|paper",
                    ));
                }
                args.common.scale = s.to_string();
            }
            "--seed" => args.common.seed = val(argv, i, "--seed", "2021")?,
            "--faults" => args.common.faults = val(argv, i, "--faults", "lossy")?,
            "--fault-seed" => args.common.fault_seed = val(argv, i, "--fault-seed", "7")?,
            "--out" => args.out = Some(PathBuf::from(raw(argv, i, "--out", "DIR")?)),
            "--snapshot-in" => {
                args.common.snapshot_in =
                    Some(PathBuf::from(raw(argv, i, "--snapshot-in", "FILE")?))
            }
            "--snapshot-out" => {
                args.common.snapshot_out =
                    Some(PathBuf::from(raw(argv, i, "--snapshot-out", "FILE")?))
            }
            "--expiry-budget" => {
                args.common.expiry_budget = val(argv, i, "--expiry-budget", "0.1")?
            }
            "--duration-hours" => {
                args.common.duration_hours = Some(val(argv, i, "--duration-hours", "8")?)
            }
            "--metrics" => {
                args.common.metrics = Some(PathBuf::from(raw(argv, i, "--metrics", "FILE")?))
            }
            "--clustered-probing" => {
                args.common.clustered_probing = true;
                consumed = 1;
            }
            "--cluster-epsilon" => {
                args.common.cluster_epsilon = Some(val(argv, i, "--cluster-epsilon", "0.25")?)
            }
            "--cluster-escalate-below" => {
                args.common.cluster_escalate_below =
                    Some(val(argv, i, "--cluster-escalate-below", "0.5")?)
            }
            "--listen" => args.listen = raw(argv, i, "--listen", "127.0.0.1:7801")?.to_string(),
            "--once" => {
                args.once = true;
                consumed = 1;
            }
            "--fail-after" => args.fail_after = Some(val(argv, i, "--fail-after", "2")?),
            "--workers" => {
                let hint = "host:port,host:port";
                let s = raw(argv, i, "--workers", hint)?;
                args.workers = s
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
                if args.workers.is_empty() {
                    return Err(CliError::BadValue("--workers", s.to_string(), hint));
                }
            }
            "--shards" => args.shards = val(argv, i, "--shards", "8")?,
            "--connect-timeout" => {
                args.connect_timeout_secs = val(argv, i, "--connect-timeout", "10")?
            }
            "--io-timeout" => {
                args.io_timeout_secs = val::<u64>(argv, i, "--io-timeout", "600")?.max(1)
            }
            "--fail-sweep" => args.fail_sweep = Some(val(argv, i, "--fail-sweep", "2")?),
            "--sweeps" => args.sweeps = val(argv, i, "--sweeps", "3")?,
            "--event-log" => {
                args.event_log = Some(PathBuf::from(raw(argv, i, "--event-log", "FILE")?))
            }
            "--compact-every" => args.compact_every = val(argv, i, "--compact-every", "4")?,
            "--connect" => {
                args.connect = Some(raw(argv, i, "--connect", "127.0.0.1:7900")?.to_string())
            }
            "--trace" => args.trace = Some(raw(argv, i, "--trace", "FILE")?.to_string()),
            "--scalar-probing" => {
                args.scalar_probing = true;
                consumed = 1;
            }
            flag if flag.starts_with("--") => {
                unreachable!("{flag} is in FLAG_READERS but unparsed")
            }
            other => {
                args.positional.push(other.to_string());
                consumed = 1;
            }
        }
        i += consumed;
    }
    check_subcommand_constraints(cmd, &args)?;
    Ok(args)
}

fn load_snapshot(path: &std::path::Path) -> SweepSnapshot {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read snapshot {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    match SweepSnapshot::decode(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("snapshot {} is not usable: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn run_or_exit(config: PipelineConfig, prior: Option<&SweepSnapshot>) -> PipelineOutput {
    match SweepSession::new(config).sweep(prior) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The `run` subcommand's stdout, shared verbatim by `driver` so a
/// fleet run is byte-identical to a single-process run — fleet
/// progress goes to stderr only.
fn print_run_report(out: &PipelineOutput, warm: bool) {
    println!("{}", out.report().headlines());
    if let Some(robustness) = out.report().robustness() {
        println!("{robustness}");
    }
    if let Some(ablation) = out.report().cluster_ablation() {
        println!("{ablation}");
    }
    println!(
        "active space: {} /24s across {} hit scopes; {} resolvers with Chromium activity",
        out.cache_probe.active_set().num_slash24s(),
        out.cache_probe.hit_prefixes().len(),
        out.dns_logs.resolvers.len(),
    );
    if warm {
        let snap = out.metrics_snapshot();
        println!(
            "warm start: {} of {} slots replayed from snapshot, {} probed live \
             ({} new, {} expired, {} rescue, {} quarantine-dirty)",
            snap.counter("cacheprobe.planner.skipped_warm"),
            snap.counter("cacheprobe.planner.universe"),
            snap.counter("cacheprobe.planner.planned"),
            snap.counter("cacheprobe.planner.new"),
            snap.counter("cacheprobe.planner.expired"),
            snap.counter("cacheprobe.planner.rescued"),
            snap.counter("cacheprobe.planner.dirty"),
        );
    }
}

/// The `run`/`driver`/`repro` output files: optional warm-start
/// snapshot and metrics JSON dump.
fn write_run_outputs(out: &PipelineOutput, common: &CommonOpts) {
    if let Some(path) = common.snapshot_out.as_deref() {
        match std::fs::write(path, out.sweep.encode()) {
            Ok(()) => println!(
                "wrote snapshot {} (epoch {})",
                path.display(),
                out.sweep.epoch
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = common.metrics.as_deref() {
        if let Err(e) = std::fs::write(path, out.metrics_snapshot().to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `serve`: the resident sweep service (see `clientmap-serve`).
fn cmd_serve(args: &Args) {
    let prior = args.common.snapshot_in.as_deref().map(load_snapshot);
    let log_path = args
        .event_log
        .clone()
        .unwrap_or_else(|| PathBuf::from("clientmap-events.cmel"));
    let opts = ServeOptions {
        addr: args.listen.clone(),
        config: args.common.config(),
        sweeps: args.sweeps,
        prior,
        log_path: log_path.clone(),
        compact_every: args.compact_every,
        snapshot_out: args.common.snapshot_out.clone(),
        io_timeout: Duration::from_secs(args.io_timeout_secs),
        fail_sweep: args.fail_sweep,
        ready: None,
    };
    match serve(opts) {
        Ok(s) => println!(
            "serve: {} sweeps published (final epoch {}); event log {} holds {} records \
             in {} bytes; {} queries answered{}",
            s.sweeps,
            s.final_epoch,
            log_path.display(),
            s.log_records,
            s.log_len,
            s.queries_answered,
            if s.degraded {
                "; DEGRADED: the sweep chain died mid-run (see the failure record in the log)"
            } else {
                ""
            }
        ),
        Err(e) => {
            eprintln!("serve failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `query --connect`: the remote client against a running serve.
fn cmd_query_remote(args: &Args, addr: &str) {
    let trace = match &args.trace {
        Some(path) => match clientmap::serve::load_trace(path, &mut std::io::stdin().lock()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read trace {path}: {e}");
                std::process::exit(1);
            }
        },
        None => args.positional.join(" "),
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = run_trace(
        addr,
        &trace,
        Duration::from_secs(args.io_timeout_secs),
        &mut stdout,
    ) {
        eprintln!("query failed: {e}");
        std::process::exit(1);
    }
}

/// The synopsis printed after every rejection; [`usage`] appends the
/// `repro` section names.
const USAGE: &str = "\
usage: clientmap run     [WORLD] [PROBING] [--snapshot-in FILE] [--expiry-budget F]
                         [--snapshot-out FILE] [--metrics FILE]
       clientmap export  [WORLD] [PROBING] --out DIR
       clientmap query   PREFIX [WORLD] [PROBING]
       clientmap query   --connect ADDR [--trace FILE | QUERY...] [--io-timeout S]
       clientmap stats   [WORLD] [PROBING]
       clientmap repro   [WORLD] [--scalar-probing] [--metrics FILE] [SECTION...]
       clientmap worker  [--listen ADDR] [--once] [--fail-after N] [--io-timeout S]
       clientmap driver  --workers host:port[,host:port...] [--shards N]
                         [--connect-timeout S] [--io-timeout S] [run flags]
       clientmap serve   [--listen ADDR] [--sweeps N] [--event-log FILE] [--compact-every N]
                         [--fail-sweep N] [--io-timeout S] [run flags except --metrics]
WORLD:   [--scale tiny|small|paper] [--seed N] [--faults off|light|lossy|pop-churn]
         [--fault-seed N]
PROBING: [--duration-hours F] [--clustered-probing] [--cluster-epsilon F]
         [--cluster-escalate-below F]";

fn usage() -> ! {
    eprintln!(
        "{USAGE}\nSECTION: {} (default all)",
        repro::SECTIONS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage();
    };
    let args = match parse_args(cmd, rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("clientmap {cmd}: {e}");
            usage();
        }
    };

    match cmd.as_str() {
        "run" => {
            let prior = args.common.snapshot_in.as_deref().map(load_snapshot);
            let warm = prior.is_some();
            let out = run_or_exit(args.common.config(), prior.as_ref());
            print_run_report(&out, warm);
            write_run_outputs(&out, &args.common);
        }
        "worker" => {
            let opts = WorkerOptions {
                listen: args.listen.clone(),
                once: args.once,
                fail_after: args.fail_after,
                io_timeout: Duration::from_secs(args.io_timeout_secs),
            };
            if let Err(e) = run_worker(&opts) {
                eprintln!("worker failed: {e}");
                std::process::exit(1);
            }
        }
        "driver" => {
            clientmap::fleet::shutdown::install_sigint_handler();
            let prior = args.common.snapshot_in.as_deref().map(load_snapshot);
            let warm = prior.is_some();
            let opts = FleetOptions {
                workers: args.workers.clone(),
                num_shards: args.shards,
                connect_timeout: Duration::from_secs(args.connect_timeout_secs),
                io_timeout: Duration::from_secs(args.io_timeout_secs),
            };
            let mut fleet = FleetSweep::new(opts, args.common.scale.clone());
            let mut timings = Vec::new();
            let out = match Pipeline::run_warm_timed_with(
                args.common.config(),
                prior,
                &mut timings,
                &mut fleet,
            ) {
                Ok(out) => out,
                Err(PipelineError::Interrupted { completed, total }) => {
                    eprintln!(
                        "interrupted: {completed}/{total} shards complete; in-flight shards \
                         drained and workers released; no output written"
                    );
                    std::process::exit(130);
                }
                Err(e) => {
                    eprintln!("pipeline failed: {e}");
                    std::process::exit(1);
                }
            };
            print_run_report(&out, warm);
            write_run_outputs(&out, &args.common);
        }
        "serve" => {
            cmd_serve(&args);
        }
        "repro" => repro::cmd_repro(&args),
        "export" => {
            let dir = args.out.clone().expect("export has --out (checked)");
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
            let out = run_or_exit(args.common.config(), None);
            let rib = &out.sim.world().rib;
            let files = [
                (
                    "cache_probing.csv",
                    export::prefix_view_with_origins_csv(&out.bundle.cache_probing, rib),
                ),
                (
                    "dns_logs.csv",
                    export::prefix_view_csv(&out.bundle.dns_logs),
                ),
                ("apnic.csv", export::apnic_csv(&out.apnic)),
                (
                    "dns_logs_by_as.csv",
                    export::as_view_csv(&out.bundle.dns_logs_as),
                ),
            ];
            for (name, contents) in files {
                let path = dir.join(name);
                match std::fs::File::create(&path)
                    .and_then(|mut f| f.write_all(contents.as_bytes()))
                {
                    Ok(()) => println!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("cannot write {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
            println!(
                "(the Microsoft-derived validation views are deliberately not exportable — \
                 see DESIGN.md)"
            );
        }
        "query" => {
            if let Some(addr) = args.connect.clone() {
                cmd_query_remote(&args, &addr);
                return;
            }
            let prefix_s = &args.positional[0];
            let prefix: Prefix = match prefix_s.parse() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("bad prefix {prefix_s:?}: {e}");
                    std::process::exit(2);
                }
            };
            let out = run_or_exit(args.common.config(), None);
            let active = out.cache_probe.active_set();
            let dns_hit = out.bundle.dns_logs.set.intersects(prefix);
            let verdict = if active.contains_slash24(prefix) || active.intersects(prefix) {
                "ACTIVE: cache probing found client activity here"
            } else if dns_hit {
                "RESOLVER: a recursive resolver with Chromium clients lives here"
            } else {
                "no client signal from either public technique"
            };
            let asn = out
                .sim
                .world()
                .rib
                .origin_of_prefix(prefix)
                .map(|a| a.to_string())
                .unwrap_or_else(|| "unrouted".into());
            println!("{prefix} ({asn}): {verdict}");
        }
        "stats" => {
            let out = run_or_exit(args.common.config(), None);
            let world = out.sim.world();
            println!(
                "world: {} ASes, {} routed /24s, {:.1}M users, {} resolvers, {} blocks",
                world.ases.len(),
                world.routed_slash24s(),
                world.total_users() / 1e6,
                world.resolvers.len(),
                world.blocks.len(),
            );
            let mut by_cat: std::collections::BTreeMap<&str, usize> = Default::default();
            for a in &world.ases {
                *by_cat.entry(a.category.label()).or_insert(0) += 1;
            }
            for (cat, n) in by_cat {
                println!("  {cat:<14} {n}");
            }
            // Per-AS activity: one AND+popcount per AS between its
            // announced space and the technique's active /24 set.
            let active = Slash24Bitset::from_prefixes(&out.cache_probe.active_set().prefixes());
            let mut per_as = AsBitsets::from_rib(&world.rib).active_slash24s(&active);
            per_as.sort_by_key(|(asn, n)| (std::cmp::Reverse(*n), asn.0));
            println!(
                "client activity (cache probing): {} active /24s across {} ASes; top networks:",
                active.count(),
                per_as.len(),
            );
            for (asn, n) in per_as.iter().take(10) {
                println!("  {asn:<10} {n} active /24s");
            }
        }
        _ => unreachable!("parse_args admits only SUBCOMMANDS"),
    }
}

/// The subcommand-level constraints — required flags, and who may
/// take positional words — on one typed path, checked before any work.
fn check_subcommand_constraints(cmd: &str, args: &Args) -> Result<(), CliError> {
    let words = !args.positional.is_empty();
    let problem = match cmd {
        "query" if args.connect.is_none() && !words => {
            Some("query requires a PREFIX argument (or --connect ADDR), e.g. 1.2.3.0/24".into())
        }
        "query" if !words && args.trace.is_none() => {
            Some("query --connect needs a --trace FILE or an inline query, e.g. `top 5`".into())
        }
        "query" => None,
        "export" if args.out.is_none() => Some("export requires --out DIR".into()),
        "driver" if args.workers.is_empty() => {
            Some("driver requires --workers host:port[,host:port...]".into())
        }
        "serve" if args.sweeps == 0 => Some("serve needs --sweeps >= 1".into()),
        "serve" if args.sweeps > MAX_SWEEPS => {
            Some(format!("serve takes at most --sweeps {MAX_SWEEPS}"))
        }
        "repro" => args
            .positional
            .iter()
            .find(|word| !repro::SECTIONS.contains(&word.as_str()))
            .map(|word| format!("unknown section {word:?}")),
        _ => args.positional.first().map(|word| {
            format!("unexpected argument {word:?} (only `query` and `repro` take positional words)")
        }),
    };
    problem.map_or(Ok(()), |msg| Err(CliError::Invalid(msg)))
}
