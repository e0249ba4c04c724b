//! The shared subprocess harness for the end-to-end suites.
//!
//! Every integration test that drives the real `clientmap` binary —
//! the fleet suite, the serve suite, the CLI smoke tests, the
//! `repro --metrics` suite and the cluster-equivalence suite — needs
//! the same few moves: a scratch directory keyed to the test process,
//! spawning workers and reading their announcement lines, running the
//! CLI and capturing its output, and diffing a run's ⟨stdout, metrics,
//! snapshot⟩ triple against a single-process reference byte for byte.
//! Those helpers live here once; each suite declares `mod common;` and
//! takes what it needs.
//!
//! Not every suite uses every helper, so the module is `dead_code`-
//! tolerant — the cost of one shared harness over five private copies.

#![allow(dead_code)]

use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The binary under test, built by cargo for this package.
pub const BIN: &str = env!("CARGO_BIN_EXE_clientmap");

/// A scratch directory unique to this test process and tag.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clientmap-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

pub fn read_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The trailing token of an announcement line (`clientmap worker
/// listening on {addr}`), checked to look like an address.
pub fn announced_addr(line: &str) -> String {
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address on announcement line")
        .to_string();
    assert!(addr.contains(':'), "bad announcement: {line:?}");
    addr
}

/// One spawned `clientmap worker --once` process and its bound address.
pub struct Worker {
    pub child: Child,
    pub addr: String,
}

impl Worker {
    /// Spawns `clientmap worker --once` pinned to `threads`, reading
    /// the bound address off its announcement line.
    pub fn spawn(threads: usize, extra: &[&str]) -> Worker {
        let mut child = Command::new(BIN)
            .args(["worker", "--listen", "127.0.0.1:0", "--once"])
            .args(extra)
            .env("CLIENTMAP_THREADS", threads.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker");
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker announcement");
        let addr = announced_addr(&line);
        Worker { child, addr }
    }

    pub fn wait_success(mut self) {
        let status = self.child.wait().expect("wait worker");
        assert!(status.success(), "worker exited with {status}");
    }
}

/// A finished CLI invocation's captured streams and exit status.
pub struct RunOutput {
    pub stdout: String,
    pub stderr: String,
    pub status: std::process::ExitStatus,
}

pub fn run_cli(args: &[&str], envs: &[(&str, &str)]) -> RunOutput {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("run clientmap");
    RunOutput {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        status: out.status,
    }
}

/// Drops the `wrote snapshot <path>` line (paths differ per run by
/// design); everything else must match byte-for-byte.
pub fn without_snapshot_line(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("wrote snapshot "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A single-process run's comparable triple: stdout, metrics-dump
/// bytes, snapshot bytes.
pub type ReferenceTriple = (String, Vec<u8>, Vec<u8>);

/// Runs the single-process reference (`tiny`, seed 7, 4 threads —
/// `extra` flags appended last, so they may override any of those) and
/// returns its ⟨stdout, metrics bytes, snapshot bytes⟩.
pub fn reference_run(dir: &Path, extra: &[&str]) -> ReferenceTriple {
    let snap = dir.join("ref.snap");
    let metrics = dir.join("ref.metrics");
    let mut args = vec![
        "run",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--snapshot-out",
        snap.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = run_cli(&args, &[("CLIENTMAP_THREADS", "4")]);
    assert!(out.status.success(), "reference run failed: {}", out.stderr);
    (out.stdout, read_bytes(&metrics), read_bytes(&snap))
}

/// Runs a driver over `workers` (same base flags as [`reference_run`])
/// and asserts stdout/metrics/snapshot are byte-identical to the
/// reference triple. Returns driver stderr.
pub fn assert_fleet_matches(
    dir: &Path,
    tag: &str,
    workers: &[&Worker],
    extra: &[&str],
    reference: &ReferenceTriple,
) -> String {
    let snap = dir.join(format!("{tag}.snap"));
    let metrics = dir.join(format!("{tag}.metrics"));
    let addrs = workers
        .iter()
        .map(|w| w.addr.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let mut args = vec![
        "driver",
        "--scale",
        "tiny",
        "--seed",
        "7",
        "--workers",
        &addrs,
        "--snapshot-out",
        snap.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = run_cli(&args, &[]);
    assert!(
        out.status.success(),
        "driver ({tag}) failed: {}",
        out.stderr
    );
    assert_eq!(
        without_snapshot_line(&out.stdout),
        without_snapshot_line(&reference.0),
        "stdout diverged ({tag})"
    );
    assert_eq!(
        read_bytes(&metrics),
        reference.1,
        "metrics snapshot diverged ({tag})"
    );
    assert_eq!(
        read_bytes(&snap),
        reference.2,
        "sweep snapshot diverged ({tag})"
    );
    out.stderr
}
