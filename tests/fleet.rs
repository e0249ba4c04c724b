//! End-to-end fleet tests over real processes: the driver/worker
//! binaries talk over loopback TCP exactly as deployed, and every
//! fleet run's stdout, metrics dump, and snapshot file must be
//! byte-identical to the single-process `clientmap run` — at any
//! ⟨worker, thread⟩ combination, across a warm start, and through a
//! worker crash mid-sweep. Failure paths (no workers reachable,
//! SIGINT) must exit with their documented codes and leave no output.

use std::process::{Command, Stdio};
use std::time::Duration;

mod common;
use common::{
    assert_fleet_matches, read_bytes, reference_run, run_cli, scratch, without_snapshot_line,
    Worker, BIN,
};

#[test]
fn fleet_reports_are_byte_identical_across_worker_thread_combos() {
    let dir = scratch("combos");
    let reference = reference_run(&dir, &[]);

    for (num_workers, threads) in [(1usize, 4usize), (2, 2), (3, 1)] {
        let workers: Vec<Worker> = (0..num_workers)
            .map(|_| Worker::spawn(threads, &[]))
            .collect();
        let refs: Vec<&Worker> = workers.iter().collect();
        let tag = format!("w{num_workers}t{threads}");
        assert_fleet_matches(&dir, &tag, &refs, &[], &reference);
        for w in workers {
            w.wait_success();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_start_fleet_matches_single_process_warm_run() {
    let dir = scratch("warm");
    let cold = reference_run(&dir, &[]);
    let cold_snap = dir.join("cold.snap");
    std::fs::write(&cold_snap, &cold.2).expect("stash cold snapshot");

    let warm_flags = [
        "--snapshot-in",
        cold_snap.to_str().unwrap(),
        "--expiry-budget",
        "0.25",
    ];
    let reference = reference_run(&dir, &warm_flags);
    assert!(
        reference.0.contains("warm start:"),
        "reference warm run did not report a warm start"
    );

    let workers: Vec<Worker> = (0..2).map(|_| Worker::spawn(2, &[])).collect();
    let refs: Vec<&Worker> = workers.iter().collect();
    assert_fleet_matches(&dir, "warm2", &refs, &warm_flags, &reference);
    for w in workers {
        w.wait_success();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn driver_requeues_shards_from_a_crashed_worker() {
    let dir = scratch("chaos");
    let reference = reference_run(&dir, &[]);

    // One healthy worker plus one that serves a single shard and then
    // dies mid-protocol; the driver must re-queue the crashed worker's
    // in-flight shard onto the survivor. With eight shards the crashing
    // worker reaches its second request unless the survivor pulls seven
    // of them first.
    let good = Worker::spawn(2, &[]);
    let mut bad = Worker::spawn(2, &["--fail-after", "1"]);
    let addrs = format!("{},{}", good.addr, bad.addr);
    let snap = dir.join("chaos.snap");
    let metrics = dir.join("chaos.metrics");
    let out = run_cli(
        &[
            "driver",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--workers",
            &addrs,
            "--shards",
            "8",
            "--snapshot-out",
            snap.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "driver failed despite a surviving worker: {}",
        out.stderr
    );
    assert!(
        out.stderr.contains("re-queued shard"),
        "driver never re-queued the crashed worker's shard:\n{}",
        out.stderr
    );
    assert_eq!(
        without_snapshot_line(&out.stdout),
        without_snapshot_line(&reference.0),
        "stdout diverged after worker crash"
    );
    assert_eq!(read_bytes(&metrics), reference.1, "metrics diverged");
    assert_eq!(read_bytes(&snap), reference.2, "snapshot diverged");

    good.wait_success();
    let crash = bad.child.wait().expect("reap crashed worker");
    assert_eq!(crash.code(), Some(17), "crash exit code is deterministic");
    std::fs::remove_dir_all(&dir).ok();
}

/// The tentpole acceptance check: a *faulted* sweep distributed over
/// a fleet is byte-identical to the same faulted sweep in one process
/// — per-PoP fault books merge in shard order, the driver computes
/// the same quarantine set, and the rescue phase replays identically.
#[test]
fn lossy_fleet_matches_single_process_lossy_run() {
    let dir = scratch("lossy");
    let fault_flags = ["--faults", "lossy", "--fault-seed", "7"];
    let reference = reference_run(&dir, &fault_flags);
    assert!(
        reference.0.contains("Robustness"),
        "lossy reference run reported no fault accounting:\n{}",
        reference.0
    );

    for (num_workers, threads) in [(2usize, 2usize), (3, 1)] {
        let workers: Vec<Worker> = (0..num_workers)
            .map(|_| Worker::spawn(threads, &[]))
            .collect();
        let refs: Vec<&Worker> = workers.iter().collect();
        let tag = format!("lossy-w{num_workers}t{threads}");
        assert_fleet_matches(&dir, &tag, &refs, &fault_flags, &reference);
        for w in workers {
            w.wait_success();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The chaos-fleet combo: deterministic fault injection in the
/// technique *and* a worker crashing mid-protocol in the same run.
/// The surviving worker absorbs the re-queued shard and the output is
/// still byte-identical to the single-process lossy reference. Eight
/// shards, as in `driver_requeues_shards_from_a_crashed_worker`.
#[test]
fn lossy_fleet_survives_a_worker_crash_mid_sweep() {
    let dir = scratch("lossy-chaos");
    let fault_flags = ["--faults", "lossy", "--fault-seed", "7"];
    let reference = reference_run(&dir, &fault_flags);

    let good = Worker::spawn(2, &[]);
    let mut bad = Worker::spawn(2, &["--fail-after", "1"]);
    let addrs = format!("{},{}", good.addr, bad.addr);
    let snap = dir.join("lossy-chaos.snap");
    let metrics = dir.join("lossy-chaos.metrics");
    let out = run_cli(
        &[
            "driver",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--faults",
            "lossy",
            "--fault-seed",
            "7",
            "--workers",
            &addrs,
            "--shards",
            "8",
            "--snapshot-out",
            snap.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "lossy driver failed despite a surviving worker: {}",
        out.stderr
    );
    assert!(
        out.stderr.contains("re-queued shard"),
        "driver never re-queued the crashed worker's shard:\n{}",
        out.stderr
    );
    assert_eq!(
        without_snapshot_line(&out.stdout),
        without_snapshot_line(&reference.0),
        "stdout diverged in the lossy crash run"
    );
    assert_eq!(read_bytes(&metrics), reference.1, "metrics diverged");
    assert_eq!(read_bytes(&snap), reference.2, "snapshot diverged");

    good.wait_success();
    let crash = bad.child.wait().expect("reap crashed worker");
    assert_eq!(crash.code(), Some(17), "crash exit code is deterministic");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn driver_fails_cleanly_when_no_worker_is_reachable() {
    let out = run_cli(
        &[
            "driver",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--workers",
            "127.0.0.1:1",
            "--connect-timeout",
            "1",
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", out.stderr);
    assert!(out.stdout.is_empty(), "failed driver must write no report");
    assert!(
        out.stderr.contains("cannot connect") || out.stderr.contains("fleet"),
        "unhelpful failure message:\n{}",
        out.stderr
    );
}

#[cfg(unix)]
#[test]
fn sigint_drains_in_flight_shards_and_exits_130() {
    let dir = scratch("sigint");
    let worker = Worker::spawn(1, &[]);
    let snap = dir.join("sigint.snap");
    // Small scale keeps the sweep comfortably longer than the signal
    // delay on any machine; many shards keep each one short, so the
    // drain itself stays quick.
    let driver = Command::new(BIN)
        .args([
            "driver",
            "--scale",
            "small",
            "--seed",
            "2021",
            "--workers",
            &worker.addr,
            "--shards",
            "32",
            "--snapshot-out",
            snap.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn driver");
    std::thread::sleep(Duration::from_millis(250));
    let interrupted = Command::new("kill")
        .args(["-INT", &driver.id().to_string()])
        .status()
        .expect("send SIGINT")
        .success();
    assert!(interrupted, "kill -INT failed");

    let out = driver.wait_with_output().expect("wait driver");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(130), "stderr: {stderr}");
    assert!(
        stderr.contains("interrupted:"),
        "driver did not report the drain:\n{stderr}"
    );
    assert!(
        !snap.exists(),
        "interrupted driver must not write a snapshot"
    );
    // The drain must release the worker: `--once` exits cleanly after
    // its connection closes instead of wedging on a half-read frame.
    worker.wait_success();
    std::fs::remove_dir_all(&dir).ok();
}

/// `--seed 7 --faults pop-churn --fault-seed 3` quarantines two PoPs
/// and rescues 79 scopes on the tiny world (`lossy --fault-seed 7`
/// quarantines none), so these are the flags under which
/// `RescueRequest`/`RescueResult` actually cross a socket.
const RESCUE_FLAGS: [&str; 4] = ["--faults", "pop-churn", "--fault-seed", "3"];

/// The value column of the report's rescue line.
fn rescued_scopes(stdout: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("scopes rescued at fallback PoPs"))
        .expect("report has a rescue line")
        .trim()
        .parse()
        .expect("rescue count")
}

/// The rescue shards the driver reported done, and the phase total the
/// last of those lines states (`… rescue shard 1 done on ADDR (2/2)`).
fn rescue_shards_done(stderr: &str) -> (usize, usize) {
    let done: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("rescue shard") && l.contains(" done on "))
        .collect();
    let total = done.last().map_or(0, |l| {
        let (_, tail) = l.rsplit_once('/').expect("(done/total) suffix");
        tail.trim_end_matches(')').parse().expect("phase total")
    });
    (done.len(), total)
}

/// The rescue exchange over real TCP: a pop-churn sweep whose
/// quarantine forces a rescue phase, through 2- and 3-worker fleets,
/// is byte-identical to the single-process run, and the driver saw
/// every rescue shard come back.
#[test]
fn pop_churn_fleet_dispatches_rescue_shards_and_matches_single_process() {
    let dir = scratch("rescue");
    let reference = reference_run(&dir, &RESCUE_FLAGS);
    assert!(
        rescued_scopes(&reference.0) > 0,
        "reference run rescued nothing — the rescue phase would not run:\n{}",
        reference.0
    );

    for (num_workers, threads) in [(2usize, 2usize), (3, 1)] {
        let workers: Vec<Worker> = (0..num_workers)
            .map(|_| Worker::spawn(threads, &[]))
            .collect();
        let refs: Vec<&Worker> = workers.iter().collect();
        let tag = format!("rescue-w{num_workers}t{threads}");
        let stderr = assert_fleet_matches(&dir, &tag, &refs, &RESCUE_FLAGS, &reference);
        let (done, total) = rescue_shards_done(&stderr);
        assert!(
            total > 0,
            "no rescue shard was dispatched ({tag}):\n{stderr}"
        );
        assert_eq!(done, total, "rescue shards left undone ({tag}):\n{stderr}");
        for w in workers {
            w.wait_success();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same rescue fleet with one worker on `--fail-after 2`: wherever
/// the crash lands — a main shard, a rescue shard, or not at all — the
/// driver exits 0 with the single-process bytes.
#[test]
fn pop_churn_fleet_survives_a_worker_crash_in_either_phase() {
    let dir = scratch("rescue-chaos");
    let reference = reference_run(&dir, &RESCUE_FLAGS);

    let good = Worker::spawn(2, &[]);
    let mut bad = Worker::spawn(2, &["--fail-after", "2"]);
    let stderr = assert_fleet_matches(
        &dir,
        "rescue-chaos",
        &[&good, &bad],
        &RESCUE_FLAGS,
        &reference,
    );
    let (done, total) = rescue_shards_done(&stderr);
    assert!(total > 0, "no rescue shard was dispatched:\n{stderr}");
    assert_eq!(done, total, "rescue shards left undone:\n{stderr}");

    good.wait_success();
    let crash = bad.child.wait().expect("reap the chaos worker");
    assert!(
        crash.success() || crash.code() == Some(17),
        "the chaos worker either finished or died by injection, got {crash}"
    );
    if crash.code() == Some(17) {
        assert!(
            stderr.contains("re-queued"),
            "a crashed worker's in-flight shard must be re-queued:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
