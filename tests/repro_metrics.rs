//! Integration tests for `clientmap repro --metrics`: it writes a JSON
//! telemetry snapshot, the snapshot satisfies the cross-counter
//! invariants, two same-seed runs produce byte-identical files, and the
//! progress lines state no timing. Bad input is one of the rows of
//! `tests/cli.rs`.

use std::process::Command;

mod common;

fn run_with_metrics(path: &std::path::Path) -> String {
    let out = Command::new(common::BIN)
        .args([
            "repro",
            "--scale",
            "tiny",
            "--seed",
            "2021",
            "--metrics",
            path.to_str().unwrap(),
            "headline",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    // `repro` states no timings (the one benchmark is `benchmark/`):
    // its progress lines carry no duration.
    assert!(
        stderr.contains("repro: pipeline done\n") && !stderr.contains("done in"),
        "stderr: {stderr}"
    );
    std::fs::read_to_string(path).expect("metrics file written")
}

#[test]
fn metrics_flag_writes_valid_invariant_satisfying_json() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("clientmap_metrics_{}.json", std::process::id()));
    let json = run_with_metrics(&path);
    std::fs::remove_file(&path).ok();

    assert!(json.starts_with("{"), "not a JSON object: {json:.40}");
    assert!(json.contains("\"counters\""), "missing counters section");
    assert!(
        json.contains("\"histograms\""),
        "missing histograms section"
    );

    // Pull a few counters back out of the JSON (integers, so a plain
    // scan suffices — no JSON parser in the offline toolchain).
    let counter = |name: &str| -> u64 {
        let key = format!("\"{name}\": ");
        let at = json.find(&key).unwrap_or_else(|| panic!("missing {name}"));
        json[at + key.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let attempts = counter("cacheprobe.attempts");
    assert!(attempts > 0);
    // ProbeConfig::test_scale uses redundancy 3; the invariant holds
    // whatever the value, so derive it from the snapshot itself.
    let probes = counter("cacheprobe.probes_sent");
    assert_eq!(probes % attempts, 0, "probes {probes} attempts {attempts}");
    assert_eq!(
        counter("cacheprobe.outcome.hit")
            + counter("cacheprobe.outcome.scope0")
            + counter("cacheprobe.outcome.miss")
            + counter("cacheprobe.outcome.dropped"),
        attempts
    );
    assert_eq!(counter("pipeline.runs"), 1);
    assert!(counter("gpdns.queries.tcp") > 0, "probing goes over TCP");
}

#[test]
fn metrics_snapshots_byte_identical_across_same_seed_runs() {
    let dir = std::env::temp_dir();
    let pa = dir.join(format!("clientmap_metrics_a_{}.json", std::process::id()));
    let pb = dir.join(format!("clientmap_metrics_b_{}.json", std::process::id()));
    let a = run_with_metrics(&pa);
    let b = run_with_metrics(&pb);
    std::fs::remove_file(&pa).ok();
    std::fs::remove_file(&pb).ok();
    assert_eq!(a, b, "same-seed telemetry snapshots diverged");
}
