//! Integration tests for the `repro` command line: `--metrics` writes
//! a JSON telemetry snapshot, the snapshot satisfies the cross-counter
//! invariants, two same-seed runs produce byte-identical files, the
//! progress lines state no timing, and bad input is rejected before
//! the pipeline runs.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn run_with_metrics(path: &std::path::Path) -> String {
    let out = repro()
        .args([
            "--scale",
            "tiny",
            "--seed",
            "2021",
            "--metrics",
            path.to_str().unwrap(),
            "headline",
        ])
        .output()
        .expect("repro runs");
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

/// Bad input is rejected up front: one `repro: …` line on stderr,
/// exit status 2, nothing on stdout — the pipeline never runs.
#[test]
fn bad_input_is_rejected_before_the_pipeline_runs() {
    let cases: [(&[&str], &str); 8] = [
        (&["--seed", "x", "headline"], "bad --seed \"x\""),
        (&["--scale", "bogus", "headline"], "bad --scale \"bogus\""),
        (&["--fault-seed", "x", "headline"], "bad --fault-seed \"x\""),
        (&["--faults", "nope", "headline"], "bad --faults \"nope\""),
        (&["headline", "--metrics"], "--metrics needs a value"),
        (
            &["--metrics", "--scalar-probing"],
            "--metrics needs a value",
        ),
        (&["bench"], "unknown section or flag \"bench\""),
        (&["headlines"], "unknown section or flag \"headlines\""),
    ];
    for (args, expect) in cases {
        let out = repro().args(args).output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("repro: ") && stderr.contains(expect),
            "{args:?}: {stderr}"
        );
    }
}
