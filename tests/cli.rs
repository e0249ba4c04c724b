//! Integration tests for the `clientmap` CLI binary.
//!
//! These run the real binary (built by cargo for this package) end to
//! end: world stats, a prefix query against the activity map, and a
//! CSV export — the flows a downstream user actually touches.

use std::process::Command;

mod common;

fn clientmap() -> Command {
    Command::new(common::BIN)
}

#[test]
fn stats_prints_world_summary() {
    let out = clientmap()
        .args(["stats", "--scale", "tiny", "--seed", "5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("world:"), "{stdout}");
    assert!(stdout.contains("ASes"), "{stdout}");
    assert!(stdout.contains("ISP"), "{stdout}");
    // Deterministic: same seed, same summary.
    let again = clientmap()
        .args(["stats", "--scale", "tiny", "--seed", "5"])
        .output()
        .unwrap();
    assert_eq!(out.stdout, again.stdout);
}

#[test]
fn query_answers_for_routed_and_unrouted_prefixes() {
    // 1.0.0.0/16 is the first allocation (Google's block) — always routed.
    let out = clientmap()
        .args(["query", "1.0.64.0/24", "--scale", "tiny", "--seed", "5"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1.0.64.0/24"), "{stdout}");
    assert!(
        stdout.contains("AS"),
        "routed prefix must resolve an origin: {stdout}"
    );

    // 223.255.255.0/24 sits at the top of public space — unallocated at
    // tiny scale.
    let out = clientmap()
        .args([
            "query",
            "223.255.255.0/24",
            "--scale",
            "tiny",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unrouted"), "{stdout}");
}

#[test]
fn query_rejects_garbage_prefix() {
    let out = clientmap()
        .args(["query", "not-a-prefix", "--scale", "tiny"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "garbage prefix must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad prefix"), "{stderr}");
}

#[test]
fn export_writes_shareable_csvs() {
    let dir = common::scratch("cli-export");
    let _ = std::fs::remove_dir_all(&dir);
    let out = clientmap()
        .args([
            "export",
            "--scale",
            "tiny",
            "--seed",
            "5",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in [
        "cache_probing.csv",
        "dns_logs.csv",
        "apnic.csv",
        "dns_logs_by_as.csv",
    ] {
        let path = dir.join(name);
        let contents = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing {}: {e}", path.display()));
        let mut lines = contents.lines();
        let header = lines.next().expect("non-empty CSV");
        assert!(header.contains(','), "{name} header: {header}");
        assert!(lines.next().is_some(), "{name} has no data rows");
    }
    // The deliberately-unshareable Microsoft views must not be written.
    assert!(!dir.join("ms_clients.csv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_args_prints_usage() {
    let out = clientmap().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// Bad input is rejected up front: exit status 2, exactly one
/// `clientmap <cmd>: …` line naming the problem, then the usage text;
/// stdout stays empty — no pipeline runs, so a typo can neither cost a
/// run nor silently measure a different world. The two retired bench
/// subcommands get the same treatment as any unknown one, and a flag
/// the subcommand would ignore is refused rather than dropped.
#[test]
fn bad_invocations_are_rejected_before_any_pipeline_runs() {
    let cases: [(&[&str], &str); 28] = [
        (&["stats", "--scale", "papr"], "bad --scale \"papr\""),
        (&["run", "--sed", "7"], "unknown flag \"--sed\""),
        (
            &["run", "--clustered-probin"],
            "unknown flag \"--clustered-probin\"",
        ),
        (&["run", "stray-word"], "unexpected argument \"stray-word\""),
        (&["run", "--metrics", "--seed"], "--metrics needs a value"),
        (&["export", "--scale", "tiny"], "export requires --out DIR"),
        (&["driver", "--seed", "7"], "driver requires --workers"),
        (&["serve", "--sweeps", "0"], "serve needs --sweeps >= 1"),
        // One above the cap: a generation slot is allocated per sweep
        // before the first one runs.
        (
            &["serve", "--sweeps", "65537"],
            "serve takes at most --sweeps 65536",
        ),
        (&["fleet-bench"], "unknown subcommand"),
        (
            &["serve-bench", "--sweeps", "2", "--json", "out.json"],
            "unknown subcommand",
        ),
        (
            &["query", "--connect", "127.0.0.1:1"],
            "needs a --trace FILE",
        ),
        // Flags the subcommand never reads.
        (
            &["stats", "--metrics", "m.json"],
            "--metrics is not a stats flag",
        ),
        (
            &["export", "--out", "d", "--snapshot-out", "s"],
            "--snapshot-out is not a export flag",
        ),
        (
            &["serve", "--metrics", "m.json"],
            "--metrics is not a serve flag",
        ),
        (&["run", "--listen", "x"], "--listen is not a run flag"),
        (
            &["run", "--scalar-probing"],
            "--scalar-probing is not a run flag",
        ),
        (
            &["repro", "--snapshot-in", "f"],
            "--snapshot-in is not a repro flag",
        ),
        (&["worker", "--seed", "7"], "--seed is not a worker flag"),
        (
            &[
                "query",
                "--connect",
                "127.0.0.1:1",
                "--scale",
                "tiny",
                "top 5",
            ],
            "--scale is not a query --connect flag",
        ),
        // `repro`'s sections are positional words checked like flags.
        (&["repro", "--seed", "x", "headline"], "bad --seed \"x\""),
        (
            &["repro", "--scale", "bogus", "headline"],
            "bad --scale \"bogus\"",
        ),
        (
            &["repro", "--fault-seed", "x", "headline"],
            "bad --fault-seed \"x\"",
        ),
        (
            &["repro", "--faults", "nope", "headline"],
            "bad --faults \"nope\"",
        ),
        (
            &["repro", "headline", "--metrics"],
            "--metrics needs a value",
        ),
        (
            &["repro", "--metrics", "--scalar-probing"],
            "--metrics needs a value",
        ),
        (&["repro", "bench"], "unknown section \"bench\""),
        (&["repro", "headlines"], "unknown section \"headlines\""),
    ];
    for (args, expect) in cases {
        let out = clientmap().args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("clientmap {}: ", args[0])) && first.contains(expect),
            "{args:?}: {stderr}"
        );
        assert!(
            lines.next().is_some_and(|l| l.starts_with("usage: ")),
            "{args:?}: the usage text must follow the rejection line: {stderr}"
        );
        assert!(
            lines.all(|l| !l.starts_with("clientmap ")),
            "{args:?}: more than one rejection line: {stderr}"
        );
    }
}
