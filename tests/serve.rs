//! End-to-end serve tests over real processes: `clientmap serve` runs
//! as deployed, `clientmap query --connect` replays a trace against
//! it over loopback TCP, and determinism is checked at the byte level
//! — two identically-seeded service runs fed the same query trace
//! must produce byte-identical rendered responses, byte-identical
//! event logs, and byte-identical final snapshots. A second test
//! drives in-process clients *while* the service is still sweeping,
//! proving queries are answered concurrently with generation
//! publication, and a third checks log compaction leaves a replayable
//! base + tail on disk. A golden transcript pins the reply to every
//! query kind byte for byte, and a hostile-query test sends the
//! requests that ask for the most work.

use std::io::{BufRead as _, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use clientmap::serve::{Query, QueryClient, Reply};

mod common;
use common::{announced_addr, read_bytes, run_cli, scratch, BIN};

/// Frame deadline generous enough for CI, far below a hung test.
const IO: Duration = Duration::from_secs(60);

struct Serve {
    child: Child,
    stdout: std::io::BufReader<ChildStdout>,
    addr: String,
}

impl Serve {
    /// Spawns `clientmap serve` in `cwd` and reads the bound address
    /// off its announcement line (`clientmap serve listening on
    /// {addr}`). Running from `cwd` lets tests use *relative* log
    /// paths, keeping the summary line (which names the log path)
    /// byte-comparable across runs in different directories.
    fn spawn(cwd: &Path, extra: &[&str]) -> Serve {
        let mut child = Command::new(BIN)
            .args([
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--scale",
                "tiny",
                "--seed",
                "7",
            ])
            .args(extra)
            .current_dir(cwd)
            .env("CLIENTMAP_THREADS", "2")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("serve stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("serve announcement");
        let addr = announced_addr(&line);
        Serve {
            child,
            stdout,
            addr,
        }
    }

    /// Waits for the service to exit cleanly and returns the rest of
    /// its stdout (the summary line; the port announcement was already
    /// consumed, so this part is run-independent).
    fn wait_success(mut self) -> String {
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("serve stdout");
        let status = self.child.wait().expect("wait serve");
        assert!(status.success(), "serve exited with {status}");
        rest
    }
}

/// The query trace both determinism runs replay: waits for the final
/// generation so every answer is taken from the same immutable index,
/// exercises every query kind (including deterministic error replies
/// for unknown names), then stops the service.
const TRACE: &str = "\
# determinism trace — replayed against two identically-seeded serves
gen 3
info
top 5
ecdf 8
country ZZ
as 4242424242
prefix 10.0.0.0/8
stop
";

/// One full service lifetime: serve, replay [`TRACE`], shut down.
/// Returns (query stdout, serve summary, event log bytes, snapshot
/// bytes).
fn serve_and_trace(dir: &Path, tag: &str) -> (String, String, Vec<u8>, Vec<u8>) {
    // Each run gets its own directory but identical *relative* file
    // names, so every byte the service emits is run-independent.
    let run_dir = dir.join(tag);
    std::fs::create_dir_all(&run_dir).expect("create run dir");
    let log = run_dir.join("run.cmel");
    let snap = run_dir.join("run.snap");
    let trace = run_dir.join("run.trace");
    std::fs::write(&trace, TRACE).expect("write trace");
    let serve = Serve::spawn(
        &run_dir,
        &[
            "--sweeps",
            "3",
            "--event-log",
            "run.cmel",
            "--snapshot-out",
            "run.snap",
        ],
    );
    let out = Command::new(BIN)
        .args([
            "query",
            "--connect",
            &serve.addr,
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run query client");
    assert!(
        out.status.success(),
        "query client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = serve.wait_success();
    (
        String::from_utf8(out.stdout).expect("utf8 replies"),
        summary,
        read_bytes(&log),
        read_bytes(&snap),
    )
}

/// The tentpole acceptance check: same seed + same query trace ⇒
/// byte-identical responses, byte-identical event log, byte-identical
/// final generation snapshot — across two fully separate service
/// lifetimes.
#[test]
fn identically_seeded_serve_runs_are_byte_identical() {
    let dir = scratch("determinism");
    let (replies_a, summary_a, log_a, snap_a) = serve_and_trace(&dir, "a");
    let (replies_b, summary_b, log_b, snap_b) = serve_and_trace(&dir, "b");

    assert!(
        replies_a.contains("info gen=3"),
        "trace waited for generation 3 but got:\n{replies_a}"
    );
    assert!(
        replies_a.ends_with("bye\n"),
        "trace should end in bye:\n{replies_a}"
    );
    assert_eq!(replies_a, replies_b, "rendered responses diverged");
    assert_eq!(summary_a, summary_b, "serve summaries diverged");
    assert_eq!(log_a, log_b, "event logs diverged");
    assert_eq!(snap_a, snap_b, "final snapshots diverged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every query kind, replayed by the deployed client against a live
/// service, renders exactly the transcript recorded from the engine
/// that answered by scanning (`tests/golden/`): prefixes at /0 … /32
/// over routed, straddling, unrouted and last-/24 space, rankings,
/// ECDFs, known and unknown names. The query index may change how an
/// answer is found, never a byte of it.
#[test]
fn live_transcript_matches_the_golden_replies() {
    const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let golden = std::fs::read_to_string(format!("{GOLDEN_DIR}/serve_replies_tiny_2021.txt"))
        .expect("golden transcript present");
    let dir = scratch("golden");
    let serve = Serve::spawn(
        &dir,
        &[
            "--seed",
            "2021",
            "--sweeps",
            "2",
            "--event-log",
            "golden.cmel",
        ],
    );
    let out = Command::new(BIN)
        .args([
            "query",
            "--connect",
            &serve.addr,
            "--trace",
            &format!("{GOLDEN_DIR}/serve_trace_tiny_2021.txt"),
        ])
        .output()
        .expect("run query client");
    assert!(
        out.status.success(),
        "query client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    serve.wait_success();
    let replies = String::from_utf8(out.stdout).expect("utf8 replies");
    for (n, (got, want)) in replies.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "reply {} drifted from the golden", n + 1);
    }
    assert_eq!(
        replies, golden,
        "transcript drifted from tests/golden/serve_replies_tiny_2021.txt"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The queries that ask for the most work — the whole address space,
/// a 4-billion-point ECDF, an unbounded ranking — each get their typed
/// reply inside the client's frame deadline, and the service answers
/// `info` afterwards on the same connection and on a fresh one: no
/// single request can kill it or pin a connection thread.
#[test]
fn work_amplifying_queries_get_typed_replies_and_the_service_lives() {
    let dir = scratch("hostile");
    let log = dir.join("hostile.cmel");
    let serve = Serve::spawn(
        &dir,
        &["--sweeps", "1", "--event-log", log.to_str().unwrap()],
    );
    // The deadline a `clientmap query --io-timeout 10` client runs with.
    let io = Duration::from_secs(10);
    let mut c = QueryClient::connect(&serve.addr, io).expect("connect");
    let Reply::Info(info) = c.request(&Query::WaitGen(1)).expect("wait gen 1") else {
        panic!("WaitGen must answer with that generation's info");
    };

    match c
        .request(&Query::Prefix("0.0.0.0/0".parse().unwrap()))
        .expect("prefix /0")
    {
        Reply::Prefix(p) => {
            assert_eq!(p.verdicts.iter().sum::<u64>(), 1 << 24);
            assert_eq!(
                p.verdicts[1..].iter().sum::<u64>(),
                info.measured_slash24s,
                "the whole space holds every measured /24"
            );
            assert!(!p.origins.is_empty());
        }
        other => panic!("prefix /0 must answer, got {other:?}"),
    }
    match c.request(&Query::Ecdf(u32::MAX)).expect("ecdf u32::MAX") {
        Reply::Err(e) => assert!(e.contains("exceeds the limit"), "unexpected error: {e}"),
        other => panic!("an over-limit ecdf must be refused, got {other:?}"),
    }
    match c.request(&Query::TopK(u32::MAX)).expect("top u32::MAX") {
        Reply::TopK(rows) => assert_eq!(rows.len() as u32, info.active_ases),
        other => panic!("top u32::MAX must return the whole ranking, got {other:?}"),
    }

    // Still alive, on this connection and on a second one.
    assert!(matches!(c.request(&Query::Info), Ok(Reply::Info(_))));
    let mut second = QueryClient::connect(&serve.addr, io).expect("second connection");
    assert!(matches!(second.request(&Query::Info), Ok(Reply::Info(_))));

    assert!(matches!(c.request(&Query::Stop), Ok(Reply::Bye)));
    serve.wait_success();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Queries are answered *while* sweeps run: clients connect before
/// generation 2 exists, block on it, and read consistent per-
/// generation answers as the sweep thread publishes behind them.
#[test]
fn queries_are_answered_concurrently_with_sweeps() {
    let dir = scratch("concurrent");
    let log = dir.join("live.cmel");
    let serve = Serve::spawn(
        &dir,
        &["--sweeps", "3", "--event-log", log.to_str().unwrap()],
    );

    // Two clients race the sweep thread from different generations.
    let addr = serve.addr.clone();
    let early = std::thread::spawn(move || {
        let mut c = QueryClient::connect(&addr, IO).expect("connect early");
        // Block until the first generation exists, then query it.
        let Reply::Info(gen1) = c.request(&Query::WaitGen(1)).expect("wait gen 1") else {
            panic!("WaitGen must answer with that generation's info");
        };
        assert_eq!(gen1.generation, 1);
        assert!(matches!(c.request(&Query::TopK(3)), Ok(Reply::TopK(_))));
        gen1.log_offset
    });
    let mut c = QueryClient::connect(&serve.addr, IO).expect("connect");
    let Reply::Info(last) = c.request(&Query::WaitGen(3)).expect("wait gen 3") else {
        panic!("WaitGen must answer with that generation's info");
    };
    assert_eq!(last.generation, 3);
    let offset_gen1 = early.join().expect("early client");
    // Each sweep appended: the log had grown strictly between the
    // generation-1 and generation-3 publishes.
    assert!(
        last.log_offset > offset_gen1,
        "event log did not grow across generations ({} -> {})",
        offset_gen1,
        last.log_offset
    );
    // A generation that can never exist is a typed error, not a hang.
    match c.request(&Query::WaitGen(99)).expect("wait gen 99") {
        Reply::Err(e) => assert!(e.contains("never be published"), "unexpected error: {e}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    assert!(matches!(c.request(&Query::Stop), Ok(Reply::Bye)));
    serve.wait_success();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--compact-every` folds the event log into a `<log>.base` snapshot
/// and rewinds the tail; the base plus remaining records must still
/// replay to the final table (checked here via the base file existing
/// and the tail staying short).
#[test]
fn compaction_leaves_a_base_and_a_short_tail() {
    let dir = scratch("compact");
    let log = dir.join("compacted.cmel");
    let serve = Serve::spawn(
        &dir,
        &[
            "--sweeps",
            "4",
            "--event-log",
            log.to_str().unwrap(),
            "--compact-every",
            "2",
        ],
    );
    let mut c = QueryClient::connect(&serve.addr, IO).expect("connect");
    assert!(matches!(c.request(&Query::WaitGen(4)), Ok(Reply::Info(_))));
    assert!(matches!(c.request(&Query::Stop), Ok(Reply::Bye)));
    serve.wait_success();

    let mut base = log.clone().into_os_string();
    base.push(".base");
    let base = PathBuf::from(base);
    assert!(base.exists(), "compaction never wrote {}", base.display());
    assert!(!read_bytes(&base).is_empty(), "base snapshot is empty");
    // Sweep 4's delta landed after the last compaction (at sweep 4),
    // so the tail holds at most the header — far smaller than a full
    // 4-sweep log would be.
    let full = serve_uncompacted_len(&dir);
    let tail = read_bytes(&log).len();
    assert!(
        tail < full,
        "compacted tail ({tail} bytes) is not shorter than an uncompacted log ({full} bytes)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Helper for the compaction test: the same 4-sweep run with
/// compaction off, measured for comparison.
fn serve_uncompacted_len(dir: &Path) -> usize {
    let log = dir.join("uncompacted.cmel");
    let serve = Serve::spawn(
        dir,
        &["--sweeps", "4", "--event-log", log.to_str().unwrap()],
    );
    let mut c = QueryClient::connect(&serve.addr, IO).expect("connect");
    assert!(matches!(c.request(&Query::WaitGen(4)), Ok(Reply::Info(_))));
    assert!(matches!(c.request(&Query::Stop), Ok(Reply::Bye)));
    serve.wait_success();
    read_bytes(&log).len()
}

/// The degraded-mode acceptance check: a sweep failure injected
/// mid-service (`--fail-sweep 2` of 3) must leave the query API alive
/// and answering from generation 1 — with every `info` reply flagged
/// degraded — and the service must still shut down cleanly (exit 0).
#[test]
fn injected_sweep_failure_leaves_queries_answering_degraded() {
    let dir = scratch("degraded");
    let log = dir.join("degraded.cmel");
    let serve = Serve::spawn(
        &dir,
        &[
            "--sweeps",
            "3",
            "--fail-sweep",
            "2",
            "--event-log",
            log.to_str().unwrap(),
        ],
    );

    let mut c = QueryClient::connect(&serve.addr, IO).expect("connect");
    // Generation 1 publishes, then sweep 2 dies; waiting on the final
    // generation must resolve to a typed error, not a hang.
    assert!(matches!(c.request(&Query::WaitGen(1)), Ok(Reply::Info(_))));
    match c.request(&Query::WaitGen(3)).expect("wait gen 3") {
        Reply::Err(e) => assert!(e.contains("never be published"), "unexpected error: {e}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The chain is dead, the API is not: answers still come from the
    // last published generation, flagged degraded.
    let Reply::Info(info) = c.request(&Query::Info).expect("info") else {
        panic!("info must answer");
    };
    assert_eq!(info.generation, 1, "answers must come from generation 1");
    assert!(
        info.degraded,
        "info after the sweep death must be flagged degraded"
    );
    assert!(matches!(c.request(&Query::TopK(3)), Ok(Reply::TopK(_))));

    // The deployed client renders the flag too.
    let out = Command::new(BIN)
        .args(["query", "--connect", &serve.addr, "info"])
        .output()
        .expect("run query client");
    assert!(out.status.success());
    let rendered = String::from_utf8_lossy(&out.stdout);
    assert!(
        rendered.contains("degraded=1"),
        "rendered info must carry degraded=1: {rendered}"
    );

    assert!(matches!(c.request(&Query::Stop), Ok(Reply::Bye)));
    let summary = serve.wait_success();
    assert!(
        summary.contains("DEGRADED"),
        "summary must report the degraded run: {summary}"
    );
    assert!(
        summary.contains("serve: 1 sweeps published"),
        "summary must count published generations, not requested sweeps: {summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `query --connect` against a dead address: a typed single-line error
/// on stderr, a non-zero exit, and nothing rendered on stdout.
#[test]
fn query_client_fails_fast_against_a_dead_server() {
    // Bind-then-drop reserves an address nothing listens on.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let out = Command::new(BIN)
        .args(["query", "--connect", &dead, "--io-timeout", "2", "info"])
        .output()
        .expect("run query client");
    assert!(!out.status.success(), "a dead server must be an error exit");
    assert!(out.stdout.is_empty(), "no partial render on failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "one typed line, got: {stderr}"
    );
    assert!(
        stderr.starts_with("query failed:"),
        "untyped error: {stderr}"
    );
}

/// `query --connect` against a server that drops the connection
/// mid-handshake (accepts, then closes without replying): same
/// contract — typed single-line error, non-zero exit, empty stdout.
#[test]
fn query_client_reports_a_mid_handshake_drop() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        // Accept, read a few bytes of the query frame, hang up.
        let (mut s, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 8];
        let _ = std::io::Read::read(&mut s, &mut buf);
    });
    let out = Command::new(BIN)
        .args(["query", "--connect", &addr, "--io-timeout", "5", "info"])
        .output()
        .expect("run query client");
    server.join().expect("drop server");
    assert!(
        !out.status.success(),
        "a dropped handshake must be an error exit"
    );
    assert!(out.stdout.is_empty(), "no partial render on failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim().lines().count(),
        1,
        "one typed line, got: {stderr}"
    );
    assert!(
        stderr.starts_with("query failed:"),
        "untyped error: {stderr}"
    );
}

/// An existing event log is refused *before* the service binds,
/// announces itself or signals readiness: `serve` returns a typed
/// `ServeError::Log` naming the path, the `ready` channel never carries
/// an address, and the deployed binary prints nothing on stdout.
#[test]
fn existing_event_log_is_refused_before_the_service_announces_itself() {
    use clientmap::serve::{serve, ServeError, ServeOptions};

    let dir = scratch("serve-refusal");
    let log_path = dir.join("taken.cmel");
    std::fs::write(&log_path, b"someone else's history").expect("pre-create log");

    let (ready, addr) = std::sync::mpsc::channel();
    let result = serve(ServeOptions {
        addr: "127.0.0.1:0".into(),
        config: clientmap::PipelineConfig::tiny(7),
        sweeps: 1,
        prior: None,
        log_path: log_path.clone(),
        compact_every: 0,
        snapshot_out: None,
        io_timeout: IO,
        fail_sweep: None,
        ready: Some(ready),
    });
    match result {
        Err(ServeError::Log(msg)) => assert!(
            msg.contains(&log_path.display().to_string()),
            "refusal does not name the path: {msg}"
        ),
        other => panic!("expected a log refusal, got {other:?}"),
    }
    assert!(
        addr.try_recv().is_err(),
        "a refusing service signalled ready"
    );

    let log_arg = log_path.to_str().expect("utf-8 path");
    let out = run_cli(
        &["serve", "--listen", "127.0.0.1:0", "--event-log", log_arg],
        &[],
    );
    assert!(!out.status.success(), "a refusal must be an error exit");
    assert!(out.stdout.is_empty(), "a refusing service announced itself");
    assert!(
        out.stderr.starts_with("serve failed:") && out.stderr.contains("taken.cmel"),
        "untyped refusal: {}",
        out.stderr
    );
    assert_eq!(
        read_bytes(&log_path),
        b"someone else's history",
        "the refused log was touched"
    );
}
