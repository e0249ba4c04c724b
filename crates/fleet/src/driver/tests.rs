//! Unit tests for the driver's one exchange and one phase loop, over
//! in-memory reader/writer pairs — no socket, no worker process.

use super::*;
use crate::proto::{encode_rescue_result, encode_shard_result};

fn framed(kind: FrameKind, payload: Vec<u8>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &Frame::new(kind, payload)).expect("in-memory write");
    buf
}

fn unit(bound_idx: usize) -> ProbeUnit {
    ProbeUnit {
        bound_idx,
        domain: 0,
        scopes: vec![Prefix::new(0x0A00_0000, 24).expect("valid prefix")],
    }
}

/// A delta recognisable by its epoch.
fn delta(epoch: u32) -> SweepSnapshot {
    let mut delta = SweepSnapshot::new(7, 9);
    delta.epoch = epoch;
    delta
}

fn tripped(pop: usize) -> PopHealth {
    PopHealth {
        pop,
        attempts: 8,
        drops: 8,
        tripped: true,
    }
}

/// A two-shard phase of `kind` already under way: shard 0 still
/// queued, shard 1 about to be run by the test.
fn phase_under_way(kind: PhaseKind) -> Shared {
    let shared = Shared::default();
    let mut st = shared.state.lock().expect("state lock");
    st.alive = 1;
    st.phase.slots = vec![None; 2];
    st.phase.units = Arc::new(vec![unit(0), unit(1), unit(2)]);
    st.queue.push_back(Task {
        phase: kind,
        shard: 0,
    });
    drop(st);
    shared
}

/// Every way a reply can fail to answer the request, in either phase:
/// the failure names the phase's unit of work, nothing is filed, and
/// the task is back at the *front* of the queue.
#[test]
fn a_failed_exchange_names_the_phase_and_requeues_the_task_in_front() {
    let good = framed(FrameKind::RescueResult, encode_rescue_result(1, &delta(1)));
    let cases = [
        (
            PhaseKind::Main,
            framed(FrameKind::Bye, Vec::new()),
            "unexpected Bye reply to shard request",
        ),
        (
            PhaseKind::Rescue,
            framed(
                FrameKind::ShardResult,
                encode_shard_result(1, &delta(1), &[]),
            ),
            "unexpected ShardResult reply to rescue shard request",
        ),
        (
            PhaseKind::Main,
            framed(FrameKind::JobErr, b"shard request before job".to_vec()),
            "shard request refused: shard request before job",
        ),
        (
            PhaseKind::Rescue,
            framed(
                FrameKind::JobErr,
                b"rescue unit outside prepared sweep".to_vec(),
            ),
            "rescue shard request refused: rescue unit outside prepared sweep",
        ),
        (
            PhaseKind::Rescue,
            good[..good.len() - 3].to_vec(),
            "awaiting the reply to rescue shard request: stream ended mid-frame",
        ),
        (
            PhaseKind::Main,
            Vec::new(),
            "awaiting the reply to shard request: stream ended mid-frame",
        ),
        (
            PhaseKind::Main,
            framed(
                FrameKind::ShardResult,
                encode_shard_result(2, &delta(2), &[]),
            ),
            "shard id mismatch: asked 1, got 2",
        ),
        (
            PhaseKind::Rescue,
            framed(FrameKind::RescueResult, encode_rescue_result(0, &delta(0))),
            "rescue shard id mismatch: asked 1, got 0",
        ),
        (
            PhaseKind::Rescue,
            framed(FrameKind::RescueResult, vec![1, 0, 0, 0, b'C', b'M']),
            "bad rescue shard result: not a sweep snapshot (bad magic)",
        ),
    ];
    for (phase, reply, want) in cases {
        let shared = phase_under_way(phase);
        let task = Task { phase, shard: 1 };
        let mut sent = Vec::new();
        let failure = run_task(&mut reply.as_slice(), &mut sent, task, &shared, "w")
            .expect_err("the reply does not answer the request");
        assert_eq!(failure, Failure::from(want.to_string()));
        let st = shared.state.lock().expect("state lock");
        let queued: Vec<u32> = st.queue.iter().map(|t| t.shard).collect();
        assert_eq!(queued, [1, 0], "{want}: the task goes back in front");
        assert_eq!(st.queue[0], task, "{want}");
        assert!(st.phase.slots.iter().all(Option::is_none), "{want}");
        assert!(st.books.is_empty(), "{want}");
    }
}

/// The matching reply is filed under the task's shard, a main shard's
/// fault book is collected, and what went out is the one request frame
/// of the task's phase — a rescue shard's carrying its own slice of the
/// phase's units.
#[test]
fn a_matching_reply_is_filed_and_the_request_is_the_phase_s_own() {
    let book = [tripped(4)];
    let cases = [
        (
            PhaseKind::Main,
            framed(
                FrameKind::ShardResult,
                encode_shard_result(1, &delta(11), &book),
            ),
            framed(FrameKind::ShardRequest, vec![1, 0, 0, 0]),
        ),
        (
            PhaseKind::Rescue,
            framed(FrameKind::RescueResult, encode_rescue_result(1, &delta(11))),
            // Three units over two shards: shard 1 is the last one.
            framed(
                FrameKind::RescueRequest,
                encode_rescue_request(1, &[unit(2)]),
            ),
        ),
    ];
    for (phase, reply, request) in cases {
        let shared = phase_under_way(phase);
        let task = Task { phase, shard: 1 };
        let mut sent = Vec::new();
        run_task(&mut reply.as_slice(), &mut sent, task, &shared, "w").expect("filed");
        assert_eq!(sent, request);
        let st = shared.state.lock().expect("state lock");
        assert_eq!(st.queue.len(), 1, "the queue is left alone");
        assert_eq!(st.phase.slots, [None, Some(delta(11))]);
        let main = phase == PhaseKind::Main;
        assert_eq!(st.books, if main { book.to_vec() } else { Vec::new() });
    }
}

/// A reader whose socket deadline expires before any byte arrives.
struct Stalled;

impl Read for Stalled {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::ErrorKind::WouldBlock.into())
    }
}

/// The job handshake rides the same exchange: a refusal carries the
/// worker's reason, and a deadline expiry — alone among failures —
/// raises the flag the all-timeouts upgrade reads.
#[test]
fn the_handshake_is_the_same_exchange_and_only_a_deadline_sets_the_flag() {
    let job = Frame::new(FrameKind::Job, vec![1, 2, 3]);
    let refusal = framed(FrameKind::JobErr, b"job with zero shards".to_vec());
    let mut sent = Vec::new();
    let got = exchange(
        &mut refusal.as_slice(),
        &mut sent,
        "job",
        &job,
        FrameKind::JobAck,
    );
    assert_eq!(
        got,
        Err(Failure::from(
            "job refused: job with zero shards".to_string()
        ))
    );
    assert_eq!(sent, framed(FrameKind::Job, vec![1, 2, 3]));

    let ack = framed(FrameKind::JobAck, vec![9; 33]);
    let got = exchange(
        &mut ack.as_slice(),
        &mut Vec::new(),
        "job",
        &job,
        FrameKind::JobAck,
    );
    assert_eq!(got, Ok(vec![9; 33]));

    let got = exchange(
        &mut Stalled,
        &mut Vec::new(),
        "job",
        &job,
        FrameKind::JobAck,
    );
    let failure = got.expect_err("no reply ever arrives");
    assert!(failure.timed_out, "{failure:?}");
    assert_eq!(
        failure.message,
        "awaiting the reply to job: i/o deadline expired mid-frame"
    );
}

/// Stands in for a connection thread: pops tasks until the test flags
/// shutdown, answering each from `reply_for` (the bytes a worker would
/// send back for that task).
fn answer_tasks(shared: &Shared, mut reply_for: impl FnMut(Task) -> Vec<u8>) {
    loop {
        let mut st = shared.state.lock().expect("state lock");
        let task = loop {
            if st.shutdown {
                return;
            }
            if let Some(task) = st.queue.pop_front() {
                break task;
            }
            st = shared.wait(st);
        };
        drop(st);
        let reply = reply_for(task);
        // A failure re-queues the task; this "connection" just goes on
        // to pick it up again, as a surviving worker's would.
        let _ = run_task(&mut reply.as_slice(), &mut Vec::new(), task, shared, "w");
    }
}

/// One `run_phase` serves both phases back to back over the same
/// state: it queues the phase's shards, survives a failed first
/// attempt (the re-queued task is picked up again), and returns the
/// deltas in shard order whatever order they came back in.
#[test]
fn run_phase_queues_waits_and_returns_deltas_in_shard_order_for_both_phases() {
    let shared = Shared::default();
    shared.state.lock().expect("state lock").alive = 1;
    let mut attempts = Vec::new();
    std::thread::scope(|scope| {
        let answering = scope.spawn(|| {
            answer_tasks(&shared, |task| {
                attempts.push(task);
                let Task { phase, shard } = task;
                let first_try = attempts.iter().filter(|t| **t == task).count() == 1;
                match phase {
                    // Shard 0's first answer is garbage.
                    _ if shard == 0 && first_try => framed(FrameKind::Bye, Vec::new()),
                    PhaseKind::Main => framed(
                        FrameKind::ShardResult,
                        encode_shard_result(shard, &delta(shard), &[tripped(shard as usize)]),
                    ),
                    PhaseKind::Rescue => framed(
                        FrameKind::RescueResult,
                        encode_rescue_result(shard, &delta(100 + shard)),
                    ),
                }
            })
        });
        let main = run_phase(&shared, PhaseKind::Main, 3, Vec::new()).expect("main phase");
        assert_eq!(main, [delta(0), delta(1), delta(2)]);
        let books = std::mem::take(&mut shared.state.lock().expect("state lock").books);
        assert_eq!(books.len(), 3, "one book per main shard, none twice");

        let units = vec![unit(0), unit(1)];
        let rescue = run_phase(&shared, PhaseKind::Rescue, 2, units).expect("rescue phase");
        assert_eq!(rescue, [delta(100), delta(101)]);
        assert!(shared.state.lock().expect("state lock").books.is_empty());

        shared.state.lock().expect("state lock").shutdown = true;
        shared.cond.notify_all();
        answering.join().expect("answering thread");
    });
    // Each phase: shard 0 tried, re-queued in front, tried again, then
    // the rest in order.
    let shards: Vec<(PhaseKind, u32)> = attempts.iter().map(|t| (t.phase, t.shard)).collect();
    let (m, r) = (PhaseKind::Main, PhaseKind::Rescue);
    assert_eq!(
        shards,
        [(m, 0), (m, 0), (m, 1), (m, 2), (r, 0), (r, 0), (r, 1)]
    );
}

/// A fleet out of workers fails the phase it was in, by name when no
/// worker left a reason behind, and with every worker's reason when
/// they did.
#[test]
fn a_phase_without_workers_fails_naming_itself_or_every_loss() {
    let shared = Shared::default();
    let err = run_phase(&shared, PhaseKind::Rescue, 2, vec![unit(0), unit(1)])
        .expect_err("nobody is alive to probe");
    assert_eq!(
        err.to_string(),
        "fleet sweep failed (fleet): 0/2 rescue shards completed and no workers remain"
    );

    let mut st = shared.state.lock().expect("state lock");
    for addr in ["a:1", "b:2"] {
        let failure = Failure::from(format!("re-queued after {addr}"));
        st.losses.push((addr.to_string(), failure));
    }
    drop(st);
    let err = run_phase(&shared, PhaseKind::Main, 4, Vec::new()).expect_err("still nobody");
    assert_eq!(
        err.to_string(),
        "fleet sweep failed (b:2): a:1: re-queued after a:1; b:2: re-queued after b:2"
    );
}
