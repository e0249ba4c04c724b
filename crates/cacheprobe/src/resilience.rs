//! Client-side resilience under fault injection: verified response
//! classification, bounded retries with seeded exponential backoff,
//! and the fault-observation counters the invariant layer reconciles.
//!
//! The server-side fault plan (`clientmap-faults`) decides *what goes
//! wrong*; this module decides *how the prober survives it*. Every
//! piece is deterministic: backoff jitter is a stable hash of the
//! probe's coordinates, transaction IDs are a stable hash of slot and
//! scope, and all counters are commutative atomics — so a faulted run
//! remains byte-identical at any thread count.
//!
//! Accounting model: each failed wire exchange is **observed** exactly
//! once (classified under `cacheprobe.fault.observed.*`) and later
//! settles into exactly one terminal bucket — **recovered** (a retry
//! succeeded unchanged), **degraded** (succeeded only after upgrading
//! a TC-truncated UDP exchange to TCP), or **lost** (retries or the
//! deadline budget exhausted). The conservation law
//! `observed == recovered + degraded + lost` holds at every quiescent
//! point and is checked by `clientmap-core`'s invariants.

use std::sync::Arc;

use clientmap_dns::wire;
use clientmap_net::{Prefix, SeedMixer};
use clientmap_sim::{AttemptReply, GooglePublicDns, ProbeOutcome, SimTime, Transport};
use clientmap_telemetry::{Counter, MetricsRegistry};

/// Retries per probe query beyond the first send.
pub const MAX_RETRIES: u32 = 3;
/// First backoff step in milliseconds; retry `k` waits
/// `BACKOFF_BASE_MS << (k-1)` plus seeded jitter in `[0, step)`.
pub const BACKOFF_BASE_MS: u64 = 40;
/// Total extra-delay budget per probe, ms; a retry whose cumulative
/// backoff would exceed it is abandoned and the probe counted lost.
pub const DEADLINE_MS: u64 = 400;
/// Consecutive lost probes in one stream that trip its circuit
/// breaker, quarantining the PoP for the rest of the sweep.
pub const BREAKER_THRESHOLD: u32 = 25;

/// What one wire exchange looked like from the prober's side, after
/// verifying the transaction ID and the echoed question.
#[derive(Debug, Clone, PartialEq)]
pub enum WireObservation {
    /// No response arrived (loss, reset, latency timeout, outage, or a
    /// rate-limiter drop).
    Dropped,
    /// SERVFAIL — or any unexpected error rcode.
    ServFail,
    /// REFUSED.
    Refused,
    /// TC bit set: the response was truncated; retry over TCP.
    Truncated,
    /// The response failed verification: unparsable, wrong transaction
    /// ID, or a question echo that does not match what we sent.
    Mismatch,
    /// A verified, well-formed answer.
    Ok(ProbeOutcome),
}

/// Classifies a raw response against the query that elicited it.
///
/// Unlike the pre-resilience path — which trusted any bytes that came
/// back — this verifies the transaction ID and the echoed question
/// before believing the rcode, so a late or cross-wired answer can
/// never masquerade as a cache signal.
pub fn observe_response(query: &[u8], id: u16, resp: Option<&[u8]>) -> WireObservation {
    let Some(resp) = resp else {
        return WireObservation::Dropped;
    };
    let Ok(view) = wire::response_view(resp) else {
        return WireObservation::Mismatch;
    };
    if view.id != id || !wire::question_echo_matches(query, resp) {
        return WireObservation::Mismatch;
    }
    if view.flags & wire::FLAG_TC != 0 {
        return WireObservation::Truncated;
    }
    match (view.flags & wire::RCODE_MASK) as u8 {
        0 => WireObservation::Ok(GooglePublicDns::classify_view(&view)),
        5 => WireObservation::Refused,
        _ => WireObservation::ServFail,
    }
}

/// [`observe_response`] for the batched lane's byte-free reply: the
/// same classification, read off the typed stand-in instead of a parsed
/// response. There is no ID or question echo to verify — nothing was
/// rendered that could cross wires — so it never observes
/// [`WireObservation::Mismatch`].
pub(crate) fn observe_reply(reply: AttemptReply) -> WireObservation {
    match reply {
        AttemptReply::Dropped => WireObservation::Dropped,
        AttemptReply::Error { tc: true, .. } => WireObservation::Truncated,
        // An answerless rcode-0 response reads as a verified miss.
        AttemptReply::Error { rcode: 0, .. } => WireObservation::Ok(ProbeOutcome::Miss),
        AttemptReply::Error { rcode: 5, .. } => WireObservation::Refused,
        AttemptReply::Error { .. } => WireObservation::ServFail,
        AttemptReply::Answer(outcome) => WireObservation::Ok(outcome),
    }
}

/// The head of every [`attempt_id`] chain, mixed once at compile time.
const ATTEMPT_ID_HEAD: SeedMixer = SeedMixer::new(0x1D5).mix_str("attempt-id");

/// The DNS transaction ID for one probe attempt.
///
/// The base is a stable hash of the probe's slot time and query scope;
/// the redundancy index and retry number occupy disjoint XOR bits, so
/// every attempt of one probe event carries a distinct ID. (The
/// pre-fix scheme, `t ^ (addr >> 8)`, collided across the redundant
/// queries of a probe event — any stale answer verified against any
/// attempt.)
pub fn attempt_id(t: SimTime, scope: Prefix, redundancy: u32, retry: u32) -> u16 {
    let h = ATTEMPT_ID_HEAD
        .mix(t.as_millis())
        .mix(u64::from(scope.addr()))
        .mix(u64::from(scope.len()))
        .finish();
    (h as u16) ^ (((redundancy << 4) | (retry & 0xF)) as u16)
}

/// Backoff delay in milliseconds before retry `retry` (1-based) of a
/// probe sent by `prober` at `t_millis`: an exponential step
/// `base << (retry-1)` plus deterministic jitter in `[0, step)`.
pub fn backoff_delay_ms(prober: u64, t_millis: u64, retry: u32, base_ms: u64) -> u64 {
    let step = (base_ms << (retry - 1)).max(1);
    let h = SeedMixer::new(prober)
        .mix_str("backoff")
        .mix(t_millis)
        .mix(u64::from(retry))
        .finish();
    step + h % step
}

/// Client-side fault observation and recovery counters.
///
/// Resolved only when the run's fault plan is enabled, so fault-free
/// telemetry snapshots stay byte-identical to the pre-fault pipeline.
#[derive(Debug, Clone)]
pub struct FaultCounters {
    /// `cacheprobe.fault.observed.drop` — no response where one was due.
    pub observed_drop: Arc<Counter>,
    /// `cacheprobe.fault.observed.servfail`.
    pub observed_servfail: Arc<Counter>,
    /// `cacheprobe.fault.observed.refused`.
    pub observed_refused: Arc<Counter>,
    /// `cacheprobe.fault.observed.truncated` — TC bit on a UDP answer.
    pub observed_truncated: Arc<Counter>,
    /// `cacheprobe.fault.observed.mismatch` — failed ID/question echo
    /// verification.
    pub observed_mismatch: Arc<Counter>,
    /// `cacheprobe.fault.observed.discovery` — failed PoP-discovery
    /// (myaddr TXT) exchanges.
    pub observed_discovery: Arc<Counter>,
    /// `cacheprobe.fault.retries` — retry sends beyond each attempt's
    /// first query (not part of `cacheprobe.probes_sent`).
    pub retries: Arc<Counter>,
    /// `cacheprobe.fault.recovered` — observed failures on probes that
    /// later succeeded over the original transport.
    pub recovered: Arc<Counter>,
    /// `cacheprobe.fault.degraded` — observed failures on probes that
    /// succeeded only after the TC-forced upgrade to TCP.
    pub degraded: Arc<Counter>,
    /// `cacheprobe.fault.lost` — observed failures on probes that
    /// exhausted their retries or deadline budget.
    pub lost: Arc<Counter>,
    /// `cacheprobe.quarantine.pops` — PoPs quarantined by the breaker.
    pub quarantined_pops: Arc<Counter>,
    /// `cacheprobe.quarantine.rescued` — scopes re-probed at a fallback
    /// PoP after their home PoP was quarantined.
    pub rescued: Arc<Counter>,
}

impl FaultCounters {
    /// Resolves (or re-resolves) the counters on `m`.
    pub fn resolve(m: &MetricsRegistry) -> FaultCounters {
        FaultCounters {
            observed_drop: m.counter("cacheprobe.fault.observed.drop"),
            observed_servfail: m.counter("cacheprobe.fault.observed.servfail"),
            observed_refused: m.counter("cacheprobe.fault.observed.refused"),
            observed_truncated: m.counter("cacheprobe.fault.observed.truncated"),
            observed_mismatch: m.counter("cacheprobe.fault.observed.mismatch"),
            observed_discovery: m.counter("cacheprobe.fault.observed.discovery"),
            retries: m.counter("cacheprobe.fault.retries"),
            recovered: m.counter("cacheprobe.fault.recovered"),
            degraded: m.counter("cacheprobe.fault.degraded"),
            lost: m.counter("cacheprobe.fault.lost"),
            quarantined_pops: m.counter("cacheprobe.quarantine.pops"),
            rescued: m.counter("cacheprobe.quarantine.rescued"),
        }
    }

    /// Counts one failed observation (no-op for `Ok`).
    pub fn count_observed(&self, obs: WireObservation) {
        match obs {
            WireObservation::Dropped => self.observed_drop.inc(),
            WireObservation::ServFail => self.observed_servfail.inc(),
            WireObservation::Refused => self.observed_refused.inc(),
            WireObservation::Truncated => self.observed_truncated.inc(),
            WireObservation::Mismatch => self.observed_mismatch.inc(),
            WireObservation::Ok(_) => {}
        }
    }

    /// Total observed failures across all classes.
    pub fn observed_total(&self) -> u64 {
        self.observed_drop.get()
            + self.observed_servfail.get()
            + self.observed_refused.get()
            + self.observed_truncated.get()
            + self.observed_mismatch.get()
            + self.observed_discovery.get()
    }
}

/// Runs one probe attempt (one redundancy slot) with bounded retries,
/// seeded backoff, the deadline budget, and the TC → TCP transport
/// upgrade. `send` performs one wire exchange at the given retry
/// number, send time, and transport, returning its observation; the
/// caller owns ID generation and rendering inside it.
///
/// Returns the verified outcome, or [`ProbeOutcome::Dropped`] once the
/// retry/deadline budget is exhausted (the failures then count lost).
pub(crate) fn resilient_attempt<F>(
    prober: u64,
    base_t: SimTime,
    transport0: Transport,
    fc: &FaultCounters,
    mut send: F,
) -> ProbeOutcome
where
    F: FnMut(u32, SimTime, Transport) -> WireObservation,
{
    let mut transport = transport0;
    let mut delay = 0u64;
    let mut failures = 0u64;
    let mut upgraded = false;
    for retry in 0..=MAX_RETRIES {
        if retry > 0 {
            delay += backoff_delay_ms(prober, base_t.as_millis(), retry, BACKOFF_BASE_MS);
            if delay > DEADLINE_MS {
                break;
            }
            fc.retries.inc();
        }
        let obs = send(retry, base_t + SimTime::from_millis(delay), transport);
        match obs {
            WireObservation::Ok(outcome) => {
                if failures > 0 {
                    if upgraded {
                        fc.degraded.add(failures);
                    } else {
                        fc.recovered.add(failures);
                    }
                }
                return outcome;
            }
            other => {
                let truncated = matches!(other, WireObservation::Truncated);
                fc.count_observed(other);
                failures += 1;
                if truncated && transport == Transport::Udp {
                    transport = Transport::Tcp;
                    upgraded = true;
                }
            }
        }
    }
    fc.lost.add(failures);
    ProbeOutcome::Dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_dns::{Message, Question, RrClass, RrType};

    fn probe_query(id: u16) -> Vec<u8> {
        let name: clientmap_dns::DomainName = "www.example.com".parse().unwrap();
        let scope: Prefix = "10.1.2.0/24".parse().unwrap();
        let q = Message::query(
            id,
            Question {
                name,
                rtype: RrType::A,
                class: RrClass::In,
            },
        )
        .with_recursion_desired(false)
        .with_ecs(scope);
        wire::encode(&q).unwrap()
    }

    fn question_wire(query: &[u8]) -> &[u8] {
        // QNAME starts at 12; walk labels, then QTYPE + QCLASS.
        let mut pos = 12usize;
        while query[pos] != 0 {
            pos += 1 + query[pos] as usize;
        }
        &query[12..pos + 5]
    }

    #[test]
    fn observations_classify_the_full_matrix() {
        let query = probe_query(0x1234);
        let qw = question_wire(&query).to_vec();
        assert_eq!(
            observe_response(&query, 0x1234, None),
            WireObservation::Dropped
        );
        let mut resp = Vec::new();
        wire::write_probe_error_response(&mut resp, 0x1234, &qw, 2, false);
        assert_eq!(
            observe_response(&query, 0x1234, Some(&resp)),
            WireObservation::ServFail
        );
        wire::write_probe_error_response(&mut resp, 0x1234, &qw, 5, false);
        assert_eq!(
            observe_response(&query, 0x1234, Some(&resp)),
            WireObservation::Refused
        );
        wire::write_probe_error_response(&mut resp, 0x1234, &qw, 0, true);
        assert_eq!(
            observe_response(&query, 0x1234, Some(&resp)),
            WireObservation::Truncated
        );
        // rcode 0, no TC, no answers: a verified miss.
        wire::write_probe_error_response(&mut resp, 0x1234, &qw, 0, false);
        assert_eq!(
            observe_response(&query, 0x1234, Some(&resp)),
            WireObservation::Ok(ProbeOutcome::Miss)
        );
        // Wrong transaction ID.
        wire::write_probe_error_response(&mut resp, 0x9999, &qw, 0, false);
        assert_eq!(
            observe_response(&query, 0x1234, Some(&resp)),
            WireObservation::Mismatch
        );
        // Question echo for a different name.
        let other = probe_query(0x1234);
        let mut other_q = other.clone();
        other_q[13] ^= 0x01; // corrupt a label byte
        wire::write_probe_error_response(&mut resp, 0x1234, question_wire(&other_q), 0, false);
        assert_eq!(
            observe_response(&query, 0x1234, Some(&resp)),
            WireObservation::Mismatch
        );
        // Garbage bytes.
        assert_eq!(
            observe_response(&query, 0x1234, Some(&[0u8; 3])),
            WireObservation::Mismatch
        );
    }

    #[test]
    fn attempt_ids_are_distinct_across_attempts() {
        let t = SimTime::from_hours(8);
        let scope: Prefix = "100.64.8.0/24".parse().unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in 0..8u32 {
            for retry in 0..8u32 {
                assert!(
                    seen.insert(attempt_id(t, scope, r, retry)),
                    "collision at redundancy {r} retry {retry}"
                );
            }
        }
        // And stable.
        assert_eq!(attempt_id(t, scope, 3, 2), attempt_id(t, scope, 3, 2));
    }

    /// `attempt_id` as it was before its head became a constant.
    fn oracle_attempt_id(t: SimTime, scope: Prefix, redundancy: u32, retry: u32) -> u16 {
        let h = SeedMixer::new(0x1D5)
            .mix_str("attempt-id")
            .mix(t.as_millis())
            .mix(u64::from(scope.addr()))
            .mix(u64::from(scope.len()))
            .finish();
        (h as u16) ^ (((redundancy << 4) | (retry & 0xF)) as u16)
    }

    #[test]
    fn constant_head_attempt_ids_match_the_full_chain() {
        let mut state = 0xA77E_u64;
        for _ in 0..20_000 {
            state = clientmap_net::splitmix64(state);
            let t = SimTime::from_millis(state % (200 * 3_600_000));
            let scope = Prefix::new((state >> 17) as u32, (state % 33) as u8).unwrap();
            let (r, retry) = ((state >> 40) as u32 % 8, (state >> 50) as u32 % 5);
            assert_eq!(
                attempt_id(t, scope, r, retry),
                oracle_attempt_id(t, scope, r, retry)
            );
        }
    }

    #[test]
    fn byte_free_replies_observe_as_their_responses_do() {
        let query = probe_query(0x1234);
        let qw = question_wire(&query).to_vec();
        let mut resp = Vec::new();
        for (rcode, tc) in [
            (0u8, false),
            (0, true),
            (2, false),
            (5, false),
            (5, true),
            (3, false),
        ] {
            wire::write_probe_error_response(&mut resp, 0x1234, &qw, rcode, tc);
            assert_eq!(
                observe_reply(AttemptReply::Error { rcode, tc }),
                observe_response(&query, 0x1234, Some(&resp)),
                "rcode {rcode} tc {tc}"
            );
        }
        assert_eq!(
            observe_reply(AttemptReply::Dropped),
            observe_response(&query, 0x1234, None)
        );
        let hit = ProbeOutcome::Hit {
            scope: "10.1.0.0/16".parse().unwrap(),
            remaining_ttl: 30,
        };
        assert_eq!(
            observe_reply(AttemptReply::Answer(hit.clone())),
            WireObservation::Ok(hit)
        );
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        for retry in 1..=4u32 {
            let step = 40u64 << (retry - 1);
            let d = backoff_delay_ms(7, 123_456, retry, 40);
            assert!((step..2 * step).contains(&d), "retry {retry}: {d}");
            assert_eq!(d, backoff_delay_ms(7, 123_456, retry, 40));
        }
        assert_ne!(
            backoff_delay_ms(7, 123_456, 1, 40),
            backoff_delay_ms(8, 123_456, 1, 40),
            "jitter must vary by prober"
        );
    }

    #[test]
    fn resilient_attempt_settles_every_failure_exactly_once() {
        let m = MetricsRegistry::new();
        let fc = FaultCounters::resolve(&m);
        // Fails twice, then succeeds: 2 observed, 2 recovered.
        let mut calls = 0;
        let out = resilient_attempt(1, SimTime::from_secs(10), Transport::Tcp, &fc, |_, _, _| {
            calls += 1;
            if calls < 3 {
                WireObservation::Dropped
            } else {
                WireObservation::Ok(ProbeOutcome::Miss)
            }
        });
        assert_eq!(out, ProbeOutcome::Miss);
        // Truncated then success over TCP: 1 observed, 1 degraded.
        let out = resilient_attempt(
            1,
            SimTime::from_secs(20),
            Transport::Udp,
            &fc,
            |retry, _, transport| {
                if retry == 0 {
                    assert_eq!(transport, Transport::Udp);
                    WireObservation::Truncated
                } else {
                    assert_eq!(transport, Transport::Tcp, "TC must upgrade the retry");
                    WireObservation::Ok(ProbeOutcome::HitScopeZero)
                }
            },
        );
        assert_eq!(out, ProbeOutcome::HitScopeZero);
        // Never succeeds: every failure lost.
        let out = resilient_attempt(1, SimTime::from_secs(30), Transport::Tcp, &fc, |_, _, _| {
            WireObservation::ServFail
        });
        assert_eq!(out, ProbeOutcome::Dropped);
        assert_eq!(
            fc.observed_total(),
            fc.recovered.get() + fc.degraded.get() + fc.lost.get(),
            "conservation law"
        );
        assert_eq!(fc.degraded.get(), 1);
        assert_eq!(fc.recovered.get(), 2);
        assert!(fc.lost.get() >= 1);
    }
}
