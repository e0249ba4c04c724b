//! # clientmap-faults — seeded, deterministic fault injection
//!
//! The measurement environment the paper survives is hostile: Google
//! Public DNS rate-limits UDP, PoPs go dark for maintenance, anycast
//! catchments shift mid-sweep, and queries are silently lost. This
//! crate turns that hostility into a *plan*: a pure function of
//! `(world_seed, fault_seed)` that every service consults at
//! well-defined injection points. Because each decision is a stable
//! hash of *where and when* the query happens — never of execution
//! order — a faulted run is byte-identical at any thread count.
//!
//! The plan answers three questions:
//!
//! * [`FaultPlan::query_fault`] — does *this* wire query suffer a
//!   fault, and which [`QueryFault`] class?
//! * [`FaultPlan::pop_in_outage`] — is a PoP inside its seeded
//!   maintenance window at time `t`?
//! * [`FaultPlan::flap`] — does a vantage's anycast catchment flap to
//!   a neighbouring PoP during this window?
//!
//! ```
//! use clientmap_faults::{FaultConfig, FaultPlan, FaultProfile};
//!
//! let plan = FaultPlan::new(2021, &FaultConfig::profile(FaultProfile::Lossy, 7));
//! // Same coordinates, same answer — forever.
//! let a = plan.query_fault(3, 1, false, 1_000, 0x4242);
//! let b = plan.query_fault(3, 1, false, 1_000, 0x4242);
//! assert_eq!(a, b);
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use clientmap_net::SeedMixer;
use clientmap_telemetry::{Counter, MetricsRegistry};

/// Named fault profiles — the "standard chaos levels" used by the CLI
/// (`--faults PROFILE`), CI, and the chaos test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultProfile {
    /// No faults; the plan is inert and injection points short-circuit.
    #[default]
    Off,
    /// Background noise: sub-percent loss and error rates, no outages.
    Light,
    /// A bad day on the Internet: ~11% of attempts fail somehow, a
    /// tenth of PoPs take a maintenance window, catchments twitch.
    Lossy,
    /// PoP churn: modest per-query faults but a third of PoPs go dark
    /// for 1–3 h mid-sweep and catchments flap often.
    PopChurn,
}

impl FaultProfile {
    /// The canonical CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultProfile::Off => "off",
            FaultProfile::Light => "light",
            FaultProfile::Lossy => "lossy",
            FaultProfile::PopChurn => "pop-churn",
        }
    }

    /// All profiles, in severity order.
    pub const ALL: [FaultProfile; 4] = [
        FaultProfile::Off,
        FaultProfile::Light,
        FaultProfile::Lossy,
        FaultProfile::PopChurn,
    ];
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" | "none" => Ok(FaultProfile::Off),
            "light" => Ok(FaultProfile::Light),
            "lossy" => Ok(FaultProfile::Lossy),
            "pop-churn" | "popchurn" | "pop_churn" => Ok(FaultProfile::PopChurn),
            other => Err(format!(
                "unknown fault profile {other:?} (expected off|light|lossy|pop-churn)"
            )),
        }
    }
}

/// Which faults to inject: a profile plus the fault half of the
/// `(world_seed, fault_seed)` pair. The default is fully off, so every
/// existing entry point keeps its exact pre-fault behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Fault intensity profile.
    pub profile: FaultProfile,
    /// Seed for the fault plan, mixed with the world seed. Two runs of
    /// the same world with different fault seeds see different faults.
    pub fault_seed: u64,
}

impl FaultConfig {
    /// Shorthand constructor.
    pub fn profile(profile: FaultProfile, fault_seed: u64) -> FaultConfig {
        FaultConfig {
            profile,
            fault_seed,
        }
    }
}

/// The fault classes a single wire query can suffer. The server-side
/// injection point maps each to an observable behaviour: `Loss`,
/// `Latency` (a spike past any client deadline), `TcpReset`, and
/// `Outage` all surface as a dropped query; `ServFail` / `Refused`
/// surface as an error rcode; `Truncate` sets the TC bit on a UDP
/// response, forcing the client to retry over TCP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryFault {
    /// The packet never arrives (either direction).
    Loss,
    /// The resolver answers SERVFAIL.
    ServFail,
    /// The resolver answers REFUSED.
    Refused,
    /// UDP response truncated (TC bit, no answers) — retry over TCP.
    Truncate,
    /// Response latency blows the deadline budget; the client times out.
    Latency,
    /// The TCP connection is reset mid-exchange.
    TcpReset,
    /// The PoP is inside a maintenance window; nothing answers.
    Outage,
}

impl QueryFault {
    /// Every class, in declaration order — `ALL[f as usize] == f`.
    pub const ALL: [QueryFault; 7] = [
        QueryFault::Loss,
        QueryFault::ServFail,
        QueryFault::Refused,
        QueryFault::Truncate,
        QueryFault::Latency,
        QueryFault::TcpReset,
        QueryFault::Outage,
    ];

    /// Stable telemetry suffix (`faults.injected.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            QueryFault::Loss => "loss",
            QueryFault::ServFail => "servfail",
            QueryFault::Refused => "refused",
            QueryFault::Truncate => "truncate",
            QueryFault::Latency => "latency",
            QueryFault::TcpReset => "tcp_reset",
            QueryFault::Outage => "outage",
        }
    }
}

/// Per-profile fault intensities. All probabilities are per-query (or
/// per-PoP for `outage_prob`, per-window for `flap`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rates {
    loss: f64,
    servfail: f64,
    refused: f64,
    /// UDP only — a truncated TCP response makes no sense.
    truncate: f64,
    latency: f64,
    /// TCP only.
    tcp_reset: f64,
    /// Probability a given PoP has a maintenance window at all.
    outage_prob: f64,
    /// Probability a vantage's catchment flaps in a given 10-minute
    /// window.
    flap: f64,
}

const NO_FAULTS: Rates = Rates {
    loss: 0.0,
    servfail: 0.0,
    refused: 0.0,
    truncate: 0.0,
    latency: 0.0,
    tcp_reset: 0.0,
    outage_prob: 0.0,
    flap: 0.0,
};

impl FaultProfile {
    fn rates(self) -> Rates {
        match self {
            FaultProfile::Off => NO_FAULTS,
            FaultProfile::Light => Rates {
                loss: 0.005,
                servfail: 0.002,
                refused: 0.001,
                truncate: 0.05,
                latency: 0.003,
                tcp_reset: 0.002,
                outage_prob: 0.0,
                flap: 0.0,
            },
            FaultProfile::Lossy => Rates {
                loss: 0.05,
                servfail: 0.02,
                refused: 0.005,
                truncate: 0.25,
                latency: 0.02,
                tcp_reset: 0.02,
                outage_prob: 0.10,
                flap: 0.02,
            },
            FaultProfile::PopChurn => Rates {
                loss: 0.01,
                servfail: 0.005,
                refused: 0.002,
                truncate: 0.08,
                latency: 0.005,
                tcp_reset: 0.01,
                outage_prob: 0.35,
                flap: 0.08,
            },
        }
    }
}

/// Maintenance windows open between 6 h and 16 h into a run — inside
/// the probing sweep even at the tiny scale (calibration at 6 h, a
/// 12 h sweep after) — and last 1–3 h.
const OUTAGE_EARLIEST_MS: u64 = 6 * 3_600_000;
const OUTAGE_SPREAD_MS: u64 = 10 * 3_600_000;
const OUTAGE_MIN_MS: u64 = 3_600_000;
const OUTAGE_VAR_MS: u64 = 2 * 3_600_000;

/// Catchment flap decisions are stable within 10-minute windows, so a
/// flap looks like a routing change, not per-packet jitter.
const FLAP_WINDOW_MS: u64 = 600_000;

/// Maps a stable hash to `[0, 1)` — the same construction the
/// simulator uses everywhere randomness is needed.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// An immutable, seeded fault plan. Cheap to share ([`Arc`]); every
/// decision method is a pure function of its arguments.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    fault_seed: u64,
    profile: FaultProfile,
    rates: Rates,
    /// The per-query chain, seeded and tagged. A [`SeedMixer`] is a
    /// pure fold, so every decision continues a stored head instead of
    /// re-mixing it.
    query: SeedMixer,
    /// The catchment-flap chain, seeded and tagged.
    flap: SeedMixer,
}

/// One prober's slice of a [`FaultPlan`] at one PoP: the PoP's
/// maintenance window, taken once, and the per-query chain already
/// mixed through ⟨prober, PoP⟩. Every query decision goes through one
/// of these — [`FaultPlan::query_fault`] builds one per call, a probe
/// connection keeps one per PoP it can land on.
#[derive(Debug, Clone, Copy)]
pub struct PopFaults {
    rates: Rates,
    outage: Option<(u64, u64)>,
    /// The query chain through ⟨prober, PoP⟩.
    head: SeedMixer,
}

impl PopFaults {
    /// The fault (if any) suffered by one wire query from this prober
    /// to this PoP, sent over UDP (`udp`) at `t_millis` with DNS query
    /// ID `id`. Outage windows dominate — during one, *every* query to
    /// the PoP is lost.
    pub fn query_fault(&self, udp: bool, t_millis: u64, id: u16) -> Option<QueryFault> {
        if self
            .outage
            .is_some_and(|(start, end)| (start..end).contains(&t_millis))
        {
            return Some(QueryFault::Outage);
        }
        let r = &self.rates;
        let u = unit(
            self.head
                .mix(t_millis)
                .mix(u64::from(id))
                .mix(u64::from(udp))
                .finish(),
        );
        let mut edge = r.loss;
        if u < edge {
            return Some(QueryFault::Loss);
        }
        edge += r.servfail;
        if u < edge {
            return Some(QueryFault::ServFail);
        }
        edge += r.refused;
        if u < edge {
            return Some(QueryFault::Refused);
        }
        edge += r.latency;
        if u < edge {
            return Some(QueryFault::Latency);
        }
        edge += if udp { r.truncate } else { r.tcp_reset };
        if u < edge {
            return Some(if udp {
                QueryFault::Truncate
            } else {
                QueryFault::TcpReset
            });
        }
        None
    }
}

impl FaultPlan {
    /// Derives the plan from the world seed and the fault config.
    pub fn new(world_seed: u64, config: &FaultConfig) -> FaultPlan {
        let seed = SeedMixer::new(world_seed)
            .mix_str("faults")
            .mix(config.fault_seed)
            .finish();
        FaultPlan {
            seed,
            fault_seed: config.fault_seed,
            profile: config.profile,
            rates: config.profile.rates(),
            query: SeedMixer::new(seed).mix_str("query"),
            flap: SeedMixer::new(seed).mix_str("flap"),
        }
    }

    /// The inert plan (profile [`FaultProfile::Off`]).
    pub fn off() -> FaultPlan {
        FaultPlan::new(0, &FaultConfig::default())
    }

    /// Whether the plan injects nothing — injection points
    /// short-circuit on this, keeping the fault-free fast path intact.
    pub fn is_off(&self) -> bool {
        self.profile == FaultProfile::Off
    }

    /// Whether any faults are injected.
    pub fn enabled(&self) -> bool {
        !self.is_off()
    }

    /// The profile this plan was built from.
    pub fn profile(&self) -> FaultProfile {
        self.profile
    }

    /// The raw fault seed this plan was built from — what a fleet
    /// driver ships to workers so they derive the *same* plan from the
    /// same `(world_seed, fault_seed)` pair.
    pub fn fault_seed(&self) -> u64 {
        self.fault_seed
    }

    /// The `(profile, fault_seed)` config this plan was built from.
    pub fn config(&self) -> FaultConfig {
        FaultConfig::profile(self.profile, self.fault_seed)
    }

    /// The derived plan seed — a stable function of
    /// `(world_seed, fault_seed)`. Sweep snapshots mix it into their
    /// config digest so a warm start never replays state recorded
    /// under a different fault plan.
    pub fn plan_seed(&self) -> u64 {
        self.seed
    }

    /// The fault (if any) suffered by one wire query, identified by
    /// its stable coordinates: prober key, serving PoP, transport
    /// (`udp`), send time in sim-milliseconds, and DNS query ID — the
    /// per-call form of [`PopFaults::query_fault`].
    pub fn query_fault(
        &self,
        prober: u64,
        pop: usize,
        udp: bool,
        t_millis: u64,
        id: u16,
    ) -> Option<QueryFault> {
        if self.is_off() {
            return None;
        }
        self.at(prober, pop).query_fault(udp, t_millis, id)
    }

    /// This plan as seen by `prober` at `pop`: the outage window and
    /// the query chain head, resolved once.
    pub fn at(&self, prober: u64, pop: usize) -> PopFaults {
        PopFaults {
            rates: self.rates,
            outage: self.outage_window(pop),
            head: self.query.mix(prober).mix(pop as u64),
        }
    }

    /// Whether `pop` sits inside its seeded maintenance window at
    /// `t_millis`. A PoP either has one window per run or none.
    pub fn pop_in_outage(&self, pop: usize, t_millis: u64) -> bool {
        self.outage_window(pop)
            .is_some_and(|(start, end)| (start..end).contains(&t_millis))
    }

    /// The maintenance window for `pop`, if the plan gives it one —
    /// `(start_ms, end_ms)` in sim time.
    pub fn outage_window(&self, pop: usize) -> Option<(u64, u64)> {
        if self.rates.outage_prob == 0.0 {
            return None;
        }
        let h = SeedMixer::new(self.seed).mix_str("outage").mix(pop as u64);
        if unit(h.finish()) >= self.rates.outage_prob {
            return None;
        }
        let start = OUTAGE_EARLIEST_MS
            + (unit(h.mix_str("start").finish()) * OUTAGE_SPREAD_MS as f64) as u64;
        let dur = OUTAGE_MIN_MS + (unit(h.mix_str("dur").finish()) * OUTAGE_VAR_MS as f64) as u64;
        Some((start, start + dur))
    }

    /// Whether the anycast catchment for vantage `key` flaps away from
    /// its home PoP during the 10-minute window containing `t_millis`.
    pub fn flap(&self, key: u64, t_millis: u64) -> bool {
        if self.rates.flap == 0.0 {
            return false;
        }
        let window = t_millis / FLAP_WINDOW_MS;
        unit(self.flap.mix(key).mix(window).finish()) < self.rates.flap
    }
}

/// Server-side injection counters, registered only when a plan is
/// enabled so fault-free metrics snapshots stay byte-identical to the
/// pre-fault pipeline. One counter per [`QueryFault`] class under
/// `faults.injected.*`, plus the routing-level `faults.flaps`.
#[derive(Debug, Clone)]
pub struct FaultMetrics {
    loss: Arc<Counter>,
    servfail: Arc<Counter>,
    refused: Arc<Counter>,
    truncate: Arc<Counter>,
    latency: Arc<Counter>,
    tcp_reset: Arc<Counter>,
    outage: Arc<Counter>,
    /// Catchment flaps are routing events, not query faults — they are
    /// deliberately outside the `faults.injected.` conservation sum.
    pub flaps: Arc<Counter>,
}

impl FaultMetrics {
    /// Creates (or re-resolves) the counters on `m`.
    pub fn register(m: &MetricsRegistry) -> FaultMetrics {
        FaultMetrics {
            loss: m.counter("faults.injected.loss"),
            servfail: m.counter("faults.injected.servfail"),
            refused: m.counter("faults.injected.refused"),
            truncate: m.counter("faults.injected.truncate"),
            latency: m.counter("faults.injected.latency"),
            tcp_reset: m.counter("faults.injected.tcp_reset"),
            outage: m.counter("faults.injected.outage"),
            flaps: m.counter("faults.flaps"),
        }
    }

    /// Bumps the counter for one injected fault.
    pub fn count_injected(&self, fault: QueryFault) {
        self.add_injected(fault, 1);
    }

    /// Adds `n` injections of one class — a connection's tally, flushed
    /// when it closes.
    pub fn add_injected(&self, fault: QueryFault, n: u64) {
        match fault {
            QueryFault::Loss => self.loss.add(n),
            QueryFault::ServFail => self.servfail.add(n),
            QueryFault::Refused => self.refused.add(n),
            QueryFault::Truncate => self.truncate.add(n),
            QueryFault::Latency => self.latency.add(n),
            QueryFault::TcpReset => self.tcp_reset.add(n),
            QueryFault::Outage => self.outage.add(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parse_round_trips() {
        for p in FaultProfile::ALL {
            assert_eq!(p.as_str().parse::<FaultProfile>().unwrap(), p);
        }
        assert!("chaotic-evil".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn off_plan_injects_nothing() {
        let plan = FaultPlan::off();
        assert!(plan.is_off());
        for t in [0u64, 1_000, 3_600_000, 40 * 3_600_000] {
            for id in [0u16, 1, 0xFFFF] {
                assert_eq!(plan.query_fault(1, 0, true, t, id), None);
                assert_eq!(plan.query_fault(1, 0, false, t, id), None);
            }
            assert!(!plan.pop_in_outage(3, t));
            assert!(!plan.flap(9, t));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(2021, &FaultConfig::profile(FaultProfile::Lossy, 7));
        let b = FaultPlan::new(2021, &FaultConfig::profile(FaultProfile::Lossy, 7));
        let c = FaultPlan::new(2021, &FaultConfig::profile(FaultProfile::Lossy, 8));
        let mut differs = false;
        for q in 0..5_000u64 {
            let (prober, pop, t, id) = (q % 31, (q % 9) as usize, q * 137, (q % 65_536) as u16);
            let fa = a.query_fault(prober, pop, q % 2 == 0, t, id);
            assert_eq!(fa, b.query_fault(prober, pop, q % 2 == 0, t, id));
            differs |= fa != c.query_fault(prober, pop, q % 2 == 0, t, id);
        }
        assert!(differs, "fault seed must matter");
    }

    #[test]
    fn lossy_rates_are_roughly_calibrated() {
        let plan = FaultPlan::new(11, &FaultConfig::profile(FaultProfile::Lossy, 1));
        let n = 40_000u64;
        let mut faulted = 0u64;
        let mut truncated = 0u64;
        let mut resets = 0u64;
        for q in 0..n {
            // PoP 0 may be in outage for some t; use t before any window.
            match plan.query_fault(q, 0, q % 2 == 0, 1_000 + q, (q % 65_536) as u16) {
                Some(QueryFault::Truncate) => {
                    faulted += 1;
                    truncated += 1;
                }
                Some(QueryFault::TcpReset) => {
                    faulted += 1;
                    resets += 1;
                }
                Some(_) => faulted += 1,
                None => {}
            }
        }
        let rate = faulted as f64 / n as f64;
        // Half the draws are UDP (~34.5% fault rate incl. truncation),
        // half TCP (~11.5%); overall ~23%.
        assert!((0.15..0.32).contains(&rate), "overall fault rate {rate}");
        assert!(truncated > 0, "UDP truncation must occur");
        assert!(resets > 0, "TCP resets must occur");
    }

    #[test]
    fn truncation_is_udp_only_and_resets_tcp_only() {
        let plan = FaultPlan::new(5, &FaultConfig::profile(FaultProfile::Lossy, 2));
        for q in 0..20_000u64 {
            let udp = plan.query_fault(q, 1, true, 2_000 + q, (q % 65_536) as u16);
            let tcp = plan.query_fault(q, 1, false, 2_000 + q, (q % 65_536) as u16);
            assert_ne!(udp, Some(QueryFault::TcpReset));
            assert_ne!(tcp, Some(QueryFault::Truncate));
        }
    }

    #[test]
    fn outage_windows_fall_inside_probing_and_dominate() {
        let plan = FaultPlan::new(3, &FaultConfig::profile(FaultProfile::PopChurn, 4));
        let mut any = false;
        for pop in 0..45usize {
            if let Some((start, end)) = plan.outage_window(pop) {
                any = true;
                assert!(start >= OUTAGE_EARLIEST_MS);
                assert!(
                    end <= OUTAGE_EARLIEST_MS + OUTAGE_SPREAD_MS + OUTAGE_MIN_MS + OUTAGE_VAR_MS
                );
                assert!(end - start >= OUTAGE_MIN_MS);
                let mid = (start + end) / 2;
                assert!(plan.pop_in_outage(pop, mid));
                assert_eq!(
                    plan.query_fault(1, pop, false, mid, 7),
                    Some(QueryFault::Outage)
                );
                assert!(!plan.pop_in_outage(pop, start.saturating_sub(1)));
                assert!(!plan.pop_in_outage(pop, end));
            }
        }
        assert!(
            any,
            "pop-churn must schedule at least one outage across 45 PoPs"
        );
    }

    #[test]
    fn flaps_are_window_stable() {
        let plan = FaultPlan::new(8, &FaultConfig::profile(FaultProfile::PopChurn, 9));
        let mut flapped = 0u64;
        for w in 0..2_000u64 {
            let t = w * FLAP_WINDOW_MS;
            let f = plan.flap(42, t);
            // Stable anywhere inside the window.
            assert_eq!(f, plan.flap(42, t + FLAP_WINDOW_MS - 1));
            flapped += u64::from(f);
        }
        let rate = flapped as f64 / 2_000.0;
        assert!((0.04..0.13).contains(&rate), "flap rate {rate}");
    }

    /// The full per-query chains as they were before the plan and its
    /// [`PopFaults`] handles stored their heads: the oracle the hoisted
    /// forms must match decision for decision.
    fn oracle_query_fault(
        plan: &FaultPlan,
        prober: u64,
        pop: usize,
        udp: bool,
        t_millis: u64,
        id: u16,
    ) -> Option<QueryFault> {
        if plan.is_off() {
            return None;
        }
        if oracle_pop_in_outage(plan, pop, t_millis) {
            return Some(QueryFault::Outage);
        }
        let r = &plan.rates;
        let u = unit(
            SeedMixer::new(plan.seed)
                .mix_str("query")
                .mix(prober)
                .mix(pop as u64)
                .mix(t_millis)
                .mix(u64::from(id))
                .mix(u64::from(udp))
                .finish(),
        );
        let edges = [
            (r.loss, QueryFault::Loss),
            (r.servfail, QueryFault::ServFail),
            (r.refused, QueryFault::Refused),
            (r.latency, QueryFault::Latency),
        ];
        let mut edge = 0.0;
        for (rate, fault) in edges {
            edge += rate;
            if u < edge {
                return Some(fault);
            }
        }
        edge += if udp { r.truncate } else { r.tcp_reset };
        (u < edge).then_some(if udp {
            QueryFault::Truncate
        } else {
            QueryFault::TcpReset
        })
    }

    fn oracle_pop_in_outage(plan: &FaultPlan, pop: usize, t_millis: u64) -> bool {
        if plan.rates.outage_prob == 0.0 {
            return false;
        }
        let h = SeedMixer::new(plan.seed).mix_str("outage").mix(pop as u64);
        if unit(h.finish()) >= plan.rates.outage_prob {
            return false;
        }
        let start = OUTAGE_EARLIEST_MS
            + (unit(h.mix_str("start").finish()) * OUTAGE_SPREAD_MS as f64) as u64;
        let dur = OUTAGE_MIN_MS + (unit(h.mix_str("dur").finish()) * OUTAGE_VAR_MS as f64) as u64;
        (start..start + dur).contains(&t_millis)
    }

    fn oracle_flap(plan: &FaultPlan, key: u64, t_millis: u64) -> bool {
        if plan.rates.flap == 0.0 {
            return false;
        }
        let u = unit(
            SeedMixer::new(plan.seed)
                .mix_str("flap")
                .mix(key)
                .mix(t_millis / FLAP_WINDOW_MS)
                .finish(),
        );
        u < plan.rates.flap
    }

    #[test]
    fn hoisted_heads_match_the_full_chains_for_every_profile() {
        let mut state = 0xFA17_u64;
        let mut next = move || {
            state = clientmap_net::splitmix64(state);
            state
        };
        for profile in FaultProfile::ALL {
            let plan = FaultPlan::new(next(), &FaultConfig::profile(profile, next() % 16));
            let mut classes = std::collections::HashSet::new();
            for _ in 0..20_000 {
                let (prober, pop) = (next() % 64, (next() % 45) as usize);
                // Inside the span outage windows can cover, and past it.
                let t = next() % (20 * 3_600_000);
                let (id, udp) = (next() as u16, next() % 2 == 0);
                let want = oracle_query_fault(&plan, prober, pop, udp, t, id);
                assert_eq!(plan.query_fault(prober, pop, udp, t, id), want);
                assert_eq!(plan.at(prober, pop).query_fault(udp, t, id), want);
                assert_eq!(
                    plan.pop_in_outage(pop, t),
                    oracle_pop_in_outage(&plan, pop, t)
                );
                assert_eq!(plan.flap(prober, t), oracle_flap(&plan, prober, t));
                classes.insert(want);
            }
            // Every class the profile can inject shows up, so each
            // branch of the decision was compared.
            let expected = match profile {
                FaultProfile::Off => 1,
                FaultProfile::Light => 7,
                FaultProfile::Lossy | FaultProfile::PopChurn => 8,
            };
            assert_eq!(classes.len(), expected, "{profile:?}: {classes:?}");
        }
    }

    #[test]
    fn query_fault_classes_index_their_table() {
        for (i, f) in QueryFault::ALL.into_iter().enumerate() {
            assert_eq!(f as usize, i);
        }
    }

    #[test]
    fn fault_metrics_reconcile_by_class() {
        let m = MetricsRegistry::new();
        let fm = FaultMetrics::register(&m);
        let plan = FaultPlan::new(2, &FaultConfig::profile(FaultProfile::Lossy, 3));
        let mut injected = 0u64;
        for q in 0..10_000u64 {
            if let Some(f) = plan.query_fault(q, (q % 7) as usize, q % 3 == 0, q * 31, 1) {
                fm.count_injected(f);
                injected += 1;
            }
        }
        let snap = m.snapshot();
        assert_eq!(snap.sum_counters("faults.injected."), injected);
        assert_eq!(snap.counter("faults.flaps"), 0);
    }
}
