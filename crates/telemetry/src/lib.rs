//! # clientmap-telemetry
//!
//! Deterministic observability for the measurement pipeline: lock-free
//! counters, log-bucketed histograms, and sim-time scoped timers,
//! collected in a [`MetricsRegistry`] whose [`MetricsSnapshot`] renders
//! to byte-stable JSON.
//!
//! Two properties matter more than anything else here:
//!
//! 1. **The hot path never locks.** Instruments are `Arc` handles over
//!    atomics; the registry lock is taken only at registration and
//!    snapshot time.
//! 2. **Snapshots are deterministic.** Every operation on an instrument
//!    is a commutative atomic update (`fetch_add`, `fetch_min`,
//!    `fetch_max`), so concurrent probers can interleave arbitrarily
//!    and the totals still come out identical run-to-run. No wall-clock
//!    time is ever recorded — durations are simulated-time spans passed
//!    in by the caller — so two same-seed runs produce byte-identical
//!    JSON regardless of thread scheduling or host speed.
//!
//! ```
//! use clientmap_telemetry::MetricsRegistry;
//!
//! let m = MetricsRegistry::new();
//! let hits = m.counter("gpdns.cache.hit.pool0");
//! hits.inc();
//! hits.add(2);
//! let snap = m.snapshot();
//! assert_eq!(snap.counter("gpdns.cache.hit.pool0"), 3);
//! assert!(snap.to_json().contains("\"gpdns.cache.hit.pool0\": 3"));
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A monotonically increasing counter (plain `fetch_add`; commutative,
/// so totals are interleaving-independent).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram buckets: one per bit length, so bucket `i` (for `i ≥ 1`)
/// holds values in `[2^(i-1), 2^i)` and bucket 0 holds exactly zero.
const NUM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// All state updates are commutative atomics (`fetch_add` on buckets,
/// `fetch_min`/`fetch_max` on the extrema), so like [`Counter`] it is
/// safe — and deterministic — under arbitrary concurrent recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = (0..NUM_BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed);
                (c > 0).then(|| {
                    // Inclusive upper bound of bucket i.
                    let le = if i == 0 {
                        0
                    } else if i == 64 {
                        u64::MAX
                    } else {
                        (1u64 << i) - 1
                    };
                    (le, c)
                })
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A scoped timer over **simulated** time.
///
/// The caller supplies both endpoints in sim-milliseconds; no wall
/// clock is consulted, so recorded durations replay identically across
/// runs. Dropping the timer without [`ScopedTimer::stop`] records
/// nothing (spans are explicit, never implicit).
#[derive(Debug)]
pub struct ScopedTimer {
    hist: Arc<Histogram>,
    start_ms: u64,
}

impl ScopedTimer {
    /// Opens a span starting at sim-time `start_ms`.
    pub fn start(hist: Arc<Histogram>, start_ms: u64) -> Self {
        ScopedTimer { hist, start_ms }
    }

    /// Closes the span at sim-time `end_ms`, recording the (saturating)
    /// duration; returns it.
    pub fn stop(self, end_ms: u64) -> u64 {
        let elapsed = end_ms.saturating_sub(self.start_ms);
        self.hist.record(elapsed);
        elapsed
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The set of named instruments for one run.
///
/// `counter`/`histogram` are get-or-create and return shared handles;
/// callers resolve handles once (outside hot loops) and update through
/// the handle thereafter, so steady-state recording is lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.inner.read().unwrap().counters.get(name) {
            return Arc::clone(c);
        }
        let mut inner = self.inner.write().unwrap();
        Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.inner.read().unwrap().histograms.get(name) {
            return Arc::clone(h);
        }
        let mut inner = self.inner.write().unwrap();
        Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// A point-in-time copy of every instrument, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen, ordered view of a [`MetricsRegistry`].
///
/// Backed by `BTreeMap`s, so iteration — and therefore
/// [`MetricsSnapshot::to_json`] — is byte-stable for equal contents.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The state of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Sum of every counter whose name starts with `prefix`.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Renders the snapshot as pretty-printed JSON.
    ///
    /// Keys are sorted and all values are integers, so equal snapshots
    /// serialize to byte-identical strings (the determinism contract
    /// the test suite leans on).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            ));
            for (j, (le, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{le}, {c}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// The difference between two snapshots of one histogram: additive
/// fields carry the post − pre increment; `min`/`max` (which are not
/// additive) carry the **post** state, which is safe to absorb because
/// `fetch_min`/`fetch_max` only widen the receiver's extrema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramDelta {
    /// Observations recorded inside the window.
    pub count: u64,
    /// Sum increment inside the window.
    pub sum: u64,
    /// Post-window minimum (valid: deltas are only kept when
    /// `count > 0`, so the post state has a real minimum).
    pub min: u64,
    /// Post-window maximum.
    pub max: u64,
    /// Per-bucket count increments as `(inclusive upper bound,
    /// increment)`, ascending, non-zero entries only.
    pub buckets: Vec<(u64, u64)>,
}

/// The difference between two [`MetricsSnapshot`]s of the same
/// registry — everything that was recorded between `pre` and `post`.
///
/// A delta can be replayed into another registry with
/// [`MetricsRegistry::absorb_delta`]; because every instrument update
/// is a commutative atomic, `pre + delta == post` holds exactly, and
/// absorbing a stored delta reproduces the skipped work's telemetry
/// byte-for-byte. This is how warm-started sweeps account for probing
/// they did not repeat.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsDelta {
    /// Counter increments by name, non-zero entries only.
    pub counters: BTreeMap<String, u64>,
    /// Histogram increments by name, recorded-in-window entries only.
    pub histograms: BTreeMap<String, HistogramDelta>,
}

impl MetricsDelta {
    /// True when the window recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

impl MetricsSnapshot {
    /// The increments recorded between `pre` (earlier) and `self`
    /// (later). Counters absent from `pre` count from zero; entries
    /// with no change are dropped, so a quiet window yields an empty
    /// delta regardless of how many instruments exist.
    pub fn delta_from(&self, pre: &MetricsSnapshot) -> MetricsDelta {
        let mut counters = BTreeMap::new();
        for (name, post) in &self.counters {
            let before = pre.counter(name);
            if *post > before {
                counters.insert(name.clone(), post - before);
            }
        }
        let mut histograms = BTreeMap::new();
        for (name, post) in &self.histograms {
            let empty = HistogramSnapshot {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            };
            let before = pre.histogram(name).unwrap_or(&empty);
            if post.count <= before.count {
                continue;
            }
            let pre_buckets: BTreeMap<u64, u64> = before.buckets.iter().copied().collect();
            let buckets = post
                .buckets
                .iter()
                .filter_map(|&(le, c)| {
                    let inc = c - pre_buckets.get(&le).copied().unwrap_or(0);
                    (inc > 0).then_some((le, inc))
                })
                .collect();
            histograms.insert(
                name.clone(),
                HistogramDelta {
                    count: post.count - before.count,
                    sum: post.sum - before.sum,
                    min: post.min,
                    max: post.max,
                    buckets,
                },
            );
        }
        MetricsDelta {
            counters,
            histograms,
        }
    }
}

impl Histogram {
    /// Folds a stored window delta into this histogram. Bucket bounds
    /// map back to indices by bit length (the inverse of
    /// [`Histogram::snapshot`]'s encoding); extrema widen via
    /// `fetch_min`/`fetch_max`.
    fn absorb(&self, d: &HistogramDelta) {
        for &(le, inc) in &d.buckets {
            let bucket = if le == 0 {
                0
            } else if le == u64::MAX {
                64
            } else {
                (64 - le.leading_zeros()) as usize
            };
            self.buckets[bucket].fetch_add(inc, Ordering::Relaxed);
        }
        self.count.fetch_add(d.count, Ordering::Relaxed);
        self.sum.fetch_add(d.sum, Ordering::Relaxed);
        if d.count > 0 {
            self.min.fetch_min(d.min, Ordering::Relaxed);
            self.max.fetch_max(d.max, Ordering::Relaxed);
        }
    }
}

impl MetricsRegistry {
    /// Replays a stored window delta into this registry, creating any
    /// missing instruments. Absorbing the delta of a skipped stage
    /// leaves the registry exactly as if the stage had run.
    pub fn absorb_delta(&self, d: &MetricsDelta) {
        for (name, inc) in &d.counters {
            self.counter(name).add(*inc);
        }
        for (name, hd) in &d.histograms {
            self.histogram(name).absorb(hd);
        }
    }

    /// Folds everything another registry held when `snap` was taken
    /// into this one. Unlike a delta (which drops instruments that are
    /// registered but still at zero), this registers every name in
    /// `snap` first, so absorbing the snapshot of a scratch registry a
    /// stage ran against leaves this registry — and its JSON — exactly
    /// as if the stage had run here.
    pub fn absorb_snapshot(&self, snap: &MetricsSnapshot) {
        for name in snap.counters.keys() {
            self.counter(name);
        }
        for name in snap.histograms.keys() {
            self.histogram(name);
        }
        self.absorb_delta(&snap.delta_from(&MetricsSnapshot::default()));
    }
}

/// Appends `s` as a JSON string literal (metric names are ASCII, but
/// escape the structural characters anyway).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = MetricsRegistry::new();
        let a = m.counter("a");
        let a2 = m.counter("a");
        a.inc();
        a2.add(4);
        assert_eq!(m.counter("a").get(), 5);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 → le 0; 1 → le 1; 2,3 → le 3; 4 → le 7; 1000 → le 1023.
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1)]);
        assert!((s.mean() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn scoped_timer_records_sim_time_span() {
        let m = MetricsRegistry::new();
        let h = m.histogram("stage_ms");
        let t = ScopedTimer::start(Arc::clone(&h), 1_000);
        assert_eq!(t.stop(4_500), 3_500);
        let s = m.snapshot();
        assert_eq!(s.histogram("stage_ms").unwrap().sum, 3_500);
        // Backwards clocks saturate to zero rather than wrapping.
        assert_eq!(ScopedTimer::start(h, 10).stop(5), 0);
    }

    #[test]
    fn snapshot_json_is_stable_and_sorted() {
        let m = MetricsRegistry::new();
        m.counter("z.last").add(1);
        m.counter("a.first").add(2);
        m.histogram("h").record(5);
        let a = m.snapshot().to_json();
        let b = m.snapshot().to_json();
        assert_eq!(a, b);
        let first = a.find("a.first").unwrap();
        let last = a.find("z.last").unwrap();
        assert!(first < last, "keys must serialize sorted");
        assert!(a.contains("\"buckets\": [[7, 1]]"), "{a}");
    }

    #[test]
    fn concurrent_updates_commute() {
        let m = MetricsRegistry::new();
        let c = m.counter("c");
        let h = m.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for v in 0..1000u64 {
                        c.inc();
                        h.record(v % 17);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.counter("c"), 8_000);
        assert_eq!(snap.histogram("h").unwrap().count, 8_000);
        assert_eq!(snap.histogram("h").unwrap().max, 16);
    }

    #[test]
    fn sum_counters_by_prefix() {
        let m = MetricsRegistry::new();
        m.counter("x.a").add(1);
        m.counter("x.b").add(2);
        m.counter("y.a").add(10);
        let s = m.snapshot();
        assert_eq!(s.sum_counters("x."), 3);
        assert_eq!(s.sum_counters("y."), 10);
        assert_eq!(s.sum_counters("z."), 0);
    }

    #[test]
    fn delta_captures_only_the_window() {
        let m = MetricsRegistry::new();
        m.counter("before").add(7);
        m.histogram("h").record(3);
        let pre = m.snapshot();
        m.counter("before").add(2);
        m.counter("during").add(5);
        m.histogram("h").record(100);
        let d = m.snapshot().delta_from(&pre);
        assert_eq!(d.counters.get("before"), Some(&2));
        assert_eq!(d.counters.get("during"), Some(&5));
        assert!(!d.counters.contains_key("quiet"));
        let hd = &d.histograms["h"];
        assert_eq!((hd.count, hd.sum), (1, 100));
        assert_eq!(hd.buckets, vec![(127, 1)]);
    }

    #[test]
    fn quiet_window_yields_empty_delta() {
        let m = MetricsRegistry::new();
        m.counter("a").add(1);
        m.histogram("h").record(9);
        let pre = m.snapshot();
        assert!(m.snapshot().delta_from(&pre).is_empty());
    }

    #[test]
    fn absorbing_a_delta_reproduces_the_skipped_window() {
        // Run a "cold" registry through a window, capture the delta,
        // then absorb it into a registry that skipped the window: the
        // snapshots must be byte-identical.
        let cold = MetricsRegistry::new();
        cold.counter("shared").add(3);
        cold.histogram("ttl").record(0);
        let pre = cold.snapshot();
        cold.counter("shared").add(10);
        cold.counter("window.only").add(4);
        for v in [1u64, 2, 2, 900, u64::MAX] {
            cold.histogram("ttl").record(v);
        }
        let delta = cold.snapshot().delta_from(&pre);

        let warm = MetricsRegistry::new();
        warm.counter("shared").add(3);
        warm.histogram("ttl").record(0);
        warm.absorb_delta(&delta);
        assert_eq!(warm.snapshot().to_json(), cold.snapshot().to_json());
    }

    #[test]
    fn a_delta_does_not_carry_zero_valued_instruments() {
        // The zero-instrument rule: registering an instrument is not a
        // change, so `delta_from` drops a counter still at zero and a
        // histogram with no observations — but a snapshot (and its
        // JSON) lists every *registered* instrument. `absorb_delta`
        // alone therefore leaves them out; replaying a whole stage
        // takes `absorb_snapshot`.
        let live = MetricsRegistry::new();
        let pre = live.snapshot();
        live.counter("stage.seen").add(3);
        live.counter("stage.rejected"); // registered, never incremented
        live.histogram("stage.empty_ms");
        let post = live.snapshot();
        let delta = post.delta_from(&pre);
        assert_eq!(delta.counters.keys().collect::<Vec<_>>(), ["stage.seen"]);
        assert!(delta.histograms.is_empty());

        let replayed = MetricsRegistry::new();
        replayed.absorb_delta(&delta);
        assert_ne!(replayed.snapshot(), post);
        assert!(post.to_json().contains("\"stage.rejected\": 0"));
        assert!(!replayed.snapshot().to_json().contains("stage.rejected"));

        let replayed = MetricsRegistry::new();
        replayed.counter("elsewhere").inc();
        live.counter("elsewhere").inc();
        replayed.absorb_snapshot(&post);
        assert_eq!(replayed.snapshot().to_json(), live.snapshot().to_json());
    }

    #[test]
    fn absorb_into_fresh_histogram_keeps_extrema() {
        let src = MetricsRegistry::new();
        let pre = src.snapshot();
        src.histogram("h").record(17);
        src.histogram("h").record(4);
        let delta = src.snapshot().delta_from(&pre);
        let dst = MetricsRegistry::new();
        dst.absorb_delta(&delta);
        let h = dst.snapshot().histogram("h").cloned().unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 21, 4, 17));
        assert_eq!(h.buckets, vec![(7, 1), (31, 1)]);
    }

    #[test]
    fn json_escapes_structural_characters() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\u0001\"");
    }
}
