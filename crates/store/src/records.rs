//! The sweep's record table: every ⟨vantage, domain, scope⟩ slot's
//! outcome counts and hit events, held once and shared.
//!
//! A [`RecordTable`] is a set of immutable columns sorted in the
//! canonical [`RecordKey`] order `CMSS` writes — the keys, the
//! `attempts`/`scope0`/`drops` counts, and per-record end offsets into
//! one [`HitEvent`] arena — behind an `Arc`, so a clone is a pointer
//! copy. Only an ascending [`RecordTableBuilder`] makes one, and nothing
//! mutates it after. Lookups are by index or binary search over the key
//! column.
//!
//! The table also carries its ⟨domain, scope⟩ aggregates — the sorted
//! [`ProbeCount`] and [`HitStats`] views the report reads — built once,
//! on first use, and cached beside the columns. A warm sweep that
//! carries a table forward whole therefore carries those views with it
//! and folds nothing.

use std::fmt;
use std::sync::{Arc, OnceLock};

use clientmap_net::Prefix;

use crate::snapshot::{HitEvent, RecordKey, ScopeRecord};
use crate::verdict::Verdict;

/// Aggregated statistics for one ⟨domain, response-scope⟩ hit family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitStats {
    /// Number of probe events that hit.
    pub hits: u64,
    /// Smallest remaining TTL observed.
    pub min_remaining_ttl: u32,
}

/// Per-⟨domain, query-scope⟩ probe accounting: how often the scope was
/// probed and how often it hit. The hit *rate* is the paper's §6
/// future-work signal for relative activity levels ("we are developing
/// techniques to estimate a prefix's cache hit rates over time and
/// across domains, as a step towards a relative ranking").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCount {
    /// Probe events sent for this scope (each = `redundancy` queries).
    pub attempts: u64,
    /// Probe events that produced a scoped cache hit.
    pub hits: u64,
    /// Probe events answered only with a /0 scope.
    pub scope0: u64,
    /// Probe events lost entirely.
    pub drops: u64,
}

impl ProbeCount {
    /// The observed hit rate, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.hits as f64 / self.attempts as f64
        }
    }

    /// The scope's verdict ([`Verdict::from_counts`]).
    pub fn verdict(&self) -> Verdict {
        Verdict::from_counts(self.attempts, self.hits, self.scope0, self.drops)
    }
}

/// One record of a [`RecordTable`] (or of a [`ScopeRecord`]), borrowed:
/// its outcome counts and its hit events in observation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Probe events sent (each `redundancy` wire queries).
    pub attempts: u64,
    /// Events answered only with a /0 scope.
    pub scope0: u64,
    /// Events lost entirely.
    pub drops: u64,
    /// Cache hits, in observation order.
    pub hit_events: &'a [HitEvent],
}

impl RecordView<'_> {
    /// Events that hit the cache with a usable scope.
    pub fn hits(&self) -> u64 {
        self.hit_events.len() as u64
    }

    /// The slot's verdict ([`Verdict::from_counts`]).
    pub fn verdict(&self) -> Verdict {
        Verdict::from_counts(self.attempts, self.hits(), self.scope0, self.drops)
    }

    /// An owned copy.
    pub fn to_record(&self) -> ScopeRecord {
        ScopeRecord {
            attempts: self.attempts,
            scope0: self.scope0,
            drops: self.drops,
            hit_events: self.hit_events.to_vec(),
        }
    }
}

/// A sweep's per-scope records as sorted, immutable, shared columns
/// (see the module docs). `Clone` is `O(1)`; equality compares the
/// records, never the cached views.
#[derive(Clone, Default)]
pub struct RecordTable {
    cols: Arc<Columns>,
}

#[derive(Default)]
struct Columns {
    keys: Vec<RecordKey>,
    attempts: Vec<u64>,
    scope0: Vec<u64>,
    drops: Vec<u64>,
    /// Record `i`'s hit events are `hits[hit_ends[i - 1]..hit_ends[i]]`
    /// (from 0 for the first record).
    hit_ends: Vec<u32>,
    hits: Vec<HitEvent>,
    views: OnceLock<Views>,
}

/// The table's ⟨domain, scope⟩ aggregates over its measured records
/// (`attempts > 0`), each sorted by ⟨domain, scope⟩.
#[derive(Debug, Default)]
struct Views {
    probe_counts: Vec<((usize, Prefix), ProbeCount)>,
    hit_families: Vec<((usize, Prefix), HitStats)>,
    attempts: u64,
}

impl RecordTable {
    /// The table of `records`, which must come strictly ascending by
    /// key (a `BTreeMap`'s iteration, a key-ordered merge).
    ///
    /// # Panics
    ///
    /// On a key not strictly above the one before it.
    pub fn from_ascending(records: impl IntoIterator<Item = (RecordKey, ScopeRecord)>) -> Self {
        let mut b = RecordTableBuilder::default();
        for (key, rec) in records {
            b.push(key, rec.view());
        }
        b.finish()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.cols.keys.len()
    }

    /// Whether the table holds no record.
    pub fn is_empty(&self) -> bool {
        self.cols.keys.is_empty()
    }

    /// Hit events over every record (the arena's length).
    pub fn num_hit_events(&self) -> usize {
        self.cols.hits.len()
    }

    /// The key column, ascending.
    pub fn keys(&self) -> &[RecordKey] {
        &self.cols.keys
    }

    /// Record `i` (in key order).
    pub fn record(&self, i: usize) -> RecordView<'_> {
        let c = &*self.cols;
        let start = if i == 0 {
            0
        } else {
            c.hit_ends[i - 1] as usize
        };
        RecordView {
            attempts: c.attempts[i],
            scope0: c.scope0[i],
            drops: c.drops[i],
            hit_events: &c.hits[start..c.hit_ends[i] as usize],
        }
    }

    /// Every record with its key, in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (RecordKey, RecordView<'_>)> + '_ {
        (0..self.len()).map(|i| (self.cols.keys[i], self.record(i)))
    }

    /// The record at `key`, by binary search.
    pub fn get(&self, key: &RecordKey) -> Option<RecordView<'_>> {
        self.cols
            .keys
            .binary_search(key)
            .ok()
            .map(|i| self.record(i))
    }

    /// Whether `self` and `other` are one shared table (not merely
    /// equal ones).
    pub fn shares(&self, other: &RecordTable) -> bool {
        Arc::ptr_eq(&self.cols, &other.cols)
    }

    /// Per-⟨domain, query scope⟩ outcome counts summed over vantages,
    /// ascending by ⟨domain, scope⟩. Records with no probe event are
    /// not counted. Built on first use and cached on the table.
    pub fn probe_counts(&self) -> &[((usize, Prefix), ProbeCount)] {
        &self.views().probe_counts
    }

    /// Per-⟨domain, response scope⟩ hit families over every vantage,
    /// ascending by ⟨domain, scope⟩. Built on first use and cached on
    /// the table.
    pub fn hit_families(&self) -> &[((usize, Prefix), HitStats)] {
        &self.views().hit_families
    }

    /// Probe events over every record (the views' `attempts` sum).
    /// Builds the views if nothing has yet.
    pub fn attempts_total(&self) -> u64 {
        self.views().attempts
    }

    fn views(&self) -> &Views {
        self.cols.views.get_or_init(|| self.cols.build_views())
    }
}

/// `(domain, addr, len)` packed so that integer order is tuple order.
fn pack(domain: u16, addr: u32, len: u8) -> u64 {
    (u64::from(domain) << 40) | (u64::from(addr) << 8) | u64::from(len)
}

fn unpack(k: u64) -> (usize, Prefix) {
    let scope = Prefix::new((k >> 8) as u32, k as u8).expect("packed from a prefix");
    ((k >> 40) as usize, scope)
}

impl Columns {
    /// One pass per view. Each vantage's records are one run already
    /// ascending by ⟨domain, scope⟩, so the stable (run-adaptive) sort
    /// of the probe counts merges runs; the hit events sort once.
    fn build_views(&self) -> Views {
        let mut attempts = 0u64;
        let mut measured: Vec<(u64, u32)> = Vec::with_capacity(self.keys.len());
        let mut events: Vec<(u64, u32)> = Vec::with_capacity(self.hits.len());
        let mut start = 0usize;
        for (i, &(_, d, addr, len)) in self.keys.iter().enumerate() {
            let end = self.hit_ends[i] as usize;
            if self.attempts[i] > 0 {
                attempts += self.attempts[i];
                measured.push((pack(d, addr, len), i as u32));
                for e in &self.hits[start..end] {
                    events.push((pack(d, e.resp_addr, e.resp_len), e.remaining_ttl));
                }
            }
            start = end;
        }
        measured.sort_by_key(|&(k, _)| k);
        let mut probe_counts: Vec<(u64, ProbeCount)> = Vec::with_capacity(measured.len());
        for (k, i) in measured {
            let i = i as usize;
            let start = if i == 0 { 0 } else { self.hit_ends[i - 1] };
            let c = ProbeCount {
                attempts: self.attempts[i],
                hits: u64::from(self.hit_ends[i] - start),
                scope0: self.scope0[i],
                drops: self.drops[i],
            };
            match probe_counts.last_mut() {
                Some((last, sum)) if *last == k => {
                    sum.attempts += c.attempts;
                    sum.hits += c.hits;
                    sum.scope0 += c.scope0;
                    sum.drops += c.drops;
                }
                _ => probe_counts.push((k, c)),
            }
        }
        events.sort_unstable_by_key(|&(k, _)| k);
        let mut hit_families: Vec<(u64, HitStats)> = Vec::new();
        for (k, ttl) in events {
            match hit_families.last_mut() {
                Some((last, stats)) if *last == k => {
                    stats.hits += 1;
                    stats.min_remaining_ttl = stats.min_remaining_ttl.min(ttl);
                }
                _ => hit_families.push((
                    k,
                    HitStats {
                        hits: 1,
                        min_remaining_ttl: ttl,
                    },
                )),
            }
        }
        Views {
            probe_counts: probe_counts
                .into_iter()
                .map(|(k, c)| (unpack(k), c))
                .collect(),
            hit_families: hit_families
                .into_iter()
                .map(|(k, s)| (unpack(k), s))
                .collect(),
            attempts,
        }
    }
}

impl PartialEq for RecordTable {
    fn eq(&self, other: &RecordTable) -> bool {
        let (a, b) = (&*self.cols, &*other.cols);
        self.shares(other)
            || (a.keys == b.keys
                && a.attempts == b.attempts
                && a.scope0 == b.scope0
                && a.drops == b.drops
                && a.hit_ends == b.hit_ends
                && a.hits == b.hits)
    }
}

impl Eq for RecordTable {}

impl fmt::Debug for RecordTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Builds a [`RecordTable`] one record at a time, in strictly
/// ascending key order — the one way a table is made.
#[derive(Default)]
pub struct RecordTableBuilder {
    cols: Columns,
}

impl RecordTableBuilder {
    /// A builder with room for `records` records and `hits` hit events.
    pub fn with_capacity(records: usize, hits: usize) -> Self {
        let mut b = RecordTableBuilder::default();
        b.reserve(records);
        b.reserve_hits(hits);
        b
    }

    /// Room for `records` more records.
    pub fn reserve(&mut self, records: usize) {
        let c = &mut self.cols;
        c.keys.reserve(records);
        c.attempts.reserve(records);
        c.scope0.reserve(records);
        c.drops.reserve(records);
        c.hit_ends.reserve(records);
    }

    /// Room for `hits` more hit events.
    pub fn reserve_hits(&mut self, hits: usize) {
        self.cols.hits.reserve(hits);
    }

    /// The key of the last record pushed.
    pub fn last_key(&self) -> Option<RecordKey> {
        self.cols.keys.last().copied()
    }

    /// Appends a hit event to the record being built; the next
    /// [`RecordTableBuilder::close`] takes every event appended since
    /// the record before it.
    pub fn push_hit(&mut self, e: HitEvent) {
        self.cols.hits.push(e);
    }

    /// Closes the record being built under `key`, with these counts and
    /// the hit events pushed since the previous record.
    ///
    /// # Panics
    ///
    /// When `key` is not strictly above the last key, or the arena
    /// outgrows `u32` offsets.
    pub fn close(&mut self, key: RecordKey, attempts: u64, scope0: u64, drops: u64) {
        let c = &mut self.cols;
        assert!(
            c.keys.last().is_none_or(|last| *last < key),
            "record table keys must be strictly ascending: {key:?} after {:?}",
            c.keys.last()
        );
        c.keys.push(key);
        c.attempts.push(attempts);
        c.scope0.push(scope0);
        c.drops.push(drops);
        c.hit_ends
            .push(u32::try_from(c.hits.len()).expect("hit arena fits u32 offsets"));
    }

    /// Appends one whole record.
    ///
    /// # Panics
    ///
    /// As [`RecordTableBuilder::close`].
    pub fn push(&mut self, key: RecordKey, rec: RecordView<'_>) {
        self.cols.hits.extend_from_slice(rec.hit_events);
        self.close(key, rec.attempts, rec.scope0, rec.drops);
    }

    /// The finished, shared table.
    pub fn finish(self) -> RecordTable {
        RecordTable {
            cols: Arc::new(self.cols),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(addr: u32, len: u8, ttl: u32) -> HitEvent {
        HitEvent {
            resp_addr: addr,
            resp_len: len,
            remaining_ttl: ttl,
        }
    }

    fn rec(attempts: u64, hit_events: Vec<HitEvent>) -> ScopeRecord {
        ScopeRecord {
            attempts,
            hit_events,
            ..ScopeRecord::default()
        }
    }

    #[test]
    fn lookups_clones_and_views() {
        let t = RecordTable::from_ascending([
            (
                (0, 0, 0x0A00_0000, 24),
                rec(3, vec![hit(0x0A00_0000, 24, 9)]),
            ),
            ((0, 1, 0x0A00_0000, 24), rec(0, Vec::new())),
            (
                (1, 0, 0x0A00_0000, 24),
                rec(2, vec![hit(0x0A00_0000, 24, 4), hit(0x0A00_0000, 22, 7)]),
            ),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(&(0, 1, 0x0A00_0000, 24)).unwrap().attempts, 0);
        assert!(t.get(&(0, 2, 0x0A00_0000, 24)).is_none());
        assert_eq!(t.record(2).hits(), 2);
        let shared = t.clone();
        assert!(shared.shares(&t) && shared == t);
        // Two vantages probed 10.0.0.0/24 for domain 0; domain 1's
        // record saw no probe event and is not counted.
        let scope: Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(
            t.probe_counts(),
            &[(
                (0, scope),
                ProbeCount {
                    attempts: 5,
                    hits: 3,
                    scope0: 0,
                    drops: 0,
                }
            )]
        );
        let wide: Prefix = "10.0.0.0/22".parse().unwrap();
        assert_eq!(
            t.hit_families(),
            &[
                (
                    (0, wide),
                    HitStats {
                        hits: 1,
                        min_remaining_ttl: 7,
                    }
                ),
                (
                    (0, scope),
                    HitStats {
                        hits: 2,
                        min_remaining_ttl: 4,
                    }
                ),
            ]
        );
        assert_eq!(t.attempts_total(), 5);
        // The views are cached on the shared columns.
        assert!(std::ptr::eq(t.probe_counts(), shared.probe_counts()));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn the_builder_refuses_a_repeated_key() {
        RecordTable::from_ascending([
            ((0, 0, 0, 24), ScopeRecord::default()),
            ((0, 0, 0, 24), ScopeRecord::default()),
        ]);
    }
}
