//! The fold the record table's views replaced, kept as their oracle:
//! the table replayed, record by record, into one hash map per
//! aggregate, as the result was built before it held the table.

use std::collections::HashMap;

use clientmap_net::{Prefix, PrefixSet};
use clientmap_sim::PopId;
use clientmap_store::{HitStats, ProbeCount, RecordView, SweepSnapshot};

use crate::results::{hit_scope, verdict_table_of, CacheProbeResult};
use crate::vantage::BoundVantage;

/// What the fold produced: the four maps and the probe total.
#[derive(Debug, Default)]
struct Folded {
    hits: HashMap<(usize, Prefix), HitStats>,
    pop_hit_prefixes: HashMap<PopId, PrefixSet>,
    scope_pairs: HashMap<(usize, u8, u8), u64>,
    probe_counts: HashMap<(usize, Prefix), ProbeCount>,
    probes_sent: u64,
}

impl Folded {
    fn record_hit(
        &mut self,
        domain: usize,
        pop: PopId,
        query_scope: Prefix,
        response_scope: Prefix,
        remaining_ttl: u32,
    ) {
        let stats = self.hits.entry((domain, response_scope)).or_default();
        stats.hits += 1;
        stats.min_remaining_ttl = if stats.hits == 1 {
            remaining_ttl
        } else {
            stats.min_remaining_ttl.min(remaining_ttl)
        };
        self.pop_hit_prefixes
            .entry(pop)
            .or_default()
            .insert(response_scope);
        *self
            .scope_pairs
            .entry((domain, query_scope.len(), response_scope.len()))
            .or_insert(0) += 1;
    }
}

/// Replays one stored record into the maps — the step of
/// [`replay_table`]'s fold.
fn replay_record(
    folded: &mut Folded,
    pop: PopId,
    domain: usize,
    scope: Prefix,
    rec: RecordView<'_>,
    redundancy: u32,
) {
    if rec.attempts == 0 {
        return;
    }
    folded.probes_sent += rec.attempts * u64::from(redundancy);
    let c = folded.probe_counts.entry((domain, scope)).or_default();
    c.attempts += rec.attempts;
    c.hits += rec.hits();
    c.scope0 += rec.scope0;
    c.drops += rec.drops;
    for e in rec.hit_events {
        let resp = hit_scope(e.resp_addr, e.resp_len);
        folded.record_hit(domain, pop, scope, resp, e.remaining_ttl);
    }
}

/// The fold, in record-key order, skipping records whose vantage is
/// out of `bound`'s range.
fn replay_table(bound: &[BoundVantage], snapshot: &SweepSnapshot, redundancy: u32) -> Folded {
    let mut folded = Folded::default();
    for ((bi, d, addr, len), rec) in snapshot.records.iter() {
        let Some(b) = bound.get(bi as usize) else {
            continue;
        };
        let scope = Prefix::new(addr, len).expect("record keys hold prefixes");
        replay_record(&mut folded, b.pop, d as usize, scope, rec, redundancy);
    }
    folded
}

/// Asserts that `result`'s views equal the fold of `snapshot`: the
/// hits, probe counts, per-PoP prefixes, scope pairs, probe total
/// and verdict table.
pub(crate) fn assert_views_match(
    result: &CacheProbeResult,
    snapshot: &SweepSnapshot,
    redundancy: u32,
    what: &str,
) {
    assert!(
        result.records.shares(&snapshot.records),
        "{what}: one table"
    );
    let folded = replay_table(&result.bound_vantages, snapshot, redundancy);
    let hits: HashMap<_, _> = result.hits().iter().copied().collect();
    assert_eq!(hits.len(), result.hits().len(), "{what}: hit keys unique");
    assert_eq!(hits, folded.hits, "{what}: hits");
    let counts: HashMap<_, _> = result.probe_counts().iter().copied().collect();
    assert_eq!(
        counts.len(),
        result.probe_counts().len(),
        "{what}: count keys unique"
    );
    assert_eq!(counts, folded.probe_counts, "{what}: probe_counts");
    let pops: HashMap<_, _> = result
        .pop_hit_prefixes()
        .iter()
        .map(|(pop, set)| (*pop, set.prefixes()))
        .collect();
    let oracle: HashMap<_, _> = folded
        .pop_hit_prefixes
        .iter()
        .map(|(pop, set)| (*pop, set.prefixes()))
        .collect();
    assert_eq!(pops, oracle, "{what}: pop_hit_prefixes");
    let pairs: HashMap<_, _> = result.scope_pairs().into_iter().collect();
    assert_eq!(pairs, folded.scope_pairs, "{what}: scope_pairs");
    assert_eq!(
        result.probes_sent, folded.probes_sent,
        "{what}: probes_sent"
    );
    let oracle_table = verdict_table_of(folded.probe_counts.iter(), folded.hits.keys());
    assert!(
        result
            .verdict_table()
            .iter_measured()
            .eq(oracle_table.iter_measured()),
        "{what}: verdict_table"
    );
}
