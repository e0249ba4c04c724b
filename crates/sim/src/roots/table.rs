//! One root letter's trace records, stored column by column.

use std::fmt::Write as _;

use clientmap_dns::DomainName;

/// One root letter's trace records: each a (resolver, name) pair with
/// per-day query counts over the capture window, aggregated.
///
/// The records are columns, so no record owns a heap allocation: a
/// resolver column, one arena of every name's presentation bytes
/// (lowercase, dot-separated) with a `u32` end offset per record, and
/// one flat column of day counts with an end offset per record. Count
/// runs may be ragged (a hand-built record can carry more days than its
/// capture window).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceTable {
    resolvers: Vec<u32>,
    names: String,
    name_ends: Vec<u32>,
    counts: Vec<u32>,
    count_ends: Vec<u32>,
}

/// `len` as an arena offset.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a trace table column fits u32 offsets")
}

impl TraceTable {
    /// An empty table with room for exactly `records` records,
    /// `name_bytes` name bytes and `count_cells` day counts.
    pub(super) fn with_capacity(records: usize, name_bytes: usize, count_cells: usize) -> Self {
        TraceTable {
            resolvers: Vec::with_capacity(records),
            names: String::with_capacity(name_bytes),
            name_ends: Vec::with_capacity(records),
            counts: Vec::with_capacity(count_cells),
            count_ends: Vec::with_capacity(records),
        }
    }

    /// Appends a record whose name `write_name` appends to the arena.
    pub(super) fn push_with(
        &mut self,
        resolver: u32,
        write_name: impl FnOnce(&mut String),
        counts: &[u32],
    ) {
        write_name(&mut self.names);
        self.resolvers.push(resolver);
        self.name_ends.push(offset(self.names.len()));
        self.counts.extend_from_slice(counts);
        self.count_ends.push(offset(self.counts.len()));
    }

    /// Appends a record for `name` (its presentation form, so validated
    /// and lowercased as [`DomainName`] parses it) from `resolver`, with
    /// `counts` queries per capture day.
    pub fn push(&mut self, resolver: u32, name: &DomainName, counts: &[u32]) {
        self.push_with(
            resolver,
            |arena| write!(arena, "{name}").expect("writing to a String cannot fail"),
            counts,
        );
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.resolvers.len()
    }

    /// Whether the table holds no record.
    pub fn is_empty(&self) -> bool {
        self.resolvers.is_empty()
    }

    /// `ends[i - 1]..ends[i]`, from 0 for the first record.
    fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { ends[i - 1] as usize };
        start..ends[i] as usize
    }

    /// Record `i`'s source address (the recursive resolver).
    pub fn resolver(&self, i: usize) -> u32 {
        self.resolvers[i]
    }

    /// Record `i`'s queried name, in presentation form.
    pub fn name(&self, i: usize) -> &str {
        &self.names[Self::span(&self.name_ends, i)]
    }

    /// Record `i`'s queries per capture day.
    pub fn counts(&self, i: usize) -> &[u32] {
        &self.counts[Self::span(&self.count_ends, i)]
    }

    /// Record `i`'s queries across the window.
    pub fn total(&self, i: usize) -> u64 {
        self.counts(i).iter().map(|&c| u64::from(c)).sum()
    }

    /// The records in order, as (resolver, name, counts).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str, &[u32])> + '_ {
        (0..self.len()).map(|i| (self.resolver(i), self.name(i), self.counts(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushed_records_read_back_ragged_and_lowercased() {
        let mut t = TraceTable::default();
        t.push(1, &"WWW.Example.com".parse().unwrap(), &[50, 50]);
        t.push(2, &"abcdefgh".parse().unwrap(), &[]);
        t.push(3, &"pastthewindow".parse().unwrap(), &[0, 0, 70]);
        assert_eq!(t.len(), 3);
        let rows: Vec<_> = t.iter().collect();
        assert_eq!(
            rows,
            [
                (1, "www.example.com", &[50, 50][..]),
                (2, "abcdefgh", &[][..]),
                (3, "pastthewindow", &[0, 0, 70][..]),
            ]
        );
        assert_eq!((t.total(0), t.total(1), t.total(2)), (100, 0, 70));
    }

    #[test]
    fn exact_capacity_is_not_exceeded() {
        let mut t = TraceTable::with_capacity(2, 8, 4);
        let caps = |t: &TraceTable| {
            [
                t.resolvers.capacity(),
                t.names.capacity(),
                t.name_ends.capacity(),
                t.counts.capacity(),
                t.count_ends.capacity(),
            ]
        };
        let before = caps(&t);
        t.push_with(9, |a| a.push_str("abcd"), &[1, 2]);
        t.push_with(9, |a| a.push_str("efgh"), &[3, 4]);
        assert_eq!(caps(&t), before);
        assert_eq!((t.name(1), t.counts(1)), ("efgh", &[3, 4][..]));
    }
}
