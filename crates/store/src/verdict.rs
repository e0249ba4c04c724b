//! Per-/24 probe verdicts with the technique's merge ranking.

use crate::Slash24Table;

/// The best probing evidence seen for one /24, ordered by the same
/// ranking the probe loops use to merge redundant queries:
/// `Hit > HitScopeZero > Miss > Dropped` (> `Unmeasured`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum Verdict {
    /// Never probed (or assigned but never reached).
    #[default]
    Unmeasured = 0,
    /// Probed, every attempt lost.
    Dropped = 1,
    /// Probed, answered, never present in any cache.
    Miss = 2,
    /// Answered only with a /0 scope (cached, location unusable).
    HitScopeZero = 3,
    /// Cached with a usable scope — active client space.
    Hit = 4,
}

impl Verdict {
    /// All verdicts, ascending by rank.
    pub const ALL: [Verdict; 5] = [
        Verdict::Unmeasured,
        Verdict::Dropped,
        Verdict::Miss,
        Verdict::HitScopeZero,
        Verdict::Hit,
    ];

    /// The verdict encoded by `v`, if valid.
    pub fn from_u8(v: u8) -> Option<Verdict> {
        Verdict::ALL.get(v as usize).copied()
    }

    /// The best evidence among one slot's probe events: `attempts`
    /// events, of which `hits` hit with a usable scope, `scope0` were
    /// answered only with a /0 scope and `drops` were lost. The one
    /// rule behind stored records, probe counts and prior verdicts.
    pub fn from_counts(attempts: u64, hits: u64, scope0: u64, drops: u64) -> Verdict {
        if hits > 0 {
            Verdict::Hit
        } else if scope0 > 0 {
            Verdict::HitScopeZero
        } else if attempts > drops {
            Verdict::Miss
        } else if attempts > 0 {
            Verdict::Dropped
        } else {
            Verdict::Unmeasured
        }
    }
}

/// A dense per-/24 [`Verdict`] map over the whole IPv4 space.
///
/// Recording merges by max rank, so the table converges to the best
/// evidence regardless of insertion order — exactly the commutativity
/// the deterministic executor's ordered reduction relies on.
#[derive(Debug, Clone, Default)]
pub struct VerdictTable {
    table: Slash24Table,
}

impl VerdictTable {
    /// An all-[`Verdict::Unmeasured`] table.
    pub fn new() -> VerdictTable {
        VerdictTable::default()
    }

    /// The verdict for /24 index `idx`.
    pub fn get(&self, idx: u32) -> Verdict {
        Verdict::from_u8(self.table.get(idx)).unwrap_or(Verdict::Unmeasured)
    }

    /// Merges `v` into /24 index `idx` by max rank; returns the
    /// resulting verdict.
    pub fn record(&mut self, idx: u32, v: Verdict) -> Verdict {
        let best = self.get(idx).max(v);
        if best != Verdict::Unmeasured {
            self.table.set(idx, best as u8);
        }
        best
    }

    /// Overwrites /24 index `idx` with `v`, rank regardless —
    /// [`Verdict::Unmeasured`] clears the slot. This is the event-log
    /// replay primitive: a later generation's verdict *replaces* the
    /// earlier one (activity can lapse), unlike [`VerdictTable::record`]
    /// which merges redundant probes of one sweep by max rank.
    pub fn set(&mut self, idx: u32, v: Verdict) {
        self.table.set(idx, v as u8);
    }

    /// Folds every measured entry of `other` into `self`.
    pub fn merge_from(&mut self, other: &VerdictTable) {
        for (idx, v) in other.iter_measured() {
            self.record(idx, v);
        }
    }

    /// Number of /24s with any verdict above [`Verdict::Unmeasured`].
    pub fn count_measured(&self) -> u64 {
        self.table.count_nonzero()
    }

    /// How many of the `n` /24s from index `first` hold each verdict,
    /// indexed by `Verdict as u8` — what a [`VerdictTable::get`] loop
    /// over `[first, first + n)` would count (so unallocated space,
    /// indexes past the /24 space and invalid tags are all
    /// [`Verdict::Unmeasured`]), at the cost of the allocated pages
    /// the range touches rather than of `n` lookups.
    pub fn histogram(&self, first: u32, n: u64) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for tags in self.table.range_slices(first, n) {
            for (total, part) in counts.iter_mut().zip(count_tags(tags)) {
                *total += u64::from(part);
            }
        }
        counts[0] = n - counts[1..].iter().sum::<u64>();
        counts
    }

    /// `(page, histogram)` for every allocated 4 096-entry page (one
    /// /12 of address space), ascending: the verdict counts of /24
    /// indexes `page << 12 .. (page + 1) << 12`. Summing whole pages
    /// answers an aligned range without reading a single tag.
    pub fn page_histograms(&self) -> impl Iterator<Item = (u32, [u32; 5])> + '_ {
        self.table.pages().map(|(page, tags)| {
            let mut counts = count_tags(tags);
            counts[0] = tags.len() as u32 - counts[1..].iter().sum::<u32>();
            (page, counts)
        })
    }

    /// `(index, verdict)` for every measured /24, ascending by index.
    pub fn iter_measured(&self) -> impl Iterator<Item = (u32, Verdict)> + '_ {
        self.table
            .iter_nonzero()
            .map(|(idx, v)| (idx, Verdict::from_u8(v).unwrap_or(Verdict::Unmeasured)))
    }
}

/// Occurrences of each measured verdict's tag in `tags`. Slot 0 is
/// left at zero for the caller to fill with the remainder: tag 0 and
/// tags no verdict encodes both read as [`Verdict::Unmeasured`]. One
/// pass per verdict, each a byte compare the compiler vectorises.
fn count_tags(tags: &[u8]) -> [u32; 5] {
    let mut counts = [0u32; 5];
    for v in &Verdict::ALL[1..] {
        counts[*v as usize] = tags.iter().filter(|&&t| t == *v as u8).count() as u32;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_rank_hit_over_scope0_over_miss_over_dropped() {
        assert_eq!(Verdict::from_counts(4, 1, 1, 1), Verdict::Hit);
        assert_eq!(Verdict::from_counts(3, 0, 2, 0), Verdict::HitScopeZero);
        assert_eq!(Verdict::from_counts(3, 0, 0, 1), Verdict::Miss);
        assert_eq!(Verdict::from_counts(2, 0, 0, 2), Verdict::Dropped);
        assert_eq!(Verdict::from_counts(0, 0, 0, 0), Verdict::Unmeasured);
    }

    #[test]
    fn record_merges_by_rank() {
        let mut t = VerdictTable::new();
        assert_eq!(t.record(7, Verdict::Miss), Verdict::Miss);
        assert_eq!(t.record(7, Verdict::Dropped), Verdict::Miss);
        assert_eq!(t.record(7, Verdict::Hit), Verdict::Hit);
        assert_eq!(t.get(7), Verdict::Hit);
        assert_eq!(t.get(8), Verdict::Unmeasured);
        assert_eq!(t.count_measured(), 1);
    }

    #[test]
    fn merge_from_is_max_per_slot() {
        let mut a = VerdictTable::new();
        a.record(1, Verdict::Miss);
        a.record(2, Verdict::Hit);
        let mut b = VerdictTable::new();
        b.record(1, Verdict::HitScopeZero);
        b.record(3, Verdict::Dropped);
        a.merge_from(&b);
        assert_eq!(
            a.iter_measured().collect::<Vec<_>>(),
            vec![
                (1, Verdict::HitScopeZero),
                (2, Verdict::Hit),
                (3, Verdict::Dropped)
            ]
        );
    }

    /// What `histogram` must equal: one `get` per index.
    fn histogram_by_get(t: &VerdictTable, first: u32, n: u64) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for idx in u64::from(first)..u64::from(first) + n {
            // Past u32 there is nothing to look up, as past 2^24.
            let v = u32::try_from(idx).map_or(Verdict::Unmeasured, |idx| t.get(idx));
            counts[v as usize] += 1;
        }
        counts
    }

    /// Pages the generated tables populate — neighbours (0, 1, 2), a
    /// lone page behind a gap (7), and the last two of the /24 space.
    const PAGES: [u32; 6] = [0, 1, 2, 7, 4094, 4095];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The range histogram equals a `get` loop for ranges that
        /// start in populated or empty pages, cross page boundaries and
        /// gaps, are empty, or end at or beyond 2^24 — over raw tags
        /// that include values no verdict encodes.
        #[test]
        fn histogram_matches_a_get_loop(
            cells in proptest::collection::vec((0usize..PAGES.len(), 0u32..4096, 0u8..8), 0..200),
            start_page in 0u32..10,
            from_the_end in proptest::arbitrary::any::<bool>(),
            start_slot in 0u32..4096,
            n in prop_oneof![0u64..3, 0u64..4096, 4096u64..(3 * 4096 + 2)],
        ) {
            let mut table = Slash24Table::new();
            for (page, slot, tag) in &cells {
                table.set((PAGES[*page] << 12) + slot, *tag);
            }
            let t = VerdictTable { table };
            // `from_the_end` starts in the last three pages, so the
            // range runs up to, or over, the end of the space.
            let page = if from_the_end { 4093 + start_page % 3 } else { start_page };
            let first = (page << 12) + start_slot;
            prop_assert_eq!(t.histogram(first, n), histogram_by_get(&t, first, n));
        }

        /// Per-page histograms cover each allocated page exactly, and
        /// their measured counts add up to `count_measured()`.
        #[test]
        fn page_histograms_sum_to_the_measured_count(
            cells in proptest::collection::vec((0usize..PAGES.len(), 0u32..4096, 1u8..=4), 0..200),
        ) {
            let mut t = VerdictTable::new();
            for (page, slot, tag) in &cells {
                t.record((PAGES[*page] << 12) + slot, Verdict::from_u8(*tag).unwrap());
            }
            let mut measured = 0u64;
            for (page, counts) in t.page_histograms() {
                prop_assert_eq!(counts.iter().sum::<u32>(), 4096);
                prop_assert_eq!(
                    counts.map(u64::from),
                    histogram_by_get(&t, page << 12, 4096)
                );
                measured += counts[1..].iter().map(|c| u64::from(*c)).sum::<u64>();
            }
            prop_assert_eq!(measured, t.count_measured());
        }
    }

    #[test]
    fn histogram_of_the_whole_space_and_of_nothing() {
        let mut t = VerdictTable::new();
        t.record(0, Verdict::Hit);
        t.record(4095, Verdict::Miss);
        t.record(4096, Verdict::Hit);
        t.record(0xFF_FFFF, Verdict::Dropped);
        assert_eq!(t.histogram(0, 1 << 24), [(1 << 24) - 4, 1, 1, 0, 2]);
        assert_eq!(t.histogram(0xFF_FFFF, 1), [0, 1, 0, 0, 0]);
        assert_eq!(t.histogram(4095, 2), [0, 0, 1, 0, 1]);
        assert_eq!(t.histogram(4096, 0), [0; 5]);
        // Past the space everything is unmeasured, as `get` says.
        assert_eq!(t.histogram(0xFF_FFFF, 3), [2, 1, 0, 0, 0]);
        assert_eq!(t.histogram(u32::MAX, 5), [5, 0, 0, 0, 0]);
    }
}
