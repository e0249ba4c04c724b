//! A dense small-integer table over the /24 space — the radix sibling
//! of [`crate::Slash24Bitset`] for per-/24 tags rather than membership.

use std::collections::BTreeMap;

use crate::bitset::SLASH24_SPACE;

/// Entries per lazily allocated page.
const PAGE_SLOTS: usize = 4096;

/// One `u8` per /24 across the whole IPv4 space; 0 is the implicit
/// default, so untouched space costs nothing.
///
/// Used as the scope-scan dedup table (tag = scope length + 1) and as
/// the backing of [`crate::VerdictTable`].
#[derive(Debug, Clone, Default)]
pub struct Slash24Table {
    pages: BTreeMap<u32, Box<[u8; PAGE_SLOTS]>>,
    nonzero: u64,
}

impl Slash24Table {
    /// An all-zero table.
    pub fn new() -> Slash24Table {
        Slash24Table::default()
    }

    /// The tag at /24 index `idx` (0 when never set).
    pub fn get(&self, idx: u32) -> u8 {
        if idx as usize >= SLASH24_SPACE {
            return 0;
        }
        self.pages
            .get(&(idx >> 12))
            .map_or(0, |page| page[(idx & 4095) as usize])
    }

    /// Stores `tag` at /24 index `idx`; returns the previous tag.
    pub fn set(&mut self, idx: u32, tag: u8) -> u8 {
        assert!((idx as usize) < SLASH24_SPACE, "/24 index out of range");
        let page = self
            .pages
            .entry(idx >> 12)
            .or_insert_with(|| Box::new([0u8; PAGE_SLOTS]));
        let slot = (idx & 4095) as usize;
        let prev = page[slot];
        page[slot] = tag;
        match (prev, tag) {
            (0, t) if t != 0 => self.nonzero += 1,
            (p, 0) if p != 0 => self.nonzero -= 1,
            _ => {}
        }
        prev
    }

    /// Number of /24s holding a non-zero tag.
    pub fn count_nonzero(&self) -> u64 {
        self.nonzero
    }

    /// The allocated part of `[first, first + n)`, as tag slices in
    /// ascending index order: one slice per allocated page the range
    /// touches, clipped to the range. Indexes the slices leave out
    /// (never-allocated pages, anything past the /24 space) hold tag
    /// 0. The cost is O(log pages + pages touched), not O(n).
    pub fn range_slices(&self, first: u32, n: u64) -> impl Iterator<Item = &[u8]> + '_ {
        let start = u64::from(first);
        let end = start.saturating_add(n).min(SLASH24_SPACE as u64);
        // An empty range has no last index (and `BTreeMap::range`
        // panics on an inverted one): it walks no pages at all.
        let keys = (start < end).then(|| (start >> 12) as u32..=((end - 1) >> 12) as u32);
        keys.into_iter()
            .flat_map(|keys| self.pages.range(keys))
            .map(move |(&key, page)| {
                let base = u64::from(key) << 12;
                let lo = start.max(base) - base;
                let hi = end.min(base + PAGE_SLOTS as u64) - base;
                &page[lo as usize..hi as usize]
            })
    }

    /// `(key, tags)` for every allocated page, ascending by key; page
    /// `key` holds /24 indexes `key << 12 .. (key + 1) << 12` — one
    /// /12 of address space.
    pub fn pages(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.pages.iter().map(|(&key, page)| (key, &page[..]))
    }

    /// `(index, tag)` for every non-zero entry, ascending by index —
    /// the canonical iteration order shared with a sorted reference
    /// model.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.pages.iter().flat_map(|(k, page)| {
            let base = k << 12;
            page.iter()
                .enumerate()
                .filter(|(_, &tag)| tag != 0)
                .map(move |(slot, &tag)| (base + slot as u32, tag))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero_and_sets_round_trip() {
        let mut t = Slash24Table::new();
        assert_eq!(t.get(12345), 0);
        assert_eq!(t.set(12345, 7), 0);
        assert_eq!(t.set(12345, 9), 7);
        assert_eq!(t.get(12345), 9);
        assert_eq!(t.get(12346), 0);
        assert_eq!(t.count_nonzero(), 1);
        t.set(12345, 0);
        assert_eq!(t.count_nonzero(), 0);
    }

    #[test]
    fn iterates_nonzero_ascending_across_pages() {
        let mut t = Slash24Table::new();
        t.set(0xFFFFFF, 1);
        t.set(0, 2);
        t.set(5000, 3);
        assert_eq!(
            t.iter_nonzero().collect::<Vec<_>>(),
            vec![(0, 2), (5000, 3), (0xFFFFFF, 1)]
        );
    }
}
