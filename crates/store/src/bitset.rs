//! Dense membership over the 2²⁴ /24 space: a fixed-stride radix of
//! lazily allocated bit pages.

use std::collections::BTreeMap;

use clientmap_net::{Asn, Prefix, Rib};

/// Number of /24s in the IPv4 space.
pub const SLASH24_SPACE: usize = 1 << 24;

/// /24s per page; pages allocate lazily, so sparse universes stay
/// small while lookups remain two array indexes deep.
const PAGE_SLOTS: usize = 4096;
/// 64-bit words per page.
const PAGE_WORDS: usize = PAGE_SLOTS / 64;

/// A bitset over every /24 in the IPv4 space (index = `addr >> 8`).
///
/// Fixed stride: page `i >> 12`, bit `i & 4095`. Set algebra
/// (intersection/union counts) runs word-wise with popcount, which is
/// what makes dataset overlap matrices cheap at full-universe scale.
#[derive(Debug, Clone, Default)]
pub struct Slash24Bitset {
    pages: BTreeMap<u32, Box<[u64; PAGE_WORDS]>>,
    ones: u64,
}

impl Slash24Bitset {
    /// An empty set.
    pub fn new() -> Slash24Bitset {
        Slash24Bitset::default()
    }

    /// Builds the set of /24s covered by `prefixes`.
    pub fn from_prefixes<'a, I: IntoIterator<Item = &'a Prefix>>(prefixes: I) -> Slash24Bitset {
        let mut s = Slash24Bitset::new();
        for p in prefixes {
            s.insert_prefix(*p);
        }
        s
    }

    /// Sets the bit for /24 index `idx`; returns whether it was newly
    /// set.
    pub fn insert(&mut self, idx: u32) -> bool {
        assert!((idx as usize) < SLASH24_SPACE, "/24 index out of range");
        let page = self
            .pages
            .entry(idx >> 12)
            .or_insert_with(|| Box::new([0u64; PAGE_WORDS]));
        let slot = (idx & 4095) as usize;
        let (word, bit) = (slot / 64, slot % 64);
        let fresh = page[word] & (1 << bit) == 0;
        page[word] |= 1 << bit;
        self.ones += u64::from(fresh);
        fresh
    }

    /// Sets every /24 covered by `p` (a `/25`-or-longer prefix marks
    /// just its containing /24, matching [`Prefix::num_slash24s`]).
    pub fn insert_prefix(&mut self, p: Prefix) {
        let first = p.first_addr() >> 8;
        let n = p.num_slash24s() as u32;
        for idx in first..first + n {
            self.insert(idx);
        }
    }

    /// Whether /24 index `idx` is set.
    pub fn contains(&self, idx: u32) -> bool {
        if idx as usize >= SLASH24_SPACE {
            return false;
        }
        self.pages.get(&(idx >> 12)).is_some_and(|page| {
            let slot = (idx & 4095) as usize;
            page[slot / 64] & (1 << (slot % 64)) != 0
        })
    }

    /// Whether the /24 containing `addr` is set.
    pub fn contains_addr(&self, addr: u32) -> bool {
        self.contains(addr >> 8)
    }

    /// Whether `idx` or any of its *aligned ancestors* — the indexes
    /// obtained by clearing the low `k` bits of `idx`, `k` in
    /// `0..=max_clear` — is set. When the set holds the base /24 of
    /// every prefix in some collection, this answers "could a prefix of
    /// length ≥ 24 − max_clear cover this /24?" without walking the
    /// candidate lengths through a map: ancestors with `k ≤ 6` all land
    /// in one 64-bit word and collapse to a single mask test, and the
    /// at-most 18 coarser ones fall back to indexed probes.
    pub fn ancestor_hit(&self, idx: u32, max_clear: u8) -> bool {
        if self.ones == 0 || idx as usize >= SLASH24_SPACE {
            return false;
        }
        if let Some(page) = self.pages.get(&(idx >> 12)) {
            let word = page[((idx & 4095) / 64) as usize];
            if word & ancestor_word_mask(idx & 63, max_clear.min(6)) != 0 {
                return true;
            }
        }
        // Coarser ancestors leave the word (and eventually the page).
        // Clearing an already-zero bit repeats the previous index, so
        // consecutive duplicates are skipped.
        let mut prev = idx & !63;
        for k in 7..=u32::from(max_clear.min(24)) {
            let anc = idx & !((1u32 << k) - 1);
            if anc == prev {
                continue;
            }
            if self.contains(anc) {
                return true;
            }
            prev = anc;
        }
        false
    }

    /// Number of set /24s.
    pub fn count(&self) -> u64 {
        self.ones
    }

    /// Whether no /24 is set.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }

    /// `|self ∩ other|` — word-wise AND + popcount over shared pages.
    pub fn and_count(&self, other: &Slash24Bitset) -> u64 {
        let (small, large) = if self.pages.len() <= other.pages.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .pages
            .iter()
            .filter_map(|(k, a)| large.pages.get(k).map(|b| (a, b)))
            .map(|(a, b)| {
                a.iter()
                    .zip(b.iter())
                    .map(|(x, y)| (x & y).count_ones() as u64)
                    .sum::<u64>()
            })
            .sum()
    }

    /// `|self ∪ other|`.
    pub fn or_count(&self, other: &Slash24Bitset) -> u64 {
        self.ones + other.ones - self.and_count(other)
    }

    /// Folds `other` into `self` (set union).
    pub fn union_with(&mut self, other: &Slash24Bitset) {
        for (k, b) in &other.pages {
            let page = self
                .pages
                .entry(*k)
                .or_insert_with(|| Box::new([0u64; PAGE_WORDS]));
            for (x, y) in page.iter_mut().zip(b.iter()) {
                self.ones += (*y & !*x).count_ones() as u64;
                *x |= *y;
            }
        }
    }

    /// Set /24 indexes, ascending — the canonical iteration order
    /// shared with a sorted reference model.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.pages.iter().flat_map(|(k, page)| {
            let base = k << 12;
            page.iter().enumerate().flat_map(move |(w, &word)| {
                BitIter { word }.map(move |bit| base + (w as u32) * 64 + bit)
            })
        })
    }
}

/// The in-word positions of `bit`'s cleared-low-`k` ancestors for `k`
/// in `0..=kmax` (`kmax ≤ 6` keeps every ancestor inside the word), as
/// one mask.
fn ancestor_word_mask(bit: u32, kmax: u8) -> u64 {
    let mut mask = 0u64;
    for k in 0..=u32::from(kmax) {
        mask |= 1u64 << (bit & !((1u32 << k) - 1));
    }
    mask
}

/// Iterates the set bit positions of one word, ascending.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(bit)
    }
}

/// Announced /24 space per origin AS, as one [`Slash24Bitset`] each.
///
/// Built straight from a RIB; per-AS coverage questions ("how many
/// active /24s does AS X own?") become a single `and_count` against an
/// activity bitset instead of a prefix-by-prefix trie walk.
#[derive(Debug, Clone, Default)]
pub struct AsBitsets {
    by_as: BTreeMap<Asn, Slash24Bitset>,
}

impl AsBitsets {
    /// Indexes every announcement in `rib` by its origin AS.
    pub fn from_rib(rib: &Rib) -> AsBitsets {
        let mut by_as: BTreeMap<Asn, Slash24Bitset> = BTreeMap::new();
        for (prefix, entry) in rib.routes() {
            by_as.entry(entry.origin).or_default().insert_prefix(prefix);
        }
        AsBitsets { by_as }
    }

    /// The announced-/24 bitset of `asn`, if it originates anything.
    pub fn get(&self, asn: Asn) -> Option<&Slash24Bitset> {
        self.by_as.get(&asn)
    }

    /// Origin ASes, ascending.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.by_as.keys().copied()
    }

    /// `(asn, |announced ∩ active|)` for every AS with at least one
    /// active /24, ascending by AS number.
    pub fn active_slash24s(&self, active: &Slash24Bitset) -> Vec<(Asn, u64)> {
        self.by_as
            .iter()
            .filter_map(|(asn, set)| {
                let n = set.and_count(active);
                (n > 0).then_some((*asn, n))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_query_count() {
        let mut s = Slash24Bitset::new();
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(0xFFFFFF));
        assert!(s.insert(4096));
        assert_eq!(s.count(), 3);
        assert!(s.contains(0) && s.contains(4096) && s.contains(0xFFFFFF));
        assert!(!s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 4096, 0xFFFFFF]);
    }

    #[test]
    fn prefix_ranges_fill_all_covered_slash24s() {
        let mut s = Slash24Bitset::new();
        s.insert_prefix("10.0.0.0/22".parse().unwrap());
        assert_eq!(s.count(), 4);
        assert!(s.contains_addr(0x0A000301));
        assert!(!s.contains_addr(0x0A000400));
        // A /32 marks just its containing /24.
        s.insert_prefix("192.0.2.77/32".parse().unwrap());
        assert!(s.contains_addr(0xC0000200));
        assert_eq!(s.count(), 5);
    }

    #[test]
    fn set_algebra_matches_reference() {
        let mut a = Slash24Bitset::new();
        let mut b = Slash24Bitset::new();
        for i in 0..100u32 {
            a.insert(i * 37);
            b.insert(i * 53);
        }
        let ra: std::collections::BTreeSet<u32> = a.iter().collect();
        let rb: std::collections::BTreeSet<u32> = b.iter().collect();
        assert_eq!(a.and_count(&b), ra.intersection(&rb).count() as u64);
        assert_eq!(a.or_count(&b), ra.union(&rb).count() as u64);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), a.or_count(&b));
        assert_eq!(u.iter().collect::<Vec<_>>().len() as u64, u.count());
    }

    #[test]
    fn ancestor_hit_matches_per_level_contains() {
        // A mix of dense low indexes (in-word ancestors), page-boundary
        // indexes, and coarse-aligned indexes reachable only by the
        // k ≥ 7 fallback.
        let mut s = Slash24Bitset::new();
        for idx in [
            0u32, 1, 37, 63, 64, 4095, 4096, 0x123400, 0x800000, 0xFFFFFF,
        ] {
            s.insert(idx);
        }
        let reference = |s: &Slash24Bitset, idx: u32, max_clear: u8| -> bool {
            (0..=u32::from(max_clear.min(24))).any(|k| s.contains(idx & !((1u32 << k) - 1)))
        };
        let probes: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) & 0xFF_FFFF)
            .chain([
                0, 1, 37, 63, 64, 65, 4095, 4097, 0x1234FF, 0x80_0001, 0xFFFFFF,
            ])
            .collect();
        for &idx in &probes {
            for max_clear in [0u8, 1, 3, 6, 7, 8, 12, 24, 31] {
                assert_eq!(
                    s.ancestor_hit(idx, max_clear),
                    reference(&s, idx, max_clear),
                    "idx {idx:#x} max_clear {max_clear}"
                );
            }
        }
        assert!(!Slash24Bitset::new().ancestor_hit(0, 24));
    }

    #[test]
    fn as_bitsets_index_rib_by_origin() {
        let mut rib = Rib::new();
        rib.announce("10.0.0.0/23".parse().unwrap(), Asn(64500));
        rib.announce("10.2.0.0/24".parse().unwrap(), Asn(64500));
        rib.announce("192.0.2.0/24".parse().unwrap(), Asn(64501));
        let idx = AsBitsets::from_rib(&rib);
        assert_eq!(idx.get(Asn(64500)).unwrap().count(), 3);
        assert_eq!(idx.get(Asn(64501)).unwrap().count(), 1);
        assert!(idx.get(Asn(1)).is_none());
        let mut active = Slash24Bitset::new();
        active.insert_prefix("10.0.1.0/24".parse().unwrap());
        active.insert_prefix("192.0.2.0/24".parse().unwrap());
        assert_eq!(
            idx.active_slash24s(&active),
            vec![(Asn(64500), 1), (Asn(64501), 1)]
        );
    }
}
