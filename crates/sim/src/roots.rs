//! Root DNS servers and DITL-style trace capture.
//!
//! Chromium-based browsers probe for DNS interception with queries for
//! random single labels of 7–15 lowercase letters at browser launch and
//! on network changes (paper ref. 35). Having no valid TLD, these are not cached
//! and land at the root servers, where DITL traces record them with the
//! **recursive resolver's** source address. The paper crawls the J, H,
//! M, A, K and D roots (the letters with un-anonymised, complete 2020
//! traces).
//!
//! The capture here mixes three populations, so the classifier in
//! `clientmap-chromium` has real work to do:
//!
//! 1. genuine Chromium probes (fresh random label per probe);
//! 2. **misconfiguration noise**: fixed junk names (`localdomain`,
//!    `corpinternal`, …) leaked to the roots at high rates — they match
//!    the Chromium *shape* but recur far above the collision threshold;
//! 3. **typo noise**: hostnames missing their dot (`wwwgooglecom`) —
//!    also shape-matching, also high-recurrence.
//!
//! Traces can be **sampled** (`sample_rate < 1`): real DITL analysis at
//! scale works on samples, and it keeps the reproduction laptop-sized.
//! Counts in downstream analysis are scaled back by the rate.

use clientmap_net::SeedMixer;
use clientmap_world::par::par_map;
use clientmap_world::{Slash24Info, World};

use crate::anycast::Catchments;
use crate::cdn::poisson;
use crate::gpdns::GooglePublicDns;
use crate::SimTime;

mod table;

pub use table::TraceTable;

/// The 13 root letters.
pub const ROOT_LETTERS: [char; 13] = [
    'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M',
];

/// The letters with public, complete, un-anonymised DITL traces (2020).
pub const PUBLIC_TRACE_LETTERS: [char; 6] = ['J', 'H', 'M', 'A', 'K', 'D'];

/// The trace of one root letter.
#[derive(Debug)]
pub struct RootTrace {
    /// Root letter.
    pub letter: char,
    /// Whether a complete public trace exists (else it is unusable, as
    /// for the non-DITL letters in the paper).
    pub public: bool,
    /// Records, aggregated by (resolver, name); a capture writes them
    /// in (resolver, name) order.
    pub records: TraceTable,
}

/// A full DITL-style capture.
#[derive(Debug)]
pub struct RootTraceSet {
    /// One trace per root letter.
    pub traces: Vec<RootTrace>,
    /// Sampling rate applied at capture (counts are *not* pre-scaled).
    pub sample_rate: f64,
    /// Capture length in days.
    pub days: u32,
}

impl RootTraceSet {
    /// The usable (public) traces.
    pub fn public_traces(&self) -> impl Iterator<Item = &RootTrace> {
        self.traces.iter().filter(|t| t.public)
    }
}

/// Fixed misconfiguration names: single labels that *match* the
/// Chromium shape (7–15 lowercase letters) but recur at high rates.
const MISCONFIG_NAMES: &[&str] = &[
    "localdomain",
    "corpinternal",
    "homestation",
    "belkinrouter",
    "workgroup",
    "intranet",
];

/// Typo names: well-known hostnames with the dots dropped.
const TYPO_NAMES: &[&str] = &[
    "wwwgooglecom",
    "wwwfacebookcom",
    "wwwyoutubecom",
    "wikipediaorg",
    "wwwbingcom",
];

/// Letters in the longest label a [`NameKey`] holds (Chromium's 15).
const KEY_LETTERS: u32 = 15;
/// Bits per packed letter: `a` = 1 … `z` = 26, 0 past the label's end.
const KEY_BITS: u32 = 5;

/// A single label of 1–15 lowercase letters packed inline, 5 bits per
/// letter, left-aligned and zero-padded.
///
/// Integer order is the labels' string order: at the first differing
/// letter the larger code wins, and a prefix's zero padding sorts it
/// before every extension (`abcdefg` < `abcdefgh`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct NameKey(u128);

impl NameKey {
    /// The bit offset of letter `i`; letter 0 is the most significant.
    fn shift(i: u32) -> u32 {
        KEY_BITS * (KEY_LETTERS - 1 - i)
    }

    /// The key with letter `code` (1–26) set at position `i`.
    fn with(self, i: u32, code: u64) -> NameKey {
        NameKey(self.0 | u128::from(code) << Self::shift(i))
    }

    /// Packs a fixed label. Panics unless it is 1–15 lowercase letters.
    fn of(label: &str) -> NameKey {
        assert!(
            (1..=KEY_LETTERS as usize).contains(&label.len())
                && label.bytes().all(|b| b.is_ascii_lowercase()),
            "{label:?} does not fit a name key"
        );
        label.bytes().zip(0..).fold(NameKey(0), |key, (b, i)| {
            key.with(i, u64::from(b - b'a' + 1))
        })
    }

    /// A fresh random Chromium-style label of 7–15 lowercase letters,
    /// drawn from the hash state.
    fn random_probe(h: u64) -> NameKey {
        let mut state = h;
        let mut next = || {
            state = clientmap_net::splitmix64(state);
            state
        };
        let len = 7 + (next() % 9) as u32; // 7..=15
        (0..len).fold(NameKey(0), |key, i| key.with(i, 1 + next() % 26))
    }

    /// Letters in the label; the last letter's code is the lowest set
    /// bit's, so the zero letters past it are the trailing zeros.
    fn len(self) -> usize {
        (KEY_LETTERS - self.0.trailing_zeros() / KEY_BITS) as usize
    }

    /// Appends the label the key packs.
    fn write_to(self, arena: &mut String) {
        for i in 0..self.len() as u32 {
            let code = (self.0 >> Self::shift(i)) & 0x1f;
            arena.push(char::from(b'a' - 1 + code as u8));
        }
    }
}

/// Queries for one name from one resolver at one root on one day, on
/// their way into that root's trace. Sorted, the runs of equal
/// ⟨resolver, name⟩ are the trace's records, in record order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Hit {
    resolver: u32,
    name: NameKey,
    day: u32,
    count: u32,
}

/// Routed /24s per generation task.
const SLASH24_CHUNK: usize = 512;

/// One generation task's hits, a bucket per root letter.
type LetterBuckets = [Vec<Hit>; ROOT_LETTERS.len()];

/// Captures `days` days of root traces.
///
/// `sample_rate` keeps each probe with that probability; counts remain
/// raw (downstream scales by `1/sample_rate`).
///
/// One sorted pass per letter: the /24s generate their probes in
/// parallel chunks (each /24 draws from a stream keyed by its prefix, so
/// chunking moves no draw), each into its root letter's bucket, and the
/// noise names follow on their one sequential chain. Then each letter,
/// on its own task, gathers its buckets, sorts them so each
/// ⟨resolver, name⟩ is one run, and folds the runs into an exactly
/// sized [`TraceTable`] — no record gets a heap allocation of its own.
pub fn capture_traces(
    world: &World,
    catchments: &Catchments,
    gpdns: &GooglePublicDns,
    start: SimTime,
    days: u32,
    sample_rate: f64,
) -> RootTraceSet {
    assert!(days >= 1, "capture needs at least one day");
    assert!((0.0..=1.0).contains(&sample_rate));
    let seed = SeedMixer::new(world.config.seed).mix_str("roots").finish();
    let act = world.activity();
    let nletters = ROOT_LETTERS.len() as u64;

    let chunks: Vec<&[Slash24Info]> = world.slash24s.chunks(SLASH24_CHUNK).collect();
    let parts: Vec<LetterBuckets> = par_map(&chunks, |c, chunk| {
        let mut buckets = LetterBuckets::default();
        for (k, s) in chunk.iter().enumerate() {
            if s.users <= 0.0 {
                continue;
            }
            let i = c * SLASH24_CHUNK + k;
            let base = SeedMixer::new(seed).mix(u64::from(s.prefix.addr()));
            // Resolver addresses for each share.
            let isp_addr = world.ases[s.as_id]
                .local_resolver
                .map(|rid| world.resolvers[rid].addr);
            let google_addr = gpdns.egress_addr(catchments.of_slash24(i));
            let other_addr = world.resolvers[s.other_resolver].addr;

            for day in 0..days {
                let t0 = start.as_secs_f64() + f64::from(day) * 86_400.0;
                let t1 = t0 + 86_400.0;
                let mean_probes =
                    act.expected_events(|t| act.chromium_probe_rate(s, t), t0, t1) * sample_rate;
                for (share, addr) in [
                    (s.resolver_mix.isp, isp_addr),
                    (s.resolver_mix.google, Some(google_addr)),
                    (s.resolver_mix.other, Some(other_addr)),
                ] {
                    let Some(addr) = addr else { continue };
                    if share <= 0.0 {
                        continue;
                    }
                    let h = base.mix(u64::from(day)).mix(u64::from(addr)).finish();
                    let n = poisson(h, mean_probes * share);
                    // Each probe: a fresh random label, to a random root.
                    let mut state = h;
                    for k in 0..n {
                        state = clientmap_net::splitmix64(state ^ k);
                        buckets[(state % nletters) as usize].push(Hit {
                            resolver: addr,
                            name: NameKey::random_probe(state),
                            day,
                            count: 1,
                        });
                    }
                }
            }
        }
        buckets
    });

    // Misconfiguration + typo noise: emitted by a spread of resolvers at
    // rates far above the Chromium collision threshold.
    let mut noise = LetterBuckets::default();
    let mut noise_rng = SeedMixer::new(seed).mix_str("noise").finish();
    let resolver_pool: Vec<u32> = world.resolvers.iter().map(|r| r.addr).collect();
    for name in MISCONFIG_NAMES.iter().chain(TYPO_NAMES) {
        let name = NameKey::of(name);
        for day in 0..days {
            // 10–40 resolvers leak each junk name, dozens of times a day.
            noise_rng = clientmap_net::splitmix64(noise_rng);
            let spread = 10 + (noise_rng % 31) as usize;
            for j in 0..spread.min(resolver_pool.len()) {
                noise_rng = clientmap_net::splitmix64(noise_rng);
                let addr = resolver_pool[(noise_rng as usize) % resolver_pool.len()];
                let letter = (noise_rng % nletters) as usize;
                let count = 20 + (noise_rng % 100) as u32;
                let sampled = poisson(
                    clientmap_net::splitmix64(noise_rng ^ j as u64),
                    f64::from(count) * sample_rate.max(1e-12),
                );
                if sampled > 0 {
                    noise[letter].push(Hit {
                        resolver: addr,
                        name,
                        day,
                        count: sampled as u32,
                    });
                }
            }
        }
    }

    let traces = par_map(&ROOT_LETTERS, |l, &letter| {
        let buckets = || parts.iter().chain([&noise]).map(|part| &part[l]);
        let mut hits = Vec::with_capacity(buckets().map(Vec::len).sum());
        for bucket in buckets() {
            hits.extend_from_slice(bucket);
        }
        hits.sort_unstable();
        RootTrace {
            letter,
            public: PUBLIC_TRACE_LETTERS.contains(&letter),
            records: fold_records(&hits, days),
        }
    });
    RootTraceSet {
        traces,
        sample_rate,
        days,
    }
}

/// The trace table of one letter's sorted hits: one record per run of
/// equal ⟨resolver, name⟩, its counts summed per day.
fn fold_records(hits: &[Hit], days: u32) -> TraceTable {
    let runs = || hits.chunk_by(|a, b| (a.resolver, a.name) == (b.resolver, b.name));
    let (records, name_bytes) =
        runs().fold((0, 0), |(n, bytes), run| (n + 1, bytes + run[0].name.len()));
    let mut table = TraceTable::with_capacity(records, name_bytes, records * days as usize);
    let mut count_by_day = vec![0; days as usize];
    for run in runs() {
        count_by_day.fill(0);
        for h in run {
            count_by_day[h.day as usize] += h.count;
        }
        table.push_with(
            run[0].resolver,
            |arena| run[0].name.write_to(arena),
            &count_by_day,
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::Authoritatives;
    use clientmap_world::WorldConfig;

    /// Generates a fresh random Chromium-style label of 7–15 lowercase
    /// letters from the hash state, as a heap string.
    fn random_probe_label(h: u64) -> String {
        let mut state = h;
        let mut next = || {
            state = clientmap_net::splitmix64(state);
            state
        };
        let len = 7 + (next() % 9) as usize; // 7..=15
        (0..len)
            .map(|_| (b'a' + (next() % 26) as u8) as char)
            .collect()
    }

    /// One oracle record: resolver, name, counts per day.
    type Row = (u32, String, Vec<u32>);

    /// The capture as a hash map of heap strings: every probe's label
    /// is a `String` keyed with its letter and resolver, and the map,
    /// sorted by that key, is each letter's rows. [`capture_traces`]'
    /// tables must equal it row for row.
    fn capture_oracle(
        world: &World,
        catchments: &Catchments,
        gpdns: &GooglePublicDns,
        start: SimTime,
        days: u32,
        sample_rate: f64,
    ) -> Vec<Vec<Row>> {
        use std::collections::HashMap;

        /// Aggregation key: letter, resolver, label.
        type Key = (usize, u32, String);
        let seed = SeedMixer::new(world.config.seed).mix_str("roots").finish();
        let act = world.activity();
        let nletters = ROOT_LETTERS.len() as u64;
        let mut agg: HashMap<Key, Vec<u32>> = HashMap::new();
        let mut bump = |letter: usize, resolver: u32, name: String, day: usize, n: u32| {
            let counts = agg
                .entry((letter, resolver, name))
                .or_insert_with(|| vec![0; days as usize]);
            counts[day] += n;
        };
        for (i, s) in world.slash24s.iter().enumerate() {
            if s.users <= 0.0 {
                continue;
            }
            let base = SeedMixer::new(seed).mix(u64::from(s.prefix.addr()));
            let isp_addr = world.ases[s.as_id]
                .local_resolver
                .map(|rid| world.resolvers[rid].addr);
            let google_addr = gpdns.egress_addr(catchments.of_slash24(i));
            let other_addr = world.resolvers[s.other_resolver].addr;
            for day in 0..days {
                let t0 = start.as_secs_f64() + f64::from(day) * 86_400.0;
                let t1 = t0 + 86_400.0;
                let mean_probes =
                    act.expected_events(|t| act.chromium_probe_rate(s, t), t0, t1) * sample_rate;
                for (share, addr) in [
                    (s.resolver_mix.isp, isp_addr),
                    (s.resolver_mix.google, Some(google_addr)),
                    (s.resolver_mix.other, Some(other_addr)),
                ] {
                    let Some(addr) = addr else { continue };
                    if share <= 0.0 {
                        continue;
                    }
                    let h = base.mix(day as u64).mix(u64::from(addr)).finish();
                    let n = poisson(h, mean_probes * share);
                    let mut state = h;
                    for k in 0..n {
                        state = clientmap_net::splitmix64(state ^ k);
                        let letter = (state % nletters) as usize;
                        bump(letter, addr, random_probe_label(state), day as usize, 1);
                    }
                }
            }
        }
        let mut noise_rng = SeedMixer::new(seed).mix_str("noise").finish();
        let resolver_pool: Vec<u32> = world.resolvers.iter().map(|r| r.addr).collect();
        for name in MISCONFIG_NAMES.iter().chain(TYPO_NAMES) {
            for day in 0..days as usize {
                noise_rng = clientmap_net::splitmix64(noise_rng);
                let spread = 10 + (noise_rng % 31) as usize;
                for j in 0..spread.min(resolver_pool.len()) {
                    noise_rng = clientmap_net::splitmix64(noise_rng);
                    let addr = resolver_pool[(noise_rng as usize) % resolver_pool.len()];
                    let letter = (noise_rng % nletters) as usize;
                    let count = 20 + (noise_rng % 100) as u32;
                    let sampled = poisson(
                        clientmap_net::splitmix64(noise_rng ^ j as u64),
                        f64::from(count) * sample_rate.max(1e-12),
                    );
                    if sampled > 0 {
                        bump(letter, addr, name.to_string(), day, sampled as u32);
                    }
                }
            }
        }
        let mut rows: Vec<Vec<Row>> = vec![Vec::new(); ROOT_LETTERS.len()];
        let mut entries: Vec<(Key, Vec<u32>)> = agg.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for ((letter, resolver, name), counts) in entries {
            rows[letter].push((resolver, name, counts));
        }
        rows
    }

    /// Checks `got` against the oracle's rows, letter by letter and row
    /// by row: resolver, name bytes, counts.
    fn assert_matches_oracle(
        got: &RootTraceSet,
        want: &[Vec<Row>],
        days: u32,
        rate: f64,
        ctx: &str,
    ) {
        assert_eq!(got.days, days, "{ctx}");
        assert_eq!(got.sample_rate.to_bits(), rate.to_bits(), "{ctx}");
        assert_eq!(got.traces.len(), want.len(), "{ctx}");
        for ((trace, rows), &letter) in got.traces.iter().zip(want).zip(&ROOT_LETTERS) {
            let ctx = format!("{ctx} letter {letter}");
            assert_eq!(trace.letter, letter, "{ctx}");
            assert_eq!(
                trace.public,
                PUBLIC_TRACE_LETTERS.contains(&letter),
                "{ctx}"
            );
            assert_eq!(trace.records.len(), rows.len(), "{ctx}");
            for (i, (resolver, name, counts)) in rows.iter().enumerate() {
                assert_eq!(trace.records.resolver(i), *resolver, "{ctx} row {i}");
                assert_eq!(
                    trace.records.name(i).as_bytes(),
                    name.as_bytes(),
                    "{ctx} row {i}"
                );
                assert_eq!(trace.records.counts(i), counts.as_slice(), "{ctx} row {i}");
            }
        }
    }

    /// The capture of `world` over `days` days at `rate`, at 1 and 4
    /// threads, against the oracle.
    fn assert_capture_matches_oracle(world: &World, days: u32, rate: f64, ctx: &str) {
        use clientmap_world::par::with_threads;

        let catchments = Catchments::compute(world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let gpdns = GooglePublicDns::build(world, &catchments, &auth);
        let start = SimTime::from_hours(7);
        let want = capture_oracle(world, &catchments, &gpdns, start, days, rate);
        assert!(want.iter().any(|rows| rows.len() > 1), "{ctx}");
        for threads in [1, 4] {
            let got = with_threads(threads, || {
                capture_traces(world, &catchments, &gpdns, start, days, rate)
            });
            assert_matches_oracle(&got, &want, days, rate, &format!("{ctx} threads {threads}"));
        }
    }

    #[test]
    fn capture_equals_the_string_map_oracle() {
        for seed in [5, 2021] {
            // The tiny world's 4 000 /24s (more chunks than workers),
            // with few enough users that an unsampled capture stays
            // small.
            let mut cfg = WorldConfig::tiny(seed);
            cfg.total_users = 2.0e4;
            let world = World::generate(cfg);
            assert!(world.slash24s.len() > 4 * SLASH24_CHUNK);
            for days in [1, 2, 3] {
                for rate in [0.01, 0.2, 1.0] {
                    let ctx = format!("seed {seed} days {days} rate {rate}");
                    assert_capture_matches_oracle(&world, days, rate, &ctx);
                }
            }
        }
    }

    #[test]
    fn capture_equals_the_string_map_oracle_on_tiny_worlds() {
        // The seeds and rates the crawl's oracle test captures.
        for (seed, rate) in [(61, 0.01), (66, 0.05), (2021, 0.005)] {
            let world = World::generate(WorldConfig::tiny(seed));
            assert_capture_matches_oracle(&world, 2, rate, &format!("tiny {seed} rate {rate}"));
        }
    }

    /// The label `key` writes.
    fn label_of(key: NameKey) -> String {
        let mut arena = String::new();
        key.write_to(&mut arena);
        assert_eq!(arena.len(), key.len());
        arena
    }

    #[test]
    fn name_keys_order_like_strings() {
        let mut state = 7u64;
        let mut next = || {
            state = clientmap_net::splitmix64(state);
            state
        };
        let mut labels: Vec<String> = ["abcdefg", "abcdefgh", "a", "aa", "ab", "z", "za"]
            .iter()
            .map(|l| l.to_string())
            .collect();
        labels.push("z".repeat(15));
        for _ in 0..400 {
            let len = 1 + (next() % 15) as usize;
            // A small alphabet makes shared prefixes common.
            let alphabet = if next() % 2 == 0 { 3 } else { 26 };
            labels.push(
                (0..len)
                    .map(|_| (b'a' + (next() % alphabet) as u8) as char)
                    .collect(),
            );
        }
        for a in &labels {
            let key = NameKey::of(a);
            assert_eq!(label_of(key), *a);
            for b in &labels {
                assert_eq!(key.cmp(&NameKey::of(b)), a.cmp(b), "{a} vs {b}");
            }
        }
        assert!(NameKey::of("abcdefg") < NameKey::of("abcdefgh"));
    }

    #[test]
    fn random_probe_keys_pack_the_string_labels() {
        for h in 0..2_000u64 {
            let h = clientmap_net::splitmix64(h);
            let label = random_probe_label(h);
            assert_eq!(NameKey::random_probe(h), NameKey::of(&label));
            assert_eq!(label_of(NameKey::random_probe(h)), label);
        }
    }

    #[test]
    fn noise_names_fit_the_key() {
        for name in MISCONFIG_NAMES.iter().chain(TYPO_NAMES) {
            assert_eq!(label_of(NameKey::of(name)), *name);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a name key")]
    fn a_sixteen_letter_label_does_not_fit() {
        NameKey::of("abcdefghijklmnop");
    }

    fn capture(seed: u64, rate: f64) -> (World, RootTraceSet) {
        let world = World::generate(WorldConfig::tiny(seed));
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let gpdns = GooglePublicDns::build(&world, &catchments, &auth);
        let t = capture_traces(&world, &catchments, &gpdns, SimTime::ZERO, 2, rate);
        (world, t)
    }

    #[test]
    fn thirteen_letters_six_public() {
        let (_, set) = capture(41, 0.001);
        assert_eq!(set.traces.len(), 13);
        assert_eq!(set.public_traces().count(), 6);
        assert_eq!(set.days, 2);
    }

    #[test]
    fn probe_labels_have_chromium_shape() {
        let (_, set) = capture(42, 0.002);
        let mut checked = 0;
        for trace in &set.traces {
            for (_, name, _) in trace.records.iter() {
                assert!(!name.contains('.'), "{name} has dots");
                assert!(
                    (7..=15).contains(&name.len()),
                    "label length {}",
                    name.len()
                );
                assert!(name.bytes().all(|b| b.is_ascii_lowercase()), "{name}");
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} records captured");
    }

    #[test]
    fn genuine_probes_rarely_repeat_noise_repeats_heavily() {
        let (_, set) = capture(43, 0.01);
        let mut max_random_count = 0u64;
        let mut noise_seen = false;
        for trace in &set.traces {
            let table = &trace.records;
            for i in 0..table.len() {
                let name = table.name(i);
                if MISCONFIG_NAMES.contains(&name) || TYPO_NAMES.contains(&name) {
                    noise_seen = true;
                    assert!(table.total(i) >= 1);
                } else {
                    max_random_count = max_random_count.max(table.total(i));
                }
            }
        }
        assert!(noise_seen, "noise population missing");
        // Fresh random labels essentially never collide within a capture.
        assert!(
            max_random_count <= 2,
            "random label repeated {max_random_count} times"
        );
    }

    #[test]
    fn resolver_addresses_are_real_resolvers_or_google_egress() {
        let (world, set) = capture(44, 0.005);
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let gpdns = GooglePublicDns::build(&world, &catchments, &auth);
        let known: std::collections::HashSet<u32> =
            world.resolvers.iter().map(|r| r.addr).collect();
        for trace in &set.traces {
            for (resolver, _, _) in trace.records.iter() {
                assert!(
                    known.contains(&resolver) || gpdns.pop_of_egress(resolver).is_some(),
                    "unknown resolver {resolver:#x}"
                );
            }
        }
    }

    #[test]
    fn sampling_scales_volume() {
        let (_, lo) = capture(45, 0.001);
        let (_, hi) = capture(45, 0.01);
        let total = |set: &RootTraceSet| -> u64 {
            set.traces
                .iter()
                .flat_map(|t| (0..t.records.len()).map(|i| t.records.total(i)))
                .sum()
        };
        let (lo_total, hi_total) = (total(&lo), total(&hi));
        assert!(
            hi_total > 4 * lo_total,
            "sampling did not scale: {lo_total} vs {hi_total}"
        );
    }

    #[test]
    fn deterministic_capture() {
        let (_, a) = capture(46, 0.002);
        let (_, b) = capture(46, 0.002);
        let count = |s: &RootTraceSet| -> usize { s.traces.iter().map(|t| t.records.len()).sum() };
        assert_eq!(count(&a), count(&b));
        for (ta, tb) in a.traces.iter().zip(&b.traces) {
            assert_eq!(ta.records, tb.records);
        }
    }
}
