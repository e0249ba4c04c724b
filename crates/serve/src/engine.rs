//! The query engine: one immutable [`Generation`] per completed
//! sweep, answering every query without locks.
//!
//! A generation is built once, on the sweep thread, from a finished
//! [`PipelineOutput`]: the dense per-/24 verdict table and its
//! per-page verdict counts, per-AS and per-country activity rollups,
//! the AS ranking, the routed-block table for prefix → origin
//! lookups, the per-AS active-fraction ECDF and the introspection
//! row. It is then published into a `GenerationCell` and never
//! mutated — readers on query connections clone an `Arc` and answer
//! from a consistent snapshot while the next sweep is still probing.
//!
//! Every answer costs O(log n + reply size): no query walks the /24
//! space, the block table or the AS table (see the cost table in
//! `docs/ARCHITECTURE.md`), so no query a client can send — `prefix
//! 0.0.0.0/0` included — holds a connection thread for long.
//!
//! Everything here is a pure function of the pipeline output, so the
//! same seed produces byte-identical replies at any thread count and
//! any interleaving of queries with sweeps.

use std::collections::BTreeMap;

use clientmap_analysis::stats::Ecdf;
use clientmap_core::PipelineOutput;
use clientmap_geo::CountryCode;
use clientmap_net::{Asn, Prefix};
use clientmap_store::{Verdict, VerdictTable};

use crate::proto::{
    AsReply, CountryReply, InfoReply, PrefixReply, Query, Reply, MAX_ECDF_POINTS,
    QUERY_PROTOCOL_VERSION,
};

/// One AS's rollup inside a generation.
#[derive(Debug, Clone)]
pub struct AsActivity {
    /// Registration country.
    pub country: CountryCode,
    /// /24s the AS announces.
    pub announced_slash24s: u64,
    /// Measured /24s per verdict, indexed by `Verdict as u8`.
    pub verdicts: [u64; 5],
}

impl AsActivity {
    /// /24s with a full `Hit` verdict.
    pub fn active_slash24s(&self) -> u64 {
        self.verdicts[Verdict::Hit as usize]
    }
}

/// One immutable published store generation: everything the query
/// engine needs, precomputed.
#[derive(Debug)]
pub struct Generation {
    /// 1-based generation number (sweep number within this serve run).
    pub seq: u64,
    /// Sweep epoch of the snapshot that produced this generation.
    pub epoch: u32,
    /// Event-log length in bytes right after this sweep's event.
    pub log_offset: u64,
    /// World seed of the sweep chain.
    pub world_seed: u64,
    /// Probing-config digest of the sweep chain.
    pub config_digest: u64,
    /// Dense per-/24 verdicts.
    pub verdicts: VerdictTable,
    /// Per-AS rollups, keyed by ASN (sorted — BTreeMap iteration is
    /// the deterministic order every ranked reply uses).
    pub ases: BTreeMap<Asn, AsActivity>,
    /// Per-country rollups.
    pub countries: BTreeMap<CountryCode, CountryReply>,
    /// Routed blocks `(prefix, origin)`, sorted by address then
    /// length — the prefix-query lookup table.
    pub blocks: Vec<(Prefix, Asn)>,
    /// ECDF of per-AS active fraction (active / announced, ASes with
    /// announced space only).
    pub ecdf: Ecdf,
    /// Verdict counts of every allocated page of `verdicts` (one page
    /// = 4 096 /24s = a /12), ascending by page: a prefix of /12 or
    /// shorter is a sum over whole pages.
    page_verdicts: Vec<(u32, [u32; 5])>,
    /// `(asn, active, announced)` of every AS with an active /24, most
    /// active first; ties break toward the lower ASN, keeping
    /// rankings deterministic. `TopK` replies are prefixes of this.
    ranking: Vec<(Asn, u64, u64)>,
    /// The introspection row, filled once.
    info: InfoReply,
}

impl Generation {
    /// Builds a generation from a finished pipeline run. `seq` is the
    /// 1-based sweep number; `log_offset` the event-log length after
    /// this sweep's event was appended.
    pub fn build(seq: u64, log_offset: u64, out: &PipelineOutput) -> Generation {
        Generation::from_table(seq, log_offset, out, out.cache_probe.verdict_table())
    }

    /// [`Generation::build`] for a caller that already holds the
    /// run's verdict table (`out.cache_probe.verdict_table()`): the
    /// service computes it once per publish, diffs it for the event
    /// log, then moves it in here.
    pub fn from_table(
        seq: u64,
        log_offset: u64,
        out: &PipelineOutput,
        verdicts: VerdictTable,
    ) -> Generation {
        let world = out.sim.world();
        let rib = &world.rib;

        // Per-AS verdict rollups: every measured /24 is attributed to
        // the AS announcing it (unrouted measured space — possible
        // when a response scope overhangs the RIB — is dropped, same
        // as the analysis layer does).
        let registry: BTreeMap<Asn, CountryCode> =
            world.ases.iter().map(|a| (a.asn, a.country)).collect();
        let mut ases: BTreeMap<Asn, AsActivity> = BTreeMap::new();
        for asn in rib.origins() {
            let country = registry
                .get(&asn)
                .copied()
                .unwrap_or(CountryCode::new(b'Z', b'Z'));
            ases.insert(
                asn,
                AsActivity {
                    country,
                    announced_slash24s: rib.announced_slash24s(asn),
                    verdicts: [0; 5],
                },
            );
        }
        for (idx, v) in verdicts.iter_measured() {
            if let Some(asn) = rib.origin_of_addr(idx << 8) {
                if let Some(row) = ases.get_mut(&asn) {
                    row.verdicts[v as usize] += 1;
                }
            }
        }

        let mut countries: BTreeMap<CountryCode, CountryReply> = BTreeMap::new();
        for row in ases.values() {
            let c = countries.entry(row.country).or_insert(CountryReply {
                country: row.country,
                ases: 0,
                announced_slash24s: 0,
                active_slash24s: 0,
            });
            c.ases += 1;
            c.announced_slash24s += row.announced_slash24s;
            c.active_slash24s += row.active_slash24s();
        }

        let mut blocks: Vec<(Prefix, Asn)> = rib
            .routes()
            .into_iter()
            .map(|(p, e)| (p, e.origin))
            .collect();
        blocks.sort_by_key(|(p, _)| (p.addr(), p.len()));

        let fractions: Vec<f64> = ases
            .values()
            .filter(|r| r.announced_slash24s > 0)
            .map(|r| r.active_slash24s() as f64 / r.announced_slash24s as f64)
            .collect();

        let mut ranking: Vec<(Asn, u64, u64)> = ases
            .iter()
            .filter(|(_, r)| r.active_slash24s() > 0)
            .map(|(asn, r)| (*asn, r.active_slash24s(), r.announced_slash24s))
            .collect();
        // Most active first; ties break toward the lower ASN.
        ranking.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let info = InfoReply {
            protocol: QUERY_PROTOCOL_VERSION,
            generation: seq,
            epoch: out.sweep.epoch,
            log_offset,
            world_seed: out.sweep.world_seed,
            config_digest: out.sweep.config_digest,
            measured_slash24s: verdicts.count_measured(),
            active_ases: ranking.len() as u32,
            countries: countries.len() as u32,
            // A generation cannot know service health; the connection
            // handler overwrites this from the live degraded flag.
            degraded: false,
        };

        Generation {
            seq,
            epoch: out.sweep.epoch,
            log_offset,
            world_seed: out.sweep.world_seed,
            config_digest: out.sweep.config_digest,
            page_verdicts: verdicts.page_histograms().collect(),
            verdicts,
            ases,
            countries,
            blocks,
            ecdf: Ecdf::new(fractions),
            ranking,
            info,
        }
    }

    /// The introspection row describing this generation.
    pub fn info(&self) -> InfoReply {
        self.info.clone()
    }

    /// Verdict counts of the /24s inside `p`, indexed by `Verdict as
    /// u8` (a prefix longer than /24 counts the one /24 holding it).
    fn prefix_verdicts(&self, p: Prefix) -> [u64; 5] {
        let first = p.first_addr() >> 8;
        let n = p.num_slash24s();
        if p.len() > 12 {
            // Inside one table page: a slice of at most 2 048 tags.
            return self.verdicts.histogram(first, n);
        }
        // /12 or shorter: whole, aligned pages — sum their counts.
        let pages = first >> 12..(first >> 12) + (n >> 12) as u32;
        let lo = self
            .page_verdicts
            .partition_point(|(k, _)| *k < pages.start);
        let hi = self.page_verdicts.partition_point(|(k, _)| *k < pages.end);
        let mut counts = [0u64; 5];
        for (_, page) in &self.page_verdicts[lo..hi] {
            for (total, part) in counts.iter_mut().zip(page).skip(1) {
                *total += u64::from(*part);
            }
        }
        counts[0] = n - counts[1..].iter().sum::<u64>();
        counts
    }

    /// Answers one query against this generation. `WaitGen` and `Stop`
    /// are connection-level concerns and must be handled before this.
    pub fn answer(&self, query: &Query) -> Reply {
        match query {
            Query::Info => Reply::Info(self.info()),
            Query::As(asn) => match self.ases.get(asn) {
                Some(row) => Reply::As(AsReply {
                    asn: *asn,
                    country: row.country,
                    announced_slash24s: row.announced_slash24s,
                    active_slash24s: row.active_slash24s(),
                    verdicts: row.verdicts,
                }),
                None => Reply::Err(format!("AS{} announces nothing in this world", asn.0)),
            },
            Query::Country(cc) => match self.countries.get(cc) {
                Some(row) => Reply::Country(row.clone()),
                None => Reply::Err(format!("no AS is registered in {cc}")),
            },
            Query::Prefix(p) => Reply::Prefix(PrefixReply {
                prefix: *p,
                origins: overlapping_origins(&self.blocks, *p),
                verdicts: self.prefix_verdicts(*p),
            }),
            Query::TopK(k) => {
                let k = self.ranking.len().min(*k as usize);
                Reply::TopK(self.ranking[..k].to_vec())
            }
            Query::Ecdf(points) if *points > MAX_ECDF_POINTS => Reply::Err(format!(
                "ecdf of {points} points exceeds the limit of {MAX_ECDF_POINTS}"
            )),
            Query::Ecdf(points) => Reply::Ecdf(self.ecdf.series(*points as usize)),
            Query::WaitGen(_) | Query::Stop => {
                Reply::Err("connection-level query reached the engine".into())
            }
        }
    }
}

/// Origins of every block overlapping `p` (inside it or covering it),
/// ascending and deduplicated. `blocks` must be sorted by `(address,
/// length)`.
///
/// A block whose address lies in `[p.first_addr(), p.last_addr()]`
/// is inside `p`, or — same address, shorter — covers it: one
/// contiguous run of the table. The only other overlaps are `p`'s
/// strict supernets at a lower address: at most `p.len()` exact keys,
/// all of them below the run.
fn overlapping_origins(blocks: &[(Prefix, Asn)], p: Prefix) -> Vec<Asn> {
    let lo = blocks.partition_point(|(b, _)| b.addr() < p.first_addr());
    let hi = blocks.partition_point(|(b, _)| b.addr() <= p.last_addr());
    let mut origins: Vec<Asn> = blocks[lo..hi].iter().map(|(_, asn)| *asn).collect();
    let below = &blocks[..lo];
    for len in 0..p.len() {
        let cover = p.supernet(len).expect("len < p.len()");
        if cover.addr() == p.addr() {
            continue; // already in the run above
        }
        let at = below.partition_point(|(b, _)| (b.addr(), b.len()) < (cover.addr(), len));
        origins.extend(
            below[at..]
                .iter()
                .take_while(|(b, _)| *b == cover)
                .map(|(_, asn)| *asn),
        );
    }
    origins.sort_unstable();
    origins.dedup();
    origins
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use clientmap_core::{Pipeline, PipelineConfig};
    use proptest::prelude::*;

    use super::*;

    /// The overlap lookup as the engine used to do it: a scan of the
    /// whole block table.
    fn origins_by_scan(blocks: &[(Prefix, Asn)], p: &Prefix) -> Vec<Asn> {
        let mut origins: Vec<Asn> = blocks
            .iter()
            .filter(|(b, _)| p.contains(*b) || b.contains(*p))
            .map(|(_, asn)| *asn)
            .collect();
        origins.sort_unstable();
        origins.dedup();
        origins
    }

    impl Generation {
        /// The reference engine: `Prefix`, `TopK` and `Info` answered
        /// by the scans `answer` replaced — one table lookup per
        /// covered /24, a filter over every block, a sort of the AS
        /// table per ranking, a recount per introspection — and an
        /// unbounded `Ecdf`. Everything else is `answer` itself.
        fn oracle(&self, query: &Query) -> Reply {
            match query {
                Query::Info => Reply::Info(InfoReply {
                    protocol: QUERY_PROTOCOL_VERSION,
                    generation: self.seq,
                    epoch: self.epoch,
                    log_offset: self.log_offset,
                    world_seed: self.world_seed,
                    config_digest: self.config_digest,
                    measured_slash24s: self.verdicts.count_measured(),
                    active_ases: self
                        .ases
                        .values()
                        .filter(|r| r.active_slash24s() > 0)
                        .count() as u32,
                    countries: self.countries.len() as u32,
                    degraded: false,
                }),
                Query::Prefix(p) => {
                    let origins = origins_by_scan(&self.blocks, p);
                    let mut verdicts = [0u64; 5];
                    let first = p.first_addr() >> 8;
                    for idx in first..first + p.num_slash24s() as u32 {
                        verdicts[self.verdicts.get(idx) as usize] += 1;
                    }
                    Reply::Prefix(PrefixReply {
                        prefix: *p,
                        origins,
                        verdicts,
                    })
                }
                Query::TopK(k) => {
                    let mut rows: Vec<(Asn, u64, u64)> = self
                        .ases
                        .iter()
                        .filter(|(_, r)| r.active_slash24s() > 0)
                        .map(|(asn, r)| (*asn, r.active_slash24s(), r.announced_slash24s))
                        .collect();
                    // Most active first; ties break toward the lower ASN
                    // (the BTreeMap order), keeping rankings deterministic.
                    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    rows.truncate(*k as usize);
                    Reply::TopK(rows)
                }
                Query::Ecdf(points) => Reply::Ecdf(self.ecdf.series(*points as usize)),
                other => self.answer(other),
            }
        }
    }

    /// One tiny-world generation shared by every test: a cold sweep is
    /// the slow part, the queries are not.
    fn tiny_generation() -> &'static Generation {
        static GENERATION: OnceLock<Generation> = OnceLock::new();
        GENERATION.get_or_init(|| {
            let out = Pipeline::run(PipelineConfig::tiny(2021)).expect("tiny run is healthy");
            Generation::build(1, 77, &out)
        })
    }

    fn prefix(s: &str) -> Prefix {
        s.parse().expect("test prefix")
    }

    /// A sorted block table from `"prefix origin"` pairs.
    fn block_table(rows: &[(&str, u32)]) -> Vec<(Prefix, Asn)> {
        let mut blocks: Vec<(Prefix, Asn)> =
            rows.iter().map(|(p, asn)| (prefix(p), Asn(*asn))).collect();
        blocks.sort_by_key(|(p, _)| (p.addr(), p.len()));
        blocks
    }

    #[test]
    fn overlap_lookup_finds_covering_and_nested_blocks() {
        let blocks = block_table(&[
            ("10.0.0.0/8", 1),     // covers at a lower (or the same) address
            ("10.4.0.0/14", 2),    // nested in AS1's block
            ("10.4.0.0/16", 3),    // same address as AS2's, more specific
            ("10.5.0.0/16", 2),    // AS2 again: duplicates of one origin
            ("10.5.128.0/17", 4),  // nested three deep
            ("10.5.128.0/17", 5),  // the same block from a second origin
            ("10.8.0.0/16", 6),    // a sibling nothing below overlaps
            ("192.168.0.0/16", 7), // far away
            ("0.0.0.0/0", 8),      // the default route covers everything
        ]);
        let origins = |p: &str| -> Vec<u32> {
            let p = prefix(p);
            let got = overlapping_origins(&blocks, p);
            assert_eq!(got, origins_by_scan(&blocks, &p), "{p}");
            got.into_iter().map(|a| a.0).collect()
        };
        // Covered by a block at the same address, and by shorter ones.
        assert_eq!(origins("10.4.0.0/16"), [1, 2, 3, 8]);
        assert_eq!(origins("10.4.0.0/24"), [1, 2, 3, 8]);
        assert_eq!(origins("10.4.0.0/32"), [1, 2, 3, 8]);
        // Covered only from lower addresses; one origin reported once.
        assert_eq!(origins("10.5.0.0/17"), [1, 2, 8]);
        assert_eq!(origins("10.5.200.0/24"), [1, 2, 4, 5, 8]);
        assert_eq!(origins("10.5.200.77/32"), [1, 2, 4, 5, 8]);
        // Straddling nested more-specifics with different origins.
        assert_eq!(origins("10.4.0.0/15"), [1, 2, 3, 4, 5, 8]);
        assert_eq!(origins("10.0.0.0/8"), [1, 2, 3, 4, 5, 6, 8]);
        assert_eq!(origins("10.0.0.0/7"), [1, 2, 3, 4, 5, 6, 8]);
        // Routed space only through the covering blocks.
        assert_eq!(origins("10.9.0.0/16"), [1, 8]);
        assert_eq!(origins("11.0.0.0/8"), [8]);
        assert_eq!(origins("255.255.255.0/24"), [8]);
        assert_eq!(origins("0.0.0.0/0"), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(origins("128.0.0.0/1"), [7, 8]);
        assert!(overlapping_origins(&[], prefix("10.0.0.0/8")).is_empty());
    }

    #[test]
    fn fixed_queries_match_the_oracle() {
        let g = tiny_generation();
        let mut queries = vec![Query::Info];
        for p in [
            "0.0.0.0/0",
            "0.0.0.0/1",
            "128.0.0.0/1",
            "0.0.0.0/7",
            "1.0.0.0/8",
            "1.16.0.0/12",
            "1.0.0.0/13",
            "1.2.0.0/16",
            "1.2.64.0/20",
            "1.2.76.0/24",
            "1.3.5.128/25",
            "1.3.5.77/32",
            "255.255.255.0/24",
            "255.255.255.255/32",
        ] {
            queries.push(Query::Prefix(prefix(p)));
        }
        for k in [0, 1, 5, 117, 118, 119, 100_000, u32::MAX] {
            queries.push(Query::TopK(k));
        }
        for points in [0, 1, 16, 64, MAX_ECDF_POINTS] {
            queries.push(Query::Ecdf(points));
        }
        for q in &queries {
            assert_eq!(g.answer(q), g.oracle(q), "{q:?}");
        }
        // The whole ranking is what an unbounded k returns.
        let Reply::TopK(all) = g.answer(&Query::TopK(u32::MAX)) else {
            panic!("top-k must answer");
        };
        assert_eq!(all.len() as u32, g.info().active_ases);
        assert_eq!(g.info().log_offset, 77);
    }

    #[test]
    fn an_over_limit_ecdf_is_refused_not_computed() {
        let g = tiny_generation();
        for points in [MAX_ECDF_POINTS + 1, u32::MAX] {
            match g.answer(&Query::Ecdf(points)) {
                Reply::Err(e) => assert!(e.contains("exceeds the limit"), "{e}"),
                other => panic!("ecdf {points} must be refused, got {other:?}"),
            }
        }
        // The largest reply still fits one frame with room to spare.
        let Reply::Ecdf(series) = g.answer(&Query::Ecdf(MAX_ECDF_POINTS)) else {
            panic!("the limit itself is in range");
        };
        assert_eq!(series.len(), MAX_ECDF_POINTS as usize);
        let encoded = Reply::Ecdf(series).encode();
        assert!(encoded.len() < clientmap_fleet::MAX_FRAME_PAYLOAD);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any prefix — any length, anywhere, half of them aimed at
        /// the world's routed blocks — gets the scan's reply.
        #[test]
        fn prefix_answers_match_the_oracle(
            addr in proptest::arbitrary::any::<u32>(),
            len in 0u8..=32,
            aim in proptest::arbitrary::any::<bool>(),
            pick in proptest::arbitrary::any::<u32>(),
        ) {
            let g = tiny_generation();
            let addr = if aim {
                // Somewhere within 64 /24s of a routed block's start.
                let (block, _) = g.blocks[pick as usize % g.blocks.len()];
                block.addr().wrapping_add(addr & 0x3FFF)
            } else {
                addr
            };
            let q = Query::Prefix(Prefix::new(addr, len).unwrap());
            prop_assert_eq!(g.answer(&q), g.oracle(&q));
        }

        /// Any k and any in-range point count get the old replies.
        #[test]
        fn ranked_and_sampled_answers_match_the_oracle(
            k in prop_oneof![0u32..200, proptest::arbitrary::any::<u32>()],
            points in 0u32..=MAX_ECDF_POINTS,
        ) {
            let g = tiny_generation();
            for q in [Query::TopK(k), Query::Ecdf(points)] {
                prop_assert_eq!(g.answer(&q), g.oracle(&q));
            }
        }

        /// The overlap lookup equals the scan on random block tables
        /// dense enough to nest: a few origins, lengths /6…/28, all
        /// inside one /12 (plus the occasional far-away block).
        #[test]
        fn overlap_lookup_matches_the_scan(
            rows in proptest::collection::vec(
                (proptest::arbitrary::any::<u32>(), 6u8..=28, 1u32..6, 0u8..8),
                0..40,
            ),
            addr in proptest::arbitrary::any::<u32>(),
            len in 0u8..=32,
            near in proptest::arbitrary::any::<bool>(),
        ) {
            let place = |addr: u32, far: bool| {
                if far { addr } else { 0x0A00_0000 | (addr & 0x000F_FFFF) }
            };
            let mut blocks: Vec<(Prefix, Asn)> = rows
                .iter()
                .map(|(addr, len, asn, far)| {
                    (Prefix::new(place(*addr, *far == 0), *len).unwrap(), Asn(*asn))
                })
                .collect();
            blocks.sort_by_key(|(p, _)| (p.addr(), p.len()));
            let p = Prefix::new(place(addr, !near), len).unwrap();
            prop_assert_eq!(overlapping_origins(&blocks, p), origins_by_scan(&blocks, &p));
        }
    }
}
