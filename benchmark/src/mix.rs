//! The seeded query mix the service client sends.
//!
//! Keys are drawn from the generated world, so a typed `Err` reply is
//! a failure for everything except the 2 % of deliberately unknown
//! keys — unlike `clientmap_serve::storm_query`, a third of whose keys
//! miss the world.

use clientmap_geo::CountryCode;
use clientmap_net::{splitmix64, Asn, Prefix};
use clientmap_serve::{Query, Reply};
use clientmap_world::World;

/// What kind of query a mix entry is — and so what reply it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Query::As` for an AS that announces space.
    As,
    /// `Query::Country` for a country with such an AS.
    Country,
    /// `Query::Prefix` covering or inside an announced block, /8…/24.
    Prefix,
    /// `Query::TopK`, k in 1..=20.
    TopK,
    /// `Query::Ecdf`, 1..=64 points.
    Ecdf,
    /// `Query::Info`.
    Info,
    /// An AS or country the world does not have: `Reply::Err` is the
    /// correct answer.
    Unknown,
}

impl Kind {
    /// Every kind, in share-table order.
    pub const ALL: [Kind; 7] = [
        Kind::As,
        Kind::Country,
        Kind::Prefix,
        Kind::TopK,
        Kind::Ecdf,
        Kind::Info,
        Kind::Unknown,
    ];

    /// Percent of the mix.
    pub fn share(self) -> u64 {
        match self {
            Kind::As => 25,
            Kind::Country => 10,
            Kind::Prefix => 40,
            Kind::TopK => 10,
            Kind::Ecdf => 8,
            Kind::Info => 5,
            Kind::Unknown => 2,
        }
    }

    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::As => "as",
            Kind::Country => "country",
            Kind::Prefix => "prefix",
            Kind::TopK => "topk",
            Kind::Ecdf => "ecdf",
            Kind::Info => "info",
            Kind::Unknown => "unknown",
        }
    }

    /// Whether `reply` is a correct answer to a query of this kind.
    pub fn accepts(self, reply: &Reply) -> bool {
        matches!(
            (self, reply),
            (Kind::As, Reply::As(_))
                | (Kind::Country, Reply::Country(_))
                | (Kind::Prefix, Reply::Prefix(_))
                | (Kind::TopK, Reply::TopK(_))
                | (Kind::Ecdf, Reply::Ecdf(_))
                | (Kind::Info, Reply::Info(_))
                | (Kind::Unknown, Reply::Err(_))
        )
    }
}

/// A fixed-length query trace, replayed cyclically.
#[derive(Debug, Clone)]
pub struct QueryMix {
    entries: Vec<(Kind, Query)>,
}

/// Entries in a trace: long enough that per-kind shares sit within 1 %
/// of nominal, short enough to build in milliseconds.
pub const MIX_LEN: usize = 1 << 16;

impl QueryMix {
    /// Draws the trace for `seed` from `world`'s public structure.
    pub fn generate(world: &World, seed: u64) -> QueryMix {
        let origins = world.rib.origins();
        let mut countries: Vec<CountryCode> = world
            .ases
            .iter()
            .filter(|a| world.rib.announced_slash24s(a.asn) > 0)
            .map(|a| a.country)
            .collect();
        countries.sort_unstable();
        countries.dedup();
        let routed: Vec<Prefix> = world
            .blocks
            .iter()
            .filter(|b| b.routed)
            .map(|b| b.prefix)
            .collect();
        assert!(
            !origins.is_empty() && !countries.is_empty() && !routed.is_empty(),
            "generated world announces nothing to query"
        );
        let absent_country = (b'A'..=b'Z')
            .flat_map(|a| (b'A'..=b'Z').map(move |b| CountryCode::new(a, b)))
            .find(|c| countries.binary_search(c).is_err())
            .expect("fewer than 676 countries");
        let absent_asn = |h: u64| {
            // Walk up from a high ASN until one announces nothing.
            let mut asn = Asn(4_000_000_000 + (h % 1_000_000) as u32);
            while world.rib.announced_slash24s(asn) > 0 {
                asn = Asn(asn.0 + 1);
            }
            asn
        };

        let pick = |h: u64, n: usize| (h % n as u64) as usize;
        let entries = (0..MIX_LEN as u64)
            .map(|i| {
                let h = splitmix64(seed ^ splitmix64(i));
                let key = splitmix64(h);
                let mut slot = h % 100;
                let kind = Kind::ALL
                    .into_iter()
                    .find(|k| {
                        let hit = slot < k.share();
                        slot = slot.saturating_sub(k.share());
                        hit
                    })
                    .expect("shares sum to 100");
                let query = match kind {
                    Kind::As => Query::As(origins[pick(key, origins.len())]),
                    Kind::Country => Query::Country(countries[pick(key, countries.len())]),
                    Kind::Prefix => {
                        let block = routed[pick(key, routed.len())];
                        let len = 8 + ((key >> 32) % 17) as u8;
                        // Shorter than the block: its covering prefix.
                        // Longer: a seeded sub-prefix inside it.
                        let inside = block.addr() | ((key >> 8) as u32 & !block.netmask());
                        Query::Prefix(
                            Prefix::new(inside & (u32::MAX << (32 - len)), len)
                                .expect("masked to length"),
                        )
                    }
                    Kind::TopK => Query::TopK(1 + (key % 20) as u32),
                    Kind::Ecdf => Query::Ecdf(1 + (key % 64) as u32),
                    Kind::Info => Query::Info,
                    Kind::Unknown if key.is_multiple_of(2) => Query::As(absent_asn(key >> 1)),
                    Kind::Unknown => Query::Country(absent_country),
                };
                (kind, query)
            })
            .collect();
        QueryMix { entries }
    }

    /// The `i`-th query of the (cyclic) trace.
    pub fn get(&self, i: u64) -> &(Kind, Query) {
        &self.entries[(i % self.entries.len() as u64) as usize]
    }

    /// One full cycle.
    pub fn entries(&self) -> &[(Kind, Query)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_core::{Pipeline, PipelineConfig};
    use clientmap_serve::Generation;
    use clientmap_world::WorldConfig;

    #[test]
    fn trace_is_deterministic_per_seed() {
        let world = World::generate(WorldConfig::tiny(5));
        let a = QueryMix::generate(&world, 5);
        let b = QueryMix::generate(&world, 5);
        let c = QueryMix::generate(&world, 6);
        assert_eq!(a.entries, b.entries);
        assert_ne!(a.entries, c.entries);
        assert_eq!(a.get(3), a.get(3 + MIX_LEN as u64));
    }

    #[test]
    fn shares_sit_within_one_percent_of_nominal() {
        assert_eq!(Kind::ALL.iter().map(|k| k.share()).sum::<u64>(), 100);
        let world = World::generate(WorldConfig::tiny(9));
        let mix = QueryMix::generate(&world, 9);
        for kind in Kind::ALL {
            let n = mix.entries.iter().filter(|(k, _)| *k == kind).count();
            let share = 100.0 * n as f64 / MIX_LEN as f64;
            assert!(
                (share - kind.share() as f64).abs() < 1.0,
                "{}: {share:.2}% vs {}%",
                kind.label(),
                kind.share()
            );
        }
        let lens: std::collections::BTreeSet<u8> = mix
            .entries
            .iter()
            .filter_map(|(_, q)| match q {
                Query::Prefix(p) => Some(p.len()),
                _ => None,
            })
            .collect();
        assert_eq!(lens, (8..=24).collect());
    }

    #[test]
    fn every_key_gets_the_reply_its_kind_demands() {
        let out = Pipeline::run(PipelineConfig::tiny(3)).expect("tiny run is healthy");
        let generation = Generation::build(1, 0, &out);
        let mix = QueryMix::generate(out.sim.world(), 3);
        for (kind, query) in mix.entries() {
            let reply = generation.answer(query);
            assert!(
                kind.accepts(&reply),
                "{} query {query:?} got {reply:?}",
                kind.label()
            );
        }
        // And the check itself refuses a mismatched or Err reply.
        assert!(!Kind::As.accepts(&Reply::Err("x".into())));
        assert!(!Kind::Unknown.accepts(&Reply::Bye));
        assert!(!Kind::Info.accepts(&Reply::TopK(Vec::new())));
    }
}
