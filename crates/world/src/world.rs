//! The assembled [`World`] and its query helpers.

use std::collections::HashMap;

use clientmap_geo::{GeoDb, Metro};
use clientmap_net::{Asn, Prefix, Rib};

use crate::types::{AsId, AsInfo, BlockInfo, ResolverId, ResolverInfo, Slash24Info};
use crate::{DomainCatalog, WorldConfig};

/// The synthetic Internet: structure, population, and ground truth.
///
/// ```
/// use clientmap_world::{World, WorldConfig};
/// let world = World::generate(WorldConfig::tiny(42));
/// assert!(world.ases.len() >= 120);
/// assert!(world.total_users() > 1.9e6);
/// // Deterministic under the seed:
/// let again = World::generate(WorldConfig::tiny(42));
/// assert_eq!(world.slash24s.len(), again.slash24s.len());
/// ```
#[derive(Debug)]
pub struct World {
    /// The generating configuration.
    pub config: WorldConfig,
    /// All ASes; index is [`AsId`].
    pub ases: Vec<AsInfo>,
    /// All allocated blocks.
    pub blocks: Vec<BlockInfo>,
    /// Every **routed** /24 with its ground truth.
    pub slash24s: Vec<Slash24Info>,
    /// All recursive resolvers; index is [`ResolverId`].
    pub resolvers: Vec<ResolverInfo>,
    /// The routing table (routed blocks only).
    pub rib: Rib,
    /// The (imperfect) geolocation database.
    pub geodb: GeoDb,
    /// The domain catalog.
    pub domains: DomainCatalog,
    /// The Google AS (operates Google Public DNS).
    pub google_as: AsId,
    /// The Microsoft AS (operates the CDN + Traffic Manager).
    pub microsoft_as: AsId,
    /// Other public resolver ids.
    pub other_public_resolvers: Vec<ResolverId>,

    asn_to_id: HashMap<Asn, AsId>,
    slash24_index: HashMap<u32, usize>,
}

impl World {
    /// Generates a world from the configuration (see the `gen` module).
    pub fn generate(config: WorldConfig) -> World {
        crate::gen::generate(config)
    }

    /// Registers the world's shape under `world.` in `m` — run-constant
    /// gauges (expressed as counters set once) that make a metrics
    /// snapshot self-describing: a diff between two runs immediately
    /// shows whether the *input* universe changed, not just the
    /// technique's behaviour. Delegates geolocation-side gauges to
    /// [`GeoDb::register_metrics`].
    pub fn register_metrics(&self, m: &clientmap_telemetry::MetricsRegistry) {
        m.counter("world.ases").add(self.ases.len() as u64);
        m.counter("world.blocks").add(self.blocks.len() as u64);
        m.counter("world.slash24s.routed")
            .add(self.slash24s.len() as u64);
        m.counter("world.slash24s.active")
            .add(self.active_slash24s().count() as u64);
        m.counter("world.resolvers")
            .add(self.resolvers.len() as u64);
        m.counter("world.domains")
            .add(self.domains.specs().len() as u64);
        m.counter("world.rib.prefixes").add(self.rib.len() as u64);
        m.counter("world.rib.announced_slash24s")
            .add(self.rib.total_announced_slash24s());
        self.geodb.register_metrics(m);
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        config: WorldConfig,
        ases: Vec<AsInfo>,
        blocks: Vec<BlockInfo>,
        slash24s: Vec<Slash24Info>,
        resolvers: Vec<ResolverInfo>,
        rib: Rib,
        geodb: GeoDb,
        domains: DomainCatalog,
        google_as: AsId,
        microsoft_as: AsId,
        other_public_resolvers: Vec<ResolverId>,
    ) -> World {
        let asn_to_id = ases.iter().enumerate().map(|(i, a)| (a.asn, i)).collect();
        let slash24_index = slash24s
            .iter()
            .enumerate()
            .map(|(i, s)| (s.prefix.addr() >> 8, i))
            .collect();
        World {
            config,
            ases,
            blocks,
            slash24s,
            resolvers,
            rib,
            geodb,
            domains,
            google_as,
            microsoft_as,
            other_public_resolvers,
            asn_to_id,
            slash24_index,
        }
    }

    /// The world metro catalog.
    pub fn metros(&self) -> &'static [Metro] {
        clientmap_geo::world_metros()
    }

    /// Total human users.
    pub fn total_users(&self) -> f64 {
        self.ases.iter().map(|a| a.users).sum()
    }

    /// AS id for an ASN.
    pub fn as_id(&self, asn: Asn) -> Option<AsId> {
        self.asn_to_id.get(&asn).copied()
    }

    /// The AS originating `prefix` per the RIB.
    pub fn as_of_prefix(&self, prefix: Prefix) -> Option<AsId> {
        self.rib
            .origin_of_prefix(prefix)
            .and_then(|asn| self.as_id(asn))
    }

    /// The AS originating the route covering `addr`.
    pub fn as_of_addr(&self, addr: u32) -> Option<AsId> {
        self.rib
            .origin_of_addr(addr)
            .and_then(|asn| self.as_id(asn))
    }

    /// Ground-truth record for a routed /24 (exact match on the /24
    /// containing `prefix`).
    pub fn slash24(&self, prefix: Prefix) -> Option<&Slash24Info> {
        self.slash24_index
            .get(&(prefix.addr() >> 8))
            .map(|i| &self.slash24s[*i])
    }

    /// All routed /24s with any clients.
    pub fn active_slash24s(&self) -> impl Iterator<Item = &Slash24Info> {
        self.slash24s.iter().filter(|s| s.is_active())
    }

    /// Total routed /24 count (should be near the config target).
    pub fn routed_slash24s(&self) -> u64 {
        self.slash24s.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ResolverKind;
    use crate::AsCategory;
    use clientmap_geo::PrefixKind;

    fn tiny() -> World {
        World::generate(WorldConfig::tiny(7))
    }

    #[test]
    fn user_total_matches_config() {
        let w = tiny();
        let total = w.total_users();
        // The per-AS cap may shave a little off the normalised total.
        assert!(
            total > 0.8 * w.config.total_users && total <= 1.01 * w.config.total_users,
            "total {total}"
        );
    }

    #[test]
    fn routed_space_near_target() {
        let w = tiny();
        let routed = w.routed_slash24s();
        let target = w.config.target_routed_slash24s;
        assert!(
            routed as f64 > 0.7 * target as f64 && (routed as f64) < 1.4 * target as f64,
            "routed {routed}, target {target}"
        );
    }

    #[test]
    fn rib_agrees_with_slash24_table() {
        let w = tiny();
        for s in w.slash24s.iter().step_by(17) {
            let asn = w
                .rib
                .origin_of_prefix(s.prefix)
                .expect("routed /24 must resolve");
            assert_eq!(w.as_id(asn), Some(s.as_id), "prefix {}", s.prefix);
        }
    }

    #[test]
    fn geodb_covers_routed_space() {
        let w = tiny();
        for s in w.slash24s.iter().step_by(13) {
            assert!(
                w.geodb.lookup(s.prefix).is_some(),
                "no geo for {}",
                s.prefix
            );
        }
    }

    #[test]
    fn active_users_live_in_eyeball_space_mostly() {
        let w = tiny();
        let mut eyeball_users = 0.0;
        let mut infra_users = 0.0;
        for s in &w.slash24s {
            match s.kind {
                PrefixKind::Eyeball => eyeball_users += s.users,
                PrefixKind::Infrastructure => infra_users += s.users,
            }
        }
        assert!(
            eyeball_users > 10.0 * infra_users,
            "eyeball {eyeball_users} vs infra {infra_users}"
        );
    }

    #[test]
    fn per_as_users_sum_to_as_totals() {
        let w = tiny();
        let mut per_as: Vec<f64> = vec![0.0; w.ases.len()];
        for s in &w.slash24s {
            per_as[s.as_id] += s.users;
        }
        for (i, a) in w.ases.iter().enumerate() {
            assert!(
                (per_as[i] - a.users).abs() < 1e-6 * a.users.max(1.0),
                "AS {} ({:?}): spread {} != total {}",
                a.asn,
                a.category,
                per_as[i],
                a.users
            );
        }
    }

    #[test]
    fn resolver_mix_normalised_for_active_prefixes() {
        let w = tiny();
        let mut google_free = 0usize;
        let mut total_active = 0usize;
        for s in w.active_slash24s() {
            let m = s.resolver_mix;
            let total = m.isp + m.google + m.other;
            assert!((total - 1.0).abs() < 1e-9, "mix sums to {total}");
            assert!(m.google >= 0.0);
            total_active += 1;
            if m.google < 0.02 {
                google_free += 1;
            }
            // Prefixes in ASes without a local resolver put no weight there.
            if w.ases[s.as_id].local_resolver.is_none() {
                assert_eq!(m.isp, 0.0);
            }
        }
        // The Google-free population must exist but not dominate.
        assert!(google_free > 0, "no Google-free networks generated");
        assert!(
            google_free * 2 < total_active,
            "too many Google-free prefixes"
        );
    }

    #[test]
    fn special_ases_present() {
        let w = tiny();
        let google = w.ases[w.google_as].local_resolver.expect("installed");
        assert_eq!(w.resolvers[google].kind, ResolverKind::GooglePublic);
        assert!(w.ases[w.microsoft_as].machines > 0.0);
        assert_eq!(
            w.other_public_resolvers.len(),
            w.config.num_other_public_resolvers
        );
        for &r in &w.other_public_resolvers {
            assert_eq!(w.resolvers[r].kind, ResolverKind::OtherPublic);
        }
    }

    #[test]
    fn unrouted_blocks_exist_and_are_not_in_rib() {
        let w = tiny();
        let unrouted: Vec<&BlockInfo> = w.blocks.iter().filter(|b| !b.routed).collect();
        assert!(!unrouted.is_empty(), "expected some unrouted allocations");
        for b in unrouted.iter().take(20) {
            assert!(w.rib.lookup(b.prefix).is_none(), "{} is routed", b.prefix);
        }
    }

    #[test]
    fn category_mix_reasonable() {
        let w = World::generate(WorldConfig::small(3));
        let isps = w
            .ases
            .iter()
            .filter(|a| a.category == AsCategory::Isp)
            .count();
        let frac = isps as f64 / w.ases.len() as f64;
        assert!((0.3..0.5).contains(&frac), "ISP fraction {frac}");
    }

    #[test]
    fn deterministic_generation() {
        let a = World::generate(WorldConfig::tiny(99));
        let b = World::generate(WorldConfig::tiny(99));
        assert_eq!(a.ases.len(), b.ases.len());
        assert_eq!(a.slash24s.len(), b.slash24s.len());
        for (x, y) in a.slash24s.iter().zip(&b.slash24s).step_by(7) {
            assert_eq!(x.prefix, y.prefix);
            assert_eq!(x.users, y.users);
        }
        let c = World::generate(WorldConfig::tiny(100));
        // Different seed ⇒ different world (user spread almost surely).
        let diff = a
            .slash24s
            .iter()
            .zip(&c.slash24s)
            .any(|(x, y)| x.prefix != y.prefix || (x.users - y.users).abs() > 1e-9);
        assert!(diff);
    }

    #[test]
    fn lookups_roundtrip() {
        let w = tiny();
        let s = w.slash24s.iter().find(|s| s.is_active()).unwrap();
        assert_eq!(w.slash24(s.prefix).unwrap().prefix, s.prefix);
        assert_eq!(w.as_of_prefix(s.prefix), Some(s.as_id));
        assert_eq!(w.as_of_addr(s.prefix.addr() | 5), Some(s.as_id));
    }
}
