//! The domain catalog: Alexa-style ranks, ECS support, TTLs, scope
//! policies, and query popularity.
//!
//! The paper probes the four most popular domains that (a) support ECS
//! and (b) have TTL > 60 s — `www.google.com` (rank 1),
//! `www.youtube.com` (rank 2), `facebook.com` (rank 7, ECS only
//! *without* `www`), `www.wikipedia.org` (rank 13, coarse /16–/18
//! scopes) — plus one Microsoft CDN domain used for validation. The
//! catalog reproduces those properties and surrounds them with popular
//! non-qualifying domains so the *selection logic* is actually
//! exercised (a domain can fail the filter by lacking ECS or by a
//! too-short TTL).

use clientmap_dns::DomainName;

/// Who operates a domain's authoritative servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provider {
    /// Google properties.
    Google,
    /// Meta properties.
    Meta,
    /// Wikimedia.
    Wikimedia,
    /// Microsoft (the CDN / Traffic Manager domain used for validation).
    Microsoft,
    /// Anyone else.
    Other,
}

/// One domain's static properties.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// The name.
    pub name: DomainName,
    /// Alexa-style global popularity rank (1 = most popular).
    pub rank: u32,
    /// Whether the authoritative supports ECS *for this exact name*.
    pub supports_ecs: bool,
    /// Authoritative record TTL, seconds.
    pub ttl_secs: u32,
    /// Range of ECS response scope lengths the authoritative assigns
    /// (inclusive); e.g. Wikipedia answers /16–/18, Google /20–/24.
    pub scope_len_range: (u8, u8),
    /// Fraction of the world's web DNS queries that target this domain.
    pub popularity_weight: f64,
    /// Operator.
    pub provider: Provider,
}

impl DomainSpec {
    /// Whether the domain passes the paper's probing filter:
    /// supports ECS and TTL > 60 s.
    pub fn probeable(&self) -> bool {
        self.supports_ecs && self.ttl_secs > 60
    }
}

/// The catalog.
#[derive(Debug, Clone)]
pub struct DomainCatalog {
    specs: Vec<DomainSpec>,
}

fn spec(
    name: &str,
    rank: u32,
    supports_ecs: bool,
    ttl_secs: u32,
    scope_len_range: (u8, u8),
    provider: Provider,
) -> DomainSpec {
    DomainSpec {
        name: name.parse().expect("static catalog names are valid"),
        rank,
        supports_ecs,
        ttl_secs,
        scope_len_range,
        // Zipf-ish popularity from rank; normalised in `new`.
        popularity_weight: 1.0 / f64::from(rank).powf(0.9),
        provider,
    }
}

impl DomainCatalog {
    /// Builds the standard catalog.
    pub fn standard() -> Self {
        let mut specs = vec![
            // The four probeable Alexa leaders (paper §3.1.1 / B.4).
            spec("www.google.com", 1, true, 300, (20, 24), Provider::Google),
            spec("www.youtube.com", 2, true, 300, (20, 24), Provider::Google),
            // Facebook's quirk: ECS only without `www`; the `www` variant
            // is *more* queried by real users but unusable for probing.
            spec("www.facebook.com", 6, false, 300, (24, 24), Provider::Meta),
            spec("facebook.com", 7, true, 300, (20, 24), Provider::Meta),
            spec(
                "www.wikipedia.org",
                13,
                true,
                600,
                (16, 18),
                Provider::Wikimedia,
            ),
            // Popular domains that FAIL the filter, so selection logic is
            // non-trivial: no ECS, or TTL ≤ 60.
            spec("www.amazon.com", 3, false, 60, (24, 24), Provider::Other),
            spec("www.baidu.com", 4, false, 300, (24, 24), Provider::Other),
            spec("twitter.com", 5, true, 30, (20, 24), Provider::Other),
            spec("www.instagram.com", 8, false, 300, (24, 24), Provider::Meta),
            spec("www.netflix.com", 9, false, 60, (24, 24), Provider::Other),
            spec("www.tiktok.com", 10, true, 60, (20, 24), Provider::Other),
            spec("www.reddit.com", 11, false, 300, (24, 24), Provider::Other),
            spec(
                "www.office.com",
                12,
                false,
                300,
                (24, 24),
                Provider::Microsoft,
            ),
            spec("www.bing.com", 14, true, 30, (20, 24), Provider::Microsoft),
            spec("www.yahoo.com", 15, false, 60, (24, 24), Provider::Other),
            // The Microsoft CDN validation domain: ECS, 5-minute TTL,
            // served by Azure Traffic Manager (paper §3.1.1).
            spec(
                "cdn.msvalidation.example",
                18,
                true,
                300,
                (20, 24),
                Provider::Microsoft,
            ),
            // A long tail of other destinations aggregated into buckets.
            spec(
                "tail-bucket-a.example",
                50,
                false,
                120,
                (24, 24),
                Provider::Other,
            ),
            spec(
                "tail-bucket-b.example",
                80,
                false,
                120,
                (24, 24),
                Provider::Other,
            ),
            spec(
                "tail-bucket-c.example",
                120,
                false,
                120,
                (24, 24),
                Provider::Other,
            ),
        ];
        // Normalise popularity to sum 1.
        let total: f64 = specs.iter().map(|s| s.popularity_weight).sum();
        for s in &mut specs {
            s.popularity_weight /= total;
        }
        DomainCatalog { specs }
    }

    /// All specs, rank order not guaranteed.
    pub fn specs(&self) -> &[DomainSpec] {
        &self.specs
    }

    /// Looks a domain up by name.
    pub fn get(&self, name: &DomainName) -> Option<&DomainSpec> {
        self.specs.iter().find(|s| &s.name == name)
    }

    /// The paper's probing set: the `n` most popular domains passing
    /// the filter (ECS + TTL > 60), by rank.
    pub fn top_probeable(&self, n: usize) -> Vec<&DomainSpec> {
        let mut v: Vec<&DomainSpec> = self.specs.iter().filter(|s| s.probeable()).collect();
        v.sort_by_key(|s| s.rank);
        v.truncate(n);
        v
    }

    /// The Microsoft CDN validation domain.
    pub fn microsoft_cdn(&self) -> &DomainSpec {
        self.specs
            .iter()
            .find(|s| s.provider == Provider::Microsoft && s.supports_ecs && s.ttl_secs > 60)
            .expect("catalog contains the validation domain")
    }
}

impl Default for DomainCatalog {
    fn default() -> Self {
        DomainCatalog::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_set_matches_paper() {
        let cat = DomainCatalog::standard();
        let top: Vec<String> = cat
            .top_probeable(4)
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(
            top,
            vec![
                "www.google.com",
                "www.youtube.com",
                "facebook.com",
                "www.wikipedia.org"
            ]
        );
    }

    #[test]
    fn filter_excludes_for_the_right_reasons() {
        let cat = DomainCatalog::standard();
        // twitter has ECS but a 30s TTL.
        let tw = cat.get(&"twitter.com".parse().unwrap()).unwrap();
        assert!(tw.supports_ecs && !tw.probeable());
        // amazon has a fine rank but no ECS.
        let am = cat.get(&"www.amazon.com".parse().unwrap()).unwrap();
        assert!(!am.supports_ecs);
        // www.facebook.com (rank 6) fails, facebook.com (rank 7) passes.
        assert!(!cat
            .get(&"www.facebook.com".parse().unwrap())
            .unwrap()
            .probeable());
        assert!(cat
            .get(&"facebook.com".parse().unwrap())
            .unwrap()
            .probeable());
    }

    #[test]
    fn wikipedia_scopes_are_coarse() {
        let cat = DomainCatalog::standard();
        let w = cat.get(&"www.wikipedia.org".parse().unwrap()).unwrap();
        assert_eq!(w.scope_len_range, (16, 18));
        let g = cat.get(&"www.google.com".parse().unwrap()).unwrap();
        assert!(g.scope_len_range.0 >= 20);
    }

    #[test]
    fn popularity_normalised_and_rank_decreasing() {
        let cat = DomainCatalog::standard();
        let total: f64 = cat.specs().iter().map(|s| s.popularity_weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let g = cat.get(&"www.google.com".parse().unwrap()).unwrap();
        let w = cat.get(&"www.wikipedia.org".parse().unwrap()).unwrap();
        assert!(g.popularity_weight > w.popularity_weight);
    }

    #[test]
    fn microsoft_cdn_domain_present() {
        let cat = DomainCatalog::standard();
        let ms = cat.microsoft_cdn();
        assert_eq!(ms.ttl_secs, 300);
        assert!(ms.supports_ecs);
        assert_eq!(ms.provider, Provider::Microsoft);
    }
}
