//! Per-domain cache-probing results (Table 5 / Appendix B.4).

use clientmap_cacheprobe::CacheProbeResult;
use clientmap_net::{Asn, PrefixSet, Rib};

/// Per-domain discovery statistics plus the pairwise containment
/// overlap the paper reports ("we treat prefixes returned by different
/// domains as matching as long as one prefix contains the other" —
/// which [`clientmap_net::PrefixSet`]'s /24 algebra implements).
#[derive(Debug, Clone)]
pub struct DomainOverlap {
    /// Domain names, aligned with all indices below.
    pub domains: Vec<String>,
    /// Total active prefixes (/24s) per domain.
    pub total_prefixes: Vec<u64>,
    /// /24s detected by *only* this domain.
    pub unique_prefixes: Vec<u64>,
    /// ASes per domain.
    pub total_ases: Vec<u64>,
    /// ASes detected by only this domain.
    pub unique_ases: Vec<u64>,
    /// `pairwise[i][j]`: /24s of domain `i` also covered by domain `j`
    /// (diagonal = total).
    pub pairwise: Vec<Vec<u64>>,
}

/// Builds Table 5 from a probing run.
pub fn domain_overlap(result: &CacheProbeResult, rib: &Rib) -> DomainOverlap {
    let n = result.domains.len();
    let sets: Vec<PrefixSet> = (0..n).map(|d| result.active_set_for_domain(d)).collect();
    let as_sets: Vec<Vec<Asn>> = sets
        .iter()
        .map(|s| {
            let mut v: Vec<Asn> = s
                .prefixes()
                .iter()
                .flat_map(|p| rib.origins_within(*p))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();

    let total_prefixes: Vec<u64> = sets.iter().map(|s| s.num_slash24s()).collect();
    let total_ases: Vec<u64> = as_sets.iter().map(|s| s.len() as u64).collect();

    // Unique prefixes: /24s in domain i's set covered by no other set.
    let mut unique_prefixes = vec![0u64; n];
    for i in 0..n {
        let mut others = PrefixSet::new();
        for (j, s) in sets.iter().enumerate() {
            if j != i {
                others.extend(s);
            }
        }
        unique_prefixes[i] = sets[i].num_slash24s() - sets[i].intersection_slash24s(&others);
    }
    let mut unique_ases = vec![0u64; n];
    for i in 0..n {
        let mut others: Vec<Asn> = as_sets
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        others.sort_unstable();
        others.dedup();
        unique_ases[i] = as_sets[i]
            .iter()
            .filter(|a| others.binary_search(a).is_err())
            .count() as u64;
    }

    let pairwise = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        total_prefixes[i]
                    } else {
                        sets[i].intersection_slash24s(&sets[j])
                    }
                })
                .collect()
        })
        .collect();

    DomainOverlap {
        domains: result.domains.iter().map(|d| d.to_string()).collect(),
        total_prefixes,
        unique_prefixes,
        total_ases,
        unique_ases,
        pairwise,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> clientmap_net::Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn overlap_accounting() {
        let mut rib = Rib::new();
        rib.announce(p("10.0.0.0/8"), Asn(1));
        rib.announce(p("11.0.0.0/8"), Asn(2));
        let mut r = clientmap_cacheprobe::CacheProbeResult::new(
            vec![
                "www.google.com".parse().unwrap(),
                "www.wikipedia.org".parse().unwrap(),
            ],
            Vec::new(),
            Default::default(),
        );
        // Google: fine scopes in 10/8 and 11/8.
        r.record_hit(0, 0, p("10.1.0.0/24"), p("10.1.0.0/24"), 1);
        r.record_hit(0, 0, p("11.1.0.0/24"), p("11.1.0.0/24"), 1);
        // Wikipedia: one coarse scope containing google's first hit.
        r.record_hit(1, 0, p("10.1.0.0/16"), p("10.1.0.0/16"), 1);

        let t5 = domain_overlap(&r, &rib);
        assert_eq!(t5.total_prefixes, vec![2, 256]);
        // Google's 10.1.0.0/24 is inside wikipedia's /16 ⇒ only the 11/8
        // hit is unique; wikipedia has 255 /24s not seen by google.
        assert_eq!(t5.unique_prefixes, vec![1, 255]);
        assert_eq!(t5.total_ases, vec![2, 1]);
        assert_eq!(t5.unique_ases, vec![1, 0]);
        // Pairwise: google ∩ wikipedia = 1 /24 (containment counts).
        assert_eq!(t5.pairwise[0][1], 1);
        assert_eq!(t5.pairwise[1][0], 1);
        assert_eq!(t5.pairwise[0][0], 2);
    }
}
