//! Relative activity ranking from cache-hit rates — the paper's §6
//! future-work direction, implemented.
//!
//! A scope probed `a` times with `h` hits has an observed hit rate
//! `r = h/a`. Under the Poisson model, one cache *pool*'s entry is live
//! with probability `p = 1 − exp(−λ·TTL/K)`; a probe with `R` redundant
//! queries samples up to `R` of the `K` pools, so
//! `r ≈ 1 − (1 − p)^{E}` with `E = K·(1−((K−1)/K)^R)` effective pools.
//! Inverting gives a per-scope **activity estimate**
//! `λ̂ = −(K/TTL)·ln(1 − (1 − (1−r)^{1/E}))⁻¹`… in practice the clean
//! invertible form is `p̂ = 1 − (1−r)^{1/E}`, `λ̂ = −K·ln(1−p̂)/TTL`.
//!
//! The estimate is *relative*: cross-prefix comparisons share the same
//! unknown constants (per-user query rate, Google share), so ranking by
//! `λ̂` ranks prefixes by client activity — which the `repro ranking`
//! harness validates against the simulation's ground-truth rates.

use std::collections::HashMap;

use clientmap_cacheprobe::CacheProbeResult;
use clientmap_net::Prefix;

/// One ranked scope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityEstimate {
    /// The query scope.
    pub scope: Prefix,
    /// Probe attempts across the run.
    pub attempts: u64,
    /// Observed hit rate.
    pub hit_rate: f64,
    /// Estimated Google-bound query rate (relative units, 1/s).
    pub lambda_hat: f64,
}

/// Inverts a hit rate into a rate estimate.
///
/// `pools` is the number of independent caches per PoP, `redundancy`
/// the queries per probe event, `ttl_secs` the record TTL.
pub fn invert_hit_rate(hit_rate: f64, pools: u32, redundancy: u32, ttl_secs: u32) -> f64 {
    let k = f64::from(pools.max(1));
    // Effective distinct pools sampled by R draws with replacement.
    let e = k * (1.0 - ((k - 1.0) / k).powi(redundancy.max(1) as i32));
    let r = hit_rate.clamp(0.0, 0.999_999);
    let p_pool = 1.0 - (1.0 - r).powf(1.0 / e);
    -k * (1.0 - p_pool).ln() / f64::from(ttl_secs.max(1))
}

/// Per-scope activity estimates from a probing run, for one domain
/// (`domain` indexes `result.domains`). Scopes never probed are absent.
pub fn activity_estimates(
    result: &CacheProbeResult,
    domain: usize,
    pools: u32,
    redundancy: u32,
    ttl_secs: u32,
) -> Vec<ActivityEstimate> {
    let mut out: Vec<ActivityEstimate> = result
        .probe_counts
        .iter()
        .filter(|((d, _), _)| *d == domain)
        .map(|((_, scope), c)| ActivityEstimate {
            scope: *scope,
            attempts: c.attempts,
            hit_rate: c.hit_rate(),
            lambda_hat: invert_hit_rate(c.hit_rate(), pools, redundancy, ttl_secs),
        })
        .collect();
    out.sort_by(|a, b| {
        b.lambda_hat
            .total_cmp(&a.lambda_hat)
            .then_with(|| a.scope.cmp(&b.scope))
    });
    out
}

/// Spearman rank correlation between two paired samples. Returns
/// `None` for degenerate inputs (< 3 pairs or zero variance).
pub fn spearman(pairs: &[(f64, f64)]) -> Option<f64> {
    let n = pairs.len();
    if n < 3 {
        return None;
    }
    let rank = |values: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|a, b| values[*a].total_cmp(&values[*b]));
        let mut ranks = vec![0.0; values.len()];
        let mut i = 0;
        while i < idx.len() {
            // Average ranks over ties.
            let mut j = i;
            while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for k in i..=j {
                ranks[idx[k]] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let rx = rank(pairs.iter().map(|p| p.0).collect());
    let ry = rank(pairs.iter().map(|p| p.1).collect());
    let mean = (n as f64 + 1.0) / 2.0;
    let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let a = rx[i] - mean;
        let b = ry[i] - mean;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if dx <= 0.0 || dy <= 0.0 {
        return None;
    }
    Some(num / (dx * dy).sqrt())
}

/// Joins activity estimates against an external per-scope measure
/// (e.g. ground truth in validation) and returns the Spearman rank
/// correlation.
pub fn rank_agreement(estimates: &[ActivityEstimate], truth: &HashMap<Prefix, f64>) -> Option<f64> {
    let pairs: Vec<(f64, f64)> = estimates
        .iter()
        .filter_map(|e| truth.get(&e.scope).map(|t| (e.lambda_hat, *t)))
        .collect();
    spearman(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inversion_monotone_and_zero_at_zero() {
        assert_eq!(invert_hit_rate(0.0, 4, 5, 300), 0.0);
        let lo = invert_hit_rate(0.1, 4, 5, 300);
        let mid = invert_hit_rate(0.5, 4, 5, 300);
        let hi = invert_hit_rate(0.9, 4, 5, 300);
        assert!(0.0 < lo && lo < mid && mid < hi, "{lo} {mid} {hi}");
        // Saturated rates stay finite.
        assert!(invert_hit_rate(1.0, 4, 5, 300).is_finite());
    }

    #[test]
    fn inversion_recovers_known_lambda() {
        // Forward-simulate the model, then invert.
        let (k, r, ttl) = (4.0f64, 5u32, 300.0f64);
        for lambda in [1e-4, 1e-3, 1e-2] {
            let p = 1.0 - (-lambda * ttl / k).exp();
            let e = k * (1.0 - ((k - 1.0) / k).powi(r as i32));
            let hit_rate = 1.0 - (1.0 - p).powf(e);
            let lhat = invert_hit_rate(hit_rate, 4, r, 300);
            assert!(
                (lhat - lambda).abs() < 0.05 * lambda,
                "λ {lambda}: λ̂ {lhat}"
            );
        }
    }

    #[test]
    fn spearman_basics() {
        let inc: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((spearman(&inc).unwrap() - 1.0).abs() < 1e-12);
        let dec: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((spearman(&dec).unwrap() + 1.0).abs() < 1e-12);
        assert!(spearman(&inc[..2]).is_none());
        let flat: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 7.0)).collect();
        assert!(spearman(&flat).is_none());
    }

    #[test]
    fn spearman_handles_ties() {
        let pairs = vec![(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)];
        let rho = spearman(&pairs).unwrap();
        assert!(rho > 0.8, "rho {rho}");
    }

    #[test]
    fn estimates_sorted_by_activity() {
        let mut result = clientmap_cacheprobe::CacheProbeResult::new(
            vec!["www.google.com".parse().unwrap()],
            Vec::new(),
            Default::default(),
        );
        let quiet: Prefix = "10.1.0.0/20".parse().unwrap();
        let busy: Prefix = "10.2.0.0/20".parse().unwrap();
        result.probe_counts.insert(
            (0, quiet),
            clientmap_cacheprobe::ProbeCount {
                attempts: 10,
                hits: 1,
                ..Default::default()
            },
        );
        result.probe_counts.insert(
            (0, busy),
            clientmap_cacheprobe::ProbeCount {
                attempts: 10,
                hits: 9,
                ..Default::default()
            },
        );
        let est = activity_estimates(&result, 0, 4, 5, 300);
        assert_eq!(est.len(), 2);
        assert_eq!(est[0].scope, busy);
        assert!(est[0].lambda_hat > est[1].lambda_hat);
        // Ground-truth agreement.
        let truth: HashMap<Prefix, f64> = [(quiet, 0.001), (busy, 0.1)].into_iter().collect();
        // Only 2 points → Spearman undefined; add a third.
        let mid: Prefix = "10.3.0.0/20".parse().unwrap();
        result.probe_counts.insert(
            (0, mid),
            clientmap_cacheprobe::ProbeCount {
                attempts: 10,
                hits: 5,
                ..Default::default()
            },
        );
        let est = activity_estimates(&result, 0, 4, 5, 300);
        let mut truth = truth;
        truth.insert(mid, 0.01);
        let rho = rank_agreement(&est, &truth).unwrap();
        assert!(rho > 0.99, "rho {rho}");
    }
}
