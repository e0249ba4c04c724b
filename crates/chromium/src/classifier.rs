//! The two-part Chromium probe signature.

/// Classifies root-trace queries as Chromium interception probes.
///
/// ```
/// use clientmap_chromium::ChromiumClassifier;
/// use clientmap_dns::DomainName;
/// let c = ChromiumClassifier::default();
/// let name = |s: &str| s.parse::<DomainName>().unwrap().to_string();
/// assert!(c.matches_shape(&name("sdhfjssf")));
/// assert!(!c.matches_shape(&name("columbia.edu"))); // has a TLD
/// assert!(!c.matches_shape(&name("abc"))); // too short
/// assert!(!c.matches_shape(&name("ab3defgh"))); // digit
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ChromiumClassifier {
    /// Minimum label length (Chromium uses 7).
    pub min_len: usize,
    /// Maximum label length (Chromium uses 15).
    pub max_len: usize,
    /// A shape-matching name repeated at least this many times in any
    /// single day is rejected as noise (paper: 7/day at 99% confidence).
    pub daily_collision_threshold: u32,
}

impl Default for ChromiumClassifier {
    fn default() -> Self {
        ChromiumClassifier {
            min_len: 7,
            max_len: 15,
            daily_collision_threshold: 7,
        }
    }
}

impl ChromiumClassifier {
    /// Whether a name, in presentation form (lowercase, as a parsed
    /// `DomainName` prints), has the Chromium probe *shape*: one label
    /// of `min_len..=max_len` lowercase ASCII letters. A dot is not a
    /// letter, so a name of two labels never matches.
    pub fn matches_shape(&self, name: &str) -> bool {
        (self.min_len..=self.max_len).contains(&name.len())
            && name.bytes().all(|b| b.is_ascii_lowercase())
    }

    /// The rarity threshold applied to **raw** counts of a capture
    /// sampled at `sample_rate`.
    ///
    /// On a complete trace (`rate = 1`) this is the paper's 7/day. On a
    /// sampled trace, a name with true daily count `T` appears ≈ `T·r`
    /// times, so the scaled cutoff is `⌈7·r⌉` — floored at 2 because a
    /// single sampled occurrence is indistinguishable from a genuinely
    /// unique label. (The floor can admit noise names whose true count
    /// is below `2/r`; that residue is what the threshold's 99%
    /// confidence already budgets for.)
    pub fn effective_threshold(&self, sample_rate: f64) -> u32 {
        let rate = sample_rate.clamp(f64::MIN_POSITIVE, 1.0);
        if rate >= 1.0 {
            self.daily_collision_threshold
        } else {
            ((f64::from(self.daily_collision_threshold) * rate).ceil() as u32).max(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_dns::DomainName;

    /// `s` parsed and printed back, as the trace tables store names.
    fn name(s: &str) -> String {
        s.parse::<DomainName>().unwrap().to_string()
    }

    #[test]
    fn shape_boundaries() {
        let c = ChromiumClassifier::default();
        assert!(c.matches_shape(&name("abcdefg"))); // 7
        assert!(c.matches_shape(&name("abcdefghijklmno"))); // 15
        assert!(!c.matches_shape(&name("abcdef"))); // 6
        assert!(!c.matches_shape(&name("abcdefghijklmnop"))); // 16
        assert!(!c.matches_shape(&name("abc-defg"))); // hyphen
        assert!(!c.matches_shape(&name("abcd.efgh"))); // two labels
        assert!(!c.matches_shape(&name("."))); // the root
    }

    #[test]
    fn uppercase_is_normalised_by_dns_semantics() {
        // Parsing lowercases, so the printed name matches.
        let c = ChromiumClassifier::default();
        assert!(
            c.matches_shape(&name("QWERTYU")),
            "names are compared case-insensitively"
        );
    }

    #[test]
    fn sampling_scales_the_threshold() {
        let c = ChromiumClassifier::default();
        assert_eq!(c.effective_threshold(1.0), 7);
        // Heavily sampled captures floor at 2: one occurrence stays a
        // probe, repeats are noise (the crawl's hand-built
        // `threshold_boundaries` case checks the records side).
        assert_eq!(c.effective_threshold(0.01), 2);
        // Mild sampling scales proportionally: 7 × 0.5 → 4.
        assert_eq!(c.effective_threshold(0.5), 4);
    }
}
