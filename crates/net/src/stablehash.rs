//! Deterministic seed derivation for simulation sub-streams.
//!
//! The whole pipeline must be reproducible from a single world seed:
//! every stochastic decision (cache-pool selection, Poisson thinning,
//! ad sampling, …) derives its RNG seed from the world seed plus a
//! stable description of *what* is being decided. [`SeedMixer`] is a
//! tiny splitmix64-based accumulator for that purpose — not a
//! cryptographic hash, just a stable, well-distributed mixer that is
//! identical across platforms and runs.

/// One splitmix64 step (public-domain constants from Vigna's splitmix64).
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Accumulates values into a 64-bit seed deterministically.
///
/// ```
/// use clientmap_net::SeedMixer;
/// let a = SeedMixer::new(42).mix(7).mix_str("pop:LHR").finish();
/// let b = SeedMixer::new(42).mix(7).mix_str("pop:LHR").finish();
/// let c = SeedMixer::new(42).mix(8).mix_str("pop:LHR").finish();
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SeedMixer(u64);

impl SeedMixer {
    /// Starts from a root seed.
    pub fn new(seed: u64) -> Self {
        SeedMixer(splitmix64(seed))
    }

    /// Mixes in one 64-bit value.
    #[must_use]
    pub fn mix(self, v: u64) -> Self {
        SeedMixer(splitmix64(self.0 ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Mixes in a string byte-by-byte (chunked for speed).
    #[must_use]
    pub fn mix_str(self, s: &str) -> Self {
        let mut m = self.mix(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            m = m.mix(u64::from_le_bytes(v));
        }
        m
    }

    /// The derived seed.
    pub fn finish(self) -> u64 {
        splitmix64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sensitive() {
        let base = SeedMixer::new(1).mix(2).mix(3).finish();
        assert_eq!(base, SeedMixer::new(1).mix(2).mix(3).finish());
        assert_ne!(
            base,
            SeedMixer::new(1).mix(3).mix(2).finish(),
            "order matters"
        );
        assert_ne!(
            base,
            SeedMixer::new(2).mix(2).mix(3).finish(),
            "seed matters"
        );
    }

    #[test]
    fn string_mixing_distinguishes() {
        let a = SeedMixer::new(5).mix_str("ab").finish();
        let b = SeedMixer::new(5).mix_str("ba").finish();
        let c = SeedMixer::new(5).mix_str("abc").finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Length prefixing prevents concatenation ambiguity.
        let d = SeedMixer::new(5).mix_str("a").mix_str("b").finish();
        assert_ne!(a, d);
    }

    #[test]
    fn a_stored_prefix_continues_to_the_full_chain() {
        // `SeedMixer` is a `Copy` pure fold: a head kept at any point of
        // a chain and continued with the rest lands on the full chain,
        // however often it is reused.
        for (a, b, c) in [(0, 0, 0), (3, 1, 7), (u64::MAX, 42, 1 << 40)] {
            let full = SeedMixer::new(9)
                .mix_str("live")
                .mix(a)
                .mix(b)
                .mix(c)
                .finish();
            let tag = SeedMixer::new(9).mix_str("live");
            let head = tag.mix(a).mix(b);
            assert_eq!(tag.mix(a).mix(b).mix(c).finish(), full);
            assert_eq!(head.mix(c).finish(), full);
            assert_eq!(head.mix(c).finish(), full, "a reused head is unchanged");
        }
    }

    #[test]
    fn splitmix_spreads_small_inputs() {
        // Consecutive inputs must not produce close outputs.
        let outs: Vec<u64> = (0..100).map(splitmix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        // Crude avalanche check: high bit set roughly half the time.
        let high = outs.iter().filter(|v| *v >> 63 == 1).count();
        assert!((30..70).contains(&high), "high-bit count {high}");
    }
}
