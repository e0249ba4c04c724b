//! Probing configuration.

use clientmap_sim::Transport;

/// The dials of the cache-probing measurement, with the paper's values
/// as defaults (scaled variants for tests). Values the paper fixes and
/// nothing varies — the probe rate, the domain selection, the
/// calibration filter, percentile and fallback radius — are constants
/// next to their readers.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Measurement window in hours (paper: 120).
    pub duration_hours: f64,
    /// Redundant queries per ⟨PoP, prefix, domain⟩ to cover the
    /// independent cache pools (paper: 5).
    pub redundancy: u32,
    /// Transport (paper: TCP, to dodge the UDP rate limit).
    pub transport: Transport,
    /// Random prefixes used for service-radius calibration
    /// (paper: 78,637).
    pub calibration_sample: usize,
    /// Cap on the number of PoPs probed (ablation: a single vantage
    /// point vs the full geo-distributed deployment). `None` = all.
    pub max_pops: Option<usize>,
    /// Warm re-sweep freshness budget: the fraction of previously
    /// measured scopes whose records lapse per epoch (0 disables
    /// expiry). Deliberately **excluded** from the sweep config digest —
    /// re-sweeping the same world under a different freshness budget is
    /// the point of warm starts.
    pub expiry_budget: f64,
    /// Probe on the byte-free batched lane (one connection per stream,
    /// scope lanes precomputed per unit, nothing rendered, telemetry
    /// flushed in bulk) — main window, rescue and calibration, with or
    /// without fault injection. `false` selects the scalar wire lane,
    /// the oracle, for the whole sweep. Proven byte-identical to it by
    /// the differential test suite, so it is **excluded** from the
    /// sweep config digest — flipping it never invalidates a snapshot.
    pub batched_probing: bool,
    /// Cluster-based predictive probing: greedily epsilon-cluster the
    /// planned slots on cheap features, probe one representative per
    /// cluster live, and extrapolate its record to the members under a
    /// confidence tag. **Excluded** from the sweep config digest so
    /// exhaustive and clustered sweeps can warm-start each other — the
    /// ablation the report's precision/recall section depends on.
    pub clustered_probing: bool,
    /// Greedy clustering radius in feature-distance units; a candidate
    /// joins the first cluster whose representative sits within this
    /// distance. `0` degenerates to the inner (exhaustive/warm) plan.
    /// Digest-excluded alongside `clustered_probing`.
    pub cluster_epsilon: f64,
    /// Escalation floor on the `0..=1` confidence scale: members whose
    /// copy confidence would fall below it are probed live instead, and
    /// previously tagged slots below it (or whose verdict flipped) are
    /// re-probed next warm sweep. Digest-excluded alongside
    /// `clustered_probing`.
    pub cluster_escalate_below: f64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            duration_hours: 120.0,
            redundancy: 5,
            transport: Transport::Tcp,
            calibration_sample: 78_637,
            max_pops: None,
            expiry_budget: 0.0,
            batched_probing: true,
            clustered_probing: false,
            cluster_epsilon: 0.25,
            cluster_escalate_below: 0.5,
        }
    }
}

impl ProbeConfig {
    /// A configuration scaled for unit tests: short window, small
    /// calibration sample, but the same structure.
    pub fn test_scale() -> Self {
        ProbeConfig {
            duration_hours: 12.0,
            calibration_sample: 800,
            ..ProbeConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ProbeConfig::default();
        assert_eq!(c.duration_hours, 120.0);
        assert_eq!(c.redundancy, 5);
        assert_eq!(c.transport, Transport::Tcp);
        assert_eq!(c.calibration_sample, 78_637);
        assert!(c.batched_probing);
        assert!(!c.clustered_probing);
        assert_eq!(c.cluster_epsilon, 0.25);
        assert_eq!(c.cluster_escalate_below, 0.5);
    }
}
