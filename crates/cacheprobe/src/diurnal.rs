//! Time-of-day analysis — the paper's §2 motivation that "a
//! fine-grained map in time and network allows researchers to answer
//! questions about time of day effects".
//!
//! Repeatedly probing a prefix around the clock yields an hourly
//! cache-hit-rate profile. Client activity is diurnal, so the profile
//! peaks at the prefix's local afternoon — which means the *phase* of
//! the profile reveals the prefix's longitude band, independently of
//! any geolocation database. `repro diurnal` validates the inferred
//! longitudes against ground truth.

use clientmap_dns::{wire, DomainName};
use clientmap_net::Prefix;
use clientmap_sim::{GpdnsSession, ProbeOutcome, Sim, SimTime};

use crate::probe::{probe_scope, ProbeBufs};
use crate::vantage::BoundVantage;
use crate::ProbeConfig;

/// Hourly hit-rate profile of one scope.
#[derive(Debug, Clone)]
pub struct DiurnalProfile {
    /// The probed scope.
    pub scope: Prefix,
    /// Probe events per UTC hour-of-day.
    pub attempts: [u32; 24],
    /// Hits per UTC hour-of-day.
    pub hits: [u32; 24],
}

impl DiurnalProfile {
    /// Hit rate for one UTC hour.
    pub fn rate(&self, hour: usize) -> f64 {
        if self.attempts[hour] == 0 {
            0.0
        } else {
            f64::from(self.hits[hour]) / f64::from(self.attempts[hour])
        }
    }

    /// Total hits.
    pub fn total_hits(&self) -> u32 {
        self.hits.iter().sum()
    }

    /// The peak UTC hour by circular mean of the hourly hit rates
    /// (`None` when the profile is flat or empty).
    pub fn peak_utc_hour(&self) -> Option<f64> {
        let mut x = 0.0f64;
        let mut y = 0.0f64;
        let mut mass = 0.0f64;
        for h in 0..24 {
            let w = self.rate(h);
            let theta = 2.0 * std::f64::consts::PI * h as f64 / 24.0;
            x += w * theta.cos();
            y += w * theta.sin();
            mass += w;
        }
        if mass < 1e-9 || (x * x + y * y).sqrt() < 1e-6 {
            return None;
        }
        let angle = y.atan2(x).rem_euclid(2.0 * std::f64::consts::PI);
        Some(angle * 24.0 / (2.0 * std::f64::consts::PI))
    }

    /// Longitude inferred from the peak, assuming activity peaks at
    /// `peak_local_hour` local time (the world model peaks at 16:00).
    pub fn inferred_longitude(&self, peak_local_hour: f64) -> Option<f64> {
        let utc_peak = self.peak_utc_hour()?;
        // local = utc + lon/15  ⇒  lon = 15·(local − utc)
        let mut lon = 15.0 * (peak_local_hour - utc_peak);
        while lon > 180.0 {
            lon -= 360.0;
        }
        while lon < -180.0 {
            lon += 360.0;
        }
        Some(lon)
    }
}

/// Probes `scope` `probes_per_hour` times every hour for `days` days
/// at one PoP, building the hourly profile.
#[allow(clippy::too_many_arguments)]
pub fn probe_diurnal(
    sim: &Sim,
    session: &mut GpdnsSession,
    bound: &BoundVantage,
    domain: &DomainName,
    scope: Prefix,
    cfg: &ProbeConfig,
    start: SimTime,
    days: u32,
    probes_per_hour: u32,
) -> DiurnalProfile {
    let view = sim.view();
    let template = wire::ProbeQueryTemplate::new(domain);
    let mut bufs = ProbeBufs::default();
    let route = bound.route(view.catchments);
    let mut profile = DiurnalProfile {
        scope,
        attempts: [0; 24],
        hits: [0; 24],
    };
    for day in 0..u64::from(days) {
        for hour in 0..24u64 {
            for k in 0..u64::from(probes_per_hour) {
                // Spread probes across the hour so they fall into
                // different TTL windows.
                let t = start
                    + SimTime::from_hours(day * 24 + hour)
                    + SimTime::from_secs(k * 3600 / u64::from(probes_per_hour).max(1));
                let idx = (hour % 24) as usize;
                profile.attempts[idx] += 1;
                let outcome = probe_scope(
                    &view, session, &route, &template, scope, cfg, t, None, &mut bufs,
                );
                if matches!(outcome, ProbeOutcome::Hit { .. }) {
                    profile.hits[idx] += 1;
                }
            }
        }
    }
    profile
}

/// Mean absolute circular difference between two hours-of-day.
pub fn hour_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(24.0);
    d.min(24.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_profile(peak_utc: f64) -> DiurnalProfile {
        let mut p = DiurnalProfile {
            scope: "10.0.0.0/20".parse().unwrap(),
            attempts: [20; 24],
            hits: [0; 24],
        };
        for h in 0..24 {
            let phase = 2.0 * std::f64::consts::PI * (h as f64 - peak_utc) / 24.0;
            let rate = (0.5 + 0.45 * phase.cos()).max(0.0);
            p.hits[h] = (rate * 20.0).round() as u32;
        }
        p
    }

    #[test]
    fn peak_recovered_from_synthetic_profile() {
        for peak in [0.0, 5.0, 12.0, 19.5] {
            let p = synthetic_profile(peak);
            let got = p.peak_utc_hour().expect("non-flat profile");
            assert!(
                hour_distance(got, peak) < 1.0,
                "peak {peak}: inferred {got}"
            );
        }
    }

    #[test]
    fn flat_or_empty_profiles_yield_none() {
        let empty = DiurnalProfile {
            scope: "10.0.0.0/20".parse().unwrap(),
            attempts: [0; 24],
            hits: [0; 24],
        };
        assert!(empty.peak_utc_hour().is_none());
        let flat = DiurnalProfile {
            scope: "10.0.0.0/20".parse().unwrap(),
            attempts: [10; 24],
            hits: [5; 24],
        };
        assert!(flat.peak_utc_hour().is_none());
    }

    #[test]
    fn longitude_inference_inverts_timezones() {
        // A profile peaking at 16:00 UTC with a 16:00-local peak model
        // means longitude ≈ 0.
        let p = synthetic_profile(16.0);
        let lon = p.inferred_longitude(16.0).unwrap();
        assert!(lon.abs() < 15.0, "lon {lon}");
        // Peak at 21:00 UTC ⇒ local 16:00 is 5 h earlier ⇒ lon ≈ −75°.
        let p = synthetic_profile(21.0);
        let lon = p.inferred_longitude(16.0).unwrap();
        assert!((lon + 75.0).abs() < 15.0, "lon {lon}");
    }

    #[test]
    fn hour_distance_wraps() {
        assert_eq!(hour_distance(23.0, 1.0), 2.0);
        assert_eq!(hour_distance(1.0, 23.0), 2.0);
        assert_eq!(hour_distance(12.0, 12.0), 0.0);
        assert_eq!(hour_distance(0.0, 12.0), 12.0);
    }
}
