//! The client-activity rate model.
//!
//! All traffic in the simulation — DNS queries reaching resolvers, CDN
//! requests, Chromium interception probes — derives from per-/24 Poisson
//! rates computed here. Rates vary over the day with a longitude-aware
//! diurnal cycle, so time-of-day effects (one of the paper's motivating
//! use cases) are reproducible.
//!
//! Rates are *expected events per second*. Downstream simulators either
//! draw Poisson counts over an interval or use the closed-form
//! probability that at least one event fell in a trailing window
//! (exactly the "is there a live cache entry" question; see
//! `clientmap-sim`).

use clientmap_net::GeoCoord;

use crate::types::Slash24Info;
use crate::{DomainSpec, World, WorldConfig};

/// Seconds per day.
pub const DAY_SECS: f64 = 86_400.0;

/// The diurnal multiplier at UTC time `t_secs` for longitude `lon`:
/// `1 + A·sin(2π·(h_local − 10)/24)` clamped at 0, which peaks around
/// 16:00 local and bottoms out around 04:00. Mean over a day is 1 for
/// `A ≤ 1`.
pub fn diurnal_multiplier(t_secs: f64, lon: f64, amplitude: f64) -> f64 {
    let local_hours = (t_secs / 3600.0 + lon / 15.0).rem_euclid(24.0);
    let phase = 2.0 * std::f64::consts::PI * (local_hours - 10.0) / 24.0;
    (1.0 + amplitude * phase.sin()).max(0.0)
}

/// Which resolver population a rate is asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolverChoice {
    /// The AS-local resolver.
    IspLocal,
    /// Google Public DNS.
    Google,
    /// The prefix's assigned other public resolver.
    OtherPublic,
    /// All resolvers combined.
    All,
}

/// Rate-model view over a [`World`].
#[derive(Debug, Clone, Copy)]
pub struct ActivityModel<'w> {
    world: &'w World,
}

impl World {
    /// The activity model for this world.
    pub fn activity(&self) -> ActivityModel<'_> {
        ActivityModel { world: self }
    }
}

impl<'w> ActivityModel<'w> {
    fn cfg(&self) -> &WorldConfig {
        &self.world.config
    }

    /// The diurnal multiplier for a prefix at time `t_secs`.
    pub fn diurnal(&self, coord: GeoCoord, t_secs: f64) -> f64 {
        diurnal_multiplier(t_secs, coord.lon, self.cfg().diurnal_amplitude)
    }

    /// The share of a prefix's clients using `choice`.
    fn resolver_share(&self, s: &Slash24Info, choice: ResolverChoice) -> f64 {
        match choice {
            ResolverChoice::IspLocal => s.resolver_mix.isp,
            ResolverChoice::Google => s.resolver_mix.google,
            ResolverChoice::OtherPublic => s.resolver_mix.other,
            ResolverChoice::All => {
                s.resolver_mix.isp + s.resolver_mix.google + s.resolver_mix.other
            }
        }
    }

    /// Mean DNS queries per second from `s` for `domain`, arriving at
    /// the given resolver population, at time `t_secs`.
    ///
    /// Machines query DNS too (they fetch web resources), at a flat
    /// per-machine rate folded into the same per-day constant.
    pub fn dns_rate(
        &self,
        s: &Slash24Info,
        domain: &DomainSpec,
        choice: ResolverChoice,
        t_secs: f64,
    ) -> f64 {
        let per_client_day = self.cfg().dns_queries_per_user_per_day * domain.popularity_weight;
        let clients = s.users + s.machines;
        clients * per_client_day / DAY_SECS
            * self.resolver_share(s, choice)
            * self.diurnal(s.coord, t_secs)
    }

    /// Mean HTTP(S) requests per second from `s` to the Microsoft CDN.
    pub fn cdn_rate(&self, s: &Slash24Info, t_secs: f64) -> f64 {
        // Machines hit CDNs disproportionately (crawlers, mirrors).
        let demand = s.users * self.cfg().cdn_requests_per_user_per_day
            + s.machines * self.cfg().cdn_requests_per_user_per_day * 3.0;
        demand / DAY_SECS * self.diurnal(s.coord, t_secs)
    }

    /// Mean Chromium interception probes per second emitted by `s`
    /// (each browser launch emits `probes_per_launch` random names).
    /// Only humans launch browsers.
    pub fn chromium_probe_rate(&self, s: &Slash24Info, t_secs: f64) -> f64 {
        s.users
            * self.cfg().chromium_share
            * self.cfg().browser_launches_per_user_per_day
            * f64::from(self.cfg().probes_per_launch)
            / DAY_SECS
            * self.diurnal(s.coord, t_secs)
    }

    /// Expected events in `[t0, t1]` for a time-varying rate, by
    /// midpoint integration over hourly steps (the diurnal cycle is
    /// smooth at that scale).
    pub fn expected_events(&self, rate_at: impl Fn(f64) -> f64, t0_secs: f64, t1_secs: f64) -> f64 {
        debug_assert!(t1_secs >= t0_secs);
        let span = t1_secs - t0_secs;
        let steps = ((span / 3600.0).ceil() as usize).max(1);
        let dt = span / steps as f64;
        (0..steps)
            .map(|i| rate_at(t0_secs + (i as f64 + 0.5) * dt) * dt)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorldConfig;

    #[test]
    fn diurnal_mean_is_one() {
        let mut acc = 0.0;
        let n = 24 * 60;
        for i in 0..n {
            acc += diurnal_multiplier(i as f64 * 60.0, 0.0, 0.8);
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 1e-3, "mean {mean}");
    }

    #[test]
    fn diurnal_peaks_in_local_afternoon() {
        // 16:00 local at lon 0 is t = 16h.
        let peak = diurnal_multiplier(16.0 * 3600.0, 0.0, 0.8);
        let trough = diurnal_multiplier(4.0 * 3600.0, 0.0, 0.8);
        assert!(peak > 1.7 && trough < 0.3, "peak {peak}, trough {trough}");
        // Longitude shifts the cycle: 16:00 UTC at lon -90 is 10:00 local.
        let shifted = diurnal_multiplier(16.0 * 3600.0, -90.0, 0.8);
        assert!(shifted < peak);
    }

    #[test]
    fn diurnal_never_negative() {
        for lon in [-180.0, -90.0, 0.0, 90.0, 179.0] {
            for h in 0..24 {
                let m = diurnal_multiplier(h as f64 * 3600.0, lon, 1.5);
                assert!(m >= 0.0);
            }
        }
    }

    #[test]
    fn rates_scale_with_population_and_popularity() {
        let w = crate::World::generate(WorldConfig::tiny(5));
        let act = w.activity();
        let s = w
            .slash24s
            .iter()
            .filter(|s| s.users > 10.0)
            .max_by(|a, b| a.users.total_cmp(&b.users))
            .expect("active prefix exists");
        let google = w.domains.get(&"www.google.com".parse().unwrap()).unwrap();
        let wiki = w
            .domains
            .get(&"www.wikipedia.org".parse().unwrap())
            .unwrap();
        let t = 12.0 * 3600.0;
        let rg = act.dns_rate(s, google, ResolverChoice::Google, t);
        let rw = act.dns_rate(s, wiki, ResolverChoice::Google, t);
        assert!(rg > rw, "google {rg} <= wiki {rw}");
        // Sum over the split equals the total.
        let total = act.dns_rate(s, google, ResolverChoice::All, t);
        let parts = act.dns_rate(s, google, ResolverChoice::IspLocal, t)
            + act.dns_rate(s, google, ResolverChoice::Google, t)
            + act.dns_rate(s, google, ResolverChoice::OtherPublic, t);
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn chromium_rate_zero_without_users() {
        let w = crate::World::generate(WorldConfig::tiny(5));
        let act = w.activity();
        if let Some(s) = w
            .slash24s
            .iter()
            .find(|s| s.users == 0.0 && s.machines > 0.0)
        {
            assert_eq!(act.chromium_probe_rate(s, 0.0), 0.0);
            assert!(
                act.cdn_rate(s, 43_200.0) > 0.0,
                "machines still hit the CDN"
            );
        }
    }

    #[test]
    fn expected_events_integrates_constant_rate() {
        let w = crate::World::generate(WorldConfig::tiny(5));
        let act = w.activity();
        let e = act.expected_events(|_| 2.0, 100.0, 4_100.0);
        assert!((e - 8000.0).abs() < 1e-6, "{e}");
    }
}
