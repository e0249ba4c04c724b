//! The Microsoft CDN + Azure Traffic Manager, as log generators.
//!
//! These produce the three **private validation datasets** of §4:
//!
//! - **Microsoft clients** — HTTP(S) request counts per client /24 at
//!   the CDN edge;
//! - **Microsoft resolvers** — distinct client IPs observed using each
//!   recursive resolver (resolver IP → client count);
//! - **cloud ECS prefixes** — the ECS prefixes seen in DNS queries at
//!   the Traffic Manager authoritative (only resolvers that *send* ECS
//!   appear: Google Public DNS does, ISP and Cloudflare-style resolvers
//!   do not — which is exactly why this dataset is both useful and
//!   partial).
//!
//! Counts are Poisson draws from the world's activity model, seeded per
//! prefix, so the logs are reproducible and consistent with what the
//! cache-probing and DNS-logs techniques observe.

use std::collections::HashMap;

use clientmap_net::{Prefix, SeedMixer};
use clientmap_world::World;

use crate::anycast::Catchments;
use crate::authoritative::Authoritatives;
use crate::gpdns::GooglePublicDns;
use crate::SimTime;

/// One day (or window) of Microsoft-side logs.
#[derive(Debug, Clone, Default)]
pub struct CdnLogs {
    /// HTTP(S) requests per client /24 (**Microsoft clients**).
    pub clients: HashMap<Prefix, u64>,
    /// Distinct client IPs per recursive-resolver address
    /// (**Microsoft resolvers**).
    pub resolvers: HashMap<u32, u64>,
    /// ECS /24 prefixes (with query counts) seen at the Traffic Manager
    /// authoritative (**cloud ECS prefixes**).
    pub ecs_prefixes: HashMap<Prefix, u64>,
}

impl CdnLogs {
    /// Total HTTP request volume.
    pub fn total_requests(&self) -> u64 {
        self.clients.values().sum()
    }
}

/// Samples a Poisson variate with mean `mean` using inversion for small
/// means and a normal approximation above (adequate for log volumes).
pub(crate) fn poisson(h: u64, mean: f64) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    let mut state = h;
    let mut next_unit = || {
        state = clientmap_net::splitmix64(state);
        ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(f64::MIN_POSITIVE, 1.0)
    };
    if mean < 30.0 {
        // Knuth inversion.
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= next_unit();
            if p <= l || k > 1000 {
                return k;
            }
            k += 1;
        }
    } else {
        // Box–Muller normal approximation.
        let u1 = next_unit();
        let u2 = next_unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + z * mean.sqrt()).round().max(0.0) as u64
    }
}

/// Collects one window of CDN + Traffic Manager logs.
///
/// `t0..t1` is the capture window (the paper compares "a full day").
pub fn collect_logs(
    world: &World,
    catchments: &Catchments,
    auth: &Authoritatives,
    gpdns: &GooglePublicDns,
    t0: SimTime,
    t1: SimTime,
) -> CdnLogs {
    let seed = SeedMixer::new(world.config.seed)
        .mix_str("cdn-logs")
        .finish();
    let act = world.activity();
    let ms_spec = world.domains.microsoft_cdn();
    let ttl = f64::from(ms_spec.ttl_secs);
    let window = (t1 - t0).as_secs_f64();
    let mut logs = CdnLogs::default();

    for (i, s) in world.slash24s.iter().enumerate() {
        if !s.is_active() {
            continue;
        }
        let h = SeedMixer::new(seed).mix(u64::from(s.prefix.addr()));

        // --- Microsoft clients: HTTP requests over the window ----------
        let mean_http =
            act.expected_events(|t| act.cdn_rate(s, t), t0.as_secs_f64(), t1.as_secs_f64());
        let http = poisson(h.mix_str("http").finish(), mean_http);
        if http > 0 {
            *logs.clients.entry(s.prefix).or_insert(0) += http;
        }

        // --- Microsoft resolvers: distinct client IPs per resolver -----
        // NAT and address density: ~0.9 observable IPs per client, ≤ 250.
        let distinct_ips = (s.clients() * 0.9).round().min(250.0) as u64;
        if distinct_ips > 0 && http > 0 {
            let mix = s.resolver_mix;
            if mix.isp > 0.0 {
                if let Some(rid) = world.ases[s.as_id].local_resolver {
                    let n = (distinct_ips as f64 * mix.isp).round() as u64;
                    if n > 0 {
                        *logs.resolvers.entry(world.resolvers[rid].addr).or_insert(0) += n;
                    }
                }
            }
            if mix.google > 0.0 {
                let pop = catchments.of_slash24(i);
                let n = (distinct_ips as f64 * mix.google).round() as u64;
                if n > 0 {
                    *logs.resolvers.entry(gpdns.egress_addr(pop)).or_insert(0) += n;
                }
            }
            if mix.other > 0.0 {
                let addr = world.resolvers[s.other_resolver].addr;
                let n = (distinct_ips as f64 * mix.other).round() as u64;
                if n > 0 {
                    *logs.resolvers.entry(addr).or_insert(0) += n;
                }
            }
        }

        // --- cloud ECS prefixes: Google-forwarded ECS reaching the TM --
        // Only Google sends ECS. A /24 appears iff at least one of its
        // Google-bound queries for the MS domain *missed* Google's cache
        // (misses are forwarded to the TM authoritative with ECS /24).
        if s.resolver_mix.google > 0.0 {
            let lambda = act.expected_events(
                |t| {
                    act.dns_rate(
                        s,
                        ms_spec,
                        clientmap_world::activity::ResolverChoice::Google,
                        t,
                    )
                },
                t0.as_secs_f64(),
                t1.as_secs_f64(),
            ) / window.max(1e-9);
            // Miss probability at Google for this prefix's scope: the
            // busier the scope, the more often answers come from cache.
            let scope_rate = {
                let scope = auth.base_scope(ms_spec, s.prefix.addr());
                match scope {
                    Some(sc) if !sc.is_default() => {
                        // Aggregate rate approximated by own rate as a
                        // lower bound — conservative (more TM visibility).
                        lambda.max(1e-12)
                    }
                    _ => lambda.max(1e-12),
                }
            };
            let p_miss = (-scope_rate * ttl).exp().clamp(0.05, 1.0);
            let mean_tm = lambda * window * p_miss;
            let tm = poisson(h.mix_str("tm").finish(), mean_tm);
            if tm > 0 {
                *logs.ecs_prefixes.entry(s.prefix).or_insert(0) += tm;
            }
        }
    }
    logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use clientmap_world::{ResolverKind, WorldConfig};

    fn logs_for(seed: u64) -> (World, CdnLogs) {
        let world = World::generate(WorldConfig::tiny(seed));
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let gpdns = GooglePublicDns::build(&world, &catchments, &auth);
        let logs = collect_logs(
            &world,
            &catchments,
            &auth,
            &gpdns,
            SimTime::ZERO,
            SimTime::from_hours(24),
        );
        (world, logs)
    }

    #[test]
    fn poisson_mean_roughly_right() {
        for mean in [0.5, 3.0, 50.0, 400.0] {
            let n = 2000;
            let total: u64 = (0..n).map(|i| poisson(i * 7 + 13, mean)).sum();
            let got = total as f64 / n as f64;
            assert!(
                (got - mean).abs() < 0.15 * mean + 0.2,
                "mean {mean}: got {got}"
            );
        }
        assert_eq!(poisson(1, 0.0), 0);
    }

    #[test]
    fn active_prefixes_dominate_client_log() {
        let (world, logs) = logs_for(31);
        assert!(!logs.clients.is_empty());
        // Every logged prefix must be an active /24 in the world.
        for p in logs.clients.keys() {
            let s = world.slash24(*p).expect("logged prefix is routed");
            assert!(s.is_active(), "{p} logged but dark");
        }
        // Most active prefixes with nontrivial population appear over a day.
        let busy: Vec<_> = world
            .slash24s
            .iter()
            .filter(|s| s.clients() > 5.0)
            .collect();
        let seen = busy
            .iter()
            .filter(|s| logs.clients.contains_key(&s.prefix))
            .count();
        assert!(
            seen as f64 > 0.9 * busy.len() as f64,
            "only {seen}/{} busy prefixes in CDN log",
            busy.len()
        );
    }

    #[test]
    fn resolver_log_contains_all_three_kinds() {
        let (world, logs) = logs_for(32);
        let mut kinds = [false; 3];
        for addr in logs.resolvers.keys() {
            for r in &world.resolvers {
                if r.addr == *addr {
                    match r.kind {
                        ResolverKind::IspLocal => kinds[0] = true,
                        ResolverKind::GooglePublic => {}
                        ResolverKind::OtherPublic => kinds[2] = true,
                    }
                }
            }
        }
        // Google egress addresses are per-PoP, not in world.resolvers.
        let catchments = Catchments::compute(&world);
        let auth = Authoritatives::new(world.config.seed, world.rib.clone());
        let gpdns = GooglePublicDns::build(&world, &catchments, &auth);
        kinds[1] = logs
            .resolvers
            .keys()
            .any(|a| gpdns.pop_of_egress(*a).is_some());
        assert!(kinds.iter().all(|k| *k), "kinds seen: {kinds:?}");
    }

    #[test]
    fn ecs_prefixes_only_from_google_users() {
        let (world, logs) = logs_for(33);
        assert!(!logs.ecs_prefixes.is_empty());
        for p in logs.ecs_prefixes.keys() {
            let s = world.slash24(*p).expect("routed");
            assert!(s.resolver_mix.google > 0.0, "{p} has no Google users");
        }
    }

    #[test]
    fn deterministic_logs() {
        let (_, a) = logs_for(34);
        let (_, b) = logs_for(34);
        assert_eq!(a.clients, b.clients);
        assert_eq!(a.resolvers, b.resolvers);
        assert_eq!(a.ecs_prefixes, b.ecs_prefixes);
    }

    #[test]
    fn ecs_dns_and_http_mostly_overlap() {
        // The paper's "DNS activity is a good proxy for web activity":
        // prefixes in the ECS log should carry most HTTP volume.
        let (_, logs) = logs_for(35);
        let total: u64 = logs.clients.values().sum();
        let covered: u64 = logs
            .clients
            .iter()
            .filter(|(p, _)| logs.ecs_prefixes.contains_key(*p))
            .map(|(_, c)| *c)
            .sum();
        let frac = covered as f64 / total.max(1) as f64;
        // Only ~google-share of prefixes send ECS, but those are spread
        // across the volume; expect a substantial overlap, not ≈0.
        assert!(frac > 0.2, "ECS-covered HTTP volume {frac}");
    }
}
