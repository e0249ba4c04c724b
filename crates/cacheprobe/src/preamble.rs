//! The part of a sweep's preamble a session keeps between sweeps.
//!
//! The authoritative scope pre-scan (§3.1.1) is a pure function of the
//! world and the selected domains, and the scope → PoP assignment a
//! pure function of that scan, the bound PoPs and their calibrated
//! service radii. A resident session holds one world, and a fault-free
//! warm sweep replays its radii bit for bit from the prior, so both
//! steps would recompute the same value on every sweep. A [`Preamble`]
//! keeps each with the key it was computed from and recomputes it only
//! when the key changes.

use std::sync::Arc;

use clientmap_dns::DomainName;
use clientmap_net::Prefix;
use clientmap_sim::{PopId, Sim, SimTime};

use crate::calibrate::ServiceRadii;
use crate::scopescan::{scan, ScopeScan};
use crate::vantage::BoundVantage;

/// The scopes assigned to each bound vantage, one list per selected
/// domain in scan order — `assigned[bound_idx][domain]` is that probe
/// unit's scope list. Shared between the keep and the sweeps that read
/// it.
pub(crate) type Assignment = Arc<[Vec<Vec<Prefix>>]>;

/// One bound vantage's assignment as `(domain, scope)` pairs.
pub(crate) fn pairs(per_domain: &[Vec<Prefix>]) -> impl Iterator<Item = (usize, Prefix)> + '_ {
    per_domain
        .iter()
        .enumerate()
        .flat_map(|(d, scopes)| scopes.iter().map(move |&scope| (d, scope)))
}

/// The kept scope scan and PoP assignment of one world
/// ([`crate::prepare_sweep_in`]).
///
/// Each entry is stored with its key and is a pure function of it: the
/// scan of the selected domain list, and the assignment of ⟨bound PoP
/// ids, each bound PoP's radius bits⟩ over that scan, one scope list
/// per ⟨bound vantage, domain⟩. On a key mismatch the entry is
/// recomputed and replaced whole, so a sweep that panics or fails
/// midway never leaves a half-written entry, and may leave a finished
/// one in place. A new scan drops the assignment derived from the old
/// one.
///
/// The keys leave out the world and the probe universe: one `Preamble`
/// serves one world's sweeps, which is how `clientmap_core`'s
/// `SweepSession` holds it beside its substrate. A fresh one
/// (`Preamble::default()`) recomputes everything, which is what every
/// one-shot [`crate::prepare_sweep`] lends.
#[derive(Debug, Default)]
pub struct Preamble {
    scan: Option<(Vec<DomainName>, ScopeScan)>,
    assignment: Option<(Vec<(PopId, u64)>, Assignment)>,
}

impl Preamble {
    /// Keeps the scope scan of `domains` over `universe`, scanning only
    /// if the kept one is of another domain list.
    pub(crate) fn scan_for(&mut self, sim: &Sim, domains: &[DomainName], universe: &[Prefix]) {
        if self.scan.as_ref().is_some_and(|(key, _)| key == domains) {
            return;
        }
        let fresh = scan(sim, domains, universe, SimTime::ZERO);
        self.assignment = None;
        self.scan = Some((domains.to_vec(), fresh));
    }

    /// The scope → PoP assignment by service radius over the kept scan
    /// (MaxMind location + error radius possibly within the radius),
    /// recomputed only if the bound PoPs or a radius differ from the
    /// kept one's. The haversine decides; a pair whose latitude gap
    /// alone puts it more than 1 km beyond reach skips it (the gap
    /// never exceeds the distance).
    ///
    /// # Panics
    ///
    /// If no scan is kept ([`Self::scan_for`] runs first).
    pub(crate) fn assignment(
        &mut self,
        sim: &Sim,
        bound: &[BoundVantage],
        radii: &ServiceRadii,
    ) -> Assignment {
        let key: Vec<(PopId, u64)> = bound
            .iter()
            .map(|b| (b.pop, radii.radius(b.pop).to_bits()))
            .collect();
        if let Some((kept, lists)) = &self.assignment {
            if *kept == key {
                return Arc::clone(lists);
            }
        }
        let (_, scan) = self
            .scan
            .as_ref()
            .expect("the scan is kept before assignment");
        let pops = clientmap_sim::pop_catalog();
        let reach: Vec<_> = bound
            .iter()
            .map(|b| (pops[b.pop].coord, radii.radius(b.pop)))
            .collect();
        let mut lists: Vec<Vec<Vec<Prefix>>> =
            vec![vec![Vec::new(); scan.domains.len()]; bound.len()];
        let geodb = &sim.world().geodb;
        for (d, plan) in scan.domains.iter().enumerate() {
            for scope in &plan.scopes {
                let Some(geo) = geodb.locate(*scope) else {
                    continue;
                };
                for (per_domain, &(pop_coord, radius)) in lists.iter_mut().zip(&reach) {
                    let reach_km = radius + geo.error_radius_km;
                    if geo.coord.meridian_gap_km(&pop_coord) <= reach_km + 1.0
                        && geo.coord.distance_km(&pop_coord) <= reach_km
                    {
                        per_domain[d].push(*scope);
                    }
                }
            }
        }
        // Kept past the sweep: no growth slack.
        for scopes in lists.iter_mut().flatten() {
            scopes.shrink_to_fit();
        }
        let lists: Assignment = lists.into();
        self.assignment = Some((key, Arc::clone(&lists)));
        lists
    }

    /// The kept scan, open for editing. The assignment derived from it
    /// is dropped, so the session's next sweep assigns from the edit —
    /// which is how a test shows the scan is kept rather than redone.
    #[doc(hidden)]
    pub fn kept_scan_mut(&mut self) -> Option<&mut ScopeScan> {
        self.assignment = None;
        self.scan.as_mut().map(|(_, scan)| scan)
    }
}
