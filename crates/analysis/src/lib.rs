//! # clientmap-analysis
//!
//! The validation and cross-comparison layer (paper §4 and the
//! appendices): every table and figure of the evaluation is a function
//! in this crate over a [`clientmap_datasets::DatasetBundle`] (plus the
//! raw technique output where needed):
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 (prefix overlap) | [`overlap::prefix_matrix`] |
//! | Table 2 (scope stability) | [`scope_stability_table`] |
//! | Table 3 (AS overlap) | [`overlap::as_matrix`] |
//! | Table 4 (volume coverage) | [`overlap::volume_matrix`] |
//! | Table 5 (per-domain) | [`domain_overlap`] |
//! | Figure 1 (PoP densities) | [`pop_density`] |
//! | Figure 2 (service radii) | [`service_radius_cdfs`] |
//! | Figure 3 (country coverage) | [`country_coverage`] |
//! | Figure 4 (fraction active) | [`fraction_active_cdf`] |
//! | Figure 6/7 (relative volume) | [`relative_volume_cdf`], [`relative_volume_differences`] |
//! | §4 headlines | [`dns_http_proxy`], [`groundtruth_recall`], [`scope_precision`] |
//!
//! This is the only layer allowed to read the world's ground truth
//! (for per-AS countries and the like) — the techniques themselves see
//! only public interfaces.

#![warn(missing_docs)]

pub mod cluster;
pub mod combine;
pub mod overlap;
pub mod ranking;
pub mod render;
pub mod stats;
pub mod telemetry;

mod country;
mod domains;
mod figures;
mod headlines;

pub use cluster::{
    confidence_summary, extrapolation_agreement, verdict_precision_recall, ConfidenceSummary,
    PrecisionRecall,
};
pub use country::{country_coverage, CountryCoverage};
pub use domains::{domain_overlap, DomainOverlap};
pub use figures::{
    fraction_active_cdf, pop_density, relative_volume_cdf, relative_volume_differences,
    service_radius_cdfs, FractionActivePoint, PopDensity,
};
pub use headlines::{
    dns_http_proxy, groundtruth_recall, scope_precision, scope_stability_table, DnsHttpProxy,
    ScopeStabilityRow,
};

/// A record table of one probe event per hit ⟨domain, query scope,
/// response scope⟩ at vantage 0, for hand-made results; `hits` come in
/// key order (by domain, then query scope).
#[cfg(test)]
fn hit_table(
    hits: &[(u16, clientmap_net::Prefix, clientmap_net::Prefix)],
) -> clientmap_store::RecordTable {
    use clientmap_store::{HitEvent, RecordTable, ScopeRecord};
    RecordTable::from_ascending(hits.iter().map(|&(domain, query, resp)| {
        let hit = HitEvent {
            resp_addr: resp.addr(),
            resp_len: resp.len(),
            remaining_ttl: 1,
        };
        let rec = ScopeRecord {
            attempts: 1,
            hit_events: vec![hit],
            ..ScopeRecord::default()
        };
        ((0, domain, query.addr(), query.len()), rec)
    }))
}
