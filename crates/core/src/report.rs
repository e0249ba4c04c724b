//! Paper-style rendering of every table and figure.
//!
//! Each `table*`/`figure*` method regenerates one artifact of the
//! paper's evaluation from a [`PipelineOutput`] and renders it as an
//! aligned text table (the repro harness writes these to
//! `EXPERIMENTS`-style logs; numeric access goes through
//! `clientmap-analysis` directly).

use clientmap_analysis::overlap::{as_matrix, prefix_matrix, volume_matrix, OverlapMatrix};
use clientmap_analysis::render::{fmt_count, fmt_pct, TextTable};
use clientmap_analysis::{
    confidence_summary, country_coverage, dns_http_proxy, domain_overlap, extrapolation_agreement,
    fraction_active_cdf, groundtruth_recall, pop_density, relative_volume_cdf,
    relative_volume_differences, scope_precision, scope_stability_table, service_radius_cdfs,
};
use clientmap_datasets::DatasetId;
use clientmap_sim::{pop_catalog, PopStatus};

use crate::PipelineOutput;

/// Datasets shown in Table 1 (prefix granularity).
const TABLE1_IDS: [DatasetId; 5] = [
    DatasetId::CacheProbing,
    DatasetId::DnsLogs,
    DatasetId::Union,
    DatasetId::MicrosoftClients,
    DatasetId::MicrosoftResolvers,
];

/// Datasets shown in Tables 3 and 4 (AS granularity).
const TABLE3_IDS: [DatasetId; 6] = [
    DatasetId::CacheProbing,
    DatasetId::DnsLogs,
    DatasetId::Union,
    DatasetId::Apnic,
    DatasetId::MicrosoftClients,
    DatasetId::MicrosoftResolvers,
];

/// Report renderer over one pipeline run.
#[derive(Debug)]
pub struct Report<'a> {
    out: &'a PipelineOutput,
}

impl<'a> Report<'a> {
    /// Wraps an output.
    pub fn new(out: &'a PipelineOutput) -> Report<'a> {
        Report { out }
    }

    fn matrix_table(&self, m: &OverlapMatrix) -> String {
        let mut header = vec!["dataset".to_string()];
        header.extend(m.datasets.iter().map(|d| d.label().to_string()));
        let mut t = TextTable::new(header);
        for (i, row_id) in m.datasets.iter().enumerate() {
            let mut cells = vec![row_id.label().to_string()];
            for j in 0..m.datasets.len() {
                cells.push(format!(
                    "{} ({})",
                    fmt_count(m.cells[i][j]),
                    fmt_pct(m.pct[i][j])
                ));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Table 1: /24-prefix overlap matrix.
    pub fn table1(&self) -> String {
        let m = prefix_matrix(&self.out.bundle, &TABLE1_IDS);
        format!(
            "Table 1: /24 prefix overlap (row ∩ column, % of row)\n{}",
            self.matrix_table(&m)
        )
    }

    /// Table 2: ECS scope stability per probed domain.
    pub fn table2(&self) -> String {
        let rows = scope_stability_table(&self.out.cache_probe);
        let mut t = TextTable::new(["scope difference", "domain", "hits", "% of domain hits"]);
        for r in &rows {
            let (e, w2, w4) = r.pcts();
            t.row(["exact match", &r.domain, &fmt_count(r.exact), &fmt_pct(e)]);
            t.row(["within 2", &r.domain, &fmt_count(r.within2), &fmt_pct(w2)]);
            t.row(["within 4", &r.domain, &fmt_count(r.within4), &fmt_pct(w4)]);
        }
        format!(
            "Table 2: query-scope vs response-scope stability\n{}",
            t.render()
        )
    }

    /// Table 3: AS-level overlap matrix.
    pub fn table3(&self) -> String {
        let m = as_matrix(&self.out.bundle, &TABLE3_IDS);
        format!(
            "Table 3: AS overlap (row ∩ column, % of row)\n{}",
            self.matrix_table(&m)
        )
    }

    /// Table 4: volume-weighted AS coverage.
    pub fn table4(&self) -> String {
        let m = volume_matrix(&self.out.bundle, &TABLE3_IDS, &TABLE3_IDS);
        let mut header = vec!["row volume \\ in column ASes".to_string()];
        header.extend(m.cols.iter().map(|d| d.label().to_string()));
        let mut t = TextTable::new(header);
        for (i, row) in m.rows.iter().enumerate() {
            let mut cells = vec![row.label().to_string()];
            cells.extend(m.pct[i].iter().map(|p| fmt_pct(*p)));
            t.row(cells);
        }
        format!(
            "Table 4: % of row dataset's activity volume in ASes shared with column\n{}",
            t.render()
        )
    }

    /// Table 5: per-domain cache-probing results.
    pub fn table5(&self) -> String {
        let d = domain_overlap(&self.out.cache_probe, &self.out.sim.world().rib);
        let mut t = TextTable::new(
            ["metric"]
                .into_iter()
                .map(String::from)
                .chain(d.domains.clone()),
        );
        let row = |label: &str, vals: &[u64]| -> Vec<String> {
            std::iter::once(label.to_string())
                .chain(vals.iter().map(|v| fmt_count(*v)))
                .collect()
        };
        t.row(row("Total prefixes", &d.total_prefixes));
        t.row(row("Unique prefixes", &d.unique_prefixes));
        t.row(row("Total ASes", &d.total_ases));
        t.row(row("Unique ASes", &d.unique_ases));
        for (i, name) in d.domains.iter().enumerate() {
            let mut cells = vec![format!("∩ {name}")];
            for j in 0..d.domains.len() {
                let pct = if d.total_prefixes[i] > 0 {
                    100.0 * d.pairwise[i][j] as f64 / d.total_prefixes[i] as f64
                } else {
                    0.0
                };
                cells.push(format!(
                    "{} ({})",
                    fmt_count(d.pairwise[i][j]),
                    fmt_pct(pct)
                ));
            }
            t.row(cells);
        }
        format!("Table 5: cache-probing results by domain\n{}", t.render())
    }

    /// Figure 1: active-prefix density per probed PoP.
    pub fn figure1(&self) -> String {
        let density = pop_density(&self.out.cache_probe);
        let mut t = TextTable::new(["PoP", "location", "assigned scopes", "active /24s"]);
        for d in &density {
            t.row([
                d.code.to_string(),
                d.location.to_string(),
                d.assigned_scopes.to_string(),
                fmt_count(d.active_slash24s),
            ]);
        }
        format!(
            "Figure 1: density of active prefixes per probed PoP\n{}",
            t.render()
        )
    }

    /// Figure 2: service-radius CDFs for three geographically diverse
    /// PoPs (the paper shows Groningen, The Dalles, Charleston; when a
    /// preferred site was not bound in this run, the busiest calibrated
    /// PoPs stand in).
    pub fn figure2(&self) -> String {
        let cdfs = service_radius_cdfs(&self.out.cache_probe);
        let pops = pop_catalog();
        // Preferred sites first, then the best-calibrated rest.
        let preferred: Vec<usize> = ["GRQ", "DLS", "CHS"]
            .iter()
            .filter_map(|code| pops.iter().position(|p| p.code == *code))
            .filter(|pop| cdfs.get(pop).map(|c| !c.is_empty()).unwrap_or(false))
            .collect();
        let mut chosen = preferred;
        if chosen.len() < 3 {
            let mut rest: Vec<(usize, usize)> = cdfs
                .iter()
                .filter(|(pop, c)| !chosen.contains(pop) && !c.is_empty())
                .map(|(pop, c)| (*pop, c.len()))
                .collect();
            rest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            chosen.extend(rest.into_iter().take(3 - chosen.len()).map(|(p, _)| p));
        }
        let mut t = TextTable::new(["PoP", "hits", "p50 km", "p90 km (service radius)", "max km"]);
        for pop in chosen {
            let cdf = &cdfs[&pop];
            t.row([
                pops[pop].code.to_string(),
                cdf.len().to_string(),
                format!("{:.0}", cdf.quantile(0.5).unwrap_or(0.0)),
                format!("{:.0}", cdf.quantile(0.9).unwrap_or(0.0)),
                format!("{:.0}", cdf.quantile(1.0).unwrap_or(0.0)),
            ]);
        }
        format!(
            "Figure 2: cache-hit distance CDFs and 90th-percentile service radii\n{}",
            t.render()
        )
    }

    /// Figure 3: per-country fraction of APNIC users in ASes with
    /// detected cache-probing activity.
    pub fn figure3(&self) -> String {
        let cov = country_coverage(
            self.out.sim.world(),
            &self.out.bundle.apnic,
            &self.out.bundle.cache_probing_as,
        );
        let mut t = TextTable::new(["country", "APNIC users", "fraction seen"]);
        for c in cov.iter().take(25) {
            t.row([
                c.country.as_str().to_string(),
                fmt_count(c.apnic_users as u64),
                format!("{:.2}", c.fraction_seen),
            ]);
        }
        format!(
            "Figure 3: fraction of a country's APNIC Internet population seen by cache probing\n{}",
            t.render()
        )
    }

    /// Figure 4: CDF of the fraction of each AS's announced /24s
    /// detected active (lower vs upper bound).
    pub fn figure4(&self) -> String {
        let (points, lower, upper) =
            fraction_active_cdf(&self.out.cache_probe, &self.out.sim.world().rib);
        let mut t = TextTable::new(["quantile", "lower bound", "upper bound"]);
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            t.row([
                format!("{q:.2}"),
                format!("{:.3}", lower.quantile(q).unwrap_or(0.0)),
                format!("{:.3}", upper.quantile(q).unwrap_or(0.0)),
            ]);
        }
        format!(
            "Figure 4: fraction of AS's /24 prefixes detected active ({} ASes)\n{}",
            points.len(),
            t.render()
        )
    }

    /// Figure 5: PoP coverage states, and the share of Google Public
    /// DNS activity (by Microsoft-observed client IPs) carried by the
    /// probed PoPs vs the active-but-unreachable ones.
    pub fn figure5(&self) -> String {
        let pops = pop_catalog();
        let count = |s: PopStatus| pops.iter().filter(|p| p.status == s).count();
        let gpdns = self.out.sim.gpdns();
        let mut probed_vol = 0u64;
        let mut unprobed_vol = 0u64;
        for (addr, clients) in &self.out.cdn_logs.resolvers {
            if let Some(pop) = gpdns.pop_of_egress(*addr) {
                match pops[pop].status {
                    PopStatus::ProbedVerified => probed_vol += clients,
                    PopStatus::UnprobedVerified => unprobed_vol += clients,
                    PopStatus::UnprobedInactive => {}
                }
            }
        }
        let total = (probed_vol + unprobed_vol).max(1);
        let mut t = TextTable::new(["PoP state", "count", "share of Google DNS client IPs"]);
        t.row([
            "probed and verified".to_string(),
            count(PopStatus::ProbedVerified).to_string(),
            fmt_pct(100.0 * probed_vol as f64 / total as f64),
        ]);
        t.row([
            "unprobed and verified".to_string(),
            count(PopStatus::UnprobedVerified).to_string(),
            fmt_pct(100.0 * unprobed_vol as f64 / total as f64),
        ]);
        t.row([
            "unprobed and unverified".to_string(),
            count(PopStatus::UnprobedInactive).to_string(),
            fmt_pct(0.0),
        ]);
        format!("Figure 5: Google Public DNS PoP coverage\n{}", t.render())
    }

    /// Figure 6: distribution of relative per-AS volume for the three
    /// volume-bearing activity measures.
    pub fn figure6(&self) -> String {
        let mut t = TextTable::new(["dataset", "ASes", "p10", "p50", "p90"]);
        for id in [
            DatasetId::DnsLogs,
            DatasetId::MicrosoftResolvers,
            DatasetId::Apnic,
        ] {
            let cdf = relative_volume_cdf(&self.out.bundle.as_view(id));
            t.row([
                id.label().to_string(),
                cdf.len().to_string(),
                format!("{:.2e}", cdf.quantile(0.1).unwrap_or(0.0)),
                format!("{:.2e}", cdf.quantile(0.5).unwrap_or(0.0)),
                format!("{:.2e}", cdf.quantile(0.9).unwrap_or(0.0)),
            ]);
        }
        format!(
            "Figure 6: distribution of relative volume among ASes\n{}",
            t.render()
        )
    }

    /// Figure 7: per-AS differences in relative volume between the
    /// three measures.
    pub fn figure7(&self) -> String {
        let b = &self.out.bundle;
        let pairs = [
            (
                "Microsoft resolvers − APNIC",
                relative_volume_differences(
                    &b.as_view(DatasetId::MicrosoftResolvers),
                    &b.as_view(DatasetId::Apnic),
                ),
            ),
            (
                "Microsoft resolvers − DNS logs",
                relative_volume_differences(
                    &b.as_view(DatasetId::MicrosoftResolvers),
                    &b.as_view(DatasetId::DnsLogs),
                ),
            ),
            (
                "APNIC − DNS logs",
                relative_volume_differences(
                    &b.as_view(DatasetId::Apnic),
                    &b.as_view(DatasetId::DnsLogs),
                ),
            ),
        ];
        let mut t = TextTable::new(["pair", "ASes", "p10", "p50", "p90", "|diff|≤1e-5"]);
        for (label, cdf) in &pairs {
            let small = cdf.samples().iter().filter(|d| d.abs() <= 1.0e-5).count() as f64
                / cdf.len().max(1) as f64;
            t.row([
                label.to_string(),
                cdf.len().to_string(),
                format!("{:+.1e}", cdf.quantile(0.1).unwrap_or(0.0)),
                format!("{:+.1e}", cdf.quantile(0.5).unwrap_or(0.0)),
                format!("{:+.1e}", cdf.quantile(0.9).unwrap_or(0.0)),
                fmt_pct(100.0 * small),
            ]);
        }
        format!(
            "Figure 7: differences in relative AS volume between measures\n{}",
            t.render()
        )
    }

    /// Robustness summary of a faulted run: what the fault plan threw
    /// at the campaign and how the resilient prober absorbed it —
    /// ending with the partial-result accounting ("N prefixes
    /// unmeasured, M% of probes retried"). `None` on fault-free runs,
    /// keeping their rendered reports byte-identical to the pre-fault
    /// pipeline.
    pub fn robustness(&self) -> Option<String> {
        let f = self.out.cache_probe.fault.as_ref()?;
        let retried_pct = 100.0 * f.retried_fraction(self.out.cache_probe.probes_sent);
        let mut t = TextTable::new(["measure", "value"]);
        t.row(["fault profile", &f.profile]);
        t.row(["failures observed", &fmt_count(f.observed)]);
        t.row(["  recovered by retry", &fmt_count(f.recovered)]);
        t.row(["  degraded (TCP fallback)", &fmt_count(f.degraded)]);
        t.row(["  lost (budget exhausted)", &fmt_count(f.lost)]);
        t.row(["retries sent", &fmt_count(f.retries)]);
        t.row(["quarantined PoPs", &format!("{}", f.quarantined_pops.len())]);
        t.row([
            "scopes rescued at fallback PoPs",
            &fmt_count(f.rescued_scopes),
        ]);
        Some(format!(
            "Robustness: fault injection and partial-result accounting\n{}\n\
             {} of {} assigned prefixes unmeasured ({}); {} of probes retried\n",
            t.render(),
            fmt_count(f.unmeasured_scopes),
            fmt_count(f.assigned_scopes),
            fmt_pct(100.0 * f.unmeasured_fraction()),
            fmt_pct(retried_pct),
        ))
    }

    /// Cluster-based predictive probing ablation: how much live probing
    /// the clustered planner saved and how well its extrapolated
    /// verdicts agreed with what the member slots held in the prior
    /// sweep. `None` on non-clustered runs, keeping their rendered
    /// reports byte-identical to the pre-clustering pipeline. (The
    /// full clustered-vs-exhaustive precision/recall needs a reference
    /// run and lives in the differential suite,
    /// `tests/cluster_equivalence.rs`.)
    pub fn cluster_ablation(&self) -> Option<String> {
        let snap = self.out.metrics_snapshot();
        if !snap
            .counters
            .contains_key("cacheprobe.cluster.planned_universe")
        {
            return None;
        }
        let universe = snap.counter("cacheprobe.cluster.planned_universe");
        let reps = snap.counter("cacheprobe.cluster.representatives");
        let extrapolated = snap.counter("cacheprobe.cluster.extrapolated");
        let escalated = snap.counter("cacheprobe.cluster.escalated");
        let clusters = snap.counter("cacheprobe.cluster.clusters");
        let live = reps + escalated;
        let live_ratio = live as f64 / universe.max(1) as f64;
        let conf = confidence_summary(&self.out.sweep);
        let agreement = extrapolation_agreement(&self.out.sweep);
        let mut t = TextTable::new(["measure", "value"]);
        t.row(["slots planned for live probing", &fmt_count(universe)]);
        t.row(["  probed as representatives", &fmt_count(reps)]);
        t.row([
            "  extrapolated from a representative",
            &fmt_count(extrapolated),
        ]);
        t.row(["  escalated to live probing", &fmt_count(escalated)]);
        t.row(["clusters", &fmt_count(clusters)]);
        t.row([
            "live-probe ratio vs exhaustive",
            &format!("{live_ratio:.3}"),
        ]);
        t.row([
            "confidence tags (min / mean / max of 255)",
            &format!("{} / {:.0} / {}", conf.min, conf.mean, conf.max),
        ]);
        Some(format!(
            "Cluster ablation: predictive probing vs the prior sweep\n{}\n\
             extrapolated-Hit agreement with prior: precision {} recall {} \
             (TP {} FP {} FN {})\n",
            t.render(),
            fmt_pct(100.0 * agreement.precision()),
            fmt_pct(100.0 * agreement.recall()),
            fmt_count(agreement.true_positives),
            fmt_count(agreement.false_positives),
            fmt_count(agreement.false_negatives),
        ))
    }

    /// The §4 headline validations.
    pub fn headlines(&self) -> String {
        let proxy = dns_http_proxy(&self.out.bundle);
        let recall = groundtruth_recall(&self.out.cache_probe, &self.out.bundle.cloud_ecs);
        let precision = scope_precision(&self.out.cache_probe, &self.out.bundle.ms_clients);
        let m = volume_matrix(
            &self.out.bundle,
            &[DatasetId::MicrosoftClients],
            &[DatasetId::Union, DatasetId::Apnic, DatasetId::CacheProbing],
        );
        let union_vol = m
            .cell(DatasetId::MicrosoftClients, DatasetId::Union)
            .unwrap_or(0.0);
        let apnic_vol = m
            .cell(DatasetId::MicrosoftClients, DatasetId::Apnic)
            .unwrap_or(0.0);
        let prefix_vol = 100.0
            * self
                .out
                .bundle
                .ms_clients
                .volume_in(&self.out.bundle.cache_probing)
            / self.out.bundle.ms_clients.total_volume().max(1e-12);
        format!(
            "Headline validations (paper §4)\n\
             ------------------------------------------------------------\n\
             DNS↔HTTP proxy: {:.1}% of ECS-DNS volume from prefixes with HTTP (paper 97.2%)\n\
             DNS↔HTTP proxy: {:.1}% of HTTP volume from ECS-seen prefixes (paper 92%)\n\
             Ground-truth ECS recall of cache probing (MS domain): {:.1}% (paper 91%)\n\
             Hit scopes containing ≥1 CDN-client /24: {:.1}% (paper 99.1%)\n\
             MS-clients volume in union-detected ASes: {:.1}% (paper 98.8%)\n\
             MS-clients volume in APNIC ASes: {:.1}% (paper 92%)\n\
             MS-clients volume in cache-probed prefixes: {:.1}% (paper 95.2%)\n",
            proxy.dns_volume_in_http_prefixes_pct,
            proxy.http_volume_in_ecs_prefixes_pct,
            100.0 * recall,
            100.0 * precision,
            union_vol,
            apnic_vol,
            prefix_vol,
        )
    }

    /// Everything, in paper order (plus the robustness section when a
    /// fault plan was active, and the cluster ablation when the sweep
    /// ran the clustered planner).
    pub fn render_all(&self) -> String {
        let mut sections = vec![self.headlines()];
        sections.extend(self.robustness());
        sections.extend(self.cluster_ablation());
        sections.extend([
            self.table1(),
            self.table2(),
            self.table3(),
            self.table4(),
            self.table5(),
            self.figure1(),
            self.figure2(),
            self.figure3(),
            self.figure4(),
            self.figure5(),
            self.figure6(),
            self.figure7(),
        ]);
        sections.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use crate::{Pipeline, PipelineConfig};

    /// Rendering smoke checks on a shared tiny run (the pipeline tests
    /// assert content; these assert structure).
    fn output() -> &'static crate::PipelineOutput {
        static OUT: std::sync::OnceLock<crate::PipelineOutput> = std::sync::OnceLock::new();
        OUT.get_or_init(|| Pipeline::run(PipelineConfig::tiny(99)).expect("tiny run is healthy"))
    }

    #[test]
    fn tables_have_expected_row_counts() {
        let r = output().report();
        // Table 1: 5 datasets ⇒ 5 data rows + header + rule.
        assert_eq!(r.table1().lines().count(), 1 + 2 + 5);
        // Table 3: 6 datasets.
        assert_eq!(r.table3().lines().count(), 1 + 2 + 6);
        // Table 2: 3 buckets × (5 domains + overall).
        assert_eq!(r.table2().lines().count(), 1 + 2 + 3 * 6);
    }

    #[test]
    fn figure2_always_lists_three_pops() {
        let fig2 = output().report().figure2();
        // Header line + table header + rule + 3 PoPs.
        assert_eq!(fig2.lines().count(), 1 + 2 + 3, "{fig2}");
    }

    #[test]
    fn figure5_counts_are_the_catalog_constants() {
        let fig5 = output().report().figure5();
        assert!(fig5.contains("22"));
        assert!(fig5.contains("18"));
        assert!(fig5
            .lines()
            .any(|l| l.contains("unprobed and verified") && l.contains('5')));
    }

    #[test]
    fn robustness_section_only_renders_for_faulted_runs() {
        // Fault-free: absent from render_all, keeping reports
        // byte-identical to the pre-fault pipeline.
        assert!(output().report().robustness().is_none());
        assert!(!output().report().render_all().contains("Robustness"));

        use clientmap_faults::{FaultConfig, FaultProfile};
        let mut config = PipelineConfig::tiny(99);
        config.faults = FaultConfig::profile(FaultProfile::Lossy, 5);
        let o = Pipeline::run(config).expect("lossy run completes");
        let section = o.report().robustness().expect("faulted run has section");
        for needle in ["lossy", "unmeasured", "retried", "quarantined PoPs"] {
            assert!(section.contains(needle), "robustness missing {needle:?}");
        }
        assert!(o.report().render_all().contains("Robustness"));
    }

    #[test]
    fn cluster_ablation_only_renders_for_clustered_runs() {
        // Non-clustered: absent from render_all, keeping reports
        // byte-identical to the pre-clustering pipeline.
        assert!(output().report().cluster_ablation().is_none());
        assert!(!output().report().render_all().contains("Cluster ablation"));

        let mut config = PipelineConfig::tiny(99);
        config.probe.clustered_probing = true;
        let o = Pipeline::run(config).expect("clustered run is healthy");
        let section = o
            .report()
            .cluster_ablation()
            .expect("clustered run has section");
        for needle in [
            "representatives",
            "extrapolated",
            "escalated",
            "live-probe ratio",
            "agreement with prior",
        ] {
            assert!(section.contains(needle), "ablation missing {needle:?}");
        }
        assert!(o.report().render_all().contains("Cluster ablation"));
        // The clustered plan probed a real subset, not everything.
        let snap = o.metrics_snapshot();
        assert!(snap.counter("cacheprobe.cluster.extrapolated") > 0);
        assert!(!o.sweep.confidence.is_empty());
    }

    #[test]
    fn headlines_mention_every_paper_number() {
        let h = output().report().headlines();
        for paper in ["97.2%", "92%", "91%", "99.1%", "98.8%", "95.2%"] {
            assert!(h.contains(paper), "headline missing paper anchor {paper}");
        }
    }
}
