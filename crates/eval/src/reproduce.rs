//! One-shot reproduction driver: run every experiment at a given scale,
//! render all tables/figures, and optionally save TSVs.

use crate::campaign::Scale;
use crate::context::EvalContext;
use crate::{
    ablation, accuracy, as_graph, asymmetry, atlas_study, dbr_violations, ip2as_ablation,
    responsiveness, robustness, symmetry_assumption, throughput, traffic_eng, vp_selection,
};
use revtr::EngineConfig;
use revtr_vpselect::Heuristics;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Everything the reproduction produces.
pub struct Reproduction {
    /// Table 2.
    pub table2: symmetry_assumption::SymmetryAssumptionReport,
    /// Table 3.
    pub table3: as_graph::AsGraphReport,
    /// Table 4 / Fig. 5c / throughput.
    pub ablation: ablation::AblationReport,
    /// Fig. 5a/5b.
    pub accuracy: accuracy::AccuracyReport,
    /// Table 5 / Fig. 6.
    pub vp_selection: vp_selection::VpSelectionReport,
    /// Table 6 / Fig. 11.
    pub responsiveness: responsiveness::ResponsivenessReport,
    /// Table 7 / Fig. 8 / 12 / 13 / 14.
    pub asymmetry: asymmetry::AsymmetryReport,
    /// Fig. 9a–c.
    pub atlas_sel: atlas_study::AtlasStudyReport,
    /// Fig. 9d.
    pub staleness: atlas_study::StalenessReport,
    /// Appx. E.
    pub dbr: dbr_violations::DbrReport,
    /// Appx. B.2 mapping ablation.
    pub ip2as: ip2as_ablation::Ip2AsAblationReport,
    /// Insight 1.3 spoofing benefit.
    pub spoofing: responsiveness::SpoofingBenefit,
    /// Implementation cost per revtr.
    pub throughput: throughput::ThroughputReport,
    /// Fig. 7.
    pub traffic_eng: traffic_eng::TrafficEngReport,
    /// Coverage under injected loss, by retry budget (`Campaign` cells).
    pub robustness: robustness::RobustnessReport,
}

/// Run every experiment at the given scale and master seed. The paper
/// experiments share one paper-era context with `scale`'s workload sizes;
/// the robustness cells are campaigns of their own at `scale`.
pub fn run(scale: Scale, seed: u64) -> Reproduction {
    // The cells first: each campaign's world is dropped before the next is
    // built, and before the shared context below exists.
    let robustness = robustness::run(scale, seed);

    let sizes = scale.eval_scale(seed);
    let ctx = EvalContext::new(revtr_netsim::SimConfig::era_2020(), sizes);
    let prober = ctx.prober();
    let ingress = Arc::new(ctx.build_ingress(&prober, Heuristics::FULL));
    let workload = ctx.workload();

    let table2 = symmetry_assumption::run(&ctx, &ingress, (sizes.n_revtrs / 2).max(50));
    let table3 = as_graph::run(&ctx, &ingress);
    let abl = ablation::run(&ctx, &ingress, &workload);
    let acc = accuracy::run(&ctx, &ingress, &workload);
    let vps = vp_selection::run(&ctx);
    let resp = responsiveness::run(sizes);
    let asym = asymmetry::run(&ctx, &ingress, &workload);
    let split = atlas_study::collect_split(&ctx, (sizes.atlas_size * 2).min(600), 3);
    let atlas_sel = atlas_study::run_selection_study(&split, sizes.seed);
    let staleness = atlas_study::run_staleness(&ctx, &ingress);
    let dbr = dbr_violations::run(&ctx, &ingress, (sizes.n_revtrs / 2).max(100));
    let ip2as = ip2as_ablation::run(&ctx, &ingress, &workload);
    let spoofing = responsiveness::spoofing_benefit(&ctx);
    // Throughput over a slice of the workload, on a fresh prober.
    let tp = throughput::run(
        &ctx.build_system(ctx.prober(), EngineConfig::revtr2(), ingress.clone()),
        &workload[..workload.len().min(400)],
    );
    let te = traffic_eng::run(&ctx);

    Reproduction {
        table2,
        table3,
        ablation: abl,
        accuracy: acc,
        vp_selection: vps,
        responsiveness: resp,
        asymmetry: asym,
        atlas_sel,
        staleness,
        dbr,
        ip2as,
        spoofing,
        throughput: tp,
        traffic_eng: te,
        robustness,
    }
}

impl Reproduction {
    /// Render the full text report, in paper order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut push = |s: String| {
            let _ = writeln!(out, "{s}");
        };
        push(self.table2.table2().render());
        push(self.table3.table3().render());
        push(self.table3.per_source_summary().render());
        push(self.ablation.table4().render());
        push(self.ablation.throughput_table().render());
        push(self.accuracy.fig5a().render());
        push(self.accuracy.fig5b().render());
        push(self.accuracy.as_match_table().render());
        push(self.ablation.fig5c().render());
        push(self.vp_selection.fig6a().render());
        push(self.vp_selection.fig6b().render());
        push(self.vp_selection.fig6c().render());
        push(self.vp_selection.table5().render());
        push(format!(
            "Ingress-candidate stability on a third destination: {:.3} (paper: 0.872)\n",
            self.vp_selection.stability_fraction()
        ));
        push(self.traffic_eng.fig7().render());
        push(self.asymmetry.fig8a().render());
        push(self.asymmetry.fig8b().render());
        push(format!(
            "AS-symmetric fraction of paths: {:.2} (paper: 0.53)\n",
            self.asymmetry.as_symmetric_fraction()
        ));
        push(self.atlas_sel.fig9a.render());
        push(self.atlas_sel.fig9b.render());
        push(self.atlas_sel.fig9c.render());
        push(self.staleness.fig9d().render());
        push(format!(
            "Cumulative stale-intersection fraction over a day: {:.4} (paper: 0.007)\n",
            self.staleness.cumulative_stale_fraction()
        ));
        push(self.responsiveness.table6().render());
        push(self.responsiveness.fig11().render());
        push(self.asymmetry.fig12().render());
        push(self.asymmetry.fig13().render());
        push(self.asymmetry.fig14().render());
        push(self.asymmetry.table7(10).render());
        push(self.dbr.table().render());
        push(self.ip2as.table().render());
        push(self.spoofing.table().render());
        push(self.asymmetry.definition_comparison().render());
        push(self.throughput.table().render());
        push(self.robustness.table().render());
        push(self.robustness.figure().render());
        out
    }

    /// Save every table/figure as TSV under `dir`.
    pub fn save_tsvs(&self, dir: &Path) -> std::io::Result<()> {
        self.table2.table2().save_tsv(dir, "table2")?;
        self.table3.table3().save_tsv(dir, "table3")?;
        self.table3
            .per_source_summary()
            .save_tsv(dir, "per_source_coverage")?;
        self.ablation.table4().save_tsv(dir, "table4")?;
        self.ablation
            .throughput_table()
            .save_tsv(dir, "throughput")?;
        self.accuracy.fig5a().save_tsv(dir, "fig5a")?;
        self.accuracy.fig5b().save_tsv(dir, "fig5b_coverage")?;
        self.accuracy.as_match_table().save_tsv(dir, "as_match")?;
        self.ablation.fig5c().save_tsv(dir, "fig5c")?;
        self.vp_selection.fig6a().save_tsv(dir, "fig6a")?;
        self.vp_selection.fig6b().save_tsv(dir, "fig6b")?;
        self.vp_selection.fig6c().save_tsv(dir, "fig6c")?;
        self.vp_selection.table5().save_tsv(dir, "table5")?;
        self.traffic_eng.fig7().save_tsv(dir, "fig7")?;
        self.asymmetry.fig8a().save_tsv(dir, "fig8a")?;
        self.asymmetry.fig8b().save_tsv(dir, "fig8b")?;
        self.atlas_sel.fig9a.save_tsv(dir, "fig9a")?;
        self.atlas_sel.fig9b.save_tsv(dir, "fig9b")?;
        self.atlas_sel.fig9c.save_tsv(dir, "fig9c")?;
        self.staleness.fig9d().save_tsv(dir, "fig9d")?;
        self.responsiveness.table6().save_tsv(dir, "table6")?;
        self.responsiveness.fig11().save_tsv(dir, "fig11")?;
        self.asymmetry.fig12().save_tsv(dir, "fig12")?;
        self.asymmetry.fig13().save_tsv(dir, "fig13")?;
        self.asymmetry.fig14().save_tsv(dir, "fig14")?;
        self.asymmetry.table7(10).save_tsv(dir, "table7")?;
        self.dbr.table().save_tsv(dir, "appxE")?;
        self.ip2as.table().save_tsv(dir, "appxB2")?;
        self.spoofing.table().save_tsv(dir, "insight1_3_spoofing")?;
        self.asymmetry
            .definition_comparison()
            .save_tsv(dir, "appxG3_definitions")?;
        self.throughput.table().save_tsv(dir, "impl_throughput")?;
        self.robustness.table().save_tsv(dir, "robustness")?;
        self.robustness
            .figure()
            .save_tsv(dir, "robustness_coverage")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reproduction_runs_at_smoke_scale() {
        let rep = run(Scale::Smoke, crate::context::DEFAULT_SEED);
        let text = rep.render();
        // Every table/figure header present.
        for needle in [
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Figure 5a",
            "Figure 5b",
            "Figure 5c",
            "Figure 6a",
            "Figure 6b",
            "Figure 6c",
            "Figure 7",
            "Figure 8a",
            "Figure 8b",
            "Figure 9a",
            "Figure 9b",
            "Figure 9c",
            "Figure 9d",
            "Figure 11",
            "Figure 12",
            "Figure 13",
            "Figure 14",
            "Appendix E",
            "Appendix B.2",
            "Insight 1.3",
            "Implementation throughput",
            "Robustness",
        ] {
            assert!(text.contains(needle), "missing {needle} in report");
        }
        // One serial campaign on a fault-free Internet: every cache lookup
        // is classified, and the retry layer is invisible.
        let tp = &rep.throughput;
        assert!(tp.measured > 0);
        assert!(tp.cache.hits + tp.cache.misses > 0, "{:?}", tp.cache);
        assert_eq!((tp.retries, tp.lost), (0, 0));
        assert_eq!(rep.robustness.cells.len(), 4);
    }
}
