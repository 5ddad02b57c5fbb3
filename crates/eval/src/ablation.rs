//! Table 4 + Fig. 5c + §5.2.4: probe counts, latency, and throughput
//! across the component ablation ladder
//! `revtr 2.0 = revtr 1.0 + ingress + cache − TS + RR atlas`.
//!
//! Each ladder step is one [`Campaign`] on its named preset, over the
//! standard workload in a world of its own; a row reads the run's probe
//! delta and results. Sources bootstrap inside the run, so a source's
//! first request carries its atlas build's time (its atlas traceroutes and
//! RR pings are not the option probes Table 4 counts).

use crate::campaign::{Campaign, CampaignRun, Scale};
use crate::render::{Figure, Table};
use crate::stats::Distribution;
use revtr::EngineConfig;

/// One ladder row's measurements.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Config display name (paper row label).
    pub name: String,
    /// Non-spoofed RR probes.
    pub rr: u64,
    /// Spoofed RR probes.
    pub spoof_rr: u64,
    /// Non-spoofed TS probes.
    pub ts: u64,
    /// Spoofed TS probes.
    pub spoof_ts: u64,
    /// Per-measurement virtual durations (seconds).
    pub durations: Vec<f64>,
    /// Completed measurements.
    pub completed: usize,
    /// Attempted measurements.
    pub attempted: usize,
}

impl AblationRow {
    /// Read the row of the preset labelled `name` off its campaign run.
    pub fn of(name: &str, run: &CampaignRun) -> AblationRow {
        let p = &run.probes;
        AblationRow {
            name: name.to_string(),
            rr: p.rr,
            spoof_rr: p.spoof_rr,
            ts: p.ts,
            spoof_ts: p.spoof_ts,
            durations: run.results.iter().map(|r| r.stats.duration_s).collect(),
            completed: run.results.iter().filter(|r| r.complete()).count(),
            attempted: run.workload.len(),
        }
    }

    /// Table 4's "Total" (option-carrying probes).
    pub fn total(&self) -> u64 {
        self.rr + self.spoof_rr + self.ts + self.spoof_ts
    }

    /// Mean RR probes (direct + spoofed) per attempted path (§4.3's
    /// "9 RR probes per path" metric).
    pub fn rr_per_path(&self) -> f64 {
        (self.rr + self.spoof_rr) as f64 / self.attempted.max(1) as f64
    }

    /// Median virtual duration (Fig. 5c's headline number).
    pub fn median_duration_s(&self) -> f64 {
        Distribution::new(self.durations.clone()).median()
    }

    /// Serial virtual throughput (measurements per virtual second).
    pub fn throughput_per_s(&self) -> f64 {
        let total: f64 = self.durations.iter().sum();
        if total <= 0.0 {
            return f64::NAN;
        }
        self.attempted as f64 / total
    }
}

/// The full ablation report.
#[derive(Clone, Debug)]
pub struct AblationReport {
    /// One row per ladder config, paper order.
    pub rows: Vec<AblationRow>,
}

/// Run every ladder preset's campaign, one at a time.
pub fn run(scale: Scale, seed: u64) -> AblationReport {
    let rows = (EngineConfig::table4_ladder().into_iter())
        .map(|(name, engine)| {
            AblationRow::of(
                name,
                &Campaign::clean(scale, seed).with_engine(engine).run(),
            )
        })
        .collect();
    AblationReport { rows }
}

impl AblationReport {
    /// Render Table 4.
    pub fn table4(&self) -> Table {
        let mut t = Table::new(
            "Table 4: probes sent per configuration",
            &[
                "Type of packet",
                "RR",
                "Spoof RR",
                "TS",
                "Spoof TS",
                "Total",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.name.clone(),
                r.rr.to_string(),
                r.spoof_rr.to_string(),
                r.ts.to_string(),
                r.spoof_ts.to_string(),
                r.total().to_string(),
            ]);
        }
        t
    }

    /// Render the Fig. 5c latency CDF.
    pub fn fig5c(&self) -> Figure {
        let mut f = Figure::new(
            "Figure 5c: reverse traceroute latency CDF",
            "time (virtual seconds)",
            "CDF of reverse traceroutes",
        );
        let xs: Vec<f64> = [
            0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 300.0, 600.0,
        ]
        .to_vec();
        // Paper order reversed so revtr 2.0 is on top.
        for r in self.rows.iter().rev() {
            let d = Distribution::new(r.durations.clone());
            f.series(&r.name, d.cdf_series(&xs));
        }
        f
    }

    /// Render the throughput summary (§5.2.4).
    pub fn throughput_table(&self) -> Table {
        let mut t = Table::new(
            "Throughput and probe cost (§5.2.4)",
            &[
                "Configuration",
                "revtrs/s (virtual)",
                "median s/revtr",
                "RR probes/path",
                "probes vs revtr 1.0",
            ],
        );
        let base_total = self.rows.first().map(|r| r.total()).unwrap_or(0);
        for r in &self.rows {
            let ratio = if base_total > 0 {
                format!("{:.0}%", 100.0 * r.total() as f64 / base_total as f64)
            } else {
                "-".to_string()
            };
            t.row(&[
                r.name.clone(),
                format!("{:.2}", r.throughput_per_s()),
                format!("{:.1}", r.median_duration_s()),
                format!("{:.1}", r.rr_per_path()),
                ratio,
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_shapes_hold_on_smoke_scale() {
        let report = run(Scale::Smoke, 1);
        assert_eq!(report.rows.len(), 5);
        let by_name: revtr_telemetry::WordMap<&str, &AblationRow> =
            report.rows.iter().map(|r| (r.name.as_str(), r)).collect();
        let v1 = by_name["revtr 1.0"];
        let v2 = by_name["revtr 2.0"];
        // The headline shape: revtr 2.0 sends far fewer probes than 1.0.
        assert!(
            v2.total() < v1.total(),
            "2.0 must send fewer probes: {} vs {}",
            v2.total(),
            v1.total()
        );
        // No TS once disabled.
        assert_eq!(v2.ts + v2.spoof_ts, 0);
        assert_eq!(by_name["revtr 1.0 + ingress + cache - TS"].ts, 0);
        // 1.0 with Always-symmetry completes at least as many paths.
        assert!(v1.completed >= v2.completed);
        // 2.0 spends no more total virtual time than 1.0 (on the tiny smoke
        // topology medians are sub-second and noisy; the full-scale latency
        // separation is exercised by the standard-scale reproduction).
        let total = |r: &AblationRow| r.durations.iter().sum::<f64>();
        assert!(
            total(v2) <= total(v1) * 1.05,
            "2.0 total {} vs 1.0 total {}",
            total(v2),
            total(v1)
        );
        // Renders.
        assert_eq!(report.table4().len(), 5);
        assert!(report.fig5c().render().contains("revtr 2.0"));
        assert!(report.throughput_table().render().contains("revtrs/s"));
    }
}
