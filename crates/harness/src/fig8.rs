//! Fig 8: geometric-mean speedup of the SPEC-like application suite vs
//! the SimBench suite across the twenty DBT versions (baseline v1.7.0).
//!
//! The paper's closing observation: both aggregates drift downward
//! across releases, but only SimBench's per-category breakdown (Fig 6)
//! says *why*.
//!
//! It aggregates the armlet app and suite cells of every DBT version
//! profile in the paper campaign: the cells of Figs 2 and 6, read once.

use simbench_campaign::{CampaignResult, CampaignSpec, Workload};
use simbench_dbt::QEMU_VERSIONS;

use crate::table::{fmt_ratio, Table};
use crate::{geomean, version_speedups, Guest};

/// One version's aggregate speedups.
#[derive(Debug, Clone)]
pub struct Row {
    /// Version name.
    pub version: &'static str,
    /// Geomean speedup of the SPEC-like apps.
    pub spec: f64,
    /// Geomean speedup of the SimBench suite.
    pub simbench: f64,
}

/// Render Fig 8 from a campaign.
///
/// # Errors
///
/// A cell the figure needs is missing or has no time; the error names it.
pub fn render(campaign: &CampaignResult) -> Result<(Vec<Row>, String), String> {
    let series = |workloads: Vec<Workload>| {
        workloads
            .into_iter()
            .map(|w| version_speedups(campaign, Guest::Armlet, w))
            .collect::<Result<Vec<Vec<f64>>, String>>()
    };
    let (apps, suite) = (
        series(CampaignSpec::app_workloads())?,
        series(CampaignSpec::suite_workloads())?,
    );

    let mut rows = Vec::new();
    let mut table = Table::new(["version", "SPEC-like", "SimBench"]);
    for (vi, v) in QEMU_VERSIONS.iter().enumerate() {
        let at = |series: &[Vec<f64>]| geomean(&series.iter().map(|s| s[vi]).collect::<Vec<f64>>());
        let row = Row {
            version: v.name,
            spec: at(&apps),
            simbench: at(&suite),
        };
        table.row([
            row.version.to_string(),
            fmt_ratio(row.spec),
            fmt_ratio(row.simbench),
        ]);
        rows.push(row);
    }
    let text = format!(
        "Fig 8 — geometric-mean speedup across DBT versions (baseline v1.7.0, armlet guest)\n\n{}",
        table.render()
    );
    Ok((rows, text))
}
