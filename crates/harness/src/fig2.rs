//! Fig 2: relative performance of the sjeng-like and mcf-like workloads
//! and the overall SPEC-like rating across the twenty DBT versions
//! (baseline: v1.7.0).
//!
//! The paper's motivating example: aggregate application benchmarks
//! drift apart across simulator versions — sjeng improves while mcf
//! regresses — and the average hides both.
//!
//! It renders the armlet app cells of every DBT version profile in the
//! paper campaign (the paper's ARM-binaries-on-x86-host experiment).
//!
//! Two of the paper's explanations are not modelled, so their shapes
//! are not expected here: sjeng's peak at 2.2.1 from 2.2.x's better
//! indirect-branch handling (every profile has the same indirect-branch
//! target cache) and 2.0.0's optimiser lift (every profile has the same
//! optimizer). See `simbench_dbt::versions`.

use simbench_apps::App;
use simbench_campaign::{CampaignResult, Workload};
use simbench_dbt::QEMU_VERSIONS;

use crate::table::{fmt_ratio, Table};
use crate::{geomean, version_speedups, Guest};

/// One version's measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Version name.
    pub version: &'static str,
    /// sjeng-like speedup vs baseline.
    pub sjeng: f64,
    /// mcf-like speedup vs baseline.
    pub mcf: f64,
    /// Geometric-mean speedup across all apps ("SPEC overall").
    pub overall: f64,
}

/// Render Fig 2 from a campaign. Returns the rows plus a table.
///
/// # Errors
///
/// A cell the figure needs is missing or has no time; the error names it.
pub fn render(campaign: &CampaignResult) -> Result<(Vec<Row>, String), String> {
    let series = App::ALL
        .iter()
        .map(|&app| version_speedups(campaign, Guest::Armlet, Workload::App(app)))
        .collect::<Result<Vec<Vec<f64>>, String>>()?;
    let sjeng_idx = App::ALL.iter().position(|a| *a == App::SjengLike).unwrap();
    let mcf_idx = App::ALL.iter().position(|a| *a == App::McfLike).unwrap();

    let mut rows = Vec::new();
    let mut table = Table::new(["version", "sjeng-like", "mcf-like", "SPEC-like (overall)"]);
    for (vi, v) in QEMU_VERSIONS.iter().enumerate() {
        let speedups: Vec<f64> = series.iter().map(|s| s[vi]).collect();
        let row = Row {
            version: v.name,
            sjeng: speedups[sjeng_idx],
            mcf: speedups[mcf_idx],
            overall: geomean(&speedups),
        };
        table.row([
            row.version.to_string(),
            fmt_ratio(row.sjeng),
            fmt_ratio(row.mcf),
            fmt_ratio(row.overall),
        ]);
        rows.push(row);
    }
    let text = format!(
        "Fig 2 — application speedup across DBT versions (baseline v1.7.0, armlet guest)\n\n{}",
        table.render()
    );
    Ok((rows, text))
}
