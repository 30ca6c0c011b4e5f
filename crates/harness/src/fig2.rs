//! Fig 2: relative performance of the sjeng-like and mcf-like workloads
//! and the overall SPEC-like rating across the twenty DBT versions
//! (baseline: v1.7.0).
//!
//! The paper's motivating example: aggregate application benchmarks
//! drift apart across simulator versions — sjeng improves while mcf
//! regresses — and the average hides both.
//!
//! The measurements come from one campaign over the app × version
//! matrix; this module only renders the cells.

use simbench_apps::App;
use simbench_campaign::{CampaignResult, CampaignSpec, Workload};
use simbench_dbt::QEMU_VERSIONS;

use crate::table::{fmt_ratio, Table};
use crate::{figure_spec, geomean, run_campaign, Config, EngineKind, Guest};

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

/// The Fig 2 campaign: every app on every DBT version profile (armlet
/// guest, as in the paper's ARM-binaries-on-x86-host experiment).
pub fn spec(cfg: &Config) -> CampaignSpec {
    figure_spec(
        "fig2",
        vec![Guest::Armlet],
        EngineKind::all_dbt_versions(),
        CampaignSpec::app_workloads(),
        cfg,
    )
}

/// App time for one version from the campaign.
fn app_secs(campaign: &CampaignResult, version: &EngineKind, app: App) -> f64 {
    let cell = campaign
        .cell(
            Guest::Armlet.isa_name(),
            &version.id(),
            &Workload::App(app).id(),
        )
        .expect("apps run on every version");
    cell.metric().expect("apps complete").max(1e-9)
}

/// Render a completed Fig 2 campaign. Returns the rows plus a table.
pub fn render(campaign: &CampaignResult) -> (Vec<Row>, String) {
    let versions = EngineKind::all_dbt_versions();
    let times: Vec<Vec<f64>> = versions
        .iter()
        .map(|v| {
            App::ALL
                .iter()
                .map(|&app| app_secs(campaign, v, app))
                .collect()
        })
        .collect();
    let base = &times[0];
    let sjeng_idx = App::ALL.iter().position(|a| *a == App::SjengLike).unwrap();
    let mcf_idx = App::ALL.iter().position(|a| *a == App::McfLike).unwrap();

    let mut rows = Vec::new();
    let mut table = Table::new(["version", "sjeng-like", "mcf-like", "SPEC-like (overall)"]);
    for (vi, v) in QEMU_VERSIONS.iter().enumerate() {
        let speedups: Vec<f64> = (0..App::ALL.len())
            .map(|ai| base[ai] / times[vi][ai])
            .collect();
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
    (rows, text)
}

/// Run the experiment and render it.
pub fn run(cfg: &Config) -> (Vec<Row>, String) {
    render(&run_campaign(&spec(cfg), cfg))
}
