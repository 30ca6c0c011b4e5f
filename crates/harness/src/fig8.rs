//! Fig 8: geometric-mean speedup of the SPEC-like application suite vs
//! the SimBench suite across the twenty DBT versions (baseline v1.7.0).
//!
//! The paper's closing observation: both aggregates drift downward
//! across releases, but only SimBench's per-category breakdown (Fig 6)
//! says *why*.
//!
//! The measurements come from one campaign over the combined
//! (apps + suite) × version matrix; this module only renders the cells.

use simbench_apps::App;
use simbench_campaign::{CampaignResult, CampaignSpec, Workload};
use simbench_dbt::QEMU_VERSIONS;
use simbench_suite::Benchmark;

use crate::table::{fmt_ratio, Table};
use crate::{figure_spec, geomean, run_campaign, Config, EngineKind, Guest};

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

/// The Fig 8 campaign: both workload families on every DBT version
/// profile (armlet guest, as in the paper).
pub fn spec(cfg: &Config) -> CampaignSpec {
    let mut workloads = CampaignSpec::app_workloads();
    workloads.extend(CampaignSpec::suite_workloads());
    figure_spec(
        "fig8",
        vec![Guest::Armlet],
        EngineKind::all_dbt_versions(),
        workloads,
        cfg,
    )
}

fn secs(campaign: &CampaignResult, version: &EngineKind, workload: Workload) -> f64 {
    let cell = campaign
        .cell(Guest::Armlet.isa_name(), &version.id(), &workload.id())
        .expect("armlet supports all workloads");
    cell.metric().expect("workload completed").max(1e-9)
}

/// Render a completed Fig 8 campaign.
pub fn render(campaign: &CampaignResult) -> (Vec<Row>, String) {
    let versions = EngineKind::all_dbt_versions();
    let benches: Vec<Benchmark> = Benchmark::ALL.to_vec();
    let app_times: Vec<Vec<f64>> = versions
        .iter()
        .map(|v| {
            App::ALL
                .iter()
                .map(|&a| secs(campaign, v, Workload::App(a)))
                .collect()
        })
        .collect();
    let suite_times: Vec<Vec<f64>> = versions
        .iter()
        .map(|v| {
            benches
                .iter()
                .map(|&b| secs(campaign, v, Workload::Suite(b)))
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    let mut table = Table::new(["version", "SPEC-like", "SimBench"]);
    for (vi, v) in QEMU_VERSIONS.iter().enumerate() {
        let spec: Vec<f64> = (0..App::ALL.len())
            .map(|ai| app_times[0][ai] / app_times[vi][ai])
            .collect();
        let sim: Vec<f64> = (0..benches.len())
            .map(|bi| suite_times[0][bi] / suite_times[vi][bi])
            .collect();
        let row = Row {
            version: v.name,
            spec: geomean(&spec),
            simbench: geomean(&sim),
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
    (rows, text)
}

/// Run the experiment (armlet guest, as in the paper) and render it.
pub fn run(cfg: &Config) -> (Vec<Row>, String) {
    render(&run_campaign(&spec(cfg), cfg))
}
