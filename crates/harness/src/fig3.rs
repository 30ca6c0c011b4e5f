//! Fig 3: the benchmark table — iteration counts and operation densities
//! for SimBench kernels vs the SPEC-like application suite.
//!
//! Density is *tested operations per retired kernel instruction*,
//! measured (not assumed) from engine event counters.
//!
//! It aggregates the counters of the paper campaign's armlet cells on
//! the latest DBT profile: only a translating engine can observe code
//! modifications (the Code Generation tested op).

use simbench_apps::App;
use simbench_campaign::{CampaignResult, Workload};
use simbench_core::events::Counters;
use simbench_suite::Benchmark;

use crate::table::{fmt_density, fmt_iters, Table};
use crate::{cell, EngineKind, Guest};

/// One benchmark's densities.
#[derive(Debug, Clone)]
pub struct Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// Paper default iteration count.
    pub iterations: u64,
    /// Tested-op density within the benchmark's own kernel.
    pub simbench_density: f64,
    /// Density of the same operation across the SPEC-like apps.
    pub spec_density: f64,
}

/// Render Fig 3 from a campaign.
///
/// # Errors
///
/// A cell the figure needs is missing or has no time; the error names it.
pub fn render(campaign: &CampaignResult) -> Result<(Vec<Row>, String), String> {
    let engine = EngineKind::Dbt(simbench_dbt::VersionProfile::latest());
    // Aggregate counters across the whole app suite.
    let mut spec_total = Counters::default();
    for app in App::ALL {
        let cell = cell(campaign, Guest::Armlet, engine, Workload::App(app))?;
        spec_total = spec_total.plus(&cell.counters);
    }

    let mut rows = Vec::new();
    let mut table = Table::new([
        "category",
        "benchmark",
        "iterations",
        "density (SimBench)",
        "density (SPEC-like)",
        "notes",
    ]);
    for bench in Benchmark::ALL {
        let counters = &cell(campaign, Guest::Armlet, engine, Workload::Suite(bench))?.counters;
        let own = bench.tested_ops(counters) as f64 / counters.instructions.max(1) as f64;
        let spec = bench.tested_ops(&spec_total) as f64 / spec_total.instructions.max(1) as f64;
        let row = Row {
            bench,
            iterations: bench.paper_iterations(),
            simbench_density: own,
            spec_density: spec,
        };
        table.row([
            bench.category().name().to_string(),
            format!(
                "{}{}",
                bench.name(),
                if bench.platform_specific() {
                    " †"
                } else {
                    ""
                }
            ),
            fmt_iters(row.iterations),
            fmt_density(row.simbench_density),
            fmt_density(row.spec_density),
            String::new(),
        ]);
        rows.push(row);
    }
    let text = format!(
        "Fig 3 — SimBench benchmarks: paper iteration counts and measured operation densities\n\
         († significant platform-specific portions, as in the paper)\n\n{}",
        table.render()
    );
    Ok((rows, text))
}
