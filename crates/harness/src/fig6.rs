//! Fig 6: per-benchmark SimBench speedups across the twenty DBT
//! versions, grouped by category, for each of the three guest
//! architectures (baseline: v1.7.0).
//!
//! This is the figure that *explains* Fig 2's aggregate drift: the
//! control-flow and exception panels degrade monotonically from v2.1,
//! the optimizer bump lands at v2.0.0, and the data-fault fast path
//! appears at v2.5.0-rc0.
//!
//! It renders the suite cells of every DBT version profile in the
//! paper campaign.

use std::collections::BTreeMap;

use simbench_campaign::{CampaignResult, Workload};
use simbench_dbt::QEMU_VERSIONS;
use simbench_suite::{Benchmark, Category};

use crate::table::{fmt_ratio, Table};
use crate::{version_speedups, Guest};

/// Measured speedups: `speedups[benchmark][version index]`.
#[derive(Debug, Clone, Default)]
pub struct Panel {
    /// Guest the panel was measured on.
    pub guest: &'static str,
    /// Per-benchmark speedup series across versions.
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

/// Build one guest's panel from a campaign.
fn panel_from(guest: Guest, campaign: &CampaignResult) -> Result<Panel, String> {
    let mut panel = Panel {
        guest: guest.name(),
        series: BTreeMap::new(),
    };
    for bench in Benchmark::ALL {
        if !bench.supported_on(guest.isa_name()) {
            continue;
        }
        let series = version_speedups(campaign, guest, Workload::Suite(bench))?;
        panel.series.insert(bench.name(), series);
    }
    Ok(panel)
}

/// Render one guest's panels (one table per category).
fn render_panels(guest: Guest, panel: &Panel) -> String {
    let mut out = format!(
        "Fig 6 — SimBench speedups across DBT versions, {} guest\n",
        panel.guest
    );
    for cat in Category::ALL {
        let benches: Vec<Benchmark> = Benchmark::ALL
            .iter()
            .copied()
            .filter(|b| b.category() == cat && b.supported_on(guest.isa_name()))
            .collect();
        if benches.is_empty() {
            continue;
        }
        let mut header = vec!["version".to_string()];
        header.extend(benches.iter().map(|b| b.name().to_string()));
        let mut table = Table::new(header);
        for (vi, v) in QEMU_VERSIONS.iter().enumerate() {
            let mut cells = vec![v.name.to_string()];
            for b in &benches {
                cells.push(fmt_ratio(panel.series[b.name()][vi]));
            }
            table.row(cells);
        }
        out.push_str(&format!("\n{}\n{}", cat.name(), table.render()));
    }
    out
}

/// Render every guest's panels from a campaign.
///
/// # Errors
///
/// A cell the figure needs is missing or has no time; the error names it.
pub fn render(campaign: &CampaignResult) -> Result<(Vec<Panel>, String), String> {
    let mut text = String::new();
    let mut panels = Vec::new();
    for guest in Guest::ALL {
        let p = panel_from(guest, campaign)?;
        text.push_str(&render_panels(guest, &p));
        text.push('\n');
        panels.push(p);
    }
    Ok((panels, text))
}
