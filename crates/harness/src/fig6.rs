//! Fig 6: per-benchmark SimBench speedups across the twenty DBT
//! versions, grouped by category, for both guest architectures
//! (baseline: v1.7.0).
//!
//! This is the figure that *explains* Fig 2's aggregate drift: the
//! control-flow and exception panels degrade monotonically from v2.1,
//! the optimizer bump lands at v2.0.0, and the data-fault fast path
//! appears at v2.5.0-rc0.
//!
//! The measurements come from one campaign (per guest) over the full
//! benchmark × version matrix; this module only renders the cells.

use std::collections::BTreeMap;

use simbench_campaign::{CampaignResult, CampaignSpec, Workload};
use simbench_dbt::QEMU_VERSIONS;
use simbench_suite::{Benchmark, Category};

use crate::table::{fmt_ratio, Table};
use crate::{figure_spec, run_campaign, Config, EngineKind, Guest};

/// Measured speedups: `speedups[benchmark][version index]`.
#[derive(Debug, Clone, Default)]
pub struct Panel {
    /// Guest the panel was measured on.
    pub guest: &'static str,
    /// Per-benchmark speedup series across versions.
    pub series: BTreeMap<&'static str, Vec<f64>>,
}

/// The Fig 6 campaign for one guest: every supported benchmark on every
/// DBT version profile.
pub fn spec(guest: Guest, cfg: &Config) -> CampaignSpec {
    figure_spec(
        "fig6",
        vec![guest],
        EngineKind::all_dbt_versions(),
        Benchmark::ALL
            .iter()
            .copied()
            .map(Workload::Suite)
            .collect(),
        cfg,
    )
}

/// Build one guest's panel from its completed campaign.
pub fn panel_from(guest: Guest, campaign: &CampaignResult) -> Panel {
    let mut panel = Panel {
        guest: guest.name(),
        series: BTreeMap::new(),
    };
    for bench in Benchmark::ALL {
        if !bench.supported_on(guest.isa_name()) {
            continue;
        }
        let secs: Vec<f64> = QEMU_VERSIONS
            .iter()
            .map(|v| {
                let cell = campaign
                    .cell(
                        guest.isa_name(),
                        &EngineKind::Dbt(*v).id(),
                        &Workload::Suite(bench).id(),
                    )
                    .expect("supported benchmark");
                cell.metric()
                    .expect("supported benchmark completed")
                    .max(1e-9)
            })
            .collect();
        let base = secs[0];
        panel
            .series
            .insert(bench.name(), secs.iter().map(|&t| base / t).collect());
    }
    panel
}

/// Run the experiment for one guest.
pub fn run_guest(guest: Guest, cfg: &Config) -> Panel {
    panel_from(guest, &run_campaign(&spec(guest, cfg), cfg))
}

/// Render one guest's panels (one table per category).
pub fn render_panels(guest: Guest, panel: &Panel) -> String {
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

/// Run for both guests and render.
pub fn run(cfg: &Config) -> (Vec<Panel>, String) {
    let mut text = String::new();
    let mut panels = Vec::new();
    for guest in Guest::ALL {
        let p = run_guest(guest, cfg);
        text.push_str(&render_panels(guest, &p));
        text.push('\n');
        panels.push(p);
    }
    (panels, text)
}
