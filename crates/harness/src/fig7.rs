//! Fig 7: the full cross-simulator results table — all eighteen
//! benchmarks on all five engines, for both guest architectures,
//! in seconds of kernel wall-clock time.
//!
//! `-` marks a benchmark that does not exist on the architecture
//! (Nonprivileged Access on petix); `-†` marks functionality the engine
//! does not implement (INTC / safe-device models on the detailed
//! engine), both mirroring the paper's footnotes.
//!
//! The measurements come from one campaign over the full matrix; this
//! module only renders the resulting cells.

use simbench_campaign::{CampaignResult, CampaignSpec, CellStatus, Workload};
use simbench_suite::Benchmark;

use crate::table::{fmt_secs, Table};
use crate::{figure_spec, run_campaign, Config, EngineKind, Guest};

/// One table cell.
#[derive(Debug, Clone, Copy)]
pub enum Cell {
    /// Kernel seconds.
    Seconds(f64),
    /// Engine lacks the device model (`-†`).
    Unsupported,
    /// Benchmark absent on the architecture (`-`).
    NotOnIsa,
}

impl Cell {
    fn render(self) -> String {
        match self {
            Cell::Seconds(s) => fmt_secs(s),
            Cell::Unsupported => "-†".to_string(),
            Cell::NotOnIsa => "-".to_string(),
        }
    }
}

/// Full results: `cells[guest][benchmark][engine]`.
pub type Results = Vec<Vec<Vec<Cell>>>;

/// The Fig 7 campaign: every suite benchmark on every engine column for
/// both guests.
pub fn spec(cfg: &Config) -> CampaignSpec {
    figure_spec(
        "fig7",
        Guest::ALL.to_vec(),
        EngineKind::fig7_columns().to_vec(),
        Benchmark::ALL
            .iter()
            .copied()
            .map(Workload::Suite)
            .collect(),
        cfg,
    )
}

/// Render a completed Fig 7 campaign.
pub fn render(campaign: &CampaignResult) -> (Results, String) {
    let engines = EngineKind::fig7_columns();
    let mut results: Results = Vec::new();
    let mut text = String::from("Fig 7 — SimBench kernel seconds across simulators\n");
    for guest in Guest::ALL {
        let mut guest_rows = Vec::new();
        let mut header = vec!["benchmark".to_string()];
        header.extend(engines.iter().map(|e| e.name().to_string()));
        let mut table = Table::new(header);
        for bench in Benchmark::ALL {
            let mut row_cells = Vec::new();
            for engine in engines {
                let rc = campaign
                    .cell(guest.isa_name(), &engine.id(), &Workload::Suite(bench).id())
                    .unwrap_or_else(|| panic!("missing cell {engine:?}/{bench:?} on {guest:?}"));
                let cell = match &rc.status {
                    CellStatus::Ok => Cell::Seconds(rc.metric().expect("ok cell has timings")),
                    CellStatus::NotOnIsa => Cell::NotOnIsa,
                    CellStatus::Unsupported(_) => Cell::Unsupported,
                    CellStatus::Failed(why)
                    | CellStatus::Quarantined(why)
                    | CellStatus::TimedOut(why) => {
                        panic!("{engine:?}/{bench:?} on {guest:?}: {why}")
                    }
                };
                row_cells.push(cell);
            }
            let mut cells = vec![bench.name().to_string()];
            cells.extend(row_cells.iter().map(|c| c.render()));
            table.row(cells);
            guest_rows.push(row_cells);
        }
        text.push_str(&format!("\n{} guest\n{}", guest.name(), table.render()));
        results.push(guest_rows);
    }
    text.push_str("\n(- benchmark absent on ISA; -† device model not implemented in engine)\n");
    (results, text)
}

/// Run the whole matrix and render it.
pub fn run(cfg: &Config) -> (Results, String) {
    render(&run_campaign(&spec(cfg), cfg))
}
