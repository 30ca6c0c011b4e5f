//! Fig 7: the full cross-simulator results table — all eighteen
//! benchmarks on all five engines, for each of the three guest
//! architectures, in seconds of kernel wall-clock time.
//!
//! `-` marks a benchmark that does not exist on the architecture
//! (Nonprivileged Access on petix); `-†` marks functionality the engine
//! does not implement (INTC / safe-device models on the detailed
//! engine), both mirroring the paper's footnotes.
//!
//! It renders the paper campaign's suite cells on the five engine
//! columns.

use simbench_campaign::{CampaignResult, CellStatus, Workload};
use simbench_suite::Benchmark;

use crate::table::{fmt_secs, Table};
use crate::{secs, EngineKind, Guest};

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

/// Render Fig 7 from a campaign.
///
/// # Errors
///
/// A cell the figure needs is missing or has no time; the error names it.
pub fn render(campaign: &CampaignResult) -> Result<(Results, String), String> {
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
                let workload = Workload::Suite(bench);
                let stored = campaign.cell(guest.isa_name(), &engine.id(), &workload.id());
                row_cells.push(match stored.map(|c| &c.status) {
                    Some(CellStatus::NotOnIsa) => Cell::NotOnIsa,
                    Some(CellStatus::Unsupported(_)) => Cell::Unsupported,
                    _ => Cell::Seconds(secs(campaign, guest, engine, workload)?),
                });
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
    Ok((results, text))
}
