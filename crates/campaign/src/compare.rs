//! Baseline comparison on event profiles.
//!
//! Cells are matched across two [`CampaignResult`]s by their
//! (guest, engine, workload) identity and compared on their counters
//! (instruction, operation and fault counts), which are deterministic
//! across hosts and worker counts. The default tolerance is exactly
//! zero: any differing counter flags the cell. Wall-clock timings are
//! recorded in every result but never compared here; speed is measured
//! by `examples/perfbench`.

use simbench_core::events::Counters;

use crate::result::{CampaignResult, CellResult, CellStatus};
use crate::table::Table;

/// Classification of one cell against the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The event profile moved beyond the tolerance.
    Regressed,
    /// The event profile is within the tolerance.
    Unchanged,
    /// Present now, absent (or not Ok) in the baseline.
    Added,
    /// Ok in the baseline, no longer measured: gone from the current
    /// matrix, or a matrix hole.
    Removed,
    /// Ok in the baseline but failing now — the cell stopped completing
    /// at all. Fails the gate like a counter change.
    Broke,
}

/// One counter whose value moved between baseline and current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDiff {
    /// Counter name (a [`Counters`] field).
    pub name: &'static str,
    /// Baseline value.
    pub base: u64,
    /// Current value.
    pub current: u64,
}

/// One cell compared on its event profile.
#[derive(Debug, Clone)]
pub struct CounterDelta {
    /// Guest id.
    pub guest: String,
    /// Engine id.
    pub engine: String,
    /// Workload id.
    pub workload: String,
    /// Classification. [`Verdict::Regressed`] means the profile moved
    /// beyond the tolerance (counters have no faster/slower direction).
    pub verdict: Verdict,
    /// The counters that differ, in declaration order. Empty unless the
    /// verdict is `Regressed`.
    pub diffs: Vec<CounterDiff>,
}

/// A full counter-exact comparison report.
#[derive(Debug, Clone)]
pub struct CounterComparison {
    /// Relative per-counter drift tolerated before a cell is flagged
    /// (0 = exact equality required).
    pub tolerance: f64,
    /// Every compared cell in current-result order, then removed cells.
    pub deltas: Vec<CounterDelta>,
}

impl CounterComparison {
    fn with(&self, verdict: Verdict) -> Vec<&CounterDelta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == verdict)
            .collect()
    }

    /// Cells whose event profile moved beyond the tolerance.
    pub fn changed(&self) -> Vec<&CounterDelta> {
        self.with(Verdict::Regressed)
    }

    /// Cells that completed in the baseline but fail now.
    pub fn broken(&self) -> Vec<&CounterDelta> {
        self.with(Verdict::Broke)
    }

    /// True when no cell changed or broke.
    pub fn clean(&self) -> bool {
        self.changed().is_empty() && self.broken().is_empty()
    }

    /// Render a human-readable report: a summary line, one row per
    /// differing counter, broken cells, and coverage changes.
    pub fn render(&self) -> String {
        let changed = self.changed();
        let broken = self.broken();
        let added = self.with(Verdict::Added).len();
        let removed = self.with(Verdict::Removed).len();
        let compared = changed.len() + self.with(Verdict::Unchanged).len();
        let mut out = format!(
            "campaign compare — {compared} cells compared, tolerance {}\n\
             {} changed, {} broken, {added} added, {removed} removed\n",
            if self.tolerance == 0.0 {
                "exact".to_string()
            } else {
                format!("{:.1}%", self.tolerance * 100.0)
            },
            changed.len(),
            broken.len(),
        );
        if !changed.is_empty() {
            let mut table = Table::new([
                "guest", "engine", "workload", "counter", "baseline", "current",
            ]);
            for d in &changed {
                for diff in &d.diffs {
                    table.row([
                        d.guest.clone(),
                        d.engine.clone(),
                        d.workload.clone(),
                        diff.name.to_string(),
                        diff.base.to_string(),
                        diff.current.to_string(),
                    ]);
                }
            }
            out.push_str(&format!(
                "\nCHANGED (event profile differs from baseline)\n{}",
                table.render()
            ));
        }
        if !broken.is_empty() {
            let mut table = Table::new(["guest", "engine", "workload"]);
            for d in &broken {
                table.row([d.guest.clone(), d.engine.clone(), d.workload.clone()]);
            }
            out.push_str(&format!(
                "\nBROKEN (completed in baseline, fails now)\n{}",
                table.render()
            ));
        }
        if added + removed > 0 {
            let mut table = Table::new(["guest", "engine", "workload", "change"]);
            for d in &self.deltas {
                let change = match d.verdict {
                    Verdict::Added => "added",
                    Verdict::Removed => "removed",
                    _ => continue,
                };
                table.row([
                    d.guest.clone(),
                    d.engine.clone(),
                    d.workload.clone(),
                    change.to_string(),
                ]);
            }
            out.push_str(&format!("\ncoverage changes\n{}", table.render()));
        }
        out
    }
}

/// The counters that differ beyond a relative tolerance. With
/// `tolerance == 0.0` this is exact field-wise inequality.
fn counter_diffs(base: &Counters, current: &Counters, tolerance: f64) -> Vec<CounterDiff> {
    base.rows()
        .into_iter()
        .zip(current.rows())
        .filter(|((_, b), (_, c))| {
            b != c && (c.abs_diff(*b) as f64) > tolerance * (*b.max(c) as f64)
        })
        .map(|((name, b), (_, c))| CounterDiff {
            name,
            base: b,
            current: c,
        })
        .collect()
}

/// Compare a current campaign against a stored baseline on event
/// profiles. Counters are architectural — identical across hosts and
/// `--jobs` settings — so the default `tolerance` of zero is the right
/// gate almost everywhere; a non-zero tolerance admits relative drift
/// per counter.
pub fn compare_counters(
    baseline: &CampaignResult,
    current: &CampaignResult,
    tolerance: f64,
) -> CounterComparison {
    assert!(
        (0.0..f64::INFINITY).contains(&tolerance),
        "tolerance must be a non-negative fraction"
    );
    let ok = |cell: &CellResult| cell.status == CellStatus::Ok;
    let mut deltas = Vec::new();
    for cell in &current.cells {
        let base_cell = baseline.cell(&cell.guest, &cell.engine, &cell.workload);
        let (verdict, diffs) = match (base_cell.filter(|b| ok(b)), ok(cell)) {
            (Some(base), true) => {
                let diffs = counter_diffs(&base.counters, &cell.counters, tolerance);
                if diffs.is_empty() {
                    (Verdict::Unchanged, diffs)
                } else {
                    (Verdict::Regressed, diffs)
                }
            }
            (None, true) => (Verdict::Added, Vec::new()),
            (Some(_), false) => match cell.status {
                // A matrix hole is a coverage change, not breakage.
                CellStatus::NotOnIsa => (Verdict::Removed, Vec::new()),
                _ => (Verdict::Broke, Vec::new()),
            },
            (None, false) => continue,
        };
        deltas.push(CounterDelta {
            guest: cell.guest.clone(),
            engine: cell.engine.clone(),
            workload: cell.workload.clone(),
            verdict,
            diffs,
        });
    }
    for cell in &baseline.cells {
        if ok(cell)
            && current
                .cell(&cell.guest, &cell.engine, &cell.workload)
                .is_none()
        {
            deltas.push(CounterDelta {
                guest: cell.guest.clone(),
                engine: cell.engine.clone(),
                workload: cell.workload.clone(),
                verdict: Verdict::Removed,
                diffs: Vec::new(),
            });
        }
    }
    CounterComparison { tolerance, deltas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::SCHEMA;

    fn result_with(cells: Vec<(&str, &str, &str, Vec<f64>)>) -> CampaignResult {
        CampaignResult {
            schema: SCHEMA.to_string(),
            name: "t".to_string(),
            scale: 1000,
            reps: 1,
            jobs: 1,
            wall_secs: 0.0,
            created_unix: 0,
            telemetry: None,
            journal: None,
            cells: cells
                .into_iter()
                .map(|(g, e, w, secs)| CellResult {
                    guest: g.to_string(),
                    engine: e.to_string(),
                    workload: w.to_string(),
                    category: None,
                    iterations: 16,
                    status: CellStatus::Ok,
                    reps_run: secs.len() as u32,
                    attempts: secs.len() as u32,
                    seconds: secs,
                    counters: Counters {
                        instructions: 1000,
                        syscalls: 16,
                        ..Default::default()
                    },
                    counters_consistent: true,
                    tested_ops: Some(16),
                    counter_variants: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn telemetry_blocks_are_ignored() {
        // Telemetry is observational (wall-clock flavoured, machine
        // dependent): two results that differ only in their telemetry
        // snapshot compare identical.
        let base = result_with(vec![("armlet", "interp", "suite:System Call", vec![1.0])]);
        let mut cur = base.clone();
        cur.telemetry = Some(crate::result::Telemetry {
            counters: vec![("dbt.translations".to_string(), 999)],
            histograms: Vec::new(),
        });
        let counters = compare_counters(&base, &cur, 0.0);
        assert!(counters.clean(), "{}", counters.render());
        assert!(counters.changed().is_empty());
    }

    #[test]
    fn counters_equal_is_clean_and_timing_is_ignored() {
        let base = result_with(vec![("armlet", "interp", "suite:System Call", vec![1.0])]);
        let mut cur = base.clone();
        // A 10× wall-clock slowdown is invisible to the comparison.
        cur.cells[0].seconds = vec![10.0];
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(cmp.clean());
        assert_eq!(cmp.deltas[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn any_counter_drift_is_flagged_at_zero_tolerance() {
        let base = result_with(vec![("armlet", "interp", "suite:System Call", vec![1.0])]);
        let mut cur = base.clone();
        cur.cells[0].counters.instructions += 1;
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(!cmp.clean());
        let changed = cmp.changed();
        assert_eq!(changed.len(), 1);
        assert_eq!(
            changed[0].diffs,
            vec![CounterDiff {
                name: "instructions",
                base: 1000,
                current: 1001,
            }]
        );
        assert!(cmp.render().contains("CHANGED"));
        // The same drift is admitted under a 1% tolerance.
        assert!(compare_counters(&base, &cur, 0.01).clean());
    }

    #[test]
    fn within_band_is_clean() {
        // Drift up to the tolerance (relative to the larger count) is
        // admitted; one count past it is flagged.
        let base = result_with(vec![("armlet", "interp", "suite:System Call", vec![1.0])]);
        let mut cur = base.clone();
        cur.cells[0].counters.instructions = 1111;
        assert!(compare_counters(&base, &cur, 0.1).clean());
        cur.cells[0].counters.instructions = 1112;
        assert!(!compare_counters(&base, &cur, 0.1).clean());
    }

    #[test]
    fn improvement_flagged_symmetrically() {
        // Counters have no better direction: a profile that lost an
        // event changed as much as one that gained it.
        let base = result_with(vec![("armlet", "interp", "suite:System Call", vec![1.0])]);
        let mut cur = base.clone();
        cur.cells[0].counters.syscalls -= 1;
        let cmp = compare_counters(&base, &cur, 0.0);
        assert_eq!(cmp.deltas[0].verdict, Verdict::Regressed);
        let d = cmp.deltas[0].diffs[0];
        assert_eq!((d.name, d.base, d.current), ("syscalls", 16, 15));
        assert_eq!(cmp.deltas[0].diffs.len(), 1);
        assert_eq!(compare_counters(&cur, &base, 0.0).changed().len(), 1);
    }

    #[test]
    fn cell_that_stops_completing_fails_the_gate() {
        let base = result_with(vec![
            ("armlet", "interp", "suite:System Call", vec![1.0]),
            ("armlet", "native", "suite:System Call", vec![1.0]),
        ]);
        let mut cur = base.clone();
        cur.cells[0].status = CellStatus::Failed("wall-clock limit reached".to_string());
        cur.cells[0].seconds.clear();
        cur.cells.remove(1);
        cur.cells.push(
            result_with(vec![("petix", "interp", "suite:System Call", vec![1.0])]).cells[0].clone(),
        );
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(
            !cmp.clean(),
            "a cell that stopped completing must fail the gate"
        );
        assert_eq!(cmp.broken().len(), 1);
        assert!(cmp.changed().is_empty());
        let verdicts: Vec<Verdict> = cmp.deltas.iter().map(|d| d.verdict).collect();
        assert!(verdicts.contains(&Verdict::Added));
        assert!(verdicts.contains(&Verdict::Removed));
        assert!(cmp.render().contains("BROKEN"));
    }

    #[test]
    fn quarantined_and_timed_out_cells_fail_the_gate() {
        // Fault-isolated cells are broken coverage, never silent holes:
        // a cell the baseline measured that now quarantines (panicked
        // engine) or times out (hung engine) must fail the gate exactly
        // like Failed does — and unlike NotOnIsa, which stays a
        // coverage change.
        let base = result_with(vec![
            ("armlet", "interp", "suite:System Call", vec![1.0]),
            ("armlet", "native", "suite:System Call", vec![1.0]),
        ]);
        let mut cur = base.clone();
        cur.cells[0].status = CellStatus::Quarantined("engine panicked".to_string());
        cur.cells[1].status = CellStatus::TimedOut("exceeded 30s cell timeout".to_string());
        for cell in &mut cur.cells {
            cell.seconds.clear();
        }
        let counters = compare_counters(&base, &cur, 0.0);
        assert!(!counters.clean());
        assert_eq!(counters.broken().len(), 2);
        assert!(counters.deltas.iter().all(|d| d.verdict == Verdict::Broke));
        assert!(counters.render().contains("BROKEN"));
    }

    #[test]
    fn ok_cell_with_no_valid_timings_still_compares() {
        // All-invalid timings (e.g. a coarse clock reading 0.0s) leave
        // an Ok cell with no stats; its event profile still compares
        // exactly.
        let base = result_with(vec![("armlet", "interp", "suite:System Call", vec![1.0])]);
        let mut cur = base.clone();
        cur.cells[0].seconds = vec![0.0];
        assert!(cur.cells[0].stats().is_none());
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(cmp.clean(), "a completing cell must not read as broken");
        assert_eq!(cmp.deltas[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn absent_cells_are_coverage_changes_not_breakage() {
        // A cell dropped from the matrix (not-on-ISA) must read as
        // reduced coverage, not as a cell that stopped completing.
        let base = result_with(vec![
            ("armlet", "interp", "suite:System Call", vec![1.0]),
            ("armlet", "interp", "suite:Hot Memory Access", vec![1.0]),
        ]);
        let mut cur = base.clone();
        for cell in &mut cur.cells {
            cell.status = CellStatus::NotOnIsa;
            cell.seconds.clear();
        }
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(cmp.clean(), "absent cells must not fail the gate");
        assert!(cmp.broken().is_empty());
        assert!(cmp.deltas.iter().all(|d| d.verdict == Verdict::Removed));
        assert!(cmp.render().contains("coverage changes"));
    }

    #[test]
    fn cells_the_baseline_did_not_measure_cleanly_never_break() {
        // Broken in both results: nothing to compare, nothing to flag.
        // Broken in the baseline only: the current cell adds coverage.
        let base = result_with(vec![
            ("armlet", "interp", "suite:System Call", vec![1.0]),
            ("armlet", "native", "suite:System Call", vec![1.0]),
        ]);
        let mut base = base;
        base.cells[0].status = CellStatus::Failed("wall-clock limit reached".to_string());
        base.cells[1].status = CellStatus::Quarantined("engine panicked".to_string());
        let mut cur = base.clone();
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(cmp.clean());
        assert!(cmp.deltas.is_empty(), "{:?}", cmp.deltas);
        cur.cells[1].status = CellStatus::Ok;
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(cmp.clean());
        let verdicts: Vec<Verdict> = cmp.deltas.iter().map(|d| d.verdict).collect();
        assert_eq!(verdicts, vec![Verdict::Added]);
        assert_eq!(cmp.deltas[0].engine, "native");
    }

    #[test]
    fn the_report_names_every_moved_counter_and_the_tolerance() {
        let base = result_with(vec![
            ("armlet", "interp", "suite:System Call", vec![1.0]),
            ("armlet", "native", "suite:System Call", vec![1.0]),
        ]);
        let mut cur = base.clone();
        cur.cells[0].counters.instructions = 1200;
        cur.cells[0].counters.syscalls = 20;
        cur.cells[1].status = CellStatus::TimedOut("exceeded 1s cell timeout".to_string());
        let text = compare_counters(&base, &cur, 0.015).render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[..2],
            [
                "campaign compare — 1 cells compared, tolerance 1.5%",
                "1 changed, 1 broken, 0 added, 0 removed",
            ],
            "{text}"
        );
        let row = |needle: &str| {
            lines
                .iter()
                .find(|l| l.contains(needle))
                .map(|l| {
                    l.split('|')
                        .map(str::trim)
                        .filter(|c| !c.is_empty())
                        .collect::<Vec<_>>()
                })
                .unwrap_or_else(|| panic!("no {needle:?} row in\n{text}"))
        };
        let changed = ["armlet", "interp", "suite:System Call"];
        assert_eq!(
            row("instructions"),
            [&changed[..], &["instructions", "1000", "1200"]].concat()
        );
        assert_eq!(
            row(" syscalls "),
            [&changed[..], &["syscalls", "16", "20"]].concat()
        );
        assert!(text.contains("\nBROKEN (completed in baseline, fails now)\n"));
        assert_eq!(row("native"), ["armlet", "native", "suite:System Call"]);
        assert!(!text.contains("coverage changes"), "{text}");
        let clean = compare_counters(&base, &base, 0.0).render();
        assert_eq!(
            clean,
            "campaign compare — 2 cells compared, tolerance exact\n\
             0 changed, 0 broken, 0 added, 0 removed\n"
        );
    }

    #[test]
    fn added_and_removed_cells() {
        let base = result_with(vec![("armlet", "interp", "suite:System Call", vec![1.0])]);
        let cur = result_with(vec![(
            "armlet",
            "dbt@v2.5.0-rc2",
            "suite:System Call",
            vec![1.0],
        )]);
        let cmp = compare_counters(&base, &cur, 0.0);
        assert!(cmp.clean());
        let verdicts: Vec<Verdict> = cmp.deltas.iter().map(|d| d.verdict).collect();
        assert!(verdicts.contains(&Verdict::Added));
        assert!(verdicts.contains(&Verdict::Removed));
        assert!(cmp.render().contains("coverage changes"));
    }
}
