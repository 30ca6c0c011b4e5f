//! Streaming per-cell campaign progress.
//!
//! `campaign run --progress` turns on human-readable per-cell records
//! on stderr; `--progress=ndjson` emits the machine-readable wire
//! format (one JSON object per line) that a future `campaign serve`
//! daemon will reuse. Two record kinds follow a cell's life:
//!
//! * `cell_start` — the cell's first repetition began executing;
//! * `cell_finish` — the cell reached a terminal verdict.
//!
//! Emission sites live in the campaign runner and check the
//! process-global mode with one relaxed load, so the off path costs a
//! branch. Records are written with a single `eprintln!` each, which
//! locks stderr per line — concurrent workers interleave *lines*,
//! never bytes, keeping the NDJSON stream parseable.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::trace::escape;

/// How progress records are emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressMode {
    /// No records (default).
    Off,
    /// Human-readable lines.
    Human,
    /// One JSON object per line (the `campaign serve` wire format).
    Ndjson,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process progress mode.
pub fn set_mode(mode: ProgressMode) {
    MODE.store(
        match mode {
            ProgressMode::Off => 0,
            ProgressMode::Human => 1,
            ProgressMode::Ndjson => 2,
        },
        Ordering::Relaxed,
    );
}

/// The current mode. One relaxed load.
#[inline]
pub fn mode() -> ProgressMode {
    match MODE.load(Ordering::Relaxed) {
        0 => ProgressMode::Off,
        1 => ProgressMode::Human,
        _ => ProgressMode::Ndjson,
    }
}

/// Identity of the cell a record describes.
#[derive(Debug, Clone, Copy)]
pub struct CellId<'a> {
    /// Guest id (`armlet` / `petix`).
    pub guest: &'a str,
    /// Engine id (`interp`, `dbt@v2.5.0-rc2`, ...).
    pub engine: &'a str,
    /// Workload id (`suite:System Call`, ...).
    pub workload: &'a str,
}

impl CellId<'_> {
    fn ndjson_head(&self, event: &str) -> String {
        format!(
            "{{\"event\": \"{event}\", \"guest\": \"{}\", \"engine\": \"{}\", \
             \"workload\": \"{}\"",
            escape(self.guest),
            escape(self.engine),
            escape(self.workload),
        )
    }
}

/// The cell's first repetition began executing.
pub fn cell_start(cell: CellId<'_>) {
    match mode() {
        ProgressMode::Off => {}
        ProgressMode::Human => {
            eprintln!(
                "[cell] start {}/{} {}",
                cell.guest, cell.engine, cell.workload
            );
        }
        ProgressMode::Ndjson => {
            eprintln!("{}}}", cell.ndjson_head("cell_start"));
        }
    }
}

/// The cell reached a terminal verdict (`"ok"` / `"failed"`) after
/// `reps` completed repetitions.
pub fn cell_finish(cell: CellId<'_>, status: &str, reps: u32) {
    match mode() {
        ProgressMode::Off => {}
        ProgressMode::Human => {
            eprintln!(
                "[cell] finish {}/{} {} — {status}, {reps} rep(s)",
                cell.guest, cell.engine, cell.workload
            );
        }
        ProgressMode::Ndjson => {
            eprintln!(
                "{}, \"status\": \"{}\", \"reps\": {reps}}}",
                cell.ndjson_head("cell_finish"),
                escape(status),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips() {
        let _guard = crate::test_guard();
        for m in [ProgressMode::Human, ProgressMode::Ndjson, ProgressMode::Off] {
            set_mode(m);
            assert_eq!(mode(), m);
        }
    }

    #[test]
    fn ndjson_heads_are_escaped_json() {
        let cell = CellId {
            guest: "armlet",
            engine: "dbt@v2.5.0-rc2",
            workload: "suite:\"weird\"",
        };
        let head = cell.ndjson_head("cell_start");
        assert!(head.starts_with("{\"event\": \"cell_start\""));
        assert!(head.contains("\\\"weird\\\""));
    }
}
