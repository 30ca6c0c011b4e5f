//! Write-ahead cell journal: crash-safe progress for long campaigns.
//!
//! `campaign run --journal DIR` appends NDJSON records to
//! `DIR/journal.ndjson` as the campaign executes — one fsync'd line
//! per completed repetition, plus one line carrying the full persisted
//! cell record whenever a cell finishes. After a crash (panic storm,
//! OOM-kill, power loss, `kill -9`), `campaign run --resume DIR`
//! replays the journal, reconstructs every cell that finished cleanly,
//! and measures only the remainder. Event counters are architectural
//! and deterministic, so the resumed result is counter-exact against
//! an uninterrupted run — the existing `campaign compare`
//! gate proves recovery changed nothing.
//!
//! # Record layout (one JSON object per line)
//!
//! ```text
//! {"record": "meta", "schema": "simbench-journal/v1", "name": ...,
//!  "scale": N, "reps": N, ["shard": {...},] "cells": N}
//! {"record": "rep", "cell": i, "rep": r, "attempt": a, "outcome": "ok"}
//! {"record": "cell", "index": i, "cell": { ...full cell record... }}
//! ```
//!
//! The meta line is written first and validated on resume: resuming a
//! journal against a different spec (name, scale, reps, shard, cell
//! count) is an error, never a silent mismeasurement. So is resuming a
//! journal whose meta record carries a `precision` member: an older
//! writer's adaptive run, whose repetition counts a fixed run would
//! not reproduce. The
//! `cell` payload is byte-identical to the cell's object in the final
//! result file (same writer), so a journaled cell replays exactly.
//!
//! # Crash tolerance
//!
//! Every record is flushed with `fsync` before the runner moves on, so
//! the journal is a prefix of the truth at any kill point. A torn
//! final line (the process died mid-write) is detected and discarded
//! on replay; a torn or missing record merely re-measures that cell.
//! Records after the first are strictly append-only, and a resumed run
//! appends to the same file — re-finished cells write newer `cell`
//! records, and the last record for an index wins.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::failpoint;
use crate::json::{self, Value};
use crate::result::{cell_json, read_cell, CellResult};
use crate::spec::{CampaignSpec, Shard};

/// Schema identifier on the journal's meta record.
pub const JOURNAL_SCHEMA: &str = "simbench-journal/v1";

/// File name inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.ndjson";

/// An open write-ahead journal. Append methods never panic and never
/// abort the campaign: a journal write failure is reported on stderr
/// and the run continues (losing durability, not results).
pub struct Journal {
    file: Mutex<File>,
    dir: PathBuf,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Journal({})", self.dir.display())
    }
}

impl Journal {
    /// Start a fresh journal for a campaign: create `dir`, truncate
    /// `dir/journal.ndjson` and write the fsync'd meta record.
    pub fn create(
        dir: impl AsRef<Path>,
        spec: &CampaignSpec,
        shard: Option<Shard>,
    ) -> std::io::Result<Journal> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let file = File::create(dir.join(JOURNAL_FILE))?;
        let journal = Journal {
            file: Mutex::new(file),
            dir,
        };
        journal.append_io(&meta_record(spec, shard))?;
        Ok(journal)
    }

    /// Reopen an existing journal for appending (resume). The caller
    /// replays and validates it first ([`replay`]); nothing new is
    /// written until the resumed run completes repetitions.
    pub fn resume(dir: impl AsRef<Path>) -> std::io::Result<Journal> {
        let dir = dir.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        Ok(Journal {
            file: Mutex::new(file),
            dir,
        })
    }

    /// The journal directory (echoed into the campaign result).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Record one completed repetition execution (fsync'd).
    pub fn record_rep(&self, cell_index: usize, rep: u32, attempt: u32, outcome: &str) {
        let line = format!(
            "{{\"record\": \"rep\", \"cell\": {cell_index}, \"rep\": {rep}, \
             \"attempt\": {attempt}, \"outcome\": {}}}",
            json::quote(outcome)
        );
        self.append(&line);
    }

    /// Record one finished cell with its full result payload (fsync'd).
    /// Replay reconstructs the cell from exactly these bytes.
    pub fn record_cell(&self, cell_index: usize, cell: &CellResult) {
        let mut line = format!("{{\"record\": \"cell\", \"index\": {cell_index}, \"cell\": ");
        cell_json(&mut line, cell);
        line.push('}');
        self.append(&line);
    }

    /// Append one line, warn-and-continue on failure.
    fn append(&self, line: &str) {
        if let Err(e) = self.append_io(line) {
            simbench_obs::warn!(
                "[campaign] journal append failed ({}): {e}",
                self.dir.display()
            );
        }
    }

    fn append_io(&self, line: &str) -> std::io::Result<()> {
        if let Err(e) = failpoint::fire("journal.append") {
            return Err(std::io::Error::other(e));
        }
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        // One buffer, one write: minimizes (but cannot eliminate) the
        // torn-record window replay tolerates.
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        file.write_all(buf.as_bytes())?;
        file.sync_data()
    }
}

fn meta_record(spec: &CampaignSpec, shard: Option<Shard>) -> String {
    let mut out = format!(
        "{{\"record\": \"meta\", \"schema\": {}, \"name\": {}, \"scale\": {}, \"reps\": {}",
        json::quote(JOURNAL_SCHEMA),
        json::quote(&spec.name),
        spec.scale,
        spec.reps.max(1),
    );
    if let Some(s) = shard {
        out.push_str(&format!(
            ", \"shard\": {{\"index\": {}, \"count\": {}}}",
            s.index, s.count
        ));
    }
    out.push_str(&format!(", \"cells\": {}}}", spec.cells().len()));
    out
}

/// What a journal replay reconstructed.
#[derive(Debug, Default)]
pub struct Replay {
    /// Finished cells by spec index, ready to skip on resume. Only
    /// cleanly-finished cells (`Ok` / not-on-ISA) replay: a
    /// quarantined or timed-out record means the cell gets a fresh
    /// chance when the campaign is resumed.
    pub cells: Vec<(usize, CellResult)>,
    /// Broken cells (quarantined / timed out / failed) found in the
    /// journal and scheduled for re-measurement.
    pub broken: usize,
    /// Repetition records seen (progress reporting).
    pub reps: usize,
    /// A torn final record (crash mid-write) was detected and
    /// discarded.
    pub torn: bool,
}

/// Replay `DIR/journal.ndjson` against the spec the resumed run will
/// execute. Validates the meta record (same name, scale, reps, shard
/// and cell count, and no adaptive `precision` — resuming a different
/// spec is an error), tolerates a torn final record, and returns the
/// finished cells to skip.
pub fn replay(
    dir: impl AsRef<Path>,
    spec: &CampaignSpec,
    shard: Option<Shard>,
) -> Result<Replay, String> {
    let path = dir.as_ref().join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let keys = spec.cells();
    let mut replay = Replay::default();
    // Last record per index wins: a resumed run appends newer records
    // for re-measured cells.
    let mut finished: Vec<Option<CellResult>> = vec![None; keys.len()];
    let lines: Vec<&str> = text.lines().collect();
    let mut saw_meta = false;
    for (lineno, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Only cell records carry a cell under "cell" (rep records put
        // an index there, which reads as a malformed cell nobody uses).
        let mut payload = None;
        let v = match json::parse_with(line, "cell", |r| {
            payload = Some(read_cell(r)?);
            Ok(())
        }) {
            Ok(v) => v,
            Err(e) => {
                if lineno + 1 == lines.len() {
                    // The process died mid-write; the fsync'd prefix
                    // before this record is still complete and valid.
                    replay.torn = true;
                    continue;
                }
                return Err(format!("{}:{}: {e}", path.display(), lineno + 1));
            }
        };
        let record = v.get("record").and_then(Value::as_str).unwrap_or("");
        if !saw_meta {
            if record != "meta" {
                return Err(format!(
                    "{}: first record is {record:?}, expected \"meta\"",
                    path.display()
                ));
            }
            check_meta(&v, spec, shard).map_err(|e| format!("{}: {e}", path.display()))?;
            saw_meta = true;
            continue;
        }
        match record {
            "rep" => replay.reps += 1,
            "cell" => {
                let index = v.get("index").and_then(Value::as_u64).ok_or_else(|| {
                    format!(
                        "{}:{}: cell record without index",
                        path.display(),
                        lineno + 1
                    )
                })? as usize;
                if index >= keys.len() {
                    return Err(format!(
                        "{}:{}: cell index {index} out of range (spec has {})",
                        path.display(),
                        lineno + 1,
                        keys.len()
                    ));
                }
                let cell = payload
                    .ok_or_else(|| {
                        format!(
                            "{}:{}: cell record without payload",
                            path.display(),
                            lineno + 1
                        )
                    })?
                    .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
                let key = &keys[index];
                if cell.guest != key.guest.isa_name()
                    || cell.engine != key.engine.id()
                    || cell.workload != key.workload.id()
                {
                    return Err(format!(
                        "{}:{}: cell {index} is {}/{} {} in the journal but {}/{} {} in the spec",
                        path.display(),
                        lineno + 1,
                        cell.guest,
                        cell.engine,
                        cell.workload,
                        key.guest.isa_name(),
                        key.engine.id(),
                        key.workload.id()
                    ));
                }
                finished[index] = Some(cell);
            }
            "meta" => {
                return Err(format!(
                    "{}:{}: duplicate meta record",
                    path.display(),
                    lineno + 1
                ))
            }
            other => {
                // Unknown record kinds from a newer writer are skipped,
                // not fatal: the journal only ever gains record types.
                simbench_obs::debug!("[campaign] journal: skipping {other:?} record");
            }
        }
    }
    if !saw_meta {
        return Err(format!(
            "{}: no meta record (empty or fully torn journal)",
            path.display()
        ));
    }
    for (index, cell) in finished.into_iter().enumerate() {
        let Some(cell) = cell else { continue };
        if cell.status.is_broken() {
            replay.broken += 1;
            continue;
        }
        replay.cells.push((index, cell));
    }
    Ok(replay)
}

fn check_meta(v: &Value, spec: &CampaignSpec, shard: Option<Shard>) -> Result<(), String> {
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != JOURNAL_SCHEMA {
        return Err(format!(
            "unsupported journal schema {schema:?} (expected {JOURNAL_SCHEMA:?})"
        ));
    }
    let mismatch = |what: &str, journal: String, ours: String| {
        Err(format!(
            "journal was written for a different campaign: {what} is {journal} in the journal \
             but {ours} here (resuming would mismeasure; use a fresh --journal directory)"
        ))
    };
    let name = v.get("name").and_then(Value::as_str).unwrap_or("");
    if name != spec.name {
        return mismatch("name", format!("{name:?}"), format!("{:?}", spec.name));
    }
    let scale = v.get("scale").and_then(Value::as_u64).unwrap_or(0);
    if scale != spec.scale {
        return mismatch("scale", scale.to_string(), spec.scale.to_string());
    }
    let reps = v.get("reps").and_then(Value::as_u64).unwrap_or(0);
    if reps != u64::from(spec.reps.max(1)) {
        return mismatch("reps", reps.to_string(), spec.reps.max(1).to_string());
    }
    let cells = v.get("cells").and_then(Value::as_u64).unwrap_or(0);
    if cells != spec.cells().len() as u64 {
        return mismatch(
            "cell count",
            cells.to_string(),
            spec.cells().len().to_string(),
        );
    }
    if v.get("precision").is_some() {
        return mismatch("precision", "adaptive".to_string(), "fixed".to_string());
    }
    let jshard = v.get("shard").map(|s| {
        (
            s.get("index").and_then(Value::as_u64).unwrap_or(0),
            s.get("count").and_then(Value::as_u64).unwrap_or(0),
        )
    });
    let oshard = shard.map(|s| (u64::from(s.index), u64::from(s.count)));
    if jshard != oshard {
        return mismatch("shard", format!("{jshard:?}"), format!("{oshard:?}"));
    }
    Ok(())
}
