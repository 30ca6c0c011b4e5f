//! Persisted campaign results: a versioned JSON schema with one record
//! per matrix cell, carrying raw repetition timings and the
//! deterministic per-cell event profile.
//!
//! The current schema string is `simbench-campaign/v7`. A cell stores
//! its timings and nothing derived from them: its statistics, and the
//! floor that is its time, are computed from `seconds` on demand
//! ([`CellResult::stats`]), so no stored number can disagree with the
//! samples it came from.
//!
//! Any other schema is rejected with a typed [`LoadError`] rather than
//! guessed at, so future layout changes bump the version and add an
//! explicit migration.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use simbench_core::events::Counters;

use crate::json::{self, Reader, Value};
use crate::spec::{CampaignSpec, CellKey};
use crate::stats::{stats, Stats};

/// Schema identifier written to every result file.
pub const SCHEMA: &str = "simbench-campaign/v7";

/// Why a campaign result failed to load. Every malformed input maps to
/// a variant — loading never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file could not be read.
    Io(String),
    /// The text is not well-formed JSON.
    Json(String),
    /// The document declares a schema this reader does not know.
    Schema {
        /// The schema string found in the document.
        found: String,
    },
    /// The document is valid JSON with a known schema but violates the
    /// campaign layout (missing or mistyped fields, unknown counters).
    Malformed(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "{e}"),
            LoadError::Json(e) => write!(f, "invalid JSON: {e}"),
            LoadError::Schema { found } => {
                write!(f, "unsupported schema {found:?} (expected {SCHEMA:?})")
            }
            LoadError::Malformed(e) => write!(f, "malformed campaign result: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Terminal state of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// All repetitions halted normally.
    Ok,
    /// The workload does not exist on the guest architecture
    /// (Fig 7's `-`).
    NotOnIsa,
    /// The engine lacks a required feature (Fig 7's `-†`).
    Unsupported(String),
    /// A repetition ended abnormally (instruction/wall limit).
    Failed(String),
    /// The cell's measurement panicked on every attempt; the panic was
    /// isolated under `catch_unwind` and the payload recorded here.
    /// The rest of the matrix kept running.
    Quarantined(String),
    /// Every attempt outlived the per-cell watchdog (`--cell-timeout`)
    /// and was abandoned.
    TimedOut(String),
}

impl CellStatus {
    /// True for the statuses that mean "this cell was supposed to be
    /// measured here and was not measured cleanly" — broken coverage
    /// that comparisons must surface, never a silent hole.
    pub fn is_broken(&self) -> bool {
        matches!(
            self,
            CellStatus::Failed(_)
                | CellStatus::Unsupported(_)
                | CellStatus::Quarantined(_)
                | CellStatus::TimedOut(_)
        )
    }

    /// The status as persisted: `ok`, `not-on-isa`, `failed:MSG`, ...
    pub fn to_json_string(&self) -> Cow<'static, str> {
        match self {
            CellStatus::Ok => "ok".into(),
            CellStatus::NotOnIsa => "not-on-isa".into(),
            CellStatus::Unsupported(why) => format!("unsupported:{why}").into(),
            CellStatus::Failed(why) => format!("failed:{why}").into(),
            CellStatus::Quarantined(payload) => format!("quarantined:{payload}").into(),
            CellStatus::TimedOut(why) => format!("timed_out:{why}").into(),
        }
    }

    fn from_json_string(s: &str) -> CellStatus {
        match s {
            "ok" => CellStatus::Ok,
            "not-on-isa" => CellStatus::NotOnIsa,
            _ => {
                if let Some(why) = s.strip_prefix("unsupported:") {
                    CellStatus::Unsupported(why.to_string())
                } else if let Some(why) = s.strip_prefix("failed:") {
                    CellStatus::Failed(why.to_string())
                } else if let Some(payload) = s.strip_prefix("quarantined:") {
                    CellStatus::Quarantined(payload.to_string())
                } else if let Some(why) = s.strip_prefix("timed_out:") {
                    CellStatus::TimedOut(why.to_string())
                } else {
                    CellStatus::Failed(format!("unknown status {s}"))
                }
            }
        }
    }
}

/// One measured matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Guest id (`armlet` / `petix`).
    pub guest: String,
    /// Engine id (`dbt@v2.5.0-rc2`, `interp`, ...).
    pub engine: String,
    /// Workload id (`suite:System Call`, `app:mcf-like`).
    pub workload: String,
    /// Benchmark category name for suite workloads.
    pub category: Option<String>,
    /// Guest iterations each repetition executed.
    pub iterations: u32,
    /// Terminal state.
    pub status: CellStatus,
    /// Repetitions that actually executed for this cell: the spec's
    /// count, fewer if the run was interrupted. 0 for unmeasured
    /// (not-on-ISA) cells.
    pub reps_run: u32,
    /// Total repetition executions including watchdog/retry re-runs.
    /// Equal to `reps_run` when nothing was retried (the common case;
    /// the JSON field is elided then), strictly greater when `--retries`
    /// re-ran a panicking / hung / transiently-failing repetition.
    pub attempts: u32,
    /// Kernel-phase seconds, one entry per repetition, in rep order.
    pub seconds: Vec<f64>,
    /// Kernel-phase event counters of the first repetition. Counters
    /// are architectural and deterministic, so one copy suffices.
    pub counters: Counters,
    /// Whether every repetition produced identical counters. `false`
    /// flags an engine determinism bug worth investigating.
    pub counters_consistent: bool,
    /// Count of the workload's tested operation in the event profile
    /// (Fig 3's density numerator). `None` for apps and unmeasured
    /// cells; persisted so result files stay self-describing even if
    /// the benchmark → counter mapping evolves.
    pub tested_ops: Option<u64>,
    /// Per-repetition event profiles, recorded only when the
    /// repetitions disagree (`counters_consistent == false`) so the
    /// determinism bug is diagnosable from the stored file alone.
    pub counter_variants: Vec<Counters>,
}

impl CellResult {
    /// Statistics over `seconds`, for an `Ok` cell with at least one
    /// valid timing.
    pub fn stats(&self) -> Option<Stats> {
        (self.status == CellStatus::Ok)
            .then(|| stats(&self.seconds))
            .flatten()
    }

    /// The cell's time: the floor of its valid repetitions (`None`
    /// unless [`CellResult::stats`] is `Some`).
    pub fn metric(&self) -> Option<f64> {
        self.stats().map(|s| s.min)
    }

    /// Unmeasured skeleton for a cell key: identity filled in, status
    /// `NotOnIsa`, everything else empty. The runner fills it.
    pub(crate) fn skeleton(key: &CellKey) -> CellResult {
        CellResult {
            guest: key.guest.isa_name().to_string(),
            engine: key.engine.id(),
            workload: key.workload.id(),
            category: key.workload.category().map(str::to_string),
            iterations: 0,
            status: CellStatus::NotOnIsa,
            reps_run: 0,
            attempts: 0,
            seconds: Vec::new(),
            counters: Counters::default(),
            counters_consistent: true,
            tested_ops: None,
            counter_variants: Vec::new(),
        }
    }
}

/// Engine-telemetry snapshot persisted alongside a campaign: named
/// monotonic counters and sparse log₂-bucket histograms (`(bucket,
/// count)` pairs, bucket = bit length of the value). Present only when
/// the campaign ran with telemetry enabled; purely observational, so
/// comparisons ignore it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, nonzero log₂ buckets)` per histogram, name-sorted.
    pub histograms: Vec<(String, Vec<(u32, u64)>)>,
}

impl Telemetry {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

impl From<simbench_obs::metrics::Snapshot> for Telemetry {
    fn from(snap: simbench_obs::metrics::Snapshot) -> Telemetry {
        Telemetry {
            counters: snap.counters,
            histograms: snap.histograms,
        }
    }
}

/// A completed campaign: spec echo plus every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Schema identifier (always [`SCHEMA`] for in-memory values).
    pub schema: String,
    /// Campaign name from the spec.
    pub name: String,
    /// Iteration divisor the campaign ran at.
    pub scale: u64,
    /// Repetitions per cell.
    pub reps: u32,
    /// Worker threads the campaign ran with.
    pub jobs: usize,
    /// Write-ahead journal directory the campaign appended to
    /// (`campaign run --journal DIR`), echoed for provenance. `None`
    /// for unjournaled runs.
    pub journal: Option<String>,
    /// Wall-clock seconds for the whole campaign.
    pub wall_secs: f64,
    /// Seconds since the Unix epoch when the campaign finished.
    pub created_unix: u64,
    /// Engine-telemetry snapshot, when the campaign ran with telemetry
    /// enabled. `None` for plain runs.
    pub telemetry: Option<Telemetry>,
    /// One record per matrix cell, in spec cell order.
    pub cells: Vec<CellResult>,
}

impl CampaignResult {
    /// Look up a cell by ids.
    pub fn cell(&self, guest: &str, engine: &str, workload: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.guest == guest && c.engine == engine && c.workload == workload)
    }

    /// Serialize to the versioned JSON format (pretty-printed, one cell
    /// per line block, deterministic field order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + 640 * self.cells.len());
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json::quote(&self.schema));
        let _ = writeln!(out, "  \"name\": {},", json::quote(&self.name));
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        if let Some(dir) = &self.journal {
            let _ = writeln!(out, "  \"journal\": {},", json::quote(dir));
        }
        let _ = writeln!(out, "  \"wall_secs\": {},", json::num(self.wall_secs));
        let _ = writeln!(out, "  \"created_unix\": {},", self.created_unix);
        if let Some(t) = self.telemetry.as_ref().filter(|t| !t.is_empty()) {
            out.push_str("  \"telemetry\": {\n    \"counters\": {");
            for (i, (name, v)) in t.counters.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { ", " });
                json::push_quoted(&mut out, name);
                let _ = write!(out, ": {v}");
            }
            out.push_str("},\n    \"histograms\": {");
            for (i, (name, buckets)) in t.histograms.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { ", " });
                json::push_quoted(&mut out, name);
                out.push_str(": [");
                for (j, (b, c)) in buckets.iter().enumerate() {
                    let _ = write!(out, "{}[{b}, {c}]", if j == 0 { "" } else { ", " });
                }
                out.push(']');
            }
            out.push_str("}\n  },\n");
        }
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str("    ");
            cell_json(&mut out, cell);
            out.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse the versioned JSON format. Any schema but the current `v7`
    /// is a typed error.
    pub fn from_json(text: &str) -> Result<CampaignResult, LoadError> {
        // Cells are read without a tree; a malformed one is reported
        // only after the whole text has parsed and the schema is known.
        let mut cells = None;
        let root = json::parse_with(text, "cells", |r| {
            cells = read_list(r, read_cell, |i, e| format!("cell {i}: {e}"))?;
            Ok(())
        })
        .map_err(LoadError::Json)?;
        let schema = root
            .get("schema")
            .and_then(Value::as_str)
            .ok_or_else(|| LoadError::Malformed("missing string \"schema\"".to_string()))?;
        if schema != SCHEMA {
            return Err(LoadError::Schema {
                found: schema.to_string(),
            });
        }
        let malformed = LoadError::Malformed;
        if root.get("shard").is_some() {
            // A slice of a matrix must never load as a whole one.
            return Err(malformed(
                "\"shard\": a partial result of the removed --shard option".to_string(),
            ));
        }
        let str_field = |key: &str| -> Result<String, LoadError> {
            root.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| malformed(format!("missing string \"{key}\"")))
        };
        let u64_field = |key: &str| -> Result<u64, LoadError> {
            root.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| malformed(format!("missing integer \"{key}\"")))
        };
        let cells = cells
            .ok_or_else(|| malformed("missing \"cells\" array".to_string()))?
            .map_err(malformed)?;
        let telemetry = match root.get("telemetry") {
            None => None,
            Some(v) => Some(parse_telemetry(v).map_err(|e| malformed(format!("telemetry: {e}")))?),
        };
        Ok(CampaignResult {
            schema: SCHEMA.to_string(),
            name: str_field("name")?,
            scale: u64_field("scale")?,
            reps: u64_field("reps")? as u32,
            jobs: u64_field("jobs")? as usize,
            journal: match root.get("journal") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| malformed("\"journal\" not a string".to_string()))?,
                ),
            },
            wall_secs: root.get("wall_secs").and_then(Value::as_f64).unwrap_or(0.0),
            created_unix: u64_field("created_unix").unwrap_or(0),
            telemetry,
            cells,
        })
    }

    /// Write to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Read from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<CampaignResult, LoadError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| LoadError::Io(format!("{}: {e}", path.as_ref().display())))?;
        CampaignResult::from_json(&text)
    }

    /// Skeleton result for a spec, before any job has finished.
    pub(crate) fn empty_for(spec: &CampaignSpec, jobs: usize) -> CampaignResult {
        let cells = spec
            .cells()
            .into_iter()
            .map(|key| CellResult::skeleton(&key))
            .collect();
        CampaignResult {
            schema: SCHEMA.to_string(),
            name: spec.name.clone(),
            scale: spec.scale,
            reps: spec.reps.max(1),
            jobs,
            journal: None,
            wall_secs: 0.0,
            created_unix: 0,
            telemetry: None,
            cells,
        }
    }
}

/// Parse a persisted `telemetry` block. Counter values must be
/// integers; histogram entries must be `[bucket, count]` pairs.
/// `BTreeMap` iteration keeps both lists name-sorted.
fn parse_telemetry(v: &Value) -> Result<Telemetry, String> {
    let m = v.as_obj().ok_or("not an object")?;
    let mut t = Telemetry::default();
    if let Some(counters) = m.get("counters") {
        let obj = counters.as_obj().ok_or("\"counters\" not an object")?;
        for (name, v) in obj {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter {name} not an integer"))?;
            t.counters.push((name.clone(), v));
        }
    }
    if let Some(hists) = m.get("histograms") {
        let obj = hists.as_obj().ok_or("\"histograms\" not an object")?;
        for (name, v) in obj {
            let arr = v
                .as_arr()
                .ok_or_else(|| format!("histogram {name} not an array"))?;
            let mut buckets = Vec::with_capacity(arr.len());
            for pair in arr {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| format!("histogram {name}: bucket not a [b, n] pair"))?;
                let b = pair[0]
                    .as_u64()
                    .filter(|&b| b < simbench_obs::metrics::HISTOGRAM_BUCKETS as u64)
                    .ok_or_else(|| format!("histogram {name}: bad bucket index"))?;
                let n = pair[1]
                    .as_u64()
                    .ok_or_else(|| format!("histogram {name}: bad bucket count"))?;
                buckets.push((b as u32, n));
            }
            t.histograms.push((name.clone(), buckets));
        }
    }
    Ok(t)
}

/// Append one cell as a single-line JSON object — the cell layout of
/// [`CampaignResult::to_json`], which the write-ahead journal shares,
/// so a journaled cell is byte-identical to its persisted form.
/// [`read_cell`] is its inverse.
pub(crate) fn cell_json(out: &mut String, cell: &CellResult) {
    out.push_str("{\"guest\": ");
    json::push_quoted(out, &cell.guest);
    out.push_str(", \"engine\": ");
    json::push_quoted(out, &cell.engine);
    out.push_str(", \"workload\": ");
    json::push_quoted(out, &cell.workload);
    if let Some(cat) = &cell.category {
        out.push_str(", \"category\": ");
        json::push_quoted(out, cat);
    }
    let _ = write!(out, ", \"iterations\": {}, \"status\": ", cell.iterations);
    json::push_quoted(out, &cell.status.to_json_string());
    if cell.reps_run > 0 {
        let _ = write!(out, ", \"reps_run\": {}", cell.reps_run);
    }
    if cell.attempts != cell.reps_run {
        let _ = write!(out, ", \"attempts\": {}", cell.attempts);
    }
    out.push_str(", \"seconds\": [");
    for (i, &s) in cell.seconds.iter().enumerate() {
        out.push_str(if i == 0 { "" } else { ", " });
        json::push_num(out, s);
    }
    out.push(']');
    if !cell.counters_consistent {
        out.push_str(", \"counters_consistent\": false");
    }
    if cell.counters != Counters::default() {
        out.push_str(", \"counters\": ");
        push_counters(out, &cell.counters);
    }
    if let Some(ops) = cell.tested_ops {
        let _ = write!(out, ", \"tested_ops\": {ops}");
    }
    if !cell.counter_variants.is_empty() {
        out.push_str(", \"counter_variants\": [");
        for (i, c) in cell.counter_variants.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            push_counters(out, c);
        }
        out.push(']');
    }
    out.push('}');
}

/// Read one cell record: the inverse of [`cell_json`] and the only
/// reader of cells, for result files and journal replay alike. The
/// outer error is a syntax error. The inner one is a layout error,
/// decided only once the whole record is read, so a duplicate key
/// keeps its last value.
pub(crate) fn read_cell(r: &mut Reader<'_>) -> Result<Result<CellResult, String>, String> {
    let string = |v: Value| match v {
        Value::Str(s) => Some(s),
        _ => None,
    };
    let (mut guest, mut engine, mut workload, mut category, mut status) =
        (None, None, None, None, None);
    let (mut iterations, mut reps_run, mut attempts) = (None, None, None);
    let (mut seconds, mut consistent, mut tested_ops) = (None, true, None);
    let (mut counters, mut variants) = (Ok(Counters::default()), None);
    // A value that is not an object has no fields.
    r.obj(|r, key| {
        match &*key {
            "guest" => guest = string(r.value()?),
            "engine" => engine = string(r.value()?),
            "workload" => workload = string(r.value()?),
            "category" => category = string(r.value()?),
            "status" => status = string(r.value()?),
            "iterations" => iterations = r.value()?.as_u64(),
            "reps_run" => reps_run = r.value()?.as_u64(),
            "attempts" => attempts = r.value()?.as_u64(),
            "seconds" => seconds = read_list(r, |r| Ok(r.value()?.as_f64().ok_or(())), |_, ()| ())?,
            "counters_consistent" => consistent = r.value()? == Value::Bool(true),
            "counters" => counters = read_counters(r)?,
            "tested_ops" => tested_ops = Some(r.value()?.as_u64()),
            "counter_variants" => {
                variants = read_list(r, read_counters, |i, e| format!("variant {i}: {e}"))?
            }
            _ => {
                r.value()?;
            }
        }
        Ok(())
    })?;
    // Layout errors are checked in this fixed order, so a record with
    // several reports the same one whatever its key order.
    let cell = || -> Result<CellResult, String> {
        let seconds = seconds
            .unwrap_or(Ok(Vec::new()))
            .map_err(|()| "non-numeric entry in \"seconds\"")?;
        let counters = counters?;
        let counter_variants = variants.unwrap_or(Ok(Vec::new()))?;
        let reps_run = reps_run.unwrap_or(0) as u32;
        Ok(CellResult {
            guest: guest.ok_or("missing \"guest\"")?,
            engine: engine.ok_or("missing \"engine\"")?,
            workload: workload.ok_or("missing \"workload\"")?,
            category,
            iterations: iterations.unwrap_or(0) as u32,
            status: CellStatus::from_json_string(&status.ok_or("missing \"status\"")?),
            reps_run,
            // Elided whenever equal to reps_run, so default to that.
            attempts: attempts.map_or(reps_run, |a| a as u32),
            seconds,
            counters,
            counters_consistent: consistent,
            tested_ops: tested_ops
                .map(|ops| ops.ok_or("\"tested_ops\" not an integer"))
                .transpose()?,
            counter_variants,
        })
    };
    Ok(cell())
}

/// Read an array whose items may each break the layout: `None` if the
/// value is not an array, else every item or the first item's layout
/// error passed through `label` with its index. Every item is read
/// either way, so a later syntax error still surfaces.
fn read_list<T, E>(
    r: &mut Reader<'_>,
    mut item: impl FnMut(&mut Reader<'_>) -> Result<Result<T, E>, String>,
    label: impl Fn(usize, E) -> E,
) -> Result<Option<Result<Vec<T>, E>>, String> {
    let mut items = Ok(Vec::new());
    let mut i = 0;
    let is_arr = r.arr(|r| {
        let next = item(r)?;
        if let Ok(done) = &mut items {
            match next {
                Ok(x) => done.push(x),
                Err(e) => items = Err(label(i, e)),
            }
        }
        i += 1;
        Ok(())
    })?;
    Ok(is_arr.then_some(items))
}

/// Sparse JSON encoding of an event profile: nonzero counters only, in
/// declaration order (`{}` when every counter is zero).
fn push_counters(out: &mut String, c: &Counters) {
    out.push('{');
    let mut sep = "";
    for (name, v) in c.rows() {
        if v != 0 {
            let _ = write!(out, "{sep}\"{name}\": {v}");
            sep = ", ";
        }
    }
    out.push('}');
}

/// Inverse of [`push_counters`]. Unknown counter names are errors, not
/// silent drops; of several bad entries the first by name is reported.
fn read_counters(r: &mut Reader<'_>) -> Result<Result<Counters, String>, String> {
    let mut counters = Counters::default();
    // (name, error) per bad entry; a later entry of that name replaces it.
    let mut bad: Vec<(String, String)> = Vec::new();
    let is_obj = r.obj(|r, name| {
        let v = r.value()?.as_u64();
        bad.retain(|(n, _)| *n != name);
        match (v, counters.by_name_mut(&name)) {
            (Some(v), Some(slot)) => *slot = v,
            (None, _) => bad.push((name.to_string(), format!("counter {name} not an integer"))),
            (Some(_), None) => bad.push((name.to_string(), format!("unknown counter {name}"))),
        }
        Ok(())
    })?;
    if !is_obj {
        return Ok(Err("counters not an object".to_string()));
    }
    Ok(bad.into_iter().min().map_or(Ok(counters), |(_, e)| Err(e)))
}

/// Group cells by a key, preserving first-seen order of groups.
pub fn group_by<K: Ord + Clone>(
    cells: &[CellResult],
    key: impl Fn(&CellResult) -> K,
) -> Vec<(K, Vec<&CellResult>)> {
    let mut order: Vec<K> = Vec::new();
    let mut map: BTreeMap<K, Vec<&CellResult>> = BTreeMap::new();
    for cell in cells {
        let k = key(cell);
        if !map.contains_key(&k) {
            order.push(k.clone());
        }
        map.entry(k).or_default().push(cell);
    }
    order
        .into_iter()
        .map(|k| {
            let v = map.remove(&k).unwrap();
            (k, v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CampaignResult {
        CampaignResult {
            schema: SCHEMA.to_string(),
            name: "demo".to_string(),
            scale: 20_000,
            reps: 2,
            jobs: 4,
            journal: None,
            wall_secs: 1.25,
            created_unix: 1_700_000_000,
            telemetry: None,
            cells: vec![
                CellResult {
                    guest: "armlet".to_string(),
                    engine: "dbt@v2.5.0-rc2".to_string(),
                    workload: "suite:System Call".to_string(),
                    category: Some("Exception Handling".to_string()),
                    iterations: 2500,
                    status: CellStatus::Ok,
                    reps_run: 2,
                    attempts: 2,
                    seconds: vec![0.011, 0.0105],
                    counters: Counters {
                        instructions: 30000,
                        syscalls: 2500,
                        ..Default::default()
                    },
                    counters_consistent: true,
                    tested_ops: Some(2500),
                    counter_variants: Vec::new(),
                },
                CellResult {
                    guest: "petix".to_string(),
                    engine: "detailed".to_string(),
                    workload: "suite:Memory Mapped Device".to_string(),
                    category: Some("I/O".to_string()),
                    iterations: 100,
                    status: CellStatus::Unsupported("intc device model".to_string()),
                    reps_run: 1,
                    attempts: 1,
                    seconds: vec![],
                    counters: Counters::default(),
                    counters_consistent: true,
                    tested_ops: None,
                    counter_variants: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = demo();
        let parsed = CampaignResult::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.name, r.name);
        assert_eq!(parsed.scale, r.scale);
        assert_eq!(parsed.reps, r.reps);
        assert_eq!(parsed.jobs, r.jobs);
        assert_eq!(parsed.created_unix, r.created_unix);
        assert_eq!(parsed.cells.len(), r.cells.len());
        let (a, b) = (&parsed.cells[0], &r.cells[0]);
        assert_eq!(a.guest, b.guest);
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.category, b.category);
        assert_eq!(a.status, b.status);
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.tested_ops, b.tested_ops);
        assert_eq!(a.reps_run, 2);
        assert_eq!(a.metric(), b.metric());
        assert_eq!(parsed.cells[1].status, r.cells[1].status);
        assert_eq!(parsed.cells[1].tested_ops, None);
        assert_eq!(parsed.cells[1].reps_run, 1);
    }

    #[test]
    fn stats_are_computed_from_the_seconds_and_never_written() {
        let mut r = demo();
        // One invalid timing and one wild one among the repetitions.
        r.cells[0].seconds = vec![
            0.011, 0.0105, 0.0, 0.0109, 0.9, 0.0111, 0.0107, 0.0108, 0.0110, 0.0106,
        ];
        r.cells[0].reps_run = 10;
        let s = r.cells[0].stats().unwrap();
        assert_eq!((s.n, s.rejected_invalid, s.min), (9, 1, 0.0105));
        let text = r.to_json();
        for member in ["\"stats\"", "\"stop_reason\"", "\"precision\""] {
            assert!(!text.contains(member), "{member} in {text}");
        }
        let parsed = CampaignResult::from_json(&text).unwrap();
        assert_eq!(parsed.cells[0].stats(), Some(s));
    }

    #[test]
    fn metric_is_the_floor_of_an_ok_cell_only() {
        let mut r = demo();
        assert_eq!(r.cells[0].metric(), Some(0.0105));
        assert_eq!(r.cells[1].metric(), None, "unsupported, no timings");
        // Timings on a cell that did not complete are not its time.
        r.cells[0].status = CellStatus::Failed("aborted".to_string());
        assert_eq!(r.cells[0].metric(), None);
        // An Ok cell whose every timing is impossible has no time.
        r.cells[1].status = CellStatus::Ok;
        r.cells[1].seconds = vec![0.0, f64::NAN];
        assert_eq!(r.cells[1].stats(), None);
    }

    #[test]
    fn counter_variants_round_trip() {
        let mut r = demo();
        r.cells[0].counters_consistent = false;
        r.cells[0].counter_variants = vec![
            r.cells[0].counters,
            Counters {
                instructions: 30001,
                syscalls: 2500,
                ..Default::default()
            },
        ];
        let parsed = CampaignResult::from_json(&r.to_json()).unwrap();
        assert!(!parsed.cells[0].counters_consistent);
        assert_eq!(
            parsed.cells[0].counter_variants,
            r.cells[0].counter_variants
        );
    }

    #[test]
    fn every_counter_round_trips_by_name() {
        let mut r = demo();
        for (i, name) in Counters::NAMES.iter().enumerate() {
            *r.cells[0].counters.by_name_mut(name).unwrap() = 1 << i;
        }
        let parsed = CampaignResult::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.cells[0].counters, r.cells[0].counters);
    }

    #[test]
    fn rejects_malformed_seconds() {
        // A corrupted timing entry must fail the load, not silently
        // shrink the sample set under an unchanged stats block.
        let text = demo().to_json().replace("[0.011, 0.0105]", "[0.011, null]");
        let err = CampaignResult::from_json(&text).unwrap_err();
        assert!(matches!(err, LoadError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("seconds"), "{err}");
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = demo().to_json().replace(SCHEMA, "simbench-campaign/v0");
        let err = CampaignResult::from_json(&text).unwrap_err();
        assert_eq!(
            err,
            LoadError::Schema {
                found: "simbench-campaign/v0".to_string()
            }
        );
        assert!(err.to_string().contains("unsupported schema"), "{err}");
    }

    #[test]
    fn schema_errors_name_the_readable_version() {
        let found = "simbench-campaign/v4".to_string();
        let text = LoadError::Schema { found }.to_string();
        let want = "\"simbench-campaign/v4\" (expected \"simbench-campaign/v7\")";
        assert_eq!(text, format!("unsupported schema {want}"));
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let path = std::env::temp_dir().join(format!("simbench-save-{}.json", std::process::id()));
        demo().save(&path).unwrap();
        let loaded = CampaignResult::load(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.unwrap().to_json(), demo().to_json());
    }

    #[test]
    fn wall_clock_fields_default_when_absent() {
        let text = demo().to_json();
        let text = text.replace("  \"wall_secs\": 1.25,\n", "");
        let text = text.replace("  \"created_unix\": 1700000000,\n", "");
        let mut parsed = CampaignResult::from_json(&text).unwrap();
        assert_eq!((parsed.wall_secs, parsed.created_unix), (0.0, 0));
        (parsed.wall_secs, parsed.created_unix) = (1.25, 1_700_000_000);
        assert_eq!(parsed.to_json(), demo().to_json());
    }

    #[test]
    fn cell_lookup() {
        let r = demo();
        assert!(r
            .cell("armlet", "dbt@v2.5.0-rc2", "suite:System Call")
            .is_some());
        assert!(r.cell("armlet", "interp", "suite:System Call").is_none());
    }

    #[test]
    fn group_by_keeps_order() {
        let r = demo();
        let groups = group_by(&r.cells, |c| c.guest.clone());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, "armlet");
        assert_eq!(groups[1].0, "petix");
    }

    fn demo_telemetry() -> Telemetry {
        Telemetry {
            counters: vec![
                ("campaign.image_cache_hits".to_string(), 6),
                ("dbt.translations".to_string(), 123),
            ],
            histograms: vec![("dbt.block_steps".to_string(), vec![(0, 2), (3, 5), (11, 1)])],
        }
    }

    #[test]
    fn telemetry_round_trips() {
        let mut r = demo();
        r.telemetry = Some(demo_telemetry());
        let text = r.to_json();
        assert!(
            text.contains(
                "\"counters\": {\"campaign.image_cache_hits\": 6, \"dbt.translations\": 123}"
            ),
            "{text}"
        );
        assert!(
            text.contains("\"histograms\": {\"dbt.block_steps\": [[0, 2], [3, 5], [11, 1]]}"),
            "{text}"
        );
        let parsed = CampaignResult::from_json(&text).unwrap();
        assert_eq!(parsed.telemetry, Some(demo_telemetry()));
        // Plain runs and empty snapshots carry no telemetry key at all.
        assert!(!demo().to_json().contains("\"telemetry\""));
        let mut empty = demo();
        empty.telemetry = Some(Telemetry::default());
        assert!(!empty.to_json().contains("\"telemetry\""));
        assert_eq!(
            CampaignResult::from_json(&demo().to_json())
                .unwrap()
                .telemetry,
            None
        );
    }

    #[test]
    fn malformed_telemetry_is_a_typed_error() {
        let mut r = demo();
        r.telemetry = Some(demo_telemetry());
        let good = r.to_json();
        for (from, to) in [
            (
                "\"dbt.translations\": 123",
                "\"dbt.translations\": \"lots\"",
            ),
            ("[3, 5]", "[3]"),
            ("[11, 1]", "[65, 1]"),
        ] {
            let err = CampaignResult::from_json(&good.replace(from, to)).unwrap_err();
            assert!(
                matches!(err, LoadError::Malformed(_)),
                "{from} -> {to}: {err}"
            );
            assert!(err.to_string().contains("telemetry"), "{err}");
        }
    }

    #[test]
    fn quarantined_and_timed_out_statuses_round_trip() {
        let mut r = demo();
        r.cells[0].status = CellStatus::Quarantined("index out of bounds".to_string());
        r.cells[1].status = CellStatus::TimedOut("exceeded 30s cell timeout".to_string());
        let text = r.to_json();
        assert!(
            text.contains("\"status\": \"quarantined:index out of bounds\""),
            "{text}"
        );
        assert!(
            text.contains("\"status\": \"timed_out:exceeded 30s cell timeout\""),
            "{text}"
        );
        let parsed = CampaignResult::from_json(&text).unwrap();
        assert_eq!(parsed.cells[0].status, r.cells[0].status);
        assert_eq!(parsed.cells[1].status, r.cells[1].status);
        assert!(parsed.cells[0].status.is_broken());
        assert!(parsed.cells[1].status.is_broken());
        assert!(!CellStatus::Ok.is_broken());
        assert!(!CellStatus::NotOnIsa.is_broken());
    }

    #[test]
    fn an_unknown_status_loads_as_a_broken_failure_naming_it() {
        // A status this reader does not know (the removed `skipped`, or
        // one from a newer writer) must never read as a clean cell.
        let text = demo().to_json();
        let text = text.replacen("\"status\": \"ok\"", "\"status\": \"skipped\"", 1);
        let parsed = CampaignResult::from_json(&text).unwrap();
        assert_eq!(
            parsed.cells[0].status,
            CellStatus::Failed("unknown status skipped".to_string())
        );
        assert!(parsed.cells[0].status.is_broken());
        assert_eq!(parsed.cells[0].metric(), None);
    }

    #[test]
    fn status_reasons_keep_their_colons_and_quotes() {
        let reasons = [
            CellStatus::Unsupported("device: \"intc\"".to_string()),
            CellStatus::Failed("unsupported: wall: 3s".to_string()),
            CellStatus::Quarantined("panicked at 'a:b'".to_string()),
            CellStatus::TimedOut("".to_string()),
        ];
        for status in reasons {
            let mut r = demo();
            r.cells[1].status = status.clone();
            let parsed = CampaignResult::from_json(&r.to_json()).unwrap();
            assert_eq!(parsed.cells[1].status, status);
        }
    }

    #[test]
    fn attempts_round_trip_and_elide_when_equal() {
        // The common case — no retries — writes no attempts key at all,
        // so clean results stay byte-compatible with v5 cell layouts.
        let clean = demo().to_json();
        assert!(!clean.contains("\"attempts\""), "{clean}");
        let parsed = CampaignResult::from_json(&clean).unwrap();
        assert_eq!(parsed.cells[0].attempts, parsed.cells[0].reps_run);
        // A retried cell records the true execution count.
        let mut r = demo();
        r.cells[0].attempts = 5;
        let text = r.to_json();
        assert!(
            text.contains("\"reps_run\": 2, \"attempts\": 5, "),
            "{text}"
        );
        let parsed = CampaignResult::from_json(&text).unwrap();
        assert_eq!(parsed.cells[0].attempts, 5);
        assert_eq!(parsed.cells[0].reps_run, 2);
    }

    #[test]
    fn journal_echo_round_trips() {
        let mut r = demo();
        r.journal = Some("/tmp/campaign-journal".to_string());
        let text = r.to_json();
        assert!(
            text.contains("\"journal\": \"/tmp/campaign-journal\""),
            "{text}"
        );
        let parsed = CampaignResult::from_json(&text).unwrap();
        assert_eq!(parsed.journal, r.journal);
        // Unjournaled runs carry no journal key at all.
        assert!(!demo().to_json().contains("\"journal\""));
        // A mistyped journal is a typed error, not a silent drop.
        let err =
            CampaignResult::from_json(&text.replace("\"/tmp/campaign-journal\"", "7")).unwrap_err();
        assert!(matches!(err, LoadError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("journal"), "{err}");
    }
}
