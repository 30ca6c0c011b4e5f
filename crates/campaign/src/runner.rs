//! Parallel campaign execution: a worker pool over the expanded job
//! list, hardened against every failure mode the failpoint harness can
//! inject.
//!
//! Every job owns its `Machine` and engine (see `measure`), so jobs
//! share no mutable state. Every repetition of every cell is a job of
//! the expanded list, and workers take the next one from a shared
//! cursor until the list is exhausted. A cell finishes when its last
//! repetition completes; its time is the floor of its repetitions
//! ([`CellResult::metric`]).
//!
//! # Fault isolation
//!
//! Each repetition runs under `catch_unwind` with an optional per-cell
//! watchdog ([`RunnerOpts::cell_timeout`]) and bounded retry with
//! exponential backoff ([`RunnerOpts::retries`]). A repetition that
//! still panics once retries are exhausted turns its cell
//! [`CellStatus::Quarantined`] — payload and attempt count recorded —
//! while the rest of the matrix keeps running; a hung repetition turns
//! it [`CellStatus::TimedOut`]. SIGINT/SIGTERM
//! ([`simbench_obs::shutdown`]) drains the queue at the next job
//! boundary: in-flight repetitions finish, unstarted cells are marked
//! failed-interrupted (never silently dropped), and the caller
//! persists the partial artifact. With [`RunnerOpts::journal`] set,
//! every completed repetition and finished cell is appended fsync'd to
//! a write-ahead journal, and [`run_resumed`] re-runs only the
//! cells the journal does not prove finished.
//!
//! Counters are architectural and engines are deterministic, so a
//! campaign's counter results are identical whatever the worker count
//! and whatever the per-cell repetition count, and a resumed run is
//! counter-identical to an uninterrupted one. The concurrency tests in
//! `tests/campaign.rs` assert exactly that. Only wall-clock fields vary
//! run to run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use simbench_core::engine::ExitReason;

use crate::failpoint;
use crate::journal::Journal;
use crate::measure::{run_workload, Config, Sample};
use crate::result::{CampaignResult, CellResult, CellStatus};
use crate::spec::{CampaignSpec, CellKey, Job};

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct RunnerOpts {
    /// Worker threads. 0/1 execute jobs inline on the calling thread in
    /// deterministic expansion order.
    pub jobs: usize,
    /// Print per-job progress to stderr.
    pub verbose: bool,
    /// Per-repetition wall watchdog: an attempt still running after
    /// this long is abandoned (its thread is detached) and counts as
    /// [`CellStatus::TimedOut`]. `None` runs attempts inline with no
    /// watchdog and no extra thread.
    pub cell_timeout: Option<Duration>,
    /// Bounded retry for transiently-failing repetitions: a panicking,
    /// hanging or transiently-erroring attempt is re-run up to this
    /// many times (exponential backoff) before the failure is recorded.
    /// Deterministic failures (unsupported features, wall-limit aborts,
    /// absent workloads) are never retried.
    pub retries: u32,
    /// Write-ahead journal to append per-repetition and per-cell
    /// records to (see [`crate::journal`]).
    pub journal: Option<Arc<Journal>>,
}

impl RunnerOpts {
    /// Serial, quiet.
    pub fn serial() -> Self {
        RunnerOpts {
            jobs: 1,
            ..Default::default()
        }
    }

    /// A given worker count, quiet.
    pub fn with_jobs(jobs: usize) -> Self {
        RunnerOpts {
            jobs: jobs.max(1),
            ..Default::default()
        }
    }
}

/// What one repetition execution (after retries) produced. One value
/// exists per repetition outcome, so the size spread between `Done`
/// and the failure variants costs nothing that matters.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum RepResult {
    /// The measurement ran to an exit; `None` means the workload is
    /// absent on the ISA.
    Done(Option<Sample>),
    /// Every attempt panicked; the last payload is recorded and the
    /// cell is quarantined.
    Panicked(String),
    /// Every attempt failed transiently (injected or environmental —
    /// never from the deterministic engine paths).
    Transient(String),
    /// Every attempt outlived the watchdog.
    TimedOut(String),
}

/// Outcome of one job: the job identity, its result, and how many
/// executions (1 + retries actually used) it took.
struct JobOutcome {
    cell_index: usize,
    rep: u32,
    attempts: u32,
    sample: RepResult,
}

/// Call `f` with the cell's identity as progress-record borrows. The
/// id strings are only built when progress emission is on, so the off
/// path is one relaxed load and never allocates.
fn with_cell_id(key: &CellKey, f: impl FnOnce(simbench_obs::progress::CellId<'_>)) {
    if simbench_obs::progress::mode() == simbench_obs::ProgressMode::Off {
        return;
    }
    let engine = key.engine.id();
    let workload = key.workload.id();
    f(simbench_obs::progress::CellId {
        guest: key.guest.isa_name(),
        engine: &engine,
        workload: &workload,
    });
}

/// Emit the cell's terminal progress record from its scheduler state.
fn progress_finish(key: &CellKey, cell: &CellSched) {
    with_cell_id(key, |id| {
        let any = |f: fn(&RepResult) -> bool| cell.slots.iter().flatten().any(f);
        let status = if any(|s| matches!(s, RepResult::Done(None))) {
            "not_on_isa"
        } else if !any(|s| !matches!(s, RepResult::Done(Some(x)) if x.exit == ExitReason::Halted)) {
            "ok"
        } else if any(|s| matches!(s, RepResult::Panicked(_))) {
            "quarantined"
        } else if any(|s| matches!(s, RepResult::TimedOut(_))) {
            "timed_out"
        } else {
            "failed"
        };
        simbench_obs::progress::cell_finish(id, status, cell.completed);
    });
}

static OBS_REP_PANICS: simbench_obs::Counter = simbench_obs::Counter::new("campaign.rep_panics");
static OBS_REP_TIMEOUTS: simbench_obs::Counter =
    simbench_obs::Counter::new("campaign.rep_timeouts");
static OBS_RETRIES: simbench_obs::Counter = simbench_obs::Counter::new("campaign.retries");

/// Execute one repetition with retry/backoff. Returns the final result
/// and the number of attempts it took. Kept out of line: inlined into
/// the scheduling loop, it slowed perfbench's `campaign` kernels by
/// 2-3 % through code layout alone.
#[inline(never)]
fn execute(job: &Job, cfg: &Config, opts: &RunnerOpts) -> (RepResult, u32) {
    let _obs = simbench_obs::span!("campaign.repetition");
    if job.rep == 0 {
        with_cell_id(&job.key, simbench_obs::progress::cell_start);
    }
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let result = execute_attempt(job, cfg, opts.cell_timeout);
        match &result {
            RepResult::Panicked(_) => OBS_REP_PANICS.add(1),
            RepResult::TimedOut(_) => OBS_REP_TIMEOUTS.add(1),
            _ => {}
        }
        let retryable = matches!(
            result,
            RepResult::Panicked(_) | RepResult::Transient(_) | RepResult::TimedOut(_)
        );
        if !retryable || attempts > opts.retries || simbench_obs::shutdown::interrupted() {
            return (result, attempts);
        }
        OBS_RETRIES.add(1);
        simbench_obs::event!("campaign.retry");
        simbench_obs::info!(
            "[campaign] {}/{} {} rep {}: attempt {attempts} failed, retrying",
            job.key.guest.isa_name(),
            job.key.engine.id(),
            job.key.workload.id(),
            job.rep,
        );
        std::thread::sleep(backoff(attempts));
    }
}

/// Exponential backoff before retry `attempts + 1`: 20 ms, 40 ms, ...
/// capped at 640 ms. Transient failures are usually resource pressure;
/// hammering makes them worse.
fn backoff(attempts: u32) -> Duration {
    Duration::from_millis(20u64 << (attempts - 1).min(5))
}

/// One attempt, optionally under the wall watchdog. With a timeout the
/// attempt runs on its own thread so a hang can be abandoned — the
/// stuck thread is detached, not killed (Rust has no safe thread kill),
/// so a truly wedged engine leaks one parked thread until process
/// exit. Without a timeout the attempt runs inline: zero extra cost.
fn execute_attempt(job: &Job, cfg: &Config, timeout: Option<Duration>) -> RepResult {
    let Some(limit) = timeout else {
        return execute_inline(job, cfg);
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let (job, cfg) = (*job, *cfg);
    let spawned = std::thread::Builder::new()
        .name("campaign-rep".to_string())
        .spawn(move || {
            // The receiver may be long gone on timeout; a failed send
            // just drops the late result.
            let _ = tx.send(execute_inline(&job, &cfg));
        });
    if let Err(e) = spawned {
        return RepResult::Transient(format!("spawning watchdogged repetition: {e}"));
    }
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(_) => RepResult::TimedOut(format!("exceeded {}s cell timeout", limit.as_secs_f64())),
    }
}

/// Run the measurement under `catch_unwind` so a panicking engine
/// quarantines its cell instead of aborting the campaign. The
/// `measure.rep` / `measure.finish` failpoints fire inside the guarded
/// region: injected panics and hangs take exactly the path real ones
/// do.
fn execute_inline(job: &Job, cfg: &Config) -> RepResult {
    let key = job.key;
    let run = || -> Result<Option<Sample>, String> {
        failpoint::fire("measure.rep")?;
        let sample = run_workload(key.guest, key.engine, key.workload, cfg);
        failpoint::fire("measure.finish")?;
        Ok(sample)
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(sample)) => RepResult::Done(sample),
        Ok(Err(transient)) => RepResult::Transient(transient),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "engine panicked".to_string());
            RepResult::Panicked(msg)
        }
    }
}

/// Short journal tag for a repetition outcome.
fn outcome_tag(sample: &RepResult) -> String {
    match sample {
        RepResult::Done(Some(s)) if s.exit == ExitReason::Halted => "ok".to_string(),
        RepResult::Done(Some(s)) => format!("aborted:{}", s.exit),
        RepResult::Done(None) => "absent".to_string(),
        RepResult::Panicked(msg) => format!("panic:{msg}"),
        RepResult::Transient(msg) => format!("transient:{msg}"),
        RepResult::TimedOut(why) => format!("timeout:{why}"),
    }
}

/// Per-cell scheduler bookkeeping: how many repetitions were launched
/// and completed, and every repetition's outcome (slotted by rep so
/// completion order is irrelevant).
struct CellSched {
    launched: u32,
    completed: u32,
    /// Total executions including retries, summed over repetitions.
    attempts: u32,
    /// Outcome of each completed repetition, indexed by rep number.
    slots: Vec<Option<RepResult>>,
    /// Every launched repetition is accounted for. Cells with
    /// `launched > 0` but `!finished` at shutdown were interrupted.
    finished: bool,
}

impl CellSched {
    fn new() -> CellSched {
        CellSched {
            launched: 0,
            completed: 0,
            attempts: 0,
            slots: Vec::new(),
            finished: false,
        }
    }
}

/// Record one completed repetition. The cell's `finished` flag flips
/// exactly when its last repetition is accounted for, and the cell's
/// terminal progress record goes out then; the caller journals the
/// finished cell on that transition.
fn on_complete(cells: &mut [CellSched], outcome: JobOutcome, key: &CellKey) {
    let cell = &mut cells[outcome.cell_index];
    cell.completed += 1;
    cell.attempts += outcome.attempts;
    if let RepResult::Done(Some(sample)) = &outcome.sample {
        if sample.exit == ExitReason::Halted {
            static OBS_REP_WALL: simbench_obs::Histogram =
                simbench_obs::Histogram::new("campaign.rep_wall_ns");
            OBS_REP_WALL.observe((sample.seconds * 1e9) as u64);
        }
    }
    let rep = outcome.rep as usize;
    if cell.slots.len() <= rep {
        cell.slots.resize_with(rep + 1, || None);
    }
    cell.slots[rep] = Some(outcome.sample);
    if cell.completed == cell.launched {
        cell.finished = true;
        progress_finish(key, cell);
    }
}

/// Run a campaign and aggregate per-cell results.
pub fn run(spec: &CampaignSpec, opts: &RunnerOpts) -> CampaignResult {
    run_resumed(spec, opts, &[])
}

/// [`run`] resuming from a replayed journal: cells in `done` (index +
/// finished record, from [`crate::journal::replay`]) are copied into
/// the result verbatim and only the remainder is measured. Counters
/// are deterministic, so the resumed result is counter-exact against
/// an uninterrupted run of the same spec.
pub fn run_resumed(
    spec: &CampaignSpec,
    opts: &RunnerOpts,
    done: &[(usize, CellResult)],
) -> CampaignResult {
    let t0 = Instant::now();
    let mut jobs = {
        let _obs = simbench_obs::span!("campaign.expand");
        spec.expand()
    };
    if !done.is_empty() {
        let done_set: std::collections::HashSet<usize> = done.iter().map(|&(i, _)| i).collect();
        jobs.retain(|j| !done_set.contains(&j.cell_index));
    }
    let cfg = spec.config();
    let workers = opts.jobs.max(1).min(jobs.len().max(1));

    let mut cells: Vec<CellSched> = (0..spec.cells().len()).map(|_| CellSched::new()).collect();
    for job in &jobs {
        cells[job.cell_index].launched += 1;
    }

    run_pool(&jobs, &cfg, &mut cells, workers, opts);

    // Record the worker count that actually executed, not the request.
    let _obs = simbench_obs::span!("campaign.stats");
    let interrupted = simbench_obs::shutdown::interrupted();
    let mut result = finalize(
        spec,
        workers,
        &cells,
        t0.elapsed().as_secs_f64(),
        interrupted,
    );
    for (index, cell) in done {
        // Journal-proven cells replace the skeletons finalize left for
        // their (never-launched) indices.
        result.cells[*index] = cell.clone();
    }
    if let Some(journal) = &opts.journal {
        result.journal = Some(journal.dir().display().to_string());
    }
    result
}

/// Handle one executed job on the worker that ran it: journal the
/// repetition, fold it into the scheduler state, and journal the cell
/// if this repetition finished it.
fn absorb(cells: &mut [CellSched], outcome: JobOutcome, job: &Job, journal: Option<&Journal>) {
    if let Some(journal) = journal {
        journal.record_rep(
            job.cell_index,
            job.rep,
            outcome.attempts,
            &outcome_tag(&outcome.sample),
        );
    }
    on_complete(cells, outcome, &job.key);
    let cell = &cells[job.cell_index];
    if cell.finished {
        if let Some(journal) = journal {
            journal.record_cell(job.cell_index, &finalize_cell(&job.key, cell));
        }
    }
}

/// The worker pool. The calling thread is worker 0 and only
/// `workers - 1` threads are spawned, so one worker runs every job
/// inline in expansion order. Workers take jobs from one shared cursor:
/// job execution dwarfs the hand-out, so a fancier distribution could
/// not change anything observable. An interrupt stops every worker
/// before its next job.
fn run_pool(
    jobs: &[Job],
    cfg: &Config,
    cells: &mut [CellSched],
    workers: usize,
    opts: &RunnerOpts,
) {
    let (next, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let cells = Mutex::new(cells);
    let total = jobs.len();

    // Graceful drain: after an interrupt nothing new starts, the
    // in-flight repetitions finish and are recorded, and finalize marks
    // the rest.
    let worker = |me: usize| {
        while !simbench_obs::shutdown::interrupted() {
            let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let (sample, attempts) = execute(job, cfg, opts);
            let outcome = JobOutcome {
                cell_index: job.cell_index,
                rep: job.rep,
                attempts,
                sample,
            };
            absorb(
                &mut cells.lock().unwrap(),
                outcome,
                job,
                opts.journal.as_deref(),
            );
            let done = done.fetch_add(1, Ordering::Relaxed) + 1;
            if opts.verbose || simbench_obs::log::enabled(simbench_obs::log::LEVEL_DEBUG) {
                eprintln!(
                    "[campaign {done}/{total}] {}/{} {} rep {} (worker {me})",
                    job.key.guest.isa_name(),
                    job.key.engine.id(),
                    job.key.workload.id(),
                    job.rep,
                );
            }
        }
    };
    std::thread::scope(|scope| {
        for me in 1..workers {
            let worker = &worker;
            scope.spawn(move || worker(me));
        }
        worker(0);
    });
}

/// Build one cell's persisted record from its scheduler state. Shared
/// between the journal (cells are journaled the moment they finish)
/// and [`finalize`] (the same fold at campaign end), so a replayed
/// journal cell is byte-identical to the cell an uninterrupted run
/// would have persisted.
fn finalize_cell(key: &CellKey, cs: &CellSched) -> CellResult {
    let mut cell = CellResult::skeleton(key);
    cell.attempts = cs.attempts;
    let mut samples: Vec<&Sample> = Vec::new();
    let mut failure: Option<CellStatus> = None;
    // Iterate slots in repetition order so `seconds` is deterministic
    // and the first failure (by rep, not by completion time) wins.
    for slot in cs.slots.iter().flatten() {
        cell.reps_run += 1;
        match slot {
            RepResult::Panicked(payload) => {
                failure.get_or_insert(CellStatus::Quarantined(payload.clone()));
            }
            RepResult::Transient(msg) => {
                failure.get_or_insert(CellStatus::Failed(msg.clone()));
            }
            RepResult::TimedOut(why) => {
                failure.get_or_insert(CellStatus::TimedOut(why.clone()));
            }
            RepResult::Done(None) => {} // workload absent on this ISA
            RepResult::Done(Some(sample)) => {
                match sample.exit {
                    // Only halted repetitions contribute the iteration
                    // count: an aborted sample's count must not leak
                    // into the persisted result.
                    ExitReason::Halted => {
                        cell.iterations = sample.iterations;
                        samples.push(sample);
                    }
                    ExitReason::Unsupported(what) => {
                        failure.get_or_insert(CellStatus::Unsupported(what.to_string()));
                    }
                    ref other => {
                        failure.get_or_insert(CellStatus::Failed(other.to_string()));
                    }
                }
            }
        }
    }
    // Failures take precedence so partial timings are never mistaken
    // for a clean cell.
    if let Some(status) = failure {
        cell.status = status;
        return cell;
    }
    if samples.is_empty() {
        cell.status = CellStatus::NotOnIsa;
        return cell;
    }
    cell.status = CellStatus::Ok;
    cell.seconds = samples.iter().map(|s| s.seconds).collect();
    cell.counters = samples[0].counters;
    cell.counters_consistent = samples.iter().all(|s| s.counters == samples[0].counters);
    cell.tested_ops = key.workload.tested_ops(&cell.counters);
    if !cell.counters_consistent {
        // Keep every repetition's profile: the divergence itself is
        // the evidence an engine-determinism bug needs.
        cell.counter_variants = samples.iter().map(|s| s.counters).collect();
    }
    cell
}

/// Fold scheduler state into the deterministic per-cell result layout.
fn finalize(
    spec: &CampaignSpec,
    jobs: usize,
    sched: &[CellSched],
    wall_secs: f64,
    interrupted: bool,
) -> CampaignResult {
    let mut result = CampaignResult::empty_for(spec, jobs);
    let keys = spec.cells();

    for ((cell, key), cs) in result.cells.iter_mut().zip(&keys).zip(sched) {
        if cs.completed == 0 {
            // No repetition finished here: the workload is not on the
            // ISA, or an interrupt drained its jobs before any could
            // run. Interrupted cells are recorded as failed — a partial
            // artifact must name its holes, never pass them off as
            // absent workloads.
            cell.status = if cs.launched > 0 && interrupted {
                CellStatus::Failed("interrupted".to_string())
            } else {
                CellStatus::NotOnIsa
            };
            continue;
        }
        if interrupted && !cs.finished {
            // Some repetitions ran, the rest were drained: the partial
            // timings must not masquerade as a clean cell.
            cell.reps_run = cs.completed;
            cell.attempts = cs.attempts;
            cell.status = CellStatus::Failed("interrupted".to_string());
            continue;
        }
        *cell = finalize_cell(key, cs);
    }

    result.wall_secs = wall_secs;
    result.created_unix = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{EngineKind, Guest};
    use crate::spec::Workload;
    use simbench_suite::Benchmark;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".to_string(),
            guests: vec![Guest::Armlet, Guest::Petix],
            engines: vec![EngineKind::Interp, EngineKind::Native],
            workloads: vec![
                Workload::Suite(Benchmark::Syscall),
                Workload::Suite(Benchmark::NonprivAccess),
            ],
            scale: u64::MAX, // clamp to the 16-iteration floor
            reps: 2,
            wall_limit: Some(Duration::from_secs(60)),
        }
    }

    #[test]
    fn serial_run_fills_cells() {
        // Serialize with failpoint-arming tests: an armed
        // process-global failpoint must never hit a clean-run test.
        let _fp = failpoint::test_guard();
        let result = run(&tiny_spec(), &RunnerOpts::serial());
        assert_eq!(result.cells.len(), 8);
        let ok = result
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Ok)
            .count();
        // Nonprivileged Access is absent on petix (2 engines).
        assert_eq!(ok, 6);
        let absent = result
            .cell("petix", "interp", "suite:Nonprivileged Access")
            .unwrap();
        assert_eq!(absent.status, CellStatus::NotOnIsa);
        assert_eq!(absent.reps_run, 0);
        let ok_cell = result
            .cell("armlet", "interp", "suite:System Call")
            .unwrap();
        assert_eq!(ok_cell.seconds.len(), 2);
        assert_eq!(ok_cell.reps_run, 2);
        assert_eq!(ok_cell.attempts, 2, "no retries on a clean run");
        assert!(ok_cell.counters.syscalls >= 16);
        assert!(ok_cell.counters_consistent);
        assert!(ok_cell.counter_variants.is_empty());
        assert_eq!(ok_cell.tested_ops, Some(ok_cell.counters.syscalls));
        assert!(ok_cell.stats().is_some());
    }

    #[test]
    fn unsupported_detailed_cell_is_flagged() {
        // Serialize with failpoint-arming tests: an armed
        // process-global failpoint must never hit a clean-run test.
        let _fp = failpoint::test_guard();
        let spec = CampaignSpec {
            name: "unsupported".to_string(),
            guests: vec![Guest::Armlet],
            engines: vec![EngineKind::Detailed],
            workloads: vec![Workload::Suite(Benchmark::MmioDevice)],
            scale: u64::MAX,
            reps: 1,
            wall_limit: Some(Duration::from_secs(60)),
        };
        let result = run(&spec, &RunnerOpts::serial());
        assert!(matches!(result.cells[0].status, CellStatus::Unsupported(_)));
        assert!(result.cells[0].stats().is_none());
        // An aborted cell must not leak a sample's iteration count into
        // the persisted result: only halted repetitions record it.
        assert_eq!(result.cells[0].iterations, 0);
    }

    #[test]
    fn wall_limited_cell_records_no_iterations() {
        // Serialize with failpoint-arming tests: an armed
        // process-global failpoint must never hit a clean-run test.
        let _fp = failpoint::test_guard();
        // A sub-measurable wall limit aborts every repetition, so the
        // cell fails and its iteration count stays unrecorded.
        let spec = CampaignSpec {
            name: "walled".to_string(),
            guests: vec![Guest::Armlet],
            engines: vec![EngineKind::Interp],
            workloads: vec![Workload::Suite(Benchmark::MemHot)],
            scale: 1, // full paper iteration counts: plenty to outlast the limit
            reps: 1,
            wall_limit: Some(Duration::from_nanos(1)),
        };
        let result = run(&spec, &RunnerOpts::serial());
        assert!(
            matches!(result.cells[0].status, CellStatus::Failed(_)),
            "{:?}",
            result.cells[0].status
        );
        assert_eq!(result.cells[0].iterations, 0);
        assert!(result.cells[0].seconds.is_empty());
    }

    #[test]
    fn a_cell_time_is_the_floor_of_its_repetitions() {
        // Serialize with failpoint-arming tests: an armed
        // process-global failpoint must never hit a clean-run test.
        let _fp = failpoint::test_guard();
        let spec = CampaignSpec {
            reps: 5,
            ..tiny_spec()
        };
        let result = run(&spec, &RunnerOpts::with_jobs(2));
        let ok: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Ok)
            .collect();
        assert_eq!(ok.len(), 6);
        for cell in ok {
            assert_eq!(cell.seconds.len(), 5);
            let floor = cell.seconds.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(cell.metric(), Some(floor), "{}", cell.workload);
            let s = cell.stats().unwrap();
            assert_eq!((s.n, s.rejected_invalid), (5, 0));
            assert!(s.min <= s.median);
        }
    }

    fn halted_outcome(rep: u32, secs: f64) -> JobOutcome {
        JobOutcome {
            cell_index: 0,
            rep,
            attempts: 1,
            sample: RepResult::Done(Some(Sample {
                seconds: secs,
                counters: Default::default(),
                exit: ExitReason::Halted,
                iterations: 16,
            })),
        }
    }

    #[test]
    fn every_repetition_runs_once_at_any_worker_count() {
        // Serialize with failpoint-arming tests: an armed
        // process-global failpoint must never hit a clean-run test.
        let _fp = failpoint::test_guard();
        let spec = CampaignSpec {
            reps: 3,
            ..tiny_spec()
        };
        for jobs in [1, 3, 64] {
            let result = run(&spec, &RunnerOpts::with_jobs(jobs));
            for cell in result.cells.iter().filter(|c| c.status == CellStatus::Ok) {
                assert_eq!(cell.seconds.len(), 3, "jobs {jobs}: {}", cell.workload);
                assert_eq!((cell.reps_run, cell.attempts), (3, 3), "jobs {jobs}");
            }
        }
    }

    #[test]
    fn a_cell_finishes_when_its_last_repetition_completes() {
        // Repetitions complete in any order; the cell finishes on the
        // last one, never earlier.
        let mut cells = vec![CellSched::new()];
        cells[0].launched = 2;
        let key = tiny_spec().cells()[0];
        on_complete(&mut cells, halted_outcome(1, 1.1), &key);
        assert!(!cells[0].finished);
        on_complete(&mut cells, halted_outcome(0, 1.0), &key);
        assert!(cells[0].finished);
        assert_eq!((cells[0].completed, cells[0].attempts), (2, 2));
    }

    #[test]
    fn injected_panic_quarantines_one_cell_and_spares_the_rest() {
        let _fp = failpoint::test_guard();
        failpoint::arm("measure.rep=1*panic(injected quarantine test)").unwrap();
        let result = run(&tiny_spec(), &RunnerOpts::serial());
        failpoint::disarm_all();
        let quarantined: Vec<_> = result
            .cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Quarantined(_)))
            .collect();
        assert_eq!(quarantined.len(), 1, "exactly one cell quarantines");
        assert_eq!(
            quarantined[0].status,
            CellStatus::Quarantined("injected quarantine test".to_string()),
            "the panic payload is recorded"
        );
        assert!(quarantined[0].stats().is_none());
        // The rest of the matrix completed exactly as a clean run does.
        let clean = run(&tiny_spec(), &RunnerOpts::serial());
        for (c, r) in clean.cells.iter().zip(&result.cells) {
            if matches!(r.status, CellStatus::Quarantined(_)) {
                continue;
            }
            assert_eq!(
                c.status, r.status,
                "{}/{} {}",
                c.guest, c.engine, c.workload
            );
            assert_eq!(c.counters, r.counters);
        }
    }

    #[test]
    fn transient_failures_are_retried_and_attempts_recorded() {
        let _fp = failpoint::test_guard();
        failpoint::arm("measure.rep=2*err(injected transient)").unwrap();
        let opts = RunnerOpts {
            retries: 3,
            ..RunnerOpts::serial()
        };
        let spec = CampaignSpec {
            guests: vec![Guest::Armlet],
            engines: vec![EngineKind::Interp],
            workloads: vec![Workload::Suite(Benchmark::Syscall)],
            ..tiny_spec()
        };
        let result = run(&spec, &opts);
        failpoint::disarm_all();
        let cell = &result.cells[0];
        assert_eq!(cell.status, CellStatus::Ok, "retries recovered the cell");
        assert_eq!(cell.reps_run, 2);
        // Rep 0 burned the two injected failures: 3 executions for it,
        // 1 for rep 1.
        assert_eq!(cell.attempts, 4, "true execution count recorded");
        // The persisted form round-trips the attempts field.
        let parsed = CampaignResult::from_json(&result.to_json()).unwrap();
        assert_eq!(parsed.cells[0].attempts, 4);
        assert_eq!(parsed.cells[0].reps_run, 2);
    }

    #[test]
    fn a_retry_stays_with_its_cell_in_a_later_pass() {
        // Jobs run pass by pass: the third is cell 0's second
        // repetition, and only that cell counts the retry.
        let _fp = failpoint::test_guard();
        failpoint::arm("measure.rep=2+1*err(injected transient)").unwrap();
        let opts = RunnerOpts {
            retries: 1,
            ..RunnerOpts::serial()
        };
        let spec = CampaignSpec {
            guests: vec![Guest::Armlet],
            workloads: vec![Workload::Suite(Benchmark::Syscall)],
            ..tiny_spec()
        };
        let result = run(&spec, &opts);
        failpoint::disarm_all();
        let runs: Vec<_> = result
            .cells
            .iter()
            .map(|c| (&c.status, c.reps_run, c.attempts))
            .collect();
        assert_eq!(runs, [(&CellStatus::Ok, 2, 3), (&CellStatus::Ok, 2, 2)]);
    }

    #[test]
    fn exhausted_retries_fail_the_cell_truthfully() {
        let _fp = failpoint::test_guard();
        failpoint::arm("measure.rep=err(persistent failure)").unwrap();
        let opts = RunnerOpts {
            retries: 1,
            ..RunnerOpts::serial()
        };
        let spec = CampaignSpec {
            guests: vec![Guest::Armlet],
            engines: vec![EngineKind::Interp],
            workloads: vec![Workload::Suite(Benchmark::Syscall)],
            reps: 1,
            ..tiny_spec()
        };
        let result = run(&spec, &opts);
        failpoint::disarm_all();
        let cell = &result.cells[0];
        assert_eq!(
            cell.status,
            CellStatus::Failed("persistent failure".to_string())
        );
        assert_eq!(cell.reps_run, 1);
        assert_eq!(cell.attempts, 2, "initial execution plus one retry");
    }

    #[test]
    fn watchdog_times_out_a_hung_repetition() {
        let _fp = failpoint::test_guard();
        failpoint::arm("measure.rep=hang(60000)").unwrap();
        let opts = RunnerOpts {
            cell_timeout: Some(Duration::from_millis(50)),
            ..RunnerOpts::serial()
        };
        let spec = CampaignSpec {
            guests: vec![Guest::Armlet],
            engines: vec![EngineKind::Interp],
            workloads: vec![Workload::Suite(Benchmark::Syscall)],
            reps: 1,
            ..tiny_spec()
        };
        let t0 = Instant::now();
        let result = run(&spec, &opts);
        failpoint::disarm_all();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "the watchdog, not the hang, must bound the wall time"
        );
        let cell = &result.cells[0];
        assert!(
            matches!(cell.status, CellStatus::TimedOut(_)),
            "{:?}",
            cell.status
        );
        assert!(cell.stats().is_none());
    }

    #[test]
    fn watchdogged_clean_run_matches_inline_counters() {
        // Serialize with failpoint-arming tests: an armed
        // process-global failpoint must never hit a clean-run test.
        let _fp = failpoint::test_guard();
        // The watchdog thread must be measurement-transparent.
        let opts = RunnerOpts {
            cell_timeout: Some(Duration::from_secs(120)),
            ..RunnerOpts::serial()
        };
        let guarded = run(&tiny_spec(), &opts);
        let inline = run(&tiny_spec(), &RunnerOpts::serial());
        for (g, i) in guarded.cells.iter().zip(&inline.cells) {
            assert_eq!(
                g.status, i.status,
                "{}/{} {}",
                g.guest, g.engine, g.workload
            );
            assert_eq!(g.counters, i.counters);
        }
    }

    fn halted_sample(instructions: u64) -> Sample {
        Sample {
            seconds: 0.5,
            counters: simbench_core::events::Counters {
                instructions,
                ..Default::default()
            },
            exit: ExitReason::Halted,
            iterations: 16,
        }
    }

    /// Scheduler state of one finished cell whose repetitions ended
    /// with `slots`, in rep order.
    fn finished_with(slots: Vec<RepResult>) -> CellSched {
        let mut cs = CellSched::new();
        cs.launched = slots.len() as u32;
        cs.completed = cs.launched;
        cs.attempts = cs.launched;
        cs.finished = true;
        cs.slots = slots.into_iter().map(Some).collect();
        cs
    }

    fn journal_lines(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_to_string(dir.join(crate::journal::JOURNAL_FILE))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn scratch_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "simbench-runner-test-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn the_first_failing_repetition_names_the_cell_status() {
        // Failures beat timings, and among failures the lowest rep
        // wins, whatever order the repetitions completed in.
        let key = tiny_spec().cells()[0];
        let cs = finished_with(vec![
            RepResult::Done(Some(halted_sample(100))),
            RepResult::Transient("disk full".to_string()),
            RepResult::Panicked("boom".to_string()),
        ]);
        let cell = finalize_cell(&key, &cs);
        assert_eq!(cell.status, CellStatus::Failed("disk full".to_string()));
        assert_eq!(cell.reps_run, 3);
        assert!(cell.seconds.is_empty() && cell.stats().is_none());
        let cs = finished_with(vec![
            RepResult::TimedOut("exceeded 1s cell timeout".to_string()),
            RepResult::Panicked("boom".to_string()),
        ]);
        assert_eq!(
            finalize_cell(&key, &cs).status,
            CellStatus::TimedOut("exceeded 1s cell timeout".to_string())
        );
    }

    #[test]
    fn diverging_repetition_counters_keep_every_profile() {
        let key = tiny_spec().cells()[0];
        let same = finished_with(vec![
            RepResult::Done(Some(halted_sample(100))),
            RepResult::Done(Some(halted_sample(100))),
        ]);
        let cell = finalize_cell(&key, &same);
        assert!(cell.counters_consistent && cell.counter_variants.is_empty());
        let diverged = finished_with(vec![
            RepResult::Done(Some(halted_sample(100))),
            RepResult::Done(Some(halted_sample(101))),
        ]);
        let cell = finalize_cell(&key, &diverged);
        assert_eq!(cell.status, CellStatus::Ok);
        assert!(!cell.counters_consistent);
        assert_eq!(cell.counters.instructions, 100, "the first repetition's");
        let variants: Vec<u64> = cell
            .counter_variants
            .iter()
            .map(|c| c.instructions)
            .collect();
        assert_eq!(variants, vec![100, 101]);
    }

    #[test]
    fn outcome_tags_name_every_repetition_result() {
        let mut aborted = halted_sample(1);
        aborted.exit = ExitReason::WallLimit;
        let cases = [
            (RepResult::Done(Some(halted_sample(1))), "ok"),
            (
                RepResult::Done(Some(aborted)),
                "aborted:wall-clock limit reached",
            ),
            (RepResult::Done(None), "absent"),
            (RepResult::Panicked("boom".to_string()), "panic:boom"),
            (RepResult::Transient("eio".to_string()), "transient:eio"),
            (RepResult::TimedOut("slow".to_string()), "timeout:slow"),
        ];
        for (result, tag) in cases {
            assert_eq!(outcome_tag(&result), tag);
        }
    }

    #[test]
    fn backoff_doubles_from_20ms_and_caps_at_640ms() {
        let ms: Vec<u128> = (1..=8).map(|a| backoff(a).as_millis()).collect();
        assert_eq!(ms, vec![20, 40, 80, 160, 320, 640, 640, 640]);
    }

    #[test]
    fn a_journaled_run_records_every_repetition_and_every_measured_cell() {
        let _fp = failpoint::test_guard();
        let spec = tiny_spec();
        let dir = scratch_journal("records");
        let opts = RunnerOpts {
            journal: Some(Arc::new(Journal::create(&dir, &spec, None).unwrap())),
            ..RunnerOpts::with_jobs(2)
        };
        let result = run(&spec, &opts);
        let lines = journal_lines(&dir);
        let count = |prefix: &str| lines.iter().filter(|l| l.starts_with(prefix)).count();
        // One meta record, one record per job (6 supported cells × 2
        // reps), one per measured cell; not-on-ISA cells launch nothing.
        assert_eq!(lines.len(), 1 + 12 + 6);
        assert!(
            lines[0].starts_with("{\"record\": \"meta\""),
            "{}",
            lines[0]
        );
        assert_eq!(count("{\"record\": \"rep\""), 12);
        assert_eq!(count("{\"record\": \"cell\""), 6);
        assert!(lines
            .iter()
            .filter(|l| l.starts_with("{\"record\": \"rep\""))
            .all(|l| l.ends_with("\"outcome\": \"ok\"}")));
        let replay = crate::journal::replay(&dir, &spec).unwrap();
        assert_eq!((replay.reps, replay.broken, replay.torn), (12, 0, false));
        for (index, cell) in &replay.cells {
            assert_eq!(cell, &result.cells[*index]);
        }
        assert_eq!(replay.cells.len(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_serial_run_journals_a_whole_pass_before_any_cell_finishes() {
        let _fp = failpoint::test_guard();
        let spec = tiny_spec();
        let dir = scratch_journal("passes");
        let opts = RunnerOpts {
            journal: Some(Arc::new(Journal::create(&dir, &spec, None).unwrap())),
            ..RunnerOpts::serial()
        };
        run(&spec, &opts);
        // Six repetitions of pass 0, then in pass 1 each cell's record
        // right after its last repetition.
        let order: String = journal_lines(&dir)[1..]
            .iter()
            .map(|l| match l.contains("\"rep\": 0,") {
                _ if l.starts_with("{\"record\": \"cell\"") => 'c',
                true => '0',
                false => '1',
            })
            .collect();
        assert_eq!(order, "0000001c1c1c1c1c1c");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_resume_with_every_cell_done_measures_nothing() {
        let _fp = failpoint::test_guard();
        let spec = tiny_spec();
        let whole = run(&spec, &RunnerOpts::serial());
        // Marked timings: a re-measured cell could not carry them.
        let done: Vec<(usize, CellResult)> = whole
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.status == CellStatus::Ok)
            .map(|(i, c)| {
                let mut c = c.clone();
                c.seconds = vec![42.0, 43.0];
                (i, c)
            })
            .collect();
        assert_eq!(done.len(), 6);
        let dir = scratch_journal("all-done");
        let opts = RunnerOpts {
            journal: Some(Arc::new(Journal::create(&dir, &spec, None).unwrap())),
            ..RunnerOpts::with_jobs(2)
        };
        let resumed = run_resumed(&spec, &opts, &done);
        assert_eq!(journal_lines(&dir).len(), 1, "only the meta record");
        for (index, cell) in &done {
            assert_eq!(&resumed.cells[*index], cell);
        }
        for (r, w) in resumed.cells.iter().zip(&whole.cells) {
            assert_eq!(
                r.status, w.status,
                "{}/{} {}",
                w.guest, w.engine, w.workload
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_finalize_marks_unfinished_cells_failed() {
        let spec = tiny_spec();
        let keys = spec.cells();
        let mut sched: Vec<CellSched> = (0..keys.len()).map(|_| CellSched::new()).collect();
        // Cell 0 finished cleanly before the interrupt.
        sched[0].launched = 2;
        sched[0].completed = 2;
        sched[0].attempts = 2;
        sched[0].finished = true;
        for rep in 0..2 {
            let RepResult::Done(s) = halted_outcome(rep, 0.5).sample else {
                unreachable!()
            };
            sched[0].slots.push(Some(RepResult::Done(s)));
        }
        // Cell 1 completed one of two reps; cells 2.. never started.
        sched[1].launched = 2;
        sched[1].completed = 1;
        sched[1].attempts = 1;
        let RepResult::Done(s) = halted_outcome(0, 0.5).sample else {
            unreachable!()
        };
        sched[1].slots.push(Some(RepResult::Done(s)));
        for cs in sched.iter_mut().skip(2) {
            cs.launched = 2;
        }
        let result = finalize(&spec, 1, &sched, 1.0, true);
        assert_eq!(result.cells[0].status, CellStatus::Ok, "finished survives");
        assert_eq!(
            result.cells[1].status,
            CellStatus::Failed("interrupted".to_string()),
            "partial timings never fake a clean cell"
        );
        assert_eq!(result.cells[1].reps_run, 1);
        for cell in &result.cells[2..] {
            assert_eq!(
                cell.status,
                CellStatus::Failed("interrupted".to_string()),
                "unstarted cells are named, not passed off as absent"
            );
        }
    }
}
