//! The `campaign` workload: the 270-cell matrix through the campaign
//! runner, the only workload where `crates/campaign` does most of the
//! work.
//!
//! The matrix is run as one small campaign per guest and benchmark (a
//! *chunk*: 5 engines x 3 repetitions), each through `run`, `to_json`,
//! `from_json` and `compare_counters` against the chunk's pass-0 result.
//! Chunks are interleaved and floored like the cells of the other
//! workloads: the floor of a whole-matrix pass moved by +-12 % between
//! 20 s windows of the 2-core box. The price is that the runner's
//! per-`run` fixed cost is paid per chunk.
//!
//! Load is a closed loop with one client, as everywhere: one worker, and
//! repetitions run inline on the calling thread.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use simbench_campaign::{
    compare_counters, run, CampaignResult, CampaignSpec, CellResult, CellStatus, Guest, Journal,
    RunnerOpts, Workload,
};
use simbench_suite::Benchmark;

use crate::measure::interleave;
use crate::report::{CellSummary, Gate, Metrics, Totals};
use crate::stats::ratio;
use crate::table::{self, Group};
use crate::trace::{SpanId, Tracer};

/// One campaign per guest and benchmark the guest has, in matrix order.
pub fn chunks() -> Vec<CampaignSpec> {
    let matrix = CampaignSpec {
        reps: table::CAMPAIGN_REPS,
        ..CampaignSpec::full_matrix(u64::MAX)
    };
    let mut chunks = Vec::new();
    for guest in Guest::ALL {
        for bench in Benchmark::ALL {
            if bench.supported_on(guest.isa_name()) {
                chunks.push(CampaignSpec {
                    name: format!("{}/{}", guest.isa_name(), bench.name()),
                    guests: vec![guest],
                    workloads: vec![Workload::Suite(bench)],
                    ..matrix.clone()
                });
            }
        }
    }
    chunks
}

/// Which of the runner's crash-safety options a chunk-run turns on.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub journal: bool,
    pub watchdog: bool,
}

/// What the workload's passes use: neither. Both options make a chunk's
/// time a property of the box, not of this repository's code, and in
/// regimes that last minutes, which no number of passes floors away.
/// The watchdog runs each repetition on a thread of its own, so two
/// cross-thread wake-ups per repetition (80 of the 150 us a repetition
/// took) follow the hypervisor's halt-polling state: one of three 20 s
/// runs in a row measured 0.084 s where the others measured 0.114 s.
/// The journal's 21 fsyncs per chunk follow the storage: 0.18 s or
/// 0.22 s over six 60 s runs. Two workers share one physical core and
/// disturb each other's kernel timings (per-engine MIPS spread 13-15 %).
/// The traced run prices both options per repetition instead, as
/// `campaign.watchdog_us` and `campaign.journal_us`.
pub const WORKLOAD: Variant = Variant {
    journal: false,
    watchdog: false,
};

/// Seconds spent in each step of one chunk-run; `[0]` is the whole.
pub type StepTimes = [f64; 5];
const STEP_SPANS: [&str; 5] = [
    "cell",
    "campaign.run",
    "campaign.to_json",
    "campaign.from_json",
    "campaign.compare",
];

/// What one chunk-run produced.
pub struct ChunkRun {
    pub result: CampaignResult,
    /// The result after `to_json` and `from_json`.
    pub reloaded: CampaignResult,
    pub times: StepTimes,
    /// `compare_counters(reference, reloaded)` found nothing.
    pub clean: bool,
}

/// Run one chunk: run, serialise, reload, compare (against `reference`,
/// or against the run itself when there is none yet).
pub fn run_chunk(
    spec: &CampaignSpec,
    variant: Variant,
    scratch: &Path,
    reference: Option<&CampaignResult>,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> ChunkRun {
    let dir = scratch.join(format!("journal-{}", std::process::id()));
    let start = Instant::now();
    let journal = variant.journal.then(|| {
        Arc::new(Journal::create(&dir, spec, None).expect("the scratch directory is writable"))
    });
    let opts = RunnerOpts {
        jobs: table::CAMPAIGN_JOBS,
        verbose: false,
        cell_timeout: variant.watchdog.then_some(table::CAMPAIGN_CELL_TIMEOUT),
        retries: table::CAMPAIGN_RETRIES,
        journal,
    };
    let result = run(spec, &opts);
    let ran = Instant::now();
    let text = result.to_json();
    let written = Instant::now();
    let reloaded = CampaignResult::from_json(&text).expect("to_json output loads");
    let loaded = Instant::now();
    let clean = compare_counters(reference.unwrap_or(&result), &reloaded, 0.0).clean();
    let end = Instant::now();
    drop(opts);
    let _ = std::fs::remove_dir_all(&dir);

    let marks = [start, ran, written, loaded, end];
    let mut times = [(end - start).as_secs_f64(); 5];
    let chunk = tracer.add(STEP_SPANS[0], start, end, parent);
    for step in 1..5 {
        times[step] = (marks[step] - marks[step - 1]).as_secs_f64();
        tracer.add(STEP_SPANS[step], marks[step - 1], marks[step], Some(chunk));
    }
    ChunkRun {
        result,
        reloaded,
        times,
        clean,
    }
}

/// What the passes so far recorded about one chunk.
#[derive(Debug)]
struct ChunkStats {
    /// Whole chunk-run seconds of the first [`table::SAMPLE_CAP`] passes.
    total_s: Vec<f64>,
    step_floor_s: StepTimes,
    /// Minimum repetition seconds per cell of the chunk.
    cell_floor_s: Vec<f64>,
    /// The pass-0 result every later pass is compared against.
    reference: CampaignResult,
}

/// Passes over the chunks.
#[derive(Debug)]
pub struct Measured {
    stats: Vec<ChunkStats>,
    passes: usize,
    first_pass_rss_mb: f64,
    pub gate: Gate,
}

/// The gate on one cell of one chunk-run. `Unsupported` is by design for
/// the `detailed` engine on the two benchmarks whose devices the runner
/// removes from it.
fn check_cell(cell: &CellResult, reloaded: &CellResult) -> Result<(), String> {
    let bench = match Workload::by_id(&cell.workload) {
        Some(Workload::Suite(b)) => b,
        _ => return Err("not a suite workload".to_string()),
    };
    if cell.status != reloaded.status || cell.counters != reloaded.counters {
        return Err("from_json(to_json(r)) is not counter-identical".to_string());
    }
    match &cell.status {
        CellStatus::Ok => {}
        CellStatus::Unsupported(_) if cell.engine == "detailed" && bench.platform_specific() => {
            return Ok(())
        }
        other => return Err(format!("status {other:?}")),
    }
    if !cell.counters_consistent {
        return Err("counters differ between repetitions".to_string());
    }
    let codegen_elsewhere =
        Group::of_benchmark(bench) == Group::Codegen && table::engine_short(&cell.engine) != "dbt";
    let ops = if codegen_elsewhere {
        cell.counters.mem_writes
    } else {
        cell.tested_ops.unwrap_or(0)
    };
    if !table::enough_tested_ops(ops, cell.iterations) {
        return Err(format!(
            "{ops} tested operations for {} iterations",
            cell.iterations
        ));
    }
    Ok(())
}

/// Passes over the chunks (see [`interleave`]).
pub fn run_passes(
    scratch: &Path,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    before_pass: &mut dyn FnMut(),
) -> Measured {
    let specs = chunks();
    let mut stats: Vec<ChunkStats> = Vec::with_capacity(specs.len());
    let mut gate = Gate::default();
    let run_item = |pass: usize, i: usize, pass_span: SpanId, tracer: &mut Tracer| {
        let reference = stats.get(i).map(|s| &s.reference);
        let run = run_chunk(
            &specs[i],
            WORKLOAD,
            scratch,
            reference,
            tracer,
            Some(pass_span),
        );
        if pass == 0 {
            stats.push(ChunkStats {
                total_s: Vec::new(),
                step_floor_s: run.times,
                cell_floor_s: vec![f64::INFINITY; run.result.cells.len()],
                reference: run.result.clone(),
            });
        }
        check_chunk(&specs[i].name, pass, &run, &mut gate);
        let stats = &mut stats[i];
        for (floor, t) in stats.step_floor_s.iter_mut().zip(run.times) {
            *floor = floor.min(t);
        }
        if stats.total_s.len() < table::SAMPLE_CAP {
            stats.total_s.push(run.times[0]);
        }
        for (floor, cell) in stats.cell_floor_s.iter_mut().zip(&run.result.cells) {
            *floor = cell.seconds.iter().copied().fold(*floor, f64::min);
        }
    };
    let (passes, first_pass_rss_mb) =
        interleave(specs.len(), seed, seconds, tracer, before_pass, run_item);
    Measured {
        stats,
        passes,
        first_pass_rss_mb,
        gate,
    }
}

/// Count the cells of one chunk-run and those that fail the gate.
fn check_chunk(chunk: &str, pass: usize, run: &ChunkRun, gate: &mut Gate) {
    gate.attempted += run.result.cells.len() as u64;
    let mut fail = |what: String| gate.fail(format!("{chunk} pass {pass}: {what}"));
    if !run.clean {
        fail("compare_counters against pass 0 is not clean".to_string());
    }
    if run.result.cells.len() != run.reloaded.cells.len() {
        fail("from_json(to_json(r)) lost cells".to_string());
    }
    for (cell, back) in run.result.cells.iter().zip(&run.reloaded.cells) {
        if let Err(why) = check_cell(cell, back) {
            fail(format!("{}: {why}", cell.engine));
        }
    }
}

impl Measured {
    /// Per-cell floors, workload totals, and the runner metrics that
    /// the step floors give for free.
    pub fn summarize(&self) -> (Vec<CellSummary>, Totals, Metrics) {
        let engines = table::engines();
        let mut summaries = Vec::new();
        let (mut kernel_s, mut reps) = (0.0, 0u64);
        for (image, chunk) in self.stats.iter().enumerate() {
            for (cell, &floor_s) in chunk.reference.cells.iter().zip(&chunk.cell_floor_s) {
                let (CellStatus::Ok, Some(Workload::Suite(bench))) =
                    (&cell.status, Workload::by_id(&cell.workload))
                else {
                    continue;
                };
                let Some(&(_, engine)) = engines
                    .iter()
                    .find(|(_, short)| *short == table::engine_short(&cell.engine))
                else {
                    continue;
                };
                kernel_s += floor_s * f64::from(cell.reps_run);
                reps += u64::from(cell.reps_run);
                summaries.push(CellSummary {
                    engine,
                    group: Group::of_benchmark(bench),
                    image,
                    counters: cell.counters,
                    kernel_insns: cell.counters.instructions,
                    kernel_floor_s: floor_s,
                    timed_insns: cell.counters.instructions,
                    timed_floor_s: floor_s,
                    cell_floor_s: 0.0,
                });
            }
        }
        let step_sum =
            |step: usize| -> f64 { self.stats.iter().map(|s| s.step_floor_s[step]).sum() };
        let timed: Vec<(&[f64], f64)> = self
            .stats
            .iter()
            .map(|s| (s.total_s.as_slice(), s.step_floor_s[0]))
            .collect();
        let totals = Totals::new(&timed, kernel_s, self.passes, self.first_pass_rss_mb);
        let mut extra = Metrics::default();
        extra.push("campaign.run_s", step_sum(1));
        extra.push(
            "campaign.rep_overhead_us",
            ratio((totals.pass_s - kernel_s) * 1e6, reps as f64),
        );
        extra.push("campaign.to_json_ms", step_sum(2) * 1e3);
        extra.push("campaign.from_json_ms", step_sum(3) * 1e3);
        extra.push("campaign.compare_ms", step_sum(4) * 1e3);
        (summaries, totals, extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chunks_are_the_matrix_and_every_cell_passes_the_gate() {
        let specs = chunks();
        assert_eq!(specs.len(), 52);
        let scratch = crate::scratch_dir();
        let mut by_status = [0usize; 2];
        let mut tracer = Tracer::new(true);
        for spec in &specs {
            let run = run_chunk(spec, WORKLOAD, &scratch, None, &mut tracer, None);
            assert!(run.clean, "{}", spec.name);
            assert_eq!(run.result.cells.len(), 5);
            assert!(run.times[0] >= run.times[1] && run.times[1] > 0.0);
            for (cell, back) in run.result.cells.iter().zip(&run.reloaded.cells) {
                check_cell(cell, back)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", spec.name, cell.engine));
                by_status[usize::from(cell.status != CellStatus::Ok)] += 1;
            }
        }
        // 270 cells less the 10 that are not on the ISA; 6 are
        // unsupported by design.
        assert_eq!(by_status, [254, 6]);
        assert!(tracer.nests());
        assert_eq!(tracer.len(), 52 * 5);

        // A status the gate does not allow, and a lost counter.
        let run = run_chunk(&specs[0], WORKLOAD, &scratch, None, &mut tracer, None);
        let mut bad = run.result.cells[0].clone();
        bad.status = CellStatus::Failed("injected".to_string());
        assert!(check_cell(&bad, &bad).is_err());
        let mut lost = run.result.cells[0].clone();
        lost.counters.instructions += 1;
        assert!(check_cell(&run.result.cells[0], &lost).is_err());
    }
}
