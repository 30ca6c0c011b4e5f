//! Interleaved passes over the cells of `steady`, `slow-path` and
//! `cold`, and the correctness gate on every cell-run.

use std::time::Instant;

use simbench_core::engine::{ExitReason, RunLimits};
use simbench_core::events::Counters;

use crate::cells::{run_cell, Cell, CellRun, Image, Source};
use crate::report::{CellSummary, Gate, Totals};
use crate::stats::pass_order;
use crate::table::{self, Group, WorkloadKind};
use crate::trace::{SpanId, Tracer};

/// What the passes so far recorded about one cell.
#[derive(Debug, Clone, Default)]
struct CellStats {
    /// Whole cell-run (fresh platform to teardown), seconds, of the
    /// first [`table::SAMPLE_CAP`] passes.
    cell_s: Vec<f64>,
    cell_floor_s: f64,
    kernel_floor_s: f64,
    /// Kernel-phase and whole-run counters of pass 0: what every later
    /// pass must reproduce.
    reference: Option<(Counters, Counters)>,
}

/// Passes over one workload's cells.
#[derive(Debug)]
pub struct Measured {
    stats: Vec<CellStats>,
    passes: usize,
    /// `VmHWM` once every cell has run once.
    first_pass_rss_mb: f64,
    pub gate: Gate,
}

/// The pass loop of every workload: run `run_item(pass, item, span of
/// the pass)` for each of `n` items, pass after pass, until `seconds`
/// have gone by (and at least [`table::MIN_PASSES`] passes). Pass 0
/// runs in table order, so that the memory it peaks at does not depend
/// on the seed; every later pass in an order shuffled from `seed` and
/// the pass index. `before_pass` runs ahead of each pass, outside every
/// timed region. Returns the passes run and `VmHWM` after pass 0.
pub fn interleave(
    n: usize,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    before_pass: &mut dyn FnMut(),
    mut run_item: impl FnMut(usize, usize, SpanId, &mut Tracer),
) -> (usize, f64) {
    let started = Instant::now();
    let (mut passes, mut last_pass_s, mut first_pass_rss_mb) = (0, 0.0, 0.0);
    while passes < table::MIN_PASSES || started.elapsed().as_secs_f64() + last_pass_s <= seconds {
        before_pass();
        let pass_start = Instant::now();
        let pass_span = tracer.open("pass", None);
        let order = match passes {
            0 => (0..n).collect(),
            pass => pass_order(n, seed, pass as u64),
        };
        for item in order {
            run_item(passes, item, pass_span, tracer);
        }
        tracer.close(pass_span);
        if passes == 0 {
            first_pass_rss_mb = crate::peak_rss_mb();
        }
        passes += 1;
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }
    (passes, first_pass_rss_mb)
}

/// Passes over the cells of a workload, one cell at a time on this
/// thread: a closed loop with one client.
pub fn run_passes(
    images: &[Image],
    cells: &[Cell],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    before_pass: &mut dyn FnMut(),
) -> Measured {
    let mut stats = vec![CellStats::default(); cells.len()];
    let mut gate = Gate::default();
    let run_item = |pass: usize, i: usize, pass_span: SpanId, tracer: &mut Tracer| {
        let cell = cells[i];
        let image = &images[cell.image];
        let stats = &mut stats[i];
        let limits = RunLimits {
            max_insns: stats
                .reference
                .map_or(table::FIRST_PASS_MAX_INSNS, |(_, whole)| {
                    whole.instructions.saturating_mul(10)
                }),
            wall_limit: Some(table::CELL_WALL_LIMIT),
        };
        let run = run_cell(image.spec.guest, cell.engine, &image.image, &limits);
        if tracer.is_on() {
            record_spans(tracer, pass_span, i, &run);
        }
        gate.attempted += 1;
        if let Err(why) = check_run(image, cell, &run, stats.reference) {
            gate.fail(format!(
                "{}/{} pass {pass}: {why}",
                image.spec.label(),
                cell.engine_name
            ));
        }
        let (kernel_s, cell_s) = (run.outcome.kernel_wall().as_secs_f64(), run.cell_s());
        if stats.reference.is_none() {
            stats.reference = Some((run.outcome.kernel_counters(), run.outcome.counters));
            stats.kernel_floor_s = kernel_s;
            stats.cell_floor_s = cell_s;
        }
        stats.kernel_floor_s = stats.kernel_floor_s.min(kernel_s);
        stats.cell_floor_s = stats.cell_floor_s.min(cell_s);
        if stats.cell_s.len() < table::SAMPLE_CAP {
            stats.cell_s.push(cell_s);
        }
    };
    let (passes, first_pass_rss_mb) =
        interleave(cells.len(), seed, seconds, tracer, before_pass, run_item);
    let mut m = Measured {
        stats,
        passes,
        first_pass_rss_mb,
        gate,
    };
    check_engines_agree(images, cells, &mut m);
    m
}

fn record_spans(tracer: &mut Tracer, pass: usize, cell_index: usize, run: &CellRun) {
    let cell = tracer.add_labelled("cell", run.start, run.end, Some(pass), Some(cell_index));
    tracer.add("platform.new", run.start, run.platform_ready, Some(cell));
    tracer.add("core.boot", run.platform_ready, run.booted, Some(cell));
    tracer.add("engine.new", run.booted, run.engine_ready, Some(cell));
    let engine_run = tracer.add("engine.run", run.engine_ready, run.ran, Some(cell));
    if let Some(kernel) = &run.outcome.kernel {
        // Only the length of the kernel phase is visible from outside;
        // the span is drawn flush with the end of the run, which the
        // few instructions between the closing mark and `halt` follow.
        let start = run.ran.checked_sub(kernel.wall).unwrap_or(run.engine_ready);
        tracer.add(
            "engine.kernel",
            start.max(run.engine_ready),
            run.ran,
            Some(engine_run),
        );
    }
    tracer.add("teardown", run.ran, run.end, Some(cell));
}

/// The per-run gate: halted inside the limits, same counters as pass 0,
/// and at least the pinned number of tested operations.
fn check_run(
    image: &Image,
    cell: Cell,
    run: &CellRun,
    reference: Option<(Counters, Counters)>,
) -> Result<(), String> {
    let out = &run.outcome;
    if out.exit != ExitReason::Halted {
        return Err(format!("did not halt: {}", out.exit));
    }
    let kernel = out.kernel.as_ref().ok_or("no kernel phase marks")?.counters;
    if let Some((ref_kernel, ref_whole)) = reference {
        if kernel != ref_kernel || out.counters != ref_whole {
            return Err("counters differ from pass 0".to_string());
        }
    }
    if let Source::Suite(bench) = image.spec.source {
        // Code rewrites are counted only by an engine that caches
        // translations; elsewhere the stores themselves must show.
        let ops = if image.spec.group() == Group::Codegen && cell.engine_name != "dbt" {
            kernel.mem_writes
        } else {
            bench.tested_ops(&kernel)
        };
        if !table::enough_tested_ops(ops, image.spec.iterations) {
            return Err(format!(
                "{ops} tested operations for {} iterations",
                image.spec.iterations
            ));
        }
    }
    Ok(())
}

/// The instruction-granular engines must retire the same number of
/// instructions on the same image (dbt delivers interrupts at block
/// boundaries and may legitimately differ).
fn check_engines_agree(images: &[Image], cells: &[Cell], m: &mut Measured) {
    for (image_index, image) in images.iter().enumerate() {
        let counts: Vec<(&str, u64)> = cells
            .iter()
            .zip(&m.stats)
            .filter(|(c, _)| c.image == image_index && c.engine_name != "dbt")
            .filter_map(|(c, s)| Some((c.engine_name, s.reference?.1.instructions)))
            .collect();
        if counts.windows(2).any(|w| w[0].1 != w[1].1) {
            m.gate.fail(format!(
                "{}: engines disagree on instructions: {counts:?}",
                image.spec.label()
            ));
        }
    }
}

impl Measured {
    /// Per-cell floors and the workload totals computed from them.
    pub fn summarize(
        &self,
        kind: WorkloadKind,
        images: &[Image],
        cells: &[Cell],
    ) -> (Vec<CellSummary>, Totals) {
        let mut summaries = Vec::with_capacity(cells.len());
        for (cell, stats) in cells.iter().zip(&self.stats) {
            let (kernel, whole) = stats.reference.expect("every cell ran in pass 0");
            // `cold` times the whole boot-to-halt region: its kernels
            // are a few hundred instructions.
            let (timed_insns, timed_floor_s) = if kind == WorkloadKind::Cold {
                (whole.instructions, stats.cell_floor_s)
            } else {
                (kernel.instructions, stats.kernel_floor_s)
            };
            summaries.push(CellSummary {
                engine: cell.engine_name,
                group: images[cell.image].spec.group(),
                image: cell.image,
                counters: whole,
                kernel_insns: kernel.instructions,
                kernel_floor_s: stats.kernel_floor_s,
                timed_insns,
                timed_floor_s,
                cell_floor_s: stats.cell_floor_s,
            });
        }
        let timed: Vec<(&[f64], f64)> = self
            .stats
            .iter()
            .map(|s| (s.cell_s.as_slice(), s.cell_floor_s))
            .collect();
        let kernel_s = self.stats.iter().map(|s| s.kernel_floor_s).sum();
        let totals = Totals::new(&timed, kernel_s, self.passes, self.first_pass_rss_mb);
        (summaries, totals)
    }
}
