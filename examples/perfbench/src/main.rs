//! perfbench: the repository's benchmark. See README.md beside this
//! package for the workloads, the metrics and how they interact.
//!
//! ```sh
//! cargo run --release --manifest-path examples/perfbench/Cargo.toml -- \
//!     --workload steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process runs one workload: it sets up (assembles the images),
//! runs interleaved passes for `--seconds`, gates every cell-run on
//! correctness, prints every metric by name with its unit, and prints
//! one JSON object as its last line. `--workload all` and `--selfcheck`
//! start one such process per workload and set.

mod args;
mod campaign;
mod cells;
mod measure;
mod probes;
mod report;
mod selfcheck;
mod stats;
mod table;
mod trace;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use args::Args;
use cells::{Cell, Image};
use report::{CellSummary, Gate, Metrics, Report, Totals};
use stats::{ratio, summarize};
use table::{MetricDef, WorkloadKind};
use trace::Tracer;

/// Where the benchmark writes (journals, traces, selfcheck reports):
/// beside its own executable, inside the build directory, so that it
/// never writes outside the checkout it was built in.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let dir = exe
        .parent()
        .expect("the executable is in a directory")
        .join("perfbench-scratch");
    std::fs::create_dir_all(&dir).expect("the build directory is writable");
    dir
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// One timed stretch of passes over a workload.
struct Phase {
    cells: Vec<CellSummary>,
    totals: Totals,
    /// Metrics only this workload has (the runner's own costs).
    extra: Metrics,
    gate: Gate,
}

fn run_phase(
    kind: WorkloadKind,
    images: &[Image],
    cells: &[Cell],
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    before_pass: &mut dyn FnMut(),
) -> Phase {
    if kind == WorkloadKind::Campaign {
        let m = campaign::run_passes(&scratch_dir(), seed, seconds, tracer, before_pass);
        let (cells, totals, extra) = m.summarize();
        Phase {
            cells,
            totals,
            extra,
            gate: m.gate,
        }
    } else {
        let m = measure::run_passes(images, cells, seed, seconds, tracer, before_pass);
        let (cells, totals) = m.summarize(kind, images, cells);
        Phase {
            cells,
            totals,
            extra: Metrics::default(),
            gate: m.gate,
        }
    }
}

/// A fixed loop that has nothing to do with the simulator: 20 000
/// dependent read-modify-writes scattered over 1 MiB. Its floor over
/// the passes (`bench.box_us`) says how fast the box itself was during
/// the run. A neighbour that keeps the sibling hardware thread busy for
/// minutes slows every sample of a run alike, floors included, and
/// `bench.noise_ratio` stays near 1: only a yardstick like this shows it.
fn box_speed_us(buf: &mut [u64]) -> f64 {
    let start = Instant::now();
    let (mut at, mut acc) = (1usize, 0u64);
    for _ in 0..20_000 {
        at = at.wrapping_mul(1_103_515_245).wrapping_add(12_345) % buf.len();
        acc = acc.wrapping_add(buf[at]) ^ at as u64;
        buf[at] = acc;
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e6
}

fn run_workload(kind: WorkloadKind, args: &Args) -> Report {
    let mut out = Report {
        workload: kind.name(),
        seed: args.seed,
        seconds: args.seconds,
        ..Default::default()
    };
    // Set-up: every image assembled from scratch and the cell list
    // built. It is milliseconds of work, so it is repeated ahead of
    // every pass of the untraced phase: samples spread over the whole
    // run find a quiet moment where samples taken back to back at
    // start-up all share one noisy one.
    let mut setup_samples = Vec::new();
    let mut timed_set_up = || {
        let start = Instant::now();
        let built = black_box(cells::set_up(kind));
        setup_samples.push(start.elapsed().as_secs_f64());
        built
    };
    let (images, cells) = timed_set_up();
    let mut box_buf = vec![0u64; (1 << 20) / 8];
    let mut box_us = f64::INFINITY;

    // End-to-end metrics always come from untraced passes. The traced
    // run spends a third of its time on them (the base both overheads
    // are measured against), a third with spans on, and a third with
    // `simbench_obs` tracing and metrics on.
    let seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let base = run_phase(
        kind,
        &images,
        &cells,
        args.seed,
        seconds,
        &mut Tracer::new(false),
        &mut || {
            drop(timed_set_up());
            box_us = box_us.min(box_speed_us(&mut box_buf));
        },
    );
    let setup = summarize(&setup_samples).expect("set-up ran at least once");
    out.metrics.push_timed("setup_s", setup.floor, Some(setup));
    out.gate.absorb(&base.gate);
    out.metrics
        .extend(report::derive(&base.cells, &base.totals));
    out.metrics.extend(base.extra.clone());
    out.metrics.push("bench.box_us", box_us);
    if args.trace {
        traced_phases(kind, &images, &cells, args.seed, seconds, &base, &mut out);
    }
    out.metrics
        .push("peak_rss_mb", base.totals.first_pass_rss_mb);
    out
}

/// The two instrumented thirds of a traced run, the probes, and the
/// trace file.
fn traced_phases(
    kind: WorkloadKind,
    images: &[Image],
    cells: &[Cell],
    seed: u64,
    seconds: f64,
    base: &Phase,
    out: &mut Report,
) {
    let mut tracer = Tracer::new(true);
    let traced = run_phase(kind, images, cells, seed, seconds, &mut tracer, &mut || ());
    out.gate.absorb(&traced.gate);
    out.metrics.push(
        "bench.trace_overhead_ratio",
        ratio(traced.totals.pass_s, base.totals.pass_s),
    );
    span_metrics(&tracer, &traced, &mut out.metrics);

    simbench_obs::set_tracing(true);
    simbench_obs::set_metrics(true);
    let observed = run_phase(
        kind,
        images,
        cells,
        seed,
        seconds,
        &mut Tracer::new(false),
        &mut || (),
    );
    simbench_obs::set_tracing(false);
    simbench_obs::set_metrics(false);
    out.gate.absorb(&observed.gate);
    out.metrics.push(
        "obs.on_overhead_ratio",
        ratio(observed.totals.pass_s, base.totals.pass_s),
    );
    let snapshot = simbench_obs::metrics::snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };
    let hits = counter("campaign.image_cache_hits");
    let misses = counter("campaign.image_cache_misses");
    if hits + misses > 0.0 {
        out.metrics
            .push("campaign.image_cache_hit_ratio", hits / (hits + misses));
    }
    out.obs = Some(snapshot);

    out.metrics
        .extend(probes::run(kind, images, &scratch_dir(), &mut tracer));

    if !tracer.nests() {
        out.gate
            .fail("a span does not lie inside its parent".to_string());
    }
    let labels: Vec<String> = cells
        .iter()
        .map(|c| format!("{}/{}", images[c.image].spec.label(), c.engine_name))
        .collect();
    let path = scratch_dir().join(format!("trace-{}.json", kind.name()));
    match std::fs::write(&path, tracer.chrome_json(&labels)) {
        Ok(()) => eprintln!(
            "[perfbench] {} spans written to {}",
            tracer.len(),
            path.display()
        ),
        Err(e) => out
            .gate
            .fail(format!("cannot write {}: {e}", path.display())),
    }
}

/// Self time per pass of every reported span name, and the share of a
/// pass spent inside timed kernels.
fn span_metrics(tracer: &Tracer, traced: &Phase, metrics: &mut Metrics) {
    let self_times = tracer.self_times();
    let passes = traced.totals.passes as f64;
    for name in table::SPAN_NAMES {
        if let Some(s) = self_times.get(name) {
            metrics.push(
                format!("span.{name}.self_ms"),
                ratio(s.self_ns as f64 / 1e6, passes),
            );
        }
    }
    let total = |name: &str| self_times.get(name).map_or(0.0, |s| s.total_ns as f64);
    // The campaign runner's kernels run inside `run`, out of sight of
    // spans recorded here; their share is taken from the repetition
    // times the runner reports.
    let share = if total("engine.kernel") > 0.0 {
        ratio(total("engine.kernel"), total("pass"))
    } else {
        ratio(traced.totals.kernel_s, traced.totals.pass_s)
    };
    metrics.push("span.kernel_share", share);
}

fn all_defs() -> Vec<MetricDef> {
    let mut defs = table::end_to_end_defs();
    defs.extend(table::per_layer_defs());
    defs
}

/// Run one workload in this process and print its result.
fn run_one(kind: WorkloadKind, args: &Args) -> ExitCode {
    println!("[{}] {}", kind.name(), kind.why());
    let out = run_workload(kind, args);
    let defs = all_defs();
    out.print(&defs);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, out.to_json(&defs)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let listed = if args.trace {
        table::per_layer_defs()
    } else {
        table::end_to_end_defs()
    };
    println!("{}", out.result_line(&listed));
    if out.gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(3);
        }
    };
    if args.selfcheck {
        selfcheck::run(&args)
    } else if args.all {
        selfcheck::run_each(&args)
    } else {
        run_one(args.workloads[0], &args)
    }
}
