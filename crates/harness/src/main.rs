//! SimBench-rs experiment CLI. The full command line is the `USAGE`
//! constant below, printed by `--help` and after every usage error.
//!
//! `differ` runs the same binary on both engines in checkpointed
//! lockstep and compares architectural state digests; a mismatch is
//! bisected to the first divergent instruction and reported with a
//! named state diff (exit 1). `--workload` takes a benchmark or app
//! name, a `suite:`/`app:` id, or `all` for every suite benchmark the
//! guest supports; `--fuzz` sweeps N seeded random programs instead.
//!
//! `analyze` runs the static analyzer over guest images without
//! executing them on an engine: CFG recovery with invariant proofs and
//! a static event-profile prediction (`--check` verifies it
//! counter-for-counter against the reference interpreter).
//! `--workload all` (the default) sweeps every suite benchmark and app
//! the guest supports; `--fuzz SEED` analyzes the differ's seeded
//! program stream instead. `--out` persists the `simbench-analysis/v2`
//! artifact. Exit 1 when any subject has an invariant violation or
//! check mismatch.
//!
//! `lint` runs the hot-path source lint over the designated
//! allocation-free modules and checks the workspace line budget (exit 1
//! on any finding).
//!
//! `--quiet` / `-v` are global: they may appear anywhere on the command
//! line and set the stderr log level (warnings only / debug). Stdout
//! reports, persisted files and exit codes are level-independent —
//! `--quiet` can never change what a script parses.
//!
//! Observability: `campaign run --trace FILE` switches the process-wide
//! telemetry on, writes a Chrome trace-event JSON of the run's spans
//! and events to FILE, and snapshots the engine-metric registry into
//! the persisted campaign's `telemetry` block (rendered later by
//! `report`). `--progress` streams per-cell start/finish records on
//! stderr; `--progress=ndjson` emits them as one JSON object per line.
//!
//! Unknown flags and malformed values are hard errors: a typo must not
//! silently change what gets measured. Exit codes are part of the
//! interface: 0 clean, 1 failure or counter drift beyond `--tolerance`,
//! 2 a cell that completed in the baseline no longer completes, 3 usage
//! errors and unreadable inputs, 4 a journal data error (`--resume` on
//! a journal written for another campaign, or a journal that cannot be
//! created or reopened).

use std::io::Write as _;
use std::process::ExitCode;

use simbench_apps::App;
use simbench_campaign::{
    compare_counters, CampaignResult, CampaignSpec, EngineKind, Guest, RunnerOpts, Workload,
};
use simbench_dbt::QEMU_VERSIONS;
use simbench_harness::{fig4, fig5, model, MEASURED_FIGURES};
use simbench_suite::Benchmark;

const USAGE: &str = "usage: simbench-harness <fig2|fig3|fig4|fig5|fig6|fig7|fig8|all> \
                     [--scale N | --from CAMPAIGN.json] [--out FILE]
       simbench-harness campaign run [--scale N] [--jobs N] [--reps R] [--out FILE] [--name S]
                                     [--guests LIST] [--engines LIST] [--benches LIST]
                                     [--apps] [--versions]
                                     [--trace FILE] [--progress[=ndjson]]
                                     [--journal DIR | --resume DIR]
                                     [--cell-timeout SECS] [--retries N] [--failpoints SPEC]
       simbench-harness campaign compare <CURRENT.json> --baseline FILE [--tolerance FRAC]
       simbench-harness campaign list
       simbench-harness report <CAMPAIGN.json>
       simbench-harness model <calibrate|predict|validate> <CAMPAIGN.json>
                              [--guest G] [--engine E] [--profile-engine P] [--max-error FACTOR]
       simbench-harness differ <guest> <engineA> <engineB>
                               (--workload <W|all> | --fuzz SEED [--programs N])
                               [--max-insns K] [--checkpoints C] [--scale N]
       simbench-harness analyze <guest|all> [--workload <W|all> | --fuzz SEED [--programs N]]
                                [--scale N] [--fuel N] [--check] [--out FILE]
       simbench-harness lint [--root DIR]
       simbench-harness --list
global flags (anywhere on the line): --quiet (warnings only), -v/--verbose (debug)
exit codes: 0 clean, 1 failure/regression, 2 broken coverage, 3 usage,
            4 journal data error, 130 interrupted (SIGINT/SIGTERM)";

fn fail(msg: &str) -> ! {
    eprintln!("simbench-harness: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(3);
}

/// `"armlet | petix | riscle"` — the guest ids accepted on the CLI,
/// from the registry table.
fn guest_ids() -> String {
    Guest::ALL.map(|g| g.isa_name()).join(" | ")
}

/// Typed argument cursor with strict error reporting.
struct Args {
    args: std::vec::IntoIter<String>,
}

impl Args {
    fn new(args: Vec<String>) -> Self {
        Args {
            args: args.into_iter(),
        }
    }

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }

    fn value_of(&mut self, flag: &str) -> String {
        match self.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => fail(&format!("{flag} requires a value")),
        }
    }

    fn parse_of<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let raw = self.value_of(flag);
        raw.parse()
            .unwrap_or_else(|_| fail(&format!("invalid value for {flag}: {raw:?}")))
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // Global log-level flags are position-independent — `campaign run
    // --quiet` and `--quiet campaign run` mean the same thing — so they
    // are extracted before subcommand dispatch. Everything they affect
    // is stderr narration; stdout reports and exit codes never change.
    let quiet = argv.iter().any(|a| a == "--quiet");
    let verbose = argv.iter().any(|a| a == "-v" || a == "--verbose");
    if quiet && verbose {
        fail("--quiet conflicts with -v/--verbose");
    }
    argv.retain(|a| a != "--quiet" && a != "-v" && a != "--verbose");
    if quiet {
        simbench_obs::log::set_level(simbench_obs::log::LEVEL_QUIET);
    } else if verbose {
        simbench_obs::log::set_level(simbench_obs::log::LEVEL_DEBUG);
    }
    match argv.first().map(String::as_str) {
        Some("campaign") => {
            argv.remove(0);
            campaign_main(argv)
        }
        Some("report") => {
            argv.remove(0);
            report_main(argv)
        }
        Some("model") => {
            argv.remove(0);
            model_main(argv)
        }
        Some("differ") => {
            argv.remove(0);
            differ_main(argv)
        }
        Some("analyze") => {
            argv.remove(0);
            analyze_main(argv)
        }
        Some("lint") => {
            argv.remove(0);
            lint_main(argv)
        }
        _ => figures_main(argv),
    }
}

// ---------------------------------------------------------------------------
// Figure mode.
// ---------------------------------------------------------------------------

const FIGURES: [&str; 7] = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"];

fn figures_main(argv: Vec<String>) -> ExitCode {
    if argv.is_empty() {
        fail("missing figure name");
    }
    let mut which: Option<String> = None;
    let mut scale: Option<u64> = None;
    let mut from: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut args = Args::new(argv);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = Some(args.parse_of("--scale")),
            "--from" => from = Some(args.value_of("--from")),
            "--out" => out_path = Some(args.value_of("--out")),
            "--list" | "list" => {
                print!("{}", render_list());
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') && which.is_none() => which = Some(name.to_string()),
            name if !name.starts_with('-') => fail(&format!(
                "unexpected argument {name:?} (figure already given)"
            )),
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }
    let which = which.unwrap_or_else(|| fail("missing figure name"));
    if which != "all" && !FIGURES.contains(&which.as_str()) {
        fail(&format!("unknown figure {which:?}"));
    }
    if from.is_some() && scale.is_some() {
        fail("--from renders a stored campaign: --scale does not apply");
    }
    let scale = scale.unwrap_or(5000);
    if scale == 0 {
        fail("--scale must be at least 1");
    }
    let names: Vec<&str> = if which == "all" {
        ["fig5", "fig4"]
            .into_iter()
            .chain(MEASURED_FIGURES)
            .collect()
    } else {
        vec![which.as_str()]
    };

    // Every measured figure renders from one campaign: the stored one,
    // or the paper campaign measured once, on one worker, for the first
    // that needs it.
    let load_or_run = || match &from {
        Some(path) => load_timed(path),
        None => {
            let spec = CampaignSpec::paper(scale);
            simbench_obs::info!(
                "[paper campaign] {} jobs on 1 worker, scale {scale}",
                spec.expand().len()
            );
            let result = simbench_campaign::run(&spec, &RunnerOpts::serial());
            simbench_obs::info!("[paper campaign finished in {:.1}s]", result.wall_secs);
            result
        }
    };
    let mut campaign = None;
    let mut output = String::new();
    for name in names {
        let text = match name {
            "fig4" => fig4::run().1,
            "fig5" => fig5::run(),
            _ => simbench_harness::render(name, campaign.get_or_insert_with(load_or_run))
                .unwrap_or_else(|e| fail(&e)),
        };
        output.push_str(&text);
        output.push('\n');
    }

    print!("{output}");
    if let Some(path) = out_path {
        write_file(&path, output.as_bytes());
    }
    ExitCode::SUCCESS
}

/// Load a stored campaign whose timings are read, and say on stderr
/// when they were measured on more than one worker: workers share the
/// host, and their timings are noisier than one worker's.
fn load_timed(path: &str) -> CampaignResult {
    let result = CampaignResult::load(path).unwrap_or_else(|e| fail(&e.to_string()));
    if result.jobs > 1 {
        simbench_obs::warn!(
            "simbench-harness: {path} was measured on {} workers; its timings are noisier than one worker's",
            result.jobs
        );
    }
    result
}

// ---------------------------------------------------------------------------
// Campaign mode.
// ---------------------------------------------------------------------------

fn campaign_main(argv: Vec<String>) -> ExitCode {
    let mut args = Args::new(argv);
    match args.next().as_deref() {
        Some("run") => campaign_run(args),
        Some("compare") => campaign_compare(args),
        Some("list") => {
            print!("{}", render_list());
            ExitCode::SUCCESS
        }
        Some(other) => fail(&format!("unknown campaign subcommand {other:?}")),
        None => fail("campaign needs a subcommand: run | compare | list"),
    }
}

fn campaign_run(mut args: Args) -> ExitCode {
    let mut spec = CampaignSpec::full_matrix(20_000);
    spec.name = "campaign".to_string();
    let mut jobs = 1usize;
    let mut out_path: Option<String> = None;
    let mut version_sweep = false;
    let mut with_apps = false;
    let mut trace_path: Option<String> = None;
    let mut journal_dir: Option<String> = None;
    let mut resume_dir: Option<String> = None;
    let mut cell_timeout: Option<f64> = None;
    let mut retries = 0u32;
    let mut failpoints: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(args.value_of("--trace")),
            "--journal" => journal_dir = Some(args.value_of("--journal")),
            "--resume" => resume_dir = Some(args.value_of("--resume")),
            "--cell-timeout" => {
                let t: f64 = args.parse_of("--cell-timeout");
                if !(t > 0.0 && t.is_finite()) {
                    fail("--cell-timeout must be a positive number of seconds");
                }
                cell_timeout = Some(t);
            }
            "--retries" => retries = args.parse_of("--retries"),
            "--failpoints" => failpoints = Some(args.value_of("--failpoints")),
            "--progress" => {
                simbench_obs::progress::set_mode(simbench_obs::ProgressMode::Human);
            }
            "--progress=ndjson" => {
                simbench_obs::progress::set_mode(simbench_obs::ProgressMode::Ndjson);
            }
            "--scale" => spec.scale = args.parse_of("--scale"),
            "--jobs" => jobs = args.parse_of::<usize>("--jobs").max(1),
            "--reps" => spec.reps = args.parse_of::<u32>("--reps").max(1),
            "--out" => out_path = Some(args.value_of("--out")),
            "--name" => spec.name = args.value_of("--name"),
            "--guests" => {
                spec.guests = split_list(&args.value_of("--guests"))
                    .iter()
                    .map(|id| {
                        Guest::by_isa_name(id)
                            .unwrap_or_else(|| fail(&format!("unknown guest {id:?}")))
                    })
                    .collect();
            }
            "--engines" => {
                spec.engines = split_list(&args.value_of("--engines"))
                    .iter()
                    .map(|id| {
                        EngineKind::by_id(id)
                            .unwrap_or_else(|| fail(&format!("unknown engine {id:?}")))
                    })
                    .collect();
            }
            "--benches" => {
                spec.workloads = split_list(&args.value_of("--benches"))
                    .iter()
                    .map(|name| {
                        Benchmark::ALL
                            .iter()
                            .copied()
                            .find(|b| b.name().eq_ignore_ascii_case(name))
                            .map(Workload::Suite)
                            .unwrap_or_else(|| fail(&format!("unknown benchmark {name:?}")))
                    })
                    .collect();
            }
            "--apps" => with_apps = true,
            "--versions" => version_sweep = true,
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }
    if spec.scale == 0 {
        fail("--scale must be at least 1");
    }
    if version_sweep {
        // The twenty profiles join the engine axis, oldest first, in
        // place of any single DBT profile already on it.
        spec.engines.retain(|e| !matches!(e, EngineKind::Dbt(_)));
        spec.engines.extend(EngineKind::all_dbt_versions());
    }
    if with_apps {
        spec.workloads
            .extend(App::ALL.iter().copied().map(Workload::App));
    }
    if journal_dir.is_some() && resume_dir.is_some() {
        fail("--journal conflicts with --resume: --resume already appends to DIR's journal");
    }
    // Fault injection: the --failpoints flag wins over the
    // SIMBENCH_FAILPOINTS environment variable. A bad spec is a usage
    // error either way — injecting the wrong fault silently would make
    // every fault-tolerance test meaningless.
    match &failpoints {
        Some(fp) => simbench_campaign::failpoint::arm(fp).unwrap_or_else(|e| fail(&e)),
        None => {
            simbench_campaign::failpoint::arm_from_env().unwrap_or_else(|e| fail(&e));
        }
    }
    // Graceful shutdown: SIGINT/SIGTERM drains the runner at the next
    // repetition boundary and the partial artifact is still persisted.
    simbench_obs::shutdown::install();

    let cells = spec.cells().len();
    let total_jobs = spec.expand().len();
    simbench_obs::info!(
        "[campaign {}] {} guests × {} engines × {} workloads = {cells} cells, \
         {total_jobs} jobs on {jobs} worker(s), scale {}",
        spec.name,
        spec.guests.len(),
        spec.engines.len(),
        spec.workloads.len(),
        spec.scale,
    );
    // --trace arms the whole telemetry subsystem for this process:
    // spans/events for the trace file, metrics for the persisted
    // snapshot. Default runs keep both off — the recording sites then
    // cost one relaxed load + branch each, so the measurements a trace
    // run perturbs are only its own.
    if trace_path.is_some() {
        simbench_obs::set_tracing(true);
        simbench_obs::set_metrics(true);
    }
    let mut opts = RunnerOpts {
        jobs,
        verbose: false,
        cell_timeout: cell_timeout.map(std::time::Duration::from_secs_f64),
        retries,
        journal: None,
    };
    // Resume reconstructs finished cells from the write-ahead journal
    // and measures only the remainder; counters are deterministic, so
    // the resumed artifact is counter-exact against an uninterrupted
    // run. A --resume directory without a journal file degrades to a
    // fresh journaled start (the campaign never ran far enough to
    // record anything); a journal written for a *different* campaign
    // is a data error — resuming it would mismeasure.
    let mut done: Vec<(usize, simbench_campaign::CellResult)> = Vec::new();
    if let Some(dir) = &resume_dir {
        let journal_file = std::path::Path::new(dir).join(simbench_campaign::JOURNAL_FILE);
        if journal_file.exists() {
            let replayed = match simbench_campaign::replay(dir, &spec) {
                Ok(r) => r,
                Err(e) => {
                    simbench_obs::warn!("simbench-harness: cannot resume from {dir}: {e}");
                    return ExitCode::from(4);
                }
            };
            simbench_obs::info!(
                "[campaign {}: resuming from {dir} — {} finished cell(s) replayed from \
                 {} repetition record(s){}{}]",
                spec.name,
                replayed.cells.len(),
                replayed.reps,
                if replayed.broken > 0 {
                    format!(", {} broken cell(s) re-measured", replayed.broken)
                } else {
                    String::new()
                },
                if replayed.torn {
                    ", torn final record discarded"
                } else {
                    ""
                },
            );
            done = replayed.cells;
            match simbench_campaign::Journal::resume(dir) {
                Ok(j) => opts.journal = Some(std::sync::Arc::new(j)),
                Err(e) => {
                    simbench_obs::warn!("simbench-harness: cannot reopen journal in {dir}: {e}");
                    return ExitCode::from(4);
                }
            }
        } else {
            simbench_obs::warn!(
                "[campaign {}: no journal in {dir} — starting fresh (and journaling there)]",
                spec.name
            );
            match simbench_campaign::Journal::create(dir, &spec, None) {
                Ok(j) => opts.journal = Some(std::sync::Arc::new(j)),
                Err(e) => {
                    simbench_obs::warn!("simbench-harness: cannot create journal in {dir}: {e}");
                    return ExitCode::from(4);
                }
            }
        }
    } else if let Some(dir) = &journal_dir {
        match simbench_campaign::Journal::create(dir, &spec, None) {
            Ok(j) => opts.journal = Some(std::sync::Arc::new(j)),
            Err(e) => {
                simbench_obs::warn!("simbench-harness: cannot create journal in {dir}: {e}");
                return ExitCode::from(4);
            }
        }
    }
    let mut result = simbench_campaign::run_resumed(&spec, &opts, &done);
    simbench_obs::info!(
        "[campaign {} finished in {:.2}s]",
        spec.name,
        result.wall_secs
    );

    if trace_path.is_some() {
        let telemetry = simbench_campaign::Telemetry::from(simbench_obs::metrics::snapshot());
        if !telemetry.is_empty() {
            result.telemetry = Some(telemetry);
        }
    }
    print!("{}", render_summary(&result));
    if let Some(path) = out_path {
        let _obs = simbench_obs::span!("campaign.persist");
        write_file(&path, result.to_json().as_bytes());
    }
    if let Some(path) = trace_path {
        // Stop recording before draining, so the drain observes a
        // complete, quiescent set of rings (the persist span above is
        // the last thing recorded).
        simbench_obs::set_tracing(false);
        write_file(&path, simbench_obs::trace::chrome_trace_json().as_bytes());
    }
    // An interrupted run persisted a valid partial artifact above;
    // exit 130 tells the caller (and CI) the campaign is incomplete by
    // interruption, not by measurement failure.
    if simbench_obs::shutdown::interrupted() {
        simbench_obs::warn!(
            "[campaign {}: interrupted — partial artifact persisted, exiting 130]",
            spec.name
        );
        return ExitCode::from(simbench_obs::shutdown::EXIT_INTERRUPTED as u8);
    }
    // Expected matrix holes (`-` / `-†`) are fine; cells that *failed*
    // (limits, transient errors), quarantined (panicked) or timed out
    // mean the measurement run itself is unsound.
    let failed = result.cells.iter().any(|c| {
        use simbench_campaign::CellStatus;
        matches!(
            c.status,
            CellStatus::Failed(_) | CellStatus::Quarantined(_) | CellStatus::TimedOut(_)
        )
    });
    if failed {
        simbench_obs::warn!(
            "[campaign {}: some cells failed — exiting non-zero]",
            spec.name
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn campaign_compare(mut args: Args) -> ExitCode {
    let mut current_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 0.0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = Some(args.value_of("--baseline")),
            "--tolerance" => {
                tolerance = args.parse_of("--tolerance");
                if !(0.0..f64::INFINITY).contains(&tolerance) {
                    fail("--tolerance must be a non-negative fraction, e.g. 0.01");
                }
            }
            path if !path.starts_with('-') && current_path.is_none() => {
                current_path = Some(path.to_string())
            }
            path if !path.starts_with('-') => fail(&format!(
                "unexpected argument {path:?} (current result already given)"
            )),
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }
    let current_path = current_path.unwrap_or_else(|| fail("compare needs a current result file"));
    let baseline_path = baseline_path.unwrap_or_else(|| fail("compare needs --baseline FILE"));
    let current = CampaignResult::load(&current_path).unwrap_or_else(|e| fail(&e.to_string()));
    let baseline = CampaignResult::load(&baseline_path).unwrap_or_else(|e| fail(&e.to_string()));
    // Exit codes: 0 clean, 1 any counter difference beyond --tolerance
    // (counters are machine-independent, so CI hard-fails on it), 2 when
    // a cell that completed in the baseline no longer completes, 3 for
    // usage errors and unreadable inputs.
    let report = compare_counters(&baseline, &current, tolerance);
    print!("{}", report.render());
    if !report.broken().is_empty() {
        ExitCode::from(2)
    } else if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Model mode.
// ---------------------------------------------------------------------------

/// Shared argument set of the three model subcommands.
struct ModelArgs {
    result: CampaignResult,
    guest: String,
    engine: String,
    profile_engine: String,
    max_error: Option<f64>,
}

fn model_args(mut args: Args, verb: &str) -> ModelArgs {
    let mut campaign_path: Option<String> = None;
    let mut guest = "armlet".to_string();
    let mut engine = "dbt".to_string();
    let mut profile_engine: Option<String> = None;
    let mut max_error: Option<f64> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--guest" => {
                guest = args.value_of("--guest");
                if Guest::by_isa_name(&guest).is_none() {
                    fail(&format!("unknown guest {guest:?}"));
                }
            }
            "--engine" => engine = args.value_of("--engine"),
            "--profile-engine" if verb != "calibrate" => {
                profile_engine = Some(args.value_of("--profile-engine"))
            }
            "--max-error" if verb == "validate" => {
                let f: f64 = args.parse_of("--max-error");
                if f < 1.0 || f.is_nan() {
                    fail("--max-error is an error *factor*, so it must be >= 1.0");
                }
                max_error = Some(f);
            }
            // Flags that exist but don't apply to this subcommand are
            // rejected, not ignored: accepting a gate like --max-error
            // and never consulting it would silently weaken CI.
            flag @ ("--profile-engine" | "--max-error") => {
                fail(&format!("{flag} does not apply to model {verb}"))
            }
            path if !path.starts_with('-') && campaign_path.is_none() => {
                campaign_path = Some(path.to_string())
            }
            path if !path.starts_with('-') => fail(&format!(
                "unexpected argument {path:?} (campaign file already given)"
            )),
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }
    let path = campaign_path.unwrap_or_else(|| fail("model needs a stored campaign JSON file"));
    let result = load_timed(&path);
    // Engine ids are validated against the known set and canonicalized
    // (`dbt` means the latest version profile) before cell lookup.
    let engine = EngineKind::by_id(&engine)
        .unwrap_or_else(|| fail(&format!("unknown engine {engine:?}")))
        .id();
    let profile_engine = match profile_engine {
        Some(p) => EngineKind::by_id(&p)
            .unwrap_or_else(|| fail(&format!("unknown engine {p:?}")))
            .id(),
        // calibrate never reads profiles; don't scan for a default.
        None if verb == "calibrate" => String::new(),
        None => model::default_profile_engine(&result, &guest, &engine),
    };
    ModelArgs {
        result,
        guest,
        engine,
        profile_engine,
        max_error,
    }
}

fn model_main(argv: Vec<String>) -> ExitCode {
    use simbench_campaign::table::{fmt_secs, Table};

    let mut args = Args::new(argv);
    let verb = match args.next() {
        Some(v) => v,
        None => fail("model needs a subcommand: calibrate | predict | validate"),
    };
    // Validate the verb before touching flags or loading the campaign,
    // so a typo'd subcommand is reported as exactly that.
    if !matches!(verb.as_str(), "calibrate" | "predict" | "validate") {
        fail(&format!("unknown model subcommand {verb:?}"));
    }
    let m = model_args(args, &verb);
    match verb.as_str() {
        "calibrate" => {
            let cost = model::CostModel::from_campaign(&m.result, &m.guest, &m.engine)
                .unwrap_or_else(|e| fail(&e));
            println!(
                "cost model for {}/{} (campaign {:?}, scale {})",
                m.guest, m.engine, m.result.name, m.result.scale
            );
            println!("  base cost per instruction: {:.3e} s", cost.per_insn);
            let mut table = Table::new(["benchmark", "cost per tested op"]);
            for (bench, cost) in &cost.per_op {
                table.row([bench.name().to_string(), format!("{cost:.3e} s")]);
            }
            print!("{}", table.render());
            ExitCode::SUCCESS
        }
        "predict" | "validate" => {
            let preds =
                model::predict_from_campaign(&m.result, &m.guest, &m.engine, &m.profile_engine)
                    .unwrap_or_else(|e| fail(&e));
            println!(
                "model {verb} for {}/{} — costs calibrated from campaign {:?}, \
                 app event profiles from engine {}",
                m.guest, m.engine, m.result.name, m.profile_engine
            );
            let validating = verb == "validate";
            if validating && preds.iter().all(|p| p.measured.is_none()) {
                fail(&format!(
                    "campaign {:?} has no measured app cells for {}/{} to validate against",
                    m.result.name, m.guest, m.engine
                ));
            }
            let mut table = Table::new(["app", "predicted", "measured", "error factor"]);
            let mut errors = Vec::new();
            for p in &preds {
                let error = p.error_factor();
                if let Some(e) = error {
                    errors.push(e);
                }
                table.row([
                    p.app.clone(),
                    fmt_secs(p.predicted),
                    p.measured.map(fmt_secs).unwrap_or_else(|| "-".to_string()),
                    error
                        .map(|e| format!("{e:.2}×"))
                        .unwrap_or_else(|| "-".to_string()),
                ]);
            }
            print!("{}", table.render());
            if validating {
                let geo = simbench_campaign::geomean(&errors);
                let max = errors.iter().cloned().fold(f64::MIN, f64::max);
                println!(
                    "prediction error over {} app(s): geomean {geo:.2}×, worst {max:.2}×",
                    errors.len()
                );
                if let Some(limit) = m.max_error {
                    if geo > limit {
                        simbench_obs::warn!(
                            "[model validate: geomean error {geo:.2}× exceeds --max-error {limit}×]"
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        _ => unreachable!("verb validated above"),
    }
}

// ---------------------------------------------------------------------------
// Report mode.
// ---------------------------------------------------------------------------

/// `report <CAMPAIGN.json>`: the human summary of a stored campaign
/// plus its `telemetry` block — engine-metric counters and histograms
/// snapshotted by `campaign run --trace`.
fn report_main(argv: Vec<String>) -> ExitCode {
    let mut args = Args::new(argv);
    let mut campaign_path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            path if !path.starts_with('-') && campaign_path.is_none() => {
                campaign_path = Some(path.to_string())
            }
            path if !path.starts_with('-') => fail(&format!(
                "unexpected argument {path:?} (campaign file already given)"
            )),
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }
    let path = campaign_path.unwrap_or_else(|| fail("report needs a stored campaign JSON file"));
    let result = CampaignResult::load(&path).unwrap_or_else(|e| fail(&e.to_string()));
    print!("{}", render_summary(&result));
    print!("{}", simbench_harness::report::render_telemetry(&result));
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Differ mode.
// ---------------------------------------------------------------------------

fn differ_main(argv: Vec<String>) -> ExitCode {
    use simbench_differ::{check_workload, fuzz_pair, DifferConfig};

    let mut args = Args::new(argv);
    let guest_id = args
        .next()
        .unwrap_or_else(|| fail("differ needs <guest> <engineA> <engineB>"));
    let guest = Guest::by_isa_name(&guest_id)
        .unwrap_or_else(|| fail(&format!("unknown guest {guest_id:?} ({})", guest_ids())));
    let parse_engine = |id: Option<String>| {
        let id = id.unwrap_or_else(|| fail("differ needs <guest> <engineA> <engineB>"));
        EngineKind::by_id(&id).unwrap_or_else(|| {
            fail(&format!(
                "unknown engine {id:?} (interp | dbt[@VERSION] | detailed | virt | native)"
            ))
        })
    };
    let engine_a = parse_engine(args.next());
    let engine_b = parse_engine(args.next());

    let mut workload: Option<String> = None;
    let mut fuzz_seed: Option<u64> = None;
    let mut programs = 25u32;
    let mut cfg = DifferConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = Some(args.value_of("--workload")),
            "--fuzz" => fuzz_seed = Some(args.parse_of("--fuzz")),
            "--programs" => programs = args.parse_of("--programs"),
            "--max-insns" => cfg.max_insns = args.parse_of("--max-insns"),
            "--checkpoints" => cfg.checkpoints = args.parse_of("--checkpoints"),
            "--scale" => cfg.scale = args.parse_of("--scale"),
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }

    // Ctrl-C / SIGTERM stops the sweep before the next subject: the
    // comparisons already completed are still reported, and the exit
    // code says "interrupted", not "agree" or "disagree".
    simbench_obs::shutdown::install();
    let (reports, planned) = match (workload, fuzz_seed) {
        (Some(_), Some(_)) => fail("--workload conflicts with --fuzz"),
        (None, None) => fail("differ needs --workload <W|all> or --fuzz SEED"),
        (Some(w), None) => {
            let workloads: Vec<Workload> = if w == "all" {
                CampaignSpec::suite_workloads()
                    .into_iter()
                    .filter(|wl| wl.supported_on(guest))
                    .collect()
            } else {
                vec![named_workload(&w)]
            };
            let planned = workloads.len();
            let mut reports = Vec::with_capacity(planned);
            for wl in workloads {
                if simbench_obs::shutdown::interrupted() {
                    break;
                }
                reports.push(
                    check_workload(guest, wl, engine_a, engine_b, &cfg).unwrap_or_else(|| {
                        fail(&format!(
                            "workload {:?} does not exist on guest {:?}",
                            wl.id(),
                            guest.isa_name()
                        ))
                    }),
                );
            }
            (reports, planned)
        }
        (None, Some(_)) if programs == 0 => {
            fail("nothing to compare (with --fuzz, --programs must be at least 1)")
        }
        (None, Some(seed)) => (
            fuzz_pair(guest, engine_a, engine_b, seed, programs, &cfg),
            programs as usize,
        ),
    };

    let mut disagreements = 0usize;
    for report in &reports {
        print!("{}", report.render());
        if !report.agree() {
            disagreements += 1;
        }
    }
    if simbench_obs::shutdown::interrupted() {
        println!(
            "differ: interrupted — {} of {planned} comparison(s) completed, {} agree",
            reports.len(),
            reports.len() - disagreements,
        );
        return ExitCode::from(simbench_obs::shutdown::EXIT_INTERRUPTED as u8);
    }
    println!(
        "differ: {}/{} comparison(s) agree",
        reports.len() - disagreements,
        reports.len()
    );
    if disagreements > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Resolve a named `--workload`: a `suite:`/`app:` id or a bare
/// benchmark/app name (case-insensitive). What `all` expands to is the
/// caller's to decide.
fn named_workload(selector: &str) -> Workload {
    Workload::by_id(selector)
        .or_else(|| {
            CampaignSpec::suite_workloads()
                .into_iter()
                .chain(CampaignSpec::app_workloads())
                .find(|wl| wl.name().eq_ignore_ascii_case(selector))
        })
        .unwrap_or_else(|| {
            fail(&format!(
                "unknown workload {selector:?} (try a name from `campaign list`, a suite:/app: id, or `all`)"
            ))
        })
}

// ---------------------------------------------------------------------------
// Analyze mode.
// ---------------------------------------------------------------------------

fn analyze_main(argv: Vec<String>) -> ExitCode {
    use simbench_analyzer::{analyze_fuzz, analyze_workload, AnalyzeOpts};

    let mut args = Args::new(argv);
    let guest_id = args
        .next()
        .unwrap_or_else(|| fail("analyze needs <guest|all>"));
    let guests: Vec<Guest> = if guest_id == "all" {
        Guest::ALL.to_vec()
    } else {
        vec![Guest::by_isa_name(&guest_id).unwrap_or_else(|| {
            fail(&format!(
                "unknown guest {guest_id:?} ({} | all)",
                guest_ids()
            ))
        })]
    };

    let mut workload: Option<String> = None;
    let mut fuzz_seed: Option<u64> = None;
    let mut programs = 25u32;
    let mut scale = 20_000u64;
    let mut out_path: Option<String> = None;
    let mut opts = AnalyzeOpts::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = Some(args.value_of("--workload")),
            "--fuzz" => fuzz_seed = Some(args.parse_of("--fuzz")),
            "--programs" => programs = args.parse_of("--programs"),
            "--scale" => scale = args.parse_of("--scale"),
            "--fuel" => opts.fuel = args.parse_of("--fuel"),
            "--check" => opts.check = true,
            "--out" => out_path = Some(args.value_of("--out")),
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }
    if scale == 0 {
        fail("--scale must be at least 1");
    }
    if opts.fuel == 0 {
        fail("--fuel must be at least 1");
    }

    // Ctrl-C / SIGTERM stops the sweep before the next subject; the
    // analyses already completed are reported (and persisted with
    // --out) and the exit code says "interrupted".
    simbench_obs::shutdown::install();
    let interrupted = || simbench_obs::shutdown::interrupted();
    let analyses: Vec<simbench_analyzer::SubjectAnalysis> = match (workload, fuzz_seed) {
        (Some(_), Some(_)) => fail("--workload conflicts with --fuzz"),
        (w, None) => {
            let selector = w.unwrap_or_else(|| "all".to_string());
            let explicit = selector != "all";
            // `all`: every suite benchmark and app; matrix holes are
            // skipped per guest below.
            let workloads = if explicit {
                vec![named_workload(&selector)]
            } else {
                let mut all = CampaignSpec::suite_workloads();
                all.extend(CampaignSpec::app_workloads());
                all
            };
            guests
                .iter()
                .flat_map(|&guest| workloads.iter().map(move |&wl| (guest, wl)))
                .take_while(|_| !interrupted())
                .filter_map(|(guest, wl)| {
                    let a = analyze_workload(guest, wl, scale, &opts);
                    // Matrix holes are expected under `all`, but a
                    // workload the user named must exist on the guest.
                    if a.is_none() && explicit {
                        fail(&format!(
                            "workload {:?} does not exist on guest {:?}",
                            wl.id(),
                            guest.isa_name()
                        ));
                    }
                    a
                })
                .collect()
        }
        (None, Some(seed)) => guests
            .iter()
            .flat_map(|&guest| (0..programs).map(move |k| (guest, k)))
            .take_while(|_| !interrupted())
            .map(|(guest, k)| analyze_fuzz(guest, seed, k, &opts))
            .collect(),
    };
    if analyses.is_empty() && !interrupted() {
        fail("nothing to analyze (with --fuzz, --programs must be at least 1)");
    }

    let mut problems = 0usize;
    for a in &analyses {
        println!("{}", a.render_line());
        for line in a.render_problems() {
            println!("{line}");
        }
        if !a.ok() {
            problems += 1;
        }
    }
    if let Some(path) = out_path {
        write_file(&path, simbench_analyzer::to_json(&analyses).as_bytes());
    }
    if interrupted() {
        println!(
            "analyze: interrupted — {} subject(s) completed, {} clean",
            analyses.len(),
            analyses.len() - problems,
        );
        return ExitCode::from(simbench_obs::shutdown::EXIT_INTERRUPTED as u8);
    }
    println!(
        "analyze: {}/{} subject(s) clean",
        analyses.len() - problems,
        analyses.len()
    );
    if problems > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------------------------------------------------------------------
// Lint mode.
// ---------------------------------------------------------------------------

fn lint_main(argv: Vec<String>) -> ExitCode {
    let mut args = Args::new(argv);
    let mut root: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = Some(args.value_of("--root")),
            flag => fail(&format!("unknown flag {flag:?}")),
        }
    }
    let root = root.unwrap_or_else(|| ".".to_string());
    let findings = simbench_analyzer::lint_root(std::path::Path::new(&root));
    for f in &findings {
        println!("{f}");
    }
    println!(
        "lint: {} finding(s) across {} hot-path file(s)",
        findings.len(),
        simbench_analyzer::HOT_PATH_FILES.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

fn split_list(raw: &str) -> Vec<String> {
    let items: Vec<String> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if items.is_empty() {
        fail(&format!("empty list {raw:?}"));
    }
    items
}

fn write_file(path: &str, bytes: &[u8]) {
    let mut f =
        std::fs::File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
    f.write_all(bytes)
        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    simbench_obs::info!("[wrote {path}]");
}

/// What `--list` and `campaign list` print: every selectable figure,
/// benchmark, app, engine and version.
fn render_list() -> String {
    let mut out = String::from("figures:\n");
    for f in FIGURES {
        out.push_str(&format!("  {f}\n"));
    }
    out.push_str("  all\n\nbenchmarks (--benches):\n");
    for b in Benchmark::ALL {
        out.push_str(&format!("  {:<28} [{}]\n", b.name(), b.category().name()));
    }
    out.push_str("\napps (--apps adds all):\n");
    for a in App::ALL {
        out.push_str(&format!("  {}\n", a.name()));
    }
    out.push_str("\nengines (--engines):\n");
    for e in EngineKind::fig7_columns() {
        out.push_str(&format!("  {:<18} {}\n", e.id(), e.name()));
    }
    out.push_str("\nDBT versions (dbt@<version>, --versions adds all):\n");
    for v in QEMU_VERSIONS {
        out.push_str(&format!("  {}\n", v.name));
    }
    out.push_str("\nguests (--guests):\n");
    for g in Guest::ALL {
        out.push_str(&format!("  {:<18} {}\n", g.isa_name(), g.name()));
    }
    out
}

/// Human summary of a finished campaign: per engine, the geomean of its
/// cells' times (each the floor of the cell's repetitions), plus any
/// problem cells.
fn render_summary(result: &CampaignResult) -> String {
    use simbench_campaign::table::{fmt_secs, Table};
    use simbench_campaign::CellStatus;

    let mut out = format!(
        "campaign {} — scale {}, {} rep(s), time = floor of the reps, {} cells\n\n",
        result.name,
        result.scale,
        result.reps,
        result.cells.len()
    );
    let mut table = Table::new(["guest", "engine", "ok", "geomean floor secs", "flagged"]);
    for (key, cells) in
        simbench_campaign::result::group_by(&result.cells, |c| (c.guest.clone(), c.engine.clone()))
    {
        let ok: Vec<f64> = cells.iter().filter_map(|c| c.metric()).collect();
        let flagged = cells.iter().filter(|c| c.status.is_broken()).count();
        table.row([
            key.0,
            key.1,
            format!("{}/{}", ok.len(), cells.len()),
            if ok.is_empty() {
                "-".to_string()
            } else {
                fmt_secs(simbench_campaign::geomean(&ok))
            },
            if flagged == 0 {
                String::new()
            } else {
                format!("{flagged}")
            },
        ]);
    }
    out.push_str(&table.render());
    // Problem cells, one section per kind, so a fault-isolated run
    // names every hole in its coverage: failed (limits, transient
    // errors, interrupts), quarantined (panicking engines) and
    // timed-out (hung engines) cells are never silent.
    for (title, pick) in [
        (
            "failed cells",
            &(|s: &CellStatus| match s {
                CellStatus::Failed(why) => Some(why.clone()),
                _ => None,
            }) as &dyn Fn(&CellStatus) -> Option<String>,
        ),
        (
            "quarantined cells (engine panicked)",
            &|s: &CellStatus| match s {
                CellStatus::Quarantined(payload) => Some(payload.clone()),
                _ => None,
            },
        ),
        ("timed-out cells", &|s: &CellStatus| match s {
            CellStatus::TimedOut(why) => Some(why.clone()),
            _ => None,
        }),
    ] {
        let listed: Vec<String> = result
            .cells
            .iter()
            .filter_map(|c| {
                pick(&c.status)
                    .map(|why| format!("  {}/{} {}: {why}\n", c.guest, c.engine, c.workload))
            })
            .collect();
        if !listed.is_empty() {
            out.push_str(&format!("\n{title}:\n"));
            for line in listed {
                out.push_str(&line);
            }
        }
    }
    out
}
