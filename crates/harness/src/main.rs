//! SimBench-rs experiment CLI. [`FLAGS`] declares every flag once,
//! with the check its value must pass; [`COMMANDS`] gives each command
//! its positionals and the flags it takes. [`parse`] reads the command
//! line against them and `--help` prints them. Unknown flags and
//! malformed values are hard errors: a typo must not silently change
//! what gets measured.
//!
//! `--quiet` / `-v` set the stderr log level only: stdout reports,
//! persisted files and exit codes are level-independent, so `--quiet`
//! can never change what a script parses.
//!
//! Observability: `campaign run --trace FILE` switches the process-wide
//! telemetry on, writes a Chrome trace-event JSON of the run's spans
//! and events to FILE, and snapshots the engine-metric registry into
//! the persisted campaign's `telemetry` block (rendered later by
//! `report`). `--progress` streams per-cell start/finish records on
//! stderr; `--progress=ndjson` emits them as one JSON object per line.
//!
//! Exit 4 is a journal data error: `--resume` on a journal written for
//! another campaign, or a journal that cannot be created or reopened.

use std::io::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

use simbench_apps::App;
use simbench_campaign::{
    compare_counters, CampaignResult, CampaignSpec, EngineKind, Guest, RunnerOpts, Workload,
};
use simbench_dbt::QEMU_VERSIONS;
use simbench_harness::{fig4, fig5, model, MEASURED_FIGURES};
use simbench_suite::Benchmark;

/// Every flag the line knows, declared once: its name, the placeholder
/// `--help` shows for its value (none for a switch) and the check the
/// value must pass. A flag means the same on every command that takes it.
const FLAGS: &[Flag] = &[
    Flag("--scale", "N", AtLeast(1)),
    Flag("--from", "CAMPAIGN.json", Any),
    Flag("--out", "FILE", Any),
    Flag("--list", "", Any),
    Flag("--help", "", Any),
    Flag("-h", "", Any),
    Flag("--jobs", "N", AtLeast(1)),
    Flag("--reps", "R", AtLeast(1)),
    Flag("--name", "S", Any),
    Flag("--guests", "LIST", Any),
    Flag("--engines", "LIST", Any),
    Flag("--benches", "LIST", Any),
    Flag("--apps", "", Any),
    Flag("--versions", "", Any),
    Flag("--trace", "FILE", Any),
    Flag("--progress", "", Any),
    Flag("--progress=ndjson", "", Any),
    Flag("--journal", "DIR", Any),
    Flag("--resume", "DIR", Any),
    Flag("--cell-timeout", "SECS", Secs),
    Flag("--retries", "N", AtLeast(0)),
    Flag("--failpoints", "SPEC", Any),
    Flag("--baseline", "FILE", Any),
    Flag("--tolerance", "FRAC", Fraction),
    Flag("--guest", "G", Any),
    Flag("--engine", "E", Any),
    Flag("--profile-engine", "P", Any),
    Flag("--max-error", "FACTOR", Factor),
    Flag("--workload", "<W|all>", Any),
    Flag("--fuzz", "SEED", AtLeast(0)),
    Flag("--programs", "N", AtLeast(0)),
    Flag("--max-insns", "K", AtLeast(0)),
    Flag("--checkpoints", "C", AtLeast(0)),
    Flag("--fuel", "N", AtLeast(1)),
    Flag("--check", "", Any),
    Flag("--root", "DIR", Any),
];

struct Flag(&'static str, &'static str, Check);

/// What a flag's value must be, checked as the line is parsed.
#[derive(Clone, Copy)]
enum Check {
    /// Any text; a switch has none.
    Any,
    /// An unsigned integer of at least this.
    AtLeast(u64),
    /// A positive, finite number of seconds.
    Secs,
    /// A non-negative, finite fraction.
    Fraction,
    /// An error factor of at least 1.0.
    Factor,
}

use Check::*;

/// A command: the words that select it, its positionals, the flags it
/// takes and what it runs.
struct Command {
    /// The words that select it; the figures, selected by default, have none.
    name: &'static str,
    /// Its positionals, one word each, as `--help` shows them.
    args: &'static str,
    /// The flags it takes, by name.
    flags: &'static str,
    /// The usage error of a line that lacks a positional.
    missing: &'static str,
    /// What the error of an extra positional says is already given.
    given: &'static str,
    run: fn(&Parsed) -> ExitCode,
}

/// Every command. The figures come first: a line whose first word names
/// no other command is theirs.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "", args: "<fig2|fig3|fig4|fig5|fig6|fig7|fig8|all>",
              flags: "--scale --from --out --list --help -h",
              missing: "missing figure name", given: "figure", run: figures_main },
    Command { name: "campaign run", args: "",
              flags: "--scale --jobs --reps --out --name --guests --engines --benches --apps \
                      --versions --trace --progress --progress=ndjson --journal --resume \
                      --cell-timeout --retries --failpoints",
              missing: "", given: "", run: campaign_run },
    Command { name: "campaign compare", args: "<CURRENT.json>", flags: "--baseline --tolerance",
              missing: "compare needs a current result file", given: "current result",
              run: campaign_compare },
    Command { name: "campaign list", args: "", flags: "", missing: "", given: "", run: list_main },
    Command { name: "report", args: "<CAMPAIGN.json>", flags: "",
              missing: "report needs a stored campaign JSON file", given: "campaign file",
              run: report_main },
    Command { name: "model calibrate", args: "<CAMPAIGN.json>", flags: "--guest --engine",
              missing: "model needs a stored campaign JSON file", given: "campaign file",
              run: model_main },
    Command { name: "model predict", args: "<CAMPAIGN.json>",
              flags: "--guest --engine --profile-engine",
              missing: "model needs a stored campaign JSON file", given: "campaign file",
              run: model_main },
    Command { name: "model validate", args: "<CAMPAIGN.json>",
              flags: "--guest --engine --profile-engine --max-error",
              missing: "model needs a stored campaign JSON file", given: "campaign file",
              run: model_main },
    Command { name: "differ", args: "<guest> <engineA> <engineB>",
              flags: "--workload --fuzz --programs --max-insns --checkpoints --scale",
              missing: "differ needs <guest> <engineA> <engineB>", given: "guest and engines",
              run: differ_main },
    Command { name: "analyze", args: "<guest|all>",
              flags: "--workload --fuzz --programs --scale --fuel --check --out",
              missing: "analyze needs <guest|all>", given: "guest", run: analyze_main },
    Command { name: "lint", args: "", flags: "--root", missing: "", given: "", run: lint_main },
];

impl Command {
    fn takes(&self, flag: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == flag)
    }
}

/// The declaration of `name`, a flag some command takes.
fn flag(name: &str) -> &'static Flag {
    let declared = FLAGS.iter().find(|f| f.0 == name);
    declared.unwrap_or_else(|| panic!("{name} is not declared in FLAGS"))
}

/// What `--help` prints below the commands.
const USAGE_TAIL: &str = "\
global flags (anywhere on the line): --quiet (warnings only), -v/--verbose (debug)
exit codes: 0 clean, 1 failure/regression, 2 broken coverage, 3 usage,
            4 journal data error, 130 interrupted (SIGINT/SIGTERM)";

/// The usage text: every command with its positionals and flags, from
/// [`COMMANDS`], then [`USAGE_TAIL`].
fn usage() -> String {
    let mut out = String::new();
    for (i, c) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage: " } else { "       " };
        let head = format!("{lead}simbench-harness {}", c.name);
        let head = head.trim_end();
        let mut line = format!("{head} {}", c.args).trim_end().to_string();
        for &Flag(name, value, _) in c.flags.split_whitespace().map(flag) {
            let flag = format!(" [{}]", [name, value].join(" ").trim());
            if line.len() + flag.len() > 100 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(head.len());
            }
            line.push_str(&flag);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out + USAGE_TAIL
}

fn fail(msg: &str) -> ! {
    eprintln!("simbench-harness: {msg}");
    eprintln!("{}", usage());
    std::process::exit(3);
}

/// `raw` as the number `flag` takes.
fn number<T: FromStr>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| fail(&format!("invalid value for {flag}: {raw:?}")))
}

/// Fail unless `raw` passes `flag`'s check.
fn check(flag: &str, raw: &str, check: Check) {
    let real = || number::<f64>(flag, raw);
    let why = match check {
        Any => return,
        AtLeast(min) if number::<u64>(flag, raw) >= min => return,
        AtLeast(min) => format!("must be at least {min}"),
        Secs if matches!(real(), t if t > 0.0 && t.is_finite()) => return,
        Secs => "must be a positive number of seconds".to_string(),
        Fraction if (0.0..f64::INFINITY).contains(&real()) => return,
        Fraction => "must be a non-negative fraction, e.g. 0.01".to_string(),
        Factor if real() >= 1.0 => return,
        Factor => "is an error *factor*, so it must be >= 1.0".to_string(),
    };
    fail(&format!("{flag} {why}"));
}

/// A command line parsed against its [`Command`].
struct Parsed {
    cmd: &'static Command,
    args: Vec<String>,
    /// Each flag given, in order, with its value ("" for a switch).
    flags: Vec<(&'static str, String)>,
}

impl Parsed {
    /// Positional `i`; a line without it fails with the command's usage error.
    fn arg(&self, i: usize) -> &str {
        self.args
            .get(i)
            .map_or_else(|| fail(self.cmd.missing), String::as_str)
    }

    /// The value of `flag`, the last one where it is given twice.
    fn text(&self, flag: &str) -> Option<&str> {
        let mut given = self.flags.iter().rev();
        given.find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    /// The value of `flag` as a number, which its check has accepted.
    fn num<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.text(flag).map(|raw| number(flag, raw))
    }
}

/// The words that select a command: the first, and for a command of
/// several verbs the second.
fn words(c: &Command) -> (&str, &str) {
    c.name.split_once(' ').unwrap_or((c.name, ""))
}

/// Parse a command line against [`COMMANDS`]: the global log-level
/// flags anywhere on it, then the words that select a command, then its
/// positionals and its flags, each value checked. Every usage error in
/// the shape of the line fails here, before anything is read or run.
fn parse(mut argv: Vec<String>) -> Parsed {
    // `campaign run --quiet` and `--quiet campaign run` mean the same.
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

    let first = argv.first().cloned().unwrap_or_default();
    let group: Vec<&'static Command> = COMMANDS
        .iter()
        .filter(|c| !c.name.is_empty() && words(c).0 == first)
        .collect();
    let cmd = match group[..] {
        [] => &COMMANDS[0],
        [c] if c.name == first => c,
        _ => match argv.get(1) {
            Some(verb) => group
                .iter()
                .find(|c| words(c).1 == verb)
                .unwrap_or_else(|| fail(&format!("unknown {first} subcommand {verb:?}"))),
            None => {
                let verbs: Vec<&str> = group.iter().map(|c| words(c).1).collect();
                fail(&format!(
                    "{first} needs a subcommand: {}",
                    verbs.join(" | ")
                ))
            }
        },
    };
    let arity = cmd.args.split_whitespace().count();
    let mut parsed = Parsed {
        cmd,
        args: Vec::new(),
        flags: Vec::new(),
    };
    let mut argv = argv.into_iter().skip(cmd.name.split_whitespace().count());
    while let Some(arg) = argv.next() {
        if !arg.starts_with('-') {
            if parsed.args.len() == arity {
                let given = match cmd.given {
                    "" => String::new(),
                    what => format!(" ({what} already given)"),
                };
                fail(&format!("unexpected argument {arg:?}{given}"));
            }
            parsed.args.push(arg);
            continue;
        }
        if !cmd.takes(&arg) {
            // A flag that another verb of this command takes is refused
            // by name, not ignored: a gate never consulted (`--max-error`
            // on `model calibrate`) would silently weaken CI.
            if group.iter().any(|c| c.takes(&arg)) {
                fail(&format!("{arg} does not apply to {}", cmd.name));
            }
            fail(&format!("unknown flag {arg:?}"));
        }
        let &Flag(name, value, rule) = flag(&arg);
        let raw = match value {
            "" => String::new(),
            _ => argv
                .next()
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| fail(&format!("{name} requires a value"))),
        };
        check(name, &raw, rule);
        parsed.flags.push((name, raw));
    }
    parsed
}

fn main() -> ExitCode {
    let parsed = parse(std::env::args().skip(1).collect());
    (parsed.cmd.run)(&parsed)
}

/// `"armlet | petix | riscle"` — the guest ids accepted on the CLI,
/// from the registry table.
fn guest_ids() -> String {
    Guest::ALL.map(|g| g.isa_name()).join(" | ")
}

// ---------------------------------------------------------------------------
// Figure mode.
// ---------------------------------------------------------------------------

const FIGURES: [&str; 7] = ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"];

fn figures_main(p: &Parsed) -> ExitCode {
    if p.has("--help") || p.has("-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if p.has("--list") || p.args.first().is_some_and(|a| a == "list") {
        return list_main(p);
    }
    let which = p.arg(0);
    if which != "all" && !FIGURES.contains(&which) {
        fail(&format!("unknown figure {which:?}"));
    }
    let from = p.text("--from");
    if from.is_some() && p.has("--scale") {
        fail("--from renders a stored campaign: --scale does not apply");
    }
    let scale = p.num("--scale").unwrap_or(5000);
    let names: Vec<&str> = if which == "all" {
        ["fig5", "fig4"]
            .into_iter()
            .chain(MEASURED_FIGURES)
            .collect()
    } else {
        vec![which]
    };

    // Every measured figure renders from one campaign: the stored one,
    // or the paper campaign measured once, on one worker, for the first
    // that needs it.
    let load_or_run = || match from {
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
    if let Some(path) = p.text("--out") {
        write_file(path, output.as_bytes());
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

fn campaign_run(p: &Parsed) -> ExitCode {
    let mut spec = CampaignSpec::full_matrix(p.num("--scale").unwrap_or(20_000));
    spec.name = p.text("--name").unwrap_or("campaign").to_string();
    spec.reps = p.num("--reps").unwrap_or(1);
    let jobs = p.num("--jobs").unwrap_or(1);
    if let Some(raw) = p.text("--guests") {
        spec.guests = list_of(raw, "guest", Guest::by_isa_name);
    }
    if let Some(raw) = p.text("--engines") {
        spec.engines = list_of(raw, "engine", EngineKind::by_id);
    }
    if let Some(raw) = p.text("--benches") {
        spec.workloads = list_of(raw, "benchmark", |name| {
            Benchmark::ALL
                .iter()
                .copied()
                .find(|b| b.name().eq_ignore_ascii_case(name))
                .map(Workload::Suite)
        });
    }
    if p.has("--versions") {
        // The twenty profiles join the engine axis, oldest first, in
        // place of any single DBT profile already on it.
        spec.engines.retain(|e| !matches!(e, EngineKind::Dbt(_)));
        spec.engines.extend(EngineKind::all_dbt_versions());
    }
    if p.has("--apps") {
        spec.workloads
            .extend(App::ALL.iter().copied().map(Workload::App));
    }
    if p.has("--progress=ndjson") {
        simbench_obs::progress::set_mode(simbench_obs::ProgressMode::Ndjson);
    } else if p.has("--progress") {
        simbench_obs::progress::set_mode(simbench_obs::ProgressMode::Human);
    }
    let trace_path = p.text("--trace");
    let journal_dir = p.text("--journal");
    let resume_dir = p.text("--resume");
    if journal_dir.is_some() && resume_dir.is_some() {
        fail("--journal conflicts with --resume: --resume already appends to DIR's journal");
    }
    // Fault injection: the --failpoints flag wins over the
    // SIMBENCH_FAILPOINTS environment variable. A bad spec is a usage
    // error either way — injecting the wrong fault silently would make
    // every fault-tolerance test meaningless.
    match p.text("--failpoints") {
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
        cell_timeout: p
            .num("--cell-timeout")
            .map(std::time::Duration::from_secs_f64),
        retries: p.num("--retries").unwrap_or(0),
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
    if let Some(dir) = resume_dir {
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
    } else if let Some(dir) = journal_dir {
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
    if let Some(path) = p.text("--out") {
        let _obs = simbench_obs::span!("campaign.persist");
        write_file(path, result.to_json().as_bytes());
    }
    if let Some(path) = trace_path {
        // Stop recording before draining, so the drain observes a
        // complete, quiescent set of rings (the persist span above is
        // the last thing recorded).
        simbench_obs::set_tracing(false);
        write_file(path, simbench_obs::trace::chrome_trace_json().as_bytes());
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

fn campaign_compare(p: &Parsed) -> ExitCode {
    let current_path = p.arg(0);
    let baseline_path = p
        .text("--baseline")
        .unwrap_or_else(|| fail("compare needs --baseline FILE"));
    let tolerance = p.num("--tolerance").unwrap_or(0.0);
    let current = CampaignResult::load(current_path).unwrap_or_else(|e| fail(&e.to_string()));
    let baseline = CampaignResult::load(baseline_path).unwrap_or_else(|e| fail(&e.to_string()));
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

fn list_main(_: &Parsed) -> ExitCode {
    print!("{}", render_list());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Model mode.
// ---------------------------------------------------------------------------

fn model_main(p: &Parsed) -> ExitCode {
    use simbench_campaign::table::{fmt_secs, Table};

    let verb = words(p.cmd).1;
    let guest = p.text("--guest").unwrap_or("armlet");
    if Guest::by_isa_name(guest).is_none() {
        fail(&format!("unknown guest {guest:?}"));
    }
    let result = load_timed(p.arg(0));
    // Engine ids are validated against the known set and canonicalized
    // (`dbt` means the latest version profile) before cell lookup.
    let engine_id = |id: &str| {
        EngineKind::by_id(id)
            .unwrap_or_else(|| fail(&format!("unknown engine {id:?}")))
            .id()
    };
    let engine = engine_id(p.text("--engine").unwrap_or("dbt"));
    if verb == "calibrate" {
        let cost =
            model::CostModel::from_campaign(&result, guest, &engine).unwrap_or_else(|e| fail(&e));
        println!(
            "cost model for {guest}/{engine} (campaign {:?}, scale {})",
            result.name, result.scale
        );
        println!("  base cost per instruction: {:.3e} s", cost.per_insn);
        let mut table = Table::new(["benchmark", "cost per tested op"]);
        for (bench, cost) in &cost.per_op {
            table.row([bench.name().to_string(), format!("{cost:.3e} s")]);
        }
        print!("{}", table.render());
        return ExitCode::SUCCESS;
    }
    let profile_engine = match p.text("--profile-engine") {
        Some(id) => engine_id(id),
        None => model::default_profile_engine(&result, guest, &engine),
    };
    let preds = model::predict_from_campaign(&result, guest, &engine, &profile_engine)
        .unwrap_or_else(|e| fail(&e));
    println!(
        "model {verb} for {guest}/{engine} — costs calibrated from campaign {:?}, \
         app event profiles from engine {profile_engine}",
        result.name
    );
    let validating = verb == "validate";
    if validating && preds.iter().all(|pred| pred.measured.is_none()) {
        fail(&format!(
            "campaign {:?} has no measured app cells for {guest}/{engine} to validate against",
            result.name
        ));
    }
    let mut table = Table::new(["app", "predicted", "measured", "error factor"]);
    let mut errors = Vec::new();
    for pred in &preds {
        let error = pred.error_factor();
        if let Some(e) = error {
            errors.push(e);
        }
        table.row([
            pred.app.clone(),
            fmt_secs(pred.predicted),
            pred.measured
                .map(fmt_secs)
                .unwrap_or_else(|| "-".to_string()),
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
        if let Some(limit) = p.num::<f64>("--max-error") {
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

// ---------------------------------------------------------------------------
// Report mode.
// ---------------------------------------------------------------------------

/// `report <CAMPAIGN.json>`: the human summary of a stored campaign
/// plus its `telemetry` block — engine-metric counters and histograms
/// snapshotted by `campaign run --trace`.
fn report_main(p: &Parsed) -> ExitCode {
    let result = CampaignResult::load(p.arg(0)).unwrap_or_else(|e| fail(&e.to_string()));
    print!("{}", render_summary(&result));
    print!("{}", simbench_harness::report::render_telemetry(&result));
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Differ mode.
// ---------------------------------------------------------------------------

/// Run the same binary on both engines in checkpointed lockstep and
/// compare architectural state digests; a mismatch is bisected to the
/// first divergent instruction and reported with a named state diff
/// (exit 1). `--workload` takes a benchmark or app name, a
/// `suite:`/`app:` id, or `all` for every suite benchmark the guest
/// supports; `--fuzz` sweeps `--programs` seeded random programs instead.
fn differ_main(p: &Parsed) -> ExitCode {
    use simbench_differ::{check_workload, fuzz_pair, DifferConfig};

    let guest_id = p.arg(0);
    let guest = Guest::by_isa_name(guest_id)
        .unwrap_or_else(|| fail(&format!("unknown guest {guest_id:?} ({})", guest_ids())));
    let engine = |i: usize| {
        let id = p.arg(i);
        EngineKind::by_id(id).unwrap_or_else(|| {
            fail(&format!(
                "unknown engine {id:?} (interp | dbt[@VERSION] | detailed | virt | native)"
            ))
        })
    };
    let (engine_a, engine_b) = (engine(1), engine(2));
    let programs = p.num("--programs").unwrap_or(25u32);
    let default = DifferConfig::default();
    let cfg = DifferConfig {
        max_insns: p.num("--max-insns").unwrap_or(default.max_insns),
        checkpoints: p.num("--checkpoints").unwrap_or(default.checkpoints),
        scale: p.num("--scale").unwrap_or(default.scale),
    };

    // Ctrl-C / SIGTERM stops the sweep before the next subject: the
    // comparisons already completed are still reported, and the exit
    // code says "interrupted", not "agree" or "disagree".
    simbench_obs::shutdown::install();
    let (reports, planned) = match (p.text("--workload"), p.num::<u64>("--fuzz")) {
        (Some(_), Some(_)) => fail("--workload conflicts with --fuzz"),
        (None, None) => fail("differ needs --workload <W|all> or --fuzz SEED"),
        (Some(w), None) => {
            let workloads: Vec<Workload> = if w == "all" {
                CampaignSpec::suite_workloads()
                    .into_iter()
                    .filter(|wl| wl.supported_on(guest))
                    .collect()
            } else {
                vec![named_workload(w)]
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

/// Run the static analyzer over guest images without executing them on
/// an engine: CFG recovery with invariant proofs and a static
/// event-profile prediction (`--check` verifies it counter-for-counter
/// against the reference interpreter), persisted by `--out` as the
/// `simbench-analysis/v2` artifact. Exit 1 when any subject has an
/// invariant violation or check mismatch. `--workload all` (the default)
/// sweeps every suite benchmark and app the guest supports; `--fuzz SEED`
/// analyzes the differ's seeded program stream instead.
fn analyze_main(p: &Parsed) -> ExitCode {
    use simbench_analyzer::{analyze_fuzz, analyze_workload, AnalyzeOpts};

    let guest_id = p.arg(0);
    let guests: Vec<Guest> = if guest_id == "all" {
        Guest::ALL.to_vec()
    } else {
        vec![Guest::by_isa_name(guest_id).unwrap_or_else(|| {
            fail(&format!(
                "unknown guest {guest_id:?} ({} | all)",
                guest_ids()
            ))
        })]
    };
    let programs = p.num("--programs").unwrap_or(25u32);
    let scale = p.num("--scale").unwrap_or(20_000u64);
    let opts = AnalyzeOpts {
        fuel: p.num("--fuel").unwrap_or(AnalyzeOpts::default().fuel),
        check: p.has("--check"),
    };

    // Ctrl-C / SIGTERM stops the sweep before the next subject; the
    // analyses already completed are reported (and persisted with
    // --out) and the exit code says "interrupted".
    simbench_obs::shutdown::install();
    let interrupted = || simbench_obs::shutdown::interrupted();
    let analyses: Vec<simbench_analyzer::SubjectAnalysis> =
        match (p.text("--workload"), p.num::<u64>("--fuzz")) {
            (Some(_), Some(_)) => fail("--workload conflicts with --fuzz"),
            (w, None) => {
                let selector = w.unwrap_or("all");
                let explicit = selector != "all";
                // `all`: every suite benchmark and app; matrix holes are
                // skipped per guest below.
                let workloads = if explicit {
                    vec![named_workload(selector)]
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
    if let Some(path) = p.text("--out") {
        write_file(path, simbench_analyzer::to_json(&analyses).as_bytes());
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

/// The hot-path source lint over the designated allocation-free modules,
/// and the workspace line budget (exit 1 on any finding).
fn lint_main(p: &Parsed) -> ExitCode {
    let root = p.text("--root").unwrap_or(".");
    let findings = simbench_analyzer::lint_root(std::path::Path::new(root));
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

/// A comma-separated `--guests`/`--engines`/`--benches` list, each item
/// resolved by `find`; an item it does not know is an unknown `what`.
fn list_of<T>(raw: &str, what: &str, find: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let items: Vec<T> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|id| find(id).unwrap_or_else(|| fail(&format!("unknown {what} {id:?}"))))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn line(words: &str) -> Parsed {
        parse(words.split(' ').map(str::to_string).collect())
    }

    #[test]
    fn every_flag_is_declared_once_and_taken_by_some_command() {
        for Flag(name, ..) in FLAGS {
            let declared = FLAGS.iter().filter(|f| f.0 == *name).count();
            assert_eq!(declared, 1, "{name}");
            assert!(COMMANDS.iter().any(|c| c.takes(name)), "{name}");
        }
        for c in COMMANDS {
            for name in c.flags.split_whitespace() {
                assert!(FLAGS.iter().any(|f| f.0 == name), "{}: {name}", c.name);
            }
        }
    }

    #[test]
    fn a_switch_takes_no_value_and_positionals_may_follow_flags() {
        let p = line("analyze --check armlet --fuel 9");
        assert_eq!(p.cmd.name, "analyze");
        assert_eq!(p.args, ["armlet"]);
        assert!(p.has("--check"));
        assert_eq!(p.num::<u64>("--fuel"), Some(9));
    }

    #[test]
    fn a_flag_given_twice_keeps_its_last_value() {
        let p = line("campaign run --scale 5 --name a --scale 6");
        assert_eq!(p.cmd.name, "campaign run");
        assert_eq!(p.num::<u64>("--scale"), Some(6));
        assert_eq!(p.text("--name"), Some("a"));
        assert_eq!(p.text("--out"), None);
    }
}
