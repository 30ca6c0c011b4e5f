//! End-to-end tests driving the real `simbench-harness` binary: the
//! `campaign compare` exit-code matrix (0 ok / 1 counter drift / 2
//! broken cell / 3 usage), worker-count determinism of persisted event
//! profiles, journaled kill → resume → counter-exact compare (4 for a
//! journal of another campaign), the stored-campaign `model`
//! workflow, and the paper matrix's figures and counters, pinned.

use std::path::PathBuf;
use std::process::{Command, Output};

use simbench_campaign::{CampaignResult, CellStatus, SCHEMA};

fn run_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simbench-harness"))
        .args(args)
        .output()
        .expect("spawn simbench-harness")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (signal?)")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// A scratch file path unique to this test process and label.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("simbench-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{label}.json", std::process::id()))
}

/// A tiny campaign measured through the library (identical to what
/// `campaign run` persists), saved to a scratch file.
fn measured_campaign(label: &str) -> (PathBuf, CampaignResult) {
    use simbench_campaign::{run, CampaignSpec, EngineKind, Guest, RunnerOpts, Workload};
    use simbench_suite::Benchmark;

    let spec = CampaignSpec {
        name: format!("cli-{label}"),
        guests: vec![Guest::Armlet],
        engines: vec![EngineKind::Interp],
        workloads: vec![
            Workload::Suite(Benchmark::Syscall),
            Workload::Suite(Benchmark::MemHot),
        ],
        scale: 1_000_000,
        reps: 1,
        wall_limit: Some(std::time::Duration::from_secs(60)),
    };
    let result = run(&spec, &RunnerOpts::serial());
    let path = scratch(label);
    result.save(&path).unwrap();
    (path, result)
}

#[test]
fn compare_exit_code_matrix() {
    let (base_path, base) = measured_campaign("cnt-base");
    let base_str = base_path.to_str().unwrap();

    // 0: identical profiles compare exactly equal.
    let out = run_cli(&["campaign", "compare", base_str, "--baseline", base_str]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    // 0 even when wall-clock moved 10×: counters ignore timing noise.
    let mut slowed = base.clone();
    for cell in &mut slowed.cells {
        cell.seconds.iter_mut().for_each(|s| *s *= 10.0);
    }
    let slowed_path = scratch("cnt-slowed");
    slowed.save(&slowed_path).unwrap();
    let out = run_cli(&[
        "campaign",
        "compare",
        slowed_path.to_str().unwrap(),
        "--baseline",
        base_str,
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    // 1: a single drifted counter is an exact-compare regression...
    let mut drifted = base.clone();
    drifted.cells[0].counters.instructions += 1;
    let drifted_path = scratch("cnt-drifted");
    drifted.save(&drifted_path).unwrap();
    let drifted_str = drifted_path.to_str().unwrap();
    let out = run_cli(&["campaign", "compare", drifted_str, "--baseline", base_str]);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stdout(&out).contains("instructions"), "{}", stdout(&out));

    // ...that a generous --tolerance admits.
    let out = run_cli(&[
        "campaign",
        "compare",
        drifted_str,
        "--baseline",
        base_str,
        "--tolerance",
        "0.01",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    // 2: broken cells outrank counter equality.
    let mut broken = base.clone();
    broken.cells[0].status = CellStatus::Failed("wall-clock limit reached".to_string());
    broken.cells[0].seconds.clear();
    let broken_path = scratch("cnt-broken");
    broken.save(&broken_path).unwrap();
    let out = run_cli(&[
        "campaign",
        "compare",
        broken_path.to_str().unwrap(),
        "--baseline",
        base_str,
    ]);
    assert_eq!(exit_code(&out), 2, "{}", stdout(&out));
    assert!(stdout(&out).contains("BROKEN"), "{}", stdout(&out));

    // 3: usage errors — missing baseline, unreadable input, and unknown
    // flags, `--threshold` and `--counters` among them.
    for args in [
        vec!["campaign", "compare", base_str],
        vec![
            "campaign",
            "compare",
            "/nonexistent.json",
            "--baseline",
            base_str,
        ],
    ] {
        let out = run_cli(&args);
        assert_eq!(exit_code(&out), 3, "args {args:?}: {}", stdout(&out));
    }
    for flag in [
        &["--frobnicate"][..],
        &["--threshold", "0.25"],
        &["--counters"],
    ] {
        let mut args = vec!["campaign", "compare", base_str, "--baseline", base_str];
        args.extend_from_slice(flag);
        let out = run_cli(&args);
        assert_eq!(exit_code(&out), 3, "args {args:?}: {}", stdout(&out));
        assert!(stderr(&out).contains("unknown flag"), "{args:?}");
    }
}

#[test]
fn jobs_do_not_change_event_profiles_end_to_end() {
    let a = scratch("jobs-1");
    let b = scratch("jobs-8");
    for (jobs, path) in [("1", &a), ("8", &b)] {
        let out = run_cli(&[
            "campaign",
            "run",
            "--guests",
            "armlet",
            "--engines",
            "interp,native",
            "--benches",
            "System Call,Hot Memory Access,Data Access Fault",
            "--scale",
            "500000",
            "--reps",
            "2",
            "--jobs",
            jobs,
            "--out",
            path.to_str().unwrap(),
        ]);
        assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    }
    // The persisted files carry the current schema and identical
    // per-cell event profiles...
    let ra = CampaignResult::load(&a).unwrap();
    let rb = CampaignResult::load(&b).unwrap();
    assert_eq!(ra.schema, SCHEMA);
    assert_eq!(ra.cells.len(), rb.cells.len());
    for (ca, cb) in ra.cells.iter().zip(&rb.cells) {
        assert_eq!(
            ca.counters, cb.counters,
            "{}/{} {}",
            ca.guest, ca.engine, ca.workload
        );
        assert_eq!(ca.tested_ops, cb.tested_ops);
        assert!(ca.counters_consistent && cb.counters_consistent);
    }
    // ...so the counter-exact compare is clean in both directions.
    for (cur, base) in [(&a, &b), (&b, &a)] {
        let out = run_cli(&[
            "campaign",
            "compare",
            cur.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
        ]);
        assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    }
}

#[test]
fn model_calibration_reads_each_cell_floor() {
    use simbench_campaign::{run, RunnerOpts, Workload};
    use simbench_harness::model::{calibration_spec, CostModel};
    use simbench_harness::{EngineKind, Guest};

    // The Hot Memory Access cell's slower repetitions are noise: the
    // base cost per instruction comes from its fastest one.
    let spec = calibration_spec(Guest::Armlet, vec![EngineKind::Interp], 500_000);
    let mut result = run(&spec, &RunnerOpts::serial());
    let hot_id = Workload::Suite(simbench_suite::Benchmark::MemHot).id();
    let hot = result
        .cells
        .iter_mut()
        .find(|c| c.workload == hot_id)
        .unwrap();
    hot.seconds = vec![9.0, 2.0, 7.0];
    let insns = hot.counters.instructions as f64;
    let m = CostModel::from_campaign(&result, "armlet", "interp").unwrap();
    assert_eq!(m.per_insn, 2.0 / insns);
}

#[test]
fn model_workflow_runs_from_a_stored_campaign() {
    // One campaign with apps, measured once; every model step below
    // consumes the stored JSON without re-running anything.
    let path = scratch("model");
    let path_str = path.to_str().unwrap();
    let out = run_cli(&[
        "campaign",
        "run",
        "--guests",
        "armlet",
        "--engines",
        "interp,native",
        "--scale",
        "500000",
        "--apps",
        "--jobs",
        "4",
        "--out",
        path_str,
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    let out = run_cli(&[
        "model",
        "calibrate",
        path_str,
        "--guest",
        "armlet",
        "--engine",
        "interp",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("cost model for armlet/interp"), "{text}");
    assert!(text.contains("base cost per instruction"), "{text}");
    // The timings came from four workers, and stderr says so once.
    let note = format!("{path_str} was measured on 4 workers");
    assert_eq!(stderr(&out).matches(&note).count(), 1, "{}", stderr(&out));

    let out = run_cli(&[
        "model",
        "predict",
        path_str,
        "--guest",
        "armlet",
        "--engine",
        "interp",
        "--profile-engine",
        "native",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("app:"), "{}", stdout(&out));

    // validate defaults the profile engine to native and reports
    // per-app prediction error against the measured cells.
    let out = run_cli(&[
        "model", "validate", path_str, "--guest", "armlet", "--engine", "interp",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("app event profiles from engine native"),
        "{text}"
    );
    assert!(text.contains("prediction error"), "{text}");
    assert!(text.contains("geomean"), "{text}");

    // An absurdly tight error gate trips exit 1.
    let out = run_cli(&[
        "model",
        "validate",
        path_str,
        "--guest",
        "armlet",
        "--engine",
        "interp",
        "--max-error",
        "1.0",
    ]);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));

    // Data errors exit 3: a missing file, an engine the campaign never
    // measured, a campaign without apps.
    let out = run_cli(&["model", "validate", "/nonexistent.json"]);
    assert_eq!(exit_code(&out), 3);
    let out = run_cli(&[
        "model", "validate", path_str, "--guest", "armlet", "--engine", "virt",
    ]);
    assert_eq!(exit_code(&out), 3);
    let (no_apps, _) = measured_campaign("model-no-apps");
    let out = run_cli(&[
        "model",
        "validate",
        no_apps.to_str().unwrap(),
        "--guest",
        "armlet",
        "--engine",
        "interp",
    ]);
    assert_eq!(exit_code(&out), 3);
}

/// Every measured figure's text, rendered by the figure drivers before
/// they became renderers of one campaign, from the paper matrix at
/// scale `u64::MAX` with every ok cell's seconds set by [`pinned_seconds`].
const PINNED_FIGURES: &str = include_str!("fixtures/paper_figures.txt");

/// A stand-in time for a cell, fixed by its ids: FNV-1a of the guest,
/// engine and workload, mapped into [1 ms, 2 ms).
fn pinned_seconds(c: &simbench_campaign::CellResult) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in [&c.guest, &c.engine, &c.workload]
        .iter()
        .flat_map(|s| s.bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    1e-3 * (1.0 + (h % 1000) as f64 / 1000.0)
}

/// One line per cell of the paper matrix at scale `u64::MAX`, in
/// matrix order: `guest | engine | workload | status | digest`, the digest FNV-1a over every counter's name and value. A
/// change to what an engine counts must leave the fixture byte for
/// byte as it is; a deliberate one regenerates it with
/// `cargo test -p simbench-harness --test cli regen -- --ignored` and
/// says which lines moved and why.
fn paper_counters_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/paper_counters.txt")
}

/// The fixture's lines for `result`.
fn counter_lines(result: &CampaignResult) -> String {
    use simbench_core::digest::Fnv1a;
    use std::fmt::Write as _;

    let mut text = String::new();
    for c in &result.cells {
        let mut hash = Fnv1a::new();
        for (name, value) in c.counters.rows() {
            hash.write_bytes(name.as_bytes());
            hash.write_bytes(&value.to_le_bytes());
        }
        let status = c.status.to_json_string();
        let digest = hash.finish();
        writeln!(
            text,
            "{} | {} | {} | {status} | {digest:016x}",
            c.guest, c.engine, c.workload
        )
        .unwrap();
    }
    text
}

/// `campaign run --apps --versions` at scale `u64::MAX`, stored at
/// `path` and loaded back.
fn paper_campaign(path: &std::path::Path) -> CampaignResult {
    let out = run_cli(&[
        "campaign",
        "run",
        "--apps",
        "--versions",
        "--scale",
        &u64::MAX.to_string(),
        "--jobs",
        "2",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    CampaignResult::load(path).unwrap()
}

#[test]
#[ignore = "rewrites the fixture"]
fn regen() {
    let path = scratch("paper-regen");
    let text = counter_lines(&paper_campaign(&path));
    std::fs::write(paper_counters_fixture(), text).expect("the fixture is writable");
    std::fs::remove_file(&path).ok();
}

#[test]
fn figures_render_the_pinned_paper_campaign_byte_for_byte() {
    use simbench_campaign::CampaignSpec;

    // `campaign run --apps --versions` measures exactly the paper's
    // matrix; at scale u64::MAX its counters are deterministic.
    let path = scratch("paper");
    let path_str = path.to_str().unwrap();
    let mut result = paper_campaign(&path);
    let ids =
        |c: &simbench_campaign::CellResult| (c.guest.clone(), c.engine.clone(), c.workload.clone());
    let want: Vec<_> = CampaignSpec::paper(u64::MAX)
        .cells()
        .iter()
        .map(|k| {
            (
                k.guest.isa_name().to_string(),
                k.engine.id(),
                k.workload.id(),
            )
        })
        .collect();
    assert_eq!(result.cells.iter().map(ids).collect::<Vec<_>>(), want);
    let fixture = std::fs::read_to_string(paper_counters_fixture()).expect("the committed fixture");
    let actual = counter_lines(&result);
    for (a, e) in actual.lines().zip(fixture.lines()) {
        assert_eq!(a, e);
    }
    assert_eq!(actual.lines().count(), fixture.lines().count(), "lines");

    for c in &mut result.cells {
        if c.status == CellStatus::Ok {
            c.seconds = vec![pinned_seconds(c)];
        }
    }
    result.save(&path).unwrap();
    let rendered: String = simbench_harness::MEASURED_FIGURES
        .iter()
        .map(|f| simbench_harness::render(f, &result).unwrap() + "\n")
        .collect();
    assert_eq!(rendered, PINNED_FIGURES);
    // `all` prints Figs 5 and 4 (the host and the engines), then the
    // measured figures from the stored campaign.
    let out = run_cli(&["all", "--from", path_str]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).starts_with("Fig 5"));
    assert!(stdout(&out).ends_with(PINNED_FIGURES), "{}", stdout(&out));
    let note = format!("{path_str} was measured on 2 workers");
    assert_eq!(stderr(&out).matches(&note).count(), 1, "{}", stderr(&out));
    // One worker's timings pass without a note.
    result.jobs = 1;
    result.save(&path).unwrap();
    let out = run_cli(&["fig6", "--from", path_str]);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    assert!(!stderr(&out).contains("workers"), "{}", stderr(&out));

    // A cell that failed is named, and so is one that is missing.
    let at = result
        .cells
        .iter()
        .position(|c| (c.guest.as_str(), c.engine.as_str()) == ("armlet", "interp"))
        .unwrap();
    result.cells[at].status = CellStatus::Failed("injected".to_string());
    result.save(&path).unwrap();
    let out = run_cli(&["fig7", "--from", path_str]);
    assert_eq!(exit_code(&out), 3, "{}", stdout(&out));
    let want = "no completed cell armlet/interp suite:Small Blocks (status: failed:injected)";
    assert!(stderr(&out).contains(want), "{}", stderr(&out));
    result.cells.remove(at);
    result.save(&path).unwrap();
    let out = run_cli(&["fig7", "--from", path_str]);
    assert_eq!(exit_code(&out), 3, "{}", stdout(&out));
    let want = "no completed cell armlet/interp suite:Small Blocks (status: missing)";
    assert!(stderr(&out).contains(want), "{}", stderr(&out));
    std::fs::remove_file(&path).ok();
}

#[test]
fn versions_join_the_engine_axis_in_place_of_its_dbt_profile() {
    use simbench_harness::EngineKind;

    let path = scratch("versions");
    let line = format!(
        "campaign run --guests armlet --engines interp,dbt --versions --scale {} --out {} --benches",
        u64::MAX,
        path.display()
    );
    let mut args: Vec<&str> = line.split(' ').collect();
    args.push("System Call");
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let result = CampaignResult::load(&path).unwrap();
    let engines: Vec<String> = result.cells.into_iter().map(|c| c.engine).collect();
    let versions = EngineKind::all_dbt_versions()
        .into_iter()
        .map(EngineKind::id);
    assert_eq!(engines[0], "interp");
    assert_eq!(engines[1..], versions.collect::<Vec<_>>());
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_progress_and_report_end_to_end() {
    use simbench_campaign::json::{parse, Value};

    let campaign_path = scratch("obs-campaign");
    let trace_path = scratch("obs-trace");
    // --quiet silences the info banners, so with --progress=ndjson
    // every remaining stderr line must be a parseable JSON record —
    // the property a streaming consumer depends on.
    let out = run_cli(&[
        "campaign",
        "run",
        "--quiet",
        "--guests",
        "armlet",
        "--engines",
        "interp,dbt",
        "--benches",
        "System Call,Hot Memory Access",
        "--scale",
        "200000",
        "--reps",
        "2",
        "--trace",
        trace_path.to_str().unwrap(),
        "--progress=ndjson",
        "--out",
        campaign_path.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let mut starts = 0;
    let mut finishes = 0;
    for line in stderr.lines().filter(|l| !l.is_empty()) {
        let v = parse(line).unwrap_or_else(|e| panic!("unparseable stderr line {line:?}: {e}"));
        match v.get("event").and_then(Value::as_str) {
            Some("cell_start") => starts += 1,
            Some("cell_finish") => {
                finishes += 1;
                assert_eq!(
                    v.get("status").and_then(Value::as_str),
                    Some("ok"),
                    "{line}"
                );
                assert_eq!(v.get("reps").and_then(Value::as_u64), Some(2), "{line}");
            }
            other => panic!("unexpected event {other:?} in {line:?}"),
        }
        assert!(v.get("guest").and_then(Value::as_str).is_some(), "{line}");
    }
    // 2 engines × 2 benchmarks = 4 cells, each started and finished.
    assert_eq!((starts, finishes), (4, 4), "{stderr}");

    // The trace file is valid Chrome trace-event JSON covering both
    // campaign lifecycle spans and engine internals.
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    let v = parse(&trace).unwrap();
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for expected in ["campaign.expand", "campaign.repetition", "dbt.translate"] {
        assert!(names.contains(&expected), "no {expected:?} in trace");
    }

    // The persisted campaign carries the metrics snapshot...
    let result = CampaignResult::load(&campaign_path).unwrap();
    let telemetry = result.telemetry.as_ref().expect("telemetry block");
    let counter = |name: &str| {
        telemetry
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert!(
        counter("dbt.translations").unwrap_or(0) > 0,
        "{telemetry:?}"
    );
    assert!(
        counter("interp.dispatch_batches").unwrap_or(0) > 0,
        "{telemetry:?}"
    );
    assert!(
        telemetry
            .histograms
            .iter()
            .any(|(n, _)| n == "dbt.block_steps"),
        "{telemetry:?}"
    );

    // ...which `report` renders alongside the summary.
    let out = run_cli(&["report", campaign_path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("engine counters"), "{text}");
    assert!(text.contains("dbt.translations"), "{text}");
    assert!(text.contains("histogram dbt.block_steps"), "{text}");

    // A campaign run without --trace has no telemetry; report still
    // works and says how to record some.
    let (plain, _) = measured_campaign("obs-plain");
    let out = run_cli(&["report", plain.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("--trace"), "{}", stdout(&out));

    // report usage errors exit 3.
    assert_eq!(exit_code(&run_cli(&["report"])), 3);
    assert_eq!(exit_code(&run_cli(&["report", "/nonexistent.json"])), 3);
    let report_str = plain.to_str().unwrap();
    assert_eq!(exit_code(&run_cli(&["report", report_str, "--bogus"])), 3);
}

#[test]
fn log_level_flags_are_global_and_strict() {
    let out_report = scratch("loglevel-fig5");
    let out_str = out_report.to_str().unwrap();

    // Default: the [wrote ...] info banner lands on stderr.
    let out = run_cli(&["fig5", "--out", out_str]);
    assert_eq!(exit_code(&out), 0);
    assert!(String::from_utf8_lossy(&out.stderr).contains("[wrote"));

    // --quiet silences it without changing stdout or the exit code,
    // wherever it appears on the line.
    for args in [
        vec!["--quiet", "fig5", "--out", out_str],
        vec!["fig5", "--quiet", "--out", out_str],
        vec!["fig5", "--out", out_str, "--quiet"],
    ] {
        let out = run_cli(&args);
        assert_eq!(exit_code(&out), 0, "args {args:?}");
        assert!(stdout(&out).contains("Fig 5"), "args {args:?}");
        assert!(
            !String::from_utf8_lossy(&out.stderr).contains("[wrote"),
            "args {args:?}"
        );
    }

    // -v / --verbose are accepted (their conflict is a usage error).
    for v in ["-v", "--verbose"] {
        let out = run_cli(&["fig5", v]);
        assert_eq!(exit_code(&out), 0, "{v}");
    }
}

#[test]
fn analyze_sweeps_a_workload_and_persists_the_artifact() {
    let artifact_path = scratch("analyze-artifact");
    let artifact_str = artifact_path.to_str().unwrap();
    let out = run_cli(&[
        "analyze",
        "armlet",
        "--workload",
        "System Call",
        "--check",
        "--fuel",
        "5000000",
        "--out",
        artifact_str,
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("armlet/suite:System Call: ok"), "{text}");
    assert!(text.contains("check ok"), "{text}");
    assert!(text.contains("1/1 subject(s) clean"), "{text}");
    let json = std::fs::read_to_string(&artifact_path).unwrap();
    assert!(
        json.contains("\"schema\": \"simbench-analysis/v2\""),
        "{json}"
    );
    assert!(json.contains("\"matched\": true"), "{json}");
}

#[test]
fn analyze_fuzz_covers_the_differ_program_stream() {
    let out = run_cli(&[
        "analyze",
        "petix",
        "--fuzz",
        "48879",
        "--programs",
        "2",
        "--check",
    ]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("petix/fuzz:0xbeef[0]"), "{text}");
    assert!(text.contains("2/2 subject(s) clean"), "{text}");
}

/// The common spec flags of the fault-tolerance tests: four cells,
/// two reps each, small enough to re-run several times per test.
const FAULT_SPEC: &[&str] = &[
    "--guests",
    "armlet",
    "--engines",
    "interp,native",
    "--benches",
    "System Call,Hot Memory Access",
    "--scale",
    "500000",
    "--reps",
    "2",
];

/// A scratch directory unique to this test process and label.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simbench-cli-{}-{label}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the harness binary without waiting, output piped.
fn spawn_cli(args: &[&str], env: &[(&str, &str)]) -> std::process::Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simbench-harness"));
    cmd.args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.spawn().expect("spawn simbench-harness")
}

/// Count finished-cell records currently in a journal directory.
fn cell_records(dir: &std::path::Path) -> usize {
    std::fs::read_to_string(dir.join(simbench_campaign::JOURNAL_FILE))
        .map(|t| t.matches("\"record\": \"cell\"").count())
        .unwrap_or(0)
}

/// Block until the journal holds at least `n` finished-cell records.
fn wait_for_cells(dir: &std::path::Path, n: usize) {
    let t0 = std::time::Instant::now();
    while cell_records(dir) < n {
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(120),
            "journal in {} never reached {n} cell record(s)",
            dir.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

#[test]
fn killed_campaign_resumes_counter_exact_end_to_end() {
    // Uninterrupted reference run.
    let clean = scratch("fault-clean");
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&["--out", clean.to_str().unwrap()]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    // The same campaign, journaled, hung after six repetitions — the
    // whole first pass and two cells of the second, so two finished
    // cells — and then killed with SIGKILL: no unwinding, no flushes,
    // exactly the crash the journal exists for.
    let jdir = scratch_dir("fault-journal");
    let jdir_str = jdir.to_str().unwrap().to_string();
    let victim = scratch("fault-victim");
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&[
        "--jobs",
        "1",
        "--journal",
        &jdir_str,
        "--failpoints",
        "measure.rep=6+hang(60000)",
        "--out",
        victim.to_str().unwrap(),
    ]);
    let mut child = spawn_cli(&args, &[]);
    wait_for_cells(&jdir, 2);
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(!victim.exists(), "killed run must not persist an artifact");

    // Resume from the journal (no failpoints this time): only the
    // remainder is measured and the artifact is counter-exact against
    // the uninterrupted run, in both directions.
    let resumed = scratch("fault-resumed");
    let resumed_str = resumed.to_str().unwrap();
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&["--resume", &jdir_str, "--out", resumed_str]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    for (cur, base) in [(&resumed, &clean), (&clean, &resumed)] {
        let out = run_cli(&[
            "campaign",
            "compare",
            cur.to_str().unwrap(),
            "--baseline",
            base.to_str().unwrap(),
        ]);
        assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    }
    // The artifact names the journal it came from and has no holes.
    let result = CampaignResult::load(&resumed).unwrap();
    assert_eq!(result.journal.as_deref(), Some(jdir_str.as_str()));
    assert!(result.cells.iter().all(|c| c.status == CellStatus::Ok));
    std::fs::remove_dir_all(&jdir).ok();
}

#[test]
fn resuming_a_journal_of_another_scale_exits_4() {
    let jdir = scratch_dir("rescaled-journal");
    let jdir_str = jdir.to_str().unwrap();
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&["--journal", jdir_str]);
    assert_eq!(exit_code(&run_cli(&args)), 0);
    args.truncate(args.len() - 2);
    args.extend_from_slice(&["--scale", "1000000", "--resume", jdir_str]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 4, "{}", stderr(&out));
    assert!(stderr(&out).contains("scale is 500000"), "{}", stderr(&out));
    std::fs::remove_dir_all(&jdir).ok();
}

#[test]
fn resuming_a_directory_without_a_journal_starts_one_there() {
    // A campaign killed before its journal existed resumes as a fresh
    // journaled run; resuming the finished journal measures nothing.
    let jdir = scratch_dir("resume-fresh").join("never-journaled");
    let jdir_str = jdir.to_str().unwrap();
    let out_path = scratch("resume-fresh");
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&["--resume", jdir_str, "--out", out_path.to_str().unwrap()]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    assert!(stderr(&out).contains("starting fresh"), "{}", stderr(&out));
    assert_eq!(cell_records(&jdir), 4);
    let result = CampaignResult::load(&out_path).unwrap();
    assert_eq!(result.journal.as_deref(), Some(jdir_str));
    let journal = std::fs::read_to_string(jdir.join(simbench_campaign::JOURNAL_FILE)).unwrap();
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stderr(&out));
    let after = std::fs::read_to_string(jdir.join(simbench_campaign::JOURNAL_FILE)).unwrap();
    assert_eq!(
        after, journal,
        "a complete journal resumes without measuring"
    );
    assert!(compare_clean(&out_path, &result));
    std::fs::remove_dir_all(jdir.parent().unwrap()).ok();
}

/// The stored artifact at `path` has the same event profile as `base`.
fn compare_clean(path: &std::path::Path, base: &CampaignResult) -> bool {
    let now = CampaignResult::load(path).unwrap();
    simbench_campaign::compare_counters(base, &now, 0.0).clean()
        && simbench_campaign::compare_counters(&now, base, 0.0).clean()
}

#[test]
fn a_journal_that_cannot_be_created_exits_4() {
    let dir = scratch_dir("uncreatable");
    let file = dir.join("a-file");
    std::fs::write(&file, "not a directory").unwrap();
    let jdir = file.join("journal");
    for flag in ["--journal", "--resume"] {
        let mut args = vec!["campaign", "run"];
        args.extend_from_slice(FAULT_SPEC);
        args.extend_from_slice(&[flag, jdir.to_str().unwrap()]);
        let out = run_cli(&args);
        assert_eq!(exit_code(&out), 4, "{flag}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("cannot create journal"),
            "{flag}: {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_a_journal_damaged_mid_file_exits_4() {
    let jdir = scratch_dir("damaged-journal");
    let jdir_str = jdir.to_str().unwrap();
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&["--journal", jdir_str]);
    assert_eq!(exit_code(&run_cli(&args)), 0);
    let path = jdir.join(simbench_campaign::JOURNAL_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let (meta, rest) = text.split_once('\n').unwrap();
    std::fs::write(&path, format!("{meta}\n{{\"record\": \"ce\n{rest}")).unwrap();
    args.truncate(args.len() - 2);
    args.extend_from_slice(&["--resume", jdir_str]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 4, "{}", stderr(&out));
    assert!(
        stderr(&out).contains(&format!("{}:2: ", simbench_campaign::JOURNAL_FILE)),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&jdir).ok();
}

#[test]
fn injected_panic_quarantines_one_cell_end_to_end() {
    let clean = scratch("quarantine-clean");
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&["--out", clean.to_str().unwrap()]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));

    // One injected panic on the very first repetition: that cell is
    // quarantined, every other cell completes normally, and the run
    // exits 1 (broken cells are a failure, not a crash).
    let q = scratch("quarantine-run");
    let q_str = q.to_str().unwrap();
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&[
        "--jobs",
        "1",
        "--failpoints",
        "measure.rep=1*panic(injected fault)",
        "--out",
        q_str,
    ]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(
        stdout(&out).contains("quarantined cells"),
        "{}",
        stdout(&out)
    );

    let result = CampaignResult::load(&q).unwrap();
    let quarantined: Vec<_> = result
        .cells
        .iter()
        .filter(|c| matches!(c.status, CellStatus::Quarantined(_)))
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly one cell quarantines");
    assert!(
        matches!(&quarantined[0].status, CellStatus::Quarantined(m) if m.contains("injected fault")),
        "{:?}",
        quarantined[0].status
    );
    assert!(result
        .cells
        .iter()
        .filter(|c| !matches!(c.status, CellStatus::Quarantined(_)))
        .all(|c| c.status == CellStatus::Ok));

    // The quarantined cell is broken coverage under the compare gate.
    let out = run_cli(&[
        "campaign",
        "compare",
        q_str,
        "--baseline",
        clean.to_str().unwrap(),
    ]);
    assert_eq!(exit_code(&out), 2, "{}", stdout(&out));
    assert!(stdout(&out).contains("BROKEN"), "{}", stdout(&out));

    // A retry budget absorbs the same injected fault completely: the
    // re-run attempt succeeds and the campaign is clean end to end.
    let retried = scratch("quarantine-retried");
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&[
        "--jobs",
        "1",
        "--retries",
        "2",
        "--failpoints",
        "measure.rep=1*panic(injected fault)",
        "--out",
        retried.to_str().unwrap(),
    ]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let result = CampaignResult::load(&retried).unwrap();
    assert!(result.cells.iter().all(|c| c.status == CellStatus::Ok));
    let retried_cell = result
        .cells
        .iter()
        .find(|c| c.attempts > c.reps_run)
        .expect("one cell records its extra attempt");
    assert_eq!(retried_cell.attempts, retried_cell.reps_run + 1);
}

#[test]
fn sigterm_persists_a_partial_artifact_and_exits_130() {
    // Journaled run armed via the environment (covering the env path):
    // five repetitions finish — the first pass and the second of the
    // first cell, so one finished cell — and the sixth hangs under a
    // 5 s watchdog.
    let jdir = scratch_dir("term-journal");
    let jdir_str = jdir.to_str().unwrap().to_string();
    let part = scratch("term-partial");
    let part_str = part.to_str().unwrap().to_string();
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&[
        "--jobs",
        "1",
        "--cell-timeout",
        "5",
        "--journal",
        &jdir_str,
        "--out",
        &part_str,
    ]);
    let child = spawn_cli(
        &args,
        &[("SIMBENCH_FAILPOINTS", "measure.rep=5+hang(60000)")],
    );
    wait_for_cells(&jdir, 1);
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(130), "{}", stdout(&out));

    // The partial artifact is valid, names its holes truthfully, and
    // keeps what did finish.
    let result = CampaignResult::load(&part).unwrap();
    assert!(result.cells.iter().any(|c| c.status == CellStatus::Ok));
    assert!(result
        .cells
        .iter()
        .any(|c| c.status == CellStatus::Failed("interrupted".to_string())));

    // And the journal it left behind resumes to a fully clean run.
    let resumed = scratch("term-resumed");
    let mut args = vec!["campaign", "run"];
    args.extend_from_slice(FAULT_SPEC);
    args.extend_from_slice(&["--resume", &jdir_str, "--out", resumed.to_str().unwrap()]);
    let out = run_cli(&args);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    let result = CampaignResult::load(&resumed).unwrap();
    assert!(result.cells.iter().all(|c| c.status == CellStatus::Ok));
    std::fs::remove_dir_all(&jdir).ok();
}

#[test]
fn analyze_and_differ_sweeps_interrupt_with_exit_130() {
    for (args, marker) in [
        (
            vec!["analyze", "armlet", "--fuzz", "7", "--programs", "100000"],
            "analyze: interrupted —",
        ),
        (
            vec![
                "differ",
                "armlet",
                "interp",
                "native",
                "--fuzz",
                "7",
                "--programs",
                "100000",
            ],
            "differ: interrupted —",
        ),
    ] {
        let child = spawn_cli(&args, &[]);
        std::thread::sleep(std::time::Duration::from_millis(500));
        let kill = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .unwrap();
        assert!(kill.success());
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(130), "{args:?}: {}", stdout(&out));
        assert!(stdout(&out).contains(marker), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn lint_runs_clean_on_this_repository() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap()
        .to_path_buf();
    let out = run_cli(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("0 finding(s)"), "{}", stdout(&out));

    // A root with none of the designated files present is all findings.
    let out = run_cli(&["lint", "--root", std::env::temp_dir().to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

#[test]
fn lint_names_the_budget_when_the_tree_is_over_it() {
    let root = scratch_dir("budget");
    std::fs::create_dir_all(root.join("crates")).unwrap();
    std::fs::write(root.join("crates/big.rs"), "\n".repeat(100_000)).unwrap();
    let out = run_cli(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stdout(&out).contains("100000 lines of Rust > LINE_BUDGET"));
}

#[test]
fn lint_names_the_count_to_set_when_the_tree_is_under_its_budget() {
    let root = scratch_dir("under-budget");
    std::fs::create_dir_all(root.join("crates")).unwrap();
    std::fs::write(root.join("crates/small.rs"), "\n".repeat(3)).unwrap();
    let out = run_cli(&["lint", "--root", root.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1, "{}", stdout(&out));
    assert!(stdout(&out).contains("3 lines of Rust < LINE_BUDGET"));
    assert!(stdout(&out).contains("set LINE_BUDGET to 3"));
}

#[test]
fn help_prints_the_full_usage_and_exits_0() {
    let out = run_cli(&["--help"]);
    assert_eq!(exit_code(&out), 0);
    for word in "campaign run|differ|analyze|lint|--resume|--failpoints".split('|') {
        assert!(stdout(&out).contains(word), "{word}");
    }
}

#[test]
fn list_and_campaign_list_print_one_catalogue() {
    let (a, b) = (run_cli(&["--list"]), run_cli(&["campaign", "list"]));
    assert_eq!((exit_code(&a), exit_code(&b)), (0, 0));
    assert_eq!(stdout(&a), stdout(&b));
    assert!(stdout(&a).contains("System Call") && stdout(&a).contains("mcf-like"));
}

#[test]
fn a_v4_baseline_is_an_unreadable_input() {
    let cur = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    let text = std::fs::read_to_string(cur).unwrap();
    // v6 is refused like v4: only the current layout is read.
    for old in ["simbench-campaign/v4", "simbench-campaign/v6"] {
        let path = scratch(&old.replace('/', "-"));
        std::fs::write(&path, text.replace(SCHEMA, old)).unwrap();
        let out = run_cli(&[
            "campaign",
            "compare",
            cur,
            "--baseline",
            path.to_str().unwrap(),
        ]);
        assert_eq!(exit_code(&out), 3, "{}", stdout(&out));
        assert!(stderr(&out).contains(&format!("unsupported schema {old:?}")));
    }
}

#[test]
fn differ_resolves_ids_and_bare_names_in_any_case() {
    for w in ["suite:System Call", "system call", "SYSTEM CALL"] {
        let out = run_cli(&["differ", "armlet", "interp", "dbt", "--workload", w]);
        assert_eq!(exit_code(&out), 0, "{w}: {}", stdout(&out));
        assert!(stdout(&out).contains("armlet/suite:System Call — agree"));
    }
}

#[test]
fn differ_and_analyze_reject_unknown_workloads_alike() {
    for cmd in ["differ armlet interp dbt", "analyze armlet"] {
        let mut args: Vec<&str> = cmd.split(' ').collect();
        args.extend(["--workload", "nope"]);
        let out = run_cli(&args);
        assert_eq!(exit_code(&out), 3, "{cmd}");
        assert!(stderr(&out).contains("unknown workload \"nope\" (try a name"));
    }
}

#[test]
fn differ_rejects_a_named_workload_the_guest_lacks() {
    let w = "Nonprivileged Access";
    let out = run_cli(&["differ", "petix", "interp", "dbt", "--workload", w]);
    assert_eq!(exit_code(&out), 3);
    assert!(stderr(&out).contains("does not exist on guest \"petix\""));
}

/// Every usage error of the command line, one row each: the argv, the
/// exit code and the first line on stderr (the usage text follows it).
/// The argv splits on spaces; `_` in a word stands for a space. No
/// `c.json` exists: each row fails before any file is read.
const USAGE_ERRORS: &str = r#"
 | 3 | missing figure name
figX | 3 | unknown figure "figX"
fig2 fig3 | 3 | unexpected argument "fig3" (figure already given)
fig7 --bogus | 3 | unknown flag "--bogus"
fig6 --jobs 2 | 3 | unknown flag "--jobs"
all --jobs 2 --from c.json | 3 | unknown flag "--jobs"
fig2 --from | 3 | --from requires a value
fig5 --out --scale 5 | 3 | --out requires a value
fig2 --scale x | 3 | invalid value for --scale: "x"
fig2 --scale 0 | 3 | --scale must be at least 1
fig6 --from c.json --scale 5 | 3 | --from renders a stored campaign: --scale does not apply
--quiet -v fig5 | 3 | --quiet conflicts with -v/--verbose
fig5 --queit | 3 | unknown flag "--queit"
--quiet campaign run --frobnicate | 3 | unknown flag "--frobnicate"
campaign | 3 | campaign needs a subcommand: run | compare | list
campaign frob | 3 | unknown campaign subcommand "frob"
campaign merge a.json --out b.json | 3 | unknown campaign subcommand "merge"
campaign run --shard 1/2 | 3 | unknown flag "--shard"
campaign run --precision 0.2 | 3 | unknown flag "--precision"
campaign run --min-reps 3 | 3 | unknown flag "--min-reps"
campaign run --max-reps 3 | 3 | unknown flag "--max-reps"
campaign run --scale 0 | 3 | --scale must be at least 1
campaign run --reps 0 | 3 | --reps must be at least 1
campaign run --jobs 0 | 3 | --jobs must be at least 1
campaign run --guests , | 3 | empty list ","
campaign run --guests z80 | 3 | unknown guest "z80"
campaign run --engines interp,qemu | 3 | unknown engine "qemu"
campaign run --benches nope | 3 | unknown benchmark "nope"
campaign run --journal /tmp/a --resume /tmp/b | 3 | --journal conflicts with --resume: --resume already appends to DIR's journal
campaign run --cell-timeout 0 | 3 | --cell-timeout must be a positive number of seconds
campaign run --cell-timeout -1 | 3 | --cell-timeout must be a positive number of seconds
campaign run --cell-timeout banana | 3 | invalid value for --cell-timeout: "banana"
campaign run --retries banana | 3 | invalid value for --retries: "banana"
campaign run --failpoints no-equals | 3 | failpoint clause "no-equals": expected SITE=ACTION
campaign run --failpoints s=explode | 3 | failpoint clause "s=explode": unknown kind "explode" (expected panic/hang/err/abort)
campaign compare --baseline c.json | 3 | compare needs a current result file
campaign compare c.json | 3 | compare needs --baseline FILE
campaign compare a.json b.json | 3 | unexpected argument "b.json" (current result already given)
campaign compare c.json --tolerance -1 | 3 | --tolerance must be a non-negative fraction, e.g. 0.01
report | 3 | report needs a stored campaign JSON file
report a.json b.json | 3 | unexpected argument "b.json" (campaign file already given)
model | 3 | model needs a subcommand: calibrate | predict | validate
model frobnicate c.json | 3 | unknown model subcommand "frobnicate"
model validate | 3 | model needs a stored campaign JSON file
model validate a.json b.json | 3 | unexpected argument "b.json" (campaign file already given)
model validate --guest z80 c.json | 3 | unknown guest "z80"
model validate c.json --max-error 0.5 | 3 | --max-error is an error *factor*, so it must be >= 1.0
model calibrate c.json --profile-engine native | 3 | --profile-engine does not apply to model calibrate
model calibrate c.json --max-error 2.0 | 3 | --max-error does not apply to model calibrate
model predict c.json --max-error 2.0 | 3 | --max-error does not apply to model predict
differ armlet interp | 3 | differ needs <guest> <engineA> <engineB>
differ z80 interp dbt --fuzz 1 | 3 | unknown guest "z80" (armlet | petix | riscle)
differ armlet interp qemu --fuzz 1 | 3 | unknown engine "qemu" (interp | dbt[@VERSION] | detailed | virt | native)
differ armlet interp dbt | 3 | differ needs --workload <W|all> or --fuzz SEED
differ armlet interp dbt --workload all --fuzz 1 | 3 | --workload conflicts with --fuzz
differ armlet interp dbt --fuzz 1 --bogus | 3 | unknown flag "--bogus"
differ armlet interp dbt --fuzz 1 --programs 0 | 3 | nothing to compare (with --fuzz, --programs must be at least 1)
differ armlet interp dbt --workload all --scale 0 | 3 | --scale must be at least 1
differ armlet interp dbt --workload all --max-insns 0 | 3 | --max-insns must be at least 1
differ armlet interp dbt --workload all --checkpoints 0 | 3 | --checkpoints must be at least 1
differ armlet interp dbt --workload nope | 3 | unknown workload "nope" (try a name from `campaign list`, a suite:/app: id, or `all`)
analyze | 3 | analyze needs <guest|all>
analyze z80 | 3 | unknown guest "z80" (armlet | petix | riscle | all)
analyze armlet --workload all --fuzz 1 | 3 | --workload conflicts with --fuzz
analyze armlet --workload nope | 3 | unknown workload "nope" (try a name from `campaign list`, a suite:/app: id, or `all`)
analyze armlet --scale 0 | 3 | --scale must be at least 1
analyze armlet --fuel 0 | 3 | --fuel must be at least 1
analyze armlet --fuzz 1 --programs 0 | 3 | nothing to analyze (with --fuzz, --programs must be at least 1)
analyze petix --workload Nonprivileged_Access | 3 | workload "suite:Nonprivileged Access" does not exist on guest "petix"
lint --root | 3 | --root requires a value
"#;

#[test]
fn a_usage_error_on_a_closed_stderr_still_exits_3() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let status = Command::new(env!("CARGO_BIN_EXE_simbench-harness"))
        .args(["campaign", "compare"])
        .stderr(writer)
        .status()
        .expect("spawn simbench-harness");
    assert_eq!(status.code(), Some(3), "{status}");
}

#[test]
fn usage_errors_exit_3_and_name_the_error() {
    for row in USAGE_ERRORS.lines().skip(1) {
        let f: Vec<&str> = row.splitn(3, " | ").collect();
        let args: Vec<String> = f[0]
            .split_whitespace()
            .map(|w| w.replace('_', " "))
            .collect();
        let out = run_cli(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(exit_code(&out).to_string(), f[1], "{row}: {}", stderr(&out));
        let want = format!("simbench-harness: {}", f[2]);
        assert_eq!(stderr(&out).lines().next(), Some(want.as_str()), "{row}");
    }
}
