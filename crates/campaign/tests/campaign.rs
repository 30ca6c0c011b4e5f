//! Integration tests for the campaign subsystem: determinism across
//! runs, equivalence across worker counts, persistence round-trips,
//! resume counter-exactness, and counter drift detection.

use simbench_campaign::measure::{EngineKind, Guest};
use simbench_campaign::{
    compare_counters, replay, run, run_resumed, CampaignResult, CampaignSpec, CellStatus, Journal,
    RunnerOpts, Workload, JOURNAL_FILE,
};
use simbench_suite::Benchmark;

/// A small but representative spec: both guests, three engine kinds
/// (incl. one DBT version), benchmarks from three categories — one of
/// which is ISA-dependent (Nonprivileged Access is armlet-only).
fn spec(reps: u32) -> CampaignSpec {
    CampaignSpec {
        name: "itest".to_string(),
        guests: vec![Guest::Armlet, Guest::Petix],
        engines: vec![
            EngineKind::Interp,
            EngineKind::Dbt(simbench_dbt::VersionProfile::latest()),
            EngineKind::Native,
        ],
        workloads: vec![
            Workload::Suite(Benchmark::Syscall),
            Workload::Suite(Benchmark::MemHot),
            Workload::Suite(Benchmark::NonprivAccess),
            Workload::App(simbench_apps::App::Bzip2Like),
        ],
        scale: 500_000, // tiny kernels: the whole matrix runs in well under a second
        reps,
        wall_limit: Some(std::time::Duration::from_secs(60)),
    }
}

/// One cell's identity plus its determinism-relevant fields.
type CellFingerprint = (
    String,
    String,
    String,
    String,
    u32,
    Vec<(&'static str, u64)>,
);

/// Strip timing, keep identity + determinism-relevant fields.
fn fingerprint(result: &CampaignResult) -> Vec<CellFingerprint> {
    result
        .cells
        .iter()
        .map(|c| {
            (
                c.guest.clone(),
                c.engine.clone(),
                c.workload.clone(),
                format!("{:?}", c.status),
                c.iterations,
                c.counters
                    .rows()
                    .into_iter()
                    .filter(|(_, v)| *v != 0)
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn two_serial_runs_are_identical() {
    let s = spec(2);
    let a = run(&s, &RunnerOpts::serial());
    let b = run(&s, &RunnerOpts::serial());
    assert_eq!(fingerprint(&a), fingerprint(&b));
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert!(
            ca.counters_consistent,
            "{}/{}/{}",
            ca.guest, ca.engine, ca.workload
        );
        assert_eq!(ca.seconds.len(), cb.seconds.len());
    }
}

#[test]
fn parallel_run_matches_serial() {
    let s = spec(2);
    let serial = run(&s, &RunnerOpts::serial());
    let parallel = run(&s, &RunnerOpts::with_jobs(4));
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "counters and statuses must not depend on worker count"
    );
    // Same number of timing samples everywhere, even though the values
    // differ run to run.
    for (cs, cp) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(cs.seconds.len(), cp.seconds.len());
        assert_eq!(cs.stats().is_some(), cp.stats().is_some());
    }
    assert_eq!(parallel.jobs, 4);
}

#[test]
fn worker_count_larger_than_job_count() {
    let s = CampaignSpec {
        workloads: vec![Workload::Suite(Benchmark::Syscall)],
        guests: vec![Guest::Armlet],
        engines: vec![EngineKind::Interp],
        ..spec(1)
    };
    let result = run(&s, &RunnerOpts::with_jobs(64));
    assert_eq!(result.cells.len(), 1);
    assert_eq!(result.cells[0].status, CellStatus::Ok);
}

#[test]
fn persisted_result_round_trips_through_disk() {
    let s = spec(1);
    let result = run(&s, &RunnerOpts::with_jobs(2));
    let dir = std::env::temp_dir().join("simbench-campaign-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("roundtrip-{}.json", std::process::id()));
    result.save(&path).unwrap();
    let loaded = CampaignResult::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(fingerprint(&result), fingerprint(&loaded));
    assert_eq!(loaded.schema, simbench_campaign::SCHEMA);
    assert_eq!(loaded.scale, s.scale);
}

/// Fresh scratch directory for one journal test.
fn journal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simbench-journal-test-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulate a kill mid-campaign: rewrite the journal keeping only the
/// lines before the `keep_cells + 1`-th finished-cell record,
/// optionally followed by a torn (partial) trailing line, exactly as a
/// crash mid-`write` would leave it.
fn truncate_journal(dir: &std::path::Path, keep_cells: usize, torn_tail: bool) {
    let path = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut kept = String::new();
    let mut cells = 0usize;
    for line in text.lines() {
        if line.starts_with(CELL_RECORD) {
            if cells == keep_cells {
                break;
            }
            cells += 1;
        }
        kept.push_str(line);
        kept.push('\n');
    }
    assert_eq!(cells, keep_cells, "journal had too few cell records");
    if torn_tail {
        kept.push_str("{\"record\": \"cell\", \"index\": 99, \"ce");
    }
    std::fs::write(&path, kept).unwrap();
}

const CELL_RECORD: &str = "{\"record\": \"cell\"";

/// Complete (newline-terminated) finished-cell records in a journal.
fn cell_records(dir: &std::path::Path) -> usize {
    std::fs::read_to_string(dir.join(JOURNAL_FILE))
        .unwrap()
        .split_inclusive('\n')
        .filter(|l| l.starts_with(CELL_RECORD) && l.ends_with('\n'))
        .count()
}

#[test]
fn a_resume_measures_exactly_the_cells_its_journal_lacks() {
    let s = spec(2);
    let whole = run(&s, &RunnerOpts::serial());
    let dir = journal_dir("resume");
    let journaled = |journal: Journal| RunnerOpts {
        journal: Some(std::sync::Arc::new(journal)),
        ..RunnerOpts::serial()
    };

    // A journaled run behaves identically to a plain one and echoes
    // the journal directory into the artifact.
    let first = run(&s, &journaled(Journal::create(&dir, &s, None).unwrap()));
    assert_eq!(fingerprint(&first), fingerprint(&whole));
    assert_eq!(first.journal.as_deref(), Some(&*dir.to_string_lossy()));

    // The completed journal replays every measured cell (not-on-ISA
    // cells launch no jobs and are re-derived free on resume), and a
    // journal written for a different spec is rejected rather than
    // silently resumed.
    let measured = whole
        .cells
        .iter()
        .filter(|c| c.status != CellStatus::NotOnIsa)
        .count();
    let full = replay(&dir, &s).unwrap();
    assert_eq!(
        (full.torn, full.cells.len(), full.broken),
        (false, measured, 0)
    );
    assert!(replay(&dir, &spec(3)).is_err());

    // Cut the journal where a kill could have left it, resume with the
    // journal attached, and count what the resume appended: every cell
    // the cut kept must be copied, never measured again.
    let complete = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    for keep in [0, 1, measured / 2, measured] {
        for torn in [false, true] {
            let case = format!("keep {keep} of {measured}, torn tail {torn}");
            std::fs::write(dir.join(JOURNAL_FILE), &complete).unwrap();
            truncate_journal(&dir, keep, torn);
            let partial = replay(&dir, &s).unwrap();
            assert_eq!((partial.torn, partial.cells.len()), (torn, keep), "{case}");
            let before = cell_records(&dir);
            let opts = journaled(Journal::resume(&dir).unwrap());
            let resumed = run_resumed(&s, &opts, &partial.cells);
            assert_eq!(fingerprint(&resumed), fingerprint(&whole), "{case}");
            assert!(compare_counters(&whole, &resumed, 0.0).clean(), "{case}");
            assert!(compare_counters(&resumed, &whole, 0.0).clean(), "{case}");
            let appended = cell_records(&dir) - before;
            assert_eq!(appended, measured - keep, "{case}: cells measured again");
            // The journal the resume left behind replays whole.
            let after = replay(&dir, &s).unwrap();
            assert_eq!((after.torn, after.cells.len()), (false, measured), "{case}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn broken_journaled_cells_are_remeasured_on_resume() {
    let s = spec(1);
    let whole = run(&s, &RunnerOpts::serial());
    let dir = journal_dir("broken");

    // Hand-write a journal: one cleanly finished cell, plus one that
    // was quarantined and one that timed out before the "crash".
    let ok_indices: Vec<usize> = whole
        .cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.status == CellStatus::Ok)
        .map(|(i, _)| i)
        .take(3)
        .collect();
    let [good, poisoned, hung] = ok_indices[..] else {
        panic!("spec has at least three ok cells");
    };
    let journal = Journal::create(&dir, &s, None).unwrap();
    journal.record_cell(good, &whole.cells[good]);
    let mut cell = whole.cells[poisoned].clone();
    cell.status = CellStatus::Quarantined("engine panicked: injected".to_string());
    journal.record_cell(poisoned, &cell);
    let mut cell = whole.cells[hung].clone();
    cell.status = CellStatus::TimedOut("exceeded 1s cell timeout".to_string());
    journal.record_cell(hung, &cell);
    drop(journal);

    // Broken cells do not replay as finished — they get a fresh chance.
    let rep = replay(&dir, &s).unwrap();
    assert_eq!(rep.broken, 2);
    assert_eq!(rep.cells.len(), 1);
    assert_eq!(rep.cells[0].0, good);

    // After resume the quarantined/timed-out cells are clean again and
    // the whole artifact is counter-exact.
    let resumed = run_resumed(&s, &RunnerOpts::serial(), &rep.cells);
    assert_eq!(resumed.cells[poisoned].status, CellStatus::Ok);
    assert_eq!(resumed.cells[hung].status, CellStatus::Ok);
    assert_eq!(fingerprint(&resumed), fingerprint(&whole));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fixed_journal_of_the_v6_writer_resumes() {
    // The v6 writer journaled cells with a stop reason and stored
    // statistics; a fixed run of the same spec replays them.
    let s = spec(2);
    let dir = journal_dir("v6-cells");
    let whole = run(&s, &RunnerOpts::serial());
    let journal = Journal::create(&dir, &s, None).unwrap();
    journal.record_cell(0, &whole.cells[0]);
    drop(journal);
    let path = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&path)
        .unwrap()
        .replace(", \"seconds\"", ", \"stop_reason\": \"fixed\", \"seconds\"");
    let text = text.replace(
        ", \"counters\"",
        ", \"stats\": {\"n\": 2, \"median\": 7.0}, \"counters\"",
    );
    assert!(text.contains("stop_reason") && text.contains("\"stats\""));
    std::fs::write(&path, text).unwrap();
    let rep = replay(&dir, &s).unwrap();
    assert_eq!(rep.cells, vec![(0, whole.cells[0].clone())]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_flags_exactly_the_cell_whose_counter_drifted() {
    let current = run(&spec(1), &RunnerOpts::with_jobs(2));
    let mut baseline = current.clone();
    // A baseline measured 10× faster everywhere still compares clean...
    for cell in &mut baseline.cells {
        cell.seconds.iter_mut().for_each(|t| *t /= 10.0);
    }
    assert!(compare_counters(&baseline, &current, 0.0).clean());
    // ...while one instruction more in one cell flags that cell alone.
    assert_eq!(baseline.cells[0].status, CellStatus::Ok);
    baseline.cells[0].counters.instructions += 1;
    let report = compare_counters(&baseline, &current, 0.0);
    let (changed, d) = (report.changed(), &baseline.cells[0]);
    assert_eq!(changed.len(), 1);
    assert_eq!(changed[0].guest, d.guest);
    assert_eq!(changed[0].engine, d.engine);
    assert_eq!(changed[0].workload, d.workload);
}
