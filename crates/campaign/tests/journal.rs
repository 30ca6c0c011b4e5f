//! Journal replay's refusals and precedence rules: a journal is only
//! resumed against the spec it was written for, a damaged record is
//! fatal unless it is the torn final line, and the last record for a
//! cell wins.

use std::io::Write as _;
use std::path::PathBuf;

use simbench_campaign::measure::{EngineKind, Guest};
use simbench_campaign::{
    replay, run, CampaignResult, CampaignSpec, CellStatus, Journal, RunnerOpts, Shard, Workload,
    JOURNAL_FILE,
};
use simbench_suite::Benchmark;

/// Two cells on one guest and one engine: enough for a record to name
/// the wrong cell, small enough to measure in milliseconds.
fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "jtest".to_string(),
        guests: vec![Guest::Armlet],
        engines: vec![EngineKind::Interp],
        workloads: vec![
            Workload::Suite(Benchmark::Syscall),
            Workload::Suite(Benchmark::MemHot),
        ],
        scale: 500_000,
        reps: 1,
        wall_limit: Some(std::time::Duration::from_secs(60)),
    }
}

fn measured() -> CampaignResult {
    let result = run(&spec(), &RunnerOpts::serial());
    assert!(result.cells.iter().all(|c| c.status == CellStatus::Ok));
    result
}

fn dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simbench-replay-test-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A journal of `spec()` holding only its meta record.
fn fresh(name: &str) -> PathBuf {
    let dir = dir(name);
    Journal::create(&dir, &spec(), None).unwrap();
    dir
}

fn append(dir: &std::path::Path, line: &str) {
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(JOURNAL_FILE))
        .unwrap();
    writeln!(file, "{line}").unwrap();
}

fn replay_err(dir: &std::path::Path, spec: &CampaignSpec, shard: Option<Shard>) -> String {
    let err = replay(dir, spec, shard).unwrap_err();
    std::fs::remove_dir_all(dir).ok();
    err
}

#[test]
fn each_differing_spec_field_is_named_in_the_mismatch() {
    let renamed = CampaignSpec {
        name: "other".to_string(),
        ..spec()
    };
    let rescaled = CampaignSpec {
        scale: 1_000_000,
        ..spec()
    };
    let mut narrowed = spec();
    narrowed.workloads.pop();
    let cases = [
        (renamed, None, "name is \"jtest\" in the journal"),
        (rescaled, None, "scale is 500000 in the journal"),
        (narrowed, None, "cell count is 2 in the journal but 1 here"),
        (
            spec(),
            Shard::new(1, 2).ok(),
            "shard is None in the journal",
        ),
    ];
    for (i, (other, shard, what)) in cases.into_iter().enumerate() {
        let err = replay_err(&fresh(&format!("field-{i}")), &other, shard);
        assert!(err.contains("different campaign"), "{err}");
        assert!(err.contains(what), "{err}");
    }
}

#[test]
fn a_journal_of_another_schema_does_not_resume() {
    let d = dir("schema");
    std::fs::write(
        d.join(JOURNAL_FILE),
        "{\"record\": \"meta\", \"schema\": \"simbench-journal/v0\", \"name\": \"jtest\"}\n",
    )
    .unwrap();
    let err = replay_err(&d, &spec(), None);
    assert!(
        err.contains("unsupported journal schema \"simbench-journal/v0\""),
        "{err}"
    );
}

#[test]
fn the_first_record_must_be_the_meta_record() {
    let d = dir("no-meta-first");
    std::fs::write(d.join(JOURNAL_FILE), "").unwrap();
    append(
        &d,
        "{\"record\": \"rep\", \"cell\": 0, \"rep\": 0, \"attempt\": 0, \"outcome\": \"ok\"}",
    );
    let err = replay_err(&d, &spec(), None);
    assert!(
        err.contains("first record is \"rep\", expected \"meta\""),
        "{err}"
    );
}

#[test]
fn a_second_meta_record_is_an_error() {
    let d = fresh("two-metas");
    let meta = std::fs::read_to_string(d.join(JOURNAL_FILE)).unwrap();
    append(&d, meta.trim_end());
    let err = replay_err(&d, &spec(), None);
    assert!(err.ends_with(":2: duplicate meta record"), "{err}");
}

#[test]
fn an_empty_or_fully_torn_journal_has_no_meta() {
    for (name, text) in [("empty", ""), ("torn", "{\"record\": \"me")] {
        let d = dir(name);
        std::fs::write(d.join(JOURNAL_FILE), text).unwrap();
        let err = replay_err(&d, &spec(), None);
        assert!(err.contains("no meta record"), "{name}: {err}");
    }
}

#[test]
fn a_malformed_line_before_the_last_is_fatal_and_located() {
    // Only the final line can be torn by a crash; damage anywhere else
    // is not a crash artifact, and resuming past it would mismeasure.
    let d = fresh("mid-torn");
    append(&d, "{\"record\": \"cell\", \"index\": 0, \"ce");
    append(
        &d,
        "{\"record\": \"rep\", \"cell\": 0, \"rep\": 0, \"attempt\": 0, \"outcome\": \"ok\"}",
    );
    let err = replay_err(&d, &spec(), None);
    assert!(err.contains(&format!("{JOURNAL_FILE}:2: ")), "{err}");
}

#[test]
fn a_cell_record_needs_an_index_in_range() {
    let cell = &measured().cells[0];
    let d = fresh("index");
    Journal::resume(&d).unwrap().record_cell(2, cell);
    let err = replay_err(&d, &spec(), None);
    assert!(
        err.contains(":2: cell index 2 out of range (spec has 2)"),
        "{err}"
    );

    let d = fresh("no-index");
    append(&d, "{\"record\": \"cell\"}");
    let err = replay_err(&d, &spec(), None);
    assert!(err.contains(":2: cell record without index"), "{err}");
}

#[test]
fn a_cell_record_for_another_cell_of_the_spec_is_an_error() {
    let whole = measured();
    let d = fresh("identity");
    Journal::resume(&d).unwrap().record_cell(1, &whole.cells[0]);
    let err = replay_err(&d, &spec(), None);
    assert!(
        err.contains("cell 1 is armlet/interp suite:System Call in the journal"),
        "{err}"
    );
}

#[test]
fn the_last_record_for_an_index_wins() {
    let whole = measured();
    let mut timed_out = whole.cells[0].clone();
    timed_out.status = CellStatus::TimedOut("exceeded 1s cell timeout".to_string());
    let mut broken = whole.cells[1].clone();
    broken.status = CellStatus::Quarantined("engine panicked: injected".to_string());
    let d = fresh("last-wins");
    let journal = Journal::resume(&d).unwrap();
    // Cell 0 timed out, then a resumed run finished it; cell 1
    // finished, then a later run of the same journal broke it.
    journal.record_cell(0, &timed_out);
    journal.record_cell(0, &whole.cells[0]);
    journal.record_cell(1, &whole.cells[1]);
    journal.record_cell(1, &broken);
    drop(journal);
    let rep = replay(&d, &spec(), None).unwrap();
    assert_eq!(rep.cells, vec![(0, whole.cells[0].clone())]);
    assert_eq!(rep.broken, 1);
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn unknown_record_kinds_are_skipped_and_reps_counted() {
    let d = fresh("unknown");
    let journal = Journal::resume(&d).unwrap();
    journal.record_rep(0, 0, 0, "ok");
    journal.record_rep(0, 0, 1, "ok");
    drop(journal);
    append(&d, "{\"record\": \"checkpoint\", \"at\": 3}");
    let rep = replay(&d, &spec(), None).unwrap();
    assert_eq!(
        (rep.reps, rep.cells.len(), rep.broken, rep.torn),
        (2, 0, 0, false)
    );
    std::fs::remove_dir_all(&d).ok();
}

#[test]
fn a_missing_journal_is_an_error_naming_its_path() {
    let d = dir("missing");
    let err = replay_err(&d, &spec(), None);
    assert!(
        err.contains(&*d.join(JOURNAL_FILE).to_string_lossy()),
        "{err}"
    );
}
