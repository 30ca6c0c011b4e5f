//! Golden-fixture tests for the persisted campaign schema.
//!
//! The committed fixtures pin the on-disk format: `campaign_v6.json` is
//! a whole-matrix result in the current `simbench-campaign/v6` layout,
//! `campaign_v6_shard.json` a partial (shard) result with shard metadata
//! and `skipped` cells, and `campaign_v5.json` / `campaign_v5_shard.json`
//! their `v5` forms, which load unchanged but for the schema line. Any
//! unintentional change to the serializer or the parser shows up here as
//! a byte diff; after an *intentional* schema change, regenerate the v6
//! fixtures with
//!
//! ```sh
//! cargo test -p simbench-campaign --test golden regen -- --ignored
//! ```

use simbench_campaign::{CampaignResult, CellStatus, LoadError, Shard, SCHEMA, SCHEMA_V5};

const V5: &str = include_str!("fixtures/campaign_v5.json");
const V5_SHARD: &str = include_str!("fixtures/campaign_v5_shard.json");
const V6: &str = include_str!("fixtures/campaign_v6.json");
const V6_SHARD: &str = include_str!("fixtures/campaign_v6_shard.json");

/// The shard fixture's in-memory value: shard 2 of 3, one owned cell
/// measured, the two unowned cells skipped.
fn shard_demo() -> CampaignResult {
    let mut r = CampaignResult::from_json(V6).unwrap();
    r.shard = Some(Shard::new(2, 3).unwrap());
    for (i, cell) in r.cells.iter_mut().enumerate() {
        if i != 1 {
            cell.status = CellStatus::Skipped;
            cell.seconds.clear();
            cell.stats = None;
            cell.counters = Default::default();
            cell.counters_consistent = true;
            cell.tested_ops = None;
            cell.counter_variants.clear();
            cell.iterations = 0;
            cell.reps_run = 0;
            cell.attempts = 0;
            cell.stop_reason = None;
        }
    }
    r
}

#[test]
fn v6_fixture_round_trips_byte_stably() {
    let parsed = CampaignResult::from_json(V6).expect("v6 fixture parses");
    assert_eq!(parsed.schema, SCHEMA);
    assert_eq!(parsed.shard, None);
    assert_eq!(parsed.telemetry, None);
    assert_eq!(parsed.journal, None);
    assert_eq!(
        parsed.to_json(),
        V6,
        "re-serializing the v6 fixture must reproduce it byte for byte"
    );
}

#[test]
fn v6_shard_fixture_round_trips_byte_stably() {
    let parsed = CampaignResult::from_json(V6_SHARD).expect("v6 shard fixture parses");
    assert_eq!(parsed.schema, SCHEMA);
    assert_eq!(parsed.shard, Some(Shard::new(2, 3).unwrap()));
    assert_eq!(parsed.cells[0].status, CellStatus::Skipped);
    assert_eq!(parsed.cells[1].status, CellStatus::Ok);
    assert_eq!(
        parsed.to_json(),
        V6_SHARD,
        "re-serializing the shard fixture must reproduce it byte for byte"
    );
}

#[test]
fn v5_fixture_migrates_to_exactly_the_v6_fixture() {
    assert!(V5.contains(SCHEMA_V5));
    let migrated = CampaignResult::from_json(V5).expect("v5 fixture parses");
    assert_eq!(migrated.schema, SCHEMA, "migration normalizes the schema");
    assert_eq!(
        migrated.to_json(),
        V6,
        "saving a loaded v5 file must produce the committed v6 rendering \
         (the only difference is the schema line)"
    );
    // v5 statistics and stop verdicts are trusted verbatim; the new v6
    // fields take their defaults (attempts = reps_run, no journal).
    assert_eq!(migrated.cells[0].attempts, migrated.cells[0].reps_run);
    assert_eq!(migrated.journal, None, "v5 predates journaling");
}

#[test]
fn v5_shard_fixture_migrates_to_exactly_the_v6_shard_fixture() {
    let migrated = CampaignResult::from_json(V5_SHARD).expect("v5 shard fixture parses");
    assert_eq!(migrated.schema, SCHEMA);
    assert_eq!(migrated.shard, Some(Shard::new(2, 3).unwrap()));
    assert_eq!(migrated.to_json(), V6_SHARD);
}

#[test]
fn migrated_fixture_keeps_cell_semantics() {
    let migrated = CampaignResult::from_json(V5).unwrap();
    assert_eq!(migrated.name, "golden");
    assert_eq!(migrated.cells.len(), 3);
    assert_eq!(migrated.cells[0].status, CellStatus::Ok);
    assert_eq!(migrated.cells[0].counters.syscalls, 2500);
    assert_eq!(
        migrated.cells[2].status,
        CellStatus::Unsupported("intc device model".to_string())
    );
    assert!(migrated.cells[2].stats.is_none());
}

#[test]
fn unknown_schema_versions_are_typed_errors() {
    for found in [
        "simbench-campaign/v0",
        "simbench-campaign/v4",
        "simbench-campaign/v7",
        "nonsense",
    ] {
        let text = V6.replace(SCHEMA, found);
        match CampaignResult::from_json(&text) {
            Err(LoadError::Schema { found: f }) => assert_eq!(f, found),
            other => panic!("expected a schema error for {found:?}, got {other:?}"),
        }
    }
}

#[test]
fn a_v4_document_is_a_schema_error_not_a_migration() {
    let v4 = V5.replace(SCHEMA_V5, "simbench-campaign/v4");
    let err = CampaignResult::from_json(&v4).unwrap_err();
    let found = "simbench-campaign/v4".to_string();
    assert_eq!(err, LoadError::Schema { found });
}

#[test]
fn loading_a_fixture_file_matches_parsing_its_text() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let loaded = CampaignResult::load(format!("{dir}/tests/fixtures/campaign_v5.json")).unwrap();
    assert_eq!(loaded.to_json(), V6);
}

#[test]
fn malformed_documents_are_typed_errors_not_panics() {
    // Not JSON at all.
    assert!(matches!(
        CampaignResult::from_json("simbench"),
        Err(LoadError::Json(_))
    ));
    // Valid JSON, no schema.
    assert!(matches!(
        CampaignResult::from_json("{}"),
        Err(LoadError::Malformed(_))
    ));
    // Known schema, missing cells.
    let text = format!("{{\"schema\": \"{SCHEMA}\", \"name\": \"x\"}}");
    assert!(matches!(
        CampaignResult::from_json(&text),
        Err(LoadError::Malformed(_))
    ));
    // Unknown counter name inside a cell.
    let text = V6.replace("\"instructions\"", "\"instruction_bytes\"");
    match CampaignResult::from_json(&text) {
        Err(LoadError::Malformed(e)) => assert!(e.contains("unknown counter"), "{e}"),
        other => panic!("expected malformed, got {other:?}"),
    }
    // Corrupted timing entry.
    let text = V6.replace("[0.011, 0.0105]", "[0.011, true]");
    assert!(matches!(
        CampaignResult::from_json(&text),
        Err(LoadError::Malformed(_))
    ));
    // An unknown stop reason.
    let text = V6.replace("\"stop_reason\": \"fixed\"", "\"stop_reason\": \"bored\"");
    match CampaignResult::from_json(&text) {
        Err(LoadError::Malformed(e)) => assert!(e.contains("stop_reason"), "{e}"),
        other => panic!("expected malformed, got {other:?}"),
    }
    // Shard metadata with an out-of-range index.
    let text = V6_SHARD.replace("\"index\": 2", "\"index\": 9");
    match CampaignResult::from_json(&text) {
        Err(LoadError::Malformed(e)) => assert!(e.contains("shard"), "{e}"),
        other => panic!("expected malformed, got {other:?}"),
    }
    // A telemetry block that is not an object.
    let text = V6.replace(
        "\"created_unix\": 1700000000,",
        "\"created_unix\": 1700000000,\n  \"telemetry\": [],",
    );
    match CampaignResult::from_json(&text) {
        Err(LoadError::Malformed(e)) => assert!(e.contains("telemetry"), "{e}"),
        other => panic!("expected malformed, got {other:?}"),
    }
}

#[test]
fn unreadable_files_are_io_errors() {
    let err = CampaignResult::load("/nonexistent/simbench-golden.json").unwrap_err();
    assert!(matches!(err, LoadError::Io(_)), "{err}");
}

/// Regenerates `fixtures/campaign_v6.json` from the committed v5
/// fixture. Ignored by default: run it manually after an intentional
/// schema change, then review the diff.
#[test]
#[ignore = "writes the v6 fixture; run manually after intentional schema changes"]
fn regen_v6_fixture() {
    let migrated = CampaignResult::from_json(V5).unwrap();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/campaign_v6.json"
    );
    std::fs::write(path, migrated.to_json()).unwrap();
}

/// Regenerates `fixtures/campaign_v6_shard.json` from the v6 fixture.
#[test]
#[ignore = "writes the shard fixture; run manually after intentional schema changes"]
fn regen_v6_shard_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/campaign_v6_shard.json"
    );
    std::fs::write(path, shard_demo().to_json()).unwrap();
}
