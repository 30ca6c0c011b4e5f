//! Golden-fixture tests for the persisted campaign schema.
//!
//! The committed fixtures pin the on-disk format: `campaign_v7.json` is
//! a whole-matrix result in the current `simbench-campaign/v7` layout,
//! and `campaign_v7_full.json` carries every optional field the writer
//! knows (journal, telemetry, attempts, counter variants, every non-`ok`
//! status with a payload that needs escaping), so it pins every branch
//! of the writer. The two `campaign_v6*.json` files are their twins in the previous layout,
//! which also carried a `precision` echo and per-cell `stop_reason` and
//! `stats` members; they are frozen, and each loads to exactly its v7
//! twin. Any unintentional change to the serializer or the parser shows
//! up here as a byte diff; after an *intentional* schema change,
//! regenerate the v7 fixtures with
//!
//! ```sh
//! cargo test -p simbench-campaign --test golden regen -- --ignored
//! ```

use simbench_campaign::{
    CampaignResult, CampaignSpec, CellStatus, Journal, LoadError, Telemetry, JOURNAL_FILE, SCHEMA,
    SCHEMA_V6,
};

const V6: &str = include_str!("fixtures/campaign_v6.json");
const V6_FULL: &str = include_str!("fixtures/campaign_v6_full.json");
const V7: &str = include_str!("fixtures/campaign_v7.json");
const V7_FULL: &str = include_str!("fixtures/campaign_v7_full.json");

/// Each fixture's text with the schema string it declares.
const WHOLE: [(&str, &str); 2] = [(V6, SCHEMA_V6), (V7, SCHEMA)];

/// The full fixture's in-memory value: the v7 fixture plus every
/// optional top-level and per-cell field, each non-`ok` status with a
/// payload holding a quote, a backslash, a newline and non-ASCII text, a
/// cell without a category, and one non-finite second (written as `0`).
fn full_demo() -> CampaignResult {
    let payload = "said \"no\" at C:\\sim,\nthen µs ± 5 % → 終";
    let mut r = CampaignResult::from_json(V7).unwrap();
    r.journal = Some("runs/\"j\" µ".to_string());
    r.telemetry = Some(Telemetry {
        counters: vec![
            ("campaign.image_cache_hits".to_string(), 6),
            ("dbt.translations".to_string(), 123),
        ],
        histograms: vec![
            ("dbt.block_steps".to_string(), vec![(0, 2), (3, 5), (11, 1)]),
            ("virt.exit_ns".to_string(), vec![(7, 1)]),
        ],
    });
    r.cells[0].attempts = 5;
    let mut variant = r.cells[1].counters;
    variant.instructions += 1;
    r.cells[1].counter_variants = vec![r.cells[1].counters, variant];
    r.cells[2].status = CellStatus::Unsupported(payload.to_string());
    let template = r.cells[2].clone();
    for status in [
        CellStatus::Failed(payload.to_string()),
        CellStatus::Quarantined(payload.to_string()),
        CellStatus::TimedOut(payload.to_string()),
    ] {
        let mut cell = template.clone();
        cell.status = status;
        r.cells.push(cell);
    }
    r.cells[3].reps_run = 2;
    r.cells[3].attempts = 3;
    r.cells[3].seconds = vec![0.25, f64::INFINITY];
    let mut app = template;
    app.workload = "app:mcf-like".to_string();
    app.category = None;
    app.iterations = 0;
    app.status = CellStatus::NotOnIsa;
    r.cells.push(app);
    r
}

#[test]
fn v7_full_fixture_pins_every_writer_branch() {
    let r = full_demo();
    assert_eq!(
        r.to_json(),
        V7_FULL,
        "serializing the full demo must reproduce the full fixture byte for byte"
    );
    // The non-finite second is written as 0 and so reads back as 0.
    let mut expected = r;
    expected.cells[3].seconds[1] = 0.0;
    let parsed = CampaignResult::from_json(V7_FULL).expect("full fixture parses");
    assert_eq!(parsed, expected);
}

#[test]
fn journaled_cells_are_byte_identical_to_their_persisted_lines() {
    let r = full_demo();
    let dir = std::env::temp_dir().join(format!("simbench-golden-full-{}", std::process::id()));
    let journal = Journal::create(&dir, &CampaignSpec::full_matrix(20_000), None).unwrap();
    for (i, cell) in r.cells.iter().enumerate() {
        journal.record_cell(i, cell);
    }
    drop(journal);
    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let persisted: Vec<&str> = V7_FULL
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| l.starts_with('{'))
        .map(|l| l.strip_suffix(',').unwrap_or(l))
        .collect();
    let journaled: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(journaled.len(), r.cells.len());
    assert_eq!(persisted.len(), r.cells.len());
    for (i, (line, cell)) in journaled.iter().zip(&persisted).enumerate() {
        let want = format!("{{\"record\": \"cell\", \"index\": {i}, \"cell\": {cell}}}");
        assert_eq!(*line, want, "cell {i}");
    }
}

#[test]
fn v7_fixture_round_trips_byte_stably() {
    let parsed = CampaignResult::from_json(V7).expect("v7 fixture parses");
    assert_eq!(parsed.schema, SCHEMA);
    assert_eq!(parsed.telemetry, None);
    assert_eq!(parsed.journal, None);
    assert_eq!(
        parsed.to_json(),
        V7,
        "re-serializing the v7 fixture must reproduce it byte for byte"
    );
}

/// A v6 fixture loads to a result equal to its v7 twin's: its extra
/// members are skipped.
fn assert_v6_loads_as_v7(v6: &str, v7: &str) {
    assert!(v6.contains(SCHEMA_V6));
    let migrated = CampaignResult::from_json(v6).expect("v6 fixture parses");
    assert_eq!(migrated.schema, SCHEMA, "migration normalizes the schema");
    assert_eq!(migrated, CampaignResult::from_json(v7).unwrap());
}

#[test]
fn v6_fixture_loads_to_exactly_the_v7_fixture() {
    assert_v6_loads_as_v7(V6, V7);
    assert_eq!(CampaignResult::from_json(V6).unwrap().to_json(), V7);
}

#[test]
fn v6_full_fixture_loads_to_exactly_the_v7_full_fixture() {
    // The one fixture with a precision echo and every stop reason.
    assert!(V6_FULL.contains("\"precision\"") && V6_FULL.contains("\"converged\""));
    assert_v6_loads_as_v7(V6_FULL, V7_FULL);
}

#[test]
fn migrated_fixture_keeps_cell_semantics() {
    let migrated = CampaignResult::from_json(V6).unwrap();
    assert_eq!(migrated.name, "golden");
    assert_eq!(migrated.cells.len(), 3);
    assert_eq!(migrated.cells[0].status, CellStatus::Ok);
    assert_eq!(migrated.cells[0].counters.syscalls, 2500);
    // The time is the floor of the stored seconds, not a stored figure.
    assert_eq!(migrated.cells[0].metric(), Some(0.0105));
    assert_eq!(
        migrated.cells[2].status,
        CellStatus::Unsupported("intc device model".to_string())
    );
    assert!(migrated.cells[2].stats().is_none());
}

#[test]
fn unknown_schema_versions_are_typed_errors() {
    for found in [
        "simbench-campaign/v0",
        "simbench-campaign/v4",
        "simbench-campaign/v5",
        "simbench-campaign/v8",
        "nonsense",
    ] {
        let text = V7.replace(SCHEMA, found);
        match CampaignResult::from_json(&text) {
            Err(LoadError::Schema { found: f }) => assert_eq!(f, found),
            other => panic!("expected a schema error for {found:?}, got {other:?}"),
        }
    }
}

#[test]
fn a_v5_document_is_a_schema_error_not_a_migration() {
    let v5 = V6.replace(SCHEMA_V6, "simbench-campaign/v5");
    let err = CampaignResult::from_json(&v5).unwrap_err();
    let found = "simbench-campaign/v5".to_string();
    assert_eq!(err, LoadError::Schema { found });
    let text = err.to_string();
    assert!(text.contains(SCHEMA) && text.contains(SCHEMA_V6), "{text}");
}

#[test]
fn loading_a_fixture_file_matches_parsing_its_text() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let loaded = CampaignResult::load(format!("{dir}/tests/fixtures/campaign_v6.json")).unwrap();
    assert_eq!(loaded.to_json(), V7);
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
    let text = V7.replace("\"instructions\"", "\"instruction_bytes\"");
    match CampaignResult::from_json(&text) {
        Err(LoadError::Malformed(e)) => assert!(e.contains("unknown counter"), "{e}"),
        other => panic!("expected malformed, got {other:?}"),
    }
    // Corrupted timing entry.
    let text = V7.replace("[0.011, 0.0105]", "[0.011, true]");
    assert!(matches!(
        CampaignResult::from_json(&text),
        Err(LoadError::Malformed(_))
    ));
    // A telemetry block that is not an object.
    let text = V7.replace(
        "\"created_unix\": 1700000000,",
        "\"created_unix\": 1700000000,\n  \"telemetry\": [],",
    );
    match CampaignResult::from_json(&text) {
        Err(LoadError::Malformed(e)) => assert!(e.contains("telemetry"), "{e}"),
        other => panic!("expected malformed, got {other:?}"),
    }
}

#[test]
fn a_result_carrying_a_shard_is_refused() {
    // A slice written by the removed `--shard` option must never load
    // as if it were the whole matrix.
    for (fixture, _) in WHOLE {
        let member = "  \"shard\": {\"index\": 1, \"count\": 2},\n  \"cells\": [";
        let text = fixture.replacen("  \"cells\": [", member, 1);
        match CampaignResult::from_json(&text) {
            Err(LoadError::Malformed(e)) => assert!(e.contains("removed --shard option"), "{e}"),
            other => panic!("expected malformed, got {other:?}"),
        }
    }
}

/// A fixture with cell 0's timings corrupted into a layout error.
fn with_malformed_cell_0(text: &str) -> String {
    text.replace("[0.011, 0.0105]", "[0.011, true]")
}

#[test]
fn a_malformed_cell_followed_by_a_syntax_error_is_a_json_error() {
    // The syntax error in a later cell, and after the cells array.
    for (fixture, _) in WHOLE {
        let bad = with_malformed_cell_0(fixture);
        for text in [
            bad.replace("\"seconds\": []}", "\"seconds\": [,]}"),
            bad.replace("  ]\n}\n", "  ]\n}}\n"),
        ] {
            let err = CampaignResult::from_json(&text).unwrap_err();
            assert!(matches!(err, LoadError::Json(_)), "{err}");
        }
    }
}

#[test]
fn an_unknown_schema_beats_a_malformed_cell() {
    for (fixture, schema) in WHOLE {
        let text = with_malformed_cell_0(fixture).replace(schema, "simbench-campaign/v0");
        let found = "simbench-campaign/v0".to_string();
        assert_eq!(
            CampaignResult::from_json(&text).unwrap_err(),
            LoadError::Schema { found }
        );
    }
}

#[test]
fn a_schema_written_after_the_cells_loads() {
    for (fixture, schema) in WHOLE {
        let schema_line = format!("  \"schema\": \"{schema}\",\n");
        let text = fixture.replace(&schema_line, "").replace(
            "  ]\n}\n",
            &format!("  ],\n  \"schema\": \"{schema}\"\n}}\n"),
        );
        assert_ne!(text, fixture);
        assert_eq!(CampaignResult::from_json(&text).unwrap().to_json(), V7);
    }
}

#[test]
fn a_duplicate_key_keeps_its_last_value() {
    // At the top level, in a cell, inside counters and for the cells
    // array itself: the earlier value is wrong or malformed, the later
    // one is the fixture's.
    for (fixture, _) in WHOLE {
        let text = fixture
            .replace(
                "  \"name\": \"golden\",",
                "  \"name\": 7,\n  \"name\": \"golden\",",
            )
            .replace(
                "\"iterations\": 2500",
                "\"iterations\": 1, \"iterations\": 2500",
            )
            .replace(
                "\"reps_run\": 2, ",
                "\"reps_run\": 2, \"attempts\": 9, \"attempts\": 2, ",
            )
            .replace(
                "\"syscalls\": 2500",
                "\"syscalls\": \"x\", \"syscalls\": 2500",
            )
            .replace(
                "\"tested_ops\": 100",
                "\"tested_ops\": \"x\", \"tested_ops\": 100",
            )
            .replace("  \"cells\": [", "  \"cells\": [{}],\n  \"cells\": [");
        assert_eq!(CampaignResult::from_json(&text).unwrap().to_json(), V7);
        // And a malformed last value is an error even after a good one.
        let text = fixture.replace(
            "\"tested_ops\": 100",
            "\"tested_ops\": 100, \"tested_ops\": \"x\"",
        );
        match CampaignResult::from_json(&text) {
            Err(LoadError::Malformed(e)) => assert_eq!(e, "cell 1: \"tested_ops\" not an integer"),
            other => panic!("expected malformed, got {other:?}"),
        }
    }
}

#[test]
fn a_string_in_seconds_or_counters_is_malformed_and_names_the_cell() {
    for (fixture, _) in WHOLE {
        for (from, to, want) in [
            (
                "\"seconds\": [0.5]",
                "\"seconds\": [\"0.5\"]",
                "cell 1: non-numeric entry in \"seconds\"",
            ),
            (
                "\"tlb_misses\": 100",
                "\"tlb_misses\": \"100\"",
                "cell 1: counter tlb_misses not an integer",
            ),
        ] {
            match CampaignResult::from_json(&fixture.replace(from, to)) {
                Err(LoadError::Malformed(e)) => assert_eq!(e, want),
                other => panic!("{to}: expected malformed, got {other:?}"),
            }
        }
    }
}

/// Every proper prefix of a committed fixture is a syntax error, except
/// the ones that only drop trailing whitespace, which load.
#[test]
fn truncated_fixtures_are_json_errors_not_panics() {
    for text in [V6, V6_FULL, V7, V7_FULL] {
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            let prefix = &text[..end];
            match CampaignResult::from_json(prefix) {
                Ok(_) if prefix.trim_end() == text.trim_end() => {}
                Err(LoadError::Json(_)) => {}
                other => panic!("prefix of {end} bytes: {other:?}"),
            }
        }
    }
}

/// Every single-byte replacement at 256 seeded positions of each fixture
/// that leaves valid UTF-8 loads or fails with a typed error, never a
/// panic; and it is a syntax error exactly when the value-tree parser
/// also rejects the text.
#[test]
fn corrupted_fixtures_load_or_fail_typed() {
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for text in [V6, V6_FULL, V7, V7_FULL] {
        for _ in 0..256 {
            // xorshift64: a fixed, dependency-free position sequence.
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let at = (seed % text.len() as u64) as usize;
            for byte in 0..=255u8 {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] = byte;
                let Ok(mutant) = String::from_utf8(bytes) else {
                    continue;
                };
                let syntax_ok = simbench_campaign::json::parse(&mutant).is_ok();
                match CampaignResult::from_json(&mutant) {
                    Err(LoadError::Json(_)) => assert!(!syntax_ok, "{mutant}"),
                    Err(LoadError::Io(e)) => panic!("{e}"),
                    _ => assert!(syntax_ok, "{mutant}"),
                }
            }
        }
    }
}

#[test]
fn unreadable_files_are_io_errors() {
    let err = CampaignResult::load("/nonexistent/simbench-golden.json").unwrap_err();
    assert!(matches!(err, LoadError::Io(_)), "{err}");
}

/// Regenerates `fixtures/campaign_v7.json` from the frozen v6 fixture.
/// Ignored by default: run it manually after an intentional schema
/// change, then review the diff.
#[test]
#[ignore = "writes the v7 fixture; run manually after intentional schema changes"]
fn regen_v7_fixture() {
    let migrated = CampaignResult::from_json(V6).unwrap();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/campaign_v7.json"
    );
    std::fs::write(path, migrated.to_json()).unwrap();
}

/// Regenerates `fixtures/campaign_v7_full.json` from [`full_demo`].
#[test]
#[ignore = "writes the full fixture; run manually after intentional schema changes"]
fn regen_v7_full_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/campaign_v7_full.json"
    );
    std::fs::write(path, full_demo().to_json()).unwrap();
}
