//! Recombining sharded campaign results.
//!
//! A sharded campaign runs `campaign run --shard I/N` once per shard
//! (any process, any machine) and persists N partial results, each
//! carrying the full cell layout with unowned cells marked
//! [`CellStatus::Skipped`] plus `{index, count}` shard metadata.
//! [`merge`] recombines them into one whole-matrix [`CampaignResult`].
//!
//! Because sharding is cell-complete and job execution is
//! deterministic, the merged result is *counter-identical* to an
//! unsharded run of the same spec — `campaign compare`
//! against a whole-matrix run exits 0. The integration tests in
//! `tests/campaign.rs` assert exactly that at several shard counts.
//!
//! Every way a set of files can fail to be a coherent shard set maps to
//! a typed [`MergeError`]: merging never guesses, and the CLI turns
//! these into a distinct exit code so CI can tell "bad shard set" from
//! "usage error".

use crate::result::{CampaignResult, CellResult, CellStatus, SCHEMA};
use crate::spec::Shard;

/// Why a set of results could not be merged. Each variant corresponds
/// to a concrete operator mistake or corrupt input; none are panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No inputs were given.
    Empty,
    /// Input `arg_index` (0-based position in the argument list) has no
    /// shard metadata — it is a whole-matrix or already-merged result.
    NotAShard {
        /// Position in the input list.
        arg_index: usize,
        /// Campaign name of the offending result.
        name: String,
    },
    /// Two inputs declare the same shard index: the same slice was
    /// passed twice (or two different runs were mixed).
    Overlap {
        /// The duplicated shard index.
        index: u32,
    },
    /// The inputs declare fewer shards than their common count: the
    /// listed indices are absent.
    Missing {
        /// Declared shard count.
        count: u32,
        /// Shard indices not present in the inputs.
        missing: Vec<u32>,
    },
    /// Two inputs disagree on a spec-level field (shard count, campaign
    /// name, scale, reps, or the cell matrix itself), so they cannot
    /// come from the same sharded campaign.
    SpecMismatch {
        /// Which field disagrees.
        field: &'static str,
        /// The first input's value.
        expected: String,
        /// The disagreeing input's value.
        found: String,
    },
    /// A cell was measured by a shard that does not own it, or by more
    /// than one shard — the deterministic cell→shard assignment was
    /// violated (hand-edited file, or shards from different layouts).
    CellConflict {
        /// Guest id of the conflicting cell.
        guest: String,
        /// Engine id of the conflicting cell.
        engine: String,
        /// Workload id of the conflicting cell.
        workload: String,
    },
    /// A cell was skipped by every shard, including its owner, so the
    /// merged matrix would have a hole no shard can fill.
    CellUnmeasured {
        /// Guest id of the unmeasured cell.
        guest: String,
        /// Engine id of the unmeasured cell.
        engine: String,
        /// Workload id of the unmeasured cell.
        workload: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no shard results to merge"),
            MergeError::NotAShard { arg_index, name } => write!(
                f,
                "input {} (campaign {name:?}) carries no shard metadata — \
                 only results from `campaign run --shard I/N` can be merged",
                arg_index + 1
            ),
            MergeError::Overlap { index } => {
                write!(
                    f,
                    "shard {index} appears more than once (overlapping slices)"
                )
            }
            MergeError::Missing { count, missing } => {
                let list: Vec<String> = missing.iter().map(u32::to_string).collect();
                write!(
                    f,
                    "incomplete shard set: {}/{count} shard(s) missing (index {})",
                    missing.len(),
                    list.join(", ")
                )
            }
            MergeError::SpecMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "shards disagree on {field}: {expected:?} vs {found:?} — \
                 all shards must come from one spec"
            ),
            MergeError::CellConflict {
                guest,
                engine,
                workload,
            } => write!(
                f,
                "cell {guest}/{engine} {workload} was measured by a shard that \
                 does not own it"
            ),
            MergeError::CellUnmeasured {
                guest,
                engine,
                workload,
            } => write!(
                f,
                "cell {guest}/{engine} {workload} was skipped by every shard, \
                 including its owner"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Check that every shard echoes the same spec-level fields and cell
/// matrix as the first one.
fn check_spec_consistency(shards: &[&CampaignResult]) -> Result<(), MergeError> {
    let first = shards[0];
    let mismatch = |field: &'static str, expected: String, found: String| {
        Err(MergeError::SpecMismatch {
            field,
            expected,
            found,
        })
    };
    for other in &shards[1..] {
        if other.name != first.name {
            return mismatch("campaign name", first.name.clone(), other.name.clone());
        }
        if other.scale != first.scale {
            return mismatch("scale", first.scale.to_string(), other.scale.to_string());
        }
        if other.reps != first.reps {
            return mismatch("reps", first.reps.to_string(), other.reps.to_string());
        }
        if other.cells.len() != first.cells.len() {
            return mismatch(
                "cell count",
                first.cells.len().to_string(),
                other.cells.len().to_string(),
            );
        }
        for (a, b) in first.cells.iter().zip(&other.cells) {
            if (a.guest != b.guest) || (a.engine != b.engine) || (a.workload != b.workload) {
                return mismatch(
                    "cell identity",
                    format!("{}/{} {}", a.guest, a.engine, a.workload),
                    format!("{}/{} {}", b.guest, b.engine, b.workload),
                );
            }
        }
    }
    Ok(())
}

/// Merge a complete set of shard results into one whole-matrix
/// [`CampaignResult`], counter-identical to an unsharded run.
///
/// Inputs may arrive in any order. The merge validates, in order:
/// every input is a shard ([`MergeError::NotAShard`]); all inputs agree
/// on the shard count and spec fields ([`MergeError::SpecMismatch`]);
/// no index repeats ([`MergeError::Overlap`]); all indices `1..=N` are
/// present ([`MergeError::Missing`]); and each cell was measured by
/// exactly its deterministic owner ([`MergeError::CellConflict`] /
/// [`MergeError::CellUnmeasured`]).
///
/// The merged result has no shard metadata; its `jobs` is the sum of
/// the shards' worker counts, its `wall_secs` the maximum across
/// shards (shards run concurrently), and its `created_unix` the latest
/// shard's timestamp.
pub fn merge(shards: &[CampaignResult]) -> Result<CampaignResult, MergeError> {
    if shards.is_empty() {
        return Err(MergeError::Empty);
    }
    // Every input must be a shard, and all must declare the same count.
    let mut infos: Vec<(Shard, &CampaignResult)> = Vec::with_capacity(shards.len());
    for (i, r) in shards.iter().enumerate() {
        let shard = r.shard.ok_or_else(|| MergeError::NotAShard {
            arg_index: i,
            name: r.name.clone(),
        })?;
        infos.push((shard, r));
    }
    let count = infos[0].0.count;
    for (shard, _) in &infos {
        if shard.count != count {
            return Err(MergeError::SpecMismatch {
                field: "shard count",
                expected: count.to_string(),
                found: shard.count.to_string(),
            });
        }
    }
    check_spec_consistency(&infos.iter().map(|(_, r)| *r).collect::<Vec<_>>())?;

    // Index the shards 1..=count, rejecting duplicates and holes.
    let mut by_index: Vec<Option<&CampaignResult>> = vec![None; count as usize];
    for (shard, r) in &infos {
        let slot = &mut by_index[(shard.index - 1) as usize];
        if slot.is_some() {
            return Err(MergeError::Overlap { index: shard.index });
        }
        *slot = Some(r);
    }
    let missing: Vec<u32> = by_index
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i as u32 + 1)
        .collect();
    if !missing.is_empty() {
        return Err(MergeError::Missing { count, missing });
    }
    let by_index: Vec<&CampaignResult> = by_index.into_iter().map(Option::unwrap).collect();

    // Stitch the matrix: cell i comes from its deterministic owner;
    // every other shard must have skipped it.
    let total_cells = by_index[0].cells.len();
    let mut cells: Vec<CellResult> = Vec::with_capacity(total_cells);
    for i in 0..total_cells {
        // Ownership comes from the one authoritative assignment rule in
        // Shard::owner_index — the same rule shard execution used.
        let owner_pos = (Shard::owner_index(i, count) - 1) as usize;
        let owner = by_index[owner_pos];
        let cell = &owner.cells[i];
        if cell.status == CellStatus::Skipped {
            return Err(MergeError::CellUnmeasured {
                guest: cell.guest.clone(),
                engine: cell.engine.clone(),
                workload: cell.workload.clone(),
            });
        }
        for (j, r) in by_index.iter().enumerate() {
            if j != owner_pos && r.cells[i].status != CellStatus::Skipped {
                return Err(MergeError::CellConflict {
                    guest: cell.guest.clone(),
                    engine: cell.engine.clone(),
                    workload: cell.workload.clone(),
                });
            }
        }
        cells.push(cell.clone());
    }

    let first = by_index[0];
    Ok(CampaignResult {
        schema: SCHEMA.to_string(),
        name: first.name.clone(),
        scale: first.scale,
        reps: first.reps,
        jobs: by_index.iter().map(|r| r.jobs).sum(),
        shard: None,
        wall_secs: by_index.iter().map(|r| r.wall_secs).fold(0.0, f64::max),
        created_unix: by_index.iter().map(|r| r.created_unix).max().unwrap_or(0),
        // Shard telemetry snapshots are process-wide and overlap in
        // unknowable ways; a merged sum would be fiction, so merges
        // carry no telemetry. Likewise each shard journaled to its own
        // directory: the merged whole has no single journal to echo.
        telemetry: None,
        journal: None,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{EngineKind, Guest};
    use crate::runner::{run, run_shard, RunnerOpts};
    use crate::spec::{CampaignSpec, Workload};
    use simbench_suite::Benchmark;
    use std::time::Duration;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "merge-test".to_string(),
            guests: vec![Guest::Armlet, Guest::Petix],
            engines: vec![EngineKind::Interp, EngineKind::Native],
            workloads: vec![
                Workload::Suite(Benchmark::Syscall),
                Workload::Suite(Benchmark::MemHot),
                Workload::Suite(Benchmark::NonprivAccess),
            ],
            scale: u64::MAX, // 16-iteration floor: fast
            reps: 2,
            wall_limit: Some(Duration::from_secs(60)),
        }
    }

    fn shards(count: u32) -> Vec<CampaignResult> {
        (1..=count)
            .map(|i| {
                run_shard(
                    &spec(),
                    &RunnerOpts::serial(),
                    Some(Shard::new(i, count).unwrap()),
                )
            })
            .collect()
    }

    #[test]
    fn merged_shards_match_the_unsharded_run() {
        let whole = run(&spec(), &RunnerOpts::serial());
        for count in [1u32, 2, 3, 5] {
            let merged = merge(&shards(count)).unwrap();
            assert_eq!(merged.shard, None);
            assert_eq!(merged.cells.len(), whole.cells.len());
            for (a, b) in merged.cells.iter().zip(&whole.cells) {
                assert_eq!(a.guest, b.guest);
                assert_eq!(a.engine, b.engine);
                assert_eq!(a.workload, b.workload);
                assert_eq!(
                    a.status, b.status,
                    "{}/{} {}",
                    a.guest, a.engine, a.workload
                );
                assert_eq!(a.counters, b.counters);
                assert_eq!(a.iterations, b.iterations);
                assert_eq!(a.tested_ops, b.tested_ops);
                assert_eq!(a.seconds.len(), b.seconds.len());
            }
        }
    }

    #[test]
    fn merge_accepts_any_input_order() {
        let mut s = shards(3);
        s.rotate_left(1);
        s.swap(0, 1);
        let merged = merge(&s).unwrap();
        assert!(merged.cells.iter().all(|c| c.status != CellStatus::Skipped));
    }

    #[test]
    fn merge_sums_jobs_and_takes_max_wall() {
        let mut s = shards(2);
        s[0].jobs = 4;
        s[1].jobs = 8;
        s[0].wall_secs = 1.5;
        s[1].wall_secs = 2.5;
        let merged = merge(&s).unwrap();
        assert_eq!(merged.jobs, 12);
        assert_eq!(merged.wall_secs, 2.5);
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(merge(&[]).unwrap_err(), MergeError::Empty);
    }

    #[test]
    fn whole_matrix_results_are_rejected() {
        let whole = run(&spec(), &RunnerOpts::serial());
        let err = merge(&[whole]).unwrap_err();
        assert!(
            matches!(err, MergeError::NotAShard { arg_index: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("no shard metadata"), "{err}");
    }

    #[test]
    fn duplicate_shards_are_an_overlap() {
        let s = shards(2);
        let err = merge(&[s[0].clone(), s[0].clone()]).unwrap_err();
        assert_eq!(err, MergeError::Overlap { index: 1 });
        assert!(err.to_string().contains("more than once"), "{err}");
    }

    #[test]
    fn missing_shards_are_reported_by_index() {
        let s = shards(3);
        let err = merge(&[s[0].clone(), s[2].clone()]).unwrap_err();
        assert_eq!(
            err,
            MergeError::Missing {
                count: 3,
                missing: vec![2],
            }
        );
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn mismatched_specs_are_rejected() {
        let s2 = shards(2);
        // Shard counts disagree.
        let s3 = shards(3);
        let err = merge(&[s2[0].clone(), s3[1].clone()]).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::SpecMismatch {
                    field: "shard count",
                    ..
                }
            ),
            "{err}"
        );
        // Same count, different campaign name.
        let mut renamed = s2[1].clone();
        renamed.name = "other".to_string();
        let err = merge(&[s2[0].clone(), renamed]).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::SpecMismatch {
                    field: "campaign name",
                    ..
                }
            ),
            "{err}"
        );
        // Same count and name, different scale.
        let mut rescaled = s2[1].clone();
        rescaled.scale = 7;
        let err = merge(&[s2[0].clone(), rescaled]).unwrap_err();
        assert!(
            matches!(err, MergeError::SpecMismatch { field: "scale", .. }),
            "{err}"
        );
    }

    #[test]
    fn a_cell_measured_by_a_non_owner_is_a_conflict() {
        let mut s = shards(2);
        // Shard 2 illegitimately "measures" a cell shard 1 owns.
        let idx = (0..s[1].cells.len())
            .find(|i| i % 2 == 0)
            .expect("cell owned by shard 1");
        s[1].cells[idx].status = CellStatus::Ok;
        let err = merge(&s).unwrap_err();
        assert!(matches!(err, MergeError::CellConflict { .. }), "{err}");
    }

    #[test]
    fn a_cell_skipped_by_its_owner_is_unmeasured() {
        let mut s = shards(2);
        let idx = (0..s[0].cells.len())
            .find(|i| i % 2 == 0)
            .expect("cell owned by shard 1");
        s[0].cells[idx].status = CellStatus::Skipped;
        let err = merge(&s).unwrap_err();
        assert!(matches!(err, MergeError::CellUnmeasured { .. }), "{err}");
    }

    #[test]
    fn quarantined_and_timed_out_cells_merge_through_as_broken_coverage() {
        // A shard whose owner quarantined or timed out a cell still
        // measured it — the breakage must survive the merge verbatim
        // (for compare to flag as Broke), never read as an unmeasured
        // hole and never be silently replaced by another shard's data.
        let mut s = shards(2);
        let owned_by_1: Vec<usize> = (0..s[0].cells.len())
            .filter(|i| Shard::new(1, 2).unwrap().owns(*i))
            .collect();
        let (q_idx, t_idx) = (owned_by_1[0], owned_by_1[1]);
        s[0].cells[q_idx].status = CellStatus::Quarantined("engine panicked".to_string());
        s[0].cells[q_idx].seconds.clear();
        s[0].cells[q_idx].attempts = 3;
        s[0].cells[t_idx].status = CellStatus::TimedOut("exceeded 5s cell timeout".to_string());
        let merged = merge(&s).unwrap();
        assert_eq!(
            merged.cells[q_idx].status,
            CellStatus::Quarantined("engine panicked".to_string())
        );
        assert_eq!(merged.cells[q_idx].attempts, 3, "attempt count survives");
        assert_eq!(
            merged.cells[t_idx].status,
            CellStatus::TimedOut("exceeded 5s cell timeout".to_string())
        );
        // And the merged artifact round-trips the broken statuses.
        let parsed = CampaignResult::from_json(&merged.to_json()).unwrap();
        assert!(parsed.cells[q_idx].status.is_broken());
        assert!(parsed.cells[t_idx].status.is_broken());
    }
}
