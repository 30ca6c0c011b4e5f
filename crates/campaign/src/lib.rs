//! # simbench-campaign
//!
//! The measurement-campaign subsystem: the paper's methodology is a
//! measurement *matrix* — every micro-benchmark on every simulator,
//! version and guest ISA — and this crate turns that matrix into a
//! first-class, parallel, persistent object:
//!
//! * [`spec`] — declarative [`CampaignSpec`] (guests × engines ×
//!   workloads × scale × repetitions) expanded into independent jobs;
//! * [`runner`] — a completion-driven worker pool
//!   executing jobs concurrently; each job owns its `Machine` and
//!   engine, so results are identical at any `--jobs` count (timings
//!   aside). With a [`PrecisionTarget`] on the spec, each cell starts
//!   at `min_reps` repetitions and the pool re-enqueues one repetition
//!   at a time until the cell's relative CI half-width reaches the
//!   target (or `max_reps`). [`run_shard`] executes one cell-complete
//!   slice (`--shard I/N`) of the matrix for process- and
//!   machine-level scale-out;
//! * [`merge`] — recombines a complete set of shard results into one
//!   whole-matrix result, counter-identical to an unsharded run, with
//!   typed [`MergeError`]s for overlapping/missing/mismatched shards;
//! * [`stats`] — per-cell statistics: min/median/mean/geomean, stddev,
//!   Student-t 95% confidence intervals (the normal 1.96 badly
//!   understates the interval at campaign-sized n), MAD outlier
//!   rejection; non-positive or non-finite samples are counted as
//!   `rejected_invalid` — separately from `outliers` — never
//!   fabricated;
//! * [`result`] — the versioned `simbench-campaign/v6` JSON schema
//!   (per-cell event profiles with `tested_ops`, per-repetition
//!   `counter_variants` for non-deterministic cells, shard metadata on
//!   partial results, per-cell `reps_run` / `stop_reason` / `attempts`
//!   for adaptive and retried runs, `quarantined` / `timed_out`
//!   statuses for fault-isolated cells, a `journal` echo on journaled
//!   runs, and an optional `telemetry` block carrying the engine
//!   metrics snapshot of instrumented runs) with load/save, a `v5`
//!   reader, typed [`LoadError`]s and deterministic cell ordering;
//! * [`compare`] — regression detection against a stored baseline: the
//!   noisy timing path (`ratio > 1 + threshold` ⇒ flagged) and the
//!   machine-independent counter-exact path
//!   ([`compare_counters`], zero tolerance by default);
//! * [`measure`] — the single-run primitives (guest/engine selection,
//!   one benchmark or app execution), re-exported by the harness;
//! * [`journal`] — a write-ahead, fsync-per-record NDJSON cell journal
//!   (`campaign run --journal DIR`): every completed repetition and
//!   finished cell is durable before the campaign moves on, and
//!   [`journal::replay`] + [`run_shard_resumed`] (`--resume DIR`)
//!   re-measure only what the journal does not prove finished —
//!   counter-exact against an uninterrupted run;
//! * [`failpoint`] — an env/flag-armed fault-injection harness
//!   (`SIMBENCH_FAILPOINTS` / `--failpoints`) that injects panics,
//!   hangs, transient errors and mid-write crashes at named sites; the
//!   disarmed check is one relaxed load, so production runs pay
//!   nothing;
//! * [`table`] — fixed-width text tables shared with the harness.
//!
//! The figure drivers in `simbench-harness` are thin renderers over
//! [`CampaignResult`]s produced here, and the `simbench-harness
//! campaign run|compare|list` subcommands expose the subsystem on the
//! command line.
//!
//! ## Example
//!
//! ```
//! use simbench_campaign::{run, CampaignSpec, RunnerOpts, Workload};
//! use simbench_campaign::measure::{EngineKind, Guest};
//! use simbench_suite::Benchmark;
//!
//! let spec = CampaignSpec {
//!     name: "example".to_string(),
//!     guests: vec![Guest::Armlet],
//!     engines: vec![EngineKind::Interp],
//!     workloads: vec![Workload::Suite(Benchmark::Syscall)],
//!     scale: 1_000_000,
//!     reps: 2,
//!     precision: None,
//!     wall_limit: Some(std::time::Duration::from_secs(60)),
//! };
//! let result = run(&spec, &RunnerOpts::with_jobs(2));
//! let cell = result.cell("armlet", "interp", "suite:System Call").unwrap();
//! assert!(cell.counters.syscalls >= 16);
//! let json = result.to_json();
//! assert!(json.contains("simbench-campaign/v6"));
//! ```
//!
//! ## Adaptive example
//!
//! ```
//! use simbench_campaign::{run, CampaignSpec, PrecisionTarget, RunnerOpts, StopReason, Workload};
//! use simbench_campaign::measure::{EngineKind, Guest};
//! use simbench_suite::Benchmark;
//!
//! let spec = CampaignSpec {
//!     name: "adaptive".to_string(),
//!     guests: vec![Guest::Armlet],
//!     engines: vec![EngineKind::Interp],
//!     workloads: vec![Workload::Suite(Benchmark::Syscall)],
//!     scale: 1_000_000,
//!     reps: 1, // ignored: precision drives the repetition count
//!     precision: Some(PrecisionTarget::new(0.25, 2, 8).unwrap()),
//!     wall_limit: Some(std::time::Duration::from_secs(60)),
//! };
//! let result = run(&spec, &RunnerOpts::serial());
//! let cell = result.cell("armlet", "interp", "suite:System Call").unwrap();
//! assert!((2..=8).contains(&cell.reps_run));
//! assert!(matches!(
//!     cell.stop_reason,
//!     Some(StopReason::Converged | StopReason::MaxReps)
//! ));
//! ```
//!
//! ## Sharded example
//!
//! ```
//! use simbench_campaign::{merge, run, run_shard, CampaignSpec, RunnerOpts, Shard, Workload};
//! use simbench_campaign::measure::{EngineKind, Guest};
//! use simbench_suite::Benchmark;
//!
//! let spec = CampaignSpec {
//!     name: "sharded".to_string(),
//!     guests: vec![Guest::Armlet],
//!     engines: vec![EngineKind::Interp, EngineKind::Native],
//!     workloads: vec![Workload::Suite(Benchmark::Syscall)],
//!     scale: 1_000_000,
//!     reps: 1,
//!     precision: None,
//!     wall_limit: Some(std::time::Duration::from_secs(60)),
//! };
//! // Each shard can run in its own process or on its own machine.
//! let parts: Vec<_> = (1..=2)
//!     .map(|i| run_shard(&spec, &RunnerOpts::serial(), Some(Shard::new(i, 2).unwrap())))
//!     .collect();
//! let merged = merge(&parts).unwrap();
//! let whole = run(&spec, &RunnerOpts::serial());
//! for (a, b) in merged.cells.iter().zip(&whole.cells) {
//!     assert_eq!(a.counters, b.counters); // counter-identical
//! }
//! ```

pub mod compare;
pub mod failpoint;
pub mod journal;
pub mod json;
pub mod measure;
pub mod merge;
pub mod registry;
pub mod result;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod table;

pub use compare::{
    compare, compare_counters, Comparison, CounterComparison, CounterDelta, CounterDiff, Delta,
    Verdict,
};
pub use journal::{replay, Journal, Replay, JOURNAL_FILE, JOURNAL_SCHEMA};
pub use measure::{run_app, run_suite_bench, Config, EngineKind, Guest, Sample};
pub use merge::{merge, MergeError};
pub use registry::{dispatch_guest, GuestInfo, GuestSpec, GuestVisitor, GUESTS};
pub use result::{
    CampaignResult, CellResult, CellStatus, LoadError, StopReason, Telemetry, SCHEMA, SCHEMA_V5,
};
pub use runner::{run, run_shard, run_shard_resumed, RunnerOpts};
pub use spec::{CampaignSpec, CellKey, Job, PrecisionTarget, Shard, Workload};
pub use stats::{geomean, stats, t_critical_95, Stats};
