//! # simbench-campaign
//!
//! The measurement-campaign subsystem: the paper's methodology is a
//! measurement *matrix* — every micro-benchmark on every simulator,
//! version and guest ISA — and this crate turns that matrix into a
//! first-class, parallel, persistent object:
//!
//! * [`spec`] — declarative [`CampaignSpec`] (guests × engines ×
//!   workloads × scale × repetitions) expanded into independent jobs;
//! * [`runner`] — a worker pool executing jobs concurrently; each job
//!   owns its `Machine` and engine, so results are identical at any
//!   `--jobs` count (timings aside);
//! * [`stats`] — a cell's time: the floor (minimum) of its valid
//!   repetitions, with the median and n beside it; non-positive or
//!   non-finite samples are counted as `rejected_invalid`, never
//!   fabricated;
//! * [`result`] — the versioned `simbench-campaign/v7` JSON schema
//!   (per-cell timings and event profiles with `tested_ops`,
//!   per-repetition `counter_variants` for non-deterministic cells,
//!   per-cell `reps_run` / `attempts` for retried runs, `quarantined` /
//!   `timed_out` statuses for fault-isolated cells, a `journal` echo on
//!   journaled runs, and an optional `telemetry` block carrying the
//!   engine metrics snapshot of instrumented runs) with load/save, a
//!   `v6` reader, typed [`LoadError`]s and deterministic cell ordering.
//!   A result is always the whole matrix of one run on one host;
//! * [`compare`] — regression detection against a stored baseline on
//!   machine-independent event profiles ([`compare_counters`], zero
//!   tolerance by default);
//! * [`measure`] — the single-run primitives (guest/engine selection,
//!   one benchmark or app execution), re-exported by the harness;
//! * [`journal`] — a write-ahead, fsync-per-record NDJSON cell journal
//!   (`campaign run --journal DIR`): every completed repetition and
//!   finished cell is durable before the campaign moves on, and
//!   [`journal::replay`] + [`run_resumed`] (`--resume DIR`)
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
//!     wall_limit: Some(std::time::Duration::from_secs(60)),
//! };
//! let result = run(&spec, &RunnerOpts::with_jobs(2));
//! let cell = result.cell("armlet", "interp", "suite:System Call").unwrap();
//! assert!(cell.counters.syscalls >= 16);
//! // The cell's time is the floor of its two repetitions.
//! let floor = cell.seconds.iter().copied().fold(f64::INFINITY, f64::min);
//! assert_eq!(cell.metric(), Some(floor));
//! let json = result.to_json();
//! assert!(json.contains("simbench-campaign/v7"));
//! ```

pub mod compare;
pub mod failpoint;
pub mod journal;
pub mod json;
pub mod measure;
pub mod registry;
pub mod result;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod table;

pub use compare::{compare_counters, CounterComparison, CounterDelta, CounterDiff, Verdict};
pub use journal::{replay, Journal, Replay, JOURNAL_FILE, JOURNAL_SCHEMA};
pub use measure::{run_app, run_suite_bench, Config, EngineKind, Guest, Sample};
pub use registry::{dispatch_guest, GuestInfo, GuestSpec, GuestVisitor, GUESTS};
pub use result::{CampaignResult, CellResult, CellStatus, LoadError, Telemetry, SCHEMA, SCHEMA_V6};
pub use runner::{run, run_resumed, RunnerOpts};
pub use spec::{CampaignSpec, CellKey, Job, Workload};
pub use stats::{geomean, stats, Stats};
