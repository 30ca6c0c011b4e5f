//! Declarative campaign specifications and their expansion into jobs.
//!
//! A [`CampaignSpec`] names the measurement matrix — guests × engines ×
//! workloads, at one iteration scale, with R repetitions — and
//! [`CampaignSpec::expand`] flattens it into independent [`Job`]s for
//! the runner. Expansion order is deterministic, so job ids and cell
//! order are stable across runs and machines.

use std::time::Duration;

use simbench_apps::App;
use simbench_core::engine::RunLimits;
use simbench_core::events::Counters;
use simbench_suite::Benchmark;

use crate::measure::{Config, EngineKind, Guest};

/// One workload axis entry: a SimBench micro-benchmark or a SPEC-like
/// application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A suite micro-benchmark.
    Suite(Benchmark),
    /// A synthetic application.
    App(App),
}

impl Workload {
    /// Display name (Fig 3 / Fig 7 row names for suite benchmarks).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite(b) => b.name(),
            Workload::App(a) => a.name(),
        }
    }

    /// Stable id used in persisted results: `suite:<name>` / `app:<name>`.
    pub fn id(self) -> String {
        match self {
            Workload::Suite(b) => format!("suite:{}", b.name()),
            Workload::App(a) => format!("app:{}", a.name()),
        }
    }

    /// Inverse of [`Workload::id`].
    pub fn by_id(id: &str) -> Option<Workload> {
        if let Some(name) = id.strip_prefix("suite:") {
            return Benchmark::ALL
                .iter()
                .copied()
                .find(|b| b.name() == name)
                .map(Workload::Suite);
        }
        if let Some(name) = id.strip_prefix("app:") {
            return App::ALL
                .iter()
                .copied()
                .find(|a| a.name() == name)
                .map(Workload::App);
        }
        None
    }

    /// Whether this workload exists on the guest architecture.
    pub fn supported_on(self, guest: Guest) -> bool {
        match self {
            Workload::Suite(b) => b.supported_on(guest.isa_name()),
            Workload::App(_) => true,
        }
    }

    /// Benchmark category for suite workloads (`None` for apps).
    pub fn category(self) -> Option<&'static str> {
        match self {
            Workload::Suite(b) => Some(b.category().name()),
            Workload::App(_) => None,
        }
    }

    /// Count of the workload's *tested operation* in an event profile —
    /// the numerator of Fig 3's operation density. Apps have no single
    /// tested operation.
    pub fn tested_ops(self, counters: &Counters) -> Option<u64> {
        match self {
            Workload::Suite(b) => Some(b.tested_ops(counters)),
            Workload::App(_) => None,
        }
    }
}

/// One slice of a campaign matrix for process-level scale-out: shard
/// `index` of `count` (1-based, written `index/count` on the CLI).
///
/// Sharding is *cell-complete*: a cell and all its repetitions land in
/// exactly one shard, so per-cell statistics and event profiles are
/// computed from complete repetition sets and a merged campaign is
/// counter-identical to an unsharded run. Assignment is deterministic —
/// cell `i` of the spec's cell order belongs to shard
/// `(i % count) + 1` — so any machine can compute its slice from the
/// spec alone, with no coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 1-based shard index, `1..=count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Shard {
    /// Build a shard, validating `1 <= index <= count`.
    pub fn new(index: u32, count: u32) -> Result<Shard, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index == 0 || index > count {
            return Err(format!(
                "shard index {index} out of range 1..={count} (shards are 1-based)"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Parse the CLI form `I/N` (e.g. `2/4`).
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard {s:?} is not of the form I/N (e.g. 2/4)"))?;
        let index: u32 = i
            .trim()
            .parse()
            .map_err(|_| format!("shard index {i:?} is not an integer"))?;
        let count: u32 = n
            .trim()
            .parse()
            .map_err(|_| format!("shard count {n:?} is not an integer"))?;
        Shard::new(index, count)
    }

    /// The 1-based index of the shard owning the cell at `cell_index`
    /// of the spec's deterministic cell order, for a given shard count.
    /// Round-robin by cell, so neighbouring (similar-cost) cells spread
    /// across shards. This is the single source of the assignment rule:
    /// both shard execution and merge validation go through it.
    pub fn owner_index(cell_index: usize, count: u32) -> u32 {
        (cell_index % count as usize) as u32 + 1
    }

    /// Whether this shard owns the cell at `cell_index`.
    pub fn owns(&self, cell_index: usize) -> bool {
        Shard::owner_index(cell_index, self.count) == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The declarative description of one measurement campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name, recorded in the persisted result.
    pub name: String,
    /// Guest architectures to measure.
    pub guests: Vec<Guest>,
    /// Engines (including DBT version profiles) to measure.
    pub engines: Vec<EngineKind>,
    /// Workloads to measure.
    pub workloads: Vec<Workload>,
    /// Iteration divisor applied to the paper's counts.
    pub scale: u64,
    /// Repetitions per cell (0 runs one).
    pub reps: u32,
    /// Per-run wall-clock safety limit (`None` = unlimited). Stored as
    /// a full [`Duration`] so sub-second limits round-trip losslessly.
    pub wall_limit: Option<Duration>,
}

impl CampaignSpec {
    /// The paper's Fig 7 matrix: all suite benchmarks × the five engine
    /// columns × both guests.
    pub fn full_matrix(scale: u64) -> Self {
        CampaignSpec {
            name: "full-matrix".to_string(),
            guests: Guest::ALL.to_vec(),
            engines: EngineKind::fig7_columns().to_vec(),
            workloads: Benchmark::ALL
                .iter()
                .copied()
                .map(Workload::Suite)
                .collect(),
            scale,
            reps: 1,
            wall_limit: Some(Duration::from_secs(120)),
        }
    }

    /// The version-sweep matrix behind Figs 2, 6 and 8: every DBT
    /// version profile on the armlet guest.
    pub fn version_sweep(scale: u64, workloads: Vec<Workload>) -> Self {
        CampaignSpec {
            name: "version-sweep".to_string(),
            guests: vec![Guest::Armlet],
            engines: EngineKind::all_dbt_versions(),
            workloads,
            scale,
            reps: 1,
            wall_limit: Some(Duration::from_secs(120)),
        }
    }

    /// All nine applications as workloads.
    pub fn app_workloads() -> Vec<Workload> {
        App::ALL.iter().copied().map(Workload::App).collect()
    }

    /// All eighteen suite benchmarks as workloads.
    pub fn suite_workloads() -> Vec<Workload> {
        Benchmark::ALL
            .iter()
            .copied()
            .map(Workload::Suite)
            .collect()
    }

    /// The measurement [`Config`] used for every job of this spec.
    pub fn config(&self) -> Config {
        Config {
            scale: self.scale,
            limits: RunLimits {
                max_insns: u64::MAX,
                wall_limit: self.wall_limit,
            },
            jobs: 1,
            reps: self.reps,
        }
    }

    /// The distinct cells of the matrix in deterministic order
    /// (guest-major, then workload, then engine), with unsupported
    /// guest/workload pairs retained so renderers can show `-`.
    pub fn cells(&self) -> Vec<CellKey> {
        let mut cells = Vec::new();
        for &guest in &self.guests {
            for &workload in &self.workloads {
                for &engine in &self.engines {
                    cells.push(CellKey {
                        guest,
                        engine,
                        workload,
                    });
                }
            }
        }
        cells
    }

    /// Flatten into independent jobs: one per supported cell and
    /// repetition.
    /// `cell_index` points back into [`CampaignSpec::cells`].
    pub fn expand(&self) -> Vec<Job> {
        self.expand_shard(None)
    }

    /// [`CampaignSpec::expand`] restricted to one shard's slice of the
    /// matrix. `None` expands the whole matrix. Shards partition cells,
    /// never repetitions: every job of a cell lands in the cell's
    /// owning shard, so merged results are counter-identical to an
    /// unsharded run.
    pub fn expand_shard(&self, shard: Option<Shard>) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (cell_index, key) in self.cells().into_iter().enumerate() {
            if !key.workload.supported_on(key.guest) {
                continue;
            }
            if let Some(s) = shard {
                if !s.owns(cell_index) {
                    continue;
                }
            }
            for rep in 0..self.reps.max(1) {
                jobs.push(Job {
                    cell_index,
                    rep,
                    key,
                });
            }
        }
        jobs
    }
}

/// Identity of one matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellKey {
    /// Guest architecture.
    pub guest: Guest,
    /// Engine.
    pub engine: EngineKind,
    /// Workload.
    pub workload: Workload,
}

/// One unit of work for the runner: a single measurement of one cell.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into [`CampaignSpec::cells`].
    pub cell_index: usize,
    /// Repetition number, `0..reps`.
    pub rep: u32,
    /// The cell to measure.
    pub key: CellKey,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_ids_roundtrip() {
        for b in Benchmark::ALL {
            let w = Workload::Suite(b);
            assert_eq!(Workload::by_id(&w.id()), Some(w));
        }
        for a in App::ALL {
            let w = Workload::App(a);
            assert_eq!(Workload::by_id(&w.id()), Some(w));
        }
        assert_eq!(Workload::by_id("suite:No Such Bench"), None);
        assert_eq!(Workload::by_id("System Call"), None);
    }

    #[test]
    fn tested_ops_follow_the_benchmark_counter() {
        let c = Counters {
            syscalls: 7,
            mem_reads: 3,
            mem_writes: 4,
            ..Default::default()
        };
        assert_eq!(Workload::Suite(Benchmark::Syscall).tested_ops(&c), Some(7));
        assert_eq!(Workload::Suite(Benchmark::MemHot).tested_ops(&c), Some(7));
        assert_eq!(Workload::App(App::Bzip2Like).tested_ops(&c), None);
    }

    #[test]
    fn full_matrix_shape() {
        let spec = CampaignSpec::full_matrix(20_000);
        // 3 guests × 18 benchmarks × 5 engines.
        assert_eq!(spec.cells().len(), 270);
        // Nonprivileged Access is absent on petix and riscle: 2 guests ×
        // 5 engines × 1 rep fewer.
        assert_eq!(spec.expand().len(), 260);
    }

    #[test]
    fn reps_multiply_jobs_not_cells() {
        let mut spec = CampaignSpec::full_matrix(20_000);
        spec.reps = 3;
        assert_eq!(spec.cells().len(), 270);
        assert_eq!(spec.expand().len(), 260 * 3);
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = CampaignSpec::version_sweep(20_000, CampaignSpec::app_workloads());
        let a: Vec<(usize, u32)> = spec
            .expand()
            .iter()
            .map(|j| (j.cell_index, j.rep))
            .collect();
        let b: Vec<(usize, u32)> = spec
            .expand()
            .iter()
            .map(|j| (j.cell_index, j.rep))
            .collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20 * 9);
    }

    #[test]
    fn shard_parsing_and_validation() {
        assert_eq!(Shard::parse("1/1"), Ok(Shard { index: 1, count: 1 }));
        assert_eq!(Shard::parse("2/4"), Ok(Shard { index: 2, count: 4 }));
        assert_eq!(Shard::parse(" 3 / 8 "), Ok(Shard { index: 3, count: 8 }));
        assert!(Shard::parse("0/4").is_err(), "shards are 1-based");
        assert!(Shard::parse("5/4").is_err(), "index beyond count");
        assert!(Shard::parse("1/0").is_err(), "zero shards");
        assert!(Shard::parse("1").is_err(), "missing separator");
        assert!(Shard::parse("a/b").is_err(), "non-numeric");
        assert_eq!(Shard::new(2, 4).unwrap().to_string(), "2/4");
    }

    #[test]
    fn shards_partition_the_job_list_cell_completely() {
        let mut spec = CampaignSpec::full_matrix(20_000);
        spec.reps = 3;
        let whole: Vec<(usize, u32)> = spec
            .expand()
            .iter()
            .map(|j| (j.cell_index, j.rep))
            .collect();
        for count in [1u32, 2, 3, 5, 7, 64] {
            let mut union: Vec<(usize, u32)> = Vec::new();
            for index in 1..=count {
                let shard = Shard::new(index, count).unwrap();
                let slice = spec.expand_shard(Some(shard));
                // Cell-complete: every repetition of an owned cell is here.
                for job in &slice {
                    assert!(shard.owns(job.cell_index));
                }
                union.extend(slice.iter().map(|j| (j.cell_index, j.rep)));
            }
            // The union over all shards is exactly the unsharded job
            // list: nothing lost, nothing duplicated.
            union.sort_unstable();
            let mut expected = whole.clone();
            expected.sort_unstable();
            assert_eq!(union, expected, "count {count}");
        }
    }

    #[test]
    fn shard_of_one_is_the_whole_matrix() {
        let spec = CampaignSpec::full_matrix(20_000);
        let whole: Vec<(usize, u32)> = spec
            .expand()
            .iter()
            .map(|j| (j.cell_index, j.rep))
            .collect();
        let sharded: Vec<(usize, u32)> = spec
            .expand_shard(Some(Shard { index: 1, count: 1 }))
            .iter()
            .map(|j| (j.cell_index, j.rep))
            .collect();
        assert_eq!(whole, sharded);
    }

    #[test]
    fn zero_reps_expand_to_one_job_per_cell() {
        let mut spec = CampaignSpec::full_matrix(20_000);
        spec.reps = 0;
        assert_eq!(spec.expand().len(), 260);
    }

    #[test]
    fn version_sweep_uses_all_versions() {
        let spec = CampaignSpec::version_sweep(1000, CampaignSpec::suite_workloads());
        assert_eq!(spec.engines.len(), 20);
        assert!(spec.engines.iter().all(|e| matches!(e, EngineKind::Dbt(_))));
    }
}
