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

/// Repetitions per cell of [`CampaignSpec::paper`]. At equal wall time,
/// twelve repetitions at scale 5000 hold Fig 6's identical-profile
/// versions within 1.25× of each other far better than five at 2000:
/// short cells in many interleaved passes catch the host's fast spells.
pub const PAPER_REPS: u32 = 12;

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
    /// columns × the three guests.
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

    /// The one campaign every measured figure renders from (Figs 2, 3,
    /// 6, 7 and 8): every guest × (suite + apps) × (interp, detailed,
    /// virt, native and the twenty DBT profiles, the last of which is
    /// `dbt`), [`PAPER_REPS`] repetitions per cell. The app cells on the
    /// other engines and guests feed no figure; they are what `model
    /// validate --engine E --guest G` reads.
    pub fn paper(scale: u64) -> Self {
        let mut engines = vec![
            EngineKind::Interp,
            EngineKind::Detailed,
            EngineKind::Virt,
            EngineKind::Native,
        ];
        engines.extend(EngineKind::all_dbt_versions());
        let mut workloads = Self::suite_workloads();
        workloads.extend(Self::app_workloads());
        CampaignSpec {
            name: "paper".to_string(),
            guests: Guest::ALL.to_vec(),
            engines,
            workloads,
            scale,
            reps: PAPER_REPS,
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
    /// repetition, repetition-major — pass `r` measures every supported
    /// cell once, in cell order, so a slow spell of the host spreads
    /// over all cells instead of landing on a few.
    /// `cell_index` points back into [`CampaignSpec::cells`].
    pub fn expand(&self) -> Vec<Job> {
        let cells: Vec<(usize, CellKey)> = self
            .cells()
            .into_iter()
            .enumerate()
            .filter(|(_, key)| key.workload.supported_on(key.guest))
            .collect();
        (0..self.reps.max(1))
            .flat_map(|rep| {
                cells.iter().map(move |&(cell_index, key)| Job {
                    cell_index,
                    rep,
                    key,
                })
            })
            .collect()
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
        let spec = CampaignSpec::paper(20_000);
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
        assert_eq!(a.len(), 1896 * PAPER_REPS as usize);
    }

    #[test]
    fn paper_matrix_shape() {
        let spec = CampaignSpec::paper(2000);
        // 3 guests × 27 workloads × 24 engines; Nonprivileged Access is
        // absent on petix and riscle, 2 × 24 cells without a job.
        assert_eq!(spec.cells().len(), 1944);
        assert_eq!(spec.expand().len(), 1896 * spec.reps as usize);
        assert!(spec.reps >= 5);
        let ids: std::collections::BTreeSet<String> = spec.engines.iter().map(|e| e.id()).collect();
        assert_eq!(ids.len(), 24, "no engine twice");
        for e in EngineKind::fig7_columns() {
            assert!(ids.contains(&e.id()), "{e:?}");
        }
    }

    #[test]
    fn cells_are_guest_major_then_workload_then_engine() {
        let spec = CampaignSpec::full_matrix(20_000);
        let cells = spec.cells();
        let (w, e) = (spec.workloads.len(), spec.engines.len());
        for (i, key) in cells.iter().enumerate() {
            assert_eq!(key.guest, spec.guests[i / (w * e)], "cell {i}");
            assert_eq!(key.workload, spec.workloads[i / e % w], "cell {i}");
            assert_eq!(key.engine, spec.engines[i % e], "cell {i}");
        }
    }

    #[test]
    fn expand_yields_every_supported_cell_and_rep_exactly_once() {
        let mut spec = CampaignSpec::full_matrix(20_000);
        spec.reps = 3;
        let cells = spec.cells();
        let want: Vec<(usize, u32)> = (0..3)
            .flat_map(|rep| {
                cells
                    .iter()
                    .enumerate()
                    .filter(|(_, k)| k.workload.supported_on(k.guest))
                    .map(move |(i, _)| (i, rep))
            })
            .collect();
        let jobs = spec.expand();
        let got: Vec<(usize, u32)> = jobs.iter().map(|j| (j.cell_index, j.rep)).collect();
        // Repetition order, then cell order: every pass is the whole
        // matrix, with no unsupported cell and no duplicate.
        assert_eq!(got, want);
        for job in &jobs {
            assert_eq!(job.key, cells[job.cell_index]);
        }
    }

    #[test]
    fn config_carries_scale_and_wall_limit_and_no_instruction_cap() {
        let mut spec = CampaignSpec::full_matrix(40_000);
        spec.wall_limit = Some(Duration::from_millis(1500));
        let cfg = spec.config();
        assert_eq!(cfg.scale, 40_000);
        assert_eq!(cfg.limits.wall_limit, Some(Duration::from_millis(1500)));
        assert_eq!(cfg.limits.max_insns, u64::MAX);
        spec.wall_limit = None;
        assert_eq!(spec.config().limits.wall_limit, None);
    }

    #[test]
    fn paper_engines_end_with_every_dbt_version_oldest_first() {
        let engines = CampaignSpec::paper(1000).engines;
        assert_eq!(engines[4..], EngineKind::all_dbt_versions()[..]);
        assert_eq!(engines.last(), EngineKind::by_id("dbt").as_ref());
    }

    #[test]
    fn zero_reps_expand_to_one_job_per_cell() {
        let mut spec = CampaignSpec::full_matrix(20_000);
        spec.reps = 0;
        assert_eq!(spec.expand().len(), 260);
    }
}
