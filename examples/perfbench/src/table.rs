//! The pinned tables: what each workload runs and which metrics exist.
//!
//! Work is fixed. Iteration counts, cell lists and option values live
//! here and are never calibrated at run time, so every counter is the
//! same on both commits of a comparison. Only the number of passes
//! follows `--seconds`; each pass repeats the same work. README.md
//! records how the counts were sized.

use std::time::Duration;

use simbench_apps::App;
use simbench_campaign::{EngineKind, Guest};
use simbench_suite::Benchmark;

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// `--seconds` when none is given; `run_seconds` of BENCHMARK.json.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// A workload never runs fewer passes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// Per-cell samples kept for the median and p90 diagnostics; floors see
/// every pass. A fixed cap keeps memory independent of the pass count.
pub const SAMPLE_CAP: usize = 32;
/// Hang guard of every cell-run, beside `max_insns = 10 x expected`.
pub const CELL_WALL_LIMIT: Duration = Duration::from_secs(30);
/// `max_insns` of pass 0, before the expected count is known.
pub const FIRST_PASS_MAX_INSNS: u64 = 1 << 32;

/// The tested-operation gate: a kernel of `iterations` must count that
/// many tested operations, less at most one. The dbt engine applies a
/// phase mark at the end of the block whose store raised it, so the
/// first operation, when it shares that block, lands before the mark.
pub fn enough_tested_ops(ops: u64, iterations: u32) -> bool {
    ops + 1 >= u64::from(iterations)
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    Steady,
    SlowPath,
    Cold,
    Campaign,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Steady,
        WorkloadKind::SlowPath,
        WorkloadKind::Cold,
        WorkloadKind::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Steady => "steady",
            WorkloadKind::SlowPath => "slow-path",
            WorkloadKind::Cold => "cold",
            WorkloadKind::Campaign => "campaign",
        }
    }

    pub fn by_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` of BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadKind::Steady => {
                "long kernels on hot code: engine fast paths (dispatch, decode reuse, chaining, TLB hits) do ~all the work"
            }
            WorkloadKind::SlowPath => {
                "the same engine loops on traps, device and coprocessor exits, page-table walks and code rewrites"
            }
            WorkloadKind::Cold => {
                "boot-to-halt of 16-iteration kernels and seeded held-out programs: first-touch decode/translate, RAM and boot dominate"
            }
            WorkloadKind::Campaign => {
                "the 270-cell matrix through the campaign runner and a JSON round trip and compare: the runner's own work outweighs the kernels"
            }
        }
    }
}

/// `steady`: suite kernels on both guests. Sized so that a kernel phase
/// lasts 1-4 ms on every engine: long enough that boot and first-touch
/// translation stay under 3 % of the cell, short enough that a cell
/// fits into a quiet moment of a noisy box and a pass into 0.2 s, so
/// that 20 s give every cell a hundred chances at its floor.
pub const STEADY_SUITE: [(Benchmark, u32); 5] = [
    (Benchmark::InterPageDirect, 3_200),
    (Benchmark::InterPageIndirect, 2_400),
    (Benchmark::IntraPageDirect, 4_000),
    (Benchmark::IntraPageIndirect, 2_400),
    (Benchmark::MemHot, 2_400),
];
/// `steady`: armlet only (the other guests have no such access).
pub const STEADY_ARMLET: [(Benchmark, u32); 1] = [(Benchmark::NonprivAccess, 2_400)];
/// `steady`: applications on armlet, a realistic mix beside the
/// isolating kernels.
pub const STEADY_APPS: [(App, u32); 3] = [
    (App::SjengLike, 800),
    (App::HmmerLike, 1_000),
    (App::Bzip2Like, 400),
];
pub const STEADY_GUESTS: [Guest; 2] = [Guest::Armlet, Guest::Petix];

/// `slow-path`: one count per benchmark, shared by all engines so that
/// they can be held to the same instruction count. Engines differ by up
/// to 100x on a benchmark (a rewritten block costs dbt a retranslation,
/// a trapped access costs virt a 1.5 us exit), so kernel phases span
/// 0.1-15 ms around a target of 1-3 ms. Cold Memory Access sweeps its
/// 4096-page region exactly once: a second sweep would hit in the large
/// TLB of virt and native.
pub const SLOW_PATH_SUITE: [(Benchmark, u32); 12] = [
    (Benchmark::SmallBlocks, 96),
    (Benchmark::LargeBlocks, 256),
    (Benchmark::DataFault, 10_000),
    (Benchmark::InsnFault, 4_000),
    (Benchmark::UndefInsn, 4_000),
    (Benchmark::Syscall, 10_000),
    (Benchmark::ExtSwi, 2_000),
    (Benchmark::MmioDevice, 4_000),
    (Benchmark::CoprocAccess, 4_000),
    (Benchmark::MemCold, 4_096),
    (Benchmark::TlbEvict, 2_500),
    (Benchmark::TlbFlush, 2_000),
];
pub const SLOW_PATH_GUESTS: [Guest; 2] = [Guest::Armlet, Guest::Petix];

/// `cold`: every suite benchmark at the suite's iteration floor plus
/// seeded programs, on all three guests.
pub const COLD_ITERATIONS: u32 = 16;
pub const COLD_PROGRAMS: u32 = 16;
/// The programs are `generate(guest, program_seed(COLD_PROGRAM_STREAM,
/// i))`: held out from the 18 kernels the engines could be tuned to,
/// but the same on every `--seed`. Sets drawn per seed differed by
/// +-7 % in instructions and moved `pass_s` by 5.8 % between seeds,
/// more than the noise of the box.
pub const COLD_PROGRAM_STREAM: u64 = 0x5EED_C01D;

/// `campaign`: `CampaignSpec::full_matrix(u64::MAX)`, run as one small
/// campaign per guest and benchmark, with these options. The watchdog
/// timeout is used only where the traced run prices the watchdog.
pub const CAMPAIGN_REPS: u32 = 3;
pub const CAMPAIGN_JOBS: usize = 1;
pub const CAMPAIGN_CELL_TIMEOUT: Duration = Duration::from_secs(30);
pub const CAMPAIGN_RETRIES: u32 = 1;

/// Engines in report order, with the short names used in metric names.
pub fn engines() -> [(EngineKind, &'static str); 5] {
    let [dbt, interp, detailed, virt, native] = EngineKind::fig7_columns();
    [
        (interp, "interp"),
        (dbt, "dbt"),
        (detailed, "detailed"),
        (virt, "virt"),
        (native, "native"),
    ]
}

/// Short engine name from a campaign engine id (`dbt@2.5.0` -> `dbt`).
pub fn engine_short(id: &str) -> &str {
    id.split('@').next().unwrap_or(id)
}

/// What a cell's instructions mostly exercise; the middle part of
/// `<engine>.<group>.ns_per_insn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Codegen,
    Control,
    Exception,
    Io,
    MemoryMiss,
    MemoryHot,
    App,
    Fuzz,
}

impl Group {
    pub const ALL: [Group; 8] = [
        Group::Codegen,
        Group::Control,
        Group::Exception,
        Group::Io,
        Group::MemoryMiss,
        Group::MemoryHot,
        Group::App,
        Group::Fuzz,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Group::Codegen => "codegen",
            Group::Control => "control",
            Group::Exception => "exception",
            Group::Io => "io",
            Group::MemoryMiss => "memory-miss",
            Group::MemoryHot => "memory-hot",
            Group::App => "app",
            Group::Fuzz => "fuzz",
        }
    }

    pub fn of_benchmark(bench: Benchmark) -> Group {
        use simbench_suite::Category;
        match bench.category() {
            Category::CodeGeneration => Group::Codegen,
            Category::ControlFlow => Group::Control,
            Category::ExceptionHandling => Group::Exception,
            Category::Io => Group::Io,
            Category::MemorySystem => match bench {
                Benchmark::MemHot | Benchmark::NonprivAccess => Group::MemoryHot,
                _ => Group::MemoryMiss,
            },
        }
    }
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Definition of one metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// True for counts that repeat bit for bit on one commit.
    pub exact: bool,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

fn exact(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit, better)
    }
}

/// Bound of every end-to-end metric that is a time or made of times:
/// the largest the benchmark contract allows. On a quiet box the widest
/// spread over ten seeds (distance of the quartiles over the median) of
/// any of them on any workload was about 3 %. But the box this was built on
/// is quiet only some of the time: for minutes on end a neighbour slows
/// every sample of a run, floors included, by 15-30 %, and ten runs that
/// straddle such a stretch spread by 10-26 %. A tighter bound would
/// reject unchanged code whenever that happens.
pub const TIME_BOUND: f64 = 0.25;
/// Bound of `peak_rss_mb`, which no neighbour moves (spread under 3 %).
pub const MEMORY_BOUND: f64 = 0.10;

/// The end-to-end metrics, the same names on every workload.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    let e2e = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    let mut defs = vec![
        e2e("setup_s", "s", Better::Lower, TIME_BOUND),
        e2e("pass_s", "s", Better::Lower, TIME_BOUND),
        e2e("geomean_mips", "Minsn/s", Better::Higher, TIME_BOUND),
    ];
    for (_, engine) in engines() {
        defs.push(e2e(
            &format!("{engine}_mips"),
            "Minsn/s",
            Better::Higher,
            TIME_BOUND,
        ));
    }
    defs.push(e2e("overhead_ratio", "ratio", Better::Lower, TIME_BOUND));
    defs.push(e2e("peak_rss_mb", "MiB", Better::Lower, MEMORY_BOUND));
    defs
}

/// Span names whose self time per pass is reported.
pub const SPAN_NAMES: [&str; 12] = [
    "pass",
    "cell",
    "platform.new",
    "core.boot",
    "engine.new",
    "engine.run",
    "engine.kernel",
    "teardown",
    "campaign.run",
    "campaign.to_json",
    "campaign.from_json",
    "campaign.compare",
];

/// Guest ISA names in registry order.
pub const GUEST_NAMES: [&str; 3] = ["armlet", "petix", "riscle"];

/// The per-layer metrics (layer = crate, the prefix of the name). A
/// name whose cells, images or spans a workload does not have reads 0
/// on that workload.
pub fn per_layer_defs() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    for (_, engine) in engines() {
        for group in Group::ALL {
            defs.push(def(
                format!("{engine}.{}.ns_per_insn", group.name()),
                "ns/insn",
                Lower,
            ));
        }
        defs.push(def(format!("{engine}.cell_us"), "us", Lower));
        defs.push(def(format!("{engine}.outside_kernel_us"), "us", Lower));
        defs.push(exact(format!("{engine}.insns"), "count", Lower));
        defs.push(exact(format!("{engine}.uops"), "count", Lower));
        defs.push(exact(format!("{engine}.tlb_miss_ratio"), "ratio", Lower));
    }
    defs.push(exact("dbt.blocks_translated", "count", Lower));
    defs.push(exact("dbt.block_cache_hit_ratio", "ratio", Higher));
    defs.push(exact("dbt.chain_follow_ratio", "ratio", Higher));
    defs.push(exact("dbt.code_invalidations", "count", Lower));
    defs.push(exact("virt.vm_exits", "count", Lower));
    defs.push(def("virt.exit_ns", "ns", Lower));
    defs.push(def("suite.assemble_us", "us", Lower));
    defs.push(def("apps.assemble_us", "us", Lower));
    defs.push(def("differ.generate_us", "us", Lower));
    defs.push(exact("bench.images", "count", Lower));
    for guest in GUEST_NAMES {
        defs.push(def(format!("isa-{guest}.decode_ns"), "ns", Lower));
        defs.push(exact(format!("isa-{guest}.decodes"), "count", Lower));
        defs.push(def(format!("isa-{guest}.walk_ns"), "ns", Lower));
    }
    defs.push(def("platform.new_us", "us", Lower));
    defs.push(def("core.boot_us", "us", Lower));
    defs.push(def("platform.mmio_read_ns", "ns", Lower));
    defs.push(def("campaign.run_s", "s", Lower));
    defs.push(def("campaign.rep_overhead_us", "us", Lower));
    defs.push(def("campaign.journal_append_us", "us", Lower));
    defs.push(def("campaign.journal_us", "us", Lower));
    defs.push(def("campaign.watchdog_us", "us", Lower));
    defs.push(def("campaign.to_json_ms", "ms", Lower));
    defs.push(def("campaign.from_json_ms", "ms", Lower));
    defs.push(def("campaign.compare_ms", "ms", Lower));
    defs.push(def("campaign.stats_us", "us", Lower));
    defs.push(exact("campaign.image_cache_hit_ratio", "ratio", Higher));
    defs.push(def("obs.on_overhead_ratio", "ratio", Lower));
    defs.push(def("bench.trace_overhead_ratio", "ratio", Lower));
    defs.push(def("bench.noise_ratio", "ratio", Lower));
    defs.push(def("bench.first_pass_ratio", "ratio", Lower));
    defs.push(def("bench.passes", "count", Higher));
    defs.push(def("bench.box_us", "us", Lower));
    for span in SPAN_NAMES {
        defs.push(def(format!("span.{span}.self_ms"), "ms", Lower));
    }
    defs.push(def("span.kernel_share", "ratio", Higher));
    defs
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_campaign::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let e2e = end_to_end_defs();
        let layer = per_layer_defs();
        assert_eq!(e2e.len(), 10);
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut names: Vec<&str> = e2e.iter().chain(&layer).map(|d| d.name.as_str()).collect();
        names.extend(WorkloadKind::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in e2e.iter().chain(&layer) {
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn every_benchmark_and_engine_has_a_group_and_a_name() {
        for b in Benchmark::ALL {
            let _ = Group::of_benchmark(b);
        }
        assert_eq!(engine_short("dbt@2.5.0"), "dbt");
        assert_eq!(engine_short("interp"), "interp");
        for (kind, short) in engines() {
            assert_eq!(engine_short(&kind.id()), short);
        }
        for w in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::by_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(WorkloadKind::by_name("all"), None);
    }

    /// BENCHMARK.json at the repository root is written by hand; this
    /// keeps it equal to the tables above.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |v: &Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let got: Vec<_> = workloads
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<_> = WorkloadKind::ALL
            .iter()
            .map(|w| (w.name().to_string(), w.why().to_string()))
            .collect();
        assert_eq!(got, want);

        let check = |key: &str, defs: Vec<MetricDef>| {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, d) in listed.iter().zip(&defs) {
                assert_eq!(field(m, "name"), d.name);
                assert_eq!(field(m, "unit"), d.unit, "{}", d.name);
                assert_eq!(field(m, "better"), d.better.name(), "{}", d.name);
                assert_eq!(
                    m.get("bound").and_then(Value::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", end_to_end_defs());
        check("per_layer", per_layer_defs());
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }
}
