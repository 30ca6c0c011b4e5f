//! The campaign workflow end to end, programmatically: declare a
//! measurement matrix, run it on a worker pool, persist the JSON
//! result, and detect a regression against a baseline.
//!
//! The CLI equivalent is:
//!
//! ```sh
//! simbench-harness campaign run --scale 20000 --jobs 4 --reps 3 --out current.json
//! simbench-harness campaign compare current.json --baseline baseline.json
//! ```
//!
//! ```sh
//! cargo run --release --example campaign_workflow
//! ```

use simbench_campaign::measure::{EngineKind, Guest};
use simbench_campaign::{compare_counters, run, CampaignSpec, RunnerOpts, Workload};
use simbench_suite::Benchmark;

fn main() {
    // 1. Declare the matrix: two guests × three engines × four
    //    benchmarks, three repetitions per cell.
    let spec = CampaignSpec {
        name: "example".to_string(),
        guests: Guest::ALL.to_vec(),
        engines: vec![
            EngineKind::Dbt(simbench_dbt::VersionProfile::latest()),
            EngineKind::Interp,
            EngineKind::Native,
        ],
        workloads: vec![
            Workload::Suite(Benchmark::Syscall),
            Workload::Suite(Benchmark::MemHot),
            Workload::Suite(Benchmark::DataFault),
            Workload::Suite(Benchmark::IntraPageDirect),
        ],
        scale: 50_000,
        reps: 3,
        wall_limit: Some(std::time::Duration::from_secs(60)),
    };

    // 2. Run it in parallel. Each job owns its Machine and engine, so
    //    any worker count yields the same counters.
    let current = run(&spec, &RunnerOpts::with_jobs(4));
    println!(
        "campaign '{}': {} cells in {:.2}s on 4 workers",
        current.name,
        current.cells.len(),
        current.wall_secs
    );
    // A cell's time is the floor of its repetitions; the median and n
    // beside it show how loud the box was.
    for cell in current.cells.iter().take(3) {
        let stats = cell.stats().unwrap();
        println!(
            "  {}/{} {}: floor {:.6}s, median {:.6}s over {} reps",
            cell.guest, cell.engine, cell.workload, stats.min, stats.median, stats.n
        );
    }

    // 3. Persist — the versioned JSON schema is what CI stores as
    //    BENCH_campaign.json and what `campaign compare` consumes.
    let path = std::env::temp_dir().join("simbench_example_campaign.json");
    current.save(&path).expect("write campaign result");
    println!("wrote {}", path.display());

    // 4. Regression detection: event profiles are architectural and
    //    deterministic, so a baseline that ran the armlet syscall cells
    //    5× faster compares clean — wall-clock is not compared.
    let mut baseline = current.clone();
    let syscall = |cell: &&mut simbench_campaign::CellResult| {
        cell.workload == "suite:System Call" && cell.guest == "armlet"
    };
    for cell in baseline.cells.iter_mut().filter(syscall) {
        cell.seconds.iter_mut().for_each(|s| *s /= 5.0);
    }
    let report = compare_counters(&baseline, &current, 0.0);
    println!("\n{}", report.render());
    assert!(report.clean(), "timing edits must not move event profiles");

    // 5. A baseline whose syscall cells retired one more instruction is
    //    a changed event profile, and the comparison flags it.
    for cell in baseline.cells.iter_mut().filter(syscall) {
        cell.counters.instructions += 1;
    }
    let report = compare_counters(&baseline, &current, 0.0);
    println!("{}", report.render());
    assert!(!report.clean(), "the drifted counter must be flagged");
    std::fs::remove_file(&path).ok();
}
