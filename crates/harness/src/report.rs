//! `simbench-harness report <CAMPAIGN.json>` — render a stored
//! campaign's optional `telemetry` block: the engine-metric counters
//! and log₂-bucket histograms that `campaign run --trace FILE`
//! snapshots into the `simbench-campaign/v5` schema.
//!
//! The block is observational — `campaign compare` never reads it — so
//! this renderer is the one consumer that turns it back into something
//! a human can reason about: counter totals, histogram totals and a
//! bar per nonzero bucket labelled with its lower bound.

use std::fmt::Write as _;

use simbench_campaign::table::Table;
use simbench_campaign::CampaignResult;
use simbench_obs::metrics::bucket_floor;

/// Render the telemetry block of a stored campaign, or a pointer at
/// `--trace` when the campaign was run without instrumentation.
pub fn render_telemetry(result: &CampaignResult) -> String {
    let Some(t) = &result.telemetry else {
        return "\nno telemetry block in this campaign \
                (record one with `campaign run --trace FILE`)\n"
            .to_string();
    };
    let mut out = String::new();
    if !t.counters.is_empty() {
        out.push_str("\nengine counters:\n");
        let mut table = Table::new(["counter", "value"]);
        for (name, value) in &t.counters {
            table.row([name.clone(), value.to_string()]);
        }
        out.push_str(&table.render());
    }
    for (name, buckets) in &t.histograms {
        out.push_str(&render_histogram(name, buckets));
    }
    out
}

/// One histogram as a bucket table with proportional bars. Buckets are
/// log₂: the label is the bucket's lower value bound.
fn render_histogram(name: &str, buckets: &[(u32, u64)]) -> String {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    let peak = buckets.iter().map(|(_, n)| *n).max().unwrap_or(1).max(1);
    let mut out = String::new();
    let _ = writeln!(out, "\nhistogram {name} — {total} observation(s):");
    let mut table = Table::new([">= value", "count", ""]);
    for (b, n) in buckets {
        let bar = "#".repeat(((n * 32).div_ceil(peak)) as usize);
        table.row([bucket_floor(*b).to_string(), n.to_string(), bar]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_campaign::{
        run, CampaignSpec, EngineKind, Guest, RunnerOpts, Telemetry, Workload,
    };
    use simbench_suite::Benchmark;

    fn tiny_result() -> CampaignResult {
        let spec = CampaignSpec {
            name: "report-test".to_string(),
            guests: vec![Guest::Armlet],
            engines: vec![EngineKind::Interp],
            workloads: vec![Workload::Suite(Benchmark::Syscall)],
            scale: u64::MAX,
            reps: 1,
            wall_limit: Some(std::time::Duration::from_secs(60)),
        };
        run(&spec, &RunnerOpts::serial())
    }

    fn result_with_telemetry() -> CampaignResult {
        let mut result = tiny_result();
        result.telemetry = Some(Telemetry {
            counters: vec![
                ("dbt.translations".to_string(), 1234),
                ("interp.dispatch_batches".to_string(), 9),
            ],
            histograms: vec![("dbt.block_steps".to_string(), vec![(0, 1), (3, 40), (5, 2)])],
        });
        result
    }

    #[test]
    fn renders_counters_and_histograms() {
        let result = result_with_telemetry();
        let text = render_telemetry(&result);
        assert!(!text.contains("--trace"), "{text}");
        assert!(text.contains("dbt.translations"), "{text}");
        assert!(text.contains("1234"), "{text}");
        assert!(text.contains("histogram dbt.block_steps"), "{text}");
        assert!(text.contains("43 observation(s)"), "{text}");
        // Bucket 3 floors at 4; its 40 observations get the full bar.
        assert!(text.contains(&"#".repeat(32)), "{text}");
        assert!(text.contains('4'), "{text}");
    }

    #[test]
    fn missing_telemetry_points_at_trace() {
        let result = tiny_result();
        let text = render_telemetry(&result);
        assert!(text.contains("--trace"), "{text}");
    }
}
