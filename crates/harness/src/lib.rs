//! # simbench-harness
//!
//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation:
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`fig2`] | Fig 2 — sjeng/mcf/overall SPEC speedup across QEMU versions |
//! | [`fig3`] | Fig 3 — benchmark table with operation densities |
//! | [`fig4`] | Fig 4 — engine feature-implementation matrix |
//! | [`fig5`] | Fig 5 — measurement environment |
//! | [`fig6`] | Fig 6 — per-category SimBench speedups across versions |
//! | [`fig7`] | Fig 7 — 18 benchmarks × 5 simulators × 2 guest ISAs |
//! | [`fig8`] | Fig 8 — SPEC vs SimBench geometric means across versions |
//! | [`model`] | §I contribution 3 — predict application runtimes from micro-benchmark costs, calibrated from stored campaign results (`simbench-harness model calibrate\|predict\|validate`) |
//!
//! Since the campaign refactor, every measuring driver (figs 2, 3, 6,
//! 7, 8) is a thin renderer over a [`simbench_campaign::CampaignResult`]:
//! it declares a [`simbench_campaign::CampaignSpec`], hands it to the
//! parallel campaign runner (honouring [`Config::jobs`]), and formats
//! the aggregated cells. The measurement primitives themselves
//! ([`Guest`], [`EngineKind`], [`run_suite_bench`], [`run_app`], ...)
//! live in `simbench-campaign` and are re-exported here for backwards
//! compatibility.
//!
//! Run everything with `cargo run -p simbench-harness --release -- all`.

pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod model;
pub mod report;
pub mod table;

pub use simbench_campaign::measure::{run_app, run_suite_bench, Config, EngineKind, Guest, Sample};
pub use simbench_campaign::stats::geomean;

use simbench_campaign::{CampaignResult, CampaignSpec, RunnerOpts};

/// Run a figure's campaign spec with the harness configuration's worker
/// count. All figure drivers funnel through here.
pub(crate) fn run_campaign(spec: &CampaignSpec, cfg: &Config) -> CampaignResult {
    simbench_campaign::run(spec, &RunnerOpts::with_jobs(cfg.jobs))
}

/// A figure campaign spec at the harness configuration's scale: reps
/// and wall limit come from [`Config`], the matrix from the caller.
pub(crate) fn figure_spec(
    name: &str,
    guests: Vec<Guest>,
    engines: Vec<EngineKind>,
    workloads: Vec<simbench_campaign::Workload>,
    cfg: &Config,
) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        guests,
        engines,
        workloads,
        scale: cfg.scale,
        reps: cfg.reps.max(1),
        // Pass the limit through as a full Duration: a sub-second limit
        // (e.g. 500 ms) must not be silently rounded up to one second,
        // nor a fractional part truncated.
        wall_limit: cfg.limits.wall_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_suite::Benchmark;

    #[test]
    fn figure_specs_round_trip_sub_second_wall_limits() {
        use simbench_core::engine::RunLimits;
        use std::time::Duration;

        // 500 ms and 2.5 s used to collapse to 1 s and 2 s; the spec
        // now carries the configured limit losslessly.
        for limit in [
            Duration::from_millis(500),
            Duration::from_millis(2500),
            Duration::from_secs(120),
        ] {
            let cfg = Config {
                limits: RunLimits {
                    max_insns: u64::MAX,
                    wall_limit: Some(limit),
                },
                ..Default::default()
            };
            let spec = figure_spec(
                "t",
                vec![Guest::Armlet],
                vec![EngineKind::Interp],
                vec![],
                &cfg,
            );
            assert_eq!(spec.wall_limit, Some(limit));
            assert_eq!(spec.config().limits.wall_limit, Some(limit));
        }
        let cfg = Config {
            limits: RunLimits {
                max_insns: u64::MAX,
                wall_limit: None,
            },
            ..Default::default()
        };
        let spec = figure_spec(
            "t",
            vec![Guest::Armlet],
            vec![EngineKind::Interp],
            vec![],
            &cfg,
        );
        assert_eq!(spec.wall_limit, None);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn smoke_run_syscall_on_all_engines() {
        let cfg = Config {
            scale: 1_000_000,
            ..Default::default()
        };
        for engine in EngineKind::fig7_columns() {
            let s = run_suite_bench(Guest::Armlet, engine, Benchmark::Syscall, &cfg).unwrap();
            assert!(s.ok(), "{engine:?}: {:?}", s.exit);
            assert!(s.counters.syscalls >= 16);
        }
    }

    #[test]
    fn detailed_reports_unsupported_for_mmio() {
        let cfg = Config {
            scale: 1_000_000,
            ..Default::default()
        };
        let s = run_suite_bench(
            Guest::Armlet,
            EngineKind::Detailed,
            Benchmark::MmioDevice,
            &cfg,
        )
        .unwrap();
        assert!(matches!(
            s.exit,
            simbench_core::engine::ExitReason::Unsupported(_)
        ));
        let s =
            run_suite_bench(Guest::Armlet, EngineKind::Detailed, Benchmark::ExtSwi, &cfg).unwrap();
        assert!(matches!(
            s.exit,
            simbench_core::engine::ExitReason::Unsupported(_)
        ));
    }

    #[test]
    fn nonpriv_none_on_petix() {
        let cfg = Config {
            scale: 1_000_000,
            ..Default::default()
        };
        assert!(run_suite_bench(
            Guest::Petix,
            EngineKind::Interp,
            Benchmark::NonprivAccess,
            &cfg
        )
        .is_none());
    }
}
