//! # simbench-harness
//!
//! Renderers for every table and figure of the paper's evaluation:
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`fig2`] | Fig 2 — sjeng/mcf/overall SPEC speedup across QEMU versions |
//! | [`fig3`] | Fig 3 — benchmark table with operation densities |
//! | [`fig4`] | Fig 4 — engine feature-implementation matrix |
//! | [`fig5`] | Fig 5 — measurement environment |
//! | [`fig6`] | Fig 6 — per-category SimBench speedups across versions, three guests |
//! | [`fig7`] | Fig 7 — 18 benchmarks × 5 simulators × 3 guest ISAs |
//! | [`fig8`] | Fig 8 — SPEC vs SimBench geometric means across versions |
//! | [`model`] | §I contribution 3 — predict application runtimes from micro-benchmark costs, calibrated from stored campaign results (`simbench-harness model calibrate\|predict\|validate`) |
//!
//! The measured figures (2, 3, 6, 7, 8) measure nothing themselves:
//! each is a pure renderer of one [`CampaignResult`], the paper
//! campaign ([`simbench_campaign::CampaignSpec::paper`]), in which every
//! cell is measured once per repetition however many figures read it.
//! `simbench-harness <FIG|all>` runs that campaign and renders from it,
//! or renders from a stored one with `--from CAMPAIGN.json`; `report`
//! and `model` read the same JSON. A figure that needs a cell the
//! campaign lacks, or whose cell did not complete, gets an error from
//! [`render`] naming it. The measurement primitives ([`Guest`],
//! [`EngineKind`], [`run_suite_bench`], [`run_app`], ...) live in
//! `simbench-campaign` and are re-exported here.
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

use simbench_campaign::{CampaignResult, CellResult, Workload};

/// The figures rendered from a campaign, in the order `all` prints
/// them.
pub const MEASURED_FIGURES: [&str; 5] = ["fig3", "fig7", "fig2", "fig6", "fig8"];

/// Render one of [`MEASURED_FIGURES`] from a campaign.
///
/// # Errors
///
/// The first cell the figure cannot read, missing from the campaign or
/// without a time, named by guest, engine, workload and status.
pub fn render(figure: &str, campaign: &CampaignResult) -> Result<String, String> {
    Ok(match figure {
        "fig2" => fig2::render(campaign)?.1,
        "fig3" => fig3::render(campaign)?.1,
        "fig6" => fig6::render(campaign)?.1,
        "fig7" => fig7::render(campaign)?.1,
        "fig8" => fig8::render(campaign)?.1,
        _ => return Err(format!("{figure} is not rendered from a campaign")),
    })
}

/// The completed cell a figure reads.
///
/// # Errors
///
/// A cell that is missing from the campaign, or has no time because it
/// did not complete, is an error naming its guest, engine, workload and
/// status.
pub(crate) fn cell(
    campaign: &CampaignResult,
    guest: Guest,
    engine: EngineKind,
    workload: Workload,
) -> Result<&CellResult, String> {
    let (guest, engine, workload) = (guest.isa_name(), engine.id(), workload.id());
    let found = campaign.cell(guest, &engine, &workload);
    match found {
        Some(c) if c.metric().is_some() => Ok(c),
        _ => Err(format!(
            "campaign {:?} has no completed cell {guest}/{engine} {workload} (status: {})",
            campaign.name,
            found.map_or("missing".into(), |c| c.status.to_json_string()),
        )),
    }
}

/// The time of the [`cell`] a figure reads: the floor of its
/// repetitions.
pub(crate) fn secs(
    campaign: &CampaignResult,
    guest: Guest,
    engine: EngineKind,
    workload: Workload,
) -> Result<f64, String> {
    let c = cell(campaign, guest, engine, workload)?;
    Ok(c.metric().unwrap_or_default().max(1e-9))
}

/// A workload's speedup on each DBT version profile over the first,
/// v1.7.0, oldest first: the series Figs 2, 6 and 8 are made of.
pub(crate) fn version_speedups(
    campaign: &CampaignResult,
    guest: Guest,
    workload: Workload,
) -> Result<Vec<f64>, String> {
    let times = EngineKind::all_dbt_versions()
        .into_iter()
        .map(|v| secs(campaign, guest, v, workload))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(times.iter().map(|&t| times[0] / t).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_suite::Benchmark;

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
    fn every_measured_figure_names_a_cell_an_empty_campaign_lacks() {
        let text = format!(
            "{{\"schema\": \"{}\", \"name\": \"empty\", \"scale\": 1, \"reps\": 1, \"jobs\": 1, \"cells\": []}}",
            simbench_campaign::SCHEMA
        );
        let empty = CampaignResult::from_json(&text).unwrap();
        for figure in MEASURED_FIGURES {
            let e = render(figure, &empty).unwrap_err();
            let named = e.starts_with("campaign \"empty\" has no completed cell armlet/");
            assert!(named && e.ends_with(" (status: missing)"), "{figure}: {e}");
        }
        let e = render("fig4", &empty).unwrap_err();
        assert_eq!(e, "fig4 is not rendered from a campaign");
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
