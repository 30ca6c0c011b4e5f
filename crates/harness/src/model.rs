//! Application-performance modelling from micro-benchmark costs — the
//! paper's third contribution: "model application performance without
//! the need to repeatedly run full-scale application benchmarks".
//!
//! The model calibrates a per-operation cost vector from the SimBench
//! kernels (seconds per tested operation, plus a base cost per retired
//! instruction), then predicts an application's runtime on an engine
//! from its architectural *event profile* alone:
//!
//! ```text
//! t(app) ≈ insns·c_base + Σ_op  count_op(app) · c_op
//! ```
//!
//! The event profile is engine-independent (it is architectural), so it
//! can be collected once on any engine — e.g. the fastest — and combined
//! with another engine's calibrated costs, which is exactly the
//! workflow the paper proposes for avoiding repeated full application
//! runs on slow simulators.
//!
//! Everything here consumes stored [`CampaignResult`]s: calibration
//! reads the suite cells, prediction reads app event profiles, and
//! validation compares predictions against the measured app cells of
//! the same campaign — no benchmark is ever re-run. The convenience
//! entry point that measures fresh data ([`CostModel::calibrate`]) does
//! so by running a campaign first, so there is a single calibration
//! math path either way. On the CLI this surfaces
//! as `simbench-harness model calibrate|predict|validate`.

use simbench_campaign::{
    run, CampaignResult, CampaignSpec, CellResult, CellStatus, RunnerOpts, Workload,
};
use simbench_core::events::Counters;
use simbench_suite::Benchmark;

use crate::{Config, EngineKind, Guest};

/// Calibrated per-operation costs (seconds) for one engine.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Base cost per retired instruction.
    pub per_insn: f64,
    /// Extra cost per tested operation, by benchmark.
    pub per_op: Vec<(Benchmark, f64)>,
}

/// Benchmarks used for calibration: one per distinct cost source, with
/// near-pure kernels (their tested op dominates the kernel).
const CALIBRATORS: [Benchmark; 8] = [
    Benchmark::DataFault,
    Benchmark::InsnFault,
    Benchmark::UndefInsn,
    Benchmark::Syscall,
    Benchmark::MmioDevice,
    Benchmark::CoprocAccess,
    Benchmark::MemCold,
    Benchmark::IntraPageIndirect,
];

/// The (guest, engine) cell for a workload, if it completed cleanly.
fn ok_cell<'a>(
    result: &'a CampaignResult,
    guest: &str,
    engine: &str,
    workload: &str,
) -> Option<&'a CellResult> {
    result
        .cell(guest, engine, workload)
        .filter(|c| c.metric().is_some())
}

impl CostModel {
    /// Calibrate a cost model for one engine from a stored campaign
    /// result, dividing each calibration kernel's measured time among
    /// its events. Requires the campaign to contain a clean Hot Memory
    /// Access cell for the (guest, engine) pair; calibrator benchmarks
    /// that are missing or unsupported are skipped, matching the
    /// fresh-run path.
    pub fn from_campaign(
        result: &CampaignResult,
        guest: &str,
        engine: &str,
    ) -> Result<CostModel, String> {
        // Base instruction cost from the most uniform kernel: Hot Memory
        // Access (its loop is ordinary translated/interpreted code).
        let hot_id = Workload::Suite(Benchmark::MemHot).id();
        let hot = ok_cell(result, guest, engine, &hot_id).ok_or_else(|| {
            format!(
                "campaign {:?} has no clean {hot_id:?} cell for {guest}/{engine} \
                 (required for the base instruction cost)",
                result.name
            )
        })?;
        let hot_secs = hot.metric().expect("ok cell has timings");
        let per_insn = hot_secs / hot.counters.instructions.max(1) as f64;

        let mut per_op = Vec::new();
        for bench in CALIBRATORS {
            let Some(cell) = ok_cell(result, guest, engine, &Workload::Suite(bench).id()) else {
                continue; // e.g. detailed engine's unimplemented devices
            };
            let ops = cell
                .tested_ops
                .unwrap_or_else(|| bench.tested_ops(&cell.counters))
                .max(1) as f64;
            // The operation's marginal cost: kernel time minus what the
            // base instruction cost already explains.
            let base = cell.counters.instructions as f64 * per_insn;
            let secs = cell.metric().expect("ok cell has timings");
            let marginal = ((secs - base) / ops).max(0.0);
            per_op.push((bench, marginal));
        }
        Ok(CostModel { per_insn, per_op })
    }

    /// Calibrate by running the calibration kernels now: executes
    /// [`calibration_spec`] as a campaign, then calibrates from the
    /// result.
    pub fn calibrate(guest: Guest, engine: EngineKind, cfg: &Config) -> CostModel {
        let result = run(
            &calibration_spec(guest, vec![engine], cfg),
            &RunnerOpts::with_jobs(cfg.jobs),
        );
        CostModel::from_campaign(&result, guest.isa_name(), &engine.id())
            .expect("hot memory runs everywhere")
    }

    /// Predict a runtime from an architectural event profile.
    pub fn predict(&self, profile: &Counters) -> f64 {
        let mut t = profile.instructions as f64 * self.per_insn;
        for (bench, cost) in &self.per_op {
            t += bench.tested_ops(profile) as f64 * cost;
        }
        t
    }
}

/// The campaign matrix that calibration needs: the base-cost kernel
/// plus every calibrator, on the given engines.
pub fn calibration_spec(guest: Guest, engines: Vec<EngineKind>, cfg: &Config) -> CampaignSpec {
    let mut workloads = vec![Workload::Suite(Benchmark::MemHot)];
    workloads.extend(CALIBRATORS.iter().copied().map(Workload::Suite));
    crate::figure_spec("model-calibration", vec![guest], engines, workloads, cfg)
}

/// Evaluation of the model on one application.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Application workload id (`app:<name>`).
    pub app: String,
    /// Predicted seconds on the modelled engine.
    pub predicted: f64,
    /// Measured seconds on the modelled engine, when the campaign
    /// contains that cell.
    pub measured: Option<f64>,
}

impl Prediction {
    /// measured/predicted error factor (≥ 1); `None` without a
    /// measurement.
    pub fn error_factor(&self) -> Option<f64> {
        let measured = self.measured?;
        let (a, b) = (self.predicted.max(1e-12), measured.max(1e-12));
        Some((a / b).max(b / a))
    }
}

/// Calibrate costs for `engine` from a stored campaign, take each app's
/// event profile from `profile_engine`'s cells, and predict the app's
/// runtime on `engine`. Where the campaign also measured the app on
/// `engine`, the prediction carries that measurement for validation.
pub fn predict_from_campaign(
    result: &CampaignResult,
    guest: &str,
    engine: &str,
    profile_engine: &str,
) -> Result<Vec<Prediction>, String> {
    let model = CostModel::from_campaign(result, guest, engine)?;
    let predictions: Vec<Prediction> = result
        .cells
        .iter()
        .filter(|c| {
            c.guest == guest
                && c.engine == profile_engine
                && c.workload.starts_with("app:")
                && c.status == CellStatus::Ok
        })
        .map(|profile_cell| Prediction {
            app: profile_cell.workload.clone(),
            predicted: model.predict(&profile_cell.counters),
            measured: ok_cell(result, guest, engine, &profile_cell.workload)
                .and_then(CellResult::metric),
        })
        .collect();
    if predictions.is_empty() {
        return Err(format!(
            "campaign {:?} has no clean app event profiles for {guest}/{profile_engine} \
             (run it with --apps)",
            result.name
        ));
    }
    Ok(predictions)
}

/// The engine whose app cells should supply event profiles when the
/// caller did not pick one: `native` when it has clean app cells (the
/// paper profiles on the fastest engine), otherwise any other engine
/// with clean app cells, otherwise the modelled engine itself.
pub fn default_profile_engine(result: &CampaignResult, guest: &str, engine: &str) -> String {
    let has_profiles = |e: &str| {
        result.cells.iter().any(|c| {
            c.guest == guest
                && c.engine == e
                && c.workload.starts_with("app:")
                && c.status == CellStatus::Ok
        })
    };
    if has_profiles("native") {
        return "native".to_string();
    }
    result
        .cells
        .iter()
        .find(|c| {
            c.engine != engine
                && c.guest == guest
                && c.workload.starts_with("app:")
                && c.status == CellStatus::Ok
        })
        .map(|c| c.engine.clone())
        .unwrap_or_else(|| engine.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Calibrate on `engine`, collect app event profiles on `profile_engine`
    /// (typically the fastest), and compare predicted vs measured times —
    /// all through one freshly-run campaign.
    fn evaluate(
        guest: Guest,
        engine: EngineKind,
        profile_engine: EngineKind,
        cfg: &Config,
    ) -> Vec<Prediction> {
        let mut engines = vec![engine];
        if profile_engine != engine {
            engines.push(profile_engine);
        }
        let mut spec = calibration_spec(guest, engines, cfg);
        spec.name = "model-evaluation".to_string();
        spec.workloads.extend(CampaignSpec::app_workloads());
        let result = run(&spec, &RunnerOpts::with_jobs(cfg.jobs));
        predict_from_campaign(
            &result,
            guest.isa_name(),
            &engine.id(),
            &profile_engine.id(),
        )
        .expect("evaluation campaign measured apps on both engines")
    }

    #[test]
    fn model_predicts_dbt_app_times_within_bounds() {
        // Profile on the native engine, predict the DBT engine's time.
        let cfg = Config::with_scale(20_000);
        let preds = evaluate(
            Guest::Armlet,
            EngineKind::Dbt(simbench_dbt::VersionProfile::latest()),
            EngineKind::Native,
            &cfg,
        );
        assert_eq!(preds.len(), simbench_apps::App::ALL.len());
        assert!(preds.iter().all(|p| p.measured.is_some()));
        // The paper claims usefulness, not precision ("you could not
        // accurately use one to predict the other"): require order-of-
        // magnitude agreement for the majority of apps.
        let good = preds
            .iter()
            .filter(|p| p.error_factor().is_some_and(|e| e < 10.0))
            .count();
        assert!(
            good * 2 >= preds.len(),
            "model too far off: {:?}",
            preds
                .iter()
                .map(|p| (p.app.clone(), p.error_factor()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn calibration_produces_positive_base_cost() {
        let cfg = Config::with_scale(50_000);
        let m = CostModel::calibrate(Guest::Armlet, EngineKind::Interp, &cfg);
        assert!(m.per_insn > 0.0);
        assert!(!m.per_op.is_empty());
        // Prediction is monotone in instruction count.
        let small = Counters {
            instructions: 1_000,
            ..Default::default()
        };
        let big = Counters {
            instructions: 1_000_000,
            ..Default::default()
        };
        assert!(m.predict(&big) > m.predict(&small));
    }

    #[test]
    fn stored_campaign_round_trip_preserves_the_model() {
        // Calibrating from a persisted-and-reloaded campaign must give
        // the same model as calibrating from the in-memory result: the
        // validation workflow never needs the original process.
        let cfg = Config::with_scale(200_000);
        let result = run(
            &calibration_spec(Guest::Armlet, vec![EngineKind::Interp], &cfg),
            &RunnerOpts::serial(),
        );
        let reloaded = CampaignResult::from_json(&result.to_json()).unwrap();
        let a = CostModel::from_campaign(&result, "armlet", "interp").unwrap();
        let b = CostModel::from_campaign(&reloaded, "armlet", "interp").unwrap();
        assert_eq!(a.per_insn, b.per_insn);
        assert_eq!(a.per_op.len(), b.per_op.len());
        for ((ba, ca), (bb, cb)) in a.per_op.iter().zip(&b.per_op) {
            assert_eq!(ba, bb);
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn missing_cells_are_reported_not_panicked() {
        let cfg = Config::with_scale(500_000);
        let result = run(
            &calibration_spec(Guest::Armlet, vec![EngineKind::Interp], &cfg),
            &RunnerOpts::serial(),
        );
        let err = CostModel::from_campaign(&result, "armlet", "virt").unwrap_err();
        assert!(err.contains("no clean"), "{err}");
        let err = predict_from_campaign(&result, "armlet", "interp", "interp").unwrap_err();
        assert!(err.contains("--apps"), "{err}");
    }

    #[test]
    fn profile_engine_defaults_prefer_native() {
        let cfg = Config::with_scale(500_000);
        let mut spec = calibration_spec(
            Guest::Armlet,
            vec![EngineKind::Interp, EngineKind::Native],
            &cfg,
        );
        spec.workloads
            .push(Workload::App(simbench_apps::App::McfLike));
        let result = run(&spec, &RunnerOpts::with_jobs(2));
        assert_eq!(
            default_profile_engine(&result, "armlet", "interp"),
            "native"
        );
        // Without any app cells the modelled engine is its own profiler.
        let bare = run(
            &calibration_spec(Guest::Armlet, vec![EngineKind::Interp], &cfg),
            &RunnerOpts::serial(),
        );
        assert_eq!(default_profile_engine(&bare, "armlet", "interp"), "interp");
    }
}
