//! Single-measurement primitives: which guest, which engine, one run.
//!
//! These moved here from `simbench-harness` so the campaign runner is
//! the one place that executes simulations; the harness re-exports them
//! for backwards compatibility. Every run constructs its own
//! [`Machine`] and engine, so measurements are safe to execute
//! concurrently. They are independent although guest RAM and the
//! engines' tables are recycled from earlier runs (`simbench_core::pool`)
//! because recycled RAM is all-zero and every engine empties its tables
//! at run start; `tests/recycled_ram.rs` and `tests/recycled_engine.rs`
//! hold a run on recycled parts equal to one on new ones.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use simbench_apps::{build_app, App};
use simbench_core::engine::{Engine, ExitReason, RunLimits, RunOutcome};
use simbench_core::events::Counters;
use simbench_core::image::GuestImage;
use simbench_core::machine::Machine;
use simbench_dbt::{Dbt, VersionProfile};
use simbench_detailed::Detailed;
use simbench_interp::Interp;
use simbench_platform::Platform;
use simbench_suite::{build, Benchmark};
use simbench_virt::Virt;

use crate::registry::{dispatch_guest, GuestSpec, GuestVisitor};
use crate::spec::Workload;

/// Guest architecture selector. Per-guest metadata and concrete types
/// hang off the [`crate::registry`], not off matches on this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guest {
    /// ARM-like guest.
    Armlet,
    /// x86-like guest.
    Petix,
    /// RISC-V-like guest (mixed 16/32-bit instructions).
    Riscle,
}

impl Guest {
    /// All guests, in registry-table order.
    pub const ALL: [Guest; 3] = [Guest::Armlet, Guest::Petix, Guest::Riscle];

    /// Display name ("armlet (ARM-like)" etc.), from the registry table.
    pub fn name(self) -> &'static str {
        crate::registry::info(self).display
    }

    /// ISA name used by `Benchmark::supported_on` and as the stable id
    /// in persisted campaign results, from the registry table.
    pub fn isa_name(self) -> &'static str {
        crate::registry::info(self).isa_name
    }

    /// Inverse of [`Guest::isa_name`].
    pub fn by_isa_name(name: &str) -> Option<Guest> {
        crate::registry::GUESTS
            .iter()
            .find(|i| i.isa_name == name)
            .map(|i| i.guest)
    }
}

/// Engine selector, matching the five columns of Fig 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The DBT engine at a version profile (QEMU-DBT analogue).
    Dbt(VersionProfile),
    /// Fast interpreter (SimIt-ARM analogue).
    Interp,
    /// Detailed timing interpreter (Gem5 analogue).
    Detailed,
    /// Hardware-assisted virtualization (QEMU-KVM analogue).
    Virt,
    /// Bare-metal stand-in (zero-exit-cost direct execution).
    Native,
}

impl EngineKind {
    /// The five Fig 7 columns, newest DBT profile.
    pub fn fig7_columns() -> [EngineKind; 5] {
        [
            EngineKind::Dbt(VersionProfile::latest()),
            EngineKind::Interp,
            EngineKind::Detailed,
            EngineKind::Virt,
            EngineKind::Native,
        ]
    }

    /// One `Dbt` entry per benchmarked QEMU version profile, oldest
    /// first — the engine axis of every version-sweep figure.
    pub fn all_dbt_versions() -> Vec<EngineKind> {
        simbench_dbt::QEMU_VERSIONS
            .iter()
            .map(|v| EngineKind::Dbt(*v))
            .collect()
    }

    /// Column header.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Dbt(_) => "dbt (QEMU)",
            EngineKind::Interp => "interp (SimIt)",
            EngineKind::Detailed => "detailed (Gem5)",
            EngineKind::Virt => "virt (KVM)",
            EngineKind::Native => "native (HW)",
        }
    }

    /// Stable id used in persisted campaign results and on the CLI:
    /// `dbt@<version>`, `interp`, `detailed`, `virt`, `native`.
    pub fn id(self) -> String {
        match self {
            EngineKind::Dbt(v) => format!("dbt@{}", v.name),
            EngineKind::Interp => "interp".to_string(),
            EngineKind::Detailed => "detailed".to_string(),
            EngineKind::Virt => "virt".to_string(),
            EngineKind::Native => "native".to_string(),
        }
    }

    /// Inverse of [`EngineKind::id`]. Bare `dbt` resolves to the latest
    /// version profile.
    pub fn by_id(id: &str) -> Option<EngineKind> {
        match id {
            "interp" => Some(EngineKind::Interp),
            "detailed" => Some(EngineKind::Detailed),
            "virt" => Some(EngineKind::Virt),
            "native" => Some(EngineKind::Native),
            "dbt" => Some(EngineKind::Dbt(VersionProfile::latest())),
            _ => id
                .strip_prefix("dbt@")
                .and_then(VersionProfile::by_name)
                .map(EngineKind::Dbt),
        }
    }
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Wall-clock time of the timed kernel phase.
    pub seconds: f64,
    /// Events retired during the kernel phase.
    pub counters: Counters,
    /// Why the run ended.
    pub exit: ExitReason,
    /// Iterations the guest executed.
    pub iterations: u32,
}

impl Sample {
    /// True when the run completed normally.
    pub fn ok(&self) -> bool {
        self.exit == ExitReason::Halted
    }
}

/// Measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Iteration divisor applied to the paper's Fig 3 counts (and app
    /// defaults). 1 reproduces the paper's full counts; the default keeps
    /// a full `all` run to a few minutes on a laptop.
    pub scale: u64,
    /// Safety limits per run.
    pub limits: RunLimits,
    /// Worker threads for campaign execution (1 = serial).
    pub jobs: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 2000,
            limits: RunLimits {
                max_insns: u64::MAX,
                wall_limit: Some(Duration::from_secs(120)),
            },
            jobs: 1,
        }
    }
}

impl Config {
    /// A configuration with the given scale divisor.
    pub fn with_scale(scale: u64) -> Self {
        Config {
            scale,
            ..Default::default()
        }
    }

    /// Same configuration with a worker count.
    pub fn with_jobs(self, jobs: usize) -> Self {
        Config {
            jobs: jobs.max(1),
            ..self
        }
    }
}

/// Identity of one assembled guest image: workload × iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ImageKey {
    Suite(Guest, Benchmark, u32),
    App(Guest, App, u32),
}

/// Process-wide cache of assembled guest images.
///
/// Repetitions of a cell measure the *same* guest binary, so re-running
/// the assembler for every repetition only adds untimed per-rep
/// overhead — the campaign should spend its wall clock simulating, not
/// assembling. Images are immutable once built
/// (`Machine::boot` copies them into guest RAM), so one `Arc` per
/// (guest, workload, iterations) is shared by every repetition and
/// worker thread. The cache is bounded by the campaign matrix: one
/// entry per distinct cell workload.
fn image_cache() -> &'static Mutex<HashMap<ImageKey, Arc<GuestImage>>> {
    static CACHE: OnceLock<Mutex<HashMap<ImageKey, Arc<GuestImage>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Fetch or build the image for `key`. `None` when the workload does
/// not exist on the guest architecture. Building happens outside the
/// lock; a racing duplicate build keeps the first inserted image so
/// all repetitions still share one copy.
///
/// The cache must survive mutex poisoning: a quarantined (panicked)
/// repetition may have held this lock, and the map only ever holds
/// fully-built immutable images behind `Arc`s — there is no
/// half-mutated state a poison flag could be protecting — so the rest
/// of the campaign keeps using it rather than unwinding on `unwrap`.
fn cached_image(
    key: ImageKey,
    build: impl FnOnce() -> Option<GuestImage>,
) -> Option<Arc<GuestImage>> {
    static OBS_HITS: simbench_obs::Counter =
        simbench_obs::Counter::new("campaign.image_cache_hits");
    static OBS_MISSES: simbench_obs::Counter =
        simbench_obs::Counter::new("campaign.image_cache_misses");
    let unpoison = std::sync::PoisonError::into_inner;
    if let Some(img) = image_cache().lock().unwrap_or_else(unpoison).get(&key) {
        OBS_HITS.add(1);
        return Some(Arc::clone(img));
    }
    OBS_MISSES.add(1);
    let img = Arc::new(build()?);
    let mut cache = image_cache().lock().unwrap_or_else(unpoison);
    Some(Arc::clone(cache.entry(key).or_insert(img)))
}

/// Fetch or build the assembled image for one workload at a campaign
/// scale, sharing the process-wide cache with the campaign runner.
/// `None` when the workload does not exist on the guest architecture.
///
/// This is the image a campaign cell of the same (guest, workload,
/// scale) measures, which is what makes it the right input for
/// cross-engine differential checking: the differ and the campaign
/// disagree about nothing but which engines run the bytes.
pub fn workload_image(guest: Guest, workload: Workload, scale: u64) -> Option<Arc<GuestImage>> {
    struct BuildImage {
        workload: Workload,
        iters: u32,
    }
    impl GuestVisitor for BuildImage {
        type Out = Option<Arc<GuestImage>>;
        fn visit<G: GuestSpec>(self) -> Self::Out {
            let iters = self.iters;
            match self.workload {
                Workload::Suite(bench) => {
                    cached_image(ImageKey::Suite(G::GUEST, bench, iters), || {
                        build(&G::Support::default(), bench, iters)
                    })
                }
                Workload::App(app) => cached_image(ImageKey::App(G::GUEST, app, iters), || {
                    Some(build_app(&G::Support::default(), app, iters))
                }),
            }
        }
    }
    let iters = scaled_iterations(workload, scale);
    dispatch_guest(guest, BuildImage { workload, iters })
}

/// The iteration count a workload's image is assembled with at a
/// campaign scale.
fn scaled_iterations(workload: Workload, scale: u64) -> u32 {
    match workload {
        Workload::Suite(bench) => bench.scaled_iterations(scale),
        Workload::App(app) => app.scaled_iterations(app_scale_divisor(scale)),
    }
}

/// Run one workload: boot the image [`workload_image`] returns on a new
/// machine and run it on `engine`. `None` when the workload does not
/// exist on the guest architecture.
pub(crate) fn run_workload(
    guest: Guest,
    engine: EngineKind,
    workload: Workload,
    cfg: &Config,
) -> Option<Sample> {
    struct RunImage {
        engine: EngineKind,
        image: Arc<GuestImage>,
        limits: RunLimits,
    }
    impl GuestVisitor for RunImage {
        type Out = RunOutcome;
        fn visit<G: GuestSpec>(self) -> RunOutcome {
            let mut m = Machine::<G::Isa, Platform>::boot(&self.image, Platform::new());
            let limits = &self.limits;
            match self.engine {
                EngineKind::Dbt(profile) => {
                    Dbt::<G::Isa>::with_profile(profile).run(&mut m, limits)
                }
                EngineKind::Interp => Interp::<G::Isa>::new().run(&mut m, limits),
                EngineKind::Detailed => {
                    // Mirror the paper's Fig 7 footnote: Gem5 lacks device
                    // models for the interrupt controller and the safe
                    // MMIO device.
                    let pages = [
                        simbench_platform::INTC_BASE >> 12,
                        simbench_platform::SAFEDEV_BASE >> 12,
                    ];
                    Detailed::<G::Isa>::new()
                        .with_unimplemented_pages(&pages)
                        .run(&mut m, limits)
                }
                EngineKind::Virt => Virt::<G::Isa>::kvm().run(&mut m, limits),
                EngineKind::Native => Virt::<G::Isa>::native().run(&mut m, limits),
            }
        }
    }
    let image = workload_image(guest, workload, cfg.scale)?;
    let limits = cfg.limits;
    let out = dispatch_guest(
        guest,
        RunImage {
            engine,
            image,
            limits,
        },
    );
    Some(Sample {
        seconds: out.kernel_wall().as_secs_f64(),
        counters: out.kernel_counters(),
        exit: out.exit,
        iterations: scaled_iterations(workload, cfg.scale),
    })
}

/// Run one suite benchmark. `None` when the benchmark does not exist on
/// the guest architecture (Nonprivileged Access on petix).
pub fn run_suite_bench(
    guest: Guest,
    engine: EngineKind,
    bench: Benchmark,
    cfg: &Config,
) -> Option<Sample> {
    run_workload(guest, engine, Workload::Suite(bench), cfg)
}

/// The iteration divisor apps run at for a campaign scale. Apps use a
/// gentler divisor than the micro-benchmarks (the paper's point is
/// that they are large relative to them), but the mapping must stay
/// *monotonic*: `scale / 50` truncates to 0 for `scale < 50`, which
/// `scaled_iterations` silently rescues to divisor 1 — so asking for
/// more scaling (`--scale 10`) ran apps at full paper iteration
/// counts, 40× more work than `--scale 50`. `div_ceil` keeps the same
/// divisor at every multiple of 50 while never letting a smaller scale
/// yield more app work.
fn app_scale_divisor(scale: u64) -> u64 {
    scale.div_ceil(50)
}

/// Run one synthetic application.
pub fn run_app(guest: Guest, engine: EngineKind, app: App, cfg: &Config) -> Sample {
    run_workload(guest, engine, Workload::App(app), cfg).expect("apps exist on every guest")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_suite::{ArmletSupport, PetixSupport};

    #[test]
    fn engine_ids_roundtrip() {
        for engine in EngineKind::fig7_columns() {
            assert_eq!(EngineKind::by_id(&engine.id()), Some(engine));
        }
        for v in simbench_dbt::QEMU_VERSIONS {
            let e = EngineKind::Dbt(*v);
            assert_eq!(EngineKind::by_id(&e.id()), Some(e));
        }
        assert_eq!(
            EngineKind::by_id("dbt"),
            Some(EngineKind::Dbt(VersionProfile::latest()))
        );
        assert_eq!(EngineKind::by_id("dbt@v0.0.0"), None);
        assert_eq!(EngineKind::by_id("qemu"), None);
    }

    #[test]
    fn guest_ids_roundtrip() {
        for g in Guest::ALL {
            assert_eq!(Guest::by_isa_name(g.isa_name()), Some(g));
        }
        assert_eq!(Guest::by_isa_name("mips"), None);
    }

    #[test]
    fn app_scaling_is_monotonic_in_scale() {
        // The old `scale / 50` divisor truncated to 0 below 50, so
        // `--scale 10` ran apps at *full* paper iteration counts — 40×
        // more work than `--scale 50`. Smaller scale must never mean
        // more app work.
        for app in App::ALL {
            let mut prev = app.scaled_iterations(app_scale_divisor(1));
            for scale in [2, 10, 25, 49, 50, 51, 99, 100, 1000, 20_000, 1_000_000] {
                let iters = app.scaled_iterations(app_scale_divisor(scale));
                assert!(
                    iters <= prev,
                    "{}: scale {scale} yields {iters} iterations, more than a \
                     smaller scale's {prev}",
                    app.name()
                );
                prev = iters;
            }
            // The regression case called out in the issue, explicitly.
            assert!(
                app.scaled_iterations(app_scale_divisor(10))
                    <= app.scaled_iterations(app_scale_divisor(50))
            );
        }
        // Multiples of 50 keep their historical divisor, so existing
        // campaign baselines (scale 20000 → divisor 400) are unchanged.
        assert_eq!(app_scale_divisor(50), 1);
        assert_eq!(app_scale_divisor(100), 2);
        assert_eq!(app_scale_divisor(20_000), 400);
        // Below 50 the divisor floors at 1 instead of collapsing to the
        // rescued-zero full-work path.
        assert_eq!(app_scale_divisor(1), 1);
        assert_eq!(app_scale_divisor(49), 1);
        assert_eq!(app_scale_divisor(51), 2);
    }

    #[test]
    fn image_cache_survives_mutex_poisoning() {
        // A quarantined repetition can panic while holding the cache
        // lock; subsequent cells must keep measuring, not unwind on a
        // poisoned `unwrap`. Poison the real process-wide cache, then
        // measure through it.
        let cache = image_cache();
        let _ = std::panic::catch_unwind(|| {
            let _guard = cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            panic!("poison the image cache");
        });
        let key = ImageKey::Suite(Guest::Armlet, Benchmark::Syscall, 32);
        let img = cached_image(key, || build(&ArmletSupport::new(), Benchmark::Syscall, 32));
        assert!(img.is_some(), "poisoned cache must keep serving images");
        let again = cached_image(key, || panic!("second fetch must hit the cache"));
        assert!(
            Arc::ptr_eq(&img.unwrap(), &again.unwrap()),
            "hits keep sharing one assembly after poisoning"
        );
    }

    #[test]
    fn image_cache_shares_one_assembly_per_cell() {
        let key = ImageKey::Suite(Guest::Armlet, Benchmark::Syscall, 64);
        let a = cached_image(key, || build(&ArmletSupport::new(), Benchmark::Syscall, 64)).unwrap();
        let b = cached_image(key, || panic!("second fetch must hit the cache")).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repetitions share one assembly");
        // Workloads absent on the guest stay absent (nothing is cached).
        let absent = ImageKey::Suite(Guest::Petix, Benchmark::NonprivAccess, 64);
        assert!(cached_image(absent, || build(
            &PetixSupport::new(),
            Benchmark::NonprivAccess,
            64
        ))
        .is_none());
    }

    #[test]
    fn smoke_syscall_on_all_engines() {
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
    fn samples_report_the_iterations_their_image_was_built_with() {
        let cfg = Config {
            scale: 1_000_000,
            ..Default::default()
        };
        let bench = run_suite_bench(Guest::Armlet, EngineKind::Interp, Benchmark::Syscall, &cfg);
        let want = Benchmark::Syscall.scaled_iterations(cfg.scale);
        assert_eq!(bench.unwrap().iterations, want);
        let app = App::ALL[0];
        let sample = run_app(Guest::Petix, EngineKind::Interp, app, &cfg);
        assert!(sample.ok(), "{:?}", sample.exit);
        let want = app.scaled_iterations(app_scale_divisor(cfg.scale));
        assert_eq!(sample.iterations, want);
    }
}
