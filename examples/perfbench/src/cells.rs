//! Images, cells, and the one function that runs a cell.
//!
//! A cell is one image on one engine. A cell-run pays what a campaign
//! repetition pays: a fresh `Platform`, `Machine` and engine, the run to
//! halt, and tearing all three down again.

use std::time::Instant;

use simbench_apps::{build_app, App};
use simbench_campaign::registry::{dispatch_guest, GuestSpec, GuestVisitor};
use simbench_campaign::{EngineKind, Guest};
use simbench_core::engine::{Engine, RunLimits, RunOutcome};
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_dbt::Dbt;
use simbench_detailed::Detailed;
use simbench_interp::Interp;
use simbench_platform::Platform;
use simbench_suite::Benchmark;
use simbench_virt::Virt;

use crate::table::{self, Group, WorkloadKind};

/// Where an image comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Suite(Benchmark),
    App(App),
    /// Program `index` of the pinned stream (`cold` only).
    Fuzz(u32),
}

/// One image to assemble: a source at a pinned iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageSpec {
    pub guest: Guest,
    pub source: Source,
    pub iterations: u32,
}

impl ImageSpec {
    pub fn group(&self) -> Group {
        match self.source {
            Source::Suite(b) => Group::of_benchmark(b),
            Source::App(_) => Group::App,
            Source::Fuzz(_) => Group::Fuzz,
        }
    }

    pub fn label(&self) -> String {
        let guest = self.guest.isa_name();
        match self.source {
            Source::Suite(b) => format!("{guest}/{}", b.name()),
            Source::App(a) => format!("{guest}/{}", a.name()),
            Source::Fuzz(i) => format!("{guest}/fuzz[{i}]"),
        }
    }

    /// Assemble from scratch, past the campaign's image cache.
    pub fn assemble(&self) -> GuestImage {
        struct Assemble(ImageSpec);
        impl GuestVisitor for Assemble {
            type Out = GuestImage;
            fn visit<G: GuestSpec>(self) -> GuestImage {
                let Assemble(spec) = self;
                let support = G::Support::default();
                match spec.source {
                    Source::Suite(b) => simbench_suite::build(&support, b, spec.iterations)
                        .expect("the tables list only benchmarks the guest has"),
                    Source::App(a) => build_app(&support, a, spec.iterations),
                    Source::Fuzz(i) => simbench_differ::generate(
                        spec.guest,
                        simbench_differ::program_seed(table::COLD_PROGRAM_STREAM, i),
                    ),
                }
            }
        }
        dispatch_guest(self.guest, Assemble(*self))
    }
}

/// Specs of the listed benchmarks that exist on `guest`.
fn suite_specs(guest: Guest, list: &[(Benchmark, u32)]) -> impl Iterator<Item = ImageSpec> + '_ {
    list.iter()
        .filter(move |(b, _)| b.supported_on(guest.isa_name()))
        .map(move |&(b, iterations)| ImageSpec {
            guest,
            source: Source::Suite(b),
            iterations,
        })
}

/// The images a workload needs, in table order.
pub fn image_specs(kind: WorkloadKind) -> Vec<ImageSpec> {
    let mut specs = Vec::new();
    let floor = Benchmark::ALL.map(|b| (b, table::COLD_ITERATIONS));
    match kind {
        WorkloadKind::Steady => {
            for guest in table::STEADY_GUESTS {
                specs.extend(suite_specs(guest, &table::STEADY_SUITE));
            }
            specs.extend(suite_specs(Guest::Armlet, &table::STEADY_ARMLET));
            specs.extend(table::STEADY_APPS.map(|(app, iterations)| ImageSpec {
                guest: Guest::Armlet,
                source: Source::App(app),
                iterations,
            }));
        }
        WorkloadKind::SlowPath => {
            for guest in table::SLOW_PATH_GUESTS {
                specs.extend(suite_specs(guest, &table::SLOW_PATH_SUITE));
            }
        }
        WorkloadKind::Cold => {
            for guest in Guest::ALL {
                specs.extend(suite_specs(guest, &floor));
                specs.extend((0..table::COLD_PROGRAMS).map(|i| ImageSpec {
                    guest,
                    source: Source::Fuzz(i),
                    iterations: 0,
                }));
            }
        }
        WorkloadKind::Campaign => {
            for guest in Guest::ALL {
                specs.extend(suite_specs(guest, &floor));
            }
        }
    }
    specs
}

/// An assembled image.
#[derive(Debug, Clone)]
pub struct Image {
    pub spec: ImageSpec,
    pub image: GuestImage,
}

/// One image on one engine.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into the workload's image list.
    pub image: usize,
    pub engine: EngineKind,
    /// Short engine name, as in metric names.
    pub engine_name: &'static str,
}

/// Assemble every image of a workload and build its cell list: what
/// `setup_s` times.
pub fn set_up(kind: WorkloadKind) -> (Vec<Image>, Vec<Cell>) {
    let images: Vec<Image> = image_specs(kind)
        .into_iter()
        .map(|spec| Image {
            spec,
            image: spec.assemble(),
        })
        .collect();
    let mut cells = Vec::new();
    // The campaign workload's cells are the runner's, not ours.
    if kind != WorkloadKind::Campaign {
        for image in 0..images.len() {
            for (engine, engine_name) in table::engines() {
                cells.push(Cell {
                    image,
                    engine,
                    engine_name,
                });
            }
        }
    }
    (images, cells)
}

/// Timestamps and outcome of one cell-run.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Before `Platform::new`.
    pub start: Instant,
    /// After `Platform::new`.
    pub platform_ready: Instant,
    /// After `Machine::boot`.
    pub booted: Instant,
    /// After the engine is constructed.
    pub engine_ready: Instant,
    /// After `Engine::run` returned.
    pub ran: Instant,
    /// After engine and machine are dropped.
    pub end: Instant,
    pub outcome: RunOutcome,
}

impl CellRun {
    pub fn cell_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Run one image on one engine of one guest.
pub fn run_cell(
    guest: Guest,
    engine: EngineKind,
    image: &GuestImage,
    limits: &RunLimits,
) -> CellRun {
    struct Run<'a>(EngineKind, &'a GuestImage, &'a RunLimits);
    impl GuestVisitor for Run<'_> {
        type Out = CellRun;
        fn visit<G: GuestSpec>(self) -> CellRun {
            run_on::<G::Isa>(self.0, self.1, self.2)
        }
    }
    dispatch_guest(guest, Run(engine, image, limits))
}

fn run_on<I: Isa>(engine: EngineKind, image: &GuestImage, limits: &RunLimits) -> CellRun {
    let start = Instant::now();
    let platform = Platform::new();
    let platform_ready = Instant::now();
    let mut m = Machine::<I, Platform>::boot(image, platform);
    let booted = Instant::now();
    // `Detailed` keeps every device model (the campaign runner removes
    // two to mirror Gem5), so all five engines run every image.
    let (engine_ready, outcome, ran) = match engine {
        EngineKind::Dbt(profile) => drive(Dbt::<I>::with_profile(profile), &mut m, limits),
        EngineKind::Interp => drive(Interp::<I>::new(), &mut m, limits),
        EngineKind::Detailed => drive(Detailed::<I>::new(), &mut m, limits),
        EngineKind::Virt => drive(Virt::<I>::kvm(), &mut m, limits),
        EngineKind::Native => drive(Virt::<I>::native(), &mut m, limits),
    };
    drop(m);
    CellRun {
        start,
        platform_ready,
        booted,
        engine_ready,
        ran,
        end: Instant::now(),
        outcome,
    }
}

/// Run a constructed engine and drop it; returns (constructed, outcome,
/// run returned).
fn drive<I: Isa, E: Engine<I, Platform>>(
    mut engine: E,
    m: &mut Machine<I, Platform>,
    limits: &RunLimits,
) -> (Instant, RunOutcome, Instant) {
    let engine_ready = Instant::now();
    let outcome = engine.run(m, limits);
    (engine_ready, outcome, Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::engine::ExitReason;

    #[test]
    fn workloads_have_the_pinned_cell_counts() {
        let count = |kind| {
            let (images, cells) = set_up(kind);
            (images.len(), cells.len())
        };
        assert_eq!(count(WorkloadKind::Steady), (14, 70));
        assert_eq!(count(WorkloadKind::SlowPath), (24, 120));
        let cold_images = 18 + 17 + 17 + 3 * table::COLD_PROGRAMS as usize;
        assert_eq!(count(WorkloadKind::Cold), (cold_images, cold_images * 5));
        assert_eq!(count(WorkloadKind::Campaign), (52, 0));
    }

    #[test]
    fn assembly_repeats_and_programs_differ() {
        let fuzz = |guest, i| ImageSpec {
            guest,
            source: Source::Fuzz(i),
            iterations: 0,
        };
        assert_eq!(
            fuzz(Guest::Petix, 0).assemble(),
            fuzz(Guest::Petix, 0).assemble()
        );
        assert_ne!(
            fuzz(Guest::Petix, 0).assemble(),
            fuzz(Guest::Petix, 1).assemble()
        );
        assert_eq!(fuzz(Guest::Petix, 0).label(), "petix/fuzz[0]");
        assert_eq!(fuzz(Guest::Petix, 0).group(), Group::Fuzz);
    }

    #[test]
    fn a_cell_run_halts_with_ordered_timestamps() {
        let spec = ImageSpec {
            guest: Guest::Riscle,
            source: Source::Suite(Benchmark::MmioDevice),
            iterations: 16,
        };
        let image = spec.assemble();
        for (engine, _) in table::engines() {
            let run = run_cell(spec.guest, engine, &image, &RunLimits::insns(1 << 20));
            assert_eq!(run.outcome.exit, ExitReason::Halted, "{}", engine.id());
            assert!(run.start <= run.platform_ready && run.platform_ready <= run.booted);
            assert!(run.booted <= run.engine_ready && run.engine_ready <= run.ran);
            assert!(run.ran <= run.end);
            let kernel = run.outcome.kernel.expect("phase marks");
            assert!(kernel.counters.mmio_accesses >= 16);
        }
    }
}
