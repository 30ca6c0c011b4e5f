//! `Dbt`, `Virt` and `Detailed` hand their tables to the next engine
//! through a process-wide pool (`simbench_core::pool`), and an engine
//! built on recycled tables must be indistinguishable from one built on
//! new ones: on every guest, an image run on tables a *different* image
//! has just used ends in the same machine state with the same whole-run
//! and kernel counters — and, on `Detailed`, the same modelled cycles,
//! class histogram and branch predictions — as on tables nobody has used.
//!
//! Everything lives in ONE sequential test function, because "nobody
//! has used" is a statement about the whole process. The pool is empty
//! when the process starts and stays empty while no engine is dropped,
//! so the references are measured first, on engines that are all kept
//! alive until the last reference is taken; only then is anything
//! recycled. The pool hands out the most recently returned tables, so
//! from there on an engine built right after a drop gets exactly the
//! tables that drop returned.

use std::panic::{catch_unwind, AssertUnwindSafe};

use simbench::prelude::*;
use simbench_campaign::registry::{ArmletGuest, GuestSpec, PetixGuest, RiscleGuest};
use simbench_core::bus::Bus;
use simbench_core::events::Counters;
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_core::CpuState;
use simbench_detailed::cachemodel::PipelineStats;
use simbench_platform::{INTC_BASE, SAFEDEV_BASE};
use simbench_suite::build;

const ITERS: u32 = 32;
const PAGE: usize = simbench_core::PAGE_SIZE as usize;

type BoxedEngine<G> = Box<dyn Recycling<<G as GuestSpec>::Isa>>;
type Make<G> = fn() -> BoxedEngine<G>;

/// What a timing model decides: its pipeline statistics, class
/// histogram and (correct, mispredicted) branch predictions.
type Timing = (PipelineStats, [u64; 5], (u64, u64));

/// An engine that recycles its tables.
trait Recycling<I: Isa>: Engine<I, Platform> {
    /// The last run's timing, on an engine that models it.
    fn timing(&self) -> Option<Timing> {
        None
    }
}

impl<I: Isa> Recycling<I> for Dbt<I> {}
impl<I: Isa> Recycling<I> for Virt<I> {}
impl<I: Isa> Recycling<I> for Detailed<I> {
    fn timing(&self) -> Option<Timing> {
        let predictions = self.predictor_stats();
        Some((self.pipeline_stats(), self.class_histogram(), predictions))
    }
}

/// Everything a run leaves behind that does not depend on the clock:
/// what `Machine::state_digest` hashes, unhashed (96 MiB of RAM through
/// a byte-wise hash is a third of a second in a debug build, and this
/// test makes four hundred runs), and the counters.
#[derive(Debug, PartialEq)]
struct Observed {
    cpu: CpuState,
    sys: Vec<u32>,
    /// Every page of RAM holding a nonzero byte.
    ram: Vec<(usize, Vec<u8>)>,
    counters: Counters,
    kernel: Option<Counters>,
    timing: Option<Timing>,
}

fn run<G: GuestSpec>(engine: &mut BoxedEngine<G>, image: &GuestImage) -> Observed {
    let mut m = Machine::<G::Isa, _>::boot(image, Platform::new());
    let out = engine.run(&mut m, &RunLimits::insns(50_000_000));
    assert_eq!(out.exit, ExitReason::Halted);
    let mut sys = Vec::new();
    G::Isa::sys_regs(&m.sys, &mut |_, value| sys.push(value));
    let zero = [0u8; PAGE];
    let pages = m.bus.ram().chunks(PAGE).enumerate();
    Observed {
        cpu: m.cpu.clone(),
        sys,
        ram: pages
            .filter(|(_, page)| **page != zero[..page.len()])
            .map(|(i, page)| (i, page.to_vec()))
            .collect(),
        counters: out.counters,
        kernel: out.kernel.map(|k| k.counters),
        timing: engine.timing(),
    }
}

fn dbt_at<G: GuestSpec>(version: &str) -> BoxedEngine<G> {
    let profile = VersionProfile::by_name(version).expect("a version of the matrix");
    Box::new(Dbt::<G::Isa>::with_profile(profile))
}

/// The pages the campaign runner gives `Detailed` no device model for.
const UNIMPLEMENTED: [u32; 2] = [INTC_BASE >> 12, SAFEDEV_BASE >> 12];

/// The engines that recycle. Two dbt profiles, one without entry
/// guards and with lazy exception side-exits, and the tables of one
/// serve the other. Two detailed engines, as tests and the campaign
/// runner build them.
fn engines<G: GuestSpec>() -> [(&'static str, Make<G>); 6] {
    [
        ("dbt", || Box::new(Dbt::<G::Isa>::new())),
        ("dbt v2.0.2", || dbt_at::<G>("v2.0.2")),
        ("virt", || Box::new(Virt::<G::Isa>::kvm())),
        ("native", || Box::new(Virt::<G::Isa>::native())),
        ("detailed", || Box::new(Detailed::<G::Isa>::new())),
        ("detailed, campaign", || {
            Box::new(Detailed::<G::Isa>::new().with_unimplemented_pages(&UNIMPLEMENTED))
        }),
    ]
}

/// What each image does on each engine when the engine's tables are
/// new, and the engines that showed it, still alive.
struct Reference<G: GuestSpec> {
    images: Vec<(&'static str, GuestImage)>,
    /// `expected[engine][image]`
    expected: Vec<Vec<Observed>>,
    alive: Vec<BoxedEngine<G>>,
}

impl<G: GuestSpec> Reference<G> {
    /// Three suite images.
    fn measure() -> Self {
        let support = G::Support::default();
        // Code rewritten in place; an indirect branch per page over ten
        // pages of code (the front end's slot tables, the dbt's page
        // records); and page tables rewritten under a TLB that is
        // flushed every iteration.
        let images: Vec<_> = [
            Benchmark::SmallBlocks,
            Benchmark::InterPageIndirect,
            Benchmark::TlbFlush,
        ]
        .into_iter()
        .map(|b| (b.name(), build(&support, b, ITERS).expect("on every guest")))
        .collect();
        let mut alive = Vec::new();
        let mut expected = Vec::new();
        for (_, make) in engines::<G>() {
            let mut of_engine = Vec::new();
            for (_, image) in &images {
                let mut engine = make();
                of_engine.push(run::<G>(&mut engine, image));
                alive.push(engine);
            }
            expected.push(of_engine);
        }
        Reference {
            images,
            expected,
            alive,
        }
    }

    /// Run image `b` on a new `engine` and hold it to the reference.
    fn check(&self, engine: usize, b: usize, after: &str) {
        let (name, make) = engines::<G>()[engine];
        let observed = run::<G>(&mut make(), &self.images[b].1);
        assert_eq!(
            observed,
            self.expected[engine][b],
            "{} on {name}, {} after {after}",
            G::GUEST.name(),
            self.images[b].0,
        );
    }

    /// Every image after every other, and after itself, on the tables
    /// that one left.
    fn recycled_equals_new(&self) {
        for (engine, (_, make)) in engines::<G>().iter().enumerate() {
            for (first, image) in &self.images {
                for b in 0..self.images.len() {
                    run::<G>(&mut make(), image);
                    self.check(engine, b, first);
                }
            }
        }
    }
}

#[test]
fn recycled_engine_parts_equal_never_used_ones() {
    let mut armlet = Reference::<ArmletGuest>::measure();
    let mut petix = Reference::<PetixGuest>::measure();
    let mut riscle = Reference::<RiscleGuest>::measure();
    // From here on the pool has tables to give.
    armlet.alive.clear();
    petix.alive.clear();
    riscle.alive.clear();

    armlet.recycled_equals_new();
    petix.recycled_equals_new();
    riscle.recycled_equals_new();

    const DBT: usize = 0;
    const OLD_DBT: usize = 1;
    const NATIVE: usize = 3;
    const DETAILED: usize = 4;
    const CAMPAIGN: usize = 5;
    // Inter-Page Indirect: every table a dbt keeps, the IBTC included.
    let indirect = 1;

    // The tables of one dbt profile serve the other.
    for (engine, before) in [(OLD_DBT, DBT), (DBT, OLD_DBT)] {
        let (name, make) = engines::<ArmletGuest>()[before];
        for b in 0..armlet.images.len() {
            run::<ArmletGuest>(&mut make(), &armlet.images[b].1);
            armlet.check(engine, b, name);
        }
    }

    // Tables that have been through a code-cache overflow: more than
    // 65 536 blocks translated in one run (the next engine gives the
    // megabytes of arena back and keeps the rest).
    let overflowing = build(&ArmletSupport, Benchmark::SmallBlocks, 9000).unwrap();
    let mut dbt = engines::<ArmletGuest>()[DBT].1();
    let translated = run::<ArmletGuest>(&mut dbt, &overflowing)
        .counters
        .blocks_translated;
    assert!(translated > 1 << 16, "{translated} blocks");
    drop(dbt);
    for b in 0..armlet.images.len() {
        armlet.check(DBT, b, "a code-cache overflow");
    }

    // The campaign's detailed engine has no model of the safe device and
    // the plain one has: each answers for itself on the other's model.
    let device = build(&ArmletSupport, Benchmark::MmioDevice, ITERS).unwrap();
    for engine in [CAMPAIGN, DETAILED, CAMPAIGN, DETAILED] {
        let mut m = Machine::<Armlet, _>::boot(&device, Platform::new());
        let exit = engines::<ArmletGuest>()[engine].1()
            .run(&mut m, &RunLimits::insns(1_000_000))
            .exit;
        assert_eq!(
            matches!(exit, ExitReason::Unsupported(_)),
            engine == CAMPAIGN
        );
    }

    // Two engines of a family alive at once, as the differ's mixed dbt
    // pair is: each has tables of its own, and both sets come back.
    for family in [[DBT, OLD_DBT], [NATIVE - 1, NATIVE], [DETAILED, CAMPAIGN]] {
        for _ in 0..2 {
            let mut pair = family.map(|e| engines::<ArmletGuest>()[e].1());
            for image in 0..armlet.images.len() {
                for (engine, at) in pair.iter_mut().zip(family) {
                    let observed = run::<ArmletGuest>(engine, &armlet.images[image].1);
                    assert_eq!(observed, armlet.expected[at][image], "one of a pair");
                }
            }
        }
        for engine in family {
            armlet.check(engine, indirect, "a pair");
        }
    }

    // An engine dropped by a panic keeps its tables to itself, and the
    // next one is none the worse for it.
    for engine in [DBT, NATIVE, DETAILED] {
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut doomed = engines::<ArmletGuest>()[engine].1();
            run::<ArmletGuest>(&mut doomed, &armlet.images[0].1);
            panic!("with a used engine alive");
        }));
        assert!(unwound.is_err());
        armlet.check(engine, indirect, "a panic");
    }
}
