//! Allocation audit of the engine hot loops.
//!
//! A test-only counting `#[global_allocator]` wrapper proves the
//! PR-level claim behind `OpList`, the DBT step arena (which translation
//! appends to directly), slot tables and page lists, and the
//! decoded-page front end: once an engine is warm, executing guest code
//! touches the allocator **zero** times — decode, dispatch, execute,
//! invalidation and code-cache overflow run entirely on inline storage
//! and pre-grown capacity.
//!
//! The counter is thread-local: libtest's own harness threads (and any
//! concurrently running test) allocate at unpredictable times, and only
//! allocations made *by the measuring thread* are evidence about the
//! hot loop.
//!
//! What surrounds the hot loop is held to the same rule where it
//! recurs per cell-run: a platform on recycled guest RAM, booting an
//! image into it, and an engine made of the tables the last one left.
//!
//! Since the telemetry PR the engines are instrumented with
//! `simbench-obs` spans and metrics, so this test also pins the
//! observability contract both ways: compiled-in-but-disabled telemetry
//! changes none of the zero-allocation guarantees above (the disabled
//! path is one relaxed load + branch), and even *enabled* telemetry is
//! allocation-free once warm — rings are fixed-capacity and metric
//! registration happens exactly once.
//!
//! Everything lives in ONE sequential test function: the obs enable
//! flags are process-global, and a parallel test flipping them would
//! push another test's hot loop onto the (allocating) warm-up path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::catch_unwind;

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::bus::FlatRam;
use simbench_core::engine::{Engine, ExitReason, RunLimits, RunOutcome};
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};
use simbench_core::machine::Machine;
use simbench_dbt::Dbt;
use simbench_detailed::Detailed;
use simbench_interp::Interp;
use simbench_isa_armlet::{Armlet, ArmletAsm};
use simbench_platform::Platform;
use simbench_virt::Virt;

/// Counts every allocation and reallocation made by the current
/// thread; frees are not interesting (a hot loop that frees must have
/// allocated first).
struct CountingAlloc;

thread_local! {
    // Const-initialized so reading it never allocates (a lazily
    // initialized TLS slot would recurse into the allocator).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bump the current thread's counter. `try_with`: the allocator also
/// runs during TLS teardown, when the slot is gone.
fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// A hot loop exercising the full per-instruction path: ALU ops, a
/// store/load pair, a compare and a taken intra-page branch.
fn hot_loop_image(iters: u32) -> GuestImage {
    let mut a = ArmletAsm::new();
    a.org(0x8000);
    a.mov_imm(PReg::A, 0);
    a.mov_imm(PReg::B, iters);
    a.mov_imm(PReg::C, 0x4000);
    let top = a.new_label();
    a.bind(top);
    a.store(PReg::A, PReg::C, 0);
    a.load(PReg::D, PReg::C, 0);
    a.alu_ri(AluOp::Add, PReg::A, PReg::A, 1);
    a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
    a.cmp_ri(PReg::B, 0);
    a.b_cond(Cond::Ne, top);
    a.halt();
    a.finish(0x8000)
}

/// A loop that overwrites its own first instruction (with the same
/// encoding) every iteration: each store forgets that decode, or kills
/// the block that starts there, and it is decoded or translated again
/// on the next trip round.
fn self_rewriting_loop_image(iters: u32) -> GuestImage {
    let mut a = ArmletAsm::new();
    a.org(0x8000);
    let top = a.new_label();
    a.mov_imm(PReg::B, iters);
    a.mov_label(PReg::C, top);
    a.load(PReg::D, PReg::C, 0);
    a.bind(top);
    a.nop();
    a.store(PReg::D, PReg::C, 0);
    a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
    a.cmp_ri(PReg::B, 0);
    a.b_cond(Cond::Ne, top);
    a.halt();
    a.finish(0x8000)
}

/// Run `engine` over a fresh machine (booted outside the measured
/// window) and return the allocation count of the run itself.
fn measured_run<E: Engine<Armlet, FlatRam>>(engine: &mut E, img: &GuestImage) -> (u64, RunOutcome) {
    let mut m = Machine::<Armlet, _>::boot(img, FlatRam::new(1 << 20));
    let before = allocs();
    let out = engine.run(&mut m, &RunLimits::insns(10_000_000));
    let delta = allocs() - before;
    (delta, out)
}

/// Run each image twice on `engine`: the second, warm run must halt
/// having allocated nothing and counted `invalidations` code
/// invalidations. Returns the last warm run's outcome.
fn warm_runs_allocate_nothing<E: Engine<Armlet, FlatRam>>(
    name: &str,
    engine: &mut E,
    cases: &[(&str, &GuestImage, u32)],
) -> RunOutcome {
    let mut last = None;
    for &(what, img, invalidations) in cases {
        let (_warmup, out) = measured_run(engine, img);
        assert_eq!(out.exit, ExitReason::Halted);
        let (steady, out) = measured_run(engine, img);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(
            steady, 0,
            "{name} allocated {steady} times in a warm {what} loop"
        );
        assert_eq!(out.counters.code_invalidations, u64::from(invalidations));
        last = Some(out);
    }
    last.expect("at least one case")
}

/// Build an engine; how many allocations that took.
fn built<E>(make: fn() -> E) -> (E, u64) {
    let before = allocs();
    let engine = make();
    (engine, allocs() - before)
}

/// The engine pool, seen through the allocator (this process has one
/// test thread, so the pool holds what this function left in it). On
/// entry it holds at most one set of tables.
fn recycled_engines_allocate_nothing<E: Engine<Armlet, FlatRam>>(
    name: &str,
    make: fn() -> E,
    img: &GuestImage,
) {
    // Once one engine has run the image and been dropped, constructing
    // the next, running the image cold and dropping it allocates
    // nothing.
    for cell_run in 0..3 {
        let mut m = Machine::<Armlet, _>::boot(img, FlatRam::new(1 << 20));
        let before = allocs();
        let mut engine = make();
        let out = engine.run(&mut m, &RunLimits::insns(10_000_000));
        drop(engine);
        let cold = allocs() - before;
        assert_eq!(out.exit, ExitReason::Halted);
        assert!(
            cell_run == 0 || cold == 0,
            "{name}: a recycled cell-run allocated {cold} times"
        );
    }
    // Two alive at once: the second finds the pool empty, and both sets
    // of tables come back.
    let ((a, first), (b, second)) = (built(make), built(make));
    assert!(first == 0 && second > 0, "{name}: {first}, {second}");
    drop((a, b));
    let ((a, first), (b, second)) = (built(make), built(make));
    assert_eq!((first, second), (0, 0), "{name}: a pair from the pool");
    drop((a, b));
    // One dropped by a panic returns nothing: of the two sets, the one
    // it did not take is left.
    let unwound = catch_unwind(|| {
        let _doomed = make();
        panic!("with an engine alive");
    });
    assert!(unwound.is_err());
    let ((a, first), (b, second)) = (built(make), built(make));
    assert!(first == 0 && second > 0, "{name}: {first}, {second}");
    // Leave one set, as on entry.
    drop(a);
    std::mem::forget(b);
}

#[test]
fn warm_hot_loops_allocate_nothing() {
    let img = hot_loop_image(20_000);

    // Telemetry is compiled into both engines below, and its default-off
    // state is the precondition for every zero-allocation assertion
    // that follows.
    assert!(
        !simbench_obs::tracing_enabled() && !simbench_obs::metrics_enabled(),
        "obs must be disabled by default"
    );

    // Fast interpreter: decode results live inline in `Decoded`
    // (`OpList`), the fetch buffer is on the stack, and the per-run
    // single-entry caches are plain fields — even the *first* run of a
    // fresh engine must not allocate.
    let mut interp = Interp::<Armlet>::new();
    let (warm, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        warm, 0,
        "interp allocated {warm} times during a cold hot-loop run"
    );
    let (steady, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(steady, 0, "interp steady state allocated {steady} times");

    // DBT: the first run grows the step arena, block table and page slot
    // tables (warm-up may allocate).
    // Every later run retranslates the same program into that retained
    // capacity, so the steady state is allocation-free — including the
    // full re-translation after the run-start reset.
    let mut dbt = Dbt::<Armlet>::new();
    let (_warmup, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    let (steady, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        steady, 0,
        "dbt steady state allocated {steady} times after warm-up"
    );
    assert!(
        out.counters.block_chain_follows > 10_000,
        "the loop must actually run via chained blocks: {}",
        out.counters.block_chain_follows
    );

    // Native and virt: the first run grows the front end's decode
    // arena, slot tables and page index. The run-start reset keeps all
    // of it, so a second run re-decodes into retained capacity — and so
    // does a loop that rewrites one of its own instructions every
    // iteration, whose forgotten decodes overflow the arena several
    // times per run. The dbt is held to the same: each store kills the
    // block that starts at the rewritten instruction (not the one the
    // store resumes in) and it is translated again, into the page
    // record's retained list and slot table.
    let smc_iters = 20_000;
    let smc = self_rewriting_loop_image(smc_iters);
    let cases = [("hot", &img, 0), ("self-rewriting", &smc, smc_iters)];
    warm_runs_allocate_nothing("native", &mut Virt::<Armlet>::native(), &cases);
    warm_runs_allocate_nothing("virt", &mut Virt::<Armlet>::kvm(), &cases);
    warm_runs_allocate_nothing("dbt", &mut dbt, &cases[1..]);

    // Enough rewrites to overflow the dbt's code cache (65 536 blocks,
    // tombstones included) twice in one run: the overflow flush keeps
    // every container's capacity too.
    let overflow_iters = 140_000;
    let overflowing = self_rewriting_loop_image(overflow_iters);
    let out = warm_runs_allocate_nothing(
        "dbt",
        &mut dbt,
        &[("cache-overflowing", &overflowing, overflow_iters)],
    );
    assert!(
        out.counters.blocks_translated > 2 << 16,
        "two overflows need more than 2 x 65 536 blocks: {}",
        out.counters.blocks_translated
    );

    // A cell-run's platform: guest RAM comes back from the pool that
    // the first platform's drop filled, loading the image copies into
    // it, and the devices are plain fields.
    let boot_and_drop = || drop(Machine::<Armlet, _>::boot(&img, Platform::new()));
    boot_and_drop();
    let before = allocs();
    boot_and_drop();
    let warm = allocs() - before;
    assert_eq!(warm, 0, "a warm platform + boot allocated {warm} times");

    // A cell-run's engine: a dropped `Dbt` or `Virt` leaves its tables
    // in a pool, and the next one is made of them — less this engine's
    // step arena, which held 65 536 blocks: one that big is given back
    // when the tables change hands, and the next run grows its own.
    drop(dbt);
    let (regrown, _) = measured_run(&mut Dbt::<Armlet>::new(), &img);
    assert!(regrown > 0, "an arena of megabytes stays in the pool");
    recycled_engines_allocate_nothing("dbt", Dbt::<Armlet>::new, &img);
    recycled_engines_allocate_nothing("native", Virt::<Armlet>::native, &img);
    recycled_engines_allocate_nothing("virt", Virt::<Armlet>::kvm, &img);
    recycled_engines_allocate_nothing("detailed", Detailed::<Armlet>::new, &img);
    // As the campaign runner builds it: the page list is the model's too.
    let campaign = || Detailed::<Armlet>::new().with_unimplemented_pages(&[0xF0001, 0xF0003]);
    recycled_engines_allocate_nothing("detailed, campaign", campaign, &img);
    let mut dbt = Dbt::<Armlet>::new();

    // Enabled telemetry: the first instrumented run pays one-time costs
    // (per-thread ring creation, metric registration in the process
    // registry), after which spans are fixed-slot ring writes and
    // metric updates are relaxed fetch_adds — the steady state stays
    // allocation-free even while recording.
    simbench_obs::set_tracing(true);
    simbench_obs::set_metrics(true);
    let (_warmup, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    let (steady, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        steady, 0,
        "interp with telemetry enabled allocated {steady} times after warm-up"
    );
    let (_warmup, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    let (steady, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        steady, 0,
        "dbt with telemetry enabled allocated {steady} times after warm-up"
    );
    simbench_obs::set_tracing(false);
    simbench_obs::set_metrics(false);

    // Back to disabled: the flags leave no residue in the hot loops.
    let (steady, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(steady, 0, "dbt after disabling telemetry: {steady} allocs");
}
