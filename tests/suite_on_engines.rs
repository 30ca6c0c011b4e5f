//! Integration: every suite benchmark runs to completion on every engine
//! and both guest ISAs, producing the expected tested-operation counts.

use simbench::prelude::*;
use simbench_core::bus::Bus;
use simbench_core::engine::RunOutcome;
use simbench_core::isa::Isa;
use simbench_suite::{build, Benchmark, Support};

const ITERS: u32 = 64;

fn run_bench<I, S, E>(support: &S, engine: &mut E, bench: Benchmark) -> Option<RunOutcome>
where
    I: Isa,
    S: Support,
    E: Engine<I, Platform>,
{
    let image = build(support, bench, ITERS)?;
    let mut m = Machine::<I, Platform>::boot(&image, Platform::new());
    Some(engine.run(&mut m, &RunLimits::insns(50_000_000)))
}

fn check_outcome(bench: Benchmark, engine: &str, out: &RunOutcome) {
    if let ExitReason::Unsupported(_) = out.exit {
        // Allowed only for the detailed engine's unimplemented devices —
        // not exercised in this test (we run Detailed with all devices).
        panic!("{engine}/{bench:?}: unexpected Unsupported");
    }
    assert_eq!(
        out.exit,
        ExitReason::Halted,
        "{engine}/{bench:?} did not halt: {:?}",
        out.exit
    );
    let kernel = out
        .kernel
        .as_ref()
        .unwrap_or_else(|| panic!("{engine}/{bench:?}: no phase marks"));
    let ops = bench.tested_ops(&kernel.counters);
    if bench.category() == simbench_suite::Category::CodeGeneration && ops == 0 {
        // Engines without a code cache cannot observe code modification
        // events; the architectural rewrites must still have happened.
        assert!(
            kernel.counters.mem_writes >= ITERS as u64,
            "{engine}/{bench:?}: too few rewrite stores"
        );
        return;
    }
    assert!(
        ops >= ITERS as u64 / 2,
        "{engine}/{bench:?}: tested ops {} too low for {} iterations (counters: {:?})",
        ops,
        ITERS,
        kernel.counters
    );
}

#[test]
fn all_benchmarks_on_interp_armlet() {
    let s = ArmletSupport::new();
    for bench in Benchmark::ALL {
        let mut e = Interp::<Armlet>::new();
        let out = run_bench::<Armlet, _, _>(&s, &mut e, bench).unwrap();
        check_outcome(bench, "interp/armlet", &out);
    }
}

#[test]
fn all_benchmarks_on_dbt_armlet() {
    let s = ArmletSupport::new();
    for bench in Benchmark::ALL {
        let mut e = Dbt::<Armlet>::new();
        let out = run_bench::<Armlet, _, _>(&s, &mut e, bench).unwrap();
        check_outcome(bench, "dbt/armlet", &out);
    }
}

#[test]
fn all_benchmarks_on_native_armlet() {
    let s = ArmletSupport::new();
    for bench in Benchmark::ALL {
        let mut e = Virt::<Armlet>::native();
        let out = run_bench::<Armlet, _, _>(&s, &mut e, bench).unwrap();
        check_outcome(bench, "native/armlet", &out);
    }
}

#[test]
fn all_benchmarks_on_detailed_armlet() {
    let s = ArmletSupport::new();
    for bench in Benchmark::ALL {
        let mut e = Detailed::<Armlet>::new();
        let out = run_bench::<Armlet, _, _>(&s, &mut e, bench).unwrap();
        check_outcome(bench, "detailed/armlet", &out);
    }
}

#[test]
fn all_benchmarks_on_interp_petix() {
    let s = PetixSupport::new();
    for bench in Benchmark::ALL {
        if !bench.supported_on("petix") {
            continue;
        }
        let mut e = Interp::<Petix>::new();
        let out = run_bench::<Petix, _, _>(&s, &mut e, bench).unwrap();
        check_outcome(bench, "interp/petix", &out);
    }
}

#[test]
fn all_benchmarks_on_dbt_petix() {
    let s = PetixSupport::new();
    for bench in Benchmark::ALL {
        if !bench.supported_on("petix") {
            continue;
        }
        let mut e = Dbt::<Petix>::new();
        let out = run_bench::<Petix, _, _>(&s, &mut e, bench).unwrap();
        check_outcome(bench, "dbt/petix", &out);
    }
}

#[test]
fn engines_agree_on_guest_visible_state() {
    // Differential check: after running the same benchmark, the guest's
    // architectural registers must match across engines.
    let s = ArmletSupport::new();
    for bench in [
        Benchmark::MemHot,
        Benchmark::Syscall,
        Benchmark::IntraPageDirect,
    ] {
        let image = build(&s, bench, ITERS).unwrap();
        let mut finals = Vec::new();
        {
            let mut m = Machine::<Armlet, Platform>::boot(&image, Platform::new());
            let mut e = Interp::<Armlet>::new();
            e.run(&mut m, &RunLimits::default());
            finals.push(m.cpu.regs);
        }
        {
            let mut m = Machine::<Armlet, Platform>::boot(&image, Platform::new());
            let mut e = Dbt::<Armlet>::new();
            e.run(&mut m, &RunLimits::default());
            finals.push(m.cpu.regs);
        }
        {
            let mut m = Machine::<Armlet, Platform>::boot(&image, Platform::new());
            let mut e = Virt::<Armlet>::native();
            e.run(&mut m, &RunLimits::default());
            finals.push(m.cpu.regs);
        }
        assert_eq!(finals[0], finals[1], "{bench:?}: interp vs dbt");
        assert_eq!(finals[0], finals[2], "{bench:?}: interp vs native");
    }
}

/// The dbt leaves a block at the store that raises a phase mark, so its
/// kernel window opens and closes on the instruction it does in every
/// other engine: at the 16-iteration floor, where one instruction shows,
/// every architectural counter of the kernel phase is the interpreter's
/// on every guest and benchmark. (Translation probes are not counted on
/// the fetch side, so the TLB hit/miss split is the dbt's own.)
#[test]
fn dbt_kernel_window_is_the_interpreters() {
    use simbench_campaign::{run_suite_bench, Config, EngineKind, Guest};
    use simbench_core::events::Counters;

    let architectural = |c: &Counters| Counters {
        tlb_hits: 0,
        tlb_misses: 0,
        code_invalidations: 0,
        blocks_translated: 0,
        block_cache_hits: 0,
        block_chain_follows: 0,
        ..*c
    };
    let cfg = Config::with_scale(u64::MAX);
    let mut cells = 0;
    for guest in Guest::ALL {
        for bench in Benchmark::ALL {
            let Some(interp) = run_suite_bench(guest, EngineKind::Interp, bench, &cfg) else {
                continue;
            };
            let dbt = EngineKind::Dbt(VersionProfile::latest());
            let dbt = run_suite_bench(guest, dbt, bench, &cfg).expect("runs on interp");
            assert!(interp.ok() && dbt.ok(), "{guest:?} {bench:?}");
            assert_eq!(interp.iterations, 16);
            assert_eq!(
                architectural(&dbt.counters),
                architectural(&interp.counters),
                "{guest:?} {bench:?}"
            );
            cells += 1;
        }
    }
    assert_eq!(cells, 3 * 18 - 2, "only armlet has Nonprivileged Access");
}

#[test]
fn phase_marks_reach_platform() {
    let s = ArmletSupport::new();
    let image = build(&s, Benchmark::Syscall, 32).unwrap();
    let mut m = Machine::<Armlet, Platform>::boot(&image, Platform::new());
    let mut e = Interp::<Armlet>::new();
    let out = e.run(&mut m, &RunLimits::default());
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(m.bus.ctl.marks(), &[1, 2]);
    assert!(!m.bus.irq_pending());
}
