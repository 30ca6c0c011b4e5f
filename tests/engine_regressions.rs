//! Regressions every engine's run loop must pass, written once and
//! instantiated per engine. Both were found by the differ in several
//! hand-written loops at the same time (PR 7); the per-instruction
//! engines now share one loop, and this keeps the dbt's block loop and
//! every policy honest against the same bodies.

use std::time::Duration;

use simbench::prelude::*;
use simbench_core::bus::FlatRam;
use simbench_isa_armlet::sys::{cp14, cp15, CP_BANK, CP_SYS};
use simbench_isa_armlet::{Access, TableBuilder};
use simbench_platform::devices::{INTC_ENABLE, INTC_TRIGGER};
use simbench_platform::INTC_BASE;

/// An IRQ whose handler can never be fetched: delivery degenerates into
/// a prefetch-abort storm in which no iteration retires an instruction,
/// and the wall-clock limit must still end the run.
fn non_retiring_storm_honors_wall_limit<E: Engine<Armlet, Platform>>(name: &str, mut e: E) {
    let mut a = ArmletAsm::new();
    a.org(0x8000);
    // Unmask and raise INTC line 0.
    a.mov_imm(PReg::A, INTC_BASE + INTC_ENABLE);
    a.mov_imm(PReg::B, 1);
    a.store(PReg::B, PReg::A, 0);
    a.mov_imm(PReg::A, INTC_BASE + INTC_TRIGGER);
    a.store(PReg::B, PReg::A, 0);
    // Vector table beyond RAM.
    a.mov_imm(PReg::C, 0x0800_0000);
    a.mcr(CP_SYS, cp15::VBAR, PReg::C);
    a.mcr(CP_BANK, cp14::IRQ_CTL, PReg::B);
    // Spin rather than halt: the dbt takes interrupts at block
    // boundaries only, and a halt in the same block would win the race.
    let spin = a.new_label();
    a.bind(spin);
    a.b(spin);
    let img = a.finish(0x8000);
    let mut m = Machine::<Armlet, _>::boot(&img, Platform::with_ram(1 << 20));
    let out = e.run(
        &mut m,
        &RunLimits {
            max_insns: u64::MAX,
            wall_limit: Some(Duration::from_millis(30)),
        },
    );
    assert_eq!(out.exit, ExitReason::WallLimit, "{name}");
    assert_eq!(out.counters.irqs_delivered, 1, "{name}");
    assert!(
        out.counters.insn_faults > 0,
        "{name}: abort storm was spinning"
    );
}

/// No loads or stores run after the MMU comes on, so every TLB probe
/// counted comes from the fetch path.
fn fetch_path_counts_tlb_probes<E: Engine<Armlet, FlatRam>>(name: &str, mut e: E) {
    let mut a = ArmletAsm::new();
    a.org(0x8000);
    a.mov_imm(PReg::A, 0x0010_0000);
    a.mcr(CP_SYS, cp15::TTBR, PReg::A);
    a.mov_imm(PReg::B, 1);
    a.mcr(CP_SYS, cp15::SCTLR, PReg::B); // MMU on
    a.nop();
    a.nop();
    a.nop();
    a.halt();
    let mut img = a.finish(0x8000);
    let mut tb = TableBuilder::new(0x0010_0000);
    tb.map_section(0, 0, Access::KernelOnly); // identity map code
    let (load_at, blob) = tb.into_blob();
    img.push_section(load_at, blob);
    let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 21));
    let out = e.run(&mut m, &RunLimits::insns(1000));
    assert_eq!(out.exit, ExitReason::Halted, "{name}");
    assert_eq!(out.counters.mem_reads, 0, "{name}");
    assert_eq!(out.counters.mem_writes, 0, "{name}");
    assert!(out.counters.tlb_misses >= 1, "{name}: first fetch walks");
    assert!(
        out.counters.tlb_hits >= 2,
        "{name}: later fetches hit the TLB"
    );
}

/// One `#[test]` per engine, so a failure names the engine.
macro_rules! instantiate {
    ($body:ident: $($name:ident => $engine:expr),+ $(,)?) => {
        $(#[test]
        fn $name() {
            $body(stringify!($name), $engine);
        })+
    };
}

instantiate!(non_retiring_storm_honors_wall_limit:
    storm_interp => Interp::<Armlet>::new(),
    storm_detailed => Detailed::<Armlet>::new(),
    storm_virt => Virt::<Armlet>::kvm(),
    storm_native => Virt::<Armlet>::native(),
    storm_dbt => Dbt::<Armlet>::new(),
);

instantiate!(fetch_path_counts_tlb_probes:
    fetch_probes_interp => Interp::<Armlet>::new(),
    fetch_probes_detailed => Detailed::<Armlet>::new(),
    fetch_probes_virt => Virt::<Armlet>::kvm(),
    fetch_probes_native => Virt::<Armlet>::native(),
);
