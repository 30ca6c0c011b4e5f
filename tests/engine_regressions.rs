//! Regressions every engine's run loop must pass, written once and
//! instantiated per engine. The first two were found by the differ in
//! several hand-written loops at the same time (PR 7); the
//! per-instruction engines now share one loop, and this keeps the dbt's
//! block loop and every policy honest against the same bodies.

// Only the lockstep sweep is used here, not the paging scaffolding.
#[allow(dead_code)]
mod common;

use std::time::Duration;

use simbench::prelude::*;
use simbench_core::bus::Bus;
use simbench_core::bus::FlatRam;
use simbench_core::image::GuestImage;
use simbench_core::ir::AluOp;
use simbench_core::isa::Isa;
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

/// A petix `call` pushes its return address, and the op that stores it
/// ends the block with a jump: a push into a page holding translations
/// must invalidate them all the same. The dbt looked for dirtied code
/// only after ops that fall through, kept the stale block of `leaf`
/// and ran it a second time.
#[test]
fn call_push_into_a_code_page_invalidates() {
    // Its pushes land in the page above the code.
    const STACK_TOP: u32 = 0xA000;
    let mut a = PetixAsm::new();
    a.org(0x8000);
    let (leaf, pusher, callee) = (a.new_label(), a.new_label(), a.new_label());
    a.mov_imm(PReg::Sp, STACK_TOP);
    a.mov_imm(PReg::C, 0);
    a.call(leaf); // translated and run once: C = 1
    a.mov_label(PReg::Sp, leaf);
    a.alu_ri(AluOp::Add, PReg::Sp, PReg::Sp, 4);
    a.b(pusher);
    a.align(4); // the push below is a word store
    a.bind(leaf);
    let leaf_at = a.here();
    a.alu_ri(AluOp::Add, PReg::C, PReg::C, 1);
    a.ret();
    // A five-byte call whose return address ends in 0x01, the encoding
    // of `halt`: pushed with the stack pointer just above `leaf`, it
    // replaces `leaf`'s first instruction.
    a.org(0x8101 - 5);
    a.bind(pusher);
    a.call(callee);
    assert_eq!(a.here() & 0xFF, 0x01);
    a.mov_imm(PReg::Sp, STACK_TOP);
    a.call(leaf); // now halts on entry
    a.mov_imm(PReg::C, 100); // reached only through the stale block
    a.halt();
    a.bind(callee);
    a.ret();
    let image = a.finish(0x8000);

    common::interp_then_every_engine::<Petix>(&image, "call-push", |m| {
        assert_eq!(m.cpu.pc, leaf_at, "halted on the pushed byte");
        assert_eq!(
            m.cpu.regs[simbench_isa_petix::asm::reg(PReg::C) as usize],
            1
        );
    });
    // The lockstep above compares state; the invalidation itself shows
    // only in the counter of an engine that caches translations.
    assert_eq!(code_invalidations::<Petix>(&image), [1; 3]);
}

fn run_to_halt<I: Isa, E: Engine<I, Platform>>(mut e: E, image: &GuestImage) -> RunOutcome {
    let mut m = Machine::<I, _>::boot(image, Platform::new());
    let out = e.run(&mut m, &RunLimits::insns(10_000));
    assert_eq!(out.exit, ExitReason::Halted);
    out
}

/// What the three engines that cache code count on `image`: dbt,
/// native, virt.
fn code_invalidations<I: Isa>(image: &GuestImage) -> [u64; 3] {
    [
        run_to_halt(Dbt::<I>::new(), image),
        run_to_halt(Virt::<I>::native(), image),
        run_to_halt(Virt::<I>::kvm(), image),
    ]
    .map(|out| out.counters.code_invalidations)
}

/// A store that rewrites the instruction right after it: on the dbt
/// that is the next instruction of the block the store is running in,
/// which must end there and be translated again from the new bytes.
#[test]
fn a_store_that_patches_the_next_instruction_of_its_own_block() {
    // What `mov D, #2` assembles to.
    let patch = {
        let mut a = ArmletAsm::new();
        a.org(0);
        a.mov_imm(PReg::D, 2);
        let word = &a.finish(0).sections[0].bytes;
        u32::from_le_bytes(word[..].try_into().expect("one word"))
    };
    let mut a = ArmletAsm::new();
    a.org(0x8000);
    let slot = a.new_label();
    a.mov_label(PReg::A, slot);
    a.mov_imm(PReg::B, patch);
    a.store(PReg::B, PReg::A, 0);
    a.bind(slot);
    a.mov_imm(PReg::D, 1);
    a.halt();
    let image = a.finish(0x8000);

    common::interp_then_every_engine::<Armlet>(&image, "patch-next", |m| {
        assert_eq!(
            m.cpu.regs[simbench_isa_armlet::asm::reg(PReg::D) as usize],
            2,
            "the new instruction executes"
        );
    });
    // Live code only on the dbt, whose block reached past the store;
    // the others had not decoded the slot yet.
    assert_eq!(code_invalidations::<Armlet>(&image), [1, 0, 0]);
}

/// A data word between two functions shares their page but none of
/// their bytes: storing to it is not a code modification, on any engine,
/// and costs the dbt no translation.
#[test]
fn a_store_to_data_between_two_functions_invalidates_nothing() {
    let build = |stores: bool| {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let (top, first, data, second) =
            (a.new_label(), a.new_label(), a.new_label(), a.new_label());
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, 3);
        a.mov_label(PReg::C, data);
        a.bind(top);
        a.call(first);
        if stores {
            a.store(PReg::A, PReg::C, 0);
        } else {
            a.nop();
        }
        a.call(second);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        a.bind(first);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 1);
        a.ret();
        a.bind(data);
        a.word(0);
        a.bind(second);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 2);
        a.ret();
        (a.label_addr(data).expect("bound"), a.finish(0x8000))
    };
    let (data_at, image) = build(true);

    common::interp_then_every_engine::<Armlet>(&image, "data-between", |m| {
        assert_eq!(
            m.cpu.regs[simbench_isa_armlet::asm::reg(PReg::A) as usize],
            9
        );
        assert_eq!(m.bus.ram()[data_at as usize], 7, "the third trip's store");
    });
    assert_eq!(code_invalidations::<Armlet>(&image), [0; 3]);
    let translated = |image| {
        run_to_halt(Dbt::<Armlet>::new(), image)
            .counters
            .blocks_translated
    };
    assert_eq!(translated(&image), translated(&build(false).1));
}

/// Invalidation is exact to the byte on a variable-length ISA: a byte
/// store to the last byte of a six-byte petix `mov imm32`, and one to a
/// byte in its middle, kill it; one to the byte after the function it
/// is in kills nothing.
#[test]
fn byte_stores_into_and_after_a_variable_length_instruction() {
    let mut a = PetixAsm::new();
    a.org(0x8000);
    let f = a.new_label();
    a.mov_imm(PReg::Sp, 0xA000);
    a.mov_imm(PReg::B, 0);
    a.mov_label(PReg::C, f);
    // (offset from `f`, byte stored there): the mov's imm32 is bytes
    // 2..6, `ret` is byte 6, byte 7 is padding.
    for (off, byte) in [(None, 0), (Some(5), 5), (Some(3), 6), (Some(7), 7)] {
        if let Some(off) = off {
            a.mov_imm(PReg::D, byte);
            a.store8(PReg::D, PReg::C, off);
        }
        a.call(f);
        a.alu_rr(AluOp::Add, PReg::B, PReg::B, PReg::A);
    }
    a.halt();
    a.bind(f);
    a.mov_imm(PReg::A, 0x0102_0304);
    a.ret();
    a.bytes(&[0]);
    let image = a.finish(0x8000);

    common::interp_then_every_engine::<Petix>(&image, "byte-stores", |m| {
        assert_eq!(
            m.cpu.regs[simbench_isa_petix::asm::reg(PReg::B) as usize],
            0x0102_0304 + 0x0502_0304 + 2 * 0x0502_0604
        );
    });
    assert_eq!(code_invalidations::<Petix>(&image), [2; 3]);
}
