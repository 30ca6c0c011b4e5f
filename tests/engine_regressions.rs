//! Regressions every engine's run loop must pass, written once and
//! instantiated per engine. The first two were found by the differ in
//! several hand-written loops at the same time (PR 7); the
//! per-instruction engines now share one loop, and this keeps the dbt's
//! block loop and every policy honest against the same bodies.

// The lockstep sweep and the armlet half of the paging scaffolding.
#[allow(dead_code)]
mod common;

use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use common::PagedGuest;
use simbench::prelude::*;
use simbench_core::bus::Bus;
use simbench_core::bus::FlatRam;
use simbench_core::image::GuestImage;
use simbench_core::ir::AluOp;
use simbench_core::isa::Isa;
use simbench_isa_armlet::sys::{cp14, cp15, CP_BANK, CP_SYS};
use simbench_platform::devices::{INTC_ENABLE, INTC_TRIGGER};
use simbench_platform::INTC_BASE;

/// An IRQ whose handler can never be fetched: delivery degenerates into
/// a prefetch-abort storm in which no iteration retires an instruction,
/// and the wall-clock limit must still end the run. A loop that looks
/// at the clock only as work retires spins forever, so the run has a
/// thread of its own and a watchdog fails the test instead of hanging it.
fn non_retiring_storm_honors_wall_limit<E>(name: &str, mut e: E)
where
    E: Engine<Armlet, Platform> + Send + 'static,
{
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
    let (done, finished) = std::sync::mpsc::channel();
    let run = std::thread::spawn(move || {
        let mut m = Machine::<Armlet, _>::boot(&img, Platform::with_ram(1 << 20));
        let limits = RunLimits {
            max_insns: u64::MAX,
            wall_limit: Some(Duration::from_millis(30)),
        };
        let out = e.run(&mut m, &limits);
        let _ = done.send(());
        out
    });
    // A run that never ends cannot be joined: it is left spinning.
    if finished.recv_timeout(Duration::from_secs(20)) == Err(RecvTimeoutError::Timeout) {
        panic!("{name}: a 30 ms wall limit did not end the run in 20 s");
    }
    let out = run.join().expect("the engine panicked");
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
    let (root, tables) = Armlet::tables(&[]); // identity-maps the code
    let mut a = ArmletAsm::new();
    a.org(0x8000);
    Armlet::paging_on(&mut a, root);
    a.nop();
    a.nop();
    a.nop();
    a.halt();
    let mut img = a.finish(0x8000);
    img.push_section(root, tables);
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

/// Small enough that digesting it five times per test costs nothing.
const BARE_RAM: usize = 1 << 20;

/// Boot a fresh machine per engine and hold each to the interpreter:
/// retired instructions and undefined-instruction traps of the whole run
/// and of the kernel window, and the state digest. Returns what the
/// interpreter left.
fn every_engine_equals_interp<I: Isa>(
    what: &str,
    boot: impl Fn() -> Machine<I, Platform>,
) -> (Machine<I, Platform>, RunOutcome) {
    type Run<'a, I> = &'a dyn Fn(&mut Machine<I, Platform>) -> RunOutcome;
    let limits = RunLimits::insns(10_000);
    let observe = |run: Run<I>| {
        let mut m = boot();
        let out = run(&mut m);
        assert_eq!(out.exit, ExitReason::Halted, "{what}");
        let kernel = out.kernel.as_ref().map(|k| k.counters).unwrap_or_default();
        let counts = [out.counters, kernel].map(|c| (c.instructions, c.undef_insns));
        (counts, m.state_digest(), m, out)
    };
    let (counts, digest, m, out) = observe(&|m| Interp::<I>::new().run(m, &limits));
    let others: [(&str, Run<I>); 4] = [
        ("detailed", &|m| Detailed::<I>::new().run(m, &limits)),
        ("virt", &|m| Virt::<I>::kvm().run(m, &limits)),
        ("native", &|m| Virt::<I>::native().run(m, &limits)),
        ("dbt", &|m| Dbt::<I>::new().run(m, &limits)),
    ];
    for (name, run) in others {
        let (theirs, their_digest, ..) = observe(run);
        assert_eq!(theirs, counts, "{what}: {name} counts");
        assert_eq!(their_digest, digest, "{what}: {name} state");
    }
    (m, out)
}

fn sys_reg<I: Isa>(m: &Machine<I, Platform>, name: &str) -> u32 {
    let mut found = None;
    I::sys_regs(&m.sys, &mut |n, v| {
        if n == name {
            found = Some(v);
        }
    });
    found.expect("a system register of that name")
}

/// Bytes no decoder accepts execute as an undefined instruction of
/// nominal length `MAX_INSN_BYTES` — the `DecodeError` arm of every
/// engine's fetch, which the suite's Undefined Instruction benchmark
/// (an encoding that *decodes*, to `Op::Udf`) never takes. `insn` is
/// `MAX_INSN_BYTES` long; whatever follows its undecodable head halts,
/// so a handler sent back short of `pc + MAX_INSN_BYTES` never reaches
/// the closing phase mark.
fn undecodable_bytes_trap_past_their_nominal_length<I: Isa, A: PortableAsm>(mut a: A, insn: &[u8]) {
    use simbench_core::fault::ExceptionKind;
    use simbench_suite::support::{emit_phase_mark, Layout};

    assert_eq!(insn.len(), I::MAX_INSN_BYTES);
    assert!(I::decode(insn, 0x8000).is_err(), "{}: decodes", I::NAME);
    let layout = Layout::default();
    // Paging off, vector base at its reset value of 0.
    a.org(ExceptionKind::Undef.vector(0));
    a.eret();
    a.org(0x8000);
    emit_phase_mark(&mut a, &layout, 1);
    let at = a.here();
    a.bytes(insn);
    emit_phase_mark(&mut a, &layout, 2);
    a.halt();
    let image = a.finish(0x8000);

    let (m, out) = every_engine_equals_interp::<I>(I::NAME, || {
        Machine::boot(&image, Platform::with_ram(BARE_RAM))
    });
    assert_eq!(out.counters.undef_insns, 1, "{}", I::NAME);
    let kernel = out.kernel.expect("both phase marks").counters;
    assert_eq!(kernel.undef_insns, 1, "{}", I::NAME);
    assert_eq!(
        sys_reg(&m, "saved_pc"),
        at + I::MAX_INSN_BYTES as u32,
        "{}: the handler's return address",
        I::NAME
    );
}

#[test]
fn armlet_reserved_class_is_undefined_on_every_engine() {
    undecodable_bytes_trap_past_their_nominal_length::<Armlet, _>(
        ArmletAsm::new(),
        &0xF000_0000u32.to_le_bytes(),
    );
}

#[test]
fn petix_unassigned_opcode_is_undefined_on_every_engine() {
    // One byte decides; the five after it are `halt`s.
    undecodable_bytes_trap_past_their_nominal_length::<Petix, _>(
        PetixAsm::new(),
        &[0xFF, 1, 1, 1, 1, 1],
    );
}

#[test]
fn riscle_unassigned_wide_opcode_is_undefined_on_every_engine() {
    use simbench_isa_riscle::{Riscle, RiscleAsm};
    // Quadrant 3 (a 32-bit form) with op5 = 0x1F.
    undecodable_bytes_trap_past_their_nominal_length::<Riscle, _>(
        RiscleAsm::new(),
        &0x0000_007Fu32.to_le_bytes(),
    );
}

/// A petix fetch cut short by the end of RAM: the three bytes that are
/// there start a six-byte `mov imm32`, the decoder fails for want of
/// the rest, and the instruction is undefined with the same nominal
/// length — so its handler returns beyond RAM, and the prefetch abort
/// that follows unwinds the call that got there.
#[test]
fn a_fetch_truncated_by_the_end_of_ram_is_undefined_on_every_engine() {
    use simbench_core::fault::ExceptionKind;
    use simbench_isa_petix::encoding::mov_imm32;
    use simbench_isa_petix::sys::cr;

    let tail_at = BARE_RAM as u32 - 3;
    let mut a = PetixAsm::new();
    a.org(ExceptionKind::Undef.vector(0));
    a.eret();
    a.org(ExceptionKind::PrefetchAbort.vector(0));
    a.pop(PReg::D);
    a.mov_to_cr(cr::SAVED_PC, PReg::D);
    a.eret();
    a.org(0x8000);
    a.mov_imm(PReg::Sp, 0xA000);
    a.mov_imm(PReg::A, tail_at);
    a.call_reg(PReg::A);
    a.halt();
    a.org(tail_at);
    a.bytes(&mov_imm32(0, 0x1234_5678)[..3]);
    let image = a.finish(0x8000);

    let (m, out) = every_engine_equals_interp::<Petix>("truncated", || {
        Machine::boot(&image, Platform::with_ram(BARE_RAM))
    });
    assert_eq!((out.counters.undef_insns, out.counters.insn_faults), (1, 1));
    assert_eq!(
        sys_reg(&m, "cr2"),
        tail_at + Petix::MAX_INSN_BYTES as u32,
        "the abort is the handler's return past the nominal length"
    );
}

/// The last instruction in `ram_len` bytes of RAM, a `nop` of `nop_len`
/// bytes, runs even where the decoder's `MAX_INSN_BYTES` window would
/// run past the end (on armlet the window ends exactly there), and the
/// fetch after it, at the first address beyond RAM, is a prefetch abort.
fn fetches_at_the_end_of_ram<I: Isa, A: PortableAsm>(mut a: A, nop_len: usize, ram_len: usize) {
    use simbench_core::fault::ExceptionKind;

    let last = (ram_len - nop_len) as u32;
    a.org(ExceptionKind::PrefetchAbort.vector(0));
    a.halt();
    a.org(0x8000);
    a.mov_imm(PReg::A, last);
    a.br_reg(PReg::A);
    a.org(last);
    a.nop();
    let image = a.finish(0x8000);

    let (m, out) = every_engine_equals_interp::<I>(I::NAME, || {
        Machine::boot(&image, Platform::with_ram(ram_len))
    });
    let c = out.counters;
    assert_eq!((c.undef_insns, c.insn_faults), (0, 1), "{}", I::NAME);
    assert_eq!(sys_reg(&m, "saved_pc"), ram_len as u32, "{}", I::NAME);
}

#[test]
fn the_last_instruction_in_ram_runs_and_the_next_fetch_aborts_on_every_engine() {
    use simbench_isa_riscle::{Riscle, RiscleAsm};
    fetches_at_the_end_of_ram::<Armlet, _>(ArmletAsm::new(), 4, BARE_RAM);
    fetches_at_the_end_of_ram::<Petix, _>(PetixAsm::new(), 1, BARE_RAM);
    fetches_at_the_end_of_ram::<Riscle, _>(RiscleAsm::new(), 2, BARE_RAM);
}

/// RAM that ends inside a page: a window that crosses its end holds the
/// bytes before it, so petix's one-byte `nop` and riscle's two-byte one
/// at the end still run.
#[test]
fn the_last_instruction_in_ram_that_ends_mid_page_runs_on_every_engine() {
    use simbench_isa_riscle::{Riscle, RiscleAsm};
    const MID_PAGE: usize = BARE_RAM - 0x800;
    fetches_at_the_end_of_ram::<Armlet, _>(ArmletAsm::new(), 4, MID_PAGE);
    fetches_at_the_end_of_ram::<Petix, _>(PetixAsm::new(), 1, MID_PAGE);
    fetches_at_the_end_of_ram::<Riscle, _>(RiscleAsm::new(), 2, MID_PAGE);
}

/// A petix `push` with the stack pointer inside the push itself: its
/// second op stores over the instruction it belongs to (and the two
/// bytes after it). It retires from the decode it started with —
/// execution goes on at the length that decode gave, into the bytes
/// just stored — and when control comes back to its address, what is
/// there is what was pushed.
#[test]
fn an_instruction_that_overwrites_itself_finishes_from_the_decode_it_started_with() {
    // `halt; halt` where the push was, `nop; nop` after it.
    const PUSHED: u32 = 0x0000_0101;
    let mut a = PetixAsm::new();
    a.org(0x8000);
    let push = a.new_label();
    a.mov_imm(PReg::A, PUSHED);
    a.mov_imm(PReg::B, 0);
    a.mov_label(PReg::Sp, push);
    a.alu_ri(AluOp::Add, PReg::Sp, PReg::Sp, 4);
    a.align(4); // the push is a word store
    a.bind(push);
    let push_at = a.here();
    a.push(PReg::A);
    a.bytes(&[1, 1]); // halts, until the push turns them into nops
    a.alu_ri(AluOp::Add, PReg::B, PReg::B, 1);
    a.b(push);
    let image = a.finish(0x8000);

    let (m, _) = every_engine_equals_interp::<Petix>("self-push", || {
        Machine::boot(&image, Platform::with_ram(BARE_RAM))
    });
    let reg = |r| m.cpu.regs[simbench_isa_petix::asm::reg(r) as usize];
    assert_eq!(m.cpu.pc, push_at, "halted on the pushed bytes");
    assert_eq!((reg(PReg::B), reg(PReg::Sp)), (1, push_at));
    assert_eq!(code_invalidations::<Petix>(&image), [1; 3]);
}
