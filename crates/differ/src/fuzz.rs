//! Seeded random guest programs for differential fuzzing.
//!
//! Programs are generated once against the portable assembler +
//! support-package interface (the same boundary the benchmark suite
//! uses), so one generator covers both guest architectures. The
//! instruction mix is weighted toward the operations the paper shows
//! simulators disagree on: control flow, self-modifying code stores,
//! coprocessor accesses, MMIO traffic and external interrupts — with
//! ALU/memory filler between them.
//!
//! Every program is deterministic and terminating by construction:
//!
//! * the body is a bounded counted loop of forward-only control flow,
//! * loads and stores stay inside the mapped scratch window (plus the
//!   deliberately unmapped fault address, whose handler returns),
//! * every device it reads (INTC, UART, safe device) returns a constant
//!   or what guest stores put there — the platform has no clock,
//! * a drain epilogue gives block-granular engines interrupt-delivery
//!   boundaries and then scrubs the handler-clobbered registers, so a
//!   quiesced final state is comparable across delivery granularities
//!   (modulo the banked `saved_pc`/`saved_status`, which the lockstep
//!   checker waives for mixed pairs).

use simbench_campaign::registry::{dispatch_guest, GuestSpec, GuestVisitor};
use simbench_campaign::Guest;
use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};
use simbench_obs::Counter;
use simbench_platform::devices::INTC_TRIGGER;
use simbench_suite::support::{emit_counted_loop, emit_phase_mark};
use simbench_suite::{BootSpec, HandlerKind, Handlers, Support};

static OBS_FUZZ_PROGRAMS: Counter = Counter::new("differ.fuzz_programs");

/// Deterministic xorshift64* generator — no external crates, identical
/// streams on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator (a zero seed is remapped; xorshift has a zero
    /// fixed point).
    pub fn new(seed: u64) -> Self {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derive the per-program seed `index` from a campaign seed, so program
/// k is reproducible in isolation (`--fuzz SEED` + the program index in
/// the report names the exact binary).
pub fn program_seed(seed: u64, index: u32) -> u64 {
    // splitmix64 finalizer over seed+index: decorrelates consecutive
    // indices far better than seed^index would.
    let mut z = seed.wrapping_add(u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// ALU operations safe at any operand values.
const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Orr,
    AluOp::Eor,
    AluOp::Lsl,
    AluOp::Lsr,
    AluOp::Ror,
];

/// Conditions drawn for generated branches.
const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Gt, Cond::Le];

/// Data registers the generator mutates freely. The IRQ handler
/// clobbers `D` and `E` (the suite-wide contract: IRQ-driven kernels
/// keep them dead), so with interrupts enabled the mainline may not
/// carry values in them — engines delivering at different granularities
/// would clobber at different points. `C` is the loop counter, `F` is
/// address scratch and the SMC landing register (clobbered only
/// deterministically, by generated code), `Sp`/`Lr` serve calls and
/// exception frames.
const DATA_REGS: [PReg; 2] = [PReg::A, PReg::B];

/// Handler-preserved address scratch for loads, stores, MMIO and TLB
/// maintenance.
const ADDR: PReg = PReg::F;

/// Bytes of the mapped scratch window at `layout.data` the generator
/// loads and stores within (spans multiple pages on purpose). The page
/// is selected into the base register; the instruction displacement
/// stays inside one page, within armlet's signed-12-bit encoding.
const DATA_WINDOW: u32 = 8 << 10;

/// Guest page size (both architectures use 4 KiB pages).
const PAGE: u32 = 4 << 10;

/// Build the seeded random program for a guest architecture.
///
/// This is the one public entry point shared by the differ and the
/// static analyzer: both tools dispatch through it, so the same
/// `(guest, seed)` pair names the same binary everywhere — a fuzz
/// divergence report and a static-analysis artifact about program `k`
/// of campaign seed `S` are talking about identical bytes.
pub fn generate(guest: Guest, seed: u64) -> GuestImage {
    struct Gen(u64);
    impl GuestVisitor for Gen {
        type Out = GuestImage;
        fn visit<G: GuestSpec>(self) -> GuestImage {
            fuzz_program(&G::Support::default(), self.0)
        }
    }
    dispatch_guest(guest, Gen(seed))
}

/// Straight-line variant of [`generate`]: the same weighted step menu,
/// but with no counted loop and no interrupt delivery, so control flow
/// is acyclic (forward branches and calls only) and every execution
/// retires a statically determined event profile. This is the input
/// class on which the analyzer's static counter prediction is provably
/// exact, and the generator the exactness proptest draws from.
pub fn generate_straight_line(guest: Guest, seed: u64) -> GuestImage {
    struct Gen(u64);
    impl GuestVisitor for Gen {
        type Out = GuestImage;
        fn visit<G: GuestSpec>(self) -> GuestImage {
            straight_line_program(&G::Support::default(), self.0)
        }
    }
    dispatch_guest(guest, Gen(seed))
}

/// Generate one random bootable program for a support package.
///
/// The image boots like a benchmark (vectors, page tables, MMU on,
/// IRQ line 0 unmasked with an acknowledge-and-return handler), runs a
/// random kernel inside a counted loop, drains pending interrupts,
/// scrubs handler-clobbered registers and halts.
pub fn fuzz_program<S: Support>(s: &S, seed: u64) -> GuestImage {
    OBS_FUZZ_PROGRAMS.add(1);
    let mut rng = Rng::new(seed);
    let spec = BootSpec {
        handlers: Handlers {
            irq: HandlerKind::AckIrqEret,
            ..Handlers::default()
        },
        enable_irqs: true,
    };
    s.build(spec, |a, s, layout| {
        // A callable one-word function whose first word is rewritten by
        // SMC stores in the body (the Small/Large Blocks idiom).
        let smc_func = a.new_label();
        let body_start = a.new_label();
        a.b(body_start);
        a.align(16);
        a.bind(smc_func);
        a.word(a.smc_nop_word());
        a.ret();

        a.align(16);
        a.bind(body_start);
        for r in DATA_REGS {
            a.mov_imm(r, rng.next_u64() as u32);
        }
        emit_phase_mark(a, layout, 1);
        let iterations = 2 + rng.below(4) as u32;
        let steps = 24 + rng.below(40) as u32;
        // The step menu is drawn once per program (not per loop pass):
        // the loop re-executes one random kernel, which is what gives
        // SMC rewrites and TLB maintenance something cached to kill.
        let mut menu = Vec::new();
        for _ in 0..steps {
            menu.push(rng.next_u64());
        }
        emit_counted_loop(a, iterations, |a| {
            for &draw in &menu {
                let mut r = Rng::new(draw);
                emit_step(a, s, layout, &mut r, smc_func);
            }
        });
        emit_phase_mark(a, layout, 2);
        // Drain: give block-granular engines interrupt boundaries to
        // deliver any still-pending IRQ at (branches end translation
        // blocks), then scrub every register a handler may clobber so
        // delivery timing cannot leak into the final register file.
        for _ in 0..4 {
            let next = a.new_label();
            a.b(next);
            a.bind(next);
        }
        a.mov_imm(PReg::D, 0);
        a.mov_imm(PReg::E, 0);
        a.mov_imm(PReg::F, 0);
        a.mov_imm(PReg::Lr, 0);
        a.halt();
    })
}

/// Generate one straight-line program for a support package: the same
/// step menu as [`fuzz_program`], emitted once in sequence with no
/// enclosing loop, interrupts left masked (the INTC step may pend a
/// line nothing delivers), and default resume-at-next-instruction
/// handlers for the synchronous-exception steps.
pub fn straight_line_program<S: Support>(s: &S, seed: u64) -> GuestImage {
    let mut rng = Rng::new(seed);
    s.build(BootSpec::default(), |a, s, layout| {
        let smc_func = a.new_label();
        let body_start = a.new_label();
        a.b(body_start);
        a.align(16);
        a.bind(smc_func);
        a.word(a.smc_nop_word());
        a.ret();

        a.align(16);
        a.bind(body_start);
        for r in DATA_REGS {
            a.mov_imm(r, rng.next_u64() as u32);
        }
        let steps = 24 + rng.below(40) as u32;
        for _ in 0..steps {
            let mut r = Rng::new(rng.next_u64());
            emit_step(a, s, layout, &mut r, smc_func);
        }
        a.halt();
    })
}

/// Emit one random step of the program body.
fn emit_step<S: Support>(
    a: &mut S::Asm,
    s: &S,
    layout: &simbench_suite::Layout,
    rng: &mut Rng,
    smc_func: simbench_core::asm::Label,
) {
    let reg = |rng: &mut Rng| DATA_REGS[rng.below(DATA_REGS.len() as u64) as usize];
    // Armlet displacements are simm12 (±2047): pick a 2 KiB-aligned
    // base across the window and a word offset within those 2 KiB, so
    // accesses still land on every page of the window.
    let data_page = |rng: &mut Rng| {
        layout.data + rng.below(u64::from(DATA_WINDOW / (PAGE / 2))) as u32 * (PAGE / 2)
    };
    let data_off = |rng: &mut Rng| (rng.below(u64::from(PAGE / 2) / 4) * 4) as i32;
    match rng.below(100) {
        // ALU filler.
        0..=29 => {
            let op = ALU_OPS[rng.below(ALU_OPS.len() as u64) as usize];
            let (rd, rn) = (reg(rng), reg(rng));
            if rng.below(2) == 0 {
                a.alu_ri(op, rd, rn, rng.below(4096) as u32);
            } else {
                let mut rm = reg(rng);
                // Petix two-address lowering cannot express rd == rm
                // for non-commutative ops; redraw rm portably.
                let commutative = matches!(op, AluOp::Add | AluOp::And | AluOp::Orr | AluOp::Eor);
                if rm == rd && !commutative {
                    rm = *DATA_REGS.iter().find(|&&r| r != rd).unwrap();
                }
                a.alu_rr(op, rd, rn, rm);
            }
        }
        // Flag-setting compare + forward conditional branch over a
        // short random filler (taken and untaken paths both exercised).
        30..=44 => {
            if rng.below(2) == 0 {
                a.cmp_ri(reg(rng), rng.below(4096) as u32);
            } else {
                let (rn, rm) = (reg(rng), reg(rng));
                a.cmp_rr(rn, rm);
            }
            let skip = a.new_label();
            a.b_cond(CONDS[rng.below(CONDS.len() as u64) as usize], skip);
            for _ in 0..=rng.below(3) {
                a.alu_ri(AluOp::Eor, reg(rng), reg(rng), rng.below(4096) as u32);
            }
            a.bind(skip);
        }
        // Loads and stores in the mapped scratch window.
        45..=59 => {
            a.mov_imm(ADDR, data_page(rng));
            let off = data_off(rng);
            match rng.below(3) {
                0 => a.store(reg(rng), ADDR, off),
                1 => a.load(reg(rng), ADDR, off),
                _ => a.store8(reg(rng), ADDR, off),
            }
        }
        // Self-modifying code: rewrite the callable's first word with
        // an iteration-dependent valid encoding, then execute it. `B`
        // carries the encoding (handler-preserved; the sequence spans
        // several interruptible instruction boundaries).
        60..=69 => {
            a.emit_smc_word(PReg::B, PReg::C);
            a.mov_label(ADDR, smc_func);
            a.store(PReg::B, ADDR, 0);
            a.call(smc_func);
        }
        // MMIO: read the safe device's ID register or write the UART.
        70..=77 => {
            if rng.below(2) == 0 {
                a.mov_imm(ADDR, layout.safedev);
                a.load(reg(rng), ADDR, 0);
            } else {
                a.mov_imm(ADDR, layout.uart);
                a.store8(reg(rng), ADDR, 0);
            }
        }
        // External interrupt: pend line 0 (unmasked at boot); the
        // handler acknowledges.
        78..=83 => {
            a.mov_imm(ADDR, layout.intc);
            a.mov_imm(PReg::A, 1);
            a.store(PReg::A, ADDR, INTC_TRIGGER as i32);
        }
        // Coprocessor access.
        84..=89 => s.emit_safe_coproc_read(a, reg(rng)),
        // Synchronous exceptions: syscall, undefined instruction, and
        // a data-access fault whose handler resumes at the next insn.
        90..=92 => a.svc(rng.below(64) as u16),
        93..=94 => a.udf(),
        95 => {
            a.mov_imm(ADDR, layout.unmapped);
            a.load(reg(rng), ADDR, 0);
        }
        // Non-privileged access where the architecture has one (emits
        // nothing on petix, exactly like the suite benchmark).
        96 => {
            a.mov_imm(ADDR, data_page(rng));
            s.emit_nonpriv_load(a, reg(rng), ADDR, data_off(rng));
        }
        // TLB maintenance.
        97..=98 => {
            a.mov_imm(ADDR, layout.data + rng.below(u64::from(DATA_WINDOW)) as u32);
            s.emit_tlb_inv_page(a, ADDR);
        }
        _ => s.emit_tlb_flush(a, ADDR),
    }
}
