//! The eighteen benchmark kernels, written once against the portable
//! assembler + support-package interface (the analogue of the paper's
//! portable C benchmark bodies).
//!
//! Register conventions inside kernels: `C` is the iteration counter
//! (counts down), `A`/`B`/`E` are benchmark state, `D`/`E` may be
//! clobbered by exception handlers, and `F` is reserved as the landing
//! register for self-modifying-code rewrites.

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::ir::{AluOp, Cond};
use simbench_core::PAGE_SIZE;

use crate::support::{emit_counted_loop, emit_phase_mark, Layout, Support};

/// Number of small functions in the code-generation and control-flow
/// chain benchmarks.
const CHAIN_FUNCS: usize = 8;

/// Arithmetic instructions in the Large Blocks benchmark's single block.
const LARGE_BLOCK_INSNS: usize = 256;

/// Unroll factor of the Hot Memory Access benchmark.
const HOT_UNROLL: usize = 8;

fn wrap_kernel<S: Support>(
    a: &mut S::Asm,
    layout: &Layout,
    setup: impl FnOnce(&mut S::Asm),
    iterations: u32,
    kernel: impl FnOnce(&mut S::Asm),
    cleanup: impl FnOnce(&mut S::Asm),
) {
    // Phase 1: benchmark-specific setup (untimed).
    setup(a);
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, kernel);
    emit_phase_mark(a, layout, 2);
    // Phase 3: cleanup (untimed).
    cleanup(a);
    a.halt();
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

/// Small Blocks: several short functions that tail-call each other
/// through function pointers; the first word of every function is
/// rewritten at the start of each iteration, forcing any DBT to
/// retranslate (and exercising indirect control flow).
pub fn small_blocks<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let funcs: Vec<_> = (0..CHAIN_FUNCS).map(|_| a.new_label()).collect();
    let table = a.new_label();
    let body_start = a.new_label();
    a.b(body_start);

    // The rewritable functions, each beginning with the SMC filler word.
    // Each loads the next function pointer from the table and jumps;
    // the last returns to the caller.
    for (k, f) in funcs.iter().enumerate() {
        a.align(16);
        a.bind(*f);
        a.word(a.smc_nop_word());
        if k + 1 < CHAIN_FUNCS {
            a.load(PReg::D, PReg::B, 4 * (k as i32 + 1));
            a.br_reg(PReg::D);
        } else {
            a.ret();
        }
    }

    // Function-pointer table (filled during setup).
    a.align(16);
    a.bind(table);
    a.skip(4 * CHAIN_FUNCS as u32);

    a.align(16);
    a.bind(body_start);
    let funcs2 = funcs.clone();
    wrap_kernel::<S>(
        a,
        layout,
        |a| {
            // Fill the pointer table.
            a.mov_label(PReg::B, table);
            for (k, f) in funcs2.iter().enumerate() {
                a.mov_label(PReg::D, *f);
                a.store(PReg::D, PReg::B, 4 * k as i32);
            }
        },
        iterations,
        |a| {
            // Rewrite the first word of every function with a fresh
            // (iteration-dependent) valid encoding...
            for f in &funcs {
                a.emit_smc_word(PReg::E, PReg::C);
                a.mov_label(PReg::D, *f);
                a.store(PReg::E, PReg::D, 0);
            }
            // ...then run the chain.
            a.load(PReg::D, PReg::B, 0);
            a.call_reg(PReg::D);
        },
        |_| {},
    );
}

/// Large Blocks: one very large straight-line block whose first word is
/// rewritten before every execution; inputs come from memory and the
/// result is stored back (the "volatile variables" of the paper).
pub fn large_blocks<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let block = a.new_label();
    let body_start = a.new_label();
    a.b(body_start);

    a.align(16);
    a.bind(block);
    a.word(a.smc_nop_word());
    // A long dependency chain over A and B.
    for i in 0..LARGE_BLOCK_INSNS {
        match i % 4 {
            0 => a.alu_ri(AluOp::Add, PReg::A, PReg::A, 7),
            1 => a.alu_ri(AluOp::Eor, PReg::A, PReg::A, 0x35),
            2 => a.alu_rr(AluOp::Add, PReg::B, PReg::B, PReg::A),
            _ => a.alu_ri(AluOp::Ror, PReg::A, PReg::A, 3),
        }
    }
    a.ret();

    a.align(16);
    a.bind(body_start);
    wrap_kernel::<S>(
        a,
        layout,
        |a| {
            a.mov_imm(PReg::A, 0x1234_5678);
            a.mov_imm(PReg::B, 0);
        },
        iterations,
        |a| {
            a.emit_smc_word(PReg::E, PReg::C);
            a.mov_label(PReg::D, block);
            a.store(PReg::E, PReg::D, 0);
            // Volatile input/output: exchange state through memory.
            a.mov_imm(PReg::D, layout.data);
            a.load(PReg::A, PReg::D, 0);
            a.mov_label(PReg::D, block);
            a.call_reg(PReg::D);
            a.mov_imm(PReg::D, layout.data);
            a.store(PReg::B, PReg::D, 0);
        },
        |_| {},
    );
}

// ---------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------

fn control_flow_chain<S: Support>(
    a: &mut S::Asm,
    layout: &Layout,
    iterations: u32,
    inter_page: bool,
    indirect: bool,
) {
    let funcs: Vec<_> = (0..CHAIN_FUNCS).map(|_| a.new_label()).collect();
    let table = a.new_label();
    let body_start = a.new_label();
    a.b(body_start);

    for (k, f) in funcs.iter().enumerate() {
        if inter_page {
            a.align(PAGE_SIZE);
        } else {
            a.align(16);
        }
        a.bind(*f);
        if k + 1 < CHAIN_FUNCS {
            if indirect {
                a.load(PReg::D, PReg::B, 4 * (k as i32 + 1));
                a.br_reg(PReg::D);
            } else {
                a.b(funcs[k + 1]);
            }
        } else {
            a.ret();
        }
    }

    // For the intra-page variants the whole chain must share a page:
    // eight two-instruction functions at 16-byte alignment fit easily.
    a.align(16);
    a.bind(table);
    a.skip(4 * CHAIN_FUNCS as u32);

    if inter_page {
        a.align(PAGE_SIZE);
    } else {
        a.align(16);
    }
    a.bind(body_start);
    let funcs2 = funcs.clone();
    wrap_kernel::<S>(
        a,
        layout,
        |a| {
            a.mov_label(PReg::B, table);
            for (k, f) in funcs2.iter().enumerate() {
                a.mov_label(PReg::D, *f);
                a.store(PReg::D, PReg::B, 4 * k as i32);
            }
            a.mov_label(PReg::E, funcs2[0]);
        },
        iterations,
        |a| {
            if indirect {
                a.call_reg(PReg::E);
            } else {
                a.call(funcs[0]);
            }
        },
        |_| {},
    );
}

/// Inter-Page Direct: tail-calling functions on separate pages, direct
/// branches.
pub fn inter_page_direct<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    control_flow_chain::<S>(a, layout, iterations, true, false);
}

/// Inter-Page Indirect: separate pages, function-pointer jumps.
pub fn inter_page_indirect<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    control_flow_chain::<S>(a, layout, iterations, true, true);
}

/// Intra-Page Direct: the whole chain within one page, direct branches.
pub fn intra_page_direct<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    control_flow_chain::<S>(a, layout, iterations, false, false);
}

/// Intra-Page Indirect: one page, function-pointer jumps.
pub fn intra_page_indirect<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    control_flow_chain::<S>(a, layout, iterations, false, true);
}

// ---------------------------------------------------------------------
// Exception handling
// ---------------------------------------------------------------------

/// Data Access Fault: repeatedly load from an unmapped address; the
/// handler returns to the next instruction.
pub fn data_fault<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let unmapped = layout.unmapped;
    wrap_kernel::<S>(
        a,
        layout,
        |a| a.mov_imm(PReg::A, unmapped),
        iterations,
        |a| a.load(PReg::B, PReg::A, 0),
        |_| {},
    );
}

/// Instruction Access Fault: repeatedly call into unmapped memory; the
/// handler resumes at the call's return address (LR on armlet, stack
/// unwinding on petix).
pub fn insn_fault<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let unmapped = layout.unmapped;
    wrap_kernel::<S>(
        a,
        layout,
        |a| a.mov_imm(PReg::A, unmapped),
        iterations,
        |a| a.call_reg(PReg::A),
        |_| {},
    );
}

/// Undefined Instruction: execute the architecturally undefined
/// instruction; the handler returns past it.
pub fn undef_insn<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    wrap_kernel::<S>(a, layout, |_| {}, iterations, |a| a.udf(), |_| {});
}

/// System Call: execute the syscall instruction; the handler returns.
pub fn syscall<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    wrap_kernel::<S>(a, layout, |_| {}, iterations, |a| a.svc(0), |_| {});
}

/// External Software Interrupt: trigger line 0 through the interrupt
/// controller; the IRQ handler acknowledges it.
pub fn ext_swi<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let intc = layout.intc;
    wrap_kernel::<S>(
        a,
        layout,
        |a| {
            a.mov_imm(PReg::A, intc);
            a.mov_imm(PReg::B, 1);
        },
        iterations,
        |a| {
            a.store(
                PReg::B,
                PReg::A,
                simbench_platform::devices::INTC_TRIGGER as i32,
            );
            // Give block-boundary engines a boundary to deliver at.
            a.nop();
            a.nop();
        },
        |_| {},
    );
}

// ---------------------------------------------------------------------
// I/O
// ---------------------------------------------------------------------

/// Memory Mapped Device: repeatedly read the safe device's ID register.
pub fn mmio_device<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let dev = layout.safedev;
    wrap_kernel::<S>(
        a,
        layout,
        |a| a.mov_imm(PReg::A, dev),
        iterations,
        |a| a.load(PReg::B, PReg::A, 0),
        |_| {},
    );
}

/// Coprocessor Access: repeatedly perform the architecture's designated
/// side-effect-free coprocessor read.
pub fn coproc_access<S: Support>(a: &mut S::Asm, s: &S, layout: &Layout, iterations: u32) {
    wrap_kernel::<S>(
        a,
        layout,
        |_| {},
        iterations,
        |a| s.emit_safe_coproc_read(a, PReg::B),
        |_| {},
    );
}

// ---------------------------------------------------------------------
// Memory system
// ---------------------------------------------------------------------

fn cold_walk_kernel<S: Support>(a: &mut S::Asm, layout: &Layout, extra: impl Fn(&mut S::Asm)) {
    // One read at the top of each page; wrap at the end of the region.
    a.load(PReg::B, PReg::A, 0);
    extra(a);
    // PAGE_SIZE exceeds the portable 12-bit ALU-immediate contract, so
    // advance in two halves.
    a.alu_ri(AluOp::Add, PReg::A, PReg::A, PAGE_SIZE / 2);
    a.alu_ri(AluOp::Add, PReg::A, PReg::A, PAGE_SIZE / 2);
    a.cmp_rr(PReg::A, PReg::E);
    let no_wrap = a.new_label();
    a.b_cond(Cond::Ne, no_wrap);
    a.mov_imm(PReg::A, layout.cold);
    a.bind(no_wrap);
}

/// Cold Memory Access: one read per page over a large region — every
/// access misses the translation cache.
pub fn mem_cold<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let (cold, cold_end) = (layout.cold, layout.cold + layout.cold_len);
    wrap_kernel::<S>(
        a,
        layout,
        |a| {
            a.mov_imm(PReg::A, cold);
            a.mov_imm(PReg::E, cold_end);
        },
        iterations,
        |a| cold_walk_kernel::<S>(a, layout, |_| {}),
        |_| {},
    );
}

/// Hot Memory Access: load + store on the same page, manually unrolled.
/// Each *iteration* of the counted loop performs [`HOT_UNROLL`]
/// load/store pairs, so callers divide the paper's count by the unroll.
pub fn mem_hot<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let data = layout.data;
    wrap_kernel::<S>(
        a,
        layout,
        |a| a.mov_imm(PReg::A, data),
        iterations,
        |a| {
            for k in 0..HOT_UNROLL {
                let off = (k as i32 % 4) * 8;
                a.load(PReg::B, PReg::A, off);
                a.store(PReg::B, PReg::A, off + 4);
            }
        },
        |_| {},
    );
}

/// Nonprivileged Access: the hot-memory kernel with non-privileged
/// loads/stores. Returns `false` (no kernel emitted beyond an immediate
/// halt) on architectures without the feature.
pub fn nonpriv_access<S: Support>(a: &mut S::Asm, s: &S, layout: &Layout, iterations: u32) -> bool {
    if !S::HAS_NONPRIV {
        a.halt();
        return false;
    }
    let data = layout.data;
    wrap_kernel::<S>(
        a,
        layout,
        |a| a.mov_imm(PReg::A, data),
        iterations,
        |a| {
            for k in 0..HOT_UNROLL {
                let off = (k as i32 % 4) * 8;
                s.emit_nonpriv_load(a, PReg::B, PReg::A, off);
                s.emit_nonpriv_store(a, PReg::B, PReg::A, off + 4);
            }
        },
        |_| {},
    );
    true
}

/// TLB Eviction: the cold walk, evicting each accessed page's entry
/// immediately after the access.
pub fn tlb_evict<S: Support>(a: &mut S::Asm, s: &S, layout: &Layout, iterations: u32) {
    let (cold, cold_end) = (layout.cold, layout.cold + layout.cold_len);
    wrap_kernel::<S>(
        a,
        layout,
        |a| {
            a.mov_imm(PReg::A, cold);
            a.mov_imm(PReg::E, cold_end);
        },
        iterations,
        |a| cold_walk_kernel::<S>(a, layout, |a| s.emit_tlb_inv_page(a, PReg::A)),
        |_| {},
    );
}

/// TLB Flush: the cold walk with a full TLB flush after each access.
pub fn tlb_flush<S: Support>(a: &mut S::Asm, s: &S, layout: &Layout, iterations: u32) {
    let (cold, cold_end) = (layout.cold, layout.cold + layout.cold_len);
    wrap_kernel::<S>(
        a,
        layout,
        |a| {
            a.mov_imm(PReg::A, cold);
            a.mov_imm(PReg::E, cold_end);
        },
        iterations,
        |a| cold_walk_kernel::<S>(a, layout, |a| s.emit_tlb_flush(a, PReg::B)),
        |_| {},
    );
}
