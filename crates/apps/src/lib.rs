//! # simbench-apps
//!
//! Synthetic SPEC-CPU2006-INT-like guest application workloads.
//!
//! SPEC itself is proprietary and targets real ISAs, so — per the
//! README's "Substitutions" notes — these nine programs reproduce the
//! *instruction-mix shapes* that drive the paper's aggregate-benchmark
//! argument (Figs 2, 3 and 8): each app weights the simulator mechanisms
//! differently, so engine-version changes move them in different
//! directions, and their operation densities for SimBench's tested
//! operations are orders of magnitude below the micro-benchmarks' (the
//! Fig 3 SPEC column).
//!
//! | App | Modelled after | Dominant behaviour |
//! |-----|----------------|--------------------|
//! | `SjengLike` | 458.sjeng | indirect dispatch through function tables, branchy search |
//! | `McfLike` | 429.mcf | pointer chasing across many pages (TLB pressure) |
//! | `GccLike` | 403.gcc | mixed hashing, calls, rare syscalls |
//! | `Bzip2Like` | 401.bzip2 | tight byte-granular loops |
//! | `GobmkLike` | 445.gobmk | deep compare/branch chains |
//! | `HmmerLike` | 456.hmmer | regular array arithmetic (hot loops) |
//! | `LibquantumLike` | 462.libquantum | streaming array updates |
//! | `H264Like` | 464.h264ref | nested loops over byte blocks |
//! | `XalancLike` | 483.xalancbmk | virtual-call-style indirect control flow |

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};
use simbench_core::PAGE_SIZE;
use simbench_suite::support::{emit_counted_loop, emit_phase_mark, Layout, Support};
use simbench_suite::BootSpec;

/// The synthetic application workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Game-tree search: indirect dispatch + branches.
    SjengLike,
    /// Pointer chasing over a page-spread cycle.
    McfLike,
    /// Mixed compiler-ish work with rare syscalls.
    GccLike,
    /// Byte-loop compression kernel.
    Bzip2Like,
    /// Pattern-matching branch chains.
    GobmkLike,
    /// Dense array arithmetic.
    HmmerLike,
    /// Streaming quantum-register updates.
    LibquantumLike,
    /// Nested block transforms.
    H264Like,
    /// Virtual-dispatch-heavy traversal.
    XalancLike,
}

impl App {
    /// All apps, Fig 2/8 aggregate order.
    pub const ALL: [App; 9] = [
        App::SjengLike,
        App::McfLike,
        App::GccLike,
        App::Bzip2Like,
        App::GobmkLike,
        App::HmmerLike,
        App::LibquantumLike,
        App::H264Like,
        App::XalancLike,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            App::SjengLike => "sjeng-like",
            App::McfLike => "mcf-like",
            App::GccLike => "gcc-like",
            App::Bzip2Like => "bzip2-like",
            App::GobmkLike => "gobmk-like",
            App::HmmerLike => "hmmer-like",
            App::LibquantumLike => "libquantum-like",
            App::H264Like => "h264-like",
            App::XalancLike => "xalanc-like",
        }
    }

    /// Default outer iterations at scale 1 (tuned so each app retires a
    /// few tens of millions of instructions).
    fn default_iterations(self) -> u64 {
        match self {
            App::SjengLike => 400_000,
            App::McfLike => 300_000,
            App::GccLike => 400_000,
            App::Bzip2Like => 500_000,
            App::GobmkLike => 500_000,
            App::HmmerLike => 600_000,
            App::LibquantumLike => 500_000,
            App::H264Like => 400_000,
            App::XalancLike => 400_000,
        }
    }

    /// Iterations at a divisor, floored.
    pub fn scaled_iterations(self, scale: u64) -> u32 {
        (self.default_iterations() / scale.max(1)).clamp(64, u32::MAX as u64) as u32
    }
}

/// Number of nodes mcf-like links (each on its own page). The chase
/// from node 0 visits a 1,024-node cycle of them; the other 1,024 are
/// written but never read.
const MCF_NODES: u32 = 2048;

/// Number of dispatch targets in the sjeng/xalanc-like tables.
const DISPATCH_FUNCS: usize = 8;

/// Assemble an application image for a support package.
pub fn build_app<S: Support>(s: &S, app: App, iterations: u32) -> GuestImage {
    s.build(BootSpec::default(), |a, s, layout| match app {
        App::SjengLike => sjeng_like(a, s, layout, iterations, false),
        App::XalancLike => sjeng_like(a, s, layout, iterations, true),
        App::McfLike => mcf_like(a, s, layout, iterations),
        App::GccLike => gcc_like(a, s, layout, iterations),
        App::Bzip2Like => byte_loops(a, layout, iterations, 3),
        App::H264Like => byte_loops(a, layout, iterations, 7),
        App::GobmkLike => gobmk_like(a, layout, iterations),
        App::HmmerLike => hmmer_like(a, layout, iterations),
        App::LibquantumLike => libquantum_like(a, layout, iterations),
    })
}

fn finish_kernel<A: PortableAsm>(a: &mut A, layout: &Layout) {
    emit_phase_mark(a, layout, 2);
    a.halt();
}

/// LCG step over `rd`: `rd = rd * 1664525 + 1013904223` (Numerical
/// Recipes constants), keeping the top `bits` bits.
fn lcg_step<A: PortableAsm>(a: &mut A, rd: PReg, scratch: PReg, bits: u32) {
    a.mov_imm(scratch, 1664525);
    a.alu_rr(AluOp::Mul, rd, rd, scratch);
    a.mov_imm(scratch, 1013904223);
    a.alu_rr(AluOp::Add, rd, rd, scratch);
    a.alu_ri(AluOp::Lsr, rd, rd, 32 - bits);
}

/// sjeng/xalanc-like: dispatch through a function-pointer table with a
/// pseudo-random index; `spread_pages` places targets on separate pages
/// (xalanc flavour) to stress inter-page indirect flow.
fn sjeng_like<S: Support>(
    a: &mut S::Asm,
    _s: &S,
    layout: &Layout,
    iterations: u32,
    spread_pages: bool,
) {
    let funcs: Vec<_> = (0..DISPATCH_FUNCS).map(|_| a.new_label()).collect();
    let table = a.new_label();
    let start = a.new_label();
    a.b(start);

    for (k, f) in funcs.iter().enumerate() {
        if spread_pages {
            a.align(PAGE_SIZE);
        } else {
            a.align(32);
        }
        a.bind(*f);
        // "Evaluator": a few ops and a conditional.
        a.alu_ri(AluOp::Add, PReg::E, PReg::E, (k as u32 + 1) * 3);
        a.alu_ri(AluOp::Eor, PReg::E, PReg::E, 0x55);
        a.cmp_ri(PReg::E, 1024);
        let skip = a.new_label();
        a.b_cond(Cond::Lt, skip);
        a.alu_ri(AluOp::Lsr, PReg::E, PReg::E, 1);
        a.bind(skip);
        a.ret();
    }

    a.align(16);
    a.bind(table);
    a.skip(4 * DISPATCH_FUNCS as u32);

    a.align(if spread_pages { PAGE_SIZE } else { 16 });
    a.bind(start);
    // Setup: fill the table, seed state.
    a.mov_label(PReg::B, table);
    for (k, f) in funcs.iter().enumerate() {
        a.mov_label(PReg::D, *f);
        a.store(PReg::D, PReg::B, 4 * k as i32);
    }
    a.mov_imm(PReg::A, 12345);
    a.mov_imm(PReg::E, 0);
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, |a| {
        // Four dispatches per outer iteration.
        for _ in 0..4 {
            lcg_step(a, PReg::A, PReg::D, 3);
            a.alu_ri(AluOp::Lsl, PReg::D, PReg::A, 2);
            a.alu_rr(AluOp::Add, PReg::D, PReg::D, PReg::B);
            a.load(PReg::D, PReg::D, 0);
            a.call_reg(PReg::D);
        }
    });
    finish_kernel(a, layout);
}

/// mcf-like: link one node per page of the cold region pseudo-randomly,
/// then chase the cycle through node 0.
fn mcf_like<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let cold = layout.cold;
    // Setup: node i (at cold + i*PAGE) points to node ((i + 0x261) * 787) & mask.
    a.mov_imm(PReg::A, 0); // i
    let fill = a.new_label();
    a.bind(fill);
    // B = &node[i]
    a.alu_ri(AluOp::Lsl, PReg::B, PReg::A, 12);
    a.mov_imm(PReg::D, cold);
    a.alu_rr(AluOp::Add, PReg::B, PReg::B, PReg::D);
    // E = successor index.
    a.alu_ri(AluOp::Add, PReg::E, PReg::A, 0x261);
    a.mov_imm(PReg::D, 787);
    a.alu_rr(AluOp::Mul, PReg::E, PReg::E, PReg::D);
    a.mov_imm(PReg::D, MCF_NODES - 1);
    a.alu_rr(AluOp::And, PReg::E, PReg::E, PReg::D);
    // E = &node[succ]
    a.alu_ri(AluOp::Lsl, PReg::E, PReg::E, 12);
    a.mov_imm(PReg::D, cold);
    a.alu_rr(AluOp::Add, PReg::E, PReg::E, PReg::D);
    a.store(PReg::E, PReg::B, 0);
    a.alu_ri(AluOp::Add, PReg::A, PReg::A, 1);
    a.cmp_ri(PReg::A, MCF_NODES);
    a.b_cond(Cond::Ne, fill);

    a.mov_imm(PReg::A, cold); // chase pointer
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, |a| {
        // Eight dependent hops per outer iteration.
        for _ in 0..8 {
            a.load(PReg::A, PReg::A, 0);
        }
        // Light arithmetic between chains.
        a.alu_ri(AluOp::Add, PReg::E, PReg::E, 1);
    });
    finish_kernel(a, layout);
}

/// gcc-like: hash-table updates, helper calls, and a rare syscall (SPEC
/// syscall density is ~1.5e-6; every 1024th iteration here).
fn gcc_like<S: Support>(a: &mut S::Asm, _s: &S, layout: &Layout, iterations: u32) {
    let helper = a.new_label();
    let start = a.new_label();
    a.b(start);

    a.align(16);
    a.bind(helper);
    a.alu_ri(AluOp::Eor, PReg::E, PReg::E, 0x2A);
    a.alu_ri(AluOp::Ror, PReg::E, PReg::E, 7);
    a.ret();

    a.align(16);
    a.bind(start);
    a.mov_imm(PReg::A, 98765); // hash state
    a.mov_imm(PReg::B, layout.data);
    a.mov_imm(PReg::E, 0);
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, |a| {
        // Hash, bump a 1024-slot table entry, call a helper, rarely trap.
        lcg_step(a, PReg::A, PReg::D, 10);
        a.alu_ri(AluOp::Lsl, PReg::D, PReg::A, 2);
        a.alu_rr(AluOp::Add, PReg::D, PReg::D, PReg::B);
        a.load(PReg::E, PReg::D, 0);
        a.alu_ri(AluOp::Add, PReg::E, PReg::E, 1);
        a.store(PReg::E, PReg::D, 0);
        a.call(helper);
        a.mov_imm(PReg::D, 1023);
        a.alu_rr(AluOp::And, PReg::D, PReg::C, PReg::D);
        a.cmp_ri(PReg::D, 0);
        let skip = a.new_label();
        a.b_cond(Cond::Ne, skip);
        a.svc(3);
        a.bind(skip);
    });
    finish_kernel(a, layout);
}

/// bzip2/h264-like: nested byte-granular loops over a data block.
/// `mix` varies the arithmetic so the two apps differ.
fn byte_loops<A: PortableAsm>(a: &mut A, layout: &Layout, iterations: u32, mix: u32) {
    a.mov_imm(PReg::A, layout.data);
    a.mov_imm(PReg::E, 0);
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, |a| {
        // Inner loop: 16 byte load/modify/store steps.
        a.mov_imm(PReg::B, 16);
        let inner = a.new_label();
        a.bind(inner);
        a.load8(PReg::D, PReg::A, 0);
        a.alu_ri(AluOp::Add, PReg::D, PReg::D, mix);
        a.alu_ri(AluOp::Eor, PReg::D, PReg::D, mix * 5 + 1);
        a.store8(PReg::D, PReg::A, 64);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 1);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(Cond::Ne, inner);
        // Wrap the cursor every 256 outer iterations.
        a.alu_ri(AluOp::Sub, PReg::A, PReg::A, 16);
        a.alu_ri(AluOp::Add, PReg::E, PReg::E, 1);
        a.mov_imm(PReg::D, 0xFF);
        a.alu_rr(AluOp::And, PReg::D, PReg::E, PReg::D);
        a.cmp_ri(PReg::D, 0);
        let stay = a.new_label();
        a.b_cond(Cond::Ne, stay);
        a.mov_imm(PReg::A, layout.data);
        a.bind(stay);
    });
    finish_kernel(a, layout);
}

/// gobmk-like: long compare/branch chains over evolving state.
fn gobmk_like<A: PortableAsm>(a: &mut A, layout: &Layout, iterations: u32) {
    a.mov_imm(PReg::A, 0xBEEF);
    a.mov_imm(PReg::E, 0);
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, |a| {
        lcg_step(a, PReg::A, PReg::D, 16);
        // A cascade of pattern tests.
        for (mask, delta) in [(0x3u32, 1u32), (0x7, 3), (0xF, 5), (0x1F, 7), (0x3F, 11)] {
            a.mov_imm(PReg::D, mask);
            a.alu_rr(AluOp::And, PReg::D, PReg::A, PReg::D);
            a.cmp_ri(PReg::D, mask / 2);
            let skip = a.new_label();
            a.b_cond(Cond::Ne, skip);
            a.alu_ri(AluOp::Add, PReg::E, PReg::E, delta);
            a.bind(skip);
        }
    });
    finish_kernel(a, layout);
}

/// hmmer-like: dense, regular array arithmetic — the hottest loops of
/// the set, dominated by in-page loads/stores and ALU ops.
fn hmmer_like<A: PortableAsm>(a: &mut A, layout: &Layout, iterations: u32) {
    a.mov_imm(PReg::A, layout.data);
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, |a| {
        for k in 0..8 {
            let off = 4 * k;
            a.load(PReg::D, PReg::A, off);
            a.load(PReg::E, PReg::A, off + 32);
            a.alu_rr(AluOp::Add, PReg::D, PReg::D, PReg::E);
            a.alu_ri(AluOp::Lsr, PReg::E, PReg::D, 3);
            a.alu_rr(AluOp::Add, PReg::D, PReg::D, PReg::E);
            a.store(PReg::D, PReg::A, off + 64);
        }
    });
    finish_kernel(a, layout);
}

/// libquantum-like: streaming sequential updates over a multi-page
/// buffer (strided stores with moderate TLB pressure).
fn libquantum_like<A: PortableAsm>(a: &mut A, layout: &Layout, iterations: u32) {
    let cold = layout.cold;
    let span = 64 * PAGE_SIZE; // 256 KB working set
    a.mov_imm(PReg::A, cold);
    a.mov_imm(PReg::E, cold + span);
    emit_phase_mark(a, layout, 1);
    emit_counted_loop(a, iterations, |a| {
        for k in 0..4 {
            a.load(PReg::D, PReg::A, 16 * k);
            a.alu_ri(AluOp::Eor, PReg::D, PReg::D, 0x80);
            a.store(PReg::D, PReg::A, 16 * k);
        }
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 256);
        a.cmp_rr(PReg::A, PReg::E);
        let stay = a.new_label();
        a.b_cond(Cond::Ne, stay);
        a.mov_imm(PReg::A, cold);
        a.bind(stay);
    });
    finish_kernel(a, layout);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_suite::{ArmletSupport, PetixSupport};

    #[test]
    fn all_apps_assemble_on_both_isas() {
        for app in App::ALL {
            let img = build_app(&ArmletSupport::new(), app, 64);
            assert!(img.size() > 0, "{app:?} armlet");
            let img = build_app(&PetixSupport::new(), app, 64);
            assert!(img.size() > 0, "{app:?} petix");
        }
    }

    #[test]
    fn names_and_defaults() {
        assert_eq!(App::ALL.len(), 9);
        for app in App::ALL {
            assert!(app.default_iterations() >= 100_000);
            assert!(!app.name().is_empty());
        }
        assert_eq!(App::McfLike.scaled_iterations(u64::MAX), 64);
    }
}
