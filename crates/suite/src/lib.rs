//! # simbench-suite
//!
//! The SimBench micro-benchmark suite: eighteen bare-metal guest
//! benchmarks in five categories (Fig 3 of the paper), written once
//! against the portable assembler interface and assembled per
//! architecture by a [`support::Support`] package.
//!
//! Each benchmark image runs in three phases (paper §II): untimed setup,
//! the timed kernel (bracketed by phase marks the engines turn into
//! [`simbench_core::engine::PhaseStats`]), and untimed cleanup ending in
//! `halt`.
//!
//! ## Example
//!
//! ```
//! use simbench_suite::{build, ArmletSupport, Benchmark};
//!
//! let image = build(&ArmletSupport::new(), Benchmark::Syscall, 100).unwrap();
//! assert!(image.size() > 0);
//! ```

pub mod bodies;
pub mod support;

mod armlet_support;
mod petix_support;
mod riscle_support;

pub use armlet_support::ArmletSupport;
pub use petix_support::PetixSupport;
pub use riscle_support::RiscleSupport;
pub use support::{BootSpec, HandlerKind, Handlers, Layout, Support};

use simbench_core::events::Counters;
use simbench_core::image::GuestImage;

/// Benchmark categories (Fig 3 groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// DBT code-generation speed and self-modifying code.
    CodeGeneration,
    /// Branch handling by page locality and target kind.
    ControlFlow,
    /// Exception and interrupt delivery.
    ExceptionHandling,
    /// Memory-mapped and coprocessor I/O.
    Io,
    /// Address translation and TLB behaviour.
    MemorySystem,
}

impl Category {
    /// All categories in paper order.
    pub const ALL: [Category; 5] = [
        Category::CodeGeneration,
        Category::ControlFlow,
        Category::ExceptionHandling,
        Category::Io,
        Category::MemorySystem,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Category::CodeGeneration => "Code Generation",
            Category::ControlFlow => "Control Flow",
            Category::ExceptionHandling => "Exception Handling",
            Category::Io => "I/O",
            Category::MemorySystem => "Memory System",
        }
    }
}

/// The eighteen SimBench benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Many small rewritten blocks (code generation).
    SmallBlocks,
    /// One huge rewritten block (code generation).
    LargeBlocks,
    /// Direct tail calls across pages.
    InterPageDirect,
    /// Indirect tail calls across pages.
    InterPageIndirect,
    /// Direct tail calls within a page.
    IntraPageDirect,
    /// Indirect tail calls within a page.
    IntraPageIndirect,
    /// Loads from unmapped memory.
    DataFault,
    /// Calls into unmapped memory.
    InsnFault,
    /// Architecturally undefined instructions.
    UndefInsn,
    /// System calls.
    Syscall,
    /// Software-generated external interrupts.
    ExtSwi,
    /// Safe memory-mapped device reads.
    MmioDevice,
    /// Safe coprocessor reads.
    CoprocAccess,
    /// One read per page over a large region.
    MemCold,
    /// Load/store pairs on one hot page.
    MemHot,
    /// Non-privileged accesses (armlet only).
    NonprivAccess,
    /// Cold walk with per-page TLB eviction.
    TlbEvict,
    /// Cold walk with full TLB flushes.
    TlbFlush,
}

impl Benchmark {
    /// All benchmarks in Fig 3 order.
    pub const ALL: [Benchmark; 18] = [
        Benchmark::SmallBlocks,
        Benchmark::LargeBlocks,
        Benchmark::InterPageDirect,
        Benchmark::InterPageIndirect,
        Benchmark::IntraPageDirect,
        Benchmark::IntraPageIndirect,
        Benchmark::DataFault,
        Benchmark::InsnFault,
        Benchmark::UndefInsn,
        Benchmark::Syscall,
        Benchmark::ExtSwi,
        Benchmark::MmioDevice,
        Benchmark::CoprocAccess,
        Benchmark::MemCold,
        Benchmark::MemHot,
        Benchmark::NonprivAccess,
        Benchmark::TlbEvict,
        Benchmark::TlbFlush,
    ];

    /// Display name (matches Fig 3 / Fig 7 rows).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::SmallBlocks => "Small Blocks",
            Benchmark::LargeBlocks => "Large Blocks",
            Benchmark::InterPageDirect => "Inter-Page Direct",
            Benchmark::InterPageIndirect => "Inter-Page Indirect",
            Benchmark::IntraPageDirect => "Intra-Page Direct",
            Benchmark::IntraPageIndirect => "Intra-Page Indirect",
            Benchmark::DataFault => "Data Access Fault",
            Benchmark::InsnFault => "Instruction Access Fault",
            Benchmark::UndefInsn => "Undefined Instruction",
            Benchmark::Syscall => "System Call",
            Benchmark::ExtSwi => "External Software Interrupt",
            Benchmark::MmioDevice => "Memory Mapped Device",
            Benchmark::CoprocAccess => "Coprocessor Access",
            Benchmark::MemCold => "Cold Memory Access",
            Benchmark::MemHot => "Hot Memory Access",
            Benchmark::NonprivAccess => "Nonprivileged Access",
            Benchmark::TlbEvict => "TLB Eviction",
            Benchmark::TlbFlush => "TLB Flush",
        }
    }

    /// The benchmark's category.
    pub fn category(self) -> Category {
        match self {
            Benchmark::SmallBlocks | Benchmark::LargeBlocks => Category::CodeGeneration,
            Benchmark::InterPageDirect
            | Benchmark::InterPageIndirect
            | Benchmark::IntraPageDirect
            | Benchmark::IntraPageIndirect => Category::ControlFlow,
            Benchmark::DataFault
            | Benchmark::InsnFault
            | Benchmark::UndefInsn
            | Benchmark::Syscall
            | Benchmark::ExtSwi => Category::ExceptionHandling,
            Benchmark::MmioDevice | Benchmark::CoprocAccess => Category::Io,
            Benchmark::MemCold
            | Benchmark::MemHot
            | Benchmark::NonprivAccess
            | Benchmark::TlbEvict
            | Benchmark::TlbFlush => Category::MemorySystem,
        }
    }

    /// The paper's default iteration count (Fig 3).
    pub fn paper_iterations(self) -> u64 {
        match self {
            Benchmark::SmallBlocks => 100_000,
            Benchmark::LargeBlocks => 500_000,
            Benchmark::InterPageDirect => 100_000_000,
            Benchmark::InterPageIndirect => 250_000,
            Benchmark::IntraPageDirect => 500_000_000,
            Benchmark::IntraPageIndirect => 200_000,
            Benchmark::DataFault => 25_000_000,
            Benchmark::InsnFault => 25_000_000,
            Benchmark::UndefInsn => 50_000_000,
            Benchmark::Syscall => 50_000_000,
            Benchmark::ExtSwi => 20_000_000,
            Benchmark::MmioDevice => 400_000_000,
            Benchmark::CoprocAccess => 250_000_000,
            Benchmark::MemCold => 50_000_000,
            Benchmark::MemHot => 500_000_000,
            Benchmark::NonprivAccess => 300_000_000,
            Benchmark::TlbEvict => 4_000_000,
            Benchmark::TlbFlush => 4_000_000,
        }
    }

    /// Iterations at a given divisor, floored to keep kernels non-trivial.
    pub fn scaled_iterations(self, scale: u64) -> u32 {
        (self.paper_iterations() / scale.max(1)).clamp(16, u32::MAX as u64) as u32
    }

    /// Benchmarks with significant platform-specific portions (Fig 3's
    /// `†` marks).
    pub fn platform_specific(self) -> bool {
        matches!(self, Benchmark::ExtSwi | Benchmark::MmioDevice)
    }

    /// Whether the benchmark exists on an architecture (the
    /// non-privileged access benchmark is armlet-only; the paper's x86
    /// port makes it a no-op). Driven by each support package's
    /// [`Support::HAS_NONPRIV`] capability, not a hand-kept name list.
    pub fn supported_on(self, isa_name: &str) -> bool {
        !matches!(self, Benchmark::NonprivAccess) || has_nonpriv(isa_name)
    }

    /// Count of the benchmark's *tested operation* in a counter delta —
    /// the numerator of Fig 3's operation density.
    pub fn tested_ops(self, c: &Counters) -> u64 {
        match self {
            // Code modifications are only observable on engines that
            // track translations (the DBT); Fig 3 measures there.
            Benchmark::SmallBlocks | Benchmark::LargeBlocks => c.code_invalidations,
            Benchmark::InterPageDirect => c.branch_inter_direct,
            Benchmark::InterPageIndirect => c.branch_inter_indirect,
            Benchmark::IntraPageDirect => c.branch_intra_direct,
            Benchmark::IntraPageIndirect => c.branch_intra_indirect,
            Benchmark::DataFault => c.data_faults,
            Benchmark::InsnFault => c.insn_faults,
            Benchmark::UndefInsn => c.undef_insns,
            Benchmark::Syscall => c.syscalls,
            Benchmark::ExtSwi => c.irqs_delivered,
            Benchmark::MmioDevice => c.mmio_accesses,
            Benchmark::CoprocAccess => c.coproc_accesses,
            Benchmark::MemCold => c.tlb_misses,
            Benchmark::MemHot => c.mem_accesses(),
            Benchmark::NonprivAccess => c.nonpriv_accesses,
            Benchmark::TlbEvict => c.tlb_invalidate_page,
            Benchmark::TlbFlush => c.tlb_flushes,
        }
    }

    /// The boot specification the benchmark needs.
    fn boot_spec(self) -> BootSpec {
        let mut spec = BootSpec::default();
        match self {
            Benchmark::InsnFault => spec.handlers.prefetch_abort = HandlerKind::ResumeFromLink,
            Benchmark::ExtSwi => {
                spec.handlers.irq = HandlerKind::AckIrqEret;
                spec.enable_irqs = true;
            }
            _ => {}
        }
        spec
    }
}

/// Whether the named architecture has non-privileged load/store forms,
/// read from the support packages' capability constants.
fn has_nonpriv(isa_name: &str) -> bool {
    const CAPS: [(&str, bool); 3] = [
        (ArmletSupport::ISA_NAME, ArmletSupport::HAS_NONPRIV),
        (PetixSupport::ISA_NAME, PetixSupport::HAS_NONPRIV),
        (RiscleSupport::ISA_NAME, RiscleSupport::HAS_NONPRIV),
    ];
    CAPS.iter().any(|&(name, cap)| name == isa_name && cap)
}

/// Assemble a benchmark image for a support package at an explicit
/// iteration count. Returns `None` when the benchmark does not exist on
/// the architecture.
pub fn build<S: Support>(s: &S, bench: Benchmark, iterations: u32) -> Option<GuestImage> {
    if !bench.supported_on(S::ISA_NAME) {
        return None;
    }
    let spec = bench.boot_spec();
    let img = s.build(spec, |a, s, layout| match bench {
        Benchmark::SmallBlocks => bodies::small_blocks(a, s, layout, iterations),
        Benchmark::LargeBlocks => bodies::large_blocks(a, s, layout, iterations),
        Benchmark::InterPageDirect => bodies::inter_page_direct(a, s, layout, iterations),
        Benchmark::InterPageIndirect => bodies::inter_page_indirect(a, s, layout, iterations),
        Benchmark::IntraPageDirect => bodies::intra_page_direct(a, s, layout, iterations),
        Benchmark::IntraPageIndirect => bodies::intra_page_indirect(a, s, layout, iterations),
        Benchmark::DataFault => bodies::data_fault(a, s, layout, iterations),
        Benchmark::InsnFault => bodies::insn_fault(a, s, layout, iterations),
        Benchmark::UndefInsn => bodies::undef_insn(a, s, layout, iterations),
        Benchmark::Syscall => bodies::syscall(a, s, layout, iterations),
        Benchmark::ExtSwi => bodies::ext_swi(a, s, layout, iterations),
        Benchmark::MmioDevice => bodies::mmio_device(a, s, layout, iterations),
        Benchmark::CoprocAccess => bodies::coproc_access(a, s, layout, iterations),
        Benchmark::MemCold => bodies::mem_cold(a, s, layout, iterations),
        Benchmark::MemHot => bodies::mem_hot(a, s, layout, iterations),
        Benchmark::NonprivAccess => {
            bodies::nonpriv_access(a, s, layout, iterations);
        }
        Benchmark::TlbEvict => bodies::tlb_evict(a, s, layout, iterations),
        Benchmark::TlbFlush => bodies::tlb_flush(a, s, layout, iterations),
    });
    Some(img)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_benchmarks_five_categories() {
        assert_eq!(Benchmark::ALL.len(), 18);
        for cat in Category::ALL {
            assert!(Benchmark::ALL.iter().any(|b| b.category() == cat));
        }
    }

    #[test]
    fn paper_iteration_counts_match_fig3() {
        assert_eq!(Benchmark::IntraPageDirect.paper_iterations(), 500_000_000);
        assert_eq!(Benchmark::TlbFlush.paper_iterations(), 4_000_000);
        assert_eq!(Benchmark::MmioDevice.paper_iterations(), 400_000_000);
    }

    #[test]
    fn scaling_floors() {
        assert_eq!(Benchmark::TlbFlush.scaled_iterations(u64::MAX), 16);
        assert_eq!(Benchmark::MemHot.scaled_iterations(1000), 500_000);
    }

    #[test]
    fn nonpriv_unsupported_on_petix() {
        assert!(Benchmark::NonprivAccess.supported_on("armlet"));
        assert!(!Benchmark::NonprivAccess.supported_on("petix"));
        assert!(!Benchmark::NonprivAccess.supported_on("riscle"));
        assert!(build(&PetixSupport::new(), Benchmark::NonprivAccess, 10).is_none());
        assert!(build(&RiscleSupport::new(), Benchmark::NonprivAccess, 10).is_none());
    }

    #[test]
    fn platform_specific_marks() {
        assert!(Benchmark::ExtSwi.platform_specific());
        assert!(Benchmark::MmioDevice.platform_specific());
        assert!(!Benchmark::Syscall.platform_specific());
    }

    #[test]
    fn all_images_assemble_on_every_isa() {
        fn check<S: Support>(s: &S) {
            for bench in Benchmark::ALL {
                if bench.supported_on(S::ISA_NAME) {
                    let img = build(s, bench, 32).unwrap();
                    assert!(img.size() > 0, "{bench:?} {} image empty", S::ISA_NAME);
                }
            }
        }
        check(&ArmletSupport::new());
        check(&PetixSupport::new());
        check(&RiscleSupport::new());
    }
}
