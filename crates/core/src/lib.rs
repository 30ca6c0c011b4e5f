//! # simbench-core
//!
//! Core abstractions shared by every SimBench-rs component: the guest
//! micro-op IR, CPU state, memory faults, bus/device interfaces, MMU and
//! TLB machinery, event counters, the execution-engine trait, and the
//! portable assembler interface used to author guest programs.
//!
//! The design mirrors the structure of the ISPASS'17 SimBench paper:
//! guest *benchmarks* are written once against the portable interfaces
//! ([`asm::PortableAsm`]), *architecture support* lives in the ISA crates
//! (which implement [`isa::Isa`]), and *simulators* (the engine crates)
//! implement [`engine::Engine`] over the shared IR so that cross-engine
//! performance differences reflect engine mechanisms, not front-end
//! differences.
//!
//! ## Example
//!
//! ```
//! use simbench_core::ir::{AluOp, Cond, Op, Operand};
//!
//! // A two-op snippet of the shared micro-op IR: r0 = r0 + 1; branch.
//! let ops = [
//!     Op::Alu { op: AluOp::Add, rd: 0, rn: 0, src: Operand::Imm(1), set_flags: false },
//!     Op::Branch { target: 0x8000 },
//! ];
//! assert_eq!(ops.len(), 2);
//! ```

pub mod alu;
pub mod asm;
pub mod bus;
pub mod cfg;
pub mod cpu;
pub mod digest;
pub mod engine;
pub mod events;
pub mod exec;
pub mod fault;
pub mod frontend;
pub mod image;
pub mod ir;
pub mod isa;
pub mod machine;
pub mod mmu;
pub mod pool;
pub mod run;
pub mod tlb;

pub use cpu::{CpuState, Flags, Privilege, Status};
pub use digest::{StateDelta, StateDigest};
pub use engine::{Engine, EngineInfo, ExitReason, PhaseStats, RunLimits, RunOutcome};
pub use events::Counters;
pub use fault::{AccessKind, ExcInfo, ExceptionKind, FaultKind, MemFault};
pub use image::GuestImage;
pub use isa::Isa;
pub use machine::Machine;

/// Size of the smallest translatable page, in bytes, shared by both guest
/// ISAs (the paper notes all its targets use a 4 KB minimum granule).
pub const PAGE_SIZE: u32 = 4096;

/// Shift corresponding to [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// Returns the page number of a virtual or physical address.
#[inline]
pub fn page_of(addr: u32) -> u32 {
    addr >> PAGE_SHIFT
}

/// Returns the page-aligned base of an address.
#[inline]
pub fn page_base(addr: u32) -> u32 {
    addr & !(PAGE_SIZE - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_helpers() {
        assert_eq!(page_of(0x1234), 1);
        assert_eq!(page_of(0x0fff), 0);
        assert_eq!(page_base(0x1234), 0x1000);
        assert_eq!(page_base(0x1000), 0x1000);
        assert_eq!(page_base(0xffff_ffff), 0xffff_f000);
    }
}
