//! # simbench-isa-petix
//!
//! The `petix` guest architecture: a variable-length (1–6 byte)
//! CISC-flavoured ISA modelled on x86. Eight GPRs with a hardware stack
//! pointer (calls push their return address — handlers that redirect the
//! resume point must unwind the stack, the behaviour the paper notes for
//! the x86 Instruction Access Fault benchmark), x86-style two-level page
//! tables, control registers (`cr0`/`cr3`/`invlpg`/FPU control word),
//! `int`-style system calls and a `ud2` undefined instruction. There are
//! no non-privileged loads/stores: the corresponding SimBench benchmark
//! is a no-op on this architecture, exactly as the paper describes for
//! its x86 port.
//!
//! ## Example
//!
//! ```
//! use simbench_core::asm::{PReg, PortableAsm};
//! use simbench_core::isa::Isa;
//! use simbench_isa_petix::{Petix, PetixAsm};
//!
//! let mut a = PetixAsm::new();
//! a.org(0x8000);
//! a.mov_imm(PReg::A, 41);
//! a.alu_ri(simbench_core::ir::AluOp::Add, PReg::A, PReg::A, 1);
//! a.halt();
//! let image = a.finish(0x8000);
//! let first = Petix::decode(&image.sections[0].bytes, 0x8000).unwrap();
//! assert_eq!(first.len, 6); // mov imm32
//! ```

pub mod asm;
pub mod decode;
pub mod decode_gen;
#[doc(hidden)]
pub mod decode_ref;
pub mod encoding;
pub mod mmu;
pub mod sys;

pub use asm::PetixAsm;
pub use mmu::{PtFlags, TableBuilder};
pub use sys::PetixSys;

/// The petix architecture (implements [`simbench_core::isa::Isa`] in
/// [`sys`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Petix;

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::isa::Isa;

    #[test]
    fn isa_constants() {
        assert_eq!(Petix::NAME, "petix");
        assert_eq!(Petix::MAX_INSN_BYTES, 6);
        assert_eq!(Petix::GPRS, 8);
    }
}
