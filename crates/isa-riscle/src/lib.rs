//! # simbench-isa-riscle
//!
//! The `riscle` guest architecture: a RISC-V-flavoured ISA with mixed
//! 16/32-bit instructions (RVC-style length encoding: the low two bits
//! of the first halfword select the parcel count). Sixteen GPRs with a
//! link register, CSR-style system registers behind a single
//! coprocessor, an sv32-flavoured two-level MMU with leaf-only
//! permissions, and `sfence.vma`-style TLB maintenance expressed as CSR
//! writes. Like petix it has no non-privileged load/store forms, so the
//! corresponding SimBench benchmark is skipped on this guest.
//!
//! riscle is the first guest whose decoder was *born* generated: there
//! is no hand-written reference decoder, only the declarative spec in
//! `spec/riscle.isa` and the `simbench-isa-spec` output committed as
//! [`decode_gen`]. Its variable-width fetch path (compressed forms
//! interleaved with 32-bit ones) exercises the engines' halfword-led
//! instruction-length handling that the fixed-width armlet and
//! byte-led petix cannot.
//!
//! ## Example
//!
//! ```
//! use simbench_core::asm::{PReg, PortableAsm};
//! use simbench_core::isa::Isa;
//! use simbench_isa_riscle::{Riscle, RiscleAsm};
//!
//! let mut a = RiscleAsm::new();
//! a.org(0x8000);
//! a.mov_imm(PReg::A, 7); // fits the compressed c.li form
//! a.alu_ri(simbench_core::ir::AluOp::Add, PReg::A, PReg::A, 1);
//! a.halt();
//! let image = a.finish(0x8000);
//! let first = Riscle::decode(&image.sections[0].bytes, 0x8000).unwrap();
//! assert_eq!(first.len, 2);
//! ```

pub mod asm;
pub mod decode;
pub mod decode_gen;
pub mod encoding;
pub mod mmu;
pub mod sys;

pub use asm::RiscleAsm;
pub use mmu::{PtFlags, TableBuilder};
pub use sys::RiscleSys;

/// The riscle architecture (implements [`simbench_core::isa::Isa`] in
/// [`sys`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Riscle;

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::isa::Isa;

    #[test]
    fn isa_constants() {
        assert_eq!(Riscle::NAME, "riscle");
        assert_eq!(Riscle::MAX_INSN_BYTES, 4);
        assert_eq!(Riscle::GPRS, 16);
    }
}
