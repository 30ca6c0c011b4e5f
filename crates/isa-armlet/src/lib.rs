//! # simbench-isa-armlet
//!
//! The `armlet` guest architecture: a 32-bit fixed-width RISC ISA
//! modelled on ARMv5, with sixteen GPRs, a two-format MMU (1 MB
//! sections and 4 KB coarse pages) guarded by domain access control, a
//! CP15-style
//! system coprocessor, CP14 banked exception state, non-privileged
//! loads/stores (`ldrt`/`strt`), and an architecturally undefined
//! instruction space — everything the SimBench suite's ARM port
//! exercises.
//!
//! ## Example
//!
//! ```
//! use simbench_core::asm::{PReg, PortableAsm};
//! use simbench_core::isa::Isa;
//! use simbench_isa_armlet::{Armlet, ArmletAsm};
//!
//! let mut a = ArmletAsm::new();
//! a.org(0x8000);
//! a.mov_imm(PReg::A, 41);
//! a.alu_ri(simbench_core::ir::AluOp::Add, PReg::A, PReg::A, 1);
//! a.halt();
//! let image = a.finish(0x8000);
//!
//! // The first word decodes back to a mov.
//! let w = u32::from_le_bytes(image.sections[0].bytes[0..4].try_into().unwrap());
//! let decoded = Armlet::decode(&w.to_le_bytes(), 0x8000).unwrap();
//! assert_eq!(decoded.len, 4);
//! ```

pub mod asm;
pub mod decode;
pub mod decode_gen;
#[doc(hidden)]
pub mod decode_ref;
pub mod encoding;
pub mod mmu;
pub mod sys;

pub use asm::ArmletAsm;
pub use mmu::{Access, TableBuilder};
pub use sys::ArmletSys;

/// The armlet architecture (implements [`simbench_core::isa::Isa`] in
/// [`sys`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Armlet;

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::isa::Isa;

    #[test]
    fn isa_constants() {
        assert_eq!(Armlet::NAME, "armlet");
        assert_eq!(Armlet::MAX_INSN_BYTES, 4);
        assert_eq!(Armlet::GPRS, 16);
    }

    #[test]
    fn short_fetch_is_decode_error() {
        assert!(Armlet::decode(&[0x00, 0x00], 0x8000).is_err());
    }
}
