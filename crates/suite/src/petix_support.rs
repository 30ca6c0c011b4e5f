//! The petix architecture + platform support package.

use simbench_core::asm::PReg;
use simbench_isa_petix::mmu::PetixPte;
use simbench_isa_petix::sys::cr;
use simbench_isa_petix::PetixAsm;

use crate::support::{identity_tables, IdentityRange, Support};

/// petix support package.
#[derive(Debug, Clone, Copy, Default)]
pub struct PetixSupport;

impl PetixSupport {
    /// New support package.
    pub fn new() -> Self {
        PetixSupport
    }
}

impl Support for PetixSupport {
    type Asm = PetixAsm;
    const ISA_NAME: &'static str = "petix";
    const HAS_NONPRIV: bool = false;

    fn page_tables(&self, base: u32, ranges: &[IdentityRange]) -> Vec<u8> {
        identity_tables::<PetixPte>(base, ranges)
    }

    fn emit_table_base(&self, a: &mut PetixAsm, rs: PReg) {
        a.mov_to_cr(cr::CR3, rs);
    }

    fn emit_mmu_on(&self, a: &mut PetixAsm, rs: PReg) {
        a.mov_to_cr(cr::CR0, rs);
    }

    fn emit_irq_control(&self, a: &mut PetixAsm, rs: PReg) {
        a.mov_to_cr(cr::IRQ_CTL, rs);
    }

    fn emit_resume_from_link(&self, a: &mut PetixAsm) {
        // The faulted call pushed its return address: unwind the stack
        // into the banked resume register (the paper notes this
        // unwinding is required on x86).
        a.pop(PReg::D);
        a.mov_to_cr(cr::SAVED_PC, PReg::D);
    }

    fn emit_safe_coproc_read(&self, a: &mut Self::Asm, rd: PReg) {
        // The FPU control word: side-effect-free, not constant-foldable
        // without device knowledge (the x86 analogue the paper uses is a
        // repeated FPU reset; a FCW read exercises the same trap path).
        a.mov_from_cr(rd, cr::FPCW);
    }

    fn emit_nonpriv_load(&self, _a: &mut Self::Asm, _rd: PReg, _base: PReg, _off: i32) -> bool {
        false // no ldrt equivalent on x86-style ISAs (paper §II-A)
    }

    fn emit_nonpriv_store(&self, _a: &mut Self::Asm, _rs: PReg, _base: PReg, _off: i32) -> bool {
        false
    }

    fn emit_tlb_inv_page(&self, a: &mut Self::Asm, rva: PReg) {
        a.mov_to_cr(cr::INVLPG, rva);
    }

    fn emit_tlb_flush(&self, a: &mut Self::Asm, scratch: PReg) {
        a.mov_to_cr(cr::TLB_FLUSH, scratch);
    }
}
