//! The riscle architecture + platform support package.

use simbench_core::asm::PReg;
use simbench_isa_riscle::mmu::RisclePte;
use simbench_isa_riscle::sys::csr;
use simbench_isa_riscle::RiscleAsm;

use crate::support::{identity_tables, IdentityRange, Support};

/// riscle support package. The vector filler is the 2-byte `c.nop`,
/// which keeps every entry halfword aligned.
#[derive(Debug, Clone, Copy, Default)]
pub struct RiscleSupport;

impl RiscleSupport {
    /// New support package.
    pub fn new() -> Self {
        RiscleSupport
    }
}

impl Support for RiscleSupport {
    type Asm = RiscleAsm;
    const ISA_NAME: &'static str = "riscle";
    const HAS_NONPRIV: bool = false;

    fn page_tables(&self, base: u32, ranges: &[IdentityRange]) -> Vec<u8> {
        identity_tables::<RisclePte>(base, ranges)
    }

    fn emit_table_base(&self, a: &mut RiscleAsm, rs: PReg) {
        a.csrw(csr::TTB, rs);
    }

    fn emit_mmu_on(&self, a: &mut RiscleAsm, rs: PReg) {
        a.csrw(csr::CTRL, rs);
    }

    fn emit_irq_control(&self, a: &mut RiscleAsm, rs: PReg) {
        a.csrw(csr::IRQ_CTL, rs);
    }

    fn emit_resume_from_link(&self, a: &mut RiscleAsm) {
        // The faulted `c.jalr` linked its return address into the LR
        // GPR, which is not banked across exceptions — copy it into the
        // resume CSR, as on armlet.
        a.csrw(csr::SAVED_PC, PReg::Lr);
    }

    fn emit_safe_coproc_read(&self, a: &mut Self::Asm, rd: PReg) {
        // MISA: a read-only constant, the designated side-effect-free
        // system-register read.
        a.csrr(rd, csr::MISA);
    }

    fn emit_nonpriv_load(&self, _a: &mut Self::Asm, _rd: PReg, _base: PReg, _off: i32) -> bool {
        false // no ldrt equivalent: base RISC-V has no non-privileged forms
    }

    fn emit_nonpriv_store(&self, _a: &mut Self::Asm, _rs: PReg, _base: PReg, _off: i32) -> bool {
        false
    }

    fn emit_tlb_inv_page(&self, a: &mut Self::Asm, rva: PReg) {
        a.csrw(csr::TLB_INV, rva);
    }

    fn emit_tlb_flush(&self, a: &mut Self::Asm, scratch: PReg) {
        a.csrw(csr::TLB_FLUSH, scratch);
    }
}
