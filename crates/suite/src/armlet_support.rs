//! The armlet architecture + platform support package.

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::mmu::PtFlags;
use simbench_isa_armlet::sys::{cp14, cp15, CP_BANK, CP_SYS};
use simbench_isa_armlet::{Access, ArmletAsm, TableBuilder};

use crate::support::{IdentityRange, Support};

/// armlet support package.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmletSupport;

impl ArmletSupport {
    /// New support package.
    pub fn new() -> Self {
        ArmletSupport
    }
}

impl Support for ArmletSupport {
    type Asm = ArmletAsm;
    const ISA_NAME: &'static str = "armlet";
    const HAS_NONPRIV: bool = true;

    fn page_tables(&self, base: u32, ranges: &[IdentityRange]) -> Vec<u8> {
        // ARM-style sections where aligned, coarse tables elsewhere.
        let mut tb = TableBuilder::new(base);
        for &(start, len, flags) in ranges {
            let access = match flags {
                PtFlags::KERNEL => Access::KernelOnly,
                PtFlags::USER_FULL => Access::UserFull,
                PtFlags::KERNEL_DEVICE => Access::KernelDevice,
                _ => unreachable!("no armlet access level for {flags:?}"),
            };
            tb.map_range(start, start, len, access);
        }
        tb.into_blob().1
    }

    fn emit_table_base(&self, a: &mut ArmletAsm, rs: PReg) {
        a.mcr(CP_SYS, cp15::TTBR, rs);
    }

    fn emit_mmu_on(&self, a: &mut ArmletAsm, rs: PReg) {
        a.mcr(CP_SYS, cp15::SCTLR, rs);
    }

    fn emit_irq_control(&self, a: &mut ArmletAsm, rs: PReg) {
        a.mcr(CP_BANK, cp14::IRQ_CTL, rs);
    }

    fn emit_vector_fill(&self, a: &mut ArmletAsm) {
        a.word(0);
    }

    fn emit_resume_from_link(&self, a: &mut ArmletAsm) {
        // The faulted call left its return address in LR.
        a.mcr(CP_BANK, cp14::SAVED_PC, PReg::Lr);
    }

    fn emit_safe_coproc_read(&self, a: &mut Self::Asm, rd: PReg) {
        // The paper's chosen ARM safe read: the Domain Access Control
        // register.
        a.mrc(CP_SYS, cp15::DACR, rd);
    }

    fn emit_nonpriv_load(&self, a: &mut Self::Asm, rd: PReg, base: PReg, off: i32) -> bool {
        a.ldrt(rd, base, off);
        true
    }

    fn emit_nonpriv_store(&self, a: &mut Self::Asm, rs: PReg, base: PReg, off: i32) -> bool {
        a.strt(rs, base, off);
        true
    }

    fn emit_tlb_inv_page(&self, a: &mut Self::Asm, rva: PReg) {
        a.mcr(CP_SYS, cp15::TLBIMVA, rva);
    }

    fn emit_tlb_flush(&self, a: &mut Self::Asm, scratch: PReg) {
        a.mcr(CP_SYS, cp15::TLBIALL, scratch);
    }
}
