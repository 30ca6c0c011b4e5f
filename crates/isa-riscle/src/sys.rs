//! riscle system state — its CSRs — and the [`Isa`] implementation
//! over it.

use simbench_core::bus::Bus;
use simbench_core::cpu::{CpuState, Status};
use simbench_core::fault::{Bank, CopFault, ExcInfo, ExceptionKind};
use simbench_core::ir::{DecodeError, Decoded};
use simbench_core::isa::{CopEffect, Isa};
use simbench_core::mmu::WalkResult;

use crate::{decode, mmu, Riscle};

/// CSR indices (accessed via `csrr`/`csrw`; riscle has a single system
/// coprocessor, number 0).
pub mod csr {
    /// System control: bit 0 enables paging.
    pub const CTRL: u8 = 0;
    /// Page-table base (4 KB aligned, like `satp`).
    pub const TTB: u8 = 1;
    /// Vector table base (like `stvec`).
    pub(super) const TVEC: u8 = 2;
    /// Fault address (set on aborts, like `stval`).
    pub(super) const TVAL: u8 = 3;
    /// Architecture id — a read-only constant, the designated
    /// side-effect-free "safe" system-register read for the Coprocessor
    /// Access benchmark. Writes fault.
    pub const MISA: u8 = 4;
    /// Write: flush the entire TLB (`sfence.vma` with no address).
    pub const TLB_FLUSH: u8 = 7;
    /// Write: invalidate the TLB entry covering the written address
    /// (`sfence.vma` with an address).
    pub const TLB_INV: u8 = 8;
    /// Banked return address (like `sepc`).
    pub const SAVED_PC: u8 = 10;
    /// Banked status word (like `sstatus`).
    pub const SAVED_STATUS: u8 = 11;
    /// Bit 0: IRQ enable for the current status.
    pub const IRQ_CTL: u8 = 12;
    /// Handler scratch register (like `sscratch`).
    pub const SCRATCH: u8 = 13;
}

/// The MISA constant: XLEN 32 (bit 30) with the I and C extension
/// letters set.
const MISA_VALUE: u32 = (1 << 30) | (1 << 8) | (1 << 2);

/// riscle system-register file.
#[derive(Debug, Clone, Default)]
pub struct RiscleSys {
    /// System control (bit 0: paging enable).
    pub ctrl: u32,
    /// Page-table base (4 KB aligned).
    pub ttb: u32,
    /// Vector base.
    pub tvec: u32,
    /// Fault address.
    pub tval: u32,
    /// Banked return address and status.
    pub bank: Bank,
    /// Handler scratch.
    pub scratch: u32,
}

impl Isa for Riscle {
    const NAME: &'static str = "riscle";
    const MAX_INSN_BYTES: usize = 4;
    const GPRS: usize = 16;
    type Sys = RiscleSys;

    fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {
        decode::decode(bytes, pc)
    }

    fn mmu_enabled(sys: &RiscleSys) -> bool {
        sys.ctrl & 1 != 0
    }

    fn walk<B: Bus>(sys: &RiscleSys, bus: &mut B, va: u32) -> WalkResult {
        mmu::walk(sys, bus, va)
    }

    fn cop_read(_cpu: &CpuState, sys: &mut RiscleSys, cp: u8, reg: u8) -> Result<u32, CopFault> {
        if cp != 0 {
            return Err(CopFault);
        }
        match reg {
            csr::CTRL => Ok(sys.ctrl),
            csr::TTB => Ok(sys.ttb),
            csr::TVEC => Ok(sys.tvec),
            csr::TVAL => Ok(sys.tval),
            csr::MISA => Ok(MISA_VALUE),
            csr::SAVED_PC => Ok(sys.bank.pc),
            csr::SAVED_STATUS => Ok(sys.bank.status.word()),
            csr::SCRATCH => Ok(sys.scratch),
            _ => Err(CopFault),
        }
    }

    /// A write to [`csr::MISA`] or a missing CSR faults.
    fn cop_write(
        cpu: &mut CpuState,
        sys: &mut RiscleSys,
        cp: u8,
        reg: u8,
        val: u32,
    ) -> Result<CopEffect, CopFault> {
        if cp != 0 {
            return Err(CopFault);
        }
        match reg {
            csr::CTRL => {
                let was = sys.ctrl;
                sys.ctrl = val;
                Ok(if (was ^ val) & 1 != 0 {
                    CopEffect::ContextChanged
                } else {
                    CopEffect::None
                })
            }
            csr::TTB => {
                sys.ttb = val;
                // satp semantics: changing the root pointer invalidates
                // cached translations.
                Ok(CopEffect::ContextChanged)
            }
            csr::TVEC => {
                sys.tvec = val;
                Ok(CopEffect::None)
            }
            csr::TLB_FLUSH => Ok(CopEffect::TlbFlush),
            csr::TLB_INV => Ok(CopEffect::TlbInvPage(val)),
            csr::SAVED_PC => {
                sys.bank.pc = val;
                Ok(CopEffect::None)
            }
            csr::SAVED_STATUS => {
                sys.bank.status = Status::from_word(val);
                Ok(CopEffect::None)
            }
            csr::IRQ_CTL => {
                cpu.irq_enabled = val & 1 != 0;
                Ok(CopEffect::None)
            }
            csr::SCRATCH => {
                sys.scratch = val;
                Ok(CopEffect::None)
            }
            _ => Err(CopFault),
        }
    }

    /// Records the fault address of an abort in `tval`.
    fn enter_exception(
        cpu: &mut CpuState,
        sys: &mut RiscleSys,
        kind: ExceptionKind,
        info: ExcInfo,
        return_pc: u32,
    ) -> u32 {
        if kind.is_abort() {
            sys.tval = info.fault_addr;
        }
        sys.bank.enter(cpu, kind, return_pc, sys.tvec)
    }

    fn leave_exception(cpu: &mut CpuState, sys: &mut RiscleSys) -> u32 {
        sys.bank.leave(cpu)
    }

    fn sys_regs(sys: &RiscleSys, visit: &mut dyn FnMut(&'static str, u32)) {
        visit("ctrl", sys.ctrl);
        visit("ttb", sys.ttb);
        visit("tvec", sys.tvec);
        visit("tval", sys.tval);
        visit("saved_pc", sys.bank.pc);
        visit("saved_status", sys.bank.status.word());
        visit("scratch", sys.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Riscle as R;

    #[test]
    fn misa_is_readonly_constant() {
        let mut sys = RiscleSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            R::cop_read(&cpu, &mut sys, 0, csr::MISA).unwrap(),
            MISA_VALUE
        );
        assert!(R::cop_write(&mut cpu, &mut sys, 0, csr::MISA, 0).is_err());
    }

    #[test]
    fn ttb_flushes_context() {
        let mut sys = RiscleSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            R::cop_write(&mut cpu, &mut sys, 0, csr::TTB, 0x8000).unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(
            R::cop_write(&mut cpu, &mut sys, 0, csr::TLB_INV, 0x1234).unwrap(),
            CopEffect::TlbInvPage(0x1234)
        );
        assert_eq!(
            R::cop_write(&mut cpu, &mut sys, 0, csr::TLB_FLUSH, 0).unwrap(),
            CopEffect::TlbFlush
        );
    }

    #[test]
    fn paging_toggle_changes_context() {
        let mut sys = RiscleSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            R::cop_write(&mut cpu, &mut sys, 0, csr::CTRL, 1).unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(
            R::cop_write(&mut cpu, &mut sys, 0, csr::CTRL, 3).unwrap(),
            CopEffect::None,
            "non-paging bits do not flush"
        );
    }

    #[test]
    fn wrong_coprocessor_faults() {
        let (cpu, mut sys) = (CpuState::at_reset(0), RiscleSys::default());
        assert!(R::cop_read(&cpu, &mut sys, 1, csr::CTRL).is_err());
        assert!(R::cop_read(&cpu, &mut sys, 0, 15).is_err());
    }

    #[test]
    fn exception_cycle() {
        let mut sys = RiscleSys {
            tvec: 0x1000,
            ..Default::default()
        };
        let mut cpu = CpuState::at_reset(0x8000);
        cpu.irq_enabled = true;
        let vec = R::enter_exception(
            &mut cpu,
            &mut sys,
            ExceptionKind::PrefetchAbort,
            ExcInfo {
                fault_addr: 0xBAD0_0000,
                syscall_no: 0,
            },
            0xBAD0_0000,
        );
        assert_eq!(vec, 0x1000 + 3 * 0x20);
        assert_eq!(sys.tval, 0xBAD0_0000);
        assert!(!cpu.irq_enabled);
        // The handler redirects the resume point past the faulting
        // instruction (ResumeFromLink-style recovery).
        R::cop_write(&mut cpu, &mut sys, 0, csr::SAVED_PC, 0x8004).unwrap();
        assert_eq!(R::leave_exception(&mut cpu, &mut sys), 0x8004);
        assert!(cpu.irq_enabled);
    }
}
