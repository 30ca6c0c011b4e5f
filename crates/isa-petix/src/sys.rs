//! petix system state — its control registers — and the [`Isa`]
//! implementation over it.

use simbench_core::bus::Bus;
use simbench_core::cpu::{CpuState, Status};
use simbench_core::fault::{Bank, CopFault, ExcInfo, ExceptionKind};
use simbench_core::ir::{DecodeError, Decoded};
use simbench_core::isa::{CopEffect, Isa};
use simbench_core::mmu::WalkResult;

use crate::{decode, mmu, Petix};

/// Control-register indices (accessed via `mov cr` forms; petix has a
/// single "coprocessor", number 0).
pub mod cr {
    /// System control: bit 0 enables paging.
    pub const CR0: u8 = 0;
    /// Fault address (set on aborts, like x86 CR2).
    pub(super) const CR2: u8 = 2;
    /// Page-table base.
    pub const CR3: u8 = 3;
    /// Vector table base.
    pub(super) const CR4: u8 = 4;
    /// FPU control word — the designated side-effect-free "safe"
    /// control-register read for the Coprocessor Access benchmark.
    pub const FPCW: u8 = 5;
    /// Write: flush the entire TLB.
    pub const TLB_FLUSH: u8 = 7;
    /// Write: invalidate the TLB entry covering the written address
    /// (`invlpg`).
    pub const INVLPG: u8 = 8;
    /// Banked return address.
    pub const SAVED_PC: u8 = 10;
    /// Banked status word.
    pub const SAVED_STATUS: u8 = 11;
    /// Bit 0: IRQ enable for the current status (`sti`/`cli`).
    pub const IRQ_CTL: u8 = 12;
    /// Handler scratch register.
    pub const SCRATCH: u8 = 13;
}

/// Reset value of the FPU control word (mirrors the x87 default).
const FPCW_RESET: u32 = 0x037F;

/// petix system-register file.
#[derive(Debug, Clone)]
pub struct PetixSys {
    /// System control (bit 0: paging enable).
    pub cr0: u32,
    /// Fault address.
    pub cr2: u32,
    /// Page-table base (4 KB aligned).
    pub cr3: u32,
    /// Vector base.
    pub cr4: u32,
    /// FPU control word.
    pub fpcw: u32,
    /// Banked return address and status.
    pub bank: Bank,
    /// Handler scratch.
    pub scratch: u32,
}

impl Default for PetixSys {
    fn default() -> Self {
        PetixSys {
            cr0: 0,
            cr2: 0,
            cr3: 0,
            cr4: 0,
            fpcw: FPCW_RESET,
            bank: Bank::default(),
            scratch: 0,
        }
    }
}

impl Isa for Petix {
    const NAME: &'static str = "petix";
    const MAX_INSN_BYTES: usize = 6;
    const GPRS: usize = 8;
    type Sys = PetixSys;

    fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {
        decode::decode(bytes, pc)
    }

    fn mmu_enabled(sys: &PetixSys) -> bool {
        sys.cr0 & 1 != 0
    }

    fn walk<B: Bus>(sys: &PetixSys, bus: &mut B, va: u32) -> WalkResult {
        mmu::walk(sys, bus, va)
    }

    fn cop_read(_cpu: &CpuState, sys: &mut PetixSys, cp: u8, reg: u8) -> Result<u32, CopFault> {
        if cp != 0 {
            return Err(CopFault);
        }
        match reg {
            cr::CR0 => Ok(sys.cr0),
            cr::CR2 => Ok(sys.cr2),
            cr::CR3 => Ok(sys.cr3),
            cr::CR4 => Ok(sys.cr4),
            cr::FPCW => Ok(sys.fpcw),
            cr::SAVED_PC => Ok(sys.bank.pc),
            cr::SAVED_STATUS => Ok(sys.bank.status.word()),
            cr::SCRATCH => Ok(sys.scratch),
            _ => Err(CopFault),
        }
    }

    fn cop_write(
        cpu: &mut CpuState,
        sys: &mut PetixSys,
        cp: u8,
        reg: u8,
        val: u32,
    ) -> Result<CopEffect, CopFault> {
        if cp != 0 {
            return Err(CopFault);
        }
        match reg {
            cr::CR0 => {
                let was = sys.cr0;
                sys.cr0 = val;
                Ok(if (was ^ val) & 1 != 0 {
                    CopEffect::ContextChanged
                } else {
                    CopEffect::None
                })
            }
            cr::CR3 => {
                sys.cr3 = val;
                // x86 semantics: a CR3 load flushes non-global TLB entries.
                Ok(CopEffect::ContextChanged)
            }
            cr::CR4 => {
                sys.cr4 = val;
                Ok(CopEffect::None)
            }
            cr::FPCW => {
                sys.fpcw = val & 0xFFFF;
                Ok(CopEffect::None)
            }
            cr::TLB_FLUSH => Ok(CopEffect::TlbFlush),
            cr::INVLPG => Ok(CopEffect::TlbInvPage(val)),
            cr::SAVED_PC => {
                sys.bank.pc = val;
                Ok(CopEffect::None)
            }
            cr::SAVED_STATUS => {
                sys.bank.status = Status::from_word(val);
                Ok(CopEffect::None)
            }
            cr::IRQ_CTL => {
                cpu.irq_enabled = val & 1 != 0;
                Ok(CopEffect::None)
            }
            cr::SCRATCH => {
                sys.scratch = val;
                Ok(CopEffect::None)
            }
            _ => Err(CopFault),
        }
    }

    /// Records the fault address of an abort in `cr2`. Calls push their
    /// return address, so a handler that unwinds — the Instruction
    /// Access Fault benchmark's — pops the stack and writes `cr10`.
    fn enter_exception(
        cpu: &mut CpuState,
        sys: &mut PetixSys,
        kind: ExceptionKind,
        info: ExcInfo,
        return_pc: u32,
    ) -> u32 {
        if kind.is_abort() {
            sys.cr2 = info.fault_addr;
        }
        sys.bank.enter(cpu, kind, return_pc, sys.cr4)
    }

    fn leave_exception(cpu: &mut CpuState, sys: &mut PetixSys) -> u32 {
        sys.bank.leave(cpu)
    }

    fn sys_regs(sys: &PetixSys, visit: &mut dyn FnMut(&'static str, u32)) {
        visit("cr0", sys.cr0);
        visit("cr2", sys.cr2);
        visit("cr3", sys.cr3);
        visit("cr4", sys.cr4);
        visit("fpcw", sys.fpcw);
        visit("saved_pc", sys.bank.pc);
        visit("saved_status", sys.bank.status.word());
        visit("scratch", sys.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Petix as P;

    #[test]
    fn fpcw_reset_and_masking() {
        let mut sys = PetixSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(P::cop_read(&cpu, &mut sys, 0, cr::FPCW).unwrap(), 0x037F);
        P::cop_write(&mut cpu, &mut sys, 0, cr::FPCW, 0xFFFF_1234).unwrap();
        assert_eq!(P::cop_read(&cpu, &mut sys, 0, cr::FPCW).unwrap(), 0x1234);
    }

    #[test]
    fn cr3_flushes_context() {
        let mut sys = PetixSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            P::cop_write(&mut cpu, &mut sys, 0, cr::CR3, 0x8000).unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(
            P::cop_write(&mut cpu, &mut sys, 0, cr::INVLPG, 0x1234).unwrap(),
            CopEffect::TlbInvPage(0x1234)
        );
        assert_eq!(
            P::cop_write(&mut cpu, &mut sys, 0, cr::TLB_FLUSH, 0).unwrap(),
            CopEffect::TlbFlush
        );
    }

    #[test]
    fn wrong_coprocessor_faults() {
        let (cpu, mut sys) = (CpuState::at_reset(0), PetixSys::default());
        assert!(P::cop_read(&cpu, &mut sys, 1, cr::CR0).is_err());
        assert!(P::cop_read(&cpu, &mut sys, 0, 15).is_err());
    }

    #[test]
    fn exception_cycle() {
        let mut sys = PetixSys {
            cr4: 0x1000,
            ..Default::default()
        };
        let mut cpu = CpuState::at_reset(0x8000);
        cpu.irq_enabled = true;
        let vec = P::enter_exception(
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
        assert_eq!(sys.cr2, 0xBAD0_0000);
        assert!(!cpu.irq_enabled);
        // Handler redirects the resume point (stack unwinding analogue).
        P::cop_write(&mut cpu, &mut sys, 0, cr::SAVED_PC, 0x8004).unwrap();
        assert_eq!(P::leave_exception(&mut cpu, &mut sys), 0x8004);
        assert!(cpu.irq_enabled);
    }

    #[test]
    fn irq_ctl_is_sti_cli() {
        let mut sys = PetixSys::default();
        let mut cpu = CpuState::at_reset(0);
        P::cop_write(&mut cpu, &mut sys, 0, cr::IRQ_CTL, 1).unwrap();
        assert!(cpu.irq_enabled);
        P::cop_write(&mut cpu, &mut sys, 0, cr::IRQ_CTL, 0).unwrap();
        assert!(!cpu.irq_enabled);
    }
}
