//! armlet system state — control coprocessor (cp15) and banked-state
//! coprocessor (cp14) — and the [`Isa`] implementation over it.

use simbench_core::bus::Bus;
use simbench_core::cpu::{CpuState, Status};
use simbench_core::fault::{Bank, CopFault, ExcInfo, ExceptionKind};
use simbench_core::ir::{DecodeError, Decoded};
use simbench_core::isa::{CopEffect, Isa};
use simbench_core::mmu::WalkResult;

use crate::{decode, mmu, Armlet};

/// cp15: system control coprocessor number.
pub const CP_SYS: u8 = 15;
/// cp14: banked-state / debug coprocessor number.
pub const CP_BANK: u8 = 14;

/// cp15 register indices.
pub mod cp15 {
    /// Read-only ID register.
    pub(super) const MIDR: u8 = 0;
    /// System control: bit 0 enables the MMU.
    pub const SCTLR: u8 = 1;
    /// Translation table base.
    pub const TTBR: u8 = 2;
    /// Domain access control — the paper's designated "safe"
    /// side-effect-free coprocessor read on ARM.
    pub const DACR: u8 = 3;
    /// Fault status (why the last abort happened).
    pub(super) const FSR: u8 = 5;
    /// Fault address.
    pub(super) const FAR: u8 = 6;
    /// Write: invalidate entire TLB.
    pub const TLBIALL: u8 = 7;
    /// Write: invalidate the TLB entry covering the written address.
    pub const TLBIMVA: u8 = 8;
    /// Vector table base.
    pub const VBAR: u8 = 12;
}

/// cp14 register indices.
pub mod cp14 {
    /// Banked return address (read/write from handlers).
    pub const SAVED_PC: u8 = 0;
    /// Banked status word ([`simbench_core::cpu::Status::word`]).
    pub const SAVED_STATUS: u8 = 1;
    /// Handler scratch register 0.
    pub(super) const SCRATCH0: u8 = 2;
    /// Handler scratch register 1.
    pub(super) const SCRATCH1: u8 = 3;
    /// Status control: bit 0 = IRQ enable for the *current* status.
    pub const IRQ_CTL: u8 = 4;
}

/// Value of the MIDR identification register.
const MIDR_VALUE: u32 = 0x4152_4D01; // "ARM" + v1

/// armlet system-register file.
#[derive(Debug, Clone)]
pub struct ArmletSys {
    /// System control register (bit 0: MMU enable).
    pub sctlr: u32,
    /// Translation table base (16 KB aligned).
    pub ttbr: u32,
    /// Domain access control register.
    pub dacr: u32,
    /// Fault status register.
    pub fsr: u32,
    /// Fault address register.
    pub far: u32,
    /// Vector base address register.
    pub vbar: u32,
    /// Banked exception return address and status.
    pub bank: Bank,
    /// Handler scratch registers.
    pub scratch: [u32; 2],
}

impl Default for ArmletSys {
    fn default() -> Self {
        ArmletSys {
            sctlr: 0,
            ttbr: 0,
            // All sixteen domains in "client" mode (AP bits checked).
            dacr: 0x5555_5555,
            fsr: 0,
            far: 0,
            vbar: 0,
            bank: Bank::default(),
            scratch: [0; 2],
        }
    }
}

impl Isa for Armlet {
    const NAME: &'static str = "armlet";
    const MAX_INSN_BYTES: usize = 4;
    const GPRS: usize = 16;
    type Sys = ArmletSys;

    fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {
        if bytes.len() < 4 {
            return Err(DecodeError { pc });
        }
        let word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        decode::decode(word, pc)
    }

    fn mmu_enabled(sys: &ArmletSys) -> bool {
        sys.sctlr & 1 != 0
    }

    fn walk<B: Bus>(sys: &ArmletSys, bus: &mut B, va: u32) -> WalkResult {
        mmu::walk(sys, bus, va)
    }

    fn cop_read(_cpu: &CpuState, sys: &mut ArmletSys, cp: u8, reg: u8) -> Result<u32, CopFault> {
        match (cp, reg) {
            (CP_SYS, cp15::MIDR) => Ok(MIDR_VALUE),
            (CP_SYS, cp15::SCTLR) => Ok(sys.sctlr),
            (CP_SYS, cp15::TTBR) => Ok(sys.ttbr),
            (CP_SYS, cp15::DACR) => Ok(sys.dacr),
            (CP_SYS, cp15::FSR) => Ok(sys.fsr),
            (CP_SYS, cp15::FAR) => Ok(sys.far),
            (CP_SYS, cp15::VBAR) => Ok(sys.vbar),
            (CP_BANK, cp14::SAVED_PC) => Ok(sys.bank.pc),
            (CP_BANK, cp14::SAVED_STATUS) => Ok(sys.bank.status.word()),
            (CP_BANK, cp14::SCRATCH0) => Ok(sys.scratch[0]),
            (CP_BANK, cp14::SCRATCH1) => Ok(sys.scratch[1]),
            _ => Err(CopFault),
        }
    }

    fn cop_write(
        cpu: &mut CpuState,
        sys: &mut ArmletSys,
        cp: u8,
        reg: u8,
        val: u32,
    ) -> Result<CopEffect, CopFault> {
        match (cp, reg) {
            (CP_SYS, cp15::SCTLR) => {
                let was = sys.sctlr;
                sys.sctlr = val;
                Ok(if (was ^ val) & 1 != 0 {
                    CopEffect::ContextChanged
                } else {
                    CopEffect::None
                })
            }
            (CP_SYS, cp15::TTBR) => {
                sys.ttbr = val;
                Ok(CopEffect::ContextChanged)
            }
            (CP_SYS, cp15::DACR) => {
                sys.dacr = val;
                // Domain results are baked into cached TLB entries.
                Ok(CopEffect::ContextChanged)
            }
            (CP_SYS, cp15::TLBIALL) => Ok(CopEffect::TlbFlush),
            (CP_SYS, cp15::TLBIMVA) => Ok(CopEffect::TlbInvPage(val)),
            (CP_SYS, cp15::VBAR) => {
                sys.vbar = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SAVED_PC) => {
                sys.bank.pc = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SAVED_STATUS) => {
                sys.bank.status = Status::from_word(val);
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SCRATCH0) => {
                sys.scratch[0] = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SCRATCH1) => {
                sys.scratch[1] = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::IRQ_CTL) => {
                cpu.irq_enabled = val & 1 != 0;
                Ok(CopEffect::None)
            }
            _ => Err(CopFault),
        }
    }

    fn enter_exception(
        cpu: &mut CpuState,
        sys: &mut ArmletSys,
        kind: ExceptionKind,
        info: ExcInfo,
        return_pc: u32,
    ) -> u32 {
        if kind.is_abort() {
            sys.far = info.fault_addr;
            sys.fsr = 1; // simplified status: "fault occurred"
        }
        sys.bank.enter(cpu, kind, return_pc, sys.vbar)
    }

    fn leave_exception(cpu: &mut CpuState, sys: &mut ArmletSys) -> u32 {
        sys.bank.leave(cpu)
    }

    fn sys_regs(sys: &ArmletSys, visit: &mut dyn FnMut(&'static str, u32)) {
        visit("sctlr", sys.sctlr);
        visit("ttbr", sys.ttbr);
        visit("dacr", sys.dacr);
        visit("fsr", sys.fsr);
        visit("far", sys.far);
        visit("vbar", sys.vbar);
        visit("saved_pc", sys.bank.pc);
        visit("saved_status", sys.bank.status.word());
        visit("scratch0", sys.scratch[0]);
        visit("scratch1", sys.scratch[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Armlet as A;

    #[test]
    fn cop15_registers() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            A::cop_read(&cpu, &mut sys, CP_SYS, cp15::MIDR).unwrap(),
            MIDR_VALUE
        );
        assert_eq!(
            A::cop_write(&mut cpu, &mut sys, CP_SYS, cp15::TTBR, 0x10000).unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(
            A::cop_read(&cpu, &mut sys, CP_SYS, cp15::TTBR).unwrap(),
            0x10000
        );
        assert_eq!(
            A::cop_write(&mut cpu, &mut sys, CP_SYS, cp15::TLBIALL, 0).unwrap(),
            CopEffect::TlbFlush
        );
        assert_eq!(
            A::cop_write(&mut cpu, &mut sys, CP_SYS, cp15::TLBIMVA, 0x1234).unwrap(),
            CopEffect::TlbInvPage(0x1234)
        );
        // MIDR is read-only.
        assert!(A::cop_write(&mut cpu, &mut sys, CP_SYS, cp15::MIDR, 0).is_err());
        // Unknown coprocessor.
        assert!(A::cop_read(&cpu, &mut sys, 7, 0).is_err());
    }

    #[test]
    fn mmu_enable_toggles_context() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert!(!A::mmu_enabled(&sys));
        assert_eq!(
            A::cop_write(&mut cpu, &mut sys, CP_SYS, cp15::SCTLR, 1).unwrap(),
            CopEffect::ContextChanged
        );
        assert!(A::mmu_enabled(&sys));
        // Rewriting the same value: no context change.
        assert_eq!(
            A::cop_write(&mut cpu, &mut sys, CP_SYS, cp15::SCTLR, 1).unwrap(),
            CopEffect::None
        );
    }

    #[test]
    fn irq_ctl_writes_cpu() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        A::cop_write(&mut cpu, &mut sys, CP_BANK, cp14::IRQ_CTL, 1).unwrap();
        assert!(cpu.irq_enabled);
        A::cop_write(&mut cpu, &mut sys, CP_BANK, cp14::IRQ_CTL, 0).unwrap();
        assert!(!cpu.irq_enabled);
    }

    #[test]
    fn exception_entry_and_return() {
        let mut sys = ArmletSys {
            vbar: 0x100,
            ..Default::default()
        };
        let mut cpu = CpuState::at_reset(0x8000);
        cpu.irq_enabled = true;
        cpu.flags.z = true;

        let fault = ExcInfo {
            fault_addr: 0xDEAD_0000,
            syscall_no: 0,
        };
        let vec = A::enter_exception(&mut cpu, &mut sys, ExceptionKind::DataAbort, fault, 0x8004);
        assert_eq!(vec, 0x100 + 2 * 0x20);
        assert!(!cpu.irq_enabled, "IRQs masked on entry");
        assert_eq!(sys.far, 0xDEAD_0000);
        assert_eq!(sys.bank.pc, 0x8004);

        let resume = A::leave_exception(&mut cpu, &mut sys);
        assert_eq!(resume, 0x8004);
        assert!(cpu.irq_enabled, "status restored");
        assert!(cpu.flags.z);
    }

    #[test]
    fn handler_scratch_registers() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        A::cop_write(&mut cpu, &mut sys, CP_BANK, cp14::SCRATCH0, 7).unwrap();
        A::cop_write(&mut cpu, &mut sys, CP_BANK, cp14::SCRATCH1, 9).unwrap();
        assert_eq!(
            A::cop_read(&cpu, &mut sys, CP_BANK, cp14::SCRATCH0).unwrap(),
            7
        );
        assert_eq!(
            A::cop_read(&cpu, &mut sys, CP_BANK, cp14::SCRATCH1).unwrap(),
            9
        );
    }
}
