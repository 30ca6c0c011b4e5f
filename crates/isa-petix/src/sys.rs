//! petix system state: control registers and exception entry/exit.

use simbench_core::cpu::{CpuState, Flags, Privilege, Status};
use simbench_core::fault::{CopFault, ExcInfo, ExceptionKind};
use simbench_core::isa::CopEffect;

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

/// Spacing of vector table entries in bytes.
pub const VECTOR_STRIDE: u32 = 0x20;

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
    /// Banked return address.
    pub saved_pc: u32,
    /// Banked status.
    pub saved_status: Status,
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
            saved_pc: 0,
            saved_status: Status::default(),
            scratch: 0,
        }
    }
}

impl PetixSys {
    /// True when paging is enabled.
    pub fn paging_enabled(&self) -> bool {
        self.cr0 & 1 != 0
    }

    /// Encode a [`Status`] into the control-register word format (same
    /// layout as armlet's cp14 status word).
    pub fn encode_status(s: Status) -> u32 {
        (s.flags.n as u32) << 31
            | (s.flags.z as u32) << 30
            | (s.flags.c as u32) << 29
            | (s.flags.v as u32) << 28
            | (s.irq_enabled as u32) << 7
            | ((s.level == Privilege::User) as u32) << 4
    }

    fn decode_status(w: u32) -> Status {
        Status {
            flags: Flags {
                n: w & (1 << 31) != 0,
                z: w & (1 << 30) != 0,
                c: w & (1 << 29) != 0,
                v: w & (1 << 28) != 0,
            },
            irq_enabled: w & (1 << 7) != 0,
            level: if w & (1 << 4) != 0 {
                Privilege::User
            } else {
                Privilege::Kernel
            },
        }
    }

    /// Control-register read.
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent registers.
    pub fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault> {
        if cp != 0 {
            return Err(CopFault);
        }
        match reg {
            cr::CR0 => Ok(self.cr0),
            cr::CR2 => Ok(self.cr2),
            cr::CR3 => Ok(self.cr3),
            cr::CR4 => Ok(self.cr4),
            cr::FPCW => Ok(self.fpcw),
            cr::SAVED_PC => Ok(self.saved_pc),
            cr::SAVED_STATUS => Ok(Self::encode_status(self.saved_status)),
            cr::SCRATCH => Ok(self.scratch),
            _ => Err(CopFault),
        }
    }

    /// Control-register write.
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent or read-only registers.
    pub fn cop_write(
        &mut self,
        cpu: &mut CpuState,
        cp: u8,
        reg: u8,
        val: u32,
    ) -> Result<CopEffect, CopFault> {
        if cp != 0 {
            return Err(CopFault);
        }
        match reg {
            cr::CR0 => {
                let was = self.cr0;
                self.cr0 = val;
                Ok(if (was ^ val) & 1 != 0 {
                    CopEffect::ContextChanged
                } else {
                    CopEffect::None
                })
            }
            cr::CR3 => {
                self.cr3 = val;
                // x86 semantics: a CR3 load flushes non-global TLB entries.
                Ok(CopEffect::ContextChanged)
            }
            cr::CR4 => {
                self.cr4 = val;
                Ok(CopEffect::None)
            }
            cr::FPCW => {
                self.fpcw = val & 0xFFFF;
                Ok(CopEffect::None)
            }
            cr::TLB_FLUSH => Ok(CopEffect::TlbFlush),
            cr::INVLPG => Ok(CopEffect::TlbInvPage(val)),
            cr::SAVED_PC => {
                self.saved_pc = val;
                Ok(CopEffect::None)
            }
            cr::SAVED_STATUS => {
                self.saved_status = Self::decode_status(val);
                Ok(CopEffect::None)
            }
            cr::IRQ_CTL => {
                cpu.irq_enabled = val & 1 != 0;
                Ok(CopEffect::None)
            }
            cr::SCRATCH => {
                self.scratch = val;
                Ok(CopEffect::None)
            }
            _ => Err(CopFault),
        }
    }

    /// Take an exception (see the armlet counterpart; petix differs in
    /// that return addresses for calls live on the stack, so handlers
    /// that unwind — the Instruction Access Fault benchmark — pop the
    /// stack and write `cr10`).
    pub fn enter_exception(
        &mut self,
        cpu: &mut CpuState,
        kind: ExceptionKind,
        info: ExcInfo,
        return_pc: u32,
    ) -> u32 {
        self.saved_pc = return_pc;
        self.saved_status = cpu.status();
        if matches!(
            kind,
            ExceptionKind::DataAbort | ExceptionKind::PrefetchAbort
        ) {
            self.cr2 = info.fault_addr;
        }
        cpu.level = Privilege::Kernel;
        cpu.irq_enabled = false;
        self.cr4 + VECTOR_STRIDE * kind.vector_index() as u32
    }

    /// Return from exception.
    pub fn leave_exception(&mut self, cpu: &mut CpuState) -> u32 {
        cpu.restore_status(self.saved_status);
        self.saved_pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpcw_reset_and_masking() {
        let mut sys = PetixSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(sys.cop_read(0, cr::FPCW).unwrap(), 0x037F);
        sys.cop_write(&mut cpu, 0, cr::FPCW, 0xFFFF_1234).unwrap();
        assert_eq!(sys.cop_read(0, cr::FPCW).unwrap(), 0x1234);
    }

    #[test]
    fn cr3_flushes_context() {
        let mut sys = PetixSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            sys.cop_write(&mut cpu, 0, cr::CR3, 0x8000).unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(
            sys.cop_write(&mut cpu, 0, cr::INVLPG, 0x1234).unwrap(),
            CopEffect::TlbInvPage(0x1234)
        );
        assert_eq!(
            sys.cop_write(&mut cpu, 0, cr::TLB_FLUSH, 0).unwrap(),
            CopEffect::TlbFlush
        );
    }

    #[test]
    fn wrong_coprocessor_faults() {
        let mut sys = PetixSys::default();
        assert!(sys.cop_read(1, cr::CR0).is_err());
        assert!(sys.cop_read(0, 15).is_err());
    }

    #[test]
    fn exception_cycle() {
        let mut sys = PetixSys {
            cr4: 0x1000,
            ..Default::default()
        };
        let mut cpu = CpuState::at_reset(0x8000);
        cpu.irq_enabled = true;
        let vec = sys.enter_exception(
            &mut cpu,
            ExceptionKind::PrefetchAbort,
            ExcInfo {
                fault_addr: 0xBAD0_0000,
                syscall_no: 0,
            },
            0xBAD0_0000,
        );
        assert_eq!(vec, 0x1000 + VECTOR_STRIDE * 3);
        assert_eq!(sys.cr2, 0xBAD0_0000);
        assert!(!cpu.irq_enabled);
        // Handler redirects the resume point (stack unwinding analogue).
        sys.cop_write(&mut cpu, 0, cr::SAVED_PC, 0x8004).unwrap();
        assert_eq!(sys.leave_exception(&mut cpu), 0x8004);
        assert!(cpu.irq_enabled);
    }

    #[test]
    fn irq_ctl_is_sti_cli() {
        let mut sys = PetixSys::default();
        let mut cpu = CpuState::at_reset(0);
        sys.cop_write(&mut cpu, 0, cr::IRQ_CTL, 1).unwrap();
        assert!(cpu.irq_enabled);
        sys.cop_write(&mut cpu, 0, cr::IRQ_CTL, 0).unwrap();
        assert!(!cpu.irq_enabled);
    }
}
