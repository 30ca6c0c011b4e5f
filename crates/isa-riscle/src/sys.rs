//! riscle system state: CSRs and exception entry/exit.

use simbench_core::cpu::{CpuState, Flags, Privilege, Status};
use simbench_core::fault::{CopFault, ExcInfo, ExceptionKind};
use simbench_core::isa::CopEffect;

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

/// Spacing of vector table entries in bytes.
pub const VECTOR_STRIDE: u32 = 0x20;

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
    /// Banked return address.
    pub saved_pc: u32,
    /// Banked status.
    pub saved_status: Status,
    /// Handler scratch.
    pub scratch: u32,
}

impl RiscleSys {
    /// True when paging is enabled.
    pub fn paging_enabled(&self) -> bool {
        self.ctrl & 1 != 0
    }

    /// Encode a [`Status`] into the CSR word format (same layout as the
    /// armlet and petix status words, so the differ can compare them).
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

    /// CSR read.
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent registers or a coprocessor other
    /// than 0.
    pub fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault> {
        if cp != 0 {
            return Err(CopFault);
        }
        match reg {
            csr::CTRL => Ok(self.ctrl),
            csr::TTB => Ok(self.ttb),
            csr::TVEC => Ok(self.tvec),
            csr::TVAL => Ok(self.tval),
            csr::MISA => Ok(MISA_VALUE),
            csr::SAVED_PC => Ok(self.saved_pc),
            csr::SAVED_STATUS => Ok(Self::encode_status(self.saved_status)),
            csr::SCRATCH => Ok(self.scratch),
            _ => Err(CopFault),
        }
    }

    /// CSR write.
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent or read-only registers ([`csr::MISA`]).
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
            csr::CTRL => {
                let was = self.ctrl;
                self.ctrl = val;
                Ok(if (was ^ val) & 1 != 0 {
                    CopEffect::ContextChanged
                } else {
                    CopEffect::None
                })
            }
            csr::TTB => {
                self.ttb = val;
                // satp semantics: changing the root pointer invalidates
                // cached translations.
                Ok(CopEffect::ContextChanged)
            }
            csr::TVEC => {
                self.tvec = val;
                Ok(CopEffect::None)
            }
            csr::TLB_FLUSH => Ok(CopEffect::TlbFlush),
            csr::TLB_INV => Ok(CopEffect::TlbInvPage(val)),
            csr::SAVED_PC => {
                self.saved_pc = val;
                Ok(CopEffect::None)
            }
            csr::SAVED_STATUS => {
                self.saved_status = Self::decode_status(val);
                Ok(CopEffect::None)
            }
            csr::IRQ_CTL => {
                cpu.irq_enabled = val & 1 != 0;
                Ok(CopEffect::None)
            }
            csr::SCRATCH => {
                self.scratch = val;
                Ok(CopEffect::None)
            }
            _ => Err(CopFault),
        }
    }

    /// Take an exception: bank pc and status, drop to kernel with IRQs
    /// masked, record the fault address for aborts, and return the
    /// handler address.
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
            self.tval = info.fault_addr;
        }
        cpu.level = Privilege::Kernel;
        cpu.irq_enabled = false;
        self.tvec + VECTOR_STRIDE * kind.vector_index() as u32
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
    fn misa_is_readonly_constant() {
        let mut sys = RiscleSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(sys.cop_read(0, csr::MISA).unwrap(), MISA_VALUE);
        assert!(sys.cop_write(&mut cpu, 0, csr::MISA, 0).is_err());
    }

    #[test]
    fn ttb_flushes_context() {
        let mut sys = RiscleSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            sys.cop_write(&mut cpu, 0, csr::TTB, 0x8000).unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(
            sys.cop_write(&mut cpu, 0, csr::TLB_INV, 0x1234).unwrap(),
            CopEffect::TlbInvPage(0x1234)
        );
        assert_eq!(
            sys.cop_write(&mut cpu, 0, csr::TLB_FLUSH, 0).unwrap(),
            CopEffect::TlbFlush
        );
    }

    #[test]
    fn paging_toggle_changes_context() {
        let mut sys = RiscleSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(
            sys.cop_write(&mut cpu, 0, csr::CTRL, 1).unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(
            sys.cop_write(&mut cpu, 0, csr::CTRL, 3).unwrap(),
            CopEffect::None,
            "non-paging bits do not flush"
        );
    }

    #[test]
    fn wrong_coprocessor_faults() {
        let mut sys = RiscleSys::default();
        assert!(sys.cop_read(1, csr::CTRL).is_err());
        assert!(sys.cop_read(0, 15).is_err());
    }

    #[test]
    fn exception_cycle() {
        let mut sys = RiscleSys {
            tvec: 0x1000,
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
        assert_eq!(sys.tval, 0xBAD0_0000);
        assert!(!cpu.irq_enabled);
        // The handler redirects the resume point past the faulting
        // instruction (ResumeFromLink-style recovery).
        sys.cop_write(&mut cpu, 0, csr::SAVED_PC, 0x8004).unwrap();
        assert_eq!(sys.leave_exception(&mut cpu), 0x8004);
        assert!(cpu.irq_enabled);
    }
}
