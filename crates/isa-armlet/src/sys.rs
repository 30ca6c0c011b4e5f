//! armlet system state: control coprocessor (cp15), banked-state
//! coprocessor (cp14), and exception entry/exit.

use simbench_core::cpu::{CpuState, Flags, Privilege, Status};
use simbench_core::fault::{CopFault, ExcInfo, ExceptionKind};
use simbench_core::isa::CopEffect;

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
    /// Banked status word (see [`super::ArmletSys::encode_status`]).
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

/// Spacing of vector table entries in bytes (room for a long branch).
pub const VECTOR_STRIDE: u32 = 0x20;

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
    /// Banked exception return address.
    pub saved_pc: u32,
    /// Banked status.
    pub saved_status: Status,
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
            saved_pc: 0,
            saved_status: Status::default(),
            scratch: [0; 2],
        }
    }
}

impl ArmletSys {
    /// True when address translation is on.
    pub fn mmu_enabled(&self) -> bool {
        self.sctlr & 1 != 0
    }

    /// Encode a [`Status`] into the cp14 word format:
    /// `N<<31 | Z<<30 | C<<29 | V<<28 | IRQ<<7 | USER<<4`.
    pub fn encode_status(s: Status) -> u32 {
        (s.flags.n as u32) << 31
            | (s.flags.z as u32) << 30
            | (s.flags.c as u32) << 29
            | (s.flags.v as u32) << 28
            | (s.irq_enabled as u32) << 7
            | ((s.level == Privilege::User) as u32) << 4
    }

    /// Decode the cp14 status word format.
    pub fn decode_status(w: u32) -> Status {
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

    /// Coprocessor read.
    ///
    /// # Errors
    ///
    /// [`CopFault`] for unknown coprocessors or registers.
    pub fn cop_read(&mut self, _cpu: &CpuState, cp: u8, reg: u8) -> Result<u32, CopFault> {
        match (cp, reg) {
            (CP_SYS, cp15::MIDR) => Ok(MIDR_VALUE),
            (CP_SYS, cp15::SCTLR) => Ok(self.sctlr),
            (CP_SYS, cp15::TTBR) => Ok(self.ttbr),
            (CP_SYS, cp15::DACR) => Ok(self.dacr),
            (CP_SYS, cp15::FSR) => Ok(self.fsr),
            (CP_SYS, cp15::FAR) => Ok(self.far),
            (CP_SYS, cp15::VBAR) => Ok(self.vbar),
            (CP_BANK, cp14::SAVED_PC) => Ok(self.saved_pc),
            (CP_BANK, cp14::SAVED_STATUS) => Ok(Self::encode_status(self.saved_status)),
            (CP_BANK, cp14::SCRATCH0) => Ok(self.scratch[0]),
            (CP_BANK, cp14::SCRATCH1) => Ok(self.scratch[1]),
            _ => Err(CopFault),
        }
    }

    /// Coprocessor write, returning the engine-visible effect.
    ///
    /// # Errors
    ///
    /// [`CopFault`] for unknown coprocessors or read-only registers.
    pub fn cop_write(
        &mut self,
        cpu: &mut CpuState,
        cp: u8,
        reg: u8,
        val: u32,
    ) -> Result<CopEffect, CopFault> {
        match (cp, reg) {
            (CP_SYS, cp15::SCTLR) => {
                let was = self.sctlr;
                self.sctlr = val;
                Ok(if (was ^ val) & 1 != 0 {
                    CopEffect::ContextChanged
                } else {
                    CopEffect::None
                })
            }
            (CP_SYS, cp15::TTBR) => {
                self.ttbr = val;
                Ok(CopEffect::ContextChanged)
            }
            (CP_SYS, cp15::DACR) => {
                self.dacr = val;
                // Domain results are baked into cached TLB entries.
                Ok(CopEffect::ContextChanged)
            }
            (CP_SYS, cp15::TLBIALL) => Ok(CopEffect::TlbFlush),
            (CP_SYS, cp15::TLBIMVA) => Ok(CopEffect::TlbInvPage(val)),
            (CP_SYS, cp15::VBAR) => {
                self.vbar = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SAVED_PC) => {
                self.saved_pc = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SAVED_STATUS) => {
                self.saved_status = Self::decode_status(val);
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SCRATCH0) => {
                self.scratch[0] = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::SCRATCH1) => {
                self.scratch[1] = val;
                Ok(CopEffect::None)
            }
            (CP_BANK, cp14::IRQ_CTL) => {
                cpu.irq_enabled = val & 1 != 0;
                Ok(CopEffect::None)
            }
            _ => Err(CopFault),
        }
    }

    /// Take an exception: bank status, mask IRQs, enter kernel mode, and
    /// return the vector address.
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
            self.far = info.fault_addr;
            self.fsr = 1; // simplified status: "fault occurred"
        }
        cpu.level = Privilege::Kernel;
        cpu.irq_enabled = false;
        self.vbar + VECTOR_STRIDE * kind.vector_index() as u32
    }

    /// Return from exception: restore banked status, resume at the banked
    /// PC.
    pub fn leave_exception(&mut self, cpu: &mut CpuState) -> u32 {
        cpu.restore_status(self.saved_status);
        self.saved_pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_word_round_trip() {
        let s = Status {
            flags: Flags {
                n: true,
                z: false,
                c: true,
                v: false,
            },
            level: Privilege::User,
            irq_enabled: true,
        };
        assert_eq!(ArmletSys::decode_status(ArmletSys::encode_status(s)), s);
        let k = Status::default();
        assert_eq!(ArmletSys::decode_status(ArmletSys::encode_status(k)), k);
    }

    #[test]
    fn cop15_registers() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert_eq!(sys.cop_read(&cpu, CP_SYS, cp15::MIDR).unwrap(), MIDR_VALUE);
        assert_eq!(
            sys.cop_write(&mut cpu, CP_SYS, cp15::TTBR, 0x10000)
                .unwrap(),
            CopEffect::ContextChanged
        );
        assert_eq!(sys.cop_read(&cpu, CP_SYS, cp15::TTBR).unwrap(), 0x10000);
        assert_eq!(
            sys.cop_write(&mut cpu, CP_SYS, cp15::TLBIALL, 0).unwrap(),
            CopEffect::TlbFlush
        );
        assert_eq!(
            sys.cop_write(&mut cpu, CP_SYS, cp15::TLBIMVA, 0x1234)
                .unwrap(),
            CopEffect::TlbInvPage(0x1234)
        );
        // MIDR is read-only.
        assert!(sys.cop_write(&mut cpu, CP_SYS, cp15::MIDR, 0).is_err());
        // Unknown coprocessor.
        assert!(sys.cop_read(&cpu, 7, 0).is_err());
    }

    #[test]
    fn mmu_enable_toggles_context() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        assert!(!sys.mmu_enabled());
        assert_eq!(
            sys.cop_write(&mut cpu, CP_SYS, cp15::SCTLR, 1).unwrap(),
            CopEffect::ContextChanged
        );
        assert!(sys.mmu_enabled());
        // Rewriting the same value: no context change.
        assert_eq!(
            sys.cop_write(&mut cpu, CP_SYS, cp15::SCTLR, 1).unwrap(),
            CopEffect::None
        );
    }

    #[test]
    fn irq_ctl_writes_cpu() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        sys.cop_write(&mut cpu, CP_BANK, cp14::IRQ_CTL, 1).unwrap();
        assert!(cpu.irq_enabled);
        sys.cop_write(&mut cpu, CP_BANK, cp14::IRQ_CTL, 0).unwrap();
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
        let vec = sys.enter_exception(&mut cpu, ExceptionKind::DataAbort, fault, 0x8004);
        assert_eq!(vec, 0x100 + VECTOR_STRIDE * 2);
        assert!(!cpu.irq_enabled, "IRQs masked on entry");
        assert_eq!(sys.far, 0xDEAD_0000);
        assert_eq!(sys.saved_pc, 0x8004);

        let resume = sys.leave_exception(&mut cpu);
        assert_eq!(resume, 0x8004);
        assert!(cpu.irq_enabled, "status restored");
        assert!(cpu.flags.z);
    }

    #[test]
    fn handler_scratch_registers() {
        let mut sys = ArmletSys::default();
        let mut cpu = CpuState::at_reset(0);
        sys.cop_write(&mut cpu, CP_BANK, cp14::SCRATCH0, 7).unwrap();
        sys.cop_write(&mut cpu, CP_BANK, cp14::SCRATCH1, 9).unwrap();
        assert_eq!(sys.cop_read(&cpu, CP_BANK, cp14::SCRATCH0).unwrap(), 7);
        assert_eq!(sys.cop_read(&cpu, CP_BANK, cp14::SCRATCH1).unwrap(), 9);
    }
}
