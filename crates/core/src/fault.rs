//! Memory faults, exceptions, and the information carried into handlers.

use std::fmt;

use crate::cpu::{CpuState, Privilege, Status};

/// The kind of memory access being attempted when a fault occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch.
    Execute,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Execute => "execute",
        };
        f.write_str(s)
    }
}

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// No valid translation for the virtual address.
    Unmapped,
    /// A valid translation exists but the access violates its permissions.
    Permission,
    /// The address is not naturally aligned for the access size.
    Unaligned,
    /// The physical address does not decode to RAM or any device.
    BusError,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Unmapped => "unmapped",
            FaultKind::Permission => "permission",
            FaultKind::Unaligned => "unaligned",
            FaultKind::BusError => "bus error",
        };
        f.write_str(s)
    }
}

/// A faulting memory access: the architectural payload of data and
/// prefetch aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The virtual address that faulted.
    pub addr: u32,
    /// What kind of access was attempted.
    pub access: AccessKind,
    /// Why it faulted.
    pub kind: FaultKind,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault on {} at {:#010x}",
            self.kind, self.access, self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// Architectural exception classes recognised by both guest ISAs.
///
/// Every engine routes these through [`crate::isa::Isa::enter_exception`],
/// which banks state and returns the handler vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionKind {
    /// Undefined / illegal instruction.
    Undef,
    /// Software-requested system call (`svc` / `int`).
    Syscall,
    /// Faulting data access (load or store).
    DataAbort,
    /// Faulting instruction fetch.
    PrefetchAbort,
    /// Asynchronous external interrupt.
    Irq,
}

impl ExceptionKind {
    /// All exception kinds, in vector-table order.
    pub const ALL: [ExceptionKind; 5] = [
        ExceptionKind::Undef,
        ExceptionKind::Syscall,
        ExceptionKind::DataAbort,
        ExceptionKind::PrefetchAbort,
        ExceptionKind::Irq,
    ];

    /// Index of this exception in the vector table of armlet, petix and
    /// riscle.
    pub fn vector_index(self) -> usize {
        match self {
            ExceptionKind::Undef => 0,
            ExceptionKind::Syscall => 1,
            ExceptionKind::DataAbort => 2,
            ExceptionKind::PrefetchAbort => 3,
            ExceptionKind::Irq => 4,
        }
    }

    /// This exception's entry in a vector table at `base`.
    #[inline]
    pub fn vector(self, base: u32) -> u32 {
        base + VECTOR_STRIDE * self.vector_index() as u32
    }

    /// True for the aborts, which record their fault address.
    #[inline]
    pub fn is_abort(self) -> bool {
        matches!(
            self,
            ExceptionKind::DataAbort | ExceptionKind::PrefetchAbort
        )
    }
}

/// Spacing of vector-table entries in bytes on every guest (room for a
/// long branch).
pub const VECTOR_STRIDE: u32 = 0x20;

/// What every guest banks on exception entry: the resume address and
/// the interrupted status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bank {
    /// Banked resume address.
    pub pc: u32,
    /// Banked status.
    pub status: Status,
}

impl Bank {
    /// Take an exception: bank `return_pc` and the current status, enter
    /// kernel mode with IRQs masked, and return the entry for `kind` in
    /// the vector table at `vbase`.
    #[inline]
    pub fn enter(
        &mut self,
        cpu: &mut CpuState,
        kind: ExceptionKind,
        return_pc: u32,
        vbase: u32,
    ) -> u32 {
        self.pc = return_pc;
        self.status = cpu.status();
        cpu.level = Privilege::Kernel;
        cpu.irq_enabled = false;
        kind.vector(vbase)
    }

    /// Return from an exception: restore the banked status and return
    /// the resume address.
    #[inline]
    pub fn leave(&self, cpu: &mut CpuState) -> u32 {
        cpu.restore_status(self.status);
        self.pc
    }
}

impl fmt::Display for ExceptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExceptionKind::Undef => "undefined instruction",
            ExceptionKind::Syscall => "system call",
            ExceptionKind::DataAbort => "data abort",
            ExceptionKind::PrefetchAbort => "prefetch abort",
            ExceptionKind::Irq => "irq",
        };
        f.write_str(s)
    }
}

/// Side information recorded by the hardware when an exception is taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExcInfo {
    /// Faulting address for aborts; 0 otherwise.
    pub fault_addr: u32,
    /// Immediate operand of a `svc`-style instruction; 0 otherwise.
    pub syscall_no: u16,
}

impl ExcInfo {
    /// Info payload for a memory fault.
    pub fn from_fault(fault: MemFault) -> Self {
        ExcInfo {
            fault_addr: fault.addr,
            syscall_no: 0,
        }
    }

    /// Info payload for a syscall.
    pub fn syscall(no: u16) -> Self {
        ExcInfo {
            fault_addr: 0,
            syscall_no: no,
        }
    }
}

/// Failure of a coprocessor access: always surfaces as an undefined
/// instruction exception, mirroring ARM and x86 behaviour for accesses to
/// nonexistent coprocessors / control registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopFault;

impl fmt::Display for CopFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid coprocessor access")
    }
}

impl std::error::Error for CopFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let f = MemFault {
            addr: 0x8000_0000,
            access: AccessKind::Write,
            kind: FaultKind::Unmapped,
        };
        assert_eq!(f.to_string(), "unmapped fault on write at 0x80000000");
        assert_eq!(ExceptionKind::Irq.to_string(), "irq");
    }

    #[test]
    fn vector_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for k in ExceptionKind::ALL {
            let i = k.vector_index();
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn exc_info_constructors() {
        let f = MemFault {
            addr: 0x1234,
            access: AccessKind::Read,
            kind: FaultKind::Permission,
        };
        assert_eq!(ExcInfo::from_fault(f).fault_addr, 0x1234);
        assert_eq!(ExcInfo::syscall(7).syscall_no, 7);
    }

    #[test]
    fn a_bank_enters_the_kernel_masked_and_leaving_restores_the_status() {
        let mut cpu = CpuState::at_reset(0x8000);
        (cpu.level, cpu.irq_enabled, cpu.flags.z) = (Privilege::User, true, true);
        let before = cpu.status();
        let mut bank = Bank::default();
        let vector = bank.enter(&mut cpu, ExceptionKind::Irq, 0x8004, 0x100);
        assert_eq!(vector, 0x100 + 4 * VECTOR_STRIDE);
        assert_eq!(
            bank,
            Bank {
                pc: 0x8004,
                status: before
            }
        );
        assert_eq!((cpu.level, cpu.irq_enabled), (Privilege::Kernel, false));
        cpu.flags.z = false;
        assert_eq!(bank.leave(&mut cpu), 0x8004);
        assert_eq!(cpu.status(), before);
    }
}
