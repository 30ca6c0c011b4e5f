//! Architectural CPU state shared by every guest ISA.

use std::fmt;

/// Maximum number of general-purpose registers any supported ISA exposes.
/// `armlet` uses all 16; `petix` uses the first 8.
pub const MAX_GPRS: usize = 16;

/// Condition flags (NZCV), kept out of any status word so engines can
/// manipulate them without bit twiddling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Carry / no-borrow.
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            if self.n { 'N' } else { 'n' },
            if self.z { 'Z' } else { 'z' },
            if self.c { 'C' } else { 'c' },
            if self.v { 'V' } else { 'v' },
        )
    }
}

/// Guest privilege level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Privilege {
    /// Unprivileged (user / ring 3) execution.
    User,
    /// Privileged (supervisor / ring 0) execution. The default out of reset.
    #[default]
    Kernel,
}

impl Privilege {
    /// True for [`Privilege::Kernel`].
    #[inline]
    pub fn is_kernel(self) -> bool {
        matches!(self, Privilege::Kernel)
    }
}

/// The portion of processor status banked on exception entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Condition flags.
    pub flags: Flags,
    /// Privilege level.
    pub level: Privilege,
    /// Whether asynchronous interrupts are accepted.
    pub irq_enabled: bool,
}

impl Status {
    /// The status word every guest's saved-status register holds:
    /// `N<<31 | Z<<30 | C<<29 | V<<28 | IRQ<<7 | USER<<4`.
    #[inline]
    pub fn word(self) -> u32 {
        (self.flags.n as u32) << 31
            | (self.flags.z as u32) << 30
            | (self.flags.c as u32) << 29
            | (self.flags.v as u32) << 28
            | (self.irq_enabled as u32) << 7
            | ((self.level == Privilege::User) as u32) << 4
    }

    /// Decode a [`Status::word`]; the other bits are ignored.
    #[inline]
    pub fn from_word(w: u32) -> Status {
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
}

/// Architectural CPU register state.
///
/// The program counter is held separately from the GPR file: neither guest
/// ISA exposes the PC as a general register (this deviates from classic
/// ARM but keeps the IR engine-agnostic, as documented under
/// "Substitutions" in the README).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    /// General-purpose registers. Unused high registers stay zero on ISAs
    /// with fewer than [`MAX_GPRS`] registers.
    pub regs: [u32; MAX_GPRS],
    /// Program counter (virtual address of the next instruction).
    pub pc: u32,
    /// Condition flags.
    pub flags: Flags,
    /// Current privilege level.
    pub level: Privilege,
    /// Whether IRQs are accepted.
    pub irq_enabled: bool,
}

impl CpuState {
    /// A CPU in its post-reset state: kernel mode, IRQs masked, executing
    /// from `entry`.
    pub fn at_reset(entry: u32) -> Self {
        CpuState {
            regs: [0; MAX_GPRS],
            pc: entry,
            flags: Flags::default(),
            level: Privilege::Kernel,
            irq_enabled: false,
        }
    }

    /// Snapshot of the bankable status.
    pub fn status(&self) -> Status {
        Status {
            flags: self.flags,
            level: self.level,
            irq_enabled: self.irq_enabled,
        }
    }

    /// Restore a banked status snapshot.
    pub fn restore_status(&mut self, s: Status) {
        self.flags = s.flags;
        self.level = s.level;
        self.irq_enabled = s.irq_enabled;
    }
}

impl Default for CpuState {
    fn default() -> Self {
        CpuState::at_reset(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state() {
        let c = CpuState::at_reset(0x8000);
        assert_eq!(c.pc, 0x8000);
        assert!(c.level.is_kernel());
        assert!(!c.irq_enabled);
        assert!(c.regs.iter().all(|&r| r == 0));
    }

    #[test]
    fn status_round_trip() {
        let mut c = CpuState::at_reset(0);
        c.flags.z = true;
        c.irq_enabled = true;
        c.level = Privilege::User;
        let s = c.status();
        let mut d = CpuState::at_reset(0);
        d.restore_status(s);
        assert_eq!(d.flags, c.flags);
        assert_eq!(d.level, Privilege::User);
        assert!(d.irq_enabled);
    }

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
        assert_eq!(s.word(), 0xA000_0090, "N, C, IRQ and USER bits");
        assert_eq!(Status::from_word(s.word()), s);
        let k = Status::default();
        assert_eq!((k.word(), Status::from_word(k.word())), (0, k));
    }

    #[test]
    fn flags_display() {
        let f = Flags {
            n: true,
            z: false,
            c: true,
            v: false,
        };
        assert_eq!(f.to_string(), "NzCv");
    }
}
