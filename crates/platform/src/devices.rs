//! The platform's memory-mapped devices.
//!
//! Register offsets are within each device's 4 KB page.

use std::time::Instant;

/// UART data register (write: transmit byte; read: 0).
const UART_DATA: u32 = 0x0;
/// UART status register (read: always ready).
const UART_STATUS: u32 = 0x4;

/// A write-only serial port capturing guest output for the host harness.
#[derive(Debug, Default)]
pub struct Uart {
    out: Vec<u8>,
}

impl Uart {
    /// New, empty UART.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes transmitted so far.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// Register read.
    pub fn read(&mut self, off: u32) -> u32 {
        match off {
            UART_STATUS => 1, // always ready to transmit
            _ => 0,
        }
    }

    /// Register write.
    pub fn write(&mut self, off: u32, val: u32) {
        if off == UART_DATA {
            self.out.push(val as u8);
        }
    }
}

/// INTC pending register (read-only).
pub const INTC_PENDING: u32 = 0x0;
/// INTC enable mask (read/write).
pub const INTC_ENABLE: u32 = 0x4;
/// INTC software trigger (write: OR bits into pending).
pub const INTC_TRIGGER: u32 = 0x8;
/// INTC acknowledge (write: clear pending bits).
pub const INTC_ACK: u32 = 0xC;

/// A 32-line interrupt controller with software-generated interrupts —
/// the mechanism behind the External Software Interrupt benchmark.
#[derive(Debug, Default)]
pub struct Intc {
    pending: u32,
    enable: u32,
}

impl Intc {
    /// New controller, all lines masked and clear.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when any enabled line is pending.
    pub fn line_asserted(&self) -> bool {
        self.pending & self.enable != 0
    }

    /// Register read.
    pub fn read(&mut self, off: u32) -> u32 {
        match off {
            INTC_PENDING => self.pending,
            INTC_ENABLE => self.enable,
            _ => 0,
        }
    }

    /// Register write.
    pub fn write(&mut self, off: u32, val: u32) {
        match off {
            INTC_ENABLE => self.enable = val,
            INTC_TRIGGER => self.pending |= val,
            INTC_ACK => self.pending &= !val,
            _ => {}
        }
    }
}

/// Timer nanoseconds, low word.
const TIMER_NS_LO: u32 = 0x0;
/// Timer nanoseconds, high word (latched by the preceding low-word read).
const TIMER_NS_HI: u32 = 0x4;

/// Free-running nanosecond timer backed by the host monotonic clock.
///
/// Reading `TIMER_NS_LO` latches the full 64-bit value so a subsequent
/// `TIMER_NS_HI` read is coherent.
#[derive(Debug)]
pub struct Timer {
    epoch: Instant,
    latched_hi: u32,
}

impl Timer {
    /// A timer starting now.
    pub fn new() -> Self {
        Timer {
            epoch: Instant::now(),
            latched_hi: 0,
        }
    }

    /// Register read.
    pub fn read(&mut self, off: u32) -> u32 {
        match off {
            TIMER_NS_LO => {
                let ns = self.epoch.elapsed().as_nanos() as u64;
                self.latched_hi = (ns >> 32) as u32;
                ns as u32
            }
            TIMER_NS_HI => self.latched_hi,
            _ => 0,
        }
    }

    /// Register write (ignored; the timer is read-only).
    pub fn write(&mut self, _off: u32, _val: u32) {}
}

impl Default for Timer {
    fn default() -> Self {
        Self::new()
    }
}

/// Safe device ID register offset.
const SAFEDEV_ID_REG: u32 = 0x0;
/// Safe device scratch register offset.
const SAFEDEV_SCRATCH: u32 = 0x4;
/// The constant device ID ("SB" + version), chosen to be non-zero and
/// non-trivial so engines cannot legally constant-fold it without
/// device-model knowledge.
pub const SAFEDEV_ID: u32 = 0x5342_0107;

/// The paper's "safe device": side-effect-free registers whose access
/// cost is exactly the platform's MMIO dispatch cost.
#[derive(Debug, Default)]
pub struct SafeDev {
    scratch: u32,
    accesses: u64,
}

impl SafeDev {
    /// New device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of register accesses observed (diagnostics).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Register read.
    pub fn read(&mut self, off: u32) -> u32 {
        self.accesses += 1;
        match off {
            SAFEDEV_ID_REG => SAFEDEV_ID,
            SAFEDEV_SCRATCH => self.scratch,
            _ => 0,
        }
    }

    /// Register write.
    pub fn write(&mut self, off: u32, val: u32) {
        self.accesses += 1;
        if off == SAFEDEV_SCRATCH {
            self.scratch = val;
        }
    }
}

/// Control device phase register: the guest writes 1 when its timed
/// kernel begins and 2 when it ends.
const CTL_PHASE: u32 = 0x0;
/// Control device result register: benchmarks may deposit a checksum the
/// harness can read back.
const CTL_RESULT: u32 = 0x4;

/// Benchmark phase-control device.
#[derive(Debug, Default)]
pub struct Ctl {
    result: u32,
    marks: Vec<u8>,
}

impl Ctl {
    /// New control device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase marks written so far.
    pub fn marks(&self) -> &[u8] {
        &self.marks
    }

    /// The guest-deposited result value.
    pub fn result(&self) -> u32 {
        self.result
    }

    /// Register read.
    pub fn read(&mut self, off: u32) -> u32 {
        match off {
            CTL_RESULT => self.result,
            _ => 0,
        }
    }

    /// Register write. Returns the phase mark to surface as a bus event.
    pub fn write(&mut self, off: u32, val: u32) -> Option<u8> {
        match off {
            CTL_PHASE => {
                let m = val as u8;
                self.marks.push(m);
                Some(m)
            }
            CTL_RESULT => {
                self.result = val;
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uart_transmit() {
        let mut u = Uart::new();
        u.write(UART_DATA, b'x' as u32);
        u.write(UART_DATA, b'y' as u32);
        assert_eq!(u.output(), b"xy");
        assert_eq!(u.read(UART_STATUS), 1);
    }

    #[test]
    fn intc_mask_semantics() {
        let mut i = Intc::new();
        i.write(INTC_TRIGGER, 0b101);
        assert_eq!(i.read(INTC_PENDING), 0b101);
        assert!(!i.line_asserted());
        i.write(INTC_ENABLE, 0b001);
        assert!(i.line_asserted());
        i.write(INTC_ACK, 0b001);
        assert_eq!(i.read(INTC_PENDING), 0b100);
        assert!(!i.line_asserted());
    }

    #[test]
    fn timer_latch_coherent() {
        let mut t = Timer::new();
        let lo = t.read(TIMER_NS_LO);
        let hi = t.read(TIMER_NS_HI);
        let total = ((hi as u64) << 32) | lo as u64;
        assert!(
            total < 60_000_000_000,
            "fresh timer should read well under a minute"
        );
    }

    #[test]
    fn safedev_counts_accesses() {
        let mut d = SafeDev::new();
        assert_eq!(d.read(SAFEDEV_ID_REG), SAFEDEV_ID);
        d.write(SAFEDEV_SCRATCH, 5);
        assert_eq!(d.read(SAFEDEV_SCRATCH), 5);
        assert_eq!(d.accesses(), 3);
    }

    #[test]
    fn ctl_records_marks_and_result() {
        let mut c = Ctl::new();
        assert_eq!(c.write(CTL_PHASE, 1), Some(1));
        assert_eq!(c.write(CTL_RESULT, 42), None);
        assert_eq!(c.write(CTL_PHASE, 2), Some(2));
        assert_eq!(c.marks(), &[1, 2]);
        assert_eq!(c.result(), 42);
        assert_eq!(c.read(CTL_RESULT), 42);
    }
}
