//! # simbench-platform
//!
//! The simulated hardware platform every engine runs against: RAM at
//! physical address zero plus a small set of memory-mapped devices. This
//! is the analogue of the paper's platform support package (§II-C): it
//! provides the serial connection to the host, an interrupt controller
//! capable of software-generated interrupts, and a side-effect-free
//! "safe device" for the memory-mapped I/O benchmark. No device reads
//! host time, so every run is a function of its image alone.
//!
//! ## Memory map
//!
//! | Physical range            | Device |
//! |---------------------------|--------|
//! | `0x0000_0000..ram_size`   | RAM    |
//! | `0xF000_0000` (1 page)    | UART   |
//! | `0xF000_1000` (1 page)    | INTC   |
//! | `0xF000_2000` (1 page)    | none (a hole) |
//! | `0xF000_3000` (1 page)    | Safe device (ID/scratch registers) |
//! | `0xF000_4000` (1 page)    | Control (benchmark phase marks)    |
//!
//! Every other address is a hole: an access there is a bus error.
//!
//! ## Example
//!
//! ```
//! use simbench_core::bus::Bus;
//! use simbench_core::ir::MemSize;
//! use simbench_platform::{devices::SAFEDEV_ID, Platform, SAFEDEV_BASE};
//!
//! let mut p = Platform::with_ram(1 << 20);
//! let id = p.read(SAFEDEV_BASE, MemSize::B4).unwrap();
//! assert_eq!(id, SAFEDEV_ID);
//! ```

pub mod devices;
mod ram;

use simbench_core::bus::{bus_error, ram_load, Bus, BusEvent};
use simbench_core::fault::{AccessKind, MemFault};
use simbench_core::ir::MemSize;

use devices::{Ctl, Intc, SafeDev, Uart};
use ram::Ram;

/// Base physical address of the device region.
pub const DEVICE_BASE: u32 = 0xF000_0000;
/// UART base.
pub const UART_BASE: u32 = 0xF000_0000;
/// Interrupt controller base.
pub const INTC_BASE: u32 = 0xF000_1000;
/// Safe (side-effect-free) device base.
pub const SAFEDEV_BASE: u32 = 0xF000_3000;
/// Benchmark control device base.
pub const CTL_BASE: u32 = 0xF000_4000;
/// Default RAM size: 96 MiB, enough for the suite's 16 MiB cold region,
/// page tables for armlet, petix and riscle, and application heaps.
pub const DEFAULT_RAM: u32 = 96 << 20;

/// The platform: RAM plus devices, implementing [`Bus`].
#[derive(Debug)]
pub struct Platform {
    ram: Ram,
    /// Serial port.
    pub uart: Uart,
    /// Interrupt controller.
    pub intc: Intc,
    /// Side-effect-free benchmark device.
    pub safedev: SafeDev,
    /// Benchmark phase-control device.
    pub ctl: Ctl,
}

impl Platform {
    /// A platform with [`DEFAULT_RAM`] bytes of RAM.
    pub fn new() -> Self {
        Self::with_ram(DEFAULT_RAM as usize)
    }

    /// A platform with `ram_size` bytes of RAM.
    ///
    /// # Panics
    ///
    /// Panics if `ram_size` would overlap the device region.
    pub fn with_ram(ram_size: usize) -> Self {
        assert!(
            (ram_size as u64) <= DEVICE_BASE as u64,
            "RAM overlaps device region"
        );
        Platform {
            ram: Ram::take(ram_size),
            uart: Uart::new(),
            intc: Intc::new(),
            safedev: SafeDev::new(),
            ctl: Ctl::new(),
        }
    }

    fn device_read(&mut self, pa: u32, size: MemSize) -> Result<u32, MemFault> {
        let off = pa & 0xFFF;
        match pa & !0xFFF {
            UART_BASE => Ok(self.uart.read(off)),
            INTC_BASE => Ok(self.intc.read(off)),
            SAFEDEV_BASE => Ok(self.safedev.read(off)),
            CTL_BASE => Ok(self.ctl.read(off)),
            _ => Err(bus_error(pa, AccessKind::Read)),
        }
        .map(|v| match size {
            MemSize::B1 => v & 0xFF,
            MemSize::B2 => v & 0xFFFF,
            MemSize::B4 => v,
        })
    }

    fn device_write(
        &mut self,
        pa: u32,
        val: u32,
        _size: MemSize,
    ) -> Result<Option<BusEvent>, MemFault> {
        let off = pa & 0xFFF;
        match pa & !0xFFF {
            UART_BASE => {
                self.uart.write(off, val);
                Ok(None)
            }
            INTC_BASE => {
                self.intc.write(off, val);
                Ok(Some(BusEvent::IrqLine))
            }
            SAFEDEV_BASE => {
                self.safedev.write(off, val);
                Ok(None)
            }
            CTL_BASE => Ok(self.ctl.write(off, val).map(BusEvent::PhaseMark)),
            _ => Err(bus_error(pa, AccessKind::Write)),
        }
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::new()
    }
}

impl Bus for Platform {
    fn ram(&self) -> &[u8] {
        self.ram.bytes()
    }

    fn ram_mut(&mut self) -> &mut [u8] {
        self.ram.untracked()
    }

    fn load(&mut self, addr: u32, bytes: &[u8]) {
        self.ram.load(addr, bytes);
    }

    fn read(&mut self, pa: u32, size: MemSize) -> Result<u32, MemFault> {
        if let Some(val) = ram_load(self.ram.bytes(), pa, size) {
            Ok(val)
        } else if pa >= DEVICE_BASE {
            self.device_read(pa, size)
        } else {
            Err(bus_error(pa, AccessKind::Read))
        }
    }

    fn write(&mut self, pa: u32, val: u32, size: MemSize) -> Result<Option<BusEvent>, MemFault> {
        if (pa as u64) + size.bytes() as u64 <= self.ram.bytes().len() as u64 {
            self.ram.write(pa, val, size);
            Ok(None)
        } else if pa >= DEVICE_BASE {
            self.device_write(pa, val, size)
        } else {
            Err(bus_error(pa, AccessKind::Write))
        }
    }

    fn irq_pending(&self) -> bool {
        self.intc.line_asserted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devices::{INTC_ACK, INTC_ENABLE, INTC_PENDING, INTC_TRIGGER};

    #[test]
    fn ram_read_write() {
        let mut p = Platform::with_ram(1 << 16);
        p.write(0x100, 0x1234_5678, MemSize::B4).unwrap();
        assert_eq!(p.read(0x100, MemSize::B4).unwrap(), 0x1234_5678);
        assert_eq!(p.read(0x100, MemSize::B1).unwrap(), 0x78);
    }

    #[test]
    fn hole_between_ram_and_devices_is_bus_error() {
        let mut p = Platform::with_ram(1 << 16);
        // Above RAM, between the UART/INTC and the safe device, and one
        // past the last device page.
        for pa in [0x10_0000, 0xF000_2000, CTL_BASE + 0x1000] {
            assert!(p.read(pa, MemSize::B4).is_err(), "{pa:#x}");
            assert!(p.write(pa, 0, MemSize::B4).is_err(), "{pa:#x}");
        }
    }

    #[test]
    fn uart_collects_console_output() {
        let mut p = Platform::with_ram(4096);
        for b in b"hi" {
            p.write(UART_BASE, *b as u32, MemSize::B4).unwrap();
        }
        assert_eq!(p.uart.output(), b"hi");
    }

    #[test]
    fn intc_software_interrupt_flow() {
        let mut p = Platform::with_ram(4096);
        assert!(!p.irq_pending());
        // Enable line 0 then trigger it.
        p.write(INTC_BASE + INTC_ENABLE, 1, MemSize::B4).unwrap();
        let ev = p.write(INTC_BASE + INTC_TRIGGER, 1, MemSize::B4).unwrap();
        assert_eq!(ev, Some(BusEvent::IrqLine));
        assert!(p.irq_pending());
        assert_eq!(p.read(INTC_BASE + INTC_PENDING, MemSize::B4).unwrap(), 1);
        // Ack clears.
        p.write(INTC_BASE + INTC_ACK, 1, MemSize::B4).unwrap();
        assert!(!p.irq_pending());
    }

    #[test]
    fn disabled_interrupt_does_not_assert_line() {
        let mut p = Platform::with_ram(4096);
        p.write(INTC_BASE + INTC_TRIGGER, 1, MemSize::B4).unwrap();
        assert!(!p.irq_pending(), "pending but masked");
        p.write(INTC_BASE + INTC_ENABLE, 1, MemSize::B4).unwrap();
        assert!(p.irq_pending(), "unmasking exposes pending");
    }

    #[test]
    fn safedev_id_and_scratch() {
        let mut p = Platform::with_ram(4096);
        assert_eq!(
            p.read(SAFEDEV_BASE, MemSize::B4).unwrap(),
            devices::SAFEDEV_ID
        );
        p.write(SAFEDEV_BASE + 4, 0x77, MemSize::B4).unwrap();
        assert_eq!(p.read(SAFEDEV_BASE + 4, MemSize::B4).unwrap(), 0x77);
        // ID register is read-only.
        p.write(SAFEDEV_BASE, 0, MemSize::B4).unwrap();
        assert_eq!(
            p.read(SAFEDEV_BASE, MemSize::B4).unwrap(),
            devices::SAFEDEV_ID
        );
    }

    #[test]
    fn ctl_phase_marks() {
        let mut p = Platform::with_ram(4096);
        let ev = p.write(CTL_BASE, 1, MemSize::B4).unwrap();
        assert_eq!(ev, Some(BusEvent::PhaseMark(1)));
        let ev = p.write(CTL_BASE, 2, MemSize::B4).unwrap();
        assert_eq!(ev, Some(BusEvent::PhaseMark(2)));
    }

    #[test]
    fn narrow_device_reads_mask() {
        let mut p = Platform::with_ram(4096);
        let full = p.read(SAFEDEV_BASE, MemSize::B4).unwrap();
        assert_eq!(p.read(SAFEDEV_BASE, MemSize::B1).unwrap(), full & 0xFF);
        assert_eq!(p.read(SAFEDEV_BASE, MemSize::B2).unwrap(), full & 0xFFFF);
    }

    #[test]
    #[should_panic(expected = "overlaps device region")]
    fn oversized_ram_rejected() {
        let _ = Platform::with_ram(0xF800_0000);
    }
}
