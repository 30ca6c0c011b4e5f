//! Physical memory bus abstraction.
//!
//! A [`Bus`] decodes physical addresses into RAM or memory-mapped devices.
//! The concrete implementation lives in `simbench-platform`; this trait
//! keeps the engines testable against trivial flat-memory fixtures.

use crate::fault::{AccessKind, FaultKind, MemFault};
use crate::ir::MemSize;

/// Side effects a store can raise that the executing engine must observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusEvent {
    /// The guest marked a benchmark phase transition (see the `ctl`
    /// device): 1 = timed kernel begins, 2 = timed kernel ends.
    PhaseMark(u8),
    /// The interrupt controller's output line may have changed; the
    /// engine should re-sample [`Bus::irq_pending`].
    IrqLine,
}

/// A physical address decoder with byte-addressable RAM at the bottom of
/// the address space and devices above it.
pub trait Bus {
    /// Bytes of RAM, mapped at physical address zero.
    fn ram(&self) -> &[u8];

    /// Mutable view of RAM.
    fn ram_mut(&mut self) -> &mut [u8];

    /// Copy `bytes` into RAM at physical address `addr`, outside guest
    /// execution (image loading). A bus that tracks which of its pages
    /// were written overrides this to record the range.
    ///
    /// # Panics
    ///
    /// Panics if the range lies outside RAM.
    fn load(&mut self, addr: u32, bytes: &[u8]) {
        let start = addr as usize;
        self.ram_mut()[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// RAM size in bytes. Physical addresses at or above this decode to
    /// devices (or nothing).
    fn ram_size(&self) -> u32 {
        self.ram().len() as u32
    }

    /// True if the physical address decodes to a device rather than RAM.
    fn is_mmio(&self, pa: u32) -> bool {
        pa >= self.ram_size()
    }

    /// Read `size` bytes at physical address `pa` (little-endian,
    /// zero-extended).
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] with [`FaultKind::BusError`] if nothing
    /// decodes at `pa`.
    fn read(&mut self, pa: u32, size: MemSize) -> Result<u32, MemFault>;

    /// Write the low `size` bytes of `val` at physical address `pa`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] with [`FaultKind::BusError`] if nothing
    /// decodes at `pa`.
    fn write(&mut self, pa: u32, val: u32, size: MemSize) -> Result<Option<BusEvent>, MemFault>;

    /// Level of the external interrupt line.
    fn irq_pending(&self) -> bool;
}

/// Construct the bus-error fault for an undecodable physical access.
pub fn bus_error(pa: u32, access: AccessKind) -> MemFault {
    MemFault {
        addr: pa,
        access,
        kind: FaultKind::BusError,
    }
}

/// Read little-endian from a RAM slice. Caller guarantees bounds.
#[inline]
pub fn ram_read(ram: &[u8], pa: u32, size: MemSize) -> u32 {
    let i = pa as usize;
    match size {
        MemSize::B1 => ram[i] as u32,
        MemSize::B2 => u16::from_le_bytes([ram[i], ram[i + 1]]) as u32,
        MemSize::B4 => u32::from_le_bytes([ram[i], ram[i + 1], ram[i + 2], ram[i + 3]]),
    }
}

/// Write little-endian into a RAM slice. Caller guarantees bounds.
#[inline]
pub fn ram_write(ram: &mut [u8], pa: u32, val: u32, size: MemSize) {
    let i = pa as usize;
    match size {
        MemSize::B1 => ram[i] = val as u8,
        MemSize::B2 => ram[i..i + 2].copy_from_slice(&(val as u16).to_le_bytes()),
        MemSize::B4 => ram[i..i + 4].copy_from_slice(&val.to_le_bytes()),
    }
}

/// A trivial RAM-only bus for unit tests and the MMU walkers' doctests.
#[derive(Debug, Clone)]
pub struct FlatRam {
    mem: Vec<u8>,
}

impl FlatRam {
    /// A flat RAM of `size` zeroed bytes.
    pub fn new(size: usize) -> Self {
        FlatRam { mem: vec![0; size] }
    }
}

impl Bus for FlatRam {
    fn ram(&self) -> &[u8] {
        &self.mem
    }

    fn ram_mut(&mut self) -> &mut [u8] {
        &mut self.mem
    }

    fn read(&mut self, pa: u32, size: MemSize) -> Result<u32, MemFault> {
        if pa
            .checked_add(size.bytes())
            .is_none_or(|end| end > self.ram_size())
        {
            return Err(bus_error(pa, AccessKind::Read));
        }
        Ok(ram_read(&self.mem, pa, size))
    }

    fn write(&mut self, pa: u32, val: u32, size: MemSize) -> Result<Option<BusEvent>, MemFault> {
        if pa
            .checked_add(size.bytes())
            .is_none_or(|end| end > self.ram_size())
        {
            return Err(bus_error(pa, AccessKind::Write));
        }
        ram_write(&mut self.mem, pa, val, size);
        Ok(None)
    }

    fn irq_pending(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_ram_rw() {
        let mut b = FlatRam::new(64);
        b.write(0, 0xdead_beef, MemSize::B4).unwrap();
        assert_eq!(b.read(0, MemSize::B4).unwrap(), 0xdead_beef);
        assert_eq!(b.read(0, MemSize::B1).unwrap(), 0xef, "little endian");
        assert_eq!(b.read(2, MemSize::B2).unwrap(), 0xdead);
    }

    #[test]
    fn flat_ram_bounds() {
        let mut b = FlatRam::new(16);
        assert!(b.read(16, MemSize::B1).is_err());
        assert!(b.read(13, MemSize::B4).is_err());
        assert!(b.write(u32::MAX, 0, MemSize::B4).is_err());
        assert_eq!(b.read(15, MemSize::B1).unwrap(), 0);
    }

    #[test]
    fn load_copies_into_ram() {
        let mut b = FlatRam::new(16);
        b.load(6, &[1, 2, 3]);
        b.load(16, &[]);
        assert_eq!(b.ram()[5..10], [0, 1, 2, 3, 0]);
    }

    #[test]
    #[should_panic]
    fn load_outside_ram_panics() {
        FlatRam::new(16).load(14, &[1, 2, 3]);
    }

    #[test]
    fn mmio_predicate() {
        let b = FlatRam::new(4096);
        assert!(!b.is_mmio(0));
        assert!(b.is_mmio(4096));
    }
}
