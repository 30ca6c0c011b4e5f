//! riscle MMU: an sv32-flavoured two-level page-table walk (1024-entry
//! root table of 4 MB regions, 1024-entry leaf tables of 4 KB pages),
//! plus a host-side table builder.
//!
//! Unlike petix's x86-style walk, permissions live entirely in the leaf
//! PTE (R/W/X/U bits, RISC-V style); non-leaf entries are bare pointers
//! with only the valid bit set. Like the petix walker it is much
//! simpler than armlet's two-format walk with domains — the paper's
//! observation about QEMU's "quite complex" ARM lookups versus simpler
//! MMU models holds across all three guests.

use simbench_core::bus::Bus;
use simbench_core::fault::{AccessKind, FaultKind, MemFault};
use simbench_core::ir::MemSize;
pub use simbench_core::mmu::PtFlags;
use simbench_core::mmu::{self, Perms, PteEncoding, TlbEntry, WalkResult};
use simbench_core::{page_of, PAGE_SHIFT};

use crate::sys::RiscleSys;

const P_VALID: u32 = 1 << 0;
const P_READ: u32 = 1 << 1;
const P_WRITE: u32 = 1 << 2;
const P_EXEC: u32 = 1 << 3;
const P_USER: u32 = 1 << 4;

fn fault(va: u32, kind: FaultKind) -> MemFault {
    MemFault {
        addr: va,
        access: AccessKind::Read,
        kind,
    }
}

/// Walk the riscle page tables for `va`.
///
/// # Errors
///
/// Not-present faults ([`FaultKind::Unmapped`]) and walk bus errors.
pub fn walk<B: Bus>(sys: &RiscleSys, bus: &mut B, va: u32) -> WalkResult {
    let root = sys.ttb & !0xFFF;
    let l1_index = va >> 22;
    let pde = bus
        .read(root + l1_index * 4, MemSize::B4)
        .map_err(|_| fault(va, FaultKind::BusError))?;
    if pde & P_VALID == 0 {
        return Err(fault(va, FaultKind::Unmapped));
    }
    let table = pde & !0xFFF;
    let l2_index = (va >> PAGE_SHIFT) & 0x3FF;
    let pte = bus
        .read(table + l2_index * 4, MemSize::B4)
        .map_err(|_| fault(va, FaultKind::BusError))?;
    if pte & P_VALID == 0 {
        return Err(fault(va, FaultKind::Unmapped));
    }

    // Leaf-only permissions, RISC-V style.
    let perms = Perms {
        r: pte & P_READ != 0,
        w: pte & P_WRITE != 0,
        x: pte & P_EXEC != 0,
    };
    let user = if pte & P_USER != 0 {
        perms
    } else {
        Perms::NONE
    };

    Ok(TlbEntry {
        vpage: page_of(va),
        ppage: pte >> PAGE_SHIFT,
        user,
        kernel: perms,
    })
}

/// riscle entry encodings for [`TableBuilder`].
#[derive(Debug)]
pub enum RisclePte {}

impl PteEncoding for RisclePte {
    /// Non-leaf entries are bare pointers: valid bit only.
    fn dir(table: u32) -> u32 {
        table | P_VALID
    }

    fn leaf(pa: u32, flags: PtFlags) -> u32 {
        pa | P_VALID
            | P_READ
            | if flags.write { P_WRITE } else { 0 }
            | if flags.user { P_USER } else { 0 }
            | if flags.nx { 0 } else { P_EXEC }
    }
}

/// Builds riscle page tables: the root table occupies the first 4 KB at
/// the base (the TTB value); leaf tables follow.
pub type TableBuilder = mmu::TableBuilder<RisclePte>;

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::bus::FlatRam;

    const TBASE: u32 = 0x10_0000;

    fn setup(build: impl FnOnce(&mut TableBuilder)) -> (RiscleSys, FlatRam) {
        let mut tb = TableBuilder::new(TBASE);
        build(&mut tb);
        let (base, blob) = tb.into_blob();
        let mut ram = FlatRam::new(8 << 20);
        ram.ram_mut()[base as usize..base as usize + blob.len()].copy_from_slice(&blob);
        let sys = RiscleSys {
            ttb: base,
            ctrl: 1,
            ..Default::default()
        };
        (sys, ram)
    }

    #[test]
    fn basic_translation() {
        let (sys, mut ram) = setup(|tb| tb.map_page(0x40_0000, 0x1000, PtFlags::USER_FULL));
        let e = walk(&sys, &mut ram, 0x40_0ABC).unwrap();
        assert_eq!(e.translate(0x40_0ABC), 0x1ABC);
        assert!(e.user.w && e.kernel.w && e.user.x);
    }

    #[test]
    fn not_present_faults() {
        let (sys, mut ram) = setup(|tb| tb.map_page(0x40_0000, 0x1000, PtFlags::USER_FULL));
        assert_eq!(
            walk(&sys, &mut ram, 0x40_1000).unwrap_err().kind,
            FaultKind::Unmapped
        );
        assert_eq!(
            walk(&sys, &mut ram, 0x80_0000).unwrap_err().kind,
            FaultKind::Unmapped
        );
    }

    #[test]
    fn kernel_only_and_nx() {
        let (sys, mut ram) = setup(|tb| {
            tb.map_page(0x40_0000, 0x1000, PtFlags::KERNEL);
            tb.map_page(0x40_1000, 0x2000, PtFlags::KERNEL_DEVICE);
            tb.map_page(0x40_2000, 0x3000, PtFlags::READ_ONLY);
        });
        let e = walk(&sys, &mut ram, 0x40_0000).unwrap();
        assert_eq!(e.user, Perms::NONE);
        assert!(e.kernel.w && e.kernel.x);
        let e = walk(&sys, &mut ram, 0x40_1000).unwrap();
        assert!(e.kernel.w && !e.kernel.x, "NX strips execute");
        let e = walk(&sys, &mut ram, 0x40_2000).unwrap();
        assert!(!e.kernel.w && e.user.r && !e.user.w);
    }

    #[test]
    fn map_range_spans_directories() {
        // Map 8 MB: crosses a 4 MB root-entry boundary → two tables.
        let (sys, mut ram) =
            setup(|tb| tb.map_range(0x40_0000, 0x40_0000, 8 << 20, PtFlags::KERNEL));
        assert!(walk(&sys, &mut ram, 0x40_0000).is_ok());
        assert!(walk(&sys, &mut ram, 0x7F_F000).is_ok());
        assert!(walk(&sys, &mut ram, 0xBF_F000).is_ok());
        assert!(walk(&sys, &mut ram, 0xC0_0000).is_err());
    }

    #[test]
    fn walk_outside_ram_is_bus_error() {
        let sys = RiscleSys {
            ttb: 0x70_0000,
            ctrl: 1,
            ..Default::default()
        };
        let mut ram = FlatRam::new(1 << 20);
        assert_eq!(
            walk(&sys, &mut ram, 0x1000).unwrap_err().kind,
            FaultKind::BusError
        );
    }
}
