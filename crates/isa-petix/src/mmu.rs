//! petix MMU: a plain x86-style two-level page-table walk (1024-entry
//! page directory of 4 MB regions, 1024-entry page tables of 4 KB
//! pages), plus a host-side table builder.
//!
//! Deliberately simpler than armlet's two-format walk with domains: the
//! paper contrasts QEMU's "quite complex" ARM lookups with simpler MMU
//! models, and the two walkers preserve that asymmetry.

use simbench_core::bus::Bus;
use simbench_core::fault::{AccessKind, FaultKind, MemFault};
use simbench_core::ir::MemSize;
pub use simbench_core::mmu::PtFlags;
use simbench_core::mmu::{self, Perms, PteEncoding, TlbEntry, WalkResult};
use simbench_core::{page_of, PAGE_SHIFT};

use crate::sys::PetixSys;

const P_PRESENT: u32 = 1 << 0;
const P_WRITE: u32 = 1 << 1;
const P_USER: u32 = 1 << 2;
const P_NX: u32 = 1 << 3;

fn fault(va: u32, kind: FaultKind) -> MemFault {
    MemFault {
        addr: va,
        access: AccessKind::Read,
        kind,
    }
}

/// Walk the petix page tables for `va`.
///
/// # Errors
///
/// Not-present faults ([`FaultKind::Unmapped`]) and walk bus errors.
pub fn walk<B: Bus>(sys: &PetixSys, bus: &mut B, va: u32) -> WalkResult {
    let dir_base = sys.cr3 & !0xFFF;
    let dir_index = va >> 22;
    let pde = bus
        .read(dir_base + dir_index * 4, MemSize::B4)
        .map_err(|_| fault(va, FaultKind::BusError))?;
    if pde & P_PRESENT == 0 {
        return Err(fault(va, FaultKind::Unmapped));
    }
    let table_base = pde & !0xFFF;
    let table_index = (va >> PAGE_SHIFT) & 0x3FF;
    let pte = bus
        .read(table_base + table_index * 4, MemSize::B4)
        .map_err(|_| fault(va, FaultKind::BusError))?;
    if pte & P_PRESENT == 0 {
        return Err(fault(va, FaultKind::Unmapped));
    }

    // Effective flags AND across levels, x86-style.
    let write = pde & pte & P_WRITE != 0;
    let user = pde & pte & P_USER != 0;
    let nx = (pde | pte) & P_NX != 0;

    let kernel = Perms {
        r: true,
        w: write,
        x: !nx,
    };
    let user_p = if user {
        Perms {
            r: true,
            w: write,
            x: !nx,
        }
    } else {
        Perms::NONE
    };

    Ok(TlbEntry {
        vpage: page_of(va),
        ppage: pte >> PAGE_SHIFT,
        user: user_p,
        kernel,
    })
}

/// petix entry encodings for [`TableBuilder`].
#[derive(Debug)]
pub enum PetixPte {}

impl PteEncoding for PetixPte {
    /// Directory entries are permissive; leaf entries restrict.
    fn dir(table: u32) -> u32 {
        table | P_PRESENT | P_WRITE | P_USER
    }

    fn leaf(pa: u32, flags: PtFlags) -> u32 {
        pa | P_PRESENT
            | if flags.write { P_WRITE } else { 0 }
            | if flags.user { P_USER } else { 0 }
            | if flags.nx { P_NX } else { 0 }
    }
}

/// Builds petix page tables: the page directory occupies the first 4 KB
/// at the base (the CR3 value); page tables follow.
pub type TableBuilder = mmu::TableBuilder<PetixPte>;

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::bus::FlatRam;

    const TBASE: u32 = 0x10_0000;

    fn setup(build: impl FnOnce(&mut TableBuilder)) -> (PetixSys, FlatRam) {
        let mut tb = TableBuilder::new(TBASE);
        build(&mut tb);
        let (base, blob) = tb.into_blob();
        let mut ram = FlatRam::new(8 << 20);
        ram.ram_mut()[base as usize..base as usize + blob.len()].copy_from_slice(&blob);
        let sys = PetixSys {
            cr3: base,
            cr0: 1,
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
    fn directory_entries_stay_permissive_whichever_mapping_comes_first() {
        // Slot 1's first mapping is kernel-only and never executable,
        // slot 2's is full access: both directory entries are the same
        // permissive pointer, and the leaf entries alone restrict.
        let (sys, mut ram) = setup(|tb| {
            tb.map_page(0x40_0000, 0x1000, PtFlags::KERNEL_DEVICE);
            tb.map_page(0x40_1000, 0x2000, PtFlags::USER_FULL);
            tb.map_page(0x80_0000, 0x3000, PtFlags::USER_FULL);
            tb.map_page(0x80_1000, 0x4000, PtFlags::KERNEL_DEVICE);
        });
        for (slot, table) in [(1, TBASE + 0x1000), (2, TBASE + 0x2000)] {
            let pde = ram.read(TBASE + slot * 4, MemSize::B4).unwrap();
            assert_eq!(pde, table | P_PRESENT | P_WRITE | P_USER, "slot {slot}");
        }
        for va in [0x40_1000, 0x80_0000] {
            let e = walk(&sys, &mut ram, va).unwrap();
            assert!(e.user.w && e.user.x, "{va:#x}");
        }
        for va in [0x40_0000, 0x80_1000] {
            let e = walk(&sys, &mut ram, va).unwrap();
            assert!(e.user == Perms::NONE && !e.kernel.x, "{va:#x}");
        }
    }

    #[test]
    fn map_range_spans_directories() {
        // Map 8 MB: crosses a 4 MB directory boundary → two tables.
        let (sys, mut ram) =
            setup(|tb| tb.map_range(0x40_0000, 0x40_0000, 8 << 20, PtFlags::KERNEL));
        assert!(walk(&sys, &mut ram, 0x40_0000).is_ok());
        assert!(walk(&sys, &mut ram, 0x7F_F000).is_ok());
        assert!(walk(&sys, &mut ram, 0xBF_F000).is_ok());
        assert!(walk(&sys, &mut ram, 0xC0_0000).is_err());
    }

    #[test]
    fn walk_outside_ram_is_bus_error() {
        let sys = PetixSys {
            cr3: 0x70_0000,
            cr0: 1,
            ..Default::default()
        };
        let mut ram = FlatRam::new(1 << 20);
        assert_eq!(
            walk(&sys, &mut ram, 0x1000).unwrap_err().kind,
            FaultKind::BusError
        );
    }
}
