//! armlet MMU: ARMv5-style two-format page tables (1 MB sections and
//! 4 KB coarse pages) with domains, plus a host-side table builder.
//!
//! The deliberately rich walk — two formats, domain access control,
//! four-value AP decode, XN — mirrors the paper's observation that
//! QEMU's ARM page-table lookups are "quite complex" because the
//! architecture is; the petix walker is a plain two-level x86-style walk
//! by contrast.

use simbench_core::bus::Bus;
use simbench_core::fault::{AccessKind, FaultKind, MemFault};
use simbench_core::ir::MemSize;
use simbench_core::mmu::{Perms, TlbEntry, WalkResult};
use simbench_core::{page_of, PAGE_SHIFT};

use crate::sys::ArmletSys;

/// L1 descriptor type bits.
const L1_FAULT: u32 = 0b00;
const L1_COARSE: u32 = 0b01;
const L1_SECTION: u32 = 0b10;

/// L2 descriptor type bits.
const L2_FAULT: u32 = 0b00;
const L2_SMALL: u32 = 0b10;

/// Access-permission field decode: (kernel, user).
fn decode_ap(ap: u32) -> (Perms, Perms) {
    match ap & 0b11 {
        0b00 => (Perms::RW, Perms::NONE),
        0b01 => (Perms::RW, Perms::R),
        0b10 => (Perms::RW, Perms::RW),
        _ => (Perms::R, Perms::R),
    }
}

fn apply_xn(kernel: Perms, user: Perms, xn: bool) -> (Perms, Perms) {
    // Execute permission follows read permission unless XN is set.
    let x = |p: Perms| Perms { x: p.r && !xn, ..p };
    (x(kernel), x(user))
}

fn fault(va: u32, kind: FaultKind) -> MemFault {
    // The access kind is unknown to the walker; callers overwrite it.
    MemFault {
        addr: va,
        access: AccessKind::Read,
        kind,
    }
}

/// Walk the armlet page tables for `va`.
///
/// # Errors
///
/// Translation faults ([`FaultKind::Unmapped`]), domain faults
/// ([`FaultKind::Permission`]), and walk bus errors
/// ([`FaultKind::BusError`]).
pub fn walk<B: Bus>(sys: &ArmletSys, bus: &mut B, va: u32) -> WalkResult {
    let ttbr = sys.ttbr & !0x3FFF;
    let l1_index = va >> 20;
    let l1_addr = ttbr + l1_index * 4;
    let l1 = bus
        .read(l1_addr, MemSize::B4)
        .map_err(|_| fault(va, FaultKind::BusError))?;

    let (ppage, ap, xn, domain) = match l1 & 0b11 {
        L1_FAULT => return Err(fault(va, FaultKind::Unmapped)),
        L1_SECTION => {
            let base_page = (l1 & 0xFFF0_0000) >> PAGE_SHIFT;
            let in_section = (va >> PAGE_SHIFT) & 0xFF;
            let ap = (l1 >> 10) & 0b11;
            let xn = l1 & (1 << 4) != 0;
            let domain = (l1 >> 5) & 0xF;
            (base_page + in_section, ap, xn, domain)
        }
        L1_COARSE => {
            let l2_base = l1 & 0xFFFF_FC00;
            let l2_index = (va >> PAGE_SHIFT) & 0xFF;
            let l2_addr = l2_base + l2_index * 4;
            let l2 = bus
                .read(l2_addr, MemSize::B4)
                .map_err(|_| fault(va, FaultKind::BusError))?;
            match l2 & 0b11 {
                L2_FAULT => return Err(fault(va, FaultKind::Unmapped)),
                L2_SMALL => {
                    let ppage = l2 >> PAGE_SHIFT;
                    let ap = (l2 >> 4) & 0b11;
                    let xn = l2 & (1 << 2) != 0;
                    let domain = (l1 >> 5) & 0xF;
                    (ppage, ap, xn, domain)
                }
                _ => return Err(fault(va, FaultKind::Unmapped)),
            }
        }
        _ => return Err(fault(va, FaultKind::Unmapped)),
    };

    // Domain access control: 0 = no access, 1 = client (check AP),
    // 3 = manager (bypass AP).
    let (kernel, user) = match (sys.dacr >> (domain * 2)) & 0b11 {
        0b00 | 0b10 => return Err(fault(va, FaultKind::Permission)),
        0b01 => {
            let (k, u) = decode_ap(ap);
            apply_xn(k, u, xn)
        }
        _ => (Perms::RWX, Perms::RWX),
    };

    Ok(TlbEntry {
        vpage: page_of(va),
        ppage,
        user,
        kernel,
    })
}

/// Declarative access level for [`TableBuilder`] mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Kernel RW+X, user none (AP=0).
    KernelOnly,
    /// Kernel RW+X, user RO+X (AP=1).
    UserRead,
    /// Kernel RW+X, user RW+X (AP=2).
    UserFull,
    /// Read-only at both levels (AP=3).
    ReadOnly,
    /// Kernel RW, user none, execute-never (AP=0, XN).
    KernelDevice,
}

impl Access {
    fn ap_xn(self) -> (u32, bool) {
        match self {
            Access::KernelOnly => (0, false),
            Access::UserRead => (1, false),
            Access::UserFull => (2, false),
            Access::ReadOnly => (3, false),
            Access::KernelDevice => (0, true),
        }
    }
}

/// Builds armlet page tables as a flat byte blob to embed in a guest
/// image. The L1 table occupies the first 16 KB at `base`; coarse L2
/// tables are allocated after it.
#[derive(Debug)]
pub struct TableBuilder {
    base: u32,
    /// Table blob: L1 (16 KB) followed by L2 tables (1 KB each).
    blob: Vec<u8>,
    /// Map from L1 index to allocated L2 table address (if coarse).
    l2_of: Vec<Option<u32>>,
}

const L1_BYTES: u32 = 4096 * 4;
const L2_BYTES: u32 = 256 * 4;

impl TableBuilder {
    /// Start building tables at physical `base` (must be 16 KB aligned).
    ///
    /// # Panics
    ///
    /// Panics on misaligned `base`.
    pub fn new(base: u32) -> Self {
        assert_eq!(base & 0x3FFF, 0, "TTBR base must be 16 KB aligned");
        TableBuilder {
            base,
            blob: vec![0; L1_BYTES as usize],
            l2_of: vec![None; 4096],
        }
    }

    fn write_u32(&mut self, addr: u32, val: u32) {
        let off = (addr - self.base) as usize;
        self.blob[off..off + 4].copy_from_slice(&val.to_le_bytes());
    }

    fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr - self.base) as usize;
        u32::from_le_bytes(self.blob[off..off + 4].try_into().unwrap())
    }

    /// Map a 1 MB section. `va` and `pa` must be 1 MB aligned.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or if the L1 slot already holds a coarse
    /// table.
    pub fn map_section(&mut self, va: u32, pa: u32, access: Access) {
        assert_eq!(va & 0xF_FFFF, 0, "section VA must be 1 MB aligned");
        assert_eq!(pa & 0xF_FFFF, 0, "section PA must be 1 MB aligned");
        let idx = va >> 20;
        assert!(self.l2_of[idx as usize].is_none(), "L1 slot already coarse");
        let (ap, xn) = access.ap_xn();
        let entry = (pa & 0xFFF0_0000) | ap << 10 | (xn as u32) << 4 | L1_SECTION;
        self.write_u32(self.base + idx * 4, entry);
    }

    fn l2_for(&mut self, va: u32) -> u32 {
        let idx = (va >> 20) as usize;
        if let Some(addr) = self.l2_of[idx] {
            return addr;
        }
        let addr = self.base + self.blob.len() as u32;
        self.blob.extend(std::iter::repeat_n(0, L2_BYTES as usize));
        self.l2_of[idx] = Some(addr);
        let l1_entry = (addr & 0xFFFF_FC00) | L1_COARSE;
        self.write_u32(self.base + (idx as u32) * 4, l1_entry);
        addr
    }

    /// Map one 4 KB page via a coarse table.
    ///
    /// # Panics
    ///
    /// Panics on misalignment or if the L1 slot already holds a section.
    pub fn map_page(&mut self, va: u32, pa: u32, access: Access) {
        assert_eq!(va & 0xFFF, 0, "page VA must be 4 KB aligned");
        assert_eq!(pa & 0xFFF, 0, "page PA must be 4 KB aligned");
        let l1_idx = (va >> 20) as usize;
        let l1_entry = self.read_u32(self.base + (l1_idx as u32) * 4);
        assert!(l1_entry & 0b11 != L1_SECTION, "L1 slot already a section");
        let l2_addr = self.l2_for(va);
        let l2_idx = (va >> PAGE_SHIFT) & 0xFF;
        let (ap, xn) = access.ap_xn();
        let entry = (pa & 0xFFFF_F000) | ap << 4 | (xn as u32) << 2 | L2_SMALL;
        self.write_u32(l2_addr + l2_idx * 4, entry);
    }

    /// Map `len` bytes from `va` to `pa`, choosing sections where both
    /// sides are 1 MB aligned and pages otherwise. `len` is rounded up to
    /// page granularity.
    pub fn map_range(&mut self, va: u32, pa: u32, len: u32, access: Access) {
        let mut v = va;
        let mut p = pa;
        let end = va
            .checked_add(len.next_multiple_of(1 << PAGE_SHIFT))
            .expect("range overflow");
        while v < end {
            if v & 0xF_FFFF == 0 && p & 0xF_FFFF == 0 && end - v >= 1 << 20 {
                self.map_section(v, p, access);
                v += 1 << 20;
                p += 1 << 20;
            } else {
                self.map_page(v, p, access);
                v += 1 << PAGE_SHIFT;
                p += 1 << PAGE_SHIFT;
            }
        }
    }

    /// Finish: `(load address, table bytes)` for the guest image.
    pub fn into_blob(self) -> (u32, Vec<u8>) {
        (self.base, self.blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::bus::FlatRam;
    use simbench_core::fault::FaultKind;

    const TBASE: u32 = 0x10_0000;

    fn setup(build: impl FnOnce(&mut TableBuilder)) -> (ArmletSys, FlatRam) {
        let mut tb = TableBuilder::new(TBASE);
        build(&mut tb);
        let (base, blob) = tb.into_blob();
        let mut ram = FlatRam::new(4 << 20);
        ram.ram_mut()[base as usize..base as usize + blob.len()].copy_from_slice(&blob);
        let sys = ArmletSys {
            ttbr: base,
            sctlr: 1,
            ..Default::default()
        };
        (sys, ram)
    }

    #[test]
    fn section_translation() {
        let (sys, mut ram) = setup(|tb| tb.map_section(0x0010_0000, 0x0020_0000, Access::UserFull));
        let e = walk(&sys, &mut ram, 0x0012_3456).unwrap();
        assert_eq!(e.vpage, page_of(0x0012_3456));
        assert_eq!(e.ppage, page_of(0x0022_3000));
        assert_eq!(e.translate(0x0012_3456), 0x0022_3456);
        assert!(e.user.w && e.kernel.w && e.user.x);
    }

    #[test]
    fn coarse_page_translation() {
        let (sys, mut ram) = setup(|tb| tb.map_page(0x0030_1000, 0x0008_2000, Access::KernelOnly));
        let e = walk(&sys, &mut ram, 0x0030_1ABC).unwrap();
        assert_eq!(e.translate(0x0030_1ABC), 0x0008_2ABC);
        assert!(e.kernel.w && e.kernel.x);
        assert_eq!(e.user, Perms::NONE);
        // Neighbouring page in the same coarse table is unmapped.
        let err = walk(&sys, &mut ram, 0x0030_2000).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
    }

    #[test]
    fn unmapped_l1_faults() {
        let (sys, mut ram) = setup(|_| {});
        let err = walk(&sys, &mut ram, 0x0500_0000).unwrap_err();
        assert_eq!(err.kind, FaultKind::Unmapped);
        assert_eq!(err.addr, 0x0500_0000);
    }

    #[test]
    fn ap_decoding() {
        let (sys, mut ram) = setup(|tb| {
            tb.map_page(0x0040_0000, 0x0000_1000, Access::UserRead);
            tb.map_page(0x0040_1000, 0x0000_2000, Access::ReadOnly);
            tb.map_page(0x0040_2000, 0x0000_3000, Access::KernelDevice);
        });
        let e = walk(&sys, &mut ram, 0x0040_0000).unwrap();
        assert!(e.kernel.w && e.user.r && !e.user.w);
        let e = walk(&sys, &mut ram, 0x0040_1000).unwrap();
        assert!(!e.kernel.w && e.kernel.r && !e.user.w);
        let e = walk(&sys, &mut ram, 0x0040_2000).unwrap();
        assert!(e.kernel.r && e.kernel.w && !e.kernel.x, "XN strips execute");
        assert_eq!(e.user, Perms::NONE);
    }

    #[test]
    fn domain_manager_bypasses_ap() {
        let (mut sys, mut ram) =
            setup(|tb| tb.map_page(0x0040_0000, 0x0000_1000, Access::ReadOnly));
        // Domain 0 to manager mode.
        sys.dacr = (sys.dacr & !0b11) | 0b11;
        let e = walk(&sys, &mut ram, 0x0040_0000).unwrap();
        assert!(e.user.w && e.kernel.w, "manager domain grants everything");
    }

    #[test]
    fn domain_no_access_faults() {
        let (mut sys, mut ram) =
            setup(|tb| tb.map_page(0x0040_0000, 0x0000_1000, Access::UserFull));
        sys.dacr &= !0b11; // domain 0: no access
        let err = walk(&sys, &mut ram, 0x0040_0000).unwrap_err();
        assert_eq!(err.kind, FaultKind::Permission);
    }

    #[test]
    fn walk_outside_ram_is_bus_error() {
        let sys = ArmletSys {
            ttbr: 0x3F0_0000,
            sctlr: 1,
            ..Default::default()
        };
        let mut ram = FlatRam::new(1 << 20); // ttbr outside RAM
        let err = walk(&sys, &mut ram, 0x1000).unwrap_err();
        assert_eq!(err.kind, FaultKind::BusError);
    }

    #[test]
    fn map_range_mixes_sections_and_pages() {
        let mut tb = TableBuilder::new(TBASE);
        // 1 MB + 8 KB starting at a 1 MB boundary: one section + 2 pages.
        tb.map_range(
            0x0060_0000,
            0x0060_0000,
            (1 << 20) + 0x2000,
            Access::UserFull,
        );
        let (sys, mut ram) = {
            let (base, blob) = tb.into_blob();
            let mut ram = FlatRam::new(4 << 20);
            ram.ram_mut()[base as usize..base as usize + blob.len()].copy_from_slice(&blob);
            (
                ArmletSys {
                    ttbr: base,
                    sctlr: 1,
                    ..Default::default()
                },
                ram,
            )
        };
        assert!(walk(&sys, &mut ram, 0x0060_0000).is_ok());
        assert!(walk(&sys, &mut ram, 0x006F_F000).is_ok());
        assert!(walk(&sys, &mut ram, 0x0070_0000).is_ok());
        assert!(walk(&sys, &mut ram, 0x0070_1000).is_ok());
        assert!(walk(&sys, &mut ram, 0x0070_2000).is_err());
    }

    #[test]
    #[should_panic(expected = "16 KB aligned")]
    fn misaligned_base_rejected() {
        TableBuilder::new(0x1234);
    }
}
