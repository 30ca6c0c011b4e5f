//! Virtual-memory abstractions: page permissions, TLB entries, the
//! permission-check performed on every translated access, and the
//! page-table builder the two 10/10/12 guests share.

use std::marker::PhantomData;

use crate::fault::{AccessKind, FaultKind, MemFault};
use crate::{page_of, PAGE_SHIFT, PAGE_SIZE};

/// Permission bits for one privilege level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perms {
    /// Read/write/execute.
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
    };
    /// Read/write, no execute.
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
    };
    /// Read-only.
    pub const R: Perms = Perms {
        r: true,
        w: false,
        x: false,
    };
    /// Read/execute.
    pub const RX: Perms = Perms {
        r: true,
        w: false,
        x: true,
    };
    /// No access.
    pub const NONE: Perms = Perms {
        r: false,
        w: false,
        x: false,
    };

    /// True if `access` is allowed.
    #[inline]
    pub fn allows(self, access: AccessKind) -> bool {
        match access {
            AccessKind::Read => self.r,
            AccessKind::Write => self.w,
            AccessKind::Execute => self.x,
        }
    }
}

/// A translation for one 4 KB virtual page, as cached in engine TLBs.
///
/// Walkers that resolve larger mappings (armlet 1 MB sections) fragment
/// them into page-granule entries at fill time, as real simulators'
/// software TLBs do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpage: u32,
    /// Physical page number.
    pub ppage: u32,
    /// Permissions when executing unprivileged.
    pub user: Perms,
    /// Permissions when executing privileged.
    pub kernel: Perms,
}

impl TlbEntry {
    /// Translate an address within this page.
    #[inline]
    pub fn translate(&self, va: u32) -> u32 {
        debug_assert_eq!(page_of(va), self.vpage);
        (self.ppage << PAGE_SHIFT) | (va & ((1 << PAGE_SHIFT) - 1))
    }

    /// Effective permissions for an access at `privileged` level; a
    /// `nonpriv` access (ARM `ldrt`/`strt`) is checked against user
    /// permissions regardless of the current level.
    #[inline]
    pub fn perms(&self, privileged: bool, nonpriv: bool) -> Perms {
        if privileged && !nonpriv {
            self.kernel
        } else {
            self.user
        }
    }

    /// Both levels' permissions as six bits, user r/w/x then kernel
    /// r/w/x: what a TLB resolves when it is filled, so that a hit is
    /// one test of the [`perm_bit`] of the access.
    #[inline]
    pub fn perm_bits(&self) -> u8 {
        let rwx = |p: Perms| u8::from(p.r) | u8::from(p.w) << 1 | u8::from(p.x) << 2;
        rwx(self.user) | rwx(self.kernel) << 3
    }

    /// Check an access, producing the architectural fault on violation.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] with [`FaultKind::Permission`] when the
    /// access is not permitted at the effective privilege.
    #[inline]
    pub fn check(
        &self,
        va: u32,
        access: AccessKind,
        privileged: bool,
        nonpriv: bool,
    ) -> Result<u32, MemFault> {
        if self.perms(privileged, nonpriv).allows(access) {
            Ok(self.translate(va))
        } else {
            Err(MemFault {
                addr: va,
                access,
                kind: FaultKind::Permission,
            })
        }
    }
}

/// The bit of [`TlbEntry::perm_bits`] that allows `access` at the
/// effective privilege `kernel`: the current level is privileged and
/// the access is not `nonpriv` ([`TlbEntry::perms`]).
#[inline]
pub fn perm_bit(access: AccessKind, kernel: bool) -> u8 {
    let rwx = match access {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
        AccessKind::Execute => 2,
    };
    1 << (rwx + 3 * u8::from(kernel))
}

/// Outcome of a page-table walk.
pub type WalkResult = Result<TlbEntry, MemFault>;

/// Mapping attributes for a [`TableBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtFlags {
    /// Writable.
    pub write: bool,
    /// Accessible from user mode.
    pub user: bool,
    /// Never executable.
    pub nx: bool,
}

impl PtFlags {
    /// Kernel read/write/execute, no user access.
    pub const KERNEL: PtFlags = PtFlags {
        write: true,
        user: false,
        nx: false,
    };
    /// Full access from both modes.
    pub const USER_FULL: PtFlags = PtFlags {
        write: true,
        user: true,
        nx: false,
    };
    /// Read-only at both levels.
    pub const READ_ONLY: PtFlags = PtFlags {
        write: false,
        user: true,
        nx: false,
    };
    /// Kernel data only (no execute).
    pub const KERNEL_DEVICE: PtFlags = PtFlags {
        write: true,
        user: false,
        nx: true,
    };
}

/// One ISA's entry encodings for a two-level 10/10/12 page table: a
/// 1024-entry directory of 4 MiB slots, each pointing at a 1024-entry
/// leaf table of 4 KiB pages.
pub trait PteEncoding {
    /// The directory entry pointing at the leaf table at `table`.
    fn dir(table: u32) -> u32;
    /// The leaf entry mapping the page at `pa`.
    fn leaf(pa: u32, flags: PtFlags) -> u32;
}

const TABLE_BYTES: usize = 4096;
const TABLE_ENTRIES: u32 = 1024;

/// Builds two-level 10/10/12 page tables as one flat blob: the
/// directory occupies the first 4 KB at the base, and each 4 MiB slot
/// a mapping touches gets one leaf table after it, in the order the
/// mappings first touched them. Mappings are recorded as they come and
/// written in one pass by [`TableBuilder::into_blob`].
#[derive(Debug)]
pub struct TableBuilder<E> {
    base: u32,
    /// `(first virtual page, first physical page, pages, flags)`.
    ranges: Vec<(u32, u32, u32, PtFlags)>,
    encoding: PhantomData<E>,
}

impl<E: PteEncoding> TableBuilder<E> {
    /// Start building at physical `base` (4 KB aligned).
    ///
    /// # Panics
    ///
    /// Panics on misalignment.
    pub fn new(base: u32) -> Self {
        assert_eq!(base & 0xFFF, 0, "page-table base must be 4 KB aligned");
        TableBuilder {
            base,
            ranges: Vec::new(),
            encoding: PhantomData,
        }
    }

    /// Map one 4 KB page.
    pub fn map_page(&mut self, va: u32, pa: u32, flags: PtFlags) {
        self.map_range(va, pa, PAGE_SIZE, flags);
    }

    /// Map `len` bytes (rounded up to pages) from `va` to `pa`. A later
    /// mapping of a page replaces an earlier one.
    ///
    /// # Panics
    ///
    /// Panics on misaligned addresses.
    pub fn map_range(&mut self, va: u32, pa: u32, len: u32, flags: PtFlags) {
        assert_eq!((va | pa) & 0xFFF, 0, "mappings must be 4 KB aligned");
        let pages = len.div_ceil(PAGE_SIZE);
        if pages > 0 {
            self.ranges.push((page_of(va), page_of(pa), pages, flags));
        }
    }

    /// Finish: `(load address, table bytes)`.
    pub fn into_blob(self) -> (u32, Vec<u8>) {
        let slot = |vpage: u32| (vpage / TABLE_ENTRIES) as usize;
        // One plus the leaf-table number of each slot; 0 for none.
        let mut table_of = [0u16; TABLE_ENTRIES as usize];
        let mut tables = 0;
        for &(vpage, _, pages, _) in &self.ranges {
            for table in &mut table_of[slot(vpage)..=slot(vpage + pages - 1)] {
                if *table == 0 {
                    tables += 1;
                    *table = tables;
                }
            }
        }
        let mut blob = vec![0; TABLE_BYTES * (1 + usize::from(tables))];
        let (dir, leaves) = blob.split_at_mut(TABLE_BYTES);
        for (pde, &table) in dir.chunks_exact_mut(4).zip(&table_of) {
            if table != 0 {
                let addr = self.base + u32::from(table) * TABLE_BYTES as u32;
                pde.copy_from_slice(&E::dir(addr).to_le_bytes());
            }
        }
        // Each range, one leaf-table run at a time.
        for &(vpage, ppage, pages, flags) in &self.ranges {
            let end = vpage + pages;
            let mut v = vpage;
            while v < end {
                let index = v % TABLE_ENTRIES;
                let run = (end - v).min(TABLE_ENTRIES - index);
                let table = usize::from(table_of[slot(v)] - 1);
                let ptes =
                    &mut leaves[table * TABLE_BYTES + index as usize * 4..][..run as usize * 4];
                for (pte, p) in ptes.chunks_exact_mut(4).zip(ppage + (v - vpage)..) {
                    pte.copy_from_slice(&E::leaf(p << PAGE_SHIFT, flags).to_le_bytes());
                }
                v += run;
            }
        }
        (self.base, blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> TlbEntry {
        TlbEntry {
            vpage: 0x10,
            ppage: 0x80,
            user: Perms::R,
            kernel: Perms::RWX,
        }
    }

    #[test]
    fn translate_offsets() {
        let e = entry();
        assert_eq!(e.translate(0x10_234), 0x80_234);
        assert_eq!(e.translate(0x10_000), 0x80_000);
        assert_eq!(e.translate(0x10_fff), 0x80_fff);
    }

    #[test]
    fn perms_by_level() {
        let e = entry();
        assert!(e.check(0x10_000, AccessKind::Write, true, false).is_ok());
        let err = e
            .check(0x10_000, AccessKind::Write, false, false)
            .unwrap_err();
        assert_eq!(err.kind, FaultKind::Permission);
        assert_eq!(err.addr, 0x10_000);
        // Non-privileged override: kernel-mode ldrt checked as user.
        assert!(e.check(0x10_000, AccessKind::Read, true, true).is_ok());
        assert!(e.check(0x10_000, AccessKind::Write, true, true).is_err());
    }

    /// Entries that show what wrote them: a directory entry is its
    /// table's address plus 1, a leaf entry its page plus flag bits.
    #[derive(Debug)]
    enum Plain {}

    impl PteEncoding for Plain {
        fn dir(table: u32) -> u32 {
            table | 1
        }
        fn leaf(pa: u32, f: PtFlags) -> u32 {
            pa | 1 | (f.write as u32) << 1 | (f.user as u32) << 2 | (f.nx as u32) << 3
        }
    }

    const BASE: u32 = 0x10_0000;

    fn tables(map: impl FnOnce(&mut TableBuilder<Plain>)) -> Vec<u8> {
        let mut tb = TableBuilder::new(BASE);
        map(&mut tb);
        let (base, blob) = tb.into_blob();
        assert_eq!(base, BASE);
        blob
    }

    /// Entry `index` of table `table` (0 is the directory).
    fn pte(blob: &[u8], table: usize, index: usize) -> u32 {
        let at = table * 4096 + index * 4;
        u32::from_le_bytes(blob[at..at + 4].try_into().unwrap())
    }

    #[test]
    fn a_range_crossing_a_slot_boundary_fills_both_tables_in_first_touch_order() {
        // Slot 5 first; then the last two pages of slot 1 and the first
        // three of slot 2.
        let blob = tables(|tb| {
            tb.map_page(5 << 22, 0x7000, PtFlags::KERNEL);
            tb.map_range((2 << 22) - 0x2000, 0x40_0000, 0x5000, PtFlags::USER_FULL);
        });
        assert_eq!(blob.len(), 4 * 4096);
        assert_eq!(pte(&blob, 0, 5), (BASE + 0x1000) | 1);
        assert_eq!(pte(&blob, 0, 1), (BASE + 0x2000) | 1);
        assert_eq!(pte(&blob, 0, 2), (BASE + 0x3000) | 1);
        assert_eq!(pte(&blob, 1, 0), Plain::leaf(0x7000, PtFlags::KERNEL));
        let user = |pa| Plain::leaf(pa, PtFlags::USER_FULL);
        assert_eq!(pte(&blob, 2, 1022), user(0x40_0000));
        assert_eq!(pte(&blob, 2, 1023), user(0x40_1000));
        assert_eq!(pte(&blob, 3, 0), user(0x40_2000));
        assert_eq!(pte(&blob, 3, 2), user(0x40_4000));
        let written = blob.chunks_exact(4).filter(|e| *e != [0; 4]).count();
        assert_eq!(written, 3 + 1 + 5, "nothing else");
    }

    #[test]
    fn a_later_mapping_of_a_page_replaces_an_earlier_one() {
        let blob = tables(|tb| {
            tb.map_range(0, 0, 0x4000, PtFlags::KERNEL);
            tb.map_page(0x1000, 0x9000, PtFlags::KERNEL_DEVICE);
        });
        assert_eq!(blob.len(), 2 * 4096);
        assert_eq!(pte(&blob, 1, 0), Plain::leaf(0, PtFlags::KERNEL));
        assert_eq!(
            pte(&blob, 1, 1),
            Plain::leaf(0x9000, PtFlags::KERNEL_DEVICE)
        );
        assert_eq!(pte(&blob, 1, 2), Plain::leaf(0x2000, PtFlags::KERNEL));
        assert_eq!(pte(&blob, 1, 3), Plain::leaf(0x3000, PtFlags::KERNEL));
        assert_eq!(pte(&blob, 1, 4), 0);
    }

    #[test]
    fn a_zero_length_range_maps_nothing() {
        let blob = tables(|tb| tb.map_range(0x40_0000, 0x40_0000, 0, PtFlags::KERNEL));
        assert_eq!(blob, [0; 4096], "a directory and no table");
        // Nor does it claim its slot's table ahead of a later mapping.
        let blob = tables(|tb| {
            tb.map_range(0x40_0000, 0, 0, PtFlags::KERNEL);
            tb.map_page(0x80_0000, 0, PtFlags::KERNEL);
            tb.map_page(0x40_0000, 0, PtFlags::KERNEL);
        });
        assert_eq!(pte(&blob, 0, 2), (BASE + 0x1000) | 1);
        assert_eq!(pte(&blob, 0, 1), (BASE + 0x2000) | 1);
    }

    #[test]
    fn perm_constants() {
        assert!(Perms::RWX.allows(AccessKind::Execute));
        assert!(!Perms::RW.allows(AccessKind::Execute));
        assert!(!Perms::R.allows(AccessKind::Write));
        assert!(!Perms::NONE.allows(AccessKind::Read));
        assert!(Perms::RX.allows(AccessKind::Execute));
    }
}
