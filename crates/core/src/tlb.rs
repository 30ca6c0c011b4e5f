//! Software TLB structures used by the engines.
//!
//! Three flavours mirror the memory-access rows of the paper's Fig 4:
//!
//! * [`DirectTlb`] — direct-mapped array, the "multi-level page cache"
//!   building block of the DBT engine (QEMU analogue),
//! * [`SingleEntryCache`] — one entry per access class ([`SplitCache`]
//!   pairs the two), the fast interpreter's "single level cache"
//!   (SimIt-ARM analogue),
//! * [`SetAssocTlb`] — a small set-associative structure with FIFO
//!   replacement, the detailed engine's "modelled TLB" (Gem5 analogue).

use crate::fault::AccessKind;
use crate::mmu::{Perms, TlbEntry};
use crate::run::Tlb;

/// A direct-mapped software TLB indexed by virtual page number.
///
/// A slot is four words — epoch, virtual page, physical page, packed
/// permissions — and is valid only while its epoch is the live one.
/// Live epochs start at 1, so the all-zero slot is invalid:
/// construction is a zeroed allocation and a flush is an epoch bump.
/// Slots are swept only when the epoch wraps.
///
/// The `Default` table has no slots and must not be probed: it is what
/// `mem::take` leaves in an owner that hands its table on.
#[derive(Debug, Clone, Default)]
pub struct DirectTlb {
    slots: Vec<[u32; 4]>,
    mask: u32,
    epoch: u32,
}

/// [`Perms`] as three bits.
#[inline]
fn pack(p: Perms) -> u32 {
    u32::from(p.r) | u32::from(p.w) << 1 | u32::from(p.x) << 2
}

#[inline]
fn unpack(bits: u32) -> Perms {
    Perms {
        r: bits & 1 != 0,
        w: bits & 2 != 0,
        x: bits & 4 != 0,
    }
}

impl DirectTlb {
    /// Create with `entries` slots (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(1);
        DirectTlb {
            // lint:allow(hot-path): one-time constructor allocation
            slots: vec![[0; 4]; n],
            mask: n as u32 - 1,
            epoch: 1,
        }
    }
}

impl Tlb for DirectTlb {
    #[inline]
    fn lookup(&mut self, vpage: u32, _access: AccessKind) -> Option<(TlbEntry, bool)> {
        let [epoch, tag, ppage, perms] = self.slots[(vpage & self.mask) as usize];
        (epoch == self.epoch && tag == vpage).then(|| {
            let entry = TlbEntry {
                vpage,
                ppage,
                user: unpack(perms),
                kernel: unpack(perms >> 3),
            };
            (entry, true)
        })
    }

    /// Evicts whatever shared the slot.
    #[inline]
    fn insert(&mut self, e: TlbEntry, _access: AccessKind, _holds_code: bool) {
        self.slots[(e.vpage & self.mask) as usize] = [
            self.epoch,
            e.vpage,
            e.ppage,
            pack(e.user) | pack(e.kernel) << 3,
        ];
    }

    fn invalidate_page(&mut self, vpage: u32) {
        let slot = &mut self.slots[(vpage & self.mask) as usize];
        if slot[1] == vpage {
            slot[0] = 0;
        }
    }

    fn flush(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill([0; 4]);
            self.epoch = 1;
        }
    }
}

/// A single-entry translation cache, one per access class, as used by
/// simple fast interpreters.
#[derive(Debug, Clone, Default)]
pub struct SingleEntryCache {
    entry: Option<TlbEntry>,
}

impl SingleEntryCache {
    /// An empty cache.
    pub fn new() -> Self {
        SingleEntryCache { entry: None }
    }

    /// Return the cached entry if it covers `vpage`.
    #[inline]
    pub fn lookup(&self, vpage: u32) -> Option<TlbEntry> {
        self.entry.filter(|e| e.vpage == vpage)
    }

    /// Replace the cached entry.
    #[inline]
    pub fn insert(&mut self, e: TlbEntry) {
        self.entry = Some(e);
    }

    /// Invalidate if the cached entry covers `vpage`.
    pub fn invalidate_page(&mut self, vpage: u32) {
        if self.entry.is_some_and(|e| e.vpage == vpage) {
            self.entry = None;
        }
    }

    /// Drop the cached entry.
    pub fn flush(&mut self) {
        self.entry = None;
    }
}

/// The fast interpreter's translation cache: one [`SingleEntryCache`]
/// for instruction fetch and one for data accesses.
#[derive(Debug, Clone, Default)]
pub struct SplitCache {
    insn: SingleEntryCache,
    data: SingleEntryCache,
}

impl SplitCache {
    #[inline]
    fn class(&mut self, access: AccessKind) -> &mut SingleEntryCache {
        match access {
            AccessKind::Execute => &mut self.insn,
            AccessKind::Read | AccessKind::Write => &mut self.data,
        }
    }
}

impl Tlb for SplitCache {
    #[inline]
    fn lookup(&mut self, vpage: u32, access: AccessKind) -> Option<(TlbEntry, bool)> {
        self.class(access).lookup(vpage).map(|e| (e, true))
    }
    #[inline]
    fn insert(&mut self, e: TlbEntry, access: AccessKind, _holds_code: bool) {
        self.class(access).insert(e);
    }
    fn invalidate_page(&mut self, vpage: u32) {
        self.insn.invalidate_page(vpage);
        self.data.invalidate_page(vpage);
    }
    fn flush(&mut self) {
        self.insn.flush();
        self.data.flush();
    }
}

/// A modelled set-associative TLB with FIFO replacement, used by the
/// detailed (timing) engine: `ways` slots per set in one array, each
/// set's live entries first, oldest first, and whatever after them.
///
/// The `Default` table has no sets and must not be probed: it is what
/// `mem::take` leaves in an owner that hands its table on.
#[derive(Debug, Clone, Default)]
pub struct SetAssocTlb {
    slots: Vec<TlbEntry>,
    /// Live entries per set.
    lens: Vec<usize>,
    ways: usize,
    set_mask: u32,
}

impl SetAssocTlb {
    /// Create a TLB with `sets` sets (rounded to a power of two) of
    /// `ways` entries each.
    pub fn new(sets: usize, ways: usize) -> Self {
        let n = sets.next_power_of_two().max(1);
        let ways = ways.max(1);
        let empty = TlbEntry {
            vpage: 0,
            ppage: 0,
            user: Perms::default(),
            kernel: Perms::default(),
        };
        SetAssocTlb {
            // lint:allow(hot-path): one-time constructor allocation
            slots: vec![empty; n * ways],
            lens: vec![0; n], // lint:allow(hot-path): as above
            ways,
            set_mask: n as u32 - 1,
        }
    }

    /// The set `vpage` maps to: its live length and its slots.
    #[inline]
    fn set(&mut self, vpage: u32) -> (&mut usize, &mut [TlbEntry]) {
        let set = (vpage & self.set_mask) as usize;
        let slots = &mut self.slots[set * self.ways..][..self.ways];
        (&mut self.lens[set], slots)
    }
}

impl Tlb for SetAssocTlb {
    #[inline]
    fn lookup(&mut self, vpage: u32, _access: AccessKind) -> Option<(TlbEntry, bool)> {
        let (len, slots) = self.set(vpage);
        let e = slots[..*len].iter().find(|e| e.vpage == vpage)?;
        Some((*e, true))
    }

    /// Evicts FIFO within the set if full.
    fn insert(&mut self, e: TlbEntry, _access: AccessKind, _holds_code: bool) {
        self.invalidate_page(e.vpage);
        let (len, slots) = self.set(e.vpage);
        if *len == slots.len() {
            slots.copy_within(1.., 0);
            *len -= 1;
        }
        slots[*len] = e;
        *len += 1;
    }

    fn invalidate_page(&mut self, vpage: u32) {
        let (len, slots) = self.set(vpage);
        if let Some(i) = slots[..*len].iter().position(|x| x.vpage == vpage) {
            slots.copy_within(i + 1..*len, i);
            *len -= 1;
        }
    }

    fn flush(&mut self) {
        self.lens.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: AccessKind = AccessKind::Read;

    fn e(vpage: u32, ppage: u32) -> TlbEntry {
        TlbEntry {
            vpage,
            ppage,
            user: Perms::RWX,
            kernel: Perms::RWX,
        }
    }

    #[test]
    fn direct_tlb_basic() {
        let mut t = DirectTlb::new(16);
        assert!(t.lookup(5, R).is_none());
        t.insert(e(5, 50), R, false);
        assert_eq!(t.lookup(5, R).unwrap().0.ppage, 50);
        // Aliasing page evicts.
        t.insert(e(5 + 16, 99), R, false);
        assert!(t.lookup(5, R).is_none());
        assert_eq!(t.lookup(21, R).unwrap().0.ppage, 99);
    }

    #[test]
    fn direct_tlb_entries_round_trip() {
        let mut t = DirectTlb::new(16);
        let entry = TlbEntry {
            vpage: 3,
            ppage: 0xABCDE,
            user: Perms::R,
            kernel: Perms::RX,
        };
        t.insert(entry, R, false);
        assert_eq!(t.lookup(3, R), Some((entry, true)));
    }

    /// Number of currently valid entries.
    fn valid_entries(t: &DirectTlb) -> usize {
        t.slots.iter().filter(|s| s[0] == t.epoch).count()
    }

    #[test]
    fn direct_tlb_flush_is_an_epoch_bump() {
        let mut t = DirectTlb::new(8);
        assert_eq!(valid_entries(&t), 0, "zeroed slots are invalid");
        t.insert(e(1, 10), R, false);
        t.flush();
        assert!(t.lookup(1, R).is_none());
        assert_eq!(t.slots[1][1], 1, "the stale slot was not swept");
        // Page 0 in slot 0 must not read as valid after the wrap, when
        // stale epochs could otherwise come round again.
        t.epoch = u32::MAX;
        t.insert(e(2, 20), R, false);
        t.flush();
        assert_eq!(t.epoch, 1);
        assert!(t.slots.iter().all(|s| *s == [0; 4]), "swept on wrap");
        assert!(t.lookup(2, R).is_none() && t.lookup(0, R).is_none());
    }

    #[test]
    fn direct_tlb_invalidate_and_flush() {
        let mut t = DirectTlb::new(8);
        t.insert(e(1, 10), R, false);
        t.insert(e(2, 20), R, false);
        t.invalidate_page(1);
        assert!(t.lookup(1, R).is_none());
        assert!(t.lookup(2, R).is_some());
        // Invalidating an absent page must not disturb an alias.
        t.invalidate_page(2 + 8);
        assert!(t.lookup(2, R).is_some());
        t.flush();
        assert_eq!(valid_entries(&t), 0);
    }

    #[test]
    fn single_entry_cache() {
        let mut c = SingleEntryCache::new();
        assert!(c.lookup(7).is_none());
        c.insert(e(7, 70));
        assert_eq!(c.lookup(7).unwrap().ppage, 70);
        assert!(c.lookup(8).is_none());
        c.insert(e(8, 80));
        assert!(c.lookup(7).is_none(), "single entry: replaced");
        c.invalidate_page(8);
        assert!(c.lookup(8).is_none());
    }

    #[test]
    fn split_cache_keeps_one_entry_per_access_class() {
        let mut c = SplitCache::default();
        c.insert(e(7, 70), AccessKind::Execute, false);
        c.insert(e(9, 90), AccessKind::Write, false);
        assert_eq!(c.lookup(7, AccessKind::Execute).unwrap().0.ppage, 70);
        assert!(
            c.lookup(7, AccessKind::Read).is_none(),
            "classes are separate"
        );
        assert_eq!(c.lookup(9, AccessKind::Read).unwrap().0.ppage, 90);
        c.invalidate_page(7);
        assert!(c.lookup(7, AccessKind::Execute).is_none());
        c.flush();
        assert!(c.lookup(9, AccessKind::Write).is_none());
    }

    #[test]
    fn set_assoc_fifo() {
        let mut t = SetAssocTlb::new(1, 2);
        t.insert(e(1, 10), R, false);
        t.insert(e(2, 20), R, false);
        assert!(t.lookup(1, R).is_some());
        t.insert(e(3, 30), R, false); // evicts vpage 1 (FIFO)
        assert!(t.lookup(1, R).is_none());
        assert!(t.lookup(2, R).is_some());
        assert!(t.lookup(3, R).is_some());
    }

    #[test]
    fn set_assoc_reinsert_no_duplicate() {
        let mut t = SetAssocTlb::new(1, 2);
        t.insert(e(1, 10), R, false);
        t.insert(e(1, 11), R, false);
        assert_eq!(t.lookup(1, R).unwrap().0.ppage, 11);
        t.insert(e(2, 20), R, false);
        t.insert(e(3, 30), R, false);
        // vpage 1 (oldest) evicted, not duplicated.
        assert!(t.lookup(1, R).is_none());
    }

    #[test]
    fn set_assoc_invalidate_keeps_fifo_order_and_sets_apart() {
        let mut t = SetAssocTlb::new(2, 3);
        for vpage in [0, 2, 4, 1] {
            t.insert(e(vpage, vpage + 10), R, false);
        }
        t.invalidate_page(0);
        t.insert(e(6, 16), R, false); // set 0 holds 2, 4, 6: full
        t.insert(e(8, 18), R, false); // evicts 2, the oldest
        let live = |t: &mut SetAssocTlb| [0, 2, 4, 6, 8, 1].map(|v| t.lookup(v, R).is_some());
        assert_eq!(live(&mut t), [false, false, true, true, true, true]);
        t.flush();
        assert_eq!(live(&mut t), [false; 6]);
    }
}
