//! The DBT engine's software TLB with code-page write protection.
//!
//! Each entry carries a `contains_code` flag (the analogue of QEMU's
//! `TLB_NOTDIRTY`): stores through flagged entries take a slow path that
//! checks for — and invalidates — translations in the target page. Pages
//! acquire the flag at fill time; when a page *gains* its first
//! translation block after entries were already cached, the engine
//! flushes this TLB so stale unflagged entries cannot miss an
//! invalidation. That makes a flush as frequent as code rewrites, so it
//! must not cost a pass over the slots.
//!
//! **Epoch rule.** A slot's tag is `vpage | epoch << 20` — virtual pages
//! are 20 bits, the epoch takes the 12 above — and a slot is valid only
//! while its epoch is the live one. Live epochs start at 1, so the
//! all-zero tag is never valid. [`Tlb::flush`] bumps the epoch and
//! empties the victim buffer; the slots themselves are swept only when
//! the epoch wraps, once in 4 095 flushes. Match, miss and staleness are
//! therefore still *one* `u32` compare per probe.
//!
//! **Fill-time permissions.** A slot keeps only what a hit answers: the
//! tag, the physical page, and one byte holding both privilege levels'
//! r/w/x bits ([`TlbEntry::perm_bits`]) and the code flag. A hit is the
//! tag compare and one bit test, as in QEMU's soft TLB, and the victim
//! search is out of line so that the hit inlines into every access. An
//! earlier packed slot lost `steady/dbt_mips` 52.5 → 46.6 because each
//! probe unpacked two permission sets back into a [`TlbEntry`].
//! Answering from the bits instead won `steady/dbt_mips` 76.7 → 86.9
//! (+13 %) in ten of ten alternating 20 s pairs, most of it from the
//! inlined hit (ROADMAP item 12).

use simbench_core::fault::AccessKind;
use simbench_core::mmu::{perm_bit, TlbEntry};
use simbench_core::run::{Lookup, Tlb};

/// Bits of a tag that hold the virtual page number.
const VPAGE_BITS: u32 = 20;
/// One epoch step, in tag position.
const EPOCH_ONE: u32 = 1 << VPAGE_BITS;
/// Victim-buffer capacity.
const VICTIMS: usize = 8;
/// The bit of [`Slot::bits`] above the permission bits: the physical
/// page holds translation blocks.
const CONTAINS_CODE: u8 = 1 << 6;

/// One cached translation, as a hit needs it.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// `vpage | epoch`; see the epoch rule.
    tag: u32,
    /// Physical page number.
    ppage: u32,
    /// [`TlbEntry::perm_bits`], and [`CONTAINS_CODE`].
    bits: u8,
}

impl Slot {
    /// The answer to `access` at effective privilege `kernel`.
    #[inline]
    fn answer(self, access: AccessKind, kernel: bool) -> Lookup {
        if self.bits & perm_bit(access, kernel) == 0 {
            return Lookup::Denied;
        }
        Lookup::Hit {
            ppage: self.ppage,
            holds_code: self.bits & CONTAINS_CODE != 0,
        }
    }
}

/// Direct-mapped software TLB with a small fully-associative victim
/// buffer (as QEMU keeps per-mmu-idx victim TLBs).
///
/// The `Default` table has no slots and must not be probed: it is what
/// `mem::take` leaves in an engine that hands its table on.
#[derive(Debug, Clone, Default)]
pub struct DbtTlb {
    slots: Vec<Slot>,
    /// Entries evicted from `slots` in the live epoch, tagged like them.
    victims: Vec<Slot>,
    mask: u32,
    /// The live epoch, in tag position: a multiple of [`EPOCH_ONE`],
    /// never zero.
    epoch: u32,
}

impl DbtTlb {
    /// A TLB with `1 << bits` slots.
    pub fn new(bits: u8) -> Self {
        let n = 1usize << bits;
        DbtTlb {
            // lint:allow(hot-path): one-time constructor allocation
            slots: vec![Slot::default(); n],
            victims: Vec::with_capacity(VICTIMS),
            mask: n as u32 - 1,
            epoch: EPOCH_ONE,
        }
    }

    /// The tag a live entry for `vpage` carries.
    #[inline]
    fn tag(&self, vpage: u32) -> u32 {
        debug_assert!(vpage < EPOCH_ONE, "virtual pages are 20 bits");
        vpage | self.epoch
    }

    /// The fetch-side fast probe: the physical page `vpage` executes
    /// from at the given privilege, if the main array says so outright.
    ///
    /// By reference and with no side effect — no victim promotion, no
    /// refill, no fault — so `None` decides nothing: the caller falls
    /// back to the full path ([`Tlb::lookup`], walk, permission check),
    /// which is the only place a prefetch abort is raised.
    #[inline]
    pub fn probe_exec(&self, vpage: u32, kernel: bool) -> Option<u32> {
        let slot = self.slots[(vpage & self.mask) as usize];
        let x = perm_bit(AccessKind::Execute, kernel);
        (slot.tag == self.tag(vpage) && slot.bits & x != 0).then_some(slot.ppage)
    }

    /// Install `slot` in the main array, spilling the live entry for
    /// another page it evicts to the victim buffer; a stale one just
    /// goes.
    #[inline]
    fn place(&mut self, slot: Slot) {
        let vpage = slot.tag & (EPOCH_ONE - 1);
        let at = &mut self.slots[(vpage & self.mask) as usize];
        if at.tag & !(EPOCH_ONE - 1) == self.epoch && at.tag != slot.tag {
            if self.victims.len() == VICTIMS {
                self.victims.remove(0);
            }
            self.victims.push(*at);
        }
        *at = slot;
    }

    /// The victim half of [`Tlb::lookup`]: move `vpage`'s entry from the
    /// victim buffer back into the main array, if the buffer holds one.
    /// Out of line, so that a main-array hit inlines into the caller.
    #[inline(never)]
    fn promote(&mut self, vpage: u32) -> Option<Slot> {
        let tag = self.tag(vpage);
        let i = self.victims.iter().position(|v| v.tag == tag)?;
        let victim = self.victims.swap_remove(i);
        self.place(victim);
        Some(victim)
    }
}

impl Tlb for DbtTlb {
    /// Main array first, then the victim buffer (promoting on a victim
    /// hit).
    #[inline]
    fn lookup(&mut self, vpage: u32, access: AccessKind, kernel: bool) -> Lookup {
        let slot = self.slots[(vpage & self.mask) as usize];
        if slot.tag == self.tag(vpage) {
            return slot.answer(access, kernel);
        }
        match self.promote(vpage) {
            Some(victim) => victim.answer(access, kernel),
            None => Lookup::Miss,
        }
    }

    #[inline]
    fn insert(&mut self, entry: TlbEntry, _access: AccessKind, contains_code: bool) {
        let code = if contains_code { CONTAINS_CODE } else { 0 };
        self.place(Slot {
            tag: self.tag(entry.vpage),
            ppage: entry.ppage,
            bits: entry.perm_bits() | code,
        });
    }

    fn invalidate_page(&mut self, vpage: u32) {
        let tag = self.tag(vpage);
        let slot = &mut self.slots[(vpage & self.mask) as usize];
        if slot.tag == tag {
            slot.tag = 0;
        }
        self.victims.retain(|v| v.tag != tag);
    }

    /// O(1): see the epoch rule in the module docs.
    fn flush(&mut self) {
        self.victims.clear();
        self.epoch = self.epoch.wrapping_add(EPOCH_ONE);
        if self.epoch == 0 {
            // Wrapped: tags of 4 095 flushes ago would read as live.
            for s in &mut self.slots {
                s.tag = 0;
            }
            self.epoch = EPOCH_ONE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::mmu::Perms;

    const R: AccessKind = AccessKind::Read;

    fn e(vpage: u32) -> TlbEntry {
        TlbEntry {
            vpage,
            ppage: vpage + 100,
            user: Perms::RWX,
            kernel: Perms::RWX,
        }
    }

    /// Whether `vpage` is cached; a victim hit promotes it.
    fn cached(t: &mut DbtTlb, vpage: u32) -> bool {
        t.lookup(vpage, R, true) != Lookup::Miss
    }

    #[test]
    fn flag_round_trip() {
        let mut t = DbtTlb::new(4);
        t.insert(e(3), R, true);
        let hit = |holds_code| Lookup::Hit {
            ppage: 103,
            holds_code,
        };
        assert_eq!(t.lookup(3, R, true), hit(true));
        t.insert(e(3), R, false);
        assert_eq!(t.lookup(3, R, false), hit(false));
    }

    #[test]
    fn aliasing_spills_to_victims() {
        let mut t = DbtTlb::new(2); // 4 slots
        t.insert(e(1), R, false);
        t.insert(e(5), R, false); // aliases slot 1 → 1 goes to the victims
        assert!(cached(&mut t, 5));
        assert_eq!(t.probe_exec(1, true), None, "a victim is not probed");
        assert!(cached(&mut t, 1), "victim buffer holds the alias");
        assert_eq!(t.probe_exec(1, true), Some(101), "promoted");
        // The victim hit re-promoted 1, spilling 5.
        assert!(cached(&mut t, 5));
        t.invalidate_page(5);
        assert!(!cached(&mut t, 5));
        t.insert(e(2), R, false);
        t.flush();
        assert!(!cached(&mut t, 2));
    }

    #[test]
    fn victim_capacity_bounded() {
        let mut t = DbtTlb::new(0); // 1 slot: every insert evicts
        for v in 0..20 {
            t.insert(e(v), R, false);
        }
        // Only the last 8 victims plus the resident entry survive.
        assert!(cached(&mut t, 19));
        assert!(!cached(&mut t, 0));
        assert!(cached(&mut t, 12));
    }

    #[test]
    fn flush_drops_slots_and_victims_without_a_sweep() {
        let mut t = DbtTlb::new(2);
        t.insert(e(1), R, false);
        t.insert(e(5), R, false); // 1 is now a victim
        t.flush();
        assert!(!cached(&mut t, 5), "inserted before the flush");
        assert!(!cached(&mut t, 1), "victims go with it");
        assert_ne!(t.slots[1].tag, 0, "the slot was outdated, not swept");
        // A stale slot is overwritten, not spilled.
        t.insert(e(9), R, false);
        assert!(t.victims.is_empty());
        assert_eq!(t.probe_exec(9, false), Some(109));
    }

    #[test]
    fn epoch_wrap_sweeps_exactly_once() {
        let mut t = DbtTlb::new(2);
        // Tagged with epoch 1 — the epoch the wrap returns to.
        t.insert(e(1), R, false);
        for flushes in 1..=4094 {
            t.flush();
            assert!(!cached(&mut t, 1), "stale after {flushes} flushes");
        }
        assert_eq!(t.slots[1].tag, 1 | EPOCH_ONE, "4 094 flushes swept nothing");
        t.insert(e(2), R, false); // epoch 4 095, the last before the wrap
        t.flush();
        assert_eq!(t.epoch, EPOCH_ONE, "the 4 095th flush wraps");
        assert!(t.slots.iter().all(|s| s.tag == 0), "and sweeps");
        assert!(
            !cached(&mut t, 1),
            "epoch 1 is live again; its old tag is not"
        );
        assert!(!cached(&mut t, 2));
        assert_eq!(t.probe_exec(1, true), None);
        t.insert(e(1), R, false);
        t.flush();
        assert_eq!(
            t.slots[1].tag,
            1 | EPOCH_ONE,
            "the next flush is a bump again"
        );
    }
}
