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
//! The slot keeps its two [`Perms`](simbench_core::mmu::Perms) unpacked,
//! unlike `core::tlb::DirectTlb`'s four packed words: [`Tlb::lookup`]
//! hands a whole [`TlbEntry`] back on every data access, and unpacking
//! two permission sets per probe there cost more than the narrower slot
//! saved (ISSUE 18's prototype: `steady/dbt_mips` 52.5 → 46.6 with the
//! packed slot).

use simbench_core::fault::AccessKind;
use simbench_core::mmu::{Perms, TlbEntry};
use simbench_core::run::Tlb;

/// Bits of a tag that hold the virtual page number.
const VPAGE_BITS: u32 = 20;
/// One epoch step, in tag position.
const EPOCH_ONE: u32 = 1 << VPAGE_BITS;
/// Victim-buffer capacity.
const VICTIMS: usize = 8;

/// One cached translation plus the write-protection flag.
#[derive(Debug, Clone, Copy)]
struct DbtTlbEntry {
    /// The architectural translation.
    pub entry: TlbEntry,
    /// True if the physical page holds translation blocks.
    pub contains_code: bool,
}

/// Direct-mapped software TLB with a small fully-associative victim
/// buffer (as QEMU keeps per-mmu-idx victim TLBs).
///
/// The `Default` table has no slots and must not be probed: it is what
/// `mem::take` leaves in an engine that hands its table on.
#[derive(Debug, Clone, Default)]
pub struct DbtTlb {
    slots: Vec<(u32, DbtTlbEntry)>,
    /// Entries evicted from `slots` in the live epoch, tagged like them.
    victims: Vec<(u32, DbtTlbEntry)>,
    mask: u32,
    /// The live epoch, in tag position: a multiple of [`EPOCH_ONE`],
    /// never zero.
    epoch: u32,
}

impl DbtTlb {
    /// A TLB with `1 << bits` slots.
    pub fn new(bits: u8) -> Self {
        let n = 1usize << bits;
        let never_valid = DbtTlbEntry {
            entry: TlbEntry {
                vpage: 0,
                ppage: 0,
                user: Perms::NONE,
                kernel: Perms::NONE,
            },
            contains_code: false,
        };
        DbtTlb {
            // lint:allow(hot-path): one-time constructor allocation
            slots: vec![(0, never_valid); n],
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
        let (tag, e) = &self.slots[(vpage & self.mask) as usize];
        let perms = if kernel { e.entry.kernel } else { e.entry.user };
        (*tag == self.tag(vpage) && perms.x).then_some(e.entry.ppage)
    }
}

impl Tlb for DbtTlb {
    /// Main array first, then the victim buffer (promoting on a victim
    /// hit).
    #[inline]
    fn lookup(&mut self, vpage: u32, access: AccessKind) -> Option<(TlbEntry, bool)> {
        let tag = self.tag(vpage);
        let slot = &self.slots[(vpage & self.mask) as usize];
        if slot.0 == tag {
            return Some((slot.1.entry, slot.1.contains_code));
        }
        let i = self.victims.iter().position(|v| v.0 == tag)?;
        let (_, entry) = self.victims.swap_remove(i);
        self.insert(entry.entry, access, entry.contains_code);
        Some((entry.entry, entry.contains_code))
    }

    /// Spills any evicted entry to the victim buffer.
    #[inline]
    fn insert(&mut self, entry: TlbEntry, _access: AccessKind, contains_code: bool) {
        let tag = self.tag(entry.vpage);
        let slot = &mut self.slots[(entry.vpage & self.mask) as usize];
        // Evicting a live entry for another page; a stale one just goes.
        if slot.0 & !(EPOCH_ONE - 1) == self.epoch && slot.0 != tag {
            if self.victims.len() == VICTIMS {
                self.victims.remove(0);
            }
            self.victims.push(*slot);
        }
        *slot = (
            tag,
            DbtTlbEntry {
                entry,
                contains_code,
            },
        );
    }

    fn invalidate_page(&mut self, vpage: u32) {
        let tag = self.tag(vpage);
        let slot = &mut self.slots[(vpage & self.mask) as usize];
        if slot.0 == tag {
            slot.0 = 0;
        }
        self.victims.retain(|v| v.0 != tag);
    }

    /// O(1): see the epoch rule in the module docs.
    fn flush(&mut self) {
        self.victims.clear();
        self.epoch = self.epoch.wrapping_add(EPOCH_ONE);
        if self.epoch == 0 {
            // Wrapped: tags of 4 095 flushes ago would read as live.
            for s in &mut self.slots {
                s.0 = 0;
            }
            self.epoch = EPOCH_ONE;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use simbench_core::{page_of, PAGE_SHIFT};

    const R: AccessKind = AccessKind::Read;
    const X: AccessKind = AccessKind::Execute;

    fn e(vpage: u32) -> TlbEntry {
        TlbEntry {
            vpage,
            ppage: vpage + 100,
            user: Perms::RWX,
            kernel: Perms::RWX,
        }
    }

    #[test]
    fn flag_round_trip() {
        let mut t = DbtTlb::new(4);
        t.insert(e(3), R, true);
        let (entry, contains_code) = t.lookup(3, R).unwrap();
        assert!(contains_code);
        assert_eq!(entry.ppage, 103);
        t.insert(e(3), R, false);
        assert!(!t.lookup(3, R).unwrap().1);
    }

    #[test]
    fn aliasing_spills_to_victims() {
        let mut t = DbtTlb::new(2); // 4 slots
        t.insert(e(1), R, false);
        t.insert(e(5), R, false); // aliases slot 1 → 1 goes to the victims
        assert!(t.lookup(5, R).is_some());
        assert!(t.lookup(1, R).is_some(), "victim buffer holds the alias");
        // The victim hit re-promoted 1, spilling 5.
        assert!(t.lookup(5, R).is_some());
        t.invalidate_page(5);
        assert!(t.lookup(5, R).is_none());
        t.insert(e(2), R, false);
        t.flush();
        assert!(t.lookup(2, R).is_none());
    }

    #[test]
    fn victim_capacity_bounded() {
        let mut t = DbtTlb::new(0); // 1 slot: every insert evicts
        for v in 0..20 {
            t.insert(e(v), R, false);
        }
        // Only the last 8 victims plus the resident entry survive.
        assert!(t.lookup(19, R).is_some());
        assert!(t.lookup(0, R).is_none());
        assert!(t.lookup(12, R).is_some());
    }

    #[test]
    fn flush_drops_slots_and_victims_without_a_sweep() {
        let mut t = DbtTlb::new(2);
        t.insert(e(1), R, false);
        t.insert(e(5), R, false); // 1 is now a victim
        t.flush();
        assert!(t.lookup(5, R).is_none(), "inserted before the flush");
        assert!(t.lookup(1, R).is_none(), "victims go with it");
        assert_ne!(t.slots[1].0, 0, "the slot was outdated, not swept");
        // A stale slot is overwritten, not spilled.
        t.insert(e(9), R, false);
        assert!(t.victims.is_empty());
        assert_eq!(t.lookup(9, R).unwrap().0.ppage, 109);
    }

    #[test]
    fn epoch_wrap_sweeps_exactly_once() {
        let mut t = DbtTlb::new(2);
        // Tagged with epoch 1 — the epoch the wrap returns to.
        t.insert(e(1), R, false);
        for flushes in 1..=4094 {
            t.flush();
            assert!(t.lookup(1, R).is_none(), "stale after {flushes} flushes");
        }
        assert_eq!(t.slots[1].0, 1 | EPOCH_ONE, "4 094 flushes swept nothing");
        t.insert(e(2), R, false); // epoch 4 095, the last before the wrap
        t.flush();
        assert_eq!(t.epoch, EPOCH_ONE, "the 4 095th flush wraps");
        assert!(t.slots.iter().all(|s| s.0 == 0), "and sweeps");
        assert!(
            t.lookup(1, R).is_none(),
            "epoch 1 is live again; its old tag is not"
        );
        assert!(t.lookup(2, R).is_none());
        assert_eq!(t.probe_exec(1, true), None);
        t.insert(e(1), R, false);
        t.flush();
        assert_eq!(
            t.slots[1].0,
            1 | EPOCH_ONE,
            "the next flush is a bump again"
        );
    }

    /// One step of the `probe_exec` property's op sequence.
    #[derive(Debug, Clone)]
    enum TlbOp {
        /// What the core does on a miss: insert only what `lookup` did
        /// not find (the TLB never holds a page twice).
        Fill {
            vpage: u32,
            user_x: bool,
            kernel_x: bool,
        },
        Invalidate(u32),
        Flush,
        /// A data-side lookup, for the victim promotion it may do.
        Touch(u32),
    }

    fn tlb_op() -> impl Strategy<Value = TlbOp> {
        let fill = || {
            (0u32..16, any::<bool>(), any::<bool>()).prop_map(|(vpage, user_x, kernel_x)| {
                TlbOp::Fill {
                    vpage,
                    user_x,
                    kernel_x,
                }
            })
        };
        // Sixteen pages over four slots, fills twice as likely as
        // anything else: aliasing, spills and victim residency are the
        // common case.
        prop_oneof![
            fill(),
            fill(),
            (0u32..16).prop_map(TlbOp::Invalidate),
            (0u32..16).prop_map(TlbOp::Touch),
            Just(TlbOp::Flush),
        ]
    }

    proptest! {
        /// `probe_exec` never answers where `lookup` + `check(Execute)`
        /// would refuse or differ, and never answers from the victim
        /// buffer (promotion is the full path's job).
        #[test]
        fn probe_exec_never_outruns_the_full_path(
            ops in prop::collection::vec(tlb_op(), 1..40),
        ) {
            let mut t = DbtTlb::new(2);
            for op in ops {
                match op {
                    TlbOp::Fill { vpage, user_x, kernel_x } => {
                        let perms = |x| Perms { r: true, w: false, x };
                        let entry = TlbEntry {
                            user: perms(user_x),
                            kernel: perms(kernel_x),
                            ..e(vpage)
                        };
                        if t.lookup(vpage, X).is_none() {
                            t.insert(entry, X, false);
                        }
                    }
                    TlbOp::Invalidate(vpage) => t.invalidate_page(vpage),
                    TlbOp::Flush => t.flush(),
                    TlbOp::Touch(vpage) => {
                        t.lookup(vpage, R);
                    }
                }
                for vpage in 0..16 {
                    for kernel in [false, true] {
                        let probed = t.probe_exec(vpage, kernel);
                        let in_victims = t.victims.iter().any(|v| v.0 == t.tag(vpage));
                        // The oracle runs second: it may promote.
                        let full = t
                            .lookup(vpage, X)
                            .and_then(|(entry, _)| {
                                entry.check(vpage << PAGE_SHIFT, X, kernel, false).ok()
                            })
                            .map(page_of);
                        if in_victims {
                            prop_assert_eq!(probed, None);
                        } else {
                            prop_assert_eq!(probed, full);
                        }
                    }
                }
            }
        }
    }
}
