//! The DBT engine's software TLB with code-page write protection.
//!
//! Each entry carries a `contains_code` flag (the analogue of QEMU's
//! `TLB_NOTDIRTY`): stores through flagged entries take a slow path that
//! checks for — and invalidates — translations in the target page. Pages
//! acquire the flag at fill time; when a page *gains* its first
//! translation block after entries were already cached, the engine
//! flushes this TLB so stale unflagged entries cannot miss an
//! invalidation.

use simbench_core::fault::AccessKind;
use simbench_core::mmu::TlbEntry;
use simbench_core::run::Tlb;

const INVALID: u32 = u32::MAX;

/// One cached translation plus the write-protection flag.
#[derive(Debug, Clone, Copy)]
pub struct DbtTlbEntry {
    /// The architectural translation.
    pub entry: TlbEntry,
    /// True if the physical page holds translation blocks.
    pub contains_code: bool,
}

/// Direct-mapped software TLB with a small fully-associative victim
/// buffer (as QEMU keeps per-mmu-idx victim TLBs).
#[derive(Debug, Clone)]
pub struct DbtTlb {
    slots: Vec<(u32, DbtTlbEntry)>,
    victims: Vec<(u32, DbtTlbEntry)>,
    mask: u32,
    hits: u64,
    misses: u64,
}

impl DbtTlb {
    /// A TLB with `1 << bits` slots.
    pub fn new(bits: u8) -> Self {
        let n = 1usize << bits;
        let dummy = DbtTlbEntry {
            entry: TlbEntry {
                vpage: 0,
                ppage: 0,
                user: simbench_core::mmu::Perms::NONE,
                kernel: simbench_core::mmu::Perms::NONE,
            },
            contains_code: false,
        };
        DbtTlb {
            // lint:allow(hot-path): one-time constructor allocation
            slots: vec![(INVALID, dummy); n],
            victims: Vec::with_capacity(8),
            mask: n as u32 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Tlb for DbtTlb {
    /// Main array first, then the victim buffer (promoting on a victim
    /// hit).
    #[inline]
    fn lookup(&mut self, vpage: u32, access: AccessKind) -> Option<(TlbEntry, bool)> {
        let slot = &self.slots[(vpage & self.mask) as usize];
        if slot.0 == vpage {
            self.hits += 1;
            return Some((slot.1.entry, slot.1.contains_code));
        }
        if let Some(i) = self.victims.iter().position(|v| v.0 == vpage) {
            let (tag, entry) = self.victims.swap_remove(i);
            self.insert(entry.entry, access, entry.contains_code);
            self.hits += 1;
            debug_assert_eq!(tag, vpage);
            return Some((entry.entry, entry.contains_code));
        }
        self.misses += 1;
        None
    }

    /// Spills any evicted entry to the victim buffer.
    #[inline]
    fn insert(&mut self, entry: TlbEntry, _access: AccessKind, contains_code: bool) {
        let vpage = entry.vpage;
        let slot = &mut self.slots[(vpage & self.mask) as usize];
        if slot.0 != INVALID && slot.0 != vpage {
            if self.victims.len() == 8 {
                self.victims.remove(0);
            }
            self.victims.push(*slot);
        }
        *slot = (
            vpage,
            DbtTlbEntry {
                entry,
                contains_code,
            },
        );
    }

    fn invalidate_page(&mut self, vpage: u32) {
        let slot = &mut self.slots[(vpage & self.mask) as usize];
        if slot.0 == vpage {
            slot.0 = INVALID;
        }
        self.victims.retain(|v| v.0 != vpage);
    }

    fn flush(&mut self) {
        for s in &mut self.slots {
            s.0 = INVALID;
        }
        self.victims.clear();
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
}
