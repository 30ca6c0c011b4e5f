//! One oracle for every TLB structure: whatever a structure answers for
//! an access at either privilege, nonprivileged or not, is
//! `TlbEntry::check` run on the entry it holds for the page. The
//! structures resolve permissions when an entry is filled and answer a
//! hit from those bits; the oracle checks them against the walked entry
//! under random fills, remaps, flushes and the evictions that sixteen
//! pages over a few slots bring.

use proptest::prelude::*;
use simbench_core::fault::AccessKind;
use simbench_core::mmu::{Perms, TlbEntry};
use simbench_core::run::{Lookup, Tlb};
use simbench_core::tlb::{DirectTlb, SetAssocTlb, SplitCache};
use simbench_core::PAGE_SHIFT;
use simbench_dbt::tlb::DbtTlb;

const PAGES: u32 = 16;
const ACCESSES: [AccessKind; 3] = [AccessKind::Read, AccessKind::Write, AccessKind::Execute];

/// What the page tables say about one page: the entry a walk returns
/// (user r/w/x in bits 0–2 of `perms`, kernel in 3–5) and whether the
/// page holds translated code.
#[derive(Debug, Clone, Copy)]
struct Mapping {
    ppage: u32,
    perms: u8,
    holds_code: bool,
}

impl Mapping {
    fn entry(self, vpage: u32) -> TlbEntry {
        let rwx = |b: u8| Perms {
            r: b & 1 != 0,
            w: b & 2 != 0,
            x: b & 4 != 0,
        };
        TlbEntry {
            vpage,
            ppage: self.ppage,
            user: rwx(self.perms),
            kernel: rwx(self.perms >> 3),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// What the core does on a miss: walk and insert, only if the
    /// lookup found nothing (a TLB never holds a page twice).
    Fill(u32, AccessKind),
    /// The page tables change one page and the guest invalidates it.
    Remap(u32, Mapping),
    /// The page tables change every page (a new context, or a page
    /// that gained code) and the TLB is flushed.
    Flush { flip: u8 },
}

fn mapping() -> impl Strategy<Value = Mapping> {
    (0u32..0x100, 0u8..64, any::<bool>()).prop_map(|(ppage, perms, holds_code)| Mapping {
        ppage,
        perms,
        holds_code,
    })
}

fn op() -> impl Strategy<Value = Op> {
    let fill = || {
        (0..PAGES, prop::sample::select(&ACCESSES))
            .prop_map(|(vpage, access)| Op::Fill(vpage, access))
    };
    // Fills twice as likely as anything else: aliasing, eviction and
    // victim residency are the common case.
    prop_oneof![
        fill(),
        fill(),
        (0..PAGES, mapping()).prop_map(|(vpage, m)| Op::Remap(vpage, m)),
        (0u8..128).prop_map(|flip| Op::Flush { flip }),
    ]
}

/// Run `ops` against `t` over the page tables `table`, and after each
/// one hold every answer for every page to `TlbEntry::check` on the
/// page's mapping. A miss is always allowed (eviction), except for the
/// access just filled. `tracks_code` says whether `t` keeps the
/// write-protect flag or answers `true` for it; `also` adds a
/// structure's own checks for a page.
fn answers_equal_check<T: Tlb>(
    mut t: T,
    mut table: Vec<Mapping>,
    ops: Vec<Op>,
    tracks_code: bool,
    also: impl Fn(&mut T, u32),
) {
    for op in ops {
        match op {
            Op::Fill(vpage, access) => {
                if t.lookup(vpage, access, true) == Lookup::Miss {
                    let m = table[vpage as usize];
                    t.insert(m.entry(vpage), access, m.holds_code);
                }
                assert_ne!(t.lookup(vpage, access, false), Lookup::Miss, "just filled");
            }
            Op::Remap(vpage, m) => {
                table[vpage as usize] = m;
                t.invalidate_page(vpage);
            }
            Op::Flush { flip } => {
                for m in &mut table {
                    m.perms ^= flip & 0x3F;
                    m.holds_code ^= flip & 0x40 != 0;
                }
                t.flush();
            }
        }
        for vpage in 0..PAGES {
            let m = table[vpage as usize];
            let va = vpage << PAGE_SHIFT | 0xABC;
            for access in ACCESSES {
                for (kernel, nonpriv) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let got = t.lookup(vpage, access, kernel && !nonpriv);
                    let want = match m.entry(vpage).check(va, access, kernel, nonpriv) {
                        Ok(pa) => Lookup::Hit {
                            ppage: pa >> PAGE_SHIFT,
                            holds_code: m.holds_code || !tracks_code,
                        },
                        Err(_) => Lookup::Denied,
                    };
                    if got != Lookup::Miss {
                        assert_eq!(got, want, "page {vpage} {access:?} {kernel} {nonpriv}");
                    }
                }
            }
            also(&mut t, vpage);
        }
    }
}

/// Sixteen pages' mappings, then the ops.
fn case() -> impl Strategy<Value = (Vec<Mapping>, Vec<Op>)> {
    (
        prop::collection::vec(mapping(), PAGES as usize..PAGES as usize + 1),
        prop::collection::vec(op(), 1..60),
    )
}

proptest! {
    /// With its victim buffer: four slots and eight victims. The
    /// fetch-side `probe_exec` never answers where the full path would
    /// refuse or differ, and answers like it once the full path has
    /// promoted the page.
    #[test]
    fn dbt_tlb_answers_equal_check((table, ops) in case()) {
        answers_equal_check(DbtTlb::new(2), table, ops, true, |t, vpage| {
            for kernel in [false, true] {
                let probed = t.probe_exec(vpage, kernel);
                let full = match t.lookup(vpage, AccessKind::Execute, kernel) {
                    Lookup::Hit { ppage, .. } => Some(ppage),
                    Lookup::Denied | Lookup::Miss => None,
                };
                if probed.is_some() {
                    assert_eq!(probed, full, "page {vpage}: the probe outran the full path");
                }
                assert_eq!(t.probe_exec(vpage, kernel), full, "page {vpage}: promoted");
            }
        });
    }

    #[test]
    fn direct_tlb_answers_equal_check((table, ops) in case()) {
        answers_equal_check(DirectTlb::new(4), table, ops, false, |_, _| {});
    }

    #[test]
    fn split_cache_answers_equal_check((table, ops) in case()) {
        answers_equal_check(SplitCache::default(), table, ops, false, |_, _| {});
    }

    #[test]
    fn set_assoc_tlb_answers_equal_check((table, ops) in case()) {
        answers_equal_check(SetAssocTlb::new(2, 2), table, ops, false, |_, _| {});
    }
}
