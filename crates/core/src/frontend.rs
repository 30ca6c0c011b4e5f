//! The decoded-page front end: decode once per physical code page,
//! execute from an arena.
//!
//! Engines that cache decoded instructions ([`crate::run::Policy::front_end`])
//! own one [`FrontEnd`]. Its lifecycle is the DBT step arena's
//! (`dbt::cache::CodeCache`), one level down:
//!
//! * every cached [`Decoded`] lives back to back in **one arena**;
//! * a [`PageTable`] indexed directly by physical page number — no
//!   hashing — points at a per-page **slot table** of `u16` arena
//!   indices, one per byte offset (8 KiB a code page);
//! * a store forgets exactly the decodes whose bytes it overlaps
//!   ([`FrontEnd::store`]): it looks at the few slots an instruction
//!   covering the stored bytes could start at and zeroes those that do.
//!   Nothing is freed or allocated, and an instruction that overwrites
//!   itself keeps executing from its still-valid arena index;
//! * forgotten decodes are reclaimed all at once — at the run-start
//!   [`FrontEnd::reset`], or when the arena reaches `ARENA_CAP` — by
//!   truncating the arena and zeroing the live slot tables. Every
//!   container keeps its capacity, so a warm engine never allocates.
//!
//! A page's decodes also remember the *virtual* page they were made
//! under: decoders bake the virtual pc into absolute branch targets and
//! return addresses, so a frame fetched through a second alias is
//! decoded again rather than executed with the first alias's targets.
//! That is the one event that still drops a whole page, in O(1): the
//! page's arena range goes **dark** (slot values at or below the page's
//! `dark` mark no longer count).
//!
//! The one-entry **fetch memo** remembers the last page fetched from
//! (virtual page and privilege → physical page and slot table), so
//! straight-line execution inside a page skips the TLB probe and the
//! page-table index. It claims a TLB hit on the probe's behalf, so it
//! must be forgotten whenever that claim could become false: the core
//! does so wherever it mutates a TLB and on every exception delivery.

use crate::ir::{Decoded, InsnClass, MemSize, Op};
use crate::{page_base, page_of, PAGE_SIZE};

/// Slots per page: one per byte offset.
const SLOTS: usize = PAGE_SIZE as usize;

/// The longest instruction any decoder returns: what the core's fetch
/// buffer holds.
const MAX_INSN_BYTES: usize = 8;

/// Arena length at which every decode is dropped: the fixed-size
/// "hardware" decoded-instruction cache overflowing, at about the
/// capacity of a real micro-op cache. Every workload's live code is
/// well under a tenth of it; what fills it is self-modifying code
/// leaving dark ranges behind, and the cap is what bounds their memory
/// (and keeps `u16` slot values representable).
const ARENA_CAP: usize = 1 << 12;

/// The arena slot for instructions that must not be cached. Doubles as
/// the "empty" slot value: a zeroed slot table holds no decodes.
const UNCACHED: u16 = 0;

/// Per-page records indexed directly by physical page number.
///
/// Records live in a dense pool and are recycled across
/// [`PageTable::clear`]s with whatever capacity they own, so clearing
/// costs O(linked pages) — not O(RAM) — and relinking after a warm-up
/// allocates nothing.
#[derive(Debug, Default)]
pub struct PageTable<T> {
    /// Physical page → 1 + record number; 0 is "no record". Grown to
    /// the highest page ever linked.
    index: Vec<u32>,
    /// The pool; the first `linked` records are in use.
    records: Vec<(u32, T)>,
    linked: usize,
}

impl<T: Default> PageTable<T> {
    /// The record number of `ppage`, if it has one.
    #[inline]
    pub fn find(&self, ppage: u32) -> Option<usize> {
        match self.index.get(ppage as usize) {
            Some(&n) if n != 0 => Some(n as usize - 1),
            _ => None,
        }
    }

    /// The record of `ppage`, if it has one.
    #[inline]
    pub fn get(&self, ppage: u32) -> Option<&T> {
        self.find(ppage).map(|i| &self.records[i].1)
    }

    /// The record of `ppage`, if it has one.
    #[inline]
    pub fn get_mut(&mut self, ppage: u32) -> Option<&mut T> {
        self.find(ppage).map(|i| &mut self.records[i].1)
    }

    /// The record number of `ppage`, linking a recycled (or, past the
    /// pool's high-water mark, new) record first if it has none. A
    /// recycled record arrives as its previous user left it.
    #[inline]
    pub fn claim(&mut self, ppage: u32) -> usize {
        match self.find(ppage) {
            Some(i) => i,
            None => self.link(ppage),
        }
    }

    #[cold]
    fn link(&mut self, ppage: u32) -> usize {
        let p = ppage as usize;
        if p >= self.index.len() {
            self.index.resize(p + 1, 0);
        }
        let i = self.linked;
        match self.records.get_mut(i) {
            Some(r) => r.0 = ppage,
            None => self.records.push((ppage, T::default())),
        }
        self.linked += 1;
        self.index[p] = self.linked as u32;
        i
    }

    /// Record number `i`, as returned by [`PageTable::find`].
    #[inline]
    pub fn record_mut(&mut self, i: usize) -> &mut T {
        &mut self.records[i].1
    }

    /// The linked records, in linking order.
    pub fn linked_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.records[..self.linked].iter_mut().map(|r| &mut r.1)
    }

    /// Number of linked records.
    pub fn linked(&self) -> usize {
        self.linked
    }

    /// Unlink every page. Records return to the pool as they are.
    pub fn clear(&mut self) {
        for r in &self.records[..self.linked] {
            self.index[r.0 as usize] = 0;
        }
        self.linked = 0;
    }
}

/// What the front end knows about one physical code page. Its slot
/// table is `slots[record * SLOTS..][..SLOTS]`.
#[derive(Debug, Default, Clone, Copy)]
struct CodePage {
    /// The virtual page the live decodes were made under.
    vpage: u32,
    /// Slot values at or below this arena index are dead: decodes made
    /// under another virtual alias of the frame.
    dark: u16,
}

/// The fetch memo: the last page fetched from.
#[derive(Debug, Clone, Copy)]
struct Memo {
    /// `vpage << 1 | kernel`, or [`Memo::NONE`].
    key: u32,
    /// Base address of the physical page.
    pbase: u32,
    /// Offset of the page's slot table in `slots`.
    table: usize,
    /// The page's [`CodePage::dark`].
    dark: u16,
    /// What the skipped TLB probe would have added to `tlb_hits`.
    tlb_hits: u64,
}

impl Memo {
    /// No key compares equal: keys are 21 bits.
    const NONE: u32 = u32::MAX;
}

/// The decoded-page front end of one engine.
#[derive(Debug)]
pub struct FrontEnd {
    /// Every cached decode, back to back; index 0 is [`UNCACHED`].
    arena: Vec<Decoded>,
    pages: PageTable<CodePage>,
    /// Slot tables of the page records, `SLOTS` entries each.
    slots: Vec<u16>,
    memo: Memo,
}

impl Default for FrontEnd {
    /// A front end that owns nothing, not even the reserved slot, and
    /// must not be used: it is what `mem::take` leaves in an engine
    /// that hands its tables on. [`FrontEnd::new`] makes a usable one.
    fn default() -> Self {
        FrontEnd {
            arena: Vec::new(),
            pages: PageTable::default(),
            slots: Vec::new(),
            memo: Memo {
                key: Memo::NONE,
                pbase: 0,
                table: 0,
                dark: 0,
                tlb_hits: 0,
            },
        }
    }
}

impl FrontEnd {
    /// An empty front end.
    pub fn new() -> Self {
        let mut fe = FrontEnd::default();
        fe.arena.push(Decoded::new(0, [Op::Nop], InsnClass::Nop));
        fe
    }

    /// Forget every decode and every page, keeping all capacity: the
    /// run-start reset. O(pages that held code).
    pub fn reset(&mut self) {
        self.drop_decodes();
        self.pages.clear();
    }

    /// Reclaim the arena. Pages stay linked, with empty slot tables.
    fn drop_decodes(&mut self) {
        self.arena.truncate(1);
        self.slots[..self.pages.linked() * SLOTS].fill(UNCACHED);
        for page in self.pages.linked_mut() {
            page.dark = 0;
        }
        self.forget_memo();
    }

    /// Drop the fetch memo.
    #[inline]
    pub fn forget_memo(&mut self) {
        self.memo.key = Memo::NONE;
    }

    #[inline]
    pub(crate) fn memo_key(pc: u32, kernel: bool) -> u32 {
        page_of(pc) << 1 | u32::from(kernel)
    }

    /// Memo probe for a fetch at `pc`: `None` when the memo is for
    /// another page or privilege; otherwise what the skipped TLB probe
    /// would have added to `tlb_hits`, and the cached slot — or, when
    /// the instruction is yet to be decoded, its physical address.
    #[inline]
    pub(crate) fn probe_memo(&self, key: u32, pc: u32) -> Option<(u64, Result<u16, u32>)> {
        let m = &self.memo;
        if m.key != key {
            return None;
        }
        let off = pc & (PAGE_SIZE - 1);
        let slot = self.slots[m.table + off as usize];
        Some((
            m.tlb_hits,
            if slot > m.dark {
                Ok(slot)
            } else {
                Err(m.pbase | off)
            },
        ))
    }

    /// The memo's claim about `key`, for the debug cross-check: the
    /// physical page base and the `tlb_hits` increment.
    pub(crate) fn memo_claim(&self, key: u32) -> Option<(u32, u64)> {
        (self.memo.key == key).then_some((self.memo.pbase, self.memo.tlb_hits))
    }

    /// A fetch at `pc` just translated to `pa` the long way. Memoise
    /// the page if it has a record, and return the cached slot if the
    /// instruction has one. Decodes made under another virtual alias of
    /// the frame go dark first.
    #[inline]
    pub(crate) fn enter_page(&mut self, key: u32, pc: u32, pa: u32, tlb_hits: u64) -> Option<u16> {
        let record = self.pages.find(page_of(pa))?;
        let dark_below = self.arena.len() as u16 - 1;
        let page = self.pages.record_mut(record);
        if page.vpage != page_of(pc) {
            page.vpage = page_of(pc);
            page.dark = dark_below;
        }
        self.memo = Memo {
            key,
            pbase: page_base(pa),
            table: record * SLOTS,
            dark: page.dark,
            tlb_hits,
        };
        let slot = self.slots[self.memo.table + (pa & (PAGE_SIZE - 1)) as usize];
        (slot > self.memo.dark).then_some(slot)
    }

    /// Copy the fresh decode `d` of the instruction at `pc` / `pa` into
    /// the arena and return the slot to execute it from. An instruction that
    /// continues on the next page depends on that page's mapping and
    /// contents, which this page's coherency tracking does not see: it
    /// is never cached.
    #[inline]
    pub(crate) fn insert(&mut self, pc: u32, pa: u32, d: &Decoded) -> u16 {
        debug_assert!(d.len as usize <= MAX_INSN_BYTES);
        let off = (pa & (PAGE_SIZE - 1)) as usize;
        if off + d.len as usize > SLOTS {
            self.arena[UNCACHED as usize] = *d;
            return UNCACHED;
        }
        if self.arena.len() == ARENA_CAP {
            self.drop_decodes();
        }
        let record = match self.pages.find(page_of(pa)) {
            Some(record) => record,
            None => self.first_touch(page_of(pc), page_of(pa)),
        };
        let slot = self.arena.len() as u16;
        self.arena.push(*d);
        self.slots[record * SLOTS + off] = slot;
        slot
    }

    /// Link a record for a page about to hold its first decode.
    #[cold]
    fn first_touch(&mut self, vpage: u32, ppage: u32) -> usize {
        let record = self.pages.claim(ppage);
        if self.slots.len() < (record + 1) * SLOTS {
            self.slots.resize((record + 1) * SLOTS, UNCACHED);
        }
        *self.pages.record_mut(record) = CodePage {
            vpage,
            ..CodePage::default()
        };
        record
    }

    /// Instruction-cache coherency: a store of `size` bytes to `pa`
    /// completed. Every cached decode it overlaps is forgotten; true if
    /// there was one.
    #[inline]
    pub fn store(&mut self, pa: u32, size: MemSize) -> bool {
        match self.pages.find(page_of(pa)) {
            Some(record) => self.forget_overlapped(record, pa, size),
            None => false,
        }
    }

    /// The store path on a page with a record: look at every slot whose
    /// instruction could reach the stored bytes — those starting up to
    /// `MAX_INSN_BYTES - 1` before them — and zero the ones that do.
    /// The arena entries stay, so the storing instruction, if it is one
    /// of them, finishes from its own slot; the fetch memo reads slots
    /// through the table and needs no telling.
    fn forget_overlapped(&mut self, record: usize, pa: u32, size: MemSize) -> bool {
        let dark = self.pages.record_mut(record).dark;
        let first = (pa & (PAGE_SIZE - 1)) as usize;
        let from = first.saturating_sub(MAX_INSN_BYTES - 1);
        // Stores are naturally aligned and never leave the page.
        let end = (first + size.bytes() as usize).min(SLOTS);
        let mut hit = false;
        for (at, slot) in (from..).zip(&mut self.slots[record * SLOTS..][from..end]) {
            if *slot > dark && at + self.arena[*slot as usize].len as usize > first {
                *slot = UNCACHED;
                hit = true;
            }
        }
        hit
    }

    /// The decoded instruction in `slot`.
    #[inline]
    pub(crate) fn decoded(&self, slot: u16) -> &Decoded {
        &self.arena[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Bus, FlatRam};
    use crate::cpu::{CpuState, Privilege};
    use crate::engine::{ExitReason, RunLimits, RunOutcome};
    use crate::events::Counters;
    use crate::exec::ExecCtx;
    use crate::fault::{CopFault, ExcInfo, ExceptionKind};
    use crate::image::GuestImage;
    use crate::ir::DecodeError;
    use crate::isa::{CopEffect, Isa};
    use crate::machine::Machine;
    use crate::mmu::{Perms, TlbEntry, WalkResult};
    use crate::run::{run, ExecCore, Policy, PolicyObs};
    use crate::tlb::DirectTlb;

    fn nop() -> Decoded {
        Decoded::new(4, [Op::Nop], InsnClass::Nop)
    }

    fn kernel_key(pc: u32) -> u32 {
        FrontEnd::memo_key(pc, true)
    }

    #[test]
    fn page_table_recycles_records_and_clears_in_linked_order() {
        let mut t = PageTable::<Vec<u32>>::default();
        assert_eq!(t.find(7), None);
        let r = t.claim(0x5_0000);
        t.record_mut(r).extend([1, 2, 3]);
        assert_eq!(t.claim(0x5_0000), r, "claiming twice links once");
        assert_eq!(t.claim(7), 1);
        assert_eq!(t.get(0x5_0000).map(Vec::len), Some(3));
        assert_eq!((t.linked(), t.linked_mut().count()), (2, 2));

        t.clear();
        assert_eq!((t.linked(), t.find(7), t.find(0x5_0000)), (0, None, None));
        assert_eq!(t.index.len(), 0x5_0001, "the index keeps its extent");
        // The pool hands records out again as they were left: the list
        // (and its capacity) page 0x5_0000 grew now serves page 9.
        let r = t.claim(9);
        assert_eq!((r, t.record_mut(r).len()), (0, 3));
    }

    #[test]
    fn a_page_straddling_instruction_is_decoded_afresh_every_time() {
        let mut fe = FrontEnd::new();
        let wide = Decoded::new(4, [Op::Halt], InsnClass::System);
        for _ in 0..3 {
            assert_eq!(fe.insert(0x1ffe, 0x7ffe, &wide), UNCACHED);
            assert_eq!(*fe.decoded(UNCACHED), wide);
        }
        assert_eq!(fe.arena.len(), 1, "nothing was cached");
        assert_eq!(fe.pages.linked(), 0, "the page holds no decodes");
        assert!(!fe.store(0x7ffe, MemSize::B2));
        // The last instruction that fits is cached like any other.
        assert_eq!(fe.insert(0x1ffc, 0x7ffc, &nop()), 1);
        assert_eq!(
            fe.enter_page(kernel_key(0x1ffc), 0x1ffc, 0x7ffc, 1),
            Some(1)
        );
    }

    #[test]
    fn a_second_alias_of_a_frame_decodes_again_without_an_invalidation() {
        let mut fe = FrontEnd::new();
        fe.insert(0x40_0020, 0x2_0020, &nop());
        let slot = fe.insert(0x40_0010, 0x2_0010, &nop());
        assert_eq!(
            fe.enter_page(kernel_key(0x40_0010), 0x40_0010, 0x2_0010, 1),
            Some(slot)
        );
        assert_eq!(
            fe.enter_page(kernel_key(0x80_0010), 0x80_0010, 0x2_0010, 1),
            None,
            "decoded under the other alias"
        );
        let again = fe.insert(0x80_0010, 0x2_0010, &nop());
        assert_ne!(again, slot);
        assert_eq!(
            fe.probe_memo(kernel_key(0x80_0010), 0x80_0010),
            Some((1, Ok(again)))
        );
        // The first alias's decodes are dark, not cached: a store over
        // one is no invalidation, a store over the live one is.
        assert!(!fe.store(0x2_0020, MemSize::B4));
        assert!(fe.store(0x2_0010, MemSize::B4));
        assert_eq!(
            fe.probe_memo(kernel_key(0x80_0010), 0x80_0010),
            Some((1, Err(0x2_0010))),
            "the memo reads slots through the table"
        );
    }

    #[test]
    fn a_store_forgets_exactly_the_decodes_it_overlaps() {
        let mut fe = FrontEnd::new();
        let six = Decoded::new(6, [Op::Nop], InsnClass::Nop);
        let cached = |fe: &mut FrontEnd, pa| fe.enter_page(kernel_key(pa), pa, pa, 0).is_some();
        // [0x1000, 0x1006) [0x1010, 0x1016) [0x1016, 0x101a), and one
        // ending with the page.
        for (pa, d) in [
            (0x1000, six),
            (0x1010, six),
            (0x1016, nop()),
            (0x1ffc, nop()),
        ] {
            fe.insert(pa, pa, &d);
        }
        for (pa, size) in [
            (0x1006, MemSize::B2), // the bytes after the first
            (0x100c, MemSize::B4), // the bytes before the second
            (0x101a, MemSize::B2),
            (0x1ff8, MemSize::B4),
        ] {
            assert!(!fe.store(pa, size), "{pa:#x}: between instructions");
        }
        // The last byte of one instruction: its neighbour, one byte on,
        // stays.
        assert!(fe.store(0x1015, MemSize::B1));
        assert!(!cached(&mut fe, 0x1010) && cached(&mut fe, 0x1016));
        assert!(!fe.store(0x1015, MemSize::B1), "already forgotten");
        // A middle byte; the first and the last byte of the page.
        assert!(fe.store(0x1003, MemSize::B1) && !cached(&mut fe, 0x1000));
        assert!(fe.store(0x1fff, MemSize::B1) && !cached(&mut fe, 0x1ffc));
        assert!(!fe.store(0x1000, MemSize::B1));
        // One store across two instructions forgets both.
        fe.insert(0x1010, 0x1010, &six);
        assert!(fe.store(0x1014, MemSize::B4));
        assert!(!cached(&mut fe, 0x1010) && !cached(&mut fe, 0x1016));
    }

    #[test]
    fn reset_visits_only_pages_that_held_code() {
        let mut fe = FrontEnd::new();
        fe.insert(0x4fff_f000, 0x4fff_f000, &nop());
        fe.insert(0x1000, 0x1000, &nop());
        assert_eq!(fe.pages.linked(), 2);
        let (index, slots) = (fe.pages.index.len(), fe.slots.len());
        assert_eq!((index, slots), (0x5_0000, 2 * SLOTS));

        fe.reset();
        assert_eq!((fe.pages.linked(), fe.arena.len()), (0, 1));
        assert_eq!((fe.pages.index.len(), fe.slots.len()), (index, slots));
        assert!(fe.slots.iter().all(|&s| s == UNCACHED));
        assert!(
            !fe.store(0x1000, MemSize::B4),
            "nothing is cached after a reset"
        );
        assert_eq!(fe.enter_page(kernel_key(0x1000), 0x1000, 0x1000, 0), None);
        // The next run's first code page reuses record 0.
        fe.insert(0x9000, 0x9000, &nop());
        assert_eq!(fe.pages.find(9), Some(0));
    }

    #[test]
    fn a_full_arena_forgets_every_decode_and_a_store_counts_only_what_is_cached() {
        let mut fe = FrontEnd::new();
        for i in 0..ARENA_CAP as u32 + 10 {
            let pa = 0x1000 + (i % 1024) * 4;
            let slot = fe.insert(pa, pa, &nop());
            assert!(fe.arena.len() <= ARENA_CAP);
            assert_eq!(fe.enter_page(kernel_key(pa), pa, pa, 0), Some(slot));
        }
        assert_eq!(fe.arena.len(), 12, "restarted after the overflow");
        assert_eq!(
            fe.enter_page(kernel_key(0x17d0), 0x17d0, 0x17d0, 0),
            None,
            "decodes from before the overflow are gone"
        );
        // The overflow forgot that instruction, so overwriting it
        // invalidates nothing; one decoded since counts.
        assert!(!fe.store(0x17d0, MemSize::B4));
        assert!(fe.store(0x1000 + (ARENA_CAP as u32 % 1024) * 4, MemSize::B4));
    }

    /// Four-byte toy ISA for driving the front end through the real
    /// core: `[opcode, a, b, c]`.
    struct Toy;

    const NOP: u8 = 0;
    const HALT: u8 = 1;
    /// `r[a] = b | c << 8`
    const MOVI: u8 = 2;
    /// `[r[b] + c] = r[a]` (word)
    const STW: u8 = 3;
    /// `r[a] = [r[b] + c]` (word)
    const LDW: u8 = 4;
    /// Control register `a` = `r[b]`: 0 invalidates the TLB entry of a
    /// page, 1 flushes the TLB, 2 switches the MMU.
    const COP: u8 = 5;
    const SVC: u8 = 6;
    const ERET: u8 = 7;
    /// Two stores in one instruction: `[r[b]] = r[a]; [r[c]] = r[a]`.
    const STW2: u8 = 8;

    /// Exception vector.
    const VECTOR: u32 = 0x100;
    /// The page user code may not execute from.
    const KERNEL_TEXT: u32 = 0x1000;

    #[derive(Debug, Clone, Default)]
    struct ToySys {
        mmu: bool,
        saved_pc: u32,
        saved_level: Privilege,
    }

    impl Isa for Toy {
        const NAME: &'static str = "toy";
        const MAX_INSN_BYTES: usize = 4;
        const GPRS: usize = 4;
        type Sys = ToySys;

        fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {
            let &[op, a, b, c] = bytes else {
                return Err(DecodeError { pc });
            };
            let store = |base| Op::Store {
                rs: a,
                base,
                off: 0,
                size: MemSize::B4,
                nonpriv: false,
            };
            let (ops, class): (OpList, _) = match op {
                NOP => ([Op::Nop].into(), InsnClass::Nop),
                HALT => ([Op::Halt].into(), InsnClass::System),
                MOVI => {
                    let src = Operand::Imm(u32::from(b) | u32::from(c) << 8);
                    let mov = Op::Alu {
                        op: AluOp::Mov,
                        rd: a,
                        rn: 0,
                        src,
                        set_flags: false,
                    };
                    ([mov].into(), InsnClass::Alu)
                }
                STW => {
                    let st = Op::Store {
                        rs: a,
                        base: b,
                        off: i32::from(c),
                        size: MemSize::B4,
                        nonpriv: false,
                    };
                    ([st].into(), InsnClass::Mem)
                }
                LDW => {
                    let ld = Op::Load {
                        rd: a,
                        base: b,
                        off: i32::from(c),
                        size: MemSize::B4,
                        nonpriv: false,
                    };
                    ([ld].into(), InsnClass::Mem)
                }
                COP => {
                    let wr = Op::CopWrite {
                        cp: 0,
                        reg: a,
                        rs: b,
                    };
                    ([wr].into(), InsnClass::System)
                }
                SVC => ([Op::Svc(0)].into(), InsnClass::System),
                ERET => ([Op::Eret].into(), InsnClass::System),
                STW2 => ([store(b), store(c)].into(), InsnClass::Mem),
                _ => return Err(DecodeError { pc }),
            };
            Ok(Decoded::new(4, ops, class))
        }

        fn mmu_enabled(sys: &ToySys) -> bool {
            sys.mmu
        }

        /// Identity map; user code may not execute [`KERNEL_TEXT`].
        fn walk<B: Bus>(_sys: &ToySys, _bus: &mut B, va: u32) -> WalkResult {
            Ok(TlbEntry {
                vpage: page_of(va),
                ppage: page_of(va),
                user: if page_base(va) == KERNEL_TEXT {
                    Perms::RW
                } else {
                    Perms::RWX
                },
                kernel: Perms::RWX,
            })
        }

        fn cop_read(_: &CpuState, _: &mut ToySys, _: u8, _: u8) -> Result<u32, CopFault> {
            Err(CopFault)
        }

        fn cop_write(
            _cpu: &mut CpuState,
            sys: &mut ToySys,
            _cp: u8,
            reg: u8,
            val: u32,
        ) -> Result<CopEffect, CopFault> {
            match reg {
                0 => Ok(CopEffect::TlbInvPage(val)),
                1 => Ok(CopEffect::TlbFlush),
                2 => {
                    sys.mmu = val & 1 != 0;
                    Ok(CopEffect::ContextChanged)
                }
                _ => Err(CopFault),
            }
        }

        fn enter_exception(
            cpu: &mut CpuState,
            sys: &mut ToySys,
            _kind: ExceptionKind,
            _info: ExcInfo,
            return_pc: u32,
        ) -> u32 {
            sys.saved_pc = return_pc;
            sys.saved_level = cpu.level;
            cpu.level = Privilege::Kernel;
            VECTOR
        }

        fn leave_exception(cpu: &mut CpuState, sys: &mut ToySys) -> u32 {
            cpu.level = sys.saved_level;
            sys.saved_pc
        }

        fn sys_regs(_sys: &ToySys, _visit: &mut dyn FnMut(&'static str, u32)) {}
    }

    use crate::ir::{AluOp, OpList, Operand};

    static OBS: PolicyObs = PolicyObs::new("toy.tlb_refills", "toy.dispatch_batches");

    /// The `virt` policy in miniature; without `front`, the
    /// decode-every-time reference to compare counters against.
    struct ToyPolicy {
        tlb: DirectTlb,
        front: Option<FrontEnd>,
    }

    impl ToyPolicy {
        fn new(cached: bool) -> Self {
            ToyPolicy {
                tlb: DirectTlb::new(16),
                front: cached.then(FrontEnd::new),
            }
        }

        fn memo_live(&self) -> bool {
            self.front.as_ref().unwrap().memo.key != Memo::NONE
        }
    }

    impl Policy for ToyPolicy {
        type Tlb = DirectTlb;
        fn tlb(&mut self) -> &mut DirectTlb {
            &mut self.tlb
        }
        fn obs(&self) -> &'static PolicyObs {
            &OBS
        }
        fn front_end(&mut self) -> Option<&mut FrontEnd> {
            self.front.as_mut()
        }
        fn store(&mut self, pa: u32, size: MemSize, _holds_code: bool, counters: &mut Counters) {
            if self.front.as_mut().is_some_and(|fe| fe.store(pa, size)) {
                counters.code_invalidations += 1;
            }
        }
    }

    /// Assemble `program` at `KERNEL_TEXT` with an `eret` at the vector.
    fn boot(program: &[[u8; 4]]) -> Machine<Toy, FlatRam> {
        boot_with_handler(&[[ERET, 0, 0, 0]], program)
    }

    fn boot_with_handler(handler: &[[u8; 4]], program: &[[u8; 4]]) -> Machine<Toy, FlatRam> {
        let mut img = GuestImage::new(KERNEL_TEXT);
        img.push_section(VECTOR, handler.concat());
        img.push_section(KERNEL_TEXT, program.concat());
        Machine::boot(&img, FlatRam::new(1 << 16))
    }

    fn step(p: &mut ToyPolicy, m: &mut Machine<Toy, FlatRam>, insns: u64) -> RunOutcome {
        run(p, m, &RunLimits::insns(insns))
    }

    #[test]
    fn a_store_into_its_own_page_completes_and_the_next_fetch_sees_it() {
        // The STW2's first store lands on the STW2 itself, turning it
        // into `movi r3, #9`; its second store, fetched from the arena
        // after its slot was zeroed, lands on data.
        let patch = u32::from_le_bytes([MOVI, 3, 9, 0]);
        let stw2 = [STW2, 0, 2, 1];
        let stw2_at = KERNEL_TEXT + 0xC;
        // Decoded into a local of the run loop and read there, or
        // executed from an arena slot: it finishes either way.
        let run_from = |cached| {
            let mut m = boot(&[
                [MOVI, 1, 0x00, 0x40],
                [MOVI, 2, 0x0C, 0x10],
                [NOP, 0, 0, 0],
                stw2,
                [HALT, 0, 0, 0],
            ]);
            m.cpu.regs[0] = patch;
            let mut p = ToyPolicy::new(cached);
            let out = step(&mut p, &mut m, 100);
            assert_eq!(out.exit, ExitReason::Halted);
            assert_eq!(m.bus.read(stw2_at, MemSize::B4), Ok(patch));
            assert_eq!(
                m.bus.read(0x4000, MemSize::B4),
                Ok(patch),
                "second store ran"
            );
            assert_eq!(m.cpu.regs[3], 0, "it ran as the store it was fetched as");
            (m, p, out)
        };
        assert_eq!(run_from(false).2.counters.code_invalidations, 0);
        let (mut m, mut p, out) = run_from(true);
        assert_eq!(out.counters.code_invalidations, 1);
        // Fetched again, it is what was stored; its neighbours were
        // never forgotten.
        let decodes = p.front.as_ref().unwrap().arena.len();
        m.cpu.pc = stw2_at - 4;
        assert_eq!(step(&mut p, &mut m, 100).exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[3], 9, "rewritten instruction executed");
        assert_eq!(p.front.as_ref().unwrap().arena.len(), decodes + 1);

        // A warm second run re-decodes into the same capacity.
        let fe = p.front.as_mut().unwrap();
        let (arena, slots) = (fe.arena.capacity(), fe.slots.capacity());
        fe.reset();
        m.cpu.pc = KERNEL_TEXT;
        m.bus
            .write(stw2_at, u32::from_le_bytes(stw2), MemSize::B4)
            .unwrap();
        let again = step(&mut p, &mut m, 100);
        assert_eq!(again.counters, out.counters);
        let fe = p.front.as_ref().unwrap();
        assert_eq!((fe.arena.capacity(), fe.slots.capacity()), (arena, slots));
    }

    #[test]
    fn one_op_list_dirtying_two_code_pages_counts_two_invalidations() {
        let mut p = ToyPolicy::new(true);
        let fe = p.front.as_mut().unwrap();
        fe.insert(0x2000, 0x2000, &nop());
        fe.insert(0x3000, 0x3000, &nop());
        let mut m = boot(&[]);
        let mut counters = Counters::default();
        let mut core = ExecCore::new(&mut m, &mut counters, &mut p);
        core.write(0x2000, 0xAA, MemSize::B4, false).unwrap();
        core.write(0x3002, 0xBB, MemSize::B2, false).unwrap();
        // A repeat store over a forgotten decode counts nothing, and
        // neither does one next to it.
        core.write(0x2000, 0xCC, MemSize::B4, false).unwrap();
        core.write(0x3004, 0xDD, MemSize::B4, false).unwrap();
        assert_eq!(counters.code_invalidations, 2, "one per overwritten decode");
        let fe = p.front.as_mut().unwrap();
        assert_eq!(fe.enter_page(kernel_key(0x2000), 0x2000, 0x2000, 0), None);
        assert_eq!(fe.enter_page(kernel_key(0x3000), 0x3000, 0x3000, 0), None);
    }

    #[test]
    fn the_memo_is_dropped_wherever_a_tlb_probe_could_now_answer_differently() {
        let mut m = boot(&[
            [NOP, 0, 0, 0],
            [NOP, 0, 0, 0],
            [LDW, 0, 1, 0], // data-side TLB miss: insert
            [NOP, 0, 0, 0],
            [COP, 0, 2, 0], // invalidate page
            [NOP, 0, 0, 0],
            [COP, 1, 0, 0], // flush
            [NOP, 0, 0, 0],
            [SVC, 0, 0, 0], // exception entry
            [NOP, 0, 0, 0],
            [HALT, 0, 0, 0],
        ]);
        m.sys.mmu = true;
        m.cpu.regs[1] = 0x5000;
        m.cpu.regs[2] = 0x9000;
        let mut p = ToyPolicy::new(true);

        // The first fetch links the page; the second memoises it.
        assert_eq!(step(&mut p, &mut m, 1).counters.tlb_misses, 1);
        assert!(!p.memo_live());
        let second = step(&mut p, &mut m, 1).counters;
        assert_eq!((second.tlb_hits, second.tlb_misses), (1, 0));
        assert!(p.memo_live());

        for (what, refetch_hits) in [("TLB insert", 1), ("TLB invalidate", 1), ("TLB flush", 0)] {
            let c = step(&mut p, &mut m, 1).counters;
            assert_eq!(c.tlb_hits, 1, "{what}: fetched through the memo");
            assert!(!p.memo_live(), "{what} drops the memo");
            let c = step(&mut p, &mut m, 1).counters;
            assert_eq!((c.tlb_hits, c.tlb_misses), (refetch_hits, 1 - refetch_hits));
            assert!(p.memo_live(), "{what}: memoised again by the next fetch");
        }

        // svc, then the handler's eret (another page, another delivery).
        step(&mut p, &mut m, 1);
        assert_eq!(m.cpu.pc, VECTOR);
        assert!(!p.memo_live(), "exception entry drops the memo");
        step(&mut p, &mut m, 2);
        assert_eq!(m.cpu.pc, KERNEL_TEXT + 0x28);
        assert!(p.memo_live());

        // Privilege changes behind the memo's back: it must not answer
        // for user mode, which may not execute this page.
        m.cpu.level = Privilege::User;
        let c = step(&mut p, &mut m, 1).counters;
        assert_eq!(c.insn_faults, 1, "the real permission check ran");
        assert_eq!(
            m.cpu.pc,
            KERNEL_TEXT + 0x28,
            "handler returned to the fault"
        );
    }

    #[test]
    fn counters_match_a_policy_without_a_front_end() {
        let patch = u32::from_le_bytes([MOVI, 3, 9, 0]);
        let handler = [[NOP, 0, 0, 0], [ERET, 0, 0, 0]];
        let program = [
            [MOVI, 1, 1, 0],
            [COP, 2, 1, 0], // MMU on
            [MOVI, 1, 0x00, 0x50],
            [MOVI, 2, 0x00, 0x01],
            [LDW, 3, 1, 0],
            [STW, 3, 1, 4],
            [SVC, 0, 0, 0], // caches the handler
            [STW, 0, 2, 0], // rewrites the handler's nop
            [COP, 1, 0, 0],
            [SVC, 0, 0, 0], // the handler now sets r3
            [COP, 0, 2, 0],
            [HALT, 0, 0, 0],
        ];
        let run_with = |cached| {
            let mut m = boot_with_handler(&handler, &program);
            m.cpu.regs[0] = patch;
            let mut p = ToyPolicy::new(cached);
            let out = step(&mut p, &mut m, 1000);
            assert_eq!(out.exit, ExitReason::Halted);
            assert_eq!(m.cpu.regs[3], 9);
            out.counters
        };
        let mut cached = run_with(true);
        assert_eq!(cached.code_invalidations, 1);
        cached.code_invalidations = 0;
        assert_eq!(cached, run_with(false));
    }
}
