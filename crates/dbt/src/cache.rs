//! Translation-block cache: one contiguous step arena plus the block
//! table, the per-page slot tables that find a block by `(pc, physical
//! page)`, the per-page block lists for self-modifying-code
//! invalidation, chain links, and the indirect-branch target cache
//! (IBTC). Every operation on the dispatch and invalidation paths is
//! O(1) — invalidation, O(blocks of the one page written to) — and
//! allocation-free once warm.
//!
//! **Invalidation is byte-precise.** A block is translated from the
//! bytes `[pc, end_pc)`, all in one physical page, and a store kills
//! exactly the blocks whose bytes it overlaps
//! ([`CodeCache::invalidate_range`]) — as QEMU's
//! `tb_invalidate_phys_page_range` does — so a kernel that rewrites
//! code keeps its own translation. The one block that is not contained
//! in its page, a lone instruction that continues on the next, is never
//! entered in the cache at all (see [`CodeCache::insert`]).
//!
//! Steps of every live block are stored back-to-back in a single slab
//! ([`CodeCache::steps`]); a [`Tb`] holds an `(offset, len)` range into
//! it. Dispatch is therefore a pure index into one cache-friendly
//! allocation instead of chasing a per-block `Rc<[TbStep]>`, and
//! translation appends a block's steps to the slab's end as it decodes
//! them, re-using the slab's capacity rather than allocating per block.
//! Invalidation tombstones a block (its range simply goes dark in the
//! slab) until [`CodeCache::flush_all`] compacts everything back to
//! empty — the same lifecycle as a real DBT's fixed-size translation
//! cache.
//!
//! **Slots are hints.** Each physical code page owns a table with one
//! slot per byte offset (the decoded-page front end's layout, one level
//! up), naming the block most recently translated at that offset.
//! [`CodeCache::lookup`] believes a slot only after checking the block
//! it names: in range, not dead, same `pc`, same physical page. So
//! nothing ever clears a slot — not invalidation (the block is dead),
//! not [`CodeCache::reset`] (the id is out of range or names another
//! block), not a recycled page record (the page differs) — and a frame
//! executed under a second virtual alias simply misses, retranslates
//! and takes the slot over, while the first alias's blocks stay in the
//! page's list and die with their bytes.
//!
//! **Link-epoch rule.** Chain slots and IBTC entries are [`Link`]s: a
//! successor stamped with the cache's link epoch at the time it was
//! recorded, followed only while that epoch is still the live one.
//! [`CodeCache::unchain_all`] — called by the exception side-exit sync,
//! by [`CodeCache::invalidate_range`] and by [`CodeCache::reset`] — is
//! therefore one increment; live epochs start at 1, so a zeroed link is
//! dead, and links are swept only if the 32-bit epoch ever wraps.

use simbench_core::frontend::PageTable;
use simbench_core::ir::Op;
use simbench_core::{page_of, PAGE_SIZE};

/// Index of a block in the arena.
pub type TbId = u32;

/// One executable micro-op within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbStep {
    /// The operation.
    pub op: Op,
    /// Address of the *next* instruction (exception return point).
    pub next_pc: u32,
    /// True on the first step of each guest instruction (drives
    /// instruction retirement accounting).
    pub insn_start: bool,
}

/// A remembered successor: a chain slot or an IBTC entry. Made by
/// `CodeCache::link`, believed only by `CodeCache::follow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The link epoch this was recorded in; 0 is never live.
    epoch: u32,
    to: TbId,
}

impl Link {
    /// The link that leads nowhere.
    pub const NONE: Link = Link { epoch: 0, to: 0 };
}

/// A translated basic block. Its executable steps live in the owning
/// [`CodeCache`]'s step arena at `steps_start .. steps_start + steps_len`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tb {
    /// Guest virtual start address.
    pub pc: u32,
    /// Physical page the code was read from (part of the lookup key).
    pub ppage: u32,
    /// Offset of the block's first step in the step arena.
    pub steps_start: u32,
    /// Number of steps.
    pub steps_len: u32,
    /// Address following the last instruction (fallthrough target):
    /// the block was translated from the bytes `[pc, end_pc)`.
    pub end_pc: u32,
    /// Static target of the block-ending direct branch, if any (drives
    /// taken-edge chaining).
    pub taken_target: Option<u32>,
    /// Tombstone: invalidated — or never entered in the cache — and
    /// found by nothing; its arena range is dead until the next full
    /// flush.
    pub dead: bool,
    /// Chain slot for the taken direct-branch successor.
    pub chain_taken: Link,
    /// Chain slot for the fallthrough successor.
    pub chain_fall: Link,
}

impl Tb {
    /// Whether the block was translated from any byte of `[lo, hi)`,
    /// offsets into its physical page. Only asked of listed blocks,
    /// which lie within that page.
    #[inline]
    fn overlaps(&self, lo: usize, hi: usize) -> bool {
        let start = slot_of(self.pc);
        start < hi && lo < start + self.end_pc.wrapping_sub(self.pc) as usize
    }
}

/// Entries in the indirect-branch target cache.
const IBTC_SLOTS: usize = 1 << 8;

/// Direct-mapped indirect-branch target cache mapping guest PC → block.
/// The `Default` one has no slots and must not be looked up: it is what
/// `mem::take` leaves in an engine that hands its tables on.
#[derive(Debug, Default)]
pub(crate) struct Ibtc {
    slots: Vec<(u32, Link)>,
}

impl Ibtc {
    /// An IBTC of [`IBTC_SLOTS`] entries, all empty.
    pub fn new() -> Self {
        Ibtc {
            // lint:allow(hot-path): one-time constructor allocation
            slots: vec![(0, Link::NONE); IBTC_SLOTS],
        }
    }

    /// The slot `pc` maps to.
    #[inline]
    fn slot(pc: u32) -> usize {
        (pc >> 2) as usize & (IBTC_SLOTS - 1)
    }

    /// Predicted successor for a target PC ([`Link::NONE`] without one).
    #[inline]
    pub fn lookup(&self, pc: u32) -> Link {
        match self.slots.get(Self::slot(pc)) {
            Some(&(tag, link)) if tag == pc => link,
            _ => Link::NONE,
        }
    }

    /// Record a resolved target.
    #[inline]
    pub fn insert(&mut self, pc: u32, link: Link) {
        if let Some(slot) = self.slots.get_mut(Self::slot(pc)) {
            *slot = (pc, link);
        }
    }
}

/// Slots per page: one per byte offset.
const SLOTS: usize = PAGE_SIZE as usize;

/// The offset of `pc` in its page: the slot of a block starting there.
#[inline]
fn slot_of(pc: u32) -> usize {
    (pc & (PAGE_SIZE - 1)) as usize
}

/// What the cache knows about one physical code page.
#[derive(Debug, Default)]
struct CodePage {
    /// Live blocks translated from this page, for invalidation.
    blocks: Vec<TbId>,
    /// Byte offset → the block last translated there; a hint (see the
    /// module docs). Empty until the record's first translation, then
    /// [`SLOTS`] long for good. Block ids fit because
    /// [`CodeCache::flush_threshold`] is at most `1 << 16`.
    slots: Vec<u16>,
}

/// The code cache.
#[derive(Debug)]
pub struct CodeCache {
    /// Block table (tombstoned blocks stay until a full flush).
    pub(crate) blocks: Vec<Tb>,
    /// The step arena: every live block's steps, back to back. Ranges
    /// of tombstoned blocks stay allocated (dark) until `flush_all`.
    pub steps: Vec<TbStep>,
    /// Physical page → its block list and slot table, indexed directly
    /// (the table the decoded-page front end uses). Records are reused
    /// with everything they own, so their capacity survives
    /// invalidation and flushes — steady-state retranslation after
    /// warm-up touches no allocator.
    pages: PageTable<CodePage>,
    /// Indirect-branch target cache.
    pub(crate) ibtc: Ibtc,
    /// The live link epoch; never 0.
    link_epoch: u32,
    /// Arena size triggering a full flush (models a fixed-size
    /// translation cache overflowing). At most `1 << 16`: slot tables
    /// hold block ids as `u16`.
    pub flush_threshold: usize,
    /// Number of overflow flushes performed.
    pub full_flushes: u64,
}

/// [`CodeCache::flush_threshold`] of a new cache.
const FLUSH_THRESHOLD: usize = 1 << 16;

/// A step arena that has grown past this is given back when the cache
/// changes hands ([`CodeCache::rearm`]). Filling that much arena is
/// hundreds of microseconds of translation, to which allocating a new
/// one is nothing, and the megabytes a long rewriting run leaves (3 MiB
/// of blocks and more of steps after one overflow) should not stay
/// resident for the life of the process. Four times what the largest
/// suite cell needs at the iteration floor, where recycling matters.
const MAX_KEPT_ARENA_STEPS: usize = 1 << 14;

/// The `Default` cache has no IBTC and owns no memory: it is what
/// `mem::take` leaves in an engine that hands its tables on, and is
/// never run.
impl Default for CodeCache {
    fn default() -> Self {
        CodeCache {
            blocks: Vec::new(),
            steps: Vec::new(),
            pages: PageTable::default(),
            ibtc: Ibtc::default(),
            link_epoch: 1,
            flush_threshold: FLUSH_THRESHOLD,
            full_flushes: 0,
        }
    }
}

impl CodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        CodeCache {
            ibtc: Ibtc::new(),
            ..Self::default()
        }
    }

    /// Make a cache another engine has used answer as
    /// `CodeCache::new()` would, with the capacity it has — up to
    /// [`MAX_KEPT_ARENA_STEPS`]: empty, nothing linked, the threshold
    /// and the overflow count as new. The IBTC is kept: its entries
    /// died with the link epoch.
    pub fn rearm(&mut self) {
        self.reset();
        self.flush_threshold = FLUSH_THRESHOLD;
        self.full_flushes = 0;
        if self.steps.capacity() > MAX_KEPT_ARENA_STEPS {
            self.steps = Vec::new();
            self.blocks = Vec::new();
        }
    }

    /// `id`, if it names a live block starting at `pc`.
    #[inline]
    fn live_at(&self, id: TbId, pc: u32) -> Option<&Tb> {
        self.blocks
            .get(id as usize)
            .filter(|tb| !tb.dead && tb.pc == pc)
    }

    /// Look up a live block by (pc, physical page).
    #[inline]
    pub fn lookup(&self, pc: u32, ppage: u32) -> Option<TbId> {
        let slots = &self.pages.get(ppage)?.slots;
        let id = TbId::from(*slots.get(slot_of(pc))?);
        let tb = self.live_at(id, pc)?;
        (tb.ppage == ppage).then_some(id)
    }

    /// The live link epoch. A caller that records a link *after* work
    /// that may have flushed the cache compares this before and after.
    #[inline]
    pub(crate) fn link_epoch(&self) -> u32 {
        self.link_epoch
    }

    /// A link to `to`, live until the next [`CodeCache::unchain_all`].
    #[inline]
    pub(crate) fn link(&self, to: TbId) -> Link {
        Link {
            epoch: self.link_epoch,
            to,
        }
    }

    /// The block `link` leads to, if the link is still live and the
    /// block is live and starts at `pc`.
    #[inline]
    pub(crate) fn follow(&self, link: Link, pc: u32) -> Option<TbId> {
        if link.epoch != self.link_epoch {
            return None;
        }
        self.live_at(link.to, pc).map(|_| link.to)
    }

    /// The executable steps of a block.
    #[inline]
    pub fn steps_of(&self, id: TbId) -> &[TbStep] {
        let tb = &self.blocks[id as usize];
        &self.steps[tb.steps_start as usize..(tb.steps_start + tb.steps_len) as usize]
    }

    /// True if `ppage` holds any live translations. Used to set the
    /// write-protect flag on TLB fills.
    #[inline]
    pub fn page_has_code(&self, ppage: u32) -> bool {
        self.pages.get(ppage).is_some_and(|p| !p.blocks.is_empty())
    }

    /// Whether a store to `[pa, pa + size)` overwrites bytes a live
    /// block was translated from.
    #[inline]
    pub fn holds_code_at(&self, pa: u32, size: u32) -> bool {
        let lo = slot_of(pa);
        self.pages.get(page_of(pa)).is_some_and(|page| {
            page.blocks
                .iter()
                .any(|&id| self.blocks[id as usize].overlaps(lo, lo + size as usize))
        })
    }

    /// Append one instruction's steps to the arena: `ops` in order,
    /// each resuming at `next_pc`. The block being translated is the
    /// arena's tail until [`CodeCache::insert`] enters it.
    #[inline]
    pub(crate) fn push_insn(&mut self, ops: &[Op], next_pc: u32) {
        if self.steps.capacity() - self.steps.len() < ops.len() {
            static OBS_ARENA_GROWTHS: simbench_obs::Counter =
                simbench_obs::Counter::new("dbt.arena_growths");
            OBS_ARENA_GROWTHS.add(1);
            simbench_obs::event!("dbt.arena_growth");
        }
        self.steps
            .extend(ops.iter().enumerate().map(|(i, &op)| TbStep {
                op,
                next_pc,
                insn_start: i == 0,
            }));
    }

    /// Insert a freshly translated block: the steps from `steps_start`
    /// to the end of the arena. Returns its id and whether the page
    /// *gained* its first translation (the caller must then flush data
    /// TLBs so stale unprotected entries disappear).
    ///
    /// A block that runs past the end of its page — one instruction that
    /// continues on the next — depends on that page's mapping and
    /// contents, which nothing here tracks. It is born dead: in no page
    /// list and no slot, refused by [`CodeCache::follow`], good for the
    /// one dispatch of the id returned here.
    pub(crate) fn insert(
        &mut self,
        pc: u32,
        ppage: u32,
        end_pc: u32,
        taken_target: Option<u32>,
        steps_start: usize,
    ) -> (TbId, bool) {
        let id = self.blocks.len() as TbId;
        let cached = page_of(end_pc.wrapping_sub(1)) == page_of(pc);
        let mut first_in_page = false;
        if cached {
            let record = self.pages.claim(ppage);
            let page = self.pages.record_mut(record);
            first_in_page = page.blocks.is_empty();
            if page.slots.is_empty() {
                // lint:allow(hot-path): once per page record; reset and invalidation keep the table
                page.slots.resize(SLOTS, 0);
            }
            debug_assert!(id <= TbId::from(u16::MAX), "flush_threshold above 1 << 16");
            page.slots[slot_of(pc)] = id as u16;
            page.blocks.push(id);
        }
        self.blocks.push(Tb {
            pc,
            ppage,
            steps_start: steps_start as u32,
            steps_len: (self.steps.len() - steps_start) as u32,
            end_pc,
            taken_target,
            dead: !cached,
            chain_taken: Link::NONE,
            chain_fall: Link::NONE,
        });
        (id, first_in_page)
    }

    /// True when the arena has outgrown the modelled translation cache.
    pub fn needs_flush(&self) -> bool {
        self.blocks.len() >= self.flush_threshold
    }

    /// Invalidate the blocks translated from any byte of `[pa, pa +
    /// size)` (self-modifying code). Returns how many died. Their step
    /// ranges stay dark in the arena until the next full flush. If any
    /// did, all chains and the IBTC are conservatively dropped, as
    /// unlinking is global in real DBTs.
    pub fn invalidate_range(&mut self, pa: u32, size: u32) -> usize {
        let Some(page) = self.pages.get_mut(page_of(pa)) else {
            return 0;
        };
        let (lo, blocks) = (slot_of(pa), &mut self.blocks);
        let listed = page.blocks.len();
        page.blocks.retain(|&id| {
            let tb = &mut blocks[id as usize];
            tb.dead = tb.overlaps(lo, lo + size as usize);
            !tb.dead
        });
        let n = listed - page.blocks.len();
        if n > 0 {
            self.unchain_all();
            static OBS_TOMBSTONES: simbench_obs::Counter =
                simbench_obs::Counter::new("dbt.tombstoned_blocks");
            OBS_TOMBSTONES.add(n as u64);
            simbench_obs::event!("dbt.invalidate_range");
        }
        n
    }

    /// Drop every chain link and IBTC entry (exception side-exit sync,
    /// and part of page invalidation and of a reset): bump the epoch
    /// they were stamped with.
    #[inline]
    pub fn unchain_all(&mut self) {
        self.link_epoch = self.link_epoch.wrapping_add(1);
        if self.link_epoch == 0 {
            self.sweep_links();
        }
    }

    /// The link epoch wrapped: links of 2^32 bumps ago would read as
    /// live, so this one time every link is cleared by hand.
    #[cold]
    fn sweep_links(&mut self) {
        for tb in &mut self.blocks {
            tb.chain_taken = Link::NONE;
            tb.chain_fall = Link::NONE;
        }
        self.ibtc.slots.fill((0, Link::NONE));
        self.link_epoch = 1;
    }

    /// Empty the cache: the arena compacts back to empty. Every
    /// container keeps its capacity — slot tables keep their contents
    /// too, as hints no block backs any more — so retranslation
    /// afterwards is allocation-free once the caches have reached
    /// steady-state size. This is what a run starts from; an overflow
    /// is a [`CodeCache::flush_all`].
    pub fn reset(&mut self) {
        self.blocks.clear();
        self.steps.clear();
        for page in self.pages.linked_mut() {
            page.blocks.clear();
        }
        self.pages.clear();
        self.unchain_all();
    }

    /// Full code-cache flush, counted: the modelled translation cache
    /// overflowed.
    pub fn flush_all(&mut self) {
        self.reset();
        self.full_flushes += 1;
        static OBS_FULL_FLUSHES: simbench_obs::Counter =
            simbench_obs::Counter::new("dbt.full_flushes");
        OBS_FULL_FLUSHES.add(1);
        simbench_obs::event!("dbt.flush_all");
    }

    /// Number of live blocks (diagnostics).
    pub fn live_blocks(&self) -> usize {
        self.blocks.iter().filter(|t| !t.dead).count()
    }

    /// Steps currently held by the arena, dead ranges included
    /// (diagnostics).
    pub fn arena_steps(&self) -> usize {
        self.steps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insert(c: &mut CodeCache, pc: u32, ppage: u32) -> (TbId, bool) {
        let start = c.arena_steps();
        c.push_insn(&[Op::Nop], pc + 4);
        c.insert(pc, ppage, pc + 4, None, start)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = CodeCache::new();
        let (id, first) = insert(&mut c, 0x8000, 8);
        assert!(first);
        assert_eq!(c.lookup(0x8000, 8), Some(id));
        assert_eq!(c.lookup(0x8000, 9), None, "different physical page");
        assert_eq!(c.lookup(0x8004, 8), None, "different offset");
        let (_, first2) = insert(&mut c, 0x8010, 8);
        assert!(!first2, "page already had code");
    }

    #[test]
    fn an_untouched_slot_is_not_block_zero() {
        // A fresh slot table is all zeroes, and 0 is a block id.
        let mut c = CodeCache::new();
        insert(&mut c, 0x8000, 8);
        insert(&mut c, 0x8010, 9);
        assert_eq!(c.lookup(0x8000, 9), None, "block 0 is in another page");
        assert_eq!(c.lookup(0x9000, 8), None, "block 0 starts elsewhere");
    }

    #[test]
    fn steps_live_in_one_arena() {
        let mut c = CodeCache::new();
        let (a, _) = insert(&mut c, 0x8000, 8);
        let (b, _) = insert(&mut c, 0x9000, 9);
        assert_eq!(c.arena_steps(), 2);
        assert_eq!(c.steps_of(a).len(), 1);
        assert_eq!(c.steps_of(b)[0].next_pc, 0x9004);
        let tb = c.blocks[b as usize];
        assert_eq!((tb.steps_start, tb.steps_len), (1, 1));
        // An instruction of two ops: only its first step starts it.
        c.push_insn(&[Op::Nop, Op::Halt], 0xa004);
        let (d, _) = c.insert(0xa000, 10, 0xa004, None, 2);
        let starts: Vec<_> = c.steps_of(d).iter().map(|s| s.insn_start).collect();
        assert_eq!(starts, [true, false]);
        assert!(c.steps_of(d).iter().all(|s| s.next_pc == 0xa004));
    }

    #[test]
    fn invalidation_kills_slot_list_entry_and_links() {
        let mut c = CodeCache::new();
        let (a, _) = insert(&mut c, 0x8000, 8);
        let (b, _) = insert(&mut c, 0x9000, 9);
        c.blocks[a as usize].chain_taken = c.link(b);
        c.blocks[b as usize].chain_fall = c.link(a);
        assert_eq!(c.follow(c.blocks[a as usize].chain_taken, 0x9000), Some(b));
        assert!(c.holds_code_at(0x8000, 4) && !c.holds_code_at(0x8004, 4));
        assert_eq!(c.invalidate_range(0x8000, 4), 1);
        assert_eq!(c.lookup(0x8000, 8), None);
        assert_eq!(c.lookup(0x9000, 9), Some(b), "other page untouched");
        let live_to_live = c.blocks[b as usize].chain_fall;
        assert_eq!(c.follow(live_to_live, 0x8000), None, "global unchain");
        assert!(!c.page_has_code(8));
        assert!(c.page_has_code(9));
        assert!(!c.holds_code_at(0x8000, 4));
        assert_eq!(c.invalidate_range(0x8000, 4), 0, "left the page's list");
        // The dead block's range stays dark in the arena until a flush.
        assert_eq!(c.arena_steps(), 2);
        c.flush_all();
        assert_eq!(c.arena_steps(), 0, "flush compacts the arena");
    }

    #[test]
    fn a_second_alias_takes_the_slot_over() {
        // One frame under two virtual pages: same offset, two pcs.
        let mut c = CodeCache::new();
        let (first, _) = insert(&mut c, 0x40_0010, 8);
        assert_eq!(c.lookup(0x80_0010, 8), None, "the other alias's pc");
        let (second, gained) = insert(&mut c, 0x80_0010, 8);
        assert!(!gained);
        assert_eq!(c.lookup(0x80_0010, 8), Some(second));
        assert_eq!(c.lookup(0x40_0010, 8), None, "unreachable by lookup");
        assert!(!c.blocks[first as usize].dead, "but not dead");
        assert_eq!(c.invalidate_range(0x8013, 1), 2, "still in the page's list");
        assert!(c.blocks[first as usize].dead);
    }

    #[test]
    fn a_store_kills_only_the_blocks_it_overlaps() {
        // Back to back: [0x8000, 0x8004) [0x8004, 0x8008), and the last
        // word of the page next to the first of the next.
        let mut c = CodeCache::new();
        let (a, _) = insert(&mut c, 0x8000, 8);
        let (b, _) = insert(&mut c, 0x8004, 8);
        let (last, _) = insert(&mut c, 0x8ffc, 8);
        let (next, _) = insert(&mut c, 0x9000, 9);
        // One block's `hi` is its neighbour's `lo`.
        assert_eq!(c.invalidate_range(0x8003, 1), 1);
        assert!(c.blocks[a as usize].dead && !c.blocks[b as usize].dead);
        // A store that hits nothing leaves the links alone.
        let link = c.link(b);
        assert_eq!(c.invalidate_range(0x8000, 4), 0, "`a` is gone already");
        assert_eq!(c.invalidate_range(0x8008, 4), 0, "the bytes after `b`");
        assert_eq!(c.lookup(0x8004, 8), Some(b));
        assert_eq!(c.follow(link, 0x8004), Some(b));
        assert_eq!(c.invalidate_range(0x8004, 1), 1);
        assert_eq!(c.follow(link, 0x8004), None);
        // Offset 4095 belongs to this page's last block, offset 0 of the
        // next page to another.
        assert!(!c.holds_code_at(0x8ff8, 4) && c.holds_code_at(0x8fff, 1));
        assert_eq!(c.invalidate_range(0x9000, 4), 1);
        assert!(c.blocks[next as usize].dead && !c.blocks[last as usize].dead);
        assert_eq!(c.invalidate_range(0x8fff, 1), 1);
        assert!(c.blocks[last as usize].dead);
        assert!(!c.page_has_code(8) && !c.page_has_code(9));
    }

    #[test]
    fn a_block_that_runs_past_its_page_is_never_cached() {
        let mut c = CodeCache::new();
        c.push_insn(&[Op::Nop], 0x9002);
        let (id, first) = c.insert(0x8ffe, 8, 0x9002, None, 0);
        assert!(!first && !c.page_has_code(8) && !c.page_has_code(9));
        assert_eq!(c.lookup(0x8ffe, 8), None);
        assert_eq!(c.follow(c.link(id), 0x8ffe), None);
        assert!(!c.holds_code_at(0x8ffe, 2) && !c.holds_code_at(0x9000, 2));
        let step = TbStep {
            op: Op::Nop,
            next_pc: 0x9002,
            insn_start: true,
        };
        assert_eq!(c.steps_of(id), [step], "but its id runs once");
        // One that ends with the page is a block like any other.
        let (id, first) = insert(&mut c, 0x8ffc, 8);
        assert!(first);
        assert_eq!(c.lookup(0x8ffc, 8), Some(id));
    }

    #[test]
    fn unchain_all_is_one_epoch_bump() {
        let mut c = CodeCache::new();
        let (a, _) = insert(&mut c, 0x8000, 8);
        let (b, _) = insert(&mut c, 0x8010, 8);
        c.blocks[a as usize].chain_fall = c.link(b);
        c.ibtc.insert(0x8010, c.link(b));
        assert_eq!(c.follow(c.ibtc.lookup(0x8010), 0x8010), Some(b));
        let stored = (c.blocks[a as usize].chain_fall, c.ibtc.lookup(0x8010));
        c.unchain_all();
        // Nothing was rewritten; the stamps are just out of date.
        assert_eq!(
            (c.blocks[a as usize].chain_fall, c.ibtc.lookup(0x8010)),
            stored
        );
        assert_eq!(c.follow(stored.0, 0x8010), None, "chain");
        assert_eq!(c.follow(stored.1, 0x8010), None, "ibtc");
        assert_eq!(c.lookup(0x8010, 8), Some(b), "the block itself lives on");
        // An edge recorded after the bump is live.
        c.blocks[a as usize].chain_fall = c.link(b);
        assert_eq!(c.follow(c.blocks[a as usize].chain_fall, 0x8010), Some(b));
        assert_eq!(c.follow(c.link(b), 0x8000), None, "wrong pc");
    }

    #[test]
    fn link_epoch_wrap_sweeps_the_links() {
        let mut c = CodeCache::new();
        let (a, _) = insert(&mut c, 0x8000, 8);
        // Stamped with epoch 1 — the epoch the wrap returns to.
        c.blocks[a as usize].chain_fall = c.link(a);
        c.ibtc.insert(0x8000, c.link(a));
        c.link_epoch = u32::MAX;
        c.unchain_all();
        assert_eq!(c.link_epoch(), 1);
        assert_eq!(c.blocks[a as usize].chain_fall, Link::NONE);
        assert_eq!(c.ibtc.lookup(0x8000), Link::NONE);
    }

    fn link_to(to: TbId) -> Link {
        Link { epoch: 1, to }
    }

    #[test]
    fn ibtc_behaviour() {
        let mut i = Ibtc::new();
        assert_eq!(i.lookup(0x8000), Link::NONE);
        i.insert(0x8000, link_to(7));
        assert_eq!(i.lookup(0x8000), link_to(7));
        // The slot's neighbours and a pc one lap of the table away that
        // maps to the same slot are not the entry.
        let lap = (IBTC_SLOTS as u32) << 2;
        for pc in [0x8004, 0x7ffc, 0x8000 + lap, 0x8000 - lap] {
            assert_eq!(i.lookup(pc), Link::NONE, "{pc:#x}");
        }
        // 64 slots apart, where a 64-entry table would alias: both stay.
        i.insert(0x8000 + (1 << 8), link_to(8));
        assert_eq!(i.lookup(0x8000), link_to(7));
        // An aliasing entry evicts.
        i.insert(0x8000 + lap, link_to(9));
        assert_eq!(i.lookup(0x8000), Link::NONE);
        assert_eq!(i.lookup(0x8000 + lap), link_to(9));
        assert_eq!(i.lookup(0x8000 + (1 << 8)), link_to(8));
    }

    #[test]
    fn a_slotless_ibtc_misses_and_ignores_inserts() {
        // What `mem::take` leaves behind: no slot to index.
        let mut i = Ibtc::default();
        i.insert(0x8000, link_to(7));
        assert_eq!(i.lookup(0x8000), Link::NONE);
        assert!(i.slots.is_empty());
    }

    #[test]
    fn flush_all_resets() {
        let mut c = CodeCache::new();
        let (a, _) = insert(&mut c, 0x8000, 8);
        let link = c.link(a);
        c.flush_all();
        assert_eq!(c.lookup(0x8000, 8), None);
        assert_eq!(c.follow(link, 0x8000), None, "links die with the blocks");
        assert_eq!(c.live_blocks(), 0);
        assert_eq!(c.full_flushes, 1);
        assert!(!c.page_has_code(8), "cleared-in-place page index is empty");
    }

    #[test]
    fn reset_empties_without_counting_a_flush() {
        let mut c = CodeCache::new();
        insert(&mut c, 0x8000, 8);
        c.reset();
        assert_eq!(c.lookup(0x8000, 8), None);
        assert_eq!((c.live_blocks(), c.arena_steps()), (0, 0));
        assert!(!c.page_has_code(8));
        assert_eq!(c.full_flushes, 0, "only an overflow counts");
    }

    #[test]
    fn slots_left_behind_by_a_reset_are_only_hints() {
        let mut c = CodeCache::new();
        insert(&mut c, 0x8000, 8);
        let (old, _) = insert(&mut c, 0x8010, 8);
        c.reset();
        // Page 9 inherits page 8's record, slot table included; its
        // slot for offset 0x10 still says `old`.
        let (zero, first) = insert(&mut c, 0x9000, 9);
        assert!(first, "a recycled record starts with an empty list");
        assert_eq!(c.lookup(0x9010, 9), None, "`old` is out of range");
        let (new, _) = insert(&mut c, 0x9020, 9);
        assert_eq!(new, old, "ids repeat after a reset");
        assert_eq!(c.lookup(0x9010, 9), None, "`old` is now another block");
        assert_eq!(c.lookup(0x9020, 9), Some(new));
        assert_eq!(c.lookup(0x9000, 9), Some(zero));
    }

    #[test]
    fn a_rearmed_cache_answers_as_a_new_one() {
        let mut c = CodeCache::new();
        c.flush_threshold = 2;
        insert(&mut c, 0x8000, 8);
        insert(&mut c, 0x8010, 8);
        assert!(c.needs_flush());
        c.flush_all();
        let (id, _) = insert(&mut c, 0x8020, 8);
        c.ibtc.insert(0x8020, c.link(id));
        let (ibtc, steps) = (c.ibtc.slots.as_ptr(), c.steps.capacity());

        c.rearm();
        assert_eq!((c.flush_threshold, c.full_flushes), (1 << 16, 0));
        assert_eq!((c.live_blocks(), c.arena_steps()), (0, 0));
        assert!(!c.page_has_code(8) && c.lookup(0x8020, 8).is_none());
        assert_eq!(c.follow(c.ibtc.lookup(0x8020), 0x8020), None);
        // The allocations are the ones it came with.
        assert_eq!((c.ibtc.slots.as_ptr(), c.steps.capacity()), (ibtc, steps));
        // An arena that a long run grew is given back, with the block
        // table; a page record keeps its list and slot table.
        c.steps.reserve(MAX_KEPT_ARENA_STEPS + 1);
        insert(&mut c, 0x8000, 8);
        c.rearm();
        assert_eq!((c.steps.capacity(), c.blocks.capacity()), (0, 0));
        assert_eq!(insert(&mut c, 0x8000, 8), (0, true));
        assert_eq!(c.lookup(0x8000, 8), Some(0));
        assert_eq!(c.ibtc.slots.as_ptr(), ibtc, "the IBTC is kept");
    }
}
