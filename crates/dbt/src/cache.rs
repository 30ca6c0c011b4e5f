//! Translation-block cache: one contiguous step arena plus the block
//! table, lookup map, per-page index for self-modifying-code
//! invalidation, chaining slots, and the indirect-branch target cache
//! (IBTC).
//!
//! Steps of every live block are stored back-to-back in a single slab
//! ([`CodeCache::steps`]); a [`Tb`] holds an `(offset, len)` range into
//! it. Dispatch is therefore a pure index into one cache-friendly
//! allocation instead of chasing a per-block `Rc<[TbStep]>`, and
//! steady-state translation re-uses the slab's capacity rather than
//! allocating per block. Invalidation tombstones a block (its range
//! simply goes dark in the slab) until [`CodeCache::flush_all`]
//! compacts everything back to empty — the same lifecycle as a real
//! DBT's fixed-size translation cache.

use std::collections::HashMap;

use simbench_core::frontend::PageTable;
use simbench_core::ir::Op;

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

/// A translated basic block. Its executable steps live in the owning
/// [`CodeCache`]'s step arena at `steps_start .. steps_start + steps_len`.
#[derive(Debug, Clone, Copy)]
pub struct Tb {
    /// Guest virtual start address.
    pub pc: u32,
    /// Physical page the code was read from (part of the lookup key).
    pub ppage: u32,
    /// Offset of the block's first step in the step arena.
    pub steps_start: u32,
    /// Number of steps.
    pub steps_len: u32,
    /// Address following the last instruction (fallthrough target).
    pub end_pc: u32,
    /// Static target of the block-ending direct branch, if any (drives
    /// taken-edge chaining).
    pub taken_target: Option<u32>,
    /// Tombstone: invalidated, its arena range is dead until the next
    /// full flush.
    pub dead: bool,
    /// Chain slot for the taken direct-branch successor.
    pub chain_taken: Option<TbId>,
    /// Chain slot for the fallthrough successor.
    pub chain_fall: Option<TbId>,
}

/// Direct-mapped indirect-branch target cache mapping guest PC → block.
#[derive(Debug)]
pub struct Ibtc {
    slots: Vec<(u32, TbId)>,
    mask: u32,
}

impl Ibtc {
    /// An IBTC with `1 << bits` slots; `bits == 0` disables it.
    pub fn new(bits: u8) -> Self {
        let n = if bits == 0 { 0 } else { 1usize << bits };
        Ibtc {
            // lint:allow(hot-path): one-time constructor allocation
            slots: vec![(u32::MAX, 0); n],
            mask: n.saturating_sub(1) as u32,
        }
    }

    /// Predicted block for a target PC.
    #[inline]
    pub fn lookup(&self, pc: u32) -> Option<TbId> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[(pc >> 2 & self.mask) as usize];
        (slot.0 == pc).then_some(slot.1)
    }

    /// Record a resolved target.
    #[inline]
    pub fn insert(&mut self, pc: u32, id: TbId) {
        if self.slots.is_empty() {
            return;
        }
        let i = (pc >> 2 & self.mask) as usize;
        self.slots[i] = (pc, id);
    }

    /// Drop all predictions.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.0 = u32::MAX;
        }
    }
}

/// The code cache.
#[derive(Debug)]
pub struct CodeCache {
    /// Block table (tombstoned blocks stay until a full flush).
    pub blocks: Vec<Tb>,
    /// The step arena: every live block's steps, back to back. Ranges
    /// of tombstoned blocks stay allocated (dark) until `flush_all`.
    pub steps: Vec<TbStep>,
    /// Lookup: (virtual pc, physical page) → block.
    map: HashMap<(u32, u32), TbId>,
    /// Physical page → blocks whose code lives there, indexed directly
    /// (the table the decoded-page front end uses). Lists are cleared
    /// in place so their capacity survives invalidation and flushes —
    /// steady-state retranslation after warm-up touches no allocator.
    page_blocks: PageTable<Vec<TbId>>,
    /// Indirect-branch target cache.
    pub ibtc: Ibtc,
    /// Arena size triggering a full flush (models a fixed-size
    /// translation cache overflowing).
    pub flush_threshold: usize,
    /// Number of overflow flushes performed.
    pub full_flushes: u64,
}

impl CodeCache {
    /// A cache with the given IBTC size.
    pub fn new(ibtc_bits: u8) -> Self {
        CodeCache {
            blocks: Vec::new(),
            steps: Vec::new(),
            map: HashMap::new(),
            page_blocks: PageTable::default(),
            ibtc: Ibtc::new(ibtc_bits),
            flush_threshold: 1 << 16,
            full_flushes: 0,
        }
    }

    /// Look up a live block by (pc, physical page).
    #[inline]
    pub fn lookup(&self, pc: u32, ppage: u32) -> Option<TbId> {
        self.map
            .get(&(pc, ppage))
            .copied()
            .filter(|&id| !self.blocks[id as usize].dead)
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
        self.page_blocks.get(ppage).is_some_and(|v| !v.is_empty())
    }

    /// Insert a freshly translated block, copying its steps into the
    /// arena. Returns its id and whether the page *gained* its first
    /// translation (the caller must then flush data TLBs so stale
    /// unprotected entries disappear).
    pub fn insert(
        &mut self,
        pc: u32,
        ppage: u32,
        end_pc: u32,
        taken_target: Option<u32>,
        steps: &[TbStep],
    ) -> (TbId, bool) {
        let id = self.blocks.len() as TbId;
        let first_in_page = !self.page_has_code(ppage);
        let steps_start = self.steps.len() as u32;
        let cap_before = self.steps.capacity();
        self.steps.extend_from_slice(steps);
        if self.steps.capacity() != cap_before {
            static OBS_ARENA_GROWTHS: simbench_obs::Counter =
                simbench_obs::Counter::new("dbt.arena_growths");
            OBS_ARENA_GROWTHS.add(1);
            simbench_obs::event!("dbt.arena_growth");
        }
        self.map.insert((pc, ppage), id);
        let record = self.page_blocks.claim(ppage);
        self.page_blocks.record_mut(record).push(id);
        self.blocks.push(Tb {
            pc,
            ppage,
            steps_start,
            steps_len: steps.len() as u32,
            end_pc,
            taken_target,
            dead: false,
            chain_taken: None,
            chain_fall: None,
        });
        (id, first_in_page)
    }

    /// True when the arena has outgrown the modelled translation cache.
    pub fn needs_flush(&self) -> bool {
        self.blocks.len() >= self.flush_threshold
    }

    /// Invalidate every block in a physical page (self-modifying code).
    /// Returns how many blocks died. Their step ranges stay dark in the
    /// arena until the next full flush. All chains and the IBTC are
    /// conservatively dropped, as unlinking is global in real DBTs.
    pub fn invalidate_page(&mut self, ppage: u32) -> usize {
        let Some(ids) = self.page_blocks.get_mut(ppage) else {
            return 0;
        };
        let n = ids.len();
        for &id in ids.iter() {
            let tb = &mut self.blocks[id as usize];
            tb.dead = true;
            self.map.remove(&(tb.pc, tb.ppage));
        }
        ids.clear();
        self.unchain_all();
        static OBS_TOMBSTONES: simbench_obs::Counter =
            simbench_obs::Counter::new("dbt.tombstoned_blocks");
        OBS_TOMBSTONES.add(n as u64);
        simbench_obs::event!("dbt.invalidate_page");
        n
    }

    /// Drop every chain link and IBTC entry (exception side-exit sync,
    /// and part of page invalidation).
    pub fn unchain_all(&mut self) {
        for tb in &mut self.blocks {
            tb.chain_taken = None;
            tb.chain_fall = None;
        }
        self.ibtc.clear();
    }

    /// Empty the cache: the arena compacts back to empty. Every
    /// container keeps its capacity, so retranslation afterwards is
    /// allocation-free once the caches have reached steady-state size.
    /// This is what a run starts from; an overflow is a
    /// [`CodeCache::flush_all`].
    pub fn reset(&mut self) {
        self.blocks.clear();
        self.steps.clear();
        self.map.clear();
        for ids in self.page_blocks.linked_mut() {
            ids.clear();
        }
        self.page_blocks.clear();
        self.ibtc.clear();
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
        let steps = [TbStep {
            op: Op::Nop,
            next_pc: pc + 4,
            insn_start: true,
        }];
        c.insert(pc, ppage, pc + 4, None, &steps)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = CodeCache::new(4);
        let (id, first) = insert(&mut c, 0x8000, 8);
        assert!(first);
        assert_eq!(c.lookup(0x8000, 8), Some(id));
        assert_eq!(c.lookup(0x8000, 9), None, "different physical page");
        let (_, first2) = insert(&mut c, 0x8010, 8);
        assert!(!first2, "page already had code");
    }

    #[test]
    fn steps_live_in_one_arena() {
        let mut c = CodeCache::new(4);
        let (a, _) = insert(&mut c, 0x8000, 8);
        let (b, _) = insert(&mut c, 0x9000, 9);
        assert_eq!(c.arena_steps(), 2);
        assert_eq!(c.steps_of(a).len(), 1);
        assert_eq!(c.steps_of(b)[0].next_pc, 0x9004);
        let tb = c.blocks[b as usize];
        assert_eq!((tb.steps_start, tb.steps_len), (1, 1));
    }

    #[test]
    fn page_invalidation_kills_blocks_and_chains() {
        let mut c = CodeCache::new(4);
        let (a, _) = insert(&mut c, 0x8000, 8);
        let (b, _) = insert(&mut c, 0x9000, 9);
        c.blocks[a as usize].chain_taken = Some(b);
        c.blocks[b as usize].chain_fall = Some(a);
        assert_eq!(c.invalidate_page(8), 1);
        assert_eq!(c.lookup(0x8000, 8), None);
        assert_eq!(c.lookup(0x9000, 9), Some(b), "other page untouched");
        assert!(c.blocks[b as usize].chain_fall.is_none(), "global unchain");
        assert!(!c.page_has_code(8));
        assert!(c.page_has_code(9));
        // The dead block's range stays dark in the arena until a flush.
        assert_eq!(c.arena_steps(), 2);
        c.flush_all();
        assert_eq!(c.arena_steps(), 0, "flush compacts the arena");
    }

    #[test]
    fn ibtc_behaviour() {
        let mut i = Ibtc::new(4);
        assert_eq!(i.lookup(0x8000), None);
        i.insert(0x8000, 7);
        assert_eq!(i.lookup(0x8000), Some(7));
        // Aliasing entry evicts.
        i.insert(0x8000 + (1 << 6), 9);
        assert_eq!(i.lookup(0x8000), None);
        i.clear();
        assert_eq!(i.lookup(0x8000 + (1 << 6)), None);
    }

    #[test]
    fn disabled_ibtc() {
        let mut i = Ibtc::new(0);
        i.insert(0x8000, 7);
        assert_eq!(i.lookup(0x8000), None);
    }

    #[test]
    fn flush_all_resets() {
        let mut c = CodeCache::new(4);
        insert(&mut c, 0x8000, 8);
        c.flush_all();
        assert_eq!(c.lookup(0x8000, 8), None);
        assert_eq!(c.live_blocks(), 0);
        assert_eq!(c.full_flushes, 1);
        assert!(!c.page_has_code(8), "cleared-in-place page index is empty");
    }

    #[test]
    fn reset_empties_without_counting_a_flush() {
        let mut c = CodeCache::new(4);
        insert(&mut c, 0x8000, 8);
        c.reset();
        assert_eq!(c.lookup(0x8000, 8), None);
        assert_eq!((c.live_blocks(), c.arena_steps()), (0, 0));
        assert!(!c.page_has_code(8));
        assert_eq!(c.full_flushes, 0, "only an overflow counts");
    }
}
