//! # simbench-dbt
//!
//! A dynamic-binary-translation full-system engine — the QEMU analogue of
//! the paper's evaluation. Mechanisms implemented (and self-described for
//! the Fig 4 reproduction):
//!
//! * block-based code generation over the shared micro-op IR with a
//!   block-local constant folding at translation time ([`opt`]),
//! * a translation-block cache found by (virtual PC, physical page)
//!   through per-page slot tables, with full-flush-on-overflow
//!   ([`cache`]),
//! * direct block chaining for intra-page branches, block-cache lookup
//!   for inter-page branches, and an indirect-branch target cache —
//!   chain slots and IBTC entries are epoch-stamped links, so dropping
//!   them all is one increment,
//! * a software TLB with code-page write protection, flushed by epoch
//!   ([`tlb`]), filtering the stores that are checked against the byte
//!   ranges blocks were translated from: a store kills exactly the
//!   blocks it overlaps, and ends the running block only if it overlaps
//!   a live one,
//! * interrupt delivery at block boundaries, synchronous exceptions as
//!   side exits, and a block exit at every phase-mark store, so the
//!   kernel window is the one every other engine sees,
//! * a [`versions::VersionProfile`] matrix reproducing the QEMU release
//!   history studied by the paper (Figs 2, 6 and 8).
//!
//! The block boundary is where a DBT wins or loses, so everything on it
//! is O(1) and stays in registers: a fetch address is first tried
//! against the TLB's main array by reference
//! ([`tlb::DbtTlb::probe_exec`]) and only a miss builds the shared
//! core's context to walk, refill and fault; the entry guards of later
//! version profiles are that many *real* probes per chained dispatch;
//! the block is found by indexing its page's slot table; and nothing on
//! the invalidation side — TLB flush, unchaining, IBTC flush — sweeps.
//! Translation reads instruction bytes with the fixed-size in-page read
//! every engine's fetch shares ([`simbench_core::run::in_page_window`]).
//!
//! The TLB, the code cache and the translation buffer are the same
//! types for every guest and are emptied with their capacity kept, so
//! they outlive the engine: dropping one leaves them in `SPARES` and
//! [`Dbt::with_profile`] takes them from there before allocating.

pub mod cache;
pub mod opt;
pub mod tlb;
pub mod versions;

pub use versions::{VersionProfile, QEMU_VERSIONS};

use std::marker::PhantomData;
use std::mem;
use std::time::Instant;

use simbench_core::bus::Bus;
use simbench_core::engine::{Engine, EngineInfo, ExitReason, PhaseTracker, RunLimits, RunOutcome};
use simbench_core::events::Counters;
use simbench_core::exec::{step_op, BranchFlavor, OpOutcome, Trap};
use simbench_core::fault::{AccessKind, MemFault};
use simbench_core::ir::{MemSize, Op};
use simbench_core::isa::{undecodable, Isa};
use simbench_core::machine::Machine;
use simbench_core::pool::Pool;
use simbench_core::run::{count_branch, in_page_window, Event, ExecCore, Policy, PolicyObs, Tlb};
use simbench_core::{page_of, PAGE_SHIFT, PAGE_SIZE};

use cache::{CodeCache, TbId, TbStep};
use tlb::DbtTlb;

/// Maximum guest instructions per translation block.
const MAX_BLOCK_INSNS: usize = 128;
/// Blocks between wall-clock limit checks.
const WALL_CHECK_BLOCKS: u64 = 4096;
/// Software TLB size in bits.
const TLB_BITS: u8 = 10;

/// What dropped engines leave for the next one, in whatever state their
/// last run ended: [`Dbt::with_profile`] makes them as new.
static SPARES: Pool<(DbtTlb, CodeCache, Vec<TbStep>)> = Pool::new();

/// The DBT engine.
#[derive(Debug)]
pub struct Dbt<I: Isa> {
    profile: VersionProfile,
    tlb: DbtTlb,
    code: CodeCache,
    /// Reusable translation buffer: blocks are decoded and optimized
    /// here, then copied into the code cache's step arena. Steady-state
    /// translation therefore allocates nothing.
    scratch: Vec<TbStep>,
    _isa: PhantomData<I>,
}

impl<I: Isa> Default for Dbt<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Isa> Dbt<I> {
    /// An engine at the newest version profile.
    pub fn new() -> Self {
        Self::with_profile(VersionProfile::latest())
    }

    /// An engine configured as a specific version.
    pub fn with_profile(profile: VersionProfile) -> Self {
        let (tlb, code, scratch) = match SPARES.take(|_| true) {
            Some((mut tlb, mut code, scratch)) => {
                tlb.flush();
                code.rearm();
                (tlb, code, scratch)
            }
            None => (DbtTlb::new(TLB_BITS), CodeCache::new(), Vec::new()),
        };
        Dbt {
            profile,
            tlb,
            code,
            scratch,
            _isa: PhantomData,
        }
    }

    /// The active version profile.
    pub fn profile(&self) -> &VersionProfile {
        &self.profile
    }

    /// Live translation blocks (diagnostics / tests).
    pub fn live_blocks(&self) -> usize {
        self.code.live_blocks()
    }

    /// Run `f` against the shared execution core, under this engine's
    /// below-the-block-level [`Hooks`].
    fn with_core<B: Bus, R>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        f: impl FnOnce(&mut ExecCore<'_, I, B, Hooks<'_>>) -> R,
    ) -> R {
        let mut hooks = Hooks {
            tlb: &mut self.tlb,
            code: &self.code,
            leave: None,
        };
        f(&mut ExecCore::new(m, counters, &mut hooks))
    }

    /// Translate a fetch address, filling the TLB on miss. A hit in the
    /// TLB's main array with execute permission is answered by the
    /// by-reference probe; anything else — MMU off, victim-resident,
    /// miss, no permission — takes the one full path through the shared
    /// core, which promotes, walks, refills and raises the fault.
    #[inline(always)]
    fn translate_exec<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        va: u32,
    ) -> Result<u32, MemFault> {
        if I::mmu_enabled(&m.sys) {
            let kernel = m.cpu.level.is_kernel();
            if let Some(ppage) = self.tlb.probe_exec(page_of(va), kernel) {
                let pa = ppage << PAGE_SHIFT | va & (PAGE_SIZE - 1);
                // Debug builds hold every probe hit to the full path (a
                // main-array hit there has no side effect either).
                debug_assert_eq!(
                    self.tlb
                        .lookup(page_of(va), AccessKind::Execute)
                        .map(|(e, _)| e.check(va, AccessKind::Execute, kernel, false)),
                    Some(Ok(pa))
                );
                return Ok(pa);
            }
        }
        self.with_core(m, counters, |core| core.translate_exec(va))
    }

    /// Per-block-entry revalidation guard: later version profiles re-check
    /// the code mapping on every dispatch of a chained block, one real
    /// TLB probe per level.
    fn entry_guard<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        pc: u32,
        ppage: u32,
    ) -> bool {
        for _ in 0..self.profile.entry_guard_level {
            match self.translate_exec(m, counters, pc) {
                Ok(pa) if page_of(pa) == ppage => {}
                _ => return false,
            }
        }
        true
    }

    /// Read the raw bytes of the instruction at `cur` for the block that
    /// starts at `pc`, whose first byte translates to `first_pa`; `cur`
    /// is in the same page.
    ///
    /// `first_pa` established the page's translation and execute
    /// permission, so the shared [`in_page_window`] reads from it
    /// directly; only a window it leaves takes the cross-page fetch,
    /// which translates the tail page (its probes are uncounted here).
    #[inline]
    fn fetch_in_block<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        pc: u32,
        first_pa: u32,
        cur: u32,
        buf: &mut [u8; 8],
    ) -> Result<usize, MemFault> {
        let pa = first_pa.wrapping_add(cur.wrapping_sub(pc));
        if in_page_window::<I>(m.bus.ram(), cur, pa, buf) {
            return Ok(I::MAX_INSN_BYTES);
        }
        self.fetch_across_pages(m, counters, cur, pa, buf)
    }

    /// [`ExecCore::fetch_bytes`] at `pc`, whose first byte is at `pa`:
    /// out of line, which keeps the translator's loop tight.
    #[inline(never)]
    fn fetch_across_pages<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        pc: u32,
        pa: u32,
        buf: &mut [u8; 8],
    ) -> Result<usize, MemFault> {
        self.with_core(m, counters, |core| core.fetch_bytes(pc, pa, buf))
    }

    /// Deliver an exception-class event through the shared core.
    fn deliver<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        event: Event,
        return_pc: u32,
    ) {
        self.with_core(m, counters, |core| core.deliver(event, return_pc));
    }

    /// Translate a new block starting at `pc`.
    fn translate_block<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        pc: u32,
    ) -> Result<TbId, MemFault> {
        let _obs = simbench_obs::span!("dbt.translate");
        let first_pa = self.translate_exec(m, counters, pc)?;
        let ppage = page_of(first_pa);
        self.scratch.clear();
        let mut cur = pc;
        let mut taken_target = None;
        let mut buf = [0u8; 8];

        for _ in 0..MAX_BLOCK_INSNS {
            let have = match self.fetch_in_block(m, counters, pc, first_pa, cur, &mut buf) {
                Ok(n) => n,
                Err(f) if self.scratch.is_empty() => return Err(f),
                Err(_) => break,
            };
            // Undecodable bytes translate to an explicit UDF trap of
            // nominal length. Read in place, as `core::run` reads it.
            let res = I::decode(&buf[..have], cur);
            let decoded = res.as_ref().unwrap_or(undecodable::<I>());
            let next = cur.wrapping_add(decoded.len as u32);
            // An instruction that continues on the next page is only
            // ever a block of its own (which the cache refuses).
            if page_of(next.wrapping_sub(1)) != page_of(pc) && cur != pc {
                break;
            }
            cur = next;
            for (i, op) in decoded.ops.iter().enumerate() {
                self.scratch.push(TbStep {
                    op: *op,
                    next_pc: next,
                    insn_start: i == 0,
                });
            }
            if decoded.ends_block() {
                taken_target = match decoded.ops.last() {
                    Some(Op::Branch { target }) => Some(*target),
                    Some(Op::BranchCond { target, .. }) => Some(*target),
                    Some(Op::Call { target, .. }) => Some(*target),
                    _ => None,
                };
                break;
            }
            // Blocks never span pages: stop before leaving the first one.
            if page_of(cur) != page_of(pc) {
                break;
            }
        }

        opt::constant_fold(&mut self.scratch);
        counters.blocks_translated += 1;
        static OBS_TRANSLATIONS: simbench_obs::Counter =
            simbench_obs::Counter::new("dbt.translations");
        static OBS_BLOCK_STEPS: simbench_obs::Histogram =
            simbench_obs::Histogram::new("dbt.block_steps");
        OBS_TRANSLATIONS.add(1);
        OBS_BLOCK_STEPS.observe(self.scratch.len() as u64);

        let (id, first_in_page) = self
            .code
            .insert(pc, ppage, cur, taken_target, &self.scratch);
        if first_in_page {
            // Stale TLB entries for this page lack the write-protect
            // flag; drop them all so future fills pick it up.
            self.tlb.flush();
        }
        Ok(id)
    }

    /// Find or translate the block at `pc`. A miss may overflow the
    /// cache and flush it: every [`TbId`] and link the caller held from
    /// before is then gone (see [`Dbt::chain_to`]).
    #[inline(always)]
    fn lookup_or_translate<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        pc: u32,
    ) -> Result<TbId, MemFault> {
        let pa = self.translate_exec(m, counters, pc)?;
        let ppage = page_of(pa);
        if let Some(id) = self.code.lookup(pc, ppage) {
            counters.block_cache_hits += 1;
            return Ok(id);
        }
        if self.code.needs_flush() {
            self.code.flush_all();
        }
        self.translate_block(m, counters, pc)
    }

    /// Eager exception-side-exit synchronisation. Later profiles perform
    /// QEMU-style `cpu_restore_state` on every synchronous exception:
    /// re-decode the interrupted block to recover precise state, then
    /// unchain everything and flush the IBTC. 2.5.0-rc0+ skips all of it
    /// for data aborts (the data-fault fast path of Figs 6/8).
    fn exception_sync<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        block_pc: u32,
        is_data_fault: bool,
    ) {
        if !self.profile.eager_exception_sync {
            return;
        }
        if is_data_fault && self.profile.data_fault_fast_path {
            return;
        }
        self.recover_state(m, counters, block_pc);
        self.code.unchain_all();
    }

    /// State recovery: re-decode the faulting block (without caching the
    /// result), exactly the work `cpu_restore_state` re-does in a real
    /// DBT to map host state back to guest state.
    fn recover_state<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        block_pc: u32,
    ) {
        let Ok(first_pa) = self.translate_exec(m, counters, block_pc) else {
            return;
        };
        let mut buf = [0u8; 8];
        let mut cur = block_pc;
        for _ in 0..MAX_BLOCK_INSNS {
            let Ok(have) = self.fetch_in_block(m, counters, block_pc, first_pa, cur, &mut buf)
            else {
                return;
            };
            let res = I::decode(&buf[..have], cur);
            let Ok(d) = &res else {
                return;
            };
            cur = cur.wrapping_add(d.len as u32);
            if d.ends_block() || page_of(cur) != page_of(block_pc) {
                return;
            }
        }
    }

    /// Resolve and, policy permitting, record a chain edge from `cur` to
    /// `target`. Returns the successor to dispatch next.
    #[inline(always)]
    fn chain_to<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        cur: TbId,
        target: u32,
        taken_edge: bool,
    ) -> Option<TbId> {
        let from = &self.code.blocks[cur as usize];
        // Only branches within a page chain; one that leaves the page
        // goes through the block cache every time.
        let chains = page_of(from.pc) == page_of(target);
        // Existing chain?
        let slot = if taken_edge {
            from.chain_taken
        } else {
            from.chain_fall
        };
        if let Some(id) = self.code.follow(slot, target) {
            return Some(id);
        }
        let epoch = self.code.link_epoch();
        let id = match self.lookup_or_translate(m, counters, target) {
            Ok(id) => id,
            Err(f) => {
                self.deliver(m, counters, Event::PrefetchAbort(f), target);
                return None;
            }
        };
        // If the lookup overflowed the cache, `cur` names nothing any
        // more (or a block that is not the one left): the flush bumped
        // the link epoch, and an edge is recorded only among live links.
        if chains && epoch == self.code.link_epoch() {
            let link = self.code.link(id);
            let from = &mut self.code.blocks[cur as usize];
            if taken_edge {
                from.chain_taken = link;
            } else {
                from.chain_fall = link;
            }
        }
        Some(id)
    }

    /// Resolve an indirect branch: IBTC hit or full lookup + fill.
    fn resolve_indirect<B: Bus>(
        &mut self,
        m: &mut Machine<I, B>,
        counters: &mut Counters,
        target: u32,
    ) -> Option<TbId> {
        if let Some(id) = self.code.follow(self.code.ibtc.lookup(target), target) {
            let ppage = self.code.blocks[id as usize].ppage;
            // Validate the mapping still matches before trusting it.
            if let Ok(pa) = self.translate_exec(m, counters, target) {
                if page_of(pa) == ppage {
                    return Some(id);
                }
            }
        }
        match self.lookup_or_translate(m, counters, target) {
            Ok(id) => {
                let link = self.code.link(id);
                self.code.ibtc.insert(target, link);
                Some(id)
            }
            Err(f) => {
                self.deliver(m, counters, Event::PrefetchAbort(f), target);
                None
            }
        }
    }
}

/// The tables go to the next engine, unless a panic is unwinding
/// through this one: it may have stopped half-way through an update.
impl<I: Isa> Drop for Dbt<I> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            SPARES.give((
                mem::take(&mut self.tlb),
                mem::take(&mut self.code),
                mem::take(&mut self.scratch),
            ));
        }
    }
}

static OBS: PolicyObs = PolicyObs::new("dbt.tlb_refills", "dbt.dispatch_batches");

/// The DBT's mechanisms below the block level, as a policy of the
/// shared execution core: the write-protecting soft TLB, QEMU's
/// `tlb_fill` slow path, and store detection of self-modifying code.
/// Built per block (and per full-path translation, cross-page fetch or
/// delivery) because it borrows the code cache the block's steps are
/// read from.
struct Hooks<'a> {
    tlb: &'a mut DbtTlb,
    code: &'a CodeCache,
    /// Why the store that just completed ends the block, if it does:
    /// the one flag the step loop tests after an op that falls through.
    leave: Option<Leave>,
}

/// A store after which the block cannot simply carry on.
#[derive(Debug, Clone, Copy)]
enum Leave {
    /// It overwrote bytes that live blocks were translated from:
    /// physical address and size.
    CodeWrite(u32, MemSize),
    /// It raised a phase mark, which counts from the next instruction.
    PhaseMark,
}

impl Policy for Hooks<'_> {
    type Tlb = DbtTlb;

    const COUNTS_FETCH_PROBES: bool = false;

    #[inline]
    fn tlb(&mut self) -> &mut DbtTlb {
        self.tlb
    }

    fn obs(&self) -> &'static PolicyObs {
        &OBS
    }

    #[inline]
    fn page_holds_code(&self, ppage: u32) -> bool {
        self.code.page_has_code(ppage)
    }

    /// QEMU-style `tlb_fill`: the helper validates the fill with a
    /// second walk and the memory op then *retries* through the TLB —
    /// the cold-path overhead the paper measures.
    #[inline]
    fn data_tlb_filled<I: Isa, B: Bus>(&mut self, sys: &I::Sys, bus: &mut B, va: u32) {
        let _ = I::walk(sys, bus, va);
        let refilled = self.tlb.lookup(page_of(va), AccessKind::Read);
        debug_assert!(refilled.is_some(), "entry just filled");
    }

    /// Write-protect slow path: the page may hold translations, and
    /// the store ends the block if it overwrote any.
    #[inline]
    fn store(&mut self, pa: u32, size: MemSize, holds_code: bool, _counters: &mut Counters) {
        if holds_code && self.code.holds_code_at(pa, size.bytes()) {
            self.leave = Some(Leave::CodeWrite(pa, size));
        }
    }

    #[inline]
    fn phase_marked(&mut self) {
        self.leave = Some(Leave::PhaseMark);
    }
}

/// How a block's execution ended.
enum BlockExit {
    Jump {
        target: u32,
        flavor: BranchFlavor,
    },
    Fallthrough,
    Trap {
        trap: Trap,
        next_pc: u32,
    },
    /// `pc` is the halt instruction's own address: the architectural
    /// PC rests there, matching the per-instruction engines.
    Halt {
        pc: u32,
    },
    /// A store ended the block early (see [`Leave`]).
    Left {
        resume_pc: u32,
    },
}

impl<I: Isa, B: Bus> Engine<I, B> for Dbt<I> {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "dbt",
            execution_model: "DBT",
            memory_access: "Soft TLB + write protect",
            code_generation: "Block-based",
            control_flow_inter: "Block Cache",
            control_flow_intra: "Block Chaining",
            interrupts: "Block Boundaries",
            sync_exceptions: "Side Exit",
            undef_insn: "Translated",
        }
    }

    fn run(&mut self, m: &mut Machine<I, B>, limits: &RunLimits) -> RunOutcome {
        let t0 = Instant::now();
        let mut counters = Counters::default();
        let mut phase = PhaseTracker::new();
        self.tlb.flush();
        self.code.reset();
        let mut chained_next: Option<TbId> = None;
        let mut blocks_executed: u64 = 0;

        let exit = 'outer: loop {
            if counters.instructions >= limits.max_insns {
                break ExitReason::InsnLimit;
            }
            blocks_executed += 1;
            if blocks_executed.is_multiple_of(WALL_CHECK_BLOCKS) {
                OBS.dispatch_batches.add(1);
                if let Some(wall) = limits.wall_limit {
                    if t0.elapsed() >= wall {
                        break ExitReason::WallLimit;
                    }
                }
            }

            // Interrupts are only taken at block boundaries.
            let pc = m.cpu.pc;
            if m.cpu.irq_enabled && m.bus.irq_pending() {
                self.deliver(m, &mut counters, Event::Irq, pc);
                chained_next = None;
                continue;
            }

            // A block resolved by the previous exit was live then, and
            // nothing ran since — or was made for this one dispatch (an
            // uncached page-straddling instruction is born dead).
            let cur: TbId = match chained_next.take() {
                Some(id) if self.code.blocks[id as usize].pc == pc => {
                    counters.block_chain_follows += 1;
                    let ppage = self.code.blocks[id as usize].ppage;
                    if self.entry_guard(m, &mut counters, pc, ppage) {
                        id
                    } else {
                        match self.lookup_or_translate(m, &mut counters, pc) {
                            Ok(id) => id,
                            Err(f) => {
                                self.deliver(m, &mut counters, Event::PrefetchAbort(f), pc);
                                continue;
                            }
                        }
                    }
                }
                _ => match self.lookup_or_translate(m, &mut counters, pc) {
                    Ok(id) => id,
                    Err(f) => {
                        self.deliver(m, &mut counters, Event::PrefetchAbort(f), pc);
                        continue;
                    }
                },
            };

            let (tb_pc, end_pc, taken_target) = {
                let tb = &self.code.blocks[cur as usize];
                (tb.pc, tb.end_pc, tb.taken_target)
            };
            // Dispatch is a pure slice walk over the shared step arena.
            // The slice and `hooks.code` are both immutable borrows of
            // `self.code` (coexisting fine with the mutable `self.tlb`
            // borrow), so the arena cannot move or be invalidated
            // mid-block; each step is copied out by value (`TbStep` is
            // small and `Copy`).
            let steps = self.code.steps_of(cur);
            let mut hooks = Hooks {
                tlb: &mut self.tlb,
                code: &self.code,
                leave: None,
            };
            let mut ctx = ExecCore::new(m, &mut counters, &mut hooks);

            let mut exit = BlockExit::Fallthrough;
            // Track the current instruction's own address (the previous
            // step's `next_pc`; instructions in a block are contiguous)
            // so a mid-block halt can commit an exact architectural PC.
            let mut insn_pc = tb_pc;
            let mut insn_end = tb_pc;
            for &step in steps {
                if step.insn_start {
                    ctx.counters.instructions += 1;
                    insn_pc = insn_end;
                }
                insn_end = step.next_pc;
                ctx.counters.uops += 1;
                match step_op(&mut ctx, &step.op) {
                    OpOutcome::Next => {
                        if ctx.policy.leave.is_some() {
                            exit = BlockExit::Left {
                                resume_pc: step.next_pc,
                            };
                            break;
                        }
                    }
                    OpOutcome::Jump { target, flavor } => {
                        count_branch(ctx.counters, tb_pc, target, flavor);
                        exit = BlockExit::Jump { target, flavor };
                        break;
                    }
                    OpOutcome::Trap(t) => {
                        exit = BlockExit::Trap {
                            trap: t,
                            next_pc: step.next_pc,
                        };
                        break;
                    }
                    OpOutcome::Halt => {
                        exit = BlockExit::Halt { pc: insn_pc };
                        break;
                    }
                }
            }
            let mark = ctx.phase_mark.take();
            let left = hooks.leave.take();

            // The marking store was the last thing to run (an `Op::Store`
            // leaves the block there), so the kernel window opens and
            // closes on the instruction it does in every other engine.
            if let Some(mark) = mark {
                phase.on_mark(mark, &counters);
            }
            // A store overwrote translated code: an `Op::Store`, which
            // leaves the block by `Left`, or the return-address push of
            // a call, which leaves it by `Jump`. Either way the blocks
            // it overlapped die before the successor is resolved.
            if let Some(Leave::CodeWrite(pa, size)) = left {
                counters.code_invalidations += 1;
                self.code.invalidate_range(pa, size.bytes());
            }

            match exit {
                BlockExit::Halt { pc } => {
                    // Leave the architectural PC at the halt instruction,
                    // exactly like the per-instruction engines — found by
                    // the differ when a halt sits mid-block (stale PC
                    // from the last block exit otherwise).
                    m.cpu.pc = pc;
                    break 'outer ExitReason::Halted;
                }
                BlockExit::Fallthrough => {
                    m.cpu.pc = end_pc;
                    chained_next = self.chain_to(m, &mut counters, cur, end_pc, false);
                }
                BlockExit::Jump { target, flavor } => {
                    m.cpu.pc = target;
                    match flavor {
                        BranchFlavor::Direct if Some(target) == taken_target => {
                            chained_next = self.chain_to(m, &mut counters, cur, target, true);
                        }
                        BranchFlavor::Direct => {
                            chained_next = None;
                        }
                        BranchFlavor::Indirect => {
                            chained_next = self.resolve_indirect(m, &mut counters, target);
                        }
                    }
                }
                BlockExit::Left { resume_pc } => {
                    m.cpu.pc = resume_pc;
                    chained_next = None;
                }
                BlockExit::Trap { trap, next_pc } => {
                    chained_next = None;
                    if trap != Trap::Eret {
                        let is_data_fault = matches!(trap, Trap::DataFault(_));
                        self.exception_sync(m, &mut counters, tb_pc, is_data_fault);
                    }
                    self.deliver(m, &mut counters, Event::Trap(trap), next_pc);
                }
            }
        };

        RunOutcome {
            exit,
            wall: t0.elapsed(),
            counters,
            kernel: phase.into_kernel(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::asm::{PReg, PortableAsm};
    use simbench_core::bus::FlatRam;
    use simbench_core::image::GuestImage;
    use simbench_core::ir::{AluOp, Cond};
    use simbench_interp::Interp;
    use simbench_isa_armlet::{Access, Armlet, ArmletAsm, TableBuilder};

    fn run_dbt(asm: ArmletAsm, entry: u32) -> (Machine<Armlet, FlatRam>, RunOutcome) {
        let img = asm.finish(entry);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Dbt::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(10_000_000));
        (m, out)
    }

    #[test]
    fn halt_mid_block_commits_exact_pc() {
        // Regression (found by the differ): the halt sits four
        // instructions into its translation block; the architectural PC
        // must rest on the halt itself, not the last block exit.
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let body = a.new_label();
        a.b(body);
        a.bind(body);
        a.mov_imm(PReg::A, 1);
        a.mov_imm(PReg::B, 2);
        a.mov_imm(PReg::C, 3);
        a.mov_imm(PReg::D, 4);
        a.halt();
        let halt_pc = 0x8000 + 4 + 4 * 4; // branch + four movs
        let (m, out) = run_dbt(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(out.counters.instructions, 6);
        assert_eq!(m.cpu.pc, halt_pc, "PC rests on the halt instruction");
    }

    #[test]
    fn arithmetic_loop_matches_interp_semantics() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, 1000);
        let top = a.new_label();
        a.bind(top);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 3);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let (m, out) = run_dbt(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 3000);
        // The loop body translates once and is re-dispatched.
        assert!(out.counters.blocks_translated < 10);
        assert!(
            out.counters.block_chain_follows > 500,
            "intra-page loop edge must chain: {}",
            out.counters.block_chain_follows
        );
    }

    #[test]
    fn self_modifying_code_invalidates() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        // Patch the word at `slot` from `mov D, #1` to `mov D, #2`,
        // then execute it.
        let slot = a.new_label();
        a.mov_label(PReg::A, slot);
        // New encoding: movw r3, #2 (class 3, rd=3).
        a.mov_imm(PReg::B, 0x3030_0000 | 2);
        a.store(PReg::B, PReg::A, 0);
        a.bind(slot);
        a.mov_imm(PReg::D, 1);
        a.halt();
        let (m, out) = run_dbt(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[3], 2, "rewritten instruction must execute");
        assert!(out.counters.code_invalidations >= 1);
    }

    #[test]
    fn exceptions_side_exit_and_resume() {
        let mut a = ArmletAsm::new();
        a.org(0);
        let handler = a.new_label();
        a.b(handler); // undef vector
        a.org(0x300);
        a.bind(handler);
        a.alu_ri(AluOp::Add, PReg::C, PReg::C, 1);
        a.eret();
        a.org(0x8000);
        a.mov_imm(PReg::C, 0);
        a.udf();
        a.udf();
        a.halt();
        let (m, out) = run_dbt(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[2], 2);
        assert_eq!(out.counters.undef_insns, 2);
    }

    #[test]
    fn version_profiles_agree_on_architecture() {
        // The same program must produce identical architectural results
        // on the oldest and newest version profiles.
        let build = || {
            let mut a = ArmletAsm::new();
            a.org(0x8000);
            a.mov_imm(PReg::A, 7);
            let f = a.new_label();
            a.call(f);
            a.halt();
            a.bind(f);
            a.alu_ri(AluOp::Mul, PReg::A, PReg::A, 6);
            a.ret();
            a.finish(0x8000)
        };
        let mut results = Vec::new();
        for prof in [QEMU_VERSIONS[0], *QEMU_VERSIONS.last().unwrap()] {
            let img = build();
            let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
            let mut e = Dbt::<Armlet>::with_profile(prof);
            let out = e.run(&mut m, &RunLimits::insns(1000));
            assert_eq!(out.exit, ExitReason::Halted);
            results.push(m.cpu.regs[0]);
        }
        assert_eq!(results[0], 42);
        assert_eq!(results, vec![42, 42]);
    }

    #[test]
    fn constant_folding_rewrites_ops_without_removing_them() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        // A constant chain the optimizer can fold.
        a.mov_imm(PReg::A, 10);
        a.alu_ri(AluOp::Add, PReg::B, PReg::A, 5);
        a.alu_ri(AluOp::Lsl, PReg::C, PReg::B, 2);
        a.mov_imm(PReg::D, 0xDEAD_BEEF); // movw+movt: foldable movt
        a.halt();
        let img = a.finish(0x8000);
        let mut reference = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let limits = RunLimits::insns(1000);
        let expected = Interp::<Armlet>::new().run(&mut reference, &limits);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let out = Dbt::<Armlet>::new().run(&mut m, &limits);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!((m.cpu.regs[2], m.cpu.regs[3]), (60, 0xDEAD_BEEF));
        assert_eq!(out.counters.uops, expected.counters.uops);
    }

    #[test]
    fn block_cache_hit_on_revisit() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let f = a.new_label();
        a.mov_imm(PReg::B, 0);
        a.mov_label(PReg::E, f);
        let top = a.new_label();
        a.bind(top);
        a.call_reg(PReg::E); // indirect call: exercises the IBTC
        a.cmp_ri(PReg::B, 50);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        a.bind(f);
        a.alu_ri(AluOp::Add, PReg::B, PReg::B, 1);
        a.ret();
        let (m, out) = run_dbt(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[1], 50);
        assert!(
            out.counters.blocks_translated <= 8,
            "translated {}",
            out.counters.blocks_translated
        );
    }

    /// `rounds` passes over `blocks` two-instruction blocks in one page,
    /// each ending in a direct branch to the next: every edge chains.
    fn block_chain_image(blocks: usize, rounds: u32) -> GuestImage {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, rounds);
        let top = a.new_label();
        a.bind(top);
        for _ in 0..blocks {
            let next = a.new_label();
            a.alu_ri(AluOp::Add, PReg::A, PReg::A, 1);
            a.b(next);
            a.bind(next);
        }
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(Cond::Ne, top);
        a.halt();
        a.finish(0x8000)
    }

    /// An engine whose code cache overflows at eight blocks.
    fn small_cache_dbt() -> Dbt<Armlet> {
        let mut e = Dbt::<Armlet>::new();
        e.code.flush_threshold = 8;
        e
    }

    #[test]
    fn code_cache_overflow_while_chaining() {
        // Regression: `chain_to` resolved its target through
        // `lookup_or_translate`, which at the threshold flushed the
        // cache, and then indexed the block table with the — now stale —
        // id of the block it came from (index out of bounds; through
        // the CLI, Small Blocks at a fifth of the paper's count).
        let img = block_chain_image(40, 3);
        let boot = || Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let (mut reference, mut m) = (boot(), boot());
        let limits = RunLimits::insns(1_000_000);
        let expected = Interp::<Armlet>::new().run(&mut reference, &limits);
        assert_eq!(expected.exit, ExitReason::Halted);
        assert_eq!(reference.cpu.regs[0], 120);

        let mut e = small_cache_dbt();
        let out = e.run(&mut m, &limits);
        assert_eq!(out.exit, ExitReason::Halted);
        assert!(
            e.code.full_flushes >= 2,
            "{} overflows",
            e.code.full_flushes
        );
        assert_eq!(out.counters.instructions, expected.counters.instructions);
        assert_eq!(
            m.state_digest(),
            reference.state_digest(),
            "{:?}",
            reference.state_diff(&m)
        );
    }

    #[test]
    fn an_engine_built_after_a_small_cache_one_has_a_whole_cache() {
        let img = block_chain_image(40, 3);
        let boot = || Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let limits = RunLimits::insns(1_000_000);
        let mut e = small_cache_dbt();
        let small = e.run(&mut boot(), &limits);
        assert!(e.code.full_flushes >= 2);
        drop(e);
        // Whichever spare tables this one got — tests share the pool —
        // the constructor made them as new.
        let mut e = Dbt::<Armlet>::new();
        let c = &e.code;
        assert_eq!((c.flush_threshold, c.full_flushes), (1 << 16, 0));
        assert_eq!((c.live_blocks(), c.arena_steps()), (0, 0));
        let whole = e.run(&mut boot(), &limits);
        assert_eq!(e.code.full_flushes, 0);
        assert!(small.counters.blocks_translated > whole.counters.blocks_translated);
    }

    #[test]
    fn lockstep_with_interp_across_overflows() {
        let img = block_chain_image(40, 6);
        let boot = || Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let (mut reference, mut m) = (boot(), boot());
        let (mut interp, mut e) = (Interp::<Armlet>::new(), small_cache_dbt());
        let mut checkpoints = 0;
        loop {
            // The dbt stops at the first block boundary past the limit;
            // the interpreter then retires exactly as many.
            let out = e.run(&mut m, &RunLimits::insns(100));
            interp.run(&mut reference, &RunLimits::insns(out.counters.instructions));
            assert_eq!(
                m.state_digest(),
                reference.state_digest(),
                "checkpoint {checkpoints}: {:?}",
                reference.state_diff(&m)
            );
            checkpoints += 1;
            if out.exit == ExitReason::Halted {
                break;
            }
        }
        assert_eq!(m.cpu.regs[0], 240);
        // Every run starts from an empty cache and fills it many times.
        assert!(checkpoints >= 4, "{checkpoints} checkpoints");
        assert!(
            e.code.full_flushes >= 2 * checkpoints,
            "{} overflows",
            e.code.full_flushes
        );
    }

    /// Where the guard test's page tables live.
    const GUARD_TABLES: u32 = 0x4_0000;
    /// The virtual page the guarded block runs at.
    const GUARD_VA: u32 = 0x40_0000;

    /// Point `GUARD_VA` at `frame` in the machine's page tables.
    fn map_guarded_page(m: &mut Machine<Armlet, FlatRam>, frame: u32, access: Access) {
        let mut tb = TableBuilder::new(GUARD_TABLES);
        tb.map_page(GUARD_VA, frame, access);
        let (base, blob) = tb.into_blob();
        m.bus.load(base, &blob);
    }

    #[test]
    fn entry_guards_are_real_probes() {
        // Two frames of code; the virtual page starts out on the first.
        let (frame_a, frame_b) = (0x8000, 0x9000);
        let mut a = ArmletAsm::new();
        for (frame, value) in [(frame_a, 1), (frame_b, 2)] {
            a.org(frame);
            a.mov_imm(PReg::A, value);
            a.halt();
        }
        let img = a.finish(frame_a);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        map_guarded_page(&mut m, frame_a, Access::KernelOnly);
        m.sys.ttbr = GUARD_TABLES;
        m.sys.sctlr = 1;
        assert!(Armlet::mmu_enabled(&m.sys) && m.cpu.level.is_kernel());

        let mut e = Dbt::<Armlet>::new();
        let mut counters = Counters::default();
        let guard_at = |e: &mut Dbt<Armlet>, m: &mut _, level, ppage| {
            e.profile.entry_guard_level = level;
            e.entry_guard(m, &mut Counters::default(), GUARD_VA, ppage)
        };

        // Mapping intact: the guard passes at every level.
        let first = e
            .lookup_or_translate(&mut m, &mut counters, GUARD_VA)
            .unwrap();
        let ppage = e.code.blocks[first as usize].ppage;
        assert_eq!(ppage, page_of(frame_a));
        for level in 0..=3 {
            assert!(guard_at(&mut e, &mut m, level, ppage), "level {level}");
        }

        // The page tables move the page to the other frame and the TLB
        // is flushed (what the guest's TLB maintenance does): the probe
        // misses, the full path walks, the frame differs.
        map_guarded_page(&mut m, frame_b, Access::KernelOnly);
        for level in 0..=3 {
            e.tlb.flush();
            assert_eq!(e.tlb.probe_exec(page_of(GUARD_VA), true), None);
            let passes = guard_at(&mut e, &mut m, level, ppage);
            assert_eq!(passes, level == 0, "level {level}: no probe, no refusal");
        }
        // The walk refilled the TLB: the refusal now comes from the probe.
        assert_eq!(
            e.tlb.probe_exec(page_of(GUARD_VA), true),
            Some(page_of(frame_b))
        );
        assert!(!guard_at(&mut e, &mut m, 1, ppage));
        // The dispatch falls back to the block cache, which translates
        // the other frame's code.
        let second = e
            .lookup_or_translate(&mut m, &mut counters, GUARD_VA)
            .unwrap();
        assert_ne!(second, first);
        let ppage = e.code.blocks[second as usize].ppage;
        assert_eq!(ppage, page_of(frame_b));
        assert!(guard_at(&mut e, &mut m, 3, ppage));

        // The page loses execute permission: refused, and the fallback
        // raises the prefetch abort.
        map_guarded_page(&mut m, frame_b, Access::KernelDevice);
        for level in 1..=3 {
            e.tlb.flush();
            assert!(!guard_at(&mut e, &mut m, level, ppage), "level {level}");
        }
        let fault = e
            .lookup_or_translate(&mut m, &mut counters, GUARD_VA)
            .unwrap_err();
        assert_eq!(fault.kind, simbench_core::fault::FaultKind::Permission);
    }
}
