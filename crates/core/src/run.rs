//! The one execution core.
//!
//! Everything about running a guest that does not depend on the
//! engine's *mechanism* is written here exactly once: the [`ExecCtx`]
//! implementation over `(CpuState, I::Sys, Bus, Counters)`
//! ([`ExecCore`]), instruction fetch ([`in_page_window`], the dbt's too,
//! and the cross-page [`ExecCore::fetch_bytes`]), exception delivery
//! ([`ExecCore::deliver`] — the only caller of
//! [`Isa::enter_exception`] / [`Isa::leave_exception`]), branch
//! classification ([`count_branch`]) and the per-instruction run loop
//! ([`run`]).
//!
//! What *does* depend on the mechanism enters through one
//! monomorphised trait, [`Policy`]: which TLB structure caches
//! translations, whether it executes from a decoded-page front end
//! ([`crate::frontend`]), what each
//! fetch / walk / data access / instruction / op costs in the engine's
//! timing model, what happens on a sensitive operation, and what a
//! store does to cached code. Every hook defaults to a no-op, so an
//! engine's `impl Policy` lists exactly the mechanisms that set it
//! apart — the paper's Fig 4 row, readable from code. `interp`,
//! `detailed`, `virt` and `native` are policies over [`run`]; `dbt`
//! keeps its block-granular outer loop and builds an [`ExecCore`] per
//! block for everything below the block level.

use std::time::Instant;

use simbench_obs::Counter;

use crate::bus::{ram_load, Bus, BusEvent};
use crate::cpu::{CpuState, Flags};
use crate::engine::{ExitReason, PhaseTracker, RunLimits, RunOutcome};
use crate::events::Counters;
use crate::exec::{step_op, BranchFlavor, ExecCtx, OpOutcome, Trap};
use crate::fault::{AccessKind, CopFault, ExcInfo, ExceptionKind, FaultKind, MemFault};
use crate::frontend::FrontEnd;
use crate::ir::{Decoded, MemSize, Op};
use crate::isa::{undecodable, CopEffect, Isa};
use crate::machine::Machine;
use crate::mmu::TlbEntry;
use crate::{page_base, page_of, PAGE_SHIFT, PAGE_SIZE};

/// Main-loop iterations between wall-clock limit checks. Iterations,
/// not retired instructions: IRQ-delivery and prefetch-abort iterations
/// retire nothing, and a storm of them must still honor `--wall-limit`.
const WALL_CHECK_PERIOD: u64 = 0x1_0000;

/// A TLB's answer to one access: [`TlbEntry::check`] on the entry it
/// holds for the page, if it holds one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Cached and permitted: the physical page and the entry's
    /// write-protect flag.
    Hit {
        /// Physical page number.
        ppage: u32,
        /// The write-protect flag.
        holds_code: bool,
    },
    /// Cached, and the access is not permitted: a permission fault.
    Denied,
    /// Nothing cached for the page.
    Miss,
}

/// A translation cache the core can drive.
///
/// `access` lets a structure keep separate entries per access class
/// (the fast interpreter's split single-entry caches); unified TLBs
/// ignore it. `holds_code` is the DBT's write-protect flag: structures
/// that do not track code pages ignore it on insert and report `true`
/// ("cannot rule it out") on a hit, which sends every store to
/// [`Policy::store`] unfiltered.
pub trait Tlb {
    /// Answer `access` to `vpage` at the effective privilege `kernel`
    /// (the current level is privileged and the access is not
    /// nonprivileged). A structure that resolves permissions when an
    /// entry is filled answers a hit with one bit test.
    fn lookup(&mut self, vpage: u32, access: AccessKind, kernel: bool) -> Lookup;
    /// Install a translation.
    fn insert(&mut self, e: TlbEntry, access: AccessKind, holds_code: bool);
    /// Drop any translation for `vpage`.
    fn invalidate_page(&mut self, vpage: u32);
    /// Drop every translation.
    fn flush(&mut self);
}

/// The telemetry counters the core bumps on a policy's behalf, so every
/// engine emits the same metrics under its own name.
pub struct PolicyObs {
    /// Counted TLB misses (each one walks and refills).
    pub tlb_refills: Counter,
    /// Batches of [`WALL_CHECK_PERIOD`] dispatch-loop iterations.
    pub dispatch_batches: Counter,
}

impl PolicyObs {
    /// Const constructor for `static` declarations, taking the two
    /// metric names in full (`"<engine>.tlb_refills"`, ...).
    pub const fn new(tlb_refills: &'static str, dispatch_batches: &'static str) -> Self {
        PolicyObs {
            tlb_refills: Counter::new(tlb_refills),
            dispatch_batches: Counter::new(dispatch_batches),
        }
    }
}

/// An operation a virtualization layer would trap, or a device model
/// could lack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sensitive {
    /// Load or store to the device at this physical address.
    Mmio(u32),
    /// Coprocessor / control-register access.
    Coproc,
    /// Undefined-instruction exception.
    Undef,
    /// External interrupt injection.
    Irq,
}

/// The engine-specific mechanisms, monomorphised into the shared core.
/// Every hook but [`Policy::tlb`] and [`Policy::obs`] defaults to "this
/// engine has no such mechanism".
pub trait Policy {
    /// The translation-cache structure.
    type Tlb: Tlb;

    /// Whether fetch-side TLB probes are architectural events. The DBT
    /// translates fetch addresses while building and looking up blocks,
    /// not per executed instruction, and does not count them.
    const COUNTS_FETCH_PROBES: bool = true;

    /// The translation cache.
    fn tlb(&mut self) -> &mut Self::Tlb;

    /// This engine's named telemetry counters.
    fn obs(&self) -> &'static PolicyObs;

    /// Decoded-instruction source: the decoded-page front end this
    /// engine executes from. `None` decodes every instruction every
    /// time it executes.
    #[inline]
    fn front_end(&mut self) -> Option<&mut FrontEnd> {
        None
    }

    /// Cost hook: instruction bytes are read from the page at `pa`.
    #[inline]
    fn fetch_cost(&mut self, _pa: u32) {}

    /// Cost hook: a TLB miss is about to walk the page tables.
    #[inline]
    fn walk_cost(&mut self) {}

    /// Cost hook: a load or store reaches RAM at `pa`.
    #[inline]
    fn data_cost(&mut self, _pa: u32) {}

    /// Cost hook: an instruction was fetched and is about to execute.
    #[inline]
    fn insn_cost(&mut self, _d: &Decoded) {}

    /// Cost hook: the instruction at `pc` executed `op` with `outcome`.
    #[inline]
    fn op_cost(&mut self, _pc: u32, _op: &Op, _outcome: &OpOutcome) {}

    /// Sensitive-op hook, called before the operation takes effect.
    ///
    /// # Errors
    ///
    /// The reason the engine cannot perform the operation; the run ends
    /// with [`ExitReason::Unsupported`] carrying it.
    #[inline]
    fn sensitive(
        &mut self,
        _what: Sensitive,
        _counters: &mut Counters,
    ) -> Result<(), &'static str> {
        Ok(())
    }

    /// Write-protect flag for a TLB fill of physical page `ppage`.
    #[inline]
    fn page_holds_code(&self, _ppage: u32) -> bool {
        true
    }

    /// Fill hook: a data-side miss just walked and refilled the TLB for
    /// `va` (the DBT's `tlb_fill` slow path does more work here).
    #[inline]
    fn data_tlb_filled<I: Isa, B: Bus>(&mut self, _sys: &I::Sys, _bus: &mut B, _va: u32) {}

    /// Store hook: a store of `size` bytes to `pa` completed;
    /// `holds_code` is the flag of the TLB entry it went through (`true`
    /// with the MMU off).
    #[inline]
    fn store(&mut self, _pa: u32, _size: MemSize, _holds_code: bool, _counters: &mut Counters) {}

    /// Mark hook: the store that just completed raised a phase mark
    /// ([`ExecCore::phase_mark`]). The per-instruction loop applies it
    /// after the instruction; an engine that runs further than that
    /// before looking must stop here.
    #[inline]
    fn phase_marked(&mut self) {}
}

/// What [`ExecCore::deliver`] delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A synchronous trap raised by an op.
    Trap(Trap),
    /// An instruction fetch faulted.
    PrefetchAbort(MemFault),
    /// The external interrupt line is raised and unmasked.
    Irq,
}

/// A fetched instruction: where its micro-ops are read from while it
/// executes.
#[derive(Clone, Copy)]
enum Insn<'d> {
    /// Decoded for this execution only, and read where the decoder
    /// wrote it. The decoder fills its return slot with byte-wide
    /// stores; moving that value — through a `Result`, an enum payload,
    /// a by-value argument — reloads it with wide loads that span
    /// several of those stores, cannot be store-forwarded and stall
    /// until they drain, on every instruction. So the run loop binds
    /// the decoder's return value once and hands out this reference.
    Fresh(&'d Decoded),
    /// A slot of the policy's [`FrontEnd`] arena. Ops are copied out
    /// one at a time, as the DBT copies steps out of its arena: a store
    /// that dirties the instruction's own page leaves the slot intact.
    Slot(u16),
}

/// The front end of a policy that has one.
#[inline]
fn front_end_of<P: Policy>(policy: &mut P) -> &mut FrontEnd {
    match policy.front_end() {
        Some(fe) => fe,
        None => no_front_end(),
    }
}

#[cold]
#[inline(never)]
fn no_front_end() -> ! {
    panic!("Insn::Slot fetched by a policy without a front end")
}

/// Classify and count a taken branch.
#[inline]
pub fn count_branch(counters: &mut Counters, from_pc: u32, target: u32, flavor: BranchFlavor) {
    let same_page = page_of(from_pc) == page_of(target);
    match (flavor, same_page) {
        (BranchFlavor::Direct, true) => counters.branch_intra_direct += 1,
        (BranchFlavor::Direct, false) => counters.branch_inter_direct += 1,
        (BranchFlavor::Indirect, true) => counters.branch_intra_indirect += 1,
        (BranchFlavor::Indirect, false) => counters.branch_inter_indirect += 1,
    }
}

/// The fixed-size read behind every in-page fetch: copy the
/// [`Isa::MAX_INSN_BYTES`]-byte window at `pc` (physical `pa`) into `buf`
/// if it ends inside both `pc`'s page and `ram`. `false` leaves the
/// window to [`ExecCore::fetch_bytes`].
#[inline(always)]
pub fn in_page_window<I: Isa>(ram: &[u8], pc: u32, pa: u32, buf: &mut [u8; 8]) -> bool {
    let n = I::MAX_INSN_BYTES;
    let fits = (pc & (PAGE_SIZE - 1)) as usize + n <= PAGE_SIZE as usize;
    match ram.get(pa as usize..pa as usize + n) {
        Some(window) if fits => buf[..n].copy_from_slice(window),
        _ => return false,
    }
    true
}

/// The end-of-RAM rule of every instruction fetch, the engines' and the
/// static predictor's: copy the part of the `dst.len()`-byte chunk at
/// `pa` that lies in `ram` and return its length. Only a fetch whose
/// `first` chunk has no byte in RAM is the prefetch abort at `pc`; a
/// shorter copy truncates the window, which aborts later only if the
/// decoder needs the missing bytes.
///
/// # Errors
///
/// The bus-error prefetch abort.
pub fn ram_end_chunk(
    ram: &[u8],
    pc: u32,
    pa: u32,
    dst: &mut [u8],
    first: bool,
) -> Result<usize, MemFault> {
    let part = ram.get(pa as usize..).unwrap_or_default();
    let n = part.len().min(dst.len());
    if n == 0 && first {
        return Err(MemFault {
            addr: pc,
            access: AccessKind::Execute,
            kind: FaultKind::BusError,
        });
    }
    dst[..n].copy_from_slice(&part[..n]);
    Ok(n)
}

/// Machine borrows, the run's counters and the engine's policy: the
/// context every op executes against.
pub struct ExecCore<'a, I: Isa, B: Bus, P: Policy> {
    cpu: &'a mut CpuState,
    sys: &'a mut I::Sys,
    bus: &'a mut B,
    /// Event counters of the run.
    pub counters: &'a mut Counters,
    /// The engine's mechanisms.
    pub policy: &'a mut P,
    /// Phase mark raised by a store, until the caller takes it.
    pub phase_mark: Option<u8>,
    /// Why the policy refused a sensitive operation, once it has.
    unsupported: Option<&'static str>,
}

impl<'a, I: Isa, B: Bus, P: Policy> ExecCore<'a, I, B, P> {
    /// Borrow a machine for execution under `policy`.
    #[inline]
    pub fn new(m: &'a mut Machine<I, B>, counters: &'a mut Counters, policy: &'a mut P) -> Self {
        ExecCore {
            cpu: &mut m.cpu,
            sys: &mut m.sys,
            bus: &mut m.bus,
            counters,
            policy,
            phase_mark: None,
            unsupported: None,
        }
    }

    /// The policy's TLB, for mutation. Every insert, invalidate and
    /// flush the core performs goes through here, because the front
    /// end's fetch memo stands in for a TLB probe and must not outlive
    /// the state that probe would have seen.
    #[inline]
    fn tlb_mut(&mut self) -> &mut P::Tlb {
        if let Some(fe) = self.policy.front_end() {
            fe.forget_memo();
        }
        self.policy.tlb()
    }

    /// Translate `va` for `access` through the policy's TLB, walking and
    /// refilling on a miss. Returns the physical address and the TLB
    /// entry's write-protect flag. Always inlined — miss path included —
    /// so the fetch path and the data path each get a copy specialised
    /// to their access kind, and a context built for one translation
    /// (the DBT's block lookups) dissolves into registers instead of
    /// being spilled for an out-of-line call.
    #[inline(always)]
    fn translate(
        &mut self,
        va: u32,
        access: AccessKind,
        nonpriv: bool,
    ) -> Result<(u32, bool), MemFault> {
        if !I::mmu_enabled(self.sys) {
            return Ok((va, true));
        }
        let counted = access != AccessKind::Execute || P::COUNTS_FETCH_PROBES;
        let privileged = self.cpu.level.is_kernel();
        let effective = privileged && !nonpriv;
        let answer = self.policy.tlb().lookup(page_of(va), access, effective);
        if counted && answer != Lookup::Miss {
            self.counters.tlb_hits += 1;
        }
        match answer {
            Lookup::Hit { ppage, holds_code } => {
                Ok((ppage << PAGE_SHIFT | va & (PAGE_SIZE - 1), holds_code))
            }
            Lookup::Denied => Err(MemFault {
                addr: va,
                access,
                kind: FaultKind::Permission,
            }),
            Lookup::Miss => {
                if counted {
                    self.counters.tlb_misses += 1;
                    self.policy.obs().tlb_refills.add(1);
                }
                self.policy.walk_cost();
                let e = I::walk(self.sys, self.bus, va).map_err(|mut f| {
                    f.access = access;
                    f
                })?;
                let holds_code = self.policy.page_holds_code(e.ppage);
                self.tlb_mut().insert(e, access, holds_code);
                if access != AccessKind::Execute {
                    self.policy.data_tlb_filled::<I, B>(self.sys, self.bus, va);
                }
                let pa = e.check(va, access, privileged, nonpriv)?;
                Ok((pa, holds_code))
            }
        }
    }

    /// Translate an instruction-fetch address.
    ///
    /// # Errors
    ///
    /// The prefetch abort to deliver.
    #[inline]
    pub fn translate_exec(&mut self, va: u32) -> Result<u32, MemFault> {
        self.translate(va, AccessKind::Execute, false)
            .map(|(pa, _)| pa)
    }

    #[inline]
    fn translate_data(
        &mut self,
        va: u32,
        size: MemSize,
        access: AccessKind,
        nonpriv: bool,
    ) -> Result<(u32, bool), MemFault> {
        if !size.aligned(va) {
            return Err(MemFault {
                addr: va,
                access,
                kind: FaultKind::Unaligned,
            });
        }
        self.translate(va, access, nonpriv)
    }

    /// Run the sensitive-op hook; `false` means the policy refused and
    /// the operation must not take effect.
    #[inline]
    fn sensitive(&mut self, what: Sensitive) -> bool {
        match self.policy.sensitive(what, self.counters) {
            Ok(()) => true,
            Err(why) => {
                self.unsupported = Some(why);
                false
            }
        }
    }

    /// Read up to [`Isa::MAX_INSN_BYTES`] raw instruction bytes at `pc`,
    /// whose first byte translates to `first_pa`. An instruction that
    /// straddles a page boundary has its tail page translated
    /// separately — the two pages need not be physically adjacent.
    ///
    /// # Errors
    ///
    /// A bus error when the first byte lies outside RAM
    /// ([`ram_end_chunk`]). A tail that cannot be translated or read only
    /// truncates the result: it aborts later, and only if the decoder
    /// needs those bytes.
    #[inline]
    pub fn fetch_bytes(
        &mut self,
        pc: u32,
        first_pa: u32,
        buf: &mut [u8; 8],
    ) -> Result<usize, MemFault> {
        let want = I::MAX_INSN_BYTES;
        let mut have = 0usize;
        let mut va = pc;
        let mut pa = first_pa;
        loop {
            self.policy.fetch_cost(pa);
            let page_left = (0x1000 - (va & 0xFFF)) as usize;
            let n = page_left.min(want - have);
            let ram = self.bus.ram();
            if (pa as usize) + n > ram.len() {
                // The window runs out of RAM (into MMIO or beyond).
                have += ram_end_chunk(ram, pc, pa, &mut buf[have..have + n], have == 0)?;
                break;
            }
            buf[have..have + n].copy_from_slice(&ram[pa as usize..pa as usize + n]);
            have += n;
            if have == want {
                break;
            }
            va = va.wrapping_add(n as u32);
            match self.translate_exec(va) {
                Ok(tail) => pa = tail,
                Err(_) => break,
            }
        }
        Ok(have)
    }

    /// Translate `pc` and read the raw instruction bytes there: the
    /// [`in_page_window`], or [`ExecCore::fetch_bytes`] for one it leaves.
    ///
    /// # Errors
    ///
    /// The prefetch abort to deliver.
    #[inline]
    pub fn fetch_at(&mut self, pc: u32, buf: &mut [u8; 8]) -> Result<usize, MemFault> {
        let pa = self.translate_exec(pc)?;
        if in_page_window::<I>(self.bus.ram(), pc, pa, buf) {
            self.policy.fetch_cost(pa);
            return Ok(I::MAX_INSN_BYTES);
        }
        self.fetch_bytes(pc, pa, buf)
    }

    /// Fetch the instruction at `pc` through the policy's decoded-page
    /// front end: the arena slot to execute it from.
    ///
    /// # Errors
    ///
    /// The prefetch abort to deliver.
    #[inline]
    fn fetch_slot(&mut self, pc: u32) -> Result<u16, MemFault> {
        let key = FrontEnd::memo_key(pc, self.cpu.level.is_kernel());
        debug_assert!(self.memo_is_sound(key, pc));
        let pa = match front_end_of(self.policy).probe_memo(key, pc) {
            Some((tlb_hits, found)) => {
                self.counters.tlb_hits += tlb_hits;
                match found {
                    Ok(slot) => return Ok(slot),
                    Err(pa) => pa,
                }
            }
            None => {
                let pa = self.translate_exec(pc)?;
                let tlb_hits = u64::from(P::COUNTS_FETCH_PROBES && I::mmu_enabled(self.sys));
                if let Some(slot) = front_end_of(self.policy).enter_page(key, pc, pa, tlb_hits) {
                    return Ok(slot);
                }
                pa
            }
        };
        // First touch: decode into the arena, read in place on the way.
        let mut buf = [0u8; 8];
        let have = self.fetch_bytes(pc, pa, &mut buf)?;
        let res = I::decode(&buf[..have], pc);
        let d = res.as_ref().unwrap_or(undecodable::<I>());
        Ok(front_end_of(self.policy).insert(pc, pa, d))
    }

    /// Whether the fetch memo, if it answers for `key`, agrees with the
    /// translation it stands in for.
    fn memo_is_sound(&mut self, key: u32, pc: u32) -> bool {
        let Some((pbase, tlb_hits)) = front_end_of(self.policy).memo_claim(key) else {
            return true;
        };
        if !I::mmu_enabled(self.sys) {
            return (pbase, tlb_hits) == (page_base(pc), 0);
        }
        let kernel = self.cpu.level.is_kernel();
        matches!(
            self.policy.tlb().lookup(page_of(pc), AccessKind::Execute, kernel),
            Lookup::Hit { ppage, .. } if ppage << PAGE_SHIFT == pbase
        ) && tlb_hits == u64::from(P::COUNTS_FETCH_PROBES)
    }

    /// The decoded form of a fetched instruction. The borrow covers the
    /// policy, so callers read what they need by value and let go.
    #[inline]
    fn decoded<'s>(&'s mut self, insn: Insn<'s>) -> &'s Decoded {
        match insn {
            Insn::Fresh(d) => d,
            Insn::Slot(slot) => front_end_of(self.policy).decoded(slot),
        }
    }

    /// Execute the instruction `insn` fetched from `pc`: count and cost
    /// it, walk its ops, dispatch a trap or commit the pc, apply a phase
    /// mark. `Some` ends the run.
    #[inline(always)]
    fn execute(&mut self, pc: u32, insn: Insn<'_>, phase: &mut PhaseTracker) -> Option<ExitReason> {
        self.counters.instructions += 1;
        match insn {
            Insn::Fresh(d) => self.policy.insn_cost(d),
            Insn::Slot(_) => {
                let d = *self.decoded(insn);
                self.policy.insn_cost(&d);
            }
        }
        let (len, n_ops) = {
            let d = self.decoded(insn);
            (d.len, d.ops.len())
        };
        let next_pc = pc.wrapping_add(len as u32);
        let mut new_pc = next_pc;
        let mut trap: Option<Trap> = None;
        for i in 0..n_ops {
            let copied;
            let op = match insn {
                Insn::Fresh(d) => &d.ops[i],
                Insn::Slot(slot) => {
                    copied = front_end_of(self.policy).decoded(slot).ops[i];
                    &copied
                }
            };
            self.counters.uops += 1;
            let outcome = step_op(self, op);
            self.policy.op_cost(pc, op, &outcome);
            match outcome {
                OpOutcome::Next => {
                    if self.unsupported.is_some() {
                        break;
                    }
                }
                OpOutcome::Jump { target, flavor } => {
                    count_branch(self.counters, pc, target, flavor);
                    new_pc = target;
                    break;
                }
                OpOutcome::Trap(t) => {
                    trap = Some(t);
                    break;
                }
                OpOutcome::Halt => return Some(ExitReason::Halted),
            }
        }
        if let Some(why) = self.unsupported {
            return Some(ExitReason::Unsupported(why));
        }

        match trap {
            None => self.cpu.pc = new_pc,
            Some(t) => self.deliver(Event::Trap(t), next_pc),
        }
        if let Some(mark) = self.phase_mark.take() {
            phase.on_mark(mark, self.counters);
        }
        None
    }

    /// Deliver `event`, leaving `cpu.pc` at the handler vector (or, for
    /// an exception return, at the resume address). `return_pc` is what
    /// the handler returns to: the next instruction for traps, the
    /// faulting or interrupted instruction otherwise.
    #[inline]
    pub fn deliver(&mut self, event: Event, return_pc: u32) {
        // Privilege, and with it what a fetch may touch, is about to
        // change.
        if let Some(fe) = self.policy.front_end() {
            fe.forget_memo();
        }
        let (kind, info) = match event {
            Event::Trap(Trap::Eret) => {
                self.cpu.pc = I::leave_exception(self.cpu, self.sys);
                return;
            }
            Event::Trap(Trap::Syscall(n)) => {
                self.counters.syscalls += 1;
                (ExceptionKind::Syscall, ExcInfo::syscall(n))
            }
            Event::Trap(Trap::Undef) => {
                self.counters.undef_insns += 1;
                self.sensitive(Sensitive::Undef);
                (ExceptionKind::Undef, ExcInfo::default())
            }
            Event::Trap(Trap::DataFault(f)) => {
                self.counters.data_faults += 1;
                (ExceptionKind::DataAbort, ExcInfo::from_fault(f))
            }
            Event::PrefetchAbort(f) => {
                self.counters.insn_faults += 1;
                (ExceptionKind::PrefetchAbort, ExcInfo::from_fault(f))
            }
            Event::Irq => {
                self.counters.irqs_delivered += 1;
                self.sensitive(Sensitive::Irq);
                (ExceptionKind::Irq, ExcInfo::default())
            }
        };
        self.cpu.pc = I::enter_exception(self.cpu, self.sys, kind, info, return_pc);
    }
}

impl<I: Isa, B: Bus, P: Policy> ExecCtx for ExecCore<'_, I, B, P> {
    #[inline]
    fn reg(&self, r: u8) -> u32 {
        self.cpu.regs[r as usize]
    }
    #[inline]
    fn set_reg(&mut self, r: u8, v: u32) {
        self.cpu.regs[r as usize] = v;
    }
    #[inline]
    fn flags(&self) -> Flags {
        self.cpu.flags
    }
    #[inline]
    fn set_flags(&mut self, f: Flags) {
        self.cpu.flags = f;
    }
    #[inline]
    fn privileged(&self) -> bool {
        self.cpu.level.is_kernel()
    }

    #[inline]
    fn read(&mut self, va: u32, size: MemSize, nonpriv: bool) -> Result<u32, MemFault> {
        self.counters.mem_reads += 1;
        if nonpriv {
            self.counters.nonpriv_accesses += 1;
        }
        let (pa, _) = self.translate_data(va, size, AccessKind::Read, nonpriv)?;
        if self.bus.is_mmio(pa) {
            self.counters.mmio_accesses += 1;
            if !self.sensitive(Sensitive::Mmio(pa)) {
                // Dummy value: the run ends before state can diverge.
                return Ok(0);
            }
        } else {
            self.policy.data_cost(pa);
            if let Some(val) = ram_load(self.bus.ram(), pa, size) {
                return Ok(val);
            }
        }
        // Devices, and the holes between them and RAM.
        self.bus.read(pa, size).map_err(|mut f| {
            f.addr = va;
            f
        })
    }

    #[inline]
    fn write(&mut self, va: u32, val: u32, size: MemSize, nonpriv: bool) -> Result<(), MemFault> {
        self.counters.mem_writes += 1;
        if nonpriv {
            self.counters.nonpriv_accesses += 1;
        }
        let (pa, holds_code) = self.translate_data(va, size, AccessKind::Write, nonpriv)?;
        if self.bus.is_mmio(pa) {
            self.counters.mmio_accesses += 1;
            if !self.sensitive(Sensitive::Mmio(pa)) {
                return Ok(());
            }
        } else {
            self.policy.data_cost(pa);
        }
        match self.bus.write(pa, val, size) {
            Ok(Some(BusEvent::PhaseMark(m))) => {
                self.phase_mark = Some(m);
                self.policy.phase_marked();
            }
            Ok(_) => {}
            Err(mut f) => {
                f.addr = va;
                return Err(f);
            }
        }
        self.policy.store(pa, size, holds_code, self.counters);
        Ok(())
    }

    #[inline]
    fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault> {
        self.counters.coproc_accesses += 1;
        if !self.sensitive(Sensitive::Coproc) {
            return Ok(0);
        }
        I::cop_read(self.cpu, self.sys, cp, reg)
    }

    #[inline]
    fn cop_write(&mut self, cp: u8, reg: u8, val: u32) -> Result<(), CopFault> {
        self.counters.coproc_accesses += 1;
        if !self.sensitive(Sensitive::Coproc) {
            return Ok(());
        }
        match I::cop_write(self.cpu, self.sys, cp, reg, val)? {
            CopEffect::None => {}
            CopEffect::TlbInvPage(va) => {
                self.counters.tlb_invalidate_page += 1;
                self.tlb_mut().invalidate_page(page_of(va));
            }
            CopEffect::TlbFlush => {
                self.counters.tlb_flushes += 1;
                self.tlb_mut().flush();
            }
            CopEffect::ContextChanged => self.tlb_mut().flush(),
        }
        Ok(())
    }
}

/// The per-instruction run loop: limit checks, interrupt delivery at
/// every instruction boundary, fetch, op walk, trap dispatch and phase
/// marks. The caller resets its policy's caches first.
pub fn run<I: Isa, B: Bus, P: Policy>(
    policy: &mut P,
    m: &mut Machine<I, B>,
    limits: &RunLimits,
) -> RunOutcome {
    let t0 = Instant::now();
    let mut counters = Counters::default();
    let mut phase = PhaseTracker::new();

    let mut iters: u64 = 0;
    let exit = loop {
        if counters.instructions >= limits.max_insns {
            break ExitReason::InsnLimit;
        }
        if iters.is_multiple_of(WALL_CHECK_PERIOD) {
            policy.obs().dispatch_batches.add(1);
            if let Some(wall) = limits.wall_limit {
                if t0.elapsed() >= wall {
                    break ExitReason::WallLimit;
                }
            }
        }
        iters += 1;

        // Rebuilt per instruction: a context that lived across
        // iterations would pin its borrows in memory for the whole run.
        let mut core = ExecCore::new(m, &mut counters, policy);
        let pc = core.cpu.pc;
        if core.cpu.irq_enabled && core.bus.irq_pending() {
            core.deliver(Event::Irq, pc);
            continue;
        }
        // One source of ops per policy, so one arm per monomorphisation.
        let step = if core.policy.front_end().is_some() {
            core.fetch_slot(pc)
                .map(|slot| core.execute(pc, Insn::Slot(slot), &mut phase))
        } else {
            let mut buf = [0u8; 8];
            core.fetch_at(pc, &mut buf).map(|have| {
                // Bound once: the decoder's return slot *is* this local,
                // and everything downstream reads it through `d`.
                let res = I::decode(&buf[..have], pc);
                let d = res.as_ref().unwrap_or(undecodable::<I>());
                core.execute(pc, Insn::Fresh(d), &mut phase)
            })
        };
        match step {
            Ok(None) => {}
            Ok(Some(exit)) => break exit,
            Err(f) => core.deliver(Event::PrefetchAbort(f), pc),
        }
    };

    RunOutcome {
        exit,
        wall: t0.elapsed(),
        counters,
        kernel: phase.into_kernel(),
    }
}
