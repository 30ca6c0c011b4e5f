//! Static event-profile prediction.
//!
//! Predicts the exact [`Counters`] vector a correct
//! interpreter-structured engine must retire for a guest image, without
//! consulting any engine. The predictor is a second, independent
//! implementation of the reference execution semantics: it shares the
//! per-op IR semantics (`step_op`) with every engine — that sharing is
//! the repo's front-end design — but owns its fetch path, translation
//! caching, interrupt delivery, trap dispatch and event accounting.
//! When `analyze --check` compares a prediction against a real
//! [`simbench_interp::Interp`] run, two separately-written engine loops
//! must agree counter-for-counter, which is an N-version check on the
//! reference semantics itself.
//!
//! The prediction is *exact* whenever the program is deterministic and
//! bounded. The one nondeterministic input on the platform is the
//! host-clock timer device; the predictor runs the guest on a bus
//! wrapper that watches for loads from the timer page and abstains from
//! predicting (rather than predicting wrongly) if one occurs. Unbounded
//! programs exhaust the instruction-fuel budget and abstain likewise —
//! abstention is a statement about the input class, not a violation.
//!
//! Predicted counters are the reference event profile: engines with
//! different memory-access structures legitimately differ on the
//! `tlb_*` rows (the paper's Fig 4 "Memory Access" axis), so those rows
//! bind only interpreter-structured engines.

use simbench_core::bus::{Bus, BusEvent};
use simbench_core::cpu::{CpuState, Flags};
use simbench_core::events::Counters;
use simbench_core::exec::{step_op, ExecCtx, OpOutcome, Trap};
use simbench_core::fault::{AccessKind, CopFault, ExcInfo, ExceptionKind, FaultKind, MemFault};
use simbench_core::image::GuestImage;
use simbench_core::ir::{Decoded, MemSize};
use simbench_core::isa::{undecodable, CopEffect, Isa};
use simbench_core::machine::Machine;
use simbench_core::page_of;
use simbench_core::tlb::SingleEntryCache;
use simbench_platform::{Platform, TIMER_BASE};

/// Why the predictor declined to claim an exact profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstainCause {
    /// The program read the host-clock timer device — the platform's
    /// one nondeterministic input — so later behaviour is not a
    /// function of the image alone.
    TimerRead,
    /// The instruction-fuel budget ran out before `halt`.
    FuelExhausted {
        /// Instructions retired when the budget ran out.
        at: u64,
    },
}

impl std::fmt::Display for AbstainCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbstainCause::TimerRead => {
                f.write_str("program reads the host-clock timer (nondeterministic input)")
            }
            AbstainCause::FuelExhausted { at } => write!(
                f,
                "fuel exhausted after {at} instructions (unbounded or under-fueled region)"
            ),
        }
    }
}

/// Outcome of a static event-profile prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prediction {
    /// The program is deterministic and bounded: a correct
    /// interpreter-structured engine retires exactly these counters and
    /// halts.
    Exact {
        /// The predicted event profile.
        counters: Counters,
    },
    /// No exact prediction is claimed for this input.
    Abstained {
        /// Why the predictor abstained.
        cause: AbstainCause,
        /// Counters accumulated up to the abstention point. For
        /// [`AbstainCause::FuelExhausted`] this is still exact for the
        /// executed prefix; for timer reads it is not a claim at all.
        partial: Counters,
    },
}

impl Prediction {
    /// `true` for [`Prediction::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, Prediction::Exact { .. })
    }

    /// The counters carried by either variant.
    pub fn counters(&self) -> &Counters {
        match self {
            Prediction::Exact { counters } => counters,
            Prediction::Abstained { partial, .. } => partial,
        }
    }
}

/// Bus wrapper that detects reads from the host-clock timer page — the
/// single nondeterministic device input — so the predictor can abstain
/// instead of predicting an unpredictable value's consequences.
struct WatchedBus {
    inner: Platform,
    timer_read: bool,
}

impl WatchedBus {
    fn new() -> Self {
        WatchedBus {
            inner: Platform::new(),
            timer_read: false,
        }
    }
}

impl Bus for WatchedBus {
    fn ram(&self) -> &[u8] {
        self.inner.ram()
    }
    fn ram_mut(&mut self) -> &mut [u8] {
        self.inner.ram_mut()
    }
    fn load(&mut self, addr: u32, bytes: &[u8]) {
        self.inner.load(addr, bytes)
    }
    fn ram_size(&self) -> u32 {
        self.inner.ram_size()
    }
    fn is_mmio(&self, pa: u32) -> bool {
        self.inner.is_mmio(pa)
    }
    fn read(&mut self, pa: u32, size: MemSize) -> Result<u32, MemFault> {
        if pa & !0xFFF == TIMER_BASE {
            self.timer_read = true;
        }
        self.inner.read(pa, size)
    }
    fn write(&mut self, pa: u32, val: u32, size: MemSize) -> Result<Option<BusEvent>, MemFault> {
        self.inner.write(pa, val, size)
    }
    fn irq_pending(&self) -> bool {
        self.inner.irq_pending()
    }
}

/// The predictor's execution context: machine borrows plus its own
/// single-entry translation caches and counter accumulator.
struct PredictCtx<'a, I: Isa> {
    cpu: &'a mut CpuState,
    sys: &'a mut I::Sys,
    bus: &'a mut WatchedBus,
    dcache: &'a mut SingleEntryCache,
    icache: &'a mut SingleEntryCache,
    counters: &'a mut Counters,
}

impl<I: Isa> PredictCtx<'_, I> {
    fn translate_data(
        &mut self,
        va: u32,
        size: MemSize,
        access: AccessKind,
        nonpriv: bool,
    ) -> Result<u32, MemFault> {
        if !size.aligned(va) {
            return Err(MemFault {
                addr: va,
                access,
                kind: FaultKind::Unaligned,
            });
        }
        self.translate(va, access, nonpriv)
    }

    /// Translate `va` through the single-entry cache of its access
    /// class, counting the probe and walking on a miss.
    fn translate(&mut self, va: u32, access: AccessKind, nonpriv: bool) -> Result<u32, MemFault> {
        if !I::mmu_enabled(self.sys) {
            return Ok(va);
        }
        let cache = match access {
            AccessKind::Execute => &mut *self.icache,
            AccessKind::Read | AccessKind::Write => &mut *self.dcache,
        };
        let entry = match cache.lookup(page_of(va)) {
            Some(e) => {
                self.counters.tlb_hits += 1;
                e
            }
            None => {
                self.counters.tlb_misses += 1;
                let e = I::walk(self.sys, self.bus, va).map_err(|mut f| {
                    f.access = access;
                    f
                })?;
                cache.insert(e);
                e
            }
        };
        entry.check(va, access, self.cpu.level.is_kernel(), nonpriv)
    }

    /// Translate-for-execute and read raw instruction bytes at `pc`.
    /// `Err` is the prefetch abort.
    fn fetch_insn(&mut self, pc: u32) -> Result<Decoded, MemFault> {
        let mut bytes = [0u8; 8];
        let mut have = 0usize;
        let want = I::MAX_INSN_BYTES;
        let mut va = pc;
        while have < want {
            let pa = match self.translate(va, AccessKind::Execute, false) {
                Ok(pa) => pa,
                // A truncated tail only aborts if the decoder actually
                // needs the missing bytes.
                Err(_) if have > 0 => break,
                Err(f) => return Err(f),
            };
            let page_left = (0x1000 - (va & 0xFFF)) as usize;
            let n = page_left.min(want - have);
            let ram = self.bus.ram();
            if (pa as usize) + n <= ram.len() {
                bytes[have..have + n].copy_from_slice(&ram[pa as usize..pa as usize + n]);
            } else {
                if have == 0 {
                    return Err(MemFault {
                        addr: pc,
                        access: AccessKind::Execute,
                        kind: FaultKind::BusError,
                    });
                }
                break;
            }
            have += n;
            va = va.wrapping_add(n as u32);
        }
        Ok(match I::decode(&bytes[..have], pc) {
            Ok(d) => d,
            // Undecodable bytes raise Undef through the engines' explicit op.
            Err(_) => *undecodable::<I>(),
        })
    }

    fn apply_cop_effect(&mut self, effect: CopEffect) {
        match effect {
            CopEffect::None => {}
            CopEffect::TlbInvPage(va) => {
                self.counters.tlb_invalidate_page += 1;
                let vpage = page_of(va);
                self.dcache.invalidate_page(vpage);
                self.icache.invalidate_page(vpage);
            }
            CopEffect::TlbFlush => {
                self.counters.tlb_flushes += 1;
                self.dcache.flush();
                self.icache.flush();
            }
            CopEffect::ContextChanged => {
                self.dcache.flush();
                self.icache.flush();
            }
        }
    }
}

impl<I: Isa> ExecCtx for PredictCtx<'_, I> {
    fn reg(&self, r: u8) -> u32 {
        self.cpu.regs[r as usize]
    }
    fn set_reg(&mut self, r: u8, v: u32) {
        self.cpu.regs[r as usize] = v;
    }
    fn flags(&self) -> Flags {
        self.cpu.flags
    }
    fn set_flags(&mut self, f: Flags) {
        self.cpu.flags = f;
    }
    fn privileged(&self) -> bool {
        self.cpu.level.is_kernel()
    }

    fn read(&mut self, va: u32, size: MemSize, nonpriv: bool) -> Result<u32, MemFault> {
        self.counters.mem_reads += 1;
        if nonpriv {
            self.counters.nonpriv_accesses += 1;
        }
        let pa = self.translate_data(va, size, AccessKind::Read, nonpriv)?;
        if self.bus.is_mmio(pa) {
            self.counters.mmio_accesses += 1;
        }
        self.bus.read(pa, size).map_err(|mut f| {
            f.addr = va;
            f
        })
    }

    fn write(&mut self, va: u32, val: u32, size: MemSize, nonpriv: bool) -> Result<(), MemFault> {
        self.counters.mem_writes += 1;
        if nonpriv {
            self.counters.nonpriv_accesses += 1;
        }
        let pa = self.translate_data(va, size, AccessKind::Write, nonpriv)?;
        if self.bus.is_mmio(pa) {
            self.counters.mmio_accesses += 1;
        }
        // Phase marks only shape per-phase reporting, never totals; the
        // prediction covers the whole run, so the event is dropped.
        match self.bus.write(pa, val, size) {
            Ok(_) => Ok(()),
            Err(mut f) => {
                f.addr = va;
                Err(f)
            }
        }
    }

    fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault> {
        self.counters.coproc_accesses += 1;
        I::cop_read(self.cpu, self.sys, cp, reg)
    }

    fn cop_write(&mut self, cp: u8, reg: u8, val: u32) -> Result<(), CopFault> {
        self.counters.coproc_accesses += 1;
        let effect = I::cop_write(self.cpu, self.sys, cp, reg, val)?;
        self.apply_cop_effect(effect);
        Ok(())
    }
}

/// Predict the event profile of `image` run from reset to halt, with a
/// budget of `fuel` retired instructions.
pub fn predict<I: Isa>(image: &GuestImage, fuel: u64) -> Prediction {
    let mut m = Machine::<I, WatchedBus>::boot(image, WatchedBus::new());
    let mut counters = Counters::default();
    let mut icache = SingleEntryCache::new();
    let mut dcache = SingleEntryCache::new();

    let halted = loop {
        if counters.instructions >= fuel {
            break false;
        }

        // Interrupt delivery at every instruction boundary: INTC state
        // is a deterministic function of guest stores, so delivery
        // points are statically determined at this granularity.
        if m.cpu.irq_enabled && m.bus.irq_pending() {
            counters.irqs_delivered += 1;
            let resume = m.cpu.pc;
            let vec = I::enter_exception(
                &mut m.cpu,
                &mut m.sys,
                ExceptionKind::Irq,
                ExcInfo::default(),
                resume,
            );
            m.cpu.pc = vec;
            continue;
        }

        let pc = m.cpu.pc;
        let mut ctx = PredictCtx::<I> {
            cpu: &mut m.cpu,
            sys: &mut m.sys,
            bus: &mut m.bus,
            dcache: &mut dcache,
            icache: &mut icache,
            counters: &mut counters,
        };
        let decoded = match ctx.fetch_insn(pc) {
            Ok(d) => d,
            Err(f) => {
                counters.insn_faults += 1;
                let vec = I::enter_exception(
                    &mut m.cpu,
                    &mut m.sys,
                    ExceptionKind::PrefetchAbort,
                    ExcInfo::from_fault(f),
                    pc,
                );
                m.cpu.pc = vec;
                continue;
            }
        };

        ctx.counters.instructions += 1;
        let next_pc = pc.wrapping_add(decoded.len as u32);

        let mut new_pc = next_pc;
        let mut trap: Option<Trap> = None;
        let mut halt = false;
        for op in &decoded.ops {
            ctx.counters.uops += 1;
            match step_op(&mut ctx, op) {
                OpOutcome::Next => {}
                OpOutcome::Jump { target, flavor } => {
                    simbench_core::run::count_branch(ctx.counters, pc, target, flavor);
                    new_pc = target;
                    break;
                }
                OpOutcome::Trap(t) => {
                    trap = Some(t);
                    break;
                }
                OpOutcome::Halt => {
                    halt = true;
                    break;
                }
            }
        }
        if halt {
            break true;
        }

        match trap {
            None => m.cpu.pc = new_pc,
            Some(Trap::Eret) => m.cpu.pc = I::leave_exception(&mut m.cpu, &mut m.sys),
            Some(Trap::Syscall(n)) => {
                counters.syscalls += 1;
                let vec = I::enter_exception(
                    &mut m.cpu,
                    &mut m.sys,
                    ExceptionKind::Syscall,
                    ExcInfo::syscall(n),
                    next_pc,
                );
                m.cpu.pc = vec;
            }
            Some(Trap::Undef) => {
                counters.undef_insns += 1;
                let vec = I::enter_exception(
                    &mut m.cpu,
                    &mut m.sys,
                    ExceptionKind::Undef,
                    ExcInfo::default(),
                    next_pc,
                );
                m.cpu.pc = vec;
            }
            Some(Trap::DataFault(f)) => {
                counters.data_faults += 1;
                let vec = I::enter_exception(
                    &mut m.cpu,
                    &mut m.sys,
                    ExceptionKind::DataAbort,
                    ExcInfo::from_fault(f),
                    next_pc,
                );
                m.cpu.pc = vec;
            }
        }
    };

    if m.bus.timer_read {
        return Prediction::Abstained {
            cause: AbstainCause::TimerRead,
            partial: counters,
        };
    }
    if !halted {
        return Prediction::Abstained {
            cause: AbstainCause::FuelExhausted {
                at: counters.instructions,
            },
            partial: counters,
        };
    }
    Prediction::Exact { counters }
}
