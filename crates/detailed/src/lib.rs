//! # simbench-detailed
//!
//! A *detailed* (timing) interpreter — the Gem5 analogue of the paper's
//! evaluation. Every instruction is re-decoded through the full decoder,
//! fetched through a modelled L1 instruction cache, and its data
//! accesses charged through a modelled TLB and L1 data cache with LRU
//! bookkeeping; the engine accumulates a simulated cycle count. All of
//! that per-instruction work is *why* detailed simulators are orders of
//! magnitude slower than fast interpreters — the same reason the paper
//! gives for Gem5's Code Generation numbers ("the Gem5 interpreter is
//! much more detailed in nature than that of SimIt-ARM").
//!
//! Mirroring the paper's Fig 7 footnote ("† functionality is not
//! implemented in the Gem5 simulator"), this engine can be configured
//! with unimplemented physical pages; touching one ends the run with
//! [`simbench_core::engine::ExitReason::Unsupported`]. The harness marks
//! the interrupt controller and the safe MMIO device as unimplemented,
//! so the External Software Interrupt and Memory Mapped Device
//! benchmarks report "-" on this engine, exactly as in the paper.

pub mod cachemodel;
pub mod timing;

use std::marker::PhantomData;

use simbench_core::bus::Bus;
use simbench_core::engine::{Engine, EngineInfo, RunLimits, RunOutcome};
use simbench_core::events::Counters;
use simbench_core::exec::OpOutcome;
use simbench_core::ir::{Decoded, Op};
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_core::page_of;
use simbench_core::pool::Pool;
use simbench_core::run::{self, Policy, PolicyObs, Sensitive, Tlb};
use simbench_core::tlb::SetAssocTlb;

use cachemodel::{CacheModel, PipelineStats};
use timing::{BranchPredictor, Scoreboard};

/// Cycles per decoded instruction (front end).
const DECODE_CYCLES: u64 = 1;
/// Cycles per executed micro-op.
const OP_CYCLES: u64 = 1;
/// Cycles for a TLB walk.
const WALK_CYCLES: u64 = 30;
/// Redirect penalty per taken branch.
const BRANCH_CYCLES: u64 = 2;

/// The model's tables, which a dropped engine leaves for the next one:
/// `run` flushes or resets every part before it looks at it.
#[derive(Debug, Default)]
struct Model {
    tlb: SetAssocTlb,
    icache: CacheModel,
    dcache: CacheModel,
    l2: CacheModel,
    bpred: BranchPredictor,
    /// Physical pages the model has no device implementation for.
    unimplemented_pages: Vec<u32>,
}

static SPARES: Pool<Model> = Pool::new();

/// The detailed timing engine.
#[derive(Debug)]
pub struct Detailed<I: Isa> {
    model: Model,
    scoreboard: Scoreboard,
    stats: PipelineStats,
    /// Conditional branches predicted correctly, and mispredicted.
    predictions: [u64; 2],
    /// Memory latency of the current op, consumed by the scoreboard.
    mem_cycles: u64,
    /// Per-class retirement histogram (part of the detailed bookkeeping).
    class_histogram: [u64; 5],
    _isa: PhantomData<I>,
}

impl<I: Isa> Default for Detailed<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Isa> Detailed<I> {
    /// An engine with everything implemented, on the model a dropped
    /// engine left if there is one.
    pub fn new() -> Self {
        let mut model = SPARES.take(|_| true).unwrap_or_else(|| Model {
            tlb: SetAssocTlb::new(16, 4),
            icache: CacheModel::new(32 << 10, 4, 64, 1, 12),
            dcache: CacheModel::new(32 << 10, 4, 64, 2, 12),
            l2: CacheModel::new(256 << 10, 8, 64, 10, 80),
            bpred: BranchPredictor::new(12),
            unimplemented_pages: Vec::new(),
        });
        model.unimplemented_pages.clear();
        Detailed {
            model,
            scoreboard: Scoreboard::default(),
            stats: PipelineStats::default(),
            predictions: [0; 2],
            mem_cycles: 0,
            class_histogram: [0; 5],
            _isa: PhantomData,
        }
    }

    /// Mark physical pages as having no device model: any access ends the
    /// run as [`simbench_core::engine::ExitReason::Unsupported`].
    pub fn with_unimplemented_pages(mut self, pages: &[u32]) -> Self {
        pages.clone_into(&mut self.model.unimplemented_pages);
        self
    }

    /// Pipeline statistics of the last run.
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.stats
    }

    /// The last run's retired-instruction histogram, indexed by
    /// [`simbench_core::ir::InsnClass`] in declaration order.
    pub fn class_histogram(&self) -> [u64; 5] {
        self.class_histogram
    }

    /// The last run's conditional-branch predictions: (correct, wrong).
    pub fn predictor_stats(&self) -> (u64, u64) {
        self.predictions.into()
    }
}

/// The model goes to the next engine, unless a panic is unwinding
/// through this one: it may have stopped half-way through an update.
impl<I: Isa> Drop for Detailed<I> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            SPARES.give(std::mem::take(&mut self.model));
        }
    }
}

/// Access an L1 with the L2 (and implicit DRAM) behind it on a miss:
/// `(total cycles, cycles stalled beyond an L1 hit)`.
#[inline]
fn through_l2(l1: &mut CacheModel, l2: &mut CacheModel, pa: u32) -> (u64, u64) {
    let mut cycles = l1.access(pa);
    if cycles > l1.hit_cycles {
        cycles += l2.access(pa);
    }
    (cycles, cycles - l1.hit_cycles)
}

/// The detailed policy: decode every time like the fast interpreter,
/// but charge every fetch, walk, data access, instruction and op to the
/// modelled caches, scoreboard and branch predictor.
impl<I: Isa> Policy for Detailed<I> {
    type Tlb = SetAssocTlb;

    #[inline]
    fn tlb(&mut self) -> &mut SetAssocTlb {
        &mut self.model.tlb
    }

    fn obs(&self) -> &'static PolicyObs {
        static OBS: PolicyObs = PolicyObs::new("detailed.tlb_refills", "detailed.dispatch_batches");
        &OBS
    }

    #[inline]
    fn fetch_cost(&mut self, pa: u32) {
        let (cycles, stall) = through_l2(&mut self.model.icache, &mut self.model.l2, pa);
        self.stats.icache_stall += stall;
        self.stats.cycles += cycles;
    }

    #[inline]
    fn walk_cost(&mut self) {
        self.stats.tlb_stall += WALK_CYCLES;
        self.stats.cycles += WALK_CYCLES;
    }

    #[inline]
    fn data_cost(&mut self, pa: u32) {
        let (cycles, stall) = through_l2(&mut self.model.dcache, &mut self.model.l2, pa);
        self.stats.dcache_stall += stall;
        self.stats.cycles += cycles;
        self.mem_cycles += cycles;
    }

    #[inline]
    fn insn_cost(&mut self, d: &Decoded) {
        self.stats.cycles += DECODE_CYCLES;
        self.class_histogram[d.class as usize] += 1;
    }

    /// In-order issue through the scoreboard (operand stalls, unit
    /// latencies, memory latency from the cache model), then the branch
    /// predictor and the taken-branch redirect.
    #[inline]
    fn op_cost(&mut self, pc: u32, op: &Op, outcome: &OpOutcome) {
        let mem_cycles = std::mem::take(&mut self.mem_cycles);
        self.stats.cycles += OP_CYCLES + self.scoreboard.issue(op, mem_cycles);
        let taken = matches!(outcome, OpOutcome::Jump { .. });
        let mut penalty = 0;
        if let Op::BranchCond { .. } = op {
            let p = self.model.bpred.observe(pc, taken);
            self.predictions[usize::from(p > 0)] += 1;
            penalty += p;
        }
        if taken {
            penalty += BRANCH_CYCLES;
        }
        self.stats.cycles += penalty;
        self.stats.branch_penalty += penalty;
    }

    #[inline]
    fn sensitive(&mut self, what: Sensitive, _counters: &mut Counters) -> Result<(), &'static str> {
        match what {
            Sensitive::Mmio(pa) if self.model.unimplemented_pages.contains(&page_of(pa)) => {
                Err("no device model for accessed page")
            }
            _ => Ok(()),
        }
    }
}

impl<I: Isa, B: Bus> Engine<I, B> for Detailed<I> {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "detailed",
            execution_model: "Interpreter",
            memory_access: "Modelled TLB",
            code_generation: "None",
            control_flow_inter: "Interpreted",
            control_flow_intra: "Interpreted",
            interrupts: "Insn. Boundaries",
            sync_exceptions: "Interpreted",
            undef_insn: "Interpreted",
        }
    }

    fn run(&mut self, m: &mut Machine<I, B>, limits: &RunLimits) -> RunOutcome {
        self.model.tlb.flush();
        self.model.icache.flush();
        self.model.dcache.flush();
        self.model.l2.flush();
        self.model.bpred.reset();
        self.scoreboard.reset();
        self.stats = PipelineStats::default();
        self.predictions = [0; 2];
        self.class_histogram = [0; 5];
        self.mem_cycles = 0;
        run::run(self, m, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::asm::{PReg, PortableAsm};
    use simbench_core::bus::FlatRam;
    use simbench_core::engine::ExitReason;
    use simbench_core::ir::AluOp;
    use simbench_isa_armlet::{Armlet, ArmletAsm};

    #[test]
    fn computes_and_accumulates_cycles() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, 100);
        let top = a.new_label();
        a.bind(top);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 2);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Detailed::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(1_000_000));
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 200);
        let stats = e.pipeline_stats();
        assert!(
            stats.cycles > out.counters.instructions,
            "timing model charges cycles"
        );
        assert!(stats.branch_penalty > 0);
        let hist = e.class_histogram();
        assert!(
            hist[0] > 0 && hist[2] > 0,
            "histogram tracks ALU and branches"
        );
    }

    #[test]
    fn every_run_starts_from_a_cold_model() {
        // A loop whose branch the predictor learns, so a model carried
        // over would mispredict less and report cumulative cycles.
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::B, 50);
        let top = a.new_label();
        a.bind(top);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let img = a.finish(0x8000);
        let mut e = Detailed::<Armlet>::new();
        let mut run = || {
            let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
            let out = e.run(&mut m, &RunLimits::insns(1_000_000));
            assert_eq!(out.exit, ExitReason::Halted);
            (e.pipeline_stats(), e.class_histogram(), e.predictor_stats())
        };
        let first = run();
        assert!(first.0.branch_penalty > 0 && first.1[2] == 50);
        assert_eq!(run(), first);
    }

    #[test]
    fn unimplemented_page_reports_unsupported() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0x9_0000);
        a.load(PReg::B, PReg::A, 0);
        a.halt();
        let img = a.finish(0x8000);
        // 1 MB RAM; pretend page 0x90 is an unimplemented device by
        // marking it (even though it is RAM in this fixture, the check is
        // on physical page identity).
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Detailed::<Armlet>::new().with_unimplemented_pages(&[0x90]);
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert_eq!(
            out.exit,
            ExitReason::Halted,
            "RAM pages are always implemented"
        );
        // Now route the access through MMIO space instead.
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0xF000_3000u32);
        a.load(PReg::B, PReg::A, 0);
        a.halt();
        let img = a.finish(0x8000);
        let mut p = simbench_platform::Platform::with_ram(1 << 20);
        use simbench_core::bus::Bus as _;
        let _ = p.ram_mut();
        let mut m = Machine::<Armlet, _>::boot(&img, p);
        let mut e = Detailed::<Armlet>::new().with_unimplemented_pages(&[0xF000_3000 >> 12]);
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert!(matches!(out.exit, ExitReason::Unsupported(_)));
    }

    #[test]
    fn cold_loop_has_tlb_and_cache_misses_flat() {
        // Touch many distinct lines: dcache misses accumulate.
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0x10000);
        a.mov_imm(PReg::B, 256);
        let top = a.new_label();
        a.bind(top);
        a.load(PReg::C, PReg::A, 0);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 64);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Detailed::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(100_000));
        assert_eq!(out.exit, ExitReason::Halted);
        assert!(
            e.pipeline_stats().dcache_stall >= 250 * 23,
            "each new line misses"
        );
    }
}
