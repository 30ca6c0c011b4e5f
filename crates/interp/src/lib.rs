//! # simbench-interp
//!
//! A *fast interpreter* full-system engine, the SimIt-ARM analogue of the
//! paper's evaluation: no code generation, per-instruction decode, a
//! single-entry translation cache per access class ("Single Level Cache"
//! in Fig 4), and interrupt checks at instruction boundaries.
//!
//! Because nothing is cached across executions of the same address, this
//! engine is fast on fresh / self-modifying code (it wins the Code
//! Generation benchmarks, as SimIt-ARM does) and comparatively slow on
//! hot loops (it loses Hot Memory Access and Intra-Page Direct, as
//! SimIt-ARM does).

use std::marker::PhantomData;

use simbench_core::bus::Bus;
use simbench_core::engine::{Engine, EngineInfo, RunLimits, RunOutcome};
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_core::run::{self, Policy, PolicyObs, Tlb};
use simbench_core::tlb::SplitCache;

/// The fast interpreter engine: the shared run loop under the default
/// policy — decode every time, no cost model, no exits — over a split
/// single-entry translation cache.
#[derive(Debug, Default)]
pub struct Interp<I: Isa> {
    cache: SplitCache,
    _isa: PhantomData<I>,
}

impl<I: Isa> Interp<I> {
    /// A fresh interpreter.
    pub fn new() -> Self {
        Interp {
            cache: SplitCache::default(),
            _isa: PhantomData,
        }
    }
}

impl<I: Isa> Policy for Interp<I> {
    type Tlb = SplitCache;

    #[inline]
    fn tlb(&mut self) -> &mut SplitCache {
        &mut self.cache
    }

    fn obs(&self) -> &'static PolicyObs {
        static OBS: PolicyObs = PolicyObs::new("interp.tlb_refills", "interp.dispatch_batches");
        &OBS
    }
}

impl<I: Isa, B: Bus> Engine<I, B> for Interp<I> {
    fn info(&self) -> EngineInfo {
        EngineInfo {
            name: "interp",
            execution_model: "Fast Interpreter",
            memory_access: "Single Level Cache",
            code_generation: "None",
            control_flow_inter: "Interpreted",
            control_flow_intra: "Interpreted",
            interrupts: "Insn. Boundaries",
            sync_exceptions: "Interpreted",
            undef_insn: "Interpreted",
        }
    }

    fn run(&mut self, m: &mut Machine<I, B>, limits: &RunLimits) -> RunOutcome {
        self.cache.flush();
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

    fn run_flat(asm: ArmletAsm, entry: u32) -> (Machine<Armlet, FlatRam>, RunOutcome) {
        let img = asm.finish(entry);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Interp::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(1_000_000));
        (m, out)
    }

    #[test]
    fn arithmetic_loop() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, 10);
        let top = a.new_label();
        a.bind(top);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 3);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(simbench_core::ir::Cond::Ne, top);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 30);
        assert!(out.counters.instructions > 30);
        assert!(out.counters.branch_intra_direct >= 9);
    }

    #[test]
    fn memory_round_trip() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0x4000);
        a.mov_imm(PReg::B, 0xCAFE);
        a.store(PReg::B, PReg::A, 8);
        a.load(PReg::C, PReg::A, 8);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[2], 0xCAFE);
        assert_eq!(out.counters.mem_reads, 1);
        assert_eq!(out.counters.mem_writes, 1);
    }

    #[test]
    fn call_and_return() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let f = a.new_label();
        a.mov_imm(PReg::A, 1);
        a.call(f);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 100);
        a.halt();
        a.bind(f);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 10);
        a.ret();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 111);
    }

    #[test]
    fn insn_limit_respected() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let top = a.new_label();
        a.bind(top);
        a.b(top);
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 16));
        let mut e = Interp::<Armlet>::new();
        let out = e.run(&mut m, &RunLimits::insns(500));
        assert_eq!(out.exit, ExitReason::InsnLimit);
        assert_eq!(out.counters.instructions, 500);
    }

    #[test]
    fn undef_vectors_to_handler() {
        let mut a = ArmletAsm::new();
        // Vector table at 0: undef vector (index 0) jumps to handler.
        a.org(0);
        let handler = a.new_label();
        a.b(handler);
        a.org(0x200);
        a.bind(handler);
        a.mov_imm(PReg::D, 0x77);
        a.eret();
        a.org(0x8000);
        a.mov_imm(PReg::D, 0);
        a.udf();
        a.mov_imm(PReg::E, 0x88); // executed after handler returns
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[3], 0x77, "handler ran");
        assert_eq!(m.cpu.regs[4], 0x88, "resumed after udf");
        assert_eq!(out.counters.undef_insns, 1);
    }

    #[test]
    fn data_fault_vectors_and_resumes() {
        let mut a = ArmletAsm::new();
        a.org(0);
        // Vector index 2 (data abort) at 0x40.
        a.skip(0x40);
        let handler = a.new_label();
        a.b(handler);
        a.org(0x200);
        a.bind(handler);
        a.mov_imm(PReg::D, 1);
        a.eret();
        a.org(0x8000);
        // Load from beyond RAM (1 MB flat): bus error → data abort.
        a.mov_imm(PReg::A, 0x0800_0000);
        a.load(PReg::B, PReg::A, 0);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[3], 1);
        assert_eq!(out.counters.data_faults, 1);
    }

    #[test]
    fn syscall_number_reaches_handler_via_resume() {
        let mut a = ArmletAsm::new();
        a.org(0);
        // Syscall vector index 1 at 0x20.
        a.skip(0x20);
        let handler = a.new_label();
        a.b(handler);
        a.org(0x200);
        a.bind(handler);
        a.alu_ri(AluOp::Add, PReg::C, PReg::C, 1);
        a.eret();
        a.org(0x8000);
        a.mov_imm(PReg::C, 0);
        a.svc(42);
        a.svc(43);
        a.halt();
        let (m, out) = run_flat(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[2], 2);
        assert_eq!(out.counters.syscalls, 2);
    }
}
