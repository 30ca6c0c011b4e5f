//! # simbench-virt
//!
//! A hardware-assisted-virtualization cost-model engine — the QEMU-KVM
//! analogue of the paper's evaluation — plus a `native` configuration
//! standing in for the bare-metal hardware rows of Fig 7 (see
//! "Substitutions" under "Hot-loop architecture" in the README).
//!
//! Guest code executes on a *direct* fast path: instructions are decoded
//! once per physical page into the core's decoded-page front end (the
//! hardware's decoder and coherent instruction cache), and address
//! translation uses a large, cheap "hardware TLB". Sensitive
//! operations — MMIO, coprocessor accesses, undefined instructions,
//! interrupt injection — trigger simulated **VM exits** with a fixed
//! latency, reproducing the trap-and-emulate costs the paper highlights
//! for the External Software Interrupt and Memory Mapped Device
//! benchmarks. The `native` configuration runs the same engine with no
//! exits at all.
//!
//! The TLB and the front end are the same types for every guest and
//! start each run empty with their capacity kept, so they outlive the
//! engine: dropping one leaves them in `SPARES` and the constructors
//! take them from there before allocating.

use std::marker::PhantomData;
use std::mem;
use std::time::Instant;

use simbench_core::bus::Bus;
use simbench_core::engine::{Engine, EngineInfo, RunLimits, RunOutcome};
use simbench_core::events::Counters;
use simbench_core::frontend::FrontEnd;
use simbench_core::ir::MemSize;
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_core::pool::Pool;
use simbench_core::run::{self, Policy, PolicyObs, Sensitive, Tlb};
use simbench_core::tlb::DirectTlb;

/// Simulated cost of one KVM-like VM exit, in nanoseconds (busy-waited,
/// the honest stand-in for a world switch we cannot perform).
const KVM_EXIT_COST_NS: u32 = 1500;

/// What dropped engines leave for the next one: `run` flushes the TLB
/// and resets the front end before it looks at either, so a spare needs
/// nothing done to it.
static SPARES: Pool<(DirectTlb, FrontEnd)> = Pool::new();

/// The virtualization / native engine.
#[derive(Debug)]
pub struct Virt<I: Isa> {
    /// Cost of one VM exit in nanoseconds; `None` is the native
    /// configuration, where sensitive operations do not exit.
    exit_cost_ns: Option<u32>,
    /// "Hardware" TLB: large and cheap.
    tlb: DirectTlb,
    /// Decoded-instruction cache, kept coherent with stores.
    front: FrontEnd,
    _isa: PhantomData<I>,
}

impl<I: Isa> Virt<I> {
    /// A KVM-configured engine: every sensitive operation exits to the
    /// hypervisor at ~1.5 µs.
    pub fn kvm() -> Self {
        Self::with_exit_cost(Some(KVM_EXIT_COST_NS))
    }

    /// Native hardware stand-in: the same direct execution path with no
    /// exits.
    pub fn native() -> Self {
        Self::with_exit_cost(None)
    }

    fn with_exit_cost(exit_cost_ns: Option<u32>) -> Self {
        let (tlb, front) = SPARES
            .take(|_| true)
            .unwrap_or_else(|| (DirectTlb::new(4096), FrontEnd::new()));
        Virt {
            exit_cost_ns,
            tlb,
            front,
            _isa: PhantomData,
        }
    }
}

/// The tables go to the next engine, unless a panic is unwinding
/// through this one: it may have stopped half-way through an update.
impl<I: Isa> Drop for Virt<I> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            SPARES.give((mem::take(&mut self.tlb), mem::take(&mut self.front)));
        }
    }
}

/// Busy-wait approximating one VM exit's world-switch latency.
#[inline]
fn spin_exit(cost_ns: u32) {
    if cost_ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u32) < cost_ns {
        std::hint::spin_loop();
    }
}

/// The virt policy: decodes are cached per physical page, stores keep
/// that cache coherent, and (under KVM) every sensitive operation pays
/// a VM exit.
impl<I: Isa> Policy for Virt<I> {
    type Tlb = DirectTlb;

    #[inline]
    fn tlb(&mut self) -> &mut DirectTlb {
        &mut self.tlb
    }

    fn obs(&self) -> &'static PolicyObs {
        static VIRT: PolicyObs = PolicyObs::new("virt.tlb_refills", "virt.dispatch_batches");
        static NATIVE: PolicyObs = PolicyObs::new("native.tlb_refills", "native.dispatch_batches");
        if self.exit_cost_ns.is_some() {
            &VIRT
        } else {
            &NATIVE
        }
    }

    #[inline]
    fn front_end(&mut self) -> Option<&mut FrontEnd> {
        Some(&mut self.front)
    }

    #[inline]
    fn sensitive(&mut self, _what: Sensitive, counters: &mut Counters) -> Result<(), &'static str> {
        if let Some(cost_ns) = self.exit_cost_ns {
            counters.vm_exits += 1;
            spin_exit(cost_ns);
        }
        Ok(())
    }

    /// Instruction-cache coherency: a store drops the cached decodes it
    /// overlaps.
    #[inline]
    fn store(&mut self, pa: u32, size: MemSize, _holds_code: bool, counters: &mut Counters) {
        if self.front.store(pa, size) {
            counters.code_invalidations += 1;
        }
    }
}

impl<I: Isa, B: Bus> Engine<I, B> for Virt<I> {
    fn info(&self) -> EngineInfo {
        if self.exit_cost_ns.is_none() {
            EngineInfo {
                name: "native",
                execution_model: "Direct",
                memory_access: "Direct",
                code_generation: "None",
                control_flow_inter: "Direct",
                control_flow_intra: "Direct",
                interrupts: "Direct",
                sync_exceptions: "Direct",
                undef_insn: "Direct",
            }
        } else {
            EngineInfo {
                name: "virt",
                execution_model: "Direct",
                memory_access: "Direct",
                code_generation: "None",
                control_flow_inter: "Direct",
                control_flow_intra: "Direct",
                interrupts: "Via Emulation Layer",
                sync_exceptions: "Direct",
                undef_insn: "Hypercall",
            }
        }
    }

    fn run(&mut self, m: &mut Machine<I, B>, limits: &RunLimits) -> RunOutcome {
        self.tlb.flush();
        self.front.reset();
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

    fn run_native(asm: ArmletAsm, entry: u32) -> (Machine<Armlet, FlatRam>, RunOutcome) {
        let img = asm.finish(entry);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        let mut e = Virt::<Armlet>::native();
        let out = e.run(&mut m, &RunLimits::insns(10_000_000));
        (m, out)
    }

    #[test]
    fn computes_correctly() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 6);
        a.alu_ri(AluOp::Mul, PReg::A, PReg::A, 7);
        a.halt();
        let (m, out) = run_native(a, 0x8000);
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(m.cpu.regs[0], 42);
        assert_eq!(out.counters.vm_exits, 0, "native never exits");
    }

    #[test]
    fn kvm_exits_on_undef() {
        let mut a = ArmletAsm::new();
        a.org(0);
        let h = a.new_label();
        a.b(h);
        a.org(0x100);
        a.bind(h);
        a.eret();
        a.org(0x8000);
        a.udf();
        a.halt();
        let img = a.finish(0x8000);
        let mut m = Machine::<Armlet, _>::boot(&img, FlatRam::new(1 << 20));
        // KVM exits at zero cost: the count is under test, not the spin.
        let mut e = Virt::<Armlet>::with_exit_cost(Some(0));
        let out = e.run(&mut m, &RunLimits::insns(1000));
        assert_eq!(out.exit, ExitReason::Halted);
        assert_eq!(out.counters.vm_exits, 1);
        assert_eq!(out.counters.undef_insns, 1);
    }

    #[test]
    fn spin_exit_zero_is_free() {
        let t0 = Instant::now();
        for _ in 0..1000 {
            spin_exit(0);
        }
        assert!(t0.elapsed().as_micros() < 1000);
    }

    #[test]
    fn spin_exit_waits() {
        let t0 = Instant::now();
        spin_exit(50_000); // 50 µs
        assert!(t0.elapsed().as_nanos() >= 50_000);
    }
}
