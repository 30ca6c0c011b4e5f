//! # simbench
//!
//! Facade crate for **SimBench-rs**, a from-scratch Rust reproduction of
//! *"SimBench: A Portable Benchmarking Methodology for Full-System
//! Simulators"* (Wagstaff, Bodin, Spink & Franke — ISPASS 2017).
//!
//! This crate re-exports the whole workspace:
//!
//! * [`core`] — guest micro-op IR, CPU state, MMU/TLB abstractions,
//!   event counters, engine traits, portable assembler interface.
//! * [`armlet`] / [`petix`] / [`riscle`] — the three guest ISAs
//!   (ARM-like, x86-like and RISC-V-like).
//! * [`platform`] — RAM + UART / INTC / timer / safe-device board model.
//! * [`interp`] / [`detailed`] / [`dbt`] / [`virt`] — the four
//!   full-system engines (SimIt-ARM, Gem5, QEMU and QEMU-KVM analogues).
//! * [`suite`] — the eighteen SimBench micro-benchmarks.
//! * [`apps`] — synthetic SPEC-like application workloads.
//! * [`obs`] — zero-cost-when-off telemetry: spans/events on lock-free
//!   rings (Chrome trace export), named engine metrics, a leveled
//!   stderr logger and streaming per-cell campaign progress.
//! * [`campaign`] — the parallel measurement-campaign subsystem: a
//!   declarative guests × engines × workloads matrix expanded into jobs,
//!   executed on a completion-driven worker pool, aggregated into per-cell
//!   statistics (including the deterministic event profile), persisted
//!   as versioned `simbench-campaign/v7` JSON (`v6` files still load),
//!   and compared counter-exactly against stored baselines on event
//!   profiles.
//! * [`harness`] — experiment drivers regenerating every paper table
//!   and figure, now thin renderers over campaign results, the
//!   app-performance cost model calibrated from stored campaigns, plus
//!   the `simbench-harness campaign run|compare|list` and
//!   `model calibrate|predict|validate` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use simbench::prelude::*;
//!
//! // Assemble the System Call benchmark for the armlet guest and run it
//! // on the DBT engine.
//! let image = simbench::suite::build(&ArmletSupport::new(), Benchmark::Syscall, 1000).unwrap();
//! let mut machine = Machine::<Armlet, _>::boot(&image, Platform::new());
//! let mut engine = Dbt::<Armlet>::new();
//! let out = engine.run(&mut machine, &RunLimits::default());
//! assert_eq!(out.exit, ExitReason::Halted);
//! assert!(out.counters.syscalls >= 1000);
//! ```

pub use simbench_apps as apps;
pub use simbench_campaign as campaign;
pub use simbench_core as core;
pub use simbench_dbt as dbt;
pub use simbench_detailed as detailed;
pub use simbench_harness as harness;
pub use simbench_interp as interp;
pub use simbench_isa_armlet as armlet;
pub use simbench_isa_petix as petix;
pub use simbench_isa_riscle as riscle;
pub use simbench_obs as obs;
pub use simbench_platform as platform;
pub use simbench_suite as suite;
pub use simbench_virt as virt;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use simbench_campaign::{CampaignResult, CampaignSpec, RunnerOpts, Workload};
    pub use simbench_core::asm::{PReg, PortableAsm};
    pub use simbench_core::engine::{Engine, ExitReason, RunLimits, RunOutcome};
    pub use simbench_core::machine::Machine;
    pub use simbench_dbt::{Dbt, VersionProfile};
    pub use simbench_detailed::Detailed;
    pub use simbench_interp::Interp;
    pub use simbench_isa_armlet::{Armlet, ArmletAsm};
    pub use simbench_isa_petix::{Petix, PetixAsm};
    pub use simbench_platform::Platform;
    pub use simbench_suite::{ArmletSupport, Benchmark, Category, PetixSupport};
    pub use simbench_virt::Virt;
}

#[cfg(test)]
mod tests {
    /// The spec compiler rejects a group that emits more ops than an
    /// `OpList` holds, by a constant of its own.
    #[test]
    fn the_spec_compiler_and_the_ir_agree_on_the_op_list_capacity() {
        assert_eq!(
            simbench_isa_spec::MAX_OPS_PER_INSN,
            simbench_core::ir::MAX_OPS_PER_INSN
        );
    }
}
