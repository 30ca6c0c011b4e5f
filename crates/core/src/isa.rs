//! The guest-architecture abstraction.
//!
//! An [`Isa`] implementation is the "architecture support package" of the
//! paper's §II-C: instruction decoding, page-table walking, coprocessor
//! semantics, and exception entry/exit. Engines are generic over it, so a
//! new guest architecture requires only a new ISA crate — no engine
//! changes — mirroring SimBench's porting story.

use crate::bus::Bus;
use crate::cpu::CpuState;
use crate::fault::{CopFault, ExcInfo, ExceptionKind};
use crate::ir::{DecodeError, Decoded};
use crate::mmu::WalkResult;

/// Effects of a coprocessor / control-register write that the executing
/// engine must apply to its own cached structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopEffect {
    /// Pure system-register update; nothing for the engine to do.
    None,
    /// Invalidate any cached translation for the page containing the
    /// given virtual address.
    TlbInvPage(u32),
    /// Invalidate all cached translations.
    TlbFlush,
    /// The translation context changed (root table pointer or MMU
    /// enable). Engines must drop every cached translation; this models
    /// the implicit full flush both our ISAs specify on context switch.
    ContextChanged,
}

/// A guest instruction-set architecture plus its system-level support.
///
/// All methods are stateless over `&Sys` / `&mut Sys`; the engines own
/// the [`CpuState`] and system-register block inside a
/// [`crate::machine::Machine`].
pub trait Isa: 'static {
    /// Human-readable architecture name (e.g. `"armlet"`).
    const NAME: &'static str;

    /// Upper bound on instruction length in bytes.
    const MAX_INSN_BYTES: usize;

    /// Number of architectural GPRs.
    const GPRS: usize;

    /// System-register block (MMU controls, banked exception state,
    /// architecture-specific control registers).
    type Sys: Default + Clone + std::fmt::Debug + Send + 'static;

    /// Decode one instruction starting at `bytes[0]` (which is the byte
    /// at virtual address `pc`). `bytes` holds at least
    /// [`Isa::MAX_INSN_BYTES`] bytes unless the instruction ends the
    /// mapped region, in which case it holds what remains of the page.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the bytes form no valid instruction; engines
    /// raise an undefined-instruction exception in response.
    fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError>;

    /// True if address translation is currently enabled.
    fn mmu_enabled(sys: &Self::Sys) -> bool;

    /// Walk the page tables for `va`, reading table memory through `bus`.
    ///
    /// Returns a page-granule [`crate::mmu::TlbEntry`] carrying the
    /// permissions for both privilege levels, or the architectural
    /// translation fault.
    ///
    /// # Errors
    ///
    /// A [`crate::fault::MemFault`] describing the translation fault; the
    /// `access` field is filled in by the caller's fixup since the walker
    /// does not know the access kind.
    fn walk<B: Bus>(sys: &Self::Sys, bus: &mut B, va: u32) -> WalkResult;

    /// Read a coprocessor / control register (privileged).
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent registers (raises `Undef`).
    fn cop_read(cpu: &CpuState, sys: &mut Self::Sys, cp: u8, reg: u8) -> Result<u32, CopFault>;

    /// Write a coprocessor / control register (privileged), returning the
    /// effect the engine must apply to its cached state.
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent registers (raises `Undef`).
    fn cop_write(
        cpu: &mut CpuState,
        sys: &mut Self::Sys,
        cp: u8,
        reg: u8,
        val: u32,
    ) -> Result<CopEffect, CopFault>;

    /// Take an exception: bank `return_pc` and the current status, switch
    /// to kernel mode with IRQs masked, record `info`, and return the
    /// handler vector the engine must jump to.
    fn enter_exception(
        cpu: &mut CpuState,
        sys: &mut Self::Sys,
        kind: ExceptionKind,
        info: ExcInfo,
        return_pc: u32,
    ) -> u32;

    /// Return from an exception (`eret`/`iret`): restore banked status
    /// and return the resume address.
    fn leave_exception(cpu: &mut CpuState, sys: &mut Self::Sys) -> u32;

    /// Visit every architecturally-visible system register as a labeled
    /// word, in a fixed ISA-defined order.
    ///
    /// This is the digest hook behind
    /// [`crate::machine::Machine::state_digest`]: two machines of the
    /// same ISA are architecturally equal only if their visitors emit
    /// identical sequences. Labels are stable names (`"sctlr"`,
    /// `"cr0"`, ...) used verbatim in state diffs.
    fn sys_regs(sys: &Self::Sys, visit: &mut dyn FnMut(&'static str, u32));
}

/// The instruction every engine executes where [`Isa::decode`] fails:
/// one per ISA, borrowed rather than built, of nominal length
/// [`Isa::MAX_INSN_BYTES`] (what an `Undef` handler returns past).
#[inline]
pub fn undecodable<I: Isa>() -> &'static Decoded {
    const { &Decoded::undecodable(I::MAX_INSN_BYTES as u8) }
}
