//! The shared micro-op IR.
//!
//! Both guest ISA decoders lower instructions into this small RISC-like
//! vocabulary; all four engines consume it. Cross-engine performance
//! differences measured by the suite are therefore engine-mechanism
//! differences, not front-end differences — the property the paper obtains
//! by running identical guest binaries on every simulator.

use std::fmt;

/// ALU operations. Flag semantics follow the ARM convention (see
/// [`crate::alu`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `rd = rn + src`
    Add,
    /// `rd = rn + src + C`
    Adc,
    /// `rd = rn - src`
    Sub,
    /// `rd = rn - src - !C`
    Sbc,
    /// `rd = src - rn` (reverse subtract)
    Rsb,
    /// `rd = rn & src`
    And,
    /// `rd = rn | src`
    Orr,
    /// `rd = rn ^ src`
    Eor,
    /// `rd = rn & !src` (bit clear)
    Bic,
    /// `rd = src` (rn ignored)
    Mov,
    /// `rd = !src` (rn ignored)
    Mvn,
    /// `rd = rn * src` (low 32 bits)
    Mul,
    /// `rd = rn << (src & 31)`
    Lsl,
    /// `rd = rn >> (src & 31)` (logical)
    Lsr,
    /// `rd = (rn as i32) >> (src & 31)`
    Asr,
    /// `rd = rn.rotate_right(src & 31)`
    Ror,
}

impl AluOp {
    /// All ALU operations (used by property tests and the decoders).
    pub const ALL: [AluOp; 16] = [
        AluOp::Add,
        AluOp::Adc,
        AluOp::Sub,
        AluOp::Sbc,
        AluOp::Rsb,
        AluOp::And,
        AluOp::Orr,
        AluOp::Eor,
        AluOp::Bic,
        AluOp::Mov,
        AluOp::Mvn,
        AluOp::Mul,
        AluOp::Lsl,
        AluOp::Lsr,
        AluOp::Asr,
        AluOp::Ror,
    ];

    /// Stable numeric encoding used by both ISA instruction formats.
    pub fn code(self) -> u8 {
        AluOp::ALL.iter().position(|&o| o == self).unwrap() as u8
    }

    /// Inverse of [`AluOp::code`].
    pub fn from_code(code: u8) -> Option<AluOp> {
        AluOp::ALL.get(code as usize).copied()
    }
}

/// Branch conditions, evaluated against [`crate::cpu::Flags`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Z set.
    Eq,
    /// Z clear.
    Ne,
    /// C set (unsigned ≥).
    Cs,
    /// C clear (unsigned <).
    Cc,
    /// N set.
    Mi,
    /// N clear.
    Pl,
    /// V set.
    Vs,
    /// V clear.
    Vc,
    /// C set and Z clear (unsigned >).
    Hi,
    /// C clear or Z set (unsigned ≤).
    Ls,
    /// N == V (signed ≥).
    Ge,
    /// N != V (signed <).
    Lt,
    /// Z clear and N == V (signed >).
    Gt,
    /// Z set or N != V (signed ≤).
    Le,
    /// Always.
    Al,
}

impl Cond {
    /// All conditions in encoding order.
    pub const ALL: [Cond; 15] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Cs,
        Cond::Cc,
        Cond::Mi,
        Cond::Pl,
        Cond::Vs,
        Cond::Vc,
        Cond::Hi,
        Cond::Ls,
        Cond::Ge,
        Cond::Lt,
        Cond::Gt,
        Cond::Le,
        Cond::Al,
    ];

    /// Stable numeric encoding shared by both ISAs.
    pub fn code(self) -> u8 {
        Cond::ALL.iter().position(|&c| c == self).unwrap() as u8
    }

    /// Inverse of [`Cond::code`].
    pub fn from_code(code: u8) -> Option<Cond> {
        Cond::ALL.get(code as usize).copied()
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// One byte.
    B1,
    /// Two bytes (halfword).
    B2,
    /// Four bytes (word).
    B4,
}

impl MemSize {
    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
        }
    }

    /// True if `addr` is naturally aligned for this size.
    #[inline]
    pub fn aligned(self, addr: u32) -> bool {
        addr & (self.bytes() - 1) == 0
    }
}

/// How a call instruction records its return address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Write the return address to a link register (ARM style).
    Register(u8),
    /// Push the return address on a full-descending stack whose pointer is
    /// the given register (x86 style).
    Push(u8),
}

/// How a return instruction obtains its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetKind {
    /// Branch to a link register.
    Register(u8),
    /// Pop the target from the stack whose pointer is the given register.
    Pop(u8),
}

/// Second ALU operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register.
    Reg(u8),
    /// An immediate, fully resolved at decode time.
    Imm(u32),
}

/// One micro-operation.
///
/// Control-transfer ops are always the final op of a decoded instruction.
/// PC-relative quantities are resolved to absolute addresses at decode
/// time, so the IR never references the PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// ALU operation: `rd = rn <op> src`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: u8,
        /// First operand register (ignored by `Mov`/`Mvn`).
        rn: u8,
        /// Second operand.
        src: Operand,
        /// Whether NZCV are updated.
        set_flags: bool,
    },
    /// Flag-setting comparison without a destination: `rn - src` (or
    /// `rn & src` when `is_tst`).
    Cmp {
        /// Left operand register.
        rn: u8,
        /// Right operand.
        src: Operand,
        /// `true` for TST (AND-based) semantics.
        is_tst: bool,
    },
    /// Load `size` bytes from `[base + off]`, zero-extended.
    Load {
        /// Destination register.
        rd: u8,
        /// Base register.
        base: u8,
        /// Signed displacement.
        off: i32,
        /// Access width.
        size: MemSize,
        /// Perform the access with user privileges regardless of mode
        /// (ARM `ldrt`; unused by petix).
        nonpriv: bool,
    },
    /// Store `size` bytes of `rs` to `[base + off]`.
    Store {
        /// Source register.
        rs: u8,
        /// Base register.
        base: u8,
        /// Signed displacement.
        off: i32,
        /// Access width.
        size: MemSize,
        /// Perform the access with user privileges regardless of mode.
        nonpriv: bool,
    },
    /// Unconditional direct branch to an absolute address.
    Branch {
        /// Absolute target.
        target: u32,
    },
    /// Conditional direct branch; falls through when untaken.
    BranchCond {
        /// Condition.
        cond: Cond,
        /// Absolute target when taken.
        target: u32,
    },
    /// Indirect branch through a register.
    BranchReg {
        /// Register holding the target.
        rm: u8,
    },
    /// Direct call: link then branch.
    Call {
        /// Absolute target.
        target: u32,
        /// Return address (address of the following instruction).
        ret: u32,
        /// Linking discipline.
        link: LinkKind,
    },
    /// Indirect call through a register.
    CallReg {
        /// Register holding the target.
        rm: u8,
        /// Return address.
        ret: u32,
        /// Linking discipline.
        link: LinkKind,
    },
    /// Return.
    Ret(RetKind),
    /// System call with an immediate service number.
    Svc(u16),
    /// Architecturally undefined instruction: raises `Undef`.
    Udf,
    /// Return from exception: restores banked status and resumes.
    Eret,
    /// Read coprocessor/control register `cp:reg` into `rd` (privileged).
    CopRead {
        /// Coprocessor number.
        cp: u8,
        /// Register within the coprocessor.
        reg: u8,
        /// Destination GPR.
        rd: u8,
    },
    /// Write `rs` to coprocessor/control register `cp:reg` (privileged).
    CopWrite {
        /// Coprocessor number.
        cp: u8,
        /// Register within the coprocessor.
        reg: u8,
        /// Source GPR.
        rs: u8,
    },
    /// Stop the machine (privileged). Used by benchmarks to signal
    /// completion to the harness.
    Halt,
    /// No operation.
    Nop,
}

impl Op {
    /// True if this op can transfer control (and therefore terminates a
    /// translation block).
    #[inline]
    pub fn is_control_flow(self) -> bool {
        matches!(
            self,
            Op::Branch { .. }
                | Op::BranchCond { .. }
                | Op::BranchReg { .. }
                | Op::Call { .. }
                | Op::CallReg { .. }
                | Op::Ret(_)
                | Op::Svc(_)
                | Op::Udf
                | Op::Eret
                | Op::Halt
        )
    }
}

/// Maximum micro-ops a single guest instruction may lower to: what the
/// three ISA specs need (armlet `movt`, petix `push` / `pop`, riscle
/// `lih`). Raising this is an IR change: it grows every [`Decoded`] and
/// every engine structure that embeds one. The spec compiler, which
/// cannot depend on this crate, checks emission templates against its
/// own copy (`simbench_isa_spec::MAX_OPS_PER_INSN`); a workspace test
/// holds the two equal.
pub const MAX_OPS_PER_INSN: usize = 2;

/// Fixed-capacity inline op storage for one decoded instruction.
///
/// This is the hot-loop replacement for the old `Vec<Op>`: the ops of
/// an instruction live *inside* the [`Decoded`] value, so decoding —
/// the per-instruction work of every interpreter-class engine — touches
/// no allocator. Overflow is a hard error in every build profile: a
/// lowering that exceeds [`MAX_OPS_PER_INSN`] is a decoder bug that
/// must not survive into release binaries as silent truncation.
#[derive(Clone, Copy)]
pub struct OpList {
    len: u8,
    ops: [Op; MAX_OPS_PER_INSN],
}

impl OpList {
    /// An empty list.
    pub const fn new() -> Self {
        OpList {
            len: 0,
            ops: [Op::Nop; MAX_OPS_PER_INSN],
        }
    }

    /// Append an op.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds [`MAX_OPS_PER_INSN`] ops —
    /// in release builds too, unlike the old debug-only assert.
    #[inline]
    pub fn push(&mut self, op: Op) {
        if self.len as usize >= MAX_OPS_PER_INSN {
            oplist_overflow();
        }
        self.ops[self.len as usize] = op;
        self.len += 1;
    }

    /// The ops as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Op] {
        &self.ops[..self.len as usize]
    }
}

impl Default for OpList {
    fn default() -> Self {
        OpList::new()
    }
}

// The panic paths of the two always-on IR invariants live out of line
// and format nothing: a panic message that interpolates the op list
// would keep it alive across the happy path and spill the hot loop's
// registers to the stack — measurably slowing every decoded
// instruction for a branch that never happens.
#[cold]
#[inline(never)]
fn oplist_overflow() -> ! {
    panic!("instruction lowers to more than {MAX_OPS_PER_INSN} micro-ops");
}

#[cold]
#[inline(never)]
fn control_flow_not_last() -> ! {
    panic!("control flow op not last in decoded instruction");
}

impl std::ops::Deref for OpList {
    type Target = [Op];
    #[inline]
    fn deref(&self) -> &[Op] {
        self.as_slice()
    }
}

impl From<&[Op]> for OpList {
    #[inline]
    fn from(src: &[Op]) -> OpList {
        if src.len() > MAX_OPS_PER_INSN {
            oplist_overflow();
        }
        let mut ops = [Op::Nop; MAX_OPS_PER_INSN];
        ops[..src.len()].copy_from_slice(src);
        OpList {
            len: src.len() as u8,
            ops,
        }
    }
}

// The decoders' conversion: a fixed-size array checks its capacity at
// *compile time* and the copy fully unrolls — constructing a decoded
// instruction costs a handful of register stores, no loops, no
// branches. This is the path every engine's per-instruction decode
// takes, so it must stay free.
impl<const N: usize> From<[Op; N]> for OpList {
    #[inline]
    fn from(src: [Op; N]) -> OpList {
        const {
            assert!(
                N <= MAX_OPS_PER_INSN,
                "instruction lowers to more than MAX_OPS_PER_INSN micro-ops"
            );
        }
        let mut ops = [Op::Nop; MAX_OPS_PER_INSN];
        let mut i = 0;
        while i < N {
            ops[i] = src[i];
            i += 1;
        }
        OpList { len: N as u8, ops }
    }
}

impl From<Vec<Op>> for OpList {
    fn from(ops: Vec<Op>) -> OpList {
        OpList::from(ops.as_slice())
    }
}

impl fmt::Debug for OpList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for OpList {
    fn eq(&self, other: &OpList) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OpList {}

impl PartialEq<Vec<Op>> for OpList {
    fn eq(&self, other: &Vec<Op>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Op]> for OpList {
    fn eq(&self, other: &[Op]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[Op; N]> for OpList {
    fn eq(&self, other: &[Op; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a> IntoIterator for &'a OpList {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Classification of a decoded instruction, used for event counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsnClass {
    /// Arithmetic and logic.
    Alu,
    /// Memory access.
    Mem,
    /// Control transfer.
    Branch,
    /// System (svc/udf/eret/cop/halt).
    System,
    /// Nothing.
    Nop,
}

/// A fully decoded guest instruction.
///
/// `Copy`: the ops are stored inline ([`OpList`]), so a `Decoded` moves
/// through fetch/dispatch by value without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Encoded length in bytes (4 for armlet; 1–6 for petix).
    pub len: u8,
    /// Lowered micro-ops. At most one control-flow op, always last.
    pub ops: OpList,
    /// Coarse class for statistics.
    pub class: InsnClass,
}

impl Decoded {
    /// Construct, asserting the control-flow-last invariant (in every
    /// build profile: a mid-instruction control transfer would corrupt
    /// block translation silently).
    #[inline]
    pub fn new(len: u8, ops: impl Into<OpList>, class: InsnClass) -> Self {
        let ops = ops.into();
        let n = ops.len();
        for i in 0..n.saturating_sub(1) {
            if ops.as_slice()[i].is_control_flow() {
                control_flow_not_last();
            }
        }
        Decoded { len, ops, class }
    }

    /// What executes in place of bytes no decoder accepts: an explicit
    /// [`Op::Udf`], so the undefined-instruction trap is raised by the
    /// ordinary op walk. `len` is nominal.
    pub const fn undecodable(len: u8) -> Self {
        let mut ops = [Op::Nop; MAX_OPS_PER_INSN];
        ops[0] = Op::Udf;
        Decoded {
            len,
            ops: OpList { len: 1, ops },
            class: InsnClass::System,
        }
    }

    /// True if the final op may transfer control.
    #[inline]
    pub fn ends_block(&self) -> bool {
        self.ops.last().is_some_and(|op| op.is_control_flow())
    }
}

/// Error from a decoder: the bytes form no valid instruction. Engines
/// raise `Undef` in response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Address of the undecodable instruction.
    pub pc: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undecodable instruction at {:#010x}", self.pc)
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_codes_round_trip() {
        for op in AluOp::ALL {
            assert_eq!(AluOp::from_code(op.code()), Some(op));
        }
        assert_eq!(AluOp::from_code(16), None);
    }

    #[test]
    fn cond_codes_round_trip() {
        for c in Cond::ALL {
            assert_eq!(Cond::from_code(c.code()), Some(c));
        }
        assert_eq!(Cond::from_code(15), None);
    }

    #[test]
    fn mem_size() {
        assert!(MemSize::B4.aligned(8));
        assert!(!MemSize::B4.aligned(2));
        assert!(MemSize::B2.aligned(2));
        assert!(MemSize::B1.aligned(3));
        assert_eq!(MemSize::B2.bytes(), 2);
    }

    #[test]
    fn control_flow_classification() {
        assert!(Op::Halt.is_control_flow());
        assert!(Op::Svc(0).is_control_flow());
        assert!(!Op::Nop.is_control_flow());
    }

    #[test]
    fn oplist_push_and_slice() {
        let mut l = OpList::new();
        assert!(l.is_empty());
        l.push(Op::Nop);
        l.push(Op::Halt);
        assert_eq!(l.len(), 2);
        assert_eq!(l, vec![Op::Nop, Op::Halt]);
        assert_eq!(l.last(), Some(&Op::Halt));
        assert_eq!(OpList::from([Op::Udf]), [Op::Udf]);
    }

    #[test]
    #[should_panic(expected = "micro-ops")]
    fn oplist_overflow_is_a_hard_error() {
        let mut l = OpList::new();
        for _ in 0..=MAX_OPS_PER_INSN {
            l.push(Op::Nop);
        }
    }

    #[test]
    #[should_panic(expected = "control flow op not last")]
    fn control_flow_mid_instruction_is_a_hard_error() {
        // A real assert, not debug-only: this must fire in release too.
        let _ = Decoded::new(4, [Op::Branch { target: 0 }, Op::Nop], InsnClass::Branch);
    }

    #[test]
    fn decoded_ends_block() {
        let d = Decoded::new(4, vec![Op::Nop], InsnClass::Nop);
        assert!(!d.ends_block());
        let d = Decoded::new(
            4,
            vec![Op::Nop, Op::Branch { target: 4 }],
            InsnClass::Branch,
        );
        assert!(d.ends_block());
    }
}
