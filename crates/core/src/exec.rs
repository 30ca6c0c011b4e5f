//! Shared micro-op execution semantics.
//!
//! [`step_op`] implements the architectural effect of every [`Op`] once;
//! each engine supplies an [`ExecCtx`] that plugs in its own register
//! file access, memory path (TLB flavour, event accounting) and
//! coprocessor routing. Engines therefore differ in *mechanism* — the
//! thing SimBench measures — while sharing semantics, which keeps
//! differential tests honest.

use crate::alu;
use crate::cpu::Flags;
use crate::fault::{CopFault, MemFault};
use crate::ir::{LinkKind, MemSize, Op, Operand, RetKind};

/// Engine-specific execution context for one machine.
pub trait ExecCtx {
    /// Read a GPR.
    fn reg(&self, r: u8) -> u32;
    /// Write a GPR.
    fn set_reg(&mut self, r: u8, v: u32);
    /// Current condition flags.
    fn flags(&self) -> Flags;
    /// Replace the condition flags.
    fn set_flags(&mut self, f: Flags);
    /// True when executing privileged.
    fn privileged(&self) -> bool;
    /// Translated data load.
    ///
    /// # Errors
    ///
    /// The architectural [`MemFault`] (translation, permission,
    /// alignment, or bus error).
    fn read(&mut self, va: u32, size: MemSize, nonpriv: bool) -> Result<u32, MemFault>;
    /// Translated data store.
    ///
    /// # Errors
    ///
    /// The architectural [`MemFault`].
    fn write(&mut self, va: u32, val: u32, size: MemSize, nonpriv: bool) -> Result<(), MemFault>;
    /// Coprocessor read (already privilege-checked by [`step_op`]).
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent registers.
    fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault>;
    /// Coprocessor write (already privilege-checked by [`step_op`]).
    ///
    /// # Errors
    ///
    /// [`CopFault`] for nonexistent registers.
    fn cop_write(&mut self, cp: u8, reg: u8, val: u32) -> Result<(), CopFault>;
}

/// Whether a control transfer's target was statically encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchFlavor {
    /// Target encoded in the instruction.
    Direct,
    /// Target from a register or the stack.
    Indirect,
}

/// A synchronous event that ends normal sequential execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `svc`-style system call.
    Syscall(u16),
    /// Undefined instruction (including privileged ops in user mode and
    /// invalid coprocessor accesses).
    Undef,
    /// Faulting data access.
    DataFault(MemFault),
    /// Exception return: the engine must call
    /// [`crate::isa::Isa::leave_exception`].
    Eret,
}

/// Result of executing one micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// Fall through to the next op / instruction.
    Next,
    /// Control transfers to `target`.
    Jump {
        /// Absolute target address.
        target: u32,
        /// Static or dynamic target.
        flavor: BranchFlavor,
    },
    /// A synchronous exception-class event occurred.
    Trap(Trap),
    /// The guest executed `halt`.
    Halt,
}

#[inline]
fn operand<C: ExecCtx>(ctx: &C, src: Operand) -> u32 {
    match src {
        Operand::Reg(r) => ctx.reg(r),
        Operand::Imm(i) => i,
    }
}

#[inline]
fn do_link<C: ExecCtx>(ctx: &mut C, link: LinkKind, ret: u32) -> Result<(), MemFault> {
    match link {
        LinkKind::Register(lr) => {
            ctx.set_reg(lr, ret);
            Ok(())
        }
        LinkKind::Push(sp) => {
            let new_sp = ctx.reg(sp).wrapping_sub(4);
            ctx.write(new_sp, ret, MemSize::B4, false)?;
            ctx.set_reg(sp, new_sp);
            Ok(())
        }
    }
}

/// Execute one micro-op against the context.
///
/// Privilege rules enforced here (identically for every engine):
/// `CopRead`/`CopWrite`/`Halt`/`Eret` are privileged and raise
/// [`Trap::Undef`] from user mode; `Svc` and `Udf` are always available.
#[inline]
pub fn step_op<C: ExecCtx>(ctx: &mut C, op: &Op) -> OpOutcome {
    match *op {
        Op::Nop => OpOutcome::Next,
        Op::Alu {
            op,
            rd,
            rn,
            src,
            set_flags,
        } => {
            let a = ctx.reg(rn);
            let b = operand(ctx, src);
            let r = alu::eval(op, a, b, ctx.flags());
            ctx.set_reg(rd, r.value);
            if set_flags {
                ctx.set_flags(r.flags);
            }
            OpOutcome::Next
        }
        Op::Cmp { rn, src, is_tst } => {
            let a = ctx.reg(rn);
            let b = operand(ctx, src);
            let f = alu::compare(a, b, is_tst, ctx.flags());
            ctx.set_flags(f);
            OpOutcome::Next
        }
        Op::Load {
            rd,
            base,
            off,
            size,
            nonpriv,
        } => {
            let va = ctx.reg(base).wrapping_add(off as u32);
            match ctx.read(va, size, nonpriv) {
                Ok(v) => {
                    ctx.set_reg(rd, v);
                    OpOutcome::Next
                }
                Err(f) => OpOutcome::Trap(Trap::DataFault(f)),
            }
        }
        Op::Store {
            rs,
            base,
            off,
            size,
            nonpriv,
        } => {
            let va = ctx.reg(base).wrapping_add(off as u32);
            let val = ctx.reg(rs);
            match ctx.write(va, val, size, nonpriv) {
                Ok(()) => OpOutcome::Next,
                Err(f) => OpOutcome::Trap(Trap::DataFault(f)),
            }
        }
        Op::Branch { target } => OpOutcome::Jump {
            target,
            flavor: BranchFlavor::Direct,
        },
        Op::BranchCond { cond, target } => {
            if alu::cond_holds(cond, ctx.flags()) {
                OpOutcome::Jump {
                    target,
                    flavor: BranchFlavor::Direct,
                }
            } else {
                OpOutcome::Next
            }
        }
        Op::BranchReg { rm } => OpOutcome::Jump {
            target: ctx.reg(rm),
            flavor: BranchFlavor::Indirect,
        },
        Op::Call { target, ret, link } => match do_link(ctx, link, ret) {
            Ok(()) => OpOutcome::Jump {
                target,
                flavor: BranchFlavor::Direct,
            },
            Err(f) => OpOutcome::Trap(Trap::DataFault(f)),
        },
        Op::CallReg { rm, ret, link } => {
            let target = ctx.reg(rm);
            match do_link(ctx, link, ret) {
                Ok(()) => OpOutcome::Jump {
                    target,
                    flavor: BranchFlavor::Indirect,
                },
                Err(f) => OpOutcome::Trap(Trap::DataFault(f)),
            }
        }
        Op::Ret(kind) => match kind {
            RetKind::Register(r) => OpOutcome::Jump {
                target: ctx.reg(r),
                flavor: BranchFlavor::Indirect,
            },
            RetKind::Pop(sp) => {
                let addr = ctx.reg(sp);
                match ctx.read(addr, MemSize::B4, false) {
                    Ok(target) => {
                        ctx.set_reg(sp, addr.wrapping_add(4));
                        OpOutcome::Jump {
                            target,
                            flavor: BranchFlavor::Indirect,
                        }
                    }
                    Err(f) => OpOutcome::Trap(Trap::DataFault(f)),
                }
            }
        },
        Op::Svc(n) => OpOutcome::Trap(Trap::Syscall(n)),
        Op::Udf => OpOutcome::Trap(Trap::Undef),
        Op::Eret => {
            if ctx.privileged() {
                OpOutcome::Trap(Trap::Eret)
            } else {
                OpOutcome::Trap(Trap::Undef)
            }
        }
        Op::Halt => {
            if ctx.privileged() {
                OpOutcome::Halt
            } else {
                OpOutcome::Trap(Trap::Undef)
            }
        }
        Op::CopRead { cp, reg, rd } => {
            if !ctx.privileged() {
                return OpOutcome::Trap(Trap::Undef);
            }
            match ctx.cop_read(cp, reg) {
                Ok(v) => {
                    ctx.set_reg(rd, v);
                    OpOutcome::Next
                }
                Err(CopFault) => OpOutcome::Trap(Trap::Undef),
            }
        }
        Op::CopWrite { cp, reg, rs } => {
            if !ctx.privileged() {
                return OpOutcome::Trap(Trap::Undef);
            }
            let val = ctx.reg(rs);
            match ctx.cop_write(cp, reg, val) {
                Ok(()) => OpOutcome::Next,
                Err(CopFault) => OpOutcome::Trap(Trap::Undef),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{AccessKind, FaultKind};
    use crate::ir::AluOp;
    use std::collections::HashMap;

    /// Flat-memory test context: 64 KB, user perms everywhere, coprocessor
    /// registers in a map.
    struct TestCtx {
        regs: [u32; 16],
        flags: Flags,
        privileged: bool,
        mem: Vec<u8>,
        cops: HashMap<(u8, u8), u32>,
    }

    impl TestCtx {
        fn new() -> Self {
            TestCtx {
                regs: [0; 16],
                flags: Flags::default(),
                privileged: true,
                mem: vec![0; 0x1_0000],
                cops: HashMap::new(),
            }
        }
    }

    impl ExecCtx for TestCtx {
        fn reg(&self, r: u8) -> u32 {
            self.regs[r as usize]
        }
        fn set_reg(&mut self, r: u8, v: u32) {
            self.regs[r as usize] = v;
        }
        fn flags(&self) -> Flags {
            self.flags
        }
        fn set_flags(&mut self, f: Flags) {
            self.flags = f;
        }
        fn privileged(&self) -> bool {
            self.privileged
        }
        fn read(&mut self, va: u32, size: MemSize, _np: bool) -> Result<u32, MemFault> {
            if !size.aligned(va) {
                return Err(MemFault {
                    addr: va,
                    access: AccessKind::Read,
                    kind: FaultKind::Unaligned,
                });
            }
            crate::bus::ram_load(&self.mem, va, size).ok_or(MemFault {
                addr: va,
                access: AccessKind::Read,
                kind: FaultKind::Unmapped,
            })
        }
        fn write(&mut self, va: u32, val: u32, size: MemSize, _np: bool) -> Result<(), MemFault> {
            if va as usize + size.bytes() as usize > self.mem.len() {
                return Err(MemFault {
                    addr: va,
                    access: AccessKind::Write,
                    kind: FaultKind::Unmapped,
                });
            }
            crate::bus::ram_write(&mut self.mem, va, val, size);
            Ok(())
        }
        fn cop_read(&mut self, cp: u8, reg: u8) -> Result<u32, CopFault> {
            self.cops.get(&(cp, reg)).copied().ok_or(CopFault)
        }
        fn cop_write(&mut self, cp: u8, reg: u8, val: u32) -> Result<(), CopFault> {
            self.cops.insert((cp, reg), val);
            Ok(())
        }
    }

    #[test]
    fn alu_and_flags() {
        let mut c = TestCtx::new();
        c.regs[1] = 7;
        let out = step_op(
            &mut c,
            &Op::Alu {
                op: AluOp::Add,
                rd: 0,
                rn: 1,
                src: Operand::Imm(3),
                set_flags: false,
            },
        );
        assert_eq!(out, OpOutcome::Next);
        assert_eq!(c.regs[0], 10);
        assert!(!c.flags.z, "flags untouched without S");

        step_op(
            &mut c,
            &Op::Cmp {
                rn: 0,
                src: Operand::Imm(10),
                is_tst: false,
            },
        );
        assert!(c.flags.z);
    }

    #[test]
    fn loads_and_stores() {
        let mut c = TestCtx::new();
        c.regs[2] = 0x100;
        c.regs[3] = 0xabcd_1234;
        let out = step_op(
            &mut c,
            &Op::Store {
                rs: 3,
                base: 2,
                off: 4,
                size: MemSize::B4,
                nonpriv: false,
            },
        );
        assert_eq!(out, OpOutcome::Next);
        let out = step_op(
            &mut c,
            &Op::Load {
                rd: 4,
                base: 2,
                off: 4,
                size: MemSize::B4,
                nonpriv: false,
            },
        );
        assert_eq!(out, OpOutcome::Next);
        assert_eq!(c.regs[4], 0xabcd_1234);
    }

    #[test]
    fn load_fault_traps() {
        let mut c = TestCtx::new();
        c.regs[2] = 0xFFFF_0000;
        let out = step_op(
            &mut c,
            &Op::Load {
                rd: 4,
                base: 2,
                off: 0,
                size: MemSize::B4,
                nonpriv: false,
            },
        );
        match out {
            OpOutcome::Trap(Trap::DataFault(f)) => assert_eq!(f.addr, 0xFFFF_0000),
            other => panic!("expected data fault, got {other:?}"),
        }
    }

    #[test]
    fn branches() {
        let mut c = TestCtx::new();
        assert_eq!(
            step_op(&mut c, &Op::Branch { target: 0x44 }),
            OpOutcome::Jump {
                target: 0x44,
                flavor: BranchFlavor::Direct
            }
        );
        c.regs[5] = 0x88;
        assert_eq!(
            step_op(&mut c, &Op::BranchReg { rm: 5 }),
            OpOutcome::Jump {
                target: 0x88,
                flavor: BranchFlavor::Indirect
            }
        );
        // Conditional fall-through.
        c.flags.z = false;
        assert_eq!(
            step_op(
                &mut c,
                &Op::BranchCond {
                    cond: crate::ir::Cond::Eq,
                    target: 0x44
                }
            ),
            OpOutcome::Next
        );
        c.flags.z = true;
        assert!(matches!(
            step_op(
                &mut c,
                &Op::BranchCond {
                    cond: crate::ir::Cond::Eq,
                    target: 0x44
                }
            ),
            OpOutcome::Jump { target: 0x44, .. }
        ));
    }

    #[test]
    fn call_with_link_register() {
        let mut c = TestCtx::new();
        let out = step_op(
            &mut c,
            &Op::Call {
                target: 0x1000,
                ret: 0x24,
                link: LinkKind::Register(14),
            },
        );
        assert_eq!(
            out,
            OpOutcome::Jump {
                target: 0x1000,
                flavor: BranchFlavor::Direct
            }
        );
        assert_eq!(c.regs[14], 0x24);
        assert_eq!(
            step_op(&mut c, &Op::Ret(RetKind::Register(14))),
            OpOutcome::Jump {
                target: 0x24,
                flavor: BranchFlavor::Indirect
            }
        );
    }

    #[test]
    fn call_with_stack_push() {
        let mut c = TestCtx::new();
        c.regs[6] = 0x200;
        let out = step_op(
            &mut c,
            &Op::Call {
                target: 0x1000,
                ret: 0x55,
                link: LinkKind::Push(6),
            },
        );
        assert!(matches!(out, OpOutcome::Jump { target: 0x1000, .. }));
        assert_eq!(c.regs[6], 0x1FC, "sp decremented");
        assert_eq!(c.read(0x1FC, MemSize::B4, false).unwrap(), 0x55);

        let out = step_op(&mut c, &Op::Ret(RetKind::Pop(6)));
        assert_eq!(
            out,
            OpOutcome::Jump {
                target: 0x55,
                flavor: BranchFlavor::Indirect
            }
        );
        assert_eq!(c.regs[6], 0x200, "sp restored");
    }

    #[test]
    fn privileged_ops_from_user_mode_undef() {
        let mut c = TestCtx::new();
        c.privileged = false;
        assert_eq!(step_op(&mut c, &Op::Halt), OpOutcome::Trap(Trap::Undef));
        assert_eq!(step_op(&mut c, &Op::Eret), OpOutcome::Trap(Trap::Undef));
        assert_eq!(
            step_op(
                &mut c,
                &Op::CopRead {
                    cp: 15,
                    reg: 3,
                    rd: 0
                }
            ),
            OpOutcome::Trap(Trap::Undef)
        );
        assert_eq!(
            step_op(
                &mut c,
                &Op::CopWrite {
                    cp: 15,
                    reg: 3,
                    rs: 0
                }
            ),
            OpOutcome::Trap(Trap::Undef)
        );
        // svc is fine from user mode.
        assert_eq!(
            step_op(&mut c, &Op::Svc(9)),
            OpOutcome::Trap(Trap::Syscall(9))
        );
    }

    #[test]
    fn cop_round_trip_and_fault() {
        let mut c = TestCtx::new();
        c.regs[1] = 0x42;
        assert_eq!(
            step_op(
                &mut c,
                &Op::CopWrite {
                    cp: 15,
                    reg: 2,
                    rs: 1
                }
            ),
            OpOutcome::Next
        );
        assert_eq!(
            step_op(
                &mut c,
                &Op::CopRead {
                    cp: 15,
                    reg: 2,
                    rd: 3
                }
            ),
            OpOutcome::Next
        );
        assert_eq!(c.regs[3], 0x42);
        // Unwritten register faults in this test ctx → undef.
        assert_eq!(
            step_op(
                &mut c,
                &Op::CopRead {
                    cp: 1,
                    reg: 9,
                    rd: 3
                }
            ),
            OpOutcome::Trap(Trap::Undef)
        );
    }

    #[test]
    fn halt_and_udf() {
        let mut c = TestCtx::new();
        assert_eq!(step_op(&mut c, &Op::Halt), OpOutcome::Halt);
        assert_eq!(step_op(&mut c, &Op::Udf), OpOutcome::Trap(Trap::Undef));
    }
}
