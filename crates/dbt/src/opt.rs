//! The translation-time IR optimizer: block-local constant folding,
//! the same in every version profile.

use simbench_core::cpu::MAX_GPRS;
use simbench_core::ir::{AluOp, Op, Operand};

use crate::cache::TbStep;

/// Block-local constant propagation: registers whose value is known from
/// an immediate move earlier in the block fold into later immediate
/// operations.
pub fn constant_fold(steps: &mut [TbStep]) {
    let mut known: [Option<u32>; MAX_GPRS] = [None; MAX_GPRS];
    for step in steps.iter_mut() {
        match &mut step.op {
            Op::Alu {
                op,
                rd,
                rn,
                src,
                set_flags,
            } => {
                let (op, rd, rn, mut src, set_flags) = (*op, *rd, *rn, *src, *set_flags);
                // Substitute a known register source with its constant.
                if let Operand::Reg(r) = src {
                    if let Some(v) = known[r as usize] {
                        src = Operand::Imm(v);
                    }
                }
                let rn_val = if matches!(op, AluOp::Mov | AluOp::Mvn) {
                    Some(0)
                } else {
                    known[rn as usize]
                };
                // Adc/Sbc consume the carry flag; they are not foldable
                // without flag knowledge.
                let foldable = !set_flags && !matches!(op, AluOp::Adc | AluOp::Sbc);
                if let (Some(a), Operand::Imm(b), true) = (rn_val, src, foldable) {
                    // Fully foldable: compute now, emit a move.
                    let flags = simbench_core::cpu::Flags::default();
                    let value = simbench_core::alu::eval(op, a, b, flags).value;
                    step.op = Op::Alu {
                        op: AluOp::Mov,
                        rd,
                        rn: 0,
                        src: Operand::Imm(value),
                        set_flags: false,
                    };
                    known[rd as usize] = Some(value);
                    continue;
                }
                step.op = Op::Alu {
                    op,
                    rd,
                    rn,
                    src,
                    set_flags,
                };
                // Track plain immediate moves; anything else clobbers.
                if let (AluOp::Mov, Operand::Imm(v), false) = (op, src, set_flags) {
                    known[rd as usize] = Some(v);
                } else {
                    known[rd as usize] = None;
                }
            }
            Op::Cmp { src, .. } => {
                if let Operand::Reg(r) = *src {
                    if let Some(v) = known[r as usize] {
                        *src = Operand::Imm(v);
                    }
                }
            }
            Op::Load { rd, .. } | Op::CopRead { rd, .. } => known[*rd as usize] = None,
            Op::Ret(simbench_core::ir::RetKind::Pop(sp)) => known[*sp as usize] = None,
            Op::Call {
                link: simbench_core::ir::LinkKind::Register(lr),
                ..
            }
            | Op::CallReg {
                link: simbench_core::ir::LinkKind::Register(lr),
                ..
            } => known[*lr as usize] = None,
            Op::Call {
                link: simbench_core::ir::LinkKind::Push(sp),
                ..
            }
            | Op::CallReg {
                link: simbench_core::ir::LinkKind::Push(sp),
                ..
            } => known[*sp as usize] = None,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::ir::Cond;

    fn step(op: Op) -> TbStep {
        TbStep {
            op,
            next_pc: 0,
            insn_start: true,
        }
    }

    fn mov(rd: u8, v: u32) -> Op {
        Op::Alu {
            op: AluOp::Mov,
            rd,
            rn: 0,
            src: Operand::Imm(v),
            set_flags: false,
        }
    }

    #[test]
    fn folds_constant_chains() {
        let mut steps = vec![
            step(mov(0, 10)),
            step(Op::Alu {
                op: AluOp::Add,
                rd: 1,
                rn: 0,
                src: Operand::Imm(5),
                set_flags: false,
            }),
            step(Op::Alu {
                op: AluOp::Lsl,
                rd: 2,
                rn: 1,
                src: Operand::Imm(2),
                set_flags: false,
            }),
        ];
        constant_fold(&mut steps);
        assert_eq!(steps[1].op, mov(1, 15));
        assert_eq!(steps[2].op, mov(2, 60));
    }

    #[test]
    fn fold_stops_at_loads() {
        let mut steps = vec![
            step(mov(0, 10)),
            step(Op::Load {
                rd: 0,
                base: 3,
                off: 0,
                size: simbench_core::ir::MemSize::B4,
                nonpriv: false,
            }),
            step(Op::Alu {
                op: AluOp::Add,
                rd: 1,
                rn: 0,
                src: Operand::Imm(5),
                set_flags: false,
            }),
        ];
        constant_fold(&mut steps);
        // r0 is no longer a known constant after the load.
        assert!(matches!(steps[2].op, Op::Alu { op: AluOp::Add, .. }));
    }

    #[test]
    fn flag_setting_ops_not_folded() {
        let mut steps = vec![
            step(mov(0, 10)),
            step(Op::Alu {
                op: AluOp::Add,
                rd: 1,
                rn: 0,
                src: Operand::Imm(5),
                set_flags: true,
            }),
            step(Op::BranchCond {
                cond: Cond::Eq,
                target: 0x100,
            }),
        ];
        constant_fold(&mut steps);
        assert!(
            matches!(
                steps[1].op,
                Op::Alu {
                    set_flags: true,
                    ..
                }
            ),
            "flag producer feeding a conditional branch must survive"
        );
    }

    #[test]
    fn folding_keeps_every_step_in_place() {
        // Retirement is counted at instruction starts, so folding rewrites
        // ops but never drops, adds or reorders a step, a mid-instruction
        // Nop included.
        let mut steps = vec![
            step(mov(0, 10)),
            TbStep {
                op: Op::Nop,
                next_pc: 0x8004,
                insn_start: false,
            },
            TbStep {
                op: Op::Alu {
                    op: AluOp::Add,
                    rd: 1,
                    rn: 0,
                    src: Operand::Imm(5),
                    set_flags: false,
                },
                next_pc: 0x8008,
                insn_start: true,
            },
        ];
        constant_fold(&mut steps);
        let shape: Vec<_> = steps.iter().map(|s| (s.next_pc, s.insn_start)).collect();
        assert_eq!(shape, [(0, true), (0x8004, false), (0x8008, true)]);
        assert_eq!((steps[1].op, steps[2].op), (Op::Nop, mov(1, 15)));
    }

    #[test]
    fn cmp_takes_a_known_register_as_an_immediate() {
        let mut steps = vec![
            step(mov(2, 7)),
            step(Op::Cmp {
                rn: 1,
                src: Operand::Reg(2),
                is_tst: false,
            }),
            step(Op::Cmp {
                rn: 2,
                src: Operand::Reg(3),
                is_tst: true,
            }),
        ];
        constant_fold(&mut steps);
        let cmp = |rn, src, is_tst| Op::Cmp { rn, src, is_tst };
        assert_eq!(steps[1].op, cmp(1, Operand::Imm(7), false));
        // An unknown source stays a register; the left operand is never
        // substituted.
        assert_eq!(steps[2].op, cmp(2, Operand::Reg(3), true));
    }

    #[test]
    fn carry_readers_are_not_folded_and_clobber_their_destination() {
        let alu = |op, rd, rn, src| Op::Alu {
            op,
            rd,
            rn,
            src,
            set_flags: false,
        };
        let mut steps = vec![
            step(mov(0, 10)),
            step(mov(1, 3)),
            step(alu(AluOp::Adc, 1, 0, Operand::Reg(0))),
            step(alu(AluOp::Add, 2, 1, Operand::Imm(1))),
        ];
        constant_fold(&mut steps);
        // The carry is unknown at translation time: only the register
        // source is substituted, and r1 is no longer the 3 moved into it.
        assert_eq!(steps[2].op, alu(AluOp::Adc, 1, 0, Operand::Imm(10)));
        assert_eq!(steps[3].op, alu(AluOp::Add, 2, 1, Operand::Imm(1)));
    }

    #[test]
    fn a_move_from_an_unknown_register_clobbers_a_constant() {
        let mut steps = vec![
            step(mov(0, 10)),
            step(Op::Alu {
                op: AluOp::Mov,
                rd: 0,
                rn: 0,
                src: Operand::Reg(3),
                set_flags: false,
            }),
            step(Op::Alu {
                op: AluOp::Sub,
                rd: 1,
                rn: 0,
                src: Operand::Imm(1),
                set_flags: false,
            }),
        ];
        let before = steps.clone();
        constant_fold(&mut steps);
        assert_eq!(steps, before, "r0 holds r3's unknown value");
    }
}
