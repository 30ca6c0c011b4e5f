//! armlet decoder: instruction words → shared micro-op IR.
//!
//! The decoder body is generated from the declarative encoding spec in
//! `spec/armlet.isa` by `simbench-isa-spec` (committed as
//! `src/decode_gen.rs`); this module is the stable public surface. The
//! original hand-written decoder survives as [`crate::decode_ref`], the
//! oracle for the differential proptests and the exhaustive 2^32 sweep
//! proving the two agree.

use simbench_core::ir::{DecodeError, Decoded};

/// Decode the word at `pc`.
///
/// # Errors
///
/// [`DecodeError`] for words in the undefined space — the engines convert
/// this into an architectural undefined-instruction exception (class 0
/// words decode as explicit `Op::Udf` instead, so that deliberately
/// planted UDFs are cheap for DBT engines to translate, mirroring QEMU's
/// "Translated" row in the paper's Fig 4).
#[inline]
pub fn decode(word: u32, pc: u32) -> Result<Decoded, DecodeError> {
    crate::decode_gen::decode(word, pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding as enc;
    use simbench_core::ir::{AluOp, Cond, LinkKind, MemSize, Op, Operand, RetKind};

    fn ops(word: u32) -> simbench_core::ir::OpList {
        decode(word, 0x8000).unwrap().ops
    }

    #[test]
    fn undef_space_decodes_to_udf_op() {
        assert_eq!(ops(0x0000_0000), vec![Op::Udf]);
        assert_eq!(ops(0x0DEA_DBEE), vec![Op::Udf]);
    }

    #[test]
    fn truly_invalid_classes_error() {
        assert!(decode(0xC000_0000, 0).is_err());
        assert!(decode(0xFFFF_FFFF, 0).is_err());
        assert!(decode(0xA600_0000, 0).is_err(), "bad system sub-op");
        assert!(decode(0x9200_0000, 0).is_err(), "bad reg-branch sub-op");
    }

    #[test]
    fn alu_forms() {
        let w = enc::alu_rr(AluOp::Add, 1, 2, 3, true);
        assert_eq!(
            ops(w),
            vec![Op::Alu {
                op: AluOp::Add,
                rd: 1,
                rn: 2,
                src: Operand::Reg(3),
                set_flags: true
            }]
        );
        let w = enc::alu_ri(AluOp::Eor, 4, 5, 0xABC, false);
        assert_eq!(
            ops(w),
            vec![Op::Alu {
                op: AluOp::Eor,
                rd: 4,
                rn: 5,
                src: Operand::Imm(0xABC),
                set_flags: false
            }]
        );
    }

    #[test]
    fn movw_movt() {
        let w = enc::movw(3, 0x1234);
        assert_eq!(
            ops(w),
            vec![Op::Alu {
                op: AluOp::Mov,
                rd: 3,
                rn: 0,
                src: Operand::Imm(0x1234),
                set_flags: false
            }]
        );
        let w = enc::movt(3, 0xBEEF);
        assert_eq!(
            ops(w),
            vec![
                Op::Alu {
                    op: AluOp::And,
                    rd: 3,
                    rn: 3,
                    src: Operand::Imm(0xFFFF),
                    set_flags: false
                },
                Op::Alu {
                    op: AluOp::Orr,
                    rd: 3,
                    rn: 3,
                    src: Operand::Imm(0xBEEF_0000),
                    set_flags: false
                },
            ]
        );
    }

    #[test]
    fn loads_and_stores() {
        let w = enc::ldst(true, enc::LsSize::Word, false, 1, 2, -8);
        assert_eq!(
            ops(w),
            vec![Op::Load {
                rd: 1,
                base: 2,
                off: -8,
                size: MemSize::B4,
                nonpriv: false
            }]
        );
        let w = enc::ldst(false, enc::LsSize::Byte, true, 3, 4, 5);
        assert_eq!(
            ops(w),
            vec![Op::Store {
                rs: 3,
                base: 4,
                off: 5,
                size: MemSize::B1,
                nonpriv: true
            }]
        );
        let w = enc::ldst(true, enc::LsSize::Half, false, 6, 7, 2);
        assert_eq!(
            ops(w),
            vec![Op::Load {
                rd: 6,
                base: 7,
                off: 2,
                size: MemSize::B2,
                nonpriv: false
            }]
        );
    }

    #[test]
    fn branches_resolve_pc_relative() {
        // b from 0x8000 to 0x8010.
        let w = enc::b(0x8000, 0x8010);
        assert_eq!(ops(w), vec![Op::Branch { target: 0x8010 }]);
        // bl records the return address.
        let w = enc::bl(0x8000, 0x7000);
        assert_eq!(
            ops(w),
            vec![Op::Call {
                target: 0x7000,
                ret: 0x8004,
                link: LinkKind::Register(enc::LR)
            }]
        );
        // Conditional.
        let w = enc::b_cond(Cond::Ne, 0x8000, 0x8000);
        assert_eq!(
            ops(w),
            vec![Op::BranchCond {
                cond: Cond::Ne,
                target: 0x8000
            }]
        );
    }

    #[test]
    fn register_branches() {
        assert_eq!(ops(enc::bx(3)), vec![Op::BranchReg { rm: 3 }]);
        assert_eq!(
            ops(enc::bx(enc::LR)),
            vec![Op::Ret(RetKind::Register(enc::LR))]
        );
        assert_eq!(
            ops(enc::blx(3)),
            vec![Op::CallReg {
                rm: 3,
                ret: 0x8004,
                link: LinkKind::Register(enc::LR)
            }]
        );
    }

    #[test]
    fn system_ops() {
        assert_eq!(ops(enc::svc(77)), vec![Op::Svc(77)]);
        assert_eq!(ops(enc::eret()), vec![Op::Eret]);
        assert_eq!(ops(enc::halt()), vec![Op::Halt]);
        assert_eq!(ops(enc::nop()), vec![Op::Nop]);
        assert_eq!(
            ops(enc::mrc(15, 3, 2)),
            vec![Op::CopRead {
                cp: 15,
                reg: 3,
                rd: 2
            }]
        );
        assert_eq!(
            ops(enc::mcr(14, 0, 7)),
            vec![Op::CopWrite {
                cp: 14,
                reg: 0,
                rs: 7
            }]
        );
    }

    #[test]
    fn compares() {
        assert_eq!(
            ops(enc::cmp_rr(1, 2)),
            vec![Op::Cmp {
                rn: 1,
                src: Operand::Reg(2),
                is_tst: false
            }]
        );
        assert_eq!(
            ops(enc::cmp_ri(1, 9)),
            vec![Op::Cmp {
                rn: 1,
                src: Operand::Imm(9),
                is_tst: false
            }]
        );
        assert_eq!(
            ops(enc::tst_rr(1, 2)),
            vec![Op::Cmp {
                rn: 1,
                src: Operand::Reg(2),
                is_tst: true
            }]
        );
        assert_eq!(
            ops(enc::tst_ri(1, 9)),
            vec![Op::Cmp {
                rn: 1,
                src: Operand::Imm(9),
                is_tst: true
            }]
        );
    }

    #[test]
    fn top_nibble_dispatch_matches_decoder() {
        // Every word dispatches on its top nibble. The canonical word of
        // nibbles 0x0..=0xB decodes; 0xC..=0xF are reserved and reject
        // their canonical word (and every other word below it).
        for nibble in 0..16u32 {
            assert_eq!(decode(nibble << 28, 0).is_ok(), nibble < 0xC, "{nibble:#x}");
        }
    }

    #[test]
    fn smc_pattern_is_harmless() {
        for imm in [0u32, 1, 0xFFFF] {
            let got = ops(enc::SMC_NOP_WORD | imm);
            assert_eq!(
                got,
                vec![Op::Alu {
                    op: AluOp::Mov,
                    rd: 5,
                    rn: 0,
                    src: Operand::Imm(imm),
                    set_flags: false
                }]
            );
        }
    }

    #[test]
    fn generated_decoder_matches_reference_on_canonical_words() {
        // Spot-check the generated ≡ hand-written contract on one word
        // per encoding class (the exhaustive proof lives in the
        // analyzer's release-mode 2^32 sweep and the proptest in
        // tests/prop_decode_equiv.rs).
        for nibble in 0..16u32 {
            let w = nibble << 28 | 0x0012_3456;
            let (a, b) = (decode(w, 0x8000), crate::decode_ref::decode(w, 0x8000));
            assert_eq!(a, b, "word {w:#010x}");
        }
    }
}
