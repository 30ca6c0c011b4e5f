//! petix decoder: variable-length instruction bytes → micro-op IR.
//!
//! The decoder body and the length table are generated from the
//! declarative encoding spec in `spec/petix.isa` by `simbench-isa-spec`
//! (committed as `src/decode_gen.rs`); this module is the stable public
//! surface. The original hand-written decoder survives as
//! [`crate::decode_ref`], the oracle for the differential proptests and
//! the opcode × fill sweep proving the two agree.

use simbench_core::ir::{DecodeError, Decoded};

/// Total byte length of the instruction whose first byte is `opc`, or
/// `None` if no instruction starts with that byte.
///
/// This is the decode length table exposed for static sweeps: whenever
/// [`decode`] succeeds on a buffer starting with `opc`, the decoded
/// `len` equals this value, and `decode` never reads past it. (A
/// `Some` here does not promise the full instruction decodes — e.g.
/// `0x0F` escapes and `0x81` condition codes can still reject on later
/// bytes — only that the length is determined by the first byte.)
pub const fn insn_len(opc: u8) -> Option<usize> {
    crate::decode_gen::insn_len(opc)
}

/// Decode one instruction starting at `bytes[0]` (the byte at `pc`).
///
/// # Errors
///
/// [`DecodeError`] for invalid opcodes *or* when `bytes` is too short to
/// hold the full instruction (engines retry with more bytes across page
/// boundaries before treating the error as undefined).
#[inline]
pub fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {
    crate::decode_gen::decode(bytes, pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding as enc;
    use crate::encoding::SP;
    use simbench_core::ir::{AluOp, Cond, LinkKind, MemSize, Op, Operand, RetKind};

    fn dec(bytes: &[u8]) -> Decoded {
        decode(bytes, 0x8000).unwrap()
    }

    #[test]
    fn one_byte_forms() {
        assert_eq!(dec(&enc::nop()).ops, vec![Op::Nop]);
        assert_eq!(dec(&enc::halt()).ops, vec![Op::Halt]);
        assert_eq!(dec(&enc::ret()).ops, vec![Op::Ret(RetKind::Pop(SP))]);
        assert_eq!(dec(&enc::iret()).ops, vec![Op::Eret]);
    }

    #[test]
    fn ud2_and_bad_escape() {
        assert_eq!(dec(&enc::ud2()).ops, vec![Op::Udf]);
        assert!(decode(&[0x0F, 0x0C], 0).is_err());
    }

    #[test]
    fn alu_forms() {
        let d = dec(&enc::alu_rr(AluOp::Add, 1, 2));
        assert_eq!(
            d.ops,
            vec![Op::Alu {
                op: AluOp::Add,
                rd: 1,
                rn: 1,
                src: Operand::Reg(2),
                set_flags: false
            }]
        );
        let d = dec(&enc::alu_ri32(AluOp::Eor, 3, 0xDEAD_BEEF));
        assert_eq!(d.len, 6);
        assert_eq!(
            d.ops,
            vec![Op::Alu {
                op: AluOp::Eor,
                rd: 3,
                rn: 3,
                src: Operand::Imm(0xDEAD_BEEF),
                set_flags: false
            }]
        );
        let d = dec(&enc::alu_ri16(AluOp::Mov, 5, 0x1234));
        assert_eq!(d.len, 4);
        assert_eq!(
            d.ops,
            vec![Op::Alu {
                op: AluOp::Mov,
                rd: 5,
                rn: 5,
                src: Operand::Imm(0x1234),
                set_flags: false
            }]
        );
    }

    #[test]
    fn memory_forms() {
        let d = dec(&enc::ldst(true, enc::Width::Word, 1, 2, -8));
        assert_eq!(
            d.ops,
            vec![Op::Load {
                rd: 1,
                base: 2,
                off: -8,
                size: MemSize::B4,
                nonpriv: false
            }]
        );
        let d = dec(&enc::ldst(false, enc::Width::Byte, 3, 4, 7));
        assert_eq!(
            d.ops,
            vec![Op::Store {
                rs: 3,
                base: 4,
                off: 7,
                size: MemSize::B1,
                nonpriv: false
            }]
        );
    }

    #[test]
    fn displacements_round_trip_at_both_ends_of_16_bits() {
        for off in [-32768, -1, 0, 32767] {
            let d = dec(&enc::ldst(true, enc::Width::Half, 5, 6, off));
            assert_eq!(
                d.ops,
                vec![Op::Load {
                    rd: 5,
                    base: 6,
                    off,
                    size: MemSize::B2,
                    nonpriv: false
                }],
                "offset {off}"
            );
        }
    }

    #[test]
    fn branch_targets() {
        let b = enc::jmp(0x8000, 0x8100);
        assert_eq!(dec(&b).ops, vec![Op::Branch { target: 0x8100 }]);
        let b = enc::jcc(Cond::Lt, 0x8000, 0x7F00);
        assert_eq!(
            dec(&b).ops,
            vec![Op::BranchCond {
                cond: Cond::Lt,
                target: 0x7F00
            }]
        );
        let b = enc::call(0x8000, 0x9000);
        assert_eq!(
            dec(&b).ops,
            vec![Op::Call {
                target: 0x9000,
                ret: 0x8005,
                link: LinkKind::Push(SP)
            }]
        );
    }

    #[test]
    fn push_pop_sequences() {
        let d = dec(&enc::push(3));
        assert_eq!(d.ops.len(), 2);
        assert!(matches!(d.ops[0], Op::Alu { op: AluOp::Sub, rd, .. } if rd == SP));
        assert!(matches!(d.ops[1], Op::Store { rs: 3, .. }));
        let d = dec(&enc::pop(3));
        assert!(matches!(d.ops[0], Op::Load { rd: 3, .. }));
        assert!(matches!(d.ops[1], Op::Alu { op: AluOp::Add, rd, .. } if rd == SP));
    }

    #[test]
    fn system_forms() {
        assert_eq!(dec(&enc::int(42)).ops, vec![Op::Svc(42)]);
        assert_eq!(
            dec(&enc::mov_from_cr(2, 5)).ops,
            vec![Op::CopRead {
                cp: 0,
                reg: 5,
                rd: 2
            }]
        );
        assert_eq!(
            dec(&enc::mov_to_cr(3, 1)).ops,
            vec![Op::CopWrite {
                cp: 0,
                reg: 3,
                rs: 1
            }]
        );
    }

    #[test]
    fn truncated_buffers_error() {
        let full = enc::alu_ri32(AluOp::Add, 1, 0x12345678);
        for n in 0..full.len() {
            assert!(decode(&full[..n], 0).is_err(), "truncated to {n} bytes");
        }
        assert!(decode(&full, 0).is_ok());
    }

    #[test]
    fn smc_word_is_harmless_mov_r5() {
        for imm in [0u32, 0xBEEF] {
            let word = enc::SMC_NOP_WORD | (imm << 16);
            let bytes = word.to_le_bytes();
            let d = decode(&bytes, 0).unwrap();
            assert_eq!(d.len, 4);
            assert_eq!(
                d.ops,
                vec![Op::Alu {
                    op: AluOp::Mov,
                    rd: 5,
                    rn: 5,
                    src: Operand::Imm(imm),
                    set_flags: false
                }]
            );
        }
    }

    #[test]
    fn length_table_matches_decoder() {
        // Operand fills that exercise every later-byte validity path
        // (second-byte escapes, condition codes, register fields).
        let fills: [[u8; 5]; 4] = [
            [0x00; 5],
            [0xFF; 5],
            [0x0B, 0x0B, 0x0B, 0x0B, 0x0B],
            [0x07, 0x80, 0x7F, 0x01, 0xFE],
        ];
        for opc in 0..=255u8 {
            for fill in &fills {
                let mut bytes = [0u8; 6];
                bytes[0] = opc;
                bytes[1..].copy_from_slice(fill);
                match (decode(&bytes, 0), insn_len(opc)) {
                    (Ok(d), Some(len)) => assert_eq!(d.len as usize, len, "opcode {opc:#x}"),
                    (Ok(_), None) => panic!("opcode {opc:#x} decodes but has no table length"),
                    (Err(_), _) => {}
                }
            }
            if insn_len(opc).is_none() {
                let bytes = [opc, 0, 0, 0, 0, 0];
                assert!(decode(&bytes, 0).is_err(), "opcode {opc:#x}");
            }
        }
    }

    #[test]
    fn invalid_opcodes_error() {
        for opc in [0x04u8, 0x20, 0x60, 0x76, 0x8C, 0x92, 0xA1, 0xFF] {
            assert!(decode(&[opc, 0, 0, 0, 0, 0], 0).is_err(), "opcode {opc:#x}");
        }
    }

    #[test]
    fn generated_decoder_matches_reference_on_canonical_buffers() {
        // Spot-check the generated ≡ hand-written contract across every
        // opcode with a representative operand fill (the exhaustive
        // proof lives in the analyzer's opcode × fill sweep and the
        // proptest in tests/prop_decode_equiv.rs).
        for opc in 0..=255u8 {
            let bytes = [opc, 0x53, 0x21, 0x43, 0x65, 0x87];
            let (a, b) = (
                decode(&bytes, 0x8000),
                crate::decode_ref::decode(&bytes, 0x8000),
            );
            assert_eq!(a, b, "opcode {opc:#04x}");
            assert_eq!(insn_len(opc), crate::decode_ref::insn_len(opc));
        }
    }
}
