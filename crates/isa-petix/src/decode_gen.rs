// @generated by simbench-isa-spec from spec/petix.isa — do not edit by hand.
// Regenerate with: cargo run -p simbench-isa-spec --bin specgen
//! Generated `petix` decoder (see `spec/petix.isa`).

use crate::encoding::SP;
use simbench_core::ir::{
    AluOp, Cond, DecodeError, Decoded, InsnClass, LinkKind, MemSize, Op, Operand, RetKind,
};

#[inline]
const fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// Total byte length of the instruction whose first byte is `opc`,
/// or `None` if no instruction starts with that byte. `Some` does
/// not promise the instruction decodes — later bytes can still be
/// rejected — only that the first byte fixes the length.
pub const fn insn_len(opc: u8) -> Option<usize> {
    match opc {
        0x00..=0x03 => Some(1),
        0x0f..=0x1f => Some(2),
        0x30..=0x3f => Some(6),
        0x50..=0x5f => Some(4),
        0x70..=0x75 => Some(4),
        0x80 => Some(5),
        0x81 => Some(6),
        0x82 => Some(5),
        0x83..=0x88 => Some(2),
        0x89 => Some(6),
        0x8a => Some(2),
        0x8b => Some(6),
        0x90..=0x91 => Some(2),
        0xa0 => Some(6),
        _ => None,
    }
}

/// Decode one instruction starting at `bytes[0]` (the byte at `pc`).
///
/// # Errors
///
/// [`DecodeError`] for invalid opcodes or a buffer shorter than
/// the instruction (callers retry with more bytes).
pub fn decode(bytes: &[u8], pc: u32) -> Result<Decoded, DecodeError> {
    let opc = match bytes.first() {
        Some(&b) => b,
        None => return Err(DecodeError { pc }),
    };
    let len = match insn_len(opc) {
        Some(len) => len,
        None => return Err(DecodeError { pc }),
    };
    if bytes.len() < len {
        return Err(DecodeError { pc });
    }
    let w = window(bytes, len);
    match opc {
        0 => {
            // nop
            Ok(Decoded::new(1, [Op::Nop], InsnClass::Nop))
        }
        1 => {
            // halt
            Ok(Decoded::new(1, [Op::Halt], InsnClass::System))
        }
        2 => {
            // ret
            Ok(Decoded::new(
                1,
                [Op::Ret(RetKind::Pop(SP))],
                InsnClass::Branch,
            ))
        }
        3 => {
            // iret
            Ok(Decoded::new(1, [Op::Eret], InsnClass::System))
        }
        0xf => {
            // ud2
            if ((w >> 8) & 0xff) as u32 == 0xb {
                return Ok(Decoded::new(2, [Op::Udf], InsnClass::System));
            }
            Err(DecodeError { pc })
        }
        0x10..=0x1f => {
            // alu_rr
            let op = AluOp::from_code(opc - 0x10).ok_or(DecodeError { pc })?;
            let rd = ((w >> 12) & 0x7) as u32;
            let rm = ((w >> 8) & 0x7) as u32;
            Ok(Decoded::new(
                2,
                [Op::Alu {
                    op,
                    rd: rd as u8,
                    rn: rd as u8,
                    src: Operand::Reg(rm as u8),
                    set_flags: false,
                }],
                InsnClass::Alu,
            ))
        }
        0x30..=0x3f => {
            // alu_ri32
            let op = AluOp::from_code(opc - 0x30).ok_or(DecodeError { pc })?;
            let rd = ((w >> 12) & 0x7) as u32;
            let imm = ((w >> 16) & 0xffffffff) as u32;
            Ok(Decoded::new(
                6,
                [Op::Alu {
                    op,
                    rd: rd as u8,
                    rn: rd as u8,
                    src: Operand::Imm(imm),
                    set_flags: false,
                }],
                InsnClass::Alu,
            ))
        }
        0x50..=0x5f => {
            // alu_ri16
            let op = AluOp::from_code(opc - 0x50).ok_or(DecodeError { pc })?;
            let rd = ((w >> 12) & 0x7) as u32;
            let imm = ((w >> 16) & 0xffff) as u32;
            Ok(Decoded::new(
                4,
                [Op::Alu {
                    op,
                    rd: rd as u8,
                    rn: rd as u8,
                    src: Operand::Imm(imm),
                    set_flags: false,
                }],
                InsnClass::Alu,
            ))
        }
        0x70 => {
            // load_word
            let r = ((w >> 12) & 0x7) as u32;
            let base = ((w >> 8) & 0x7) as u32;
            let off = sext(((w >> 16) & 0xffff) as u32, 16);
            Ok(Decoded::new(
                4,
                [Op::Load {
                    rd: r as u8,
                    base: base as u8,
                    off,
                    size: MemSize::B4,
                    nonpriv: false,
                }],
                InsnClass::Mem,
            ))
        }
        0x71 => {
            // store_word
            let r = ((w >> 12) & 0x7) as u32;
            let base = ((w >> 8) & 0x7) as u32;
            let off = sext(((w >> 16) & 0xffff) as u32, 16);
            Ok(Decoded::new(
                4,
                [Op::Store {
                    rs: r as u8,
                    base: base as u8,
                    off,
                    size: MemSize::B4,
                    nonpriv: false,
                }],
                InsnClass::Mem,
            ))
        }
        0x72 => {
            // load_byte
            let r = ((w >> 12) & 0x7) as u32;
            let base = ((w >> 8) & 0x7) as u32;
            let off = sext(((w >> 16) & 0xffff) as u32, 16);
            Ok(Decoded::new(
                4,
                [Op::Load {
                    rd: r as u8,
                    base: base as u8,
                    off,
                    size: MemSize::B1,
                    nonpriv: false,
                }],
                InsnClass::Mem,
            ))
        }
        0x73 => {
            // store_byte
            let r = ((w >> 12) & 0x7) as u32;
            let base = ((w >> 8) & 0x7) as u32;
            let off = sext(((w >> 16) & 0xffff) as u32, 16);
            Ok(Decoded::new(
                4,
                [Op::Store {
                    rs: r as u8,
                    base: base as u8,
                    off,
                    size: MemSize::B1,
                    nonpriv: false,
                }],
                InsnClass::Mem,
            ))
        }
        0x74 => {
            // load_half
            let r = ((w >> 12) & 0x7) as u32;
            let base = ((w >> 8) & 0x7) as u32;
            let off = sext(((w >> 16) & 0xffff) as u32, 16);
            Ok(Decoded::new(
                4,
                [Op::Load {
                    rd: r as u8,
                    base: base as u8,
                    off,
                    size: MemSize::B2,
                    nonpriv: false,
                }],
                InsnClass::Mem,
            ))
        }
        0x75 => {
            // store_half
            let r = ((w >> 12) & 0x7) as u32;
            let base = ((w >> 8) & 0x7) as u32;
            let off = sext(((w >> 16) & 0xffff) as u32, 16);
            Ok(Decoded::new(
                4,
                [Op::Store {
                    rs: r as u8,
                    base: base as u8,
                    off,
                    size: MemSize::B2,
                    nonpriv: false,
                }],
                InsnClass::Mem,
            ))
        }
        0x80 => {
            // jmp
            let next = pc.wrapping_add(5);
            let imm = ((w >> 8) & 0xffffffff) as u32;
            Ok(Decoded::new(
                5,
                [Op::Branch {
                    target: next.wrapping_add(imm),
                }],
                InsnClass::Branch,
            ))
        }
        0x81 => {
            // jcc
            let next = pc.wrapping_add(6);
            let code = ((w >> 8) & 0xff) as u32;
            let cond = Cond::from_code(code as u8).ok_or(DecodeError { pc })?;
            let imm = ((w >> 16) & 0xffffffff) as u32;
            Ok(Decoded::new(
                6,
                [Op::BranchCond {
                    cond,
                    target: next.wrapping_add(imm),
                }],
                InsnClass::Branch,
            ))
        }
        0x82 => {
            // call
            let next = pc.wrapping_add(5);
            let imm = ((w >> 8) & 0xffffffff) as u32;
            Ok(Decoded::new(
                5,
                [Op::Call {
                    target: next.wrapping_add(imm),
                    ret: next,
                    link: LinkKind::Push(SP),
                }],
                InsnClass::Branch,
            ))
        }
        0x83 => {
            // jmp_reg
            let rm = ((w >> 8) & 0x7) as u32;
            Ok(Decoded::new(
                2,
                [Op::BranchReg { rm: rm as u8 }],
                InsnClass::Branch,
            ))
        }
        0x84 => {
            // call_reg
            let next = pc.wrapping_add(2);
            let rm = ((w >> 8) & 0x7) as u32;
            Ok(Decoded::new(
                2,
                [Op::CallReg {
                    rm: rm as u8,
                    ret: next,
                    link: LinkKind::Push(SP),
                }],
                InsnClass::Branch,
            ))
        }
        0x85 => {
            // push
            let r = ((w >> 8) & 0x7) as u32;
            Ok(Decoded::new(
                2,
                [
                    Op::Alu {
                        op: AluOp::Sub,
                        rd: SP,
                        rn: SP,
                        src: Operand::Imm(4),
                        set_flags: false,
                    },
                    Op::Store {
                        rs: r as u8,
                        base: SP,
                        off: 0,
                        size: MemSize::B4,
                        nonpriv: false,
                    },
                ],
                InsnClass::Mem,
            ))
        }
        0x86 => {
            // pop
            let r = ((w >> 8) & 0x7) as u32;
            Ok(Decoded::new(
                2,
                [
                    Op::Load {
                        rd: r as u8,
                        base: SP,
                        off: 0,
                        size: MemSize::B4,
                        nonpriv: false,
                    },
                    Op::Alu {
                        op: AluOp::Add,
                        rd: SP,
                        rn: SP,
                        src: Operand::Imm(4),
                        set_flags: false,
                    },
                ],
                InsnClass::Mem,
            ))
        }
        0x87 => {
            // int
            let v = ((w >> 8) & 0xff) as u32;
            Ok(Decoded::new(2, [Op::Svc(v as u16)], InsnClass::System))
        }
        0x88 => {
            // cmp_rr
            let rn = ((w >> 12) & 0x7) as u32;
            let rm = ((w >> 8) & 0x7) as u32;
            Ok(Decoded::new(
                2,
                [Op::Cmp {
                    rn: rn as u8,
                    src: Operand::Reg(rm as u8),
                    is_tst: false,
                }],
                InsnClass::Alu,
            ))
        }
        0x89 => {
            // cmp_ri32
            let rn = ((w >> 12) & 0x7) as u32;
            let imm = ((w >> 16) & 0xffffffff) as u32;
            Ok(Decoded::new(
                6,
                [Op::Cmp {
                    rn: rn as u8,
                    src: Operand::Imm(imm),
                    is_tst: false,
                }],
                InsnClass::Alu,
            ))
        }
        0x8a => {
            // tst_rr
            let rn = ((w >> 12) & 0x7) as u32;
            let rm = ((w >> 8) & 0x7) as u32;
            Ok(Decoded::new(
                2,
                [Op::Cmp {
                    rn: rn as u8,
                    src: Operand::Reg(rm as u8),
                    is_tst: true,
                }],
                InsnClass::Alu,
            ))
        }
        0x8b => {
            // tst_ri32
            let rn = ((w >> 12) & 0x7) as u32;
            let imm = ((w >> 16) & 0xffffffff) as u32;
            Ok(Decoded::new(
                6,
                [Op::Cmp {
                    rn: rn as u8,
                    src: Operand::Imm(imm),
                    is_tst: true,
                }],
                InsnClass::Alu,
            ))
        }
        0x90 => {
            // mov_from_cr
            let r = ((w >> 12) & 0x7) as u32;
            let cr = ((w >> 8) & 0xf) as u32;
            Ok(Decoded::new(
                2,
                [Op::CopRead {
                    cp: 0,
                    reg: cr as u8,
                    rd: r as u8,
                }],
                InsnClass::System,
            ))
        }
        0x91 => {
            // mov_to_cr
            let r = ((w >> 12) & 0x7) as u32;
            let cr = ((w >> 8) & 0xf) as u32;
            Ok(Decoded::new(
                2,
                [Op::CopWrite {
                    cp: 0,
                    reg: cr as u8,
                    rs: r as u8,
                }],
                InsnClass::System,
            ))
        }
        0xa0 => {
            // mov_imm32
            let rd = ((w >> 12) & 0x7) as u32;
            let imm = ((w >> 16) & 0xffffffff) as u32;
            Ok(Decoded::new(
                6,
                [Op::Alu {
                    op: AluOp::Mov,
                    rd: rd as u8,
                    rn: 0,
                    src: Operand::Imm(imm),
                    set_flags: false,
                }],
                InsnClass::Alu,
            ))
        }
        _ => Err(DecodeError { pc }),
    }
}

/// Little-endian instruction window: byte `k` at bits `[8k+7:8k]`,
/// read whole, past `len`, from a buffer of 6 bytes or more.
#[inline]
fn window(bytes: &[u8], len: usize) -> u64 {
    if let Some(&[b0, b1, b2, b3, b4, b5]) = bytes.first_chunk() {
        return u64::from_le_bytes([b0, b1, b2, b3, b4, b5, 0, 0]);
    }
    let mut w = [0u8; 8];
    w[..len].copy_from_slice(&bytes[..len]);
    u64::from_le_bytes(w)
}
