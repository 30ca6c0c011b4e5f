//! petix instruction encodings.
//!
//! petix is a variable-length (1–6 byte) CISC-flavoured ISA modelled on
//! x86: eight GPRs (r6 is the stack pointer by hardware convention —
//! calls push their return address), a two-level x86-style page-table
//! format, an `int`-style system call, a two-byte `ud2` equivalent, and
//! control registers accessed through `mov cr` forms. There is **no**
//! non-privileged load/store — the paper notes the corresponding
//! SimBench benchmark is a no-op on x86, and petix reproduces that.
//!
//! Encodings (all little-endian):
//!
//! | Opcode | Form | Length |
//! |--------|------|--------|
//! | `00` | nop | 1 |
//! | `01` | halt | 1 |
//! | `02` | ret (pop target) | 1 |
//! | `03` | iret | 1 |
//! | `0F 0B` | ud2 | 2 |
//! | `10+op` | alu rr: `[mod: rd<<4\|rm]`, `rd = rd op rm` | 2 |
//! | `30+op` | alu imm32: `[mod: rd<<4][imm32]` | 6 |
//! | `50+op` | alu imm16: `[mod: rd<<4][imm16]` | 4 |
//! | `70/71` | load/store word: `[mod: rd<<4\|base][disp16]` | 4 |
//! | `72/73` | load/store byte | 4 |
//! | `74/75` | load/store half | 4 |
//! | `80` | jmp rel32 | 5 |
//! | `81` | jcc: `[cond][rel32]` | 6 |
//! | `82` | call rel32 (pushes return) | 5 |
//! | `83/84` | jmp/call reg: `[rm]` | 2 |
//! | `85/86` | push/pop reg: `[r]` | 2 |
//! | `87` | int imm8 | 2 |
//! | `88/89` | cmp rr / cmp imm32 | 2/6 |
//! | `8A/8B` | tst rr / tst imm32 | 2/6 |
//! | `90/91` | mov r←cr / mov cr←r: `[r<<4\|cr]` | 2 |
//! | `A0` | mov imm32: `[mod: rd<<4][imm32]` | 6 |

use simbench_core::ir::{AluOp, Cond};

/// Longest petix instruction in bytes.
pub const MAX_INSN_BYTES: usize = 6;

/// Stack-pointer register (hardware pushes through it).
pub const SP: u8 = 6;
/// Conventional link register (software-managed scratch).
pub const LR: u8 = 7;

/// The canonical undefined instruction (`ud2`).
const UD2: [u8; 2] = [0x0F, 0x0B];

/// The 4-byte self-modifying-code filler, as a little-endian word:
/// `mov r5, #imm16` (alu-imm16 Mov with rd = 5). OR the iteration count's
/// low 16 bits into the top half for a fresh valid encoding each time.
pub const SMC_NOP_WORD: u32 = 0x0000_5059;

fn r2(a: u8, b: u8) -> u8 {
    debug_assert!(a < 8 && b < 8);
    a << 4 | b
}

/// ALU register form: `rd = rd <op> rm`.
pub fn alu_rr(op: AluOp, rd: u8, rm: u8) -> [u8; 2] {
    [0x10 + op.code(), r2(rd, rm)]
}

/// ALU 32-bit-immediate form: `rd = rd <op> imm`.
pub fn alu_ri32(op: AluOp, rd: u8, imm: u32) -> [u8; 6] {
    let [a, b, c, d] = imm.to_le_bytes();
    [0x30 + op.code(), r2(rd, 0), a, b, c, d]
}

/// ALU 16-bit-immediate form: `rd = rd <op> imm16` (zero-extended).
pub fn alu_ri16(op: AluOp, rd: u8, imm: u16) -> [u8; 4] {
    let [a, b] = imm.to_le_bytes();
    [0x50 + op.code(), r2(rd, 0), a, b]
}

/// Memory access width selector for [`ldst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// 32-bit.
    Word,
    /// 8-bit.
    Byte,
    /// 16-bit.
    Half,
}

/// Load/store with a signed 16-bit displacement.
///
/// # Panics
///
/// Panics if `disp` exceeds ±32767.
pub fn ldst(load: bool, width: Width, r: u8, base: u8, disp: i32) -> [u8; 4] {
    assert!(
        (-32768..=32767).contains(&disp),
        "petix displacement {disp} exceeds 16 bits"
    );
    let op = match (width, load) {
        (Width::Word, true) => 0x70,
        (Width::Word, false) => 0x71,
        (Width::Byte, true) => 0x72,
        (Width::Byte, false) => 0x73,
        (Width::Half, true) => 0x74,
        (Width::Half, false) => 0x75,
    };
    let [a, b] = (disp as i16).to_le_bytes();
    [op, r2(r, base), a, b]
}

/// Relative displacement from the end of an instruction of `len` bytes at
/// `pc` to `target`.
fn rel32(pc: u32, len: u32, target: u32) -> [u8; 4] {
    (target.wrapping_sub(pc.wrapping_add(len)) as i32).to_le_bytes()
}

/// Unconditional direct jump.
pub fn jmp(pc: u32, target: u32) -> [u8; 5] {
    let [a, b, c, d] = rel32(pc, 5, target);
    [0x80, a, b, c, d]
}

/// Conditional jump.
pub fn jcc(cond: Cond, pc: u32, target: u32) -> [u8; 6] {
    let [a, b, c, d] = rel32(pc, 6, target);
    [0x81, cond.code(), a, b, c, d]
}

/// Direct call (pushes the return address).
pub fn call(pc: u32, target: u32) -> [u8; 5] {
    let [a, b, c, d] = rel32(pc, 5, target);
    [0x82, a, b, c, d]
}

/// Indirect jump through a register.
pub fn jmp_reg(rm: u8) -> [u8; 2] {
    [0x83, rm & 0x7]
}

/// Indirect call through a register.
pub fn call_reg(rm: u8) -> [u8; 2] {
    [0x84, rm & 0x7]
}

/// Push a register.
pub fn push(r: u8) -> [u8; 2] {
    [0x85, r & 0x7]
}

/// Pop into a register.
pub fn pop(r: u8) -> [u8; 2] {
    [0x86, r & 0x7]
}

/// Software interrupt (system call).
pub fn int(n: u8) -> [u8; 2] {
    [0x87, n]
}

/// Compare registers.
pub fn cmp_rr(rn: u8, rm: u8) -> [u8; 2] {
    [0x88, r2(rn, rm)]
}

/// Compare with a 32-bit immediate.
pub fn cmp_ri(rn: u8, imm: u32) -> [u8; 6] {
    let [a, b, c, d] = imm.to_le_bytes();
    [0x89, r2(rn, 0), a, b, c, d]
}

/// Bit-test registers.
pub fn tst_rr(rn: u8, rm: u8) -> [u8; 2] {
    [0x8A, r2(rn, rm)]
}

/// Bit-test with a 32-bit immediate.
pub fn tst_ri(rn: u8, imm: u32) -> [u8; 6] {
    let [a, b, c, d] = imm.to_le_bytes();
    [0x8B, r2(rn, 0), a, b, c, d]
}

/// Read a control register: `r = cr`.
pub fn mov_from_cr(r: u8, cr: u8) -> [u8; 2] {
    [0x90, r << 4 | (cr & 0xF)]
}

/// Write a control register: `cr = r`.
pub fn mov_to_cr(cr: u8, r: u8) -> [u8; 2] {
    [0x91, r << 4 | (cr & 0xF)]
}

/// Load a 32-bit immediate.
pub fn mov_imm32(rd: u8, imm: u32) -> [u8; 6] {
    let [a, b, c, d] = imm.to_le_bytes();
    [0xA0, r2(rd, 0), a, b, c, d]
}

/// Single-byte forms.
pub fn nop() -> [u8; 1] {
    [0x00]
}
/// `halt`.
pub fn halt() -> [u8; 1] {
    [0x01]
}
/// `ret`.
pub fn ret() -> [u8; 1] {
    [0x02]
}
/// `iret`.
pub fn iret() -> [u8; 1] {
    [0x03]
}
/// `ud2`.
pub fn ud2() -> [u8; 2] {
    UD2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(nop().len(), 1);
        assert_eq!(ud2().len(), 2);
        assert_eq!(alu_rr(AluOp::Add, 1, 2).len(), 2);
        assert_eq!(alu_ri16(AluOp::Mov, 5, 0).len(), 4);
        assert_eq!(alu_ri32(AluOp::Add, 1, 0xDEAD_BEEF).len(), 6);
        assert_eq!(jmp(0, 100).len(), 5);
        assert_eq!(jcc(Cond::Eq, 0, 100).len(), 6);
        assert_eq!(ldst(true, Width::Word, 1, 2, -4).len(), 4);
    }

    #[test]
    fn every_encoder_fills_exactly_its_array() {
        let forms: [(&str, &[u8]); 26] = [
            ("alu_rr", &alu_rr(AluOp::Sub, 3, 4)),
            ("alu_ri32", &alu_ri32(AluOp::Eor, 2, 0xDEAD_BEEF)),
            ("alu_ri16", &alu_ri16(AluOp::Add, 1, 0xBEEF)),
            ("ldst word", &ldst(true, Width::Word, 1, 2, -4)),
            ("ldst byte", &ldst(false, Width::Byte, 3, 4, 8)),
            ("ldst half", &ldst(true, Width::Half, 5, 6, 32767)),
            ("jmp", &jmp(0x8000, 0x7000)),
            ("jcc", &jcc(Cond::Ne, 0x8000, 0x9000)),
            ("call", &call(0x8000, 0x8100)),
            ("jmp_reg", &jmp_reg(3)),
            ("call_reg", &call_reg(4)),
            ("push", &push(5)),
            ("pop", &pop(5)),
            ("int", &int(0x80)),
            ("cmp_rr", &cmp_rr(1, 2)),
            ("cmp_ri", &cmp_ri(1, 0xFFFF_FFFF)),
            ("tst_rr", &tst_rr(1, 2)),
            ("tst_ri", &tst_ri(1, 0x8000_0000)),
            ("mov_from_cr", &mov_from_cr(1, 2)),
            ("mov_to_cr", &mov_to_cr(2, 1)),
            ("mov_imm32", &mov_imm32(7, 0x1234_5678)),
            ("nop", &nop()),
            ("halt", &halt()),
            ("ret", &ret()),
            ("iret", &iret()),
            ("ud2", &ud2()),
        ];
        for (name, bytes) in forms {
            let d = crate::decode::decode(bytes, 0x8000).expect(name);
            assert_eq!(d.len as usize, bytes.len(), "{name}");
        }
    }

    #[test]
    fn smc_word_matches_alu_ri16_mov_r5() {
        let bytes = alu_ri16(AluOp::Mov, 5, 0);
        let word = u32::from_le_bytes(bytes);
        assert_eq!(word, SMC_NOP_WORD);
    }

    #[test]
    fn rel32_round() {
        // jmp at pc=100 to 100 → rel = -5.
        let b = jmp(100, 100);
        assert_eq!(i32::from_le_bytes(b[1..5].try_into().unwrap()), -5);
    }

    #[test]
    #[should_panic(expected = "exceeds 16 bits")]
    fn huge_displacement_rejected() {
        ldst(true, Width::Word, 0, 0, 40000);
    }
}
