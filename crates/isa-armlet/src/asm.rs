//! armlet assembler: implements the portable interface plus
//! architecture-specific extensions used by the armlet support package.

use simbench_core::asm::{AsmBuffer, LabelUse, PReg, PortableAsm};
use simbench_core::ir::AluOp;

use crate::encoding as enc;
use crate::encoding::LsSize::{self, Byte, Half, Word};

/// Map a portable register onto an armlet GPR.
///
/// `A`–`F` → r0–r5, `Sp` → r13, `Lr` → r14. r6–r12 remain free for
/// architecture-support code; r15 is unused by convention.
pub fn reg(r: PReg) -> u8 {
    match r {
        PReg::A => 0,
        PReg::B => 1,
        PReg::C => 2,
        PReg::D => 3,
        PReg::E => 4,
        PReg::F => 5,
        PReg::Sp => enc::SP,
        PReg::Lr => enc::LR,
    }
}

/// The armlet assembler.
#[derive(Debug, Default)]
pub struct ArmletAsm {
    buf: AsmBuffer,
}

impl ArmletAsm {
    /// A fresh assembler; call [`PortableAsm::org`] before emitting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit a raw instruction word.
    pub fn raw(&mut self, word: u32) {
        self.buf.emit_u32(word);
    }

    /// Flag-setting ALU immediate form.
    pub fn alu_ri_s(&mut self, op: AluOp, rd: PReg, rn: PReg, imm: u32) {
        self.raw(enc::alu_ri(op, reg(rd), reg(rn), imm, true));
    }

    /// A load (or store) of `size` at `base + off`, non-privileged if
    /// `np`.
    fn ldst(&mut self, load: bool, size: LsSize, np: bool, r: PReg, base: PReg, off: i32) {
        self.raw(enc::ldst(load, size, np, reg(r), reg(base), off));
    }

    /// Non-privileged word load (`ldrt`): the ARM-only feature behind the
    /// Nonprivileged Access benchmark.
    pub fn ldrt(&mut self, rd: PReg, base: PReg, off: i32) {
        self.ldst(true, Word, true, rd, base, off);
    }

    /// Non-privileged word store (`strt`).
    pub fn strt(&mut self, rs: PReg, base: PReg, off: i32) {
        self.ldst(false, Word, true, rs, base, off);
    }

    /// Coprocessor read into a portable register.
    pub fn mrc(&mut self, cp: u8, creg: u8, rt: PReg) {
        self.raw(enc::mrc(cp, creg, reg(rt)));
    }

    /// Coprocessor write from a portable register.
    pub fn mcr(&mut self, cp: u8, creg: u8, rt: PReg) {
        self.raw(enc::mcr(cp, creg, reg(rt)));
    }

    /// Halfword load.
    pub fn load16(&mut self, rd: PReg, base: PReg, off: i32) {
        self.ldst(true, Half, false, rd, base, off);
    }

    /// Halfword store.
    pub fn store16(&mut self, rs: PReg, base: PReg, off: i32) {
        self.ldst(false, Half, false, rs, base, off);
    }
}

impl PortableAsm for ArmletAsm {
    fn buf(&self) -> &AsmBuffer {
        &self.buf
    }

    fn buf_mut(&mut self) -> &mut AsmBuffer {
        &mut self.buf
    }

    fn encode_label_use(use_: LabelUse, at: u32, target: u32, out: &mut Vec<u8>) {
        let word = match use_ {
            LabelUse::B => enc::b(at, target),
            LabelUse::BCond(c) => enc::b_cond(c, at, target),
            LabelUse::Call => enc::bl(at, target),
            LabelUse::MovAddr(rd) => {
                // Always the full movw/movt pair, whatever the target.
                out.extend_from_slice(&enc::movw(reg(rd), target & 0xFFFF).to_le_bytes());
                enc::movt(reg(rd), target >> 16)
            }
        };
        out.extend_from_slice(&word.to_le_bytes());
    }

    fn mov_imm(&mut self, rd: PReg, imm: u32) {
        self.raw(enc::movw(reg(rd), imm & 0xFFFF));
        if imm >> 16 != 0 {
            self.raw(enc::movt(reg(rd), imm >> 16));
        }
    }

    fn alu_rr(&mut self, op: AluOp, rd: PReg, rn: PReg, rm: PReg) {
        self.raw(enc::alu_rr(op, reg(rd), reg(rn), reg(rm), false));
    }

    fn alu_ri(&mut self, op: AluOp, rd: PReg, rn: PReg, imm: u32) {
        self.raw(enc::alu_ri(op, reg(rd), reg(rn), imm, false));
    }

    fn cmp_ri(&mut self, rn: PReg, imm: u32) {
        self.raw(enc::cmp_ri(reg(rn), imm));
    }

    fn cmp_rr(&mut self, rn: PReg, rm: PReg) {
        self.raw(enc::cmp_rr(reg(rn), reg(rm)));
    }

    fn load(&mut self, rd: PReg, base: PReg, off: i32) {
        self.ldst(true, Word, false, rd, base, off);
    }

    fn store(&mut self, rs: PReg, base: PReg, off: i32) {
        self.ldst(false, Word, false, rs, base, off);
    }

    fn load8(&mut self, rd: PReg, base: PReg, off: i32) {
        self.ldst(true, Byte, false, rd, base, off);
    }

    fn store8(&mut self, rs: PReg, base: PReg, off: i32) {
        self.ldst(false, Byte, false, rs, base, off);
    }

    fn br_reg(&mut self, r: PReg) {
        self.raw(enc::bx(reg(r)));
    }

    fn call_reg(&mut self, r: PReg) {
        self.raw(enc::blx(reg(r)));
    }

    fn ret(&mut self) {
        self.raw(enc::bx(enc::LR));
    }

    fn svc(&mut self, imm: u16) {
        self.raw(enc::svc(imm));
    }

    fn udf(&mut self) {
        self.raw(enc::UDF_WORD);
    }

    fn eret(&mut self) {
        self.raw(enc::eret());
    }

    fn halt(&mut self) {
        self.raw(enc::halt());
    }

    fn nop(&mut self) {
        self.raw(enc::nop());
    }

    fn emit_smc_word(&mut self, rd: PReg, riter: PReg) {
        // rd = (riter << 16) >> 16          (low 16 bits of the counter)
        // rd[31:16] = 0x3500 >> 16 via movt (movw r5,#imm class + rd=5)
        self.alu_ri(AluOp::Lsl, rd, riter, 16);
        self.alu_ri(AluOp::Lsr, rd, rd, 16);
        self.raw(enc::movt(reg(rd), enc::SMC_NOP_WORD >> 16));
    }

    fn smc_nop_word(&self) -> u32 {
        enc::SMC_NOP_WORD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use simbench_core::image::GuestImage;
    use simbench_core::ir::Op;

    fn words(img: &GuestImage, addr: u32) -> Vec<u32> {
        let s = img
            .sections
            .iter()
            .find(|s| s.addr <= addr && addr < s.end())
            .unwrap();
        s.bytes[(addr - s.addr) as usize..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn forward_branch_fixup() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let target = a.new_label();
        a.b(target);
        a.nop();
        a.bind(target);
        a.halt();
        let img = a.finish(0x8000);
        let w = words(&img, 0x8000);
        let d = decode(w[0], 0x8000).unwrap();
        assert_eq!(d.ops, vec![Op::Branch { target: 0x8008 }]);
    }

    #[test]
    fn backward_call_fixup() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let func = a.new_label();
        a.bind(func);
        a.ret();
        a.nop();
        a.call(func);
        let img = a.finish(0x8000);
        let w = words(&img, 0x8008);
        let d = decode(w[0], 0x8008).unwrap();
        assert!(matches!(
            d.ops[0],
            Op::Call {
                target: 0x8000,
                ret: 0x800C,
                ..
            }
        ));
    }

    #[test]
    fn mov_label_absolute() {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        let data = a.new_label();
        a.mov_label(PReg::A, data);
        a.halt();
        a.align(16);
        a.bind(data);
        a.word(0x1234_5678);
        let img = a.finish(0x8000);
        let addr = 0x8010;
        let w = words(&img, 0x8000);
        assert_eq!(w[0], enc::movw(0, addr & 0xFFFF));
        assert_eq!(w[1], enc::movt(0, addr >> 16));
    }

    #[test]
    fn mov_imm_small_skips_movt() {
        let mut a = ArmletAsm::new();
        a.org(0);
        a.mov_imm(PReg::B, 0x42);
        a.mov_imm(PReg::C, 0xDEAD_BEEF);
        let img = a.finish(0);
        let w = words(&img, 0);
        assert_eq!(w[0], enc::movw(1, 0x42));
        assert_eq!(w[1], enc::movw(2, 0xBEEF));
        assert_eq!(w[2], enc::movt(2, 0xDEAD));
    }

    #[test]
    fn smc_word_sequence_is_three_insns() {
        let mut a = ArmletAsm::new();
        a.org(0);
        a.emit_smc_word(PReg::A, PReg::B);
        let img = a.finish(0);
        let w = words(&img, 0);
        assert_eq!(w.len(), 3);
        // All three must decode.
        for (i, word) in w.iter().enumerate() {
            decode(*word, (i * 4) as u32).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = ArmletAsm::new();
        a.org(0);
        let l = a.new_label();
        a.b(l);
        let _ = a.finish(0);
    }
}
