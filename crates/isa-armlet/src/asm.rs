//! armlet assembler: implements the portable interface plus
//! architecture-specific extensions used by the armlet support package.

use simbench_core::asm::{AsmBuffer, Label, PReg, PortableAsm};
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};

use crate::encoding as enc;

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

#[derive(Debug, Clone, Copy)]
enum Fix {
    /// Unconditional branch at `addr`.
    B,
    /// Branch-and-link at `addr`.
    Bl,
    /// Conditional branch at `addr` (condition already encoded).
    BCond,
    /// movw/movt pair at `addr`, `addr+4` loading an absolute address.
    MovAbs,
}

/// The armlet assembler.
#[derive(Debug, Default)]
pub struct ArmletAsm {
    buf: AsmBuffer,
    fixups: Vec<(u32, Label, Fix)>,
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

    /// Load a full 32-bit constant into a raw register (movw + movt).
    fn mov_imm_raw(&mut self, rd: u8, imm: u32) {
        self.raw(enc::movw(rd, imm & 0xFFFF));
        if imm >> 16 != 0 {
            self.raw(enc::movt(rd, imm >> 16));
        }
    }

    /// Non-privileged word load (`ldrt`): the ARM-only feature behind the
    /// Nonprivileged Access benchmark.
    pub fn ldrt(&mut self, rd: PReg, base: PReg, off: i32) {
        self.raw(enc::ldst(
            true,
            enc::LsSize::Word,
            true,
            reg(rd),
            reg(base),
            off,
        ));
    }

    /// Non-privileged word store (`strt`).
    pub fn strt(&mut self, rs: PReg, base: PReg, off: i32) {
        self.raw(enc::ldst(
            false,
            enc::LsSize::Word,
            true,
            reg(rs),
            reg(base),
            off,
        ));
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
        self.raw(enc::ldst(
            true,
            enc::LsSize::Half,
            false,
            reg(rd),
            reg(base),
            off,
        ));
    }

    /// Halfword store.
    pub fn store16(&mut self, rs: PReg, base: PReg, off: i32) {
        self.raw(enc::ldst(
            false,
            enc::LsSize::Half,
            false,
            reg(rs),
            reg(base),
            off,
        ));
    }
}

impl PortableAsm for ArmletAsm {
    fn here(&self) -> u32 {
        self.buf.here()
    }

    fn org(&mut self, addr: u32) {
        self.buf.org(addr);
    }

    fn align(&mut self, align: u32) {
        self.buf.align(align);
    }

    fn skip(&mut self, n: u32) {
        self.buf.skip(n);
    }

    fn word(&mut self, w: u32) {
        self.buf.emit_u32(w);
    }

    fn bytes(&mut self, data: &[u8]) {
        self.buf.emit(data);
    }

    fn new_label(&mut self) -> Label {
        self.buf.new_label()
    }

    fn bind(&mut self, l: Label) {
        self.buf.bind(l);
    }

    fn label_addr(&self, l: Label) -> Option<u32> {
        self.buf.label_addr(l)
    }

    fn mov_imm(&mut self, rd: PReg, imm: u32) {
        self.mov_imm_raw(reg(rd), imm);
    }

    fn mov_label(&mut self, rd: PReg, l: Label) {
        let at = self.here();
        // Always emit the full movw/movt pair so the fixup site has a
        // fixed shape.
        self.raw(enc::movw(reg(rd), 0));
        self.raw(enc::movt(reg(rd), 0));
        self.fixups.push((at, l, Fix::MovAbs));
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
        self.raw(enc::ldst(
            true,
            enc::LsSize::Word,
            false,
            reg(rd),
            reg(base),
            off,
        ));
    }

    fn store(&mut self, rs: PReg, base: PReg, off: i32) {
        self.raw(enc::ldst(
            false,
            enc::LsSize::Word,
            false,
            reg(rs),
            reg(base),
            off,
        ));
    }

    fn load8(&mut self, rd: PReg, base: PReg, off: i32) {
        self.raw(enc::ldst(
            true,
            enc::LsSize::Byte,
            false,
            reg(rd),
            reg(base),
            off,
        ));
    }

    fn store8(&mut self, rs: PReg, base: PReg, off: i32) {
        self.raw(enc::ldst(
            false,
            enc::LsSize::Byte,
            false,
            reg(rs),
            reg(base),
            off,
        ));
    }

    fn b(&mut self, l: Label) {
        let at = self.here();
        self.raw(enc::b(at, at.wrapping_add(4)));
        self.fixups.push((at, l, Fix::B));
    }

    fn b_cond(&mut self, c: Cond, l: Label) {
        let at = self.here();
        self.raw(enc::b_cond(c, at, at.wrapping_add(4)));
        self.fixups.push((at, l, Fix::BCond));
    }

    fn br_reg(&mut self, r: PReg) {
        self.raw(enc::bx(reg(r)));
    }

    fn call(&mut self, l: Label) {
        let at = self.here();
        self.raw(enc::bl(at, at.wrapping_add(4)));
        self.fixups.push((at, l, Fix::Bl));
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

    fn finish(mut self, entry: u32) -> GuestImage {
        for (at, label, fix) in std::mem::take(&mut self.fixups) {
            let target = self
                .buf
                .label_addr(label)
                .unwrap_or_else(|| panic!("unbound label {label:?} referenced at {at:#x}"));
            match fix {
                Fix::B => self.buf.write_u32_at(at, enc::b(at, target)),
                Fix::Bl => self.buf.write_u32_at(at, enc::bl(at, target)),
                Fix::BCond => {
                    let old = self.buf.read_u32_at(at);
                    let cond = Cond::from_code(((old >> 24) & 0xF) as u8).expect("bcond fixup");
                    self.buf.write_u32_at(at, enc::b_cond(cond, at, target));
                }
                Fix::MovAbs => {
                    let old = self.buf.read_u32_at(at);
                    let rd = ((old >> 20) & 0xF) as u8;
                    self.buf.write_u32_at(at, enc::movw(rd, target & 0xFFFF));
                    self.buf.write_u32_at(at + 4, enc::movt(rd, target >> 16));
                }
            }
        }
        self.buf.into_image(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
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
