//! riscle assembler: implements the portable interface plus
//! architecture-specific extensions used by the riscle support package.
//!
//! riscle ALU register forms are natively three-address, so no lowering
//! is needed there; the assembler's per-architecture work is on the
//! other side: it picks compressed 16-bit encodings (`c.mv`, `c.add`,
//! `c.sub`, `c.nop`, `c.jr`, `c.jalr`, small `c.li`) whenever one
//! expresses the portable operation, so every benchmark image exercises
//! the variable-width fetch path.

use simbench_core::asm::{AsmBuffer, LabelUse, PReg, PortableAsm};
use simbench_core::ir::AluOp;

use crate::encoding as enc;

/// Map a portable register onto a riscle GPR: `A`–`F` → r3–r8 (r8 is
/// the self-modifying-code landing register), `Lr` → r1, `Sp` → r2.
/// r0 is an ordinary scratch register left to handlers.
pub fn reg(r: PReg) -> u8 {
    match r {
        PReg::A => 3,
        PReg::B => 4,
        PReg::C => 5,
        PReg::D => 6,
        PReg::E => 7,
        PReg::F => 8,
        PReg::Sp => enc::SP,
        PReg::Lr => enc::LR,
    }
}

/// The riscle assembler.
#[derive(Debug, Default)]
pub struct RiscleAsm {
    buf: AsmBuffer,
}

impl RiscleAsm {
    /// A fresh assembler; call [`PortableAsm::org`] before emitting.
    pub fn new() -> Self {
        Self::default()
    }

    fn emit32(&mut self, w: u32) {
        self.buf.emit(&w.to_le_bytes());
    }

    fn emit16(&mut self, h: u16) {
        self.buf.emit(&h.to_le_bytes());
    }

    /// `rd = rn` (register move).
    pub fn mov_rr(&mut self, rd: PReg, rn: PReg) {
        self.emit16(enc::c_mv(reg(rd), reg(rn)));
    }

    /// Read a system register: `rd = csr`.
    pub fn csrr(&mut self, rd: PReg, csr: u8) {
        self.emit32(enc::csrr(reg(rd), 0, csr));
    }

    /// Write a system register: `csr = rs`.
    pub fn csrw(&mut self, csr: u8, rs: PReg) {
        self.emit32(enc::csrw(reg(rs), 0, csr));
    }

    /// Halfword load.
    pub fn load16(&mut self, rd: PReg, base: PReg, off: i32) {
        self.emit32(enc::ldst(true, enc::Width::Half, reg(rd), reg(base), off));
    }

    /// Halfword store.
    pub fn store16(&mut self, rs: PReg, base: PReg, off: i32) {
        self.emit32(enc::ldst(false, enc::Width::Half, reg(rs), reg(base), off));
    }
}

impl PortableAsm for RiscleAsm {
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
            LabelUse::Call => enc::jal(at, target),
            LabelUse::MovAddr(rd) => {
                // Always the full li/lih pair, whatever the target.
                out.extend_from_slice(&enc::li(reg(rd), target as u16).to_le_bytes());
                enc::lih(reg(rd), (target >> 16) as u16)
            }
        };
        out.extend_from_slice(&word.to_le_bytes());
    }

    fn mov_imm(&mut self, rd: PReg, imm: u32) {
        let rd = reg(rd);
        if (imm as i32) >= -32 && (imm as i32) < 32 {
            self.emit16(enc::c_li(rd, imm as i32));
        } else if imm <= 0xFFFF {
            self.emit32(enc::li(rd, imm as u16));
        } else {
            self.emit32(enc::li(rd, imm as u16));
            self.emit32(enc::lih(rd, (imm >> 16) as u16));
        }
    }

    fn alu_rr(&mut self, op: AluOp, rd: PReg, rn: PReg, rm: PReg) {
        let (rd, rn, rm) = (reg(rd), reg(rn), reg(rm));
        match op {
            AluOp::Mov => self.emit16(enc::c_mv(rd, rm)),
            AluOp::Add if rd == rn => self.emit16(enc::c_add(rd, rm)),
            AluOp::Sub if rd == rn => self.emit16(enc::c_sub(rd, rm)),
            _ => self.emit32(enc::alu_rr(op, rd, rn, rm)),
        }
    }

    fn alu_ri(&mut self, op: AluOp, rd: PReg, rn: PReg, imm: u32) {
        self.emit32(enc::alu_ri(op, reg(rd), reg(rn), imm));
    }

    fn cmp_ri(&mut self, rn: PReg, imm: u32) {
        self.emit32(enc::cmp_ri(reg(rn), imm));
    }

    fn cmp_rr(&mut self, rn: PReg, rm: PReg) {
        self.emit32(enc::cmp_rr(reg(rn), reg(rm)));
    }

    fn load(&mut self, rd: PReg, base: PReg, off: i32) {
        self.emit32(enc::ldst(true, enc::Width::Word, reg(rd), reg(base), off));
    }

    fn store(&mut self, rs: PReg, base: PReg, off: i32) {
        self.emit32(enc::ldst(false, enc::Width::Word, reg(rs), reg(base), off));
    }

    fn load8(&mut self, rd: PReg, base: PReg, off: i32) {
        self.emit32(enc::ldst(true, enc::Width::Byte, reg(rd), reg(base), off));
    }

    fn store8(&mut self, rs: PReg, base: PReg, off: i32) {
        self.emit32(enc::ldst(false, enc::Width::Byte, reg(rs), reg(base), off));
    }

    fn br_reg(&mut self, r: PReg) {
        self.emit16(enc::c_jr(reg(r)));
    }

    fn call_reg(&mut self, r: PReg) {
        self.emit16(enc::c_jalr(reg(r)));
    }

    fn ret(&mut self) {
        self.emit16(enc::c_jr(enc::LR));
    }

    fn svc(&mut self, imm: u16) {
        self.emit32(enc::svc(imm));
    }

    fn udf(&mut self) {
        self.emit16(enc::C_UDF);
    }

    fn eret(&mut self) {
        self.emit32(enc::eret());
    }

    fn halt(&mut self) {
        self.emit32(enc::halt());
    }

    fn nop(&mut self) {
        self.emit16(enc::c_nop());
    }

    fn emit_smc_word(&mut self, rd: PReg, riter: PReg) {
        // rd = (riter << 16) | the `li r8, #imm16` base encoding.
        if rd != riter {
            self.mov_rr(rd, riter);
        }
        self.alu_ri(AluOp::Lsl, rd, rd, 16);
        self.alu_ri(AluOp::Orr, rd, rd, enc::SMC_NOP_WORD);
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
    use simbench_core::ir::{Op, Operand};

    fn section_bytes(img: &GuestImage, addr: u32) -> &[u8] {
        let s = img
            .sections
            .iter()
            .find(|s| s.addr <= addr && addr < s.end())
            .unwrap();
        &s.bytes[(addr - s.addr) as usize..]
    }

    #[test]
    fn forward_jump_fixup() {
        let mut a = RiscleAsm::new();
        a.org(0x8000);
        let l = a.new_label();
        a.b(l);
        a.nop();
        a.bind(l);
        a.halt();
        let img = a.finish(0x8000);
        let d = decode(section_bytes(&img, 0x8000), 0x8000).unwrap();
        assert_eq!(d.ops, vec![Op::Branch { target: 0x8006 }]);
    }

    #[test]
    fn call_and_label_fixups() {
        let mut a = RiscleAsm::new();
        a.org(0x8000);
        let f = a.new_label();
        let data = a.new_label();
        a.call(f);
        a.mov_label(PReg::A, data);
        a.halt();
        a.bind(f);
        a.ret();
        a.align(4);
        a.bind(data);
        a.word(0x1234_5678);
        let img = a.finish(0x8000);
        let d = decode(section_bytes(&img, 0x8000), 0x8000).unwrap();
        assert!(matches!(d.ops[0], Op::Call { ret: 0x8004, .. }));
        // The li half of the pair at 0x8004 carries the low half of the
        // bound address of `data`.
        let addr = img.sections[0].bytes.len() as u32 + 0x8000 - 4;
        let d = decode(section_bytes(&img, 0x8004), 0x8004).unwrap();
        assert!(
            matches!(d.ops[0], Op::Alu { src: Operand::Imm(v), .. } if v == (addr & 0xFFFF)),
            "li immediate should hold the data address low half"
        );
    }

    #[test]
    fn compressed_forms_are_two_bytes() {
        let mut a = RiscleAsm::new();
        a.org(0);
        a.nop(); // 2
        a.mov_imm(PReg::A, 5); // 2 (c.li)
        a.alu_rr(AluOp::Mov, PReg::B, PReg::B, PReg::A); // 2 (c.mv)
        a.alu_rr(AluOp::Add, PReg::A, PReg::A, PReg::B); // 2 (c.add)
        a.alu_rr(AluOp::Eor, PReg::A, PReg::B, PReg::C); // 4 (three-address)
        a.ret(); // 2
        let img = a.finish(0);
        assert_eq!(img.sections[0].bytes.len(), 2 + 2 + 2 + 2 + 4 + 2);
    }

    #[test]
    fn mov_imm_picks_shortest_form() {
        for (imm, len) in [(0u32, 2), (31, 2), (32, 4), (0xFFFF, 4), (0x1_0000, 8)] {
            let mut a = RiscleAsm::new();
            a.org(0x100);
            a.mov_imm(PReg::A, imm);
            let img = a.finish(0x100);
            assert_eq!(img.sections[0].bytes.len(), len, "imm {imm:#x}");
            // And the sequence reproduces the value when interpreted.
            let bytes = &img.sections[0].bytes;
            let mut pc = 0usize;
            let mut val = 0u32;
            while pc < bytes.len() {
                let d = decode(&bytes[pc..], pc as u32).unwrap();
                for op in &d.ops {
                    if let Op::Alu { op, src, .. } = op {
                        val = match (op, src) {
                            (AluOp::Mov, Operand::Imm(v)) => *v,
                            (AluOp::And, Operand::Imm(v)) => val & v,
                            (AluOp::Orr, Operand::Imm(v)) => val | v,
                            _ => panic!("unexpected op in mov_imm expansion"),
                        };
                    }
                }
                pc += d.len as usize;
            }
            assert_eq!(val, imm, "imm {imm:#x}");
        }
    }

    #[test]
    fn smc_sequence_decodes() {
        let mut a = RiscleAsm::new();
        a.org(0);
        a.emit_smc_word(PReg::A, PReg::B);
        let img = a.finish(0);
        let bytes = &img.sections[0].bytes;
        // c.mv(2) + lsl ri(4) + orr ri(4).
        assert_eq!(bytes.len(), 10);
        let mut pc = 0usize;
        while pc < bytes.len() {
            let d = decode(&bytes[pc..], pc as u32).unwrap();
            pc += d.len as usize;
        }
    }

    #[test]
    fn negative_mov_imm_uses_wide_pair() {
        // 0xFFFF_FFFF is c.li -1 territory? No: mov_imm treats imm as
        // unsigned, and c.li sign-extends — only values whose sign
        // extension reproduces them may use it.
        let mut a = RiscleAsm::new();
        a.org(0);
        a.mov_imm(PReg::A, 0xFFFF_FFFF);
        let img = a.finish(0);
        assert_eq!(img.sections[0].bytes.len(), 2, "-1 round-trips via c.li");
        let d = decode(&img.sections[0].bytes, 0).unwrap();
        assert!(matches!(
            d.ops[0],
            Op::Alu {
                src: Operand::Imm(0xFFFF_FFFF),
                ..
            }
        ));
    }
}
