//! petix assembler: implements the portable interface plus
//! architecture-specific extensions used by the petix support package.
//!
//! petix ALU instructions are two-address (`rd = rd op src`), so the
//! three-address portable forms may expand to a move plus an operation —
//! exactly the kind of per-architecture lowering a real support package
//! performs.

use simbench_core::asm::{AsmBuffer, Label, PReg, PortableAsm};
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};

use crate::encoding as enc;

/// Map a portable register onto a petix GPR: `A`–`F` → r0–r5, `Sp` → r6,
/// `Lr` → r7 (software-managed; hardware calls push to the stack).
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
    /// rel32 at `at + imm_off` for an instruction of `len` bytes.
    Rel { imm_off: u32, len: u32 },
    /// Absolute 32-bit at `at + imm_off`.
    Abs { imm_off: u32 },
}

/// The petix assembler.
#[derive(Debug, Default)]
pub struct PetixAsm {
    buf: AsmBuffer,
    fixups: Vec<(u32, Label, Fix)>,
}

impl PetixAsm {
    /// A fresh assembler; call [`PortableAsm::org`] before emitting.
    pub fn new() -> Self {
        Self::default()
    }

    fn emit(&mut self, bytes: Vec<u8>) {
        self.buf.emit(&bytes);
    }

    /// `rd = rn` (register move).
    pub fn mov_rr(&mut self, rd: PReg, rn: PReg) {
        self.emit(enc::alu_rr(AluOp::Mov, reg(rd), reg(rn)));
    }

    /// Two-address ALU immediate: `rd = rd op imm` (full 32-bit range).
    pub fn alu2_imm(&mut self, op: AluOp, rd: PReg, imm: u32) {
        self.emit(enc::alu_ri32(op, reg(rd), imm));
    }

    /// Push a register on the hardware stack.
    pub fn push(&mut self, r: PReg) {
        self.emit(enc::push(reg(r)));
    }

    /// Pop a register from the hardware stack.
    pub fn pop(&mut self, r: PReg) {
        self.emit(enc::pop(reg(r)));
    }

    /// Read a control register.
    pub fn mov_from_cr(&mut self, rd: PReg, cr: u8) {
        self.emit(enc::mov_from_cr(reg(rd), cr));
    }

    /// Write a control register.
    pub fn mov_to_cr(&mut self, cr: u8, rs: PReg) {
        self.emit(enc::mov_to_cr(cr, reg(rs)));
    }

    /// Halfword load.
    pub fn load16(&mut self, rd: PReg, base: PReg, off: i32) {
        self.emit(enc::ldst(true, enc::Width::Half, reg(rd), reg(base), off));
    }

    /// Halfword store.
    pub fn store16(&mut self, rs: PReg, base: PReg, off: i32) {
        self.emit(enc::ldst(false, enc::Width::Half, reg(rs), reg(base), off));
    }

    fn three_address(&mut self, op: AluOp, rd: u8, rn: u8, rm: u8) {
        if rd == rn {
            self.emit(enc::alu_rr(op, rd, rm));
        } else if rd == rm {
            match op {
                AluOp::Add | AluOp::And | AluOp::Orr | AluOp::Eor | AluOp::Mul => {
                    // Commutative: rd = rd op rn.
                    self.emit(enc::alu_rr(op, rd, rn));
                }
                AluOp::Mov => self.emit(enc::alu_rr(AluOp::Mov, rd, rm)),
                _ => panic!(
                    "petix three-address lowering: rd == rm with non-commutative {op:?}; \
                     use a different destination register"
                ),
            }
        } else {
            self.emit(enc::alu_rr(AluOp::Mov, rd, rn));
            self.emit(enc::alu_rr(op, rd, rm));
        }
    }
}

impl PortableAsm for PetixAsm {
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
        self.emit(enc::mov_imm32(reg(rd), imm));
    }

    fn mov_label(&mut self, rd: PReg, l: Label) {
        let at = self.here();
        self.emit(enc::mov_imm32(reg(rd), 0));
        self.fixups.push((at, l, Fix::Abs { imm_off: 2 }));
    }

    fn alu_rr(&mut self, op: AluOp, rd: PReg, rn: PReg, rm: PReg) {
        self.three_address(op, reg(rd), reg(rn), reg(rm));
    }

    fn alu_ri(&mut self, op: AluOp, rd: PReg, rn: PReg, imm: u32) {
        let (rd, rn) = (reg(rd), reg(rn));
        if matches!(op, AluOp::Mov | AluOp::Mvn) {
            // rn is irrelevant for moves.
            self.emit(enc::alu_ri32(op, rd, imm));
            return;
        }
        if rd != rn {
            self.emit(enc::alu_rr(AluOp::Mov, rd, rn));
        }
        self.emit(enc::alu_ri32(op, rd, imm));
    }

    fn cmp_ri(&mut self, rn: PReg, imm: u32) {
        self.emit(enc::cmp_ri(reg(rn), imm));
    }

    fn cmp_rr(&mut self, rn: PReg, rm: PReg) {
        self.emit(enc::cmp_rr(reg(rn), reg(rm)));
    }

    fn load(&mut self, rd: PReg, base: PReg, off: i32) {
        self.emit(enc::ldst(true, enc::Width::Word, reg(rd), reg(base), off));
    }

    fn store(&mut self, rs: PReg, base: PReg, off: i32) {
        self.emit(enc::ldst(false, enc::Width::Word, reg(rs), reg(base), off));
    }

    fn load8(&mut self, rd: PReg, base: PReg, off: i32) {
        self.emit(enc::ldst(true, enc::Width::Byte, reg(rd), reg(base), off));
    }

    fn store8(&mut self, rs: PReg, base: PReg, off: i32) {
        self.emit(enc::ldst(false, enc::Width::Byte, reg(rs), reg(base), off));
    }

    fn b(&mut self, l: Label) {
        let at = self.here();
        self.emit(enc::jmp(at, at.wrapping_add(5)));
        self.fixups.push((at, l, Fix::Rel { imm_off: 1, len: 5 }));
    }

    fn b_cond(&mut self, c: Cond, l: Label) {
        let at = self.here();
        self.emit(enc::jcc(c, at, at.wrapping_add(6)));
        self.fixups.push((at, l, Fix::Rel { imm_off: 2, len: 6 }));
    }

    fn br_reg(&mut self, r: PReg) {
        self.emit(enc::jmp_reg(reg(r)));
    }

    fn call(&mut self, l: Label) {
        let at = self.here();
        self.emit(enc::call(at, at.wrapping_add(5)));
        self.fixups.push((at, l, Fix::Rel { imm_off: 1, len: 5 }));
    }

    fn call_reg(&mut self, r: PReg) {
        self.emit(enc::call_reg(reg(r)));
    }

    fn ret(&mut self) {
        self.emit(enc::ret());
    }

    fn svc(&mut self, imm: u16) {
        self.emit(enc::int(imm as u8));
    }

    fn udf(&mut self) {
        self.emit(enc::ud2());
    }

    fn eret(&mut self) {
        self.emit(enc::iret());
    }

    fn halt(&mut self) {
        self.emit(enc::halt());
    }

    fn nop(&mut self) {
        self.emit(enc::nop());
    }

    fn emit_smc_word(&mut self, rd: PReg, riter: PReg) {
        // rd = (riter << 16) | low-half of the `mov r5, imm16` encoding.
        if rd != riter {
            self.mov_rr(rd, riter);
        }
        self.alu2_imm(AluOp::Lsl, rd, 16);
        self.alu2_imm(AluOp::Orr, rd, enc::SMC_NOP_WORD);
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
                Fix::Rel { imm_off, len } => {
                    let rel = target.wrapping_sub(at.wrapping_add(len));
                    self.buf.write_u32_at(at + imm_off, rel);
                }
                Fix::Abs { imm_off } => {
                    self.buf.write_u32_at(at + imm_off, target);
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
        let mut a = PetixAsm::new();
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
        let mut a = PetixAsm::new();
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
        a.word(0x1234);
        let img = a.finish(0x8000);
        let d = decode(section_bytes(&img, 0x8000), 0x8000).unwrap();
        assert!(matches!(d.ops[0], Op::Call { ret: 0x8005, .. }));
        // The mov imm32 at 0x8005 carries the bound address of `data`.
        let d = decode(section_bytes(&img, 0x8005), 0x8005).unwrap();
        let expect = img.sections[0].bytes.len() as u32; // data is last in section
        let _ = expect;
        if let Op::Alu {
            src: simbench_core::ir::Operand::Imm(v),
            ..
        } = d.ops[0]
        {
            assert_eq!(v & 3, 0, "aligned data address");
            assert!(v > 0x8005);
        } else {
            panic!("expected mov imm");
        }
    }

    #[test]
    fn three_address_expansion() {
        let mut a = PetixAsm::new();
        a.org(0);
        // rd == rn: single instruction.
        a.alu_rr(AluOp::Add, PReg::A, PReg::A, PReg::B);
        // rd != rn: mov + op.
        a.alu_rr(AluOp::Sub, PReg::C, PReg::A, PReg::B);
        // rd == rm commutative: single instruction, swapped.
        a.alu_rr(AluOp::Add, PReg::B, PReg::A, PReg::B);
        let img = a.finish(0);
        let b = &img.sections[0].bytes;
        assert_eq!(b.len(), 2 + 4 + 2);
    }

    #[test]
    #[should_panic(expected = "non-commutative")]
    fn impossible_lowering_panics() {
        let mut a = PetixAsm::new();
        a.org(0);
        a.alu_rr(AluOp::Sub, PReg::B, PReg::A, PReg::B);
    }

    #[test]
    fn smc_sequence_decodes() {
        let mut a = PetixAsm::new();
        a.org(0);
        a.emit_smc_word(PReg::A, PReg::B);
        let img = a.finish(0);
        let bytes = &img.sections[0].bytes;
        // mov(2) + lsl imm32(6) + orr imm32(6).
        assert_eq!(bytes.len(), 14);
        let mut pc = 0usize;
        while pc < bytes.len() {
            let d = decode(&bytes[pc..], pc as u32).unwrap();
            pc += d.len as usize;
        }
    }
}
