//! Property test: every riscle encoding, wide and compressed, round-trips
//! through the decoder.

use proptest::prelude::*;
use simbench_core::ir::{AluOp, Cond, LinkKind, MemSize, Op, Operand, RetKind};
use simbench_isa_riscle::decode::decode;
use simbench_isa_riscle::encoding::{self as enc, LR};

fn any_reg() -> impl Strategy<Value = u8> {
    0u8..16
}

fn dec32(w: u32, pc: u32) -> (u8, Vec<Op>) {
    let d = decode(&w.to_le_bytes(), pc).unwrap();
    (d.len, d.ops.to_vec())
}

fn dec16(h: u16, pc: u32) -> (u8, Vec<Op>) {
    let d = decode(&h.to_le_bytes(), pc).unwrap();
    (d.len, d.ops.to_vec())
}

fn alu(op: AluOp, rd: u8, rn: u8, src: Operand) -> Op {
    Op::Alu {
        op,
        rd,
        rn,
        src,
        set_flags: false,
    }
}

proptest! {
    #[test]
    fn li_and_lih_roundtrip(rd in any_reg(), imm: u16) {
        let imm32 = imm as u32;
        prop_assert_eq!(dec32(enc::li(rd, imm), 0), (4, vec![alu(AluOp::Mov, rd, 0, Operand::Imm(imm32))]));
        prop_assert_eq!(dec32(enc::lih(rd, imm), 0), (4, vec![
            alu(AluOp::And, rd, rd, Operand::Imm(0xFFFF)),
            alu(AluOp::Orr, rd, rd, Operand::Imm(imm32 << 16)),
        ]));
    }

    #[test]
    fn alu_roundtrip(code in 0u8..16, rd in any_reg(), rn in any_reg(), rm in any_reg(), imm in 0u32..4096) {
        let op = AluOp::from_code(code).unwrap();
        prop_assert_eq!(dec32(enc::alu_rr(op, rd, rn, rm), 0), (4, vec![alu(op, rd, rn, Operand::Reg(rm))]));
        prop_assert_eq!(dec32(enc::alu_ri(op, rd, rn, imm), 0), (4, vec![alu(op, rd, rn, Operand::Imm(imm))]));
    }

    #[test]
    fn ldst_roundtrip(load: bool, w in 0u8..3, r in any_reg(), base in any_reg(), off in -2048i32..=2047) {
        let (width, size) = [
            (enc::Width::Word, MemSize::B4),
            (enc::Width::Byte, MemSize::B1),
            (enc::Width::Half, MemSize::B2),
        ][w as usize];
        let op = if load {
            Op::Load { rd: r, base, off, size, nonpriv: false }
        } else {
            Op::Store { rs: r, base, off, size, nonpriv: false }
        };
        prop_assert_eq!(dec32(enc::ldst(load, width, r, base, off), 0), (4, vec![op]));
    }

    #[test]
    fn compares_roundtrip(rn in any_reg(), rm in any_reg(), imm in 0u32..4096) {
        let cmp = |src, is_tst| vec![Op::Cmp { rn, src, is_tst }];
        prop_assert_eq!(dec32(enc::cmp_rr(rn, rm), 0).1, cmp(Operand::Reg(rm), false));
        prop_assert_eq!(dec32(enc::cmp_ri(rn, imm), 0).1, cmp(Operand::Imm(imm), false));
        prop_assert_eq!(dec32(enc::tst_rr(rn, rm), 0).1, cmp(Operand::Reg(rm), true));
        prop_assert_eq!(dec32(enc::tst_ri(rn, imm), 0).1, cmp(Operand::Imm(imm), true));
    }

    #[test]
    fn system_forms_roundtrip(imm: u16, rt in any_reg(), cp in any_reg(), csr in any_reg()) {
        prop_assert_eq!(dec32(enc::svc(imm), 0).1, vec![Op::Svc(imm)]);
        prop_assert_eq!(dec32(enc::csrr(rt, cp, csr), 0).1, vec![Op::CopRead { cp, reg: csr, rd: rt }]);
        prop_assert_eq!(dec32(enc::csrw(rt, cp, csr), 0).1, vec![Op::CopWrite { cp, reg: csr, rs: rt }]);
    }

    #[test]
    fn wide_branches_roundtrip(pc in (0u32..0x80_0000).prop_map(|x| x * 2), off in -(1i32 << 20)..(1 << 20), c in 0u8..15) {
        let target = pc.wrapping_add(4).wrapping_add((off * 2) as u32);
        prop_assert_eq!(dec32(enc::b(pc, target), pc).1, vec![Op::Branch { target }]);
        let call = Op::Call { target, ret: pc.wrapping_add(4), link: LinkKind::Register(LR) };
        prop_assert_eq!(dec32(enc::jal(pc, target), pc).1, vec![call]);
        let cond = Cond::from_code(c).unwrap();
        prop_assert_eq!(dec32(enc::b_cond(cond, pc, target), pc).1, vec![Op::BranchCond { cond, target }]);
    }

    #[test]
    fn compressed_forms_roundtrip(rd in any_reg(), rs in any_reg(), imm in -32i32..32) {
        prop_assert_eq!(dec16(enc::c_mv(rd, rs), 0), (2, vec![alu(AluOp::Mov, rd, 0, Operand::Reg(rs))]));
        prop_assert_eq!(dec16(enc::c_add(rd, rs), 0), (2, vec![alu(AluOp::Add, rd, rd, Operand::Reg(rs))]));
        prop_assert_eq!(dec16(enc::c_sub(rd, rs), 0), (2, vec![alu(AluOp::Sub, rd, rd, Operand::Reg(rs))]));
        prop_assert_eq!(dec16(enc::c_li(rd, imm), 0), (2, vec![alu(AluOp::Mov, rd, 0, Operand::Imm(imm as u32))]));
        let jr = if rd == LR { Op::Ret(RetKind::Register(LR)) } else { Op::BranchReg { rm: rd } };
        prop_assert_eq!(dec16(enc::c_jr(rd), 0), (2, vec![jr]));
        let jalr = Op::CallReg { rm: rd, ret: 0x102, link: LinkKind::Register(LR) };
        prop_assert_eq!(dec16(enc::c_jalr(rd), 0x100), (2, vec![jalr]));
    }

    #[test]
    fn compressed_branch_roundtrips(pc in (0u32..0x80_0000).prop_map(|x| x * 2), off in -1024i32..1024) {
        let target = pc.wrapping_add(2).wrapping_add((off * 2) as u32);
        prop_assert_eq!(dec16(enc::c_b(pc, target), pc), (2, vec![Op::Branch { target }]));
    }
}

#[test]
fn operand_free_forms_roundtrip() {
    assert_eq!(dec32(enc::eret(), 0), (4, vec![Op::Eret]));
    assert_eq!(dec32(enc::halt(), 0), (4, vec![Op::Halt]));
    assert_eq!(dec32(enc::nop32(), 0), (4, vec![Op::Nop]));
    assert_eq!(dec16(enc::C_UDF, 0), (2, vec![Op::Udf]));
    assert_eq!(dec16(enc::c_nop(), 0), (2, vec![Op::Nop]));
}

/// Each branch form reaches both ends of its displacement field, in
/// halfwords: simm25 for `b`/`jal`, simm21 for `b<cond>`, simm11 for
/// `c.b`.
#[test]
fn branches_reach_both_ends_of_their_range() {
    let pc = 0x4000_0000u32;
    let hw = |next: u32, off: i32| next.wrapping_add((off * 2) as u32);
    for off in [-(1 << 24), (1 << 24) - 1] {
        let target = hw(pc + 4, off);
        assert_eq!(dec32(enc::b(pc, target), pc).1, [Op::Branch { target }]);
        let (_, ops) = dec32(enc::jal(pc, target), pc);
        assert!(matches!(ops[0], Op::Call { target: t, .. } if t == target));
    }
    for off in [-(1 << 20), (1 << 20) - 1] {
        let (cond, target) = (Cond::Ne, hw(pc + 4, off));
        let want = [Op::BranchCond { cond, target }];
        assert_eq!(dec32(enc::b_cond(cond, pc, target), pc).1, want);
    }
    for off in [-1024, 1023] {
        let target = hw(pc + 2, off);
        assert_eq!(dec16(enc::c_b(pc, target), pc).1, [Op::Branch { target }]);
    }
}

#[test]
#[should_panic(expected = "riscle b displacement out of range")]
fn b_one_past_its_range_panics() {
    enc::b(0x4000_0000, 0x4000_0004 + (1 << 25));
}

#[test]
#[should_panic(expected = "riscle b<cond> displacement out of range")]
fn b_cond_one_past_its_range_panics() {
    enc::b_cond(Cond::Eq, 0x4000_0000, 0x4000_0004 - (1 << 21) - 2);
}
