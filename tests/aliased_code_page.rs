//! One physical frame of code mapped at two virtual pages must execute
//! under each alias with that alias's own addresses. Decoders bake the
//! *virtual* pc into absolute branch targets and return addresses, so a
//! decode cache keyed by physical address alone — `virt`/`native`
//! before the decoded-page front end remembered the virtual page of its
//! decodes — ran the second alias with the first alias's call target,
//! return address and branch target.
//!
//! The body runs once under each alias: count, call a subroutine in the
//! same frame, branch on which pass this is, and either jump to the
//! other alias or halt. Everything it computes is alias-independent;
//! the link register (or the pushed return address) and the final pc
//! are not, and the lockstep differ compares both.

mod common;

use common::{interp_then_every_engine, PagedGuest, TABLES};
use simbench::prelude::*;
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};
use simbench_isa_riscle::Riscle;

/// The frame holding the body.
const FRAME: u32 = 0x0002_0000;
/// Its two virtual aliases.
const ALIAS_1: u32 = 0x0040_0000;
const ALIAS_2: u32 = 0x0080_0000;
const STACK_TOP: u32 = 0x0009_0000;

/// Boot with paging off, switch it on, run the body under `ALIAS_1`
/// and then under `ALIAS_2`. Returns the image and the offset of the
/// halt within the frame.
fn aliased_image<G: PagedGuest>() -> (GuestImage, u32) {
    let (root, tables) = G::tables(&[(ALIAS_1, FRAME), (ALIAS_2, FRAME)]);
    let mut a = G::asm();
    a.org(0x8000);
    a.mov_imm(PReg::Sp, STACK_TOP);
    G::paging_on(&mut a, root);
    a.mov_imm(PReg::A, 0);
    a.mov_imm(PReg::C, 0);
    a.mov_imm(PReg::D, ALIAS_2);
    a.mov_imm(PReg::B, ALIAS_1);
    a.br_reg(PReg::B);

    // Assembled at the frame's physical address: every reference below
    // is pc-relative in all three encodings, so the bytes are the same
    // under any alias and only the decoder's absolute operands differ.
    a.org(FRAME);
    let (sub, done) = (a.new_label(), a.new_label());
    a.alu_ri(AluOp::Add, PReg::A, PReg::A, 1);
    a.call(sub);
    a.cmp_ri(PReg::C, 1);
    a.b_cond(Cond::Eq, done);
    a.mov_imm(PReg::C, 1);
    a.br_reg(PReg::D);
    a.bind(done);
    let halt_at = a.here() - FRAME;
    a.halt();
    a.bind(sub);
    a.alu_ri(AluOp::Add, PReg::A, PReg::A, 0x10);
    a.ret();

    a.org(TABLES);
    a.bytes(&tables);
    (a.finish(0x8000), halt_at)
}

/// The reference interpreter runs the body once per alias and halts
/// under the second, and every other engine agrees with it.
fn every_engine_decodes_per_alias<G: PagedGuest>() {
    let (image, halt_at) = aliased_image::<G>();
    interp_then_every_engine::<G>(&image, "aliased", |m| {
        assert_eq!(m.cpu.regs[G::reg_a() as usize], 0x22, "{}", G::NAME);
        assert_eq!(m.cpu.pc, ALIAS_2 + halt_at, "{}", G::NAME);
    });
}

#[test]
fn armlet_frame_aliased_at_two_virtual_pages() {
    every_engine_decodes_per_alias::<Armlet>();
}

#[test]
fn petix_frame_aliased_at_two_virtual_pages() {
    every_engine_decodes_per_alias::<Petix>();
}

#[test]
fn riscle_frame_aliased_at_two_virtual_pages() {
    every_engine_decodes_per_alias::<Riscle>();
}
