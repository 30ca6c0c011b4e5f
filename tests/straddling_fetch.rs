//! An instruction that straddles two virtual pages mapped to
//! *non-adjacent* physical frames must be fetched through both
//! translations. `virt`/`native` used to translate only the first byte
//! and read the rest physically contiguously, decoding whatever sat
//! after the first frame; every engine now fetches through the shared
//! cross-page `fetch_bytes`.
//!
//! Each of those images plants a decoy — the same instruction with a different
//! immediate — right after the head's frame, so a contiguous read
//! computes a different register value and the lockstep differ reports
//! the divergence.

mod common;

use common::{interp_then_every_engine, PagedGuest, TABLES};
use simbench::prelude::*;
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};
use simbench_isa_riscle::Riscle;

/// Virtual page holding the instruction's head; its tail is on the next.
const HEAD_PAGE: u32 = 0x0040_0000;
/// Frame behind [`HEAD_PAGE`].
const HEAD_FRAME: u32 = 0x0002_0000;
/// Frame behind the page after [`HEAD_PAGE`] — not adjacent to
/// [`HEAD_FRAME`].
const TAIL_FRAME: u32 = 0x0005_0000;
/// The straddling instruction starts two bytes before the page end.
const HEAD_LEN: usize = 2;

const REAL: u16 = 0x1234;
const DECOY: u16 = 0x4321;

/// Boot with paging off, switch it on, jump to a run of nops ending in
/// `mov A, #REAL` whose last bytes lie on the next virtual page, halt.
fn straddle_image<G: PagedGuest>(real: &[u8], decoy: &[u8]) -> GuestImage {
    assert_eq!(real[..HEAD_LEN], decoy[..HEAD_LEN], "same head bytes");
    assert_ne!(real[HEAD_LEN..], decoy[HEAD_LEN..], "different tails");
    let head_at = 0x1000 - HEAD_LEN as u32;
    let (root, tables) = G::tables(&[(HEAD_PAGE, HEAD_FRAME), (HEAD_PAGE + 0x1000, TAIL_FRAME)]);

    let mut a = G::asm();
    a.org(0x8000);
    G::paging_on(&mut a, root);
    a.mov_imm(PReg::B, HEAD_PAGE + 0xFF0);
    a.br_reg(PReg::B);

    a.org(HEAD_FRAME + 0xFF0);
    while a.here() < HEAD_FRAME + head_at {
        a.nop();
    }
    a.bytes(&real[..HEAD_LEN]);
    // Physically next, virtually nowhere: what a contiguous read finds.
    a.bytes(&decoy[HEAD_LEN..]);
    a.halt();

    a.org(TAIL_FRAME);
    a.bytes(&real[HEAD_LEN..]);
    a.halt();

    a.org(TABLES);
    a.bytes(&tables);
    a.finish(0x8000)
}

/// The reference interpreter computes `REAL` (so the image tests what
/// it claims to), and every other engine agrees with it in lockstep.
fn every_engine_fetches_both_pages<G: PagedGuest>(real: &[u8], decoy: &[u8]) {
    interp_then_every_engine::<G>(&straddle_image::<G>(real, decoy), "straddle", |m| {
        assert_eq!(m.cpu.regs[G::reg_a() as usize], REAL.into(), "{}", G::NAME);
    });
}

/// Paging off: loop twice over `mov A, #REAL` whose last bytes lie on
/// the next page, adding A into B, and rewrite the immediate — those
/// last bytes — to `DECOY` on each trip round.
fn rewritten_tail_image<G: PagedGuest>(real: &[u8], decoy: &[u8]) -> GuestImage {
    let tail = &real[HEAD_LEN..];
    assert_eq!(tail[..2], REAL.to_le_bytes());
    assert_eq!(decoy[HEAD_LEN..][..2], DECOY.to_le_bytes());
    assert_eq!(tail[2..], decoy[HEAD_LEN..][2..], "two bytes to rewrite");
    let (top, tail_at) = (0x8FF0, 0x9000);

    let mut a = G::asm();
    a.org(0x8000);
    let top_label = a.new_label();
    a.mov_imm(PReg::B, 0);
    a.mov_imm(PReg::C, 2);
    a.mov_imm(PReg::D, tail_at);
    a.b(top_label);

    a.org(top);
    a.bind(top_label);
    while a.here() < tail_at - HEAD_LEN as u32 {
        a.nop();
    }
    a.bytes(real);
    a.alu_rr(AluOp::Add, PReg::B, PReg::B, PReg::A);
    for (i, byte) in DECOY.to_le_bytes().into_iter().enumerate() {
        a.mov_imm(PReg::A, byte.into());
        a.store8(PReg::A, PReg::D, i as i32);
    }
    a.alu_ri(AluOp::Sub, PReg::C, PReg::C, 1);
    a.cmp_ri(PReg::C, 0);
    a.b_cond(Cond::Ne, top_label);
    a.alu_ri(AluOp::Add, PReg::A, PReg::B, 0);
    a.halt();
    a.finish(0x8000)
}

/// A block is found through the page of its first byte, but the bytes
/// of its last instruction may continue on the next: a store there
/// must still be seen. The dbt listed such a block under its first
/// page only, kept it, and added `REAL` twice.
fn a_store_to_the_tail_is_seen<G: PagedGuest>(real: &[u8], decoy: &[u8]) {
    let image = rewritten_tail_image::<G>(real, decoy);
    let sum = u32::from(REAL) + u32::from(DECOY);
    let a_of = |m: &Machine<G, Platform>| m.cpu.regs[G::reg_a() as usize];
    let halts_with_sum = |name: &str, run: &dyn Fn(&mut Machine<G, Platform>) -> RunOutcome| {
        let mut m = Machine::<G, _>::boot(&image, Platform::new());
        assert_eq!(run(&mut m).exit, ExitReason::Halted, "{} {name}", G::NAME);
        assert_eq!(a_of(&m), sum, "{} {name}", G::NAME);
    };
    let limits = RunLimits::insns(10_000);
    halts_with_sum("interp", &|m| Interp::<G>::new().run(m, &limits));
    halts_with_sum("detailed", &|m| Detailed::<G>::new().run(m, &limits));
    halts_with_sum("virt", &|m| Virt::<G>::kvm().run(m, &limits));
    halts_with_sum("native", &|m| Virt::<G>::native().run(m, &limits));
    halts_with_sum("dbt", &|m| Dbt::<G>::new().run(m, &limits));
    interp_then_every_engine::<G>(&image, "straddle-tail", |m| assert_eq!(a_of(m), sum));
}

#[test]
fn petix_store_to_the_tail_of_a_straddling_instruction() {
    use simbench_isa_petix::encoding::mov_imm32;
    a_store_to_the_tail_is_seen::<Petix>(
        &mov_imm32(Petix::reg_a(), REAL.into()),
        &mov_imm32(Petix::reg_a(), DECOY.into()),
    );
}

#[test]
fn riscle_store_to_the_tail_of_a_straddling_instruction() {
    use simbench_isa_riscle::encoding::li;
    a_store_to_the_tail_is_seen::<Riscle>(
        &li(Riscle::reg_a(), REAL).to_le_bytes(),
        &li(Riscle::reg_a(), DECOY).to_le_bytes(),
    );
}

#[test]
fn petix_instruction_straddling_non_adjacent_frames() {
    use simbench_isa_petix::encoding::mov_imm32;
    // Six bytes: opcode, register, imm32.
    every_engine_fetches_both_pages::<Petix>(
        &mov_imm32(Petix::reg_a(), REAL.into()),
        &mov_imm32(Petix::reg_a(), DECOY.into()),
    );
}

#[test]
fn riscle_instruction_straddling_non_adjacent_frames() {
    use simbench_isa_riscle::encoding::li;
    // The 4-byte wide form at offset 0xFFE: imm16 is the high half.
    every_engine_fetches_both_pages::<Riscle>(
        &li(Riscle::reg_a(), REAL).to_le_bytes(),
        &li(Riscle::reg_a(), DECOY).to_le_bytes(),
    );
}
