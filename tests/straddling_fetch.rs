//! An instruction that straddles two virtual pages mapped to
//! *non-adjacent* physical frames must be fetched through both
//! translations. `virt`/`native` used to translate only the first byte
//! and read the rest physically contiguously, decoding whatever sat
//! after the first frame; every engine now fetches through the shared
//! cross-page `fetch_bytes`.
//!
//! Each image plants a decoy — the same instruction with a different
//! immediate — right after the head's frame, so a contiguous read
//! computes a different register value and the lockstep differ reports
//! the divergence.

use simbench::prelude::*;
use simbench_campaign::EngineKind;
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_differ::{lockstep, DifferConfig};
use simbench_isa_riscle::{Riscle, RiscleAsm};

/// Virtual page holding the instruction's head; its tail is on the next.
const HEAD_PAGE: u32 = 0x0040_0000;
/// Frame behind [`HEAD_PAGE`].
const HEAD_FRAME: u32 = 0x0002_0000;
/// Frame behind the page after [`HEAD_PAGE`] — not adjacent to
/// [`HEAD_FRAME`].
const TAIL_FRAME: u32 = 0x0005_0000;
/// Physical base of the page tables.
const TABLES: u32 = 0x0010_0000;
/// Identity-mapped low memory holding the boot code.
const BOOT_SPAN: u32 = 0x0010_0000;
/// The straddling instruction starts two bytes before the page end.
const HEAD_LEN: usize = 2;

const REAL: u16 = 0x1234;
const DECOY: u16 = 0x4321;

/// Boot with paging off, switch it on, jump to a run of nops ending in
/// `mov A, #REAL` whose last bytes lie on the next virtual page, halt.
fn straddle_image<A: PortableAsm>(
    mut a: A,
    tables: Vec<u8>,
    paging_on: impl FnOnce(&mut A),
    real: &[u8],
    decoy: &[u8],
) -> GuestImage {
    assert_eq!(real[..HEAD_LEN], decoy[..HEAD_LEN], "same head bytes");
    assert_ne!(real[HEAD_LEN..], decoy[HEAD_LEN..], "different tails");
    let head_at = 0x1000 - HEAD_LEN as u32;

    a.org(0x8000);
    paging_on(&mut a);
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

fn petix_image() -> GuestImage {
    use simbench_isa_petix::sys::cr;
    use simbench_isa_petix::{asm::reg, encoding::mov_imm32, PtFlags, TableBuilder};
    let mut tb = TableBuilder::new(TABLES);
    tb.map_range(0, 0, BOOT_SPAN, PtFlags::KERNEL);
    tb.map_page(HEAD_PAGE, HEAD_FRAME, PtFlags::KERNEL);
    tb.map_page(HEAD_PAGE + 0x1000, TAIL_FRAME, PtFlags::KERNEL);
    let (cr3, tables) = tb.into_blob();
    straddle_image(
        PetixAsm::new(),
        tables,
        |a| {
            a.mov_imm(PReg::A, cr3);
            a.mov_to_cr(cr::CR3, PReg::A);
            a.mov_imm(PReg::A, 1);
            a.mov_to_cr(cr::CR0, PReg::A);
        },
        // Six bytes: opcode, register, imm32.
        &mov_imm32(reg(PReg::A), REAL.into()),
        &mov_imm32(reg(PReg::A), DECOY.into()),
    )
}

fn riscle_image() -> GuestImage {
    use simbench_isa_riscle::sys::csr;
    use simbench_isa_riscle::{asm::reg, encoding::li, PtFlags, TableBuilder};
    let mut tb = TableBuilder::new(TABLES);
    tb.map_range(0, 0, BOOT_SPAN, PtFlags::KERNEL);
    tb.map_page(HEAD_PAGE, HEAD_FRAME, PtFlags::KERNEL);
    tb.map_page(HEAD_PAGE + 0x1000, TAIL_FRAME, PtFlags::KERNEL);
    let (ttb, tables) = tb.into_blob();
    straddle_image(
        RiscleAsm::new(),
        tables,
        |a| {
            a.mov_imm(PReg::A, ttb);
            a.csrw(csr::TTB, PReg::A);
            a.mov_imm(PReg::A, 1);
            a.csrw(csr::CTRL, PReg::A);
        },
        // The 4-byte wide form at offset 0xFFE: imm16 is the high half.
        &li(reg(PReg::A), REAL).to_le_bytes(),
        &li(reg(PReg::A), DECOY).to_le_bytes(),
    )
}

/// The reference interpreter computes `REAL` (so the image tests what
/// it claims to), and every other engine agrees with it in lockstep.
fn every_engine_fetches_both_pages<I: Isa>(image: &GuestImage, reg_a: u8) {
    let mut m = Machine::<I, Platform>::boot(image, Platform::new());
    let out = Interp::<I>::new().run(&mut m, &RunLimits::insns(10_000));
    assert_eq!(out.exit, ExitReason::Halted, "{}", I::NAME);
    assert_eq!(m.cpu.regs[reg_a as usize], REAL.into(), "{}", I::NAME);

    for engine in [
        EngineKind::Virt,
        EngineKind::Native,
        EngineKind::Detailed,
        EngineKind::Dbt(VersionProfile::latest()),
    ] {
        let report = lockstep::<I>(
            image,
            EngineKind::Interp,
            engine,
            &DifferConfig::default(),
            &format!("{}/straddle", I::NAME),
        );
        assert!(report.agree(), "{}", report.render());
    }
}

#[test]
fn petix_instruction_straddling_non_adjacent_frames() {
    every_engine_fetches_both_pages::<Petix>(&petix_image(), simbench_isa_petix::asm::reg(PReg::A));
}

#[test]
fn riscle_instruction_straddling_non_adjacent_frames() {
    every_engine_fetches_both_pages::<Riscle>(
        &riscle_image(),
        simbench_isa_riscle::asm::reg(PReg::A),
    );
}
