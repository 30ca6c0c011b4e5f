//! Shared by the paging regression tests: per-guest kernel page tables
//! and MMU switch-on, and the sweep that holds every engine to the
//! reference interpreter in lockstep.

use simbench::prelude::*;
use simbench_campaign::EngineKind;
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_differ::{lockstep, DifferConfig};
use simbench_isa_riscle::{Riscle, RiscleAsm};

/// Physical base of the page tables.
pub const TABLES: u32 = 0x0010_0000;
/// Identity-mapped low memory holding the boot code (and any stack).
const BOOT_SPAN: u32 = 0x0010_0000;

/// A guest these tests can put under paging.
pub trait PagedGuest: Isa {
    type Asm: PortableAsm;
    fn asm() -> Self::Asm;
    /// The architecture's encoding of `PReg::A`.
    fn reg_a() -> u8;
    /// Kernel page tables at [`TABLES`] mapping [`BOOT_SPAN`] onto
    /// itself and each `(virtual page, frame)` of `pages`: the root
    /// register value and the table bytes.
    fn tables(pages: &[(u32, u32)]) -> (u32, Vec<u8>);
    /// Point the MMU at `root` and switch it on. Clobbers `A`.
    fn paging_on(a: &mut Self::Asm, root: u32);
}

impl PagedGuest for Armlet {
    type Asm = ArmletAsm;
    fn asm() -> ArmletAsm {
        ArmletAsm::new()
    }
    fn reg_a() -> u8 {
        simbench_isa_armlet::asm::reg(PReg::A)
    }
    fn tables(pages: &[(u32, u32)]) -> (u32, Vec<u8>) {
        use simbench_isa_armlet::{Access, TableBuilder};
        let mut tb = TableBuilder::new(TABLES);
        tb.map_range(0, 0, BOOT_SPAN, Access::KernelOnly);
        for &(va, pa) in pages {
            tb.map_page(va, pa, Access::KernelOnly);
        }
        tb.into_blob()
    }
    fn paging_on(a: &mut ArmletAsm, root: u32) {
        use simbench_isa_armlet::sys::{cp15, CP_SYS};
        a.mov_imm(PReg::A, root);
        a.mcr(CP_SYS, cp15::TTBR, PReg::A);
        a.mov_imm(PReg::A, 1);
        a.mcr(CP_SYS, cp15::SCTLR, PReg::A);
    }
}

impl PagedGuest for Petix {
    type Asm = PetixAsm;
    fn asm() -> PetixAsm {
        PetixAsm::new()
    }
    fn reg_a() -> u8 {
        simbench_isa_petix::asm::reg(PReg::A)
    }
    fn tables(pages: &[(u32, u32)]) -> (u32, Vec<u8>) {
        use simbench_isa_petix::{PtFlags, TableBuilder};
        let mut tb = TableBuilder::new(TABLES);
        tb.map_range(0, 0, BOOT_SPAN, PtFlags::KERNEL);
        for &(va, pa) in pages {
            tb.map_page(va, pa, PtFlags::KERNEL);
        }
        tb.into_blob()
    }
    fn paging_on(a: &mut PetixAsm, root: u32) {
        use simbench_isa_petix::sys::cr;
        a.mov_imm(PReg::A, root);
        a.mov_to_cr(cr::CR3, PReg::A);
        a.mov_imm(PReg::A, 1);
        a.mov_to_cr(cr::CR0, PReg::A);
    }
}

impl PagedGuest for Riscle {
    type Asm = RiscleAsm;
    fn asm() -> RiscleAsm {
        RiscleAsm::new()
    }
    fn reg_a() -> u8 {
        simbench_isa_riscle::asm::reg(PReg::A)
    }
    fn tables(pages: &[(u32, u32)]) -> (u32, Vec<u8>) {
        use simbench_isa_riscle::{PtFlags, TableBuilder};
        let mut tb = TableBuilder::new(TABLES);
        tb.map_range(0, 0, BOOT_SPAN, PtFlags::KERNEL);
        for &(va, pa) in pages {
            tb.map_page(va, pa, PtFlags::KERNEL);
        }
        tb.into_blob()
    }
    fn paging_on(a: &mut RiscleAsm, root: u32) {
        use simbench_isa_riscle::sys::csr;
        a.mov_imm(PReg::A, root);
        a.csrw(csr::TTB, PReg::A);
        a.mov_imm(PReg::A, 1);
        a.csrw(csr::CTRL, PReg::A);
    }
}

/// Run `image` to its halt on the reference interpreter, let `check`
/// assert on the machine it leaves (so the image tests what it claims
/// to), then hold every other engine to the interpreter in lockstep.
pub fn interp_then_every_engine<I: Isa>(
    image: &GuestImage,
    what: &str,
    check: impl FnOnce(&Machine<I, Platform>),
) {
    let mut m = Machine::<I, Platform>::boot(image, Platform::new());
    let out = Interp::<I>::new().run(&mut m, &RunLimits::insns(10_000));
    assert_eq!(out.exit, ExitReason::Halted, "{}", I::NAME);
    check(&m);

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
            &format!("{}/{what}", I::NAME),
        );
        assert!(report.agree(), "{}", report.render());
    }
}
