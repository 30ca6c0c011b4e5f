//! Shared by the paging regression tests: per-guest kernel page tables
//! and MMU switch-on, and the sweep that holds every engine to the
//! reference interpreter in lockstep.

use simbench::prelude::*;
use simbench_campaign::EngineKind;
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_differ::{lockstep, DifferConfig};
use simbench_isa_riscle::Riscle;
use simbench_suite::{RiscleSupport, Support};

/// Physical base of the page tables.
pub const TABLES: u32 = 0x0010_0000;
/// Identity-mapped low memory holding the boot code (and any stack).
const BOOT_SPAN: u32 = 0x0010_0000;

/// A guest these tests can put under paging.
pub trait PagedGuest: Isa {
    /// The suite's support package, whose boot-sequence hooks switch
    /// paging on.
    type Support: Support + Default;
    fn asm() -> Asm<Self> {
        Asm::<Self>::default()
    }
    /// The architecture's encoding of `PReg::A`.
    fn reg_a() -> u8;
    /// Kernel page tables at [`TABLES`] mapping [`BOOT_SPAN`] onto
    /// itself and each `(virtual page, frame)` of `pages`: the root
    /// register value and the table bytes.
    fn tables(pages: &[(u32, u32)]) -> (u32, Vec<u8>);
    /// Point the MMU at `root` and switch it on, as the suite's boot
    /// sequence does. Clobbers `A`.
    fn paging_on(a: &mut Asm<Self>, root: u32) {
        let support = Self::Support::default();
        a.mov_imm(PReg::A, root);
        support.emit_table_base(a, PReg::A);
        a.mov_imm(PReg::A, 1);
        support.emit_mmu_on(a, PReg::A);
    }
}

/// The assembler of a [`PagedGuest`].
pub type Asm<G> = <<G as PagedGuest>::Support as Support>::Asm;

impl PagedGuest for Armlet {
    type Support = ArmletSupport;
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
}

impl PagedGuest for Petix {
    type Support = PetixSupport;
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
}

impl PagedGuest for Riscle {
    type Support = RiscleSupport;
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
