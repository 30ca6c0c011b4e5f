//! The armlet architecture + platform support package.

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::fault::ExceptionKind;
use simbench_core::image::GuestImage;
use simbench_isa_armlet::sys::{cp14, cp15, CP_BANK, CP_SYS, VECTOR_STRIDE};
use simbench_isa_armlet::{Access, ArmletAsm, TableBuilder};

use crate::support::{BootSpec, HandlerKind, Layout, Support};

/// armlet support package.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArmletSupport;

impl ArmletSupport {
    /// New support package.
    pub fn new() -> Self {
        ArmletSupport
    }

    fn emit_handler(&self, a: &mut ArmletAsm, kind: HandlerKind, layout: &Layout) {
        match kind {
            HandlerKind::Eret => a.eret(),
            HandlerKind::ResumeFromLink => {
                // The faulted call left its return address in LR.
                a.mcr(CP_BANK, cp14::SAVED_PC, PReg::Lr);
                a.eret();
            }
            HandlerKind::AckIrqEret => {
                // Clobbers D and E (documented: IRQ-driven benchmarks
                // keep D/E dead in their kernels).
                a.mov_imm(PReg::D, layout.intc);
                a.mov_imm(PReg::E, 1);
                a.store(
                    PReg::E,
                    PReg::D,
                    simbench_platform::devices::INTC_ACK as i32,
                );
                a.eret();
            }
        }
    }
}

impl Support for ArmletSupport {
    type Asm = ArmletAsm;
    const ISA_NAME: &'static str = "armlet";
    const HAS_NONPRIV: bool = true;

    fn build(
        &self,
        spec: BootSpec,
        body: impl FnOnce(&mut Self::Asm, &Self, &Layout),
    ) -> GuestImage {
        let layout = self.layout();
        let mut a = ArmletAsm::new();

        // Static page tables: identity maps for code, data, cold region,
        // and the device pages. ARM-style sections where aligned.
        let mut tb = TableBuilder::new(layout.tables);
        tb.map_range(0, 0, 0x0060_0000, Access::KernelOnly);
        tb.map_range(layout.data, layout.data, 0x0020_0000, Access::UserFull);
        tb.map_range(
            layout.cold,
            layout.cold,
            layout.cold_len,
            Access::KernelOnly,
        );
        tb.map_range(
            simbench_platform::DEVICE_BASE,
            simbench_platform::DEVICE_BASE,
            0x5000,
            Access::KernelDevice,
        );
        let (tbase, blob) = tb.into_blob();

        // Vector table: a branch per exception kind, 0x20 apart.
        a.org(layout.vectors);
        let mut handler_labels = Vec::new();
        for kind in ExceptionKind::ALL {
            let l = a.new_label();
            let entry = layout.vectors + VECTOR_STRIDE * kind.vector_index() as u32;
            while a.here() < entry {
                a.word(0);
            }
            a.b(l);
            handler_labels.push((kind, l));
        }

        // Handlers.
        a.org(layout.handlers);
        for (kind, l) in handler_labels {
            a.bind(l);
            self.emit_handler(&mut a, spec.handlers.for_kind(kind), &layout);
        }

        // Boot: stack, TTBR, TLB flush, MMU on, optional IRQ unmask,
        // then jump into the benchmark body.
        a.org(layout.boot);
        let code_entry = a.new_label();
        a.mov_imm(PReg::Sp, layout.stack_top);
        a.mov_imm(PReg::A, tbase);
        a.mcr(CP_SYS, cp15::TTBR, PReg::A);
        a.mcr(CP_SYS, cp15::TLBIALL, PReg::A);
        a.mov_imm(PReg::A, 1);
        a.mcr(CP_SYS, cp15::SCTLR, PReg::A);
        if spec.enable_irqs {
            a.mov_imm(PReg::A, layout.intc);
            a.mov_imm(PReg::B, 1);
            a.store(
                PReg::B,
                PReg::A,
                simbench_platform::devices::INTC_ENABLE as i32,
            );
            a.mov_imm(PReg::A, 1);
            a.mcr(CP_BANK, cp14::IRQ_CTL, PReg::A);
        }
        a.b(code_entry);

        // Benchmark body.
        a.org(layout.code);
        a.bind(code_entry);
        body(&mut a, self, &layout);

        // Page tables: only their non-zero chunks ship.
        let mut image = a.finish(layout.boot);
        image.push_nonzero(tbase, &blob);
        image
    }

    fn emit_safe_coproc_read(&self, a: &mut Self::Asm, rd: PReg) {
        // The paper's chosen ARM safe read: the Domain Access Control
        // register.
        a.mrc(CP_SYS, cp15::DACR, rd);
    }

    fn emit_nonpriv_load(&self, a: &mut Self::Asm, rd: PReg, base: PReg, off: i32) -> bool {
        a.ldrt(rd, base, off);
        true
    }

    fn emit_nonpriv_store(&self, a: &mut Self::Asm, rs: PReg, base: PReg, off: i32) -> bool {
        a.strt(rs, base, off);
        true
    }

    fn emit_tlb_inv_page(&self, a: &mut Self::Asm, rva: PReg) {
        a.mcr(CP_SYS, cp15::TLBIMVA, rva);
    }

    fn emit_tlb_flush(&self, a: &mut Self::Asm, scratch: PReg) {
        a.mcr(CP_SYS, cp15::TLBIALL, scratch);
    }
}
