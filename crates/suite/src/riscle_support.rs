//! The riscle architecture + platform support package.

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::fault::ExceptionKind;
use simbench_core::image::GuestImage;
use simbench_isa_riscle::sys::{csr, VECTOR_STRIDE};
use simbench_isa_riscle::{PtFlags, RiscleAsm, TableBuilder};

use crate::support::{BootSpec, HandlerKind, Layout, Support};

/// riscle support package.
#[derive(Debug, Clone, Copy, Default)]
pub struct RiscleSupport;

impl RiscleSupport {
    /// New support package.
    pub fn new() -> Self {
        RiscleSupport
    }

    fn emit_handler(&self, a: &mut RiscleAsm, kind: HandlerKind, layout: &Layout) {
        match kind {
            HandlerKind::Eret => a.eret(),
            HandlerKind::ResumeFromLink => {
                // The faulted `c.jalr` linked its return address into the
                // LR GPR, which is not banked across exceptions — copy it
                // into the resume CSR, as on armlet.
                a.csrw(csr::SAVED_PC, PReg::Lr);
                a.eret();
            }
            HandlerKind::AckIrqEret => {
                // Clobbers D and E, as on the other guests.
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

impl Support for RiscleSupport {
    type Asm = RiscleAsm;
    const ISA_NAME: &'static str = "riscle";
    const HAS_NONPRIV: bool = false;

    fn build(
        &self,
        spec: BootSpec,
        body: impl FnOnce(&mut Self::Asm, &Self, &Layout),
    ) -> GuestImage {
        let layout = self.layout();
        let mut a = RiscleAsm::new();

        // Static sv32-style two-level page tables, identity mapped.
        let mut tb = TableBuilder::new(layout.tables);
        tb.map_range(0, 0, 0x0060_0000, PtFlags::KERNEL);
        tb.map_range(layout.data, layout.data, 0x0020_0000, PtFlags::USER_FULL);
        tb.map_range(layout.cold, layout.cold, layout.cold_len, PtFlags::KERNEL);
        tb.map_range(
            simbench_platform::DEVICE_BASE,
            simbench_platform::DEVICE_BASE,
            0x5000,
            PtFlags::KERNEL_DEVICE,
        );
        let (ttb, blob) = tb.into_blob();

        // Vector table: a branch per exception kind, 0x20 apart. The
        // 2-byte `c.nop` filler keeps every entry halfword aligned.
        a.org(layout.vectors);
        let mut handler_labels = Vec::new();
        for kind in ExceptionKind::ALL {
            let l = a.new_label();
            let entry = layout.vectors + VECTOR_STRIDE * kind.vector_index() as u32;
            while a.here() < entry {
                a.nop();
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

        // Boot: stack, TTB, TLB flush, paging on, optional IRQ unmask,
        // then jump into the benchmark body.
        a.org(layout.boot);
        let code_entry = a.new_label();
        a.mov_imm(PReg::Sp, layout.stack_top);
        a.mov_imm(PReg::A, ttb);
        a.csrw(csr::TTB, PReg::A);
        a.csrw(csr::TLB_FLUSH, PReg::A);
        a.mov_imm(PReg::A, 1);
        a.csrw(csr::CTRL, PReg::A);
        if spec.enable_irqs {
            a.mov_imm(PReg::A, layout.intc);
            a.mov_imm(PReg::B, 1);
            a.store(
                PReg::B,
                PReg::A,
                simbench_platform::devices::INTC_ENABLE as i32,
            );
            a.mov_imm(PReg::A, 1);
            a.csrw(csr::IRQ_CTL, PReg::A);
        }
        a.b(code_entry);

        // Benchmark body.
        a.org(layout.code);
        a.bind(code_entry);
        body(&mut a, self, &layout);

        // Page tables: only their non-zero chunks ship.
        let mut image = a.finish(layout.boot);
        image.push_nonzero(ttb, &blob);
        image
    }

    fn emit_safe_coproc_read(&self, a: &mut Self::Asm, rd: PReg) {
        // MISA: a read-only constant, the designated side-effect-free
        // system-register read.
        a.csrr(rd, csr::MISA);
    }

    fn emit_nonpriv_load(&self, _a: &mut Self::Asm, _rd: PReg, _base: PReg, _off: i32) -> bool {
        false // no ldrt equivalent: base RISC-V has no non-privileged forms
    }

    fn emit_nonpriv_store(&self, _a: &mut Self::Asm, _rs: PReg, _base: PReg, _off: i32) -> bool {
        false
    }

    fn emit_tlb_inv_page(&self, a: &mut Self::Asm, rva: PReg) {
        a.csrw(csr::TLB_INV, rva);
    }

    fn emit_tlb_flush(&self, a: &mut Self::Asm, scratch: PReg) {
        a.csrw(csr::TLB_FLUSH, scratch);
    }
}
